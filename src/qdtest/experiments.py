"""Seeded multi-trial harness and report serialization.

A tester's outcome distribution is fully determined by its plan: the
encoding unitary and the phase-register evolution are deterministic, and
only the final phase measurement is random.  Trial i of :func:`run_trials`
measures that phase from one uniform draw, the first ``random()`` of
``default_rng([seed, i])`` (:func:`trial_rng`).  :func:`trial_uniforms`
computes those draws for every trial at once, bit for bit, by running
numpy's seeding (the ``SeedSequence`` hash and the PCG64 set-up) on arrays,
and :func:`qdtest.testers.sample_plan`, the sampling core the single-call
testers use too, turns them into verdicts in one pass.  Trial i therefore
reproduces a single-call run with ``trial_rng(seed, i)`` exactly, verdict,
statistic and per-run query cost alike.  Verdict and estimator reports are
both built from the resulting verdicts.

Reports are plain dicts with a pinned ``schema_version``; CSV and JSON
serializations are byte-stable for a fixed seed (floats via ``repr``, keys
sorted, row order fixed by trial index).
"""
from __future__ import annotations

import json
import math
from collections import Counter
from pathlib import Path

import numpy as np

from .testers import AEPlan, TestVerdict, sample_plan

SCHEMA_VERSION = 1

ORACLE_QUERY_COLUMNS = ("queries_forward", "queries_inverse", "queries_ctrl")


def trial_rng(seed: int, index: int) -> np.random.Generator:
    """Independent per-trial stream derived from (seed, trial index); trial
    ``index`` measures its phase from this stream's first ``random()``."""
    return np.random.default_rng([seed, index])


# numpy's SeedSequence hash constants (pool of four uint32 words) and the
# PCG64 multiplier.
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _hasher(init: int, mult: int):
    """SeedSequence's ``hashmix`` on uint32 arrays.  Its multiplier advances
    with every call but never depends on the data, so it stays a Python int."""
    const = init

    def hashmix(value):
        nonlocal const
        xor, const = const, (const * mult) & _M32
        value = (value ^ xor) * const
        return value ^ (value >> 16)
    return hashmix


def _mix(x, y):
    value = _MIX_L * x - _MIX_R * y
    return value ^ (value >> 16)


# 128-bit numbers below are four 32-bit limbs in uint64 arrays, least
# significant first, so that limb products and column sums cannot overflow.

def _carry(columns) -> list:
    """Limbs of the number whose 32-bit columns hold these sums, mod 2^128."""
    limbs, carry = [], 0
    for column in columns:
        total = column + carry
        limbs.append(total & _M32)
        carry = total >> 32
    return limbs


def _pcg_step(state: list, inc: list) -> list:
    """PCG64's step, state * multiplier + inc mod 2^128."""
    columns = list(inc)
    for i in range(4):
        for j in range(4 - i):
            product = state[i] * ((_PCG_MULT >> (32 * j)) & _M32)
            columns[i + j] = columns[i + j] + (product & _M32)
            if i + j < 3:
                columns[i + j + 1] = columns[i + j + 1] + (product >> 32)
    return _carry(columns)


def trial_uniforms(seed: int, trials: int) -> np.ndarray:
    """``[trial_rng(seed, i).random() for i in range(trials)]``, bit for bit,
    computed for all trials at once.

    ``default_rng([seed, i])`` hashes the 32-bit words of seed and i
    (little-endian, 0 as one word) into a pool of four words, expands it
    into PCG64's 128-bit initial state and increment, seeds the generator
    and steps it once; ``random()`` is the top 53 bits of its XSL-RR output.
    Every step runs here on arrays over i.
    """
    if seed < 0:
        raise ValueError("seed must be non-negative")
    entropy = [np.full(trials, (seed >> shift) & _M32, dtype=np.uint32)
               for shift in range(0, max(seed.bit_length(), 1), 32)]
    entropy.append(np.arange(trials, dtype=np.uint32))
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(entropy[k] if k < len(entropy) else np.zeros(trials, np.uint32))
            for k in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))

    hashmix = _hasher(_INIT_B, _MULT_B)
    out = [hashmix(pool[k % 4]).astype(np.uint64) for k in range(8)]
    init_state = [out[2], out[3], out[0], out[1]]
    init_seq = [out[6], out[7], out[4], out[5]]
    inc = [((init_seq[0] << 1) & _M32) | 1] + [
        ((init_seq[k] << 1) & _M32) | (init_seq[k - 1] >> 31) for k in range(1, 4)]
    state = _carry([a + b for a, b in zip(inc, init_state)])
    state = _pcg_step(_pcg_step(state, inc), inc)

    folded = (state[2] ^ state[0]) | ((state[3] ^ state[1]) << 32)
    rotation = state[3] >> 26
    bits = (folded >> rotation) | (folded << ((64 - rotation) & 63))
    return (bits >> 11) * 2.0 ** -53


def oracle_query_totals(queries: dict, skip: tuple[str, ...] = ("U",)) -> dict[str, int]:
    """Aggregate ledger snapshot into forward / inverse / controlled totals.

    The estimation target's own label (default ``"U"``) is excluded so the
    columns count queries to the underlying distribution oracles.
    """
    fwd = inv = ctrl = 0
    for label, per in queries.items():
        if label in skip:
            continue
        fwd += per.get("forward", 0)
        inv += per.get("inverse", 0)
        ctrl += per.get("ctrl_forward", 0) + per.get("ctrl_inverse", 0)
    return {"queries_forward": fwd, "queries_inverse": inv, "queries_ctrl": ctrl}


def run_trials(plan: AEPlan, trials: int, seed: int) -> list[TestVerdict]:
    """Independent runs of one plan; run i measures its phase from the first
    ``random()`` of ``trial_rng(seed, i)``."""
    if trials < 1:
        raise ValueError("need at least one trial")
    return sample_plan(plan, trial_uniforms(seed, trials))


def _trial_report(command: str, params: dict, verdicts: list[TestVerdict],
                  rows: list[dict], summary: dict, extra: dict | None = None) -> dict:
    """Append each run's oracle-query totals to its row, and their means and
    then ``extra`` to the summary.  The runs of one plan share one
    ``queries`` dict, whose totals are computed once."""
    totals = {}
    for row, v in zip(rows, verdicts):
        key = id(v.queries)
        if key not in totals:
            totals[key] = oracle_query_totals(v.queries)
        row.update(totals[key])
    for column in ORACLE_QUERY_COLUMNS:
        summary[f"mean_{column}"] = sum(r[column] for r in rows) / len(rows)
    summary.update(extra or {})
    return {"schema_version": SCHEMA_VERSION, "command": command,
            "params": params, "rows": rows, "summary": summary}


def verdict_report(command: str, params: dict, verdicts: list[TestVerdict],
                   extra_summary: dict | None = None) -> dict:
    rows = [{"trial": i, "verdict": v.verdict, "statistic": v.statistic}
            for i, v in enumerate(verdicts)]
    frequencies = Counter(v.verdict for v in verdicts)
    n = len(verdicts)
    summary = {
        "trials": n,
        "frequencies": {k: frequencies[k] / n for k in sorted(frequencies)},
        "t": verdicts[0].t,
        "threshold": verdicts[0].threshold,
        "mean_statistic": sum(v.statistic for v in verdicts) / n,
    }
    return _trial_report(command, params, verdicts, rows, summary, extra_summary)


def estimate_report(command: str, params: dict, verdicts: list[TestVerdict],
                    true_value: float | None) -> dict:
    """Estimator report: each row's estimate is 2 sqrt(statistic)."""
    rows = []
    for i, v in enumerate(verdicts):
        row = {"trial": i, "estimate": 2.0 * math.sqrt(v.statistic),
               "statistic": v.statistic}
        if true_value is not None:
            row["true_value"] = true_value
            row["error"] = abs(row["estimate"] - true_value)
        rows.append(row)
    n = len(rows)
    summary = {"trials": n, "t": verdicts[0].t,
               "mean_estimate": sum(r["estimate"] for r in rows) / n}
    if true_value is not None:
        summary["true_value"] = true_value
        summary["mean_error"] = sum(r["error"] for r in rows) / n
    return _trial_report(command, params, verdicts, rows, summary)


def sweep_report(command: str, params: dict, points: list[dict]) -> dict:
    return {"schema_version": SCHEMA_VERSION, "command": command,
            "params": params, "rows": points,
            "summary": {"grid_points": len(points)}}


# --- serialization ---------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def format_csv(report: dict) -> str:
    """Byte-stable CSV: header, one line per row, then a summary row."""
    rows = report["rows"]
    columns = list(rows[0]) if rows else []
    lines = [f"# schema_version={report['schema_version']} command={report['command']}"]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(row.get(c, "")) for c in columns))
    summary = report["summary"]
    pairs = []
    for key in summary:
        val = summary[key]
        if isinstance(val, dict):
            pairs.extend(f"{key}.{k}={_fmt(v)}" for k, v in val.items())
        else:
            pairs.append(f"{key}={_fmt(val)}")
    lines.append("summary," + ";".join(pairs))
    return "\n".join(lines) + "\n"


def format_json(report: dict) -> str:
    """``json.dumps(report, sort_keys=True, indent=2) + "\\n"``, byte for byte.

    CPython encodes in C only without ``indent``.  So the rows, which are
    non-empty flat dicts in every report, go through the C encoder in one
    call, with an item separator that puts each key on its own line at the
    rows' depth, and are spliced into the indented encoding of the rest.
    """
    text = json.dumps({**report, "rows": []}, sort_keys=True, indent=2)
    if report["rows"]:
        rows = json.JSONEncoder(sort_keys=True, separators=(",\n      ", ": ")
                                ).encode(report["rows"])
        # A raw newline before "{" occurs only between two rows: JSON strings
        # escape newlines, and flat rows hold no nested dicts.
        body = rows[2:-2].replace("},\n      {", "\n    },\n    {\n      ")
        text = text.replace('\n  "rows": []',
                            '\n  "rows": [\n    {\n      ' + body + "\n    }\n  ]", 1)
    return text + "\n"


def write_report(report: dict, path: str | Path | None, fmt: str) -> str:
    text = format_csv(report) if fmt == "csv" else format_json(report)
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    return text
