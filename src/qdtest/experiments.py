"""Seeded multi-trial harness and report serialization.

A tester's outcome distribution is fully determined by its plan: the
encoding unitary and the phase-register evolution are deterministic, and
only the final phase measurement is random.  :func:`run_trials` therefore
hands a plan to :func:`qdtest.testers.sample_plan`, the one sampling core
the single-call testers use too, with one rng stream per trial
(``default_rng([seed, trial_index])``).  Trial i reproduces a single-call
run with that rng exactly, verdict, statistic and per-run query cost alike.
Verdict and estimator reports are both built from the resulting verdicts.

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
    """Independent per-trial stream derived from (seed, trial index)."""
    return np.random.default_rng([seed, index])


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
    """Independent runs of one plan, run i with the rng ``trial_rng(seed, i)``."""
    if trials < 1:
        raise ValueError("need at least one trial")
    return sample_plan(plan, (trial_rng(seed, i) for i in range(trials)))


def _trial_report(command: str, params: dict, verdicts: list[TestVerdict],
                  rows: list[dict], summary: dict, extra: dict | None = None) -> dict:
    """Append each run's oracle-query totals to its row, and their means and
    then ``extra`` to the summary."""
    for row, v in zip(rows, verdicts):
        row.update(oracle_query_totals(v.queries))
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
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def write_report(report: dict, path: str | Path | None, fmt: str) -> str:
    text = format_csv(report) if fmt == "csv" else format_json(report)
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    return text
