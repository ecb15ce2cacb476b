"""Seeded multi-trial experiment harness and report serialization.

A tester's outcome distribution is fully determined by its instance and
parameters: the encoding unitary and phase-register evolution are
deterministic, and only the final phase measurement is random.  The harness
therefore builds the exact phase distribution once per instance and draws one
Born sample per trial, giving each trial its own rng stream
(``default_rng([seed, trial_index])``) and its own ledger initialized with
the deterministic per-run query counts.  This reproduces the per-call tester
exactly, outcome distribution and ledger alike.

Reports are plain dicts with a pinned ``schema_version``; CSV and JSON
serializations are byte-stable for a fixed seed (floats via ``repr``, keys
sorted, row order fixed by trial index).
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .amplitude import estimate_from_phase, phase_distribution
from .statevec import QueryLedger
from .testers import AEPlan, TestVerdict

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


def run_verdict_trials(plan: AEPlan, trials: int, seed: int) -> list[TestVerdict]:
    """Independent tester runs on one instance (shared exact phase distribution)."""
    if trials < 1:
        raise ValueError("need at least one trial")
    base = QueryLedger()
    dist = phase_distribution(plan.unitary, plan.layout, plan.projector, plan.t,
                              ledger=base)
    cost = base.snapshot()
    out = []
    for i in range(trials):
        result = dist.sample(trial_rng(seed, i))
        verdict = plan.labels[0] if result.estimate < plan.threshold else plan.labels[1]
        out.append(TestVerdict(verdict=verdict, statistic=result.estimate,
                               t=plan.t, threshold=plan.threshold,
                               params=dict(plan.params), queries=cost))
    return out


def run_estimate_trials(plan_layout, unitary, projector, t: int, trials: int,
                        seed: int) -> list[dict]:
    """Distance-estimator trials: rows carry the estimate 2 sqrt(statistic)."""
    if trials < 1:
        raise ValueError("need at least one trial")
    base = QueryLedger()
    dist = phase_distribution(unitary, plan_layout, projector, t, ledger=base)
    cost = base.snapshot()
    rows = []
    for i in range(trials):
        result = dist.sample(trial_rng(seed, i))
        rows.append({"statistic": result.estimate,
                     "estimate": 2.0 * math.sqrt(result.estimate),
                     "t": t, "queries": cost})
    return rows


def verdict_report(command: str, params: dict, verdicts: list[TestVerdict],
                   extra_summary: dict | None = None) -> dict:
    rows = []
    for i, v in enumerate(verdicts):
        row = {"trial": i, "verdict": v.verdict, "statistic": v.statistic}
        row.update(oracle_query_totals(v.queries))
        rows.append(row)
    frequencies = {}
    for v in verdicts:
        frequencies[v.verdict] = frequencies.get(v.verdict, 0) + 1
    n = len(verdicts)
    summary = {
        "trials": n,
        "frequencies": {k: frequencies[k] / n for k in sorted(frequencies)},
        "t": verdicts[0].t,
        "threshold": verdicts[0].threshold,
        "mean_statistic": sum(v.statistic for v in verdicts) / n,
    }
    for column in ORACLE_QUERY_COLUMNS:
        summary[f"mean_{column}"] = sum(r[column] for r in rows) / n
    if extra_summary:
        summary.update(extra_summary)
    return {"schema_version": SCHEMA_VERSION, "command": command,
            "params": params, "rows": rows, "summary": summary}


def estimate_report(command: str, params: dict, rows_in: list[dict],
                    true_value: float | None) -> dict:
    rows = []
    for i, r in enumerate(rows_in):
        row = {"trial": i, "estimate": r["estimate"], "statistic": r["statistic"]}
        if true_value is not None:
            row["true_value"] = true_value
            row["error"] = abs(r["estimate"] - true_value)
        row.update(oracle_query_totals(r["queries"]))
        rows.append(row)
    n = len(rows)
    summary = {"trials": n, "t": rows_in[0]["t"],
               "mean_estimate": sum(r["estimate"] for r in rows) / n}
    if true_value is not None:
        summary["true_value"] = true_value
        summary["mean_error"] = sum(r["error"] for r in rows) / n
    for column in ORACLE_QUERY_COLUMNS:
        summary[f"mean_{column}"] = sum(r[column] for r in rows) / n
    return {"schema_version": SCHEMA_VERSION, "command": command,
            "params": params, "rows": rows, "summary": summary}


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
