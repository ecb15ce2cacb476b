"""Output checks for qdtest CLI reports, independent of the qdtest package.

Every benchmark invocation's report is parsed here and checked against the
paper's guarantees and query budgets, recomputed from the invocation's own
parameters:

* near side (p = q, or p k-wise uniform): every trial is CLOSE / YES with a
  statistic of exactly 0.0, the testers' one-sided error;
* far side: the FAR / NO frequency is at least 8/pi^2, less a binomial slack
  of ``SLACK_Z`` standard deviations for the trial count;
* every trial's oracle queries (forward + inverse + controlled) equal
  cost(U) * (2M - 1), with M the least power of two at or above the report's
  budget t, and t equals the budget formula for the parameters;
* ``estimate`` rows meet the additive-eps guarantee in at least 8/pi^2 of the
  trials, less the same slack.

A check returns a list of problems; an empty list means the report passed.
"""
from __future__ import annotations

import json
import math

SUCCESS_FLOOR = 8.0 / math.pi ** 2
SLACK_Z = 3.0
QUERY_COLUMNS = ("queries_forward", "queries_inverse", "queries_ctrl")
NEAR_LABEL = {"test-closeness": "CLOSE", "test-kwise": "YES"}
FAR_LABEL = {"test-closeness": "FAR", "test-kwise": "NO"}
# Oracle queries per application of the encoding unitary U: the closeness
# unitary runs both probability encoders controlled, each costing one
# controlled-forward and one controlled-inverse query; the k-wise encoder
# costs one forward and one inverse query.
COST_PER_U = {"test-closeness": 4, "estimate": 4, "test-kwise": 2}


def next_pow2(n: int) -> int:
    return 1 << max(0, int(n - 1).bit_length())


def budget_t(params: dict) -> int:
    """Iteration budget t of the tester or estimator the parameters select."""
    command, eps = params["command"], float(params["eps"])
    if command == "estimate":
        return math.ceil(8.0 * math.pi / eps)
    if command == "test-closeness":
        if params.get("tester", "l2") != "l2":
            raise ValueError("only the plain l2 closeness tester is checked")
        return math.ceil(20.0 * math.pi / (0.5 * eps))
    n, k = int(params["n"]), int(params["k"])
    subsets = sum(math.comb(n, i) for i in range(1, k + 1))
    amp_threshold = eps ** 2 / (math.exp(2 * k) * subsets)
    return math.ceil(10.0 * math.pi / math.sqrt(amp_threshold))


def state_dim(params: dict) -> int:
    """Dimension of the state the power table holds, one row per phase point.

    Closeness: workspace A, sample B and copy C registers of the padded
    sample-space size, plus one qubit D.  k-wise: n subset qubits, workspace
    A of size 2^n and n sample qubits.
    """
    n = int(params["n"])
    if params["command"] == "test-kwise":
        return 2 ** (3 * n)
    return 2 * next_pow2(n) ** 3


def table_bytes(params: dict) -> int:
    """Bytes of the M x dim complex128 phase-estimation power table."""
    return next_pow2(budget_t(params)) * state_dim(params) * 16


def binomial_floor(trials: int) -> float:
    """Least success frequency accepted for a rate of at least 8/pi^2."""
    slack = SLACK_Z * math.sqrt(SUCCESS_FLOOR * (1.0 - SUCCESS_FLOOR) / trials)
    return SUCCESS_FLOOR - slack


def _value(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def parse_report(text: str, fmt: str) -> dict:
    """Report dict with ``rows`` and ``summary`` from CSV or JSON text."""
    if fmt == "json":
        return json.loads(text)
    lines = text.splitlines()
    if len(lines) < 3 or not lines[0].startswith("# schema_version="):
        raise ValueError("not a qdtest CSV report")
    columns = lines[1].split(",")
    rows = [dict(zip(columns, map(_value, line.split(","))))
            for line in lines[2:-1]]
    if not lines[-1].startswith("summary,"):
        raise ValueError("CSV report has no summary line")
    summary = {}
    for pair in lines[-1][len("summary,"):].split(";"):
        key, _, val = pair.partition("=")
        summary[key] = _value(val)
    return {"rows": rows, "summary": summary}


def queries_per_trial(report: dict) -> int:
    """Oracle queries of the report's first trial, all kinds summed."""
    return sum(int(report["rows"][0][c]) for c in QUERY_COLUMNS)


def check_report(side: str, params: dict, report: dict) -> list[str]:
    """Problems with one report of the invocation ``params`` on ``side``."""
    command = params["command"]
    rows = report["rows"]
    trials = int(params["trials"])
    problems = []
    if len(rows) != trials or [r["trial"] for r in rows] != list(range(trials)):
        return [f"expected trials 0..{trials - 1}, got {len(rows)} rows"]

    t = int(report["summary"]["t"])
    if t != budget_t(params):
        problems.append(f"budget t={t}, expected {budget_t(params)}")
    want = COST_PER_U[command] * (2 * next_pow2(t) - 1)
    bad = [r["trial"] for r in rows if sum(int(r[c]) for c in QUERY_COLUMNS) != want]
    if bad:
        problems.append(f"{len(bad)} trials (first {bad[0]}) do not use {want} queries")

    if command == "estimate":
        # the l2-pair generator puts the pair at distance min(1, sqrt(2) eps)/sqrt(2)
        eps = float(params["eps"])
        distance = min(1.0, math.sqrt(2.0) * eps) / math.sqrt(2.0)
        true_value = float(report["summary"]["true_value"])
        if abs(true_value - distance) > 1e-12:
            problems.append(f"true value {true_value!r}, expected {distance!r}")
        for r in rows:
            if abs(r["estimate"] - 2.0 * math.sqrt(r["statistic"])) > 1e-12 or \
                    abs(r["error"] - abs(r["estimate"] - true_value)) > 1e-12:
                problems.append(f"trial {r['trial']}: inconsistent estimate or error")
                break
        hits = sum(abs(r["estimate"] - true_value) <= eps for r in rows) / trials
        if hits < binomial_floor(trials):
            problems.append(f"additive-eps success {hits} below {binomial_floor(trials)}")
        return problems

    if side == "near":
        wrong = [r["trial"] for r in rows
                 if r["verdict"] != NEAR_LABEL[command] or r["statistic"] != 0.0]
        if wrong:
            problems.append(f"{len(wrong)} near-side trials (first {wrong[0]}) are not "
                            f"{NEAR_LABEL[command]} with statistic exactly 0.0")
    else:
        hits = sum(r["verdict"] == FAR_LABEL[command] for r in rows) / trials
        if hits < binomial_floor(trials):
            problems.append(f"far-side success {hits} below {binomial_floor(trials)}")
    return problems
