"""The trial harness's bulk paths against their definitions: trial_uniforms
against one ``default_rng([seed, i])`` per trial, report rows against rows
built one dict per trial, the JSON that dump_report streams against the
indented ``json.dumps``, and its CSV against a CSV writer that renders one
row at a time."""
import json
import math
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdtest import experiments as exp
from qdtest import oracles as orc
from qdtest import reference as ref
from qdtest import seeding
from qdtest import testers

from helpers import (reference_csv, reference_estimate_rows, reference_verdict_rows,
                     report_text, trial_rng)

# seeds over [0, 2^70], weighted towards the 32- and 64-bit word boundaries,
# where the number of entropy words changes
SEEDS = st.one_of(
    st.integers(0, 2 ** 70),
    st.builds(lambda edge, offset: max(0, edge + offset),
              st.sampled_from([0, 2 ** 32, 2 ** 64]), st.integers(-3, 3)),
)


@settings(max_examples=150, deadline=None)
@given(SEEDS, st.integers(1, 40))
def test_trial_uniforms_match_per_trial_generators(seed, trials):
    expected = [trial_rng(seed, i).random() for i in range(trials)]
    assert seeding.trial_uniforms(seed, trials).tolist() == expected


@settings(max_examples=60, deadline=None)
@given(SEEDS, st.integers(1, 40), st.integers(1, 9))
def test_trial_uniforms_across_blocks(seed, trials, block):
    """Blocks of a few trials, so that trial counts on and around several
    block boundaries are cheap to check."""
    expected = [trial_rng(seed, i).random() for i in range(trials)]
    with patch.object(seeding, "_UNIFORM_BLOCK", block):
        assert seeding.trial_uniforms(seed, trials).tolist() == expected


@pytest.mark.parametrize("seed", [10_000, 2 ** 100 + 7])  # 2^100 + 7: five entropy words
def test_trial_uniforms_over_many_trials(seed):
    trials = 2 * seeding._UNIFORM_BLOCK + 1
    expected = [trial_rng(seed, i).random() for i in range(trials)]
    assert seeding.trial_uniforms(seed, trials).tolist() == expected


def test_trial_uniforms_reject_negative_seed():
    with pytest.raises(ValueError):
        seeding.trial_uniforms(-1, 3)


def _report(rows, summary=None):
    return {"schema_version": 1, "command": "estimate",
            "params": {"eps": 0.5, "gen": 'say "hi" \\ naïve', "seed": None},
            "rows": rows, "summary": summary or {"trials": len(rows)}}


ODD_ROW = {"trial": 0, "statistic": float("nan"), "estimate": float("inf"),
           "error": float("-inf"), "zero": -0.0, "missing": None, "ok": True,
           "far": False, "verdict": 'CLO"SE\\ ∑ é', "queries_ctrl": 10 ** 20}

REPORTS = {
    "empty rows": _report([]),
    "one row": _report([ODD_ROW]),
    "single-key rows": _report([{"trial": i} for i in range(3)]),
    "many rows": _report([{**ODD_ROW, "trial": i, "statistic": i / 7} for i in range(5)]),
    "nested summary": _report(
        [{"trial": 0, "verdict": "FAR", "statistic": 0.25}],
        {"trials": 1, "frequencies": {"CLOSE": 0.0, "FAR": 1.0},
         "nested": {"deeper": {"rows": [], "x": [1, 2.5, "s"]}, "empty": {}},
         "promise_ok": False, "true_value": math.pi}),
    "row text like the layout": _report(
        [{"trial": 0, "verdict": '},\n      {', "note": "\n  \"rows\": []"},
         {"trial": 1, "verdict": "{}", "note": "},"}]),
}


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_format_json_matches_indented_dumps(name):
    report = REPORTS[name]
    assert report_text(report, "json") == json.dumps(report, sort_keys=True, indent=2) + "\n"


def _materialised(report):
    return {**report, "rows": list(report["rows"])}


def _closeness_verdicts(trials, repeats=1, identical=False):
    p, q = ref.gen_l2_pair(8, 0.3)
    op, oq = (orc.make_purified_oracle(d, "haar", seed=s, label=label)
              for d, s, label in zip((p, p if identical else q), (1, 2), "pq"))
    runs = exp.run_trials(testers.closeness_plan(op, oq, 0.2, 0.5), trials * repeats, seed=9)
    return runs.vote(repeats)


TRIAL_CASES = {
    "40 trials": lambda: _closeness_verdicts(40),
    "one trial": lambda: _closeness_verdicts(1),
    "one outcome": lambda: _closeness_verdicts(30, identical=True),
    "repeats 3": lambda: _closeness_verdicts(25, repeats=3),
}


def _trial_reports(verdicts):
    """(report, reference rows) for a verdict report and an estimate report."""
    return [(exp.verdict_report("test-closeness", {"seed": 9}, verdicts, {"x": 1}),
             reference_verdict_rows(verdicts)),
            (exp.estimate_report("estimate", {"seed": 9}, verdicts, 0.3),
             reference_estimate_rows(verdicts, 0.3))]


@pytest.mark.parametrize("case", sorted(TRIAL_CASES))
def test_trial_rows_match_per_trial_rows(case):
    verdicts = TRIAL_CASES[case]()
    for report, expected in _trial_reports(verdicts):
        rows = report["rows"]
        assert list(rows) == expected
        assert len(rows) == len(expected)
        assert [rows[i] for i in range(-len(rows), len(rows))] == expected * 2
        with pytest.raises(IndexError):
            rows[len(rows)]
        summary = report["summary"]
        for column in ("statistic", "estimate", "error", *exp.ORACLE_QUERY_COLUMNS):
            if f"mean_{column}" in summary:
                assert summary[f"mean_{column}"] == (
                    sum(r[column] for r in expected) / len(expected))


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


@st.composite
def mean_columns(draw):
    """A float value for each of 1-6 outcomes, and an index of 1-300 trials
    into them."""
    floats = draw(st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=6))
    index = draw(st.lists(st.integers(0, len(floats) - 1), min_size=1, max_size=300))
    return floats, index


@settings(max_examples=200, deadline=None)
@given(mean_columns())
@example(([-0.0, 1.0], [0, 0, 0]))
def test_trial_rows_mean_is_the_trial_order_sum(columns):
    """TrialRows.mean equals ``sum(...) / n`` over the rows in trial order,
    bit for bit: floats added one trial after the other (not pairwise, and
    negative zeros summing to +0.0)."""
    floats, index = columns
    rows = exp.TrialRows([{"x": x} for x in floats], np.array(index, dtype=np.intp))
    assert _bits(rows.mean("x")) == _bits(sum(floats[k] for k in index) / len(index))


def test_format_json_of_trial_reports():
    """Byte for byte the indented ``json.dumps`` of the report with its rows
    materialised as a list (the rows are a Sequence, not a list)."""
    for case in TRIAL_CASES.values():
        for report, _ in _trial_reports(case()):
            assert report_text(report, "json") == json.dumps(
                _materialised(report), sort_keys=True, indent=2) + "\n"


def test_format_csv_of_trial_reports():
    for case in TRIAL_CASES.values():
        for report, _ in _trial_reports(case()):
            assert report_text(report, "csv") == reference_csv(report)


def test_sweep_report_formats():
    points = [{"eps": e, "n": 8, "k": "", "budget_t": t, "success_freq": f,
               "mean_queries_total": 4.0 * t}
              for e, t, f in ((0.4, 315, 0.9), (0.2, 629, 1.0))]
    report = exp.sweep_report("sweep", {"tester": "l2"}, points)
    assert report_text(report, "json") == json.dumps(report, sort_keys=True, indent=2) + "\n"
    assert report_text(report, "csv") == reference_csv(report)


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_format_csv_of_plain_rows(name):
    assert report_text(REPORTS[name], "csv") == reference_csv(REPORTS[name])


def _dumped(report, fmt, tmp_path) -> str:
    path = tmp_path / f"report.{fmt}"
    exp.dump_report(report, path, fmt)
    return path.read_bytes().decode("utf-8")


ROW_BLOCK = exp._ROW_BLOCK


@pytest.mark.parametrize("trials", [ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 1])
def test_dump_report_of_trial_reports_across_row_blocks(trials, tmp_path):
    for report, _ in _trial_reports(_closeness_verdicts(trials)):
        assert _dumped(report, "json", tmp_path) == json.dumps(
            _materialised(report), sort_keys=True, indent=2) + "\n"
        assert _dumped(report, "csv", tmp_path) == reference_csv(report)


@pytest.mark.parametrize("rows", [0, 1, ROW_BLOCK + 1])
def test_dump_report_of_plain_rows(rows, tmp_path, capsys):
    """Sweep-style rows, each rendered whole, to a file and to stdout."""
    points = [{"eps": 1.0 / (i + 2), "n": 8, "k": "", "budget_t": i,
               "success_freq": i / 3} for i in range(rows)]
    report = exp.sweep_report("sweep", {"tester": "l2"}, points)
    expected = {"json": json.dumps(report, sort_keys=True, indent=2) + "\n",
                "csv": reference_csv(report)}
    for fmt, text in expected.items():
        assert _dumped(report, fmt, tmp_path) == text
        exp.dump_report(report, None, fmt)
        assert capsys.readouterr().out == text


def test_trial_report_memory(tmp_path):
    """Building the benchmark's 20,000-trial estimate report and writing it
    to a file as JSON peaks at no more than 2 MiB; the file is 4.9 MiB."""
    p, q = ref.gen_l2_pair(4, math.sqrt(2.0) * 0.5)
    op, oq = (orc.make_purified_oracle(d, seed=s, label=label)
              for d, s, label in zip((p, q), (1, 2), "pq"))
    verdicts = exp.run_trials(testers.estimator_plan(op, oq, 0.5), 20_000, seed=10_000)
    path = tmp_path / "report.json"
    tracemalloc.start()
    try:
        report = exp.estimate_report("estimate", {}, verdicts, ref.lp_distance(p, q, 2))
        exp.dump_report(report, path, "json")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 5_000_000
    assert peak <= 2 * 2 ** 20


_PEAK_RSS_CHILD = (
    "import resource, sys\n"
    "from qdtest.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    "sys.exit(code)\n")


def _peak_rss_bytes(argv) -> int:
    """Peak RSS of one CLI run in a fresh interpreter (Linux reports KiB)."""
    src = str(Path(exp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _PEAK_RSS_CHILD, *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout) * 1024


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB")
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_peak_rss_per_trial(fmt, tmp_path):
    """A run's peak memory grows by at most 64 bytes per trial: the peak RSS
    at 200,000 trials less that at 20,000, over the 180,000 extra trials."""
    def peak(trials):
        return _peak_rss_bytes(["estimate", "--gen", "l2-pair", "--n", "4", "--eps", "0.5",
                                "--format", fmt, "--seed", "10000", "--trials", str(trials),
                                "--out", str(tmp_path / f"report-{trials}")])
    assert (peak(200_000) - peak(20_000)) / 180_000 <= 64
