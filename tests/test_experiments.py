"""The trial harness's bulk paths against their definitions: trial_uniforms
against one ``default_rng([seed, i])`` per trial, report rows against rows
built one dict per trial, format_json against the indented ``json.dumps``,
and format_csv against a CSV writer that renders one row at a time."""
import json
import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdtest import experiments as exp
from qdtest import oracles as orc
from qdtest import reference as ref
from qdtest import testers

from helpers import reference_csv, reference_estimate_rows, reference_verdict_rows

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
    expected = [exp.trial_rng(seed, i).random() for i in range(trials)]
    assert exp.trial_uniforms(seed, trials).tolist() == expected


@pytest.mark.parametrize("seed", [10_000, 2 ** 100 + 7])  # 2^100 + 7: five entropy words
def test_trial_uniforms_over_many_trials(seed):
    expected = [exp.trial_rng(seed, i).random() for i in range(2000)]
    assert exp.trial_uniforms(seed, 2000).tolist() == expected


def test_trial_uniforms_reject_negative_seed():
    with pytest.raises(ValueError):
        exp.trial_uniforms(-1, 3)


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
    assert exp.format_json(report) == json.dumps(report, sort_keys=True, indent=2) + "\n"


def _materialised(report):
    return {**report, "rows": list(report["rows"])}


def _closeness_verdicts(trials, repeats=1, identical=False):
    p, q = ref.gen_l2_pair(8, 0.3)
    op, oq = (orc.make_purified_oracle(d, "haar", seed=s, label=label)
              for d, s, label in zip((p, p if identical else q), (1, 2), "pq"))
    runs = exp.run_trials(testers.closeness_plan(op, oq, 0.2, 0.5), trials * repeats, seed=9)
    return [testers.majority(runs[i:i + repeats]) for i in range(0, len(runs), repeats)]


TRIAL_CASES = {
    "40 trials": lambda: _closeness_verdicts(40),
    "one trial": lambda: _closeness_verdicts(1),
    "one outcome": lambda: _closeness_verdicts(30, identical=True),
    "repeats 3": lambda: _closeness_verdicts(25, repeats=3),
}


def _trial_reports(verdicts):
    """(report, reference rows) for a verdict report and for estimate reports
    with and without a true value."""
    return [(exp.verdict_report("test-closeness", {"seed": 9}, verdicts, {"x": 1}),
             reference_verdict_rows(verdicts)),
            (exp.estimate_report("estimate", {"seed": 9}, verdicts, 0.3),
             reference_estimate_rows(verdicts, 0.3)),
            (exp.estimate_report("estimate", {"seed": 9}, verdicts, None),
             reference_estimate_rows(verdicts, None))]


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


def test_format_json_of_trial_reports():
    """Byte for byte the indented ``json.dumps`` of the report with its rows
    materialised as a list (the rows are a Sequence, not a list)."""
    for case in TRIAL_CASES.values():
        for report, _ in _trial_reports(case()):
            assert exp.format_json(report) == json.dumps(
                _materialised(report), sort_keys=True, indent=2) + "\n"


def test_format_csv_of_trial_reports():
    for case in TRIAL_CASES.values():
        for report, _ in _trial_reports(case()):
            assert exp.format_csv(report) == reference_csv(report)


def test_sweep_report_formats():
    points = [{"eps": e, "n": 8, "k": "", "budget_t": t, "success_freq": f,
               "mean_queries_total": 4.0 * t}
              for e, t, f in ((0.4, 315, 0.9), (0.2, 629, 1.0))]
    report = exp.sweep_report("sweep", {"tester": "l2"}, points)
    assert exp.format_json(report) == json.dumps(report, sort_keys=True, indent=2) + "\n"
    assert exp.format_csv(report) == reference_csv(report)


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_format_csv_of_plain_rows(name):
    assert exp.format_csv(REPORTS[name]) == reference_csv(REPORTS[name])


def test_trial_report_memory():
    """Building and serialising the benchmark's 20,000-trial estimate report
    peaks at no more than 20 MiB; its JSON text alone is 4.9 MiB."""
    p, q = ref.gen_l2_pair(4, math.sqrt(2.0) * 0.5)
    op, oq = (orc.make_purified_oracle(d, seed=s, label=label)
              for d, s, label in zip((p, q), (1, 2), "pq"))
    verdicts = exp.run_trials(testers.estimator_plan(op, oq, 0.5), 20_000, seed=10_000)
    tracemalloc.start()
    try:
        report = exp.estimate_report("estimate", {}, verdicts, ref.lp_distance(p, q, 2))
        text = exp.format_json(report)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(text) > 5_000_000
    assert peak <= 20 * 2 ** 20
