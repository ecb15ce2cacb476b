"""The trial harness's bulk paths against their definitions: trial_uniforms
against one ``default_rng([seed, i])`` per trial, and format_json against
the indented ``json.dumps``."""
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdtest import experiments as exp
from qdtest import oracles as orc
from qdtest import reference as ref
from qdtest import testers

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


def test_format_json_of_trial_reports():
    op, oq = (orc.make_purified_oracle(d, "haar", seed=s, label=label)
              for d, s, label in zip(ref.gen_l2_pair(8, 0.3), (1, 2), "pq"))
    plan = testers.closeness_plan(op, oq, 0.2, 0.5)
    verdicts = exp.run_trials(plan, 40, seed=9)
    for report in (exp.verdict_report("test-closeness", {"seed": 9}, verdicts),
                   exp.estimate_report("estimate", {"seed": 9}, verdicts, 0.3)):
        assert exp.format_json(report) == json.dumps(report, sort_keys=True, indent=2) + "\n"
