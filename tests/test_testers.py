"""Tester behavior: threshold formulas, certainty paths, promise-side success
frequencies, garbage invariance, and the query-budget laws."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdtest import experiments as exp
from qdtest import oracles as orc
from qdtest import reference as ref
from qdtest import statevec as sv
from qdtest import testers
from qdtest.amplitude import phase_distribution
from qdtest.distributions import (BITSTRING, Distribution, point_mass, random_distribution,
                                  uniform)

from helpers import majority, parity_set_distribution, run_plan, trial_rng


def make_pair(p, q, garbage="basis", seeds=(None, None)):
    return (orc.make_purified_oracle(p, garbage, seed=seeds[0], label="p"),
            orc.make_purified_oracle(q, garbage, seed=seeds[1], label="q"))


def frequencies(plan, trials, seed):
    verdicts = exp.run_trials(plan, trials, seed)
    out = {}
    for v in verdicts:
        out[v.verdict] = out.get(v.verdict, 0) + 1
    return {k: c / trials for k, c in out.items()}


def total_oracle_queries(verdict):
    totals = exp.oracle_query_totals(verdict.queries)
    return sum(totals.values())


# --- threshold and budget formulas -----------------------------------------------------

def test_closeness_plan_formulas():
    op, oq = make_pair(*ref.gen_l2_pair(4, 0.3))
    for eps, nu in ((0.2, 0.5), (0.1, 1.0), (0.4, 0.25)):
        plan = testers.closeness_plan(op, oq, eps, nu)
        assert plan.t == math.ceil(20 * math.pi / (nu * eps))
        assert abs(plan.threshold - (0.25 - nu / 8) * eps ** 2) < 1e-15


def test_kwise_plan_formulas():
    oracle = orc.make_purified_oracle(uniform(16, BITSTRING), label="p")
    for k, eps in ((1, 0.3), (2, 0.3), (2, 0.05)):
        plan = testers.kwise_plan(oracle, k, eps)
        inner = eps ** 2 / (math.exp(2 * k) * ref.binom_sum(4, k))
        assert plan.t == math.ceil(10 * math.pi / math.sqrt(inner))
        assert plan.t == math.ceil(10 * math.pi * math.exp(k)
                                   * math.sqrt(ref.binom_sum(4, k)) / eps)
        assert abs(plan.threshold - inner / 2) < 1e-18


def test_parameter_validation():
    op, oq = make_pair(uniform(4), uniform(4))
    with pytest.raises(ValueError):
        testers.closeness_plan(op, oq, 1.5, 0.5)
    with pytest.raises(ValueError):
        testers.closeness_plan(op, oq, 0.2, 0.0)
    with pytest.raises(ValueError):
        testers.estimator_plan(op, oq, 0.0)
    oracle = orc.make_purified_oracle(uniform(8, BITSTRING), label="p")
    with pytest.raises(ValueError):
        testers.kwise_plan(oracle, 9, 0.2)


def test_verdict_echoes_parameters_and_queries():
    op, oq = make_pair(*ref.gen_l2_pair(4, 0.4))
    rng = np.random.default_rng(1)
    verdict = run_plan(testers.closeness_plan(op, oq, 0.3, 0.5), rng)
    assert verdict.t == math.ceil(20 * math.pi / 0.15)
    assert 0.0 <= verdict.statistic <= 1.0
    assert verdict.queries["p"]["ctrl_forward"] > 0


# --- certainty paths ---------------------------------------------------------------------

def test_identical_distributions_always_close():
    u = uniform(8)
    op, oq = make_pair(u, u)
    plan = testers.closeness_plan(op, oq, 0.2, 0.5)
    freq = frequencies(plan, 200, seed=10)
    assert freq.get("CLOSE", 0) == 1.0


def test_l1_identical_always_close():
    u = uniform(4)
    op, oq = make_pair(u, u)
    rng = np.random.default_rng(2)
    for _ in range(5):
        assert run_plan(testers.l1_plan(op, oq, 0.4), rng).verdict == "CLOSE"


def test_kwise_uniform_always_yes():
    oracle = orc.make_purified_oracle(uniform(16, BITSTRING), label="p")
    plan = testers.kwise_plan(oracle, 2, 0.3)
    freq = frequencies(plan, 100, seed=3)
    assert freq.get("YES", 0) == 1.0


def test_kwise_parity_set_always_yes():
    dist = parity_set_distribution(4)
    assert ref.is_kwise_uniform(dist, 2)
    oracle = orc.make_purified_oracle(dist, label="p")
    plan = testers.kwise_plan(oracle, 2, 0.3)
    freq = frequencies(plan, 100, seed=4)
    assert freq.get("YES", 0) == 1.0


def test_near_side_measures_zero_with_certainty():
    """Even the largest double below 1 measures y = 0, so every run's estimate
    is exactly 0: on random p = q, and on the parity mixtures
    w U(even) + (1 - w) U(odd), (n-1)-wise uniform but not uniform."""
    plans = {}
    for garbage in ("basis", "haar"):
        for n in (2, 5, 16, 64):
            p = random_distribution(n, np.random.default_rng(n))
            op, oq = make_pair(p, p, garbage, seeds=(2 * n + 1, 2 * n + 2))
            plans["closeness", garbage, n] = testers.closeness_plan(op, oq, 0.2, 0.5)
        for n in (4, 5, 6):
            even = parity_set_distribution(n).weights
            for w in (0.3, 0.8):
                dist = Distribution(w * even + (1 - w) * (2.0 ** (1 - n) - even), BITSTRING)
                for k in (1, 2, 3):
                    assert ref.is_kwise_uniform(dist, k)
                    oracle = orc.make_purified_oracle(dist, garbage, seed=10 * n + k)
                    plans["kwise", garbage, n, w, k] = testers.kwise_plan(oracle, k, 0.3)
    for case, plan in plans.items():
        dist = phase_distribution(plan.unitary, plan.layout, plan.projector, plan.t)
        assert dist.phases(np.nextafter(1.0, 0.0)) == 0, case


def test_estimator_zero_distance_exact():
    u = uniform(8)
    op, oq = make_pair(u, u)
    plan = testers.estimator_plan(op, oq, 0.1)
    rng = np.random.default_rng(5)
    for _ in range(5):
        assert run_plan(plan, rng).statistic == 0.0


# --- far-side success frequencies --------------------------------------------------------

def test_far_instance_frequency():
    eps = 0.2
    p, q = ref.gen_l2_pair(8, eps * math.sqrt(2))  # distance exactly eps
    op, oq = make_pair(p, q)
    plan = testers.closeness_plan(op, oq, eps, 0.5)
    freq = frequencies(plan, 300, seed=20)
    assert freq.get("FAR", 0) >= 0.75


def test_tolerant_boundary_frequency():
    eps, nu = 0.2, 0.5
    p, q = ref.gen_l2_pair(8, (1 - nu) * eps * math.sqrt(2))
    op, oq = make_pair(p, q)
    plan = testers.closeness_plan(op, oq, eps, nu)
    freq = frequencies(plan, 300, seed=21)
    assert freq.get("CLOSE", 0) >= 0.75


def test_l2_disjoint_point_masses_far():
    op, oq = make_pair(point_mass(4, 0), point_mass(4, 1))
    plan = testers.closeness_plan(op, oq, 0.5, 0.5)
    freq = frequencies(plan, 300, seed=22)
    assert freq.get("FAR", 0) >= 0.75


def test_l1_alternating_pair_far():
    eps, n = 0.4, 8
    p, q = ref.gen_l1_pair(n, eps)  # l1 distance exactly eps
    op, oq = make_pair(p, q)
    plan = testers.l1_plan(op, oq, eps)
    freq = frequencies(plan, 300, seed=23)
    assert freq.get("FAR", 0) >= 0.75


def test_kwise_spike_no_frequency():
    dist = ref.gen_fourier_spike(4, ref.mask_from_coords(4, (1, 2)), 0.6)
    oracle = orc.make_purified_oracle(dist, label="p")
    plan = testers.kwise_plan(oracle, 2, 0.3)
    freq = frequencies(plan, 300, seed=24)
    assert freq.get("NO", 0) >= 0.75


def test_estimator_accuracy_frequencies():
    eps = 0.05
    cases = [(uniform(8), uniform(8), 0.0),
             ref.gen_l2_pair(8, 0.28 * math.sqrt(2)) + (0.28,),
             (point_mass(8, 0), point_mass(8, 1), math.sqrt(2))]
    for p, q, true in cases:
        op, oq = make_pair(p, q)
        plan = testers.estimator_plan(op, oq, eps)
        assert plan.t == math.ceil(8 * math.pi / eps)
        verdicts = exp.run_trials(plan, 300, seed=25)
        hits = sum(abs(2 * math.sqrt(v.statistic) - true) <= eps for v in verdicts)
        assert hits / 300 >= 0.75, true


def test_trials_reproduce_single_calls():
    """Trial i of run_trials is run_plan with trial_rng(seed, i)."""
    op, oq = make_pair(*ref.gen_l2_pair(8, 0.3))
    for plan in (testers.closeness_plan(op, oq, 0.2, 0.5),
                 testers.estimator_plan(op, oq, 0.2)):
        trials = exp.run_trials(plan, 5, seed=3)
        assert list(trials) == [run_plan(plan, trial_rng(3, i)) for i in range(5)]
    estimate = exp.estimate_report("estimate", {}, trials, 0.3)["rows"][4]["estimate"]
    assert estimate == 2 * math.sqrt(run_plan(plan, trial_rng(3, 4)).statistic)


def test_single_call_queries_are_per_run_cost():
    """Each verdict carries one run's cost."""
    op, oq = make_pair(*ref.gen_l2_pair(8, 0.4))
    plan = testers.closeness_plan(op, oq, 0.4, 0.5)
    rng = np.random.default_rng(12)
    first = run_plan(plan, rng)
    second = run_plan(plan, rng)
    per_run = exp.run_trials(plan, 1, 0)[0].queries
    assert first.queries == second.queries == per_run
    assert per_run["p"]["ctrl_forward"] == 1023


# --- garbage invariance -------------------------------------------------------------------

def test_verdict_frequencies_garbage_invariant():
    eps = 0.2
    p, q = ref.gen_l2_pair(8, eps * math.sqrt(2))
    freqs = {}
    for style, seeds in (("basis", (None, None)), ("haar", (31, 32))):
        op, oq = make_pair(p, q, style, seeds)
        plan = testers.closeness_plan(op, oq, eps, 0.5)
        freqs[style] = frequencies(plan, 300, seed=26).get("FAR", 0)
    assert abs(freqs["basis"] - freqs["haar"]) <= 0.1


# --- query-budget laws ----------------------------------------------------------------------

def test_l2_budget_doubles_when_eps_halves():
    p, q = ref.gen_l2_pair(8, 0.4)
    op, oq = make_pair(p, q)
    rng = np.random.default_rng(6)
    cost_a = run_plan(testers.closeness_plan(op, oq, 0.4, 0.5), rng).queries["p"]
    cost_b = run_plan(testers.closeness_plan(op, oq, 0.2, 0.5), rng).queries["p"]
    ratio = sum(cost_b.values()) / sum(cost_a.values())
    assert abs(ratio - 2.0) <= 0.2


def test_kwise_budget_doubles_when_eps_halves():
    dist = ref.gen_fourier_spike(4, 0b1100, 0.6)
    oracle = orc.make_purified_oracle(dist, label="p")
    rng = np.random.default_rng(7)
    cost_a = run_plan(testers.kwise_plan(oracle, 2, 0.8), rng).queries["p"]
    cost_b = run_plan(testers.kwise_plan(oracle, 2, 0.4), rng).queries["p"]
    ratio = sum(cost_b.values()) / sum(cost_a.values())
    assert abs(ratio - 2.0) <= 0.2


def test_run_queries_hold_oracle_labels_only():
    """A run's ledger holds the oracle labels and nothing else, {p, q} for
    the closeness encodings and {p} for the k-wise one, so a report's query
    columns add up every count in it."""
    op, oq = make_pair(*ref.gen_l2_pair(8, 0.3))
    spike = orc.make_purified_oracle(ref.gen_fourier_spike(4, 0b1100, 0.6), label="p")
    cases = [(testers.closeness_plan(op, oq, 0.2, 0.5), {"p", "q"}),
             (testers.estimator_plan(op, oq, 0.2), {"p", "q"}),
             (testers.kwise_plan(spike, 2, 0.3), {"p"})]
    for plan, labels in cases:
        trials = exp.run_trials(plan, 4, seed=1)
        ledger = trials[0].queries
        assert set(ledger) == labels
        by_kind = {kind: sum(per[kind] for per in ledger.values()) for kind in sv.KINDS}
        expected = {"queries_forward": by_kind["forward"],
                    "queries_inverse": by_kind["inverse"],
                    "queries_ctrl": by_kind["ctrl_forward"] + by_kind["ctrl_inverse"]}
        assert sum(expected.values()) == sum(sum(per.values()) for per in ledger.values())
        report = exp.verdict_report("test", {}, trials, {})
        for row in report["rows"]:
            assert {c: row[c] for c in exp.ORACLE_QUERY_COLUMNS} == expected
        for column in exp.ORACLE_QUERY_COLUMNS:
            assert report["summary"][f"mean_{column}"] == expected[column]


def test_l1_budget_scales_with_sqrt_n():
    """The recorded iteration budget grows by sqrt(2) when n doubles."""
    rng = np.random.default_rng(8)
    budgets = {}
    for n in (4, 8, 16):
        p, q = ref.gen_l1_pair(n, 0.4)
        op, oq = make_pair(p, q)
        budgets[n] = run_plan(testers.l1_plan(op, oq, 0.4), rng).t
        assert budgets[n] == math.ceil(20 * math.pi * math.sqrt(n) / (0.5 * 0.4))
    for n in (4, 8):
        ratio = budgets[2 * n] / budgets[n]
        assert 1.3 <= ratio <= 1.55


# --- majority -------------------------------------------------------------------------------

def test_majority_returns_first_winning_run():
    runs = [testers.TestVerdict(verdict, statistic, 1, 0.3) for verdict, statistic in
            [("FAR", 0.9), ("CLOSE", 0.1), ("FAR", 0.2), ("CLOSE", 0.05), ("FAR", 0.5)]]
    picked = majority(runs)
    assert picked is runs[0]
    assert (picked.verdict, picked.statistic) == ("FAR", 0.9)


# --- Trials against the list of verdicts it stands for ------------------------------------

@st.composite
def trials_and_list(draw, repeats=1):
    """A Trials over 1-4 distinct verdicts with labels from {A, B, C} (all
    one label included), and the list of per-run verdicts it encodes."""
    labels = draw(st.lists(st.sampled_from("ABC"), min_size=1, max_size=4))
    verdicts = tuple(testers.TestVerdict(label, k / 8, 1, 0.5)
                     for k, label in enumerate(labels))
    runs = draw(st.lists(st.integers(0, len(verdicts) - 1), min_size=repeats,
                         max_size=12 * repeats).map(lambda ks: ks[:len(ks) - len(ks) % repeats]))
    trials = testers.Trials(verdicts, np.array(runs, dtype=np.intp))
    return trials, [verdicts[k] for k in runs]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([1, 3, 5]).flatmap(
    lambda r: st.tuples(st.just(r), trials_and_list(repeats=r))))
def test_vote_is_majority_of_each_group(case):
    """Trials.vote(r) keeps, per group of r runs, the run majority() picks:
    the first run of the most frequent label, a tie going to the label
    seen first."""
    repeats, (trials, runs) = case
    voted = trials.vote(repeats)
    expected = [majority(runs[i:i + repeats]) for i in range(0, len(runs), repeats)]
    assert len(voted) == len(expected)
    assert all(got is want for got, want in zip(voted, expected))


def test_vote_memory_is_linear_in_runs():
    """Voting 30 groups of 10001 runs peaks within the trial pre-flight's
    bytes per run (``_PEAK_BYTES_PER_TRIAL``), not at a trials x repeats^2
    comparison table."""
    trials, repeats = 30, 10001
    verdicts = (testers.TestVerdict("YES", 0.0, 1, 0.5), testers.TestVerdict("NO", 0.5, 1, 0.5))
    index = np.random.default_rng(7).integers(0, 2, size=trials * repeats).astype(np.intp)
    runs = testers.Trials(verdicts, index)
    tracemalloc.start()
    voted = runs.vote(repeats)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert len(voted) == trials
    assert voted[0] is majority([runs[i] for i in range(repeats)])
    assert peak <= exp._PEAK_BYTES_PER_TRIAL * trials * repeats, peak / (trials * repeats)


@settings(max_examples=150, deadline=None)
@given(trials_and_list(), st.data())
def test_trials_behave_like_their_list(case, data):
    trials, runs = case
    n = len(runs)
    assert len(trials) == n
    assert list(trials) == runs
    i = data.draw(st.integers(-n, n - 1))
    assert trials[i] is runs[i]
    for bad in (n, -n - 1):
        with pytest.raises(IndexError):
            trials[bad]
    assert trials.label_counts() == {label: sum(v.verdict == label for v in runs)
                                     for label in {v.verdict for v in runs}}
