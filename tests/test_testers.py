"""Tester behavior: threshold formulas, certainty paths, promise-side success
frequencies, garbage invariance, and the query-budget laws."""
import math

import numpy as np
import pytest

from qdtest import experiments as exp
from qdtest import oracles as orc
from qdtest import reference as ref
from qdtest import testers
from qdtest.distributions import BITSTRING, point_mass, uniform
from qdtest.statevec import QueryLedger

from helpers import parity_set_distribution


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
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        testers.tolerant_l2_closeness(op, oq, 1.5, 0.5, rng)
    with pytest.raises(ValueError):
        testers.tolerant_l2_closeness(op, oq, 0.2, 0.0, rng)
    with pytest.raises(ValueError):
        testers.estimate_l2_distance(op, oq, 0.0, rng)
    oracle = orc.make_purified_oracle(uniform(8, BITSTRING), label="p")
    with pytest.raises(ValueError):
        testers.kwise_uniformity_test(oracle, 9, 0.2, rng)


def test_verdict_echoes_parameters_and_queries():
    op, oq = make_pair(*ref.gen_l2_pair(4, 0.4))
    rng = np.random.default_rng(1)
    verdict = testers.tolerant_l2_closeness(op, oq, 0.3, 0.5, rng)
    assert verdict.params["eps"] == 0.3 and verdict.params["nu"] == 0.5
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
        assert testers.l1_closeness(op, oq, 0.4, rng).verdict == "CLOSE"


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


def test_estimator_zero_distance_exact():
    u = uniform(8)
    op, oq = make_pair(u, u)
    rng = np.random.default_rng(5)
    for _ in range(5):
        assert testers.estimate_l2_distance(op, oq, 0.1, rng) == 0.0


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
    """Trial i of run_trials is the single-call run with trial_rng(seed, i)."""
    op, oq = make_pair(*ref.gen_l2_pair(8, 0.3))
    for plan in (testers.closeness_plan(op, oq, 0.2, 0.5),
                 testers.estimator_plan(op, oq, 0.2)):
        trials = exp.run_trials(plan, 5, seed=3)
        assert trials == [testers.run_plan(plan, exp.trial_rng(3, i)) for i in range(5)]
    estimate = testers.estimate_l2_distance(op, oq, 0.2, exp.trial_rng(3, 4))
    assert estimate == 2 * math.sqrt(trials[4].statistic)


def test_single_call_queries_are_per_run_cost():
    """Each verdict carries one run's cost; the caller's ledger accumulates."""
    op, oq = make_pair(*ref.gen_l2_pair(8, 0.4))
    rng = np.random.default_rng(12)
    ledger = QueryLedger()
    first = testers.l2_closeness(op, oq, 0.4, rng, ledger=ledger)
    second = testers.l2_closeness(op, oq, 0.4, rng, ledger=ledger)
    per_run = exp.run_trials(testers.closeness_plan(op, oq, 0.4, 0.5), 1, 0)[0].queries
    assert first.queries == second.queries == per_run
    assert per_run["p"]["ctrl_forward"] == 1023
    assert ledger.get("p")["ctrl_forward"] == 2 * 1023


def test_single_call_testers_agree_with_plans():
    rng = np.random.default_rng(77)
    p, q = ref.gen_l2_pair(4, 0.6)
    op, oq = make_pair(p, q)
    verdict = testers.l2_closeness(op, oq, 0.3, rng)
    assert verdict.verdict in ("CLOSE", "FAR")
    oracle = orc.make_purified_oracle(uniform(8, BITSTRING), label="p")
    kv = testers.kwise_uniformity_test(oracle, 2, 0.4, rng)
    assert kv.verdict == "YES"


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
    led_a, led_b = QueryLedger(), QueryLedger()
    testers.l2_closeness(op, oq, 0.4, rng, ledger=led_a)
    testers.l2_closeness(op, oq, 0.2, rng, ledger=led_b)
    ratio = led_b.total("p") / led_a.total("p")
    assert abs(ratio - 2.0) <= 0.2


def test_kwise_budget_doubles_when_eps_halves():
    dist = ref.gen_fourier_spike(4, 0b1100, 0.6)
    oracle = orc.make_purified_oracle(dist, label="p")
    rng = np.random.default_rng(7)
    led_a, led_b = QueryLedger(), QueryLedger()
    testers.kwise_uniformity_test(oracle, 2, 0.8, rng, ledger=led_a)
    testers.kwise_uniformity_test(oracle, 2, 0.4, rng, ledger=led_b)
    ratio = led_b.total("p") / led_a.total("p")
    assert abs(ratio - 2.0) <= 0.2


def test_l1_budget_scales_with_sqrt_n():
    """The recorded iteration budget grows by sqrt(2) when n doubles."""
    rng = np.random.default_rng(8)
    budgets = {}
    for n in (4, 8, 16):
        p, q = ref.gen_l1_pair(n, 0.4)
        op, oq = make_pair(p, q)
        budgets[n] = testers.l1_closeness(op, oq, 0.4, rng).t
        assert budgets[n] == math.ceil(20 * math.pi * math.sqrt(n) / (0.5 * 0.4))
    for n in (4, 8):
        ratio = budgets[2 * n] / budgets[n]
        assert 1.3 <= ratio <= 1.55


# --- majority wrapper -----------------------------------------------------------------------

def test_repeat_majority():
    p, q = ref.gen_l2_pair(8, 0.2 * math.sqrt(2))
    op, oq = make_pair(p, q)
    rng = np.random.default_rng(9)
    verdict = testers.repeat_majority(
        lambda r: testers.l2_closeness(op, oq, 0.2, r), 3, rng)
    assert verdict.verdict == "FAR"
    assert verdict.params["repeats"] == 3
    with pytest.raises(ValueError):
        testers.repeat_majority(lambda r: None, 2, rng)


def test_majority_returns_first_winning_run():
    runs = iter([("FAR", 0.9), ("CLOSE", 0.1), ("FAR", 0.2), ("CLOSE", 0.05), ("FAR", 0.5)])

    def run(rng):
        verdict, statistic = next(runs)
        return testers.TestVerdict(verdict, statistic, 1, 0.3)

    picked = testers.repeat_majority(run, 5, np.random.default_rng(0))
    assert (picked.verdict, picked.statistic) == ("FAR", 0.9)
    assert picked.params == {"repeats": 5}
