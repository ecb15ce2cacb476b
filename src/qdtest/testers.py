"""The distribution testers: tolerant/plain l2 closeness, l1 closeness,
l2-distance estimation, and k-wise uniformity.

Each tester builds its encoding unitary and projector, runs one amplitude
estimation at the budget fixed by its parameters, and thresholds the
estimate.  Verdicts carry the estimate, the budget, the threshold, and a
ledger snapshot of the oracle queries consumed.  Success guarantees hold
under the respective promises with probability at least 8/pi^2 per call; the
promise itself is not (and cannot be) checked here, so a verdict on a
promise-violating input is simply whatever the threshold rule gives.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .amplitude import amplitude_estimation, phase_distribution, zero_budget
from .oracles import PurifiedOracle, closeness_instance, kwise_instance
from .reference import binom_sum
from .statevec import Projector, QuantumOp, QueryLedger, RegisterLayout

__all__ = [
    "TestVerdict", "AEPlan", "closeness_plan", "kwise_plan", "run_plan",
    "tolerant_l2_closeness", "l2_closeness", "l1_closeness",
    "estimate_l2_distance", "estimator_budget", "kwise_uniformity_test",
    "repeat_majority",
]


@dataclass(frozen=True)
class TestVerdict:
    """Outcome of one tester run."""

    verdict: str
    statistic: float
    t: int
    threshold: float
    params: dict = field(default_factory=dict)
    queries: dict = field(default_factory=dict)


@dataclass(frozen=True)
class AEPlan:
    """A fully specified estimation-and-threshold run.

    ``labels`` maps the threshold comparison to verdict names:
    labels[0] when the estimate is below the threshold, labels[1] otherwise.
    """

    layout: RegisterLayout
    unitary: QuantumOp
    projector: Projector
    t: int
    threshold: float
    labels: tuple[str, str]
    params: dict


def _check_eps(eps: float) -> None:
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")


def closeness_plan(op: PurifiedOracle, oq: PurifiedOracle, eps: float,
                   nu: float) -> AEPlan:
    """Plan for the tolerant l2 closeness tester.

    Budget t = ceil(20 pi / (nu eps)); verdict CLOSE iff the estimated
    projected mass is below (1/4 - nu/8) eps^2.
    """
    _check_eps(eps)
    if not 0.0 < nu <= 1.0:
        raise ValueError(f"nu must lie in (0, 1], got {nu}")
    layout, unitary, projector = closeness_instance(op, oq)
    t = math.ceil(20.0 * math.pi / (nu * eps))
    threshold = (0.25 - nu / 8.0) * eps ** 2
    return AEPlan(layout, unitary, projector, t, threshold, ("CLOSE", "FAR"),
                  {"eps": eps, "nu": nu})


def kwise_plan(oracle: PurifiedOracle, k: int, eps: float) -> AEPlan:
    """Plan for the k-wise uniformity tester.

    The inner zero test runs at threshold eps^2 / (e^{2k} M) with
    M = binom_sum(n, k), so the budget is ceil(10 pi e^k sqrt(M) / eps) and
    the verdict is YES iff the estimate falls below half the threshold.
    """
    _check_eps(eps)
    n = oracle.distribution.n_bits
    layout, unitary, projector = kwise_instance(oracle, k)
    m_count = binom_sum(n, k)
    amp_threshold = eps ** 2 / (math.exp(2 * k) * m_count)
    t = zero_budget(amp_threshold)
    return AEPlan(layout, unitary, projector, t, amp_threshold / 2.0, ("YES", "NO"),
                  {"eps": eps, "k": k, "n": n, "amp_threshold": amp_threshold})


def run_plan(plan: AEPlan, rng: np.random.Generator,
             ledger: QueryLedger | None = None) -> TestVerdict:
    """Execute a plan: one estimation run, one threshold comparison."""
    ledger = ledger if ledger is not None else QueryLedger()
    result = amplitude_estimation(plan.unitary, plan.layout, plan.projector,
                                  plan.t, rng, ledger=ledger)
    verdict = plan.labels[0] if result.estimate < plan.threshold else plan.labels[1]
    return TestVerdict(verdict=verdict, statistic=result.estimate, t=plan.t,
                       threshold=plan.threshold, params=dict(plan.params),
                       queries=ledger.snapshot())


def tolerant_l2_closeness(op: PurifiedOracle, oq: PurifiedOracle, eps: float,
                          nu: float, rng: np.random.Generator,
                          ledger: QueryLedger | None = None) -> TestVerdict:
    """CLOSE if ||p - q||_2 <= (1 - nu) eps, FAR if ||p - q||_2 >= eps, using
    O(1/(nu eps)) oracle queries."""
    return run_plan(closeness_plan(op, oq, eps, nu), rng, ledger)


def l2_closeness(op: PurifiedOracle, oq: PurifiedOracle, eps: float,
                 rng: np.random.Generator,
                 ledger: QueryLedger | None = None) -> TestVerdict:
    """CLOSE if p = q, FAR if ||p - q||_2 >= eps; the tolerant tester at
    nu = 1/2, using O(1/eps) queries."""
    return tolerant_l2_closeness(op, oq, eps, 0.5, rng, ledger)


def l1_closeness(op: PurifiedOracle, oq: PurifiedOracle, eps: float,
                 rng: np.random.Generator,
                 ledger: QueryLedger | None = None) -> TestVerdict:
    """CLOSE if p = q, FAR if ||p - q||_1 >= eps, via the norm inequality
    ||.||_2 >= ||.||_1 / sqrt(n), using O(sqrt(n)/eps) queries."""
    _check_eps(eps)
    n = op.distribution.size
    verdict = l2_closeness(op, oq, eps / math.sqrt(n), rng, ledger)
    params = dict(verdict.params)
    params.update({"eps_l1": eps, "n": n})
    return TestVerdict(verdict.verdict, verdict.statistic, verdict.t,
                       verdict.threshold, params, verdict.queries)


def estimator_budget(eps: float) -> int:
    """Budget t = ceil(8 pi / eps) of the l2-distance estimator."""
    _check_eps(eps)
    return math.ceil(8.0 * math.pi / eps)


def estimate_l2_distance(op: PurifiedOracle, oq: PurifiedOracle, eps: float,
                         rng: np.random.Generator,
                         ledger: QueryLedger | None = None) -> float:
    """Estimate ||p - q||_2 to within additive eps (with probability at least
    8/pi^2) as twice the square root of the estimated projected mass, at
    budget :func:`estimator_budget`."""
    t = estimator_budget(eps)
    layout, unitary, projector = closeness_instance(op, oq)
    result = amplitude_estimation(unitary, layout, projector, t, rng, ledger=ledger)
    return 2.0 * math.sqrt(result.estimate)


def kwise_uniformity_test(oracle: PurifiedOracle, k: int, eps: float,
                          rng: np.random.Generator,
                          ledger: QueryLedger | None = None) -> TestVerdict:
    """YES (with certainty) if p is k-wise uniform, NO (with probability at
    least 8/pi^2) if p is eps-far in total variation from every k-wise uniform
    distribution, using O(sqrt(n^k)/eps) queries."""
    return run_plan(kwise_plan(oracle, k, eps), rng, ledger)


def repeat_majority(run, repeats: int, rng: np.random.Generator) -> TestVerdict:
    """Majority vote of an odd number of independent runs of ``run(rng)``.

    Amplifies the per-call success probability; the returned verdict carries
    the majority label and the median statistic of the winning runs.
    """
    if repeats < 1 or repeats % 2 == 0:
        raise ValueError(f"repeats must be odd and positive, got {repeats}")
    verdicts = [run(rng) for _ in range(repeats)]
    tally: dict[str, int] = {}
    for v in verdicts:
        tally[v.verdict] = tally.get(v.verdict, 0) + 1
    winner = max(tally, key=tally.get)
    winning = [v for v in verdicts if v.verdict == winner]
    mid = winning[len(winning) // 2]
    params = dict(mid.params)
    params["repeats"] = repeats
    return TestVerdict(winner, mid.statistic, mid.t, mid.threshold, params, mid.queries)
