"""The distribution testers: tolerant/plain l2 closeness, l1 closeness,
l2-distance estimation, and k-wise uniformity.

Every tester is one recipe.  An :class:`AEPlan` fixes the encoding unitary,
the projector, the amplitude-estimation budget t and a threshold;
:func:`sample_plan` builds the plan's exact phase distribution once, draws
one Born sample per rng, and thresholds each estimate into a
:class:`TestVerdict`.  The estimator is the same plan with no threshold
(:func:`estimator_plan`).  The single-call testers, :func:`run_plan` and the
seeded trial harness all go through :func:`sample_plan`, so a verdict's
``queries`` is always the deterministic cost of one run, and a caller's
ledger gets that cost once per run.

Success guarantees hold under the respective promises with probability at
least 8/pi^2 per call; the promise itself is not (and cannot be) checked
here, so a verdict on a promise-violating input is simply whatever the
threshold rule gives.
"""
from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .amplitude import estimate_from_phase, phase_distribution, zero_budget
from .oracles import PurifiedOracle, closeness_instance, kwise_instance
from .reference import binom_sum
from .statevec import Projector, QuantumOp, QueryLedger, RegisterLayout

__all__ = [
    "TestVerdict", "AEPlan", "closeness_plan", "l1_plan", "kwise_plan",
    "estimator_plan", "sample_plan", "run_plan", "tolerant_l2_closeness",
    "l2_closeness", "l1_closeness", "estimate_l2_distance", "estimator_budget",
    "kwise_uniformity_test", "majority", "repeat_majority",
]


@dataclass(frozen=True)
class TestVerdict:
    """Outcome of one tester run; ``queries`` is that run's oracle cost."""

    verdict: str
    statistic: float
    t: int
    threshold: float | None
    params: dict = field(default_factory=dict)
    queries: dict = field(default_factory=dict)


@dataclass(frozen=True)
class AEPlan:
    """A fully specified estimation-and-threshold run.

    ``labels`` maps the threshold comparison to verdict names:
    labels[0] when the estimate is below the threshold, labels[1] otherwise.
    A plan whose ``threshold`` is None only estimates; its verdicts all
    carry labels[0].
    """

    layout: RegisterLayout
    unitary: QuantumOp
    projector: Projector
    t: int
    threshold: float | None
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


def l1_plan(op: PurifiedOracle, oq: PurifiedOracle, eps: float,
            nu: float = 0.5) -> AEPlan:
    """Plan for the l1 closeness tester: the l2 plan at eps / sqrt(n), by the
    norm inequality ||.||_2 >= ||.||_1 / sqrt(n), so O(sqrt(n)/eps) queries."""
    n = op.distribution.size
    plan = closeness_plan(op, oq, eps / math.sqrt(n), nu)
    return replace(plan, params={**plan.params, "eps_l1": eps, "n": n})


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


def estimator_budget(eps: float) -> int:
    """Budget t = ceil(8 pi / eps) of the l2-distance estimator."""
    _check_eps(eps)
    return math.ceil(8.0 * math.pi / eps)


def estimator_plan(op: PurifiedOracle, oq: PurifiedOracle, eps: float) -> AEPlan:
    """Plan for the l2-distance estimator: the closeness encoding at budget
    :func:`estimator_budget`, with no threshold.  A verdict's statistic s
    gives the estimate 2 sqrt(s)."""
    t = estimator_budget(eps)
    layout, unitary, projector = closeness_instance(op, oq)
    return AEPlan(layout, unitary, projector, t, None, ("ESTIMATE", "ESTIMATE"),
                  {"eps": eps})


def sample_plan(plan: AEPlan, rngs: Iterable[np.random.Generator],
                ledger: QueryLedger | None = None) -> list[TestVerdict]:
    """One estimation run per rng, all on the plan's one exact phase
    distribution, each thresholded into a verdict.

    ``rngs`` is consumed lazily, one pass.  Every verdict's ``queries`` is the
    per-run cost; ``ledger``, if given, gets that cost once per run.
    """
    dist = phase_distribution(plan.unitary, plan.layout, plan.projector, plan.t)
    cost = dist.ledger_cost.snapshot()
    params = dict(plan.params)
    threshold = math.inf if plan.threshold is None else plan.threshold
    below, above = plan.labels
    verdicts = []
    for rng in rngs:
        statistic = estimate_from_phase(dist.draw(rng), dist.points)
        verdicts.append(TestVerdict(below if statistic < threshold else above,
                                    statistic, plan.t, plan.threshold, params, cost))
    if ledger is not None:
        ledger.merge(dist.ledger_cost, times=len(verdicts))
    return verdicts


def run_plan(plan: AEPlan, rng: np.random.Generator,
             ledger: QueryLedger | None = None) -> TestVerdict:
    """Execute a plan once: one estimation run, one threshold comparison."""
    return sample_plan(plan, [rng], ledger)[0]


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
    """CLOSE if p = q, FAR if ||p - q||_1 >= eps, using O(sqrt(n)/eps)
    queries (:func:`l1_plan`)."""
    return run_plan(l1_plan(op, oq, eps), rng, ledger)


def estimate_l2_distance(op: PurifiedOracle, oq: PurifiedOracle, eps: float,
                         rng: np.random.Generator,
                         ledger: QueryLedger | None = None) -> float:
    """Estimate ||p - q||_2 to within additive eps (with probability at least
    8/pi^2) as twice the square root of the estimated projected mass."""
    return 2.0 * math.sqrt(run_plan(estimator_plan(op, oq, eps), rng, ledger).statistic)


def kwise_uniformity_test(oracle: PurifiedOracle, k: int, eps: float,
                          rng: np.random.Generator,
                          ledger: QueryLedger | None = None) -> TestVerdict:
    """YES (with certainty) if p is k-wise uniform, NO (with probability at
    least 8/pi^2) if p is eps-far in total variation from every k-wise uniform
    distribution, using O(sqrt(n^k)/eps) queries."""
    return run_plan(kwise_plan(oracle, k, eps), rng, ledger)


def majority(runs: Sequence[TestVerdict]) -> TestVerdict:
    """The first run that carries the most frequent verdict.

    A tie goes to the verdict seen first; an odd number of runs of a
    two-label tester has none.
    """
    winner = Counter(v.verdict for v in runs).most_common(1)[0][0]
    return next(v for v in runs if v.verdict == winner)


def repeat_majority(run, repeats: int, rng: np.random.Generator) -> TestVerdict:
    """Majority vote of an odd number of independent runs of ``run(rng)``.

    Amplifies the per-call success probability; the returned verdict is the
    first winning run (:func:`majority`), with ``params["repeats"]`` added.
    """
    if repeats < 1 or repeats % 2 == 0:
        raise ValueError(f"repeats must be odd and positive, got {repeats}")
    pick = majority([run(rng) for _ in range(repeats)])
    return replace(pick, params={**pick.params, "repeats": repeats})
