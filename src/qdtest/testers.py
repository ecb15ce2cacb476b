"""The distribution testers: tolerant/plain l2 closeness, l1 closeness,
l2-distance estimation, and k-wise uniformity.

Every tester is one amplitude-estimation plan.  An :class:`AEPlan` fixes the
encoding unitary, the projector (a ``{register: value}`` map), the
amplitude-estimation budget t and a threshold; the builders
:func:`closeness_plan`, :func:`l1_plan`, :func:`kwise_plan` and
:func:`estimator_plan` make one per tester, and the estimator is the plan
with no threshold; the budget formulas live here too
(:func:`zero_budget`, :func:`estimator_budget`).  :func:`sample_plan` builds
the plan's exact phase distribution once, turns each uniform draw into one
phase measurement by inverting its CDF, and thresholds each estimate into a
:class:`TestVerdict`.  Trial i of a seeded run measures its phase from the
first ``random()`` of ``numpy.random.default_rng([seed, i])``, computed in
bulk (:func:`qdtest.seeding.trial_uniforms`), and a verdict's ``queries``
is always the deterministic cost of one run, keyed by oracle label only.
The runs come back as one :class:`Trials`, a read-only sequence of verdicts
kept as arrays: one verdict per measured phase, plus an intp index that
gives each run's verdict.  :meth:`Trials.vote` takes the majority of
consecutive groups of runs on that index, and the reports of
:mod:`qdtest.experiments` read it directly.

Success guarantees hold under the respective promises with probability at
least 8/pi^2 per run; the promise itself is not (and cannot be) checked
here, so a verdict on a promise-violating input is simply whatever the
threshold rule gives.
"""
from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .amplitude import estimate_from_phase, phase_distribution
from .oracles import PurifiedOracle, closeness_instance, kwise_instance
from .record import Record
from .reference import binom_sum
from .statevec import QuantumOp, RegisterLayout


class TestVerdict(Record):
    """Outcome of one tester run; ``queries`` is that run's oracle cost, a
    fresh ``{}`` when not given.

    Read-only (:class:`~qdtest.record.Record`), with value equality; the
    ``queries`` dict leaves a verdict without a hash.
    """

    _fields = ("verdict", "statistic", "t", "threshold", "queries")

    def __init__(self, verdict: str, statistic: float, t: int, threshold: float | None,
                 queries: dict | None = None):
        self._set(verdict=verdict, statistic=statistic, t=t, threshold=threshold,
                  queries={} if queries is None else queries)


class AEPlan(Record):
    """A fully specified estimation-and-threshold run.

    ``labels`` maps the threshold comparison to verdict names:
    labels[0] when the estimate is below the threshold, labels[1] otherwise.
    A plan whose ``threshold`` is None only estimates; its verdicts all
    carry labels[0].  Read-only (:class:`~qdtest.record.Record`), with value
    equality; the ``projector`` dict leaves a plan without a hash.
    """

    _fields = ("layout", "unitary", "projector", "t", "threshold", "labels")

    def __init__(self, layout: RegisterLayout, unitary: QuantumOp, projector: dict[str, int],
                 t: int, threshold: float | None, labels: tuple[str, str]):
        self._set(layout=layout, unitary=unitary, projector=projector, t=t,
                  threshold=threshold, labels=labels)


def check_eps(eps: float) -> None:
    """The accuracy check every plan builder makes: eps must lie in (0, 1)."""
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")


def _budget(c: float, scale: float, names: str) -> int:
    """ceil(c pi / scale), refused, naming the parameters, where it is infinite."""
    t = c * math.pi / scale if scale > 0.0 else math.inf
    if math.isinf(t):
        raise ValueError(f"{names}: too small for a finite budget ceil({c:g} pi / {scale!r})")
    return math.ceil(t)


def closeness_plan(op: PurifiedOracle, oq: PurifiedOracle, eps: float,
                   nu: float) -> AEPlan:
    """Plan for the tolerant l2 closeness tester: CLOSE if
    ||p - q||_2 <= (1 - nu) eps, FAR if ||p - q||_2 >= eps, using
    O(1/(nu eps)) oracle queries.  Plain l2 closeness (CLOSE if p = q) is
    this plan at nu = 1/2, using O(1/eps) queries.

    Budget t = ceil(20 pi / (nu eps)); verdict CLOSE iff the estimated
    projected mass is below (1/4 - nu/8) eps^2.
    """
    check_eps(eps)
    if not 0.0 < nu <= 1.0:
        raise ValueError(f"nu must lie in (0, 1], got {nu}")
    layout, unitary, projector = closeness_instance(op, oq)
    t = _budget(20.0, nu * eps, f"eps={eps!r}, nu={nu!r}")
    threshold = (0.25 - nu / 8.0) * eps ** 2
    return AEPlan(layout, unitary, projector, t, threshold, ("CLOSE", "FAR"))


def l1_plan(op: PurifiedOracle, oq: PurifiedOracle, eps: float,
            nu: float = 0.5) -> AEPlan:
    """Plan for the l1 closeness tester: CLOSE if p = q, FAR if
    ||p - q||_1 >= eps.  It is the l2 plan at eps / sqrt(n), by the norm
    inequality ||.||_2 >= ||.||_1 / sqrt(n), so O(sqrt(n)/eps) queries."""
    return closeness_plan(op, oq, eps / math.sqrt(op.distribution.size), nu)


def kwise_plan(oracle: PurifiedOracle, k: int, eps: float) -> AEPlan:
    """Plan for the k-wise uniformity tester: YES (with certainty) if p is
    k-wise uniform, NO (with probability at least 8/pi^2) if p is eps-far in
    total variation from every k-wise uniform distribution, using
    O(sqrt(n^k)/eps) queries.

    The inner zero test runs at threshold eps^2 / (e^{2k} M) with
    M = binom_sum(n, k), so the budget is ceil(10 pi e^k sqrt(M) / eps) and
    the verdict is YES iff the estimate falls below half the threshold.
    """
    check_eps(eps)
    layout, unitary, projector = kwise_instance(oracle, k)
    amp_threshold = eps ** 2 / (math.exp(2 * k) * binom_sum(oracle.distribution.n_bits, k))
    if amp_threshold == 0.0:
        raise ValueError(f"eps={eps!r}: too small for a non-zero threshold eps^2 / (e^2k M)")
    return AEPlan(layout, unitary, projector, zero_budget(amp_threshold),
                  amp_threshold / 2.0, ("YES", "NO"))


def zero_budget(eps: float) -> int:
    """Iteration budget ceil(10 pi / sqrt(eps)) of the zero test inside
    :func:`kwise_plan`."""
    if not 0.0 < eps < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {eps}")
    return math.ceil(10.0 * math.pi / math.sqrt(eps))


def estimator_budget(eps: float) -> int:
    """Budget t = ceil(8 pi / eps) of the l2-distance estimator."""
    check_eps(eps)
    return _budget(8.0, eps, f"eps={eps!r}")


def estimator_plan(op: PurifiedOracle, oq: PurifiedOracle, eps: float) -> AEPlan:
    """Plan for the l2-distance estimator: the closeness encoding at budget
    :func:`estimator_budget`, with no threshold.  A verdict's statistic s
    gives the estimate 2 sqrt(s) of ||p - q||_2, within additive eps with
    probability at least 8/pi^2."""
    t = estimator_budget(eps)
    layout, unitary, projector = closeness_instance(op, oq)
    return AEPlan(layout, unitary, projector, t, None, ("ESTIMATE", "ESTIMATE"))


class Trials(Sequence):
    """Runs of one plan, dictionary-encoded and read-only.

    ``verdicts`` holds one verdict per distinct measured phase, and
    ``index[i]`` (an intp array) is the verdict of run i, so ``trials[i]`` is
    ``verdicts[index[i]]``.
    """

    __slots__ = ("verdicts", "index")

    def __init__(self, verdicts: tuple[TestVerdict, ...], index: np.ndarray):
        self.verdicts, self.index = verdicts, index

    def __len__(self) -> int:
        return len(self.index)

    def __getitem__(self, i: int) -> TestVerdict:
        return self.verdicts[self.index[i]]

    def label_counts(self) -> dict[str, int]:
        """Runs per verdict label, for the labels some run carries."""
        counts: dict[str, int] = {}
        runs = np.bincount(self.index, minlength=len(self.verdicts)).tolist()
        for v, count in zip(self.verdicts, runs):
            if count:
                counts[v.verdict] = counts.get(v.verdict, 0) + count
        return counts

    def vote(self, repeats: int) -> "Trials":
        """Runs ``repeats * j`` to ``repeats * j + repeats - 1`` voted into
        trial j: the majority of each group, on the index array.

        Each label ranks in each group by its count of runs there, then by
        its earliest run, and that run of the top label is kept: the first
        run of the most frequent label, a tie going to the label seen first.
        One pass per label keeps the temporaries at a few bytes per run.
        """
        if repeats == 1:
            return self
        names: dict[str, int] = {}
        label = np.array([names.setdefault(v.verdict, len(names)) for v in self.verdicts])
        groups = self.index.reshape(-1, repeats)
        runs = label[groups]
        first = np.empty((len(names), len(groups)), dtype=np.intp)
        rank = np.empty_like(first)
        for name in range(len(names)):
            hit = runs == name
            first[name] = hit.argmax(axis=1)
            rank[name] = hit.sum(axis=1) * repeats - first[name]  # count, then earliness
        kept = first[rank.argmax(axis=0), np.arange(len(groups))]
        return Trials(self.verdicts, groups[np.arange(len(groups)), kept])


def sample_plan(plan: AEPlan, uniforms: Sequence[float] | np.ndarray) -> Trials:
    """One estimation run per uniform draw in [0, 1), all on the plan's one
    exact phase distribution, each thresholded into a verdict.

    Run k measures the phase y at which the distribution's CDF first exceeds
    ``uniforms[k]``, all runs in one vectorised pass.  Trial i of
    :func:`qdtest.experiments.run_trials` draws the first ``random()`` of
    ``numpy.random.default_rng([seed, i])``, computed in bulk by
    :func:`qdtest.seeding.trial_uniforms`.  Each measured phase is mapped to
    its statistic sin^2(pi y / M) and its verdict once (with ``math.sin``;
    numpy's sine may differ in the last bit), in order of y, and the runs
    come back as :class:`Trials` over those verdicts.  Every verdict's
    ``queries`` is the per-run cost.
    """
    dist = phase_distribution(plan.unitary, plan.layout, plan.projector, plan.t)
    cost = dist.ledger_cost.snapshot()
    threshold = math.inf if plan.threshold is None else plan.threshold
    below, above = plan.labels
    phases = dist.phases(uniforms)
    measured = np.flatnonzero(np.bincount(phases, minlength=dist.points))
    lookup = np.zeros(dist.points, dtype=np.intp)
    lookup[measured] = np.arange(measured.size)
    verdicts = []
    for y in measured.tolist():
        statistic = estimate_from_phase(y, dist.points)
        verdicts.append(TestVerdict(below if statistic < threshold else above,
                                    statistic, plan.t, plan.threshold, cost))
    return Trials(tuple(verdicts), lookup[phases])

