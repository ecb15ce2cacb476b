"""Amplitude estimation via quantum phase estimation, and the zero tester.

Given a unitary U and projector Pi with p = ||Pi U|0>||^2, the estimator runs
phase estimation on the reflection product Q = -U S0 U^dagger S_Pi applied to
U|0>: a uniform M-point phase register is entangled with the powers Q^y of the
iterate, the inverse Fourier transform is taken along the phase axis, the
phase register is measured once, and the estimate sin^2(pi y / M) is returned.
M = 2^m is the least power of two at or above the requested iteration budget
t, so the guarantee

    |estimate - p| <= 2 pi sqrt(p (1-p)) / M + pi^2 / M^2

holds with probability at least 8/pi^2, and the estimate is exactly 0 with
certainty when p = 0.

Q only rotates the two-dimensional span of Pi U|0> and (I - Pi) U|0>, by
2 theta with sin^2(theta) = p, so the phase-register distribution depends on
p alone: it is the two-peak Fejer kernel of :func:`phase_pmf`
(Brassard-Hoyer-Mosca-Tapp, arXiv:quant-ph/0005055, section 4).
:func:`phase_distribution` therefore applies U once to read p and evaluates
that closed form.  One estimation run applies U forward M times (one
preparation plus M-1 iterate steps) and inverse M-1 times; the ledger records
exactly those counts, scaled from one measured forward and one measured
inverse application.  :func:`qpe_joint_state` still simulates the iterate
powers and a materialized phase register, as the cross-check for small
systems.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .statevec import (MatrixOp, PhaseFlipOp, Projector, QuantumOp,
                       QueryLedger, RegisterLayout, SequenceOp, StateVector,
                       apply, inverse, new_basis_state, projector_norm_sq)


@dataclass(frozen=True)
class AEConfig:
    """Iteration budget t and the derived phase-register size M = 2^m >= t."""

    t: int

    def __post_init__(self):
        if self.t < 1:
            raise ValueError(f"iteration budget must be positive, got {self.t}")

    @property
    def phase_bits(self) -> int:
        return max(0, int(math.ceil(math.log2(self.t))))

    @property
    def points(self) -> int:
        return 1 << self.phase_bits


@dataclass(frozen=True)
class AEResult:
    """One estimation outcome: the phase draw y and the estimate sin^2(pi y/M)."""

    estimate: float
    phase_outcome: int
    t: int
    points: int


class AEDistribution:
    """Exact outcome distribution of one estimation setup.

    The phase-register measurement distribution is deterministic given
    (U, Pi, t); sampling from it repeatedly is exactly repeating the
    estimation, and ``ledger_cost`` holds the deterministic per-run query
    counts.
    """

    __slots__ = ("t", "points", "probs", "_cdf", "ledger_cost")

    def __init__(self, t: int, points: int, probs: np.ndarray, ledger_cost: QueryLedger):
        self.t = t
        self.points = points
        self.probs = probs
        self._cdf = np.cumsum(probs)
        self.ledger_cost = ledger_cost

    def draw(self, rng: np.random.Generator) -> int:
        """One phase-register measurement y."""
        y = int(np.searchsorted(self._cdf, rng.random(), side="right"))
        return min(y, self.points - 1)

    def sample(self, rng: np.random.Generator) -> AEResult:
        y = self.draw(rng)
        return AEResult(estimate=estimate_from_phase(y, self.points),
                        phase_outcome=y, t=self.t, points=self.points)


def estimate_from_phase(y: int, points: int) -> float:
    return math.sin(math.pi * y / points) ** 2


def grover_iterate(unitary: QuantumOp, layout: RegisterLayout,
                   projector: Projector) -> QuantumOp:
    """The reflection product Q = -U S0 U^dagger S_Pi.

    S_Pi = I - 2 Pi and S0 = I - 2|0...0><0...0| over the full layout; the
    global minus sign is folded into the middle reflection so the iterate's
    eigenphases are exactly +/- 2 theta with sin^2(theta) = ||Pi U|0>||^2.
    One application costs one forward and one inverse application of U.
    """
    s_pi = PhaseFlipOp(dict(projector.fixed))
    neg_s0 = PhaseFlipOp({name: 0 for name in layout.names}, complement=True)
    return SequenceOp([s_pi, inverse(unitary), neg_s0, unitary])


def _power_table(unitary: QuantumOp, layout: RegisterLayout, projector: Projector,
                 points: int, ledger: QueryLedger | None) -> np.ndarray:
    """Rows y = Q^y U|0> for y in 0..points-1 (the simulated cross-check)."""
    state = new_basis_state(layout)
    apply(unitary, state, ledger=ledger)
    iterate = grover_iterate(unitary, layout, projector)
    table = np.empty((points, layout.total_dim), dtype=np.complex128)
    table[0] = state.amplitudes
    for y in range(1, points):
        apply(iterate, state, ledger=ledger)
        table[y] = state.amplitudes
    return table


def phase_pmf(p: float, points: int) -> np.ndarray:
    """Closed-form outcome distribution of M-point phase estimation.

    The prepared state splits equally over the iterate's two eigenvectors,
    with eigenphases +/- 2 asin(sqrt(p)); each contributes a squared
    Dirichlet (Fejer) kernel around its phase.  p <= 0 and p >= 1 give exact
    point masses at y = 0 and y = M/2.
    """
    m = points
    if p <= 0.0 or p >= 1.0:
        probs = np.zeros(m)
        probs[0 if p <= 0.0 else m // 2] = 1.0
        return probs
    theta = math.asin(math.sqrt(p))
    ys = np.arange(m)

    def kernel(delta: np.ndarray) -> np.ndarray:
        s = np.sin(np.pi * delta)
        exact = np.abs(s) < 1e-15
        num = np.sin(np.pi * m * delta) ** 2
        den = (m * s) ** 2
        return np.where(exact, 1.0, num / np.where(exact, 1.0, den))

    probs = 0.5 * kernel(theta / math.pi - ys / m) + 0.5 * kernel(theta / math.pi + ys / m)
    total = probs.sum()
    if abs(total - 1.0) > 1e-9:
        raise AssertionError(f"phase distribution sums to {total}, not 1")
    return probs / total


def phase_distribution(unitary: QuantumOp, layout: RegisterLayout,
                       projector: Projector, t: int, *,
                       ledger: QueryLedger | None = None) -> AEDistribution:
    """Exact phase-measurement distribution for one estimation setup.

    Applies U once to read p, then U^dagger once to measure its query cost.
    Query counts for the single run it represents are recorded both in the
    passed ledger and in the returned object's ``ledger_cost``.
    """
    cfg = AEConfig(t)
    state = new_basis_state(layout)
    forward, backward = QueryLedger(), QueryLedger()
    apply(unitary, state, ledger=forward)
    p = projector_norm_sq(state, projector)
    apply(unitary, state, inverse=True, ledger=backward)
    cost = QueryLedger()
    cost.merge(forward, times=cfg.points)
    cost.merge(backward, times=cfg.points - 1)
    if ledger is not None:
        ledger.merge(cost)
    return AEDistribution(cfg.t, cfg.points, phase_pmf(p, cfg.points), cost)


def amplitude_estimation(unitary: QuantumOp, layout: RegisterLayout,
                         projector: Projector, t: int, rng: np.random.Generator,
                         *, ledger: QueryLedger | None = None) -> AEResult:
    """Run one estimation: build the phase distribution, measure once."""
    return phase_distribution(unitary, layout, projector, t, ledger=ledger).sample(rng)


def zero_budget(eps: float) -> int:
    """Iteration budget ceil(10 pi / sqrt(eps)) of the zero tester."""
    if not 0.0 < eps < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {eps}")
    return math.ceil(10.0 * math.pi / math.sqrt(eps))


def zero_tester(unitary: QuantumOp, layout: RegisterLayout, projector: Projector,
                eps: float, rng: np.random.Generator, *,
                ledger: QueryLedger | None = None) -> str:
    """YES if the projected mass is 0 (with certainty), NO if it exceeds eps
    (with probability at least 8/pi^2), using O(1/sqrt(eps)) queries."""
    result = amplitude_estimation(unitary, layout, projector, zero_budget(eps),
                                  rng, ledger=ledger)
    return "YES" if result.estimate < eps / 2.0 else "NO"


def exact_amplitude(unitary: QuantumOp, layout: RegisterLayout,
                    projector: Projector) -> float:
    """Deterministic projected mass ||Pi U|0>||^2, bypassing estimation."""
    state = new_basis_state(layout)
    apply(unitary, state)
    return projector_norm_sq(state, projector)


def qpe_joint_state(unitary: QuantumOp, layout: RegisterLayout,
                    projector: Projector, t: int,
                    phase_name: str = "phase") -> tuple[StateVector, int]:
    """Materialized post-transform joint state with a real phase register.

    Cross-check path for small systems: the marginal of ``phase_name`` on the
    returned state is the simulated counterpart of the closed form in
    :func:`phase_distribution`, equal to it up to rounding.
    """
    cfg = AEConfig(t)
    m = cfg.points
    table = _power_table(unitary, layout, projector, m, None)
    joint_layout = RegisterLayout(((phase_name, m),) + layout.registers)
    joint = StateVector(joint_layout, (table / math.sqrt(m)).ravel())
    omega = np.exp(-2j * math.pi / m)
    dft_inv = omega ** np.outer(np.arange(m), np.arange(m)) / math.sqrt(m)
    apply(MatrixOp((phase_name,), dft_inv), joint)
    return joint, m
