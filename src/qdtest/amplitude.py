"""Amplitude estimation via quantum phase estimation.

Given a unitary U and projector Pi with p = ||Pi U|0>||^2, the estimator runs
phase estimation on the reflection product Q = -U S0 U^dagger S_Pi applied to
U|0>: a uniform M-point phase register is entangled with the powers Q^y of the
iterate, the inverse Fourier transform is taken along the phase axis, the
phase register is measured once, and the estimate sin^2(pi y / M) is returned.
M = ``next_pow2(t)`` (:func:`phase_points`) is the least power of two at or
above the requested iteration budget t, so the guarantee

    |estimate - p| <= 2 pi sqrt(p (1-p)) / M + pi^2 / M^2

holds with probability at least 8/pi^2, and the estimate is exactly 0 with
certainty when p = 0.

The projector Pi is a ``{register: value}`` map (:mod:`qdtest.statevec`).
Q only rotates the two-dimensional span of Pi U|0> and (I - Pi) U|0>, by
2 theta with sin^2(theta) = p, so the phase-register distribution depends on
p alone: it is the two-peak Fejer kernel of :func:`phase_pmf`
(Brassard-Hoyer-Mosca-Tapp, arXiv:quant-ph/0005055, section 4).
:func:`phase_distribution` therefore applies U once to read p and evaluates
that closed form.  One estimation run applies U forward M times (one
preparation plus M-1 iterate steps) and inverse M-1 times; the returned
``ledger_cost`` holds exactly those counts, scaled from the one measured
application of U and its mirror (forward and inverse swapped).
:func:`qpe_joint_state` still simulates the iterate powers and a
materialized phase register, as the cross-check for small systems.
"""
from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from .distributions import next_pow2
from .statevec import (InverseOp, MatrixOp, QuantumOp, QueryLedger, RegisterLayout, SequenceOp,
                       SignOp, StateVector, new_basis_state, projector_norm_sq, require_bytes)

# Peak bytes per phase point of one estimation setup and its sampling: the
# pmf and its kernel temporaries, the CDF, and sample_plan's per-phase counts
# and lookup.  tracemalloc measured 65.0 for testers.sample_plan on one
# uniform at M = 2^16..2^22; 80 leaves some headroom.
_PEAK_BYTES_PER_POINT = 80

# A simulated p at or below this floor is exactly 0 (see phase_distribution).
_ZERO_FLOOR = 1e-26


def phase_points(t: int) -> int:
    """Phase-register size M of iteration budget t: the least power of two
    at or above t."""
    if t < 1:
        raise ValueError(f"iteration budget must be positive, got {t}")
    return next_pow2(t)


class AEDistribution:
    """Exact outcome distribution of one estimation setup.

    The phase-register measurement distribution is deterministic given
    (U, Pi, M); sampling from it repeatedly is exactly repeating the
    estimation, and ``ledger_cost`` holds the deterministic per-run query
    counts.
    """

    __slots__ = ("points", "probs", "_cdf", "ledger_cost")

    def __init__(self, points: int, probs: np.ndarray, ledger_cost: QueryLedger):
        self.points = points
        self.probs = probs
        self._cdf = np.cumsum(probs)
        self.ledger_cost = ledger_cost

    def phases(self, uniforms) -> np.ndarray:
        """Phase-register measurements y, one per uniform draw in [0, 1): the
        inverse CDF, clipped to M-1 in case the cumulative sum ends below 1."""
        y = np.searchsorted(self._cdf, uniforms, side="right")
        return np.minimum(y, self.points - 1)


def estimate_from_phase(y: int, points: int) -> float:
    return math.sin(math.pi * y / points) ** 2


def grover_iterate(unitary: QuantumOp, layout: RegisterLayout,
                   projector: Mapping[str, int]) -> QuantumOp:
    """The reflection product Q = -U S0 U^dagger S_Pi.

    Both reflections are sign tables (:class:`~qdtest.statevec.SignOp`):
    S_Pi = I - 2 Pi is -1 at the projector's values over its registers, and
    -S0 = 2|0...0><0...0| - I is -1 everywhere but index 0 of the full
    layout.  Folding the global minus sign into the middle reflection makes
    the iterate's eigenphases exactly +/- 2 theta with sin^2(theta) =
    ||Pi U|0>||^2.  One application costs one forward and one inverse
    application of U.
    """
    fixed = RegisterLayout((r, layout.dim_of(r)) for r in projector)
    s_pi = np.ones(fixed.total_dim)
    s_pi[fixed.basis_index(projector)] = -1.0
    neg_s0 = np.full(layout.total_dim, -1.0)
    neg_s0[0] = 1.0
    return SequenceOp([SignOp(fixed.names, s_pi), InverseOp(unitary),
                       SignOp(layout.names, neg_s0), unitary])


def _power_table(unitary: QuantumOp, layout: RegisterLayout,
                 projector: Mapping[str, int], points: int) -> np.ndarray:
    """Rows y = Q^y U|0> for y in 0..points-1 (the simulated cross-check)."""
    state = new_basis_state(layout)
    unitary.apply_to(state)
    iterate = grover_iterate(unitary, layout, projector)
    table = np.empty((points, layout.total_dim), dtype=np.complex128)
    table[0] = state.amplitudes
    for y in range(1, points):
        iterate.apply_to(state)
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
                       projector: Mapping[str, int], t: int) -> AEDistribution:
    """Exact phase-measurement distribution for one estimation setup.

    Applies U once, to read p and to count its queries, on a float64 state
    when every gate of U is real (basis garbage) and a complex128 one
    otherwise; U^dagger makes the same applications with forward and
    inverse swapped, so its count is the mirror of U's.  The returned
    object's ``ledger_cost`` holds the query counts of the single run it
    represents.  Checks first that the M-point phase register fits in the
    available memory.

    A p at or below ``_ZERO_FLOOR`` (1e-26) is taken as exactly 0, so the
    near side measures y = 0 with certainty at every M, not only where
    rounding makes the pmf a point mass.  Both margins are wide.  The floor
    is over 1000 times the rounding residue that U leaves for p = q or a
    k-wise uniform p (at most 3.0e-32).  It is under 1e-3 times (10 pi / M)^2,
    a lower bound on every far-side projected mass (t <= M), at M = 2^33,
    the largest phase register the pre-flight admits with 1 TiB free.
    """
    m = phase_points(t)
    require_bytes(m * _PEAK_BYTES_PER_POINT, f"a phase register of {m} points")
    state = new_basis_state(layout, np.float64 if unitary.real else np.complex128)
    forward = QueryLedger()
    unitary.apply_to(state, ledger=forward)
    p = projector_norm_sq(state, projector)
    if p <= _ZERO_FLOOR:
        p = 0.0
    cost = QueryLedger()
    cost.merge(forward, times=m)
    cost.merge(forward, times=m - 1, inverse=True)
    return AEDistribution(m, phase_pmf(p, m), cost)


def qpe_joint_state(unitary: QuantumOp, layout: RegisterLayout,
                    projector: Mapping[str, int], t: int) -> tuple[StateVector, int]:
    """Materialized post-transform joint state with a real phase register.

    Cross-check path for small systems: the marginal of the register
    ``"phase"`` on the returned state is the simulated counterpart of the
    closed form in :func:`phase_distribution`, equal to it up to rounding.
    """
    m = phase_points(t)
    table = _power_table(unitary, layout, projector, m)
    joint = StateVector(RegisterLayout((("phase", m),) + layout.registers),
                        (table / math.sqrt(m)).ravel())
    omega = np.exp(-2j * math.pi / m)
    dft_inv = omega ** np.outer(np.arange(m), np.arange(m)) / math.sqrt(m)
    MatrixOp(("phase",), dft_inv).apply_to(joint)
    return joint, m
