"""Classical ground truth: exact distances, the Fourier spectrum of density
functions by one fast Walsh-Hadamard transform, k-wise uniformity checks read
off that spectrum, and instance generators.

Everything here is deterministic, direct, and independent of the simulator --
these values are what the quantum testers are checked against.

Bit conventions for bitstring sample spaces: an element x of {0,1}^n and a
coordinate subset S are both n-bit integers with coordinate 1 as the most
significant bit, matching the register ordering of the simulator.  The
character of S at x is chi_S(x) = (-1)^popcount(S & x).
"""
from __future__ import annotations

import math

import numpy as np

from .distributions import BITSTRING, Distribution


def lp_distance(p: Distribution, q: Distribution, alpha: int) -> float:
    """||p - q||_alpha = (sum_i |p_i - q_i|^alpha)^(1/alpha) for alpha in {1, 2}."""
    if alpha not in (1, 2):
        raise ValueError(f"alpha must be 1 or 2, got {alpha}")
    if p.kind != q.kind or p.size != q.size:
        raise ValueError("distributions live on different sample spaces")
    diff = np.abs(p.weights - q.weights)
    if alpha == 1:
        return float(diff.sum())
    return float(np.sqrt(np.sum(diff ** 2)))


# --- Fourier analysis over {0,1}^n ---------------------------------------------

def _check_bitstring(p: Distribution) -> int:
    if p.kind != BITSTRING:
        raise ValueError("Fourier analysis needs a bitstring sample space")
    return p.n_bits


def subset_sizes(n: int) -> np.ndarray:
    """|S| = popcount(S) for every subset mask S, by doubling the table n times."""
    sizes = np.zeros(1, dtype=np.int64)
    for _ in range(n):
        sizes = np.concatenate((sizes, sizes + 1))
    return sizes


def subset_masks(n: int, k: int) -> np.ndarray:
    """The masks of the subsets of size at most k, increasing: the empty set
    (mask 0) first, then the binom_sum(n, k) non-empty ones."""
    return np.flatnonzero(subset_sizes(n) <= k)


def character_values(n: int, masks: int | np.ndarray) -> np.ndarray:
    """chi_S(x) = (-1)^popcount(S & x) for all x, as a +/-1 vector for one
    mask S in 0..2^n-1, or as one such row per mask of an array of masks."""
    return 1.0 - 2.0 * (subset_sizes(n)[np.asarray(masks)[..., None] & np.arange(2 ** n)] & 1)


def fourier_spectrum(p: Distribution) -> np.ndarray:
    """Every density Fourier coefficient phi_hat(S) = sum_x p_x chi_S(x),
    indexed by the subset mask S: an in-place fast Walsh-Hadamard transform,
    one butterfly per bit axis, O(n 2^n)."""
    n = _check_bitstring(p)
    spec = p.weights.astype(np.float64)
    for i in range(n):
        pairs = spec.reshape(2 ** i, 2, -1)
        low = pairs[:, 0].copy()
        pairs[:, 0] += pairs[:, 1]
        np.subtract(low, pairs[:, 1], out=pairs[:, 1])
    return spec


def mask_from_coords(n: int, coords) -> int:
    """Subset mask from 1-based coordinates (coordinate 1 = most significant bit)."""
    mask = 0
    for c in coords:
        if not 1 <= c <= n:
            raise ValueError(f"coordinate {c} out of range 1..{n}")
        mask |= 1 << (n - c)
    return mask


def _low_degree(p: Distribution, k: int) -> np.ndarray:
    """phi_hat(S) for the non-empty subsets of size at most k, in mask order."""
    n = _check_bitstring(p)
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    return fourier_spectrum(p)[subset_masks(n, k)[1:]]


def fourier_weight(p: Distribution, k: int) -> float:
    """sum of phi_hat(S)^2 over all non-empty subsets of size at most k."""
    return float(np.sum(_low_degree(p, k) ** 2))


def is_kwise_uniform(p: Distribution, k: int) -> bool:
    """Whether every non-empty subset of size at most k has |phi_hat(S)| <=
    1e-9: every k-coordinate marginal is uniform, up to rounding."""
    return bool(np.abs(_low_degree(p, k)).max() <= 1e-9)


def binom_sum(n: int, k: int) -> int:
    """Number of non-empty subsets of [n] of size at most k."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    return sum(math.comb(n, i) for i in range(1, k + 1))


# --- instance generators --------------------------------------------------------

def gen_l2_pair(n: int, d: float) -> tuple[Distribution, Distribution]:
    """Pair over [n] supported on two elements with ||p - q||_2 = d / sqrt(2)
    (and ||p - q||_1 = d): p = (1/2, 1/2, 0, ...),
    q = ((1-d)/2, (1+d)/2, 0, ...)."""
    if n < 2:
        raise ValueError("need n >= 2")
    _check_distance(d)
    p = np.zeros(n)
    q = np.zeros(n)
    p[0] = p[1] = 0.5
    q[0], q[1] = (1 - d) / 2, (1 + d) / 2
    return Distribution(p), Distribution(q)


def gen_l1_pair(n: int, d: float) -> tuple[Distribution, Distribution]:
    """Pair over even [n] with ||p - q||_1 = d: p uniform,
    q_i = (1 + (-1)^i d) / n with elements counted from 1."""
    if n < 2 or n % 2:
        raise ValueError("need even n >= 2")
    _check_distance(d)
    p = np.full(n, 1.0 / n)
    signs = np.array([(-1) ** (j + 1) for j in range(n)], dtype=np.float64)
    return Distribution(p), Distribution((1.0 + signs * d) / n)


def _check_distance(d: float) -> None:
    if not 0 <= d <= 1:
        raise ValueError(f"need the pair's l1 distance d in [0, 1], got {d}")


def gen_fourier_spike(n: int, mask: int, delta: float) -> Distribution:
    """Distribution with density 1 + delta * chi_T: the single coefficient
    phi_hat(T) = delta and all other non-empty coefficients zero.  Its total
    variation distance to uniform (and to the k-wise uniform set, for
    |T| <= k) is exactly delta / 2."""
    if not 0 <= delta <= 1:
        raise ValueError(f"need delta in [0, 1], got {delta}")
    if not 1 <= mask < 2 ** n:
        raise ValueError("spike subset must be non-empty")
    density = 1.0 + delta * character_values(n, mask)
    return Distribution(density / 2 ** n, BITSTRING)


def gen_random_multiset_uniform(n: int, count: int,
                                rng: np.random.Generator) -> Distribution:
    """Uniform distribution over a random multiset of ``count`` n-bit strings
    drawn with replacement; duplicates weighted by multiplicity."""
    if count < 1:
        raise ValueError("need at least one string")
    draws = rng.integers(0, 2 ** n, size=count)
    weights = np.bincount(draws, minlength=2 ** n).astype(np.float64) / count
    return Distribution(weights, BITSTRING)

