"""Classical ground truth: exact distances, brute-force Fourier analysis of
density functions, exact k-wise uniformity checks, and instance generators.

Everything here is deterministic, direct, and independent of the simulator --
these values are what the quantum testers are checked against.

Bit conventions for bitstring sample spaces: an element x of {0,1}^n and a
coordinate subset S are both n-bit integers with coordinate 1 as the most
significant bit, matching the register ordering of the simulator.  The
character of S at x is chi_S(x) = (-1)^popcount(S & x).
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from .distributions import BITSTRING, Distribution

__all__ = [
    "lp_distance", "tv_distance", "hellinger_distance", "fourier_coefficient",
    "fourier_weight", "is_kwise_uniform", "binom_sum", "subsets_up_to",
    "mask_from_coords", "gen_l2_pair", "gen_l1_pair", "gen_fourier_spike",
    "gen_random_multiset_uniform",
]


def _require_same_space(p: Distribution, q: Distribution) -> None:
    if p.kind != q.kind or p.size != q.size:
        raise ValueError("distributions live on different sample spaces")


def lp_distance(p: Distribution, q: Distribution, alpha: int) -> float:
    """||p - q||_alpha = (sum_i |p_i - q_i|^alpha)^(1/alpha) for alpha in {1, 2}."""
    if alpha not in (1, 2):
        raise ValueError(f"alpha must be 1 or 2, got {alpha}")
    _require_same_space(p, q)
    diff = np.abs(p.weights - q.weights)
    if alpha == 1:
        return float(diff.sum())
    return float(np.sqrt(np.sum(diff ** 2)))


def tv_distance(p: Distribution, q: Distribution) -> float:
    """Total variation distance: half the l1 distance."""
    return 0.5 * lp_distance(p, q, 1)


def hellinger_distance(p: Distribution, q: Distribution) -> float:
    """sqrt((1/2) sum_i (sqrt(p_i) - sqrt(q_i))^2)."""
    _require_same_space(p, q)
    return float(np.sqrt(0.5 * np.sum((np.sqrt(p.weights) - np.sqrt(q.weights)) ** 2)))


# --- Fourier analysis over {0,1}^n ---------------------------------------------

def _check_bitstring(p: Distribution) -> int:
    if p.kind != BITSTRING:
        raise ValueError("Fourier analysis needs a bitstring sample space")
    return p.n_bits


def character_values(n: int, mask: int) -> np.ndarray:
    """chi_S(x) = (-1)^popcount(S & x) for all x, as a +/-1 vector."""
    if not 0 <= mask < 2 ** n:
        raise ValueError(f"subset mask {mask} out of range for n={n}")
    xs = np.arange(2 ** n, dtype=np.int64)
    parity = np.zeros(2 ** n, dtype=np.int64)
    rest = xs & mask
    while np.any(rest):
        parity ^= rest & 1
        rest >>= 1
    return 1.0 - 2.0 * parity


def fourier_coefficient(p: Distribution, mask: int) -> float:
    """Density Fourier coefficient phi_hat(S) = 2^-n sum_x phi(x) chi_S(x)
    = sum_x p_x chi_S(x), computed by direct summation."""
    n = _check_bitstring(p)
    return float(np.dot(p.weights, character_values(n, mask)))


def subsets_up_to(n: int, k: int):
    """Masks of all non-empty coordinate subsets of size at most k."""
    for size in range(1, k + 1):
        for coords in itertools.combinations(range(1, n + 1), size):
            yield mask_from_coords(n, coords)


def mask_from_coords(n: int, coords) -> int:
    """Subset mask from 1-based coordinates (coordinate 1 = most significant bit)."""
    mask = 0
    for c in coords:
        if not 1 <= c <= n:
            raise ValueError(f"coordinate {c} out of range 1..{n}")
        mask |= 1 << (n - c)
    return mask


def fourier_weight(p: Distribution, k: int) -> float:
    """sum of phi_hat(S)^2 over all non-empty subsets of size at most k."""
    n = _check_bitstring(p)
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    return float(sum(fourier_coefficient(p, mask) ** 2 for mask in subsets_up_to(n, k)))


def is_kwise_uniform(p: Distribution, k: int, tol: float = 1e-9) -> bool:
    """Whether every k-coordinate marginal assigns 2^-k to every pattern."""
    n = _check_bitstring(p)
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    cube = p.weights.reshape([2] * n)
    target = 0.5 ** k
    for axes in itertools.combinations(range(n), k):
        other = tuple(a for a in range(n) if a not in axes)
        marginal = cube.sum(axis=other) if other else cube
        if np.abs(marginal - target).max() > tol:
            return False
    return True


def binom_sum(n: int, k: int) -> int:
    """Number of non-empty subsets of [n] of size at most k."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    return sum(math.comb(n, i) for i in range(1, k + 1))


# --- instance generators --------------------------------------------------------

def gen_l2_pair(n: int, eps: float) -> tuple[Distribution, Distribution]:
    """Pair over [n] supported on two elements with ||p - q||_2 = eps / sqrt(2)
    (and ||p - q||_1 = eps): p = (1/2, 1/2, 0, ...),
    q = ((1-eps)/2, (1+eps)/2, 0, ...)."""
    if n < 2:
        raise ValueError("need n >= 2")
    if not 0 <= eps <= 1:
        raise ValueError(f"need eps in [0, 1], got {eps}")
    p = np.zeros(n)
    q = np.zeros(n)
    p[0] = p[1] = 0.5
    q[0], q[1] = (1 - eps) / 2, (1 + eps) / 2
    return Distribution(p), Distribution(q)


def gen_l1_pair(n: int, eps: float) -> tuple[Distribution, Distribution]:
    """Pair over even [n] with ||p - q||_1 = eps: p uniform,
    q_i = (1 + (-1)^i eps) / n with elements counted from 1."""
    if n < 2 or n % 2:
        raise ValueError("need even n >= 2")
    if not 0 <= eps <= 1:
        raise ValueError(f"need eps in [0, 1], got {eps}")
    p = np.full(n, 1.0 / n)
    signs = np.array([(-1) ** (j + 1) for j in range(n)], dtype=np.float64)
    return Distribution(p), Distribution((1.0 + signs * eps) / n)


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

