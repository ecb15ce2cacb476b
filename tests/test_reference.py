"""Ground-truth module tests: distances, Fourier identities, k-wise checks,
and instance generators."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdtest import reference as ref
from qdtest.distributions import BITSTRING, Distribution, point_mass, uniform

from helpers import (fourier_coefficient, hellinger_distance, marginals_uniform,
                     parity_set_distribution, random_bitstring_distribution, tv_distance)


def normalized(weights):
    w = np.asarray(weights, dtype=float)
    return Distribution(w / w.sum())


def normalized_bits(weights):
    w = np.asarray(weights, dtype=float)
    return Distribution(w / w.sum(), BITSTRING)


weights_st = st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4)


# --- distances -----------------------------------------------------------------------

def test_distances_zero_for_identical():
    u = uniform(8)
    assert ref.lp_distance(u, u, 1) == 0.0
    assert ref.lp_distance(u, u, 2) == 0.0
    assert tv_distance(u, u) == 0.0
    assert hellinger_distance(u, u) == 0.0


def test_distances_disjoint_point_masses():
    p, q = point_mass(4, 0), point_mass(4, 1)
    assert abs(ref.lp_distance(p, q, 1) - 2.0) < 1e-15
    assert abs(ref.lp_distance(p, q, 2) - math.sqrt(2)) < 1e-15
    assert abs(tv_distance(p, q) - 1.0) < 1e-15


def test_distance_requires_same_space():
    with pytest.raises(ValueError):
        ref.lp_distance(uniform(4), uniform(8), 2)
    with pytest.raises(ValueError):
        ref.lp_distance(uniform(4), uniform(4), 3)


@given(weights_st, weights_st)
@settings(max_examples=50, deadline=None)
def test_norm_inequality(w1, w2):
    """||p - q||_2 >= ||p - q||_1 / sqrt(n) on random pairs."""
    p, q = normalized(w1), normalized(w2)
    assert ref.lp_distance(p, q, 2) >= ref.lp_distance(p, q, 1) / 2.0 - 1e-12


def test_two_point_pair_closed_forms():
    for eps in (0.1, 0.3):
        p, q = ref.gen_l2_pair(6, eps)
        assert abs(ref.lp_distance(p, q, 2) - eps / math.sqrt(2)) < 1e-15
        assert abs(ref.lp_distance(p, q, 1) - eps) < 1e-15
        closed = math.sqrt(1 - math.sqrt(1 + eps) / 2 - math.sqrt(1 - eps) / 2)
        assert abs(hellinger_distance(p, q) - closed) < 1e-12
        assert hellinger_distance(p, q) <= eps


def test_alternating_pair_closed_forms():
    for n in (4, 8):
        p, q = ref.gen_l1_pair(n, 0.4)
        assert abs(ref.lp_distance(p, q, 1) - 0.4) < 1e-12
        closed = math.sqrt(1 - math.sqrt(1.4) / 2 - math.sqrt(0.6) / 2)
        assert abs(hellinger_distance(p, q) - closed) < 1e-12


def test_pair_generator_ranges():
    with pytest.raises(ValueError):
        ref.gen_l2_pair(1, 0.2)
    with pytest.raises(ValueError):
        ref.gen_l1_pair(5, 0.2)
    with pytest.raises(ValueError):
        ref.gen_l2_pair(4, 1.5)


# --- Fourier --------------------------------------------------------------------------

def test_uniform_coefficients():
    spectrum = ref.fourier_spectrum(uniform(16, BITSTRING))
    assert spectrum[0] == 1.0
    assert not spectrum[1:].any()


def test_spike_coefficients():
    mask = ref.mask_from_coords(4, (1, 3))
    dist = ref.gen_fourier_spike(4, mask, 0.5)
    spectrum = ref.fourier_spectrum(dist)
    assert abs(spectrum[mask] - 0.5) < 1e-12
    for other in range(1, 16):
        if other != mask:
            assert abs(spectrum[other]) < 1e-12
    assert abs(tv_distance(dist, uniform(16, BITSTRING)) - 0.25) < 1e-12
    assert abs(ref.fourier_weight(dist, 2) - 0.25) < 1e-12


@given(st.lists(st.floats(0.01, 1.0), min_size=16, max_size=16))
@settings(max_examples=40, deadline=None)
def test_parseval(weights):
    """Sum of squared coefficients equals the density's mean square."""
    dist = normalized_bits(weights)
    density = dist.weights * dist.size
    total = np.sum(ref.fourier_spectrum(dist) ** 2)
    assert abs(total - np.mean(density ** 2)) < 1e-9


@st.composite
def bitstring_distributions(draw, max_bits=8):
    """Random weights on n = 1..max_bits bits, or a spike, parity-set or
    point-mass instance of the same size."""
    n = draw(st.integers(1, max_bits))
    shape = draw(st.sampled_from(("random", "spike", "parity", "point")))
    if shape == "spike":
        mask = draw(st.integers(1, 2 ** n - 1))
        return ref.gen_fourier_spike(n, mask, draw(st.floats(0.01, 1.0)))
    if shape == "parity":
        return parity_set_distribution(n)
    if shape == "point":
        return Distribution(np.eye(2 ** n)[draw(st.integers(0, 2 ** n - 1))], BITSTRING)
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return random_bitstring_distribution(n, np.random.default_rng(seed))


@given(bitstring_distributions())
@settings(max_examples=60, deadline=None)
def test_spectrum_matches_direct_sums(dist):
    """The transform adds in another order than the direct sums, so the two
    agree to rounding, not bit for bit."""
    spectrum = ref.fourier_spectrum(dist)
    direct = [fourier_coefficient(dist, mask) for mask in range(dist.size)]
    assert np.abs(spectrum - direct).max() < 1e-12


@given(bitstring_distributions())
@settings(max_examples=60, deadline=None)
def test_kwise_uniform_matches_marginals(dist):
    for k in range(1, dist.n_bits + 1):
        assert ref.is_kwise_uniform(dist, k) == marginals_uniform(dist, k), k


def test_mask_from_coords():
    assert ref.mask_from_coords(4, (1,)) == 0b1000
    assert ref.mask_from_coords(4, (4,)) == 0b0001
    assert ref.mask_from_coords(4, (1, 2)) == 0b1100
    with pytest.raises(ValueError):
        ref.mask_from_coords(4, (5,))


def test_subset_sizes():
    for n in range(9):
        sizes = ref.subset_sizes(n)
        assert sizes.tolist() == [bin(x).count("1") for x in range(2 ** n)]
        for k in range(1, n + 1):
            assert np.count_nonzero((sizes >= 1) & (sizes <= k)) == ref.binom_sum(n, k)


def test_binom_sum_values():
    assert ref.binom_sum(4, 2) == 10
    assert ref.binom_sum(3, 3) == 7
    assert ref.binom_sum(9, 1) == 9
    with pytest.raises(ValueError):
        ref.binom_sum(3, 4)


# --- k-wise uniformity ------------------------------------------------------------------

def test_uniform_is_kwise_uniform_for_all_k():
    u = uniform(16, BITSTRING)
    for k in range(1, 5):
        assert ref.is_kwise_uniform(u, k)


def test_point_mass_is_not_kwise_uniform():
    dist = Distribution(np.eye(8)[3], BITSTRING)
    assert not ref.is_kwise_uniform(dist, 1)


def test_parity_set_kwise_levels():
    dist = parity_set_distribution(4)
    assert ref.is_kwise_uniform(dist, 3)
    assert not ref.is_kwise_uniform(dist, 4)


def test_marginal_fourier_equivalence_exhaustive_small():
    """k-wise uniformity iff the low-degree Fourier weight vanishes."""
    rng = np.random.default_rng(55)
    cases = [uniform(16, BITSTRING), parity_set_distribution(4),
             ref.gen_fourier_spike(4, 0b1000, 0.5),
             ref.gen_fourier_spike(4, 0b1100, 0.3),
             Distribution(np.eye(16)[5], BITSTRING)]
    cases += [random_bitstring_distribution(4, rng) for _ in range(50)]
    cases += [parity_set_distribution(3), uniform(8, BITSTRING)]
    for dist in cases:
        n = dist.n_bits
        for k in range(1, n + 1):
            marginal = marginals_uniform(dist, k)
            weight = ref.fourier_weight(dist, k)
            assert marginal == (weight < 1e-18), (dist.weights, k)


def test_spike_weight_exceeds_far_bound():
    """Verified eps-far instances satisfy the spectral far bound."""
    for n, coords, delta, k in ((4, (1, 2), 0.6, 2), (5, (2, 4), 0.8, 2)):
        dist = ref.gen_fourier_spike(n, ref.mask_from_coords(n, coords), delta)
        eps = delta / 2  # exact distance to the k-wise uniform set
        assert math.sqrt(ref.fourier_weight(dist, k)) > eps / math.exp(k)


def test_random_multiset_consistency_probe():
    """Small random multisets are overwhelmingly far from 3-wise uniform."""
    n, k, eps = 12, 3, 0.1
    m_count = ref.binom_sum(n, k)
    size = int(0.228 ** 2 * m_count / (n * eps ** 2))
    rng = np.random.default_rng(2718)
    hits = 0
    for _ in range(100):
        dist = ref.gen_random_multiset_uniform(n, size, rng)
        if math.sqrt(ref.fourier_weight(dist, k)) > 0.228 * eps / math.exp(k):
            hits += 1
    assert hits >= 90


def test_multiset_weights_are_multiplicities():
    rng = np.random.default_rng(8)
    dist = ref.gen_random_multiset_uniform(3, 5, rng)
    counts = dist.weights * 5
    assert np.allclose(counts, np.round(counts))
    assert counts.sum() == 5

