"""Oracle construction tests: the purified-access definition, the copy
unitary, the encoding unitaries, garbage independence, query counting, the
layouts (one register per role) and the near side's rounding residue."""
import hashlib
import math

import numpy as np
import pytest

from qdtest import cli
from qdtest import oracles as orc
from qdtest import reference as ref
from qdtest import statevec as sv
from qdtest.distributions import (BITSTRING, Distribution, point_mass,
                                  random_distribution, uniform)
from qdtest.seeding import trial_uniforms

from helpers import (NEAR_SIDE_RESIDUE, basis_state, parity_set_distribution,
                     random_bitstring_distribution)
from test_golden import GOLDEN

STYLES = (("basis", None), ("haar", 99))


def oracle_columns(oracle):
    """(A, B) amplitude table of the oracle on the all-zeros input."""
    state = sv.new_basis_state(orc.oracle_layout(oracle.distribution.size))
    oracle.op.apply_to(state)
    return state.amplitudes.reshape(oracle.distribution.size, -1)


# --- the purified-access definition ------------------------------------------------

def test_basis_garbage_columns():
    oracle = orc.make_purified_oracle(Distribution(np.array([0.5, 0.5])))
    table = oracle_columns(oracle)
    assert abs(table[0, 0] - math.sqrt(0.5)) < 1e-12
    assert abs(table[1, 1] - math.sqrt(0.5)) < 1e-12
    assert abs(table[0, 1]) < 1e-12 and abs(table[1, 0]) < 1e-12


def test_point_mass_is_exact():
    oracle = orc.make_purified_oracle(Distribution(np.array([1.0, 0.0])))
    table = oracle_columns(oracle)
    assert table[0, 0] == 1.0
    assert np.abs(table).sum() == 1.0


@pytest.mark.parametrize("style,seed", STYLES)
@pytest.mark.parametrize("n", [2, 5, 8, 16])
def test_definition_invariant(style, seed, n):
    """Amplitudes are sqrt(p_i) against orthonormal garbage states."""
    rng = np.random.default_rng(n)
    dist = random_distribution(n, rng)
    oracle = orc.make_purified_oracle(dist, style, seed=seed)
    table = oracle_columns(oracle)
    assert table.shape == (n, n)
    gram = table.conj().T @ table
    assert np.abs(gram - np.diag(dist.weights)).max() < 1e-10


def test_haar_measurement_reproduces_distribution():
    rng = np.random.default_rng(5)
    dist = random_distribution(8, rng)
    oracle = orc.make_purified_oracle(dist, "haar", seed=17)
    state = sv.new_basis_state(orc.oracle_layout(8))
    oracle.op.apply_to(state)
    marginal = sv.register_marginal(state, "B")
    outcomes = rng.choice(marginal.size, size=100000, p=marginal / marginal.sum())
    freq = np.bincount(outcomes, minlength=8) / 100000
    assert np.abs(freq - dist.weights).max() < 0.01


def test_invalid_distribution_rejected():
    from qdtest.distributions import DistributionError
    with pytest.raises(DistributionError):
        orc.make_purified_oracle(Distribution(np.array([0.5, 0.6])))
    with pytest.raises(ValueError):
        orc.make_purified_oracle(uniform(4), "squeezed")


def test_haar_garbage_needs_a_seed():
    """Without a seed a Haar oracle could not be rebuilt, so it is refused."""
    with pytest.raises(ValueError, match="haar garbage needs a seed"):
        orc.make_purified_oracle(uniform(4), "haar")
    haar = orc.make_purified_oracle(uniform(4), "haar", seed=0)
    basis = orc.make_purified_oracle(uniform(4))
    assert not np.allclose(oracle_columns(haar), oracle_columns(basis))


# --- copy unitary --------------------------------------------------------------------

# U_copy |b>|c> -> |b>|c + b mod d> from B into C, as the encoders build it
U_COPY = sv.CopyOp("B", "C")


def test_u_copy_action():
    """On any d, not only a power of two, the copy sends |b>|0> to |b>|b>
    and |b>|c> to |b>|c + b mod d>; its inverse sends |b>|b> back to |b>|0>."""
    lay = sv.RegisterLayout([("B", 5), ("C", 5)])
    state = basis_state(lay, {"B": 3})
    U_COPY.apply_to(state)
    assert state.amplitudes[lay.basis_index({"B": 3, "C": 3})] == 1.0
    U_COPY.apply_to(state)
    assert state.amplitudes[lay.basis_index({"B": 3, "C": 1})] == 1.0
    U_COPY.apply_to(state, inverse=True)
    U_COPY.apply_to(state, inverse=True)
    assert state.amplitudes[lay.basis_index({"B": 3, "C": 0})] == 1.0


def test_u_copy_inverse_on_random_state():
    rng = np.random.default_rng(3)
    lay = sv.RegisterLayout([("B", 6), ("C", 6)])
    amps = rng.standard_normal(36) + 1j * rng.standard_normal(36)
    state = sv.StateVector(lay, amps / np.linalg.norm(amps))
    before = state.amplitudes.copy()
    U_COPY.apply_to(state)
    U_COPY.apply_to(state, inverse=True)
    assert np.array_equal(state.amplitudes, before)


# --- probability encoder -------------------------------------------------------------

@pytest.mark.parametrize("style,seed", STYLES)
def test_probability_readout(style, seed):
    rng = np.random.default_rng(8)
    dist = random_distribution(8, rng)
    oracle = orc.make_purified_oracle(dist, style, seed=seed)
    ledger = sv.QueryLedger()
    state = sv.new_basis_state(orc.encoder_layout(8))
    orc.probability_encoder(oracle).apply_to(state, ledger=ledger)
    assert np.abs(state.amplitudes[:8] - dist.weights).max() < 1e-10
    assert ledger.get(oracle.label) == {"forward": 1, "inverse": 1,
                                        "ctrl_forward": 0, "ctrl_inverse": 0}


def test_probability_readout_point_mass():
    oracle = orc.make_purified_oracle(point_mass(4, 2))
    state = sv.new_basis_state(orc.encoder_layout(4))
    orc.probability_encoder(oracle).apply_to(state)
    assert abs(state.amplitudes[state.layout.basis_index({"A": 0, "B": 0, "C": 2})]
               - 1.0) < 1e-12
    # no residual outside the readout component
    assert abs(sv.projector_norm_sq(state, {"A": 0, "B": 0}) - 1.0) < 1e-12


def test_probability_readout_non_power_of_two_space():
    """A six-element space is read out on registers of dimension 6."""
    rng = np.random.default_rng(9)
    dist = random_distribution(6, rng)
    oracle = orc.make_purified_oracle(dist, "haar", seed=2)
    layout = orc.encoder_layout(6)
    assert layout.registers == (("A", 6), ("B", 6), ("C", 6))
    state = sv.new_basis_state(layout)
    orc.probability_encoder(oracle).apply_to(state)
    assert np.abs(state.amplitudes[:6] - dist.weights).max() < 1e-10


# --- closeness unitary ---------------------------------------------------------------

def closeness_mass(p, q, style="basis", seeds=(None, None)):
    op = orc.make_purified_oracle(p, style, seed=seeds[0], label="p")
    oq = orc.make_purified_oracle(q, style, seed=seeds[1], label="q")
    layout, unitary, proj = orc.closeness_instance(op, oq)
    state = sv.new_basis_state(layout)
    ledger = sv.QueryLedger()
    unitary.apply_to(state, ledger=ledger)
    return sv.projector_norm_sq(state, proj), ledger


def test_identical_distributions_zero_mass():
    u = uniform(8)
    mass, _ = closeness_mass(u, u)
    assert mass == 0.0


def test_disjoint_point_masses():
    mass, _ = closeness_mass(point_mass(2, 0), point_mass(2, 1))
    assert abs(mass - 0.5) < 1e-10


def test_two_point_pair_mass():
    p, q = ref.gen_l2_pair(8, 0.2)
    mass, _ = closeness_mass(p, q)
    assert abs(mass - 0.2 ** 2 / 8) < 1e-12  # eps^2 / 8 = 0.005


def test_closeness_ledger_counts():
    p, q = ref.gen_l2_pair(4, 0.5)
    _, ledger = closeness_mass(p, q)
    for label in ("p", "q"):
        assert ledger.get(label) == {"forward": 0, "inverse": 0,
                                     "ctrl_forward": 1, "ctrl_inverse": 1}


def test_closeness_requires_same_space():
    p = uniform(4)
    q = uniform(8)
    op = orc.make_purified_oracle(p, label="p")
    oq = orc.make_purified_oracle(q, label="q")
    with pytest.raises(ValueError):
        orc.closeness_unitary(op, oq)


def test_closeness_requires_distinct_labels():
    p = uniform(4)
    op = orc.make_purified_oracle(p, label="p")
    oq = orc.make_purified_oracle(p, label="p")
    with pytest.raises(ValueError):
        orc.closeness_unitary(op, oq)


@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_closeness_mass_random_pairs(n):
    rng = np.random.default_rng(n + 100)
    p, q = random_distribution(n, rng), random_distribution(n, rng)
    mass, _ = closeness_mass(p, q, "haar", seeds=(1, 2))
    assert abs(mass - ref.lp_distance(p, q, 2) ** 2 / 4) < 1e-10


# --- garbage independence -------------------------------------------------------------

def test_garbage_independence_of_encoded_quantities():
    rng = np.random.default_rng(77)
    p, q = random_distribution(8, rng), random_distribution(8, rng)
    masses = []
    for style, seeds in (("basis", (None, None)), ("haar", (4, 5))):
        masses.append(closeness_mass(p, q, style, seeds)[0])
    assert abs(masses[0] - masses[1]) < 1e-10

    dist = random_bitstring_distribution(3, rng)
    amplitudes = []
    for style, seed in STYLES:
        oracle = orc.make_purified_oracle(dist, style, seed=seed)
        layout, unitary, _ = orc.kwise_instance(oracle, 2)
        state = sv.new_basis_state(layout)
        unitary.apply_to(state)
        amplitudes.append(state.amplitudes[::layout.total_dim // layout.dim_of("S")])
    assert np.abs(amplitudes[0] - amplitudes[1]).max() < 1e-10


# --- subset superposition and the k-wise encoder ---------------------------------------

def test_subset_superposition_n2_k1():
    op = orc.subset_superposition(2, 1)
    lay = sv.RegisterLayout([("S", 3)])
    state = sv.new_basis_state(lay)
    op.apply_to(state)
    # the empty set at 0, then {2} (mask 01) and {1} (mask 10) each at 1/sqrt(2)
    expected = np.array([0, 1, 1]) / math.sqrt(2)
    assert np.abs(state.amplitudes - expected).max() < 1e-12


@pytest.mark.parametrize("n,k,count", [(4, 2, 10), (3, 3, 7), (5, 1, 5)])
def test_subset_superposition_support(n, k, count):
    """S holds the empty set and the ``count`` non-empty subsets of size at
    most k; the superposition is uniform over the non-empty ones."""
    masks = ref.subset_masks(n, k)
    assert len(masks) == 1 + count == 1 + ref.binom_sum(n, k)
    op = orc.subset_superposition(n, k)
    lay = sv.RegisterLayout([("S", len(masks))])
    state = sv.new_basis_state(lay)
    op.apply_to(state)
    amps = state.amplitudes
    support = np.flatnonzero(np.abs(amps) > 1e-12)
    assert support.tolist() == list(range(1, count + 1))
    assert np.abs(amps[support] - 1 / math.sqrt(count)).max() < 1e-12
    sizes = [bin(x).count("1") for x in masks[support]]
    assert min(sizes) >= 1 and max(sizes) <= k


def test_subset_superposition_range_check():
    with pytest.raises(ValueError):
        orc.subset_superposition(3, 0)
    with pytest.raises(ValueError):
        orc.subset_superposition(3, 4)


def kwise_amplitudes(dist, k, style="basis", seed=None):
    """The (S, A=0, B=0) amplitudes indexed by subset mask (0 for a subset
    of size above k, which S does not hold), the projected mass, and the
    ledger counts."""
    oracle = orc.make_purified_oracle(dist, style, seed=seed)
    layout, unitary, proj = orc.kwise_instance(oracle, k)
    state = sv.new_basis_state(layout)
    ledger = sv.QueryLedger()
    unitary.apply_to(state, ledger=ledger)
    masks = ref.subset_masks(dist.n_bits, k)
    assert layout.registers[0] == ("S", len(masks))
    amps = np.zeros(dist.size, dtype=complex)
    amps[masks] = state.amplitudes[::layout.total_dim // len(masks)]
    return amps, sv.projector_norm_sq(state, proj), ledger.get(oracle.label)


def test_kwise_uniform_has_zero_amplitudes():
    amps, mass, _ = kwise_amplitudes(uniform(16, BITSTRING), 2)
    assert np.abs(amps).max() < 1e-12
    assert mass < 1e-20


def test_kwise_spike_amplitude():
    mask = ref.mask_from_coords(4, (2, 3))
    dist = ref.gen_fourier_spike(4, mask, 0.3)
    amps, _, counts = kwise_amplitudes(dist, 2)
    scale = math.sqrt(ref.binom_sum(4, 2))
    for s in range(16):
        expected = 0.3 / scale if s == mask else 0.0
        assert abs(amps[s] - expected) < 1e-10
    assert counts == {"forward": 1, "inverse": 1, "ctrl_forward": 0, "ctrl_inverse": 0}


@pytest.mark.parametrize("style,seed", STYLES)
def test_kwise_amplitudes_match_fourier(style, seed):
    rng = np.random.default_rng(31)
    dist = random_bitstring_distribution(3, rng)
    amps, mass, _ = kwise_amplitudes(dist, 2, style, seed)
    sizes = ref.subset_sizes(3)
    want = np.where((sizes >= 1) & (sizes <= 2),
                    ref.fourier_spectrum(dist) / math.sqrt(ref.binom_sum(3, 2)), 0.0)
    assert np.abs(amps - want).max() < 1e-10
    assert abs(mass - np.sum(want ** 2)) < 1e-10


def test_kwise_parity_set_is_exact_zero_mass():
    dist = parity_set_distribution(4)
    _, mass, _ = kwise_amplitudes(dist, 2)
    assert mass < 1e-20


def test_kwise_fourier_identity_via_character_probability():
    """The amplitude equals (1 - 2 Pr_{x~p}[chi_S(x) = -1]) / sqrt(M)."""
    rng = np.random.default_rng(41)
    dist = random_bitstring_distribution(4, rng)
    amps, _, _ = kwise_amplitudes(dist, 3)
    scale = math.sqrt(ref.binom_sum(4, 3))
    for s in range(1, 16):
        if bin(s).count("1") > 3:
            continue
        chars = ref.character_values(4, s)
        prob_minus = float(dist.weights[chars < 0].sum())
        assert abs(amps[s] - (1 - 2 * prob_minus) / scale) < 1e-10


def test_kwise_encoder_requires_bitstring():
    with pytest.raises(ValueError):
        orc.kwise_encoder(orc.make_purified_oracle(uniform(4)), 1)


def test_kwise_encoder_k_range():
    oracle = orc.make_purified_oracle(uniform(8, BITSTRING))
    with pytest.raises(ValueError):
        orc.kwise_encoder(oracle, 0)
    with pytest.raises(ValueError):
        orc.kwise_encoder(oracle, 4)


# --- layouts ----------------------------------------------------------------------------

def test_layouts_have_one_register_per_role():
    """A, B and C have the sample-space size, unpadded, and S one value per
    subset of size at most k: 1 + 8 + 28 = 37 at n = 8, k = 2."""
    assert orc.oracle_layout(129).registers == (("A", 129), ("B", 129))
    closeness = orc.closeness_layout(129)
    assert closeness.registers == (("A", 129), ("B", 129), ("C", 129), ("D", 2))
    assert closeness.total_dim == 2 * 129 ** 3
    kwise = orc.kwise_layout(8, 2)
    assert kwise.names == ("S", "A", "B")
    assert kwise.total_dim == 37 * 2 ** 16


# --- near-side residue ------------------------------------------------------------------

@pytest.mark.parametrize("style,seeds", [("basis", (None, None)), ("haar", (1, 2))])
@pytest.mark.parametrize("n", [3, 5, 12, 16, 100, 129])
def test_closeness_near_side_residue(style, seeds, n):
    p = random_distribution(n, np.random.default_rng(n))
    mass, _ = closeness_mass(p, p, style, seeds)
    assert mass <= NEAR_SIDE_RESIDUE
    if style == "basis":
        assert mass == 0.0


@pytest.mark.parametrize("style,seed", STYLES)
@pytest.mark.parametrize("n", [4, 6, 8])
def test_kwise_near_side_residue(style, seed, n):
    _, mass, _ = kwise_amplitudes(uniform(2 ** n, BITSTRING), 2, style, seed)
    assert mass <= NEAR_SIDE_RESIDUE


# --- completion helpers ----------------------------------------------------------------

def test_reflection_completion_first_column():
    rng = np.random.default_rng(6)
    v = np.abs(rng.standard_normal(16))
    v /= np.linalg.norm(v)
    mat = sv.dense_matrix_of(sv.ReflectionOp(("B",), *orc.reflection_parts(v)),
                             sv.RegisterLayout([("B", 16)]))
    assert np.abs(mat[:, 0] - v).max() < 1e-14
    assert np.abs(mat.T @ mat - np.eye(16)).max() < 1e-12


def test_haar_unitary_is_unitary():
    rng = np.random.default_rng(12)
    u = orc.haar_unitary(16, int(rng.integers(2 ** 63)))
    assert np.abs(u.conj().T @ u - np.eye(16)).max() < 1e-12


@pytest.mark.parametrize("d", [1, 2, 3, 16, 64])
def test_haar_unitary_is_the_product_of_its_reflections(d):
    """Q = H_0 H_1 ... H_{d-1} diag(-phi), each H_j a dense d x d reflection
    of the next d - j Gaussians of the same draw, taken for j = d - 1 first."""
    seed = 1000 + d
    u = trial_uniforms(seed, d * (d + 1))
    z = np.sqrt(-np.log1p(-u[0::2])) * np.exp(2j * np.pi * u[1::2])
    q = np.eye(d, dtype=np.complex128)
    phases = np.empty(d, dtype=np.complex128)
    start = 0
    for j in reversed(range(d)):
        x = z[start:start + d - j]
        start += d - j
        phases[j] = np.exp(1j * np.angle(x[0]))
        v = np.zeros(d, dtype=np.complex128)
        v[j:] = x
        v[j] += phases[j] * np.linalg.norm(x)
        q = (np.eye(d) - 2.0 * np.outer(v, v.conj()) / np.vdot(v, v).real) @ q
    mat = orc.haar_unitary(d, seed)
    assert np.abs(mat - q * -phases).max() < 1e-13
    assert np.abs(mat.conj().T @ mat - np.eye(d)).max() < 1e-13


def test_haar_run_needs_no_lapack(capsys, monkeypatch):
    """The benchmark's Haar closeness command (far side) runs, with its
    pinned report, when LAPACK's QR is unavailable."""
    def no_qr(*args, **kwargs):
        raise AssertionError("np.linalg.qr was called")

    monkeypatch.setattr(np.linalg, "qr", no_qr)
    command = ("test-closeness --tester l2 --n 16 --eps 0.2 --trials 100 --garbage haar "
               "--gen l2-pair --seed 1")
    assert cli.main(command.split()) == 0
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN[command]


def test_haar_unitary_is_seeded():
    u = orc.haar_unitary(8, 5)
    assert np.array_equal(u, orc.haar_unitary(8, 5))
    assert not np.array_equal(u, orc.haar_unitary(8, 6))


def test_haar_unitary_entry_moments():
    """Over 2000 seeds at d = 4, |U_ij|^2 of each corner entry (0, 0),
    (d-1, d-1) and (0, d-1) has the Haar law Beta(1, d - 1): the means of
    |U_ij|^2 and |U_ij|^4 lie within 4 sigma of 1/d and 2/(d(d+1)), and the
    phase of U_ij averages to 0."""
    d, seeds = 4, 2000
    mats = np.array([orc.haar_unitary(d, seed) for seed in range(seeds)])
    # E|U_ij|^(2k) = k! (d-1)! / (d-1+k)!, the k-th moment of Beta(1, d - 1)
    moment = [math.factorial(k) * math.factorial(d - 1) / math.factorial(d - 1 + k)
              for k in range(5)]
    for entry in ((0, 0), (d - 1, d - 1), (0, d - 1)):
        uij = mats[:, entry[0], entry[1]]
        power = np.abs(uij) ** 2
        for k in (1, 2):
            sigma = math.sqrt((moment[2 * k] - moment[k] ** 2) / seeds)
            assert abs(np.mean(power ** k) - moment[k]) < 4 * sigma, (entry, k)
        assert abs(np.mean(uij / np.abs(uij))) < 4 / math.sqrt(seeds), entry
