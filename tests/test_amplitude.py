"""Estimation tests: the reflection iterate's eigenstructure, the closed-form
phase distribution against simulated phase estimation (the iterate powers and
a materialized phase register) on rotations and on real tester instances,
certainty at zero, the error bound's coverage, the zero test's budget and
threshold, and query accounting."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdtest import amplitude as ae
from qdtest import oracles as orc
from qdtest import reference as ref
from qdtest import statevec as sv
from qdtest.distributions import BITSTRING, uniform
from qdtest.testers import zero_budget

from helpers import NEAR_SIDE_RESIDUE, estimates, register_values, rotation_system


def bound(p, m):
    return 2 * math.pi * math.sqrt(p * (1 - p)) / m + math.pi ** 2 / m ** 2


# --- configuration -----------------------------------------------------------------

# budgets in [1, 2^70], weighted towards the edges 2^k and 2^k + 1, where a
# float log2 rounds 2^k + 1 down to 2^k from about 2^47 on
BUDGETS = st.one_of(
    st.integers(0, 70).map(lambda k: 2 ** k),
    st.integers(0, 69).map(lambda k: 2 ** k + 1),
    st.integers(1, 2 ** 70))


@settings(max_examples=300, deadline=None)
@given(BUDGETS)
@example(1)
@example(2)
@example(100)
@example(128)
@example(2 ** 49 + 1)
def test_config_points(t):
    """The phase register has M points, the least power of two at or above
    the budget t; a budget below 1 is rejected."""
    m = ae.phase_points(t)
    assert m & (m - 1) == 0
    assert m >= t > m // 2
    with pytest.raises(ValueError):
        ae.phase_points(1 - t)


def test_estimate_from_phase_symmetry():
    assert ae.estimate_from_phase(0, 64) == 0.0
    assert abs(ae.estimate_from_phase(2, 8) - 0.5) < 1e-15
    assert abs(ae.estimate_from_phase(6, 8) - 0.5) < 1e-15


# --- the reflection iterate -----------------------------------------------------------

def test_iterate_eigenphases():
    """On the invariant two-plane the iterate rotates by exactly 2 theta."""
    for p in (0.1, 0.3, 0.7):
        unitary, layout, proj = rotation_system(p)
        iterate = ae.grover_iterate(unitary, layout, proj)
        dense = sv.dense_matrix_of(iterate, layout)
        state = sv.new_basis_state(layout)
        unitary.apply_to(state)
        psi = state.amplitudes
        good = np.zeros_like(psi)
        good[layout.basis_index(proj)] = psi[layout.basis_index(proj)]
        bad = psi - good
        basis = np.stack([good / np.linalg.norm(good),
                          bad / np.linalg.norm(bad)], axis=1)
        block = basis.conj().T @ dense @ basis
        phases = np.sort(np.angle(np.linalg.eigvals(block)))
        theta = math.asin(math.sqrt(p))
        assert np.abs(phases - [-2 * theta, 2 * theta]).max() < 1e-10


def test_iterate_fixes_state_at_zero():
    unitary, layout, proj = rotation_system(0.0)
    state = sv.new_basis_state(layout)
    unitary.apply_to(state)
    before = state.amplitudes.copy()
    ae.grover_iterate(unitary, layout, proj).apply_to(state)
    assert np.abs(state.amplitudes - before).max() < 1e-12


def test_iterate_is_unitary():
    unitary, layout, proj = rotation_system(0.25)
    dense = sv.dense_matrix_of(ae.grover_iterate(unitary, layout, proj), layout)
    assert np.abs(dense.conj().T @ dense - np.eye(2)).max() < 1e-12


@pytest.mark.parametrize("proj", [{"D": 0, "A": 0, "B": 0}, {"D": 1, "B": 2, "A": 0}])
def test_iterate_sign_tables_on_closeness_layout(proj):
    """The iterate's two sign tables are exactly I - 2 Pi and 2|0><0| - I on
    a closeness layout, where C is free and D comes last, for a projector
    given out of layout order."""
    op, oq = (orc.make_purified_oracle(uniform(3), label=label) for label in "pq")
    layout, unitary, _ = orc.closeness_instance(op, oq)
    s_pi, _, neg_s0, _ = ae.grover_iterate(unitary, layout, proj).steps
    values = [register_values(layout, i) for i in range(layout.total_dim)]
    in_pi = np.array([all(v[r] == x for r, x in proj.items()) for v in values])
    assert np.array_equal(sv.dense_matrix_of(s_pi, layout), np.diag(1.0 - 2.0 * in_pi))
    neg_s0_matrix = -np.eye(layout.total_dim)
    neg_s0_matrix[0, 0] = 1.0
    assert np.array_equal(sv.dense_matrix_of(neg_s0, layout), neg_s0_matrix)


# --- the closed form vs simulated phase estimation ------------------------------------

def simulated_phase_marginal(unitary, layout, proj, t):
    joint, _ = ae.qpe_joint_state(unitary, layout, proj, t)
    return sv.register_marginal(joint, "phase")


@pytest.mark.parametrize("p", [0.0, 0.05, 0.3, 0.5, 0.9, 1.0])
@pytest.mark.parametrize("m", [8, 64])
def test_phase_distribution_matches_analytic(p, m):
    unitary, layout, proj = rotation_system(p)
    pmf = ae.phase_pmf(p, m)
    assert np.abs(simulated_phase_marginal(unitary, layout, proj, m) - pmf).max() < 1e-12
    dist = ae.phase_distribution(unitary, layout, proj, m)
    assert np.abs(dist.probs - pmf).max() < 1e-12


def test_sampled_phase_distribution_total_variation():
    unitary, layout, proj = rotation_system(0.3)
    dist = ae.phase_distribution(unitary, layout, proj, 64)
    rng = np.random.default_rng(2024)
    draws = dist.phases(rng.random(30000))
    emp = np.bincount(draws, minlength=dist.points) / draws.size
    tv = 0.5 * np.abs(emp - simulated_phase_marginal(unitary, layout, proj, 64)).sum()
    assert tv <= 0.02


def test_joint_state_cross_check():
    """The closed form equals measuring a materialized phase register."""
    for p in (0.0, 0.3, 0.5):
        unitary, layout, proj = rotation_system(p)
        dist = ae.phase_distribution(unitary, layout, proj, 32)
        joint, m = ae.qpe_joint_state(unitary, layout, proj, 32)
        marginal = sv.register_marginal(joint, "phase")
        assert m == dist.points
        assert np.abs(marginal - dist.probs).max() < 1e-12


def _closeness(garbage, pair):
    p, q = (uniform(4), uniform(4)) if pair == "identical" else ref.gen_l2_pair(4, 0.5)
    op = orc.make_purified_oracle(p, garbage, seed=1, label="p")
    oq = orc.make_purified_oracle(q, garbage, seed=2, label="q")
    return orc.closeness_instance(op, oq)


def _kwise(name):
    if name == "uniform":
        dist = uniform(8, BITSTRING)
    else:
        dist = ref.gen_fourier_spike(3, ref.mask_from_coords(3, [1, 2]), 0.6)
    return orc.kwise_instance(orc.make_purified_oracle(dist, label="p"), 2)


@pytest.mark.parametrize("build", [
    pytest.param(lambda: _closeness("basis", "identical"), id="closeness-basis-identical"),
    pytest.param(lambda: _closeness("basis", "l2-pair"), id="closeness-basis-l2-pair"),
    pytest.param(lambda: _closeness("haar", "identical"), id="closeness-haar-identical"),
    pytest.param(lambda: _closeness("haar", "l2-pair"), id="closeness-haar-l2-pair"),
    pytest.param(lambda: _kwise("spike"), id="kwise-spike-n3"),
    pytest.param(lambda: _kwise("uniform"), id="kwise-uniform-n3"),
])
def test_closed_form_matches_simulation_on_instances(build):
    """Closed-form probabilities and ledger equal the simulated iterate's."""
    layout, unitary, proj = build()
    dist = ae.phase_distribution(unitary, layout, proj, 20)
    assert np.abs(dist.probs - simulated_phase_marginal(unitary, layout, proj, 20)).max() < 1e-12
    simulated = sv.QueryLedger()  # the applications of _power_table's rows
    state = sv.new_basis_state(layout)
    unitary.apply_to(state, ledger=simulated)
    iterate = ae.grover_iterate(unitary, layout, proj)
    for _ in range(dist.points - 1):
        iterate.apply_to(state, ledger=simulated)
    assert dist.ledger_cost.snapshot() == simulated.snapshot()


def test_joint_state_measurement_certainty_at_zero():
    """At p = 0 the materialized phase register holds all its mass on y = 0."""
    unitary, layout, proj = rotation_system(0.0)
    joint, _ = ae.qpe_joint_state(unitary, layout, proj, 16)
    marginal = sv.register_marginal(joint, "phase")
    assert abs(marginal[0] - 1.0) < 1e-12


# --- estimation behavior ----------------------------------------------------------------

def test_exact_phase_case_deterministic():
    unitary, layout, proj = rotation_system(0.5)
    dist = ae.phase_distribution(unitary, layout, proj, 8)
    rng = np.random.default_rng(9)
    for y in dist.phases(rng.random(20)).tolist():
        assert y in (2, 6)
        assert abs(ae.estimate_from_phase(y, dist.points) - 0.5) < 1e-15


def test_zero_floor_margins():
    """The near-side floor sits over 1000 times above the residue the
    near-side tests pin, and under 1e-3 times (10 pi / M)^2, a lower bound on
    every far-side projected mass, at the largest M whose phase register the
    pre-flight admits with 1 TiB free."""
    largest = 2 ** ((2 ** 40 // ae._PEAK_BYTES_PER_POINT).bit_length() - 1)
    assert largest == 2 ** 33
    assert ae._ZERO_FLOOR >= 1000 * NEAR_SIDE_RESIDUE
    assert ae._ZERO_FLOOR <= 1e-3 * (10 * math.pi / largest) ** 2


def test_zero_floor_is_exact_zero():
    """A p at or below the floor gives the point mass at y = 0; one above it
    keeps the closed form's tails."""
    for p, below in ((ae._ZERO_FLOOR / 2, True), (4 * ae._ZERO_FLOOR, False)):
        unitary, layout, proj = rotation_system(p)
        dist = ae.phase_distribution(unitary, layout, proj, 64)
        assert np.array_equal(dist.probs, ae.phase_pmf(0.0, 64)) == below


def test_certainty_at_zero_rotation():
    unitary, layout, proj = rotation_system(0.0)
    dist = ae.phase_distribution(unitary, layout, proj, 64)
    rng = np.random.default_rng(10)
    assert all(e == 0.0 for e in estimates(dist, rng.random(1000)))


def test_certainty_at_zero_closeness_instance():
    u = uniform(4)
    op = orc.make_purified_oracle(u, label="p")
    oq = orc.make_purified_oracle(u, label="q")
    layout, unitary, proj = orc.closeness_instance(op, oq)
    dist = ae.phase_distribution(unitary, layout, proj, 32)
    rng = np.random.default_rng(11)
    assert estimates(dist, rng.random(5)) == [0.0] * 5


@pytest.mark.parametrize("m", [64, 128])
@pytest.mark.parametrize("p", [0.05, 0.1, 0.25, 0.5, 0.9])
def test_error_bound_coverage(p, m):
    """Fraction of runs inside the stated bound beats 0.75 (guarantee ~0.81)."""
    unitary, layout, proj = rotation_system(p)
    dist = ae.phase_distribution(unitary, layout, proj, m)
    rng = np.random.default_rng(int(p * 1000) + m)
    hits = sum(abs(e - p) <= bound(p, m) for e in estimates(dist, rng.random(500)))
    assert hits / 500 >= 0.75


def test_error_bound_coverage_p03_t128():
    unitary, layout, proj = rotation_system(0.3)
    dist = ae.phase_distribution(unitary, layout, proj, 128)
    rng = np.random.default_rng(303)
    hits = sum(abs(e - 0.3) <= bound(0.3, dist.points)
               for e in estimates(dist, rng.random(500)))
    assert hits / 500 >= 8 / math.pi ** 2 - 0.05


def test_query_accounting():
    unitary, layout, proj = rotation_system(0.3)
    for t in (5, 64, 100):
        dist = ae.phase_distribution(unitary, layout, proj, t)
        m, counts = dist.points, dist.ledger_cost.get("U")
        assert counts["forward"] == m  # one preparation plus m-1 iterate steps
        assert counts["inverse"] == m - 1


def projected_mass(unitary, layout, proj):
    state = sv.new_basis_state(layout)
    unitary.apply_to(state)
    return sv.projector_norm_sq(state, proj)


def test_exact_amplitude():
    u = uniform(8)
    op = orc.make_purified_oracle(u, label="p")
    oq = orc.make_purified_oracle(u, label="q")
    layout, unitary, proj = orc.closeness_instance(op, oq)
    assert projected_mass(unitary, layout, proj) == 0.0

    from qdtest.distributions import point_mass
    op = orc.make_purified_oracle(point_mass(2, 0), label="p")
    oq = orc.make_purified_oracle(point_mass(2, 1), label="q")
    layout, unitary, proj = orc.closeness_instance(op, oq)
    assert abs(projected_mass(unitary, layout, proj) - 0.5) < 1e-10

    from qdtest.distributions import BITSTRING
    oracle = orc.make_purified_oracle(uniform(16, BITSTRING), label="p")
    layout, unitary, proj = orc.kwise_instance(oracle, 2)
    assert projected_mass(unitary, layout, proj) < 1e-20


# --- zero test -------------------------------------------------------------------------

def test_zero_tester_budget():
    assert zero_budget(0.01) == math.ceil(10 * math.pi / 0.1)
    with pytest.raises(ValueError):
        zero_budget(0.0)
    with pytest.raises(ValueError):
        zero_budget(1.0)


def test_zero_tester_yes_at_zero():
    unitary, layout, proj = rotation_system(0.0)
    dist = ae.phase_distribution(unitary, layout, proj, zero_budget(0.01))
    rng = np.random.default_rng(21)
    assert all(e < 0.01 / 2 for e in estimates(dist, rng.random(25)))


@pytest.mark.parametrize("mult", [2, 5])
def test_zero_tester_no_frequency(mult):
    eps = 0.01
    unitary, layout, proj = rotation_system(mult * eps)
    t = zero_budget(eps)
    dist = ae.phase_distribution(unitary, layout, proj, t)
    rng = np.random.default_rng(mult)
    noes = sum(e >= eps / 2 for e in estimates(dist, rng.random(300)))
    assert noes / 300 >= 0.75


def test_distribution_ledger_cost_is_reusable():
    unitary, layout, proj = rotation_system(0.2)
    dist = ae.phase_distribution(unitary, layout, proj, 16)
    again = ae.phase_distribution(unitary, layout, proj, 16)
    assert dist.ledger_cost.snapshot() == again.ledger_cost.snapshot()
    trial = sv.QueryLedger()
    trial.merge(dist.ledger_cost)
    trial.record("U", inverse=False, controlled=False)
    assert dist.ledger_cost.get("U")["forward"] + 1 == trial.get("U")["forward"]
