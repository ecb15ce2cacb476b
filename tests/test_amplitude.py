"""Estimation tests: the reflection iterate's eigenstructure, the closed-form
phase distribution against simulated phase estimation (the iterate powers and
a materialized phase register) on rotations and on real tester instances,
certainty at zero, the error bound's coverage, the zero tester, and query
accounting."""
import math

import numpy as np
import pytest

from qdtest import amplitude as ae
from qdtest import oracles as orc
from qdtest import reference as ref
from qdtest import statevec as sv
from qdtest.distributions import BITSTRING, uniform

from helpers import rotation_system


def bound(p, m):
    return 2 * math.pi * math.sqrt(p * (1 - p)) / m + math.pi ** 2 / m ** 2


# --- configuration -----------------------------------------------------------------

def test_config_points():
    assert ae.AEConfig(1).points == 1
    assert ae.AEConfig(2).points == 2
    assert ae.AEConfig(100).points == 128
    assert ae.AEConfig(128).points == 128
    with pytest.raises(ValueError):
        ae.AEConfig(0)


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
        sv.apply(unitary, state)
        psi = state.amplitudes
        mask = proj.mask(layout)
        good = np.where(mask, psi, 0)
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
    sv.apply(unitary, state)
    before = state.amplitudes.copy()
    sv.apply(ae.grover_iterate(unitary, layout, proj), state)
    assert np.abs(state.amplitudes - before).max() < 1e-12


def test_iterate_is_unitary():
    unitary, layout, proj = rotation_system(0.25)
    dense = sv.dense_matrix_of(ae.grover_iterate(unitary, layout, proj), layout)
    assert np.abs(dense.conj().T @ dense - np.eye(2)).max() < 1e-12


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
    draws = np.array([dist.sample(rng).phase_outcome for _ in range(30000)])
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
    simulated = sv.QueryLedger()
    ae._power_table(unitary, layout, proj, dist.points, simulated)
    assert dist.ledger_cost.snapshot() == simulated.snapshot()


def test_joint_state_measurement_certainty_at_zero():
    unitary, layout, proj = rotation_system(0.0)
    joint, _ = ae.qpe_joint_state(unitary, layout, proj, 16)
    rng = np.random.default_rng(1)
    for _ in range(50):
        assert sv.measure(joint.copy(), "phase", rng) == 0


# --- estimation behavior ----------------------------------------------------------------

def test_exact_phase_case_deterministic():
    unitary, layout, proj = rotation_system(0.5)
    rng = np.random.default_rng(9)
    for _ in range(20):
        result = ae.amplitude_estimation(unitary, layout, proj, 8, rng)
        assert result.phase_outcome in (2, 6)
        assert abs(result.estimate - 0.5) < 1e-15


def test_certainty_at_zero_rotation():
    unitary, layout, proj = rotation_system(0.0)
    dist = ae.phase_distribution(unitary, layout, proj, 64)
    rng = np.random.default_rng(10)
    assert all(dist.sample(rng).estimate == 0.0 for _ in range(1000))


def test_certainty_at_zero_closeness_instance():
    u = uniform(4)
    op = orc.make_purified_oracle(u, label="p")
    oq = orc.make_purified_oracle(u, label="q")
    layout, unitary, proj = orc.closeness_instance(op, oq)
    rng = np.random.default_rng(11)
    for _ in range(5):
        result = ae.amplitude_estimation(unitary, layout, proj, 32, rng)
        assert result.estimate == 0.0


@pytest.mark.parametrize("m", [64, 128])
@pytest.mark.parametrize("p", [0.05, 0.1, 0.25, 0.5, 0.9])
def test_error_bound_coverage(p, m):
    """Fraction of runs inside the stated bound beats 0.75 (guarantee ~0.81)."""
    unitary, layout, proj = rotation_system(p)
    dist = ae.phase_distribution(unitary, layout, proj, m)
    rng = np.random.default_rng(int(p * 1000) + m)
    hits = sum(abs(dist.sample(rng).estimate - p) <= bound(p, m) for _ in range(500))
    assert hits / 500 >= 0.75


def test_error_bound_coverage_p03_t128():
    unitary, layout, proj = rotation_system(0.3)
    dist = ae.phase_distribution(unitary, layout, proj, 128)
    rng = np.random.default_rng(303)
    hits = sum(abs(dist.sample(rng).estimate - 0.3) <= bound(0.3, dist.points)
               for _ in range(500))
    assert hits / 500 >= 8 / math.pi ** 2 - 0.05


def test_query_accounting():
    unitary, layout, proj = rotation_system(0.3)
    for t in (5, 64, 100):
        ledger = sv.QueryLedger()
        result = ae.amplitude_estimation(unitary, layout, proj, t, np.random.default_rng(0),
                                         ledger=ledger)
        m = result.points
        counts = ledger.get("U")
        assert counts["forward"] == m  # one preparation plus m-1 iterate steps
        assert counts["inverse"] == m - 1


def test_exact_amplitude():
    u = uniform(8)
    op = orc.make_purified_oracle(u, label="p")
    oq = orc.make_purified_oracle(u, label="q")
    layout, unitary, proj = orc.closeness_instance(op, oq)
    assert ae.exact_amplitude(unitary, layout, proj) == 0.0

    from qdtest.distributions import point_mass
    op = orc.make_purified_oracle(point_mass(2, 0), label="p")
    oq = orc.make_purified_oracle(point_mass(2, 1), label="q")
    layout, unitary, proj = orc.closeness_instance(op, oq)
    assert abs(ae.exact_amplitude(unitary, layout, proj) - 0.5) < 1e-10

    from qdtest.distributions import BITSTRING
    oracle = orc.make_purified_oracle(uniform(16, BITSTRING), label="p")
    layout, unitary, proj = orc.kwise_instance(oracle, 2)
    assert ae.exact_amplitude(unitary, layout, proj) < 1e-20


# --- zero tester -----------------------------------------------------------------------

def test_zero_tester_budget():
    assert ae.zero_budget(0.01) == math.ceil(10 * math.pi / 0.1)
    with pytest.raises(ValueError):
        ae.zero_budget(0.0)
    with pytest.raises(ValueError):
        ae.zero_budget(1.0)


def test_zero_tester_yes_at_zero():
    unitary, layout, proj = rotation_system(0.0)
    rng = np.random.default_rng(21)
    for _ in range(25):
        assert ae.zero_tester(unitary, layout, proj, 0.01, rng) == "YES"


@pytest.mark.parametrize("mult", [2, 5])
def test_zero_tester_no_frequency(mult):
    eps = 0.01
    unitary, layout, proj = rotation_system(mult * eps)
    t = ae.zero_budget(eps)
    dist = ae.phase_distribution(unitary, layout, proj, t)
    rng = np.random.default_rng(mult)
    noes = sum(dist.sample(rng).estimate >= eps / 2 for _ in range(300))
    assert noes / 300 >= 0.75


def test_distribution_ledger_cost_is_reusable():
    unitary, layout, proj = rotation_system(0.2)
    outer = sv.QueryLedger()
    dist = ae.phase_distribution(unitary, layout, proj, 16, ledger=outer)
    assert dist.ledger_cost.snapshot() == outer.snapshot()
    trial = dist.ledger_cost.copy()
    trial.record("U", inverse=False, controlled=False)
    assert dist.ledger_cost.get("U")["forward"] + 1 == trial.get("U")["forward"]
