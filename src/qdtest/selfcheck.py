"""Built-in invariant suites behind the ``selfcheck`` CLI subcommand.

Each suite re-derives a handful of exact identities at small sizes with fixed
seeds and raises AssertionError on the first violation; the runner prints one
timed pass/fail line per suite and reports overall success.
"""
from __future__ import annotations

import math
import time

import numpy as np

from . import amplitude as ae
from . import oracles as orc
from . import reference as ref
from . import statevec as sv
from .distributions import BITSTRING, Distribution, random_distribution
from .testers import closeness_plan, kwise_plan

_TOL = 1e-10


def _random_layout(rng) -> sv.RegisterLayout:
    count = int(rng.integers(1, 4))
    return sv.RegisterLayout([(f"R{i}", int(rng.integers(2, 5))) for i in range(count)])


def _random_state(layout, rng) -> sv.StateVector:
    amps = rng.standard_normal(layout.total_dim) + 1j * rng.standard_normal(layout.total_dim)
    return sv.StateVector(layout, amps / np.linalg.norm(amps))


def _random_op(layout, rng) -> sv.QuantumOp:
    names = list(layout.names)
    take = int(rng.integers(1, len(names) + 1))
    regs = tuple(rng.choice(names, size=take, replace=False))
    dim = int(np.prod([layout.dim_of(r) for r in regs]))
    return sv.MatrixOp(regs, orc.haar_unitary(dim, int(rng.integers(2 ** 63))))


def check_engine_norms() -> None:
    rng = np.random.default_rng(101)
    for _ in range(100):
        layout = _random_layout(rng)
        state = _random_state(layout, rng)
        op = _random_op(layout, rng)
        before = state.amplitudes.copy()
        op.apply_to(state)
        assert abs(state.norm() - 1.0) < _TOL, "norm drifted under a unitary"
        op.apply_to(state, inverse=True)
        assert np.abs(state.amplitudes - before).max() < _TOL, "inverse mismatch"


def check_dense_agreement() -> None:
    rng = np.random.default_rng(102)
    for _ in range(20):
        layout = _random_layout(rng)
        op = _random_op(layout, rng)
        dense = sv.dense_matrix_of(op, layout)
        state = _random_state(layout, rng)
        expected = dense @ state.amplitudes
        op.apply_to(state)
        assert np.abs(state.amplitudes - expected).max() < _TOL, "dense/fast disagreement"
        err = np.abs(dense.conj().T @ dense - np.eye(layout.total_dim)).max()
        assert err < _TOL, "operator is not unitary"


def check_oracle_definition() -> None:
    rng = np.random.default_rng(103)
    for n in (2, 5, 8):
        dist = random_distribution(n, rng)
        for style, seed in (("basis", None), ("haar", 7)):
            oracle = orc.make_purified_oracle(dist, style, seed=seed)
            state = sv.new_basis_state(orc.oracle_layout(n))
            oracle.op.apply_to(state)
            table = state.amplitudes.reshape(n, n)  # (A, B)
            for i in range(n):
                phi = table[:, i]
                scale = np.linalg.norm(phi)
                assert abs(scale - math.sqrt(dist.weights[i])) < _TOL
            gram = table.conj().T @ table
            assert np.abs(gram - np.diag(dist.weights)).max() < _TOL, "garbage not orthonormal"


def check_probability_readout() -> None:
    rng = np.random.default_rng(104)
    for n in (3, 8, 16):
        dist = random_distribution(n, rng)
        for style, seed in (("basis", None), ("haar", 11)):
            oracle = orc.make_purified_oracle(dist, style, seed=seed)
            state = sv.new_basis_state(orc.encoder_layout(n))
            orc.probability_encoder(oracle).apply_to(state)
            readout = state.amplitudes[:n]  # (A=0, B=0, C=k)
            assert np.abs(readout - dist.weights).max() < _TOL, "probability readout off"


def check_closeness_mass() -> None:
    rng = np.random.default_rng(105)
    pairs = [(random_distribution(8, rng), random_distribution(8, rng)),
             ref.gen_l2_pair(8, 0.3), ref.gen_l1_pair(8, 0.3)]
    for p, q in pairs:
        expected = ref.lp_distance(p, q, 2) ** 2 / 4.0
        for style, seeds in (("basis", (None, None)), ("haar", (17, 19))):
            op = orc.make_purified_oracle(p, style, seed=seeds[0], label="p")
            oq = orc.make_purified_oracle(q, style, seed=seeds[1], label="q")
            layout, unitary, proj = orc.closeness_instance(op, oq)
            state = sv.new_basis_state(layout)
            unitary.apply_to(state)
            mass = sv.projector_norm_sq(state, proj)
            assert abs(mass - expected) < _TOL, \
                f"{style} garbage: projected mass is not the squared distance / 4"


def check_subset_phases() -> None:
    rng = np.random.default_rng(106)
    for n, k in ((3, 2), (4, 3)):
        w = rng.random(2 ** n) + 0.05
        dist = Distribution(w / w.sum(), BITSTRING)
        oracle = orc.make_purified_oracle(dist, "haar", seed=13)
        layout, unitary, _ = orc.kwise_instance(oracle, k)
        state = sv.new_basis_state(layout)
        unitary.apply_to(state)
        amps = state.amplitudes[::layout.total_dim // layout.dim_of("S")]  # (S, A=0, B=0)
        scale = math.sqrt(ref.binom_sum(n, k))
        want = ref.fourier_spectrum(dist)[ref.subset_masks(n, k)] / scale
        want[0] = 0.0  # the empty set carries no amplitude
        assert np.abs(amps - want).max() < _TOL, "subset-phase amplitude off"


def check_estimation() -> None:
    rng = np.random.default_rng(107)
    layout = sv.RegisterLayout([("Q", 2)])
    proj = {"Q": 1}

    def system(p):
        th = math.asin(math.sqrt(p))
        mat = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        return sv.SequenceOp([sv.MatrixOp(("Q",), mat)], label="U")

    zero = ae.phase_distribution(system(0.0), layout, proj, 64)
    assert not zero.phases(rng.random(200)).any(), "estimate at zero amplitude not 0"

    half = ae.phase_distribution(system(0.5), layout, proj, 8)
    y = int(half.phases(rng.random()))
    assert abs(ae.estimate_from_phase(y, half.points) - 0.5) < 1e-12, "exact-phase case off"

    closed = ae.phase_distribution(system(0.3), layout, proj, 16)
    joint, _ = ae.qpe_joint_state(system(0.3), layout, proj, 16)
    simulated = sv.register_marginal(joint, "phase")
    assert np.abs(closed.probs - simulated).max() < 1e-12, \
        "closed-form phase distribution disagrees with simulated phase estimation"

    dist = ae.phase_distribution(system(0.3), layout, proj, 128)
    top = ae.estimate_from_phase(int(np.argmax(dist.probs)), dist.points)
    bound = 2 * math.pi * math.sqrt(0.21) / dist.points + math.pi ** 2 / dist.points ** 2
    assert abs(top - 0.3) <= bound, "most likely estimate outside the error bound"

    counts = ae.phase_distribution(system(0.3), layout, proj, 100).ledger_cost.get("U")
    assert counts["forward"] == 128 and counts["inverse"] == 127, "query accounting off"


def check_threshold_formulas() -> None:
    p, q = ref.gen_l2_pair(4, 0.3)
    op = orc.make_purified_oracle(p, label="p")
    oq = orc.make_purified_oracle(q, label="q")
    plan = closeness_plan(op, oq, 0.2, 0.5)
    assert plan.t == math.ceil(20 * math.pi / (0.5 * 0.2))
    assert abs(plan.threshold - (0.25 - 0.5 / 8) * 0.04) < 1e-15

    spike = ref.gen_fourier_spike(4, 0b1100, 0.6)
    oracle = orc.make_purified_oracle(spike, label="p")
    kplan = kwise_plan(oracle, 2, 0.3)
    m_count = ref.binom_sum(4, 2)
    eps_inner = 0.09 / (math.exp(4) * m_count)
    assert kplan.t == math.ceil(10 * math.pi / math.sqrt(eps_inner))
    assert abs(kplan.threshold - eps_inner / 2) < 1e-18


SUITES = (
    ("engine-norms", check_engine_norms),
    ("dense-agreement", check_dense_agreement),
    ("oracle-definition", check_oracle_definition),
    ("probability-readout", check_probability_readout),
    ("closeness-mass", check_closeness_mass),
    ("subset-phases", check_subset_phases),
    ("estimation", check_estimation),
    ("threshold-formulas", check_threshold_formulas),
)


def run_selfcheck() -> int:
    """Run every suite; returns 0 iff all pass."""
    failures = 0
    for name, suite in SUITES:
        start = time.perf_counter()
        try:
            suite()
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {name} ({time.perf_counter() - start:.2f}s): {exc}")
        else:
            print(f"ok   {name} ({time.perf_counter() - start:.2f}s)")
    print(f"selfcheck: {len(SUITES) - failures}/{len(SUITES)} suites passed")
    return 0 if failures == 0 else 1
