"""Property tests of the state-vector engine: every leaf operator, the copy
by addition mod d and the sign table included, against an independent
flat-index reference, on drawn layouts, target orders, controls and
directions; U^dagger U = I; the linearity of the phase-distribution ledger
in M; and the memory of a run and of one copy."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdtest import amplitude as ae
from qdtest import oracles as orc
from qdtest import reference as ref
from qdtest import statevec as sv

from helpers import haar_state, random_bitstring_distribution, reference_apply

LEAF_KINDS = ("matrix", "reflection", "copy", "sign")
# register dimensions 1-6, weighted towards qubits (the exact two-slice path)
# and dimension 1 (targets that add no axis length)
DIMS = st.one_of(st.just(1), st.just(2), st.integers(1, 6))
# ops whose reference action is a signed permutation: compared bit for bit
EXACT_KINDS = ("copy", "sign")


@st.composite
def controls_and_layout(draw, registers):
    """0-2 control qubits with drawn values, and a layout of ``registers`` plus
    the controls in a drawn order."""
    controls = tuple((f"K{i}", draw(st.integers(0, 1)))
                     for i in range(draw(st.integers(0, 2))))
    order = draw(st.permutations(list(registers) + [(name, 2) for name, _ in controls]))
    return controls, sv.RegisterLayout(order)


@st.composite
def leaf_cases(draw):
    """(layout, op, regs, local, controls, inverse, seed, kind) for one leaf op;
    ``local`` is the op's forward matrix over the joint value of ``regs``."""
    kind = draw(st.sampled_from(LEAF_KINDS))
    if kind == "copy":
        return draw(copy_cases())
    if kind == "sign":
        return draw(sign_cases())
    dims = draw(st.lists(DIMS, min_size=1, max_size=4))
    names = [f"R{i}" for i in range(len(dims))]
    controls, layout = draw(controls_and_layout(zip(names, dims)))
    regs = tuple(draw(st.permutations(names))[:draw(st.integers(1, len(names)))])
    size = math.prod(layout.dim_of(r) for r in regs)
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    if kind == "matrix":
        local = orc.haar_unitary(size, int(rng.integers(2 ** 63)))
        op = sv.MatrixOp(regs, local)
    else:
        w = rng.standard_normal(size)
        denom = float(w @ w) / 2.0
        local = np.eye(size) - np.outer(w, w) / denom
        op = sv.ReflectionOp(regs, w, denom)
    return layout, op, regs, local, controls, draw(st.booleans()), seed, kind


@st.composite
def copy_cases(draw):
    """The same tuple for the copy |b>|c> -> |b>|c + b mod d> from one source
    register into one destination register of the same dimension d in 1..9."""
    d = draw(st.integers(1, 9))
    others = [(f"R{i}", draw(DIMS)) for i in range(draw(st.integers(0, 2)))]
    controls, layout = draw(controls_and_layout([("S", d), ("T", d)] + others))
    b, c = np.divmod(np.arange(d * d), d)
    local = np.zeros((d * d, d * d))
    local[b * d + (c + b) % d, b * d + c] = 1.0
    return (layout, sv.CopyOp("S", "T"), ("S", "T"), local, controls, draw(st.booleans()),
            draw(st.integers(0, 2 ** 32 - 1)), "copy")


@st.composite
def sign_cases(draw):
    """The same tuple for a random +/-1 table over 1-2 registers."""
    dims = draw(st.lists(DIMS, min_size=1, max_size=3))
    names = [f"R{i}" for i in range(len(dims))]
    controls, layout = draw(controls_and_layout(zip(names, dims)))
    regs = tuple(draw(st.permutations(names))[:draw(st.integers(1, min(2, len(names))))])
    seed = draw(st.integers(0, 2 ** 32 - 1))
    shape = [layout.dim_of(r) for r in regs]
    signs = 1.0 - 2.0 * np.random.default_rng(seed).integers(0, 2, size=shape)
    return (layout, sv.SignOp(regs, signs), regs, np.diag(signs.ravel()), controls,
            draw(st.booleans()), seed, "sign")


def check_against_reference(case):
    layout, op, regs, local, controls, inverse, seed, kind = case
    wrapped = op
    for name, value in controls:
        wrapped = sv.ControlledOp(wrapped, name, value)
    amps = haar_state(layout.total_dim, np.random.default_rng(seed))
    state = sv.StateVector(layout, amps.copy())
    wrapped.apply_to(state, inverse=inverse)
    expected = reference_apply(layout, amps, regs, local.conj().T if inverse else local,
                               controls)
    if kind in EXACT_KINDS:
        assert np.array_equal(state.amplitudes, expected)
    else:
        assert np.abs(state.amplitudes - expected).max() < 1e-12
    wrapped.apply_to(state, inverse=not inverse)  # U^dagger U = I
    if kind in EXACT_KINDS:
        assert np.array_equal(state.amplitudes, amps)
    else:
        assert np.abs(state.amplitudes - amps).max() < 1e-12


@settings(max_examples=300, deadline=None)
@given(leaf_cases())
def test_leaf_ops_match_reference(case):
    check_against_reference(case)


@settings(max_examples=100, deadline=None)
@given(copy_cases())
def test_copy_matches_reference(case):
    """|b>|c> -> |b>|c + b mod d>, on more draws than the mixed leaf test gives it."""
    check_against_reference(case)


def _ledger_instances():
    p, q = ref.gen_l2_pair(4, 0.5)
    op = orc.make_purified_oracle(p, "haar", seed=1, label="p")
    oq = orc.make_purified_oracle(q, "haar", seed=2, label="q")
    rng = np.random.default_rng(3)
    oracle = orc.make_purified_oracle(random_bitstring_distribution(3, rng), label="p")
    return {"closeness": orc.closeness_instance(op, oq),
            "kwise": orc.kwise_instance(oracle, 2)}


LEDGER_INSTANCES = _ledger_instances()


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(LEDGER_INSTANCES)), st.integers(1, 5000))
def test_phase_distribution_ledger_is_linear(name, t):
    """One run costs M forward and M - 1 inverse applications of U."""
    layout, unitary, proj = LEDGER_INSTANCES[name]
    forward, backward = sv.QueryLedger(), sv.QueryLedger()
    unitary.apply_to(sv.new_basis_state(layout), ledger=forward)
    unitary.apply_to(sv.new_basis_state(layout), inverse=True, ledger=backward)
    m = ae.phase_points(t)
    cost = ae.phase_distribution(unitary, layout, proj, t).ledger_cost
    labels = set(forward.counts) | set(backward.counts)
    assert set(cost.counts) == labels and labels
    for label in labels:
        fwd, back = forward.get(label), backward.get(label)
        assert cost.get(label) == {kind: m * fwd[kind] + (m - 1) * back[kind]
                                   for kind in sv.KINDS}


def _memory_instances():
    p, q = ref.gen_l2_pair(32, 0.3)
    op = orc.make_purified_oracle(p, "haar", seed=1, label="p")
    oq = orc.make_purified_oracle(q, "haar", seed=2, label="q")
    oracle = orc.make_purified_oracle(
        random_bitstring_distribution(5, np.random.default_rng(4)), label="p")
    return {"closeness-haar-n32": orc.closeness_instance(op, oq),
            "kwise-n5": orc.kwise_instance(oracle, 2)}


@pytest.mark.parametrize("name", ["closeness-haar-n32", "kwise-n5"])
def test_phase_distribution_memory(name):
    """One run peaks at the 16-byte state plus a few state-sized temporaries
    (no more than 64 bytes per amplitude) and keeps no per-layout state."""
    layout, unitary, proj = _memory_instances()[name]
    tracemalloc.start()
    try:
        ae.phase_distribution(unitary, layout, proj, 64)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 64 * layout.total_dim
    assert retained <= layout.total_dim


def test_copy_memory():
    """One copy of B(257) into C(257) keeps its temporaries to a few blocks
    of 257 amplitudes: at most 4 x state bytes / 257."""
    layout = sv.RegisterLayout([("B", 257), ("C", 257)])
    state = sv.StateVector(layout, haar_state(layout.total_dim, np.random.default_rng(7)))
    op = sv.CopyOp("B", "C")
    tracemalloc.start()
    try:
        op.apply_to(state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * state.amplitudes.nbytes // 257
