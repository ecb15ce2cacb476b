"""Property tests of the state-vector engine: every leaf operator, the copy
by addition mod d and the sign table included, against an independent
flat-index reference, on drawn layouts, target orders, controls and
directions; U^dagger U = I; skipping the registers still at 0 against
sweeping the whole state; the blocked kernels at block boundaries, and a
dense product's rows independent of the row count; the linearity of the
phase-distribution ledger in M; the dtype of a run's state; and the memory
of a run and of one copy."""
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
from qdtest import testers

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


@st.composite
def op_sequences(draw):
    """(layout, op, targets, real): a sequence of 1-6 leaf ops on 2-4
    registers, some controlled and some inverted, every gate real when
    ``real``; ``targets`` are the registers the leaves act on."""
    real = draw(st.booleans())
    dims = draw(st.lists(DIMS, min_size=2, max_size=4))
    names = [f"R{i}" for i in range(len(dims))]
    layout = sv.RegisterLayout(zip(names, dims))
    pairs = [(a, b) for a, da in zip(names, dims) for b, db in zip(names, dims)
             if a != b and da == db]
    steps, targets = [], set()
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(LEAF_KINDS if pairs else ("matrix", "reflection", "sign")))
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        regs = tuple(draw(st.permutations(names))[:draw(st.integers(1, 2))])
        size = math.prod(layout.dim_of(r) for r in regs)
        if kind == "copy":
            op = sv.CopyOp(*draw(st.sampled_from(pairs)))
        elif kind == "matrix":
            op = sv.MatrixOp(regs, np.linalg.qr(rng.standard_normal((size, size)))[0] if real
                             else orc.haar_unitary(size, int(rng.integers(2 ** 63))))
        elif kind == "reflection":
            w = rng.standard_normal(size)
            op = sv.ReflectionOp(regs, w, float(w @ w) / 2.0)
        else:
            op = sv.SignOp(regs, 1.0 - 2.0 * rng.integers(0, 2, size=size))
        targets.update(op.regs)
        free = [name for name in names if name not in op.regs]
        if free and draw(st.booleans()):
            control = draw(st.sampled_from(free))
            op = sv.ControlledOp(op, control, draw(st.integers(0, layout.dim_of(control) - 1)))
        steps.append(sv.InverseOp(op) if draw(st.booleans()) else op)
    return layout, sv.SequenceOp(steps), targets, real


@settings(max_examples=300, deadline=None)
@given(op_sequences())
def test_zero_set_skips_only_zeros(case):
    """Acting only where the registers that still hold 0 are 0 gives the
    same amplitudes as sweeping the whole state, complex or real, and the
    set keeps just the registers no leaf has targeted."""
    layout, op, targets, real = case
    assert op.real or not real
    dtype = np.float64 if real else np.complex128
    kept, swept = sv.new_basis_state(layout, dtype), sv.new_basis_state(layout, dtype)
    swept.zero.clear()
    op.apply_to(kept)
    op.apply_to(swept)
    assert kept.amplitudes.dtype == dtype
    assert np.array_equal(kept.amplitudes, swept.amplitudes)
    assert kept.zero == set(layout.names) - targets


_H = np.array([[1, 1], [1, -1]]) / math.sqrt(2)


def _block_ops(size, real=False):
    """(size, op, local, rows) for a two-column matrix, a dense matrix on
    ``size`` columns (orthogonal when ``real``) and a reflection, each on
    register T: ``local`` is its matrix, ``rows`` the rows of its blocks."""
    rng = np.random.default_rng(size)
    dense = (np.linalg.qr(rng.standard_normal((size, size)))[0] if real
             else orc.haar_unitary(size, size))
    w = rng.standard_normal(size)
    denom = float(w @ w) / 2.0
    return ((2, sv.MatrixOp("T", _H), _H, sv._BLOCK_AMPS),
            (size, sv.MatrixOp("T", dense), dense, sv.product_rows(size)),
            (size, sv.ReflectionOp("T", w, denom), np.eye(size) - np.outer(w, w) / denom,
             sv._BLOCK_AMPS // size))


@pytest.mark.parametrize("controlled", [False, True], ids=["plain", "controlled"])
@pytest.mark.parametrize("extra", [-1, 0, 1, "3R+1"])
@pytest.mark.parametrize("kind", [0, 1, 2], ids=["pair", "dense", "reflection"])
def test_blocks_match_reference(kind, extra, controlled):
    """Each blocked kernel matches the flat-index reference on control blocks
    of R - 1, R, R + 1 and 3R + 1 rows, R the rows of its blocks; the control
    register between the rows and the target makes the view strided."""
    size, op, local, rows = _block_ops(5)[kind]
    count = 3 * rows + 1 if extra == "3R+1" else rows + extra
    registers = [("L", count), ("T", size)]
    controls = ()
    if controlled:
        registers.insert(1, ("K", 2))
        controls = (("K", 1),)
        op = sv.ControlledOp(op, "K", 1)
    layout = sv.RegisterLayout(registers)
    amps = haar_state(layout.total_dim, np.random.default_rng(count))
    state = sv.StateVector(layout, amps.copy())
    op.apply_to(state)
    expected = reference_apply(layout, amps, ("T",), local, controls)
    assert np.abs(state.amplitudes - expected).max() < 1e-12


@pytest.mark.parametrize("shape", ["prefix", "split"])
@pytest.mark.parametrize("kind", [0, 1, 2], ids=["pair", "dense", "reflection"])
def test_blocks_over_several_leading_axes(kind, shape):
    """Blocks that slice an earlier leading axis match the reference: with
    leading axes (2, 3, R), one block per value of the first two; with
    (3, R/2 + 1), one value of the first per block."""
    size, op, local, rows = _block_ops(5)[kind]
    lead = ([("P", 2), ("Q", 3), ("L", rows)] if shape == "prefix"
            else [("P", 3), ("L", rows // 2 + 1)])
    layout = sv.RegisterLayout([("T", size)] + lead)
    amps = haar_state(layout.total_dim, np.random.default_rng(kind))
    state = sv.StateVector(layout, amps.copy())
    op.apply_to(state)
    assert np.abs(state.amplitudes - reference_apply(layout, amps, ("T",), local)).max() < 1e-12


@pytest.mark.parametrize("size,real", [(3, False), (16, False), (100, True), (256, False)])
def test_dense_rows_do_not_depend_on_the_row_count(size, real):
    """The first k rows of a dense product are, bit for bit, the product of
    only those k rows: every BLAS call multiplies the same number of rows.
    Unpadded, one row alone would go through a matrix-vector product, which
    rounds differently."""
    _, op, _, rows = _block_ops(size, real)[1]
    total = 3 * rows + 1
    start = np.random.default_rng(size).standard_normal((total, size))
    if not real:
        start = start + 1j * np.random.default_rng(size + 1).standard_normal((total, size))
    layout = sv.RegisterLayout([("L", total), ("T", size)])
    full = sv.StateVector(layout, start.ravel().copy(), start.dtype)
    op.apply_to(full)
    for k in (1, 2, rows - 1, rows, rows + 1, 2 * rows + 3):
        part = sv.StateVector(sv.RegisterLayout([("L", k), ("T", size)]),
                              start[:k].copy().ravel(), start.dtype)
        op.apply_to(part)
        assert np.array_equal(part.amplitudes, full.amplitudes[:k * size]), k


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


def _oracle_pairs(n):
    p, q = ref.gen_l2_pair(n, 0.3)
    return {garbage: (orc.make_purified_oracle(p, garbage, seed=1, label="p"),
                      orc.make_purified_oracle(q, garbage, seed=2, label="q"))
            for garbage in orc.GARBAGE_STYLES}


def _kwise_oracles(n):
    dist = random_bitstring_distribution(n, np.random.default_rng(4))
    return {garbage: orc.make_purified_oracle(dist, garbage, seed=3, label="p")
            for garbage in orc.GARBAGE_STYLES}


def _memory_instances():
    pairs, oracles = _oracle_pairs(32), _kwise_oracles(5)
    return {"closeness-haar-n32": orc.closeness_instance(*pairs["haar"]),
            "closeness-basis-n32": orc.closeness_instance(*pairs["basis"]),
            "kwise-haar-n5": orc.kwise_instance(oracles["haar"], 2),
            "kwise-n5": orc.kwise_instance(oracles["basis"], 2)}


@pytest.mark.parametrize("name,bound", [
    ("closeness-haar-n32", 21), ("kwise-haar-n5", 27),
    ("closeness-basis-n32", 10), ("kwise-n5", 13)],
    ids=["closeness-haar-n32", "kwise-haar-n5", "closeness-basis-n32", "kwise-n5"])
def test_phase_distribution_memory(name, bound):
    """One run peaks at the state plus a few fixed-size blocks and keeps no
    per-layout state.  The bounds, in bytes per amplitude, are the measured
    peaks (18.1, 22.8, 9.0 and 11.6) plus at most 20%: the blocks weigh more
    against the smaller k-wise states."""
    layout, unitary, proj = _memory_instances()[name]
    tracemalloc.start()
    try:
        ae.phase_distribution(unitary, layout, proj, 64)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound * layout.total_dim
    assert retained <= layout.total_dim


def _plans():
    pairs, oracles = _oracle_pairs(8), _kwise_oracles(3)
    return {garbage: (testers.closeness_plan(*pairs[garbage], 0.5, 0.5),
                      testers.kwise_plan(oracles[garbage], 2, 0.5),
                      testers.estimator_plan(*pairs[garbage], 0.5))
            for garbage in orc.GARBAGE_STYLES}


@pytest.mark.parametrize("garbage,dtype", [("basis", np.float64), ("haar", np.complex128)])
def test_phase_distribution_dtype(monkeypatch, garbage, dtype):
    """Basis-garbage closeness, k-wise and estimator plans run on a float64
    state, every gate of their U being real; Haar-garbage plans on a
    complex128 state."""
    made = []

    def recording(layout, dtype=np.complex128):
        made.append(dtype)
        return sv.new_basis_state(layout, dtype)

    monkeypatch.setattr(ae, "new_basis_state", recording)
    for plan in _plans()[garbage]:
        testers.sample_plan(plan, [0.5])
    assert made == [dtype] * 3


def test_copy_memory():
    """One copy of B(257) into C(257) keeps its temporaries to a few blocks
    of 257 amplitudes: at most 4 x state bytes / 257."""
    layout = sv.RegisterLayout([("B", 257), ("C", 257)])
    state = sv.StateVector(layout, haar_state(layout.total_dim, np.random.default_rng(7)))
    op = sv.CopyOp("B", "C")
    # The interpreter's first few calls of a function make one-time allocations
    # (run alone: a 24 KB peak after up to five calls, 12 KB after eight), so
    # the copy is applied ten times untraced first.
    for _ in range(10):
        op.apply_to(state)
    tracemalloc.start()
    try:
        op.apply_to(state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * state.amplitudes.nbytes // 257
