"""Engine tests: layouts, gates, operator algebra, projection, measurement,
the dense cross-check path and the memory pre-flight's cgroup reader."""
import math

import numpy as np
import pytest

from qdtest import statevec as sv
from qdtest.oracles import haar_unitary

from helpers import basis_state, haar_state, register_values

SQ2 = 1 / math.sqrt(2)


def random_layout(rng):
    count = int(rng.integers(1, 4))
    return sv.RegisterLayout([(f"R{i}", int(rng.integers(2, 6))) for i in range(count)])


def random_op(layout, rng):
    names = list(layout.names)
    take = int(rng.integers(1, len(names) + 1))
    regs = tuple(rng.choice(names, size=take, replace=False))
    dim = int(np.prod([layout.dim_of(r) for r in regs]))
    return sv.MatrixOp(regs, haar_unitary(dim, int(rng.integers(2 ** 63))))


# --- layout ---------------------------------------------------------------------

def test_layout_total_dim_and_strides():
    lay = sv.RegisterLayout([("A", 2), ("B", 3), ("C", 4)])
    assert lay.total_dim == 24
    assert lay.strides == (12, 4, 1)
    assert lay.basis_index({"A": 1, "C": 2}) == 14
    assert register_values(lay, 14) == {"A": 1, "B": 0, "C": 2}


def test_layout_rejects_duplicates_and_bad_dims():
    with pytest.raises(sv.RegisterError):
        sv.RegisterLayout([("A", 2), ("A", 3)])
    with pytest.raises(sv.RegisterError):
        sv.RegisterLayout([("A", 0)])
    with pytest.raises(sv.RegisterError):
        sv.RegisterLayout([])


def test_new_basis_state():
    lay = sv.RegisterLayout([("A", 2)])
    assert np.array_equal(sv.new_basis_state(lay).amplitudes, [1, 0])
    lay2 = sv.RegisterLayout([("A", 2), ("B", 3)])
    state = sv.new_basis_state(lay2)
    assert state.amplitudes[lay2.basis_index({"A": 0, "B": 0})] == 1.0
    assert state.norm() == 1.0


# --- gates ------------------------------------------------------------------------

def test_hadamard_on_zero():
    lay = sv.RegisterLayout([("Q", 2)])
    state = sv.new_basis_state(lay)
    sv.hadamard("Q").apply_to(state)
    assert np.allclose(state.amplitudes, [SQ2, SQ2], atol=1e-12)


def test_x_involution():
    lay = sv.RegisterLayout([("Q", 2)])
    state = sv.new_basis_state(lay)
    sv.pauli_x("Q").apply_to(state)
    sv.pauli_x("Q").apply_to(state)
    assert np.allclose(state.amplitudes, [1, 0], atol=1e-12)


def test_hx_on_zero():
    lay = sv.RegisterLayout([("Q", 2)])
    state = sv.new_basis_state(lay)
    sv.pauli_x("Q").apply_to(state)
    sv.hadamard("Q").apply_to(state)
    assert np.allclose(state.amplitudes, [SQ2, -SQ2], atol=1e-12)


@pytest.mark.parametrize("controlled", [False, True], ids=["uncontrolled", "controlled"])
def test_hadamard_cancels_opposite_blocks_exactly(controlled):
    """H on a state whose D=1 block is the exact negative of its D=0 block
    leaves exactly 0.0 on D=0, at a size (8192) that large-block kernels would
    send to BLAS.  The testers' exact-zero statistic for p = q rests on this."""
    rng = np.random.default_rng(44)
    layout = sv.RegisterLayout([("C", 2), ("A", 64), ("B", 32), ("D", 2)])
    amps = haar_state(layout.total_dim, rng).reshape(2, -1, 2)  # (C, A*B, D)
    amps[..., 1] = -amps[..., 0]
    state = sv.StateVector(layout, amps.ravel().copy())
    h = sv.hadamard("D")
    (sv.ControlledOp(h, "C") if controlled else h).apply_to(state)
    out = state.amplitudes.reshape(2, -1, 2)
    acted = out[1] if controlled else out
    assert np.all(acted[..., 0] == 0.0)
    before = amps[1] if controlled else amps
    assert np.allclose(acted[..., 1], math.sqrt(2) * before[..., 0], atol=1e-15)
    if controlled:
        assert np.array_equal(out[0], amps[0])


def test_controlled_z_signs():
    """A controlled-Z is the sign table diag(1, 1, 1, -1) on two qubits."""
    lay = sv.RegisterLayout([("C", 2), ("T", 2)])
    cz = sv.SignOp(("C", "T"), [[1, 1], [1, -1]])
    s11 = basis_state(lay, {"C": 1, "T": 1})
    cz.apply_to(s11)
    assert s11.amplitudes[lay.basis_index({"C": 1, "T": 1})] == -1.0
    s10 = basis_state(lay, {"C": 1, "T": 0})
    cz.apply_to(s10)
    assert s10.amplitudes[lay.basis_index({"C": 1, "T": 0})] == 1.0


def test_controlled_z_needs_qubits():
    """A two-qubit sign table is refused on registers of another joint
    dimension, and a table with an entry other than +/-1 is refused."""
    lay = sv.RegisterLayout([("C", 3), ("T", 2)])
    with pytest.raises(sv.RegisterError, match="joint dimension"):
        sv.SignOp(("C", "T"), [[1, 1], [1, -1]]).apply_to(sv.new_basis_state(lay))
    with pytest.raises(sv.RegisterError, match="entries"):
        sv.SignOp(("C", "T"), [[1, 1], [1, 0.5]])


def test_apply_register_mismatch():
    lay = sv.RegisterLayout([("A", 2)])
    with pytest.raises(sv.RegisterError):
        sv.hadamard("B").apply_to(sv.new_basis_state(lay))
    with pytest.raises(sv.RegisterError):
        sv.MatrixOp(("A",), np.eye(3)).apply_to(sv.new_basis_state(lay))
    with pytest.raises(sv.RegisterError):
        sv.ReflectionOp(("A",), np.ones(3), 1.5).apply_to(sv.new_basis_state(lay))
    with pytest.raises(sv.RegisterError):
        sv.CopyOp("A", "B").apply_to(sv.new_basis_state(lay))


@pytest.mark.parametrize("controlled", [False, True], ids=["uncontrolled", "controlled"])
def test_complex_matrix_on_real_state_raises(controlled):
    """A matrix with an imaginary part is refused on a float64 state, where
    numpy would only warn and drop that part; a real matrix runs there."""
    lay = sv.RegisterLayout([("C", 2), ("A", 3)])
    state = sv.new_basis_state(lay, np.float64)
    op = sv.MatrixOp(("A",), haar_unitary(3, 5))
    assert not op.real
    with pytest.raises(sv.RegisterError, match="real state"):
        (sv.ControlledOp(op, "C", 0) if controlled else op).apply_to(state)
    assert np.array_equal(state.amplitudes, sv.new_basis_state(lay, np.float64).amplitudes)
    sv.MatrixOp(("A",), np.eye(3)[[2, 0, 1]]).apply_to(state)  # |0> -> |1>
    assert state.amplitudes.dtype == np.float64
    assert state.amplitudes[lay.basis_index({"A": 1})] == 1.0


# --- operator algebra: norm, inverse, dense, controlled ---------------------------

def test_norm_preservation_and_inverse_consistency():
    rng = np.random.default_rng(42)
    for _ in range(100):
        layout = random_layout(rng)
        state = sv.StateVector(layout, haar_state(layout.total_dim, rng))
        before = state.amplitudes.copy()
        op = random_op(layout, rng)
        op.apply_to(state)
        assert abs(state.norm() - 1.0) < 1e-10
        op.apply_to(state, inverse=True)
        assert np.abs(state.amplitudes - before).max() < 1e-10


def test_dense_fast_agreement():
    rng = np.random.default_rng(43)
    for _ in range(25):
        layout = random_layout(rng)
        op = random_op(layout, rng)
        dense = sv.dense_matrix_of(op, layout)
        state = sv.StateVector(layout, haar_state(layout.total_dim, rng))
        expected = dense @ state.amplitudes
        op.apply_to(state)
        assert np.abs(state.amplitudes - expected).max() < 1e-10


def test_dense_matrix_is_unitary():
    rng = np.random.default_rng(44)
    layout = sv.RegisterLayout([("A", 4), ("B", 3)])
    for op in (random_op(layout, rng), sv.SignOp("A", [1, 1, -1, 1]),
               sv.SignOp("B", [1, -1, -1])):
        dense = sv.dense_matrix_of(op, layout)
        assert np.abs(dense.conj().T @ dense - np.eye(12)).max() < 1e-10


def test_dense_hadamard_matrix():
    lay = sv.RegisterLayout([("Q", 2)])
    dense = sv.dense_matrix_of(sv.hadamard("Q"), lay)
    assert np.allclose(dense, np.array([[1, 1], [1, -1]]) * SQ2, atol=1e-12)


def test_dense_copy_is_cnot():
    lay = sv.RegisterLayout([("B", 2), ("C", 2)])
    dense = sv.dense_matrix_of(sv.CopyOp("B", "C"), lay)
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    assert np.allclose(dense, cnot, atol=1e-12)


def test_dense_cap():
    lay = sv.RegisterLayout([("A", 5000)])
    with pytest.raises(sv.RegisterError):
        sv.dense_matrix_of(sv.MatrixOp(("A",), np.eye(5000)), lay)


def leaf_op(kind, rng):
    """One of the four leaf operators on A (dim 3), B (dim 2) and C (dim 2): the
    copy from B into C, the others on the joint space of A and B."""
    if kind == "matrix":
        return sv.MatrixOp(("A", "B"), haar_unitary(6, int(rng.integers(2 ** 63))))
    if kind == "reflection":
        v = np.abs(rng.standard_normal(6))
        v /= np.linalg.norm(v)
        w = v.copy()
        w[0] -= 1.0
        return sv.ReflectionOp(("A", "B"), w, 1.0 - v[0])
    if kind == "permutation":
        return sv.CopyOp("B", "C")
    return sv.SignOp(("A", "B"), [1, 1, -1, 1, 1, 1])  # I - 2P at A=1, B=0


@pytest.mark.parametrize("kind", ["matrix", "reflection", "permutation", "phase_flip"])
def test_controlled_block_structure(kind):
    """The controlled plan acts as the op on the D=1 block, the identity on D=0."""
    rng = np.random.default_rng(45)
    layout = sv.RegisterLayout([("D", 2), ("A", 3), ("B", 2), ("C", 2)])
    op = leaf_op(kind, rng)
    dense_op = sv.dense_matrix_of(op, sv.RegisterLayout([("A", 3), ("B", 2), ("C", 2)]))
    dense_ctrl = sv.dense_matrix_of(sv.ControlledOp(op, "D", 1), layout)
    expected = np.block([[np.eye(12), np.zeros((12, 12))],
                         [np.zeros((12, 12)), dense_op]])
    assert np.abs(dense_ctrl - expected).max() < 1e-10


def test_controlled_on_zero_control_leaves_state():
    rng = np.random.default_rng(46)
    layout = sv.RegisterLayout([("D", 2), ("A", 4)])
    op = sv.MatrixOp(("A",), haar_unitary(4, int(rng.integers(2 ** 63))))
    state = basis_state(layout, {"A": 2})  # control |0>
    before = state.amplitudes.copy()
    sv.ControlledOp(op, "D").apply_to(state)
    assert np.array_equal(state.amplitudes, before)


def test_controlled_inverse_composition():
    rng = np.random.default_rng(47)
    layout = sv.RegisterLayout([("D", 2), ("A", 4)])
    op = sv.MatrixOp(("A",), haar_unitary(4, int(rng.integers(2 ** 63))))
    state = sv.StateVector(layout, haar_state(8, rng))
    before = state.amplitudes.copy()
    ctrl = sv.ControlledOp(op, "D")
    ctrl.apply_to(state)
    ctrl.apply_to(state, inverse=True)
    assert np.abs(state.amplitudes - before).max() < 1e-10


def test_sequence_and_inverse_ops():
    rng = np.random.default_rng(48)
    layout = sv.RegisterLayout([("A", 3), ("B", 2)])
    seq = sv.SequenceOp([random_op(layout, rng), sv.InverseOp(random_op(layout, rng)),
                         sv.SignOp("B", [1, -1])])
    state = sv.StateVector(layout, haar_state(6, rng))
    before = state.amplitudes.copy()
    seq.apply_to(state)
    seq.apply_to(state, inverse=True)
    assert np.abs(state.amplitudes - before).max() < 1e-10


def test_copy_op_action_and_inverse():
    """|a>|b> -> |a>|b + a mod 3>, and the inverse subtracts, exactly."""
    rng = np.random.default_rng(49)
    layout = sv.RegisterLayout([("A", 3), ("B", 3)])
    op = sv.CopyOp("A", "B")
    dense = sv.dense_matrix_of(op, layout)
    a, b = np.divmod(np.arange(9), 3)
    expected = np.zeros((9, 9))
    expected[a * 3 + (b + a) % 3, np.arange(9)] = 1.0
    assert np.abs(dense - expected).max() == 0.0
    state = sv.StateVector(layout, haar_state(9, rng))
    before = state.amplitudes.copy()
    op.apply_to(state)
    assert not np.array_equal(state.amplitudes, before)
    op.apply_to(state, inverse=True)
    assert np.array_equal(state.amplitudes, before)


def test_copy_op_rejects_overlapping_registers():
    with pytest.raises(sv.RegisterError, match="also its destination"):
        sv.CopyOp("B", "B")


def test_copy_op_checks_at_apply():
    lay = sv.RegisterLayout([("A", 4), ("C", 2)])
    with pytest.raises(sv.RegisterError, match="sizes differ"):
        sv.CopyOp("A", "C").apply_to(sv.new_basis_state(lay))


def test_reflection_op_matches_matrix():
    rng = np.random.default_rng(50)
    layout = sv.RegisterLayout([("A", 8), ("B", 3)])
    v = np.abs(rng.standard_normal(8))
    v /= np.linalg.norm(v)
    w = v.copy()
    w[0] -= 1.0
    refl = sv.ReflectionOp(("A",), w, 1.0 - v[0])
    dense = sv.dense_matrix_of(refl, layout)
    householder = np.eye(8) - np.outer(w, w) / (1.0 - v[0])
    mat = sv.dense_matrix_of(sv.MatrixOp(("A",), householder), layout)
    assert np.abs(dense - mat).max() < 1e-12
    state = sv.StateVector(layout, haar_state(24, rng))
    before = state.amplitudes.copy()
    refl.apply_to(state)
    refl.apply_to(state)  # reflections are involutions
    assert np.abs(state.amplitudes - before).max() < 1e-10


# --- projection and measurement ----------------------------------------------------

def test_projector_norm_full_and_half():
    lay = sv.RegisterLayout([("A", 2), ("B", 2)])
    state = sv.new_basis_state(lay)
    assert sv.projector_norm_sq(state, {"A": 0, "B": 0}) == 1.0
    sv.hadamard("A").apply_to(state)
    assert abs(sv.projector_norm_sq(state, {"A": 0}) - 0.5) < 1e-12


# --- ledger -------------------------------------------------------------------------

def test_ledger_records_kinds():
    lay = sv.RegisterLayout([("D", 2), ("A", 2)])
    op = sv.SequenceOp([sv.MatrixOp(("A",), np.eye(2))], label="p")
    led = sv.QueryLedger()
    state = sv.new_basis_state(lay)
    op.apply_to(state, ledger=led)
    op.apply_to(state, inverse=True, ledger=led)
    sv.ControlledOp(op, "D").apply_to(state, ledger=led)
    sv.ControlledOp(op, "D").apply_to(state, inverse=True, ledger=led)
    assert led.get("p") == {"forward": 1, "inverse": 1,
                            "ctrl_forward": 1, "ctrl_inverse": 1}
    assert sum(led.get("p").values()) == 4
    snap = led.snapshot()
    led.record("p", inverse=False, controlled=False)
    assert snap["p"]["forward"] == 1 and led.get("p")["forward"] == 2


def test_ledger_merge_and_copy():
    a, b = sv.QueryLedger(), sv.QueryLedger()
    a.record("p", inverse=False, controlled=False)
    b.record("p", inverse=True, controlled=True)
    b.record("q", inverse=False, controlled=False)
    a.merge(b)
    assert a.get("p")["forward"] == 1 and a.get("p")["ctrl_inverse"] == 1
    assert a.get("q")["forward"] == 1
    dup = sv.QueryLedger()
    dup.merge(a)
    dup.record("p", inverse=False, controlled=False)
    assert a.get("p")["forward"] == 1
    a.merge(b, times=3)
    assert a.get("p")["ctrl_inverse"] == 4 and a.get("q")["forward"] == 4
    a.merge(b, times=0)
    assert a.get("q")["forward"] == 4


def test_memory_preflight():
    free = sv.available_memory_bytes()
    assert free is None or free > 0
    layout = sv.RegisterLayout([("A", 4)])
    sv.require_memory(layout)
    if free is not None:
        with pytest.raises(sv.MemoryLimitError):
            sv.require_memory(sv.RegisterLayout([("A", 2 ** 40)]))


# --- the cgroup reader ------------------------------------------------------------

GIB = 2 ** 30


def _cgroup_tree(tmp_path, membership: str, files: dict[str, str]):
    """A fake cgroup root under ``tmp_path`` holding ``files`` (path under the
    root: content) and a membership file with the given lines."""
    root = tmp_path / "fs"
    for path, content in files.items():
        (root / path).parent.mkdir(parents=True, exist_ok=True)
        (root / path).write_text(content, encoding="ascii")
    (tmp_path / "cgroup").write_text(membership, encoding="ascii")
    return str(root), str(tmp_path / "cgroup")


@pytest.mark.parametrize("membership,files,room", [
    ("0::/box/run\n", {"box/run/memory.max": "3221225472\n",
                       "box/run/memory.current": "1073741824\n"}, 2 * GIB),
    # the parent's limit is the tighter one
    ("0::/box/run\n", {"box/run/memory.max": "max\n", "box/run/memory.current": "7\n",
                       "box/memory.max": "2147483648\n", "box/memory.current": "536870912\n"},
     GIB + GIB // 2),
    ("0::/box\n", {"box/memory.max": "max\n", "box/memory.current": "123\n"}, None),
    ("4:memory:/box\n2:cpu:/box\n",
     {"memory/box/memory.limit_in_bytes": "1073741824\n",
      "memory/box/memory.usage_in_bytes": "268435456\n"}, 3 * GIB // 4),
    ("4:cpuacct,memory:/box\n",
     {"memory/box/memory.limit_in_bytes": "9223372036854771712\n",
      "memory/box/memory.usage_in_bytes": "268435456\n"}, None),
    # a usage above the limit leaves no room, not a negative one
    ("0::/\n", {"memory.max": "100\n", "memory.current": "200\n"}, 0),
], ids=["v2-limited", "v2-parent", "v2-max", "v1-limited", "v1-unlimited", "v2-over"])
def test_cgroup_room(tmp_path, membership, files, room):
    """limit - usage over the group and its ancestors, v2 and v1; ``max``
    and a limit at or above MemTotal (8 GiB here) are no limit."""
    args = _cgroup_tree(tmp_path, membership, files)
    assert sv.cgroup_room_bytes(8 * GIB, *args) == room


def test_cgroup_room_ignores_unreadable_files(tmp_path):
    """A limit that is a directory, usage text that is no integer, a missing
    usage file and a missing membership file are ignored, not errors."""
    root, membership = _cgroup_tree(tmp_path, "0::/a/b/c\n", {
        "a/b/c/memory.current": "5\n", "a/b/c/memory.max/x": "",
        "a/b/memory.max": "1000\n", "a/b/memory.current": "lots\n",
        "a/memory.max": "800\n",
        "memory.max": "600\n", "memory.current": "100\n"})
    assert sv.cgroup_room_bytes(8 * GIB, root, membership) == 500
    assert sv.cgroup_room_bytes(8 * GIB, root, str(tmp_path / "missing")) is None


def test_available_memory_sees_the_cgroup_room(monkeypatch):
    """The pre-flight's free figure is at most the cgroup's room."""
    monkeypatch.setattr(sv, "cgroup_room_bytes", lambda total: 12345)
    assert sv.available_memory_bytes() == 12345
