"""Dense state-vector engine over named registers of arbitrary dimension.

A state lives on a :class:`RegisterLayout`: an ordered list of named registers,
each with its own dimension (registers are not restricted to qubits).  Basis
ordering is register-major with the first-declared register most significant,
so the flat index of a basis assignment ``{r_i: v_i}`` is ``sum(v_i * stride_i)``.

Operators (:class:`QuantumOp`) act in place on a slice of registers and compose
into sequences; every operator supports forward, inverse, and controlled
application through its one method, ``apply_to``.  Only a leaf operator
names the registers it acts on; a composite passes its inverse, control
and ledger context down to its parts.  Dense matrices of operators exist
only as a cross-check path for small systems (:func:`dense_matrix_of`).

A run starts from |0...0> (:func:`new_basis_state`) with every register in
the state's zero set, the registers still at 0.  A leaf acts only on the 0
slice of each set register it neither targets nor is controlled by, then
removes its targets from the set.  A state is complex128, or float64 when
every gate of U is real (an op's ``real``); a complex matrix meeting a
float64 state is an error.

A projector is a plain ``{register: value}`` map: it fixes those registers to
basis values and leaves every other register free (:func:`projector_norm_sq`).

The four leaf operators (:class:`MatrixOp`, :class:`ReflectionOp`,
:class:`CopyOp`, :class:`SignOp`) keep no index plans or other per-layout
state.  Each application views the amplitudes as ``amps.reshape(layout.dims)``,
one axis per register: a control fixes its axis to a one-element slice, which
is a view, and a leaf moves its target axes last and acts on the blocks along
them.  The arithmetic leaves (a matrix, a reflection, a sign table) walk
that view in fixed-size blocks of rows, one row per target block, each a
slice of the view (:func:`_blocks`), so one application peaks at the state
plus a few blocks and never at a state-sized temporary.  A dense product
multiplies the same number of rows in every BLAS call, the last block
zero-padded (:func:`product_rows`), so a row's bits do not depend on how
many rows its control block has, and it skips the zero set like every other
leaf.  The copy adds its source value b to the destination modulo their common
dimension d: it rolls the destination block of each b by b (by -b when
inverse), one exact permutation per block, so any d will do.  A sign table
multiplies its target blocks by +/-1, which is exact too; every diagonal +/-1
reflection is one.  Only a :class:`SequenceOp` carries a ledger label: a
labelled sequence is an oracle, and records its own query.  One kernel rule is
exact: a matrix on a two-column block (a qubit gate such as a Hadamard)
combines its two slices with separate elementwise multiplies and adds, never
BLAS, whose fused multiply-add leaves rounding residue where ``x*h + (-x)*h``
must cancel to exactly 0.  The testers' one-sided error rests on this: for
p = q the closeness encoder's final Hadamard meets exactly opposite blocks, and
the projected amplitude must come out 0.0.
"""
from __future__ import annotations

import math
import os
import resource
from contextlib import suppress
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .record import Record

Controls = tuple[tuple[str, int], ...]


class RegisterError(ValueError):
    """Register-name or dimension mismatch between an operator and a layout."""


class MemoryLimitError(ValueError):
    """A run on a layout would need more memory than the machine has free."""


# Peak bytes per amplitude of a run on one layout: the 16-byte state plus
# the blocks of one operator application and, with Haar garbage, the d x d
# matrices.  Peak RSS above a small run's (about 31 MiB) measured 16.3-17.8
# with --trials 1 on a complex state (Haar closeness n = 128 and 256, Haar
# k-wise n = 9 at k = 2, dims 4.2M-33.5M) and 8.0-8.3 on the float64 state
# of basis garbage (closeness n = 128, k-wise n = 9).  The charge is about
# twice the complex peak, and a float64 state is charged the same.
_PEAK_BYTES_PER_AMPLITUDE = 32

# Amplitudes per block of the elementwise kernels: a reflection or a sign
# table takes this many per block, and a 2-column matrix this many pairs, one
# buffer for each half.  _PRODUCT_ROWS is the fewest rows of a block of a
# dense product.
_BLOCK_AMPS = 2048
_PRODUCT_ROWS = 32


def product_rows(size: int) -> int:
    """Rows of every BLAS call of a dense product on ``size`` columns: the
    last block of a control block is zero-padded to it, so a row's bits do
    not depend on how many rows the control block has (a one-row product is
    a gemv, which rounds differently).  Half the matrix's rows, and
    at least ``_PRODUCT_ROWS``: a block never outweighs the matrix, and a
    large matrix is not packed again for each few rows."""
    return max(_PRODUCT_ROWS, size // 2)


class RegisterLayout(Record):
    """Ordered named registers; total dimension is the product of all sizes.

    Read-only (:class:`~qdtest.record.Record`): two layouts are equal, and
    hash equal, when their ``registers`` are.  The derived properties are
    computed once, on first use.
    """

    _fields = ("registers",)

    def __init__(self, registers: Iterable[tuple[str, int]]):
        regs = tuple((str(n), int(d)) for n, d in registers)
        if not regs:
            raise RegisterError("layout needs at least one register")
        names = [n for n, _ in regs]
        if len(set(names)) != len(names):
            raise RegisterError(f"duplicate register names in {names}")
        for n, d in regs:
            if d < 1:
                raise RegisterError(f"register {n!r} has non-positive dimension {d}")
        self._set(registers=regs)

    @cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.registers)

    @cached_property
    def dims(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.registers)

    @cached_property
    def total_dim(self) -> int:
        return int(np.prod(self.dims, dtype=object))

    @cached_property
    def strides(self) -> tuple[int, ...]:
        # register-major: first-declared register most significant
        strides, acc = [], 1
        for d in reversed(self.dims):
            strides.append(acc)
            acc *= d
        return tuple(reversed(strides))

    @cached_property
    def _index(self) -> dict[str, int]:
        return {n: i for i, n in enumerate(self.names)}

    def axis(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise RegisterError(f"no register named {name!r} in {self.names}") from None

    def dim_of(self, name: str) -> int:
        return self.dims[self.axis(name)]

    def basis_index(self, values: Mapping[str, int]) -> int:
        """Flat index of the basis state with the given register values (others 0)."""
        idx = 0
        for name, v in values.items():
            d = self.dim_of(name)
            if not 0 <= v < d:
                raise RegisterError(f"value {v} out of range for register {name!r} (dim {d})")
            idx += v * self.strides[self.axis(name)]
        return idx


class StateVector:
    """Amplitudes over a layout, complex128 or (for a real U) float64, mutated
    in place by operators.  ``zero`` names registers that hold 0 wherever an
    amplitude is nonzero; it is empty unless set (:func:`new_basis_state`)."""

    __slots__ = ("layout", "amplitudes", "zero")

    def __init__(self, layout: RegisterLayout, amplitudes: np.ndarray | None = None,
                 dtype=np.complex128):
        self.layout = layout
        if amplitudes is None:
            amplitudes = np.zeros(layout.total_dim, dtype=dtype)
        else:
            amplitudes = np.ascontiguousarray(amplitudes, dtype=dtype)
            if amplitudes.shape != (layout.total_dim,):
                raise RegisterError(
                    f"amplitude array of shape {amplitudes.shape} does not match "
                    f"layout dimension {layout.total_dim}")
        self.amplitudes = amplitudes
        self.zero: set[str] = set()

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def available_memory_bytes() -> int | None:
    """The least of MemAvailable, the room left under the soft RLIMIT_AS
    (less VmSize) and RLIMIT_DATA (less VmData), and the room left in the
    process's memory cgroups (:func:`cgroup_room_bytes`), each where it is
    finite and readable; None where none is."""
    sizes = {}
    for path in ("/proc/meminfo", "/proc/self/status"):
        with suppress(OSError), open(path, encoding="ascii", errors="replace") as fh:
            for key, _, value in (line.partition(":") for line in fh):
                if key in ("MemTotal", "MemAvailable", "VmSize", "VmData"):
                    sizes[key] = int(value.split()[0]) * 1024
    free = [sizes["MemAvailable"]] if "MemAvailable" in sizes else []
    for limit, used in ((resource.RLIMIT_AS, "VmSize"), (resource.RLIMIT_DATA, "VmData")):
        soft = resource.getrlimit(limit)[0]
        if soft != resource.RLIM_INFINITY and used in sizes:
            free.append(max(soft - sizes[used], 0))
    room = cgroup_room_bytes(sizes.get("MemTotal"))
    if room is not None:
        free.append(room)
    return min(free, default=None)


def cgroup_room_bytes(total: int | None, root: str = "/sys/fs/cgroup",
                      membership: str = "/proc/self/cgroup") -> int | None:
    """The least of limit - usage over the process's memory cgroup and its
    ancestors, None where none has a limit.

    The groups are the lines of ``membership``: the v2 one (empty controller
    list) reads ``memory.max`` and ``memory.current`` under ``root``; a v1
    one with the memory controller reads ``memory.limit_in_bytes`` and
    ``memory.usage_in_bytes`` under ``root``/memory.  A limit of ``max``, or
    at or above ``total`` (MemTotal), is no limit, and a file that cannot be
    read as an integer is ignored.  Only reads.
    """
    try:
        with open(membership, encoding="ascii", errors="replace") as fh:
            groups = [line.rstrip("\n").split(":", 2) for line in fh]
    except OSError:
        return None
    rooms = []
    for group in groups:
        if len(group) != 3:
            continue
        _, controllers, path = group
        if not controllers:
            base, files = root, ("memory.max", "memory.current")
        elif "memory" in controllers.split(","):
            base, files = os.path.join(root, "memory"), ("memory.limit_in_bytes",
                                                         "memory.usage_in_bytes")
        else:
            continue
        parts = [part for part in path.split("/") if part]
        for depth in range(len(parts) + 1):
            limit, usage = (_read_int(os.path.join(base, *parts[:depth], name)) for name in files)
            if limit is not None and usage is not None and (total is None or limit < total):
                rooms.append(max(limit - usage, 0))
    return min(rooms, default=None)


def _read_int(path: str) -> int | None:
    """The integer a file holds; None if it cannot be read as one."""
    with suppress(OSError, ValueError), open(path, encoding="ascii") as fh:
        return int(fh.read())
    return None


def require_bytes(need: int, what: str) -> None:
    """Raise MemoryLimitError if ``what`` needs more than the available memory."""
    free = available_memory_bytes()
    if free is not None and need > free:
        raise MemoryLimitError(f"{what} needs about {need / 2**30:.2f} GiB "
                               f"but only {free / 2**30:.2f} GiB is available")


def require_memory(layout: RegisterLayout) -> None:
    """Raise MemoryLimitError if a run on the layout would not fit in memory."""
    require_bytes(layout.total_dim * _PEAK_BYTES_PER_AMPLITUDE,
                  f"a state of dimension {layout.total_dim}")


def new_basis_state(layout: RegisterLayout, dtype=np.complex128) -> StateVector:
    """The all-zeros basis state |0...0>, where every run starts, with every
    register in its zero set.

    Checks first that a run on the layout fits in the available memory.
    """
    require_memory(layout)
    state = StateVector(layout, dtype=dtype)
    state.amplitudes[0] = 1.0
    state.zero.update(layout.names)
    return state


def projector_norm_sq(state: StateVector, fixed: Mapping[str, int]) -> float:
    """Squared norm of the state projected onto the registers' fixed values:
    the sum of |amplitude|^2 over that block."""
    block = _grid(state)[_fix(state.layout, fixed.items())]
    return float(np.sum(np.abs(block.ravel()) ** 2))


def _grid(state: StateVector) -> np.ndarray:
    """The amplitudes as a view with one axis per register."""
    return state.amplitudes.reshape(state.layout.dims)


def _fix(layout: RegisterLayout, fixed: Iterable[tuple[str, int]]) -> tuple:
    """Index into the register grid fixing each named register to its value.

    Each fixed axis keeps length one, so the result is a view whose axes still
    line up with the layout's registers.
    """
    index = [slice(None)] * len(layout.dims)
    for name, value in fixed:
        d = layout.dim_of(name)
        if not 0 <= value < d:
            raise RegisterError(f"value {value} out of range for register {name!r} (dim {d})")
        index[layout.axis(name)] = slice(value, value + 1)
    return tuple(index)


def _blocks(view: np.ndarray, targets: int, rows: int):
    """Views of at most ``rows`` rows each that tile a moved view, in C order
    over its leading axes (all but the last ``targets``); a row is one target
    block.  Each block slices the last leading axis whose trailing axes hold
    no more than ``rows`` rows, so no block is a copy."""
    lead = view.shape[:view.ndim - targets]
    axis, per = len(lead), 1
    while axis and per * lead[axis - 1] <= rows:
        axis -= 1
        per *= lead[axis]
    if not axis:
        yield view
        return
    step = rows // per
    for prefix in np.ndindex(lead[:axis - 1]):
        for start in range(0, lead[axis - 1], step):
            yield view[prefix + (slice(start, start + step),)]


class QuantumOp:
    """Composable unitary action on named registers.

    Each subclass defines ``apply_to(state, *, inverse=False, controls=(),
    ledger=None)``, its whole in-place action: the adjoint with ``inverse``,
    only where each ``(register, value)`` of ``controls`` holds.  A leaf
    names its target registers and ignores the ledger; a composite passes
    all three down.  A labelled :class:`SequenceOp` (an oracle) records one
    query per application in the ledger, of the kind its context sets.
    """

    regs: tuple[str, ...] = ()  # a leaf op's target registers
    size: int | None = None  # joint dimension of ``regs`` the op needs; None: any
    real = True  # every gate of the op is real, so it may act on a float64 state

    def __init__(self, regs: Sequence[str] | str):
        self.regs = (regs,) if isinstance(regs, str) else tuple(regs)

    def _target_view(self, state: StateVector, controls: Controls) -> np.ndarray:
        """The control block of the register grid with the target axes moved
        last, in ``regs`` order; a view, checked against the op's size.

        Each other register of the state's zero set is fixed to 0 too.  The
        targets leave the set."""
        layout = state.layout
        if self.size is not None:
            dim = math.prod(layout.dim_of(r) for r in self.regs)
            if dim != self.size:
                raise RegisterError(
                    f"{type(self).__name__} on {self.regs} has size {self.size} "
                    f"but registers have joint dimension {dim}")
        for name, _ in controls:
            if name in self.regs:
                raise RegisterError(f"control register {name!r} overlaps the operator's targets")
        skip = state.zero.difference(self.regs, (name for name, _ in controls))
        view = _grid(state)[_fix(layout, controls + tuple((r, 0) for r in skip))]
        state.zero.difference_update(self.regs)
        axes = [layout.axis(r) for r in self.regs]
        return np.moveaxis(view, axes, range(view.ndim - len(axes), view.ndim))


class MatrixOp(QuantumOp):
    """Dense unitary on a tuple of registers (matrix over their joint space).

    A two-column matrix (a qubit gate) combines its two slices with separate
    elementwise multiplies and adds, so opposite input blocks cancel to
    exactly 0; the testers' certainty when p = q depends on it.  Larger
    blocks go through BLAS products of (rows x size) by (size x size), each
    of ``product_rows(size)`` rows copied from the view, the last zero-padded:
    BLAS rounds a row the same wherever it sits among a fixed number of
    rows, but not when given another number, so every call gets the same
    number.  Both kernels run one block of rows at a time, into buffers
    allocated once per application.
    """

    def __init__(self, regs: Sequence[str] | str, matrix: np.ndarray):
        super().__init__(regs)
        self.matrix = np.ascontiguousarray(matrix, dtype=np.complex128)
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise RegisterError(f"operator matrix must be square, got {self.matrix.shape}")
        self.size = self.matrix.shape[0]
        self.real = not self.matrix.imag.any()

    def apply_to(self, state, *, inverse=False, controls=(), ledger=None):
        dtype = state.amplitudes.dtype
        if dtype == np.float64 and not self.real:  # numpy would only warn, and drop the imaginary part
            raise RegisterError(f"complex matrix on {self.regs} applied to a real state")
        mat = self.matrix.real if dtype == np.float64 else self.matrix
        view = self._target_view(state, controls)
        # out = in @ U.T for forward, in @ conj(U) for inverse; the operand is
        # a C-contiguous copy made per application, so an op holds one matrix
        mat = np.ascontiguousarray(mat.conj() if inverse else mat.T)
        targets = len(self.regs)
        if self.size == 2:
            y0, y1 = np.empty((2, _BLOCK_AMPS), dtype)
            for block in _blocks(view, targets, _BLOCK_AMPS):
                # any other target axis has length one, so this reshape is a view
                pair = block.reshape(block.shape[:block.ndim - targets] + (2,))
                x0, x1 = pair[..., 0], pair[..., 1]
                t0, t1 = (y[:x0.size].reshape(x0.shape) for y in (y0, y1))
                # every product into a buffer: an in-place complex multiply
                # may round differently with the block's shape
                np.multiply(x0, mat[0, 0], out=t0)
                t0 += np.multiply(x1, mat[1, 0], out=t1)
                np.multiply(x0, mat[0, 1], out=t1)
                x0[...] = t0
                np.add(t1, np.multiply(x1, mat[1, 1], out=t0), out=x1)
        else:
            count = product_rows(self.size)
            rows, out = np.zeros((2, count, self.size), dtype)
            for block in _blocks(view, targets, count):
                k = block.size // self.size
                rows[:k].reshape(block.shape)[...] = block
                rows[k:] = 0
                np.matmul(rows, mat, out=out)
                block[...] = out[:k].reshape(block.shape)


class ReflectionOp(QuantumOp):
    """Real Householder reflection I - w w^T / c on a register tuple.

    Self-inverse; used for state-preparation unitaries, whose completion is a
    single reflection.  Applies in O(m) per register block instead of the
    O(m^2) of a dense matrix.  Each block's dot product with w is its own
    BLAS dot (``vecdot``), so its rounding does not depend on how many
    blocks there are, as that of one matrix-vector product does.  The dots,
    the outer product and the subtraction run on a copy of a few rows at a
    time (:func:`_blocks`), written back by assignment.
    """

    def __init__(self, regs: Sequence[str] | str, w: np.ndarray, denom: float):
        super().__init__(regs)
        self.w = np.ascontiguousarray(w, dtype=np.float64)
        self.denom = float(denom)
        if self.denom <= 0:
            raise RegisterError("reflection denominator must be positive")
        self.size = self.w.size

    def apply_to(self, state, *, inverse=False, controls=(), ledger=None):
        view = self._target_view(state, controls)
        dtype = state.amplitudes.dtype
        # both vectors in the state's dtype, so no ufunc casts through its buffers
        w, scaled = self.w.astype(dtype), (self.w / self.denom).astype(dtype)
        count = max(1, _BLOCK_AMPS // self.size)
        rows, prod = np.empty((2, count, self.size), dtype)
        coef = np.empty(count, dtype)
        for block in _blocks(view, len(self.regs), count):
            k = block.size // self.size
            x = rows[:k]
            x.reshape(block.shape)[...] = block
            np.vecdot(w, x, out=coef[:k])
            y = prod[:k]
            y[...] = scaled
            # the outer product, in place so that only coef is broadcast; scaled
            # is real, so this rounds as one multiply whatever the layout
            y *= coef[:k, None]
            x -= y
            block[...] = x.reshape(block.shape)


class CopyOp(QuantumOp):
    """Copy by addition mod d, |b>|c> -> |b>|c + b mod d>, from register
    ``src`` into register ``dst`` of the same dimension d; the inverse
    subtracts.  This is the copy U_copy of the oracles and encoders: on
    c = 0 it gives |b>|b> for any d.  Each destination block is rolled by
    its source value in one exact permutation, so the temporaries are per
    block, never state-sized.
    """

    def __init__(self, src: str, dst: str):
        if src == dst:
            raise RegisterError(f"copy source {src!r} is also its destination")
        super().__init__((src, dst))

    def apply_to(self, state, *, inverse=False, controls=(), ledger=None):
        d, d_dst = (state.layout.dim_of(r) for r in self.regs)
        if d != d_dst:
            raise RegisterError(f"copy from {self.regs[0]!r} (dimension {d}) into "
                                f"{self.regs[1]!r} (dimension {d_dst}): sizes differ")
        view = self._target_view(state, controls)
        for b in range(1, d):
            block = view[..., b, :]
            block[...] = np.roll(block, -b if inverse else b, axis=-1)


class SignOp(QuantumOp):
    """Multiplies each amplitude by the +/-1 entry of ``signs`` at the joint
    value of ``regs`` (first register most significant).  Exact and
    self-inverse."""

    def __init__(self, regs: Sequence[str] | str, signs: np.ndarray):
        super().__init__(regs)
        self.signs = np.asarray(signs, dtype=np.float64)
        if not np.all(np.abs(self.signs) == 1.0):
            raise RegisterError("sign table entries must be +1 or -1")
        self.size = self.signs.size

    def apply_to(self, state, *, inverse=False, controls=(), ledger=None):
        view = self._target_view(state, controls)
        targets = len(self.regs)
        signs = self.signs.astype(state.amplitudes.dtype).reshape(view.shape[view.ndim - targets:])
        for block in _blocks(view, targets, max(1, _BLOCK_AMPS // self.size)):
            block *= signs


class SequenceOp(QuantumOp):
    """Operators applied left to right; with a label, an oracle that records its query."""

    def __init__(self, steps: Sequence[QuantumOp], label: str | None = None):
        self.steps = tuple(steps)
        self.label = label
        self.real = all(op.real for op in self.steps)

    def apply_to(self, state, *, inverse=False, controls=(), ledger=None):
        if self.label is not None and ledger is not None:
            ledger.record(self.label, inverse=inverse, controlled=bool(controls))
        steps = reversed(self.steps) if inverse else self.steps
        for op in steps:
            op.apply_to(state, inverse=inverse, controls=controls, ledger=ledger)


class InverseOp(QuantumOp):
    """Adjoint of a wrapped operator."""

    def __init__(self, op: QuantumOp):
        self.op = op
        self.real = op.real

    def apply_to(self, state, *, inverse=False, controls=(), ledger=None):
        self.op.apply_to(state, inverse=not inverse, controls=controls, ledger=ledger)


class ControlledOp(QuantumOp):
    """Wrapped operator applied only on the block where a register holds a value."""

    def __init__(self, op: QuantumOp, control: str, value: int = 1):
        self.op = op
        self.real = op.real
        self.control = control
        self.value = value

    def apply_to(self, state, *, inverse=False, controls=(), ledger=None):
        self.op.apply_to(state, inverse=inverse,
                         controls=controls + ((self.control, self.value),), ledger=ledger)


# --- elementary gates ---------------------------------------------------------

_H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2)
_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)


def hadamard(reg: str) -> MatrixOp:
    return MatrixOp((reg,), _H)


def pauli_x(reg: str) -> MatrixOp:
    return MatrixOp((reg,), _X)


# --- marginals, dense cross-check ---------------------------------------------

def register_marginal(state: StateVector, register: str) -> np.ndarray:
    """Born-rule outcome distribution of one register."""
    axis = state.layout.axis(register)
    probs = (np.abs(state.amplitudes) ** 2).reshape(state.layout.dims)
    other = tuple(i for i in range(len(state.layout.dims)) if i != axis)
    return probs.sum(axis=other) if other else probs


_DENSE_CAP = 4096


def dense_matrix_of(op: QuantumOp, layout: RegisterLayout) -> np.ndarray:
    """Materialize the operator over a layout: column j is op applied to |j>."""
    dim = layout.total_dim
    if dim > _DENSE_CAP:
        raise RegisterError(f"layout dimension {dim} exceeds dense cap {_DENSE_CAP}")
    out = np.empty((dim, dim), dtype=np.complex128)
    for j in range(dim):
        state = StateVector(layout)
        state.amplitudes[j] = 1.0
        op.apply_to(state)
        out[:, j] = state.amplitudes
    return out


# --- query ledger ---------------------------------------------------------------

KINDS = ("forward", "inverse", "ctrl_forward", "ctrl_inverse")
_MIRROR = dict(zip(KINDS, ("inverse", "forward", "ctrl_inverse", "ctrl_forward")))


class QueryLedger:
    """Per-label counts of forward/inverse/controlled oracle applications."""

    __slots__ = ("counts",)

    def __init__(self):
        self.counts: dict[str, dict[str, int]] = {}

    def record(self, label: str, *, inverse: bool, controlled: bool) -> None:
        kind = KINDS[(2 if controlled else 0) + (1 if inverse else 0)]
        per = self.counts.setdefault(label, dict.fromkeys(KINDS, 0))
        per[kind] += 1

    def get(self, label: str) -> dict[str, int]:
        return dict(self.counts.get(label, dict.fromkeys(KINDS, 0)))

    def snapshot(self) -> dict[str, dict[str, int]]:
        return {label: dict(per) for label, per in self.counts.items()}

    def merge(self, other: "QueryLedger", times: int = 1, *, inverse: bool = False) -> None:
        """Add ``times`` copies of another ledger's counts, or with ``inverse``
        of its mirror: the counts of the recorded operation's inverse, which
        makes every application in reverse, forward and inverse swapped."""
        for label, per in other.counts.items():
            mine = self.counts.setdefault(label, dict.fromkeys(KINDS, 0))
            for kind, count in per.items():
                mine[_MIRROR[kind] if inverse else kind] += count * times

    def __repr__(self):
        return f"QueryLedger({self.counts})"
