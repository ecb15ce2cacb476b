"""Dense state-vector engine over named registers of arbitrary dimension.

A state lives on a :class:`RegisterLayout`: an ordered list of named registers,
each with its own dimension (registers are not restricted to qubits).  Basis
ordering is register-major with the first-declared register most significant,
so the flat index of a basis assignment ``{r_i: v_i}`` is ``sum(v_i * stride_i)``.

Operators (:class:`QuantumOp`) act in place on a slice of registers and compose
into sequences; every operator supports forward, inverse, and controlled
application.  Dense matrices of operators exist only as a cross-check path for
small systems (:func:`dense_matrix_of`).

Each leaf operator caches, per layout and control context, the integer index
plan its numpy kernel consumes (:meth:`QuantumOp._plan`).  One kernel rule is
exact: a matrix on a two-column block (a qubit gate such as a Hadamard) is
applied with separate elementwise multiplies and adds, never BLAS, whose fused
multiply-add leaves rounding residue where ``x*h + (-x)*h`` must cancel to
exactly 0.  The testers' one-sided error rests on this: for p = q the
closeness encoder's final Hadamard meets exactly opposite blocks, and the
projected amplitude must come out 0.0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

ATOL = 1e-10

Controls = tuple[tuple[str, int], ...]


class RegisterError(ValueError):
    """Register-name or dimension mismatch between an operator and a layout."""


class MemoryLimitError(ValueError):
    """A run on a layout would need more memory than the machine has free."""


# Peak bytes per amplitude of a run on one layout: the state vector plus the
# index plans its leaf ops cache and their build temporaries.  Measured up to
# 162 (closeness and k-wise encoders, basis and Haar garbage, dim 2^15-2^22).
_PEAK_BYTES_PER_AMPLITUDE = 192


@dataclass(frozen=True)
class RegisterLayout:
    """Ordered named registers; total dimension is the product of all sizes."""

    registers: tuple[tuple[str, int], ...]

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
        object.__setattr__(self, "registers", regs)

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

    def __eq__(self, other):
        if self is other:
            return True
        return isinstance(other, RegisterLayout) and self.registers == other.registers

    def __hash__(self):
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash(self.registers)
            self.__dict__["_hash"] = h
        return h

    def axis(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise RegisterError(f"no register named {name!r} in {self.names}") from None

    def dim_of(self, name: str) -> int:
        return self.dims[self.axis(name)]

    def stride_of(self, name: str) -> int:
        return self.strides[self.axis(name)]

    def basis_index(self, values: Mapping[str, int]) -> int:
        """Flat index of the basis state with the given register values (others 0)."""
        idx = 0
        for name, v in values.items():
            d = self.dim_of(name)
            if not 0 <= v < d:
                raise RegisterError(f"value {v} out of range for register {name!r} (dim {d})")
            idx += v * self.stride_of(name)
        return idx

    def register_values(self, index: int) -> dict[str, int]:
        """Inverse of basis_index: per-register values of a flat index."""
        return {n: (index // s) % d
                for n, d, s in zip(self.names, self.dims, self.strides)}


class StateVector:
    """Complex amplitudes over a layout.  Mutated in place by operators."""

    __slots__ = ("layout", "amplitudes")

    def __init__(self, layout: RegisterLayout, amplitudes: np.ndarray | None = None):
        self.layout = layout
        if amplitudes is None:
            amplitudes = np.zeros(layout.total_dim, dtype=np.complex128)
        else:
            amplitudes = np.ascontiguousarray(amplitudes, dtype=np.complex128)
            if amplitudes.shape != (layout.total_dim,):
                raise RegisterError(
                    f"amplitude array of shape {amplitudes.shape} does not match "
                    f"layout dimension {layout.total_dim}")
        self.amplitudes = amplitudes

    def copy(self) -> "StateVector":
        return StateVector(self.layout, self.amplitudes.copy())

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def amplitude(self, values: Mapping[str, int]) -> complex:
        return complex(self.amplitudes[self.layout.basis_index(values)])


def available_memory_bytes() -> int | None:
    """MemAvailable from /proc/meminfo, or None where it cannot be read."""
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        return None
    return None


def require_memory(layout: RegisterLayout) -> None:
    """Raise MemoryLimitError if a run on the layout would not fit in memory."""
    need = layout.total_dim * _PEAK_BYTES_PER_AMPLITUDE
    free = available_memory_bytes()
    if free is not None and need > free:
        raise MemoryLimitError(
            f"a state of dimension {layout.total_dim} needs about {need / 2**30:.2f} GiB "
            f"but only {free / 2**30:.2f} GiB is available")


def new_basis_state(layout: RegisterLayout, values: Mapping[str, int] | None = None) -> StateVector:
    """All-zeros basis state, or the basis state with the given register values.

    Checks first that a run on the layout fits in the available memory.
    """
    require_memory(layout)
    state = StateVector(layout)
    state.amplitudes[layout.basis_index(values or {})] = 1.0
    return state


@dataclass(frozen=True)
class Projector:
    """Product projector fixing some registers to basis values (others wildcard)."""

    fixed: tuple[tuple[str, int], ...]

    def __init__(self, fixed: Mapping[str, int] | Iterable[tuple[str, int]]):
        items = tuple(dict(fixed).items())
        object.__setattr__(self, "fixed", items)

    def mask(self, layout: RegisterLayout) -> np.ndarray:
        """Boolean mask over flat indices selecting the projected subspace."""
        return _register_mask(layout, self.fixed)


def projector_norm_sq(state: StateVector, proj: Projector) -> float:
    """Squared norm of the projected state: sum of |amplitude|^2 over the mask."""
    mask = proj.mask(state.layout)
    return float(np.sum(np.abs(state.amplitudes[mask]) ** 2))


def _register_mask(layout: RegisterLayout, fixed: Iterable[tuple[str, int]]) -> np.ndarray:
    """Boolean mask over flat indices where every named register holds its value."""
    idx = np.arange(layout.total_dim, dtype=np.int64)
    keep = np.ones(layout.total_dim, dtype=bool)
    for name, value in fixed:
        d = layout.dim_of(name)
        if not 0 <= value < d:
            raise RegisterError(f"value {value} out of range for register {name!r} (dim {d})")
        keep &= (idx // layout.stride_of(name)) % d == value
    return keep


def _mixed_radix_offsets(layout: RegisterLayout, names: Sequence[str]) -> np.ndarray:
    """Offsets of every joint value of ``names`` (first name most significant)."""
    off = np.zeros(1, dtype=np.int64)
    for name in names:
        d, s = layout.dim_of(name), layout.stride_of(name)
        off = (off[:, None] + (np.arange(d, dtype=np.int64) * s)[None, :]).ravel()
    return off


def _base_offsets(layout: RegisterLayout, acting: Sequence[str], controls: Controls) -> np.ndarray:
    """Offsets of the complement registers, restricted to the control block."""
    ctrl = dict(controls)
    off = np.zeros(1, dtype=np.int64)
    for name, d in layout.registers:
        if name in acting:
            continue
        s = layout.stride_of(name)
        if name in ctrl:
            values = np.array([ctrl[name]], dtype=np.int64)
        else:
            values = np.arange(d, dtype=np.int64)
        off = (off[:, None] + (values * s)[None, :]).ravel()
    return off


def _block_index(layout: RegisterLayout, regs: Sequence[str], controls: Controls) -> np.ndarray:
    """Flat indices of every register block in the control scope: one row per
    joint value of the other registers, one column per joint value of ``regs``."""
    bases = _base_offsets(layout, regs, controls)
    return bases[:, None] + _mixed_radix_offsets(layout, regs)[None, :]


def _check_controls(layout: RegisterLayout, acting: Sequence[str], controls: Controls) -> None:
    for name, value in controls:
        if name in acting:
            raise RegisterError(f"control register {name!r} overlaps the operator's targets")
        if not 0 <= value < layout.dim_of(name):
            raise RegisterError(f"control value {value} out of range for {name!r}")


class QuantumOp:
    """Composable unitary action on named registers.

    Subclasses implement ``_apply``; :meth:`apply_to` adds ledger attribution.
    A labelled op records one query per application under its label, with the
    kind determined by the inverse/controlled context it runs in.  Leaf ops
    also implement ``_build``, the index plan for one layout and control
    context, which :meth:`_plan` builds once and caches.
    """

    label: str | None = None
    regs: tuple[str, ...] = ()
    size: int | None = None  # joint dimension of ``regs`` the op needs; None: any

    def __init__(self, regs: Sequence[str] | str, label: str | None = None):
        self.regs = (regs,) if isinstance(regs, str) else tuple(regs)
        self.label = label
        self._plans: dict = {}

    def apply_to(self, state: StateVector, *, inverse: bool = False,
                 controls: Controls = (), ledger: "QueryLedger | None" = None) -> None:
        if self.label is not None and ledger is not None:
            ledger.record(self.label, inverse=inverse, controlled=bool(controls))
        self._apply(state, inverse, controls, ledger)

    def _apply(self, state: StateVector, inverse: bool, controls: Controls,
               ledger: "QueryLedger | None") -> None:
        raise NotImplementedError

    def _plan(self, layout: RegisterLayout, controls: Controls):
        """The cached ``_build`` result, checked against the layout on first use."""
        key = (layout, controls)
        plan = self._plans.get(key)
        if plan is None:
            if self.size is not None:
                dim = math.prod(layout.dim_of(r) for r in self.regs)
                if dim != self.size:
                    raise RegisterError(
                        f"{type(self).__name__} on {self.regs} has size {self.size} "
                        f"but registers have joint dimension {dim}")
            _check_controls(layout, self.regs, controls)
            plan = self._plans[key] = self._build(layout, controls)
        return plan

    def _build(self, layout: RegisterLayout, controls: Controls):
        raise NotImplementedError


class MatrixOp(QuantumOp):
    """Dense unitary on a tuple of registers (matrix over their joint space).

    A two-column matrix (a qubit gate) is applied as separate elementwise
    multiplies and adds, so opposite input blocks cancel to exactly 0; the
    testers' certainty when p = q depends on it.  Larger blocks go through a
    BLAS matrix product.
    """

    def __init__(self, regs: Sequence[str] | str, matrix: np.ndarray, label: str | None = None):
        super().__init__(regs, label)
        self.matrix = np.ascontiguousarray(matrix, dtype=np.complex128)
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise RegisterError(f"operator matrix must be square, got {self.matrix.shape}")
        self.size = self.matrix.shape[0]
        # out = in @ U.T for forward, in @ conj(U) for inverse
        self._mat_t = np.ascontiguousarray(self.matrix.T)
        self._mat_t_inv = np.ascontiguousarray(self.matrix.conj())

    def _build(self, layout, controls):
        idx = _block_index(layout, self.regs, controls)
        # a qubit gate reads its two columns as contiguous 1-D index arrays
        return np.ascontiguousarray(idx.T) if self.size == 2 else idx

    def _apply(self, state, inverse, controls, ledger):
        idx = self._plan(state.layout, controls)
        mat = self._mat_t_inv if inverse else self._mat_t
        amps = state.amplitudes
        if self.size == 2:
            i0, i1 = idx
            x0, x1 = amps[i0], amps[i1]
            amps[i0] = x0 * mat[0, 0] + x1 * mat[1, 0]
            amps[i1] = x0 * mat[0, 1] + x1 * mat[1, 1]
        else:
            amps[idx] = amps[idx] @ mat


class ReflectionOp(QuantumOp):
    """Real Householder reflection I - w w^T / c on a register tuple.

    Self-inverse; used for state-preparation unitaries, whose completion is a
    single reflection.  Applies in O(m) per register block instead of the
    O(m^2) of a dense matrix.
    """

    def __init__(self, regs: Sequence[str] | str, w: np.ndarray, denom: float,
                 label: str | None = None):
        super().__init__(regs, label)
        self.w = np.ascontiguousarray(w, dtype=np.float64)
        self.denom = float(denom)
        if self.denom <= 0:
            raise RegisterError("reflection denominator must be positive")
        self.size = self.w.size

    @property
    def matrix(self) -> np.ndarray:
        return (np.eye(self.w.size) - np.outer(self.w, self.w) / self.denom
                ).astype(np.complex128)

    def _build(self, layout, controls):
        return _block_index(layout, self.regs, controls)

    def _apply(self, state, inverse, controls, ledger):
        idx = self._plan(state.layout, controls)
        block = state.amplitudes[idx]
        state.amplitudes[idx] = block - np.outer(block @ self.w, self.w / self.denom)


class PermutationOp(QuantumOp):
    """Unitary basis permutation |j> -> |perm[j]> on a tuple of registers."""

    def __init__(self, regs: Sequence[str] | str, perm: np.ndarray, label: str | None = None):
        super().__init__(regs, label)
        perm = np.asarray(perm, dtype=np.int64)
        if sorted(perm.tolist()) != list(range(perm.size)):
            raise RegisterError("perm must be a permutation of 0..dim-1")
        self.perm = perm
        inv = np.empty_like(perm)
        inv[perm] = np.arange(perm.size, dtype=np.int64)
        self._perm_inv = inv
        self.size = perm.size

    def _build(self, layout, controls):
        targets = _mixed_radix_offsets(layout, self.regs)
        idx = np.arange(layout.total_dim, dtype=np.int64)
        # joint value of the acting registers at every flat index
        joint = np.zeros(layout.total_dim, dtype=np.int64)
        radix = 1
        for name in reversed(self.regs):
            d, s = layout.dim_of(name), layout.stride_of(name)
            joint += ((idx // s) % d) * radix
            radix *= d
        scope = _register_mask(layout, controls)
        # out[i] = in[i with target part j replaced by perm^{-1}(j)] for the
        # forward action |j> -> |perm(j)|; swap perm and its inverse for the
        # adjoint.  Outside the control block the gather is the identity.
        base = idx - targets[joint]
        g_fwd = np.where(scope, base + targets[self._perm_inv[joint]], idx)
        g_inv = np.where(scope, base + targets[self.perm[joint]], idx)
        return g_fwd, g_inv

    def _apply(self, state, inverse, controls, ledger):
        g_fwd, g_inv = self._plan(state.layout, controls)
        state.amplitudes[:] = state.amplitudes[g_inv if inverse else g_fwd]


class PhaseFlipOp(QuantumOp):
    """Multiplies by -1 the amplitudes matching (or not matching) a pattern.

    With ``complement=False`` this is the reflection I - 2P about the pattern
    projector P; with ``complement=True`` it is 2P - I.  Self-inverse.
    """

    def __init__(self, fixed: Mapping[str, int], complement: bool = False,
                 label: str | None = None, require_qubits: bool = False):
        self.fixed = tuple(dict(fixed).items())
        super().__init__([n for n, _ in self.fixed], label)
        self.complement = complement
        self._require_qubits = require_qubits

    def _build(self, layout, controls):
        if self._require_qubits:
            for name in self.regs:
                if layout.dim_of(name) != 2:
                    raise RegisterError(f"register {name!r} is not a qubit")
        match = _register_mask(layout, self.fixed)
        if self.complement:
            match = ~match
        match &= _register_mask(layout, controls)
        return np.nonzero(match)[0]

    def _apply(self, state, inverse, controls, ledger):
        state.amplitudes[self._plan(state.layout, controls)] *= -1.0


class SequenceOp(QuantumOp):
    """Composition of operators, applied left to right."""

    def __init__(self, steps: Sequence[QuantumOp], label: str | None = None):
        self.steps = tuple(steps)
        seen: list[str] = []
        for op in self.steps:
            seen.extend(r for r in op.regs if r not in seen)
        super().__init__(seen, label)

    def _apply(self, state, inverse, controls, ledger):
        steps = reversed(self.steps) if inverse else self.steps
        for op in steps:
            op.apply_to(state, inverse=inverse, controls=controls, ledger=ledger)


class InverseOp(QuantumOp):
    """Adjoint of a wrapped operator."""

    def __init__(self, op: QuantumOp):
        super().__init__(op.regs)
        self.op = op

    def _apply(self, state, inverse, controls, ledger):
        self.op.apply_to(state, inverse=not inverse, controls=controls, ledger=ledger)


def inverse(op: QuantumOp) -> QuantumOp:
    if isinstance(op, InverseOp):
        return op.op
    return InverseOp(op)


class ControlledOp(QuantumOp):
    """Wrapped operator applied only on the block where a register holds a value."""

    def __init__(self, op: QuantumOp, control: str, value: int = 1):
        super().__init__(op.regs + (control,))
        self.op = op
        self.control = control
        self.value = value

    def _apply(self, state, inverse, controls, ledger):
        self.op.apply_to(state, inverse=inverse,
                         controls=controls + ((self.control, self.value),), ledger=ledger)


# --- elementary gates ---------------------------------------------------------

_H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2)
_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)


def hadamard(reg: str) -> MatrixOp:
    return MatrixOp((reg,), _H)


def pauli_x(reg: str) -> MatrixOp:
    return MatrixOp((reg,), _X)


def controlled_z(control: str, target: str) -> PhaseFlipOp:
    """diag(1,1,1,-1) on a pair of qubit registers (symmetric in its arguments)."""
    return PhaseFlipOp({control: 1, target: 1}, require_qubits=True)


# --- application, measurement, dense cross-check -------------------------------

def apply(op: QuantumOp, state: StateVector, *, inverse: bool = False,
          control: str | None = None, control_value: int = 1,
          ledger: "QueryLedger | None" = None) -> StateVector:
    """Apply an operator in place; returns the state for chaining.

    ``control`` selects controlled mode: the operator acts on the block where
    the named qubit register holds ``control_value`` and as the identity
    elsewhere.
    """
    controls: Controls = ()
    if control is not None:
        if state.layout.dim_of(control) != 2:
            raise RegisterError(f"control register {control!r} must be a qubit")
        controls = ((control, control_value),)
    op.apply_to(state, inverse=inverse, controls=controls, ledger=ledger)
    return state


def register_marginal(state: StateVector, register: str) -> np.ndarray:
    """Born-rule outcome probabilities of one register."""
    axis = state.layout.axis(register)
    probs = state.probabilities().reshape(state.layout.dims)
    other = tuple(i for i in range(len(state.layout.dims)) if i != axis)
    return probs.sum(axis=other) if other else probs


def measure(state: StateVector, register: str, rng: np.random.Generator) -> int:
    """Sample an outcome for one register and collapse the state onto it."""
    probs = register_marginal(state, register)
    total = probs.sum()
    outcome = int(np.searchsorted(np.cumsum(probs / total), rng.random(), side="right"))
    outcome = min(outcome, probs.size - 1)
    block = probs[outcome]
    if block <= 0.0:
        raise RuntimeError("measurement collapsed onto a zero-norm block")
    state.amplitudes[~_register_mask(state.layout, ((register, outcome),))] = 0.0
    state.amplitudes /= math.sqrt(block)
    return outcome


def sample_register(state: StateVector, register: str, shots: int,
                    rng: np.random.Generator) -> np.ndarray:
    """Outcomes of repeated single-register measurements on fresh copies."""
    probs = register_marginal(state, register)
    cdf = np.cumsum(probs / probs.sum())
    return np.searchsorted(cdf, rng.random(shots), side="right").clip(0, probs.size - 1)


def dense_matrix_of(op: QuantumOp, layout: RegisterLayout, *, cap: int = 4096,
                    inverse: bool = False) -> np.ndarray:
    """Materialize the operator over a layout: column j is op applied to |j>."""
    dim = layout.total_dim
    if dim > cap:
        raise RegisterError(f"layout dimension {dim} exceeds dense cap {cap}")
    out = np.empty((dim, dim), dtype=np.complex128)
    for j in range(dim):
        state = StateVector(layout)
        state.amplitudes[j] = 1.0
        op.apply_to(state, inverse=inverse)
        out[:, j] = state.amplitudes
    return out


# --- query ledger ---------------------------------------------------------------

KINDS = ("forward", "inverse", "ctrl_forward", "ctrl_inverse")


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

    def total(self, label: str | None = None) -> int:
        if label is not None:
            return sum(self.get(label).values())
        return sum(sum(per.values()) for per in self.counts.values())

    def snapshot(self) -> dict[str, dict[str, int]]:
        return {label: dict(per) for label, per in self.counts.items()}

    def copy(self) -> "QueryLedger":
        dup = QueryLedger()
        dup.counts = self.snapshot()
        return dup

    def merge(self, other: "QueryLedger", times: int = 1) -> None:
        """Add ``times`` copies of another ledger's counts."""
        for label, per in other.counts.items():
            mine = self.counts.setdefault(label, dict.fromkeys(KINDS, 0))
            for kind, count in per.items():
                mine[kind] += count * times

    def __repr__(self):
        return f"QueryLedger({self.counts})"
