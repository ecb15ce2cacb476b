"""Instrumented purified query-access oracles and the encoding unitaries.

A purified oracle for a distribution p is a unitary U_p with

    U_p |0>_A |0>_B = sum_i sqrt(p_i) |phi_i>_A |i>_B,

where the garbage states {|phi_i>} are orthonormal but otherwise arbitrary;
algorithms built on the oracle must not depend on their choice.  Purified
access is built only by :func:`make_purified_oracle`, with one of two garbage
styles ("basis": |phi_i> = |i>; "haar": columns of a random unitary drawn
from the seeded uniforms of :mod:`qdtest.seeding`, :func:`haar_unitary`).
Every oracle application — forward, inverse, controlled — is counted in a
:class:`~qdtest.statevec.QueryLedger` under the oracle's label; those counts
are the measured query complexity of every experiment.  The encoding
unitaries carry no label of their own, so a run's ledger, and the per-run
``queries`` of every verdict, hold oracle labels only.

Derived unitaries:

* :func:`probability_encoder` — U_p^dagger . copy(B->C) . U_p, whose
  (A=0, B=0, C=k) amplitudes equal p_k exactly;
* :func:`closeness_unitary` — the one-ancilla combination of two probability
  encoders whose projected mass equals ||p - q||_2^2 / 4;
* :func:`kwise_encoder` — the subset-superposition / character-phase circuit
  whose projected amplitudes are the density Fourier coefficients of p scaled
  by 1/sqrt(M), M = binom_sum(n, k).

Sample spaces are zero-padded to the next power of two so the XOR copy
unitary is well defined; padding elements carry zero probability and do not
affect any encoded quantity.  Every copy (B into the workspace A inside the
oracle, B into C in the probability encoder) is one XOR copy,
:class:`~qdtest.statevec.XorOp`.

Register names are fixed.  A layout lists, in this order: the subset qubits
S1..Sn (k-wise tests only), the workspace A, the sample register B (one
qubit B1..Bn per coordinate on a bitstring space), the copy register C that
mirrors B (C or C1..Cn), and the closeness ancilla qubit D.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import BITSTRING, Distribution, next_pow2, padded_weights
from .reference import subset_sizes
from .seeding import trial_uniforms
from .statevec import (ControlledOp, MatrixOp, QuantumOp, QueryLedger,
                       RegisterLayout, ReflectionOp, SequenceOp, XorOp,
                       controlled_z, hadamard, inverse, pauli_x)

__all__ = [
    "GARBAGE_STYLES", "PurifiedOracle", "QueryLedger", "make_purified_oracle",
    "probability_encoder", "encoder_layout", "purified_registers", "closeness_unitary",
    "closeness_layout", "closeness_instance", "subset_superposition", "kwise_encoder",
    "kwise_layout", "kwise_instance", "haar_unitary", "reflection_parts",
]

GARBAGE_STYLES = ("basis", "haar")


def haar_unitary(dim: int, seed: int) -> np.ndarray:
    """Haar-random unitary via QR of a complex Gaussian with phase fix.  With
    u = ``trial_uniforms(seed, 2 dim^2)``, Gaussian entry k is
    sqrt(-log(1 - u[2k])) exp(2 pi i u[2k+1]): exponential |z|^2, uniform phase."""
    u = trial_uniforms(seed, 2 * dim * dim)
    z = (np.sqrt(-np.log1p(-u[0::2])) * np.exp(2j * np.pi * u[1::2])).reshape(dim, dim)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def reflection_parts(column: np.ndarray) -> tuple[np.ndarray, float] | None:
    """Householder data (w, denom) with (I - w w^T/denom) e0 = column.

    The reflection through the hyperplane normal to w = column - e0 is the
    orthonormal completion of the column; ``None`` means the column already
    is e0 and the completion is the identity.
    """
    v = np.asarray(column, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError("completion target must be a vector")
    if abs(np.linalg.norm(v) - 1.0) > 1e-12:
        raise ValueError("completion target must be a unit vector")
    denom = 1.0 - v[0]
    if denom < 1e-15:
        return None
    w = v.copy()
    w[0] -= 1.0
    return w, denom


def _prep_op(regs, column: np.ndarray) -> QuantumOp | None:
    """State-preparation reflection sending |0...0> to the given real column."""
    parts = reflection_parts(column)
    if parts is None:
        return None
    return ReflectionOp(regs, *parts)


@dataclass(frozen=True)
class PurifiedOracle:
    """A labelled purified query-access unitary together with its distribution.

    ``a_reg`` is the garbage workspace, ``b_regs`` the sample register(s):
    a single register of (padded) sample-space dimension for range spaces, or
    one qubit register per coordinate for bitstring spaces.
    """

    distribution: Distribution
    garbage: str
    label: str
    a_reg: tuple[str, int]
    b_regs: tuple[tuple[str, int], ...]
    op: QuantumOp = field(compare=False, repr=False)

    @property
    def sample_dim(self) -> int:
        return int(np.prod([d for _, d in self.b_regs]))

    @property
    def registers(self) -> tuple[tuple[str, int], ...]:
        return (self.a_reg,) + self.b_regs

    def workspace_layout(self) -> RegisterLayout:
        return RegisterLayout(self.registers)


def purified_registers(kind: str, size: int) -> tuple[tuple[str, int], ...]:
    """Workspace register A, then sample register(s) B, of the purified
    oracle that :func:`make_purified_oracle` builds for a distribution of
    this kind on ``size`` elements."""
    if kind == BITSTRING:
        b_regs = tuple((f"B{i}", 2) for i in range(1, (size - 1).bit_length() + 1))
    else:
        b_regs = (("B", next_pow2(size)),)
    return (("A", math.prod(d for _, d in b_regs)),) + b_regs


def make_purified_oracle(dist: Distribution, garbage: str = "basis", *,
                         seed: int | None = None, label: str = "p") -> PurifiedOracle:
    """Purified oracle for a distribution with the chosen garbage style.

    The construction prepares sqrt(p) on the sample register, copies it into
    the workspace, and (for haar garbage) scrambles the workspace with
    ``haar_unitary(dim, seed)``, so haar garbage needs a seed.
    """
    (_, dim), *b_regs = purified_registers(dist.kind, dist.size)
    samples = tuple(n for n, _ in b_regs)
    prep = _prep_op(samples, np.sqrt(padded_weights(dist)))
    steps: list[QuantumOp] = [] if prep is None else [prep]
    steps.append(XorOp(samples, ("A",)))
    if garbage == "haar":
        if seed is None:
            raise ValueError("haar garbage needs a seed")
        steps.append(MatrixOp(("A",), haar_unitary(dim, seed)))
    elif garbage != "basis":
        raise ValueError(f"unknown garbage style {garbage!r}")
    return PurifiedOracle(distribution=dist, garbage=garbage, label=label,
                          a_reg=("A", dim), b_regs=tuple(b_regs),
                          op=SequenceOp(steps, label=label))


def _copy_regs(b_regs) -> tuple[tuple[str, int], ...]:
    """The copy register C, or C1..Cn, mirroring the sample register(s)."""
    return tuple(("C" + name[1:], d) for name, d in b_regs)


def probability_encoder(oracle: PurifiedOracle) -> QuantumOp:
    """U_p^dagger . copy(B->C) . U_p: reads the weights p_k into amplitudes.

    On |0>_A |0>_B |0>_C the (A=0, B=0, C=k) amplitude equals p_k for every k;
    each application costs one forward and one inverse oracle query.
    """
    samples = tuple(n for n, _ in oracle.b_regs)
    copies = tuple(n for n, _ in _copy_regs(oracle.b_regs))
    return SequenceOp([oracle.op, XorOp(samples, copies), inverse(oracle.op)])


def encoder_layout(oracle: PurifiedOracle) -> RegisterLayout:
    return RegisterLayout(oracle.registers + _copy_regs(oracle.b_regs))


def _require_same_space(op: PurifiedOracle, oq: PurifiedOracle) -> None:
    if op.distribution.kind != oq.distribution.kind:
        raise ValueError("oracles have different sample-space kinds")
    if op.distribution.size != oq.distribution.size:
        raise ValueError(
            f"oracles have different sample spaces "
            f"({op.distribution.size} vs {oq.distribution.size})")
    if op.registers != oq.registers:
        raise ValueError("oracles must share workspace and sample registers")
    if op.label == oq.label:
        raise ValueError("oracles need distinct ledger labels")


def closeness_unitary(op: PurifiedOracle, oq: PurifiedOracle) -> QuantumOp:
    """One-ancilla combination of two probability encoders.

    With Pi = |0><0|_A x |0><0|_B x I_C x |0><0|_D, the projected mass of the
    output on the all-zeros input is ||p - q||_2^2 / 4.  Each application
    costs one controlled-forward and one controlled-inverse query per oracle.
    """
    _require_same_space(op, oq)
    enc_p = probability_encoder(op)
    enc_q = probability_encoder(oq)
    return SequenceOp([
        pauli_x("D"),
        hadamard("D"),
        ControlledOp(enc_p, "D", 0),
        ControlledOp(enc_q, "D", 1),
        hadamard("D"),
    ])


def closeness_layout(registers: tuple[tuple[str, int], ...]) -> RegisterLayout:
    """Layout of a closeness test on oracles with the given (A, B...) registers."""
    return RegisterLayout(registers + _copy_regs(registers[1:]) + (("D", 2),))


def closeness_instance(op: PurifiedOracle, oq: PurifiedOracle
                       ) -> tuple[RegisterLayout, QuantumOp, dict[str, int]]:
    """Layout, unitary, and projector map for a closeness test of two oracles."""
    fixed = {"A": 0, "D": 0, **{name: 0 for name, _ in op.b_regs}}
    return closeness_layout(op.registers), closeness_unitary(op, oq), fixed


def subset_superposition(n: int, k: int) -> QuantumOp:
    """Unitary sending |0...0> to the uniform superposition over the n-bit
    indicators of all non-empty subsets of size at most k."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    column = np.zeros(2 ** n)
    sizes = subset_sizes(n)
    support = (sizes >= 1) & (sizes <= k)
    column[support] = 1.0 / math.sqrt(int(support.sum()))
    return _prep_op(tuple(f"S{i}" for i in range(1, n + 1)), column)


def kwise_encoder(oracle: PurifiedOracle, k: int) -> QuantumOp:
    """Subset-phase circuit whose projected amplitudes are density Fourier
    coefficients.

    Prepares the subset superposition next to U_p, applies a controlled-Z
    between subset qubit i and sample qubit i for every coordinate (a
    character phase), and uncomputes the oracle.  The amplitude on
    (S, A=0, B=0) is phi_hat(S)/sqrt(M) for 1 <= |S| <= k and zero for every
    other subset, with M the number of subsets counted by binom_sum(n, k).
    Each application costs one forward and one inverse oracle query.
    """
    if oracle.distribution.kind != BITSTRING:
        raise ValueError("k-wise encoding needs a bitstring sample space")
    n = oracle.distribution.n_bits
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    phases = [controlled_z(f"S{i}", f"B{i}") for i in range(1, n + 1)]
    return SequenceOp([subset_superposition(n, k), oracle.op, *phases,
                       inverse(oracle.op)])


def kwise_layout(registers: tuple[tuple[str, int], ...]) -> RegisterLayout:
    """Layout of a k-wise test on an oracle with (A, B1..Bn) registers."""
    s_regs = tuple((f"S{i}", 2) for i in range(1, len(registers)))
    return RegisterLayout(s_regs + registers)


def kwise_instance(oracle: PurifiedOracle, k: int
                   ) -> tuple[RegisterLayout, QuantumOp, dict[str, int]]:
    """Layout, unitary, and projector map for a k-wise uniformity test."""
    fixed = {name: 0 for name, _ in oracle.registers}
    return kwise_layout(oracle.registers), kwise_encoder(oracle, k), fixed
