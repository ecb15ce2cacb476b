"""Instrumented purified query-access oracles and the encoding unitaries.

A purified oracle for a distribution p is a unitary U_p with

    U_p |0>_A |0>_B = sum_i sqrt(p_i) |phi_i>_A |i>_B,

where the garbage states {|phi_i>} are orthonormal but otherwise arbitrary;
algorithms built on the oracle must not depend on their choice.  Purified
access is built only by :func:`make_purified_oracle`, with one of two garbage
styles ("basis": |phi_i> = |i>; "haar": columns of a Haar-random unitary,
:func:`haar_unitary`, a product of Householder reflections of Gaussian
vectors drawn from the seeded uniforms of :mod:`qdtest.seeding`).
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

Every copy (B into the workspace A inside the oracle, B into C in the
probability encoder) is one copy by addition modulo the sample-space size,
:class:`~qdtest.statevec.CopyOp`, which is defined for any size, so no
sample space is padded.

Register names are fixed, one register per role, and every layout is
built from sizes alone (:func:`oracle_layout`, :func:`encoder_layout`,
:func:`closeness_layout`, :func:`kwise_layout`).  A layout lists, in this
order: the subset register S (k-wise tests only), the workspace A, the
sample register B, the copy register C that mirrors B, and the closeness
ancilla qubit D.  A, B and C all have the sample-space size d (2^n on a
bitstring space).  S has one value per subset of size at most k: index 0
is the empty set, then the masks of
:func:`~qdtest.reference.subset_masks` in increasing order.
"""
from __future__ import annotations

import math

import numpy as np

from .distributions import BITSTRING, Distribution
from .record import Record
from .reference import binom_sum, character_values, subset_masks
from .seeding import trial_uniforms
from .statevec import (ControlledOp, CopyOp, InverseOp, MatrixOp, QuantumOp, RegisterLayout,
                       ReflectionOp, SequenceOp, SignOp, hadamard, pauli_x)

GARBAGE_STYLES = ("basis", "haar")


def haar_unitary(dim: int, seed: int) -> np.ndarray:
    """Haar-random unitary: a product of ``dim`` Householder reflections of
    fresh complex Gaussian vectors.  With u = ``trial_uniforms(seed,
    dim (dim + 1))``, Gaussian k is sqrt(-log(1 - u[2k])) exp(2 pi i u[2k+1]).

    For j from dim - 1 down to 0, x is the next dim - j Gaussians,
    phi_j = e^{i arg x_0}, and v = x + phi_j ||x|| e_0 scaled to v_0 = 1;
    H_j = I - (2 / ||v||^2) v v^H acts on rows and columns j and below.
    Q = H_0 ... H_{dim-1} diag(-phi) has the law of the Q of a Gaussian
    matrix's QR with a positive diagonal in R (Stewart 1980, SIAM J. Numer.
    Anal. 17): after j Householder steps the rows j and below of column j
    are again i.i.d. Gaussian, by unitary invariance, and R's diagonal is
    -phi_j ||x||.  That QR is unique, so its Q is Haar (Mezzadri,
    math-ph/0609050).  Only ufuncs, reductions and ``einsum`` run, no BLAS
    or LAPACK call, so a Haar oracle maps no LAPACK code.
    """
    u = trial_uniforms(seed, dim * (dim + 1))
    z = np.sqrt(-np.log1p(-u[0::2])) * np.exp(2j * np.pi * u[1::2])
    qt = np.eye(dim, dtype=np.complex128)  # Q^T, so every reflection runs along rows
    phases = np.empty(dim, dtype=np.complex128)
    start = 0
    for j in reversed(range(dim)):
        x = z[start:start + dim - j]
        start += dim - j
        phases[j] = np.exp(1j * np.angle(x[0]))
        v = x / (x[0] + phases[j] * np.sqrt(np.sum(x.real ** 2 + x.imag ** 2)))
        v[0] = 1.0
        block = qt[j:, j:]  # the only part of Q^T that H_j changes
        block -= np.multiply.outer(np.einsum("ki,i->k", block, v.conj()),
                                   2.0 / np.sum(v.real ** 2 + v.imag ** 2) * v)
    return np.ascontiguousarray((qt * -phases[:, None]).T)


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


class PurifiedOracle(Record):
    """A labelled purified query-access unitary together with its
    distribution.  It acts on the workspace A and the sample register B of
    :func:`oracle_layout`.

    Read-only (:class:`~qdtest.record.Record`): two oracles are equal when
    their distributions and labels are; the unitary ``op`` takes no part in
    equality, hash or repr.
    """

    _fields = ("distribution", "label")

    def __init__(self, distribution: Distribution, label: str, op: QuantumOp):
        self._set(distribution=distribution, label=label, op=op)


def oracle_layout(size: int) -> RegisterLayout:
    """Workspace A, then sample register B, of the purified oracle of a
    distribution on ``size`` elements."""
    return RegisterLayout((("A", size), ("B", size)))


def make_purified_oracle(dist: Distribution, garbage: str = "basis", *,
                         seed: int | None = None, label: str = "p") -> PurifiedOracle:
    """Purified oracle for a distribution with the chosen garbage style.

    The construction prepares sqrt(p) on the sample register, copies it into
    the workspace, and (for haar garbage) scrambles the workspace with
    ``haar_unitary(size, seed)``, so haar garbage needs a seed.
    """
    prep = _prep_op(("B",), np.sqrt(dist.weights))
    steps: list[QuantumOp] = [] if prep is None else [prep]
    steps.append(CopyOp("B", "A"))
    if garbage == "haar":
        if seed is None:
            raise ValueError("haar garbage needs a seed")
        steps.append(MatrixOp(("A",), haar_unitary(dist.size, seed)))
    elif garbage != "basis":
        raise ValueError(f"unknown garbage style {garbage!r}")
    return PurifiedOracle(distribution=dist, label=label, op=SequenceOp(steps, label=label))


def probability_encoder(oracle: PurifiedOracle) -> QuantumOp:
    """U_p^dagger . copy(B->C) . U_p: reads the weights p_k into amplitudes.

    On |0>_A |0>_B |0>_C the (A=0, B=0, C=k) amplitude equals p_k for every k;
    each application costs one forward and one inverse oracle query.
    """
    return SequenceOp([oracle.op, CopyOp("B", "C"), InverseOp(oracle.op)])


def encoder_layout(size: int) -> RegisterLayout:
    """Layout of the probability encoder on a sample space of ``size`` elements."""
    return RegisterLayout((("A", size), ("B", size), ("C", size)))


def _require_same_space(op: PurifiedOracle, oq: PurifiedOracle) -> None:
    if op.distribution.kind != oq.distribution.kind:
        raise ValueError("oracles have different sample-space kinds")
    if op.distribution.size != oq.distribution.size:
        raise ValueError(
            f"oracles have different sample spaces "
            f"({op.distribution.size} vs {oq.distribution.size})")
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


def closeness_layout(size: int) -> RegisterLayout:
    """Layout of a closeness test on a sample space of ``size`` elements."""
    return RegisterLayout((("A", size), ("B", size), ("C", size), ("D", 2)))


def closeness_instance(op: PurifiedOracle, oq: PurifiedOracle
                       ) -> tuple[RegisterLayout, QuantumOp, dict[str, int]]:
    """Layout, unitary, and projector map for a closeness test of two oracles."""
    fixed = {"A": 0, "B": 0, "D": 0}
    return closeness_layout(op.distribution.size), closeness_unitary(op, oq), fixed


def subset_superposition(n: int, k: int) -> QuantumOp:
    """Unitary on the subset register S sending |0> (the empty set) to the
    uniform superposition over the non-empty subsets of size at most k."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    count = binom_sum(n, k)
    column = np.full(1 + count, 1.0 / math.sqrt(count))
    column[0] = 0.0
    return _prep_op(("S",), column)


def kwise_encoder(oracle: PurifiedOracle, k: int) -> QuantumOp:
    """Subset-phase circuit whose projected amplitudes are density Fourier
    coefficients.

    Prepares the subset superposition next to U_p, multiplies each (S, B)
    block by the character chi_S(x) = (-1)^popcount(S & x) (one sign
    table), and uncomputes the oracle.  The amplitude on (S, A=0, B=0) is
    phi_hat(S)/sqrt(M) for 1 <= |S| <= k and zero on the empty set, with M
    the number of subsets counted by binom_sum(n, k).  Each application
    costs one forward and one inverse oracle query.
    """
    if oracle.distribution.kind != BITSTRING:
        raise ValueError("k-wise encoding needs a bitstring sample space")
    n = oracle.distribution.n_bits
    prep = subset_superposition(n, k)  # checks 1 <= k <= n
    chi = character_values(n, subset_masks(n, k))
    return SequenceOp([prep, oracle.op, SignOp(("S", "B"), chi), InverseOp(oracle.op)])


def kwise_layout(n: int, k: int) -> RegisterLayout:
    """Layout of a k-wise test at ``k`` on n-bit strings."""
    return RegisterLayout((("S", 1 + binom_sum(n, k)), ("A", 2 ** n), ("B", 2 ** n)))


def kwise_instance(oracle: PurifiedOracle, k: int
                   ) -> tuple[RegisterLayout, QuantumOp, dict[str, int]]:
    """Layout, unitary, and projector map for a k-wise uniformity test."""
    encoder = kwise_encoder(oracle, k)  # checks the sample space and k
    return kwise_layout(oracle.distribution.n_bits, k), encoder, {"A": 0, "B": 0}
