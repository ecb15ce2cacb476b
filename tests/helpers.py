"""Shared test fixtures: independent oracles and small instance builders."""
from __future__ import annotations

import math

import numpy as np

from qdtest import statevec as sv
from qdtest.distributions import BITSTRING, Distribution


def rotation_system(p: float):
    """Single-qubit unitary with projected mass exactly p on |1>."""
    theta = math.asin(math.sqrt(p))
    mat = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]])
    layout = sv.RegisterLayout([("Q", 2)])
    return sv.MatrixOp(("Q",), mat, label="U"), layout, sv.Projector({"Q": 1})


def parity_set_distribution(n: int) -> Distribution:
    """Uniform over the even-parity strings: (n-1)-wise uniform, not uniform."""
    weights = np.zeros(2 ** n)
    for x in range(2 ** n):
        if bin(x).count("1") % 2 == 0:
            weights[x] = 1.0
    return Distribution(weights / weights.sum(), BITSTRING)


def random_bitstring_distribution(n: int, rng: np.random.Generator) -> Distribution:
    w = rng.random(2 ** n) + 0.05
    return Distribution(w / w.sum(), BITSTRING)


def haar_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return z / np.linalg.norm(z)


def reference_apply(layout, amps: np.ndarray, regs, local: np.ndarray,
                    controls=()) -> np.ndarray:
    """Amplitudes after ``local`` acts on the joint value of ``regs`` (first
    register most significant) wherever every (register, value) pair in
    ``controls`` holds, and as the identity elsewhere.

    An independent oracle for the engine's kernels: it walks the flat indices
    with ``layout.register_values`` and ``layout.basis_index`` only.
    """
    dims = [layout.dim_of(r) for r in regs]
    joint = [dict(zip(regs, map(int, np.unravel_index(k, dims))))
             for k in range(math.prod(dims))]
    offsets = np.array([layout.basis_index(values) for values in joint], dtype=np.int64)
    out = np.zeros_like(amps)
    for i in range(layout.total_dim):
        values = layout.register_values(i)
        if any(values[name] != value for name, value in controls):
            out[i] += amps[i]
            continue
        j = int(np.ravel_multi_index([values[r] for r in regs], dims))
        base = layout.basis_index({n: v for n, v in values.items() if n not in regs})
        out[base + offsets] += local[:, j] * amps[i]
    return out
