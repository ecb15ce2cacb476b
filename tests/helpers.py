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
