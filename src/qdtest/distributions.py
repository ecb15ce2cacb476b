"""Finite probability distributions and their file formats.

Two sample-space kinds are supported:

* ``"range"`` — elements 0..n-1 (any n >= 1),
* ``"bitstring"`` — elements of {0,1}^n encoded as integers with coordinate 1
  as the most significant bit (n <= 20).

File formats (shared by the CLI and library loaders):

* JSON: ``{"kind": "range"|"bitstring", "n": int, "weights": [floats]}``
  where ``n`` is a JSON integer (not a float, bool or string): the number of
  elements for ``range`` (n >= 0) and the number of bits for ``bitstring``
  (0 <= n <= MAX_BITS), checked before the weight count 2^n is computed;
* CSV: lines ``index,weight`` with distinct 0-based indices covering 0..n-1
  (loaded as a ``range`` distribution): the least index must be 0 and the
  greatest the row count minus one, so no range up to a huge index is built.

Files are read as UTF-8; a leading byte-order mark, as in a spreadsheet's
CSV export, is skipped.

The generators :func:`uniform` and :func:`point_mass` need a size of at
least 1, and a point mass an element in 0..size-1.

Loaders reject a non-finite weight first, then renormalize weight sums within
1e-6 of one and reject anything further off; each load error names the file.
The constructor itself requires finite weights normalized within 1e-9, so a
NaN or infinite weight is rejected wherever a distribution is built.
"""
from __future__ import annotations

import io
import json
from pathlib import Path

import numpy as np

from .record import Record

RANGE = "range"
BITSTRING = "bitstring"

SUM_TOL = 1e-9
LOAD_SUM_TOL = 1e-6
MAX_BITS = 20


class DistributionError(ValueError):
    """Invalid weights, sample space, or file contents."""


class Distribution(Record):
    """Non-negative weight vector summing to one over a finite sample space.

    Read-only (:class:`~qdtest.record.Record`), over a read-only copy of the
    weights; two distributions are equal when their kinds and weights are.
    """

    _fields = ("weights", "kind")

    def __init__(self, weights: np.ndarray, kind: str = RANGE):
        w = np.array(weights, dtype=np.float64, copy=True)
        w.flags.writeable = False
        self._set(weights=w, kind=kind)
        if kind not in (RANGE, BITSTRING):
            raise DistributionError(f"unknown sample-space kind {kind!r}")
        if w.ndim != 1 or w.size < 1:
            raise DistributionError("weights must be a non-empty 1-d vector")
        if not np.all(np.isfinite(w)):
            raise DistributionError(f"non-finite weight {w[~np.isfinite(w)][0]}")
        if np.any(w < 0):
            raise DistributionError(f"negative weight {w.min()}")
        total = float(w.sum())
        if abs(total - 1.0) > SUM_TOL:
            raise DistributionError(f"weights sum to {total}, not 1")
        if kind == BITSTRING:
            n = self.n_bits
            if 2 ** n != w.size:
                raise DistributionError(
                    f"bitstring sample space needs a power-of-two size, got {w.size}")
            if n > MAX_BITS:
                raise DistributionError(f"bitstring space of {n} bits exceeds {MAX_BITS}")

    @property
    def size(self) -> int:
        return int(self.weights.size)

    @property
    def n_bits(self) -> int:
        if self.kind != BITSTRING:
            raise DistributionError("n_bits is only defined for bitstring sample spaces")
        return int(self.weights.size - 1).bit_length()

    def __eq__(self, other):
        return (isinstance(other, Distribution) and self.kind == other.kind
                and np.array_equal(self.weights, other.weights))

    def __hash__(self):
        return hash((self.kind, self.weights.tobytes()))


def next_pow2(n: int) -> int:
    return 1 << max(0, int(n - 1).bit_length())


def uniform(size: int, kind: str = RANGE) -> Distribution:
    if size < 1:
        raise DistributionError(f"need a size of at least 1, got {size}")
    return Distribution(np.full(size, 1.0 / size), kind)


def point_mass(size: int, element: int, kind: str = RANGE) -> Distribution:
    if not 0 <= element < size:
        raise DistributionError(f"need 0 <= element < size, got element {element}, size {size}")
    w = np.zeros(size)
    w[element] = 1.0
    return Distribution(w, kind)


def random_distribution(size: int, rng: np.random.Generator, kind: str = RANGE) -> Distribution:
    w = rng.random(size) + 1e-3
    return Distribution(w / w.sum(), kind)


def _loaded(weights: np.ndarray, kind: str, source: str) -> Distribution:
    if not np.all(np.isfinite(weights)):
        raise DistributionError(
            f"{source}: non-finite weight {weights[~np.isfinite(weights)][0]}")
    if np.any(weights < 0):
        raise DistributionError(f"{source}: negative weight")
    total = float(weights.sum())
    if abs(total - 1.0) > LOAD_SUM_TOL:
        raise DistributionError(f"{source}: weights sum to {total}, outside 1 +/- {LOAD_SUM_TOL}")
    try:
        return Distribution(weights / total, kind)
    except DistributionError as exc:  # a kind or shape the constructor refuses
        raise DistributionError(f"{source}: {exc}") from exc


def from_json(text: str, source: str = "<json>") -> Distribution:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DistributionError(f"{source}: invalid JSON ({exc})") from exc
    if not isinstance(obj, dict):
        raise DistributionError(f"{source}: expected a JSON object")
    try:
        kind, n = obj["kind"], obj["n"]
        weights = np.asarray(obj["weights"], dtype=np.float64)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DistributionError(f"{source}: need keys kind, n, weights ({exc})") from exc
    if not isinstance(n, int) or isinstance(n, bool):
        raise DistributionError(f"{source}: n must be an integer, got {n!r}")
    if n < 0:
        raise DistributionError(f"{source}: negative n={n}")
    if kind == BITSTRING and n > MAX_BITS:
        raise DistributionError(f"{source}: bitstring n={n} exceeds {MAX_BITS} bits")
    expected = 2 ** n if kind == BITSTRING else n
    if weights.size != expected:
        raise DistributionError(
            f"{source}: {weights.size} weights but n={n} implies {expected}")
    return _loaded(weights, kind, source)


def from_csv(text: str, source: str = "<csv>") -> Distribution:
    import csv  # on use: only CSV files need it, and a tester run may read none

    rows: dict[int, float] = {}
    try:
        for row in csv.reader(io.StringIO(text)):
            if not row or row[0].strip().startswith("#"):
                continue
            if row[0].strip().lower() == "index":
                continue
            idx, weight = int(row[0]), float(row[1])
            if idx in rows:
                raise DistributionError(f"{source}: duplicate index {idx}")
            rows[idx] = weight
    except (ValueError, IndexError) as exc:
        raise DistributionError(f"{source}: malformed CSV row ({exc})") from exc
    if not rows:
        raise DistributionError(f"{source}: no data rows")
    n = len(rows)  # distinct indices, so these two checks mean exactly 0..n-1
    if min(rows) < 0 or max(rows) != n - 1:
        raise DistributionError(f"{source}: indices must cover 0..{max(rows)}")
    weights = np.array([rows[i] for i in range(n)], dtype=np.float64)
    return _loaded(weights, RANGE, source)


def load(path: str | Path) -> Distribution:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")  # a byte-order mark is not data
    except UnicodeDecodeError as exc:
        raise DistributionError(f"{path}: not UTF-8 text ({exc})") from exc
    if path.suffix.lower() == ".csv":
        return from_csv(text, source=str(path))
    return from_json(text, source=str(path))
