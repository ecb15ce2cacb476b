"""Shared test fixtures: independent oracles, small instance builders, and
the one-run and one-report views that only tests read."""
from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import math
from collections import Counter

import numpy as np

from qdtest import statevec as sv
from qdtest.amplitude import estimate_from_phase
from qdtest.distributions import BITSTRING, Distribution
from qdtest.experiments import dump_report, oracle_query_totals
from qdtest.reference import lp_distance
from qdtest.testers import sample_plan

# The near side's projected mass: the encoders' rounding residue where the
# exact value is 0.  The testers' one-sided error needs it far below any
# threshold; with basis garbage the closeness encoder cancels exactly.
NEAR_SIDE_RESIDUE = 1e-31


def trial_rng(seed: int, index: int) -> np.random.Generator:
    """Trial ``index``'s stream: the trials of a seed measure their phases
    from this generator's first ``random()``."""
    return np.random.default_rng([seed, index])


def run_plan(plan, rng: np.random.Generator):
    """One run of a plan: one estimation run on ``rng.random()``, one
    threshold comparison."""
    return sample_plan(plan, [rng.random()])[0]


def majority(runs):
    """The first run that carries the most frequent verdict: the reference
    that ``Trials.vote`` is checked against.

    A tie goes to the verdict seen first; an odd number of runs of a
    two-label tester has none.
    """
    winner = Counter(v.verdict for v in runs).most_common(1)[0][0]
    return next(v for v in runs if v.verdict == winner)


def report_text(report: dict, fmt: str) -> str:
    """The text ``dump_report`` writes to standard output for the report."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        dump_report(report, None, fmt)
    return out.getvalue()


def to_json(dist: Distribution) -> str:
    """The distribution in the JSON file format that ``distributions.load``
    reads."""
    n = dist.n_bits if dist.kind == BITSTRING else dist.size
    return json.dumps({"kind": dist.kind, "n": n, "weights": dist.weights.tolist()})


def tv_distance(p: Distribution, q: Distribution) -> float:
    """Total variation distance: half the l1 distance."""
    return 0.5 * lp_distance(p, q, 1)


def hellinger_distance(p: Distribution, q: Distribution) -> float:
    """sqrt((1/2) sum_i (sqrt(p_i) - sqrt(q_i))^2)."""
    return float(np.sqrt(0.5 * np.sum((np.sqrt(p.weights) - np.sqrt(q.weights)) ** 2)))


def register_values(layout, index: int) -> dict[str, int]:
    """Inverse of ``layout.basis_index``: per-register values of a flat index."""
    return {n: (index // s) % d for n, d, s in zip(layout.names, layout.dims, layout.strides)}


def basis_state(layout, values: dict[str, int]):
    """The basis state with the given register values, every other register
    at 0."""
    state = sv.StateVector(layout)
    state.amplitudes[layout.basis_index(values)] = 1.0
    return state


def rotation_system(p: float):
    """Single-qubit unitary with projected mass exactly p on |1>."""
    theta = math.asin(math.sqrt(p))
    mat = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]])
    layout = sv.RegisterLayout([("Q", 2)])
    return sv.SequenceOp([sv.MatrixOp(("Q",), mat)], label="U"), layout, {"Q": 1}


def estimates(dist, uniforms) -> list[float]:
    """One estimation run per uniform: the estimate sin^2(pi y / M) of the
    phase y that ``dist`` measures on it."""
    return [estimate_from_phase(y, dist.points) for y in dist.phases(uniforms).tolist()]


def parity_set_distribution(n: int) -> Distribution:
    """Uniform over the even-parity strings: (n-1)-wise uniform, not uniform."""
    weights = np.zeros(2 ** n)
    for x in range(2 ** n):
        if bin(x).count("1") % 2 == 0:
            weights[x] = 1.0
    return Distribution(weights / weights.sum(), BITSTRING)


@functools.lru_cache(maxsize=None)
def character_table(n: int) -> np.ndarray:
    """chi_S(x) = (-1)^popcount(S & x) for every subset mask S (rows) and
    string x (columns), from ``bin`` popcounts one entry at a time."""
    xs = range(2 ** n)
    table = np.array([[1.0 - 2.0 * (bin(s & x).count("1") % 2) for x in xs] for s in xs])
    table.flags.writeable = False
    return table


def fourier_coefficient(dist: Distribution, mask: int) -> float:
    """Density Fourier coefficient phi_hat(S) = 2^-n sum_x phi(x) chi_S(x)
    = sum_x p_x chi_S(x), by direct summation: the brute-force oracle for
    ``reference.fourier_spectrum``."""
    return float(np.dot(dist.weights, character_table(dist.n_bits)[mask]))


def marginals_uniform(dist: Distribution, k: int, tol: float = 1e-9) -> bool:
    """Whether every k-coordinate marginal assigns 2^-k to every pattern,
    walking all C(n, k) marginals: the brute-force oracle for
    ``reference.is_kwise_uniform``."""
    n = dist.n_bits
    cube = dist.weights.reshape([2] * n)
    for axes in itertools.combinations(range(n), k):
        other = tuple(a for a in range(n) if a not in axes)
        marginal = cube.sum(axis=other) if other else cube
        if np.abs(marginal - 0.5 ** k).max() > tol:
            return False
    return True


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
    with :func:`register_values` and ``layout.basis_index`` only.
    """
    dims = [layout.dim_of(r) for r in regs]
    joint = [dict(zip(regs, map(int, np.unravel_index(k, dims))))
             for k in range(math.prod(dims))]
    offsets = np.array([layout.basis_index(values) for values in joint], dtype=np.int64)
    out = np.zeros_like(amps)
    for i in range(layout.total_dim):
        values = register_values(layout, i)
        if any(values[name] != value for name, value in controls):
            out[i] += amps[i]
            continue
        j = int(np.ravel_multi_index([values[r] for r in regs], dims))
        base = layout.basis_index({n: v for n, v in values.items() if n not in regs})
        out[base + offsets] += local[:, j] * amps[i]
    return out


def reference_verdict_rows(verdicts) -> list[dict]:
    """A verdict report's rows, built one dict per trial."""
    return [{"trial": i, "verdict": v.verdict, "statistic": v.statistic,
             **oracle_query_totals(v.queries)} for i, v in enumerate(verdicts)]


def reference_estimate_rows(verdicts, true_value) -> list[dict]:
    """An estimate report's rows, built one dict per trial."""
    rows = []
    for i, v in enumerate(verdicts):
        estimate = 2.0 * math.sqrt(v.statistic)
        rows.append({"trial": i, "estimate": estimate, "statistic": v.statistic,
                     "true_value": true_value, "error": abs(estimate - true_value),
                     **oracle_query_totals(v.queries)})
    return rows


def reference_csv(report: dict) -> str:
    """The report's CSV, written one row at a time: header, one line per
    row, then a summary row."""
    def fmt(value) -> str:
        return repr(value) if isinstance(value, float) else str(value)

    rows = list(report["rows"])
    columns = list(rows[0]) if rows else []
    lines = [f"# schema_version={report['schema_version']} command={report['command']}",
             ",".join(columns)]
    for row in rows:
        lines.append(",".join(fmt(row.get(c, "")) for c in columns))
    pairs = []
    for key, val in report["summary"].items():
        if isinstance(val, dict):
            pairs.extend(f"{key}.{k}={fmt(v)}" for k, v in val.items())
        else:
            pairs.append(f"{key}={fmt(val)}")
    lines.append("summary," + ";".join(pairs))
    return "\n".join(lines) + "\n"
