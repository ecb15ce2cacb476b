"""Experiment command line.

Subcommands:

* ``test-closeness`` — run a closeness tester (l2, tolerant-l2, or l1) on two
  distributions for a number of seeded trials;
* ``test-kwise``     — run the k-wise uniformity tester;
* ``estimate``       — run the l2-distance estimator;
* ``sweep``          — grid over eps and/or n, with an optional SVG plot;
  each point is one run of ``test-closeness`` (l2, l1) or ``test-kwise``
  (spike instance) at ``--repeats 1``, and its row of budget, success
  frequency and mean queries is read from that run's summary;
* ``selfcheck``      — run the built-in invariant suites.

Instances come from distribution files (``--dist`` / ``--dist2``; JSON or CSV,
formats in :mod:`qdtest.distributions`) or named generators (``--gen``), not
both:

* closeness pairs: ``l2-pair[:d]`` (two-point pair at l2 distance d/sqrt(2),
  default d = sqrt(2) * eps so the pair sits exactly at distance eps),
  ``l1-pair[:d]`` (alternating pair at l1 distance d, default eps),
  ``identical`` (uniform twice), ``disjoint`` (point masses on 0 and 1);
* k-wise instances: ``uniform``, ``spike:COORDS:delta`` (density
  1 + delta*chi_T, COORDS like ``1,2``), ``multiset[:Q]`` (uniform over Q
  random strings, default 2^(n-1), drawn from the run seed).

A spec with more or fewer fields than its generator reads, or with a field
that is not a number, is refused with a message that names the spec.

Exit codes: 0 success, 1 selfcheck failure, 2 usage or input error, a
report that cannot be written (a closed or broken standard output
included), or memory running out past the pre-flight.
Reports are byte-identical for identical arguments and seed.

Each report subcommand is one function from its arguments to its report,
picked by the parser; :func:`main` alone checks what every run shares
(``--seed``, ``--repeats`` and the trials' memory) and then writes the report,
once.  ``sweep`` writes its ``--plot`` before it returns its report, so a
plot that fails leaves no report behind.  An instance's size is checked
before it sizes a layout for the memory pre-flight, and a ``--dist`` /
``--dist2`` pair of different sample spaces is refused before either.
:mod:`qdtest.selfcheck` and :mod:`qdtest.plotting` are imported on use, in
the ``selfcheck`` and ``--plot`` branches, as is the CSV reader in
:func:`qdtest.distributions.from_csv`, so importing this module loads
nothing that a tester run does not read.  Trials stay arrays from
sampling to report: each run gets them as one
:class:`~qdtest.testers.Trials` (the distinct verdicts plus an index array)
and votes ``--repeats`` on that index.  ``python -m qdtest.cli`` and the
``qdtest`` console script start in :func:`entry`, which moves every object
that imports made into the garbage collector's permanent generation
(``gc.freeze``) before it runs :func:`main`, so neither the collections
during a run nor the ones at interpreter exit walk those objects again.
:func:`main` itself freezes nothing, so in-process callers keep their
collector as it was.
"""
from __future__ import annotations

import argparse
import gc
import math
import sys

import numpy as np

from . import distributions as dists
from . import experiments as exp
from . import oracles as orc
from . import reference as ref
from .distributions import Distribution, DistributionError
from .statevec import require_bytes, require_memory
from .testers import (Trials, check_eps, closeness_plan, estimator_plan, kwise_plan,
                      l1_plan)

_CLOSENESS_TESTERS = ("l2", "tolerant-l2", "l1")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qdtest",
                                     description="Quantum distribution-tester experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    def run_options(p, report, trials=100):
        p.add_argument("--eps", type=float, default=0.2, help="test accuracy parameter")
        p.add_argument("--trials", type=int, default=trials)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--garbage", choices=orc.GARBAGE_STYLES, default="basis")
        p.add_argument("--out", help="write the report to this file")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.set_defaults(report=report)

    def common(p, report, kwise=False):
        run_options(p, report)
        p.add_argument("--gen", help="named instance generator (see --help)")
        p.add_argument("--dist", help="distribution file (JSON or CSV)")
        if kwise:
            p.add_argument("--k", type=int, default=2)
            p.add_argument("--n", type=int, default=4, help="bits of the sample space")
        else:
            p.add_argument("--n", type=int, default=8, help="sample-space size")

    pc = sub.add_parser("test-closeness", help="closeness tester on two distributions")
    common(pc, _closeness_report)
    pc.add_argument("--tester", choices=_CLOSENESS_TESTERS, default="l2")
    pc.add_argument("--nu", type=float, default=0.5,
                    help="tolerance split (tolerant-l2 and l1)")
    pc.add_argument("--dist2", help="second distribution file")

    pk = sub.add_parser("test-kwise", help="k-wise uniformity tester")
    common(pk, _kwise_report, kwise=True)
    for p in (pc, pk):
        p.add_argument("--repeats", type=int, default=1,
                       help="odd repeat-and-majority votes per trial")

    pe = sub.add_parser("estimate", help="l2-distance estimator")
    common(pe, _estimate_report)
    pe.add_argument("--dist2", help="second distribution file")

    ps = sub.add_parser("sweep", help="parameter sweep with query counts")
    run_options(ps, _sweep_report, trials=50)
    ps.add_argument("--tester", choices=("l2", "l1", "kwise"), default="l2")
    ps.add_argument("--eps-grid", help="comma-separated eps values")
    ps.add_argument("--n-grid", help="comma-separated sample sizes (bits for kwise)")
    ps.add_argument("--n", type=int, default=8)
    ps.add_argument("--k", type=int, default=2)
    ps.add_argument("--nu", type=float, default=0.5)
    ps.add_argument("--delta", type=float, default=0.6, help="spike weight for kwise instances")
    ps.add_argument("--plot", help="write an SVG of queries vs 1/eps (or vs n)")

    sub.add_parser("selfcheck", help="run the built-in invariant suites")
    return parser


# --- instance construction -----------------------------------------------------

# each generator's ``--gen`` form: a field per ":", the ones in brackets optional
_CLOSENESS_GENS = {"l2-pair": "l2-pair[:d]", "l1-pair": "l1-pair[:d]",
                   "identical": "identical", "disjoint": "disjoint"}
_KWISE_GENS = {"uniform": "uniform", "spike": "spike:COORDS:delta", "multiset": "multiset[:Q]"}


def _gen_args(spec: str, forms: dict[str, str], kind: str) -> tuple[str, list[str]]:
    """Name and fields of a ``--gen`` spec, refused unless ``forms`` has the
    name and its form reads exactly that many fields."""
    name, colon, rest = spec.partition(":")
    if name not in forms:
        raise DistributionError(f"unknown {kind} generator {spec!r}")
    fields = rest.split(":") if colon else []
    form = forms[name]
    if not form.partition("[")[0].count(":") <= len(fields) <= form.count(":"):
        raise DistributionError(f"--gen {spec!r}: expected {form}")
    return name, fields


def _gen_number(spec: str, field: str, kind: type):
    """One numeric field of a ``--gen`` spec, or an error that names the spec."""
    try:
        return kind(field)
    except ValueError as exc:
        raise DistributionError(f"--gen {spec!r}: {exc}") from None


def _closeness_pair(args) -> tuple[Distribution, Distribution]:
    if args.gen and (args.dist or args.dist2):
        raise DistributionError("--gen and --dist/--dist2 exclude each other")
    if args.gen:
        name, extra = _gen_args(args.gen, _CLOSENESS_GENS, "closeness")
        n = args.n
        if n < 1:
            raise DistributionError(f"--n must be positive, got {n}")
        require_memory(orc.closeness_layout(n))  # before a generator allocates n weights
        if name == "l2-pair":
            d = (_gen_number(args.gen, extra[0], float) if extra
                 else min(1.0, math.sqrt(2.0) * args.eps))
            return ref.gen_l2_pair(n, d)
        if name == "l1-pair":
            d = _gen_number(args.gen, extra[0], float) if extra else args.eps
            return ref.gen_l1_pair(n, d)
        if name == "identical":
            u = dists.uniform(n)
            return u, u
        # disjoint: _gen_args admits no other name
        if n < 2:
            raise DistributionError(f"disjoint generator needs --n >= 2, got {n}")
        return dists.point_mass(n, 0), dists.point_mass(n, 1)
    if not args.dist or not args.dist2:
        raise DistributionError("need --dist and --dist2, or --gen")
    p, q = dists.load(args.dist), dists.load(args.dist2)
    if (p.kind, p.size) != (q.kind, q.size):  # before a layout or an oracle is sized
        raise DistributionError(f"--dist and --dist2 have different sample spaces "
                                f"({p.kind} of {p.size} vs {q.kind} of {q.size})")
    require_memory(orc.closeness_layout(p.size))
    return p, q


def _kwise_dist(args) -> Distribution:
    if args.gen and args.dist:
        raise DistributionError("--gen and --dist exclude each other")
    if args.gen:
        name, extra = _gen_args(args.gen, _KWISE_GENS, "k-wise")
        n = args.n
        if not 1 <= n <= dists.MAX_BITS:  # before a generator allocates 2^n weights
            raise DistributionError(f"--n must be 1..{dists.MAX_BITS} bits, got {n}")
        if name == "uniform":
            return dists.uniform(2 ** n, dists.BITSTRING)
        if name == "spike":
            coords = [_gen_number(args.gen, c, int) for c in extra[0].split(",")]
            delta = _gen_number(args.gen, extra[1], float)
            return ref.gen_fourier_spike(n, ref.mask_from_coords(n, coords), delta)
        # multiset: _gen_args admits no other name
        count = _gen_number(args.gen, extra[0], int) if extra else 2 ** (n - 1)
        require_bytes(count * 8, f"a multiset of {count} strings")  # int64 draws
        return ref.gen_random_multiset_uniform(
            n, count, np.random.default_rng([args.seed, 0xA11CE]))
    if not args.dist:
        raise DistributionError("need --dist or --gen")
    dist = dists.load(args.dist)
    if dist.kind != dists.BITSTRING:
        raise DistributionError(f"{args.dist}: k-wise testing needs a bitstring distribution")
    return dist


def _oracle_pair(p, q, args):
    op = orc.make_purified_oracle(p, args.garbage, seed=args.seed * 2 + 1, label="p")
    oq = orc.make_purified_oracle(q, args.garbage, seed=args.seed * 2 + 2, label="q")
    return op, oq


def _check_k(k: int, n: int) -> None:
    if not 1 <= k <= n:
        raise DistributionError(f"k={k} out of range for n={n}")


def _voted_trials(plan, args) -> Trials:
    """``args.trials`` trials, each the majority of ``args.repeats`` runs."""
    return exp.run_trials(plan, args.trials * args.repeats, args.seed).vote(args.repeats)


def _at_least(value: float, bound: float) -> bool:
    """``value >= bound``, up to rounding: a generator that places an
    instance at distance eps may compute that distance a little short of it.
    Weights lie in [0, 1], so their differences carry an absolute rounding
    error of a few machine epsilons, which the slack covers at any eps."""
    return value >= bound or math.isclose(value, bound, abs_tol=4 * sys.float_info.epsilon)


# --- subcommands -----------------------------------------------------------------

def _closeness_report(args) -> dict:
    """One test-closeness run, from checks to verdict report; plain l2 runs
    at nu = 1/2, tolerant-l2 and l1 at ``args.nu``."""
    check_eps(args.eps)  # before a generator places a pair at a distance from it
    p, q = _closeness_pair(args)
    nu = 0.5 if args.tester == "l2" else args.nu
    build = l1_plan if args.tester == "l1" else closeness_plan
    plan = build(*_oracle_pair(p, q, args), args.eps, nu)

    l2 = ref.lp_distance(p, q, 2)
    norm, distance = "l2", l2
    if args.tester == "l1":
        norm, distance = "l1", ref.lp_distance(p, q, 1)
        promise_ok = distance == 0.0 or _at_least(distance, args.eps)
    elif args.tester == "tolerant-l2":
        promise_ok = _at_least((1 - nu) * args.eps, l2) or _at_least(l2, args.eps)
    else:
        promise_ok = l2 == 0.0 or _at_least(l2, args.eps)
    if not promise_ok:
        print(f"warning: instance violates the promise ({norm} distance {distance!r})",
              file=sys.stderr)

    trials = _voted_trials(plan, args)
    params = {"tester": args.tester, "eps": args.eps, "nu": nu, "n": p.size,
              "garbage": args.garbage, "seed": args.seed, "trials": args.trials,
              "repeats": args.repeats}
    return exp.verdict_report("test-closeness", params, trials,
                              {"l2_distance": l2, "promise_ok": promise_ok})


def _kwise_report(args) -> dict:
    """One test-kwise run, from checks to verdict report."""
    check_eps(args.eps)
    dist = _kwise_dist(args)
    n = dist.n_bits
    _check_k(args.k, n)
    require_memory(orc.kwise_layout(n, args.k))
    oracle = orc.make_purified_oracle(dist, args.garbage, seed=args.seed * 2 + 1, label="p")
    plan = kwise_plan(oracle, args.k, args.eps)

    weight = ref.fourier_weight(dist, args.k)
    uniform_side = ref.is_kwise_uniform(dist, args.k)
    if not uniform_side and math.sqrt(weight) <= args.eps / math.exp(args.k):
        print("warning: instance may violate the promise "
              f"(Fourier weight {weight!r} below the far bound)", file=sys.stderr)

    trials = _voted_trials(plan, args)
    params = {"eps": args.eps, "k": args.k, "n": n, "garbage": args.garbage,
              "seed": args.seed, "trials": args.trials, "repeats": args.repeats}
    return exp.verdict_report("test-kwise", params, trials,
                              {"fourier_weight": weight, "kwise_uniform": uniform_side})


def _estimate_report(args) -> dict:
    """One estimate run, from checks to estimate report."""
    check_eps(args.eps)
    p, q = _closeness_pair(args)
    plan = estimator_plan(*_oracle_pair(p, q, args), args.eps)
    trials = exp.run_trials(plan, args.trials, args.seed)
    params = {"eps": args.eps, "n": p.size, "garbage": args.garbage,
              "seed": args.seed, "trials": args.trials}
    return exp.estimate_report("estimate", params, trials, ref.lp_distance(p, q, 2))


def _sweep_grid(args) -> list[tuple[float, int]]:
    eps_grid = ([float(v) for v in args.eps_grid.split(",") if v.strip()]
                if args.eps_grid is not None else [args.eps])
    n_grid = ([int(v) for v in args.n_grid.split(",") if v.strip()]
              if args.n_grid is not None else [args.n])
    if not eps_grid or not n_grid:
        raise DistributionError("empty sweep grid")
    for eps in eps_grid:
        check_eps(eps)
    return [(eps, n) for n in n_grid for eps in eps_grid]


def _sweep_report(args) -> dict:
    """One run per grid point, each row read from that run's report; the
    ``--plot`` SVG is written before the report is returned."""
    if args.tester == "kwise":
        coords = ",".join(str(c) for c in range(1, args.k + 1))
        run, gen, far = _kwise_report, f"spike:{coords}:{args.delta!r}", "NO"
    else:
        run, gen, far = _closeness_report, f"{args.tester}-pair", "FAR"
    points = []
    for eps, n in _sweep_grid(args):
        if args.tester == "kwise":
            _check_k(args.k, n)  # before the spike on coordinates 1..k
        report = run(argparse.Namespace(**{**vars(args), "eps": eps, "n": n, "gen": gen,
                                           "repeats": 1, "dist": None, "dist2": None}))
        summary = report["summary"]
        totals = {c: summary[f"mean_{c}"] for c in exp.ORACLE_QUERY_COLUMNS}
        points.append({"eps": eps, "n": n, "k": args.k if args.tester == "kwise" else "",
                       "budget_t": summary["t"],
                       "success_freq": summary["frequencies"].get(far, 0.0),
                       "mean_queries_total": sum(totals.values()), **totals})

    # a kwise run records no nu; its sweep keeps --nu
    params = {"tester": args.tester, "trials": args.trials, "seed": args.seed,
              "nu": report["params"].get("nu", args.nu), "k": args.k,
              "delta": args.delta, "garbage": args.garbage}
    if args.plot:
        if args.eps_grid and len(set(p["eps"] for p in points)) > 1:
            xs = [1.0 / p["eps"] for p in points]
            xlabel = "1/eps"
        else:
            xs = [float(p["n"]) for p in points]
            xlabel = "n"
        ys = [p["mean_queries_total"] for p in points]
        from . import plotting

        plotting.write_line_plot(args.plot, xs, ys, xlabel, "mean oracle queries",
                                 f"{args.tester} tester query cost")
    return exp.sweep_report("sweep", params, points)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "selfcheck":
            from .selfcheck import run_selfcheck

            return run_selfcheck()
        if args.seed < 0:
            raise ValueError("--seed must be non-negative")
        repeats = getattr(args, "repeats", 1)
        if repeats < 1 or repeats % 2 == 0:
            raise ValueError("--repeats must be odd and positive")
        exp.require_trial_memory(args.trials * repeats)
        exp.dump_report(args.report(args), args.out, args.format)
        return 0
    except (DistributionError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # past the pre-flight: a limit it cannot see
        print(f"error: out of memory ({str(exc) or 'no details'})", file=sys.stderr)
        return 2


def entry() -> int:
    """Entry point of ``python -m qdtest.cli`` and the ``qdtest`` script:
    :func:`main` on ``sys.argv``, after freezing the import-time heap."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(entry())
