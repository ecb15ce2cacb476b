"""Experiment command line.

Subcommands:

* ``test-closeness`` — run a closeness tester (l2, tolerant-l2, or l1) on two
  distributions for a number of seeded trials;
* ``test-kwise``     — run the k-wise uniformity tester;
* ``estimate``       — run the l2-distance estimator;
* ``sweep``          — grid over eps and/or n, reporting mean queries and
  success frequency per point, with an optional SVG plot;
* ``selfcheck``      — run the built-in invariant suites.

Instances come from distribution files (``--dist`` / ``--dist2``; JSON or CSV,
formats in :mod:`qdtest.distributions`) or named generators (``--gen``):

* closeness pairs: ``l2-pair[:d]`` (two-point pair at l2 distance d/sqrt(2),
  default d = sqrt(2) * eps so the pair sits exactly at distance eps),
  ``l1-pair[:d]`` (alternating pair at l1 distance d, default eps),
  ``identical`` (uniform twice), ``disjoint`` (two disjoint point masses);
* k-wise instances: ``uniform``, ``spike:COORDS:delta`` (density
  1 + delta*chi_T, COORDS like ``1,2``), ``multiset:Q`` (uniform over Q
  random strings, drawn from the run seed).

Exit codes: 0 success, 1 selfcheck failure, 2 usage or input error.
Reports are byte-identical for identical arguments and seed.
"""
from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import distributions as dists
from . import experiments as exp
from . import oracles as orc
from . import plotting
from . import reference as ref
from .distributions import Distribution, DistributionError
from .selfcheck import run_selfcheck
from .testers import closeness_plan, estimator_plan, kwise_plan, l1_plan, majority

_CLOSENESS_TESTERS = ("l2", "tolerant-l2", "l1")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qdtest",
                                     description="Quantum distribution-tester experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, kwise=False):
        p.add_argument("--eps", type=float, default=0.2, help="test accuracy parameter")
        p.add_argument("--trials", type=int, default=100)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--garbage", choices=orc.GARBAGE_STYLES, default="basis")
        p.add_argument("--gen", help="named instance generator (see --help)")
        p.add_argument("--dist", help="distribution file (JSON or CSV)")
        p.add_argument("--out", help="write the report to this file")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        if kwise:
            p.add_argument("--k", type=int, default=2)
            p.add_argument("--n", type=int, default=4, help="bits of the sample space")
        else:
            p.add_argument("--n", type=int, default=8, help="sample-space size")

    pc = sub.add_parser("test-closeness", help="closeness tester on two distributions")
    common(pc)
    pc.add_argument("--tester", choices=_CLOSENESS_TESTERS, default="l2")
    pc.add_argument("--nu", type=float, default=0.5, help="tolerance split (tolerant-l2)")
    pc.add_argument("--dist2", help="second distribution file")
    pc.set_defaults(func=cmd_test_closeness)

    pk = sub.add_parser("test-kwise", help="k-wise uniformity tester")
    common(pk, kwise=True)
    pk.set_defaults(func=cmd_test_kwise)
    for p in (pc, pk):
        p.add_argument("--repeats", type=int, default=1,
                       help="odd repeat-and-majority votes per trial")

    pe = sub.add_parser("estimate", help="l2-distance estimator")
    common(pe)
    pe.add_argument("--dist2", help="second distribution file")
    pe.set_defaults(func=cmd_estimate)

    ps = sub.add_parser("sweep", help="parameter sweep with query counts")
    ps.add_argument("--tester", choices=("l2", "l1", "kwise"), default="l2")
    ps.add_argument("--eps-grid", help="comma-separated eps values")
    ps.add_argument("--n-grid", help="comma-separated sample sizes (bits for kwise)")
    ps.add_argument("--eps", type=float, default=0.2)
    ps.add_argument("--n", type=int, default=8)
    ps.add_argument("--k", type=int, default=2)
    ps.add_argument("--nu", type=float, default=0.5)
    ps.add_argument("--delta", type=float, default=0.6, help="spike weight for kwise instances")
    ps.add_argument("--trials", type=int, default=50)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--garbage", choices=orc.GARBAGE_STYLES, default="basis")
    ps.add_argument("--out", help="write the report to this file")
    ps.add_argument("--format", choices=("csv", "json"), default="csv")
    ps.add_argument("--plot", help="write an SVG of queries vs 1/eps (or vs n)")
    ps.set_defaults(func=cmd_sweep)

    pf = sub.add_parser("selfcheck", help="run the built-in invariant suites")
    pf.set_defaults(func=lambda args: run_selfcheck())
    return parser


# --- instance construction -----------------------------------------------------

def _gen_args(spec: str) -> tuple[str, list[str]]:
    name, _, rest = spec.partition(":")
    return name, rest.split(":") if rest else []


def _closeness_pair(args) -> tuple[Distribution, Distribution]:
    if args.gen:
        name, extra = _gen_args(args.gen)
        n = args.n
        if name == "l2-pair":
            d = float(extra[0]) if extra else min(1.0, math.sqrt(2.0) * args.eps)
            return ref.gen_l2_pair(n, d)
        if name == "l1-pair":
            d = float(extra[0]) if extra else args.eps
            return ref.gen_l1_pair(n, d)
        if name == "identical":
            u = dists.uniform(n)
            return u, u
        if name == "disjoint":
            return dists.point_mass(n, 0), dists.point_mass(n, 1 % n)
        raise DistributionError(f"unknown closeness generator {args.gen!r}")
    if not args.dist or not args.dist2:
        raise DistributionError("need --dist and --dist2, or --gen")
    return dists.load(args.dist), dists.load(args.dist2)


def _kwise_dist(args) -> Distribution:
    if args.gen:
        name, extra = _gen_args(args.gen)
        n = args.n
        if name == "uniform":
            return dists.uniform(2 ** n, dists.BITSTRING)
        if name == "spike":
            if len(extra) != 2:
                raise DistributionError("spike generator needs spike:COORDS:delta")
            coords = [int(c) for c in extra[0].split(",")]
            return ref.gen_fourier_spike(n, ref.mask_from_coords(n, coords), float(extra[1]))
        if name == "multiset":
            count = int(extra[0]) if extra else 2 ** (n - 1)
            return ref.gen_random_multiset_uniform(
                n, count, np.random.default_rng([args.seed, 0xA11CE]))
        raise DistributionError(f"unknown k-wise generator {args.gen!r}")
    if not args.dist:
        raise DistributionError("need --dist or --gen")
    dist = dists.load(args.dist)
    if dist.kind != dists.BITSTRING:
        raise DistributionError("k-wise testing needs a bitstring distribution")
    return dist


def _oracle_pair(p, q, args):
    op = orc.make_purified_oracle(p, args.garbage, seed=args.seed * 2 + 1, label="p")
    oq = orc.make_purified_oracle(q, args.garbage, seed=args.seed * 2 + 2, label="q")
    return op, oq


def _kwise_oracle(dist, args):
    return orc.make_purified_oracle(dist, args.garbage, seed=args.seed * 2 + 1, label="p")


def _check_repeats(repeats: int) -> None:
    if repeats < 1 or repeats % 2 == 0:
        raise ValueError("--repeats must be odd and positive")


def _voted_trials(plan, args) -> list:
    """``args.trials`` trials, each the majority of ``args.repeats`` runs."""
    runs = exp.run_trials(plan, args.trials * args.repeats, args.seed)
    return [majority(runs[i:i + args.repeats])
            for i in range(0, len(runs), args.repeats)]


def _emit(report: dict, args) -> int:
    text = exp.write_report(report, args.out, args.format)
    if not args.out:
        print(text, end="")
    return 0


# --- subcommands -----------------------------------------------------------------

def cmd_test_closeness(args) -> int:
    _check_repeats(args.repeats)
    p, q = _closeness_pair(args)
    op, oq = _oracle_pair(p, q, args)
    nu = args.nu if args.tester == "tolerant-l2" else 0.5
    if args.tester == "l1":
        plan = l1_plan(op, oq, args.eps)
    else:
        plan = closeness_plan(op, oq, args.eps, nu)

    l2 = ref.lp_distance(p, q, 2)
    if args.tester == "l1":
        l1 = ref.lp_distance(p, q, 1)
        promise_ok = l1 == 0.0 or l1 >= args.eps
    elif args.tester == "tolerant-l2":
        promise_ok = l2 <= (1 - nu) * args.eps or l2 >= args.eps
    else:
        promise_ok = l2 == 0.0 or l2 >= args.eps
    if not promise_ok:
        print(f"warning: instance violates the promise (l2 distance {l2!r})",
              file=sys.stderr)

    verdicts = _voted_trials(plan, args)
    params = {"tester": args.tester, "eps": args.eps, "nu": nu, "n": p.size,
              "garbage": args.garbage, "seed": args.seed, "trials": args.trials,
              "repeats": args.repeats}
    report = exp.verdict_report("test-closeness", params, verdicts,
                                {"l2_distance": l2, "promise_ok": promise_ok})
    return _emit(report, args)


def cmd_test_kwise(args) -> int:
    _check_repeats(args.repeats)
    dist = _kwise_dist(args)
    n = dist.n_bits
    if not 1 <= args.k <= n:
        raise DistributionError(f"k={args.k} out of range for n={n}")
    plan = kwise_plan(_kwise_oracle(dist, args), args.k, args.eps)

    weight = ref.fourier_weight(dist, args.k)
    uniform_side = ref.is_kwise_uniform(dist, args.k)
    if not uniform_side and math.sqrt(weight) <= args.eps / math.exp(args.k):
        print("warning: instance may violate the promise "
              f"(Fourier weight {weight!r} below the far bound)", file=sys.stderr)

    verdicts = _voted_trials(plan, args)
    params = {"eps": args.eps, "k": args.k, "n": n, "garbage": args.garbage,
              "seed": args.seed, "trials": args.trials, "repeats": args.repeats}
    report = exp.verdict_report("test-kwise", params, verdicts,
                                {"fourier_weight": weight,
                                 "kwise_uniform": uniform_side})
    return _emit(report, args)


def cmd_estimate(args) -> int:
    p, q = _closeness_pair(args)
    plan = estimator_plan(*_oracle_pair(p, q, args), args.eps)
    verdicts = exp.run_trials(plan, args.trials, args.seed)
    params = {"eps": args.eps, "n": p.size, "garbage": args.garbage,
              "seed": args.seed, "trials": args.trials}
    return _emit(exp.estimate_report("estimate", params, verdicts,
                                     ref.lp_distance(p, q, 2)), args)


def _sweep_grid(args) -> list[dict]:
    eps_grid = ([float(v) for v in args.eps_grid.split(",") if v.strip()]
                if args.eps_grid is not None else [args.eps])
    n_grid = ([int(v) for v in args.n_grid.split(",") if v.strip()]
              if args.n_grid is not None else [args.n])
    if not eps_grid or not n_grid:
        raise DistributionError("empty sweep grid")
    return [{"eps": e, "n": n} for n in n_grid for e in eps_grid]


def cmd_sweep(args) -> int:
    grid = _sweep_grid(args)
    points = []
    for g in grid:
        eps, n = g["eps"], g["n"]
        point_args = argparse.Namespace(**{**vars(args), "eps": eps, "n": n})
        if args.tester == "kwise":
            coords = ",".join(str(c) for c in range(1, min(args.k, n) + 1))
            point_args.gen = f"spike:{coords}:{args.delta!r}"
            oracle = _kwise_oracle(_kwise_dist(point_args), point_args)
            plan = kwise_plan(oracle, args.k, eps)
            expect = "NO"
        else:
            point_args.gen = f"{args.tester}-pair"
            op, oq = _oracle_pair(*_closeness_pair(point_args), point_args)
            plan = (l1_plan if args.tester == "l1" else closeness_plan)(op, oq, eps, args.nu)
            expect = "FAR"
        verdicts = exp.run_trials(plan, args.trials, args.seed)
        success = sum(v.verdict == expect for v in verdicts) / len(verdicts)
        totals = exp.oracle_query_totals(verdicts[0].queries)
        point = {"eps": eps, "n": n, "k": args.k if args.tester == "kwise" else "",
                 "budget_t": plan.t, "success_freq": success,
                 "mean_queries_total": float(sum(totals.values()))}
        point.update({k: float(v) for k, v in totals.items()})
        points.append(point)

    params = {"tester": args.tester, "trials": args.trials, "seed": args.seed,
              "nu": args.nu, "k": args.k, "delta": args.delta,
              "garbage": args.garbage}
    _emit(exp.sweep_report("sweep", params, points), args)
    if args.plot:
        if args.eps_grid and len(set(p["eps"] for p in points)) > 1:
            xs = [1.0 / p["eps"] for p in points]
            xlabel = "1/eps"
        else:
            xs = [float(p["n"]) for p in points]
            xlabel = "n"
        ys = [p["mean_queries_total"] for p in points]
        plotting.write_line_plot(args.plot, xs, ys, xlabel, "mean oracle queries",
                                 f"{args.tester} tester query cost")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (DistributionError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
