"""Child processes of the benchmark; each runs in a fresh interpreter.

    python3 perfbench/probe.py setup OUT_JSON -- CLI_ARGS...
        Time importing ``qdtest.cli`` and building, with the CLI's own
        helpers, the ready plan of one invocation (generator, purified
        oracles, tester plan), and record the interpreter, numpy and BLAS
        versions.

    python3 perfbench/probe.py trace OUT_JSON -- CLI_ARGS...
        Run the CLI in-process with the public functions on its path wrapped
        in timing spans, then write the per-layer metrics.

``qdtest`` must be importable (the benchmark puts ``src`` on PYTHONPATH).
"""
from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

# Leaf operator classes of the state-vector engine; their apply_to is timed.
LEAF_OPS = ("MatrixOp", "ReflectionOp", "PermutationOp", "PhaseFlipOp")
# Public functions on the CLI path, per module (= layer).  Names a module
# does not define are skipped, so the trace survives refactors.
SPANS = {
    "cli": ("main",),
    "reference": ("gen_l2_pair", "gen_l1_pair", "gen_fourier_spike",
                  "gen_random_multiset_uniform", "lp_distance", "fourier_weight",
                  "is_kwise_uniform"),
    "oracles": ("make_purified_oracle", "closeness_instance", "kwise_instance"),
    "testers": ("closeness_plan", "kwise_plan"),
    "amplitude": ("phase_distribution",),
    "experiments": ("run_verdict_trials", "run_estimate_trials", "verdict_report",
                    "estimate_report", "write_report"),
}


def build_plan(argv: list[str]):
    """The plan the CLI builds for ``argv``, through the CLI's own helpers."""
    from qdtest import cli

    args = cli.build_parser().parse_args(argv)
    if args.command == "test-kwise":
        dist = cli._kwise_dist(args)
        oracle = cli.orc.make_purified_oracle(dist, args.garbage, seed=args.seed * 2 + 1,
                                              label="p")
        return cli.kwise_plan(oracle, args.k, args.eps)
    op, oq = cli._oracle_pair(*cli._closeness_pair(args), args)
    if args.command == "estimate":
        return cli.orc.closeness_instance(op, oq)
    if args.tester != "l2":
        raise ValueError("only the plain l2 closeness tester is benchmarked")
    return cli.closeness_plan(op, oq, args.eps, 0.5)


def setup(argv: list[str]) -> dict:
    start = perf_counter()
    import qdtest.cli  # noqa: F401  (the import is part of set-up)
    build_plan(argv)
    setup_s = perf_counter() - start

    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"setup_s": setup_s, "python": sys.version.split()[0],
            "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}"}


class Tracer:
    """Timing spans around wrapped functions, aggregated per name and layer.

    A span's self time is its duration minus that of its wrapped children.
    ``layer_incl`` counts only a layer's outermost spans, so nested calls
    within one layer are not counted twice.
    """

    def __init__(self):
        self.stack: list[list[float]] = []  # per open span: time of its children
        self.depth: dict[str, int] = {}
        self.layer_incl: dict[str, float] = {}
        self.layer_self: dict[str, float] = {}
        self.spans: dict[str, list] = {}  # name -> [incl_s, self_s]
        self.ops = {name: [0, 0.0, 0] for name in LEAF_OPS}  # calls, s, bytes
        self.shape = (0, 0)
        self.trials = 0
        self.report_bytes = 0

    def wrap(self, layer: str, name: str, fn, observe=None):
        stats = self.spans.setdefault(f"{layer}.{name}", [0.0, 0.0])
        self.layer_incl.setdefault(layer, 0.0)
        self.layer_self.setdefault(layer, 0.0)

        def wrapper(*args, **kwargs):
            children = [0.0]
            self.stack.append(children)
            self.depth[layer] = self.depth.get(layer, 0) + 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                self.stack.pop()
                self.depth[layer] -= 1
                if self.depth[layer] == 0:
                    self.layer_incl[layer] += dur
                self.layer_self[layer] += dur - children[0]
                stats[0] += dur
                stats[1] += dur - children[0]
                if self.stack:
                    self.stack[-1][0] += dur
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def wrap_apply(self, op_name: str, fn):
        """Leaf applications never nest, so they get a lighter span."""
        stats = self.ops[op_name]
        stack = self.stack

        def apply_to(op, state, *args, **kwargs):
            start = perf_counter()
            result = fn(op, state, *args, **kwargs)
            dur = perf_counter() - start
            stats[0] += 1
            stats[1] += dur
            stats[2] += state.amplitudes.size * 32  # read and write, complex128
            if stack:
                stack[-1][0] += dur
            return result

        return apply_to

    # per-call observations --------------------------------------------------

    def _phase_dist(self, args, kwargs, result):
        layout = kwargs.get("layout", args[1] if len(args) > 1 else None)
        dim = getattr(layout, "total_dim", 0)
        points = getattr(result, "points", 0)
        self.shape = max(self.shape, (points, dim))

    def _trials(self, args, kwargs, result):
        self.trials += len(result)

    def _report(self, args, kwargs, result):
        self.report_bytes += len(result.encode("utf-8"))

    def install(self) -> None:
        """Wrap every listed function and rebind it wherever qdtest imported it."""
        from qdtest import statevec

        observers = {"phase_distribution": self._phase_dist,
                     "run_verdict_trials": self._trials,
                     "run_estimate_trials": self._trials,
                     "write_report": self._report}
        modules = [m for key, m in sys.modules.items()
                   if key == "qdtest" or key.startswith("qdtest.")]
        for layer, names in SPANS.items():
            module = sys.modules.get(f"qdtest.{layer}")
            for name in names:
                fn = getattr(module, name, None)
                if fn is None:
                    continue
                wrapped = self.wrap(layer, name, fn, observers.get(name))
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, attr, wrapped)
        for op_name in LEAF_OPS:
            cls = getattr(statevec, op_name, None)
            if cls is not None:
                cls.apply_to = self.wrap_apply(op_name, cls.apply_to)

    def metrics(self, import_s: float) -> dict:
        def incl(key):
            return self.spans.get(key, (0.0, 0.0))[0]

        def own(key):
            return self.spans.get(key, (0.0, 0.0))[1]

        out = {}
        for name, (calls, secs, _) in self.ops.items():
            out[f"statevec.{name}.calls"] = calls
            out[f"statevec.{name}.s"] = secs
        out["statevec.apply_calls"] = sum(v[0] for v in self.ops.values())
        out["statevec.apply_s"] = sum(v[1] for v in self.ops.values())
        out["statevec.bytes_touched"] = sum(v[2] for v in self.ops.values())

        points, dim = self.shape
        out["amplitude.phase_dist_s"] = self.layer_incl.get("amplitude", 0.0)
        out["amplitude.self_s"] = self.layer_self.get("amplitude", 0.0)
        out["amplitude.points"] = points
        out["amplitude.state_dim"] = dim
        out["amplitude.table_bytes"] = points * dim * 16

        sample_s = (own("experiments.run_verdict_trials")
                    + own("experiments.run_estimate_trials"))
        out["experiments.trials"] = self.trials
        out["experiments.sample_s"] = sample_s
        out["experiments.sample_us_per_trial"] = (
            sample_s / self.trials * 1e6 if self.trials else 0.0)
        out["experiments.report_s"] = (incl("experiments.verdict_report")
                                       + incl("experiments.estimate_report"))
        out["experiments.serialize_s"] = incl("experiments.write_report")
        out["experiments.report_bytes"] = self.report_bytes

        out["process.import_s"] = import_s
        out["reference.s"] = self.layer_incl.get("reference", 0.0)
        out["oracles.build_s"] = self.layer_incl.get("oracles", 0.0)
        out["testers.plan_s"] = self.layer_self.get("testers", 0.0)
        out["cli.self_s"] = self.layer_self.get("cli", 0.0)
        return out


def trace(out_path: str, argv: list[str]) -> int:
    start = perf_counter()
    import qdtest.cli as cli
    import_s = perf_counter() - start
    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        Path(out_path).write_text(json.dumps(tracer.metrics(import_s)))


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"] and len(argv) >= 3 and argv[2] == "--":
        Path(argv[1]).write_text(json.dumps(setup(argv[3:])))
        return 0
    if argv[:1] == ["trace"] and len(argv) >= 3 and argv[2] == "--":
        return trace(argv[1], argv[3:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
