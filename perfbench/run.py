#!/usr/bin/env python3
"""Benchmark of the qdtest CLI, end to end and per layer.

    python3 perfbench/run.py --workload closeness-haar --seed 1 --seconds 40 --trace 0

Run it from the repository root; it imports qdtest from ``src``.  One parent
process runs one CLI child at a time (a closed loop of one client), each a
fresh interpreter, until ``--seconds`` are spent, and checks every report
(see ``checks.py``).  A round is one invocation per side of the workload,
near and far alternating.  Set-up children (``probe.py setup``) run between
the invocations.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced rounds with traced ones, whose children run the CLI in-process with
its public functions wrapped in timing spans (``probe.py trace``), and prints
the per-layer metrics.  Earlier lines give run metadata and a readable
table; the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
SRC = Path("src")
WORK = Path(".perfbench")
# Set-up is timed in fresh children run between the CLI invocations, so
# that they take about SETUP_SHARE of the run's time.
SETUP_SHARE = 0.2
# One BLAS thread: the dense kernels gain nothing from a second one, which
# only spins and doubles the CPU time (and the noise) of a run.
BLAS_THREADS = 1
# A child is killed after CHILD_TIMEOUT_S, and no child outlives RUN_LIMIT_S
# from the start of the run, so a hung program cannot stall the benchmark.
CHILD_TIMEOUT_S = 60.0
RUN_LIMIT_S = 170.0
# Closeness scaling series of the roadmap: n values at the closeness-haar shape.
SCALING_N = (8, 16, 32, 64)


def _closeness(gen: str) -> dict:
    return {"command": "test-closeness", "tester": "l2", "n": 16, "eps": 0.2,
            "trials": 100, "garbage": "haar", "gen": gen}


def _kwise(gen: str) -> dict:
    return {"command": "test-kwise", "n": 4, "k": 2, "eps": 0.3, "trials": 100,
            "gen": gen}


# workload -> sides, each (side, CLI parameters); a round runs every side once
WORKLOADS = {
    "closeness-haar": (("far", _closeness("l2-pair")), ("near", _closeness("identical"))),
    "kwise-n4": (("far", _kwise("spike:1,2:0.6")), ("near", _kwise("uniform"))),
    "estimate-trials": (("far", {"command": "estimate", "gen": "l2-pair", "n": 4,
                                 "eps": 0.5, "trials": 20000, "format": "json"}),),
}


def cli_args(params: dict, seed: int, out: Path) -> list[str]:
    args = [params["command"]]
    for key, value in params.items():
        if key != "command":
            args += [f"--{key}", str(value)]
    return args + ["--seed", str(seed), "--out", str(out)]


def child_env() -> dict:
    env = dict(os.environ)
    src = str(SRC.resolve())
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    # Children share a bytecode cache of their own, filled by the warm-up child
    # before any timing, so no timing depends on compiled files the workspace
    # may or may not hold.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str((WORK / "pycache").resolve())
    return env


def available_bytes() -> int:
    """MemAvailable from /proc/meminfo, else free physical pages."""
    try:
        with open("/proc/meminfo", encoding="ascii") as f:
            for line in f:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def fits_in_memory(params: dict) -> bool:
    """Whether a run of ``params`` can be launched: its peak RSS is about twice
    the power table (295 MB for the 134 MB table of closeness at n = 16)."""
    return 2 * checks.table_bytes(params) <= available_bytes()


def git_sha() -> str:
    """HEAD of the checkout read from ``.git``, or ``unknown`` outside git."""
    git = Path(".git")
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_child(cmd: list[str], env: dict, log: Path,
              timeout: float) -> tuple[float, float, int, str]:
    """Run one child to completion: (wall s, peak RSS MB, exit code, output)."""
    with open(log, "w+b") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        text = out.read().decode("utf-8", "replace")
    return wall, usage.ru_maxrss / 1024.0, proc.returncode, text


class Run:
    """One benchmark run: its children, their checks and their timings."""

    def __init__(self, sides, seed: int):
        self.sides = sides
        self.seed = seed
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.index = 0
        self.meta: dict = {}
        self.setup_times: list[float] = []
        self.setup_spent = 0.0
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def _fail(self, what: str, problems: list[str]) -> None:
        self.failed += 1
        print(f"FAILED {what}: " + "; ".join(problems), file=sys.stderr)

    def _child(self, cmd: list[str], what: str):
        self.attempted += 1
        log = WORK / f"child-{self.attempted}.log"
        timeout = min(CHILD_TIMEOUT_S, max(1.0, self.deadline - time.monotonic()))
        wall, rss, code, text = run_child(cmd, self.env, log, timeout)
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        if "Traceback (most recent call last)" in text:
            problems.append("traceback: " + text.strip().splitlines()[-1])
        return wall, rss, problems

    def setup_child(self) -> float | None:
        """Set-up time of one fresh untraced child; sides alternate."""
        side, params = self.sides[len(self.setup_times) % len(self.sides)]
        out = WORK / f"setup-{self.attempted}.json"
        args = cli_args(params, self.seed, WORK / "setup-report")
        cmd = [sys.executable, str(HERE / "probe.py"), "setup", str(out), "--", *args]
        _, _, problems = self._child(cmd, f"setup {side}")
        if problems or not out.is_file():
            self._fail(f"setup {side}", problems or ["no result"])
            return None
        result = json.loads(out.read_text())
        setup_s = result.pop("setup_s")
        self.meta.update(result)
        return setup_s

    def sample_setup(self, start: float) -> None:
        """Time set-up children until they have had SETUP_SHARE of the time
        since ``start``.  Spread over the run, their best time is steadier
        than that of a burst of children at its start."""
        while self.setup_spent <= SETUP_SHARE * (time.perf_counter() - start):
            begin = time.perf_counter()
            setup_s = self.setup_child()
            self.setup_spent += time.perf_counter() - begin
            if setup_s is not None:
                self.setup_times.append(setup_s)

    def invoke(self, side: str, params: dict, traced: bool) -> dict | None:
        """One checked CLI invocation; None if it failed."""
        seed = self.seed * 10_000 + self.index
        self.index += 1
        report = WORK / f"report-{self.index}.{params.get('format', 'csv')}"
        layers = WORK / f"layers-{self.index}.json"
        args = cli_args(params, seed, report)
        if traced:
            cmd = [sys.executable, str(HERE / "probe.py"), "trace", str(layers), "--", *args]
        else:
            cmd = [sys.executable, "-m", "qdtest.cli", *args]
        what = f"{'traced ' if traced else ''}{side} seed {seed}"
        wall, rss, problems = self._child(cmd, what)
        result = {"wall_s": wall, "rss_mb": rss}
        try:
            parsed = checks.parse_report(report.read_text(), params.get("format", "csv"))
            problems += checks.check_report(side, params, parsed)
            result["queries"] = checks.queries_per_trial(parsed)
            if traced:
                result["layers"] = json.loads(layers.read_text())
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems.append(f"unreadable output: {exc!r}")
        for path in (report, layers):
            path.unlink(missing_ok=True)
        if problems:
            self._fail(what, problems)
            return None
        return result

    def rounds(self, seconds: float, traced: bool) -> tuple[list, list]:
        """Run rounds until ``seconds`` would be exceeded (at least one).

        Returns the untraced and the traced rounds, each a list of invocation
        results (None where the invocation failed), one per side; with
        ``traced`` every untraced round is followed by a traced one.  Set-up
        children run before each invocation (see ``sample_setup``), after an
        untimed warm-up child that fills the bytecode cache.
        """
        plain, with_trace, durations = [], [], []
        start = time.perf_counter()
        self.setup_child()
        while True:
            begin = time.perf_counter()
            plain.append([])
            for side, params in self.sides:
                self.sample_setup(start)
                plain[-1].append(self.invoke(side, params, False))
            if traced:
                with_trace.append([self.invoke(s, p, True) for s, p in self.sides])
            durations.append(time.perf_counter() - begin)
            left = seconds - (time.perf_counter() - start)
            if left < statistics.median(durations) or time.monotonic() > self.deadline:
                return plain, with_trace


def per_side(rounds: list, key: str, stat=min) -> float:
    """Mean over sides of ``stat`` of ``key`` over that side's passed
    invocations; 0.0 if some side has none (the run has failed then).

    Wall time uses the best invocation (the default ``min``), not the
    median: on a shared machine
    other tenants slow single invocations by up to 60%, in bursts of seconds
    whose share changes from minute to minute.  Over ten seeds, per-run
    medians spread by 11-36% (quartile distance over median); the best
    invocation spreads by 6-16%.
    """
    sides = [[r[i][key] for r in rounds if r[i] is not None] for i in range(len(rounds[0]))]
    if not all(sides):
        return 0.0
    return statistics.fmean(stat(values) for values in sides)


def layer_metrics(plain: list, traced: list) -> dict:
    samples = [inv["layers"] for r in traced for inv in r if inv is not None]
    out = {}
    if samples:
        for key in samples[0]:
            out[key] = statistics.median(s[key] for s in samples)
    out["trace.overhead_s"] = per_side(traced, "wall_s") - per_side(plain, "wall_s")
    for n in SCALING_N:
        params = dict(_closeness("l2-pair"), n=n)
        out[f"scaling.closeness_n{n}.table_bytes"] = checks.table_bytes(params)
        out[f"scaling.closeness_n{n}.fits"] = int(fits_in_memory(params))
    return out


def load_spec() -> dict:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {"end_to_end": {m["name"]: m for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m for m in spec["per_layer"]}}


def main(argv=None, workloads=WORKLOADS) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qdtest" / "cli.py").is_file():
        print("error: run from the repository root; src/qdtest is missing",
              file=sys.stderr)
        return 2
    sides = workloads[args.workload]
    for side, params in sides:
        if not fits_in_memory(params):
            print(f"error: {args.workload} {side} needs about "
                  f"{2 * checks.table_bytes(params)} bytes, more than available",
                  file=sys.stderr)
            return 2

    spec = load_spec()
    WORK.mkdir(exist_ok=True)
    run = Run(sides, args.seed)
    try:
        plain, traced = run.rounds(args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    if args.trace:
        measured, wanted = layer_metrics(plain, traced), spec["per_layer"]
    else:
        queries = [inv["queries"] for r in plain for inv in r if inv is not None]
        measured = {"wall_s": per_side(plain, "wall_s"),
                    # the best child, for the reason given in per_side
                    "setup_s": min(run.setup_times, default=0.0),
                    "peak_rss_mb": per_side(plain, "rss_mb", statistics.median),
                    "oracle_queries": statistics.median(queries) if queries else 0}
        wanted = spec["end_to_end"]
    # a metric is missing or 0 only when the children that measure it failed
    metrics = {name: {"value": measured.get(name, 0.0), "unit": m["unit"]}
               for name, m in wanted.items()}

    meta = dict(run.meta, workload=args.workload, seed=args.seed,
                seconds=args.seconds, trace=args.trace, git_sha=git_sha(),
                blas_threads=BLAS_THREADS, nproc=os.cpu_count(),
                ram_total_bytes=os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"),
                rounds=len(plain), invocations_per_round=len(sides),
                setups=len(run.setup_times),
                traced_rounds=len(traced))
    print("meta " + json.dumps(meta, sort_keys=True))
    for name, m in metrics.items():
        better = wanted[name]["better"]
        print(f"{name:<40} {m['value']!r:>24} {m['unit']:<6} {better} is better")
    print(f"{'failed_frac':<40} {run.failed / run.attempted!r:>24} {'ratio':<6} "
          f"lower is better ({run.failed} of {run.attempted} children failed)")
    print(f"samples: {len(plain)} rounds of {len(sides)} CLI invocations"
          f"{f' plus {len(traced)} traced rounds' if traced else ''}, "
          f"{len(run.setup_times)} set-ups")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 1 if run.failed else 0


if __name__ == "__main__":
    sys.exit(main())
