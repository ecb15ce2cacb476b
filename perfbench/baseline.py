#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

For every workload of BENCHMARK.json (or those named with --workloads) it
runs ``perfbench/run.py`` for ``run_seconds`` once per seed, one run at a
time, with tracing off, then once more with tracing on (first seed) for the
per-layer figures.  Per
metric it reports the median, the quartiles and the spread, i.e. the distance
between the quartiles as a share of the median; a spread above a third of the
metric's bound is flagged.  Run it from the repository root.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    result["meta"] = json.loads(lines[0].removeprefix("meta "))
    return result


def summarise(values: list[float], bound: float | None) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else 0.0
    row = {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}
    if bound is not None:
        row["bound"] = bound
        row["steady"] = spread < bound / 3
    return row


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--workloads", help="comma-separated subset")
    parser.add_argument("--out", help="write the summary JSON here")
    args = parser.parse_args()

    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    summary = {"seeds": args.seeds, "seconds": seconds, "workloads": {}}
    for workload in names:
        runs = [run_once(workload, seed, seconds, 0) for seed in parse_seeds(args.seeds)]
        if not all(r["correct"] for r in runs):
            print(f"{workload}: some run was not correct", file=sys.stderr)
        entry = {"attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs), "end_to_end": {}}
        for name, bound in bounds.items():
            row = summarise([r["metrics"][name]["value"] for r in runs], bound)
            entry["end_to_end"][name] = row
            flag = "" if row["steady"] else "  <-- spread above bound/3"
            print(f"{workload:<16} {name:<16} median {row['median']:<12.6g} "
                  f"spread {row['spread']:.4f} (bound {bound}){flag}")
        traced = run_once(workload, parse_seeds(args.seeds)[0], seconds, 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["meta"] = runs[0]["meta"]
        summary["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
