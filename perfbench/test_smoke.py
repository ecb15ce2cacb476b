"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q -p no:cacheprovider perfbench/test_smoke.py

Run from the repository root.  It checks that a run prints every metric of
BENCHMARK.json with its unit, that the output checks reject tampered reports,
and that the benchmark refuses to run without the program's sources.
"""
from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _closeness(gen):
    return {"command": "test-closeness", "tester": "l2", "n": 4, "eps": 0.5,
            "trials": 20, "garbage": "haar", "gen": gen}


def _kwise(gen):
    return {"command": "test-kwise", "n": 3, "k": 1, "eps": 0.5, "trials": 20, "gen": gen}


ESTIMATE = {"command": "estimate", "gen": "l2-pair", "n": 4, "eps": 0.5,
            "trials": 200, "format": "json"}
TINY = {
    "closeness": (("far", _closeness("l2-pair")), ("near", _closeness("identical"))),
    "kwise": (("far", _kwise("spike:1:0.6")), ("near", _kwise("uniform"))),
    "estimate": (("far", ESTIMATE),),
    # a far instance on the near side: every invocation fails its check
    "mislabelled": (("near", _kwise("spike:1:0.6")),),
}


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def _run(capsys, workload: str, trace: int) -> tuple[list[str], dict]:
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv, workloads=TINY) == 0
    lines = capsys.readouterr().out.splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("workload", ["closeness", "estimate", "kwise"])
def test_end_to_end_metrics_printed_with_units(capsys, workload):
    table, result = _run(capsys, workload, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    for metric in SPEC["end_to_end"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert got["value"] > 0
        assert any(line.split()[:1] == [metric["name"]] and metric["unit"] in line.split()
                   for line in table)
    assert len(result["metrics"]) == len(SPEC["end_to_end"])
    assert any(line.startswith("failed_frac") for line in table)
    meta = json.loads(table[0].removeprefix("meta "))
    for key in ("git_sha", "python", "numpy", "blas", "blas_threads", "nproc",
                "ram_total_bytes", "seed"):
        assert key in meta


def test_per_layer_metrics_printed_with_units(capsys):
    table, result = _run(capsys, "closeness", trace=1)
    assert result["correct"]
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        {name: got["unit"] for name, got in result["metrics"].items()}
    metrics = {name: got["value"] for name, got in result["metrics"].items()}
    assert metrics["amplitude.points"] == 256 and metrics["amplitude.state_dim"] == 128
    assert metrics["experiments.trials"] == 20
    assert metrics["statevec.apply_calls"] == sum(
        metrics[f"statevec.{op}.calls"] for op in ("MatrixOp", "ReflectionOp",
                                                   "PermutationOp", "PhaseFlipOp"))
    assert 0 < metrics["amplitude.self_s"] < metrics["amplitude.phase_dist_s"]
    assert metrics["scaling.closeness_n64.table_bytes"] == 8589934592
    for metric in SPEC["per_layer"]:
        assert any(line.split()[:1] == [metric["name"]] for line in table)


def test_failed_invocations_fail_the_run(capsys):
    argv = ["--workload", "mislabelled", "--seed", "3", "--seconds", "0", "--trace", "0"]
    assert run.main(argv, workloads=TINY) != 0
    captured = capsys.readouterr()
    result = json.loads(captured.out.splitlines()[-1])
    assert not result["correct"] and result["failed"] >= 1
    assert "FAILED near" in captured.err
    # failed invocations give no samples: the timings read 0, not a fast time
    assert result["metrics"]["wall_s"]["value"] == 0.0
    assert result["metrics"]["oracle_queries"]["value"] == 0


def _report(tmp_path: Path, side: str, params: dict) -> dict:
    out = tmp_path / f"{side}-{params['command']}.report"
    env = dict(run.child_env(), PYTHONPYCACHEPREFIX=str(tmp_path / "pycache"))
    subprocess.run([sys.executable, "-m", "qdtest.cli", *run.cli_args(params, 5, out)],
                   env=env, check=True, timeout=120)
    report = checks.parse_report(out.read_text(), params.get("format", "csv"))
    assert checks.check_report(side, params, report) == []
    return report


def test_checks_reject_tampered_reports(tmp_path):
    near = _report(tmp_path, "near", _closeness("identical"))
    bad = copy.deepcopy(near)
    bad["rows"][3]["queries_ctrl"] += 1
    assert any("queries" in p for p in checks.check_report("near", _closeness("identical"), bad))
    bad = copy.deepcopy(near)
    bad["rows"][0]["statistic"] = 1e-30
    assert checks.check_report("near", _closeness("identical"), bad)
    bad = copy.deepcopy(near)
    bad["summary"]["t"] = 128
    assert checks.check_report("near", _closeness("identical"), bad)

    far = _report(tmp_path, "far", _kwise("spike:1:0.6"))
    bad = copy.deepcopy(far)
    for row in bad["rows"]:
        row["verdict"] = "YES"
    assert checks.check_report("far", _kwise("spike:1:0.6"), bad)

    est = _report(tmp_path, "far", ESTIMATE)
    bad = copy.deepcopy(est)
    bad["rows"][7]["error"] += 0.1
    assert checks.check_report("far", ESTIMATE, bad)
    bad = copy.deepcopy(est)
    for row in bad["rows"]:
        row["statistic"], row["estimate"], row["error"] = 0.64, 1.6, 1.1
    assert checks.check_report("far", ESTIMATE, bad)


def test_refuses_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "kwise-n4",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
