"""CLI tests: subcommands end to end, determinism of reports, file-format
errors and exit codes, the sweep's scaling columns, and selfcheck."""
import json
import math

import numpy as np
import pytest

from qdtest import amplitude as ae
from qdtest import cli
from qdtest import experiments as exp
from qdtest import statevec as sv
from qdtest.distributions import to_json, uniform


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_closeness_identical_files(tmp_path, capsys):
    path = tmp_path / "u.json"
    path.write_text(to_json(uniform(8)), encoding="utf-8")
    code, out, _ = run(capsys, "test-closeness", "--dist", str(path), "--dist2",
                       str(path), "--eps", "0.2", "--trials", "30", "--seed", "1")
    assert code == 0
    assert "frequencies.CLOSE=1.0" in out


def test_closeness_generator_far(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code, _, _ = run(capsys, "test-closeness", "--gen", "l2-pair", "--n", "8",
                     "--eps", "0.2", "--trials", "300", "--seed", "2",
                     "--format", "json", "--out", str(out_file))
    assert code == 0
    report = json.loads(out_file.read_text(encoding="utf-8"))
    assert report["schema_version"] == 1
    assert report["summary"]["frequencies"]["FAR"] >= 0.75
    assert report["summary"]["promise_ok"] is True
    assert report["rows"][0]["queries_ctrl"] > 0


def test_closeness_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken", encoding="utf-8")
    code, _, err = run(capsys, "test-closeness", "--dist", str(bad), "--dist2", str(bad))
    assert code == 2
    assert "error:" in err


def test_closeness_missing_instance_exits_2(capsys):
    code, _, err = run(capsys, "test-closeness")
    assert code == 2 and "error:" in err


def test_closeness_promise_warning(tmp_path, capsys):
    code, _, err = run(capsys, "test-closeness", "--gen", "l2-pair:0.1", "--n", "4",
                       "--eps", "0.5", "--trials", "5", "--seed", "0")
    assert code == 0
    assert "promise" in err


def test_usage_error_exits_2(capsys):
    assert cli.main(["test-closeness", "--eps"]) == 2


def test_unknown_generator_exits_2(capsys):
    code, _, err = run(capsys, "test-closeness", "--gen", "nope", "--n", "4")
    assert code == 2 and "generator" in err


def test_kwise_uniform_yes(capsys):
    code, out, _ = run(capsys, "test-kwise", "--gen", "uniform", "--n", "4", "--k", "2",
                       "--eps", "0.3", "--trials", "25", "--seed", "3")
    assert code == 0
    assert "frequencies.YES=1.0" in out
    assert "kwise_uniform=True" in out


def test_kwise_spike_no(capsys):
    code, out, _ = run(capsys, "test-kwise", "--gen", "spike:1,2:0.6", "--n", "4",
                       "--k", "2", "--eps", "0.3", "--trials", "50", "--seed", "4")
    assert code == 0
    assert "frequencies.NO=1.0" in out


def test_kwise_k_out_of_range_exits_2(capsys):
    code, _, err = run(capsys, "test-kwise", "--gen", "uniform", "--n", "3", "--k", "5")
    assert code == 2 and "error:" in err


def test_kwise_multiset_generator(capsys):
    code, out, _ = run(capsys, "test-kwise", "--gen", "multiset:6", "--n", "4",
                       "--k", "2", "--eps", "0.3", "--trials", "10", "--seed", "5")
    assert code == 0
    assert "summary," in out


def test_estimate_identical(capsys):
    code, out, _ = run(capsys, "estimate", "--gen", "identical", "--n", "8",
                       "--eps", "0.1", "--trials", "10", "--seed", "6")
    assert code == 0
    assert "mean_estimate=0.0" in out


def test_estimate_disjoint(capsys):
    code, out, _ = run(capsys, "estimate", "--gen", "disjoint", "--n", "4",
                       "--eps", "0.1", "--trials", "50", "--seed", "7")
    assert code == 0
    line = next(l for l in out.splitlines() if l.startswith("summary"))
    mean_err = float(line.split("mean_error=")[1].split(";")[0])
    assert mean_err <= 0.1


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_estimate_without_trials_exits_2(capsys, trials):
    code, _, err = run(capsys, "estimate", "--gen", "l2-pair", "--n", "4",
                       "--trials", trials)
    assert code == 2 and "error:" in err


@pytest.mark.parametrize("eps", ["0", "nan", "1.5"])
def test_estimate_eps_outside_unit_interval_exits_2(capsys, eps):
    code, _, err = run(capsys, "estimate", "--gen", "l2-pair", "--n", "4",
                       "--eps", eps, "--trials", "3")
    assert code == 2 and "error:" in err


@pytest.mark.parametrize("command,gen", [("test-closeness", "l2-pair"),
                                         ("test-kwise", "uniform")])
@pytest.mark.parametrize("repeats", ["2", "0", "-1"])
def test_bad_repeats_exit_2_before_any_trial(capsys, monkeypatch, command, gen, repeats):
    def no_trials(*args, **kwargs):
        raise AssertionError("trials ran before --repeats was validated")

    monkeypatch.setattr(exp, "run_trials", no_trials)
    code, _, err = run(capsys, command, "--gen", gen, "--n", "4", "--trials", "3",
                       "--repeats", repeats)
    assert code == 2
    assert "error: --repeats must be odd and positive" in err


def test_estimate_rejects_repeats(capsys):
    code, out, err = run(capsys, "estimate", "--gen", "l2-pair", "--n", "4",
                         "--trials", "2", "--repeats", "4")
    assert code == 2 and out == ""
    assert "unrecognized arguments: --repeats 4" in err


@pytest.mark.parametrize("argv", [
    ("test-closeness", "--gen", "l2-pair", "--n", "4"),
    ("test-kwise", "--gen", "uniform", "--n", "3"),
    ("estimate", "--gen", "l2-pair", "--n", "4"),
])
def test_state_too_large_for_memory_exits_2(capsys, monkeypatch, argv):
    monkeypatch.setattr(sv, "available_memory_bytes", lambda: 4096)
    code, out, err = run(capsys, *argv, "--trials", "3")
    assert code == 2
    assert out == ""
    assert err.startswith("error: a state of dimension") and "available" in err


def test_reports_are_byte_identical_for_fixed_seed(tmp_path, capsys):
    texts = []
    for name in ("a.csv", "b.csv"):
        out_file = tmp_path / name
        code, _, _ = run(capsys, "test-closeness", "--gen", "l2-pair", "--n", "8",
                         "--eps", "0.2", "--trials", "40", "--seed", "11",
                         "--out", str(out_file))
        assert code == 0
        texts.append(out_file.read_bytes())
    assert texts[0] == texts[1]

    jsons = []
    for name in ("a.json", "b.json"):
        out_file = tmp_path / name
        run(capsys, "estimate", "--gen", "disjoint", "--n", "4", "--eps", "0.2",
            "--trials", "10", "--seed", "12", "--format", "json",
            "--out", str(out_file))
        jsons.append(out_file.read_bytes())
    assert jsons[0] == jsons[1]


def test_report_changes_with_seed(tmp_path, capsys):
    texts = []
    for seed in ("1", "2"):
        out_file = tmp_path / f"s{seed}.csv"
        run(capsys, "test-closeness", "--gen", "l2-pair", "--n", "8", "--eps", "0.2",
            "--trials", "40", "--seed", seed, "--out", str(out_file))
        texts.append(out_file.read_bytes())
    assert texts[0] != texts[1]


def test_golden_csv_header_and_row(tmp_path, capsys):
    out_file = tmp_path / "g.csv"
    run(capsys, "test-closeness", "--gen", "identical", "--n", "4", "--eps", "0.3",
        "--trials", "3", "--seed", "0", "--out", str(out_file))
    lines = out_file.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "# schema_version=1 command=test-closeness"
    assert lines[1] == "trial,verdict,statistic,queries_forward,queries_inverse,queries_ctrl"
    assert lines[2] == "0,CLOSE,0.0,0,0,4092"
    assert lines[3] == "1,CLOSE,0.0,0,0,4092"


def test_sweep_eps_grid_query_ratios(tmp_path, capsys):
    out_file = tmp_path / "sweep.json"
    plot = tmp_path / "plot.svg"
    code, _, _ = run(capsys, "sweep", "--tester", "l2", "--eps-grid", "0.4,0.2,0.1",
                     "--n", "8", "--trials", "20", "--seed", "8",
                     "--format", "json", "--out", str(out_file), "--plot", str(plot))
    assert code == 0
    rows = json.loads(out_file.read_text(encoding="utf-8"))["rows"]
    queries = [r["mean_queries_total"] for r in rows]
    for a, b in zip(queries, queries[1:]):
        assert abs(b / a - 2.0) <= 0.2
    assert all(r["success_freq"] >= 0.75 for r in rows)
    svg = plot.read_text(encoding="utf-8")
    assert svg.startswith("<svg") and "polyline" in svg


def test_sweep_l1_n_grid_budget_ratios(tmp_path, capsys):
    out_file = tmp_path / "l1.json"
    code, _, _ = run(capsys, "sweep", "--tester", "l1", "--n-grid", "4,8,16",
                     "--eps", "0.4", "--trials", "20", "--seed", "9",
                     "--format", "json", "--out", str(out_file))
    assert code == 0
    rows = json.loads(out_file.read_text(encoding="utf-8"))["rows"]
    budgets = [r["budget_t"] for r in rows]
    for a, b in zip(budgets, budgets[1:]):
        assert 1.3 <= b / a <= 1.55


def test_sweep_kwise_budget_tracks_subset_count(tmp_path, capsys):
    out_file = tmp_path / "kw.json"
    code, _, _ = run(capsys, "sweep", "--tester", "kwise", "--n-grid", "3,4",
                     "--eps", "0.8", "--k", "2", "--trials", "10", "--seed", "10",
                     "--format", "json", "--out", str(out_file))
    assert code == 0
    rows = json.loads(out_file.read_text(encoding="utf-8"))["rows"]
    from qdtest.reference import binom_sum
    for row in rows:
        formula = math.ceil(10 * math.pi * math.exp(2)
                            * math.sqrt(binom_sum(row["n"], 2)) / row["eps"])
        assert abs(row["budget_t"] - formula) / formula <= 0.15


def test_sweep_empty_grid_exits_2(capsys):
    code, _, err = run(capsys, "sweep", "--eps-grid", "", "--n", "4")
    assert code == 2


def test_selfcheck_passes(capsys):
    assert cli.main(["selfcheck"]) == 0
    out = capsys.readouterr().out
    assert "8/8 suites passed" in out


def test_selfcheck_detects_injected_sign_flip(capsys, monkeypatch):
    """Flipping the projector reflection must trip the estimation suite."""
    real = ae.grover_iterate

    def corrupted(unitary, layout, projector):
        flipped = sv.PhaseFlipOp(dict(projector.fixed), complement=True)  # wrong sign
        neg_s0 = sv.PhaseFlipOp({name: 0 for name in layout.names}, complement=True)
        return sv.SequenceOp([flipped, sv.inverse(unitary), neg_s0, unitary])

    monkeypatch.setattr(ae, "grover_iterate", corrupted)
    assert cli.main(["selfcheck"]) == 1
    assert "FAIL" in capsys.readouterr().out
    monkeypatch.setattr(ae, "grover_iterate", real)
    assert cli.main(["selfcheck"]) == 0
