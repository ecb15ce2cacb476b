"""CLI tests: subcommands end to end, determinism of reports, file-format
errors and exit codes, the sweep's scaling columns, and selfcheck."""
import gc
import hashlib
import json
import math
import os
import re
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import qdtest
from qdtest import amplitude as ae
from qdtest import cli
from qdtest import experiments as exp
from qdtest import statevec as sv
from qdtest.distributions import BITSTRING, point_mass, uniform

from helpers import to_json
from test_golden import GOLDEN


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


@pytest.mark.parametrize("name,text", [
    ("nan.csv", "0,nan\n1,0.5\n"),
    ("nan.json", '{"kind": "range", "n": 2, "weights": [NaN, 0.5]}'),
])
def test_nan_weight_file_exits_2(tmp_path, capsys, name, text):
    """A NaN weight passes a sum test (NaN compares false), so it must be
    rejected as non-finite, in a message that names the file: no CLOSE
    verdicts with l2_distance=nan."""
    bad, ok = tmp_path / name, tmp_path / "ok.csv"
    bad.write_text(text, encoding="utf-8")
    ok.write_text("0,0.5\n1,0.5\n", encoding="utf-8")
    for command in ("test-closeness", "estimate"):
        code, out, err = run(capsys, command, "--dist", str(bad), "--dist2", str(ok),
                             "--trials", "3")
        assert code == 2 and out == ""
        assert err.startswith(f"error: {bad}: ") and "non-finite" in err


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


@pytest.mark.parametrize("argv", [
    ("test-closeness", "--gen", "l2-pair", "--n", "4"),
    ("test-closeness", "--tester", "l1", "--gen", "l1-pair", "--n", "4"),
    ("test-kwise", "--gen", "multiset:3", "--n", "3"),
    ("estimate", "--gen", "l2-pair", "--n", "4"),
    ("sweep", "--tester", "kwise", "--n", "3"),
])
def test_negative_seed_exits_2_before_any_oracle(capsys, monkeypatch, argv):
    def no_oracle(*args, **kwargs):
        raise AssertionError("an oracle was built before --seed was validated")

    monkeypatch.setattr(cli.orc, "make_purified_oracle", no_oracle)
    code, out, err = run(capsys, *argv, "--trials", "3", "--seed", "-1")
    assert code == 2 and out == ""
    assert err == "error: --seed must be non-negative\n"


def test_l1_closeness_honours_nu(capsys):
    """test-closeness --tester l1 runs at the budget the l1 sweep gives for
    the same --nu, and records that nu."""
    base = ("--n", "8", "--eps", "0.4", "--nu", "0.25", "--trials", "3",
            "--format", "json")
    code, out, _ = run(capsys, "test-closeness", "--tester", "l1", "--gen", "l1-pair",
                       *base)
    assert code == 0
    report = json.loads(out)
    code, out, _ = run(capsys, "sweep", "--tester", "l1", *base)
    assert code == 0
    assert report["summary"]["t"] == json.loads(out)["rows"][0]["budget_t"] == 1778
    assert report["params"]["nu"] == 0.25


def test_l1_promise_warning_names_l1_distance(capsys):
    code, _, err = run(capsys, "test-closeness", "--tester", "l1", "--gen", "l1-pair:0.1",
                       "--n", "8", "--eps", "0.4", "--trials", "3")
    assert code == 0
    assert "(l1 distance 0.1" in err and "l2 distance" not in err


@pytest.mark.parametrize("tester, gen, eps, off_promise", [
    # default instances, whose distance comes out an ulp short of eps
    ("l1", "l1-pair", "0.4", False),
    ("l1", "l1-pair", "0.2", False),
    ("l2", "l2-pair", "0.1", False),
    ("tolerant-l2", "l2-pair", "0.1", False),
    # l1 0.399 < 0.4; l2 0.099 < 0.1; l2 0.0707 between (1 - nu) eps and eps
    ("l1", "l1-pair:0.399", "0.4", True),
    ("l2", "l2-pair:0.14", "0.1", True),
    ("tolerant-l2", "l2-pair:0.1", "0.1", True),
])
def test_promise_warning_only_off_promise(capsys, tester, gen, eps, off_promise):
    code, out, err = run(capsys, "test-closeness", "--tester", tester, "--gen", gen,
                         "--n", "8", "--eps", eps, "--trials", "1")
    assert code == 0
    assert ("violates the promise" in err) == off_promise
    assert out.rstrip().endswith(f"promise_ok={not off_promise}")


@pytest.mark.parametrize("argv", [
    ("test-closeness", "--gen", "identical", "--n", "0"),
    ("estimate", "--gen", "identical", "--n", "0"),
    ("test-closeness", "--gen", "identical", "--n", "-1"),
    ("test-closeness", "--gen", "disjoint", "--n", "0"),
    ("test-closeness", "--gen", "disjoint", "--n", "1"),
    ("estimate", "--gen", "disjoint", "--n", "1"),
])
def test_closeness_generator_refuses_sizes_it_cannot_build(capsys, argv):
    """identical needs --n >= 1 and disjoint --n >= 2 (at n = 1 its two point
    masses would coincide), refused with an error, not a traceback."""
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, "--trials", "2")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("test-closeness", "--gen", "l2-pair", "--n", "0"),
    ("test-closeness", "--gen", "l1-pair", "--n", "0"),
    ("test-closeness", "--gen", "identical", "--n", "0"),
    ("test-closeness", "--gen", "disjoint", "--n", "0"),
    ("estimate", "--gen", "identical", "--n", "0"),
    ("sweep", "--n-grid", "0"),
])
def test_nonpositive_n_is_named_before_it_sizes_a_layout(capsys, argv):
    """--n below 1 is refused naming --n, not the engine register that a
    layout pre-flight would size from it."""
    code, out, err = run(capsys, *argv, "--trials", "2")
    assert code == 2 and out == ""
    assert err == "error: --n must be positive, got 0\n"


@pytest.mark.parametrize("argv,bad", [
    (("test-closeness", "--gen", "l2-pair", "--n", "8", "--eps", "-0.5"), -0.5),
    (("test-closeness", "--tester", "l1", "--gen", "l1-pair", "--n", "8", "--eps", "1.5"),
     1.5),
    (("estimate", "--gen", "l2-pair", "--n", "8", "--eps", "-0.5"), -0.5),
    (("test-kwise", "--gen", "uniform", "--n", "3", "--eps", "-0.5"), -0.5),
    (("sweep", "--eps-grid", "0.2,-0.5", "--n", "8"), -0.5),
    (("sweep", "--tester", "kwise", "--eps-grid", "0.3,1.5", "--n", "3"), 1.5),
])
def test_eps_is_checked_as_typed_before_any_instance(capsys, monkeypatch, argv, bad):
    """--eps, and each --eps-grid value, is checked with the testers' own
    check before any instance is built, so the message shows the number the
    user typed, not the distance a generator derives from it."""
    def no_instance(*args, **kwargs):
        raise AssertionError("an instance was built before eps was checked")

    monkeypatch.setattr(cli, "_closeness_pair", no_instance)
    monkeypatch.setattr(cli, "_kwise_dist", no_instance)
    code, out, err = run(capsys, *argv, "--trials", "2")
    assert code == 2 and out == ""
    assert err == f"error: eps must lie in (0, 1), got {bad}\n"


@pytest.mark.parametrize("argv,names", [
    (("test-closeness", "--gen", "identical", "--eps", "5e-324"), ("eps",)),
    (("estimate", "--gen", "identical", "--eps", "1e-320"), ("eps",)),
    (("test-closeness", "--tester", "tolerant-l2", "--nu", "1e-320", "--gen", "identical"),
     ("eps", "nu")),
    (("test-closeness", "--tester", "l1", "--gen", "l1-pair", "--eps", "1e-310"), ("eps",)),
    (("sweep", "--eps-grid", "5e-324"), ("eps",)),
    (("test-kwise", "--gen", "uniform", "--eps", "1e-320"), ("eps",)),
], ids=["closeness", "estimate", "tolerant-nu", "l1", "sweep", "kwise"])
def test_accuracy_too_small_for_a_finite_budget_exits_2(capsys, argv, names):
    """An eps or nu in (0, 1) so small that ceil(c pi / x) is not finite (x
    underflows to 0, or c pi / x overflows) is refused with one message that
    names the parameter, not a ZeroDivisionError or OverflowError."""
    code, out, err = run(capsys, *argv, "--n", "4", "--trials", "1")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert all(f"{name}=" in err for name in names)


@pytest.mark.parametrize("gen,d", [("l2-pair", "-0.5"), ("l1-pair", "1.5")])
def test_pair_generator_error_names_the_distance(capsys, gen, d):
    code, out, err = run(capsys, "test-closeness", "--gen", f"{gen}:{d}", "--n", "8",
                         "--trials", "2")
    assert code == 2 and out == ""
    assert err == f"error: need the pair's l1 distance d in [0, 1], got {float(d)}\n"


def test_identical_generator_builds_one_point_space(capsys):
    code, out, _ = run(capsys, "test-closeness", "--gen", "identical", "--n", "1",
                       "--trials", "2")
    assert code == 0
    assert "frequencies.CLOSE=1.0" in out


def test_estimate_rejects_repeats(capsys):
    code, out, err = run(capsys, "estimate", "--gen", "l2-pair", "--n", "4",
                         "--trials", "2", "--repeats", "4")
    assert code == 2 and out == ""
    assert "unrecognized arguments: --repeats 4" in err


@pytest.mark.parametrize("argv", [
    # 2 * 5^3 amplitudes, 8000 B at 32 B each; n = 4 would need exactly 4096 B
    ("test-closeness", "--gen", "l2-pair", "--n", "5"),
    ("test-kwise", "--gen", "uniform", "--n", "3"),
    ("estimate", "--gen", "l2-pair", "--n", "5"),
])
def test_state_too_large_for_memory_exits_2(capsys, monkeypatch, argv):
    monkeypatch.setattr(sv, "available_memory_bytes", lambda: 4096)
    code, out, err = run(capsys, *argv, "--trials", "3")
    assert code == 2
    assert out == ""
    assert err.startswith("error: a state of dimension") and "available" in err


@pytest.mark.parametrize("argv", [
    ("estimate", "--gen", "l2-pair", "--n", "4", "--trials", "1000000000000000"),
    # 10^8 trials would fit in 8 GiB; three runs each would not
    ("test-closeness", "--gen", "l2-pair", "--n", "4", "--trials", "100000000",
     "--repeats", "3"),
    ("sweep", "--tester", "kwise", "--n", "3", "--trials", "1000000000000000"),
])
def test_too_many_trials_exit_2_before_any_oracle(capsys, monkeypatch, argv):
    """The trial count is checked against free memory (fixed here at 8 GiB)
    before any oracle is built or any trial drawn."""
    def no_oracle(*args, **kwargs):
        raise AssertionError("an oracle was built before --trials was checked")

    monkeypatch.setattr(sv, "available_memory_bytes", lambda: 8 * 2 ** 30)
    monkeypatch.setattr(cli.orc, "make_purified_oracle", no_oracle)
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code, out, err = run(capsys, *argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert peak < 2 ** 20
    assert code == 2 and out == ""
    assert err.startswith("error: a run of ") and "trials needs about" in err
    assert "available" in err


@pytest.mark.parametrize("argv", [
    ("test-closeness", "--gen", "l2-pair", "--n", "1000000000000"),
    ("test-kwise", "--gen", "uniform", "--n", "40"),
    ("estimate", "--gen", "identical", "--n", "1000000000000"),
    ("test-kwise", "--gen", "multiset:1000000000000", "--n", "4"),
])
def test_oversized_n_exits_2_before_any_weights(capsys, monkeypatch, argv):
    """An --n or a multiset count whose weights or draws alone would take
    TiBs is refused (k-wise: more than MAX_BITS bits, or the count checked
    against free memory; closeness and estimate: the state pre-flight on the
    size) before any generator allocates them."""
    def no_oracle(*args, **kwargs):
        raise AssertionError("an oracle was built for an oversized --n")

    monkeypatch.setattr(sv, "available_memory_bytes", lambda: 8 * 2 ** 30)
    monkeypatch.setattr(cli.orc, "make_purified_oracle", no_oracle)
    tracemalloc.start()
    try:
        code, out, err = run(capsys, *argv, "--trials", "1")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert code == 2 and out == ""
    assert err.startswith("error: ")


def test_kwise_preflight_sizes_the_subset_register(capsys, monkeypatch):
    """test-kwise --n 9 --k 2 asks for its state of 46 subsets x 2^18 (A, B)
    amplitudes at the per-amplitude charge each, not for 2^27 amplitudes: it
    passes the pre-flight with exactly that much memory and is refused with
    one byte less."""
    class Built(Exception):
        pass

    def stub_oracle(*args, **kwargs):
        raise Built

    need = 46 * 2 ** 18 * sv._PEAK_BYTES_PER_AMPLITUDE
    monkeypatch.setattr(cli.orc, "make_purified_oracle", stub_oracle)
    monkeypatch.setattr(sv, "available_memory_bytes", lambda: need)
    with pytest.raises(Built):
        cli.main(["test-kwise", "--gen", "uniform", "--n", "9", "--k", "2", "--trials", "1"])
    monkeypatch.setattr(sv, "available_memory_bytes", lambda: need - 1)
    code, out, err = run(capsys, "test-kwise", "--gen", "uniform", "--n", "9", "--k", "2",
                         "--trials", "1")
    assert code == 2 and out == ""
    assert err.startswith(f"error: a state of dimension {46 * 2 ** 18} "
                          f"needs about {need / 2 ** 30:.2f} GiB")


@pytest.mark.parametrize("name,text,command", [
    ("huge-index.csv", "0,0.5\n1000000000000,0.5\n", "test-closeness"),
    ("huge-n.json", '{"kind": "bitstring", "n": 1000000000000, "weights": [1.0]}',
     "test-kwise"),
    ("negative-n.json", '{"kind": "bitstring", "n": -3, "weights": [1.0]}', "test-kwise"),
    ("infinite-n.json", '{"kind": "range", "n": Infinity, "weights": [1.0]}', "estimate"),
    ("float-n.json", '{"kind": "range", "n": 2.7, "weights": [0.5, 0.5]}', "estimate"),
    ("bool-n.json", '{"kind": "range", "n": true, "weights": [1.0]}', "estimate"),
    ("string-n.json", '{"kind": "range", "n": "2", "weights": [0.5, 0.5]}', "estimate"),
], ids=["huge-csv-index", "huge-bitstring-n", "negative-bitstring-n", "infinite-n",
        "float-n", "bool-n", "string-n"])
def test_bad_distribution_file_exits_2_naming_it(tmp_path, capsys, name, text, command):
    """A CSV index or a bitstring n whose range or 2^n alone would take TiBs
    is refused from the row count and the bit bound before either is built,
    and an n that is negative, infinite or not an integer (not read as
    int(n), which would take 2.7 as 2 and true as 1) is refused too, each
    with a message that names the file."""
    bad = tmp_path / name
    bad.write_text(text, encoding="utf-8")
    argv = [command, "--dist", str(bad)]
    if command != "test-kwise":
        (tmp_path / "ok.csv").write_text("0,0.5\n1,0.5\n", encoding="utf-8")
        argv += ["--dist2", str(tmp_path / "ok.csv")]
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code, out, err = run(capsys, *argv, "--trials", "1")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert peak < 2 ** 20
    assert code == 2 and out == ""
    assert err.startswith(f"error: {bad}: ") and "Traceback" not in err


@pytest.mark.parametrize("name,data,message", [
    ("kind.json", b'{"kind": "foo", "n": 2, "weights": [0.5, 0.5]}',
     "unknown sample-space kind 'foo'"),
    ("matrix.json", b'{"kind": "range", "n": 4, "weights": [[0.25, 0.25], [0.25, 0.25]]}',
     "weights must be a non-empty 1-d vector"),
    ("latin1.csv", b"0,0.5\n1,0.5\xff\n", "not UTF-8 text"),
], ids=["unknown-kind", "2d-weights", "not-utf8"])
def test_distribution_constructor_and_decode_errors_name_the_file(tmp_path, capsys, name,
                                                                  data, message):
    """A file whose kind or weight shape the Distribution constructor refuses,
    or that is not UTF-8 text, is refused with a message that names it, as
    every other load error is."""
    bad = tmp_path / name
    bad.write_bytes(data)
    code, out, err = run(capsys, "estimate", "--dist", str(bad), "--dist2", str(bad),
                         "--trials", "1")
    assert code == 2 and out == ""
    assert err.startswith(f"error: {bad}: {message}") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["test-closeness", "estimate"])
@pytest.mark.parametrize("first,second,spaces", [
    ("0,0.5\n1,0.5\n", "0,0.3\n1,0.3\n2,0.4\n", "range of 2 vs range of 3"),
    ("0,0.5\n1,0.5\n", to_json(uniform(2, BITSTRING)), "range of 2 vs bitstring of 2"),
], ids=["sizes", "kinds"])
def test_mismatched_file_pair_exits_2_before_any_oracle(tmp_path, capsys, monkeypatch,
                                                       command, first, second, spaces):
    """A --dist / --dist2 pair over different sample spaces (sizes, or kinds
    of one size) is refused as soon as both files are loaded."""
    def no_oracle(*args, **kwargs):
        raise AssertionError("an oracle was built for a mismatched pair")

    monkeypatch.setattr(cli.orc, "make_purified_oracle", no_oracle)
    p, q = tmp_path / "p.csv", tmp_path / ("q.json" if "bitstring" in spaces else "q.csv")
    p.write_text(first, encoding="utf-8")
    q.write_text(second, encoding="utf-8")
    code, out, err = run(capsys, command, "--dist", str(p), "--dist2", str(q),
                         "--garbage", "haar", "--trials", "1")
    assert code == 2 and out == ""
    assert err == f"error: --dist and --dist2 have different sample spaces ({spaces})\n"


def _child_env() -> dict:
    """The environment of a fresh ``qdtest`` child: ``src`` on PYTHONPATH
    and one BLAS thread."""
    src = str(Path(qdtest.__file__).resolve().parents[1])
    return dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


_ESTIMATE = ["estimate", "--gen", "l2-pair", "--n", "4", "--eps", "0.5", "--format", "json"]


def test_closed_stdout_exits_2_without_a_traceback():
    """A child started with file descriptor 1 closed has no sys.stdout; its
    report to standard output is refused with a message, not an
    AttributeError."""
    proc = subprocess.run([sys.executable, "-m", "qdtest.cli", *_ESTIMATE, "--trials", "3"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          env=_child_env(), preexec_fn=lambda: os.close(1), timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == "error: standard output is closed\n"


def test_broken_pipe_exits_2_without_a_traceback():
    """A reader that closes the pipe after 20 bytes (``| head -c 20``) gets
    those bytes; the writer reports the broken pipe and exits 2."""
    proc = subprocess.Popen([sys.executable, "-m", "qdtest.cli", *_ESTIMATE, "--trials",
                             "20000"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=_child_env())
    try:
        head = proc.stdout.read(20)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.stderr.close()
    assert head == b'{\n  "command": "esti'
    assert code == 2
    assert err == "error: [Errno 32] Broken pipe\n"


def _vm_size_after_import() -> int:
    """Bytes of address space of a fresh child that has imported qdtest.cli."""
    proc = subprocess.run(
        [sys.executable, "-c", "import qdtest.cli; print(open('/proc/self/status').read())"],
        capture_output=True, text=True, env=_child_env(), check=True, timeout=60)
    kib = next(line.split()[1] for line in proc.stdout.splitlines()
               if line.startswith("VmSize:"))
    return int(kib) * 1024


_BLIND_PREFLIGHT_CHILD = """
import sys
from qdtest import cli, statevec
statevec.available_memory_bytes = lambda: None  # no free-memory figure: nothing is refused
sys.exit(cli.main(sys.argv[1:]))
"""


def test_memory_error_past_the_preflight_exits_2():
    """When a limit that the pre-flight cannot see (here it sees none) stops
    an allocation, the run still ends in a message and exit 2.  The
    4.19M-amplitude complex state of a Haar-garbage run alone takes 64 MiB,
    the whole headroom the child is given."""
    limit = _vm_size_after_import() + 64 * 2 ** 20

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    proc = subprocess.run(
        [sys.executable, "-c", _BLIND_PREFLIGHT_CHILD, "test-closeness", "--gen", "identical",
         "--n", "128", "--trials", "1", "--garbage", "haar"],
        capture_output=True, text=True, env=_child_env(), preexec_fn=cap_address_space,
        timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: out of memory ("), proc.stderr
    assert "Traceback" not in proc.stderr


def test_preflight_sees_the_address_space_limit():
    """The pre-flight counts the room left under RLIMIT_AS, so a k-wise run
    whose state needs more than the 400 MiB the child has left (n = 10:
    1.75 GiB at 32 B per amplitude) is refused up front, before an
    allocation inside OpenBLAS fails and exits 1."""
    limit = _vm_size_after_import() + 400 * 2 ** 20

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    proc = subprocess.run(
        [sys.executable, "-m", "qdtest.cli", "test-kwise", "--gen", "spike:1,2:0.6",
         "--n", "10", "--trials", "1"],
        capture_output=True, text=True, env=_child_env(), preexec_fn=cap_address_space,
        timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "needs about" in proc.stderr
    assert "OpenBLAS" not in proc.stderr and "Traceback" not in proc.stderr


_IMPORT_SET_CHILD = """
import sys
before = set(sys.modules)
import qdtest.cli
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_importing_the_cli_loads_only_what_a_tester_run_reads():
    """Importing qdtest.cli generates no class code (no dataclasses) and
    loads neither the CSV reader nor the selfcheck and plot modules, which
    only their own branches import."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT_SET_CHILD], capture_output=True,
                          text=True, env=_child_env(), check=True, timeout=60)
    loaded = set(proc.stdout.split())
    assert "qdtest.cli" in loaded
    assert not loaded & {"dataclasses", "csv", "qdtest.selfcheck", "qdtest.plotting"}


@pytest.mark.parametrize("argv", [
    ("test-closeness", "--gen", "l2-pair", "--n", "8", "--eps", "1e-12"),
    ("test-kwise", "--gen", "uniform", "--n", "4", "--eps", "1e-12"),
    ("sweep", "--eps", "1e-12", "--n", "8"),
])
def test_oversized_phase_register_exits_2_before_allocating(capsys, monkeypatch, argv):
    """A budget whose M-point phase register would take PiBs (M = 2^47 to
    2^50) is refused by the phase-register pre-flight before the state or
    any phase array is allocated."""
    monkeypatch.setattr(sv, "available_memory_bytes", lambda: 8 * 2 ** 30)
    tracemalloc.start()
    try:
        code, out, err = run(capsys, *argv, "--trials", "1")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert code == 2 and out == ""
    assert "violates" not in err  # the l2 pair sits at eps up to rounding
    assert err.startswith("error: a phase register of ") and "available" in err


@pytest.mark.parametrize("argv", [
    ("test-closeness", "--gen", "l2-pair", "--n", "5"),
    ("test-closeness", "--dist", "{p}", "--dist2", "{q}"),
    ("estimate", "--gen", "identical", "--n", "6"),
    ("test-kwise", "--gen", "spike:1,2:0.6", "--n", "3"),
    ("sweep", "--tester", "kwise", "--n", "3"),
], ids=["range-closeness", "bitstring-closeness", "estimate", "kwise", "sweep-kwise"])
def test_preflight_sizes_the_layout_the_plan_runs_on(tmp_path, capsys, monkeypatch, argv):
    """Every layout the CLI's memory pre-flight sizes has the dimension of
    the layout of the plan the command then runs."""
    p, q = tmp_path / "p.json", tmp_path / "q.json"
    p.write_text(to_json(uniform(8, BITSTRING)), encoding="utf-8")
    q.write_text(to_json(point_mass(8, 3, BITSTRING)), encoding="utf-8")
    sized, planned = [], []
    monkeypatch.setattr(cli, "require_memory", lambda layout: sized.append(layout.total_dim))
    real = exp.run_trials
    monkeypatch.setattr(exp, "run_trials",
                        lambda plan, *rest: planned.append(plan) or real(plan, *rest))
    code, _, _ = run(capsys, *(a.format(p=p, q=q) for a in argv), "--trials", "1")
    assert code == 0
    assert sized and len(planned) == 1
    assert set(sized) == {planned[0].layout.total_dim}


def _cap_address_space():
    limit = 2 * 2 ** 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.parametrize("garbage", ["basis", "haar"])
def test_infeasible_instance_exits_2_before_building_oracles(garbage):
    """At d = 8192 each oracle would hold d x d tables (1 GiB per Haar matrix);
    the pre-flight must refuse the 2 d^3-amplitude state first.  The child's
    address space is capped, so a late check fails with an out-of-memory
    error rather than an out-of-memory kill."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "qdtest.cli", "test-closeness", "--gen", "l2-pair",
         "--n", "5000", "--garbage", garbage],
        capture_output=True, text=True, env=_child_env(), preexec_fn=_cap_address_space,
        timeout=60)
    assert time.perf_counter() - start < 10.0
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: a state of dimension"), proc.stderr


_NUMPY_RANDOM_CHILD = """
import sys
from qdtest import cli
code = cli.main(sys.argv[1:])
print(code, "numpy.random" in sys.modules)
"""


@pytest.mark.parametrize("argv", [
    "test-closeness --tester l2 --n 16 --eps 0.2 --trials 100 --garbage haar --gen l2-pair",
    "test-closeness --tester l2 --n 16 --eps 0.2 --trials 100 --garbage haar --gen identical",
    "test-kwise --n 4 --k 2 --eps 0.3 --trials 100 --gen spike:1,2:0.6",
    "estimate --gen l2-pair --n 4 --eps 0.5 --trials 20000 --format json",
], ids=["closeness-haar-far", "closeness-haar-near", "kwise-n4-far", "estimate-trials"])
def test_benchmarked_runs_never_import_numpy_random(tmp_path, argv):
    """The benchmark's invocations, each run in a fresh interpreter, draw
    every uniform (trials and Haar garbage alike) from qdtest.seeding, so
    none of them imports numpy.random and its bit generators."""
    out_file = tmp_path / "report"
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_RANDOM_CHILD, *argv.split(), "--seed", "1",
         "--out", str(out_file)],
        capture_output=True, text=True, env=_child_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False"]
    assert out_file.stat().st_size > 0


@pytest.mark.parametrize("argv", [
    "test-closeness --tester l2 --n 4 --eps 0.5 --garbage haar --gen l2-pair",
    "test-kwise --n 3 --k 2 --eps 0.5 --gen spike:1,2:0.6",
    "estimate --gen l2-pair --n 4 --eps 0.5 --format json",
], ids=["closeness", "kwise", "estimate"])
def test_benchmark_setup_probe_builds_plans(tmp_path, argv):
    """The benchmark's set-up child, perfbench/probe.py, builds each plan
    through cli._closeness_pair, _oracle_pair, _kwise_dist, closeness_plan,
    kwise_plan and cli.orc.make_purified_oracle / closeness_instance; a
    rename of any of them fails every benchmark run, so run it on tiny
    invocations."""
    src = Path(qdtest.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    out_file = tmp_path / "setup.json"
    proc = subprocess.run(
        [sys.executable, str(src.parent / "perfbench" / "probe.py"), "setup",
         str(out_file), "--", *argv.split(), "--trials", "2", "--seed", "1",
         "--out", str(tmp_path / "report")],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert isinstance(json.loads(out_file.read_text())["setup_s"], float)


def _cli_child(*argv):
    """``python -m qdtest.cli ARGV`` in a fresh interpreter, which starts in
    the frozen entry (cli.entry)."""
    return subprocess.run([sys.executable, "-m", "qdtest.cli", *argv],
                          capture_output=True, env=_child_env(), timeout=120)


def test_frozen_entry_end_to_end(tmp_path):
    """With the heap frozen by the entry, the report is still flushed whole,
    to a pipe and to --out, and the exit codes are main's."""
    command = ("estimate --gen l2-pair --n 4 --eps 0.5 --trials 20000 --format json "
               "--seed 10000")
    digest = GOLDEN[command]
    piped = _cli_child(*command.split())
    assert piped.returncode == 0, piped.stderr
    assert hashlib.sha256(piped.stdout).hexdigest() == digest
    out_file = tmp_path / "report.json"
    to_file = _cli_child(*command.split(), "--out", str(out_file))
    assert to_file.returncode == 0, to_file.stderr
    assert to_file.stdout == b""
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == digest
    refused = _cli_child("estimate", "--gen", "l2-pair", "--n", "4", "--seed", "-1")
    assert refused.returncode == 2
    assert refused.stderr.decode().startswith("error: --seed must be non-negative")


def test_only_the_entry_freezes_the_heap(capsys, monkeypatch):
    """cli.main run in-process leaves the collector's permanent generation
    alone; cli.entry freezes it once, then returns main's exit code."""
    frozen = gc.get_freeze_count()
    assert run(capsys, "estimate", "--gen", "l2-pair", "--n", "4", "--trials", "5")[0] == 0
    assert gc.get_freeze_count() == frozen

    calls = []
    monkeypatch.setattr(cli.gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(cli, "main", lambda argv=None: calls.append("main") or 7)
    assert cli.entry() == 7
    assert calls == ["freeze", "main"]


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


@pytest.mark.parametrize("tester,t,nu", [("l2", 315, 0.5), ("l1", 1778, 0.25)],
                         ids=["l2-315", "l1-1778"])
def test_sweep_uses_the_closeness_testers_nu(tmp_path, capsys, tester, t, nu):
    """--nu tunes tolerant-l2 and l1 only: sweep's plain l2 tester runs at
    nu = 1/2, with the budget that test-closeness gives it, and both record
    the nu the tester ran at.  The sweep row is that run's summary."""
    sweep, close = tmp_path / "sweep.json", tmp_path / "close.json"
    common = ("--tester", tester, "--nu", "0.25", "--eps", "0.4", "--n", "8",
              "--trials", "2", "--format", "json")
    assert run(capsys, "sweep", *common, "--out", str(sweep))[0] == 0
    assert run(capsys, "test-closeness", *common, "--gen", f"{tester}-pair",
               "--out", str(close))[0] == 0
    swept = json.loads(sweep.read_text(encoding="utf-8"))
    closed = json.loads(close.read_text(encoding="utf-8"))
    row, summary = swept["rows"][0], closed["summary"]
    assert row["budget_t"] == summary["t"] == t
    assert swept["params"]["nu"] == closed["params"]["nu"] == nu
    assert row["success_freq"] == summary["frequencies"].get("FAR", 0.0)
    for column in exp.ORACLE_QUERY_COLUMNS:
        assert row[column] == summary[f"mean_{column}"]
    assert row["mean_queries_total"] == sum(row[c] for c in exp.ORACLE_QUERY_COLUMNS)


@pytest.mark.parametrize("argv,warning", [
    (("--tester", "l2", "--eps-grid", "0.8"),
     "warning: instance violates the promise (l2 distance 0.7071067811865476)\n"),
    (("--tester", "kwise", "--n-grid", "3", "--eps-grid", "0.9", "--delta", "0.01"),
     "warning: instance may violate the promise (Fourier weight "),
], ids=["l2", "kwise"])
def test_sweep_warns_as_its_subcommand_does(capsys, argv, warning):
    """A sweep point off the promise prints its subcommand's warning, and
    the report on stdout is unchanged by it."""
    code, out, err = run(capsys, "sweep", *argv, "--trials", "5", "--seed", "1")
    assert code == 0 and err.startswith(warning)
    assert out.startswith("# schema_version=1 command=sweep\n")


@pytest.mark.parametrize("command,source", [
    ("test-closeness", "l2-pair:0.5:7"),
    ("test-closeness", "l1-pair:0.2:1"),
    ("test-closeness", "identical:3"),
    ("test-closeness", "disjoint:9"),
    ("test-closeness", "l2-pair:"),
    ("test-kwise", "uniform:3"),
    ("test-kwise", "multiset:3:4"),
    ("test-kwise", "multiset:abc"),
    ("test-kwise", "spike::0.5"),
    ("test-kwise", None),
], ids=["l2-pair", "l1-pair", "identical", "disjoint", "empty-field", "uniform",
        "multiset-fields", "multiset-count", "spike-coords", "range-file"])
def test_instance_errors_name_their_source(tmp_path, capsys, command, source):
    """A --gen spec with a field its generator does not read, or a field
    that is not a number (an empty one included), and a range file given to
    test-kwise, are refused with one message that names the spec or the file."""
    if source is None:
        source = str(tmp_path / "range.csv")
        Path(source).write_text("0,0.5\n1,0.5\n", encoding="utf-8")
        argv = ("--dist", source)
    else:
        argv = ("--gen", source)
    code, out, err = run(capsys, command, *argv, "--n", "4", "--trials", "1")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and source in err


@pytest.mark.parametrize("argv", [
    ("test-closeness", "--gen", "disjoint", "--n", "8", "--dist2", "no-such-file"),
    ("test-closeness", "--gen", "l2-pair", "--dist", "x", "--dist2", "y"),
    ("test-kwise", "--gen", "uniform", "--dist", "x"),
    ("estimate", "--gen", "l2-pair", "--dist", "x"),
], ids=["closeness-dist2", "closeness-both", "kwise", "estimate"])
def test_gen_with_a_distribution_file_exits_2(capsys, monkeypatch, argv):
    """--gen beside --dist or --dist2 is refused, naming both flags, before
    any instance is built; neither is silently ignored."""
    def no_instance(*args, **kwargs):
        raise AssertionError("an instance was built")

    for name in ("gen_l2_pair", "gen_l1_pair", "gen_fourier_spike"):
        monkeypatch.setattr(cli.ref, name, no_instance)
    monkeypatch.setattr(cli.dists, "uniform", no_instance)
    monkeypatch.setattr(cli.dists, "point_mass", no_instance)
    code, out, err = run(capsys, *argv, "--trials", "2")
    assert code == 2 and out == ""
    assert err.startswith("error: --gen and --dist") and "Traceback" not in err


@pytest.mark.parametrize("k", ["0", "-1", "4"])
def test_sweep_kwise_k_out_of_range_exits_2(capsys, k):
    """sweep checks k as test-kwise does, before it builds a spike on
    coordinates 1..k, and gives the same message."""
    code, out, err = run(capsys, "sweep", "--tester", "kwise", "--n", "3", "--k", k)
    assert code == 2 and out == ""
    assert err == f"error: k={k} out of range for n=3\n"
    assert run(capsys, "test-kwise", "--gen", "uniform", "--n", "3", "--k", k)[2] == err


def test_sweep_plot_failure_writes_no_report(tmp_path, capsys):
    """sweep writes its plot before its report, so a plot path in a missing
    directory exits 2 with nothing on stdout and no --out file."""
    argv = ("sweep", "--tester", "kwise", "--n-grid", "3", "--trials", "3",
            "--plot", str(tmp_path / "missing" / "y.svg"))
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("error: ")
    report = tmp_path / "report.csv"
    code, out, _ = run(capsys, *argv, "--out", str(report))
    assert code == 2 and out == ""
    assert not report.exists()


# every option of each subcommand (as its argparse dest) with its default
OPTIONS = {
    "test-closeness": {"eps": 0.2, "trials": 100, "seed": 0, "garbage": "basis",
                       "gen": None, "dist": None, "out": None, "format": "csv", "n": 8,
                       "tester": "l2", "nu": 0.5, "dist2": None, "repeats": 1},
    "test-kwise": {"eps": 0.2, "trials": 100, "seed": 0, "garbage": "basis", "gen": None,
                   "dist": None, "out": None, "format": "csv", "k": 2, "n": 4,
                   "repeats": 1},
    "estimate": {"eps": 0.2, "trials": 100, "seed": 0, "garbage": "basis", "gen": None,
                 "dist": None, "out": None, "format": "csv", "n": 8, "dist2": None},
    "sweep": {"tester": "l2", "eps_grid": None, "n_grid": None, "eps": 0.2, "n": 8,
              "k": 2, "nu": 0.5, "delta": 0.6, "trials": 50, "seed": 0,
              "garbage": "basis", "out": None, "format": "csv", "plot": None},
    "selfcheck": {},
}


@pytest.mark.parametrize("command", sorted(OPTIONS))
def test_subcommand_options_and_defaults(capsys, command):
    """Each subcommand's --help lists exactly its pinned options, and each
    option parses to its pinned default."""
    assert cli.main([command, "--help"]) == 0
    listed = set(re.findall(r"(?<![\w-])(--?[a-z][\w-]*)", capsys.readouterr().out))
    assert listed == {"-h", "--help"} | {f"--{dest.replace('_', '-')}"
                                         for dest in OPTIONS[command]}
    args = cli.build_parser().parse_args([command])
    assert {dest: getattr(args, dest) for dest in OPTIONS[command]} == OPTIONS[command]


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
        s_pi, inv_u, neg_s0, u = real(unitary, layout, projector).steps
        flipped = sv.SignOp(s_pi.regs, -s_pi.signs)  # 2 Pi - I: the wrong sign
        return sv.SequenceOp([flipped, inv_u, neg_s0, u])

    monkeypatch.setattr(ae, "grover_iterate", corrupted)
    assert cli.main(["selfcheck"]) == 1
    assert "FAIL" in capsys.readouterr().out
    monkeypatch.setattr(ae, "grover_iterate", real)
    assert cli.main(["selfcheck"]) == 0
