"""Golden report bytes: sha256 digests of CLI reports for fixed arguments.

Every report the CLI writes is byte-stable for fixed arguments and seed, so
a refactor of the trial pipeline must leave these digests unchanged.  The
cases cover both sides of the benchmark's closeness-haar and kwise-n4
shapes, the estimator (the benchmark's estimate-trials invocation in JSON
and two Haar estimates in CSV, one of 5000 trials), ``--repeats`` (a
majority-vote report in JSON among them), the l1 reduction, the multiset
generator and the three sweep branches.  Each report is written once to
stdout and once to an ``--out`` file, and both must have the pinned bytes.
"""
import hashlib

import pytest

from qdtest import cli

GOLDEN = {
    "test-closeness --tester l2 --n 16 --eps 0.2 --trials 100 --garbage haar "
    "--gen l2-pair --seed 1":
        "4e76dba385ab3a8972550f5b009743f67d425eaa85970b3933ad3e30a1bbc7a9",
    "test-closeness --tester l2 --n 16 --eps 0.2 --trials 100 --garbage haar "
    "--gen identical --seed 1":
        "566c055295e0221a7f09d701a70d089583bb336b08df3ed66b7f8d5bd659c11b",
    "test-kwise --n 4 --k 2 --eps 0.3 --trials 100 --gen spike:1,2:0.6 --seed 1":
        "ff0bccac8fdc23be9b23b41f831b7715ad712c084ecb4549ec6a8afb7b291cc9",
    "test-kwise --n 4 --k 2 --eps 0.3 --trials 100 --gen uniform --seed 1":
        "7bf74306ddc22631ead628b75f87b2cc54d0c83e1b995535cef9f730eff5993f",
    "estimate --gen l2-pair --n 4 --eps 0.5 --trials 500 --format json --seed 3":
        "de37e20a62c9b2e50bb73e3383302ca8604806d79c0effbfa138399888d99ff4",
    "estimate --gen l2-pair --n 4 --eps 0.5 --trials 20000 --format json --seed 10000":
        "28ac488a30430167a9946ee13528737af15b825c9dff913b309c3440f3780e0d",
    "estimate --gen l1-pair --n 8 --eps 0.3 --trials 200 --garbage haar --seed 11":
        "8c78a115b52582b60ba9d0d1d7cc0c5b1cf6ef5961c5f514672fbd436655392e",
    "estimate --gen l2-pair --n 8 --eps 0.3 --trials 5000 --garbage haar --seed 12":
        "dbf00c19b64d0bde3f51d8409ab2b596cbcd73a2151e4ed9edd38453303ca36a",
    "test-closeness --tester tolerant-l2 --gen l2-pair --n 8 --nu 0.4 --repeats 3 "
    "--trials 30 --seed 4":
        "eff17d719385598b895428e8b863522973db27e119c0dd2d716f2393562ea9c0",
    "test-kwise --n 4 --k 2 --eps 0.3 --trials 1000 --repeats 3 --gen spike:1,2:0.6 "
    "--format json --seed 13":
        "7954399ea7ee0a566cd0eda864b27fd5d51b5026689bdac5469cd776db55272b",
    "test-closeness --tester l1 --gen l1-pair --n 8 --eps 0.4 --trials 30 --seed 5":
        "778373e91ffd9ec3438a1efc0a57c6442998f50359f4bd3bb43111288ccbaae1",
    "test-kwise --gen multiset:6 --n 4 --k 2 --eps 0.3 --trials 30 --seed 6":
        "77e2946a78b10fa60b92cc3db03631c0aed1a849afc5c529195bdc6e44a96c96",
    "sweep --tester l2 --eps-grid 0.4,0.2 --garbage haar --n 8 --trials 20 --seed 7":
        "ae8eaacf0d6602c68d9cfead88788cae06fa47a9f5f839870854bb6e47c2a374",
    "sweep --tester l1 --n-grid 4,8 --eps 0.4 --trials 20 --seed 8":
        "b542014770e7be441b62ac62b7805c851d9d2d1eda01ff56e97fb424f0976dba",
    "sweep --tester kwise --garbage haar --eps-grid 0.4,0.3,0.2 --n-grid 3,4 "
    "--trials 50 --seed 5":
        "048b17efd0a2f4860b3123996571ec84182732435097c165434ed1f686585479",
}


@pytest.mark.parametrize("command", sorted(GOLDEN), ids=lambda c: c.split(" --seed")[0])
def test_report_digest(capsys, command):
    assert cli.main(command.split()) == 0
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN[command]


@pytest.mark.parametrize("command", sorted(GOLDEN), ids=lambda c: c.split(" --seed")[0])
def test_out_file_digest(capsys, tmp_path, command):
    """``--out`` writes the same bytes as stdout: the digest pinned above."""
    path = tmp_path / "report"
    assert cli.main([*command.split(), "--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN[command]
