"""Distribution validation and file-format tests."""
import numpy as np
import pytest

from qdtest import distributions as dists
from qdtest.distributions import BITSTRING, Distribution, DistributionError

from helpers import to_json


def test_valid_distribution():
    d = Distribution(np.array([0.25, 0.75]))
    assert d.size == 2 and d.kind == "range"


def test_rejects_negative_and_unnormalized():
    with pytest.raises(DistributionError):
        Distribution(np.array([-0.1, 1.1]))
    with pytest.raises(DistributionError):
        Distribution(np.array([0.5, 0.4]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rejects_non_finite_weights(bad):
    """A non-finite weight is rejected, even where the sum test cannot see it
    (a NaN sum is not more than any tolerance away from 1)."""
    with pytest.raises(DistributionError, match="non-finite"):
        Distribution(np.array([bad, 1.0]))
    with pytest.raises(DistributionError, match="non-finite"):
        Distribution(np.array([0.0, 1.0, bad, 0.0]), BITSTRING)


def test_bitstring_needs_power_of_two():
    Distribution(np.full(8, 1 / 8), BITSTRING)
    with pytest.raises(DistributionError):
        Distribution(np.full(6, 1 / 6), BITSTRING)


def test_bitstring_bit_cap():
    with pytest.raises(DistributionError):
        Distribution(np.full(2 ** 21, 2.0 ** -21), BITSTRING)


def test_n_bits():
    assert Distribution(np.full(16, 1 / 16), BITSTRING).n_bits == 4
    with pytest.raises(DistributionError):
        _ = Distribution(np.array([1.0])).n_bits


def test_weights_are_frozen():
    d = dists.uniform(4)
    with pytest.raises(ValueError):
        d.weights[0] = 1.0


def test_json_round_trip():
    d = dists.uniform(8, BITSTRING)
    again = dists.from_json(to_json(d))
    assert again == d


def test_json_renormalizes_small_error():
    text = '{"kind": "range", "n": 2, "weights": [0.5000001, 0.5]}'
    d = dists.from_json(text)
    assert abs(d.weights.sum() - 1.0) < 1e-12


def test_json_rejects_large_error_and_malformed():
    with pytest.raises(DistributionError):
        dists.from_json('{"kind": "range", "n": 2, "weights": [0.6, 0.5]}')
    with pytest.raises(DistributionError):
        dists.from_json("{not json")
    with pytest.raises(DistributionError):
        dists.from_json('{"kind": "range", "n": 3, "weights": [1.0]}')


def test_csv_round_trip(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("index,weight\n0,0.25\n2,0.5\n1,0.25\n", encoding="utf-8")
    d = dists.load(path)
    assert np.allclose(d.weights, [0.25, 0.25, 0.5])


def test_csv_rejects_gaps_and_duplicates():
    with pytest.raises(DistributionError):
        dists.from_csv("0,0.5\n2,0.5\n")
    with pytest.raises(DistributionError):
        dists.from_csv("0,0.5\n0,0.5\n")
    with pytest.raises(DistributionError):
        dists.from_csv("")


def test_load_json_file(tmp_path):
    path = tmp_path / "d.json"
    path.write_text(to_json(dists.uniform(4)), encoding="utf-8")
    assert dists.load(path) == dists.uniform(4)


@pytest.mark.parametrize("name,text", [
    ("d.csv", "index,weight\n0,0.25\n1,0.75\n"),
    ("d.json", to_json(dists.uniform(4))),
], ids=["csv", "json"])
def test_load_skips_a_byte_order_mark(tmp_path, name, text):
    """A file that begins with a UTF-8 byte-order mark, as a spreadsheet's
    export does, loads equal to the same file without it."""
    plain, marked = tmp_path / name, tmp_path / f"bom-{name}"
    plain.write_bytes(text.encode("utf-8"))
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert dists.load(marked) == dists.load(plain)


def test_generator_helpers():
    pm = dists.point_mass(4, 2)
    assert pm.weights[2] == 1.0
    assert dists.uniform(1) == dists.point_mass(1, 0) == Distribution(np.array([1.0]))
    rng = np.random.default_rng(0)
    rd = dists.random_distribution(6, rng)
    assert rd.size == 6 and abs(rd.weights.sum() - 1) < 1e-12


@pytest.mark.parametrize("build", [
    lambda: dists.uniform(0), lambda: dists.uniform(-1),
    lambda: dists.point_mass(0, 0), lambda: dists.point_mass(4, 4),
    lambda: dists.point_mass(4, -1), lambda: dists.point_mass(-2, 0),
], ids=["uniform-0", "uniform-negative", "point-mass-0", "point-mass-past-end",
        "point-mass-negative-element", "point-mass-negative-size"])
def test_generators_reject_sizes_and_elements_out_of_range(build):
    with pytest.raises(DistributionError):
        build()


@pytest.mark.parametrize("n,weights", [("2.7", "[0.5, 0.5]"), ("2.0", "[0.5, 0.5]"),
                                       ("true", "[1.0]"), ('"2"', "[0.5, 0.5]"),
                                       ("null", "[0.5, 0.5]"), ("[2]", "[0.5, 0.5]")])
def test_json_n_must_be_an_integer(n, weights):
    """n is not read as int(n), which would truncate 2.7 and read true as 1."""
    text = f'{{"kind": "range", "n": {n}, "weights": {weights}}}'
    with pytest.raises(DistributionError, match=r"^src\.json: "):
        dists.from_json(text, source="src.json")
