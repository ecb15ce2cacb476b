"""The package's value classes are read-only records (qdtest.record.Record):
a field cannot be assigned, equal values compare and hash equal where a
hash exists, and the repr names the class and its fields."""
import numpy as np
import pytest

from qdtest import oracles as orc
from qdtest import testers
from qdtest.distributions import Distribution, uniform
from qdtest.statevec import RegisterLayout

_ORACLES = (orc.make_purified_oracle(uniform(2), label="p"),
            orc.make_purified_oracle(uniform(2), label="q"))
_LAYOUT, _UNITARY, _PROJECTOR = orc.closeness_instance(*_ORACLES)


def _verdict():
    return testers.TestVerdict("FAR", 0.5, 8, 0.01, {"p": 3})


# class name -> (a fresh instance, a field, whether the class hashes)
CASES = {
    "Distribution": (lambda: Distribution(np.array([0.25, 0.75])), "weights", True),
    "RegisterLayout": (lambda: RegisterLayout((("A", 2), ("B", 3))), "registers", True),
    "PurifiedOracle": (lambda: orc.make_purified_oracle(uniform(3), label="p"), "label",
                       True),
    "TestVerdict": (_verdict, "queries", False),
    "AEPlan": (lambda: testers.AEPlan(_LAYOUT, _UNITARY, _PROJECTOR, 8, 0.01,
                                      ("CLOSE", "FAR")), "t", False),
}


@pytest.mark.parametrize("name", CASES)
def test_record_is_a_read_only_value(name):
    make, field, hashable = CASES[name]
    a, b = make(), make()
    assert type(a).__name__ == name
    assert a is not b and a == b and not a != b
    assert a != object()
    if hashable:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert a == b  # neither attempt changed the record
    assert repr(a).startswith(f"{name}(") and f"{field}=" in repr(a)


def test_record_differs_when_a_field_does():
    assert RegisterLayout((("A", 2),)) != RegisterLayout((("A", 3),))
    assert testers.TestVerdict("FAR", 0.5, 8, 0.01) != testers.TestVerdict("CLOSE", 0.5, 8,
                                                                           0.01)


def test_oracle_equality_ignores_its_unitary():
    """Oracles of one distribution and label are equal whatever their
    garbage, and the unitary stays out of the repr."""
    basis = orc.make_purified_oracle(uniform(4), "basis", label="p")
    haar = orc.make_purified_oracle(uniform(4), "haar", seed=1, label="p")
    assert basis.op is not haar.op
    assert basis == haar and hash(basis) == hash(haar)
    assert basis != orc.make_purified_oracle(uniform(4), "basis", label="q")
    assert "op=" not in repr(basis)
    keyword = orc.PurifiedOracle(distribution=uniform(4), label="p", op=haar.op)
    assert keyword == basis and keyword.op is haar.op


def test_verdict_queries_default_to_a_fresh_dict():
    a = testers.TestVerdict("YES", 0.0, 1, 0.5)
    b = testers.TestVerdict("YES", 0.0, 1, 0.5)
    assert a.queries == {} and b.queries == {}
    assert a.queries is not b.queries
    assert a == b
