"""Value semantics of the package's records.

The plain classes that compare and hash by their fields, and the named
tuples, stay equal and hashed by value, and survive copy and pickle.  The
plain ones take their policy from one base: they refuse assignment and
deletion, hold no ``__dict__`` and never equal an object of another class.
``ExtremeReal`` is not a tuple: only its own arithmetic and order apply.
"""

import copy
import pickle
import re
from pathlib import Path

import pytest

from semcomm.dataset import Story
from semcomm.inductive import (ConvergencePoint, ConvergenceReport,
                               InductiveParams, WidthClass)
from semcomm.lossless import LosslessReport
from semcomm.lossy import LossyConfig, RDPoint
from semcomm.measures import ContEntropy, UniverseSignature
from semcomm.sublang import EvidenceSummary, Sentence, SubLanguageConfig
from semcomm.xreal import ExtremeReal

_ONE, _TWO = ExtremeReal.from_float(1.0), ExtremeReal.from_float(2.0)

# each class with one set of field values and the same set with one changed
RECORDS = [
    (ExtremeReal, (1, 2.5, 1e-17), (1, 2.5, 2e-17)),
    (Sentence, (7, frozenset({frozenset({0})})), (7, frozenset({frozenset({1})}))),
    (EvidenceSummary, (3, 2, (1, 2), 4), (3, 2, (1, 2), 5)),
    (InductiveParams, (None, 0.5), (2.0, 0.5)),
    (UniverseSignature, (3, 4), (4, 3)),
    (LossyConfig, (0.25, (1.0, 2.0)), (0.25, (1.0, 4.0))),
    (Story, ("s1", Path("a.txt"), Path("a.fol"), None),
     ("s1", Path("a.txt"), Path("a.fol"), 10)),
    (WidthClass, (2, 3, -1.5, 0.25), (2, 3, -1.5, 0.5)),
    (ConvergenceReport, ((ConvergencePoint(1, 1, 0.5),), 1, True, 0.5),
     ((ConvergencePoint(1, 1, 0.5),), None, True, 0.5)),
    (LosslessReport, (400, 176, 224, 10.5, 20.25, 7, 5),
     (400, 176, 224, 10.5, 20.25, 7, 6)),
    (RDPoint, (1.5, 0.25, 8.0, 12, True, -0.5), (1.5, 0.25, 8.0, 12, False, -0.5)),
    (ContEntropy, (_TWO, _ONE, 7), (_TWO, _TWO, 7)),
    (SubLanguageConfig, (3,), (4,)),
]


@pytest.mark.parametrize("cls, fields, changed", RECORDS,
                         ids=[cls.__name__ for cls, _, _ in RECORDS])
def test_records_compare_and_hash_by_value(cls, fields, changed):
    a, b, c = cls(*fields), cls(*fields), cls(*changed)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != c and not a == c
    assert hash(a) != hash(c)
    names = getattr(cls, "_fields", None) or cls.__slots__
    assert len(names) == len(fields)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(c, name))
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == b


BUILT = [(cls, fields) for cls, fields, _ in RECORDS]
PLAIN = [(cls, fields) for cls, fields in BUILT if not hasattr(cls, "_fields")]


@pytest.mark.parametrize("cls, fields", PLAIN, ids=[cls.__name__ for cls, _ in PLAIN])
def test_plain_records_share_one_policy(cls, fields):
    a = cls(*fields)
    assert not hasattr(a, "__dict__")
    assert not {"__setattr__", "__delattr__", "__eq__", "__hash__"} & vars(cls).keys()
    assert a != a._values() and a._values() != a
    for name in cls.__slots__:
        message = f"{cls.__name__} is immutable: cannot set {name!r}"
        with pytest.raises(AttributeError, match=f"^{re.escape(message)}$"):
            setattr(a, name, None)
        message = f"{cls.__name__} is immutable: cannot delete {name!r}"
        with pytest.raises(AttributeError, match=f"^{re.escape(message)}$"):
            delattr(a, name)
    assert a == cls(*fields)


def test_records_of_different_classes_never_compare_equal():
    for a, b in [(UniverseSignature(3, 4), InductiveParams(3.0, 4.0)),
                 (Sentence(3, 4), UniverseSignature(3, 4))]:
        assert a._values() == b._values()
        assert a != b and b != a and not a == b


_COPIES = {"copy": copy.copy, "deepcopy": copy.deepcopy,
           "pickle": lambda x: pickle.loads(pickle.dumps(x))}


@pytest.mark.parametrize("way", _COPIES)
@pytest.mark.parametrize("cls, fields", BUILT, ids=[cls.__name__ for cls, _ in BUILT])
def test_records_survive_copy_and_pickle(cls, fields, way):
    a = cls(*fields)
    b = _COPIES[way](a)
    assert type(b) is cls
    assert b == a and hash(b) == hash(a)


@pytest.mark.parametrize("op", [lambda x, y: 3 * x, lambda x, y: x <= y,
                                lambda x, y: x >= y, lambda x, y: tuple(x)],
                         ids=["int-times", "le", "ge", "unpack"])
def test_extreme_real_keeps_to_its_own_arithmetic(op):
    with pytest.raises(TypeError):
        op(_TWO, _ONE)
