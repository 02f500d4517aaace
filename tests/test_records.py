"""The package's records are tuple types: namedtuple subclasses, which
cost a tenth of a frozen dataclass to define at import.  These tests pin
what the tuple form must not change."""

import copy
import dataclasses
import importlib
import pickle
import pkgutil

import pytest

import minorbit
from minorbit.acceptance import CriterionResult
from minorbit.cohengine import HilbertSeries, TiltingFamily
from minorbit.kfunctor import F, JP, OY, Ch, ConeH, FSheaf, KClass
from minorbit.mutation import StepRecord, initial_state
from minorbit.quiveralg import QuiverWord
from minorbit.repmoduli import RelationCheck


def _classes():
    for info in pkgutil.iter_modules(minorbit.__path__):
        module = importlib.import_module(f"minorbit.{info.name}")
        for obj in vars(module).values():
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                yield obj


def test_no_class_is_a_dataclass():
    classes = list(_classes())
    assert {"CriterionResult", "HilbertSeries", "KClass", "RelationGen", "RepTriple"} <= {
        c.__name__ for c in classes}
    assert [c for c in classes if dataclasses.is_dataclass(c)] == []


def test_records_keep_their_defaults_repr_and_immutability():
    assert CriterionResult(1, "t", True) == CriterionResult(1, "t", True, "")
    assert TiltingFamily("Tk", 3).k == 0
    assert repr(RelationCheck(True)) == "RelationCheck(passed=True, relation=None, vertex=None)"
    k = KClass(2, "Y", (1, 0))
    assert repr(k) == "KClass(n=2, side='Y', coords=(1, 0))"
    with pytest.raises(AttributeError):
        k.side = "Yplus"
    # validation runs on keyword construction too
    with pytest.raises(ValueError, match="side must be Y or Yplus, got Z"):
        KClass(n=2, side="Z", coords=(1, 0))


def test_ledger_markers_equal_only_their_own_type():
    # as plain tuples OY(1) == JP(1) == (1,) and FSheaf() == ConeH() == ()
    assert OY(1) != JP(1) and not OY(1) == JP(1)
    assert F != Ch and F == FSheaf() and Ch == ConeH()
    assert OY(1) != (1,) and (1,) != OY(1) and F != ()
    assert OY(1) == OY(1) and hash(OY(1)) == hash(OY(1))
    assert len({OY(1), JP(1), F, Ch, OY(1)}) == 4


def test_records_keep_their_own_operators():
    # each of these overrides what the tuple would do
    gd = HilbertSeries(3, (1, 3, 6, 10, 15))
    assert [gd[k] for k in (-1, 0, 2)] == [0, 1, 6]
    # its constructor takes one value more than it keeps
    assert copy.deepcopy(gd) == gd == pickle.loads(pickle.dumps(gd))
    assert len(QuiverWord(3, 0, (("f", 1), ("f", 2), ("v", 2)))) == 3
    assert KClass(2, "Y", (1, 0)) + KClass(2, "Y", (2, 5)) == KClass(2, "Y", (3, 5))
    assert StepRecord(4, initial_state(3), None, None).index == 4
