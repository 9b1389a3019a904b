"""Behaviour of the value classes: repr, comparison, immutability, copying.

``EvalResult``, ``Genus0Bracket`` and ``DR1Bracket`` (core),
``RelationInstance`` (dr1) and ``SuiteReport`` (verify) take these from one
base, ``core._Record``, through the fields each names; ``WdvvSystem``
(genus0) is a named tuple. These tests pin what callers may rely on.
"""

import copy
import operator
import pickle
from fractions import Fraction

import pytest

from rspin.core import DR1Bracket, EvalResult, Genus0Bracket
from rspin.dr1 import RelationInstance, relation2_instance
from rspin.genus0 import WdvvSystem
from rspin.verify import SuiteReport

ORDERINGS = (operator.lt, operator.le, operator.gt, operator.ge)


def _samples():
    """Two equal but distinct instances and one different instance per class."""
    return {
        "EvalResult": (
            EvalResult(Fraction(1, 5)),
            EvalResult(Fraction(1, 5), "ok", ()),
            EvalResult(Fraction(1, 5), "ok", ("closed-form",)),
        ),
        "Genus0Bracket": (
            Genus0Bracket(5, [3, 1, 3, 1]),
            Genus0Bracket(5, (1, 1, 3, 3)),
            Genus0Bracket(5, (1, 2, 2, 3)),
        ),
        "DR1Bracket": (
            DR1Bracket(4, [(-2, 2), (2, 2)]),
            DR1Bracket._from_canonical(4, ((2, 2), (-2, 2)), "dimension-mismatch-zero"),
            DR1Bracket(4, [(3, 2), (-3, 2)]),
        ),
        "RelationInstance": (
            relation2_instance(6, [1, 0, -1], [4, 4, 4]),
            relation2_instance(6, [1, 0, -1], [4, 4, 4]),
            relation2_instance(6, [2, 0, -2], [4, 4, 4]),
        ),
        "SuiteReport": (
            SuiteReport("demo", 3, [("b", "1", "2"), ("a", "1", "3")], 7),
            SuiteReport("demo", 3, [("a", "1", "3"), ("b", "1", "2")], 7),
            SuiteReport("demo", 3, [("a", "1", "3")], 7),
        ),
    }


def _wdvv():
    return WdvvSystem(((1, 1, 2, 2, 2),), (({(1, 1, 2, 2, 2): 1}, 3),))


# The attributes of each class, DR1Bracket's status included
FIELDS = {
    EvalResult: ("value", "status", "trace"),
    Genus0Bracket: ("r", "a"),
    DR1Bracket: ("r", "entries", "status"),
    RelationInstance: ("kind", "b_coefficient", "terms", "context"),
    WdvvSystem: ("unknowns", "equations"),
    SuiteReport: ("suite", "cases", "failures", "elapsed_ms"),
}


def _fields(obj):
    """The attribute values of ``obj``, for checks that bypass ``==``."""
    return tuple(getattr(obj, name) for name in FIELDS[type(obj)])


def test_literal_reprs():
    s = _samples()
    assert repr(s["EvalResult"][0]) == "EvalResult(value=Fraction(1, 5), status='ok', trace=())"
    assert repr(EvalResult(0, "vanishing-axiom-zero", ("vanishing-axiom",))) == (
        "EvalResult(value=Fraction(0, 1), status='vanishing-axiom-zero', "
        "trace=('vanishing-axiom',))"
    )
    assert repr(s["Genus0Bracket"][0]) == "Genus0Bracket(r=5, a=(1, 1, 3, 3))"
    assert repr(s["DR1Bracket"][0]) == "DR1Bracket(r=4, entries=((2, 2), (-2, 2)))"
    assert repr(s["DR1Bracket"][1]) == "DR1Bracket(r=4, entries=((2, 2), (-2, 2)))"
    assert repr(s["RelationInstance"][0]) == (
        "RelationInstance(kind='relation2', b_coefficient=Fraction(2, 1), terms={"
        "DR1Bracket(r=6, entries=((1, 4), (0, 4), (-1, 4))): Fraction(-1, 1), "
        "DR1Bracket(r=6, entries=((2, 4), (-1, 4), (-1, 4))): Fraction(1, 1)}, "
        "context=(6, (4, 4, 4)))"
    )
    assert repr(s["SuiteReport"][0]) == (
        "SuiteReport(suite='demo', cases=3, failures=[('a', '1', '3'), ('b', '1', '2')], "
        "elapsed_ms=7)"
    )
    assert repr(SuiteReport("x", 0)) == "SuiteReport(suite='x', cases=0, failures=[], elapsed_ms=0)"


def test_equality_and_hash():
    for name, (one, twin, other) in _samples().items():
        assert one is not twin, name
        assert one == twin and not one != twin, name
        assert one != other and not one == other, name
        if name in ("RelationInstance", "SuiteReport"):
            # a dict field, and a mutable class: both refuse to hash
            with pytest.raises(TypeError):
                hash(one)
        else:
            assert hash(one) == hash(twin), name
            assert len({one, twin, other}) == 2, name
    assert EvalResult(1).value == Fraction(1) and EvalResult(1) == EvalResult(Fraction(1))
    # DR1Bracket hashes and compares by (r, entries): status is left out
    ok, zero, _ = _samples()["DR1Bracket"]
    assert ok.status != zero.status
    assert hash(ok) == hash((4, ((2, 2), (-2, 2))))
    assert hash(_samples()["Genus0Bracket"][0]) == hash((5, (1, 1, 3, 3)))
    assert hash(EvalResult(Fraction(1, 5))) == hash((Fraction(1, 5), "ok", ()))


def test_equality_across_classes_is_not_implemented():
    firsts = [trio[0] for trio in _samples().values()]
    for x in firsts:
        for y in firsts:
            if x is y:
                continue
            assert x.__eq__(y) is NotImplemented, (type(x), type(y))
            assert x != y
    g = Genus0Bracket(4, (1, 1, 2, 2))
    assert g != (4, (1, 1, 2, 2)) and g.__eq__((4, (1, 1, 2, 2))) is NotImplemented


def test_ordering_of_brackets():
    g_small, g_twin, g_big = _samples()["Genus0Bracket"]
    d_small, d_twin, d_big = _samples()["DR1Bracket"]
    for small, twin, big in ((g_small, g_twin, g_big), (d_small, d_twin, d_big)):
        assert small < big and small <= big and big > small and big >= small
        assert not small < twin and small <= twin and small >= twin and not small > twin
        assert not big < small and not big <= small
    # r is compared first, then the twists or entries
    assert Genus0Bracket(5, (1, 2, 2, 3)) < Genus0Bracket(6, (0, 0, 4))
    assert DR1Bracket(5, [(1, 1), (-1, 3)]) > DR1Bracket(4, [(3, 2), (-3, 2)])
    assert sorted([d_big, d_small]) == [d_small, d_big]
    assert sorted([g_big, g_small]) == [g_small, g_big]


def test_ordering_refused_across_classes_and_for_unordered_classes():
    g = _samples()["Genus0Bracket"][0]
    d = _samples()["DR1Bracket"][0]
    for x, y in ((g, d), (d, g), (g, (5, (1, 1, 3, 3))), (d, (4, ((2, 2), (-2, 2))))):
        for op in ORDERINGS:
            assert getattr(x, f"__{op.__name__}__")(y) is NotImplemented
            with pytest.raises(TypeError):
                op(x, y)
    for name in ("EvalResult", "RelationInstance", "SuiteReport"):
        one, twin, _ = _samples()[name]
        for op in ORDERINGS:
            with pytest.raises(TypeError):
                op(one, twin)


@pytest.mark.parametrize(
    "name", ["EvalResult", "Genus0Bracket", "DR1Bracket", "RelationInstance", "WdvvSystem"]
)
def test_frozen_classes_refuse_assignment_and_deletion(name):
    obj = _wdvv() if name == "WdvvSystem" else _samples()[name][0]
    before = _fields(obj)
    for attr in FIELDS[type(obj)] + ("extra",):
        with pytest.raises(AttributeError):
            setattr(obj, attr, None)
        with pytest.raises(AttributeError):
            delattr(obj, attr)
    assert _fields(obj) == before
    assert not hasattr(obj, "extra")


def _round_trips(obj):
    return copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))


def test_copy_deepcopy_and_pickle_round_trips():
    for name, (one, _, _) in _samples().items():
        for again in _round_trips(one):
            assert type(again) is type(one), name
            assert again == one, name
            assert _fields(again) == _fields(one), name
            assert repr(again) == repr(one), name
    zero = _samples()["DR1Bracket"][1]
    for again in _round_trips(zero):
        assert again.status == "dimension-mismatch-zero"


def test_round_trips_stay_frozen():
    for name in ("EvalResult", "Genus0Bracket", "DR1Bracket", "RelationInstance"):
        for again in _round_trips(_samples()[name][0]):
            with pytest.raises(AttributeError):
                setattr(again, "extra", 1)


def test_wdvv_system_is_a_named_pair():
    # the benchmark tracer reads .unknowns and .equations from wdvv_equations
    w = _wdvv()
    unknowns, equations = w
    assert (unknowns, equations) == (w.unknowns, w.equations) == _fields(w)
    assert w == _wdvv() and w != WdvvSystem((), ())
    for again in _round_trips(w):
        assert type(again) is WdvvSystem and again == w


def test_suite_report_is_mutable_unhashable_and_sorts_failures():
    report = SuiteReport("demo", 3, [("b", "1", "2"), ("a", "1", "3")])
    assert report.failures == [("a", "1", "3"), ("b", "1", "2")]
    assert report.elapsed_ms == 0 and not report.passed
    report.elapsed_ms = 12
    report.failures = []
    assert report.passed and report == SuiteReport("demo", 3, [], 12)
    with pytest.raises(TypeError):
        hash(report)
    # the default failure list is fresh per report, and a given list is copied
    given = [("z", "0", "1")]
    SuiteReport("a", 1).failures.append(("k", "1", "2"))
    assert SuiteReport("b", 1).failures == []
    assert SuiteReport("c", 1, given).failures is not given
    for again in _round_trips(report):
        assert again == report
