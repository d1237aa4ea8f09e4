"""The semantics `tmkit._record.record` gives tmkit's value classes."""

import dataclasses

import pytest

from tmkit import dsl
from tmkit.events import BehaviorEdge
from tmkit.expr import Binary, Lit, PathRef
from tmkit.model import (Action, ActionKind, Diagnostic, FlowEdge, Store,
                         StaticModel, Thimac, TriggerEdge, ValidationReport,
                         validate_static)
from tmkit.sim import TraceEntry


def test_records_of_different_classes_are_never_equal():
    assert Lit("x") != PathRef("x")
    assert FlowEdge("a", "b") != TriggerEdge("a", "b")
    assert Lit("x").__eq__(PathRef("x")) is NotImplemented
    assert FlowEdge("a", "b").__eq__(("a", "b")) is NotImplemented


def test_equal_records_hash_equal():
    pairs = [(FlowEdge("a", "b"), FlowEdge(src="a", dst="b")),
             (Thimac("A"), Thimac("A", False, None, ())),
             (Action("A", ActionKind.PROCESS,
                     ("A", Binary("+", PathRef("A"), Lit(1)))),
              Action(owner="A", kind=ActionKind.PROCESS,
                     update=("A", Binary("+", PathRef("A"), Lit(1)))))]
    for one, other in pairs:
        assert one == other and hash(one) == hash(other)
    assert FlowEdge("a", "b") != FlowEdge("a", "c")
    assert len({FlowEdge("a", "b"), FlowEdge("a", "b"),
                FlowEdge("b", "a")}) == 2


def test_fields_take_positions_keywords_and_defaults():
    assert Store().value is None
    assert Thimac("A", store=Store(1)).store == Store(1)
    assert BehaviorEdge("D", "E").guard is None
    with pytest.raises(TypeError):
        FlowEdge("a")
    with pytest.raises(TypeError):
        FlowEdge("a", "b", "c")
    with pytest.raises(TypeError):
        FlowEdge("a", dst="b", src="c")


@pytest.mark.parametrize("value", [
    FlowEdge("a", "b"),
    Thimac("A", True, Store("x"), (Thimac("b", store=Store()),)),
    Action("A", ActionKind.CREATE),
    TraceEntry(1, "E", ("A.create",), ()),
    dsl.SourceUnit("thimac A { }"),
], ids=lambda value: type(value).__name__)
def test_repr_is_the_dataclass_repr(value):
    names = list(type(value).__annotations__)
    twin = dataclasses.make_dataclass(type(value).__name__, names)
    assert repr(value) == repr(twin(*map(value.__getattribute__, names)))


def test_fields_cannot_be_assigned_or_deleted():
    edge = FlowEdge("a", "b")
    with pytest.raises(AttributeError):
        edge.src = "c"
    with pytest.raises(AttributeError):
        del edge.dst
    with pytest.raises(AttributeError):
        edge.other = 1
    assert edge == FlowEdge("a", "b")


def test_a_record_holding_a_list_or_dict_is_unhashable():
    static = dsl.parse("thimac A { create; }")[0]
    assert isinstance(static, StaticModel)
    with pytest.raises(TypeError):
        hash(static)
    report = ValidationReport([])
    report.add("ERROR", "A", "message", "Code")
    assert not report.ok
    with pytest.raises(TypeError):
        hash(report)


def test_a_report_is_extended_in_place_by_augmented_assignment():
    report = validate_static(dsl.parse("thimac A { create; }")[0])
    more = [Diagnostic("ERROR", "B", "message", "Code")]
    report.diagnostics += more
    assert [d.location for d in report.diagnostics] == ["A.create", "B"]
