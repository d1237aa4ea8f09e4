"""The semantics `tmkit._record.record` gives tmkit's value classes."""

import ast
import copy
import dataclasses
import importlib
import inspect
import pathlib
import pickle

import pytest

import tmkit
from tmkit import corpus, dsl
from tmkit.events import BehaviorEdge
from tmkit.expr import Binary, Lit, PathRef
from tmkit.model import (Action, Diagnostic, FlowEdge, Store, StaticModel,
                         Thimac, TriggerEdge, ValidationReport,
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
             (Action("A", "process",
                     ("A", Binary("+", PathRef("A"), Lit(1)))),
              Action(owner="A", kind="process",
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
    Action("A", "create"),
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


@pytest.mark.parametrize("value", [
    FlowEdge("a", "b"), Lit(1), Store(),
    dsl.parse(corpus.fixture_text("bank"))[0],
    dsl.parse(corpus.fixture_text("bank"))[2],
], ids=lambda value: type(value).__name__)
def test_copy_deepcopy_and_pickle_give_an_equal_record(value):
    for twin in (copy.copy(value), copy.deepcopy(value),
                 pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value) and twin == value


def _record_classes():
    """(module name, class statement) of every `@record` class in tmkit,
    found in the source so that a new record is covered too."""
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC.parent).with_suffix("").parts)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(d, ast.Name) and d.id == "record"
                    for d in node.decorator_list):
                yield module, node


SRC = pathlib.Path(tmkit.__file__).parent
RECORDS = list(_record_classes())


def _caches(node) -> bool:
    """Whether a class statement defines a `functools.cached_property`."""
    return any(isinstance(item, ast.FunctionDef) and any(
        ast.unparse(d) in ("cached_property", "functools.cached_property")
        for d in item.decorator_list) for item in node.body)


def test_the_scan_finds_every_record_class():
    names = {node.name for _, node in RECORDS}
    assert {"FlowEdge", "StaticModel", "BehavioralModel", "Lit",
            "TraceEntry", "ClassDef", "RenderOptions", "_EventDecl"} <= names
    assert len(names) == len(RECORDS) >= 27
    # the two that `tmkit._record`'s docstring names
    assert {node.name for _, node in RECORDS if _caches(node)} == {
        "StaticModel", "BehavioralModel"}


@pytest.mark.parametrize("module, node", RECORDS,
                         ids=[node.name for _, node in RECORDS])
def test_a_record_has_slots_for_its_fields_and_its_signature(module, node):
    namespace = vars(importlib.import_module(module))
    cls = namespace[node.name]
    fields = [item for item in node.body if isinstance(item, ast.AnnAssign)]
    names = tuple(item.target.id for item in fields)
    assert names == tuple(cls.__annotations__)
    assert cls.__slots__ == names + ("__dict__",) * _caches(node)
    assert list(inspect.signature(cls).parameters.values()) == [
        inspect.Parameter(
            item.target.id, inspect.Parameter.POSITIONAL_OR_KEYWORD,
            default=inspect.Parameter.empty if item.value is None
            else eval(ast.unparse(item.value), namespace))
        for item in fields]
    if not _caches(node):
        value = cls(*[None] * len(names))
        assert not hasattr(value, "__dict__")
        with pytest.raises(TypeError):
            vars(value)


def test_a_read_only_record_has_no_dict_to_write_through():
    edge = FlowEdge("a", "b")
    with pytest.raises(TypeError):
        vars(edge)["src"] = "x"
    with pytest.raises(AttributeError):
        object.__getattribute__(edge, "__dict__")
    assert edge.src == "a"


@pytest.mark.parametrize("index, name", [
    (0, "actions_by_owner"), (0, "stores"), (0, "declared_types"),
    (2, "_by_id"), (2, "incoming"), (2, "successors")])
def test_a_cached_property_is_computed_once_into_the_dict(index, name,
                                                          monkeypatch):
    parsed = dsl.parse(corpus.fixture_text("bank"))[index]
    cls = type(parsed)
    model = cls(*map(parsed.__getattribute__, cls.__annotations__))
    prop, calls = vars(cls)[name], []
    monkeypatch.setattr(prop, "func", lambda self, func=prop.func: (
        calls.append(self), func(self))[1])
    first = getattr(model, name)
    assert getattr(model, name) is first and vars(model)[name] is first
    assert calls == [model] and first == getattr(parsed, name)


def test_build_model_fills_the_cache_of_stores():
    static = dsl.parse(corpus.fixture_text("bank"))[0]
    stores = vars(static)["stores"]
    assert static.stores is stores and stores["BankAccount"] == Store("")


def test_no_record_method_uses_zero_argument_super_or_class():
    """`record` returns a new class, and zero-argument `super()` and
    `__class__` would name the class statement's one, which it drops."""
    found = [f"{module}.{node.name}"
             for module, node in RECORDS for item in ast.walk(node)
             if isinstance(item, ast.Name) and item.id == "__class__"
             or isinstance(item, ast.Call) and not item.args
             and isinstance(item.func, ast.Name) and item.func.id == "super"]
    assert found == []
