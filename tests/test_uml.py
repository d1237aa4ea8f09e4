import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tmkit import dsl, errors
from tmkit.events import BehaviorEdge, build_behavior, eventize
from tmkit.expr import Binary, Lit, PathRef, Unary, chain
from tmkit.model import (VALUE_TYPES, StaticModel, canonicalize,
                         validate_static)
from tmkit.uml import (AttributeDef, ClassDef, ClassModel, MethodDef,
                       class_to_tm, read_class_json, tm_to_class,
                       write_class_json)


def test_tm_to_class_bank(bank):
    static, _, _ = bank
    cm = tm_to_class(static)
    assert [c.name for c in cm.classes] == [
        "BankAccount", "CheckingAccount", "SavingsAccount"]
    by_name = {c.name: c for c in cm.classes}
    bank_cls = by_name["BankAccount"]
    assert [a.name for a in bank_cls.attributes] == ["owner", "balance"]
    assert [a.value_type for a in bank_cls.attributes] == ["text", "number"]
    assert bank_cls.methods == ()
    for name in ("CheckingAccount", "SavingsAccount"):
        sub = by_name[name]
        assert sub.parent == "BankAccount"
        assert sub.attributes == ()
        assert [m.name for m in sub.methods] == ["withdrawal", "deposit"]


def test_tm_to_class_person(person):
    static, _, _ = person
    cm = tm_to_class(static)
    assert [c.name for c in cm.classes] == ["Person"]
    cls = cm.classes[0]
    assert [a.name for a in cls.attributes] == ["name"]
    assert [m.name for m in cls.methods] == ["setName", "getName"]


def test_tm_to_class_empty():
    assert tm_to_class(StaticModel((), {}, (), ())) == ClassModel()


def test_tm_to_class_ambiguous():
    src = ("thimac A { thimac x { store = 0; "
           "thimac doIt { process; } } }")
    static, _, _ = dsl.parse(src)
    with pytest.raises(errors.AmbiguousSubthimac) as exc:
        tm_to_class(static)
    assert "A.x" in str(exc.value)


def test_class_to_tm_human():
    cm = ClassModel((ClassDef(
        "Human",
        attributes=(AttributeDef("name", "text"),
                    AttributeDef("weight", "number"),
                    AttributeDef("gender", "text")),
        methods=(MethodDef("eat"),)),))
    static = class_to_tm(cm)
    human = static.thimacs[0]
    assert human.name == "Human"
    stored = [s.name for s in human.subthimacs if s.store is not None]
    assert stored == ["name", "weight", "gender"]
    eat = next(s for s in human.subthimacs if s.name == "eat")
    assert eat.store is None
    kinds = {a.kind for a in static.actions_by_owner["Human.eat"]}
    assert kinds == {"process"}
    report = validate_static(static)
    assert report.ok


def test_class_to_tm_degenerate_class():
    static = class_to_tm(ClassModel((ClassDef("Thing"),)))
    thing = static.thimacs[0]
    assert thing.subthimacs == ()
    assert [a.kind for a in static.actions_by_owner["Thing"]] == ["create"]


def test_class_to_tm_output_always_validates(bank):
    static, _, _ = bank
    cm = tm_to_class(static)
    assert validate_static(class_to_tm(cm)).ok


def test_round_trip_bank(bank):
    static, _, _ = bank
    cm = tm_to_class(static)
    assert tm_to_class(class_to_tm(cm)) == cm


def test_cyclic_generalization_rejected():
    cm = ClassModel((ClassDef("A", parent="B"), ClassDef("B", parent="A")))
    with pytest.raises(errors.CyclicGeneralization):
        class_to_tm(cm)


def _chain(classes, **deepest):
    """A chain of `classes` classes, each the parent of the next; the
    deepest gets the `ClassDef` fields in `deepest`."""
    return ClassModel(tuple(
        ClassDef(f"C{i}", parent=f"C{i - 1}" if i else None,
                 **(deepest if i == classes - 1 else {}))
        for i in range(classes)))


@pytest.mark.parametrize("cm", [
    pytest.param(_chain(dsl.MAX_THIMAC_DEPTH + 1), id="classes"),
    pytest.param(_chain(dsl.MAX_THIMAC_DEPTH,
                        attributes=(AttributeDef("a"),)), id="attribute"),
    pytest.param(_chain(dsl.MAX_THIMAC_DEPTH, methods=(MethodDef("m"),)),
                 id="method"),
    pytest.param(ClassModel(_chain(3000).classes + (
        ClassDef("X", parent="Y"), ClassDef("Y", parent="X"))),
        id="before-a-cycle"),
])
def test_class_to_tm_rejects_a_scaffold_nested_past_the_bound(cm):
    with pytest.raises(errors.UmlError, match="^class hierarchy too deep$"):
        class_to_tm(cm)


# -- random static models --

@st.composite
def _tm_texts(draw, level=1):
    """`.tm` text for sibling thimacs `level` deep, at most three levels,
    with names from a pool of four so that class names often clash."""
    names = draw(st.lists(st.sampled_from("ABCD"), unique=True,
                          max_size=3 if level < 3 else 1))
    parts = []
    for name in names:
        head = f"thimac {name}" + (" specializes" if draw(st.booleans())
                                   else "")
        body = [draw(st.sampled_from(
            ["", "store;", "store = 0;", 'store = "";', "store = true;"]))]
        body += [f"{kind};" for kind in draw(st.lists(st.sampled_from(
            ["create", "process", "release"]), unique=True, max_size=2))]
        if level < 3:
            body.append(draw(_tm_texts(level + 1)))
        parts.append(f"{head} {{ {' '.join(body)} }}")
    return " ".join(parts)


@settings(max_examples=300, deadline=None)
@given(_tm_texts())
def test_class_bridge_round_trips_every_model_it_accepts(text):
    static, _, _ = dsl.parse(text)
    try:
        cm = tm_to_class(static)
    except errors.UmlError as exc:
        assert (isinstance(exc, errors.AmbiguousSubthimac)
                or "is used by both" in str(exc))
        return
    assert read_class_json(write_class_json(cm)) == cm
    assert tm_to_class(class_to_tm(cm)) == cm


# -- random class models --

_name = st.from_regex(r"[a-z][a-zA-Z0-9]{0,7}", fullmatch=True)
_type = st.sampled_from(VALUE_TYPES)


@st.composite
def class_models(draw):
    n = draw(st.integers(1, 4))
    class_names = draw(st.lists(
        st.from_regex(r"[A-Z][a-zA-Z0-9]{0,7}", fullmatch=True),
        min_size=n, max_size=n, unique=True))
    classes = []
    for i, name in enumerate(class_names):
        # pick a parent among earlier classes so the hierarchy is a forest
        # listed depth-first-compatible (parents precede children)
        parent = None
        if i > 0 and draw(st.booleans()):
            parent = classes[draw(st.integers(0, i - 1))].name
        attrs = draw(st.lists(
            st.builds(AttributeDef, _name, _type),
            max_size=5, unique_by=lambda a: a.name))
        methods = draw(st.lists(
            st.builds(MethodDef, _name),
            max_size=5, unique_by=lambda m: m.name))
        used = {a.name for a in attrs}
        methods = [m for m in methods if m.name not in used]
        classes.append(ClassDef(name, tuple(attrs), tuple(methods), parent))
    return ClassModel(_depth_first(classes))


def _depth_first(classes):
    by_parent = {}
    for cls in classes:
        by_parent.setdefault(cls.parent, []).append(cls)
    out = []

    def walk(parent):
        for cls in by_parent.get(parent, []):
            out.append(cls)
            walk(cls.name)

    walk(None)
    return tuple(out)


_label = st.one_of(st.text(), st.text(alphabet='a "\\\n#'))

_literal = st.one_of(
    st.integers(-10**6, 10**6), st.booleans(), st.text(max_size=5),
    st.floats(allow_nan=False, allow_infinity=False))


def _exprs(paths):
    """Guards and other expressions over the given store paths, each run
    of `and`, `or` or `+`/`-` built by `chain` as the parser builds it."""
    leaf = st.one_of(st.builds(Lit, _literal),
                     st.builds(PathRef, st.sampled_from(paths)))
    comparisons = st.sampled_from(["<", "<=", "=", "!=", ">=", ">"])
    runs = st.sampled_from([["and"], ["or"], ["+", "-"]])
    return st.recursive(leaf, lambda inner: st.one_of(
        st.builds(Binary, comparisons, inner, inner),
        runs.flatmap(lambda ops: st.builds(chain, inner, st.lists(
            st.tuples(st.sampled_from(ops), inner), min_size=1,
            max_size=3))),
        st.builds(Unary, st.just("not"), inner)), max_leaves=8)


@st.composite
def _behaviors(draw, static, labels):
    """Events (with labels and inputs) and a behavior over them, or None."""
    paths = sorted(static.stores) or ["Nowhere"]
    events = [eventize(static, f"E{i}", label, [aid], draw(st.one_of(
                  st.none(), st.sampled_from(paths))))
              for i, (label, aid) in enumerate(zip(labels, static.actions))]
    if not events or draw(st.booleans()):
        return events, None
    ids = st.sampled_from([e.id for e in events])
    edges = draw(st.lists(st.builds(
        BehaviorEdge, ids, ids, st.one_of(st.none(), _exprs(paths))),
        max_size=4))
    subsets = st.lists(ids, max_size=3, unique=True)
    return events, build_behavior(events, edges, draw(subsets),
                                  draw(subsets))


@settings(max_examples=100, deadline=None)
@given(class_models(), st.lists(_label, max_size=3), st.data())
def test_round_trip_random_models(cm, labels, data):
    static = class_to_tm(cm)
    assert tm_to_class(static) == cm
    # the scaffold's text form keeps events with awkward labels, inputs,
    # guarded behavior edges, terminals and repeatables
    events, behavior = data.draw(_behaviors(static, labels))
    text = dsl.print_text(static, events, behavior)
    assert dsl.parse(text) == (canonicalize(static), events, behavior)


@settings(max_examples=50, deadline=None)
@given(class_models())
def test_generated_scaffold_validates(cm):
    assert validate_static(class_to_tm(cm)).ok


@settings(max_examples=50, deadline=None)
@given(class_models())
def test_json_round_trip_random(cm):
    assert read_class_json(write_class_json(cm)) == cm


# -- JSON interchange --

def test_json_round_trip_bank(bank):
    static, _, _ = bank
    cm = tm_to_class(static)
    assert read_class_json(write_class_json(cm)) == cm


def _dumped(cm):
    """The class JSON as the encoder of the `json` module writes it: the
    reference for `write_class_json`."""
    payload = {"classes": [{
        "name": cls.name,
        "parent": cls.parent,
        "attributes": [{"name": a.name, "type": a.value_type}
                       for a in cls.attributes],
        "methods": [{
            "name": m.name,
            "params": [{"name": n, "type": t} for n, t in m.params],
            "returns": m.returns,
        } for m in cls.methods],
    } for cls in cm.classes]}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


#: any text, and text of non-ASCII letters, quotes, backslashes, control
#: characters and the line separator U+2028, all of which JSON escapes
_TEXT = st.one_of(st.text(max_size=6),
                  st.text(alphabet='"\\\x00\x1f\x7f\n\té€😀\u2028',
                          max_size=6))
_MAYBE_TEXT = st.one_of(st.none(), _TEXT)
_ANY_CLASS_MODELS = st.builds(ClassModel, st.lists(st.builds(
    ClassDef, _TEXT,
    st.lists(st.builds(AttributeDef, _TEXT, _TEXT), max_size=3).map(tuple),
    st.lists(st.builds(
        MethodDef, _TEXT,
        st.lists(st.tuples(_TEXT, _TEXT), max_size=3).map(tuple),
        _MAYBE_TEXT), max_size=3).map(tuple),
    _MAYBE_TEXT), max_size=4).map(tuple))


@settings(max_examples=200, deadline=None)
@given(_ANY_CLASS_MODELS)
def test_class_json_is_what_json_dumps_writes(cm):
    assert write_class_json(cm) == _dumped(cm)


def test_json_write_deterministic(bank):
    static, _, _ = bank
    cm = tm_to_class(static)
    assert write_class_json(cm) == write_class_json(
        tm_to_class(static))


def test_json_unknown_field_path():
    text = json.dumps({"classes": [{"name": "A", "colour": "red"}]})
    with pytest.raises(errors.SchemaError) as exc:
        read_class_json(text)
    assert "/classes/0/colour" in str(exc.value)


def test_json_bad_type():
    text = json.dumps(
        {"classes": [{"name": "A",
                      "attributes": [{"name": "x", "type": "float"}]}]})
    with pytest.raises(errors.SchemaError) as exc:
        read_class_json(text)
    assert "/classes/0/attributes/0/type" in str(exc.value)


@pytest.mark.parametrize("payload, where", [
    ({"classes": 5}, "/classes"),
    ({"classes": [{"name": "A", "attributes": 5}]}, "/classes/0/attributes"),
    ({"classes": [{"name": "A", "attributes": {"x": 1}}]},
     "/classes/0/attributes"),
    ({"classes": [{"name": "A", "methods": "xy"}]}, "/classes/0/methods"),
    ({"classes": [{"name": "A", "methods": [{"name": "m", "params": 7}]}]},
     "/classes/0/methods/0/params"),
])
def test_json_field_that_is_not_an_array(payload, where):
    with pytest.raises(errors.SchemaError) as exc:
        read_class_json(json.dumps(payload))
    assert str(exc.value) == f"{where}: expected an array"


@pytest.mark.parametrize("payload, message", [
    ({"classes": [{"name": "9x"}, 7]},
     "/classes/0/name: not a .tm name: '9x'"),
    ({"classes": [{"name": "A", "attributes": [
        {"name": "a", "type": "int"}, {"name": "b", "type": "number",
                                      "z": 1}]}]},
     "/classes/0/attributes/0/type: expected one of number, text, boolean, "
     "reference"),
    ({"classes": [{"name": "A", "methods": [
        {"name": "m", "params": [{"name": "p", "type": "x"}, 3]}]}]},
     "/classes/0/methods/0/params/0/type: expected one of number, text, "
     "boolean, reference"),
    ({"classes": [{"name": "A", "parent": 5, "attributes": [7]}]},
     "/classes/0/parent: expected a string or null"),
])
def test_json_reports_the_first_fault_met_item_by_item(payload, message):
    with pytest.raises(errors.SchemaError) as exc:
        read_class_json(json.dumps(payload))
    assert str(exc.value) == message


def test_json_golden_fixture_parses_to_bank_model(bank):
    static, _, _ = bank
    text = (Path(__file__).parent / "golden"
            / "bank_classes.json").read_text(encoding="utf-8")
    assert read_class_json(text) == tm_to_class(static)
