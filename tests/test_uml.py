import json

import pytest
from hypothesis import given, settings, strategies as st

from tmkit import dsl, errors
from tmkit.events import eventize
from tmkit.model import (VALUE_TYPES, ActionKind, StaticModel, canonicalize,
                         validate_static)
from tmkit.uml import (AttributeDef, ClassDef, ClassModel, MethodDef,
                       class_to_tm, read_class_json, tm_to_class,
                       write_class_json)


def test_tm_to_class_bank(bank):
    static, _, _ = bank
    cm = tm_to_class(static)
    assert [c.name for c in cm.classes] == [
        "BankAccount", "CheckingAccount", "SavingsAccount"]
    bank_cls = cm.class_named("BankAccount")
    assert [a.name for a in bank_cls.attributes] == ["owner", "balance"]
    assert [a.value_type for a in bank_cls.attributes] == ["text", "number"]
    assert bank_cls.methods == ()
    for name in ("CheckingAccount", "SavingsAccount"):
        sub = cm.class_named(name)
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
    eat = static.thimac_at("Human.eat")
    assert eat.store is None
    kinds = {static.actions[a].kind for a in eat.action_ids}
    assert kinds == {ActionKind.PROCESS}
    report = validate_static(static)
    assert report.ok


def test_class_to_tm_degenerate_class():
    static = class_to_tm(ClassModel((ClassDef("Thing"),)))
    thing = static.thimacs[0]
    assert thing.subthimacs == ()
    assert [static.actions[a].kind for a in thing.action_ids] == \
        [ActionKind.CREATE]


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


@settings(max_examples=100, deadline=None)
@given(class_models(), st.lists(_label, max_size=3))
def test_round_trip_random_models(cm, labels):
    static = class_to_tm(cm)
    assert tm_to_class(static) == cm
    # the scaffold's text form keeps event labels with quotes and escapes
    events = [eventize(static, f"E{i}", label, [aid])
              for i, (label, aid) in enumerate(zip(labels, static.actions))]
    text = dsl.print_text(static, events)
    assert dsl.parse(text) == (canonicalize(static), events, None)


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


def test_json_golden_fixture_parses_to_bank_model(bank):
    from importlib import resources
    static, _, _ = bank
    text = (resources.files("tmkit") / "fixtures"
            / "bank_classes.json").read_text()
    assert read_class_json(text) == tm_to_class(static)
