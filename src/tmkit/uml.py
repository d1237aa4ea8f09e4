"""Bidirectional conversion between static TM models and class models.

Class recovery drops every generic action and edge, then reads the
containment tree: specializing subthimacs become subclasses, stored
subthimacs become attributes, action-only subthimacs become methods.
The reverse direction expands each attribute into the standard stored
five-action cluster and each method into a lone Process action.

Checking. A class model is well formed when its class names are unique,
every parent names a class and no chain of parents closes a cycle.
`tm_to_class` reads a containment tree, which cannot form a cycle and
whose parents are the enclosing classes, so it checks only that no two
thimacs give the same class name. `class_to_tm` checks the whole
invariant, once: one pass finds duplicate names and unknown parents,
and the classes its walk from the roots does not reach lie on a cycle
or lead into one. Both are linear in the number of classes.

Size. A class d deep in the hierarchy is a thimac d deep, and its
attributes and methods are d + 1 deep. `class_to_tm` rejects a
hierarchy whose scaffold would nest deeper than `model.MAX_THIMAC_DEPTH`
(981), so that `tm check` reads every scaffold: at most 981 classes
deep, 980 if the deepest has an attribute or a method. A scaffold names
each flow's ends by full path, so its text is O(classes × depth of the
hierarchy), at most 981 times the linear size.

JSON. `write_class_json` writes `json.dumps(payload, indent=2,
sort_keys=True)`'s bytes through `_json`'s helpers, in linear time.
`read_class_json` reports the first fault it meets, item by item, and
builds a JSON path such as `/classes/0/name` only for the error it names.
"""

from __future__ import annotations

import json

from . import model as md
from ._json import json_list, scalar
from ._record import record
from .errors import (AmbiguousSubthimac, CyclicGeneralization,
                     SchemaError, UmlError)

#: an attribute's store per value type: records are immutable, so shared
_STORES = {"number": md.Store(0), "text": md.Store(""),
           "boolean": md.Store(False), "reference": md.Store(None)}

#: an attribute's five flows, as suffixes of its path: the setter enters
#: via Transfer/Receive and lands in the store through Process/Create;
#: the getter leaves via Release/Transfer
_ATTRIBUTE_FLOWS = ((".transfer", ".receive"), (".receive", ".process"),
                    (".process", ".create"), (".create", ".release"),
                    (".release", ".transfer"))


@record
class AttributeDef:
    name: str
    value_type: str = "reference"


@record
class MethodDef:
    name: str
    params: tuple[tuple[str, str], ...] = ()
    returns: str | None = None


@record
class ClassDef:
    name: str
    attributes: tuple[AttributeDef, ...] = ()
    methods: tuple[MethodDef, ...] = ()
    parent: str | None = None


@record
class ClassModel:
    classes: tuple[ClassDef, ...] = ()


# -- TM -> class --

def tm_to_class(static: md.StaticModel) -> ClassModel:
    """Recover a class model: one class per root thimac, recursing only
    into specializing subthimacs."""
    classes: list[ClassDef] = []
    paths: dict[str, str] = {}
    for thimac in static.thimacs:
        _classify(thimac, thimac.name, None, classes, paths,
                  static.actions_by_owner)
    return ClassModel(tuple(classes))


def _classify(thimac: md.Thimac, path: str, parent, classes, paths, owned):
    """Append the class of `thimac` and of its specializing descendants;
    `paths` maps each class name taken so far to its thimac's path, and
    `owned` is the model's `actions_by_owner`."""
    if thimac.name in paths:
        raise UmlError(f"class name '{thimac.name}' is used by both "
                       f"'{paths[thimac.name]}' and '{path}'")
    paths[thimac.name] = path
    attributes = []
    methods = []
    subclasses = []
    for sub in thimac.subthimacs:
        sub_path = f"{path}.{sub.name}"
        if sub.specializes:
            subclasses.append(sub)
            continue
        if sub.store is not None:
            if sub.subthimacs and all(
                    _is_action_only(c, f"{sub_path}.{c.name}", owned)
                    for c in sub.subthimacs):
                raise AmbiguousSubthimac(
                    f"'{sub_path}' has both a store and action-only "
                    "children; cannot classify")
            attributes.append(
                AttributeDef(sub.name, md.value_type_of(sub.store.value)))
            continue
        if _is_action_only(sub, sub_path, owned):
            methods.append(MethodDef(sub.name))
            continue
        import logging  # only here: it adds to every command's start-up
        logging.getLogger(__name__).warning(
            "subthimac '%s' has no store and is not action-only; "
            "treating as a reference attribute", sub_path)
        attributes.append(AttributeDef(sub.name, "reference"))
    classes.append(ClassDef(thimac.name, tuple(attributes), tuple(methods),
                            parent))
    for sub in subclasses:
        _classify(sub, f"{path}.{sub.name}", thimac.name, classes, paths,
                  owned)


def _is_action_only(thimac: md.Thimac, path: str, owned) -> bool:
    return (thimac.store is None and not thimac.subthimacs
            and path in owned)


# -- class -> TM --

def class_to_tm(cm: ClassModel) -> md.StaticModel:
    """Expand a class model into the stored-attribute TM scaffold; reject
    a duplicate class name, an unknown parent, a scaffold nested deeper
    than `model.MAX_THIMAC_DEPTH` or a cycle, in that order."""
    names = {cls.name for cls in cm.classes}
    if len(names) != len(cm.classes):
        raise SchemaError("/classes: duplicate class name")
    children: dict[str | None, list[ClassDef]] = {}
    for cls in cm.classes:
        if cls.parent is not None and cls.parent not in names:
            raise SchemaError(
                f"class '{cls.name}' extends unknown '{cls.parent}'")
        children.setdefault(cls.parent, []).append(cls)

    # a class d deep nests its attributes and methods d + 1 deep
    reached: set[str] = set()
    stack = [(cls, 1) for cls in children.get(None, [])]
    while stack:
        cls, depth = stack.pop()
        if depth + bool(cls.attributes or cls.methods) > md.MAX_THIMAC_DEPTH:
            raise UmlError("class hierarchy too deep")
        reached.add(cls.name)
        stack += [(sub, depth + 1) for sub in children.get(cls.name, [])]
    for cls in cm.classes:  # all parents are known: a missed class cycles
        if cls.name not in reached:
            raise CyclicGeneralization(
                f"generalization cycle through '{cls.name}'")

    actions: list[md.Action] = []
    flows: list[md.FlowEdge] = []
    roots = tuple(_expand(cls, "", children, actions, flows)
                  for cls in children.get(None, []))
    return md.build_model(roots, actions, flows, [])


def _expand(cls: ClassDef, prefix: str, children, actions, flows) \
        -> md.Thimac:
    """The thimac of `cls` and of its subclasses, whose actions and flows
    are appended to `actions` and `flows`; `children` maps a class name
    to its subclasses. A module function, not a closure, so that no cycle
    keeps the scaffold alive after the call."""
    path = f"{prefix}.{cls.name}" if prefix else cls.name
    actions.append(md.Action(path, "create"))
    subs = [_attribute_thimac(attr, path, actions, flows)
            for attr in cls.attributes]
    subs += [_method_thimac(method, path, actions)
             for method in cls.methods]
    # a loop, not a comprehension: one frame per level of nesting
    for sub in children.get(cls.name, []):
        subs.append(_expand(sub, path, children, actions, flows))
    return md.Thimac(cls.name, prefix != "", None, tuple(subs))


def _attribute_thimac(attr: AttributeDef, prefix, actions, flows):
    path = f"{prefix}.{attr.name}"
    actions += [md.Action(path, kind) for kind in md.KIND_ORDER]
    # each end is `md.action_id(path, kind)`
    flows += [md.FlowEdge(path + src, path + dst)
              for src, dst in _ATTRIBUTE_FLOWS]
    return md.Thimac(attr.name, False, _STORES[attr.value_type])


def _method_thimac(method: MethodDef, prefix, actions):
    actions.append(md.Action(f"{prefix}.{method.name}", "process"))
    return md.Thimac(method.name)


# -- JSON interchange --

def write_class_json(cm: ClassModel) -> str:
    """The model as `json.dumps(..., indent=2, sort_keys=True)` writes
    its payload, built line by line over `_json`'s helpers."""
    classes = []
    for cls in cm.classes:
        attributes = json_list([_typed(a.name, a.value_type, "        ")
                                for a in cls.attributes], "      ")
        methods = []
        for m in cls.methods:
            params = json_list([_typed(name, value_type, "            ")
                                for name, value_type in m.params],
                               "          ")
            methods.append(
                f'{{\n          "name": {scalar(m.name, "null")},\n'
                f'          "params": {params},\n'
                f'          "returns": {scalar(m.returns, "null")}\n'
                '        }')
        classes.append(
            f'{{\n      "attributes": {attributes},\n'
            f'      "methods": {json_list(methods, "      ")},\n'
            f'      "name": {scalar(cls.name, "null")},\n'
            f'      "parent": {scalar(cls.parent, "null")}\n    }}')
    return f'{{\n  "classes": {json_list(classes, "  ")}\n}}\n'


def _typed(name, value_type, indent: str) -> str:
    """An attribute or a parameter: its object that closes at `indent`."""
    return (f'{{\n{indent}  "name": {scalar(name, "null")},\n'
            f'{indent}  "type": {scalar(value_type, "null")}\n{indent}}}')


def read_class_json(text: str) -> ClassModel:
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too long or too deep
        raise SchemaError(f"/: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise SchemaError("/: expected an object")
    _reject_unknown(payload, {"classes"}, ())
    if "classes" not in payload:
        raise SchemaError("/classes: missing")
    classes = [_read_class(raw, where) for raw, where in _objects(
        payload, "classes", {"name", "parent", "attributes", "methods"}, ())]
    return ClassModel(tuple(classes))


def _read_class(raw, where) -> ClassDef:
    name = _read_name(raw, where)
    parent = raw.get("parent")
    if not (parent is None or isinstance(parent, str)):
        raise _error(where, "parent", "expected a string or null")
    attributes = [
        AttributeDef(_read_name(item, sub), _read_type(item, sub))
        for item, sub in _objects(raw, "attributes", {"name", "type"}, where)]
    methods = []
    for item, sub in _objects(raw, "methods", {"name", "params", "returns"},
                              where):
        params = [(_read_name(p, psub), _read_type(p, psub)) for p, psub
                  in _objects(item, "params", {"name", "type"}, sub)]
        returns = item.get("returns")
        if not (returns is None or returns in md.VALUE_TYPES):
            raise _error(sub, "returns", "expected a value type or null")
        methods.append(MethodDef(_read_name(item, sub),
                                 tuple(params), returns))
    return ClassDef(name, tuple(attributes), tuple(methods), parent)


def _objects(raw, key, fields, where):
    """Yield each item of the array `raw[key]`, none if it is absent, with
    its place `(where, key, index)`, once it is known to be an object of
    only `fields`."""
    items = raw.get(key, [])
    if not isinstance(items, list):
        raise _error(where, key, "expected an array")
    for i, item in enumerate(items):
        if not isinstance(item, dict):
            raise _error(where, f"{key}/{i}", "expected an object")
        place = (where, key, i)
        _reject_unknown(item, fields, place)
        yield item, place


def _read_name(raw, where):
    name = raw.get("name")
    if not (isinstance(name, str) and md.is_name(name)):
        if "name" not in raw:
            raise _error(where, "name", "missing")
        if not (isinstance(name, str) and name):
            raise _error(where, "name", "expected a non-empty string")
        raise _error(where, "name", f"not a .tm name: {name!r}")
    return name


def _read_type(raw, where):
    value_type = raw.get("type")
    if value_type not in md.VALUE_TYPES:
        raise _error(where, "type", (
            f"expected one of {', '.join(md.VALUE_TYPES)}" if "type" in raw
            else "missing"))
    return value_type


def _reject_unknown(raw, allowed, where):
    if not raw.keys() <= allowed:
        key = next(key for key in raw if key not in allowed)
        raise _error(where, key, "unknown field")


def _error(where, field, message) -> SchemaError:
    """The error at `field` of the item at `where`: `()` for the payload,
    else the item's `(parent's where, key, index)`."""
    while where:
        where, key, index = where
        field = f"{key}/{index}/{field}"
    return SchemaError(f"/{field}: {message}")
