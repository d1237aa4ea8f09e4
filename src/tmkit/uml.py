"""Bidirectional conversion between static TM models and class models.

Class recovery drops every generic action and edge, then reads the
containment tree: specializing subthimacs become subclasses, stored
subthimacs become attributes, action-only subthimacs become methods.
The reverse direction expands each attribute into the standard stored
five-action cluster and each method into a lone Process action.
"""

from __future__ import annotations

import dataclasses
import json
import logging
from typing import Optional

from . import model as md
from .errors import AmbiguousSubthimac, CyclicGeneralization, SchemaError

log = logging.getLogger(__name__)

#: default store literal used when expanding an attribute of a given type
_TYPE_DEFAULTS = {"number": 0, "text": "", "boolean": False,
                  "reference": None}


@dataclasses.dataclass(frozen=True)
class AttributeDef:
    name: str
    value_type: str = "reference"


@dataclasses.dataclass(frozen=True)
class MethodDef:
    name: str
    params: tuple[tuple[str, str], ...] = ()
    returns: Optional[str] = None


@dataclasses.dataclass(frozen=True)
class ClassDef:
    name: str
    attributes: tuple[AttributeDef, ...] = ()
    methods: tuple[MethodDef, ...] = ()
    parent: Optional[str] = None


@dataclasses.dataclass(frozen=True)
class ClassModel:
    classes: tuple[ClassDef, ...] = ()

    def class_named(self, name: str) -> Optional[ClassDef]:
        return next((c for c in self.classes if c.name == name), None)


def _check_generalization(cm: ClassModel):
    names = {c.name for c in cm.classes}
    for cls in cm.classes:
        if cls.parent is not None and cls.parent not in names:
            raise SchemaError(
                f"class '{cls.name}' extends unknown '{cls.parent}'")
    for cls in cm.classes:
        seen = set()
        node = cls
        while node is not None and node.parent is not None:
            if node.parent in seen or node.parent == cls.name:
                raise CyclicGeneralization(
                    f"generalization cycle through '{cls.name}'")
            seen.add(node.parent)
            node = cm.class_named(node.parent)


# -- TM -> class --

def tm_to_class(static: md.StaticModel) -> ClassModel:
    """Recover a class model: one class per root thimac, recursing only
    into specializing subthimacs."""
    classes: list[ClassDef] = []
    for thimac in static.thimacs:
        _classify(thimac, thimac.name, None, classes)
    cm = ClassModel(tuple(classes))
    _check_generalization(cm)
    return cm


def _classify(thimac: md.Thimac, path: str, parent, classes):
    attributes = []
    methods = []
    subclasses = []
    for sub in thimac.subthimacs:
        sub_path = f"{path}.{sub.name}"
        if sub.specializes:
            subclasses.append(sub)
            continue
        method_children = [c for c in sub.subthimacs if _is_action_only(c)]
        if sub.store is not None:
            if sub.subthimacs and len(method_children) == len(sub.subthimacs):
                raise AmbiguousSubthimac(
                    f"'{sub_path}' has both a store and action-only "
                    "children; cannot classify")
            attributes.append(
                AttributeDef(sub.name, sub.store.value_type))
            continue
        if _is_action_only(sub):
            methods.append(MethodDef(sub.name))
            continue
        log.warning("subthimac '%s' has no store and is not action-only; "
                    "treating as a reference attribute", sub_path)
        attributes.append(AttributeDef(sub.name, "reference"))
    classes.append(ClassDef(thimac.name, tuple(attributes), tuple(methods),
                            parent))
    for sub in subclasses:
        _classify(sub, f"{path}.{sub.name}", thimac.name, classes)


def _is_action_only(thimac: md.Thimac) -> bool:
    return (thimac.store is None and not thimac.subthimacs
            and bool(thimac.action_ids))


# -- class -> TM --

def class_to_tm(cm: ClassModel) -> md.StaticModel:
    """Expand a class model into the stored-attribute TM scaffold."""
    _check_generalization(cm)
    children: dict[Optional[str], list[ClassDef]] = {}
    for cls in cm.classes:
        children.setdefault(cls.parent, []).append(cls)

    actions: list[md.Action] = []
    flows: list[md.FlowEdge] = []

    def expand(cls: ClassDef, prefix: str) -> md.Thimac:
        path = f"{prefix}.{cls.name}" if prefix else cls.name
        aid = md.action_id(path, md.ActionKind.CREATE)
        actions.append(md.Action(aid, md.ActionKind.CREATE, path))
        subs = [_attribute_thimac(attr, path, actions, flows)
                for attr in cls.attributes]
        subs += [_method_thimac(method, path, actions)
                 for method in cls.methods]
        subs += [expand(sub, path) for sub in children.get(cls.name, [])]
        return md.Thimac(cls.name, specializes=prefix != "",
                         action_ids=(aid,), subthimacs=tuple(subs))

    roots = tuple(expand(cls, "") for cls in children.get(None, []))
    return md.build_model(roots, actions, flows, [])


def _attribute_thimac(attr: AttributeDef, prefix, actions, flows):
    path = f"{prefix}.{attr.name}"
    ids = []
    for kind in md.KIND_ORDER:
        aid = md.action_id(path, kind)
        actions.append(md.Action(aid, kind, path))
        ids.append(aid)
    # setter enters via Transfer/Receive and lands in the store through
    # Process/Create; getter leaves via Release/Transfer
    k = md.ActionKind
    for src, dst in ((k.TRANSFER, k.RECEIVE), (k.RECEIVE, k.PROCESS),
                     (k.PROCESS, k.CREATE), (k.CREATE, k.RELEASE),
                     (k.RELEASE, k.TRANSFER)):
        flows.append(md.FlowEdge(md.action_id(path, src),
                                 md.action_id(path, dst)))
    store = md.Store(_TYPE_DEFAULTS[attr.value_type])
    return md.Thimac(attr.name, store=store, action_ids=tuple(ids))


def _method_thimac(method: MethodDef, prefix, actions):
    path = f"{prefix}.{method.name}"
    aid = md.action_id(path, md.ActionKind.PROCESS)
    actions.append(md.Action(aid, md.ActionKind.PROCESS, path))
    return md.Thimac(method.name, action_ids=(aid,))


# -- JSON interchange --

def write_class_json(cm: ClassModel) -> str:
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


def read_class_json(text: str) -> ClassModel:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"/: not valid JSON ({exc})") from exc
    _require(isinstance(payload, dict), "/", "expected an object")
    _reject_unknown(payload, {"classes"}, "/")
    _require("classes" in payload, "/classes", "missing")
    _require(isinstance(payload["classes"], list), "/classes",
             "expected an array")
    classes = []
    for i, raw in enumerate(payload["classes"]):
        classes.append(_read_class(raw, f"/classes/{i}"))
    cm = ClassModel(tuple(classes))
    names = [c.name for c in cm.classes]
    _require(len(names) == len(set(names)), "/classes",
             "duplicate class name")
    _check_generalization(cm)
    return cm


def _read_class(raw, where) -> ClassDef:
    _require(isinstance(raw, dict), where, "expected an object")
    _reject_unknown(raw, {"name", "parent", "attributes", "methods"}, where)
    name = _read_str(raw, "name", where)
    parent = raw.get("parent")
    _require(parent is None or isinstance(parent, str), f"{where}/parent",
             "expected a string or null")
    attributes = []
    for i, item in enumerate(raw.get("attributes", [])):
        sub = f"{where}/attributes/{i}"
        _require(isinstance(item, dict), sub, "expected an object")
        _reject_unknown(item, {"name", "type"}, sub)
        attributes.append(AttributeDef(_read_str(item, "name", sub),
                                       _read_type(item, "type", sub)))
    methods = []
    for i, item in enumerate(raw.get("methods", [])):
        sub = f"{where}/methods/{i}"
        _require(isinstance(item, dict), sub, "expected an object")
        _reject_unknown(item, {"name", "params", "returns"}, sub)
        params = []
        for j, p in enumerate(item.get("params", [])):
            psub = f"{sub}/params/{j}"
            _require(isinstance(p, dict), psub, "expected an object")
            _reject_unknown(p, {"name", "type"}, psub)
            params.append((_read_str(p, "name", psub),
                           _read_type(p, "type", psub)))
        returns = item.get("returns")
        _require(returns is None or returns in md.VALUE_TYPES,
                 f"{sub}/returns", "expected a value type or null")
        methods.append(MethodDef(_read_str(item, "name", sub),
                                 tuple(params), returns))
    return ClassDef(name, tuple(attributes), tuple(methods), parent)


def _read_str(raw, key, where):
    _require(key in raw, f"{where}/{key}", "missing")
    _require(isinstance(raw[key], str) and raw[key], f"{where}/{key}",
             "expected a non-empty string")
    return raw[key]


def _read_type(raw, key, where):
    _require(key in raw, f"{where}/{key}", "missing")
    _require(raw[key] in md.VALUE_TYPES, f"{where}/{key}",
             f"expected one of {', '.join(md.VALUE_TYPES)}")
    return raw[key]


def _reject_unknown(raw, allowed, where):
    for key in raw:
        _require(key in allowed, f"{where}/{key}", "unknown field")


def _require(condition, where, message):
    if not condition:
        raise SchemaError(f"{where}: {message}")
