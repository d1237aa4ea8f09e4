"""Static model core: thimacs, generic actions, flows, triggers, stores.

A static model is an atemporal graph. Thimacs nest in a tree; each thimac
may declare at most one action per generic kind and at most one store.
Flows move things between action stages; triggers start activity elsewhere
without moving a thing.
"""

from __future__ import annotations

import functools
import re
from collections.abc import Iterator

from . import expr as ex
from ._record import record
from .errors import (DuplicateEdge, DuplicateId, DuplicateSiblingName,
                     ModelError, TriggerShadowsFlow, UnknownPath)


#: The generic action kinds, as their `.tm` keywords, in canonical order
#: inside a thimac: their declaration order
KIND_ORDER = ("create", "process", "release", "transfer", "receive")
_KINDS = frozenset(KIND_ORDER)

#: Legal (from-kind, to-kind) pairs for a flow inside one thimac.
LEGAL_INTRA = {
    ("transfer", "receive"),
    ("receive", "process"),
    ("receive", "release"),
    ("process", "release"),
    ("process", "create"),
    ("create", "release"),
    ("create", "process"),
    ("release", "transfer"),
}

#: Legal pairs for a flow crossing thimac boundaries.
LEGAL_INTER = {("transfer", "transfer")}

VALUE_TYPES = ("number", "text", "boolean", "reference")

#: How deep thimacs may nest, one level deeper being the parse error
#: `nesting too deep`. No command takes a stack frame per level, so this is
#: a fixed bound, kept at 981 so that no golden file or test moves.
MAX_THIMAC_DEPTH = 981

#: A thimac, event or path-part name, which `dsl` lexes as one NAME token
NAME_PATTERN = r"[^\W\d]\w*"
_NAME_RE = re.compile(NAME_PATTERN)


@record
class Store:
    """Single storage slot of a thimac. value None means undeclared type."""
    value: ex.Value | None = None


def value_type_of(value) -> str | None:
    """The type of a value a store may hold; None for a number out of
    `expr.in_range` and for what is no number, text, boolean or None."""
    if value is None:
        return "reference"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number" if ex.in_range(value) else None
    return "text" if isinstance(value, str) else None


@record
class Action:
    """Stated once, in the action table: its id and its thimac's list of
    actions (`StaticModel.actions_by_owner`) derive from owner and kind."""
    owner: str  # dotted path of the containing thimac
    kind: str  # one of KIND_ORDER
    update: tuple[str, ex.Expr] | None = None  # target path := expr

    @property
    def id(self) -> str:
        return action_id(self.owner, self.kind)


def action_id(owner: str, kind: str) -> str:
    return f"{owner}.{kind}"


def is_name(text: str) -> bool:
    """Whether `text` is one name token: a thimac, event or path part."""
    if text.isascii():  # in ASCII, a name `[^\W\d]\w*` is an identifier
        return text.isidentifier()
    # `[^\W\d]` admits digits such as '²' that str.isalpha() rejects
    return ((text[:1].isalpha() or text[:1] == "_")
            and _NAME_RE.fullmatch(text) is not None)


def is_path(text: str) -> bool:
    """Whether `text` is a path `.tm` text writes: dot-separated names."""
    return all(map(is_name, text.split(".")))


@record
class FlowEdge:
    src: str
    dst: str


@record
class TriggerEdge:
    src: str
    dst: str


@record
class Thimac:
    name: str
    specializes: bool = False
    store: Store | None = None
    subthimacs: tuple["Thimac", ...] = ()


@record
class StaticModel:
    thimacs: tuple[Thimac, ...]
    actions: dict[str, Action]
    flows: tuple[FlowEdge, ...]
    triggers: tuple[TriggerEdge, ...]

    def iter_thimacs(self) -> Iterator[tuple[str, Thimac]]:
        return ((p, t) for p, t, _ in _walk(self.thimacs) if t is not None)

    @functools.cached_property
    def actions_by_owner(self) -> dict[str, list[Action]]:
        """Thimac path -> its actions in table order; a thimac with no
        actions is absent."""
        by_owner: dict[str, list[Action]] = {}
        for action in self.actions.values():
            by_owner.setdefault(action.owner, []).append(action)
        return by_owner

    @functools.cached_property
    def stores(self) -> dict[str, Store]:
        """Path -> store of each thimac that has one, in preorder; found
        here only for a model not from `build_model`, which fills it."""
        return {path: t.store
                for path, t in self.iter_thimacs() if t.store is not None}

    @functools.cached_property
    def declared_types(self) -> dict[str, str | None]:
        """Store path -> its value's type; None for `store;`."""
        return {path: None if store.value is None else value_type_of(
            store.value) for path, store in self.stores.items()}


def _walk(thimacs) -> Iterator[tuple[str, Thimac | None, int]]:
    """The one walk of the thimac tree, with no frame per level: yield
    (dotted path, thimac, depth) as a thimac opens, in preorder, and
    (path, None, depth) as it closes, after its subthimacs."""
    stack = [("", iter(thimacs))]
    while stack:
        prefix, level = stack[-1]
        depth = len(stack) - 1
        for t in level:
            path = prefix + t.name
            yield path, t, depth
            if t.subthimacs:
                stack.append((path + ".", iter(t.subthimacs)))
                break
            yield path, None, depth
        else:
            stack.pop()
            if prefix:
                yield prefix[:-1], None, depth - 1


@record
class Diagnostic:
    severity: str  # "ERROR" | "WARNING"
    location: str
    message: str
    code: str


@record
class ValidationReport:
    diagnostics: list[Diagnostic]
    # assignable, unlike other records: `report.diagnostics += more`
    # stores the extended list back
    __setattr__ = object.__setattr__

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "ERROR"]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "WARNING"]

    @property
    def ok(self) -> bool:
        return not self.errors

    def add(self, severity, location, message, code):
        self.diagnostics.append(Diagnostic(severity, location, message, code))


def build_model(thimacs, actions, flows, triggers) -> StaticModel:
    """Assemble a StaticModel and check structural well-formedness.

    Stage legality is deliberately not checked here; see validate_static.
    """
    thimacs = tuple(thimacs)
    # in preorder, the first repeated path is the first duplicate sibling
    paths = set()
    stores = {}
    for path, thimac, _ in _walk(thimacs):
        if thimac is None:
            continue
        if not is_name(thimac.name):
            raise ModelError(f"thimac name {thimac.name!r} is not a .tm name")
        if path in paths:
            raise DuplicateSiblingName(f"duplicate sibling thimac '{path}'")
        paths.add(path)
        if thimac.store is not None:
            stores[path] = thimac.store  # typed below, once per value object
    for path in {id(s.value): p for p, s in stores.items()}.values():
        if value_type_of(stores[path].value) is None:
            raise ModelError(f"value of store '{path}' has no value type")

    table: dict[str, Action] = {}
    for action in actions:
        owner, kind = action.owner, action.kind
        aid = f"{owner}.{kind}"  # `action_id`, inline in this hot loop
        if kind not in _KINDS:
            raise ModelError(f"action '{aid}' has unknown kind {kind!r}")
        if aid in table:
            raise DuplicateId(f"duplicate action id '{aid}'")
        if owner not in paths:
            raise UnknownPath(
                f"action '{aid}' owner '{owner}' does not exist")
        if action.update is not None:
            target, rule = action.update  # a store path is made of names
            for path in (target, *sorted(ex.paths_in(rule))):
                if path not in stores and not is_path(path):
                    raise ModelError(f"action '{aid}' update path {path!r} "
                                     "is not a .tm path")
        table[aid] = action

    flow_pairs = set()
    for edge in flows:
        pair = src, dst = edge.src, edge.dst
        if src not in table or dst not in table:
            _check_endpoints(edge, table)
        if pair in flow_pairs:
            raise DuplicateEdge(f"duplicate flow {src} -> {dst}")
        flow_pairs.add(pair)
    trigger_pairs = set()
    for edge in triggers:
        pair = src, dst = edge.src, edge.dst
        if src not in table or dst not in table:
            _check_endpoints(edge, table)
        if pair in trigger_pairs:
            raise DuplicateEdge(f"duplicate trigger {src} --> {dst}")
        if pair in flow_pairs:
            raise TriggerShadowsFlow(
                f"trigger {src} --> {dst} duplicates a flow edge")
        trigger_pairs.add(pair)

    model = StaticModel(thimacs, table, tuple(flows), tuple(triggers))
    vars(model)["stores"] = stores  # where the cached property keeps it
    return model


def _check_endpoints(edge, table):
    for endpoint in (edge.src, edge.dst):
        if endpoint not in table:
            raise UnknownPath(f"edge endpoint '{endpoint}' does not exist")


def validate_static(model: StaticModel) -> ValidationReport:
    """Check stage legality of every flow and that every path an update
    rule reads or writes names a store; report isolated actions.

    Legality violations and storeless update paths are errors;
    connectedness failures are warnings. One pass over the flows, the
    actions, and the flows and triggers; `model.stores` gives the stores.
    """
    report = ValidationReport([])
    for edge in model.flows:
        src = model.actions[edge.src]
        dst = model.actions[edge.dst]
        pair = (src.kind, dst.kind)
        table = LEGAL_INTRA if src.owner == dst.owner else LEGAL_INTER
        if pair not in table:
            scope = "intra" if src.owner == dst.owner else "inter"
            report.add(
                "ERROR", f"{edge.src} -> {edge.dst}",
                f"illegal {scope}-thimac flow {src.kind.capitalize()} -> "
                f"{dst.kind.capitalize()}", "IllegalStagePair")
    stores = model.stores
    for action in model.actions.values():
        if action.update is None:
            continue
        target, rule = action.update
        for verb, paths in (("writes", [target]),
                            ("reads", sorted(ex.paths_in(rule)))):
            for path in paths:
                if path not in stores:
                    report.add("ERROR", action.id, f"update rule {verb} "
                               f"storeless path '{path}'",
                               "UpdatePathUnstored")
    touched = set()
    for edge in (*model.flows, *model.triggers):
        touched.update((edge.src, edge.dst))
    for aid in model.actions:
        if aid not in touched:
            report.add("WARNING", aid,
                       "action participates in no flow or trigger",
                       "IsolatedAction")
    return report


def canonicalize(model: StaticModel) -> StaticModel:
    """Deterministic ordering: actions by id, flows and triggers by
    (src, dst). The thimac tree is kept as it is. Idempotent."""
    actions = {aid: model.actions[aid] for aid in sorted(model.actions)}
    flows = tuple(sorted(model.flows, key=lambda e: (e.src, e.dst)))
    triggers = tuple(sorted(model.triggers, key=lambda e: (e.src, e.dst)))
    return StaticModel(model.thimacs, actions, flows, triggers)
