"""Static model core: thimacs, generic actions, flows, triggers, stores.

A static model is an atemporal graph. Thimacs nest in a tree; each thimac
may declare at most one action per generic kind and at most one store.
Flows move things between action stages; triggers start activity elsewhere
without moving a thing.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Iterator, Optional

from . import expr as ex
from .errors import (DuplicateEdge, DuplicateId, DuplicateSiblingName,
                     TriggerShadowsFlow, UnknownPath)


class ActionKind(enum.Enum):
    CREATE = "create"
    PROCESS = "process"
    RELEASE = "release"
    TRANSFER = "transfer"
    RECEIVE = "receive"

    @property
    def word(self) -> str:
        return self.value.capitalize()


#: Canonical ordering of action kinds inside a thimac.
KIND_ORDER = (ActionKind.CREATE, ActionKind.PROCESS, ActionKind.RELEASE,
              ActionKind.TRANSFER, ActionKind.RECEIVE)

_KIND_RANK = {kind: i for i, kind in enumerate(KIND_ORDER)}

#: Legal (from-kind, to-kind) pairs for a flow inside one thimac.
LEGAL_INTRA = {
    (ActionKind.TRANSFER, ActionKind.RECEIVE),
    (ActionKind.RECEIVE, ActionKind.PROCESS),
    (ActionKind.RECEIVE, ActionKind.RELEASE),
    (ActionKind.PROCESS, ActionKind.RELEASE),
    (ActionKind.PROCESS, ActionKind.CREATE),
    (ActionKind.CREATE, ActionKind.RELEASE),
    (ActionKind.CREATE, ActionKind.PROCESS),
    (ActionKind.RELEASE, ActionKind.TRANSFER),
}

#: Legal pairs for a flow crossing thimac boundaries.
LEGAL_INTER = {(ActionKind.TRANSFER, ActionKind.TRANSFER)}

VALUE_TYPES = ("number", "text", "boolean", "reference")


@dataclasses.dataclass(frozen=True)
class Store:
    """Single storage slot of a thimac. value None means undeclared type."""
    value: Optional[ex.Value] = None

    @property
    def value_type(self) -> str:
        return value_type_of(self.value)


def value_type_of(value) -> str:
    if value is None:
        return "reference"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    return "text"


@dataclasses.dataclass(frozen=True)
class Action:
    id: str
    kind: ActionKind
    owner: str  # dotted path of the containing thimac
    update: Optional[tuple[str, ex.Expr]] = None  # target path := expr


def action_id(owner: str, kind: ActionKind) -> str:
    return f"{owner}.{kind.value}"


@dataclasses.dataclass(frozen=True)
class FlowEdge:
    src: str
    dst: str


@dataclasses.dataclass(frozen=True)
class TriggerEdge:
    src: str
    dst: str


@dataclasses.dataclass(frozen=True)
class Thimac:
    name: str
    specializes: bool = False
    store: Optional[Store] = None
    action_ids: tuple[str, ...] = ()
    subthimacs: tuple["Thimac", ...] = ()


@dataclasses.dataclass(frozen=True)
class StaticModel:
    thimacs: tuple[Thimac, ...]
    actions: dict[str, Action]
    flows: tuple[FlowEdge, ...]
    triggers: tuple[TriggerEdge, ...]

    def iter_thimacs(self) -> Iterator[tuple[str, Thimac]]:
        """Yield (dotted path, thimac) in depth-first declaration order."""
        def walk(prefix, thimacs):
            for t in thimacs:
                path = f"{prefix}.{t.name}" if prefix else t.name
                yield path, t
                yield from walk(path, t.subthimacs)
        yield from walk("", self.thimacs)

    def thimac_at(self, path: str) -> Optional[Thimac]:
        node = None
        children = self.thimacs
        for part in path.split("."):
            node = next((t for t in children if t.name == part), None)
            if node is None:
                return None
            children = node.subthimacs
        return node

    def store_paths(self) -> dict[str, Store]:
        return {path: t.store
                for path, t in self.iter_thimacs() if t.store is not None}

    def thimac_names(self) -> set[str]:
        return {t.name for _, t in self.iter_thimacs()}


@dataclasses.dataclass(frozen=True)
class Diagnostic:
    severity: str  # "ERROR" | "WARNING"
    location: str
    message: str
    code: str


@dataclasses.dataclass
class ValidationReport:
    diagnostics: list[Diagnostic] = dataclasses.field(default_factory=list)

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
    paths = set()
    _check_sibling_names("", thimacs, paths)

    table: dict[str, Action] = {}
    for action in actions:
        if action.id in table:
            raise DuplicateId(f"duplicate action id '{action.id}'")
        if action.owner not in paths:
            raise UnknownPath(
                f"action '{action.id}' owner '{action.owner}' does not exist")
        table[action.id] = action

    flow_pairs = set()
    for edge in flows:
        _check_endpoints(edge, table)
        if (edge.src, edge.dst) in flow_pairs:
            raise DuplicateEdge(f"duplicate flow {edge.src} -> {edge.dst}")
        flow_pairs.add((edge.src, edge.dst))
    trigger_pairs = set()
    for edge in triggers:
        _check_endpoints(edge, table)
        if (edge.src, edge.dst) in trigger_pairs:
            raise DuplicateEdge(
                f"duplicate trigger {edge.src} --> {edge.dst}")
        if (edge.src, edge.dst) in flow_pairs:
            raise TriggerShadowsFlow(
                f"trigger {edge.src} --> {edge.dst} duplicates a flow edge")
        trigger_pairs.add((edge.src, edge.dst))

    return StaticModel(thimacs, table, tuple(flows), tuple(triggers))


def _check_sibling_names(prefix, thimacs, paths):
    """Add the dotted path of every thimac in the tree to `paths`."""
    seen = set()
    for t in thimacs:
        path = f"{prefix}.{t.name}" if prefix else t.name
        if t.name in seen:
            raise DuplicateSiblingName(f"duplicate sibling thimac '{path}'")
        seen.add(t.name)
        paths.add(path)
        _check_sibling_names(path, t.subthimacs, paths)


def _check_endpoints(edge, table):
    for endpoint in (edge.src, edge.dst):
        if endpoint not in table:
            raise UnknownPath(f"edge endpoint '{endpoint}' does not exist")


def validate_static(model: StaticModel) -> ValidationReport:
    """Check stage legality of every flow; report isolated actions.

    Legality violations are errors; connectedness failures are warnings.
    """
    report = ValidationReport()
    for edge in model.flows:
        src = model.actions[edge.src]
        dst = model.actions[edge.dst]
        pair = (src.kind, dst.kind)
        table = LEGAL_INTRA if src.owner == dst.owner else LEGAL_INTER
        if pair not in table:
            scope = "intra" if src.owner == dst.owner else "inter"
            report.add(
                "ERROR", f"{edge.src} -> {edge.dst}",
                f"illegal {scope}-thimac flow {src.kind.word} -> "
                f"{dst.kind.word}", "IllegalStagePair")
    touched = set()
    for edge in model.flows:
        touched.update((edge.src, edge.dst))
    for edge in model.triggers:
        touched.update((edge.src, edge.dst))
    for aid in model.actions:
        if aid not in touched:
            report.add("WARNING", aid,
                       "action participates in no flow or trigger",
                       "IsolatedAction")
    return report


def canonicalize(model: StaticModel) -> StaticModel:
    """Deterministic ordering: actions by kind, edges lexicographically.

    Thimac declaration order is preserved. Idempotent.
    """
    def fix(t: Thimac) -> Thimac:
        ids = tuple(sorted(
            t.action_ids, key=lambda i: _KIND_RANK[model.actions[i].kind]))
        return dataclasses.replace(
            t, action_ids=ids, subthimacs=tuple(map(fix, t.subthimacs)))

    thimacs = tuple(fix(t) for t in model.thimacs)
    actions = {aid: model.actions[aid] for aid in sorted(model.actions)}
    flows = tuple(sorted(model.flows, key=lambda e: (e.src, e.dst)))
    triggers = tuple(sorted(model.triggers, key=lambda e: (e.src, e.dst)))
    return StaticModel(thimacs, actions, flows, triggers)
