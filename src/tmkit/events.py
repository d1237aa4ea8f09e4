"""Event regions and the behavioral model (chronology of events).

An event region is a subdiagram of the static model; the behavioral model
is a directed graph over regions whose edges mean precedence of first
firing, optionally guarded by store predicates.

Cost. A `BehavioralModel` builds its graph indexes, `incoming` and
`successors`, in one pass over its edges on first use; entry and
terminal events, the cycle and reachability walks and the simulator all
read them. `covered_edges` indexes the flows and triggers each event
covers, and the events those triggers reach, in one pass over the covers
and one over the static flows and triggers. `check_behavior` builds that
index once and tests each region on its own edges. It costs
O(actions + flows + triggers + events + edges) once, an action or a
static edge counting once per event that covers it and a trigger once
more per event covering its target; nothing rescans the model per event.
"""

from __future__ import annotations

import functools

from . import expr as ex
from ._record import record
from .errors import (DuplicateEventId, EmptyCover, ModelError,
                     UnknownActionPath, UnknownEvent)
from .model import (FlowEdge, StaticModel, TriggerEdge, ValidationReport,
                    is_name, is_path)

_NONE: frozenset[str] = frozenset()


@record
class EventRegion:
    id: str
    label: str
    covers: frozenset[str]
    #: store path a firing payload is written to; None means no input needed
    input_path: str | None = None


@record
class BehaviorEdge:
    src: str
    dst: str
    guard: ex.Expr | None = None


@record
class BehavioralModel:
    events: tuple[EventRegion, ...]
    edges: tuple[BehaviorEdge, ...]
    terminals: frozenset[str] = frozenset()
    repeatable: frozenset[str] = frozenset()

    def event(self, event_id: str) -> EventRegion:
        try:
            return self._by_id[event_id]
        except KeyError:
            raise UnknownEvent(f"unknown event '{event_id}'") from None

    @functools.cached_property
    def _by_id(self) -> dict[str, EventRegion]:
        return {event.id: event for event in self.events}

    @functools.cached_property
    def incoming(self) -> dict[str, list[BehaviorEdge]]:
        """Event id -> its incoming edges in declaration order; an entry
        event is absent."""
        incoming: dict[str, list[BehaviorEdge]] = {}
        for edge in self.edges:
            incoming.setdefault(edge.dst, []).append(edge)
        return incoming

    @functools.cached_property
    def successors(self) -> dict[str, list[str]]:
        """Event id -> the targets of its outgoing edges in declaration
        order; a sink event is absent."""
        successors: dict[str, list[str]] = {}
        for edge in self.edges:
            successors.setdefault(edge.src, []).append(edge.dst)
        return successors

    def entry_events(self) -> list[str]:
        """Events with no incoming edges, in declaration order."""
        return [e.id for e in self.events if e.id not in self.incoming]

    def terminal_events(self) -> frozenset[str]:
        """Declared terminals, defaulting to the sink events."""
        return self.terminals or frozenset(
            e.id for e in self.events if e.id not in self.successors)


def eventize(model: StaticModel, event_id: str, label: str, cover_paths,
             input_path: str | None = None) -> EventRegion:
    """Build a region from action paths; all paths must resolve."""
    if not is_name(event_id):
        raise ModelError(f"event id {event_id!r} is not a .tm name")
    paths = list(cover_paths)
    if not paths:
        raise EmptyCover(f"event '{event_id}' covers no actions")
    for path in paths:
        if path not in model.actions:
            raise UnknownActionPath(
                f"event '{event_id}' covers unknown action '{path}'")
    if input_path is not None and not is_path(input_path):
        raise ModelError(f"event '{event_id}' input path {input_path!r} "
                         "is not a .tm path")
    return EventRegion(event_id, label, frozenset(paths), input_path)


def covered_edges(model: StaticModel, events) \
        -> dict[str, tuple[list[FlowEdge], list[TriggerEdge], set[str]]]:
    """Event id -> (covered flows, covered triggers, reached events).

    An edge is covered by an event when the event covers both its ends;
    the flows and triggers are in static order. A covered trigger reaches
    every event that covers its target. One pass over the covers and one
    over the flows and triggers build the whole index.
    """
    covering: dict[str, set[str]] = {}
    for event in events:
        for aid in event.covers:
            covering.setdefault(aid, set()).add(event.id)
    index = {event.id: ([], [], set()) for event in events}
    for edge in model.flows:
        for eid in (covering.get(edge.src, _NONE)
                    & covering.get(edge.dst, _NONE)):
            index[eid][0].append(edge)
    for edge in model.triggers:
        reached = covering.get(edge.dst, _NONE)
        for eid in covering.get(edge.src, _NONE) & reached:
            _, triggers, reach = index[eid]
            triggers.append(edge)
            reach |= reached
    return index


def _is_connected(covers, edges) -> bool:
    """Weak connectivity of the actions `covers` under `edges`."""
    adjacency = {a: [] for a in covers}
    for edge in edges:
        adjacency[edge.src].append(edge.dst)
        adjacency[edge.dst].append(edge.src)
    start = next(iter(covers))
    seen = {start}
    stack = [start]
    while stack:
        for other in adjacency[stack.pop()]:
            if other not in seen:
                seen.add(other)
                stack.append(other)
    return len(seen) == len(covers)


def build_behavior(events, edges, terminals=(), repeatable=()) \
        -> BehavioralModel:
    """Assemble a chronology; cycles are allowed, dangling ids are not."""
    events = tuple(events)
    ids = set()
    for event in events:
        if event.id in ids:
            raise DuplicateEventId(f"duplicate event id '{event.id}'")
        ids.add(event.id)
    edges = tuple(edges)
    for edge in edges:
        for endpoint in (edge.src, edge.dst):
            if endpoint not in ids:
                raise UnknownEvent(
                    f"behavior edge references unknown event '{endpoint}'")
        if bad := [p for p in ex.paths_in(edge.guard) if not is_path(p)]:
            raise ModelError(f"guard on {edge.src} -> {edge.dst} reads "
                             f"{min(bad)!r}, which is not a .tm path")
    for name in list(terminals) + list(repeatable):
        if name not in ids:
            raise UnknownEvent(f"declaration references unknown event "
                               f"'{name}'")
    return BehavioralModel(events, edges, frozenset(terminals),
                           frozenset(repeatable))


def check_behavior(behavior: BehavioralModel,
                   model: StaticModel) -> ValidationReport:
    """Report guard resolution errors plus cycle/reachability warnings."""
    report = ValidationReport([])
    stores = model.stores
    covered = covered_edges(model, behavior.events)

    for event in behavior.events:
        if event.input_path is not None and event.input_path not in stores:
            report.add("ERROR", event.id,
                       f"input path '{event.input_path}' has no store",
                       "InputPathUnstored")
        flows, triggers, _ = covered[event.id]
        if not _is_connected(event.covers, flows + triggers):
            report.add("WARNING", event.id,
                       "covered subgraph is disconnected", "RegionDisconnected")
    for edge in behavior.edges:
        if edge.guard is None:
            continue
        for path in sorted(ex.paths_in(edge.guard)):
            if path not in stores:
                report.add("ERROR", f"{edge.src} -> {edge.dst}",
                           f"guard references storeless path '{path}'",
                           "GuardPathUnstored")

    _check_cycles(behavior, report)
    _check_reachability(behavior, report)
    return report


def _check_cycles(behavior, report):
    """Depth-first search from each event in declaration order; an edge
    back to a node still on the stack closes a cycle."""
    successors = behavior.successors
    color = {}
    for event in behavior.events:
        if event.id in color:
            continue
        color[event.id] = "grey"
        stack = [(event.id, iter(successors.get(event.id, ())))]
        while stack:
            node, pending = stack[-1]
            for nxt in pending:
                if color.get(nxt) == "grey":
                    report.add("WARNING", nxt,
                               "behavioral model contains a cycle through "
                               f"'{nxt}'", "Cycle")
                elif nxt not in color:
                    color[nxt] = "grey"
                    stack.append((nxt, iter(successors.get(nxt, ()))))
                    break
            else:
                color[node] = "black"
                stack.pop()


def _check_reachability(behavior, report):
    successors = behavior.successors
    reached = set(behavior.entry_events())
    stack = list(reached)
    while stack:
        for nxt in successors.get(stack.pop(), ()):
            if nxt not in reached:
                reached.add(nxt)
                stack.append(nxt)
    for event in behavior.events:
        if event.id not in reached:
            report.add("WARNING", event.id,
                       "event unreachable from entry events", "Unreachable")
