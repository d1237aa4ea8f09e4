"""Event regions and the behavioral model (chronology of events).

An event region is a subdiagram of the static model; the behavioral model
is a directed graph over regions whose edges mean precedence of first
firing, optionally guarded by store predicates.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from . import expr as ex
from .errors import (DuplicateEventId, EmptyCover, UnknownActionPath,
                     UnknownEvent)
from .model import StaticModel, ValidationReport


@dataclasses.dataclass(frozen=True)
class EventRegion:
    id: str
    label: str
    covers: frozenset[str]
    #: store path a firing payload is written to; None means no input needed
    input_path: Optional[str] = None


@dataclasses.dataclass(frozen=True)
class BehaviorEdge:
    src: str
    dst: str
    guard: Optional[ex.Expr] = None


@dataclasses.dataclass(frozen=True)
class BehavioralModel:
    events: tuple[EventRegion, ...]
    edges: tuple[BehaviorEdge, ...]
    terminals: frozenset[str] = frozenset()
    repeatable: frozenset[str] = frozenset()

    def event(self, event_id: str) -> EventRegion:
        for event in self.events:
            if event.id == event_id:
                return event
        raise UnknownEvent(f"unknown event '{event_id}'")

    def entry_events(self) -> list[str]:
        """Events with no incoming edges, in declaration order."""
        targets = {e.dst for e in self.edges}
        return [e.id for e in self.events if e.id not in targets]

    def sinks(self) -> list[str]:
        sources = {e.src for e in self.edges}
        return [e.id for e in self.events if e.id not in sources]

    def terminal_events(self) -> frozenset[str]:
        """Declared terminals, defaulting to the sink events."""
        return self.terminals or frozenset(self.sinks())


def eventize(model: StaticModel, event_id: str, label: str, cover_paths,
             input_path: Optional[str] = None) -> EventRegion:
    """Build a region from action paths; all paths must resolve."""
    paths = list(cover_paths)
    if not paths:
        raise EmptyCover(f"event '{event_id}' covers no actions")
    for path in paths:
        if path not in model.actions:
            raise UnknownActionPath(
                f"event '{event_id}' covers unknown action '{path}'")
    return EventRegion(event_id, label, frozenset(paths), input_path)


def region_edges(model: StaticModel, region: EventRegion):
    """Static flows and triggers with both endpoints covered."""
    flows = [e for e in model.flows
             if e.src in region.covers and e.dst in region.covers]
    triggers = [e for e in model.triggers
                if e.src in region.covers and e.dst in region.covers]
    return flows, triggers


def region_is_connected(model: StaticModel, region: EventRegion) -> bool:
    """Weak connectivity of the covered subgraph (triggers count)."""
    flows, triggers = region_edges(model, region)
    adjacency = {a: set() for a in region.covers}
    for edge in list(flows) + list(triggers):
        adjacency[edge.src].add(edge.dst)
        adjacency[edge.dst].add(edge.src)
    start = next(iter(region.covers))
    seen = {start}
    stack = [start]
    while stack:
        for other in adjacency[stack.pop()]:
            if other not in seen:
                seen.add(other)
                stack.append(other)
    return len(seen) == len(region.covers)


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
    for name in list(terminals) + list(repeatable):
        if name not in ids:
            raise UnknownEvent(f"declaration references unknown event "
                               f"'{name}'")
    return BehavioralModel(events, edges, frozenset(terminals),
                           frozenset(repeatable))


def check_behavior(behavior: BehavioralModel,
                   model: StaticModel) -> ValidationReport:
    """Report guard resolution errors plus cycle/reachability warnings."""
    report = ValidationReport()
    stores = model.store_paths()

    for event in behavior.events:
        if event.input_path is not None and event.input_path not in stores:
            report.add("ERROR", event.id,
                       f"input path '{event.input_path}' has no store",
                       "InputPathUnstored")
        if not region_is_connected(model, event):
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

    successors = {}
    for edge in behavior.edges:
        successors.setdefault(edge.src, []).append(edge.dst)
    _check_cycles(behavior, successors, report)
    _check_reachability(behavior, successors, report)
    return report


def _check_cycles(behavior, successors, report):
    """Depth-first search from each event in declaration order; an edge
    back to a node still on the stack closes a cycle."""
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


def _check_reachability(behavior, successors, report):
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
