"""Execute a behavioral model over a static model and record a trace.

Firing rule. An event is enabled when it has not fired yet, or it is
repeatable and a trigger covered by a firing event has reached it since
it last fired, and when either

- some incoming behavior edge comes from a fired event and its guard
  (if any) holds against the current stores, or
- it has no incoming edge (an entry event).

An event that is enabled through an edge but has no input payload raises
MissingInput; an entry event without its payload simply never starts.
Among the enabled events the lexicographically smallest id fires, and
its covered actions execute in flow-topological order. Create is the
only operation that mints a thing-token; every other action moves the
tokens of its covered flow predecessors to itself, and a Process action
may rewrite a store by its update rule.

Cost. A run first builds a `_Plan` in one pass over the events' covers,
the static flows and triggers and the behavior edges; an event's firing
steps are built on its first firing and reused. The run then keeps a
candidate set: at the start it holds the entry events, and after an
event fires only its behavior successors and the events its triggers
reach can join. A run therefore costs O(model) once, plus per step the
size of the firing region and O(C log C) for the C candidates, which
are sorted and tested in id order; nothing rescans the whole model per
step.
"""

from __future__ import annotations

import json
import math

from . import expr as ex
from . import model as md
from ._record import record
from .errors import FillPathUnstored, MissingInput, TypeMismatch
from .events import (BehavioralModel, EventRegion, covered_edges,
                     covering_events)

DEFAULT_MAX_STEPS = 10_000


@record
class WorldState:
    stores: dict[str, object]  # path -> value or expr.UNSET
    declared_types: dict[str, str | None]
    #: thing-tokens per location (action id); locations with none are absent
    tokens: dict[str, int]


@record
class StoreDelta:
    path: str
    old: object
    new: object


@record
class TraceEntry:
    step: int
    event: str
    actions_fired: tuple[str, ...]
    deltas: tuple[StoreDelta, ...]


@record
class Trace:
    entries: tuple[TraceEntry, ...]
    outcome: str  # Completed | StepBudgetExhausted | Stuck

    def fired_events(self) -> list[str]:
        return [e.event for e in self.entries]


def init_world(static: md.StaticModel, fills=None) -> WorldState:
    """Two-stage instantiation: empty template first, then fill values."""
    stores = {}
    types = {}
    for path, thimac in static.iter_thimacs():
        if thimac.store is None:
            continue
        stores[path] = ex.UNSET
        declared = thimac.store.value
        types[path] = None if declared is None else md.value_type_of(declared)
    world = WorldState(stores, types, {})
    for path, value in (fills or {}).items():
        _write_store(world, path, value)
    return world


def _write_store(world: WorldState, path: str, value):
    if path not in world.stores:
        raise FillPathUnstored(f"no store at path '{path}'")
    if not (value is None or isinstance(value, (bool, str, int))
            or isinstance(value, float) and math.isfinite(value)):
        raise TypeMismatch(f"store '{path}' holds a finite number, text, "
                           f"a boolean or a reference, got {value!r}")
    new_type = md.value_type_of(value)
    declared = world.declared_types[path]
    if declared is not None and new_type != declared:
        raise TypeMismatch(
            f"store '{path}' holds {declared} values, got {new_type} "
            f"{value!r}")
    old = world.stores[path]
    if old is not ex.UNSET and md.value_type_of(old) != new_type:
        raise TypeMismatch(
            f"store '{path}' was {md.value_type_of(old)}, got {new_type}")
    world.stores[path] = value
    return old


class _Plan:
    """What the run loop needs from one (static, behavior) pair.

    Everything but the firing steps comes from the covered-edge index of
    `events.covered_edges` and one pass over the behavior edges; `steps`
    builds an event's firing steps on its first firing and caches them.
    """

    def __init__(self, static: md.StaticModel, behavior: BehavioralModel):
        self.actions = static.actions
        self.repeatable = behavior.repeatable
        self.event = behavior.event
        covering = covering_events(behavior.events)
        #: event id -> (its covered flows, its covered triggers)
        self.covered = covered_edges(static, behavior.events, covering)
        #: event id -> events covering the target of a covered trigger
        self.reach: dict[str, set[str]] = {
            eid: set().union(*(covering[edge.dst] for edge in triggers))
            for eid, (_, triggers) in self.covered.items() if triggers}
        self.incoming: dict[str, list] = {}
        self.successors: dict[str, list[str]] = {}
        for edge in behavior.edges:
            self.incoming.setdefault(edge.dst, []).append(edge)
            self.successors.setdefault(edge.src, []).append(edge.dst)
        self.entries = [event.id for event in behavior.events
                        if event.id not in self.incoming]
        self._steps: dict[str, tuple] = {}

    def steps(self, event: EventRegion):
        """(actions in firing order, firing steps) of one event; a step is
        (action id, is a Create, sorted flow predecessors, update rule)."""
        cached = self._steps.get(event.id)
        if cached is None:
            flows = self.covered[event.id][0]
            preds: dict[str, list[str]] = {}
            for edge in flows:
                preds.setdefault(edge.dst, []).append(edge.src)
            order = tuple(_topo_order(event.covers, flows))
            actions = self.actions
            steps = tuple(
                (aid, actions[aid].kind is md.ActionKind.CREATE,
                 tuple(sorted(preds.get(aid, ()))), actions[aid].update)
                for aid in order)
            cached = self._steps[event.id] = (order, steps)
        return cached


def simulate(static: md.StaticModel, behavior: BehavioralModel,
             world: WorldState, inputs=None,
             max_steps: int = DEFAULT_MAX_STEPS) -> Trace:
    """Fire enabled events until quiescence or budget exhaustion."""
    if max_steps < 1:
        raise ValueError(f"max_steps must be at least 1, got {max_steps}")
    inputs = inputs or {}
    plan = _Plan(static, behavior)
    fired: set[str] = set()
    triggered: set[str] = set()
    candidates = set(plan.entries)
    entries: list[TraceEntry] = []

    while True:
        event = _next_enabled(plan, candidates, fired, triggered, inputs,
                              world)
        if event is None:
            terminals = behavior.terminal_events()
            outcome = "Completed" if fired & terminals else "Stuck"
            break
        if len(entries) >= max_steps:
            outcome = "StepBudgetExhausted"
            break
        entries.append(_fire(plan, event, len(entries) + 1, world, inputs,
                             triggered))
        fired.add(event.id)
        triggered.discard(event.id)
        _update_candidates(plan, event.id, candidates, fired, triggered)
    return Trace(tuple(entries), outcome)


def _update_candidates(plan, eid, candidates, fired, triggered):
    """After `eid` fires, only it, its successors and the events its
    triggers reach can change whether they pass `_next_enabled`."""
    candidates.discard(eid)
    repeatable = plan.repeatable
    for nxt in plan.successors.get(eid, ()):
        if nxt not in fired or (nxt in repeatable and nxt in triggered):
            candidates.add(nxt)
    for other in plan.reach.get(eid, ()):
        if (other in fired and other in repeatable and other in triggered
                and (other not in plan.incoming
                     or any(edge.src in fired
                            for edge in plan.incoming[other]))):
            candidates.add(other)


def _next_enabled(plan, candidates, fired, triggered, inputs, world):
    for eid in sorted(candidates):
        if eid in fired and (eid not in plan.repeatable
                             or eid not in triggered):
            continue
        event = plan.event(eid)
        edges = plan.incoming.get(eid)
        if edges:
            satisfied = any(
                edge.src in fired and (
                    edge.guard is None
                    or ex.evaluate(edge.guard, world.stores))
                for edge in edges)
            if not satisfied:
                continue
            if event.input_path is not None and eid not in inputs:
                raise MissingInput(f"event '{eid}' needs an input payload")
        elif event.input_path is not None and eid not in inputs:
            continue  # an entry event without its payload never starts
        return event
    return None


def _fire(plan, event: EventRegion, step: int, world: WorldState, inputs,
          triggered) -> TraceEntry:
    deltas: list[StoreDelta] = []
    if event.input_path is not None:
        old = _write_store(world, event.input_path, inputs[event.id])
        deltas.append(StoreDelta(event.input_path, old,
                                 world.stores[event.input_path]))

    order, steps = plan.steps(event)
    tokens = world.tokens
    for aid, create, preds, update in steps:
        if create:
            tokens[aid] = tokens.get(aid, 0) + 1
        else:
            for src in preds:
                if src != aid and src in tokens:
                    tokens[aid] = tokens.get(aid, 0) + tokens.pop(src)
        if update is not None:
            target, rule = update
            value = ex.evaluate(rule, world.stores)
            old = _write_store(world, target, value)
            deltas.append(StoreDelta(target, old, value))

    triggered.update(plan.reach.get(event.id, ()))
    return TraceEntry(step, event.id, order, tuple(deltas))


def _topo_order(covers, flows) -> list[str]:
    """Kahn's algorithm with lexicographic tie-break; falls back to plain
    sorted order if the covered subgraph is cyclic."""
    indegree = {aid: 0 for aid in covers}
    succs: dict[str, list[str]] = {}
    for edge in flows:
        indegree[edge.dst] += 1
        succs.setdefault(edge.src, []).append(edge.dst)
    ready = sorted(a for a, d in indegree.items() if d == 0)
    order = []
    while ready:
        aid = ready.pop(0)
        order.append(aid)
        for nxt in succs.get(aid, []):
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                ready.append(nxt)
        ready.sort()
    if len(order) != len(indegree):
        return sorted(covers)
    return order


# -- trace serialization --

def _value_repr(value) -> str:
    if value is ex.UNSET:
        return "unset"
    return json.dumps(value)


def trace_to_text(trace: Trace) -> str:
    lines = []
    for entry in trace.entries:
        deltas = ";".join(
            f"{d.path}={_value_repr(d.old)}→{_value_repr(d.new)}"
            for d in entry.deltas)
        lines.append(f"{entry.step}\t{entry.event}\t"
                     f"fired:{','.join(entry.actions_fired)}\t"
                     f"deltas:{deltas}")
    return "".join(line + "\n" for line in lines)


def trace_to_json(trace: Trace) -> str:
    def jsonable(value):
        return None if value is ex.UNSET else value

    entries = [{
        "step": e.step,
        "event": e.event,
        "fired": list(e.actions_fired),
        "deltas": [{"path": d.path, "old": jsonable(d.old),
                    "new": jsonable(d.new)} for d in e.deltas],
    } for e in trace.entries]
    return json.dumps(entries, indent=2) + "\n"
