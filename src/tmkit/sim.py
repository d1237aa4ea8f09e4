"""Execute a behavioral model over a static model and record a trace.

Firing rule. An event is enabled when it has not fired yet, or it is
repeatable and a trigger covered by a firing event has reached it since
it last fired, and when either

- some incoming behavior edge comes from a fired event and its guard
  (if any) holds against the current stores, or
- it has no incoming edge (an entry event).

An event that is enabled through an edge but has no input payload raises
MissingInput; an entry event without its payload simply never starts.
A payload for an unknown event, or for one without an input path, is
rejected before the first step.
Among the enabled events the lexicographically smallest id fires, and
its covered actions execute in flow-topological order. Create is the
only operation that mints a thing-token; every other action moves the
tokens of its covered flow predecessors to itself, and a Process action
may rewrite a store by its update rule.

Cost. A run reads the behavior graph's `incoming` and `successors`
indexes and maps each action to the repeatable events covering it. Each
event's plan, what a step reads of it, is built once per run, on its
first candidacy, from its region (`events.region_edges`): its gate
(incoming edges, guards compiled by `expr.compiled`), whether its
payload is missing, the repeatable events its triggers reach, and its
firing steps, rules compiled and idle actions dropped, in O(k log k +
f log f) for its k covered actions and f covered flows. The candidates
are the entry events, then only the behavior successors of a fired
event and the fired events its triggers reach. Per step a run costs the
O(C log C) sort of its C candidates, their gates' guard calls, the
firing event's steps and one trace entry.
"""

from __future__ import annotations

import heapq
from json.encoder import encode_basestring_ascii

from . import expr as ex
from . import model as md
from ._json import json_list, scalar
from ._record import record
from .errors import FillPathUnstored, MissingInput, SimError, TypeMismatch
from .events import BehavioralModel, EventRegion, region_edges

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
    world = WorldState(dict.fromkeys(static.stores, ex.UNSET),
                       dict(static.declared_types), {})
    for path, value in (fills or {}).items():
        _write_store(world, path, value)
    return world


def _write_store(world: WorldState, path: str, value) -> StoreDelta:
    if path not in world.stores:
        raise FillPathUnstored(f"no store at path '{path}'")
    new_type = md.value_type_of(value)
    if new_type is None:
        try:
            shown = repr(value)
        except ValueError:  # an int of more digits than repr writes (4300)
            shown = f"an integer of {value.bit_length()} bits"
        raise TypeMismatch(f"store '{path}' holds a number in float range, "
                           f"text, a boolean or a reference, got {shown}")
    declared = world.declared_types[path]
    old = world.stores[path]
    if declared is None:  # a typed store's old value passed the check below
        if old is not ex.UNSET and md.value_type_of(old) != new_type:
            raise TypeMismatch(f"store '{path}' was "
                               f"{md.value_type_of(old)}, got {new_type}")
    elif new_type != declared:
        raise TypeMismatch(
            f"store '{path}' holds {declared} values, got {new_type} "
            f"{value!r}")
    world.stores[path] = value
    return StoreDelta(path, old, value)


def simulate(static: md.StaticModel, behavior: BehavioralModel,
             world: WorldState, inputs=None,
             max_steps: int = DEFAULT_MAX_STEPS) -> Trace:
    """Fire enabled events until quiescence or budget exhaustion."""
    if max_steps < 1:
        raise ValueError(f"max_steps must be at least 1, got {max_steps}")
    inputs = inputs or {}
    for eid in inputs:
        if behavior.event(eid).input_path is None:
            raise SimError(f"event '{eid}' declares no input")
    repeaters: dict[str, set[str]] = {}  # action id -> repeatables on it
    for eid in behavior.repeatable:
        for aid in behavior.event(eid).covers:
            repeaters.setdefault(aid, set()).add(eid)
    plans: dict[str, tuple] = {}  # event id -> its plan (`_next_enabled`)
    fired: set[str] = set()
    #: repeatable events a trigger has reached since they last fired
    triggered: set[str] = set()
    #: eligible events (unfired, or in `triggered`) that a predecessor or
    #: a trigger may have enabled; an event leaves only by firing
    candidates = set(behavior.entry_events())
    entries: list[TraceEntry] = []
    stores, tokens = world.stores, world.tokens

    while True:
        plan = _next_enabled(plans, candidates, fired, stores, static,
                             behavior, repeaters, inputs)
        if plan is None:
            terminals = behavior.terminal_events()
            outcome = "Completed" if fired & terminals else "Stuck"
            break
        if len(entries) >= max_steps:
            outcome = "StepBudgetExhausted"
            break
        event, _, _, others, (order, steps) = plan
        eid = event.id
        deltas = [] if event.input_path is None else [
            _write_store(world, event.input_path, inputs[eid])]
        for aid, create, sources, update in steps:
            if create:
                tokens[aid] = tokens.get(aid, 0) + 1
            else:
                for src in sources:
                    if src in tokens:
                        tokens[aid] = tokens.get(aid, 0) + tokens.pop(src)
            if update is not None:
                target, rule = update
                deltas.append(_write_store(world, target, rule(stores)))
        entries.append(TraceEntry(len(entries) + 1, eid, order, tuple(deltas)))
        fired.add(eid)
        triggered |= others
        triggered.discard(eid)
        candidates.discard(eid)
        for nxt in behavior.successors.get(eid, ()):
            if nxt not in fired or nxt in triggered:
                candidates.add(nxt)
        # an unfired event that a trigger reaches joined the candidates
        # at the start, as an entry, or when a predecessor fired; as
        # `triggered` holds only repeatables, reach & triggered = others
        candidates |= others & fired
    return Trace(tuple(entries), outcome)


def _steps(actions, event: EventRegion, edges):
    """(actions in firing order, firing steps) of one event: (action id,
    is a Create, flow predecessors but itself, (target, compiled rule)
    or None) for each action but a non-Create with neither. The order is
    the smallest topological order of the covered flows (Kahn's, smallest
    ready action first), or the sorted covers on a cycle."""
    preds: dict[str, list[str]] = {}
    succs: dict[str, list[str]] = {}
    for edge in edges:
        if type(edge) is md.FlowEdge:  # a trigger moves nothing
            preds.setdefault(edge.dst, []).append(edge.src)
            succs.setdefault(edge.src, []).append(edge.dst)
    pending = {aid: len(srcs) for aid, srcs in preds.items()}
    ready = [aid for aid in event.covers if aid not in pending]
    heapq.heapify(ready)
    order = []
    while ready:
        aid = heapq.heappop(ready)
        order.append(aid)
        for nxt in succs.get(aid, ()):
            pending[nxt] -= 1
            if not pending[nxt]:
                heapq.heappush(ready, nxt)
    if len(order) != len(event.covers):  # a cycle, as each self-loop is
        order = sorted(event.covers)
        preds = {aid: [src for src in srcs if src != aid]  # moves nothing
                 for aid, srcs in preds.items()}
    return tuple(order), tuple(
        (aid, action.kind == "create", tuple(preds.get(aid, ())),
         action.update and (action.update[0], ex.compiled(action.update[1])))
        for aid in order if (action := actions[aid]).kind == "create"
        or preds.get(aid) or action.update is not None)


def _next_enabled(plans, candidates, fired, stores, static, behavior,
                  repeaters, inputs):
    """The plan of the enabled candidate of smallest id, or None. A plan
    holds what a step reads of an event, fixed for one run, and is built
    on the event's first candidacy: (the event, its incoming edges as
    (source, compiled guard or None), whether its payload is missing, the
    repeatable events but itself that its triggers reach, its `_steps`)."""
    for eid in sorted(candidates):
        if eid not in plans:
            event = behavior.event(eid)
            region = region_edges(static, event.covers)
            plans[eid] = (event, tuple(
                (edge.src, edge.guard and ex.compiled(edge.guard))
                for edge in behavior.incoming.get(eid, ())),
                event.input_path is not None and eid not in inputs,
                {other for edge in region if type(edge) is md.TriggerEdge
                 for other in repeaters.get(edge.dst, ())} - {eid},
                _steps(static.actions, event, region))
        _, edges, missing, _, _ = plan = plans[eid]
        if edges:
            for src, guard in edges:
                if src in fired and (guard is None or guard(stores)):
                    break
            else:
                continue
            if missing:
                raise MissingInput(f"event '{eid}' needs an input payload")
        elif missing:
            continue  # an entry event without its payload never starts
        return plan
    return None


# -- trace serialization --

def trace_to_text(trace: Trace) -> str:
    parts = []
    for e in trace.entries:
        parts.append(f"{e.step}\t{e.event}\tfired:"
                     f"{','.join(e.actions_fired)}\tdeltas:")
        for i, d in enumerate(e.deltas):
            parts.append(f"{';' if i else ''}{d.path}="
                         f"{scalar(d.old, 'unset')}→{scalar(d.new, 'unset')}")
        parts.append("\n")
    return "".join(parts)


def trace_to_json(trace: Trace) -> str:
    """`json.dumps(entries, indent=2)` of the entries, UNSET as null,
    written without `json`'s encoder, which is pure Python with indent."""
    fired_blocks: dict[tuple[str, ...], str] = {}  # one per event fired
    entries = []
    for e in trace.entries:
        if e.actions_fired not in fired_blocks:
            fired_blocks[e.actions_fired] = json_list(
                list(map(encode_basestring_ascii, e.actions_fired)), "    ")
        deltas = json_list([
            f'{{\n        "path": {encode_basestring_ascii(d.path)},\n'
            f'        "old": {scalar(d.old, "null")},\n'
            f'        "new": {scalar(d.new, "null")}\n      }}'
            for d in e.deltas], "    ")
        entries.append(
            f'{{\n    "step": {e.step!r},\n'
            f'    "event": {encode_basestring_ascii(e.event)},\n'
            f'    "fired": {fired_blocks[e.actions_fired]},\n'
            f'    "deltas": {deltas}\n  }}')
    return json_list(entries, "") + "\n"
