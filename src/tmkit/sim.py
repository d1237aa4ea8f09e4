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
indexes and builds one `events.covered_edges` index, which also gives
the events each event's triggers reach. Guards and update rules are
compiled once per run (`expr.compiled`): an event's gate, its incoming
edges with compiled guards, on its first candidacy, and its firing
steps with compiled rules on its first firing, in O(k log k + f log f)
for its k covered actions and f covered flows. The run keeps a set of
candidates: the entry events, then only the behavior successors of a
fired event and the fired events its triggers reach. A run costs
O(model) once, plus per step the firing region, O(C log C) for the C
candidates sorted by id and their gates' guard calls.
"""

from __future__ import annotations

import heapq
from json.encoder import encode_basestring_ascii

from . import expr as ex
from . import model as md
from ._json import json_list, scalar
from ._record import record
from .errors import FillPathUnstored, MissingInput, SimError, TypeMismatch
from .events import BehavioralModel, EventRegion, covered_edges

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
    declared = static.stores
    world = WorldState(
        dict.fromkeys(declared, ex.UNSET),
        {path: None if store.value is None else md.value_type_of(store.value)
         for path, store in declared.items()}, {})
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
    covered = covered_edges(static, behavior.events)
    successors, repeatable = behavior.successors, behavior.repeatable
    steps: dict[str, tuple] = {}
    gates: dict[str, tuple] = {}  # id -> (event, ((source, guard), ...))
    fired: set[str] = set()
    #: repeatable events a trigger has reached since they last fired
    triggered: set[str] = set()
    #: eligible events (unfired, or in `triggered`) that a predecessor or
    #: a trigger may have enabled; an event leaves only by firing
    candidates = set(behavior.entry_events())
    entries: list[TraceEntry] = []

    while True:
        event = _next_enabled(behavior, gates, candidates, fired, inputs,
                              world)
        if event is None:
            terminals = behavior.terminal_events()
            outcome = "Completed" if fired & terminals else "Stuck"
            break
        if len(entries) >= max_steps:
            outcome = "StepBudgetExhausted"
            break
        eid = event.id
        flows, _, reach = covered[eid]
        if eid not in steps:
            steps[eid] = _steps(static.actions, event, flows)
        entries.append(_fire(event, steps[eid], len(entries) + 1, world,
                             inputs))
        fired.add(eid)
        triggered |= reach & repeatable
        triggered.discard(eid)
        candidates.discard(eid)
        candidates.update(nxt for nxt in successors.get(eid, ())
                          if nxt not in fired or nxt in triggered)
        # an unfired event that a trigger reaches joined the candidates
        # at the start, as an entry, or when a predecessor fired
        candidates |= reach & triggered & fired
    return Trace(tuple(entries), outcome)


def _steps(actions, event: EventRegion, flows):
    """(actions in firing order, firing steps) of one event; a step is
    (action id, is a Create, flow predecessors, (target, compiled rule)
    or None). The order is the smallest topological order of the
    covered flows (Kahn's, smallest ready action first), or the sorted
    covers on a cycle."""
    preds: dict[str, list[str]] = {}
    succs: dict[str, list[str]] = {}
    for edge in flows:
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
    if len(order) != len(event.covers):
        order = sorted(event.covers)
    return tuple(order), tuple(
        (aid, actions[aid].kind == "create",
         tuple(preds.get(aid, ())),
         (update := actions[aid].update)
         and (update[0], ex.compiled(update[1])))
        for aid in order)


def _next_enabled(behavior, gates, candidates, fired, inputs, world):
    for eid in sorted(candidates):
        if eid not in gates:
            gates[eid] = behavior.event(eid), tuple(
                (edge.src, edge.guard and ex.compiled(edge.guard))
                for edge in behavior.incoming.get(eid, ()))
        event, edges = gates[eid]
        if edges:
            for src, guard in edges:
                if src in fired and (guard is None or guard(world.stores)):
                    break
            else:
                continue
            if event.input_path is not None and eid not in inputs:
                raise MissingInput(f"event '{eid}' needs an input payload")
        elif event.input_path is not None and eid not in inputs:
            continue  # an entry event without its payload never starts
        return event
    return None


def _fire(event: EventRegion, plan, step: int, world: WorldState,
          inputs) -> TraceEntry:
    deltas: list[StoreDelta] = []
    if event.input_path is not None:
        deltas.append(_write_store(world, event.input_path, inputs[event.id]))

    order, steps = plan
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
            deltas.append(_write_store(world, target, rule(world.stores)))
    return TraceEntry(step, event.id, order, tuple(deltas))


# -- trace serialization --

def trace_to_text(trace: Trace) -> str:
    return "".join(
        f"{e.step}\t{e.event}\tfired:{','.join(e.actions_fired)}\tdeltas:"
        + ";".join(f"{d.path}={scalar(d.old, 'unset')}→"
                   f"{scalar(d.new, 'unset')}" for d in e.deltas) + "\n"
        for e in trace.entries)


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
