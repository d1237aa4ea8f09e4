"""Seeded workload generators and the reference outputs they imply.

Every expected output of a `tm` command is derived here from the
generator's own description of the model, never by calling tmkit:

- `check`: exit code and diagnostic lines (isolated actions, region
  connectivity, guard paths, behavior cycles and reachability),
- `fmt`: the exact canonical text,
- `simulate`: the exit code (the outcome) and the exact text trace,
  from a small incidence-based reference simulator,
- `dot`: cluster, node and edge counts,
- `to-class`: the class, attribute and method names,
- `to-tm`: the exact canonical text of the scaffold that the class
  JSON expands to.

The seed changes names, declaration order, store fills and the selected
branch; it never changes the sizes of a workload.
"""

from __future__ import annotations

import dataclasses
import heapq
import json
import random

#: canonical action order inside a thimac
KINDS = ("create", "process", "release", "transfer", "receive")

#: sentinel for a thimac that declares no store (None means `store;`)
NO_STORE = object()

_WORDS = ("Bay", "Cog", "Dew", "Elm", "Fig", "Gum", "Hub", "Ink", "Jay",
          "Keg", "Lux", "Moa", "Nib", "Orb", "Pod", "Qat", "Rye", "Sox",
          "Tor", "Urn", "Vex", "Wok", "Yak", "Zed")

DEFAULT_MAX_STEPS = 10_000


@dataclasses.dataclass
class Thimac:
    name: str
    store: object = NO_STORE
    #: kind -> None, or an update (target path, rule); a rule is
    #: ("lit", value) or ("add", path, int)
    actions: dict = dataclasses.field(default_factory=dict)
    subs: list = dataclasses.field(default_factory=list)
    specializes: bool = False


@dataclasses.dataclass
class Event:
    id: str
    label: str
    covers: list
    #: print the incoming edge's guard on the event declaration instead
    guard_on_decl: bool = False


@dataclasses.dataclass
class Edge:
    src: str
    dst: str
    guard: object = None  # None or (path, op, literal)


@dataclasses.dataclass
class Model:
    thimacs: list
    flows: list = dataclasses.field(default_factory=list)
    triggers: list = dataclasses.field(default_factory=list)
    events: list = dataclasses.field(default_factory=list)
    edges: list = dataclasses.field(default_factory=list)
    terminals: list = dataclasses.field(default_factory=list)
    repeatable: list = dataclasses.field(default_factory=list)
    behavior: bool = False


@dataclasses.dataclass
class Workload:
    """Inputs of one workload instance and the expected `tm` outputs."""
    name: str
    size: int  # N of the scaling fit: chain events, loop K, fanout events
    source: str
    fills: dict
    class_json: str
    expect_check: tuple  # (exit code, stdout)
    expect_fmt: str
    expect_sim: tuple  # (exit code, stdout)
    expect_dot: dict
    expect_classes: list
    expect_to_tm: str
    counts: dict  # per-layer count metric -> value the program must report

    def world_args(self) -> list:
        args = []
        for path, value in self.fills.items():
            raw = value if isinstance(value, str) else json.dumps(value)
            args += ["--world", f"{path}={raw}"]
        return args


# -- text rendering --

def lit_text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'
    return repr(value)


def rule_text(rule) -> str:
    if rule[0] == "lit":
        return lit_text(rule[1])
    return f"{rule[1]} + {rule[2]}"


def guard_text(guard) -> str:
    path, op, value = guard
    return f"{path} {op} {lit_text(value)}"


def _store_line(store) -> str:
    return "store;" if store is None else f"store = {lit_text(store)};"


def _action_line(kind, update) -> str:
    if update is None:
        return f"{kind};"
    return f"{kind} = {update[0]} := {rule_text(update[1])};"


def _walk(thimacs, prefix=""):
    for t in thimacs:
        path = f"{prefix}.{t.name}" if prefix else t.name
        yield path, t
        yield from _walk(t.subs, path)


def canonical_text(model: Model) -> str:
    """The text `tmkit.dsl.print_text` emits for this model."""
    def thimac_lines(t, indent, path):
        head = f"{indent}thimac {t.name}" + (" specializes" if t.specializes
                                              else "")
        lines = [head + " {"]
        inner = indent + "    "
        if t.store is not NO_STORE:
            lines.append(inner + _store_line(t.store))
        for kind in KINDS:
            if kind in t.actions:
                lines.append(inner + _action_line(kind, t.actions[kind]))
        for sub in t.subs:
            lines += thimac_lines(sub, inner, f"{path}.{sub.name}")
        lines.append(indent + "}")
        return lines

    blocks = ["\n".join(thimac_lines(t, "", t.name)) for t in model.thimacs]
    if model.flows:
        blocks.append("\n".join(f"flow {s} -> {d};"
                                for s, d in sorted(model.flows)))
    if model.triggers:
        blocks.append("\n".join(f"trigger {s} --> {d};"
                                for s, d in sorted(model.triggers)))
    if model.events:
        blocks.append("\n".join(_event_line(e, None) for e in model.events))
    if model.behavior:
        lines = ["behavior {"]
        for edge in model.edges:
            guard = "" if edge.guard is None else \
                f" guard {guard_text(edge.guard)}"
            lines.append(f"    {edge.src} -> {edge.dst}{guard};")
        lines.append("}")
        blocks.append("\n".join(lines))
        if model.terminals:
            blocks.append("terminal " + ", ".join(sorted(model.terminals))
                          + ";")
        if model.repeatable:
            blocks.append("repeatable " + ", ".join(sorted(model.repeatable))
                          + ";")
    return "\n\n".join(blocks) + "\n"


def _event_line(event, guard, covers=None) -> str:
    line = f"event {event.id}"
    if event.label != event.id:
        line += f" {lit_text(event.label)}"
    covers = sorted(event.covers) if covers is None else covers
    line += f" covers {{ {', '.join(covers)} }}"
    if guard is not None:
        line += f" guard {guard_text(guard)}"
    return line + ";"


def source_text(model: Model, rng: random.Random, header: str):
    """A non-canonical rendering of the model that parses to it.

    Actions are shuffled inside each thimac, flows and triggers are
    shuffled, covers are unsorted, and some guards sit on the event
    declaration. Returns the text and the action ids in the order the
    parser meets them.
    """
    action_order = []

    def thimac_lines(t, indent, path):
        head = f"{indent}thimac {t.name}" + (" specializes" if t.specializes
                                              else "")
        members = [(kind, t.actions[kind]) for kind in t.actions]
        rng.shuffle(members)
        lines = [head + " {"]
        inner = indent + "  "
        if t.store is not NO_STORE:
            members.insert(rng.randrange(len(members) + 1), ("store", None))
        for kind, update in members:
            if kind == "store":
                lines.append(inner + _store_line(t.store))
            else:
                lines.append(inner + _action_line(kind, update))
                action_order.append(f"{path}.{kind}")
        for sub in t.subs:
            lines += thimac_lines(sub, inner, f"{path}.{sub.name}")
        lines.append(indent + "}")
        return lines

    parts = [f"# {header}"]
    for t in model.thimacs:
        parts += thimac_lines(t, "", t.name)
    flows = list(model.flows)
    rng.shuffle(flows)
    parts += [f"flow {s} -> {d};" for s, d in flows]
    triggers = list(model.triggers)
    rng.shuffle(triggers)
    parts += [f"trigger {s} --> {d};" for s, d in triggers]
    incoming_guard = {e.dst: e.guard for e in model.edges}
    for event in model.events:
        covers = list(event.covers)
        rng.shuffle(covers)
        guard = incoming_guard[event.id] if event.guard_on_decl else None
        parts.append(_event_line(event, guard, covers))
    if model.behavior:
        on_decl = {e.id for e in model.events if e.guard_on_decl}
        parts.append("behavior {")
        for edge in model.edges:
            guard = "" if edge.guard is None or edge.dst in on_decl else \
                f" guard {guard_text(edge.guard)}"
            parts.append(f"  {edge.src} -> {edge.dst}{guard};")
        parts.append("}")
        if model.terminals:
            parts.append("terminal " + ", ".join(model.terminals) + ";")
        if model.repeatable:
            parts.append("repeatable " + ", ".join(model.repeatable) + ";")
    return "\n".join(parts) + "\n", action_order


# -- reference for `tm check` --

def check_reference(model: Model, action_order):
    """Exit code and stdout of `tm check`, in tmkit's diagnostic order."""
    lines = []
    touched = {a for edge in model.flows + model.triggers for a in edge}
    lines += [f"WARNING\t{aid}\taction participates in no flow or trigger"
              for aid in action_order if aid not in touched]
    errors = False
    if model.behavior:
        stores = {p for p, t in _walk(model.thimacs)
                  if t.store is not NO_STORE}
        incident = {}
        for edge in model.flows + model.triggers:
            for aid in edge:
                incident.setdefault(aid, []).append(edge)
        for event in model.events:
            if not _connected(incident, set(event.covers)):
                lines.append(f"WARNING\t{event.id}\tcovered subgraph is "
                             "disconnected")
        for edge in model.edges:
            if edge.guard is not None and edge.guard[0] not in stores:
                errors = True
                lines.append(f"ERROR\t{edge.src} -> {edge.dst}\tguard "
                             f"references storeless path '{edge.guard[0]}'")
        lines += _cycle_warnings(model)
        lines += _unreachable_warnings(model)
    return (1 if errors else 0), "".join(line + "\n" for line in lines)


def _connected(incident, covers) -> bool:
    """Weak connectivity of the covered subgraph; `incident` maps an
    action to the flows and triggers that touch it."""
    start = next(iter(covers))
    seen, stack = {start}, [start]
    while stack:
        for edge in incident.get(stack.pop(), ()):
            for other in edge:
                if other in covers and other not in seen:
                    seen.add(other)
                    stack.append(other)
    return len(seen) == len(covers)


def _successors(model):
    succ = {}
    for edge in model.edges:
        succ.setdefault(edge.src, []).append(edge.dst)
    return succ


def _cycle_warnings(model):
    """Depth-first search in declaration order, without recursion."""
    succ = _successors(model)
    color, out = {}, []
    for event in model.events:
        if event.id in color:
            continue
        color[event.id] = "grey"
        stack = [(event.id, iter(succ.get(event.id, ())))]
        while stack:
            node, it = stack[-1]
            for nxt in it:
                if color.get(nxt) == "grey":
                    out.append(f"WARNING\t{nxt}\tbehavioral model contains "
                               f"a cycle through '{nxt}'")
                elif nxt not in color:
                    color[nxt] = "grey"
                    stack.append((nxt, iter(succ.get(nxt, ()))))
                    break
            else:
                color[node] = "black"
                stack.pop()
    return out


def _unreachable_warnings(model):
    succ = _successors(model)
    targets = {e.dst for e in model.edges}
    reached = {e.id for e in model.events if e.id not in targets}
    stack = list(reached)
    while stack:
        for nxt in succ.get(stack.pop(), ()):
            if nxt not in reached:
                reached.add(nxt)
                stack.append(nxt)
    return [f"WARNING\t{e.id}\tevent unreachable from entry events"
            for e in model.events if e.id not in reached]


# -- reference simulator --

def _topo(covers, flows):
    """Kahn's order with the smallest ready action first."""
    indegree = {a: 0 for a in covers}
    succs = {}
    for src, dst in flows:
        indegree[dst] += 1
        succs.setdefault(src, []).append(dst)
    ready = [a for a, d in indegree.items() if d == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        aid = heapq.heappop(ready)
        order.append(aid)
        for nxt in succs.get(aid, ()):
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                heapq.heappush(ready, nxt)
    return order if len(order) == len(covers) else sorted(covers)


def _value_repr(value) -> str:
    return "unset" if value is None else json.dumps(value)


def simulate_reference(model: Model, fills, max_steps=DEFAULT_MAX_STEPS):
    """Exit code, trace text and created-token count of `tm simulate`.

    Fires the smallest enabled event id first. Only entry events,
    successors of fired events and re-triggered repeatable events can
    become enabled, so only those are examined.
    """
    updates = {f"{path}.{kind}": update
               for path, t in _walk(model.thimacs)
               for kind, update in t.actions.items() if update is not None}
    stores = {p: None for p, t in _walk(model.thimacs)
              if t.store is not NO_STORE}
    stores.update(fills)
    incoming, succ = {}, _successors(model)
    for edge in model.edges:
        incoming.setdefault(edge.dst, []).append(edge)
    covering = {}
    for event in model.events:
        for aid in event.covers:
            covering.setdefault(aid, []).append(event.id)
    flows_from, triggers_from = {}, {}
    for src, dst in model.flows:
        flows_from.setdefault(src, []).append((src, dst))
    for src, dst in model.triggers:
        triggers_from.setdefault(src, []).append(dst)
    plan = {}
    for event in model.events:
        covers = set(event.covers)
        flows = [f for a in covers for f in flows_from.get(a, ())
                 if f[1] in covers]
        wakes = {other for a in covers for d in triggers_from.get(a, ())
                 if d in covers for other in covering[d]}
        plan[event.id] = (_topo(covers, flows), wakes)
    repeatable = set(model.repeatable)
    terminals = set(model.terminals) or {
        e.id for e in model.events if e.id not in succ}

    def holds(guard):
        path, op, value = guard
        if op == "<":
            return stores[path] < value
        if op == ">=":
            return stores[path] >= value
        return stores[path] == value

    fired, triggered = set(), set()
    candidates = {e.id for e in model.events if e.id not in incoming}
    lines, created = [], 0
    while True:
        chosen = None
        for eid in sorted(candidates):
            if eid in fired and (eid not in repeatable or
                                 eid not in triggered):
                continue
            edges = incoming.get(eid)
            if edges and not any(e.src in fired and (
                    e.guard is None or holds(e.guard)) for e in edges):
                continue
            chosen = eid
            break
        if chosen is None:
            outcome = "Completed" if fired & terminals else "Stuck"
            break
        if len(lines) >= max_steps:
            outcome = "StepBudgetExhausted"
            break
        order, wakes = plan[chosen]
        deltas = []
        for aid in order:
            created += aid.endswith(".create")
            if aid in updates:
                target, rule = updates[aid]
                new = (rule[1] if rule[0] == "lit"
                       else stores[rule[1]] + rule[2])
                deltas.append(f"{target}={_value_repr(stores[target])}"
                              f"→{_value_repr(new)}")
                stores[target] = new
        lines.append(f"{len(lines) + 1}\t{chosen}\tfired:{','.join(order)}"
                     f"\tdeltas:{';'.join(deltas)}\n")
        triggered |= wakes
        fired.add(chosen)
        triggered.discard(chosen)
        candidates.update(succ.get(chosen, ()))
        candidates.update(triggered)
        if chosen not in repeatable:
            candidates.discard(chosen)
    return (0 if outcome == "Completed" else 1), "".join(lines), created


# -- reference for `tm dot`, `tm to-class` and `tm to-tm` --

def dot_counts(model: Model) -> dict:
    thimacs = [t for _, t in _walk(model.thimacs)]
    return {
        "clusters": len(thimacs),
        "actions": sum(len(t.actions) for t in thimacs),
        "stores": sum(t.store is not NO_STORE for t in thimacs),
        "flows": len(model.flows),
        "triggers": len(model.triggers),
    }


def _value_type(store) -> str:
    if store is None:
        return "reference"
    if isinstance(store, bool):
        return "boolean"
    if isinstance(store, (int, float)):
        return "number"
    return "text"


def class_model(model: Model) -> list:
    """Classes as `tm to-class` writes them: root thimacs and their
    specializing subthimacs, depth first."""
    classes = []

    def classify(t, parent):
        attributes, methods, subclasses = [], [], []
        for sub in t.subs:
            if sub.specializes:
                subclasses.append(sub)
            elif sub.store is not NO_STORE:
                attributes.append({"name": sub.name,
                                   "type": _value_type(sub.store)})
            elif not sub.subs and sub.actions:
                methods.append({"name": sub.name, "params": [],
                                "returns": None})
            else:
                raise ValueError(f"generator made an unclassifiable "
                                 f"subthimac '{sub.name}'")
        classes.append({"name": t.name, "parent": parent,
                        "attributes": attributes, "methods": methods})
        for sub in subclasses:
            classify(sub, t.name)

    for t in model.thimacs:
        classify(t, None)
    return classes


_TYPE_DEFAULTS = {"number": 0, "text": "", "boolean": False,
                  "reference": None}

#: the get/set flow cycle of an expanded attribute
_ATTRIBUTE_FLOWS = (("transfer", "receive"), ("receive", "process"),
                    ("process", "create"), ("create", "release"),
                    ("release", "transfer"))


def scaffold(classes) -> Model:
    """The TM model `tm to-tm` expands a class list into."""
    children = {}
    for cls in classes:
        children.setdefault(cls["parent"], []).append(cls)
    flows = []

    def expand(cls, prefix):
        path = f"{prefix}.{cls['name']}" if prefix else cls["name"]
        subs = []
        for attr in cls["attributes"]:
            apath = f"{path}.{attr['name']}"
            subs.append(Thimac(attr["name"], _TYPE_DEFAULTS[attr["type"]],
                               dict.fromkeys(KINDS)))
            flows.extend((f"{apath}.{s}", f"{apath}.{d}")
                         for s, d in _ATTRIBUTE_FLOWS)
        subs += [Thimac(m["name"], actions={"process": None})
                 for m in cls["methods"]]
        subs += [expand(sub, path) for sub in children.get(cls["name"], [])]
        return Thimac(cls["name"], actions={"create": None}, subs=subs,
                      specializes=bool(prefix))

    roots = [expand(cls, "") for cls in children.get(None, [])]
    return Model(roots, flows)


# -- the three workloads --

def _names(rng, count, width, prefix=""):
    """`count` distinct names of equal length in random order."""
    word = rng.choice(_WORDS)
    numbers = rng.sample(range(10 ** width), count)
    return [f"{prefix}{word}{n:0{width}d}" for n in numbers]


def chain(rng: random.Random, n: int = 1600) -> tuple:
    """N thimacs, each Create -> Process (T := T + 1) -> Release ->
    Transfer, one event per thimac, events chained E0 -> E1 -> ..."""
    names = _names(rng, n, 4, "T")
    event_ids = _names(rng, n, 4, "E")
    thimacs, events, flows = [], [], []
    for name, eid in zip(names, event_ids):
        thimacs.append(Thimac(name, 0, {
            "create": None, "process": (name, ("add", name, 1)),
            "release": None, "transfer": None}))
        flows += [(f"{name}.create", f"{name}.process"),
                  (f"{name}.process", f"{name}.release"),
                  (f"{name}.release", f"{name}.transfer")]
        events.append(Event(eid, eid, [f"{name}.{k}" for k in
                                       ("create", "process", "release",
                                        "transfer")]))
    edges = [Edge(a.id, b.id) for a, b in zip(events, events[1:])]
    fills = {name: rng.randrange(100, 1000) for name in names}
    rng.shuffle(thimacs)
    rng.shuffle(edges)
    # Events stay in chain order: the seed's recursive cycle check then
    # always descends the whole chain, whatever the seed.
    return Model(thimacs, flows, [], events, edges, behavior=True), fills


def loop(rng: random.Random, k: int = 1000, counters: int = 4) -> tuple:
    """Counters whose repeatable events A_i and B_i trigger each other
    while C_i < start_i + K; D_i ends each counter, after one start S."""
    names = _names(rng, counters, 2, "C")
    ids = _names(rng, 3 * counters + 1, 3)
    thimacs = [Thimac("Start", actions={"create": None, "release": None})]
    flows = [("Start.create", "Start.release")]
    events = [Event(ids[0], ids[0], ["Start.create", "Start.release"])]
    triggers, edges, repeatable, terminals, fills = [], [], [], [], {}
    for i, c in enumerate(names):
        a_id, b_id, d_id = ids[1 + 3 * i: 4 + 3 * i]
        first = rng.randrange(100, 1000)
        fills[c] = first
        bound = (c, "<", first + k)
        thimacs.append(Thimac(c, 0, {"create": None, "process": None}, [
            Thimac("a", actions={"create": None, "receive": None,
                                 "process": (c, ("add", c, 1)),
                                 "release": None, "transfer": None}),
            Thimac("b", actions={"create": None, "receive": None,
                                 "process": None, "release": None,
                                 "transfer": None})]))
        a, b = f"{c}.a", f"{c}.b"
        flows += [(f"{c}.create", f"{c}.process"),
                  (f"{a}.create", f"{a}.process"),
                  (f"{a}.receive", f"{a}.process"),
                  (f"{a}.process", f"{a}.release"),
                  (f"{a}.release", f"{a}.transfer"),
                  (f"{b}.create", f"{b}.process"),
                  (f"{b}.receive", f"{b}.process"),
                  (f"{b}.process", f"{b}.release"),
                  (f"{b}.release", f"{b}.transfer")]
        triggers += [(f"{a}.transfer", f"{b}.receive"),
                     (f"{b}.transfer", f"{a}.receive")]
        events += [
            Event(a_id, "increment", [f"{a}.{x}" for x in
                                      ("create", "receive", "process",
                                       "release", "transfer")]
                  + [f"{b}.receive"]),
            Event(b_id, "acknowledge", [f"{b}.{x}" for x in
                                        ("create", "receive", "process",
                                         "release", "transfer")]
                  + [f"{a}.receive"]),
            Event(d_id, "done", [f"{c}.create", f"{c}.process"])]
        edges += [Edge(ids[0], a_id, bound), Edge(a_id, b_id),
                  Edge(b_id, a_id, bound),
                  Edge(b_id, d_id, (c, ">=", first + k))]
        repeatable += [a_id, b_id]
        terminals.append(d_id)
    for items in (thimacs, events, edges, repeatable, terminals):
        rng.shuffle(items)
    return Model(thimacs, flows, triggers, events, edges, terminals,
                 repeatable, behavior=True), fills


def fanout(rng: random.Random, depth: int = 9) -> tuple:
    """A complete binary tree of events; a guard on every edge reads a
    per-level selector store, so exactly one root-to-leaf path fires.
    Every event owns a thimac nested three deep with a stored, an
    action-only and a specializing subthimac."""
    count = 2 ** (depth + 1) - 1
    node_names = _names(rng, count, 4, "N")
    kind_names = _names(rng, count, 4, "K")
    event_ids = _names(rng, count, 4)
    sel = "Sel" + rng.choice(_WORDS)
    choices = [(0, 1) if level % 2 == 0 else ("west", "east")
               for level in range(depth)]
    fills = {f"{sel}.L{level}": rng.choice(choices[level])
             for level in range(depth)}
    thimacs = [Thimac(sel, subs=[
        Thimac(f"L{level}", 0 if level % 2 == 0 else "")
        for level in range(depth)])]
    audit = "Log" + rng.choice(_WORDS)
    thimacs.append(Thimac(audit, actions=dict.fromkeys(
        ("create", "process", "release"))))
    flows, triggers, events, edges = [], [], [], []
    for j in range(count):
        n, kind = node_names[j], kind_names[j]
        level = (j + 1).bit_length() - 1
        d, m, k = f"{n}.d", f"{n}.m", f"{n}.{kind}"
        thimacs.append(Thimac(n, "", {
            "create": None, "process": (n, ("lit", "seen"))}, [
            Thimac("d", 0, {"receive": None,
                            "process": (d, ("add", f"{sel}.L0", j % 7))},
                   [Thimac("x", None)]),
            Thimac("m", actions={"process": None}),
            Thimac(kind, actions={"receive": None}, specializes=True,
                   subs=[Thimac("i", 0)])]))
        flows += [(f"{n}.create", f"{n}.process"),
                  (f"{d}.receive", f"{d}.process")]
        triggers += [(f"{n}.process", f"{d}.receive"),
                     (f"{n}.process", f"{m}.process"),
                     (f"{n}.create", f"{k}.receive")]
        events.append(Event(
            event_ids[j], f"level {level} node",
            [f"{n}.create", f"{n}.process", f"{d}.receive", f"{d}.process",
             f"{m}.process", f"{k}.receive"],
            guard_on_decl=j > 0 and rng.random() < 0.5))
        if j > 0:
            parent_level = level - 1
            side = choices[parent_level][(j + 1) % 2]
            edges.append(Edge(event_ids[(j - 1) // 2], event_ids[j],
                              (f"{sel}.L{parent_level}", "=", side)))
    nodes = thimacs[2:]
    rng.shuffle(nodes)
    thimacs[2:] = nodes
    rng.shuffle(edges)
    return Model(thimacs, flows, triggers, events, edges,
                 behavior=True), fills


#: workload -> (generator, full-size parameter, quarter-size parameter)
GENERATORS = {"chain": (chain, 1600, 400), "loop": (loop, 1000, 250),
              "fanout": (fanout, 9, 7)}


def size_of(name: str, param: int) -> int:
    """The N of the scaling fit for a generator parameter."""
    return 2 ** (param + 1) - 1 if name == "fanout" else param


def build(name: str, seed: int, param=None) -> Workload:
    """Generate one workload instance; `param` defaults to full size."""
    generate, full, _ = GENERATORS[name]
    param = full if param is None else param
    rng = random.Random(f"{name}:{seed}:{param}")
    model, fills = generate(rng, param)
    source, action_order = source_text(model, rng, f"{name} workload")
    classes = class_model(model)
    class_json = json.dumps({"classes": classes}, indent=2,
                            sort_keys=True) + "\n"
    sim_exit, sim_out, created = simulate_reference(model, fills)
    return Workload(
        name=name, size=size_of(name, param), source=source, fills=fills,
        class_json=class_json,
        expect_check=check_reference(model, action_order),
        expect_fmt=canonical_text(model),
        expect_sim=(sim_exit, sim_out),
        expect_dot=dot_counts(model),
        expect_classes=classes,
        expect_to_tm=canonical_text(scaffold(classes)),
        counts={"model.actions": len(action_order),
                "model.flows": len(model.flows),
                "events.events": len(model.events),
                "events.edges": len(model.edges),
                "sim.steps": sim_out.count("\n"),
                "sim.tokens_minted": created})
