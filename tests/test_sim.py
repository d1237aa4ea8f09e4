import functools
import heapq
import json
import random
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from tmkit import dsl, errors, sim
from tmkit import expr as ex
from tmkit import model as md
from tmkit._json import scalar
from tmkit.events import (BehaviorEdge, EventRegion, build_behavior,
                          eventize, region_edges)
from tmkit.expr import UNSET, Binary, Lit, PathRef, Unary, chain

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402


BOB = {"Human.name": "Bob", "Human.weight": 150, "Human.gender": "male"}
SUE = {"Human.name": "Sue", "Human.weight": 110, "Human.gender": "female"}


def bank_fills(account, transaction, balance):
    selector = ("BankAccount.SavingsAccount" if account == "savings"
                else "BankAccount.CheckingAccount")
    return {"BankAccount": account, selector: transaction,
            "BankAccount.balance": balance}


# -- init_world --

def test_init_world_bob(human):
    static, _, _ = human
    world = sim.init_world(static, BOB)
    assert world.stores["Human.name"] == "Bob"
    assert world.stores["Human.weight"] == 150
    assert world.stores["Human.gender"] == "male"


def test_init_world_sue(human):
    static, _, _ = human
    world = sim.init_world(static, SUE)
    assert world.stores["Human.weight"] == 110


def test_init_world_empty_template(human):
    static, _, _ = human
    world = sim.init_world(static)
    assert set(world.stores) == {"Human", "Human.name", "Human.weight",
                                "Human.gender"}
    assert all(v is UNSET for v in world.stores.values())


def test_init_world_unstored_fill_rejected(human):
    static, _, _ = human
    with pytest.raises(errors.FillPathUnstored):
        sim.init_world(static, {"Human.eat": 1})


def test_init_world_type_mismatch(human):
    static, _, _ = human
    with pytest.raises(errors.TypeMismatch):
        sim.init_world(static, {"Human.weight": "heavy"})


def test_a_typed_store_takes_only_values_of_its_type():
    static, _, _ = dsl.parse("thimac A { store = 0; }")
    world = sim.init_world(static, {"A": 1})
    with pytest.raises(errors.TypeMismatch) as exc:
        sim._write_store(world, "A", "x")
    assert str(exc.value) == "store 'A' holds number values, got text 'x'"
    assert world.stores == {"A": 1}


def test_an_untyped_store_keeps_the_type_of_its_first_value():
    static, _, _ = dsl.parse("thimac A { store; }")
    world = sim.init_world(static, {"A": True})
    assert sim._write_store(world, "A", False) == \
        sim.StoreDelta("A", True, False)
    with pytest.raises(errors.TypeMismatch) as exc:
        sim._write_store(world, "A", 1)
    assert str(exc.value) == "store 'A' was boolean, got number"
    assert world.stores == {"A": False}


@pytest.mark.parametrize("value", [
    10 ** 400, -10 ** 400, float("inf"), float("nan"), [1], {"a": 1},
    # more digits than str() writes, so pytest cannot name it
    pytest.param(10 ** 5000, id="10**5000")])
def test_a_store_holds_no_value_out_of_range_or_of_no_value_type(value):
    static, _, _ = dsl.parse("thimac A { store = 0; }")
    with pytest.raises(errors.TypeMismatch, match="store 'A' holds a number"):
        sim.init_world(static, {"A": value})
    world = sim.init_world(static)
    with pytest.raises(errors.TypeMismatch):
        sim._write_store(world, "A", value)
    assert world.stores == {"A": UNSET}


# -- guards --

def _guard_world(value):
    static, _, _ = dsl.parse("thimac SavingsBalance { store = 0; }")
    world = sim.init_world(static)
    if value is not None:
        world.stores["SavingsBalance"] = value
    return world


def test_guard_negative_balance_true():
    guard = Binary("<", PathRef("SavingsBalance"), Lit(0))
    assert ex.evaluate(guard, _guard_world(-50).stores) is True


def test_guard_positive_balance_false():
    guard = Binary("<", PathRef("SavingsBalance"), Lit(0))
    assert ex.evaluate(guard, _guard_world(150).stores) is False


def test_guard_unset_store_raises():
    guard = Binary("<", PathRef("SavingsBalance"), Lit(0))
    with pytest.raises(errors.GuardEvalError):
        ex.evaluate(guard, _guard_world(None).stores)


# -- simulate: fixtures --

def test_beef_order_fires_all_eight(beef):
    static, _, behavior = beef
    world = sim.init_world(static)
    trace = sim.simulate(static, behavior, world, {"E1": "main dish"})
    assert trace.fired_events() == ["E1", "E2", "E3", "E4", "E5", "E6",
                                   "E7", "E8"]
    assert trace.outcome == "Completed"


def test_beef_without_order_is_stuck(beef):
    static, _, behavior = beef
    trace = sim.simulate(static, behavior, sim.init_world(static), {})
    assert trace.outcome == "Stuck"
    assert trace.entries == ()


def test_beef_step_budget(beef):
    static, _, behavior = beef
    trace = sim.simulate(static, behavior, sim.init_world(static),
                         {"E1": "x"}, max_steps=1)
    assert trace.outcome == "StepBudgetExhausted"
    assert trace.fired_events() == ["E1"]


def test_bank_withdrawal_insufficient(bank):
    static, _, behavior = bank
    world = sim.init_world(static, bank_fills("savings", "withdrawal", 100))
    trace = sim.simulate(static, behavior, world, {"E9": 150})
    assert "E21" in trace.fired_events()
    assert "E23" not in trace.fired_events()
    assert world.stores["BankAccount.balance"] == 100
    assert trace.outcome == "Completed"


def test_bank_withdrawal_sufficient(bank):
    static, _, behavior = bank
    world = sim.init_world(static, bank_fills("savings", "withdrawal", 100))
    trace = sim.simulate(static, behavior, world, {"E9": 40})
    assert "E23" in trace.fired_events()
    assert "E21" not in trace.fired_events()
    assert world.stores["BankAccount.balance"] == 60


def test_bank_deposit(bank):
    static, _, behavior = bank
    world = sim.init_world(static, bank_fills("savings", "deposit", 100))
    trace = sim.simulate(static, behavior, world, {"E9": 50})
    assert "E17" in trace.fired_events()
    assert world.stores["BankAccount.balance"] == 150


def test_bank_checking_branch(bank):
    static, _, behavior = bank
    world = sim.init_world(static, bank_fills("checking", "deposit", 10))
    trace = sim.simulate(static, behavior, world, {"E9": 5})
    fired = trace.fired_events()
    assert "E16" in fired
    assert "E17" not in fired
    assert world.stores["BankAccount.balance"] == 15


def test_bank_missing_amount_input(bank):
    static, _, behavior = bank
    world = sim.init_world(static, bank_fills("savings", "deposit", 100))
    with pytest.raises(errors.MissingInput):
        sim.simulate(static, behavior, world, {})


def test_human_eat_increases_weight(human):
    static, _, behavior = human
    world = sim.init_world(static, dict(BOB))
    trace = sim.simulate(static, behavior, world, {"Eat": "snack"})
    assert trace.fired_events() == ["Eat"]
    assert world.stores["Human.weight"] > 150


def test_human_not_fired_keeps_weight(human):
    static, _, behavior = human
    world = sim.init_world(static, dict(SUE))
    trace = sim.simulate(static, behavior, world, {})
    assert trace.outcome == "Stuck"
    assert world.stores["Human.weight"] == 110


# -- loops and tokens --

LOOP = """
thimac C { store = 0; create; process = C := C + 1; release; }
thimac K { process; release; }
flow C.create -> C.process;
flow C.process -> C.release;
trigger C.release --> K.process;
trigger K.release --> C.process;
event S covers { C.create };
event A covers { C.process, C.release, K.process };
event B covers { K.process, K.release, C.process };
event D covers { C.release };
behavior {
    S -> A;
    A -> B guard C < 3;
    A -> D guard C >= 3;
}
repeatable A, B;
"""


def test_triggered_repeatable_events_fire_again():
    # A's trigger reaches B and B's reaches A; a trigger an event reaches
    # from its own firing does not make it fire again
    static, _, behavior = dsl.parse(LOOP)
    world = sim.init_world(static, {"C": 0})
    trace = sim.simulate(static, behavior, world)
    assert trace.fired_events() == ["S", "A", "B", "A", "D"]
    assert trace.outcome == "Completed"
    assert world.stores["C"] == 3


def test_a_trigger_does_not_refire_an_event_that_is_not_repeatable():
    # B's trigger reaches A and A's reaches B, but only A fires again
    source = (LOOP.replace("repeatable A, B;", "repeatable A;")
              .replace("C < 3", "C < 10").replace("C >= 3", "C >= 10"))
    static, _, behavior = dsl.parse(source)
    world = sim.init_world(static, {"C": 0})
    trace = sim.simulate(static, behavior, world)
    assert trace.fired_events() == ["S", "A", "B", "A"]
    assert trace.outcome == "Completed"
    assert world.stores["C"] == 3


def test_tokens_move_along_covered_flows_only():
    static, _, behavior = dsl.parse(
        "thimac T { create; process; release; }\n"
        "flow T.create -> T.process;\n"
        "flow T.process -> T.process;\n"
        "flow T.process -> T.release;\n"
        "event E covers { T.create, T.process };\n"
        "event F covers { T.process, T.release };\n"
        "behavior { E -> F; }\n")
    world = sim.init_world(static)
    sim.simulate(static, behavior, world, max_steps=1)
    # the self-loop flow T.process -> T.process leaves the token in place
    assert world.tokens == {"T.process": 1}
    world = sim.init_world(static)
    sim.simulate(static, behavior, world)
    assert world.tokens == {"T.release": 1}


def test_arithmetic_type_error_is_a_guard_eval_error():
    static, _, behavior = dsl.parse(
        'thimac A { store = 1; create; process = A := A + "x"; }\n'
        "flow A.create -> A.process;\n"
        "event E covers { A.create, A.process };\n"
        "event F covers { A.create };\n"
        "behavior { E -> F; }\n")
    world = sim.init_world(static, {"A": 1})
    with pytest.raises(errors.GuardEvalError, match="cannot compute 1 \\+ 'x'"):
        sim.simulate(static, behavior, world)


def test_a_run_builds_regions_only_for_the_events_it_plans(monkeypatch):
    # a fanout run fires one root-to-leaf path of the tree and plans only
    # the events along it and their siblings, 9 of 31
    wl = gen.build("fanout", 1, 4)
    static, _, behavior = dsl.parse(wl.source)
    regions, planned, builds = [], [], []

    def counted_region(model, covers):
        regions.append(covers)
        return region_edges(model, covers)

    def counted_steps(actions, event, edges):
        planned.append(event.id)
        return build_steps(actions, event, edges)

    def edges_from(model):
        builds.append(model)
        return index.func(model)

    build_steps, index = sim._steps, md.StaticModel.edges_from
    counted_index = functools.cached_property(edges_from)
    counted_index.__set_name__(md.StaticModel, "edges_from")
    monkeypatch.setattr(md.StaticModel, "edges_from", counted_index)
    monkeypatch.setattr(sim, "region_edges", counted_region)
    monkeypatch.setattr(sim, "_steps", counted_steps)
    trace = sim.simulate(static, behavior, sim.init_world(static, wl.fills))
    monkeypatch.undo()
    assert len(behavior.events) == 31
    assert len(trace.entries) == 5
    assert len(planned) == len(set(planned)) == 9
    assert set(trace.fired_events()) <= set(planned)
    assert sorted(map(sorted, regions)) == sorted(
        sorted(behavior.event(eid).covers) for eid in planned)
    assert builds == [static]


def test_simulate_rejects_a_budget_below_1(bank):
    static, _, behavior = bank
    with pytest.raises(ValueError, match="max_steps must be at least 1"):
        sim.simulate(static, behavior, sim.init_world(static), max_steps=0)


def test_a_wide_event_fires_in_time_linear_in_its_actions():
    owners = [f"T{i:05}" for i in range(30_000)]
    ids = [md.action_id(owner, "create") for owner in owners]
    static = md.build_model(
        [md.Thimac(owner) for owner in owners],
        [md.Action(owner, "create") for owner in owners], [], [])
    behavior = build_behavior([eventize(static, "E", "wide", ids)], [])
    world = sim.init_world(static)
    start = time.perf_counter()
    trace = sim.simulate(static, behavior, world)
    assert time.perf_counter() - start < 1
    assert trace.entries[0].actions_fired == tuple(ids)
    assert world.tokens == dict.fromkeys(ids, 1)


def _first_firing(source):
    static, _, behavior = dsl.parse(source)
    return sim.simulate(static, behavior, sim.init_world(static),
                        max_steps=1).entries[0].actions_fired


def test_actions_fire_in_the_smallest_topological_order():
    # a diamond from A.create to C.release, with M.create as an extra
    # root: B.process becomes ready after A.create and goes before M
    assert _first_firing(
        "thimac A { create; } thimac B { process; } thimac C { release; }\n"
        "thimac M { create; } thimac Y { process; }\n"
        "flow A.create -> B.process; flow A.create -> Y.process;\n"
        "flow B.process -> C.release; flow Y.process -> C.release;\n"
        "event E covers { Y.process, M.create, C.release, B.process,\n"
        "                 A.create };\n"
        "behavior { }\n") == (
        "A.create", "B.process", "M.create", "Y.process", "C.release")


def test_actions_whose_flows_close_a_cycle_fire_in_sorted_order():
    # B.create is ready, but the cycle through A leaves the order to the
    # fallback, which sorts all the covers
    assert _first_firing(
        "thimac A { create; process; } thimac B { create; }\n"
        "flow A.process -> A.create; flow A.create -> A.process;\n"
        "flow B.create -> A.process;\n"
        "event E covers { B.create, A.process, A.create };\n"
        "behavior { }\n") == ("A.create", "A.process", "B.create")


# -- golden traces --

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name, fixture, fills, inputs", [
    ("bank_savings_withdrawal_150", "bank",
     bank_fills("savings", "withdrawal", 100), {"E9": 150}),
    ("bank_savings_withdrawal_40", "bank",
     bank_fills("savings", "withdrawal", 100), {"E9": 40}),
    ("bank_savings_deposit_50", "bank",
     bank_fills("savings", "deposit", 100), {"E9": 50}),
    ("bank_checking_deposit_5", "bank",
     bank_fills("checking", "deposit", 10), {"E9": 5}),
    ("bank_checking_withdrawal_30", "bank",
     bank_fills("checking", "withdrawal", 10), {"E9": 30}),
    ("beef_order", "beef", {}, {"E1": "main dish"}),
    ("human_bob_eats", "human", BOB, {"Eat": "snack"}),
])
def test_trace_matches_golden(parsed_corpus, name, fixture, fills, inputs):
    static, _, behavior = parsed_corpus[fixture]
    world = sim.init_world(static, fills)
    trace = sim.simulate(static, behavior, world, inputs)
    assert trace.outcome == "Completed"
    assert sim.trace_to_text(trace) == \
        (GOLDEN / f"{name}.trace").read_text(encoding="utf-8")
    assert sim.trace_to_json(trace) == \
        (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


# -- invariants --

def _random_runs(parsed_corpus, n=120, seed=7):
    rng = random.Random(seed)
    runs = []
    for _ in range(n):
        kind = rng.choice(["bank", "beef", "human"])
        static, _, behavior = parsed_corpus[kind]
        if kind == "bank":
            fills = bank_fills(rng.choice(["savings", "checking"]),
                               rng.choice(["deposit", "withdrawal"]),
                               rng.randrange(0, 500))
            inputs = {"E9": rng.randrange(0, 500)}
        elif kind == "beef":
            fills, inputs = {}, {"E1": "order"}
        else:
            fills = dict(rng.choice([BOB, SUE]))
            inputs = {"Eat": "meal"} if rng.random() < 0.7 else {}
        runs.append((static, behavior, fills, inputs))
    return runs


def test_token_conservation(parsed_corpus):
    for static, behavior, fills, inputs in _random_runs(parsed_corpus):
        world = sim.init_world(static, fills)
        trace = sim.simulate(static, behavior, world, inputs)
        creates = sum(
            1 for entry in trace.entries for aid in entry.actions_fired
            if static.actions[aid].kind == "create")
        assert sum(world.tokens.values()) == creates


def test_chronology_respected(parsed_corpus):
    for static, behavior, fills, inputs in _random_runs(parsed_corpus,
                                                        n=60, seed=11):
        world = sim.init_world(static, fills)
        trace = sim.simulate(static, behavior, world, inputs)
        first = {}
        for entry in trace.entries:
            first.setdefault(entry.event, entry.step)
        for edge in behavior.edges:
            if edge.src in first and edge.dst in first:
                assert first[edge.src] <= first[edge.dst]


def test_guard_exclusivity_at_runtime(bank):
    static, _, behavior = bank
    for amount in (1, 99, 100, 101, 400):
        world = sim.init_world(static,
                               bank_fills("savings", "withdrawal", 100))
        trace = sim.simulate(static, behavior, world, {"E9": amount})
        fired = set(trace.fired_events())
        assert len(fired & {"E21", "E23"}) == 1
        assert not fired & {"E20", "E22"}


def test_steps_strictly_increase(parsed_corpus):
    for static, behavior, fills, inputs in _random_runs(parsed_corpus,
                                                        n=40, seed=3):
        world = sim.init_world(static, fills)
        trace = sim.simulate(static, behavior, world, inputs)
        steps = [entry.step for entry in trace.entries]
        assert steps == sorted(set(steps))


def test_determinism_byte_for_byte(bank):
    static, _, behavior = bank

    def run():
        world = sim.init_world(static,
                               bank_fills("savings", "withdrawal", 100))
        trace = sim.simulate(static, behavior, world, {"E9": 150})
        return sim.trace_to_text(trace), sim.trace_to_json(trace)

    assert run() == run()


# -- trace serialization --

def test_trace_text_format(human):
    static, _, behavior = human
    world = sim.init_world(static, dict(BOB))
    trace = sim.simulate(static, behavior, world, {"Eat": "snack"})
    line = sim.trace_to_text(trace).splitlines()[0]
    step, event, fired, deltas = line.split("\t")
    assert step == "1"
    assert event == "Eat"
    assert fired.startswith("fired:")
    assert "Human.weight=150" in deltas and "151" in deltas
    assert "→" in deltas


def test_trace_json_format(human):
    static, _, behavior = human
    world = sim.init_world(static, dict(BOB))
    trace = sim.simulate(static, behavior, world, {"Eat": "snack"})
    entries = json.loads(sim.trace_to_json(trace))
    assert isinstance(entries, list)
    assert entries[0]["event"] == "Eat"
    assert {"path": "Human.weight", "old": 150, "new": 151} \
        in entries[0]["deltas"]


_TOP = int(sys.float_info.max)
#: store values: text with quotes, backslashes, control characters and
#: non-ASCII letters, booleans, None, integers to the edge of the float
#: range and finite floats, the exponent forms among them
_STORE_VALUES = st.one_of(
    st.text(), st.text(alphabet='"\\\x00\x1f\x7f\n\té€😀\u2028'),
    st.booleans(), st.none(), st.integers(-_TOP, _TOP),
    st.sampled_from([1e-05, 1e+16, -0.0, 0.1, 1e300, -2.5e-300, 5e-324,
                     _TOP, -_TOP, sys.float_info.max]),
    st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=500, deadline=None)
@given(_STORE_VALUES)
def test_a_store_value_is_written_as_json_dumps_writes_it(value):
    assert scalar(value, "unset") == json.dumps(value)
    assert scalar(ex.UNSET, "unset") == "unset"


_NAMES = st.text(min_size=1, max_size=8)
_TRACES = st.builds(
    sim.Trace,
    st.lists(st.builds(
        sim.TraceEntry, st.integers(1, 10 ** 6), _NAMES,
        st.lists(_NAMES, max_size=4).map(tuple),
        st.lists(st.builds(
            sim.StoreDelta, _NAMES, st.one_of(_STORE_VALUES, st.just(UNSET)),
            _STORE_VALUES), max_size=3).map(tuple)),
        max_size=5).map(tuple),
    st.sampled_from(["Completed", "Stuck", "StepBudgetExhausted"]))


@settings(max_examples=300, deadline=None)
@given(_TRACES)
def test_trace_writers_match_json_dumps(trace):
    def plain(value):
        return None if value is UNSET else value

    assert sim.trace_to_json(trace) == json.dumps([{
        "step": e.step, "event": e.event, "fired": list(e.actions_fired),
        "deltas": [{"path": d.path, "old": plain(d.old), "new": plain(d.new)}
                   for d in e.deltas],
    } for e in trace.entries], indent=2) + "\n"

    def shown(value):
        return "unset" if value is UNSET else json.dumps(value)

    assert sim.trace_to_text(trace) == "".join(
        f"{e.step}\t{e.event}\tfired:{','.join(e.actions_fired)}\tdeltas:"
        + ";".join(f"{d.path}={shown(d.old)}→{shown(d.new)}"
                   for d in e.deltas) + "\n"
        for e in trace.entries)


def test_events_that_fire_the_same_actions_keep_their_own_names():
    # `trace_to_json` writes each distinct list of fired actions once; two
    # events that fire the same actions must still name their own entries
    static, _, behavior = dsl.parse(
        "thimac T { create; process; }\n"
        "flow T.create -> T.process;\n"
        "event A covers { T.create, T.process };\n"
        "event B covers { T.process, T.create };\n"
        "behavior { A -> B; }\n")
    trace = sim.simulate(static, behavior, sim.init_world(static))
    assert [e.actions_fired for e in trace.entries] == \
        [("T.create", "T.process")] * 2
    assert sim.trace_to_text(trace).splitlines() == [
        "1\tA\tfired:T.create,T.process\tdeltas:",
        "2\tB\tfired:T.create,T.process\tdeltas:"]
    assert [e["event"] for e in json.loads(sim.trace_to_json(trace))] == \
        ["A", "B"]


# -- work counted per run --

def _counted_run(monkeypatch, k):
    """(calls of `expr.compiled` from `sim`, `_steps` builds, calls of
    compiled guards, value types computed by a second `init_world`) of
    one run of the loop workload at size `k`."""
    wl = gen.build("loop", 1, k)
    static, _, behavior = dsl.parse(wl.source)
    assert "declared_types" not in vars(static)  # parsing does not type
    guards = {id(edge.guard) for edge in behavior.edges if edge.guard}
    counts = dict.fromkeys(["compiled", "plans", "guard calls", "types"], 0)

    def compiled(expr):
        counts["compiled"] += 1
        function = ex.compiled(expr)
        if id(expr) not in guards:
            return function

        def guard(stores):
            counts["guard calls"] += 1
            return function(stores)
        return guard

    def steps(*args):  # once per plan
        counts["plans"] += 1
        return build_steps(*args)

    def value_type_of(value):
        counts["types"] += 1
        return typed(value)

    build_steps, typed = sim._steps, md.value_type_of
    sim.init_world(static, wl.fills)
    monkeypatch.setattr(md, "value_type_of", value_type_of)
    world = sim.init_world(static, wl.fills)
    counts["types"] -= len(wl.fills)  # each fill is typed as it is written
    monkeypatch.setattr(md, "value_type_of", typed)
    monkeypatch.setattr(sim, "ex", SimpleNamespace(**{**vars(ex),
                                                      "compiled": compiled}))
    monkeypatch.setattr(sim, "_steps", steps)
    trace = sim.simulate(static, behavior, world)
    monkeypatch.undo()
    assert trace.outcome == "Completed"
    return counts


def test_a_run_compiles_and_plans_each_event_once(monkeypatch):
    small, large = (_counted_run(monkeypatch, k) for k in (50, 200))
    assert small["compiled"] == large["compiled"] > 0
    assert small["plans"] == large["plans"] == 13
    assert small["types"] == large["types"] == 0
    # the trace is about 4 times as long, and no step tests more guards
    assert 0 < large["guard calls"] <= 4.2 * small["guard calls"]


# -- the simulator before per-event plans, as an oracle --

def _oracle_init_world(static, fills=None):
    declared = static.stores
    world = sim.WorldState(
        dict.fromkeys(declared, ex.UNSET),
        {path: None if store.value is None else md.value_type_of(store.value)
         for path, store in declared.items()}, {})
    for path, value in (fills or {}).items():
        sim._write_store(world, path, value)
    return world


def _oracle_simulate(static, behavior, world, inputs=None,
                     max_steps=sim.DEFAULT_MAX_STEPS):
    """The simulator that per-event plans replaced, with `init_world`
    above: the oracle of the property below until the incremental
    simulator, which re-tests only what a step can change, replaces it
    with a copy of the simulator it changes. It finds covered flows and
    trigger reach by filtering every static edge, so it shares no code
    with `events`."""
    if max_steps < 1:
        raise ValueError(f"max_steps must be at least 1, got {max_steps}")
    inputs = inputs or {}
    for eid in inputs:
        if behavior.event(eid).input_path is None:
            raise errors.SimError(f"event '{eid}' declares no input")
    covered = {}
    for event in behavior.events:
        covers = event.covers
        covered[event.id] = (
            [e for e in static.flows if e.src in covers and e.dst in covers],
            {other.id for e in static.triggers
             if e.src in covers and e.dst in covers
             for other in behavior.events if e.dst in other.covers})
    successors, repeatable = behavior.successors, behavior.repeatable
    steps = {}
    gates = {}
    fired = set()
    triggered = set()
    candidates = set(behavior.entry_events())
    entries = []
    while True:
        event = _oracle_next_enabled(behavior, gates, candidates, fired,
                                     inputs, world)
        if event is None:
            terminals = behavior.terminal_events()
            outcome = "Completed" if fired & terminals else "Stuck"
            break
        if len(entries) >= max_steps:
            outcome = "StepBudgetExhausted"
            break
        eid = event.id
        flows, reach = covered[eid]
        if eid not in steps:
            steps[eid] = _oracle_steps(static.actions, event, flows)
        entries.append(_oracle_fire(event, steps[eid], len(entries) + 1,
                                    world, inputs))
        fired.add(eid)
        triggered |= reach & repeatable
        triggered.discard(eid)
        candidates.discard(eid)
        candidates.update(nxt for nxt in successors.get(eid, ())
                          if nxt not in fired or nxt in triggered)
        candidates |= reach & triggered & fired
    return sim.Trace(tuple(entries), outcome)


def _oracle_steps(actions, event, flows):
    preds = {}
    succs = {}
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


def _oracle_next_enabled(behavior, gates, candidates, fired, inputs, world):
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
                raise errors.MissingInput(
                    f"event '{eid}' needs an input payload")
        elif event.input_path is not None and eid not in inputs:
            continue
        return event
    return None


def _oracle_fire(event, plan, step, world, inputs):
    deltas = []
    if event.input_path is not None:
        deltas.append(sim._write_store(world, event.input_path,
                                       inputs[event.id]))
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
            deltas.append(sim._write_store(world, target, rule(world.stores)))
    return sim.TraceEntry(step, event.id, order, tuple(deltas))


#: mostly numbers, so that most runs get past their first writes
_VALUES = st.sampled_from([0, 1, 2, 3, -1, 0.5, "a", True])
_SAME_TYPE = {int: [0, 1, 2, -1, 0.5], str: ["a", "b"], bool: [True, False],
              type(None): [0, 1, "a", True]}
#: true one time in ten, and false for the examples hypothesis tries first
_ODD = st.integers(0, 9).map(lambda n: n == 9)


@st.composite
def _runs_to_compare(draw):
    """A static model in the style of `test_events.covered_models`, with
    flows, triggers and self-loops, stores of each type and update rules;
    events with random covers, one per trigger, and inputs; a chronology
    with guards, cycles and self-loops; fills, payloads and a budget. A
    path is mostly a store's, sometimes `Nope`, which no store has."""
    thimacs = [md.Thimac(f"T{i}", store=draw(st.sampled_from(
        [md.Store(0), md.Store(0), md.Store("a"), md.Store(True), md.Store(),
         None]))) for i in range(draw(st.integers(1, 3)))]
    stored = [t.name for t in thimacs if t.store is not None]
    paths = st.sampled_from(stored * 8 + ["Nope"])
    # a rule writes to a store, and an event's payload mostly goes to one
    targets = st.sampled_from(stored) if stored else st.nothing()
    leaf = st.builds(Binary, st.sampled_from([*ex._CMP, "^"]),
                     st.builds(PathRef, paths), st.builds(Lit, _VALUES))
    guard = st.one_of(
        leaf, leaf.map(lambda b: Binary(b.op, b.right, b.left)),
        st.builds(Unary, st.just("not"), leaf),
        st.builds(lambda a, op, b: chain(a, [(op, b)]), leaf,
                  st.sampled_from(["and", "or"]), leaf))
    rule = st.one_of(
        st.builds(Lit, _VALUES), st.builds(PathRef, paths),
        st.builds(lambda p, op, v: chain(PathRef(p), [(op, Lit(v))]),
                  paths, st.sampled_from(["+", "-"]), _VALUES))
    actions = [md.Action(t.name, kind, draw(st.one_of(
        st.none(), st.none(), st.tuples(targets, rule))))
        for t in thimacs for kind in draw(st.sets(
            st.sampled_from(md.KIND_ORDER), min_size=1))]
    ids = [a.id for a in actions]
    # any pair, a legal flow inside a thimac, or a self-loop
    legal = [(a.id, b.id) for a in actions for b in actions
             if a.owner == b.owner and (a.kind, b.kind) in md.LEGAL_INTRA]
    pairs = draw(st.lists(st.one_of(
        st.tuples(st.sampled_from(ids), st.sampled_from(ids)),
        st.sampled_from(legal) if legal else st.nothing(),
        st.sampled_from(ids).map(lambda aid: (aid, aid))),
        unique=True, max_size=12))
    kinds = draw(st.lists(st.booleans(), min_size=len(pairs),
                          max_size=len(pairs)))
    triggers = [md.TriggerEdge(*p) for p, trigger in zip(pairs, kinds)
                if trigger]
    # self-loops last, so that an action may hold tokens when it reads one
    flows = sorted((md.FlowEdge(*p) for p, trigger in zip(pairs, kinds)
                    if not trigger), key=lambda edge: edge.src == edge.dst)
    static = md.build_model(thimacs, actions, flows, triggers)
    covers = draw(st.lists(st.one_of(
        st.sets(st.sampled_from(ids), min_size=1), st.just(set(ids))),
        min_size=1, max_size=6))
    covers += [{edge.src, edge.dst} for edge in triggers]
    events = [EventRegion(f"E{i}", "", frozenset(c), draw(st.one_of(
        st.none(), st.none(), paths))) for i, c in enumerate(covers)]
    eids = [e.id for e in events]
    edges = draw(st.lists(st.builds(
        BehaviorEdge, st.sampled_from(eids), st.sampled_from(eids),
        st.one_of(st.none(), guard)), max_size=10))
    behavior = build_behavior(
        events, edges, draw(st.sets(st.sampled_from(eids))),
        draw(st.one_of(st.just(eids), st.sets(st.sampled_from(eids)))))
    # a fill of its store's type for most stores, a payload for most
    # events that take one; one in ten of each is any value, or is for
    # a path or event that takes none
    fills = {path: draw(_VALUES) if draw(_ODD) else draw(
        st.sampled_from(_SAME_TYPE[type(static.stores[path].value)]))
        for path in stored if not draw(_ODD)}
    if draw(_ODD):
        fills["Nope"] = 1
    inputs = {e.id: draw(_VALUES) for e in events
              if e.input_path is not None and not draw(_ODD)}
    if draw(_ODD):
        inputs[draw(st.sampled_from(eids))] = 1
    return static, behavior, fills, inputs, draw(st.sampled_from(
        [12, 1, 2, 3, 5, 8]))


def _run(init_world, simulate, case):
    """(entries, outcome, stores, tokens, declared types), or (type,
    message) of the error, of one run."""
    static, behavior, fills, inputs, max_steps = case
    try:
        world = init_world(static, fills)
        trace = simulate(static, behavior, world, inputs, max_steps)
    except Exception as exc:  # noqa: BLE001 -- any error must match
        return type(exc), str(exc)
    return (trace.entries, trace.outcome, world.stores, world.tokens,
            world.declared_types)


@settings(max_examples=300, deadline=None)
@given(_runs_to_compare())
def test_simulate_matches_the_simulator_before_plans(case):
    assert _run(sim.init_world, sim.simulate, case) == \
        _run(_oracle_init_world, _oracle_simulate, case)
