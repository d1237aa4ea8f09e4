import json
import random
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tmkit import dsl, errors, sim
from tmkit import expr as ex
from tmkit import model as md
from tmkit.events import build_behavior, covered_edges, eventize
from tmkit.expr import UNSET, Binary, Lit, PathRef
from tmkit.model import ActionKind


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


def test_plan_builds_the_covering_map_once(monkeypatch, beef):
    static, _, behavior = beef
    calls = []

    def counted(model, events):
        calls.append(len(events))
        return covered_edges(model, events)

    monkeypatch.setattr(sim, "covered_edges", counted)
    sim.simulate(static, behavior, sim.init_world(static), {"E1": "order"})
    assert calls == [len(behavior.events)]


def test_simulate_rejects_a_budget_below_1(bank):
    static, _, behavior = bank
    with pytest.raises(ValueError, match="max_steps must be at least 1"):
        sim.simulate(static, behavior, sim.init_world(static), max_steps=0)


def test_a_wide_event_fires_in_time_linear_in_its_actions():
    owners = [f"T{i:05}" for i in range(30_000)]
    ids = [md.action_id(owner, ActionKind.CREATE) for owner in owners]
    static = md.build_model(
        [md.Thimac(owner) for owner in owners],
        [md.Action(owner, ActionKind.CREATE) for owner in owners], [], [])
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
            if static.actions[aid].kind is ActionKind.CREATE)
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
    assert sim._scalar(value, "unset") == json.dumps(value)
    assert sim._scalar(ex.UNSET, "unset") == "unset"


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
