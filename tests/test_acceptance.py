"""End-to-end acceptance checks.

Each test covers one acceptance criterion and prints a single PASS line
once its assertions hold. Run with `pytest -v tests/test_acceptance.py`
for the full report.
"""

import itertools
import random
import re
import time

from tmkit import corpus, dsl, sim, uml
from tmkit.dot import emit_dot
from tmkit.dsl import parse, print_text
from tmkit.model import (ActionKind, LEGAL_INTER, LEGAL_INTRA, VALUE_TYPES,
                         action_id, canonicalize, validate_static)
from tmkit.uml import AttributeDef, ClassDef, ClassModel, MethodDef


def _passed(label):
    print(f"PASS: {label}")


def test_acceptance_1_beef_fixture(parsed_corpus):
    started = time.perf_counter()
    static, _, behavior = parsed_corpus["beef"]
    assert validate_static(static).ok
    world = sim.init_world(static)
    trace = sim.simulate(static, behavior, world, {"E1": "steak order"})
    assert trace.fired_events() == [
        "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8"]
    assert trace.outcome == "Completed"
    assert time.perf_counter() - started < 1.0
    _passed("beef fixture validates and fires E1..E8 in under 1s")


def test_acceptance_2_bank_fixture(parsed_corpus):
    started = time.perf_counter()
    static, events, behavior = parsed_corpus["bank"]
    assert sorted(e.id for e in events) == \
        sorted(f"E{i}" for i in range(1, 24))
    fills = {"BankAccount": "savings",
             "BankAccount.SavingsAccount": "withdrawal",
             "BankAccount.balance": 100}
    world = sim.init_world(static, fills)
    trace = sim.simulate(static, behavior, world, {"E9": 150})
    assert "E21" in trace.fired_events()
    assert world.stores["BankAccount.balance"] == 100

    fills = {"BankAccount": "savings",
             "BankAccount.SavingsAccount": "deposit",
             "BankAccount.balance": 100}
    world = sim.init_world(static, fills)
    trace = sim.simulate(static, behavior, world, {"E9": 50})
    assert "E17" in trace.fired_events()
    assert world.stores["BankAccount.balance"] == 150
    assert time.perf_counter() - started < 1.0
    _passed("bank fixture has 23 events; withdrawal and deposit "
            "arithmetic checks out in under 1s")


def test_acceptance_3_bank_class_model(parsed_corpus):
    from importlib import resources
    static, _, _ = parsed_corpus["bank"]
    produced = uml.write_class_json(uml.tm_to_class(static))
    golden = (resources.files("tmkit") / "fixtures"
              / "bank_classes.json").read_text()
    assert produced == golden
    cm = uml.read_class_json(golden)
    assert [c.name for c in cm.classes] == [
        "BankAccount", "CheckingAccount", "SavingsAccount"]
    assert cm.class_named("CheckingAccount").parent == "BankAccount"
    assert cm.class_named("SavingsAccount").parent == "BankAccount"
    _passed("bank class extraction matches the golden JSON")


def _random_class_model(rng):
    n = rng.randint(1, 4)
    names = rng.sample(["Alpha", "Beta", "Gamma", "Delta", "Omega",
                        "Sigma", "Kappa", "Theta"], n)
    member_pool = ["aa", "bb", "cc", "dd", "ee", "ff", "gg", "hh",
                   "ii", "jj"]
    classes = []
    for i, name in enumerate(names):
        parent = None
        if i > 0 and rng.random() < 0.5:
            parent = classes[rng.randrange(i)].name
        members = rng.sample(member_pool, rng.randint(0, 10))
        split = rng.randint(0, min(5, len(members)))
        attrs = tuple(
            AttributeDef(m, rng.choice(VALUE_TYPES))
            for m in members[:split])
        methods = tuple(MethodDef(m) for m in members[split:split + 5])
        classes.append(ClassDef(name, attrs, methods, parent))
    # list parents before children, depth first
    by_parent = {}
    for cls in classes:
        by_parent.setdefault(cls.parent, []).append(cls)
    ordered = []

    def walk(parent):
        for cls in by_parent.get(parent, []):
            ordered.append(cls)
            walk(cls.name)

    walk(None)
    return ClassModel(tuple(ordered))


def test_acceptance_4_round_trip_500_models():
    rng = random.Random(20260824)
    for _ in range(500):
        cm = _random_class_model(rng)
        assert uml.tm_to_class(uml.class_to_tm(cm)) == cm
    _passed("500 random class models survive class->tm->class unchanged")


def test_acceptance_5_dsl_round_trip(parsed_corpus):
    for name in corpus.FIXTURES:
        static, events, behavior = parsed_corpus[name]
        text = print_text(static, events, behavior)
        static2, events2, behavior2 = parse(text)
        assert static2 == canonicalize(static)
        assert tuple(events2) == tuple(events)
        assert behavior2 == behavior
        assert print_text(static2, events2, behavior2) == text
    _passed("every corpus file parses back to its canonical form and "
            "fmt is idempotent")


def _pair_model(src_kind, dst_kind, same_thimac):
    lines = []
    if same_thimac:
        if src_kind == dst_kind:
            return None
        lines.append(f"thimac A {{ {src_kind.value}; {dst_kind.value}; }}")
        src = action_id("A", src_kind)
        dst = action_id("A", dst_kind)
    else:
        lines.append(f"thimac A {{ {src_kind.value}; }}")
        lines.append(f"thimac B {{ {dst_kind.value}; }}")
        src = action_id("A", src_kind)
        dst = action_id("B", dst_kind)
    lines.append(f"flow {src} -> {dst};")
    return "\n".join(lines)


def test_acceptance_6_invariants(parsed_corpus):
    # exhaustive stage-legality table, 5 x 5 kinds x intra/inter
    checked = 0
    for src_kind, dst_kind, same in itertools.product(
            ActionKind, ActionKind, (True, False)):
        text = _pair_model(src_kind, dst_kind, same)
        if text is None:
            continue
        static, _, _ = dsl.parse(text)
        legal_pairs = LEGAL_INTRA if same else LEGAL_INTER
        report = validate_static(static)
        stage_errors = [d for d in report.errors
                        if d.code == "IllegalStagePair"]
        if (src_kind, dst_kind) in legal_pairs:
            assert not stage_errors, (src_kind, dst_kind, same)
        else:
            assert stage_errors, (src_kind, dst_kind, same)
        checked += 1
    assert checked == 45

    # token conservation over random simulations
    rng = random.Random(99)
    runs = 0
    while runs < 120:
        kind = rng.choice(["bank", "beef", "human"])
        static, _, behavior = parsed_corpus[kind]
        if kind == "bank":
            account = rng.choice(["savings", "checking"])
            selector = ("BankAccount.SavingsAccount" if account == "savings"
                        else "BankAccount.CheckingAccount")
            fills = {"BankAccount": account,
                     selector: rng.choice(["deposit", "withdrawal"]),
                     "BankAccount.balance": rng.randrange(500)}
            inputs = {"E9": rng.randrange(500)}
        elif kind == "beef":
            fills, inputs = {}, {"E1": "order"}
        else:
            fills = {"Human.name": "Bob", "Human.weight": rng.randrange(300),
                     "Human.gender": "male"}
            inputs = {"Eat": "meal"}
        world = sim.init_world(static, fills)
        trace = sim.simulate(static, behavior, world, inputs)
        creates = sum(
            1 for entry in trace.entries for aid in entry.actions_fired
            if static.actions[aid].kind is ActionKind.CREATE)
        assert len(world.tokens) == creates

        # chronology: a successor never first-fires before its predecessor
        first = {}
        for entry in trace.entries:
            first.setdefault(entry.event, entry.step)
        for edge in behavior.edges:
            if edge.src in first and edge.dst in first:
                assert first[edge.src] <= first[edge.dst]

        # determinism, byte for byte
        world2 = sim.init_world(static, fills)
        trace2 = sim.simulate(static, behavior, world2, inputs)
        assert sim.trace_to_text(trace) == sim.trace_to_text(trace2)
        runs += 1
    _passed("legality table enforced exhaustively; token conservation, "
            "chronology and determinism hold over 120 random runs")


def test_acceptance_7_human_eat(parsed_corpus):
    static, _, behavior = parsed_corpus["human"]
    bob = sim.init_world(static, {"Human.name": "Bob", "Human.weight": 150,
                                  "Human.gender": "male"})
    trace = sim.simulate(static, behavior, bob, {"Eat": "lunch"})
    assert trace.fired_events() == ["Eat"]
    assert bob.stores["Human.weight"] > 150

    sue = sim.init_world(static, {"Human.name": "Sue", "Human.weight": 110,
                                  "Human.gender": "female"})
    trace = sim.simulate(static, behavior, sue, {})
    assert sue.stores["Human.weight"] == 110
    _passed("eating raises Bob's weight above 150; Sue's stays 110 "
            "when the event never fires")


_NODE = re.compile(r'^\s*"[^"]+" \[label=', re.M)
_EDGE = re.compile(r'^\s*"[^"]+" -> "[^"]+"', re.M)


def test_acceptance_8_renderer(parsed_corpus):
    for name in corpus.FIXTURES:
        static, _, _ = parsed_corpus[name]
        text = emit_dot(static)
        assert len(_NODE.findall(text)) == len(static.actions)
        assert len(_EDGE.findall(text)) == \
            len(static.flows) + len(static.triggers)
        assert text.count("[style=dashed]") == len(static.triggers)
    _passed("DOT output mirrors every model's actions, flows and "
            "dashed triggers exactly")
