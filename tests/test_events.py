from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from tmkit import dsl, errors
from tmkit import model as md
from tmkit.events import (BehaviorEdge, EventRegion, build_behavior,
                          check_behavior, eventize, region_edges)


def test_eventize_beef_fetch_region(beef):
    static, _, _ = beef
    region = eventize(
        static, "E4", "The cook fetches the meat",
        {"Refrigerator.Sirloin.release", "Refrigerator.Sirloin.transfer",
         "Cook.Sirloin.transfer", "Cook.Sirloin.receive"})
    assert region.covers == {
        "Refrigerator.Sirloin.release", "Refrigerator.Sirloin.transfer",
        "Cook.Sirloin.transfer", "Cook.Sirloin.receive"}
    edges = region_edges(static, region.covers)
    assert [type(edge) for edge in edges] == [md.FlowEdge] * 3


def test_eventize_maximal_region(beef):
    static, _, _ = beef
    region = eventize(static, "All", "everything", set(static.actions))
    assert Counter(region_edges(static, region.covers)) == \
        Counter(static.flows + static.triggers)


def test_eventize_refuses_an_id_that_is_no_tm_name(beef):
    static, _, _ = beef
    with pytest.raises(errors.ModelError) as exc:
        eventize(static, "E 1", "E 1", {"Cook.Sirloin.receive"})
    assert str(exc.value) == "event id 'E 1' is not a .tm name"


def test_eventize_unknown_path(beef):
    static, _, _ = beef
    with pytest.raises(errors.UnknownActionPath):
        eventize(static, "E", "bad", {"Cook.Pizza.create"})


def test_eventize_empty_cover(beef):
    static, _, _ = beef
    with pytest.raises(errors.EmptyCover):
        eventize(static, "E", "empty", set())


def test_region_edges_invent_nothing(parsed_corpus):
    for static, events, _ in parsed_corpus.values():
        known = {(e.src, e.dst) for e in static.flows}
        known |= {(e.src, e.dst) for e in static.triggers}
        for region in events:
            assert region.covers <= set(static.actions)
            for edge in region_edges(static, region.covers):
                assert (edge.src, edge.dst) in known
                assert edge.src in region.covers
                assert edge.dst in region.covers


def test_build_behavior_beef_chain(beef):
    static, events, _ = beef
    edges = [BehaviorEdge(f"E{i}", f"E{i + 1}") for i in range(1, 8)]
    behavior = build_behavior(events, edges)
    assert behavior.entry_events() == ["E1"]
    assert behavior.terminal_events() == {"E8"}


def test_build_behavior_bank_guards(bank):
    _, _, behavior = bank
    assert len(behavior.events) == 23
    guarded = {(e.src, e.dst) for e in behavior.edges if e.guard is not None}
    assert ("E18", "E20") in guarded
    assert ("E18", "E22") in guarded
    assert ("E19", "E21") in guarded
    assert ("E19", "E23") in guarded


def test_event_lookup(bank):
    _, events, behavior = bank
    assert [behavior.event(e.id) for e in events] == list(events)
    with pytest.raises(errors.UnknownEvent, match="unknown event 'E99'"):
        behavior.event("E99")


def test_build_behavior_rejects_unknown_event(beef):
    _, events, _ = beef
    with pytest.raises(errors.UnknownEvent):
        build_behavior(events, [BehaviorEdge("E1", "E99")])


def test_build_behavior_rejects_duplicate_ids(beef):
    _, events, _ = beef
    with pytest.raises(errors.DuplicateEventId):
        build_behavior(list(events) + [events[0]], [])


def test_build_behavior_does_not_mutate_events(beef):
    _, events, _ = beef
    snapshot = list(events)
    build_behavior(events, [])
    assert list(events) == snapshot


def test_check_behavior_clean_on_beef(beef):
    static, _, behavior = beef
    report = check_behavior(behavior, static)
    assert report.diagnostics == []


def test_check_behavior_self_loop_warns(beef):
    static, events, _ = beef
    behavior = build_behavior(events, [BehaviorEdge("E1", "E1")])
    report = check_behavior(behavior, static)
    assert any(d.code == "Cycle" for d in report.warnings)


def test_check_behavior_unreachable_warns(beef):
    static, events, _ = beef
    # a two-event cycle feeding itself has no entry point, so neither
    # member can ever be reached
    behavior = build_behavior(
        events, [BehaviorEdge("E2", "E3"), BehaviorEdge("E3", "E2")])
    report = check_behavior(behavior, static)
    assert any(d.code == "Unreachable" and d.location == "E2"
               for d in report.warnings)
    assert any(d.code == "Unreachable" and d.location == "E3"
               for d in report.warnings)


def test_guard_over_storeless_path_is_error():
    src = ("thimac Cook { thimac Mood { process; } }\n"
           "event E1 covers { Cook.Mood.process } guard Cook.Mood = \"ok\";\n"
           "event E2 covers { Cook.Mood.process };\n"
           "behavior { E2 -> E1; }\n")
    static, events, behavior = dsl.parse(src)
    report = check_behavior(behavior, static)
    assert any(d.code == "GuardPathUnstored" for d in report.errors)


def test_disconnected_region_warns():
    src = ("thimac A { create; process; } thimac B { create; }\n"
           "thimac C { create; process; }\n"
           "flow A.create -> A.process; flow C.create -> C.process;\n"
           "trigger A.process --> B.create;\n"
           "event Joined covers { A.create, A.process, B.create };\n"
           "event Split covers { A.create, A.process, C.create, C.process };\n"
           "behavior { Joined -> Split; }\n")
    static, events, behavior = dsl.parse(src)
    report = check_behavior(behavior, static)
    assert [(d.severity, d.location, d.code) for d in report.diagnostics] \
        == [("WARNING", "Split", "RegionDisconnected")]


@st.composite
def covered_models(draw):
    """A static model with random flows, triggers and self-loops, and
    events with random covers plus one covering each trigger's ends."""
    thimacs = [md.Thimac(f"T{i}") for i in range(draw(st.integers(1, 4)))]
    actions = [md.Action(t.name, kind) for t in thimacs
               for kind in draw(st.sets(st.sampled_from(md.KIND_ORDER),
                                        min_size=1))]
    ids = [a.id for a in actions]
    pairs = draw(st.lists(st.tuples(st.sampled_from(ids),
                                    st.sampled_from(ids)),
                          unique=True, max_size=20))
    kinds = draw(st.lists(st.booleans(), min_size=len(pairs),
                          max_size=len(pairs)))
    flows = [md.FlowEdge(*p) for p, trigger in zip(pairs, kinds)
             if not trigger]
    triggers = [md.TriggerEdge(*p) for p, trigger in zip(pairs, kinds)
                if trigger]
    static = md.build_model(thimacs, actions, flows, triggers)
    covers = draw(st.lists(st.sets(st.sampled_from(ids), min_size=1),
                           max_size=8))
    covers += [{edge.src, edge.dst} for edge in triggers]
    events = [EventRegion(f"E{i}", "", frozenset(c))
              for i, c in enumerate(covers)]
    return static, events


@settings(max_examples=300, deadline=None)
@given(covered_models())
def test_region_edges_is_the_per_event_filter(case):
    static, events = case
    edges = static.flows + static.triggers
    # each source's flows, then its triggers, in static order
    assert static.edges_from == {src: [e for e in edges if e.src == src]
                                 for src in {e.src for e in edges}}
    for event in events:
        covers = event.covers
        assert Counter(region_edges(static, covers)) == Counter(
            e for e in edges if e.src in covers and e.dst in covers)
