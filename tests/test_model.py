import itertools
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from tmkit import corpus, dsl, errors, expr as ex, model as md
from tmkit.model import (KIND_ORDER, Action, FlowEdge, StaticModel, Thimac,
                         TriggerEdge, build_model, canonicalize,
                         validate_static)


def _simple(actions_by_thimac, flows=(), triggers=()):
    """Build a flat model: {"A": [kinds]} plus edges as path strings."""
    thimacs = []
    actions = []
    for name, kinds in actions_by_thimac.items():
        actions += [Action(name, kind) for kind in kinds]
        thimacs.append(Thimac(name))
    return build_model(thimacs, actions,
                       [FlowEdge(*e) for e in flows],
                       [TriggerEdge(*e) for e in triggers])


def test_a_thimac_name_that_is_no_tm_name_is_refused():
    with pytest.raises(errors.ModelError, match="thimac name 'A B' is not"):
        build_model([Thimac("A B"), Thimac("A")],
                    [Action("A B", "create"), Action("A", "create")],
                    [FlowEdge("A B.create", "A.create")], [])


@pytest.mark.parametrize("name", ["A B", "A.b", "9x", ""])
def test_thimac_names_are_checked_at_every_depth(name):
    for thimacs in ([Thimac(name)], [Thimac("A", subthimacs=(Thimac(name),))]):
        with pytest.raises(errors.ModelError) as exc:
            build_model(thimacs, [], [], [])
        assert str(exc.value) == f"thimac name {name!r} is not a .tm name"


def test_empty_model():
    static = build_model([], [], [], [])
    assert static.thimacs == ()
    assert static.actions == {}
    assert validate_static(static).ok


def test_duplicate_action_id_rejected():
    action = Action("A", "create")
    with pytest.raises(errors.DuplicateId):
        build_model([Thimac("A")], [action, action], [], [])


def test_unresolvable_owner_rejected():
    with pytest.raises(errors.UnknownPath):
        build_model([Thimac("A")], [Action("B", "create")], [], [])


@pytest.mark.parametrize("kind", ["bogus", "Create", "PROCESS", ""])
def test_a_kind_that_is_no_keyword_is_rejected(kind):
    with pytest.raises(errors.ModelError,
                       match=f"action 'A.{kind}' has unknown kind '{kind}'"):
        build_model([Thimac("A")], [Action("A", kind)], [], [])


def test_duplicate_sibling_name_rejected():
    with pytest.raises(errors.DuplicateSiblingName):
        build_model([Thimac("A"), Thimac("A")], [], [], [])
    with pytest.raises(errors.DuplicateSiblingName):
        build_model(
            [Thimac("A", subthimacs=(Thimac("B"), Thimac("B")))], [], [], [])


@pytest.mark.parametrize("thimacs, path", [
    pytest.param([Thimac("A"), Thimac("B"), Thimac("A"), Thimac("B")], "A",
                 id="roots"),
    pytest.param([Thimac("A", subthimacs=(
        Thimac("B", subthimacs=(Thimac("C"), Thimac("D"), Thimac("C"))),
        Thimac("B"))), Thimac("E", subthimacs=(Thimac("F"), Thimac("F")))],
        "A.B.C", id="nested"),
    pytest.param([Thimac("A", subthimacs=(Thimac("B"),)),
                  Thimac("A", subthimacs=(Thimac("B"), Thimac("B")))], "A",
                 id="under-a-duplicate"),
    pytest.param([Thimac("A", subthimacs=(
        Thimac("B", subthimacs=(Thimac("C"),)),
        Thimac("B", subthimacs=(Thimac("C"), Thimac("C")))))], "A.B",
        id="nested-under-a-duplicate"),
])
def test_the_first_duplicate_sibling_in_preorder_is_reported(thimacs, path):
    with pytest.raises(errors.DuplicateSiblingName) as exc:
        build_model(thimacs, [], [], [])
    assert str(exc.value) == f"duplicate sibling thimac '{path}'"


def test_a_chain_of_thimacs_deeper_than_the_stack_is_walked_in_preorder():
    depth = 5000
    # a stored thimac at each level; every 1000th also holds a leaf `z`
    # after its link, which preorder reaches only after the chain below
    node = Thimac("a", store=md.Store(depth - 1))
    for level in reversed(range(depth - 1)):
        subs = (node,) + (Thimac("z", store=md.Store("z")),) * (
            level % 1000 == 0)
        node = Thimac("a", store=md.Store(level), subthimacs=subs)
    static = build_model([node], [], [], [])
    chain = ["a" + ".a" * level for level in range(depth)]
    leaves = [chain[level] + ".z" for level in range(depth - 1000, -1, -1000)]
    assert [path for path, _ in static.iter_thimacs()] == chain + leaves
    stores = static.stores
    assert list(stores) == chain + leaves
    assert [s.value for s in stores.values()] == [*range(depth)] + ["z"] * 5


def test_dangling_edge_rejected():
    with pytest.raises(errors.UnknownPath):
        _simple({"A": ["transfer"]}, flows=[("A.transfer", "A.receive")])


def test_duplicate_edge_rejected():
    with pytest.raises(errors.DuplicateEdge):
        _simple({"A": ["transfer", "receive"]},
                flows=[("A.transfer", "A.receive"),
                       ("A.transfer", "A.receive")])


def test_trigger_shadowing_flow_rejected():
    with pytest.raises(errors.TriggerShadowsFlow):
        _simple({"A": ["transfer", "receive"]},
                flows=[("A.transfer", "A.receive")],
                triggers=[("A.transfer", "A.receive")])


def test_beef_fixture_builds_and_validates(beef):
    static, _, _ = beef
    names = {t.name for _, t in static.iter_thimacs()}
    for name in ("Customer", "Order", "Cook", "Stove", "Refrigerator",
                 "Sirloin", "Grill"):
        assert name in names
    report = validate_static(static)
    assert report.ok
    assert not report.warnings


def test_receive_to_transfer_is_violation():
    static = _simple({"A": ["receive", "transfer"]},
                     flows=[("A.receive", "A.transfer")])
    report = validate_static(static)
    assert [d.code for d in report.errors] == ["IllegalStagePair"]


def test_every_storeless_update_path_is_an_error():
    static, _, _ = dsl.parse(
        "thimac A { store = 0; process = B := Z + C - A + Z; }\n"
        "thimac B { process = A := A + 1; }\n")
    report = validate_static(static)
    assert [(d.location, d.message, d.code) for d in report.errors] == [
        ("A.process", f"update rule {verb} storeless path '{path}'",
         "UpdatePathUnstored")
        for verb, path in (("writes", "B"), ("reads", "C"), ("reads", "Z"))]


# independently restated legality oracle (see the stage semantics: things
# enter via transfer/receive, leave via release/transfer, create/process
# stay interior; across thimacs only transfer meets transfer)
INTRA_LEGAL = {
    ("transfer", "receive"), ("receive", "process"), ("receive", "release"),
    ("process", "release"), ("process", "create"), ("create", "release"),
    ("create", "process"), ("release", "transfer"),
}
INTER_LEGAL = {("transfer", "transfer")}


def _kind_id(value):
    """A case's name as it was when kinds were enum members, so that the
    case names stay stable."""
    return f"ActionKind.{value.upper()}" if isinstance(value, str) else None


@pytest.mark.parametrize("src,dst,same", [
    (a, b, same)
    for a, b in itertools.product(KIND_ORDER, repeat=2)
    for same in (True, False)], ids=_kind_id)
def test_legality_table_exhaustive(src, dst, same):
    if same and src == dst:
        # one action per kind per thimac; the pair is unconstructible
        return
    if same:
        static = _simple({"A": [src, dst]},
                         flows=[(md.action_id("A", src),
                                 md.action_id("A", dst))])
        expected = (src, dst) in INTRA_LEGAL
    else:
        static = _simple({"A": [src], "B": [dst]},
                         flows=[(md.action_id("A", src),
                                 md.action_id("B", dst))])
        expected = (src, dst) in INTER_LEGAL
    report = validate_static(static)
    assert (not any(d.code == "IllegalStagePair" for d in report.errors)) \
        == expected


def test_isolated_action_warns():
    static = _simple({"A": ["create"]})
    report = validate_static(static)
    assert report.ok
    assert [d.code for d in report.warnings] == ["IsolatedAction"]


def test_triggers_are_unconstrained_by_stage():
    static = _simple({"A": ["create"], "B": ["process"]},
                     triggers=[("A.create", "B.process")])
    assert validate_static(static).ok


def test_canonicalize_idempotent(parsed_corpus):
    for static, _, _ in parsed_corpus.values():
        once = canonicalize(static)
        assert canonicalize(once) == once


def test_canonicalize_order_insensitive(beef):
    static, _, _ = beef
    shuffled = StaticModel(static.thimacs, static.actions,
                           tuple(reversed(static.flows)),
                           tuple(reversed(static.triggers)))
    assert canonicalize(shuffled) == canonicalize(static)


#: thimac names, keywords among them: a name is a name wherever it stands
_NAMES = st.sampled_from(["A", "b", "c2", "thimac", "store", "create",
                          "true", "not"])

#: store values, NaN, the infinities and integers past a float's range too
_STORES = st.one_of(st.none(), st.builds(md.Store, st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(), st.floats(),
    st.integers().map(lambda i: i * 10 ** 300))))


@st.composite
def library_models(draw):
    """The arguments a library caller builds a model from: nested thimacs,
    a random set of kinds per thimac, some process updates, and unique
    flows and triggers between the actions, the table in random order."""
    actions = []

    def thimacs(prefix, depth):
        subs = []
        for name in draw(st.lists(_NAMES, unique=True,
                                  max_size=3 if depth < 3 else 0)):
            path = prefix + name
            for kind in draw(st.lists(st.sampled_from(KIND_ORDER),
                                      unique=True)):
                update = None
                if kind == "process" and draw(st.booleans()):
                    update = (path, draw(st.sampled_from(
                        [ex.Lit(1), ex.PathRef(path)])))
                actions.append(Action(path, kind, update))
            subs.append(Thimac(name, draw(st.booleans()), draw(_STORES),
                               thimacs(path + ".", depth + 1)))
        return tuple(subs)

    roots = thimacs("", 0)
    pairs = []
    if actions:
        ids = [a.id for a in actions]
        pairs = draw(st.lists(st.tuples(st.sampled_from(ids),
                                        st.sampled_from(ids)),
                              unique=True, max_size=12))
    triggers = draw(st.lists(st.booleans(), min_size=len(pairs),
                             max_size=len(pairs)))
    return (
        roots, draw(st.permutations(actions)),
        [FlowEdge(*p) for p, trigger in zip(pairs, triggers) if not trigger],
        [TriggerEdge(*p) for p, trigger in zip(pairs, triggers) if trigger])


@settings(max_examples=200, deadline=None)
@given(library_models())
@example(([Thimac("A")], [Action("A", "process"), Action("A", "create")],
          [FlowEdge("A.create", "A.process")], []))
def test_every_built_model_prints_to_text_that_parses_back(parts):
    untyped = [store for store in StaticModel(parts[0], {}, (), ()).stores
               .values() if md.value_type_of(store.value) is None]
    try:
        static = build_model(*parts)
    except errors.ModelError as exc:  # no text writes such a store
        assert untyped and "has no value type" in str(exc)
        return
    assert not untyped
    unwritable = {path for action in static.actions.values()
                  if action.update is not None
                  for path in ex.paths_in(action.update[1])
                  if path.partition(".")[0] in ("true", "false")}
    if unwritable:  # no text reads such a path; `not.b` reads as a path
        # where a sum is read, as in an update rule
        with pytest.raises(errors.ModelError) as exc:
            dsl.print_text(static)
        assert str(exc.value).split("'")[1] in unwritable
        return
    text = dsl.print_text(static)
    assert dsl.parse(text)[0] == canonicalize(static)
    assert dsl.print_text(dsl.parse(text)[0]) == text


def test_build_model_fills_the_store_index_in_its_walk():
    for name in corpus.FIXTURES:
        static = dsl.parse(corpus.fixture_text(name))[0]
        walked = {path: t.store for path, t in static.iter_thimacs()
                  if t.store is not None}
        assert vars(static)["stores"] == walked
        assert list(vars(static)["stores"]) == list(walked)  # preorder
        assert canonicalize(static).stores == walked


def test_containment_is_a_tree(parsed_corpus):
    for static, _, _ in parsed_corpus.values():
        paths = [path for path, _ in static.iter_thimacs()]
        assert len(paths) == len(set(paths))


_TOP = int(sys.float_info.max)


@pytest.mark.parametrize("value, expected", [
    (None, "reference"), (True, "boolean"), (False, "boolean"),
    (0, "number"), (-2.5, "number"), (_TOP, "number"), (-_TOP, "number"),
    (sys.float_info.max, "number"), ("", "text"), ("[1]", "text"),
    (_TOP + 1, None), (-10 ** 400, None), (float("inf"), None),
    (float("-inf"), None), (float("nan"), None), ([1], None),
    ({"a": 1}, None), ((), None),
])
def test_value_type_of_names_what_a_store_may_hold(value, expected):
    assert md.value_type_of(value) == expected


def test_every_parsed_store_value_has_a_value_type(parsed_corpus):
    for static, _, _ in parsed_corpus.values():
        for store in static.stores.values():
            assert md.value_type_of(store.value) in md.VALUE_TYPES
