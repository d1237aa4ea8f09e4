import re

import pytest

from tmkit import corpus, dsl
from tmkit.dot import RenderOptions, emit_dot
from tmkit.model import StaticModel

_NODE = re.compile(r'^\s*"[^"]+" \[label=', re.M)
_EDGE = re.compile(r'^\s*"[^"]+" -> "[^"]+"', re.M)
_DASHED = re.compile(r'\[style=dashed\]')


def test_empty_model_is_valid_digraph():
    text = emit_dot(StaticModel((), {}, (), ()))
    assert text.startswith("digraph")
    assert text.rstrip().endswith("}")
    assert not _NODE.search(text)


@pytest.mark.parametrize("name", corpus.FIXTURES)
def test_static_counts_match(name, parsed_corpus):
    static, _, _ = parsed_corpus[name]
    text = emit_dot(static)
    assert len(_NODE.findall(text)) == len(static.actions)
    assert len(_EDGE.findall(text)) == \
        len(static.flows) + len(static.triggers)


@pytest.mark.parametrize("name", corpus.FIXTURES)
def test_dashed_edges_are_exactly_triggers(name, parsed_corpus):
    static, _, _ = parsed_corpus[name]
    text = emit_dot(static)
    assert len(_DASHED.findall(text)) == len(static.triggers)


def test_beef_clusters_present(beef):
    static, _, _ = beef
    text = emit_dot(static)
    for name in ("Customer", "Cook", "Stove", "Refrigerator", "Grill"):
        assert re.search(rf'subgraph "cluster_[\w.]*{name}"', text)
        assert f'label="{name}"' in text


def test_deterministic_output(beef):
    static, _, _ = beef
    assert emit_dot(static) == emit_dot(static)


def test_behavior_counts(bank):
    _, _, behavior = bank
    text = emit_dot(behavior, RenderOptions(target="behavior"))
    assert len(_NODE.findall(text)) == len(behavior.events)
    assert len(_EDGE.findall(text)) == len(behavior.edges)


def test_behavior_guards_are_edge_labels(bank):
    _, _, behavior = bank
    text = emit_dot(behavior, RenderOptions(target="behavior"))
    assert "E18" in text
    assert "< 0" in text


def test_show_stores_adds_cylinders(beef):
    static, _, _ = beef
    text = emit_dot(static, RenderOptions(show_stores=True))
    assert text.count("shape=cylinder") == \
        sum(1 for _, t in static.iter_thimacs() if t.store is not None)


def test_rankdir_option(beef):
    static, _, _ = beef
    assert "rankdir=TB" in emit_dot(static, RenderOptions(rankdir="TB"))


_QUOTED = re.compile(r'"(?:[^"\\]|\\.)*"')


def test_labels_with_backslashes_and_quotes_stay_quoted():
    _, _, behavior = dsl.parse(
        "thimac A { create; }\n"
        'event E1 "ends in \\\\" covers { A.create };\n'
        'event E2 "say \\"hi\\" \\\\ twice" covers { A.create };\n'
        "behavior { E1 -> E2; }\n")
    text = emit_dot(behavior, RenderOptions(target="behavior"))
    labels = [line.partition("[label=")[2] for line in text.splitlines()
              if "[label=" in line]
    assert labels == ['"E1: ends in \\\\"];',
                      '"E2: say \\"hi\\" \\\\ twice"];']
    for label in labels:
        # the quoted string is well formed and ends where the label ends
        assert _QUOTED.match(label).end() == len(label) - len("];")


def test_store_labels_print_the_tm_literal():
    static, _, _ = dsl.parse(
        "thimac N { store = 1; } thimac F { store = 0.00001; }\n"
        'thimac T { store = "x \\"y\\""; } thimac B { store = true; }\n'
        "thimac R { store; }\n")
    text = emit_dot(static, RenderOptions(show_stores=True))
    labels = re.findall(r"\[shape=cylinder, label=(.*)\];", text)
    assert labels == ['"store = 1"', '"store = 0.00001"',
                      '"store = \\"x \\\\\\"y\\\\\\"\\""',
                      '"store = true"', '"store"']
    assert all(_QUOTED.fullmatch(label) for label in labels)
