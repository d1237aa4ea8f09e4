import contextlib
import errno
import gc
import io
import json
import logging
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import dsl_reference
import tmkit
from tmkit import cli, corpus, dsl
from tmkit.model import VALUE_TYPES

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def beef_path():
    return corpus.fixture_path("beef")


@pytest.fixture
def bank_path():
    return corpus.fixture_path("bank")


# -- check --

def test_check_beef_clean(capsys, beef_path):
    code, out, err = run(capsys, "check", beef_path)
    assert code == 0
    assert out == ""


def test_check_illegal_flow(capsys, tmp_path):
    bad = tmp_path / "bad.tm"
    bad.write_text("thimac A { receive; transfer; }\n"
                   "flow A.receive -> A.transfer;\n")
    code, out, err = run(capsys, "check", str(bad))
    assert code == 1
    lines = [l for l in out.splitlines() if l.startswith("ERROR")]
    assert len(lines) == 1
    severity, location, message = lines[0].split("\t")
    assert "Receive" in message and "Transfer" in message


def test_check_missing_file(capsys, tmp_path):
    code, out, err = run(capsys, "check", str(tmp_path / "nope.tm"))
    assert code == 2


def test_check_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.tm"
    bad.write_text("thimac {")
    code, out, err = run(capsys, "check", str(bad))
    assert code == 2
    assert "parse error" in err


@pytest.mark.parametrize("rule, message", [
    ("A := C + 1", "update rule reads storeless path 'C'"),
    ("B := 1", "update rule writes storeless path 'B'"),
])
@pytest.mark.parametrize("behavior", ["", "behavior { }\n"])
def test_check_rejects_an_update_rule_path_with_no_store(
        capsys, tmp_path, rule, message, behavior):
    path = tmp_path / "rule.tm"
    path.write_text(f"thimac A {{ store = 0; create; process = {rule}; }}\n"
                    "flow A.create -> A.process;\n"
                    "event E covers { A.create, A.process };\n" + behavior)
    code, out, err = run(capsys, "check", str(path))
    assert (code, out, err) == (1, f"ERROR\tA.process\t{message}\n", "")


@pytest.mark.parametrize("command", ["check", "fmt", "dot", "to-class"])
def test_a_duplicate_event_id_is_an_error_without_a_chronology(
        capsys, tmp_path, command):
    path = tmp_path / "twice.tm"
    path.write_text("thimac A { create; }\n"
                    "event E covers { A.create };\n"
                    "event E covers { A.create };\n")
    assert run(capsys, command, str(path)) == (
        1, "", "error: duplicate event id 'E'\n")


_ONE_EVENT = "thimac A { create; }\nevent E covers { A.create };\n"


@pytest.mark.parametrize("source, command, code, out, err", [
    (_ONE_EVENT + "behavior { }\nbehavior { }\n", "check", 2, "",
     "parse error: 4:1: behavior block re-declared\n"),
    ("thimac A { create; }\nevent E covers { A.create, };\n", "fmt", 0,
     "thimac A {\n    create;\n}\n\nevent E covers { A.create };\n", ""),
    (_ONE_EVENT + "behavior { }\nterminal X;\n", "check", 1, "",
     "error: declaration references unknown event 'X'\n"),
    (_ONE_EVENT + "behavior { }\nrepeatable Y;\n", "check", 1, "",
     "error: declaration references unknown event 'Y'\n"),
    ("thimac A { create; transfer; }\nthimac B { transfer; }\n"
     + "trigger A.transfer --> B.transfer;\n" * 2, "check", 1, "",
     "error: duplicate trigger A.transfer --> B.transfer\n"),
], ids=["behavior-twice", "trailing-comma", "unknown-terminal",
        "unknown-repeatable", "duplicate-trigger"])
def test_a_declaration_edge_case_keeps_its_output(capsys, tmp_path, source,
                                                  command, code, out, err):
    path = tmp_path / "case.tm"
    path.write_text(source)
    assert run(capsys, command, str(path)) == (code, out, err)


def test_check_reports_an_event_of_a_file_without_a_chronology(
        capsys, tmp_path):
    path = tmp_path / "input.tm"
    path.write_text("thimac A { create; release; }\n"
                    "thimac B { create; }\n"
                    "flow A.create -> A.release;\n"
                    "event E covers { A.create, B.create } input Z;\n")
    assert run(capsys, "check", str(path)) == (
        1, "WARNING\tB.create\taction participates in no flow or trigger\n"
        "ERROR\tE\tinput path 'Z' has no store\n"
        "WARNING\tE\tcovered subgraph is disconnected\n", "")


def _without_chronology(name):
    """A fixture's text before its `behavior` block, which its `terminal`
    and `repeatable` declarations follow."""
    text = corpus.fixture_text(name)
    return text[:text.index("\nbehavior {") + 1]


@st.composite
def _mutated_events(draw):
    """bank, beef or human without its chronology, with one to three event
    declarations duplicated, cut by a cover or given an input path that
    has no store."""
    text = _without_chronology(
        draw(st.sampled_from(["bank", "beef", "human"])))
    for _ in range(draw(st.integers(1, 3))):
        decl = draw(st.sampled_from(re.findall(r"(?ms)^event .*?;$", text)))
        head, _, rest = decl.partition(" covers {")
        covers, _, tail = rest.partition("}")
        how = draw(st.sampled_from(["duplicate", "drop", "input"]))
        if how == "duplicate":
            new = f"{decl}\n{decl}"
        elif how == "drop":
            paths = covers.split(",")
            del paths[draw(st.integers(0, len(paths) - 1))]
            new = f"{head} covers {{{','.join(paths)}}}{tail}"
        else:
            new = f"{head} covers {{{covers}}} input Z;"
        text = text.replace(decl, new, 1)
    return text


def _check(path):
    """(exit code, stdout, stderr) of `tm check path`."""
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main(["check", str(path)])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=100, deadline=None)
@given(text=_mutated_events())
def test_a_file_without_a_chronology_is_checked_as_with_an_empty_one(
        tmp_path_factory, text):
    alone = tmp_path_factory.getbasetemp() / "alone.tm"
    alone.write_text(text)
    outcome = _check(alone)
    if outcome[0] != 2:
        empty = tmp_path_factory.getbasetemp() / "empty.tm"
        empty.write_text(text + "\nbehavior { }\n")
        assert _check(empty) == outcome


# -- the garbage collector --

@pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
def caller_gc(request):
    """The caller's collector setting, in force during the test."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("source, argv, fault, code", [
    ("thimac A { create; }\n", ["check"], None, 0),
    ("thimac A { receive; transfer; }\nflow A.receive -> A.transfer;\n",
     ["check"], None, 1),
    ("thimac {", ["fmt"], None, 2),
    ("", ["check", "--no-such-option"], None, 2),
    ("thimac A { create; }\n", ["dot"], RuntimeError("boom"), 3),
], ids=["ok", "semantic", "parse", "usage", "internal"])
def test_main_gives_back_the_callers_gc_setting(
        capsys, tmp_path, monkeypatch, caller_gc, source, argv, fault, code):
    path = tmp_path / "model.tm"
    path.write_text(source)
    seen = []
    parse = cli._parse

    def spy(file):
        seen.append(gc.isenabled())
        if fault is not None:
            raise fault
        return parse(file)

    monkeypatch.setattr(cli, "_parse", spy)
    assert run(capsys, *argv, str(path))[0] == code
    assert gc.isenabled() is caller_gc
    # the command ran with the collector off; a usage error runs none
    assert seen == ([] if argv[1:] else [False])


def test_main_gives_back_the_gc_setting_on_an_interrupt(monkeypatch,
                                                       caller_gc):
    def interrupt(file):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_parse", interrupt)
    with pytest.raises(KeyboardInterrupt):
        cli.main(["check", "model.tm"])
    assert gc.isenabled() is caller_gc


# -- fmt --

@pytest.mark.parametrize("name", corpus.FIXTURES)
def test_fmt_idempotent(capsys, tmp_path, name):
    code, once, err = run(capsys, "fmt", corpus.fixture_path(name))
    assert code == 0
    again = tmp_path / "again.tm"
    again.write_text(once)
    code, twice, err = run(capsys, "fmt", str(again))
    assert code == 0
    assert once == twice


def test_fmt_beef_matches_golden(capsys, beef_path):
    code, out, err = run(capsys, "fmt", beef_path)
    assert code == 0
    assert out == (GOLDEN / "beef_fmt.stdout").read_text(encoding="utf-8")


def test_fmt_garbage(capsys, tmp_path):
    bad = tmp_path / "garbage.tm"
    bad.write_text("%%%%")
    code, out, err = run(capsys, "fmt", str(bad))
    assert code == 2


def test_fmt_label_with_quotes_is_stable(capsys, tmp_path):
    src = tmp_path / "label.tm"
    src.write_text('thimac A { create; }\n'
                   'event E "say \\"hi\\"" covers { A.create };\n')
    code, once, err = run(capsys, "fmt", str(src))
    assert code == 0
    assert 'event E "say \\"hi\\"" covers' in once
    again = tmp_path / "again.tm"
    again.write_text(once)
    assert run(capsys, "fmt", str(again)) == (0, once, "")


# -- exit codes on hostile input --

@pytest.mark.parametrize("source", [
    "thimac A { store = 1.2.3; }",
    "thimac A { store = ²; }",
    "thimac A { store = " + "9" * 5000 + "; }",
    "thimac A { store = 0; process = A := "
    + "(" * 2000 + "A" + ")" * 2000 + "; }",
    "thimac A { " * 1200 + "}" * 1200,
    "thimac A { store = 1; create; }\n"
    "event E covers { A.create } guard A = 2;\n",
    "thimac A { store = 1; thimac B { store = 1; create; } }\n"
    "event D covers { A.B.create };\n"
    "event E covers { A.B.create } guard A = 2;\n"
    "behavior { D -> E guard A.B = 1; }\n",
    "thimac A { store = " + "9" * 400 + ".; }",
], ids=["dotted-number", "superscript-digit", "long-integer",
        "nested-parens", "nested-thimacs", "entry-guard",
        "overridden-guard", "infinite-float"])
@pytest.mark.parametrize("command", ["check", "fmt"])
def test_front_end_errors_exit_2(capsys, tmp_path, command, source):
    path = tmp_path / "bad.tm"
    path.write_text(source, encoding="utf-8")
    code, out, err = run(capsys, command, str(path))
    assert code == 2
    assert err.startswith("parse error: ")
    line, col = err.split(":")[1:3]
    assert int(line) >= 1 and int(col) >= 1


def test_fmt_deep_nesting(capsys, tmp_path):
    path = tmp_path / "deep.tm"
    path.write_text("thimac A { create; " * 600 + "}" * 600)
    code, out, err = run(capsys, "fmt", str(path))
    assert code == 0
    assert out.count("thimac A {") == 600


def test_check_long_chain(capsys, tmp_path):
    n = 3000
    lines = [f"thimac T{i} {{ create; }}" for i in range(n)]
    lines += [f"event E{i} covers {{ T{i}.create }};" for i in range(n)]
    lines += ["behavior {"]
    lines += [f"    E{i} -> E{i + 1};" for i in range(n - 1)]
    lines += ["}"]
    path = tmp_path / "chain.tm"
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "check", str(path))
    assert code in (0, 1)
    assert err == ""


@pytest.mark.parametrize("guard, rule", [
    pytest.param(" + ".join(["A"] * 3000) + " > 0", "A + 1", id="plus-guard"),
    pytest.param(" and ".join(["A = 1"] * 3000), "A + 1", id="and-guard"),
    pytest.param(" or ".join(["A = 1"] * 3000), "A + 1", id="or-guard"),
    pytest.param("A = 1", " - ".join(["A"] * 5000), id="minus-rule"),
])
def test_long_operator_chains(capsys, tmp_path, guard, rule):
    path = tmp_path / "long.tm"
    path.write_text("thimac A { store = 1; create; "
                    f"process = A := {rule}; }}\n"
                    "flow A.create -> A.process;\n"
                    "event D covers { A.create };\n"
                    "event E covers { A.process };\n"
                    f"behavior {{ D -> E guard {guard}; }}\n")
    assert run(capsys, "check", str(path)) == (0, "", "")
    code, once, err = run(capsys, "fmt", str(path))
    assert (code, err) == (0, "")
    again = tmp_path / "again.tm"
    again.write_text(once)
    assert run(capsys, "fmt", str(again)) == (0, once, "")
    code, out, err = run(capsys, "simulate", str(path), "--world", "A=1")
    assert (code, err) == (0, "")
    assert out.count("\n") == 2


_FRAGMENTS = ["thimac", "A", "B", "A.create", "{", "}", ";", ",", ".", "=",
              "store", "create", "process", "release", "transfer", "receive",
              "specializes", "flow", "trigger", "->", "-->", "→", ":=",
              "event", "covers", "input", "guard", "behavior", "terminal",
              "repeatable", "E", "F", "not", "and", "or", "<", ">=", "!=",
              "+", "-", "(", ")", "1", "1.", "2.5", '"s"', '"\\""', "true",
              "false", "# c\n", "\n", '"', "\\", "²"]


@st.composite
def _mutated_fixture(draw):
    """A shipped fixture with tokens deleted, duplicated and swapped."""
    text = corpus.fixture_text(draw(st.sampled_from(corpus.FIXTURES)))
    # alternate blanks-and-comments pieces with token pieces
    pieces, end = [], 0
    for match in dsl_reference._lexeme_matches(text):
        pieces += [text[end:match.start()], match.group(1) or ""]
        end = match.end(1)
    tokens = range(1, len(pieces) - 1, 2)  # all but EOF
    for _ in range(draw(st.integers(1, 4))):
        i, j = draw(st.sampled_from(tokens)), draw(st.sampled_from(tokens))
        op = draw(st.sampled_from(["delete", "duplicate", "swap"]))
        if op == "delete":
            pieces[i] = ""
        elif op == "duplicate":
            pieces[i] = pieces[i] + " " + pieces[i]
        else:
            pieces[i], pieces[j] = pieces[j], pieces[i]
    return "".join(pieces)


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(st.text(), st.binary(),
                      st.lists(st.sampled_from(_FRAGMENTS)).map(" ".join),
                      _mutated_fixture()),
       command=st.sampled_from([
           "check", "fmt", "dot", "to-class",
           "dot --show-stores --target behavior --rankdir TB"]))
def test_check_and_fmt_never_exit_3(tmp_path_factory, text, command):
    path = tmp_path_factory.getbasetemp() / "hostile.tm"
    path.write_bytes(text if isinstance(text, bytes)
                     else text.encode("utf-8"))
    assert cli.main([*command.split(), str(path)]) != 3


#: stand-ins for JSON that `json.dumps` cannot write: an array nested too
#: deep and an integer too long for Python to read
_DEEP, _LONG = "\x00deep", "\x00long"
_HOSTILE = {json.dumps(_DEEP): "[" * 100_000 + "]" * 100_000,
            json.dumps(_LONG): "9" * 5000}


def _hostile_json(payload) -> str:
    text = json.dumps(payload)
    for stand_in, raw in _HOSTILE.items():
        text = text.replace(stand_in, raw)
    return text


_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4),
    st.sampled_from(["A", "x", "Account", "é.", ".é", "A.é", *VALUE_TYPES,
                     _DEEP, _LONG]),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.sampled_from(["name", "type", "x"]),
                    st.sampled_from(["a", "number", _DEEP]), max_size=2))


@st.composite
def _mutated_class_json(draw):
    """The bank class JSON with one to three of its fields deleted or
    values replaced."""
    payload = json.loads((GOLDEN / "bank_classes.json").read_text())
    for _ in range(draw(st.integers(1, 3))):
        slots, stack = [], [payload]
        while stack:
            node = stack.pop()
            keys = (range(len(node)) if isinstance(node, list)
                    else list(node) if isinstance(node, dict) else ())
            slots += [(node, key) for key in keys]
            stack += [node[key] for key in keys]
        if not slots:
            break
        node, key = draw(st.sampled_from(slots))
        if isinstance(node, dict) and draw(st.booleans()):
            del node[key]
        else:
            node[key] = draw(_JSON_VALUES)
    return _hostile_json(payload)


@settings(max_examples=100, deadline=None)
@given(text=_mutated_class_json())
def test_to_tm_exits_0_or_1_and_writes_only_what_check_reads(
        tmp_path_factory, text):
    base = tmp_path_factory.getbasetemp()
    source, scaffold = base / "hostile.json", base / "scaffold.tm"
    source.write_text(text)
    with contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["to-tm", str(source), "--out", str(scaffold)])
        assert code in (0, 1)
        if code == 0:
            assert cli.main(["check", str(scaffold)]) in (0, 1)


_SUMS = ("thimac A { store = 0; process = A := A + A - 1; }\n"
         "event E covers { A.process } input A;\nbehavior { }\n")

#: fills and inputs with which each model completes its run
_COMPLETES = {
    "bank": ["--world", "BankAccount=savings", "--world",
             "BankAccount.SavingsAccount=deposit", "--world",
             "BankAccount.balance=100", "--input", "E9:50"],
    "beef": ["--input", "E1:main dish"],
    "human": ["--world", "Human.name=Bob", "--world", "Human.weight=150",
              "--world", "Human.gender=male", "--input", "Eat:snack"],
    "sums": ["--world", "A=1"],
}

_RAW_VALUES = st.one_of(
    _JSON_VALUES.map(_hostile_json), st.text(max_size=6),
    st.integers(1, 6000).map(lambda n: "-" * (n % 2) + "9" * n),
    st.integers(1, 100_000).map(lambda n: "[" * n + "]" * n),
    st.sampled_from(["1e400", "NaN", "-Infinity", "1.7e308", "[", "{"]))


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(["bank", "beef", "human", "sums"]),
       data=st.data())
def test_simulate_never_exits_3_on_any_value(tmp_path_factory, name, data):
    path = tmp_path_factory.getbasetemp() / "model.tm"
    text = _SUMS if name == "sums" else corpus.fixture_text(name)
    path.write_text(text)
    static, events, _ = dsl.parse(text)
    stores = st.sampled_from([*static.stores, "Nowhere"])
    ids = st.sampled_from([*(event.id for event in events), "E99"])
    argv = ["simulate", str(path), "--max-steps",
            str(data.draw(st.integers(1, 50))), *_COMPLETES[name]]
    # a later value of a key replaces an earlier one
    for flag, keys, sep in (("--world", stores, "="), ("--input", ids, ":")):
        for _ in range(data.draw(st.integers(0, 3))):
            argv += [flag, data.draw(keys) + sep + data.draw(_RAW_VALUES)]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) != 3


def test_check_directory_is_a_usage_error(capsys, tmp_path):
    code, out, err = run(capsys, "check", str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith(f"cannot open {tmp_path}: ")
    assert err.count("\n") == 1


def test_an_empty_file_name_is_named_as_such(capsys):
    assert run(capsys, "check", "") == (
        2, "", f"cannot open : {os.strerror(errno.ENOENT)}\n")


def test_check_non_utf8_file_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "bytes.tm"
    path.write_bytes(b"\xff\xfe")
    assert run(capsys, "check", str(path)) == \
        (2, "", f"cannot read {path}: not UTF-8 text (byte 0)\n")


# -- to-class / to-tm --

@pytest.mark.parametrize("name", corpus.FIXTURES)
def test_to_class_matches_golden(capsys, monkeypatch, name):
    # without handlers of its own, logging warns through its last resort,
    # which writes to sys.stderr, as in a `tm` process
    monkeypatch.setattr(logging.root, "handlers", [])
    code, out, err = run(capsys, "to-class", corpus.fixture_path(name))
    assert (code, out, err) == (
        0, (GOLDEN / f"{name}_classes.json").read_text(encoding="utf-8"),
        (GOLDEN / f"{name}_classes.stderr").read_text(encoding="utf-8"))


#: golden file slug -> the command whose output it holds
_PINNED_COMMANDS = {
    "check": ["check"],
    "fmt": ["fmt"],
    "dot": ["dot"],
    "dot_stores_tb": ["dot", "--show-stores", "--rankdir", "TB"],
    "dot_behavior": ["dot", "--target", "behavior"],
}
#: "<fixture> <slug>" -> [exit code, stderr]
_PINNED_STATUS = json.loads(
    (GOLDEN / "cli_status.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("slug", _PINNED_COMMANDS)
@pytest.mark.parametrize("name", corpus.FIXTURES)
def test_command_output_matches_golden(capsys, name, slug):
    code, out, err = run(capsys, *_PINNED_COMMANDS[slug],
                         corpus.fixture_path(name))
    assert [code, err] == _PINNED_STATUS[f"{name} {slug}"]
    assert out == (GOLDEN / f"{name}_{slug}.stdout").read_text(
        encoding="utf-8")


@pytest.mark.parametrize("name", corpus.FIXTURES)
def test_to_tm_matches_golden(capsys, name):
    # the class JSON of each fixture, as `to-class` writes it
    source = GOLDEN / f"{name}_classes.json"
    assert run(capsys, "to-tm", str(source)) == (
        0, (GOLDEN / f"{name}_to_tm.stdout").read_text(encoding="utf-8"), "")


_BANK_FILLS = ["--world", "BankAccount=savings", "--world",
               "BankAccount.SavingsAccount=withdrawal",
               "--world", "BankAccount.balance=100"]
_NO_BEHAVIOR = "error: file declares no behavioral model\n"


@pytest.mark.parametrize("fmt, suffix", [("text", "trace"), ("json", "json")])
@pytest.mark.parametrize("name, argv, trace, code, err", [
    ("bank", [*_BANK_FILLS, "--input", "E9:150"],
     "bank_savings_withdrawal_150", 0, ""),
    ("bank", _BANK_FILLS, None, 1,
     "error: event 'E9' needs an input payload\n"),
    ("beef", ["--input", "E1:main dish"], "beef_order", 0, ""),
    ("beef", [], None, 1, "Stuck\n"),
    ("human", ["--world", "Human.name=Bob", "--world", "Human.weight=150",
               "--world", "Human.gender=male", "--input", "Eat:snack"],
     "human_bob_eats", 0, ""),
    ("person", [], None, 1, _NO_BEHAVIOR),
    ("stack", [], None, 1, _NO_BEHAVIOR),
])
def test_simulate_matches_golden(capsys, name, argv, trace, code, err, fmt,
                                 suffix):
    """A run that completes writes the golden trace of `test_sim`; a stuck
    run writes an empty one, and an error run writes nothing."""
    out = ""
    if trace is not None:
        out = (GOLDEN / f"{trace}.{suffix}").read_text(encoding="utf-8")
    elif err == "Stuck\n" and fmt == "json":
        out = "[]\n"
    assert run(capsys, "simulate", corpus.fixture_path(name), *argv,
               "--trace-format", fmt) == (code, out, err)


def test_to_tm_then_to_class_is_identity(capsys, tmp_path, bank_path):
    code, class_json, _ = run(capsys, "to-class", bank_path)
    json_file = tmp_path / "bank.json"
    json_file.write_text(class_json)
    tm_file = tmp_path / "scaffold.tm"
    code, _, _ = run(capsys, "to-tm", str(json_file), "--out", str(tm_file))
    assert code == 0
    code, back, _ = run(capsys, "to-class", str(tm_file))
    assert code == 0
    assert back == class_json


@pytest.mark.parametrize("payload, where", [
    ({"classes": [], "x": 1}, "/x"),
    ({"classes": [{"name": "A", "x": 1}]}, "/classes/0/x"),
])
def test_to_tm_names_an_unknown_field_by_its_json_path(capsys, tmp_path,
                                                      payload, where):
    path = tmp_path / "extra.json"
    path.write_text(json.dumps(payload))
    assert run(capsys, "to-tm", str(path)) == (
        1, "", f"error: {where}: unknown field\n")


def test_to_tm_malformed_json(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"classes": [{"name": "A", "oops": 1}]}')
    code, out, err = run(capsys, "to-tm", str(bad))
    assert code == 1
    assert "/classes/0/oops" in err


@pytest.mark.parametrize("text, message", [
    ('{"classes": [{"name": "A", "attributes": 5}]}',
     "/classes/0/attributes: expected an array"),
    ('{"classes": [{"name": "A", "methods": [{"name": "m", "params": 7}]}]}',
     "/classes/0/methods/0/params: expected an array"),
    ('{"classes": ' + "[" * 100_000 + "]" * 100_000 + "}",
     "/: not valid JSON (maximum recursion depth exceeded"),
    ('{"classes": [' + "9" * 5000 + "]}",
     "/: not valid JSON (Exceeds the limit (4300 digits)"),
    ("[]", "/: expected an object"),
    ('{"classes": [{"name": "A", "methods": [{"name": "m", '
     '"returns": "int"}]}]}',
     "/classes/0/methods/0/returns: expected a value type or null"),
    ('{"classes":[{"name":"A","attributes":[{"name":"x"}]}]}',
     "/classes/0/attributes/0/type: missing"),
    ('{"classes": [{"name": "A", "methods": [{"name": "m", '
     '"params": [{"name": "p"}]}]}]}',
     "/classes/0/methods/0/params/0/type: missing"),
])
def test_to_tm_rejects_json_it_cannot_read(capsys, tmp_path, text, message):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run(capsys, "to-tm", str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


@pytest.mark.parametrize("cls, where, name", [
    ({"name": "A b", "attributes": [{"name": "x.y", "type": "number"}]},
     "/classes/0/name", "A b"),
    ({"name": "A", "attributes": [{"name": "x.y", "type": "number"}]},
     "/classes/0/attributes/0/name", "x.y"),
    ({"name": "A", "methods": [{"name": "2go"}]},
     "/classes/0/methods/0/name", "2go"),
    ({"name": "A", "methods": [{"name": "go", "params": [
        {"name": "a-b", "type": "text"}]}]},
     "/classes/0/methods/0/params/0/name", "a-b"),
    ({"name": "2go"}, "/classes/0/name", "2go"),
    ({"name": "9" * 400}, "/classes/0/name", "9" * 400),
    # non-ASCII with an empty dotted part
    ({"name": "é."}, "/classes/0/name", "é."),
    ({"name": "A", "attributes": [{"name": ".é", "type": "number"}]},
     "/classes/0/attributes/0/name", ".é"),
    ({"name": "A", "methods": [{"name": "ß."}]},
     "/classes/0/methods/0/name", "ß."),
    ({"name": "A", "methods": [{"name": "go", "params": [
        {"name": "a.é.", "type": "text"}]}]},
     "/classes/0/methods/0/params/0/name", "a.é."),
])
def test_to_tm_rejects_a_name_that_is_not_a_tm_name(capsys, tmp_path, cls,
                                                   where, name):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"classes": [cls]}))
    assert run(capsys, "to-tm", str(path)) == (
        1, "", f"error: {where}: not a .tm name: {name!r}\n")


def test_to_class_warns_of_a_subthimac_read_as_a_reference(tmp_path):
    path = tmp_path / "ref.tm"
    path.write_text("thimac A { create; thimac b { thimac c { store; } } }\n")
    result = _tm("to-class", str(path))
    assert (result.returncode, result.stderr) == (
        0, "subthimac 'A.b' has no store and is not action-only; "
        "treating as a reference attribute\n")


def test_to_class_rejects_a_class_name_used_twice(capsys, tmp_path):
    path = tmp_path / "dup.tm"
    path.write_text("thimac A { create; thimac X specializes { create; } }\n"
                    "thimac B { create; thimac X specializes { create; } }\n")
    assert run(capsys, "to-class", str(path)) == (
        1, "", "error: class name 'X' is used by both 'A.X' and 'B.X'\n")


def test_to_class_reports_a_name_clash_as_such(capsys, tmp_path):
    path = tmp_path / "clash.tm"
    path.write_text("thimac A { create; thimac B specializes { create; "
                    "thimac A specializes { create; } } }\n")
    code, out, err = run(capsys, "to-class", str(path))
    assert code == 1
    assert "cycle" not in err
    assert "'A' and 'A.B.A'" in err


@pytest.mark.parametrize("classes, message", [
    pytest.param([{"name": "A"}, {"name": "A"}],
                 "/classes: duplicate class name", id="duplicate"),
    pytest.param([{"name": "A", "parent": "Z"}],
                 "class 'A' extends unknown 'Z'", id="unknown-parent"),
    pytest.param([{"name": "R"}, {"name": "A", "parent": "B"},
                  {"name": "B", "parent": "A"}],
                 "generalization cycle through 'A'", id="cycle"),
    pytest.param([{"name": "A", "parent": "B"}, {"name": "B", "parent": "C"},
                  {"name": "C", "parent": "B"}],
                 "generalization cycle through 'A'", id="into-a-cycle"),
    pytest.param([{"name": "A", "parent": "A"}],
                 "generalization cycle through 'A'", id="self-parent"),
])
def test_to_tm_rejects_a_malformed_hierarchy(capsys, tmp_path, classes,
                                              message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"classes": classes}))
    assert run(capsys, "to-tm", str(path)) == (1, "", f"error: {message}\n")


def test_to_tm_rejects_a_hierarchy_too_deep_to_print(capsys, tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"classes": [
        {"name": f"C{i}", "parent": f"C{i - 1}" if i else None}
        for i in range(3000)]}))
    assert run(capsys, "to-tm", str(path)) == (
        1, "", "error: class hierarchy too deep\n")


def test_to_tm_in_process_below_pytest_frames_takes_the_bound(capsys,
                                                              tmp_path):
    # no command takes a frame per thimac level, so a scaffold at the
    # bound is written and read below pytest's own frames too
    path, scaffold = tmp_path / "chain.json", tmp_path / "scaffold.tm"
    path.write_text(json.dumps({"classes": [
        {"name": f"C{i}", "parent": f"C{i - 1}" if i else None}
        for i in range(dsl.MAX_THIMAC_DEPTH)]}))
    assert run(capsys, "to-tm", str(path), "--out", str(scaffold)) == \
        (0, "", "")
    assert scaffold.read_text().count(" specializes {") == \
        dsl.MAX_THIMAC_DEPTH - 1
    code, _, err = run(capsys, "check", str(scaffold))
    assert (code, err) == (0, "")


def _python(*argv, **env):
    """Run Python with tmkit importable, in a fresh interpreter, with the
    environment variables `env` set too."""
    src = str(Path(tmkit.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path, **env))


def _tm(*argv):
    """Run `tm` in a fresh interpreter, whose stack starts empty."""
    return _python("-m", "tmkit.cli", *argv)


#: Runs each command line in JSON `argv[1]` through `cli.main` and prints
#: each one's exit code, stdout and stderr as JSON.
_RUN_EACH = """
import contextlib, io, json, sys
from tmkit import cli
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    results.append([argv, code, out.getvalue(), err.getvalue()])
print(json.dumps(results, indent=1))
"""


def test_no_output_depends_on_the_hash_seed():
    # covers, the candidate set and trigger reach are sets of strings,
    # whose order PYTHONHASHSEED picks; one fresh interpreter per seed
    # runs every command, as a process per command would take seconds
    runs = []
    for name, inputs in (("bank", [*_BANK_FILLS, "--input", "E9:150"]),
                         ("beef", ["--input", "E1:main dish"])):
        path = corpus.fixture_path(name)
        runs += [["check", path], ["fmt", path], ["dot", path],
                 ["dot", path, "--target", "behavior"],
                 ["dot", path, "--show-stores", "--rankdir", "TB"],
                 ["to-class", path], ["simulate", path, *inputs],
                 ["simulate", path, *inputs, "--trace-format", "json"]]
    seed_0, seed_1 = (_python("-c", _RUN_EACH, json.dumps(runs),
                              PYTHONHASHSEED=seed) for seed in "01")
    assert (seed_0.returncode, seed_0.stderr) == (0, "")
    assert [code for _, code, _, _ in json.loads(seed_0.stdout)] == \
        [0] * len(runs)
    assert seed_1.stdout == seed_0.stdout


def test_to_tm_accepts_a_deep_to_class_output(tmp_path):
    n = 980
    source = tmp_path / "deep.tm"
    # the attribute and method sit in the deepest class, where the paths
    # are longest; one per class would make the text quadratic in `n`
    source.write_text("".join(
        f"thimac C{i}{' specializes' if i else ''} {{ create; "
        for i in range(n)) + "thimac a { store = 0; } thimac m { process; } "
        + "}" * n + "\n")
    classes, scaffold = tmp_path / "deep.json", tmp_path / "scaffold.tm"
    for argv in (["to-class", str(source), "--out", str(classes)],
                 ["to-tm", str(classes), "--out", str(scaffold)],
                 ["check", str(scaffold)]):
        result = _tm(*argv)
        assert (result.returncode, result.stderr) == (0, ""), argv
    assert scaffold.read_text().count(" specializes {") == n - 1


@pytest.mark.parametrize("member", [None, "attributes", "methods"])
def test_to_tm_writes_no_scaffold_that_nests_past_the_bound(tmp_path,
                                                          member):
    # the deepest of 981 classes sits at the bound; a member of it would
    # sit one deeper
    classes = [{"name": f"C{i}", "parent": f"C{i - 1}" if i else None}
               for i in range(dsl.MAX_THIMAC_DEPTH)]
    if member:
        classes[-1][member] = [{"name": "a", "type": "number"}
                               if member == "attributes" else {"name": "a"}]
    source, scaffold = tmp_path / "deep.json", tmp_path / "scaffold.tm"
    source.write_text(json.dumps({"classes": classes}))
    result = _tm("to-tm", str(source), "--out", str(scaffold))
    if member:
        assert (result.returncode, result.stderr) == (
            1, "error: class hierarchy too deep\n")
        assert not scaffold.exists()
    else:
        assert (result.returncode, result.stderr) == (0, "")
        result = _tm("check", str(scaffold))
        assert (result.returncode, result.stderr) == (0, "")


def _nest(depth, inner, member=""):
    """`.tm` text of `specializes` classes nested `depth - 1` deep, each
    holding `member`, around `inner`, which sits `depth` deep."""
    return ("".join(f"thimac C{i}{' specializes' if i else ''} {{ create; "
                    + member for i in range(depth - 1))
            + inner + "}" * (depth - 1) + "\n")


def test_every_command_takes_thimacs_nested_to_the_bound(tmp_path):
    depth, parens = dsl.MAX_THIMAC_DEPTH, dsl.MAX_EXPR_DEPTH
    deepest = ".".join(f"C{i}" for i in range(depth - 1))
    # the deepest thimacs hold every kind of member, and D an update rule
    # at the expression bound; an attribute in every class would make the
    # scaffold quadratic in depth
    source = tmp_path / "deep.tm"
    source.write_text(_nest(depth, (
        f"thimac D {{ store = 0.00001; create; process = {deepest}.D := "
        + "(" * parens + f"{deepest}.D + 1" + ")" * parens
        + "; transfer; receive; release; } thimac a { store = -1.5; } "
        "thimac m { process; } "))
        + f"event E covers {{ {deepest}.D.create }};\n"
        "behavior { }\nterminal E;\n")
    classes, scaffold = tmp_path / "deep.json", tmp_path / "scaffold.tm"
    for argv in (["check", source], ["fmt", source], ["dot", source],
                 ["dot", source, "--show-stores"],
                 ["dot", source, "--target", "behavior"],
                 ["simulate", source],
                 ["simulate", source, "--trace-format", "json"],
                 ["to-class", source, "--out", classes],
                 ["to-tm", classes, "--out", scaffold],
                 ["check", scaffold], ["fmt", scaffold]):
        result = _tm(*map(str, argv))
        assert (result.returncode, result.stderr) == (0, ""), argv
    assert f"{deepest}.D.create" in _tm("simulate", str(source)).stdout


@pytest.mark.parametrize("classes", [dsl.MAX_THIMAC_DEPTH, 989])
def test_thimacs_nested_past_the_bound_are_a_parse_error(tmp_path, classes):
    # at 989 classes, `tm check` once took this file, while the `tm to-tm`
    # scaffold of its `tm to-class` output failed `tm check`
    source = tmp_path / "deep.tm"
    source.write_text(_nest(classes + 1, "", "thimac a { store = 0; } "))
    for command in ("check", "fmt", "dot", "simulate", "to-class"):
        result = _tm(command, str(source))
        assert result.returncode == 2, command
        assert result.stderr.startswith("parse error: 1:"), command
        assert result.stderr.endswith(": nesting too deep\n"), command


def _deep_expressions(parens=0, nots=0, sums=0, runs=0):
    """`.tm` text whose first guard nests `parens` parentheses and then
    `runs` levels of `A > 0 or A > 0 and (`, whose second nests `nots`
    `not`s and whose update rule nests `sums` sums, each in parentheses;
    all of them run under `simulate --world A=1`."""
    return ("thimac A { store = 1; create; process = A := A + "
            + "(1 + " * sums + "1" + ")" * sums + "; }\n"
            "thimac B { create; }\n"
            "flow A.create -> A.process;\n"
            "event D covers { A.create };\nevent E covers { A.process };\n"
            "event F covers { B.create };\n"
            "behavior {\n  D -> E guard " + "(" * parens + "A = 1"
            + ")" * parens + " and " + "A > 0 or A > 0 and (" * runs
            + "A > 0" + ")" * runs + ";\n  D -> F guard " + "not " * nots
            + "A > 0;\n}\nterminal F;\n")


_EXPRESSION_COMMANDS = (
    ["check"], ["fmt"], ["dot"], ["dot", "--target", "behavior"],
    ["simulate", "--world", "A=1"],
    ["simulate", "--world", "A=1", "--trace-format", "json"], ["to-class"])


def test_every_command_takes_expressions_nested_to_the_bound(capsys,
                                                            tmp_path):
    depth = dsl.MAX_EXPR_DEPTH
    path = tmp_path / "deep.tm"
    path.write_text(_deep_expressions(depth, depth, depth, depth))
    for argv in _EXPRESSION_COMMANDS:
        code, out, err = run(capsys, argv[0], str(path), *argv[1:])
        assert (code, err) == (0, ""), argv
        result = _tm(argv[0], str(path), *argv[1:])
        assert (result.returncode, result.stdout, result.stderr) == \
            (0, out, ""), argv
        if argv == ["simulate", "--world", "A=1"]:
            assert [line.split("\t")[1] for line in out.splitlines()] == \
                ["D", "E", "F"]
    # `fmt` nests no deeper than its input, so `check` takes its output
    code, once, _ = run(capsys, "fmt", str(path))
    path.write_text(once)
    code, _, err = run(capsys, "check", str(path))
    assert (code, err) == (0, "")
    assert run(capsys, "fmt", str(path)) == (0, once, "")


@pytest.mark.parametrize("rule", ["(A < 1)", "(not A)", "(A > 0 or A < 0)"])
def test_fmt_writes_an_update_rule_that_is_no_sum_in_parentheses(
        capsys, tmp_path, rule):
    path = tmp_path / "rule.tm"
    path.write_text(f"thimac A {{ store = 1; process = A := {rule}; }}\n")
    code, out, _ = run(capsys, "fmt", str(path))
    assert code == 0 and f"process = A := {rule};" in out
    path.write_text(out)
    assert run(capsys, "check", str(path))[0] == 0


@pytest.mark.parametrize("rule, guard", [
    ("not + 1", "A = 1 + not"), ("not.b - not", "A < not.b or not A = not")])
def test_fmt_writes_a_not_path_where_a_sum_reads_it(capsys, tmp_path, rule,
                                                    guard):
    # where the parser reads a sum, `not` starts a path, not a negation
    path = tmp_path / "not.tm"
    path.write_text(
        "thimac not { store = 0; thimac b { store = 0; } }\n"
        f"thimac A {{ store = 0; create; process = A := {rule}; }}\n"
        "event D covers { A.create }; event E covers { A.process };\n"
        f"behavior {{ D -> E guard {guard}; }}\n")
    code, out, err = run(capsys, "fmt", str(path))
    assert (code, err) == (0, "")
    assert f"process = A := {rule};" in out and f"guard {guard};" in out
    path.write_text(out)
    assert run(capsys, "check", str(path))[::2] == (0, "")
    code, out, err = run(capsys, "dot", "--target", "behavior", str(path))
    assert (code, err) == (0, "") and f'label="{guard}"' in out


@pytest.mark.parametrize("shape", ["parens", "nots", "sums", "runs"])
def test_expressions_nested_past_the_bound_are_a_parse_error(
        capsys, tmp_path, shape):
    text = _deep_expressions(**{shape: dsl.MAX_EXPR_DEPTH + 1})
    path = tmp_path / "deep.tm"
    path.write_text(text)
    opener = text.rindex("not" if shape == "nots" else "(")
    line = text.count("\n", 0, opener) + 1
    column = opener - text.rfind("\n", 0, opener)
    message = f"parse error: {line}:{column}: nesting too deep\n"
    for argv in _EXPRESSION_COMMANDS:
        assert run(capsys, argv[0], str(path), *argv[1:]) == \
            (2, "", message), argv
    result = _tm("check", str(path))
    assert (result.returncode, result.stdout, result.stderr) == \
        (2, "", message)


def test_out_flag_writes_file_only(capsys, tmp_path, bank_path):
    out_file = tmp_path / "bank.json"
    code, out, err = run(capsys, "to-class", bank_path, "--out",
                         str(out_file))
    assert code == 0
    assert out == ""
    assert json.loads(out_file.read_text())["classes"]


# -- simulate --

def test_simulate_bank_withdrawal(capsys, bank_path):
    code, out, err = run(
        capsys, "simulate", bank_path,
        "--world", "BankAccount=savings",
        "--world", "BankAccount.SavingsAccount=withdrawal",
        "--world", "BankAccount.balance=100",
        "--input", "E9:150")
    assert code == 0
    assert "E21" in out
    assert "E23" not in out


@pytest.mark.parametrize("argv", [
    ["check"],
    ["simulate", "--world", "BankAccount=savings",
     "--world", "BankAccount.SavingsAccount=withdrawal",
     "--world", "BankAccount.balance=100", "--input", "E9:150"],
    ["fmt"],
    ["dot"],
    ["to-class"],
])
def test_a_command_walks_the_thimac_tree_once(capsys, monkeypatch,
                                              bank_path, argv):
    """`build_model` walks once and fills the store index in that walk;
    the checks and `init_world` read the index. `fmt`, `dot` and
    `to-class` walk once more, to write their output."""
    from tmkit import model
    calls = []

    def counted(thimacs):
        calls.append(1)
        return walk(thimacs)

    walk = model._walk
    monkeypatch.setattr(model, "_walk", counted)
    code, _, err = run(capsys, argv[0], bank_path, *argv[1:])
    assert (code, err) == (0, "")
    assert len(calls) == (1 if argv[0] in ("check", "simulate") else 2)


def test_simulate_beef_sequence(capsys, beef_path):
    code, out, err = run(capsys, "simulate", beef_path,
                         "--input", "E1:order")
    assert code == 0
    events = [line.split("\t")[1] for line in out.splitlines()]
    assert events == [f"E{i}" for i in range(1, 9)]


def test_simulate_json_format(capsys, beef_path):
    code, out, err = run(capsys, "simulate", beef_path,
                         "--input", "E1:order", "--trace-format", "json")
    assert code == 0
    assert [e["event"] for e in json.loads(out)] == \
        [f"E{i}" for i in range(1, 9)]


def test_simulate_budget_exhaustion(capsys, beef_path):
    code, out, err = run(capsys, "simulate", beef_path,
                         "--input", "E1:order", "--max-steps", "1")
    assert code == 1
    assert "StepBudgetExhausted" in err


@pytest.mark.parametrize("steps", ["0", "-3"])
def test_simulate_max_steps_below_1_is_a_usage_error(capsys, bank_path,
                                                     steps):
    code, out, err = run(capsys, "simulate", bank_path, "--max-steps", steps)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == (
        "tm simulate: error: argument --max-steps: expected an integer of "
        f"at least 1, got '{steps}'")


def test_simulate_type_error_exits_1(capsys, tmp_path):
    path = tmp_path / "types.tm"
    path.write_text('thimac A { store = 1; create; process = A := A + "x"; }\n'
                    "flow A.create -> A.process;\n"
                    "event E covers { A.create, A.process };\n"
                    "event F covers { A.create };\n"
                    "behavior { E -> F; }\n")
    code, out, err = run(capsys, "simulate", str(path), "--world", "A=1")
    assert code == 1
    assert err == "error: cannot compute 1 + 'x'\n"


def _reject_constant(name):
    raise ValueError(f"not JSON (RFC 8259): {name}")


@pytest.mark.parametrize("store, flag, value, shown", [
    ('""', "--world", "A=[1]", "[1]"),
    ("0", "--world", "A=[1]", "[1]"),
    ("0", "--world", 'A={"a": 1}', "{'a': 1}"),
    ("0", "--world", "A=1e400", "inf"),
    ("0", "--world", "A=NaN", "nan"),
    ("0", "--world", "A=-Infinity", "-inf"),
    ("0", "--input", "E:1e400", "inf"),
    ("0", "--world", "A=" + "9" * 400, "9" * 400),
    ("0", "--input", "E:-" + "9" * 400, "-" + "9" * 400),
])
def test_simulate_rejects_a_store_value_of_no_value_type(
        capsys, tmp_path, store, flag, value, shown):
    path = tmp_path / "fill.tm"
    path.write_text(f"thimac A {{ store = {store}; create; }}\n"
                    "event E covers { A.create } input A;\n"
                    "behavior { }\n")
    assert run(capsys, "simulate", str(path), flag, value) == (
        1, "", "error: store 'A' holds a number in float range, text, a "
        f"boolean or a reference, got {shown}\n")


def test_simulate_overflow_is_an_error_not_infinity(capsys, tmp_path):
    path = tmp_path / "double.tm"
    path.write_text("thimac A { store = 0.0; process = A := A + A; }\n"
                    "event E covers { A.process };\nbehavior { }\n")
    argv = ["simulate", str(path), "--trace-format", "json"]
    code, out, err = run(capsys, *argv, "--world", "A=1.5e308")
    assert (code, out, err) == (
        1, "", "error: cannot compute 1.5e+308 + 1.5e+308\n")
    code, out, err = run(capsys, *argv, "--world", "A=1e307")
    assert (code, err) == (0, "")
    trace = json.loads(out, parse_constant=_reject_constant)
    assert trace[0]["deltas"] == [{"path": "A", "old": 1e307, "new": 2e307}]


def test_a_number_literal_beyond_a_float_is_a_parse_error(capsys, tmp_path):
    path = tmp_path / "long.tm"
    path.write_text("thimac A { store = 0; process = A := " + "9" * 400
                    + "; }\nevent E covers { A.process };\nbehavior { }\n")
    for command in ("check", "simulate"):
        assert run(capsys, command, str(path)) == (
            2, "", "parse error: 1:38: number too long: 400 digits\n")


def test_simulate_integer_overflow_is_an_error(capsys, tmp_path):
    # the largest integer a store holds, doubled
    path = tmp_path / "double.tm"
    path.write_text("thimac A { store = 0; process = A := A + A; }\n"
                    "event E covers { A.process };\nbehavior { }\n")
    top = int(sys.float_info.max)
    assert run(capsys, "simulate", str(path), "--world", f"A={top}") == (
        1, "", f"error: cannot compute {top} + {top}\n")


@pytest.mark.parametrize("flag, value, detail", [
    ("--world", "A=" + "[" * 30_000 + "]" * 30_000,
     "maximum recursion depth exceeded"),
    ("--world", "A=" + "9" * 5000, "Exceeds the limit (4300 digits)"),
    ("--input", "E:-" + "9" * 5000, "Exceeds the limit (4300 digits)"),
])
def test_simulate_rejects_a_value_python_cannot_decode(capsys, tmp_path,
                                                       flag, value, detail):
    path = tmp_path / "fill.tm"
    path.write_text("thimac A { store = 0; create; }\n"
                    "event E covers { A.create } input A;\n"
                    "behavior { }\n")
    code, out, err = run(capsys, "simulate", str(path), flag, value)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot read the {flag} value of "
                          f"'{value[0]}' ({detail}")
    assert err.count("\n") == 1


@pytest.mark.parametrize("flag, raw", [("--world", "A"), ("--input", "E1")])
def test_simulate_rejects_a_value_without_its_separator(capsys, bank_path,
                                                        flag, raw):
    assert run(capsys, "simulate", bank_path, flag, raw) == (
        2, "", f"error: bad {flag} value {raw!r}\n")


@pytest.mark.parametrize("raw, message", [
    ("E2:order", "event 'E2' declares no input"),
    ("E99:5", "unknown event 'E99'"),
])
def test_simulate_rejects_an_input_no_event_takes(capsys, beef_path, raw,
                                                  message):
    assert run(capsys, "simulate", beef_path, "--input", "E1:order",
               "--input", raw) == (1, "", f"error: {message}\n")


def test_simulate_deterministic(capsys, bank_path):
    argv = ["simulate", bank_path,
            "--world", "BankAccount=savings",
            "--world", "BankAccount.SavingsAccount=deposit",
            "--world", "BankAccount.balance=100",
            "--input", "E9:50"]
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first == second


# -- dot --

def test_dot_static(capsys, beef_path, beef):
    static, _, _ = beef
    code, out, err = run(capsys, "dot", beef_path)
    assert code == 0
    assert out.count("[style=dashed]") == len(static.triggers)


def test_dot_behavior(capsys, bank_path):
    code, out, err = run(capsys, "dot", bank_path, "--target", "behavior")
    assert code == 0
    assert '"E23"' in out


@pytest.mark.parametrize("argv", [["simulate"],
                                  ["dot", "--target", "behavior"]])
def test_a_file_without_behavior_is_a_semantic_error(capsys, tmp_path,
                                                     argv):
    path = tmp_path / "static.tm"
    path.write_text("thimac A { create; }\n", encoding="utf-8")
    assert run(capsys, argv[0], str(path), *argv[1:]) == (
        1, "", "error: file declares no behavioral model\n")


def test_usage_error(capsys):
    assert cli.main(["bogus-command"]) == 2


# -- the argument grammar --

_HELP = "usage: tm"
_TM_OR_CHECK = r"tm(?: check)?: error: "


@pytest.mark.parametrize("argv, code, out, error", [
    ([], 2, "", "tm: error: the following arguments are required: command"),
    (["--help"], 0, _HELP, None),
    (["simulate", "-h"], 0, _HELP, None),
    (["check"], 2, "",
     "tm check: error: the following arguments are required: file"),
    (["check", "F", "F"], 2, "", _TM_OR_CHECK + ".*"),
    (["check", "F", "--bogus"], 2, "", _TM_OR_CHECK + ".*--bogus"),
    (["bogus-command"], 2, "",
     r"tm: error: argument command: invalid choice: 'bogus-command' "
     r"\(choose from .*\)"),
    (["dot", "F", "--target=behavior"], 0, "digraph behavior {", None),
    (["dot", "F", "--show"], 0, "digraph tm {", None),
    (["dot", "F", "--rankdir", "XX"], 2, "",
     r"tm dot: error: argument --rankdir: invalid choice: 'XX' "
     r"\(choose from .*\)"),
    (["simulate", "F", "--world"], 2, "",
     "tm simulate: error: argument --world: expected one argument"),
    (["check", "--", "F"], 0, "", None),
    (["simulate", "F", "--max-steps", "abc"], 2, "",
     "tm simulate: error: argument --max-steps: expected an integer of at "
     "least 1, got 'abc'"),
    (["dot", "F", "--show-stores=yes"], 2, "",
     "tm dot: error: argument --show-stores: ignored explicit argument "
     "'yes'"),
], ids=["no-command", "help", "command-help", "no-file", "two-files",
        "unknown-option", "unknown-command", "option-equals-value",
        "option-prefix", "invalid-choice", "missing-value", "end-of-options",
        "non-integer-value", "flag-with-value"])
def test_argument_grammar(capsys, beef_path, argv, code, out, error):
    argv = [beef_path if arg == "F" else arg for arg in argv]
    got, printed, err = run(capsys, *argv)
    assert got == code
    assert printed.startswith(out) and bool(printed) == bool(out)
    if error is None:
        assert err == ""
    else:
        assert err.startswith("usage: tm")
        assert re.fullmatch(error, err.splitlines()[-1])


def test_an_ambiguous_option_prefix_is_a_usage_error():
    with pytest.raises(cli.Usage) as info:
        cli._match("dot", "--t", ("--target", "--trace"))
    assert info.value.args == (
        "dot", "ambiguous option: --t could match --target, --trace")


def test_argument_scanning_is_linear_in_the_flags():
    values = [f"S{i}={i}" for i in range(50_000)]
    argv = ["simulate", "x.tm"]
    for value in values:
        argv += ["--world", value]
    start = time.perf_counter()
    run, args = cli.parse_args(argv)
    assert time.perf_counter() - start < 1
    assert (run, args.file, args.world) == (cli.cmd_simulate, "x.tm", values)


class _ClosedPipe:
    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))


def test_a_closed_stdout_is_named_as_such(capsys, monkeypatch, beef_path):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    code = cli.main(["fmt", beef_path])
    assert (code, capsys.readouterr().err) == (
        2, f"cannot write output: {os.strerror(errno.EPIPE)}\n")


def test_every_public_name_resolves():
    assert [name for name in tmkit.__all__ if not hasattr(tmkit, name)] == []


def test_importing_the_cli_loads_only_what_check_runs():
    code = ("import sys; before = set(sys.modules); import tmkit.cli; "
            "print(*sorted(set(sys.modules) - before))")
    loaded = set(_python("-c", code).stdout.split())
    assert {"tmkit.cli", "tmkit.dsl"} <= loaded
    assert loaded.isdisjoint({"tmkit.sim", "tmkit.uml", "tmkit.dot",
                              "dataclasses", "inspect", "logging", "json",
                              "typing", "argparse", "gettext", "locale"})


def test_importing_uml_loads_neither_the_parser_nor_the_events():
    code = ("import sys; import tmkit.uml; "
            "print(*sorted(name for name in sys.modules if 'tmkit' in name))")
    loaded = set(_python("-c", code).stdout.split())
    assert "tmkit.uml" in loaded
    assert loaded.isdisjoint({"tmkit.dsl", "tmkit.events"})


def test_tmkit_loads_no_module_from_outside_the_standard_library():
    # what site loaded before tmkit does not count
    code = ("import sys; before = set(sys.modules); import tmkit, tmkit.cli, "
            "tmkit.corpus; [getattr(tmkit, name) for name in tmkit.__all__]; "
            "print(*sorted({name.partition('.')[0] "
            "for name in set(sys.modules) - before}))")
    loaded = set(_python("-c", code).stdout.split())
    assert "tmkit" in loaded
    assert loaded - {"tmkit", *sys.stdlib_module_names} == set()


def test_the_package_ships_only_the_corpus():
    from importlib import resources
    fixtures = resources.files("tmkit") / "fixtures"
    assert sorted(ref.name for ref in fixtures.iterdir()) == sorted(
        f"{name}.tm" for name in corpus.FIXTURES)
