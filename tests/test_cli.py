import json

import pytest
from hypothesis import given, settings, strategies as st

from tmkit import cli, corpus, dsl


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
    from importlib import resources
    code, out, err = run(capsys, "fmt", beef_path)
    golden = (resources.files("tmkit") / "fixtures"
              / "beef.tm.golden").read_text()
    assert code == 0
    assert out == golden


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
], ids=["dotted-number", "superscript-digit", "long-integer",
        "nested-parens", "nested-thimacs", "entry-guard"])
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
    pieces = [m.group() for m in dsl._TOKEN_RE.finditer(text)]
    tokens = [i for i, p in enumerate(pieces)
              if not p.isspace() and not p.startswith("#")]
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
@given(text=st.one_of(st.text(),
                      st.lists(st.sampled_from(_FRAGMENTS)).map(" ".join),
                      _mutated_fixture()),
       command=st.sampled_from(["check", "fmt"]))
def test_check_and_fmt_never_exit_3(tmp_path_factory, text, command):
    path = tmp_path_factory.getbasetemp() / "hostile.tm"
    path.write_text(text, encoding="utf-8")
    assert cli.main([command, str(path)]) != 3


# -- to-class / to-tm --

def test_to_class_bank_matches_golden(capsys, bank_path):
    from importlib import resources
    code, out, err = run(capsys, "to-class", bank_path)
    golden = (resources.files("tmkit") / "fixtures"
              / "bank_classes.json").read_text()
    assert code == 0
    assert out == golden


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


def test_to_tm_malformed_json(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"classes": [{"name": "A", "oops": 1}]}')
    code, out, err = run(capsys, "to-tm", str(bad))
    assert code == 1
    assert "/classes/0/oops" in err


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


def test_usage_error(capsys):
    assert cli.main(["bogus-command"]) == 2
