import decimal
import operator
import sys
import time

import pytest
from hypothesis import example, given, settings, strategies as st

import dsl_reference
from tmkit import corpus, dsl, expr
from tmkit.errors import TmError
from tmkit.expr import Binary, Chain, Lit, PathRef, Unary, to_text
from tmkit.model import canonicalize, is_name

STACK_SRC = ("thimac Stack { store; transfer; receive; create; } "
             "flow Stack.transfer -> Stack.receive; "
             "trigger Stack.receive --> Stack.create;")


def test_parse_stack_inline():
    static, events, behavior = dsl.parse(STACK_SRC)
    assert [t.name for t in static.thimacs] == ["Stack"]
    assert len(static.actions) == 3
    assert len(static.flows) == 1
    assert len(static.triggers) == 1
    assert events == []
    assert behavior is None


def test_parse_minimal_thimac():
    static, _, _ = dsl.parse("thimac A { }")
    assert [t.name for t in static.thimacs] == ["A"]
    assert static.actions == {}


def test_parse_empty_source():
    static, events, behavior = dsl.parse("")
    assert static.thimacs == ()


def test_unicode_arrow_alias():
    a, _, _ = dsl.parse("thimac A { transfer; receive; } "
                        "flow A.transfer → A.receive;")
    b, _, _ = dsl.parse("thimac A { transfer; receive; } "
                        "flow A.transfer -> A.receive;")
    assert a == b


@pytest.mark.parametrize("path", ["A . transfer", "A.# note\n transfer",
                                  "A .\n\ttransfer"])
def test_blanks_and_comments_around_a_dot_are_one_path(path):
    static, _, _ = dsl.parse("thimac A { transfer; receive; } "
                             f"flow {path} -> A.receive;")
    assert [(e.src, e.dst) for e in static.flows] == \
        [("A.transfer", "A.receive")]


def test_comments_ignored():
    static, _, _ = dsl.parse("# heading\nthimac A { # inline\n }\n")
    assert [t.name for t in static.thimacs] == ["A"]


def test_dangling_dot_error_position():
    src = "flow A. -> B;"
    with pytest.raises(dsl.ParseError) as exc:
        dsl.parse(src)
    assert exc.value.line == 1
    assert exc.value.column == 9  # the arrow where a name was expected
    assert exc.value.column <= len(src) + 1


def test_error_positions_inside_file():
    bad = [
        "thimac {",
        "thimac A { store; store; }",
        "thimac A { create; create; }",
        "flow A -> ;",
        "event E covers { };",
        'thimac A { store = ; }',
        "behavior { E1 -> ; }",
        "thimac A { store = 1.2.3; }",
        "thimac A { store = ²; }",
        "thimac A {\n store = " + "9" * 5000 + "; }",
        "thimac A { store = 0; process = A := "
        + "(" * 2000 + "A" + ")" * 2000 + "; }",
        "thimac A { " * 1200 + "}" * 1200,
    ]
    for src in bad:
        with pytest.raises(dsl.ParseError) as exc:
            dsl.parse(src)
        lines = src.split("\n")
        assert 1 <= exc.value.line <= len(lines)
        assert 1 <= exc.value.column <= len(lines[exc.value.line - 1]) + 1


def test_unknown_flow_path_is_resolution_error():
    from tmkit.errors import UnknownPath
    with pytest.raises(UnknownPath):
        dsl.parse("thimac A { transfer; } flow A.transfer -> A.receive;")


def test_unknown_cover_path():
    from tmkit.errors import UnknownActionPath
    with pytest.raises(UnknownActionPath):
        dsl.parse("thimac A { create; } event E covers { A.process };")


def test_duplicate_event_id_is_rejected_without_a_chronology():
    from tmkit.errors import DuplicateEventId
    with pytest.raises(DuplicateEventId):
        dsl.parse("thimac A { create; } event E covers { A.create };"
                  " event E covers { A.create };")


def test_process_update_rule_parses():
    static, _, _ = dsl.parse(
        "thimac A { store = 0; process = A := A + 1; }")
    action = static.actions["A.process"]
    assert action.kind == "process"
    target, rule = action.update
    assert target == "A"


def test_update_rule_only_on_process():
    with pytest.raises(dsl.ParseError):
        dsl.parse("thimac A { store = 0; create = A := 1; }")


def test_print_empty_model():
    static, events, behavior = dsl.parse("")
    assert dsl.print_text(static, events, behavior) == "\n"


@pytest.mark.parametrize("keyword, arrow", [("flow", "->"),
                                            ("trigger", "-->")])
def test_edges_print_in_src_dst_order_when_one_path_prefixes_another(
        keyword, arrow):
    # `A.create` sorts before `A.create1.receive` as a path, but a line
    # ending in `A.create;` would sort after one going on with `1`
    thimacs = ("thimac A {\n    create;\n    thimac create1 {\n"
               "        receive;\n    }\n}\n\nthimac X {\n    transfer;\n}\n")
    text = (thimacs + f"{keyword} X.transfer {arrow} A.create1.receive;\n"
            f"{keyword} X.transfer {arrow} A.create;\n")
    assert dsl.print_text(*dsl.parse(text)) == (
        thimacs + f"\n{keyword} X.transfer {arrow} A.create;\n"
        f"{keyword} X.transfer {arrow} A.create1.receive;\n")


@pytest.mark.parametrize("name", corpus.FIXTURES)
def test_round_trip_parse_print(name, parsed_corpus):
    static, events, behavior = parsed_corpus[name]
    text = dsl.print_text(static, events, behavior)
    static2, events2, behavior2 = dsl.parse(text)
    assert static2 == canonicalize(static)
    assert events2 == events
    assert behavior2 == behavior


@pytest.mark.parametrize("name", corpus.FIXTURES)
def test_print_is_a_fixpoint(name, parsed_corpus):
    static, events, behavior = parsed_corpus[name]
    text = dsl.print_text(static, events, behavior)
    assert dsl.print_text(*dsl.parse(text)) == text


def test_parse_is_pure():
    text = corpus.fixture_text("bank")
    assert dsl.parse(text) == dsl.parse(text)


def test_guard_expression_grammar():
    src = ("thimac A { store = 0; } thimac B { store = 0; process; }\n"
           "event D covers { B.process };\n"
           "event E covers { B.process } guard "
           "(A < 0 or A >= 10) and not B != 3;\n"
           "behavior { D -> E; }\n")
    static, events, behavior = dsl.parse(src)
    assert events[1].id == "E"
    a, b = PathRef("A"), PathRef("B")
    assert behavior.edges[0].guard == Chain(
        Chain(Binary("<", a, Lit(0)), (("or", Binary(">=", a, Lit(10))),)),
        (("and", Unary("not", Binary("!=", b, Lit(3)))),))


def _stream(text):
    tokens = dsl._tokenize(text)
    return [(type_, value, *dsl._position(text, tokens, i))
            for i, (type_, value) in enumerate(tokens)]


@pytest.mark.parametrize("text, expected", [
    # a comment at EOF leaves EOF at the comment's column
    ("a # note", [("NAME", "a", 1, 1), ("EOF", None, 1, 3)]),
    ("# only\n", [("EOF", None, 2, 1)]),
    # \r is a blank, so \r\n ends a line like \n
    ("a\r\nbc\r\n", [("NAME", "a", 1, 1), ("NAME", "bc", 2, 1),
                     ("EOF", None, 3, 1)]),
    ("x → y", [("NAME", "x", 1, 1), ("->", "->", 1, 3),
               ("NAME", "y", 1, 5), ("EOF", None, 1, 6)]),
    ("-->->-", [("-->", "-->", 1, 1), ("->", "->", 1, 4), ("-", "-", 1, 6),
                ("EOF", None, 1, 7)]),
    ("a:=b<=c>=d!=e<f>g=h", [
        ("NAME", "a", 1, 1), (":=", ":=", 1, 2), ("NAME", "b", 1, 4),
        ("<=", "<=", 1, 5), ("NAME", "c", 1, 7), (">=", ">=", 1, 8),
        ("NAME", "d", 1, 10), ("!=", "!=", 1, 11), ("NAME", "e", 1, 13),
        ("<", "<", 1, 14), ("NAME", "f", 1, 15), (">", ">", 1, 16),
        ("NAME", "g", 1, 17), ("=", "=", 1, 18), ("NAME", "h", 1, 19),
        ("EOF", None, 1, 20)]),
    ("{};,.()+", [(c, c, 1, i + 1) for i, c in enumerate("{};,.()+")]
     + [("EOF", None, 1, 9)]),
    ("1. 2.5 07 3.x", [("NUMBER", 1.0, 1, 1), ("NUMBER", 2.5, 1, 4),
                       ("NUMBER", 7, 1, 8), ("NUMBER", 3.0, 1, 11),
                       ("NAME", "x", 1, 13), ("EOF", None, 1, 14)]),
    # a backslash takes the next character verbatim
    (r'"a\"b\\c\n" z', [("STRING", 'a"b\\cn', 1, 1), ("NAME", "z", 1, 13),
                        ("EOF", None, 1, 14)]),
    ('""', [("STRING", "", 1, 1), ("EOF", None, 1, 3)]),
    ("\tüber_1 _x", [("NAME", "über_1", 1, 2), ("NAME", "_x", 1, 9),
                     ("EOF", None, 1, 11)]),
    # a line break inside a string starts a new line
    ('"a\\\nb" c', [("STRING", "a\nb", 1, 1), ("NAME", "c", 2, 4),
                    ("EOF", None, 2, 5)]),
    # a dot with blanks or a comment beside it, or with no name after it,
    # is a token of its own
    ("A . b", [("NAME", "A", 1, 1), (".", ".", 1, 3), ("NAME", "b", 1, 5),
               ("EOF", None, 1, 6)]),
    ("A.# c\n b", [("NAME", "A", 1, 1), (".", ".", 1, 2),
                   ("NAME", "b", 2, 2), ("EOF", None, 2, 3)]),
    ("A.", [("NAME", "A", 1, 1), (".", ".", 1, 2), ("EOF", None, 1, 3)]),
    ("A..b", [("NAME", "A", 1, 1), (".", ".", 1, 2), (".", ".", 1, 3),
              ("NAME", "b", 1, 4), ("EOF", None, 1, 5)]),
    ("A.1", [("NAME", "A", 1, 1), (".", ".", 1, 2), ("NUMBER", 1, 1, 3),
             ("EOF", None, 1, 4)]),
    ("1.5.x", [("NUMBER", 1.5, 1, 1), (".", ".", 1, 4), ("NAME", "x", 1, 5),
               ("EOF", None, 1, 6)]),
])
def test_tokenizer_table(text, expected):
    stream = _stream(text)
    assert stream == expected
    assert [type(t[1]) for t in stream] == [type(t[1]) for t in expected]


@pytest.mark.parametrize("text, expected", [
    ("A", True), ("_x", True), ("über_1", True), ("thimac", True),
    ("", False), ("A b", False), ("A ", False), (" A", False),
    ("x.y", False), ("2go", False), ("²a", False), ("a-b", False),
    ("a→", False), ("→", False), ('"a"', False), ("a#b", False),
    ("1.5x", False), ("9" * 400, False),
])
def test_is_name_is_the_lexers_name_rule(text, expected):
    assert is_name(text) is expected
    if expected:
        assert dsl._tokenize(text)[0] == ("NAME", text)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=st.sampled_from(
    [*"abcxyzABCXYZ", *"0123456789", *"_. \t\n#", *"éß²½", "\u0301"]),
    max_size=8))
@example("é.")
@example(".é")
@example("a.é.")
def test_is_name_holds_exactly_for_a_text_lexed_as_one_name(text):
    try:
        one_name = dsl._tokenize(text) == [("NAME", text), ("EOF", None)]
    except dsl.ParseError:
        one_name = False
    assert is_name(text) is one_name


@pytest.mark.parametrize("text, line, col, message", [
    ('a\n  "abc', 2, 3, "unterminated string literal"),
    ('a\n  "abc\nd"', 2, 3, "unterminated string literal"),
    ('"abc\\', 1, 1, "unterminated string literal"),
    ("a\n b ! c", 2, 4, "unexpected character '!'"),
    ("a :", 1, 3, "unexpected character ':'"),
    ("a ½", 1, 3, "unexpected character '½'"),
    ("store = ²;", 1, 9, "unexpected character '²'"),
])
def test_tokenizer_error_positions(text, line, col, message):
    with pytest.raises(dsl.ParseError) as exc:
        dsl.parse(text)  # lexed whole before any parsing
    assert (exc.value.line, exc.value.column, exc.value.message) == \
        (line, col, message)


_EVENT = "thimac A { store = 1; create; } event E covers"
#: A path that a parser check meets, at each check site, and the error of
#: the one-name-a-token reference
_SPLIT_AT_A_CHECK = [
    ("thimac.x A { }", 1, 7, "expected 'NAME', found '.'"),
    ("thimac A specializes.x { }", 1, 21, "expected '{', found '.'"),
    ("thimac A { store.x; }", 1, 17, "expected ';', found '.'"),
    ("thimac A { create.x; }", 1, 18, "expected ';', found '.'"),
    ("thimac A { store = x.y; }", 1, 20, "expected a literal, found 'x'"),
    (f"{_EVENT}.x {{ A.create }};", 1, 47, "expected '{', found '.'"),
    (f"{_EVENT} {{ A.create }} input.x;", 1, 66,
     "expected 'NAME', found '.'"),
    (f"{_EVENT} {{ A.create }} guard.x;", 1, 66,
     "expected an expression, found '.'"),
    (f"{_EVENT} {{ A.create }} guard A = 1 and.x;", 1, 76,
     "expected an expression, found '.'"),
    (f"{_EVENT} {{ A.create }} guard A = 1 or.B;", 1, 75,
     "expected an expression, found '.'"),
    (f"{_EVENT} {{ A.create }} guard A B.c;", 1, 69,
     "expected ';', found 'B'"),
    ("terminal A.b;", 1, 11, "expected ';', found '.'"),
    ("repeatable A, B.c;", 1, 16, "expected ';', found '.'"),
    ("behavior { A -> B.c; }", 1, 18, "expected ';', found '.'"),
    # a path headed by each keyword the parser compares a name with
    ("flow.x A -> B;", 1, 5, "expected 'NAME', found '.'"),
    ("trigger.x A --> B;", 1, 8, "expected 'NAME', found '.'"),
    ("event.x E covers { A.create };", 1, 6, "expected 'NAME', found '.'"),
    ("behavior.x { }", 1, 9, "expected '{', found '.'"),
    ("terminal.x E;", 1, 9, "expected 'NAME', found '.'"),
    ("repeatable.x E;", 1, 11, "expected 'NAME', found '.'"),
    ("thimac A { thimac.x B { } }", 1, 18, "expected 'NAME', found '.'"),
    ("thimac A { process.x; }", 1, 19, "expected ';', found '.'"),
    ("thimac A { release.x; }", 1, 19, "expected ';', found '.'"),
    ("thimac A { transfer.x; }", 1, 20, "expected ';', found '.'"),
    ("thimac A { receive.x; }", 1, 19, "expected ';', found '.'"),
    ("thimac A { create; } event E covers.x { A.create };", 1, 36,
     "expected '{', found '.'"),
]


@pytest.mark.parametrize("text, line, col, message", [
    # the whole file is lexed first, so a lexical error wins over an
    # earlier syntax error
    ("thimac { ! }", 1, 10, "unexpected character '!'"),
    ("thimac A {\r\n  store;\r\n  store;\r\n}", 3, 3,
     "store re-declared in 'A'"),
    ("thimac A { create; }\nevent E covers { A.create # open", 2, 27,
     "expected '}', found None"),
    ("thimac A { store = 1; create; }\r\n"
     "event E covers { A.create }\r\n  guard A = 2;", 3, 3,
     "guard on event 'E' is unused: it has no incoming behavior edge"),
    ('"a\\\nb" !', 2, 4, "unexpected character '!'"),
    # a dotted path where one name, a keyword or a literal is expected
    ("thimac A.b { }", 1, 9, "expected '{', found '.'"),
    ("thimac A { create; } event E.x covers { A.create };", 1, 29,
     "expected 'covers', found '.'"),
    ("behavior { A.b -> C; }", 1, 13, "expected '->', found '.'"),
    ("thimac A { store = 0; process = A := true.x + 1; }", 1, 42,
     "expected ';', found '.'"),
    ("thimac A { store = 0; process = A := false.x; }", 1, 43,
     "expected ';', found '.'"),
    ("thimac A { store = 1; create; } event E covers { A.create } "
     "guard not.x = 1;", 1, 70, "expected an expression, found '.'"),
    ("thimac A { store = 1; create; } event E covers { A.create }; "
     "behavior { E -> E guard not.x = 1; }", 1, 89,
     "expected an expression, found '.'"),
    ("flow A.²b -> C;", 1, 8, "unexpected character '²'"),
    ("flow A. -> B;", 1, 9, "expected 'NAME', found '->'"),
    ("flow A..b -> B;", 1, 8, "expected 'NAME', found '.'"),
    ("flow A.1 -> B;", 1, 8, "expected 'NAME', found 1"),
    ("thimac A { store = 1.5.x; }", 1, 23, "expected ';', found '.'"),
    # a path split where one name, a keyword or a literal is expected
    *_SPLIT_AT_A_CHECK,
])
def test_parse_error_positions(text, line, col, message):
    with pytest.raises(dsl.ParseError) as exc:
        dsl.parse(text)
    assert (exc.value.line, exc.value.column, exc.value.message) == \
        (line, col, message)


def _outcome(parse, text):
    """What `parse` makes of `text`: the model, or the error it raises."""
    try:
        return parse(text)
    except dsl.ParseError as exc:
        return ("ParseError", exc.line, exc.column, exc.message, exc.expected)
    except TmError as exc:
        return (type(exc).__name__, str(exc))


#: What the mutations below put in: names that are keywords somewhere,
#: characters `\w` admits but no name starts with, and the blanks and
#: comments that may stand around a `.`
_KEYWORDS = ["thimac", "flow", "trigger", "event", "behavior", "terminal",
             "repeatable", "store", "create", "process", "release",
             "transfer", "receive", "specializes", "covers", "input",
             "guard", "and", "or", "not", "true", "false"]
_BAD = ["²", "½"]
_GAPS = [" ", "\n", "\t", "# c\n", " # c\n "]


@st.composite
def _mutated_fixtures(draw):
    """A fixture's text with a few lexemes changed, in the ways a dotted
    lexeme could parse apart from its one-name-a-token reading."""
    text = corpus.fixture_text(draw(st.sampled_from(corpus.FIXTURES)))
    for _ in range(draw(st.integers(1, 3))):
        spans = [m.span(1) for m in dsl_reference._lexeme_matches(text)
                 if m.group(1) is not None]
        start, end = draw(st.sampled_from(spans))
        lexeme = text[start:end]
        how = draw(st.sampled_from(
            ["gap", "keyword", "bad", "delete", "duplicate"]))
        if how == "gap" and lexeme == ".":
            text = (text[:start] + draw(st.sampled_from(["", *_GAPS]))
                    + "." + draw(st.sampled_from(["", *_GAPS])) + text[end:])
        elif how == "keyword":
            text = text[:start] + draw(st.sampled_from(_KEYWORDS)) + text[end:]
        elif how == "bad":
            at = draw(st.integers(start, end))
            text = text[:at] + draw(st.sampled_from(_BAD)) + text[at:]
        elif how == "delete":
            text = text[:start] + text[end:]
        elif how == "duplicate":
            text = text[:end] + " " + lexeme + text[end:]
    return text


#: Random lexemes, glued or apart, alone or where a path, an update
#: rule or a guard goes, so that some of them parse
_SOUP = st.lists(st.sampled_from([
    "A", "b", "A.b", "b.c", *_KEYWORDS, "not.b", "true.A", "false.b.c",
    "A.not", "A.true", *_BAD,
    ".", "..", "{", "}", ";", ",", "(", ")", "=", ":=", "->", "-->", "→",
    "<", "+", "-", "1", "2.5", '"s"', *_GAPS, ""]),
    max_size=8).map("".join)
_CONTEXTS = st.sampled_from([
    "%s",
    "thimac A { transfer; receive; } flow %s -> A.receive;",
    "thimac A { store = 0; process = A := %s; }",
    "thimac A { store = 0; create; } event E covers { A.create };\n"
    "behavior { E -> E guard %s; }",
])


def _each_example(texts):
    """`@example(text)` for each of `texts`."""
    def apply(test):
        for text in texts:
            test = example(text)(test)
        return test
    return apply


@settings(max_examples=400, deadline=None)
@given(st.one_of(_mutated_fixtures(),
                 st.builds(operator.mod, _CONTEXTS, _SOUP)))
@example("thimac A { store = 0; process = A := true.A + 1; }")
@example("thimac A { store = 0; process = A := false.b; }")
@example("thimac A { store = 0; create; } event E covers { A.create };\n"
         "behavior { E -> E guard not.b = 1; }")
@_each_example([text for text, *_ in _SPLIT_AT_A_CHECK])
def test_parse_agrees_with_the_one_name_a_token_reference(text):
    assert _outcome(dsl.parse, text) == \
        _outcome(dsl_reference.parse, text)


def test_the_lexer_splits_a_path_headed_by_a_keyword_and_no_other():
    for keyword in _KEYWORDS:
        assert dsl._tokenize(f"{keyword}.x.y") == \
            dsl._tokenize(f"{keyword} . x.y"), keyword
    assert dsl._tokenize("A.b") == [("PATH", "A.b"), ("EOF", None)]


@pytest.mark.parametrize("tail, error", [
    ("thimac {", "197:8: expected 'NAME', found '{'"),
    ("thimac A.b { }", "197:9: expected '{', found '.'"),
])
def test_a_failing_text_is_lexed_and_parsed_once(monkeypatch, tail, error):
    calls = []

    def counted(function):
        def call(*args):
            calls.append(function.__name__)
            return function(*args)
        return call

    monkeypatch.setattr(dsl, "_tokenize", counted(dsl._tokenize))
    monkeypatch.setattr(dsl._Parser, "parse_file",
                        counted(dsl._Parser.parse_file))
    with pytest.raises(dsl.ParseError) as exc:
        dsl.parse(corpus.fixture_text("bank") + tail)
    assert str(exc.value) == error
    assert calls == ["_tokenize", "parse_file"]


def test_the_first_lexical_error_is_found_in_linear_time():
    # one scan for the first bad lexeme, not one per distinct bad lexeme
    text = ("thimac A {}\n" * 20_000
            + " ".join(map(chr, range(0x2200, 0x2200 + 2_000))))
    start = time.perf_counter()
    with pytest.raises(dsl.ParseError) as exc:
        dsl.parse(text)
    assert time.perf_counter() - start < 1
    assert str(exc.value) == "20001:1: unexpected character '∀'"


def test_literal_errors_keep_their_messages():
    with pytest.raises(dsl.ParseError) as exc:
        dsl.parse("thimac A { store = x; }")
    assert exc.value.expected == ["NUMBER", "STRING", "true", "false"]
    with pytest.raises(dsl.ParseError) as exc:
        dsl.parse("thimac A { store = 0; process = A := ; }")
    assert exc.value.expected == ["NUMBER", "STRING", "NAME", "("]
    static, _, _ = dsl.parse(
        "thimac A { store = -2; process = A := A - -1.5 + true; }")
    assert static.thimacs[0].store.value == -2
    rule = static.actions["A.process"].update[1]
    assert rule == Chain(PathRef("A"), (("-", Lit(-1.5)), ("+", Lit(True))))
    assert rule.rest[1][1].value is True


def test_guard_on_entry_event_is_rejected():
    src = ("thimac A { store = 1; create; }\n"
           "event E covers { A.create } guard A = 2;\n")
    with pytest.raises(dsl.ParseError) as exc:
        dsl.parse(src)
    assert (exc.value.line, exc.value.column) == (2, 29)
    with pytest.raises(dsl.ParseError):
        dsl.parse(src + "event F covers { A.create };\n"
                        "behavior { E -> F; }\n")


def test_guard_overridden_by_every_edge_guard_is_rejected():
    src = ("thimac A { store = 1; thimac B { store = 1; create; } }\n"
           "event D covers { A.B.create };\n"
           "event E covers { A.B.create } guard A = 2;\n"
           "behavior { D -> E guard A.B = 1; }\n")
    with pytest.raises(dsl.ParseError) as exc:
        dsl.parse(src)
    assert (exc.value.line, exc.value.column) == (3, 31)
    assert "every incoming behavior edge has its own guard" in str(exc.value)
    # with one unguarded incoming edge the event guard lands there
    _, _, behavior = dsl.parse(src.replace("behavior { ",
                                           "behavior { D -> E; "))
    assert to_text(behavior.edges[0].guard) == "A = 2"
    assert to_text(behavior.edges[1].guard) == "A.B = 1"


def test_float_literals_print_without_exponent():
    src = ("thimac A { store = 10000000000000000.0; }\n"
           "thimac B { store = 0.00001; }\n")
    static, _, _ = dsl.parse(src)
    text = dsl.print_text(static)
    assert "store = 10000000000000000.0;" in text
    assert "store = 0.00001;" in text
    assert dsl.parse(text)[0] == static
    with pytest.raises(dsl.ParseError, match="1:20: number too long"):
        dsl.parse("thimac A { store = " + "9" * 400 + ".; }")


def test_an_integer_literal_is_bounded_by_the_largest_float():
    top = int(sys.float_info.max)
    static, _, _ = dsl.parse(f"thimac A {{ store = {top}; }}")
    assert static.thimacs[0].store.value == top
    static, _, _ = dsl.parse(f"thimac A {{ store = -{top}; }}")
    assert static.thimacs[0].store.value == -top
    with pytest.raises(dsl.ParseError) as exc:
        dsl.parse(f"thimac A {{ store = {top + 1}; }}")
    assert str(exc.value) == "1:20: number too long: 309 digits"
    # leading zeros do not count against the bound
    static, _, _ = dsl.parse("thimac A { store = " + "0" * 399 + "1; }")
    assert static.thimacs[0].store.value == 1
    assert type(static.thimacs[0].store.value) is int


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_floats_print_as_their_exact_decimal_digits(value):
    text = expr._lit_text(value)
    expected = format(decimal.Decimal(repr(value)), "f")
    assert text == (expected if "." in expected else expected + ".0")
    assert float(text) == value
