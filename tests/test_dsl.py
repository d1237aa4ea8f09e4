import pytest

from tmkit import corpus, dsl
from tmkit.model import ActionKind, canonicalize

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


def test_process_update_rule_parses():
    static, _, _ = dsl.parse(
        "thimac A { store = 0; process = A := A + 1; }")
    action = static.actions["A.process"]
    assert action.kind is ActionKind.PROCESS
    target, rule = action.update
    assert target == "A"


def test_update_rule_only_on_process():
    with pytest.raises(dsl.ParseError):
        dsl.parse("thimac A { store = 0; create = A := 1; }")


def test_print_empty_model():
    static, events, behavior = dsl.parse("")
    assert dsl.print_text(static, events, behavior) == "\n"


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
    assert behavior.edges[0].guard.op == "and"


def _stream(text):
    return [(t.type, t.value, t.line, t.col)
            for t in dsl._tokenize(dsl.SourceUnit(text))]


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
])
def test_tokenizer_table(text, expected):
    stream = _stream(text)
    assert stream == expected
    assert [type(t[1]) for t in stream] == [type(t[1]) for t in expected]


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
        dsl._tokenize(dsl.SourceUnit(text))
    assert (exc.value.line, exc.value.column, exc.value.message) == \
        (line, col, message)


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
    assert static.actions["A.process"].update[1].right.value is True


def test_guard_on_entry_event_is_rejected():
    src = ("thimac A { store = 1; create; }\n"
           "event E covers { A.create } guard A = 2;\n")
    with pytest.raises(dsl.ParseError) as exc:
        dsl.parse(src)
    assert (exc.value.line, exc.value.column) == (2, 29)
    with pytest.raises(dsl.ParseError):
        dsl.parse(src + "event F covers { A.create };\n"
                        "behavior { E -> F; }\n")
