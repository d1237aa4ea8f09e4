"""The `.tm` lexer and parser as they were before a dotted path became
one lexeme: one NAME token per path part, and `dsl.parse`'s oracle.

`parse` gives the same models as `dsl.parse` and raises the same
`dsl.ParseError` (line, column, message and `expected`) for every text.
`test_dsl` compares the two, and `test_cli` mutates fixtures one token
at a time with `_lexeme_matches`.
"""

from __future__ import annotations

import itertools
import re

from tmkit import expr as ex
from tmkit import model as md
from tmkit._record import record
from tmkit.dsl import MAX_EXPR_DEPTH, MAX_THIMAC_DEPTH, ParseError
from tmkit.events import BehaviorEdge, build_behavior, eventize

_BOOLEANS = {"true": True, "false": False}

#: Blanks, line breaks and `#` comments, which separate lexemes.
_SKIP = r"[ \t\r\n]*(?:\#[^\n]*[ \t\r\n]*)*"
_SKIP_RE = re.compile(_SKIP)

#: The lexical grammar: one lexeme per match, with the blanks and
#: comments after it; the empty match at the end of the text is EOF.
#: Lexing starts after the blanks and comments that open the text (see
#: `_lexeme_matches`). Names, punctuation, numbers and strings start
#: with different characters, so their order only puts the common ones
#: first; the catch-all error comes last, and longer punctuation comes
#: first, so `-->` wins over `->` over `-`.
_LEXEME_RE = re.compile(r"""
    ( [^\W\d]\w*                                # name
    | -->|->|:=|<=|>=|!=|[<>={};,.()+\-→]       # punctuation
    | \d+(?:\.\d*)?                             # number
    | "(?:[^"\\\n]|\\[\s\S])*"                  # string
    | [^ \t\r\n\#]                              # a lexical error
    )""" + _SKIP + r"""
  | \Z
""", re.VERBOSE)

_COMPARISONS = frozenset(["<=", ">=", "!=", "<", ">", "="])

_PUNCT = frozenset(["-->", "->", ":=", "<=", ">=", "!=", *"<>={};,.()+-"])

_ESCAPE_RE = re.compile(r"\\([\s\S])")


def _lexeme_matches(text: str):
    """The matches of `_LEXEME_RE` over `text`, one per token."""
    return _LEXEME_RE.finditer(text, _SKIP_RE.match(text).end())


def _classify(lexeme: str) -> tuple:
    """The `(type, value)` token of a lexeme, or `("ERROR", message)`.

    A token's type is NAME, NUMBER, STRING, EOF or the punctuation
    itself.
    """
    if not lexeme:
        return ("EOF", None)
    first = lexeme[0]
    if lexeme in _PUNCT:
        return (lexeme, lexeme)
    if lexeme == "→":
        return ("->", "->")
    if first == '"':
        if len(lexeme) == 1:  # no closing quote on this line
            return ("ERROR", "unterminated string literal")
        return ("STRING", _ESCAPE_RE.sub(r"\1", lexeme[1:-1]))
    if first.isdecimal():  # what `\d` matches
        try:
            value = float(lexeme) if "." in lexeme else int(lexeme)
            if ex.in_range(value):
                return ("NUMBER", value)
        except ValueError:  # not a number (`is_name("2go")`), or more
            pass  # digits than int() reads (4300)
        return ("ERROR", f"number too long: {len(lexeme)} digits")
    # `\w` admits digits such as '²' that str.isalpha() rejects
    if first.isalpha() or first == "_":
        return ("NAME", lexeme)
    return ("ERROR", f"unexpected character {first!r}")


def _tokenize(text: str) -> list[tuple]:
    """The `(type, value)` tokens of the whole text, ending in EOF.

    The first lexical error in the text raises `ParseError`.
    """
    lexemes = _LEXEME_RE.findall(text, _SKIP_RE.match(text).end())
    kinds = {lexeme: _classify(lexeme) for lexeme in set(lexemes)}
    errors = {lexeme for lexeme, (type_, _) in kinds.items()
              if type_ == "ERROR"}
    if errors:
        first = lexemes.index(next(filter(errors.__contains__, lexemes)))
        raise ParseError(*_position(text, first), kinds[lexemes[first]][1])
    return list(map(kinds.__getitem__, lexemes))


def _position(text: str, index: int) -> tuple[int, int]:
    """(line, column) of token `index` of `text`, found by lexing again.

    A comment at the end of the text does not move the EOF position.
    """
    matches = _lexeme_matches(text)
    lexeme_end = 0
    for match in itertools.islice(matches, index):
        lexeme_end = match.end(1)
    match = next(matches)
    offset = match.start()
    if match.group(1) is None:  # EOF: at a comment on the last line, if any
        comment = text.find("#", max(lexeme_end, text.rfind("\n") + 1))
        if comment >= 0:
            offset = comment
    line_start = text.rfind("\n", 0, offset) + 1
    return text.count("\n", 0, offset) + 1, offset - line_start + 1


@record
class _EventDecl:
    id: str
    label: str
    covers: list[str]
    input_path: str | None
    guard: ex.Expr | None
    guard_at: int  # token index where a guard starts, for error positions


class _Parser:
    def __init__(self, text: str, tokens: list[tuple]):
        self.text = text
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # the `(` and `not` open in the expression read

    # -- token plumbing --

    def error(self, index: int, message: str, expected=()) -> ParseError:
        """A `ParseError` at token `index`."""
        return ParseError(*_position(self.text, index), message, expected)

    def next(self):
        """Consume the next token and return its value."""
        self.pos += 1
        return self.tokens[self.pos - 1][1]

    def at(self, type_: str, value=None) -> bool:
        tok = self.tokens[self.pos]
        return tok[0] == type_ and (value is None or tok[1] == value)

    def take(self, type_: str, value=None) -> bool:
        """Consume the next token if it matches and say whether it did."""
        tok = self.tokens[self.pos]
        if tok[0] == type_ and (value is None or tok[1] == value):
            self.pos += 1
            return True
        return False

    def expect(self, type_: str, value=None):
        """Consume the next token, which must match, and return its value."""
        tok = self.tokens[self.pos]
        if tok[0] == type_ and (value is None or tok[1] == value):
            self.pos += 1
            return tok[1]
        want = value if value is not None else type_
        raise self.error(self.pos, f"expected {want!r}, found {tok[1]!r}",
                         expected=[want])

    def enter(self):
        """Count the `(` or `not` just taken as one more level open."""
        if self.depth == MAX_EXPR_DEPTH:
            raise self.error(self.pos - 1, "nesting too deep")
        self.depth += 1

    def keyword(self):
        """The next token's name, or None if it is not a NAME."""
        type_, value = self.tokens[self.pos]
        return value if type_ == "NAME" else None

    # -- grammar --

    def parse_file(self):
        thimacs, actions = [], []
        flows, triggers = [], []
        event_decls: list[_EventDecl] = []
        behavior_edges = None
        terminals, repeatable = [], []
        while not self.at("EOF"):
            word = self.keyword()
            if word == "thimac":
                thimacs.append(self.parse_thimac("", actions))
            elif word == "flow":
                flows.append(self.parse_edge("flow", "->", md.FlowEdge))
            elif word == "trigger":
                triggers.append(
                    self.parse_edge("trigger", "-->", md.TriggerEdge))
            elif word == "event":
                event_decls.append(self.parse_event())
            elif word == "behavior":
                if behavior_edges is not None:
                    raise self.error(self.pos, "behavior block re-declared")
                behavior_edges = self.parse_behavior()
            elif word == "terminal":
                terminals.extend(self.parse_event_list("terminal"))
            elif word == "repeatable":
                repeatable.extend(self.parse_event_list("repeatable"))
            else:
                found = self.tokens[self.pos][1]
                raise self.error(
                    self.pos, f"expected a declaration, found {found!r}",
                    expected=["thimac", "flow", "trigger", "event",
                              "behavior", "terminal", "repeatable"])
        self.expect("EOF")
        return (thimacs, actions, flows, triggers, event_decls,
                behavior_edges, terminals, repeatable)

    def parse_thimac(self, prefix: str, actions, depth=1) -> md.Thimac:
        if depth > MAX_THIMAC_DEPTH:
            raise self.error(self.pos, "nesting too deep")
        self.expect("NAME", "thimac")
        name = self.expect("NAME")
        path = f"{prefix}.{name}" if prefix else name
        specializes = self.take("NAME", "specializes")
        self.expect("{")
        store = None
        kinds = set()
        subthimacs = []
        while not self.at("}"):
            start = self.pos
            word = self.keyword()
            if word == "thimac":
                subthimacs.append(self.parse_thimac(path, actions, depth + 1))
            elif word == "store":
                if store is not None:
                    raise self.error(start, f"store re-declared in '{path}'")
                self.pos += 1
                store = md.Store(self.parse_literal() if self.take("=")
                                 else None)
                self.expect(";")
            elif word in md.KIND_ORDER:
                if word in kinds:
                    raise self.error(start, f"{word} re-declared in '{path}'")
                self.pos += 1
                update = None
                if self.take("="):
                    if word != "process":
                        raise self.error(
                            start, "only process actions take an update rule")
                    target = self.parse_path()
                    self.expect(":=")
                    update = (target, self.parse_additive())
                self.expect(";")
                actions.append(md.Action(path, word, update))
                kinds.add(word)
            else:
                found = self.tokens[start][1]
                raise self.error(
                    start, f"expected a thimac member, found {found!r}",
                    expected=["thimac", "store",
                              *sorted(md.KIND_ORDER), "}"])
        self.expect("}")
        return md.Thimac(name, specializes, store, tuple(subthimacs))

    def parse_edge(self, keyword, arrow, factory):
        self.expect("NAME", keyword)
        src = self.parse_path()
        self.expect(arrow)
        dst = self.parse_path()
        self.expect(";")
        return factory(src, dst)

    def parse_event(self) -> _EventDecl:
        self.expect("NAME", "event")
        event_id = self.expect("NAME")
        label = self.next() if self.at("STRING") else event_id
        self.expect("NAME", "covers")
        self.expect("{")
        covers = [self.parse_path()]
        while self.take(","):
            if self.at("}"):
                break
            covers.append(self.parse_path())
        self.expect("}")
        input_path = self.parse_path() if self.take("NAME", "input") else None
        guard_at = self.pos
        guard = self.parse_or() if self.take("NAME", "guard") else None
        self.expect(";")
        return _EventDecl(event_id, label, covers, input_path, guard,
                          guard_at)

    def parse_behavior(self) -> list[BehaviorEdge]:
        self.expect("NAME", "behavior")
        self.expect("{")
        edges = []
        while not self.at("}"):
            src = self.expect("NAME")
            self.expect("->")
            dst = self.expect("NAME")
            guard = self.parse_or() if self.take("NAME", "guard") else None
            self.expect(";")
            edges.append(BehaviorEdge(src, dst, guard))
        self.expect("}")
        return edges

    def parse_event_list(self, keyword) -> list[str]:
        self.expect("NAME", keyword)
        names = [self.expect("NAME")]
        while self.take(","):
            names.append(self.expect("NAME"))
        self.expect(";")
        return names

    def parse_path(self) -> str:
        path = self.expect("NAME")
        while self.tokens[self.pos][0] == ".":
            self.pos += 1
            path += "." + self.expect("NAME")
        return path

    def take_literal(self):
        """Consume a literal and return its value, or return None."""
        type_, value = self.tokens[self.pos]
        if type_ == "NUMBER" or type_ == "STRING":
            self.pos += 1
            return value
        if type_ == "NAME" and value in _BOOLEANS:
            self.pos += 1
            return _BOOLEANS[value]
        if type_ == "-":
            self.pos += 1
            return -self.expect("NUMBER")
        return None

    def parse_literal(self):
        value = self.take_literal()
        if value is None:
            raise self.error(
                self.pos,
                f"expected a literal, found {self.tokens[self.pos][1]!r}",
                expected=["NUMBER", "STRING", "true", "false"])
        return value

    # -- expressions --

    def parse_or(self) -> ex.Expr:
        first, rest = self.parse_and(), []
        while self.take("NAME", "or"):
            rest.append(("or", self.parse_and()))
        return ex.chain(first, rest)

    def parse_and(self) -> ex.Expr:
        first, rest = self.parse_not(), []
        while self.take("NAME", "and"):
            rest.append(("and", self.parse_not()))
        return ex.chain(first, rest)

    def parse_not(self) -> ex.Expr:
        if self.take("NAME", "not"):
            self.enter()
            operand = self.parse_not()
            self.depth -= 1
            return ex.Unary("not", operand)
        return self.parse_comparison()

    def parse_comparison(self) -> ex.Expr:
        left = self.parse_additive()
        op = self.tokens[self.pos][0]
        if op in _COMPARISONS:
            self.pos += 1
            return ex.Binary(op, left, self.parse_additive())
        return left

    def parse_additive(self) -> ex.Expr:
        first, rest = self.parse_primary(), []
        while self.tokens[self.pos][0] in ("+", "-"):
            rest.append((self.next(), self.parse_primary()))
        return ex.chain(first, rest)

    def parse_primary(self) -> ex.Expr:
        value = self.take_literal()
        if value is not None:
            return ex.Lit(value)
        if self.take("("):
            self.enter()
            inner = self.parse_or()
            self.expect(")")
            self.depth -= 1
            return inner
        if self.at("NAME"):
            return ex.PathRef(self.parse_path())
        raise self.error(
            self.pos,
            f"expected an expression, found {self.tokens[self.pos][1]!r}",
            expected=["NUMBER", "STRING", "NAME", "("])


def parse(text: str):
    """Parse DSL text into a model, declared events, and a chronology."""
    parser = _Parser(text, _tokenize(text))
    try:
        (thimacs, actions, flows, triggers, event_decls, behavior_edges,
         terminals, repeatable) = parser.parse_file()
    except RecursionError:
        raise parser.error(parser.pos, "nesting too deep") from None
    static = md.build_model(thimacs, actions, flows, triggers)

    events = [eventize(static, d.id, d.label, d.covers, d.input_path)
              for d in event_decls]
    behavior = None
    # an event guard is moved onto its incoming behavior edges that have
    # no guard of their own; with no such edge it would be dropped
    if behavior_edges is not None or terminals or repeatable:
        guards = {d.id: d.guard for d in event_decls}
        edges = [e if e.guard is not None or guards.get(e.dst) is None
                 else BehaviorEdge(e.src, e.dst, guards[e.dst])
                 for e in behavior_edges or ()]
        behavior = build_behavior(events, edges, terminals, repeatable)
    incoming = behavior.incoming if behavior is not None else {}
    for d in event_decls:
        if d.guard is None or any(e.guard is d.guard
                                  for e in incoming.get(d.id, ())):
            continue
        why = ("every incoming behavior edge has its own guard"
               if d.id in incoming else "it has no incoming behavior edge")
        raise parser.error(d.guard_at,
                           f"guard on event '{d.id}' is unused: {why}")
    return static, events, behavior
