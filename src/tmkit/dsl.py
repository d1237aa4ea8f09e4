"""Textual concrete syntax for static models, events, and chronologies.

The `.tm` format is the toolkit's interchange format. `->` declares a
flow, `-->` a trigger (`→` is accepted as an alias for `->` on input),
`#` starts a comment, and dotted paths resolve through thimac nesting.
parse/print round-trip: parse(print_text(m, ...)) equals canonicalize(m)
for every model m that `model.build_model` accepts, unless an expression
in m holds what no text writes (see `expr.to_text`): print_text raises
ModelError for it. A guard or an update rule is read by one method,
`_Parser.parse_expr`, climbing the operator bindings in `expr.BINDING`.

Cost. A text is lexed once, whole, and parsed once. One C-level
`findall` of `_PATH_LEXEME_RE` skips blanks, line breaks and comments
inside the regex and yields one string per lexeme, and a path written
without blanks, `A.b.c`, is one lexeme. Each distinct lexeme is then
classified once into a shared `(type, value)` tuple, and the parser reads
those tuples by index, inline in the loops that run once per member,
edge, cover, path or operand. So that errors are those of one name a
token, a path is split into its head, `.` and the rest at the lexer if
its head is a keyword, and where the parser reads one name, but nowhere
else. No line or column is tracked: a `ParseError` finds its token's
place in one more walk of the lexemes (`_position`).
"""

from __future__ import annotations

import itertools
import re

from . import expr as ex
from . import model as md
from ._record import record
from .errors import TmError
from .events import (BehavioralModel, BehaviorEdge, EventRegion,
                     build_behavior, eventize)
from .model import MAX_THIMAC_DEPTH

#: Blanks, line breaks and `#` comments, which separate lexemes.
_SKIP = r"[ \t\r\n]*(?:\#[^\n]*[ \t\r\n]*)*"
_SKIP_RE = re.compile(_SKIP)

#: The lexical grammar: one lexeme per match, with the blanks and
#: comments after it; the empty match at the end of the text is EOF.
#: Lexing starts after the blanks and comments that open the text.
#: Names and paths, punctuation, numbers and strings start with different
#: characters, so their order only puts the common ones first; the
#: catch-all error comes last, and `-->` wins over `->` over `-`.
_PATH_LEXEME_RE = re.compile(rf"""(?x)
    ( {md.NAME_PATTERN}(?:\.{md.NAME_PATTERN})* # name or path
    | -->|->|:=|<=|>=|!=|[<>={{}};,.()+\-→]     # punctuation
    | \d+(?:\.\d*)?                             # number
    | "(?:[^"\\\n]|\\[\s\S])*"                  # string
    | [^ \t\r\n\#]                              # a lexical error
    )""" + _SKIP + r"""
  | \Z
""")

#: The words a declaration starts with, in the order errors list them.
_DECLARATIONS = ("thimac", "flow", "trigger", "event", "behavior",
                 "terminal", "repeatable")
#: Every word the parser compares a NAME token with. The lexer splits a
#: path headed by one, so that no such check meets a path.
_KEYWORDS = {*_DECLARATIONS, "store", *md.KIND_ORDER, "specializes", "covers",
             "input", "guard", "and", "or", "not", *ex.BOOLEANS}

#: The `.` token of a split path, told from a `.` lexeme by identity.
_SPLIT_DOT = (".", ".")

#: kind -> its place in `KIND_ORDER`, where `print_text` puts it
_KIND_RANK = {kind: i for i, kind in enumerate(md.KIND_ORDER)}

#: A binary operator's token -> its binding, from `ex.BINDING`.
_BINDING = {("NAME", op) if op.isalpha() else (op, op): binding
            for op, binding in ex.BINDING.items()}

_PUNCT = frozenset(["-->", "->", ":=", "<=", ">=", "!=", *"<>={};,.()+-"])

_ESCAPE_RE = re.compile(r"\\([\s\S])")

#: How deep `(` and `not` may nest in a guard or an update rule, each
#: counting one level. Every command and every `expr` function handles an
#: expression this deep in a fresh interpreter; one level deeper is the
#: parse error `nesting too deep`.
MAX_EXPR_DEPTH = 100


@record
class SourceUnit:
    text: str


class ParseError(TmError):
    def __init__(self, line: int, column: int, message: str, expected=()):
        self.line = line
        self.column = column
        self.message = message
        self.expected = list(expected)
        super().__init__(f"{line}:{column}: {message}")


def _classify(lexeme: str) -> tuple:
    """The `(type, value)` token of a lexeme: NAME, PATH (dotted names),
    NUMBER, STRING, EOF or the punctuation itself. A path headed by a
    keyword is SPLIT, with its tokens as value (see `_split`), since one
    name a token reads its head as that keyword. A lexeme that is no
    token is ERROR: (message, offset of its bad part).
    """
    first = lexeme[:1]
    # in ASCII, `[^\W\d]` is a letter or `_`, so each part is a name
    if not ((first.isalpha() or first == "_") and lexeme.isascii()):
        if not lexeme:
            return ("EOF", None)
        if lexeme in _PUNCT:
            return (lexeme, lexeme)
        if lexeme == "→":
            return ("->", "->")
        if first == '"':
            if len(lexeme) == 1:  # no closing quote on this line
                return ("ERROR", ("unterminated string literal", 0))
            return ("STRING", _ESCAPE_RE.sub(r"\1", lexeme[1:-1]))
        if first.isdecimal():  # what `\d` matches
            try:
                value = float(lexeme) if "." in lexeme else int(lexeme)
                if ex.in_range(value):
                    return ("NUMBER", value)
            except ValueError:  # more digits than int() reads (4300)
                pass
            return ("ERROR", (f"number too long: {len(lexeme)} digits", 0))
        at = 0
        for part in lexeme.split("."):
            if not md.is_name(part):
                return ("ERROR", (f"unexpected character {part[:1]!r}", at))
            at += len(part) + 1
    if "." not in lexeme:
        return ("NAME", lexeme)
    return (("SPLIT", _split(lexeme)) if lexeme.partition(".")[0] in _KEYWORDS
            else ("PATH", lexeme))


def _split(path: str) -> list[tuple]:
    """The tokens of a path's head name, `.` and the rest of the path."""
    head, rest = path.split(".", 1)
    return [("NAME", head), _SPLIT_DOT, ("PATH" if "." in rest else "NAME",
                                         rest)]


def _tokenize(text: str) -> list[tuple]:
    """The `(type, value)` tokens of the whole text, ending in EOF: one
    `findall` of `_PATH_LEXEME_RE`, one `_classify` per distinct lexeme,
    and the tokens of each SPLIT lexeme in its place. The first lexical
    error raises `ParseError` at its place."""
    lexemes = _PATH_LEXEME_RE.findall(text, _SKIP_RE.match(text).end())
    kinds = {lexeme: _classify(lexeme) for lexeme in set(lexemes)}
    tokens = list(map(kinds.__getitem__, lexemes))
    types = {type_ for type_, _ in kinds.values()}
    if "ERROR" in types:
        index = next(i for i, tok in enumerate(tokens) if tok[0] == "ERROR")
        message, at = tokens[index][1]
        line, column = _position(text, tokens, index)
        raise ParseError(line, column + at, message)  # a lexeme is one line
    if "SPLIT" in types:
        tokens = [part for token in tokens
                  for part in (token[1] if token[0] == "SPLIT" else (token,))]
    return tokens


def _position(text: str, tokens: list[tuple], index: int) -> tuple[int, int]:
    """(line, column) of `tokens[index]`, the tokens of `text`, in one walk
    of its lexemes, where the parts of a split path are one lexeme. A
    comment at the end of the text does not move the EOF position."""
    first = index  # the first token of the lexeme that holds the token
    while first and (tokens[first] is _SPLIT_DOT
                     or tokens[first - 1] is _SPLIT_DOT):
        first -= 1
    lexeme = first - 2 * sum(token is _SPLIT_DOT for token in tokens[:first])
    matches = _PATH_LEXEME_RE.finditer(text, _SKIP_RE.match(text).end())
    lexeme_end = (next(itertools.islice(matches, lexeme - 1, None)).end(1)
                  if lexeme else 0)
    match = next(matches)
    offset = match.start() + sum(len(part) for _, part in tokens[first:index])
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
        return ParseError(*_position(self.text, self.tokens, index), message,
                          expected)

    def split(self) -> bool:
        """Split a PATH next token into its head, `.` and rest, and say if it
        was one: to read one name (`expect`) or to report the head
        (`unexpected`). The grammar reads a `.` after a name only in a
        path, so what follows meets what one name a token meets."""
        type_, path = self.tokens[self.pos]
        if type_ != "PATH":
            return False
        self.tokens[self.pos:self.pos + 1] = _split(path)
        return True

    def unexpected(self, want: str, expected=None) -> ParseError:
        """The error for the next token, where the token `want`, or what
        `want` names and `expected` lists, was expected."""
        self.split()
        found = self.tokens[self.pos][1]
        if expected is None:
            want, expected = repr(want), [want]
        return self.error(self.pos, f"expected {want}, found {found!r}",
                          expected)

    def take(self, type_: str, value=None) -> bool:
        """Consume the next token if it matches and say whether it did. It
        splits no path: the lexer splits a path headed by a keyword."""
        tok = self.tokens[self.pos]
        taken = tok[0] == type_ and (value is None or tok[1] == value)
        self.pos += taken
        return taken

    def expect(self, type_: str, value=None):
        """Consume the next token, which must match, and return its value."""
        tok = self.tokens[self.pos]
        if tok[0] == type_ and (value is None or tok[1] == value):
            self.pos += 1
            return tok[1]
        if self.split():
            return self.expect(type_, value)
        raise self.unexpected(value if value is not None else type_)

    def enter(self):
        """Count the `(` or `not` just taken as one more level open."""
        if self.depth == MAX_EXPR_DEPTH:
            raise self.error(self.pos - 1, "nesting too deep")
        self.depth += 1

    # -- grammar --

    def parse_file(self):
        thimacs, actions = [], []
        flows, triggers = [], []
        event_decls: list[_EventDecl] = []
        behavior_edges = None
        terminals, repeatable = [], []
        tokens = self.tokens
        while (token := tokens[self.pos])[0] != "EOF":
            word = token[1] if token[0] == "NAME" else None
            if word == "thimac":
                thimacs.append(self.parse_thimac("", actions))
            elif word == "flow":
                flows.append(self.parse_edge("->", md.FlowEdge))
            elif word == "trigger":
                triggers.append(self.parse_edge("-->", md.TriggerEdge))
            elif word == "event":
                event_decls.append(self.parse_event())
            elif word == "behavior":
                if behavior_edges is not None:
                    raise self.error(self.pos, "behavior block re-declared")
                behavior_edges = self.parse_behavior()
            elif word == "terminal":
                terminals.extend(self.parse_event_list())
            elif word == "repeatable":
                repeatable.extend(self.parse_event_list())
            else:
                raise self.unexpected("a declaration", _DECLARATIONS)
        return (thimacs, actions, flows, triggers, event_decls,
                behavior_edges, terminals, repeatable)

    def parse_thimac(self, prefix: str, actions, depth=1) -> md.Thimac:
        if depth > MAX_THIMAC_DEPTH:
            raise self.error(self.pos, "nesting too deep")
        self.pos += 1  # `thimac`, read by the caller
        name = self.expect("NAME")
        path = f"{prefix}.{name}" if prefix else name
        specializes = self.take("NAME", "specializes")
        self.expect("{")
        tokens = self.tokens
        store = None
        kinds = set()
        subthimacs = []
        while (token := tokens[self.pos])[0] != "}":
            start = self.pos
            word = token[1] if token[0] == "NAME" else None
            if word == "thimac":
                subthimacs.append(self.parse_thimac(path, actions, depth + 1))
                continue
            if word != "store" and word not in md.KIND_ORDER:
                raise self.unexpected("a thimac member", [
                    "thimac", "store", *sorted(md.KIND_ORDER), "}"])
            has_value = tokens[start + 1][0] == "="
            self.pos = start + 1 + has_value
            if word == "store":
                if store is not None:
                    raise self.error(start, f"store re-declared in '{path}'")
                store = md.Store(self.parse_literal() if has_value else None)
            else:
                if word in kinds:
                    raise self.error(start, f"{word} re-declared in '{path}'")
                kinds.add(word)
                update = None
                if has_value:
                    if word != "process":
                        raise self.error(
                            start, "only process actions take an update rule")
                    target = self.parse_path()
                    self.expect(":=")
                    update = (target, self.parse_expr(ex.SUM))
                actions.append(md.Action(path, word, update))
            if tokens[self.pos][0] != ";":
                raise self.unexpected(";")
            self.pos += 1
        self.pos += 1
        return md.Thimac(name, specializes, store, tuple(subthimacs))

    def parse_edge(self, arrow, factory):
        self.pos += 1  # `flow` or `trigger`, read by the caller
        src = self.parse_path()
        tokens = self.tokens
        if tokens[self.pos][0] != arrow:
            raise self.unexpected(arrow)
        self.pos += 1
        dst = self.parse_path()
        if tokens[self.pos][0] != ";":
            raise self.unexpected(";")
        self.pos += 1
        return factory(src, dst)

    def parse_event(self) -> _EventDecl:
        self.pos += 1  # `event`, read by the caller
        event_id = self.expect("NAME")
        label = (self.expect("STRING") if self.tokens[self.pos][0] == "STRING"
                 else event_id)
        self.expect("NAME", "covers")
        self.expect("{")
        covers = [self.parse_path()]
        tokens = self.tokens
        while tokens[self.pos][0] == ",":
            self.pos += 1
            if tokens[self.pos][0] == "}":
                break
            covers.append(self.parse_path())
        self.expect("}")
        input_path = self.parse_path() if self.take("NAME", "input") else None
        guard_at = self.pos
        guard = self.parse_expr() if self.take("NAME", "guard") else None
        self.expect(";")
        return _EventDecl(event_id, label, covers, input_path, guard,
                          guard_at)

    def parse_behavior(self) -> list[BehaviorEdge]:
        self.pos += 1  # `behavior`, read by the caller
        self.expect("{")
        edges = []
        while self.tokens[self.pos][0] != "}":
            src = self.expect("NAME")
            self.expect("->")
            dst = self.expect("NAME")
            guard = self.parse_expr() if self.take("NAME", "guard") else None
            self.expect(";")
            edges.append(BehaviorEdge(src, dst, guard))
        self.expect("}")
        return edges

    def parse_event_list(self) -> list[str]:
        self.pos += 1  # `terminal` or `repeatable`, read by the caller
        names = [self.expect("NAME")]
        while self.take(","):
            names.append(self.expect("NAME"))
        self.expect(";")
        return names

    def parse_path(self) -> str:
        """NAME or PATH tokens joined by `.` tokens, as in `A . b.c`."""
        tokens = self.tokens
        type_, path = tokens[self.pos]
        if type_ != "NAME" and type_ != "PATH":
            raise self.unexpected("NAME")
        self.pos += 1
        while tokens[self.pos][0] == ".":
            self.pos += 1
            type_, part = tokens[self.pos]
            if type_ != "NAME" and type_ != "PATH":
                raise self.unexpected("NAME")
            path += "." + part
            self.pos += 1
        return path

    def take_literal(self):
        """Consume a literal and return its value, or return None."""
        type_, value = self.tokens[self.pos]
        if type_ == "NUMBER" or type_ == "STRING":
            self.pos += 1
            return value
        if type_ == "NAME" and value in ex.BOOLEANS:
            self.pos += 1
            return ex.BOOLEANS[value]
        if type_ == "-":
            self.pos += 1
            return -self.expect("NUMBER")
        return None

    def parse_literal(self):
        value = self.take_literal()
        if value is None:
            raise self.unexpected("a literal",
                                  ["NUMBER", "STRING", *ex.BOOLEANS])
        return value

    # -- expressions --

    def parse_expr(self, loosest=ex.OR) -> ex.Expr:
        """An expression that binds at least as tightly as `loosest`, where
        `not` is the keyword only if `loosest <= NOT`, as `ex.to_text` has
        it. While the next operator's binding lies in `[loosest, bound)`, a
        comparison takes one sum on its right and a run takes operands one
        level tighter; after either, only a looser operator may follow."""
        tokens = self.tokens
        if loosest <= ex.NOT and tokens[self.pos] == ("NAME", "not"):
            self.pos += 1
            self.enter()
            left, bound = ex.Unary("not", self.parse_expr(ex.NOT)), ex.NOT
            self.depth -= 1
        else:
            left, bound = self.parse_primary(), ex.SUM + 1
        while loosest <= (binding := _BINDING.get(tokens[self.pos], -1)) \
                < bound:
            if binding == ex.COMPARISON:
                op = tokens[self.pos][1]
                self.pos += 1
                left = ex.Binary(op, left, self.parse_expr(ex.SUM))
            else:  # a run, whose operands in a sum are primaries
                rest = []
                while _BINDING.get(token := tokens[self.pos]) == binding:
                    self.pos += 1
                    operand = (self.parse_primary() if binding == ex.SUM
                               else self.parse_expr(binding + 1))
                    rest.append((token[1], operand))
                left = ex.chain(left, rest)
            bound = binding
        return left

    def parse_primary(self) -> ex.Expr:
        type_, value = self.tokens[self.pos]
        if type_ == "PATH" or type_ == "NAME" and value not in ex.BOOLEANS:
            return ex.PathRef(self.parse_path())
        value = self.take_literal()
        if value is not None:
            return ex.Lit(value)
        if type_ == "(":
            self.pos += 1
            self.enter()
            inner = self.parse_expr()
            self.expect(")")
            self.depth -= 1
            return inner
        raise self.unexpected("an expression",
                              ["NUMBER", "STRING", "NAME", "("])


def parse(src) -> tuple[md.StaticModel, list[EventRegion],
                        BehavioralModel | None]:
    """Parse DSL text into a model, declared events, and a chronology,
    None if the text declares none; the events are checked either way."""
    text = src.text if isinstance(src, SourceUnit) else src
    parser = _Parser(text, _tokenize(text))
    try:
        (thimacs, actions, flows, triggers, event_decls, behavior_edges,
         terminals, repeatable) = parser.parse_file()
    except RecursionError:
        raise parser.error(parser.pos, "nesting too deep") from None
    static = md.build_model(thimacs, actions, flows, triggers)

    events = [eventize(static, d.id, d.label, d.covers, d.input_path)
              for d in event_decls]
    # an event guard is moved onto its incoming behavior edges that have
    # no guard of their own; with no such edge it would be dropped
    guards = {d.id: d.guard for d in event_decls}
    behavior = build_behavior(events, [
        e if e.guard is not None or guards.get(e.dst) is None
        else BehaviorEdge(e.src, e.dst, guards[e.dst])
        for e in behavior_edges or ()], terminals, repeatable)
    incoming = behavior.incoming
    for d in event_decls:
        if d.guard is None or any(e.guard is d.guard
                                  for e in incoming.get(d.id, ())):
            continue
        why = ("every incoming behavior edge has its own guard"
               if d.id in incoming else "it has no incoming behavior edge")
        raise parser.error(d.guard_at,
                           f"guard on event '{d.id}' is unused: {why}")
    declared = behavior_edges is not None or terminals or repeatable
    return static, events, (behavior if declared else None)


def print_text(static: md.StaticModel, events=(), behavior=None) -> str:
    """Emit the canonical DSL text of `canonicalize(static)`, with no sort
    of the whole action table; deterministic and parse-stable."""
    blocks = ["\n".join(_thimac_lines(t, t.name, static.actions_by_owner, ""))
              for t in static.thimacs]
    sections = (_edge_lines("flow", "->", static.flows),
                _edge_lines("trigger", "-->", static.triggers),
                [_event_line(ev) for ev in events])
    blocks += ["\n".join(lines) for lines in sections if lines]
    if behavior is not None:
        blocks.append(_behavior_block(behavior))
        for keyword, names in (("terminal", behavior.terminals),
                               ("repeatable", behavior.repeatable)):
            if names:
                blocks.append(f"{keyword} {', '.join(sorted(names))};")
    return "\n\n".join(blocks) + "\n"


def _edge_lines(keyword, arrow, edges):
    """`keyword src arrow dst;` per edge, in (src, dst) order: sorted before
    the `;`, as a blank or the end sorts below any path character after a
    path that prefixes another, and `;` sorts above a digit."""
    return [line + ";" for line in sorted(
        [f"{keyword} {e.src} {arrow} {e.dst}" for e in edges])]


def _thimac_lines(thimac: md.Thimac, path, owned, indent):
    head = f"{indent}thimac {thimac.name}"
    if thimac.specializes:
        head += " specializes"
    lines = [head + " {"]
    inner = indent + "    "
    if thimac.store is not None:
        if thimac.store.value is None:
            lines.append(f"{inner}store;")
        else:
            lines.append(f"{inner}store = {ex._lit_text(thimac.store.value)};")
    for action in sorted(owned.get(path, ()),
                         key=lambda a: _KIND_RANK[a.kind]):
        if action.update is not None:
            target, rule = action.update
            lines.append(f"{inner}{action.kind} = {target} := "
                         f"{ex.to_text(rule, ex.SUM)};")
        else:
            lines.append(f"{inner}{action.kind};")
    for sub in thimac.subthimacs:
        lines.extend(_thimac_lines(sub, f"{path}.{sub.name}", owned, inner))
    lines.append(f"{indent}}}")
    return lines


def _event_line(event: EventRegion) -> str:
    covers = ", ".join(sorted(event.covers))
    line = f"event {event.id}"
    if event.label != event.id:
        line += f" {ex._lit_text(event.label)}"
    line += f" covers {{ {covers} }}"
    if event.input_path is not None:
        line += f" input {event.input_path}"
    return line + ";"


def _behavior_block(behavior: BehavioralModel) -> str:
    lines = ["behavior {"]
    for edge in behavior.edges:
        line = f"    {edge.src} -> {edge.dst}"
        if edge.guard is not None:
            line += f" guard {ex.to_text(edge.guard)}"
        lines.append(line + ";")
    lines.append("}")
    return "\n".join(lines)
