"""Textual concrete syntax for static models, events, and chronologies.

The `.tm` format is the toolkit's interchange format. `->` declares a
flow, `-->` a trigger (`→` is accepted as an alias for `->` on input),
`#` starts a comment, and dotted paths resolve through thimac nesting.
parse/print round-trip: parse(print_text(m, ...)) equals canonicalize(m).
"""

from __future__ import annotations

import dataclasses
import re
from typing import Optional

from . import expr as ex
from . import model as md
from .errors import TmError
from .events import (BehavioralModel, BehaviorEdge, EventRegion,
                     build_behavior, eventize)

_KEYWORD_KINDS = {k.value: k for k in md.ActionKind}

_BOOLEANS = {"true": True, "false": False}

#: The lexical grammar: one named group per token kind, tried in order.
#: Longer punctuation comes first, so `-->` wins over `->` over `-`.
_TOKEN_RE = re.compile(r"""
    (?P<NEWLINE>\n)
  | (?P<BLANK>[ \t\r]+)
  | (?P<COMMENT>\#[^\n]*)
  | (?P<STRING>"(?:[^"\\\n]|\\[\s\S])*")
  | (?P<NUMBER>\d+(?:\.\d*)?)
  | (?P<NAME>[^\W\d]\w*)
  | (?P<ARROW>→)
  | (?P<PUNCT>-->|->|:=|<=|>=|!=|[<>={};,.()+-])
  | (?P<ERROR>[\s\S])
""", re.VERBOSE)

_ESCAPE_RE = re.compile(r"\\([\s\S])")


@dataclasses.dataclass
class SourceUnit:
    text: str
    origin: str = "<memory>"


class ParseError(TmError):
    def __init__(self, line: int, column: int, message: str, expected=()):
        self.line = line
        self.column = column
        self.message = message
        self.expected = list(expected)
        super().__init__(f"{line}:{column}: {message}")


@dataclasses.dataclass
class _Token:
    type: str  # NAME NUMBER STRING punct EOF
    value: object
    line: int
    col: int


def _tokenize(src: SourceUnit) -> list[_Token]:
    text = src.text
    tokens = []
    line, line_start = 1, 0  # line_start: offset just past the last newline
    match = None
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        if kind == "BLANK" or kind == "COMMENT":
            continue
        if kind == "NEWLINE":
            line += 1
            line_start = match.end()
            continue
        value = match.group()
        col = match.start() - line_start + 1
        if kind == "PUNCT":
            kind = value
        elif kind == "NAME":
            # \w admits digits such as '²' that str.isalpha() rejects
            if not (value[0].isalpha() or value[0] == "_"):
                raise ParseError(line, col,
                                 f"unexpected character {value[0]!r}")
        elif kind == "STRING":
            value = _ESCAPE_RE.sub(r"\1", value[1:-1])
        elif kind == "NUMBER":
            try:
                value = float(value) if "." in value else int(value)
            except ValueError:  # more digits than int() accepts
                raise ParseError(line, col, f"number too long: {len(value)} "
                                 "digits") from None
        elif kind == "ARROW":
            kind = value = "->"
        elif value == '"':  # ERROR: no closing quote on this line
            raise ParseError(line, col, "unterminated string literal")
        else:  # ERROR
            raise ParseError(line, col, f"unexpected character {value!r}")
        tokens.append(_Token(kind, value, line, col))
    # a comment at the end of the text does not move the EOF position
    end = len(text)
    if match is not None and match.lastgroup == "COMMENT":
        end = match.start()
    tokens.append(_Token("EOF", None, line, end - line_start + 1))
    return tokens


@dataclasses.dataclass
class _EventDecl:
    id: str
    label: str
    covers: list[str]
    input_path: Optional[str]
    guard: Optional[ex.Expr]
    guard_at: Optional[_Token]  # the `guard` keyword, for error positions


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    # -- token plumbing --

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def at(self, type_: str, value=None) -> bool:
        tok = self.peek()
        return tok.type == type_ and (value is None or tok.value == value)

    def take(self, type_: str, value=None) -> Optional[_Token]:
        """Consume and return the next token if it matches, else None."""
        return self.next() if self.at(type_, value) else None

    def expect(self, type_: str, value=None) -> _Token:
        tok = self.peek()
        if not self.at(type_, value):
            want = value if value is not None else type_
            raise ParseError(tok.line, tok.col,
                             f"expected {want!r}, found {tok.value!r}",
                             expected=[want])
        return self.next()

    # -- grammar --

    def parse_file(self):
        thimacs, actions = [], []
        flows, triggers = [], []
        event_decls: list[_EventDecl] = []
        behavior_edges = None
        terminals, repeatable = [], []
        while not self.at("EOF"):
            tok = self.peek()
            if self.at("NAME", "thimac"):
                thimacs.append(self.parse_thimac("", actions))
            elif self.at("NAME", "flow"):
                flows.append(self.parse_edge("flow", "->", md.FlowEdge))
            elif self.at("NAME", "trigger"):
                triggers.append(
                    self.parse_edge("trigger", "-->", md.TriggerEdge))
            elif self.at("NAME", "event"):
                event_decls.append(self.parse_event())
            elif self.at("NAME", "behavior"):
                if behavior_edges is not None:
                    raise ParseError(tok.line, tok.col,
                                     "behavior block re-declared")
                behavior_edges = self.parse_behavior()
            elif self.at("NAME", "terminal"):
                terminals.extend(self.parse_event_list("terminal"))
            elif self.at("NAME", "repeatable"):
                repeatable.extend(self.parse_event_list("repeatable"))
            else:
                raise ParseError(
                    tok.line, tok.col,
                    f"expected a declaration, found {tok.value!r}",
                    expected=["thimac", "flow", "trigger", "event",
                              "behavior", "terminal", "repeatable"])
        self.expect("EOF")
        return (thimacs, actions, flows, triggers, event_decls,
                behavior_edges, terminals, repeatable)

    def parse_thimac(self, prefix: str, actions) -> md.Thimac:
        self.expect("NAME", "thimac")
        name = self.expect("NAME").value
        path = f"{prefix}.{name}" if prefix else name
        specializes = self.take("NAME", "specializes") is not None
        self.expect("{")
        store = None
        action_ids = []
        subthimacs = []
        while not self.at("}"):
            tok = self.peek()
            if self.at("NAME", "thimac"):
                subthimacs.append(self.parse_thimac(path, actions))
            elif self.take("NAME", "store"):
                if store is not None:
                    raise ParseError(tok.line, tok.col,
                                     f"store re-declared in '{path}'")
                store = md.Store(self.parse_literal() if self.take("=")
                                 else None)
                self.expect(";")
            elif tok.type == "NAME" and tok.value in _KEYWORD_KINDS:
                kind = _KEYWORD_KINDS[tok.value]
                aid = md.action_id(path, kind)
                if aid in action_ids:
                    raise ParseError(tok.line, tok.col,
                                     f"{tok.value} re-declared in '{path}'")
                self.next()
                update = None
                if self.at("="):
                    if kind is not md.ActionKind.PROCESS:
                        raise ParseError(
                            tok.line, tok.col,
                            "only process actions take an update rule")
                    self.next()
                    target = self.parse_path()
                    self.expect(":=")
                    update = (target, self.parse_additive())
                self.expect(";")
                actions.append(md.Action(aid, kind, path, update))
                action_ids.append(aid)
            else:
                raise ParseError(
                    tok.line, tok.col,
                    f"expected a thimac member, found {tok.value!r}",
                    expected=["thimac", "store",
                              *sorted(_KEYWORD_KINDS), "}"])
        self.expect("}")
        return md.Thimac(name, specializes, store, tuple(action_ids),
                         tuple(subthimacs))

    def parse_edge(self, keyword, arrow, factory):
        self.expect("NAME", keyword)
        src = self.parse_path()
        self.expect(arrow)
        dst = self.parse_path()
        self.expect(";")
        return factory(src, dst)

    def parse_event(self) -> _EventDecl:
        self.expect("NAME", "event")
        event_id = self.expect("NAME").value
        label = self.next().value if self.at("STRING") else event_id
        self.expect("NAME", "covers")
        self.expect("{")
        covers = [self.parse_path()]
        while self.take(","):
            if self.at("}"):
                break
            covers.append(self.parse_path())
        self.expect("}")
        input_path = guard = None
        if self.take("NAME", "input"):
            input_path = self.parse_path()
        guard_at = self.take("NAME", "guard")
        if guard_at:
            guard = self.parse_or()
        self.expect(";")
        return _EventDecl(event_id, label, covers, input_path, guard,
                          guard_at)

    def parse_behavior(self) -> list[BehaviorEdge]:
        self.expect("NAME", "behavior")
        self.expect("{")
        edges = []
        while not self.at("}"):
            src = self.expect("NAME").value
            self.expect("->")
            dst = self.expect("NAME").value
            guard = self.parse_or() if self.take("NAME", "guard") else None
            self.expect(";")
            edges.append(BehaviorEdge(src, dst, guard))
        self.expect("}")
        return edges

    def parse_event_list(self, keyword) -> list[str]:
        self.expect("NAME", keyword)
        names = [self.expect("NAME").value]
        while self.take(","):
            names.append(self.expect("NAME").value)
        self.expect(";")
        return names

    def parse_path(self) -> str:
        parts = [self.expect("NAME").value]
        while self.take("."):
            parts.append(self.expect("NAME").value)
        return ".".join(parts)

    def take_literal(self):
        """Consume a literal and return its value, or return None."""
        tok = self.peek()
        if tok.type == "NUMBER" or tok.type == "STRING":
            return self.next().value
        if tok.type == "NAME" and tok.value in _BOOLEANS:
            return _BOOLEANS[self.next().value]
        if self.take("-"):
            return -self.expect("NUMBER").value
        return None

    def parse_literal(self):
        value = self.take_literal()
        if value is None:
            tok = self.peek()
            raise ParseError(tok.line, tok.col,
                             f"expected a literal, found {tok.value!r}",
                             expected=["NUMBER", "STRING", "true", "false"])
        return value

    # -- expressions --

    def parse_or(self) -> ex.Expr:
        left = self.parse_and()
        while self.take("NAME", "or"):
            left = ex.Binary("or", left, self.parse_and())
        return left

    def parse_and(self) -> ex.Expr:
        left = self.parse_not()
        while self.take("NAME", "and"):
            left = ex.Binary("and", left, self.parse_not())
        return left

    def parse_not(self) -> ex.Expr:
        if self.take("NAME", "not"):
            return ex.Unary("not", self.parse_not())
        return self.parse_comparison()

    def parse_comparison(self) -> ex.Expr:
        left = self.parse_additive()
        for op in ("<=", ">=", "!=", "<", ">", "="):
            if self.take(op):
                return ex.Binary(op, left, self.parse_additive())
        return left

    def parse_additive(self) -> ex.Expr:
        left = self.parse_primary()
        while self.at("+") or self.at("-"):
            op = self.next().type
            left = ex.Binary(op, left, self.parse_primary())
        return left

    def parse_primary(self) -> ex.Expr:
        value = self.take_literal()
        if value is not None:
            return ex.Lit(value)
        if self.take("("):
            inner = self.parse_or()
            self.expect(")")
            return inner
        tok = self.peek()
        if tok.type == "NAME":
            return ex.PathRef(self.parse_path())
        raise ParseError(tok.line, tok.col,
                         f"expected an expression, found {tok.value!r}",
                         expected=["NUMBER", "STRING", "NAME", "("])


def parse(src) -> tuple[md.StaticModel, list[EventRegion],
                        Optional[BehavioralModel]]:
    """Parse DSL text into a model, declared events, and a chronology."""
    if isinstance(src, str):
        src = SourceUnit(src)
    parser = _Parser(_tokenize(src))
    try:
        (thimacs, actions, flows, triggers, event_decls, behavior_edges,
         terminals, repeatable) = parser.parse_file()
    except RecursionError:
        tok = parser.peek()
        raise ParseError(tok.line, tok.col, "nesting too deep") from None
    # an event guard is moved onto the event's incoming behavior edges
    targets = {e.dst for e in behavior_edges or ()}
    for d in event_decls:
        if d.guard is not None and d.id not in targets:
            raise ParseError(d.guard_at.line, d.guard_at.col,
                             f"guard on event '{d.id}' has no incoming "
                             "behavior edge")
    static = md.build_model(thimacs, actions, flows, triggers)

    events = [eventize(static, d.id, d.label, d.covers, d.input_path)
              for d in event_decls]
    behavior = None
    if behavior_edges is not None or terminals or repeatable:
        guards = {d.id: d.guard for d in event_decls}
        edges = [
            dataclasses.replace(e, guard=e.guard or guards.get(e.dst))
            for e in (behavior_edges or [])]
        behavior = build_behavior(events, edges, terminals, repeatable)
    return static, events, behavior


def print_text(static: md.StaticModel, events=(), behavior=None) -> str:
    """Emit canonical DSL text; deterministic and parse-stable."""
    static = md.canonicalize(static)
    blocks = ["\n".join(_thimac_lines(thimac, static, ""))
              for thimac in static.thimacs]
    sections = ([f"flow {e.src} -> {e.dst};" for e in static.flows],
                [f"trigger {e.src} --> {e.dst};" for e in static.triggers],
                [_event_line(ev) for ev in events])
    blocks += ["\n".join(lines) for lines in sections if lines]
    if behavior is not None:
        blocks.append(_behavior_block(behavior))
        for keyword, names in (("terminal", behavior.terminals),
                               ("repeatable", behavior.repeatable)):
            if names:
                blocks.append(f"{keyword} {', '.join(sorted(names))};")
    return "\n\n".join(blocks) + "\n"


def _thimac_lines(thimac: md.Thimac, static, indent):
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
    for aid in thimac.action_ids:
        action = static.actions[aid]
        if action.update is not None:
            target, rule = action.update
            lines.append(f"{inner}{action.kind.value} = {target} := "
                         f"{ex.to_text(rule)};")
        else:
            lines.append(f"{inner}{action.kind.value};")
    for sub in thimac.subthimacs:
        lines.extend(_thimac_lines(sub, static, inner))
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
