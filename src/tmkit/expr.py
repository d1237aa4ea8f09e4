"""Boolean/arithmetic expressions over store paths.

Used by guards on behavioral edges and by update rules attached to Process
actions. The grammar is deliberately tiny: comparisons between store paths
and literals, `and`/`or`/`not`, and `+`/`-` for the update rules.

The nodes are `Lit` (a literal), `PathRef` (a store read), `Unary` (`not`),
`Binary` (one comparison) and `Chain`, a run of one operator level:
`a + b - c` is `Chain(a, (("+", b), ("-", c)))`, and a run of `and` or of
`or` is a Chain of that operator alone. Build chains with `chain`, which
extends a first operand that is a chain of the same run, so `(a + b) + c`
and `a + b + c` are one tree. Every function here loops along a run and
recurses only into operands, whose depth the parser bounds. A number,
in a literal, a store or a sum, lies in the range of a float: `in_range`.
"""

from __future__ import annotations

import operator
import sys

from ._record import record
from .errors import GuardEvalError

#: Sentinel for a store that exists but has no value yet.
UNSET = object()

Value = int | float | str | bool


@record
class Lit:
    value: Value


@record
class PathRef:
    path: str


@record
class Unary:
    op: str  # "not"
    operand: "Expr"


@record
class Binary:
    op: str  # < <= = != >= >
    left: "Expr"
    right: "Expr"


@record
class Chain:
    first: "Expr"
    rest: tuple[tuple[str, "Expr"], ...]  # (op, operand): and, or, + or -


Expr = Lit | PathRef | Unary | Binary | Chain

_CMP = {"<": operator.lt, "<=": operator.le, "=": operator.eq,
        "!=": operator.ne, ">=": operator.ge, ">": operator.gt}

_MAX = sys.float_info.max

#: The run an operator belongs to: `+` and `-` mix, `and` and `or` do not.
_RUN = {"and": "and", "or": "or", "+": "+", "-": "+"}


def in_range(number) -> bool:
    """Whether -MAX <= number <= MAX: false for inf, NaN and larger ints."""
    return -_MAX <= number <= _MAX


def chain(first: Expr, rest) -> Expr:
    """`first` followed by the `(op, operand)` pairs of one run, as one
    node; `first` itself if there are none."""
    if not rest:
        return first
    rest = tuple(rest)
    if type(first) is Chain and _RUN[first.rest[0][0]] == _RUN[rest[0][0]]:
        return Chain(first.first, first.rest + rest)
    return Chain(first, rest)


def paths_in(expr: Expr) -> set[str]:
    """All store paths referenced by the expression."""
    kind = type(expr)
    if kind is PathRef:
        return {expr.path}
    if kind is Unary:
        return paths_in(expr.operand)
    if kind is Binary:
        return paths_in(expr.left) | paths_in(expr.right)
    if kind is Chain:
        return paths_in(expr.first).union(
            *(paths_in(operand) for _, operand in expr.rest))
    return set()


def evaluate(expr: Expr, stores: dict) -> Value:
    """Evaluate against a path -> value map.

    Raises GuardEvalError for unknown or unset store reads, for operands
    an operator cannot take and for a sum or difference not `in_range`.
    """
    kind = type(expr)  # faster than isinstance on this hot path
    if kind is Lit:
        return expr.value
    if kind is PathRef:
        if expr.path not in stores:
            raise GuardEvalError(f"no store at path '{expr.path}'")
        value = stores[expr.path]
        if value is UNSET:
            raise GuardEvalError(f"store '{expr.path}' is unset")
        return value
    if kind is Binary:
        left = evaluate(expr.left, stores)
        right = evaluate(expr.right, stores)
        compare = _CMP.get(expr.op)
        if compare is None:
            raise GuardEvalError(f"unknown operator {expr.op!r}")
        try:
            return compare(left, right)
        except TypeError as exc:
            raise GuardEvalError(
                f"cannot compare {left!r} with {right!r}") from exc
    if kind is Unary:
        return not evaluate(expr.operand, stores)
    value = evaluate(expr.first, stores)
    for op, operand in expr.rest:
        if op == "+" or op == "-":
            right = evaluate(operand, stores)
            try:
                new = value + right if op == "+" else value - right
                if type(new) is not str and not in_range(new):
                    raise OverflowError
            except (TypeError, OverflowError) as exc:
                raise GuardEvalError(
                    f"cannot compute {value!r} {op} {right!r}") from exc
            value = new
        elif op == "and":
            if not value:
                return False
            value = bool(evaluate(operand, stores))
        elif op == "or":
            if value:
                return True
            value = bool(evaluate(operand, stores))
        else:
            raise GuardEvalError(f"unknown operator {op!r}")
    return value


def to_text(expr: Expr) -> str:
    """Deterministic concrete syntax; reparses to an equal expression.

    Every operand of `not`, `and` and `or` is in parentheses; other
    operands only where the grammar needs them, as in `a - (b - c)` and
    `(a < b) = c`.
    """
    kind = type(expr)
    if kind is Lit:
        return _lit_text(expr.value)
    if kind is PathRef:
        return expr.path
    if kind is Unary:
        return f"not ({to_text(expr.operand)})"
    if kind is Binary:
        return f"{_term(expr.left)} {expr.op} {_term(expr.right)}"
    logical = not _is_additive(expr)
    parts = [f"({to_text(expr.first)})" if logical else _term(expr.first)]
    for op, operand in expr.rest:
        text = to_text(operand)
        if logical or type(operand) not in _LEAVES:
            text = f"({text})"
        parts.append(f" {op} {text}")
    return "".join(parts)


_LEAVES = (Lit, PathRef)


def _is_additive(expr: Expr) -> bool:
    """True if the grammar reads the text as one comparison operand."""
    return type(expr) in _LEAVES or (
        type(expr) is Chain and _RUN[expr.rest[0][0]] == "+")


def _term(expr: Expr) -> str:
    """The text of a comparison or sum operand."""
    text = to_text(expr)
    return text if _is_additive(expr) else f"({text})"


def _lit_text(value: Value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        escaped = (value.replace("\\", "\\\\").replace('"', '\\"')
                   .replace("\n", "\\\n"))
        return f'"{escaped}"'
    text = repr(value)
    if isinstance(value, float) and "e" in text:  # the grammar has no exponent
        mantissa, _, exponent = text.lstrip("-").partition("e")
        whole, _, fraction = mantissa.partition(".")
        point = len(whole) + int(exponent)  # the point's place in the digits
        digits = ("0" * (1 - point) + whole + fraction).ljust(point + 1, "0")
        point = max(point, 1)
        text = f"{'-' * (value < 0)}{digits[:point]}.{digits[point:]}"
    return text
