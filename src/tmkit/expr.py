"""Boolean/arithmetic expressions over store paths.

Used by guards on behavioral edges and by update rules attached to Process
actions. The grammar is deliberately tiny: comparisons between store paths
and literals, `and`/`or`/`not`, and `+`/`-` for the update rules. How
tightly each operator binds is written once, in `BINDING`: `dsl`'s parser
reads its levels from that table, and `chain` and `to_text` read it too.

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
from .errors import GuardEvalError, ModelError

#: Sentinel for a store that exists but has no value yet.
UNSET = object()
#: The literal words and their values, which `dsl` reads and `to_text` writes
BOOLEANS = {"true": True, "false": False}

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

#: How tightly each kind of node binds, loosest first: a run of `or`, a
#: run of `and`, `not`, a comparison and a sum; a literal or a path binds
#: tightest. `BINDING`, the one precedence table, gives each binary
#: operator's, and the parser reads its levels from it: `+` and `-` mix
#: in one run, `and` and `or` do not, and a comparison does not repeat.
OR, AND, NOT, COMPARISON, SUM = range(5)
BINDING = {"or": OR, "and": AND, **dict.fromkeys(_CMP, COMPARISON),
           "+": SUM, "-": SUM}
#: Node kind -> operator -> the binding of its text, for each it takes
_WRITTEN = {Unary: {"not": NOT}, Binary: dict.fromkeys(_CMP, COMPARISON),
            Chain: {op: b for op, b in BINDING.items() if b != COMPARISON}}


def in_range(number) -> bool:
    """Whether -MAX <= number <= MAX: false for inf, NaN and larger ints."""
    return -_MAX <= number <= _MAX


def chain(first: Expr, rest) -> Expr:
    """`first` followed by the `(op, operand)` pairs of one run, as one
    node; `first` itself if there are none."""
    if not rest:
        return first
    rest = tuple(rest)
    if (type(first) is Chain
            and BINDING[first.rest[0][0]] == BINDING[rest[0][0]]):
        return Chain(first.first, first.rest + rest)
    return Chain(first, rest)


def paths_in(expr: Expr) -> set[str]:
    """All store paths the expression reads; an empty set for None."""
    kind = type(expr)
    if kind is PathRef:
        return {expr.path}
    if kind is Unary:
        return paths_in(expr.operand)
    if kind is Binary:
        return paths_in(expr.left) | paths_in(expr.right)
    if kind is Chain:
        paths = paths_in(expr.first)  # a new set, as every call returns
        for _, operand in expr.rest:
            paths |= paths_in(operand)
        return paths
    return set()


def evaluate(expr: Expr, stores: dict) -> Value:
    """Evaluate against a path -> value map; see `compiled`."""
    return compiled(expr)(stores)


def compiled(expr: Expr):
    """The expression as a function of a path -> value map. Building
    never raises; the function raises GuardEvalError for an unknown or
    unset store, for operands an operator cannot take, for a sum not
    `in_range` and for an unknown operator (a comparison's after both
    operands, a run's before its operand). `and`/`or` give a bool.

    Each function takes what it reads as default arguments, not closure
    cells: on CPython 3.11 that halves the cost of building one, which a
    rule that runs once per simulation pays in full. The leaf `path <cmp>
    literal`, the guard a step tests most, is one function, not three."""
    kind = type(expr)
    if kind is Lit:
        return lambda stores, value=expr.value: value
    if kind is PathRef:
        def read(stores, path=expr.path):
            if path not in stores:
                raise GuardEvalError(f"no store at path '{path}'")
            if (value := stores[path]) is UNSET:
                raise GuardEvalError(f"store '{path}' is unset")
            return value
        return read
    if kind is Unary:
        operand = compiled(expr.operand)
        return lambda stores, operand=operand: not operand(stores)
    if kind is Binary:
        def binary(stores, left=compiled(expr.left),
                   right=compiled(expr.right), op=expr.op,
                   compare=_CMP.get(expr.op)):
            a, b = left(stores), right(stores)
            if compare is None:
                raise GuardEvalError(f"unknown operator {op!r}")
            try:
                return compare(a, b)
            except TypeError as exc:
                raise GuardEvalError(f"cannot compare {a!r} with {b!r}") \
                    from exc
        if type(expr.left) is PathRef and type(expr.right) is Lit:
            def compare_path(stores, path=expr.left.path, b=expr.right.value,
                             compare=_CMP.get(expr.op), fail=binary):
                if (a := stores.get(path, UNSET)) is not UNSET:
                    try:  # None, an unknown operator, raises TypeError too
                        return compare(a, b)
                    except TypeError:
                        pass
                return fail(stores)  # which raises as `binary` raises
            return compare_path
        return binary

    def run(stores, first=compiled(expr.first), rest=tuple(
            [(op, compiled(operand)) for op, operand in expr.rest])):
        value = first(stores)
        for op, operand in rest:
            if op == "+" or op == "-":
                right = operand(stores)
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
                value = bool(operand(stores))
            elif op == "or":
                if value:
                    return True
                value = bool(operand(stores))
            else:
                raise GuardEvalError(f"unknown operator {op!r}")
        return value
    return run


def to_text(expr: Expr, loosest: int = OR, lead: int | None = None) -> str:
    """Deterministic concrete syntax; reparses to an equal expression.

    In parentheses only if it binds looser than `loosest`, the binding
    its place in the grammar takes: the first operand of a run binds at
    least as tightly as the run, each later one more tightly, as in
    `a - (b - c)`, `(a < b) = c` and `not (a or b)`. So the text nests
    `(` and `not` no deeper than any text that parses to the same tree.
    ModelError for a literal of no value type, an operator its node lacks,
    a Chain whose first operand is a Chain of its run, a path headed by a
    `BOOLEANS` word, and one headed `not` where `lead`, the binding the
    text starts at, reads `not` as the keyword: `not = 1`.
    """
    lead = loosest if lead is None else lead
    kind = type(expr)
    if kind is Lit:
        if not (isinstance(expr.value, (int, float)) and in_range(expr.value)
                or isinstance(expr.value, str)):
            raise ModelError("literal is no number in range, text or boolean")
        return _lit_text(expr.value)
    if kind is PathRef:
        head = expr.path.partition(".")[0]
        if head in BOOLEANS or head == "not" and lead <= NOT:
            raise ModelError(f"path '{expr.path}' cannot be written where "
                             f"'{head}' reads as a keyword")
        return expr.path
    op = expr.op if kind is not Chain else expr.rest[0][0] if expr.rest else ""
    if (binding := _WRITTEN[kind].get(op)) is None:
        raise ModelError(f"{kind.__name__} operator {op!r} cannot be written")
    # a first operand starts where this text starts, or after its `(`
    first_lead = OR if binding < loosest else lead
    if kind is Unary:
        text = f"not {to_text(expr.operand, NOT)}"
    elif kind is Binary:
        text = (f"{to_text(expr.left, SUM, first_lead)} {expr.op} "
                f"{to_text(expr.right, SUM)}")
    else:
        if type(expr.first) is Chain and binding == BINDING.get(
                expr.first.rest and expr.first.rest[0][0]):  # see `chain`
            raise ModelError("Chain nested first in its run cannot be written")
        parts = [to_text(expr.first, binding, first_lead)]
        for op, operand in expr.rest:
            if BINDING.get(op) != binding:
                raise ModelError(f"Chain operator {op!r} cannot be written")
            parts.append(f" {op} {to_text(operand, binding + 1)}")
        text = "".join(parts)
    return text if binding >= loosest else f"({text})"


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
