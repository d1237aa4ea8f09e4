"""Boolean/arithmetic expressions over store paths.

Used by guards on behavioral edges and by update rules attached to Process
actions. The grammar is deliberately tiny: comparisons between store paths
and literals, `and`/`or`/`not`, and `+`/`-` for the update rules.
"""

from __future__ import annotations

import operator

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
    op: str  # and or < <= = != >= > + -
    left: "Expr"
    right: "Expr"

    # The generated __eq__, __hash__ and __repr__ would recurse once per
    # operator of a chain; these give the same results along the spine.

    def __eq__(self, other):
        if type(other) is not Binary:
            return NotImplemented
        a, b = self, other
        while type(a) is Binary and type(b) is Binary:
            if a is b:
                return True
            if a.op != b.op or a.right != b.right:
                return False
            a, b = a.left, b.left
        return a == b

    def __hash__(self):
        spine, bottom = _left_spine(self)
        value = hash(bottom)
        for node in spine:
            value = hash((node.op, value, node.right))
        return value

    def __repr__(self):
        spine, bottom = _left_spine(self)
        return ("".join(f"Binary(op={node.op!r}, left="
                        for node in reversed(spine))
                + repr(bottom)
                + "".join(f", right={node.right!r})" for node in spine))


Expr = Lit | PathRef | Unary | Binary

_CMP = {"<": operator.lt, "<=": operator.le, "=": operator.eq,
        "!=": operator.ne, ">=": operator.ge, ">": operator.gt}

_ARITH = ("+", "-")

# The parser builds `a + b + c` and `a and b and c` as left-deep trees, so
# the walkers below follow the left spine of a Binary in a loop and
# recurse only into right operands and `not`, whose depth the parser
# bounds.


def _left_spine(expr: Binary) -> tuple[list[Binary], Expr]:
    """The Binary nodes down the left edge, innermost first, and the
    non-Binary expression at its bottom."""
    spine = []
    while isinstance(expr, Binary):
        spine.append(expr)
        expr = expr.left
    spine.reverse()
    return spine, expr


def paths_in(expr: Expr) -> set[str]:
    """All store paths referenced by the expression."""
    paths = set()
    stack = [expr]
    while stack:
        expr = stack.pop()
        if isinstance(expr, PathRef):
            paths.add(expr.path)
        elif isinstance(expr, Unary):
            stack.append(expr.operand)
        elif isinstance(expr, Binary):
            stack += (expr.left, expr.right)
    return paths


def evaluate(expr: Expr, stores: dict, _left=UNSET) -> Value:
    """Evaluate against a path -> value map.

    Raises GuardEvalError for unknown or unset store reads and for
    operands an operator cannot take. `_left` is the value of a Binary's
    left operand when the caller has already computed it.
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
    if kind is Unary:
        return not evaluate(expr.operand, stores)
    left = _left
    if left is UNSET:
        left = expr.left
        if type(left) is Binary and type(left.left) is Binary:
            spine, bottom = _left_spine(left)
            left = evaluate(bottom, stores)
            for node in spine:
                left = evaluate(node, stores, left)
        else:
            left = evaluate(left, stores)
    op = expr.op
    if op == "and":
        return bool(left) and bool(evaluate(expr.right, stores))
    if op == "or":
        return bool(left) or bool(evaluate(expr.right, stores))
    right = evaluate(expr.right, stores)
    try:
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        compare = _CMP.get(op)
        if compare is None:
            raise GuardEvalError(f"unknown operator {op!r}")
        return compare(left, right)
    except (TypeError, OverflowError) as exc:
        if op in _CMP:
            message = f"cannot compare {left!r} with {right!r}"
        else:
            message = f"cannot compute {left!r} {op} {right!r}"
        raise GuardEvalError(message) from exc


def to_text(expr: Expr) -> str:
    """Deterministic concrete syntax; reparses to an equal expression.

    The operand of `not` and the operands of `and`/`or` are in
    parentheses, except the left one in a chain of one of them
    (`(a) and (b) and (c)`); other operands only where the grammar needs
    them.
    """
    if isinstance(expr, Lit):
        return _lit_text(expr.value)
    if isinstance(expr, PathRef):
        return expr.path
    if isinstance(expr, Unary):
        return f"not ({to_text(expr.operand)})"
    spine, bottom = _left_spine(expr)
    parts = [to_text(bottom)]
    opens = 0  # parentheses to open in front of everything
    left = bottom
    for node in spine:
        logical = node.op in ("and", "or")
        if logical:
            wrap = not (isinstance(left, Binary) and left.op == node.op)
        else:
            wrap = not _is_additive(left)
        if wrap:
            opens += 1
            parts.append(")")
        right = to_text(node.right)
        if logical or not _is_additive(node.right) or (
                node.op in _ARITH and isinstance(node.right, Binary)):
            right = f"({right})"
        parts.append(f" {node.op} {right}")
        left = node
    return "(" * opens + "".join(parts)


def _is_additive(expr: Expr) -> bool:
    """True if the grammar reads the text as one comparison operand."""
    if isinstance(expr, Binary):
        return expr.op in _ARITH
    return not isinstance(expr, Unary)


def _lit_text(value: Value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        escaped = (value.replace("\\", "\\\\").replace('"', '\\"')
                   .replace("\n", "\\\n"))
        return f'"{escaped}"'
    text = repr(value)
    if isinstance(value, float) and "e" in text:  # the grammar has no exponent
        import decimal  # only here: it adds to every command's start-up
        text = format(decimal.Decimal(text), "f")
        if "." not in text:
            text += ".0"
    return text
