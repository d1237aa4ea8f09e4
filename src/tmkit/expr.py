"""Boolean/arithmetic expressions over store paths.

Used by guards on behavioral edges and by update rules attached to Process
actions. The grammar is deliberately tiny: comparisons between store paths
and literals, `and`/`or`/`not`, and `+`/`-` for the update rules.
"""

from __future__ import annotations

import dataclasses
from typing import Union

from .errors import GuardEvalError

#: Sentinel for a store that exists but has no value yet.
UNSET = object()

Value = Union[int, float, str, bool]


@dataclasses.dataclass(frozen=True)
class Lit:
    value: Value


@dataclasses.dataclass(frozen=True)
class PathRef:
    path: str


@dataclasses.dataclass(frozen=True)
class Unary:
    op: str  # "not"
    operand: "Expr"


@dataclasses.dataclass(frozen=True)
class Binary:
    op: str  # and or < <= = != >= > + -
    left: "Expr"
    right: "Expr"


Expr = Union[Lit, PathRef, Unary, Binary]

_CMP = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    ">=": lambda a, b: a >= b,
    ">": lambda a, b: a > b,
}


def paths_in(expr: Expr) -> set[str]:
    """All store paths referenced by the expression."""
    if isinstance(expr, PathRef):
        return {expr.path}
    if isinstance(expr, Unary):
        return paths_in(expr.operand)
    if isinstance(expr, Binary):
        return paths_in(expr.left) | paths_in(expr.right)
    return set()


def evaluate(expr: Expr, stores: dict) -> Value:
    """Evaluate against a path -> value map.

    Raises GuardEvalError for unknown or unset store reads.
    """
    if isinstance(expr, Lit):
        return expr.value
    if isinstance(expr, PathRef):
        if expr.path not in stores:
            raise GuardEvalError(f"no store at path '{expr.path}'")
        value = stores[expr.path]
        if value is UNSET:
            raise GuardEvalError(f"store '{expr.path}' is unset")
        return value
    if isinstance(expr, Unary):
        return not evaluate(expr.operand, stores)
    assert isinstance(expr, Binary)
    if expr.op == "and":
        return bool(evaluate(expr.left, stores)) and bool(
            evaluate(expr.right, stores))
    if expr.op == "or":
        return bool(evaluate(expr.left, stores)) or bool(
            evaluate(expr.right, stores))
    left = evaluate(expr.left, stores)
    right = evaluate(expr.right, stores)
    if expr.op in _CMP:
        try:
            return _CMP[expr.op](left, right)
        except TypeError as exc:
            raise GuardEvalError(
                f"cannot compare {left!r} with {right!r}") from exc
    if expr.op == "+":
        return left + right
    if expr.op == "-":
        return left - right
    raise GuardEvalError(f"unknown operator {expr.op!r}")


def to_text(expr: Expr) -> str:
    """Deterministic concrete syntax; reparses to an equal expression."""
    if isinstance(expr, Lit):
        return _lit_text(expr.value)
    if isinstance(expr, PathRef):
        return expr.path
    if isinstance(expr, Unary):
        return f"not ({to_text(expr.operand)})"
    assert isinstance(expr, Binary)
    if expr.op in ("and", "or"):
        return f"({to_text(expr.left)}) {expr.op} ({to_text(expr.right)})"
    return f"{to_text(expr.left)} {expr.op} {to_text(expr.right)}"


def _lit_text(value: Value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        escaped = (value.replace("\\", "\\\\").replace('"', '\\"')
                   .replace("\n", "\\\n"))
        return f'"{escaped}"'
    return repr(value)
