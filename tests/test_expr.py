import pytest

from tmkit import dsl, errors
from tmkit.events import BehaviorEdge
from tmkit.expr import (UNSET, Binary, Lit, PathRef, Unary, evaluate,
                        paths_in, to_text)


def _chain(op, operand, n):
    """`operand op operand op …` with n operands, left-deep as parsed."""
    expr = operand
    for _ in range(n - 1):
        expr = Binary(op, expr, operand)
    return expr


def _guard(text):
    """Parse `text` as the guard of a behavior edge."""
    _, _, behavior = dsl.parse(
        "thimac A { store = 0; create; } thimac B { store = 0; }\n"
        "event D covers { A.create }; event E covers { A.create };\n"
        f"behavior {{ D -> E guard {text}; }}\n")
    return behavior.edges[0].guard


def test_long_chains_need_no_recursion():
    a = PathRef("A")
    stores = {"A": 1}
    assert evaluate(_chain("+", a, 5000), stores) == 5000
    assert evaluate(_chain("-", a, 5000), stores) == -4998
    assert evaluate(_chain("and", Binary("=", a, Lit(1)), 5000), stores)
    assert not evaluate(_chain("or", Binary("=", a, Lit(2)), 5000), stores)
    assert paths_in(_chain("+", a, 5000)) == {"A"}
    assert to_text(_chain("-", a, 5000)) == " - ".join(["A"] * 5000)


def test_and_or_short_circuit_along_a_chain():
    stores = {"A": 1, "B": UNSET}
    read_b = Binary("=", PathRef("B"), Lit(1))
    false, true = Binary("=", PathRef("A"), Lit(2)), Lit(True)
    assert evaluate(Binary("and", Binary("and", false, read_b), read_b),
                    stores) is False
    assert evaluate(Binary("or", Binary("or", true, read_b), read_b),
                    stores) is True
    with pytest.raises(errors.GuardEvalError, match="'B' is unset"):
        evaluate(Binary("and", Binary("and", true, true), read_b), stores)


@pytest.mark.parametrize("expr, message", [
    (Binary("+", Lit(1), Lit("x")), "cannot compute 1 + 'x'"),
    (Binary("-", Lit("a"), Lit("b")), "cannot compute 'a' - 'b'"),
    (Binary("+", Lit(10 ** 400), Lit(0.5)), "cannot compute"),
    (Binary("<", Lit(1), Lit("x")), "cannot compare 1 with 'x'"),
    (Binary("^", Lit(1), Lit(2)), "unknown operator '^'"),
])
def test_bad_operands_raise_guard_eval_error(expr, message):
    with pytest.raises(errors.GuardEvalError) as exc:
        evaluate(expr, {})
    assert str(exc.value).startswith(message)


@pytest.mark.parametrize("text, printed", [
    ("A + 1", "A + 1"),
    ("A - (B - 1)", "A - (B - 1)"),
    ("A + (B < 1)", "A + (B < 1)"),
    ("(A < 1) = (B < 1)", "(A < 1) = (B < 1)"),
    ("(not A) + 1", "(not (A)) + 1"),
    ("not A = 1", "not (A = 1)"),
    ("A = 1 and B = 2", "(A = 1) and (B = 2)"),
    ("A = 1 and B = 2 and A = 3", "(A = 1) and (B = 2) and (A = 3)"),
    ("A = 1 and B = 2 or A = 3", "((A = 1) and (B = 2)) or (A = 3)"),
    ("A or B and A", "(A) or ((B) and (A))"),
    ("-1 - -2.5", "-1 - -2.5"),
])
def test_to_text_reparses_to_the_same_tree(text, printed):
    guard = _guard(text)
    assert to_text(guard) == printed
    assert _guard(printed) == guard


def test_paths_in_walks_every_operand():
    guard = Unary("not", Binary("or", PathRef("A"),
                                Binary("<", PathRef("B.c"), Lit(1))))
    assert paths_in(guard) == {"A", "B.c"}


def test_equality_hash_and_repr_walk_long_chains():
    text = " + ".join(["A"] * 3000) + " = 1"
    guard, again = _guard(text), _guard(text)
    assert guard == again and hash(guard) == hash(again)
    assert guard != _guard(" + ".join(["A"] * 2999) + " + B = 1")
    assert guard != _guard(" + ".join(["A"] * 2999) + " - A = 1")
    edge = dsl.parse(
        "thimac A { store = 0; create; } thimac B { store = 0; }\n"
        "event D covers { A.create }; event E covers { A.create };\n"
        f"behavior {{ D -> E guard {text}; }}\n")[2].edges[0]
    assert hash(edge) == hash(BehaviorEdge(edge.src, edge.dst, again))
    printed = repr(edge)
    assert printed.startswith("BehaviorEdge(src='D', dst='E', guard=Binary("
                              "op='=', left=Binary(op='+', left=Binary(")
    assert printed.endswith(", right=PathRef(path='A')), "
                            "right=Lit(value=1)))")
    assert printed.count("PathRef(path='A')") == 3000


def test_repr_matches_the_dataclass_form():
    expr = Binary("and", Binary("<", PathRef("A"), Lit(1)),
                  Unary("not", Binary("+", Lit(2), Lit("x"))))
    assert repr(expr) == (
        "Binary(op='and', left=Binary(op='<', left=PathRef(path='A'), "
        "right=Lit(value=1)), right=Unary(op='not', operand=Binary(op='+', "
        "left=Lit(value=2), right=Lit(value='x'))))")
    assert expr == eval(repr(expr))
    assert expr != Binary("and", Binary("<", PathRef("A"), Lit(1)), Lit(1))
    assert Binary("+", Lit(1), Lit(2)) != Lit(1)
    assert len({expr, eval(repr(expr))}) == 1
