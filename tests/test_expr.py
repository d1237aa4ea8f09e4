import sys

import pytest
from hypothesis import given, settings, strategies as st

from tmkit import dsl, errors
from tmkit.events import BehaviorEdge
from tmkit.expr import (UNSET, Binary, Chain, Lit, PathRef, Unary, chain,
                        evaluate, in_range, paths_in, to_text)


def _chain(op, operand, n):
    """`operand op operand op …` with n operands, as parsed."""
    return chain(operand, [(op, operand)] * (n - 1))


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
    one, other = _chain("+", a, 5000), _chain("+", PathRef("A"), 5000)
    assert one == other and hash(one) == hash(other)
    assert one != _chain("-", a, 5000)
    assert repr(one).count("('+', PathRef(path='A'))") == 4999


def test_and_or_short_circuit_along_a_chain():
    stores = {"A": 1, "B": UNSET}
    read_b = Binary("=", PathRef("B"), Lit(1))
    false, true = Binary("=", PathRef("A"), Lit(2)), Lit(True)
    assert evaluate(chain(false, [("and", read_b), ("and", read_b)]),
                    stores) is False
    assert evaluate(chain(true, [("or", read_b), ("or", read_b)]),
                    stores) is True
    assert evaluate(chain(Lit(0), [("or", Lit(2))]), stores) is True
    with pytest.raises(errors.GuardEvalError, match="'B' is unset"):
        evaluate(chain(true, [("and", true), ("and", read_b)]), stores)


@pytest.mark.parametrize("expr, message", [
    (chain(Lit(1), [("+", Lit("x"))]), "cannot compute 1 + 'x'"),
    (chain(Lit("a"), [("-", Lit("b"))]), "cannot compute 'a' - 'b'"),
    (chain(Lit(10 ** 400), [("+", Lit(0.5))]), "cannot compute"),
    (Binary("<", Lit(1), Lit("x")), "cannot compare 1 with 'x'"),
    (Binary("^", Lit(1), Lit(2)), "unknown operator '^'"),
    (chain(Lit(1.5e308), [("+", Lit(1.5e308))]),
     "cannot compute 1.5e+308 + 1.5e+308"),
    (chain(Lit(1), [("+", Lit(2)), ("-", Lit(-1.7e308)),
                    ("-", Lit(-1.7e308))]),
     "cannot compute 1.7e+308 - -1.7e+308"),
    (chain(Lit(1), [("^", Lit(2))]), "unknown operator '^'"),
    (chain(Lit(10 ** 308), [("+", Lit(10 ** 308))]),
     f"cannot compute {10 ** 308} + {10 ** 308}"),
    (chain(Lit(0), [("-", Lit(10 ** 308)), ("-", Lit(10 ** 308))]),
     f"cannot compute {-10 ** 308} - {10 ** 308}"),
])
def test_bad_operands_raise_guard_eval_error(expr, message):
    with pytest.raises(errors.GuardEvalError) as exc:
        evaluate(expr, {})
    assert str(exc.value).startswith(message)


def test_in_range_is_the_range_of_a_float_for_integers_too():
    top = int(sys.float_info.max)
    assert all(map(in_range, [0, -1.5, top, -top, sys.float_info.max]))
    assert not any(map(in_range, [top + 1, -top - 1, float("inf"),
                                  float("-inf"), float("nan")]))


def test_an_integer_sum_in_the_range_of_a_float_stays_exact():
    top = int(sys.float_info.max)
    assert evaluate(chain(Lit(top - 1), [("+", Lit(1))]), {}) == top
    assert evaluate(chain(Lit(-top), [("-", Lit(0))]), {}) == -top
    assert evaluate(chain(Lit(10 ** 300), [("+", Lit(1))]), {}) == (
        10 ** 300 + 1)


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
    guard = Unary("not", chain(PathRef("A"), [
        ("or", Binary("<", PathRef("B.c"), chain(PathRef("D"), [
            ("-", Lit(1))])))]))
    assert paths_in(guard) == {"A", "B.c", "D"}


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
    assert printed.startswith(
        "BehaviorEdge(src='D', dst='E', guard=Binary(op='=', left=Chain("
        "first=PathRef(path='A'), rest=(('+', PathRef(path='A')), ")
    assert printed.endswith(", ('+', PathRef(path='A')))), "
                            "right=Lit(value=1)))")
    assert printed.count("PathRef(path='A')") == 3000


def test_repr_matches_the_dataclass_form():
    expr = chain(Binary("<", PathRef("A"), Lit(1)), [
        ("and", Unary("not", chain(Lit(2), [("+", Lit("x"))])))])
    assert repr(expr) == (
        "Chain(first=Binary(op='<', left=PathRef(path='A'), "
        "right=Lit(value=1)), rest=(('and', Unary(op='not', operand=Chain("
        "first=Lit(value=2), rest=(('+', Lit(value='x')),)))),))")
    assert expr == eval(repr(expr))
    assert expr != chain(Binary("<", PathRef("A"), Lit(1)),
                         [("and", Lit(1))])
    assert chain(Lit(1), [("+", Lit(2))]) != Lit(1)
    assert len({expr, eval(repr(expr))}) == 1


@pytest.mark.parametrize("text, same", [
    ("(A + 1) + 2", "A + 1 + 2"),
    ("(A - 1) + 2 - B", "A - 1 + 2 - B"),
    ("((A) and (B)) and (A)", "A and B and A"),
    ("((A or B) or A) or (B)", "A or B or A or B"),
])
def test_a_run_has_one_tree(text, same):
    assert _guard(text) == _guard(same)
    assert to_text(_guard(text)) == to_text(_guard(same))


def test_a_parenthesised_operand_after_the_first_stays_apart():
    nested = _guard("A + (1 + 2)")
    assert nested == chain(PathRef("A"), [("+", chain(Lit(1), [
        ("+", Lit(2))]))])
    assert nested != _guard("A + 1 + 2")
    assert to_text(nested) == "A + (1 + 2)"
    assert _guard("A and (B and A)") != _guard("A and B and A")
    assert to_text(_guard("A + 1 + 2")) == "A + 1 + 2"
    assert _guard("A + 1 + 2") == Chain(PathRef("A"), (("+", Lit(1)),
                                                        ("+", Lit(2))))


def test_chain_extends_only_the_same_run():
    a, b, c = PathRef("A"), PathRef("B"), PathRef("C")
    plus = chain(a, [("+", b)])
    assert chain(plus, [("-", c)]) == Chain(a, (("+", b), ("-", c)))
    assert chain(plus, [("and", c)]) == Chain(plus, (("and", c),))
    either = chain(a, [("or", b)])
    assert chain(either, [("and", c)]) == Chain(either, (("and", c),))
    assert chain(either, []) is either


_ALL_NAMES = ["A", "B.c"]
_LITERALS = st.one_of(
    st.integers(-10 ** 12, 10 ** 12), st.booleans(), st.text(max_size=4),
    st.floats(allow_nan=False, allow_infinity=False))


def _runs(inner, ops):
    return st.builds(chain, inner, st.lists(
        st.tuples(ops, inner), min_size=1, max_size=3))


#: Expressions as the parser builds them: every run through `chain`.
_CANONICAL = st.recursive(
    st.one_of(st.builds(Lit, _LITERALS),
              st.builds(PathRef, st.sampled_from(_ALL_NAMES))),
    lambda inner: st.one_of(
        st.builds(Unary, st.just("not"), inner),
        st.builds(Binary, st.sampled_from(["<", "<=", "=", "!=", ">=", ">"]),
                  inner, inner),
        _runs(inner, st.sampled_from(["+", "-"])),
        _runs(inner, st.just("and")),
        _runs(inner, st.just("or"))),
    max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(_CANONICAL)
def test_parse_of_to_text_is_the_same_expression(expr):
    parsed = _guard(to_text(expr))
    assert parsed == expr and hash(parsed) == hash(expr)
    assert to_text(parsed) == to_text(expr)
