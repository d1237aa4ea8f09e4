import contextlib
import operator
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from tmkit import dsl, errors, expr as ex
from tmkit.errors import GuardEvalError
from tmkit.events import BehaviorEdge
from tmkit.expr import (UNSET, Binary, Chain, Lit, PathRef, Unary, chain,
                        compiled, evaluate, in_range, paths_in, to_text)


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
    ("(not A) + 1", "(not A) + 1"),
    ("not A = 1", "not A = 1"),
    ("A = 1 and B = 2", "A = 1 and B = 2"),
    ("A = 1 and B = 2 and A = 3", "A = 1 and B = 2 and A = 3"),
    ("A = 1 and B = 2 or A = 3", "A = 1 and B = 2 or A = 3"),
    ("A or B and A", "A or B and A"),
    ("-1 - -2.5", "-1 - -2.5"),
])
def test_to_text_reparses_to_the_same_tree(text, printed):
    guard = _guard(text)
    assert to_text(guard) == printed
    assert _guard(printed) == guard


@pytest.mark.parametrize("expr", [
    Chain(PathRef("true"), (("+", Lit(1)),)),
    Binary("=", PathRef("not"), Lit(1)),
    Unary("not", PathRef("false.x")),
    Binary("<", Lit(0), PathRef("true.b.c")),
    chain(Lit(1), [("and", Chain(PathRef("not.x"), (("-", Lit(1)),)))]),
    Chain(Lit(1), (("+", Binary("<", PathRef("not"), Lit(2))),)),
])
def test_to_text_refuses_a_path_that_would_read_as_a_keyword(expr):
    # `true + 1` would read back as a literal, `not = 1` as no expression
    with pytest.raises(errors.ModelError, match="cannot be written"):
        to_text(expr)


@pytest.mark.parametrize("path", ["truex", "A.true", "nota.b", "A.not",
                                  "falsey", "and", "or.x"])
def test_to_text_writes_a_path_whose_head_is_no_keyword(path):
    assert _guard(to_text(Binary("=", PathRef(path), Lit(1)))) == \
        Binary("=", PathRef(path), Lit(1))


@pytest.mark.parametrize("text", ["A = not", "A = 1 + not.x", "not A = not",
                                  "A < not - 1 or B = not.b"])
def test_to_text_writes_a_not_path_where_not_reads_as_a_path(text):
    guard = _guard(text)
    assert to_text(guard) == text and _guard(to_text(guard)) == guard


def _rule(text):
    """Parse `text` as the update rule of a process action."""
    static, _, _ = dsl.parse(
        f"thimac A {{ store = 0; process = A := {text}; }}\n")
    return static.actions["A.process"].update[1]


def _renamed(expr, names):
    """`expr` with each path in `names` replaced by the name it maps to."""
    kind = type(expr)
    if kind is PathRef:
        return PathRef(names.get(expr.path, expr.path))
    if kind is Unary:
        return Unary(expr.op, _renamed(expr.operand, names))
    if kind is Binary:
        return Binary(expr.op, _renamed(expr.left, names),
                      _renamed(expr.right, names))
    if kind is Chain:
        return Chain(_renamed(expr.first, names), tuple(
            (op, _renamed(operand, names)) for op, operand in expr.rest))
    return expr


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


def _trees(names):
    """Expressions as the parser builds them, every run through `chain`,
    reading the paths `names`."""
    return st.recursive(
        st.one_of(st.builds(Lit, _LITERALS),
                  st.builds(PathRef, st.sampled_from(names))),
        lambda inner: st.one_of(
            st.builds(Unary, st.just("not"), inner),
            st.builds(Binary,
                      st.sampled_from(["<", "<=", "=", "!=", ">=", ">"]),
                      inner, inner),
            _runs(inner, st.sampled_from(["+", "-"])),
            _runs(inner, st.just("and")),
            _runs(inner, st.just("or"))),
        max_leaves=12)


_CANONICAL = _trees(_ALL_NAMES)

#: Nodes a library may build that no text reads back as: a literal of no
#: value type, a Unary other than `not`, a Binary that is no comparison,
#: and a Chain of no operator, of one that no run takes, or of two runs
_JUNK = st.one_of(
    st.builds(Lit, st.sampled_from([None, float("nan"), float("-inf"),
                                    10 ** 400, [1]])),
    st.builds(Unary, st.sampled_from(["-", "and", "~"]), _CANONICAL),
    st.builds(Binary, st.sampled_from(["~", "+", "or", "not"]), _CANONICAL,
              _CANONICAL),
    st.builds(Chain, _CANONICAL, st.one_of(
        st.just(()),
        st.tuples(st.tuples(st.sampled_from(["*", "<", "=", "not", "~"]),
                            _CANONICAL)),
        st.tuples(st.tuples(st.sampled_from(["and", "or"]), _CANONICAL),
                  st.tuples(st.sampled_from(["+", "-", "or"]), _CANONICAL))
        .filter(lambda rest: rest[0][0] != rest[1][0]))))


@settings(max_examples=300, deadline=None)
@given(_CANONICAL, st.none() | _JUNK, st.booleans())
def test_parse_of_to_text_is_the_same_expression(expr, junk, first):
    if junk is not None:  # as a first operand or a later one
        tree = Binary("=", junk, expr) if first else \
            chain(expr, [("and", junk)])
        with pytest.raises(errors.ModelError):
            to_text(tree)
        return
    parsed = _guard(to_text(expr))
    assert parsed == expr and hash(parsed) == hash(expr)
    assert to_text(parsed) == to_text(expr)


#: Paths whose first part is a keyword, each with a stand-in name longer
#: than any string literal the trees hold.
_KEYWORD_PATHS = {"not": "Qz__0", "not.x": "Qz__1", "true": "Qz__2",
                  "false.y": "Qz__3"}
_KEYWORD_OF = {stand_in: path for path, stand_in in _KEYWORD_PATHS.items()}


@settings(max_examples=300, deadline=None)
@given(_trees(["A", *_KEYWORD_PATHS]), st.booleans())
def test_to_text_refuses_exactly_the_paths_that_read_back_otherwise(
        expr, rule):
    parse, loosest = (_rule, ex.SUM) if rule else (_guard, ex.OR)
    # the text to_text would write if each keyword path were a name
    text = re.sub(r"Qz__\d", lambda match: _KEYWORD_OF[match[0]],
                  to_text(_renamed(expr, _KEYWORD_PATHS), loosest))
    try:
        written = to_text(expr, loosest)
    except errors.ModelError:
        with contextlib.suppress(dsl.ParseError):
            assert parse(text) != expr
    else:
        assert written == text and parse(text) == expr


def _binding(expr):
    """How tightly `expr` binds, restated from the parser's levels."""
    if type(expr) is Chain:
        return {"or": 0, "and": 1, "+": 4, "-": 4}[expr.rest[0][0]]
    return {Unary: 2, Binary: 3}.get(type(expr), 5)


def _write(draw, expr, loosest=0):
    """Text that parses to `expr`, with parentheses where the grammar
    needs them and, at random, around any other subexpression too."""
    kind, binding = type(expr), _binding(expr)
    if kind is Unary:
        text = "not " + _write(draw, expr.operand, 2)
    elif kind is Binary:
        text = (f"{_write(draw, expr.left, 4)} {expr.op} "
                f"{_write(draw, expr.right, 4)}")
    elif kind is Chain:
        text = _write(draw, expr.first, binding) + "".join(
            f" {op} {_write(draw, operand, binding + 1)}"
            for op, operand in expr.rest)
    else:
        text = to_text(expr)
    return f"({text})" if binding < loosest or draw(st.booleans()) else text


def _nesting(text):
    """How deep `(` and `not` nest in a guard, each one level, as the
    parser bounds them: a `not` holds until the next `and`, `or` or `)`
    of its level."""
    stack, deepest = [], 0
    for lexeme in dsl._PATH_LEXEME_RE.findall(text):
        if lexeme in ("(", "not"):
            stack.append(lexeme)
            deepest = max(deepest, len(stack))
        elif lexeme in ("and", "or", ")", ""):
            while stack and stack[-1] == "not":
                stack.pop()
            if lexeme == ")":
                stack.pop()
    return deepest


@settings(max_examples=300, deadline=None)
@given(_CANONICAL, st.data())
def test_to_text_nests_no_deeper_than_any_text_of_the_tree(expr, data):
    text = _write(data.draw, expr)
    assert _guard(text) == expr
    assert _nesting(to_text(expr)) <= _nesting(text)


# -- compiled closures against the recursive interpreter they replace --

_CMP = {"<": operator.lt, "<=": operator.le, "=": operator.eq,
        "!=": operator.ne, ">=": operator.ge, ">": operator.gt}


def _reference_evaluate(expr, stores):
    """The recursive tree interpreter that `compiled` replaced: the oracle
    of the property below for one change, then deleted."""
    kind = type(expr)
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
        left = _reference_evaluate(expr.left, stores)
        right = _reference_evaluate(expr.right, stores)
        compare = _CMP.get(expr.op)
        if compare is None:
            raise GuardEvalError(f"unknown operator {expr.op!r}")
        try:
            return compare(left, right)
        except TypeError as exc:
            raise GuardEvalError(
                f"cannot compare {left!r} with {right!r}") from exc
    if kind is Unary:
        return not _reference_evaluate(expr.operand, stores)
    value = _reference_evaluate(expr.first, stores)
    for op, operand in expr.rest:
        if op == "+" or op == "-":
            right = _reference_evaluate(operand, stores)
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
            value = bool(_reference_evaluate(operand, stores))
        elif op == "or":
            if value:
                return True
            value = bool(_reference_evaluate(operand, stores))
        else:
            raise GuardEvalError(f"unknown operator {op!r}")
    return value


_TOP = int(sys.float_info.max)
_ORACLE_PATHS = ["A", "B.c", "D", "Missing"]
#: numbers near and past the range of a float, text, booleans
_ORACLE_VALUES = st.one_of(
    st.integers(-3, 3), st.integers(-2 * _TOP, 2 * _TOP),
    st.sampled_from([_TOP, -_TOP, 1.7e308, -1.7e308, 0.5, -0.0]),
    st.floats(allow_nan=False), st.booleans(), st.text(max_size=3))

#: Trees built directly, not through `chain`: mixed and unknown
#: operators in one run, comparisons under unknown operators.
_ANY_TREE = st.recursive(
    st.one_of(st.builds(Lit, _ORACLE_VALUES),
              st.builds(PathRef, st.sampled_from(_ORACLE_PATHS))),
    lambda inner: st.one_of(
        st.builds(Unary, st.just("not"), inner),
        st.builds(Binary, st.sampled_from([*_CMP, "^", "+", "and"]),
                  inner, inner),
        st.builds(Chain, inner, st.lists(st.tuples(
            st.sampled_from(["+", "-", "and", "or", "^", "<"]), inner),
            min_size=1, max_size=4).map(tuple))),
    max_leaves=14)

#: stores that leave some paths missing and some unset
_ORACLE_STORES = st.dictionaries(
    st.sampled_from(_ORACLE_PATHS[:-1]),
    st.one_of(_ORACLE_VALUES, st.just(UNSET)))


def _outcome(function, *args):
    """(type, value) of the result, or (type, message) of the error."""
    try:
        result = function(*args)
    except Exception as exc:  # noqa: BLE001 -- any error must match
        return type(exc), str(exc)
    return type(result), result


@settings(max_examples=500, deadline=None)
@given(_ANY_TREE, _ORACLE_STORES)
def test_compiled_agrees_with_the_reference_interpreter(expr, stores):
    function = compiled(expr)  # building never raises
    assert _outcome(function, stores) == \
        _outcome(_reference_evaluate, expr, stores)
    assert _outcome(evaluate, expr, stores) == \
        _outcome(_reference_evaluate, expr, stores)


def test_a_binary_reads_both_operands_before_its_unknown_operator():
    with pytest.raises(GuardEvalError, match="'B' is unset"):
        compiled(Binary("^", PathRef("A"), PathRef("B")))({"A": 1, "B": UNSET})
    with pytest.raises(GuardEvalError, match="unknown operator '\\^'"):
        compiled(Binary("^", PathRef("A"), PathRef("B")))({"A": 1, "B": 2})


def test_a_chain_stops_at_its_unknown_operator_before_the_operand():
    function = compiled(Chain(Lit(1), (("^", PathRef("Missing")),)))
    with pytest.raises(GuardEvalError, match="unknown operator '\\^'"):
        function({})


def test_one_closure_serves_every_store_map():
    rule = compiled(chain(PathRef("C"), [("+", Lit(1))]))
    assert [rule({"C": n}) for n in (0, 1.5, -3)] == [1, 2.5, -2]
    with pytest.raises(GuardEvalError, match="cannot compute 'x' \\+ 1"):
        rule({"C": "x"})
