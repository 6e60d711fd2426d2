import math

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from spencerkit.expr import (
    MAX_NESTING,
    BinOp,
    Call,
    ExprNameError,
    ExprSyntaxError,
    Neg,
    Num,
    Pow,
    Var,
    evaluate_all,
    parse_expr,
    powi,
)

from conftest import reference_evaluate, to_sympy


class TestParse:
    def test_difference_of_squares(self):
        e = parse_expr("x1^2 - x2^2", 2)
        assert e == BinOp("-", Pow(Var(1), 2), Pow(Var(2), 2))

    def test_function_product_evaluates(self):
        e = parse_expr("sin(x1)*exp(x2)", 2)
        assert e.evaluate((0.0, 0.0)) == 0.0

    def test_variable_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            parse_expr("x3", 2)

    def test_precedence_pow_over_unary_minus(self):
        e = parse_expr("-x1^2", 1)
        assert e == Neg(Pow(Var(1), 2))
        assert e.evaluate((3.0,)) == -9.0

    def test_unary_minus_over_mul(self):
        e = parse_expr("-x1*x2", 2)
        assert e.evaluate((2.0, 5.0)) == -10.0

    def test_constants(self):
        assert parse_expr("pi", 1).evaluate((0.0,)) == pytest.approx(math.pi)
        assert parse_expr("e", 1).evaluate((0.0,)) == pytest.approx(math.e)

    def test_negative_integer_exponent(self):
        e = parse_expr("x1^-2", 1)
        assert e.evaluate((2.0,)) == 0.25

    def test_syntax_error_offset(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expr("x1 + @", 1)
        assert err.value.offset == 5

    def test_unknown_identifier(self):
        with pytest.raises(ExprNameError, match="foo"):
            parse_expr("foo(x1)", 1)

    def test_unknown_name_not_variable(self):
        with pytest.raises(ExprNameError):
            parse_expr("y1 + 2", 2)

    def test_empty_rejected(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("   ", 2)

    def test_fractional_exponent_rejected(self):
        with pytest.raises(ExprSyntaxError, match="integer"):
            parse_expr("x1^2.5", 1)

    def test_chained_pow_rejected(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("x1^2^3", 1)

    def test_missing_paren(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("sin(x1", 1)

    @pytest.mark.parametrize("text,offset", [
        ("(" * 600 + "x1" + ")" * 600, MAX_NESTING),
        ("-" * 1500 + "x1", MAX_NESTING),
        ("sin(" * 600 + "x1" + ")" * 600, 4 * MAX_NESTING),
        ("-(" * 300 + "x1" + ")" * 300, MAX_NESTING),
    ], ids=["parens", "minus", "calls", "mixed"])
    def test_deep_nesting_is_a_syntax_error(self, text, offset):
        # the offset is that of the first token past the limit
        with pytest.raises(ExprSyntaxError, match="nested too deeply") as err:
            parse_expr(text, 1)
        assert err.value.offset == offset

    def test_nesting_up_to_the_limit_parses(self):
        assert parse_expr("(" * MAX_NESTING + "x1" + ")" * MAX_NESTING, 1) == Var(1)
        e = parse_expr("-" * MAX_NESTING + "x1", 1)
        assert e.evaluate((2.0,)) == (-1.0) ** MAX_NESTING * 2.0


class TestPrintRoundTrip:
    def test_subtraction_associativity(self):
        e = parse_expr("x1 - (x2 - 1)", 2)
        assert parse_expr(str(e), 2) == e

    def test_division_chain(self):
        e = parse_expr("x1 / x2 / 2", 2)
        assert parse_expr(str(e), 2) == e
        assert e.evaluate((8.0, 2.0)) == 2.0


def _exprs(max_depth=4):
    leaves = st.one_of(
        st.integers(0, 9).map(lambda v: Num(float(v))),
        st.floats(0.1, 10.0, allow_nan=False).map(Num),
        st.integers(1, 4).map(Var),
    )

    def extend(children):
        return st.one_of(
            children.map(Neg),
            st.tuples(st.sampled_from("+-*/"), children, children)
            .map(lambda t: BinOp(*t)),
            st.tuples(children, st.integers(0, 3)).map(lambda t: Pow(*t)),
            st.tuples(st.sampled_from(["sin", "cos", "exp"]), children)
            .map(lambda t: Call(*t)),
        )

    return st.recursive(leaves, extend, max_leaves=12)


@given(_exprs())
@settings(max_examples=200, deadline=None)
def test_print_parse_round_trip(e):
    assert parse_expr(str(e), 4) == e


_POINT = (0.3, 1.7, -0.4, 2.2)
_OPEN_MESH = tuple(np.meshgrid(*(np.linspace(-1.0, 2.0, r) for r in (3, 4, 5, 2)),
                               indexing="ij", sparse=True))


def _outcome(fn):
    """fn()'s value, or the type of the arithmetic error it raised (Python
    floats raise where numpy arrays give inf or NaN)."""
    with np.errstate(all="ignore"):
        try:
            return fn()
        except ArithmeticError as exc:
            return type(exc)


def _same_bits(a, b) -> bool:
    if isinstance(a, type) or isinstance(b, type):
        return a is b
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return (a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


@given(_exprs())
@settings(max_examples=200, deadline=None)
def test_graph_evaluate_matches_reference(e):
    # graphs with shared nodes: e under two parents, and e's derivatives,
    # which reuse e's subexpressions
    graphs = [e, BinOp("*", e, BinOp("-", e, Neg(e)))]
    for axis in range(1, 5):
        d = _outcome(lambda: e.derivative(axis))
        if not isinstance(d, type):  # constant folding can raise
            graphs.append(d)
            assert e.derivative(axis) is d
    for g in graphs:
        for coords in (_POINT, _OPEN_MESH):
            mine = _outcome(lambda: g.evaluate(coords))
            assert _same_bits(mine, _outcome(lambda: reference_evaluate(g, coords)))
    together = _outcome(lambda: evaluate_all(graphs, _OPEN_MESH))
    if not isinstance(together, type):
        for g, value in zip(graphs, together):
            assert _same_bits(value, _outcome(lambda: reference_evaluate(g, _OPEN_MESH)))


class TestDeepExpressions:
    TERMS = 3000

    def test_long_sum_print_parse_round_trip(self):
        e = parse_expr(" + ".join(["0.5*x1"] * self.TERMS), 1)
        text = str(e)
        assert text == " + ".join(["0.5 * x1"] * self.TERMS)
        back = parse_expr(text, 1)
        # compare along the left spine: == recurses, and would need a stack
        # as deep as the sum is long
        a, b = e, back
        for _ in range(self.TERMS - 1):
            assert isinstance(b, BinOp) and b.op == "+" and b.right == a.right
            a, b = a.left, b.left
        assert a == b
        assert back.max_var_index() == 1
        assert back.evaluate((2.0,)) == float(self.TERMS)
        assert back.derivative(1) == Num(0.5 * self.TERMS)


class TestDerivative:
    def test_product_power(self):
        e = parse_expr("x1^2*x2", 2)
        d = e.derivative(1)
        assert d.evaluate((3.0, 5.0)) == 30.0

    def test_independent_variable(self):
        assert parse_expr("sin(x1)", 2).derivative(2) == Num(0.0)

    def test_axis_is_one_based(self):
        with pytest.raises(ValueError, match="1-based"):
            Var(1).derivative(0)

    def test_constant_powers_fold_as_on_arrays(self):
        # Python floats raise on these; float64 arrays give inf
        assert powi(Num(0.0), -1) == Num(math.inf)
        assert powi(Num(10.0), 400) == Num(math.inf)
        assert powi(Num(-2.0), 3) == Num(-8.0)
        # a constant power has derivative 0, so 0^0 does not become 0 * 0^-1
        d = parse_expr("0^0*x1 + x2", 2).derivative(1)
        assert "nan" not in str(d) and str(d) == "0.0^0"
        assert d.evaluate((0.5, 0.5)) == 1.0

    def test_repeat_call_returns_the_cached_node(self):
        e = parse_expr("sin(x1*x2) + x1^3/(x2 + 2)", 2)
        for axis in (1, 2):
            assert e.derivative(axis) is e.derivative(axis)

    def test_product_rule_exp(self):
        d = parse_expr("exp(x1)*x1", 1).derivative(1)
        x = 0.7
        assert d.evaluate((x,)) == pytest.approx(math.exp(x) * x + math.exp(x),
                                                 rel=1e-14)

    @pytest.mark.parametrize("text,dim", [
        ("x1^3 - 2*x2^2 + x1*x2", 2),
        ("sin(x1)*cos(x2) + exp(x1*x2)", 2),
        ("sqrt(x1 + 2) / (x2 + 3)", 2),
        ("(x1 + x2)^4 - x1/x2", 2),
        ("exp(sin(x1^2))", 1),
    ])
    def test_against_sympy(self, text, dim):
        e = parse_expr(text, dim)
        symbols = sp.symbols(f"x1:{dim + 1}", real=True)
        for axis in range(1, dim + 1):
            mine = to_sympy(e.derivative(axis), symbols)
            ref = sp.diff(to_sympy(e, symbols), symbols[axis - 1])
            assert sp.simplify(mine - ref) == 0

    def test_numeric_agreement_random_points(self):
        rng = np.random.default_rng(3)
        e = parse_expr("sin(x1*x2) + x1^3/(x2 + 2)", 2)
        d1 = e.derivative(1)
        pts = rng.uniform(0.2, 1.0, size=(50, 2))
        h = 1e-6
        for x, y in pts:
            fd = (e.evaluate((x + h, y)) - e.evaluate((x - h, y))) / (2 * h)
            assert d1.evaluate((x, y)) == pytest.approx(fd, abs=1e-8)
