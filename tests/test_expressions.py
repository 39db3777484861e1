"""Parser, symbolic derivative, and compiled form of scalar expressions.

The derivative is checked against central finite differences, and the
compiled form, one point at a time and as a numpy pass over a stack of
points, against a tree walk written here from the node definitions alone.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unilab.errors import (
    EvaluationDomainError,
    ExpressionCompileError,
    ExpressionSyntaxError,
    NonFiniteError,
    UnknownIdentifierError,
)
from unilab.expressions import (
    Add,
    Call,
    ExpressionStack,
    Mul,
    Num,
    Var,
    _Parser,
    call_compiled,
    compile_expr,
    diff,
    parse,
    to_python_source,
)

FD_STEP = 1e-5


def eval_oracle(node, x):
    """Shadow evaluator: the tree walked with the math module, used only by the tests."""
    name = type(node).__name__
    if name == "Num":
        return node.value
    if name == "Const":
        return {"pi": math.pi, "e": math.e}[node.name]
    if name == "Var":
        return x[node.axis - 1]
    if name == "Neg":
        return -eval_oracle(node.arg, x)
    if name == "Add":
        return eval_oracle(node.lhs, x) + eval_oracle(node.rhs, x)
    if name == "Sub":
        return eval_oracle(node.lhs, x) - eval_oracle(node.rhs, x)
    if name == "Mul":
        return eval_oracle(node.lhs, x) * eval_oracle(node.rhs, x)
    if name == "Div":
        return eval_oracle(node.lhs, x) / eval_oracle(node.rhs, x)
    if name == "Pow":
        return math.pow(eval_oracle(node.base, x), eval_oracle(node.exponent, x))
    if name == "Call":
        return getattr(math, node.fn)(eval_oracle(node.arg, x))
    raise AssertionError(name)


def value_at(e, point):
    """The library's value at one point: the compiled expression, through call_compiled."""
    return call_compiled(compile_expr(e), point)


def fd_derivative(text, point, axis):
    e = parse(text)
    lo = list(point)
    hi = list(point)
    lo[axis - 1] -= FD_STEP
    hi[axis - 1] += FD_STEP
    return (eval_oracle(e, hi) - eval_oracle(e, lo)) / (2.0 * FD_STEP)


class TestParsing:
    def test_ast_structure(self):
        e = parse("x1 + 2*x2")
        assert isinstance(e, Add)
        assert isinstance(e.lhs, Var) and e.lhs.axis == 1
        assert isinstance(e.rhs, Mul)
        assert isinstance(e.rhs.lhs, Num) and e.rhs.lhs.value == 2.0
        assert isinstance(e.rhs.rhs, Var) and e.rhs.rhs.axis == 2

    def test_function_call(self):
        e = parse("sin(x3)")
        assert isinstance(e, Call) and e.fn == "sin"

    def test_error_offset(self):
        with pytest.raises(ExpressionSyntaxError) as info:
            parse("x1 + * 2")
        assert info.value.offset == 5

    def test_error_offset_trailing(self):
        with pytest.raises(ExpressionSyntaxError) as info:
            parse("x1 + 2 )")
        assert info.value.offset == 7

    def test_unknown_name(self):
        with pytest.raises(UnknownIdentifierError) as info:
            parse("x1 + foo(x2)")
        assert info.value.offset == 5

    def test_unknown_variable(self):
        with pytest.raises(UnknownIdentifierError):
            parse("x4")

    def test_empty_input(self):
        with pytest.raises(ExpressionSyntaxError):
            parse("   ")

    def test_power_right_associative(self):
        # 2^3^2 = 2^(3^2) = 512
        assert eval_oracle(parse("2^3^2"), (0, 0, 0)) == 512.0

    def test_power_binds_tighter_than_unary_minus(self):
        assert eval_oracle(parse("-2^2"), (0, 0, 0)) == -4.0

    def test_precedence(self):
        assert eval_oracle(parse("2 + 3 * 4 ^ 2"), (0, 0, 0)) == 50.0

    def test_parentheses(self):
        assert eval_oracle(parse("(2 + 3) * 4"), (0, 0, 0)) == 20.0


EXPRESSIONS = [
    "x1 + 2*x2",
    "sin(x1) * cos(x2)",
    "exp(x1 * x2) - log(1 + x3^2)",
    "sqrt(1 + x1^2)",
    "tan(x1 / 4)",
    "x1^3 - 2*x2^2 + x3",
    "sin(cos(x1)) + log(exp(x2))",
    "sqrt(x1^2 + x2^2 + x3^2 + 1)",
    "(pi/180) * (10*x1 + 30*x2)",
    "1 / (1 + x1)",
    "-x1 + e^x2",
]

POINTS = [(0.3, 0.7, 0.2), (1.1, -0.4, 0.9), (-0.5, 0.25, -0.8)]


class TestEvaluation:
    @pytest.mark.parametrize("text", EXPRESSIONS)
    @pytest.mark.parametrize("point", POINTS)
    def test_against_shadow_evaluator(self, text, point):
        e = parse(text)
        assert value_at(e, point) == pytest.approx(eval_oracle(e, point), rel=1e-14, abs=1e-14)

    def test_division_by_zero(self):
        with pytest.raises(EvaluationDomainError):
            value_at(parse("1 / x1"), (0.0, 0.0, 0.0))

    def test_log_of_negative(self):
        with pytest.raises(EvaluationDomainError):
            value_at(parse("log(x1)"), (-1.0, 0.0, 0.0))

    def test_negative_base_fractional_exponent(self):
        with pytest.raises(EvaluationDomainError):
            value_at(parse("x1 ^ 0.5"), (-1.0, 0.0, 0.0))

    def test_overflow_is_nonfinite(self):
        with pytest.raises(NonFiniteError):
            value_at(parse("exp(x1)"), (1e9, 0.0, 0.0))

    @settings(max_examples=60, deadline=None)
    @given(
        a=st.floats(-5, 5),
        b=st.floats(-5, 5),
        x=st.floats(-2, 2),
        y=st.floats(-2, 2),
    )
    def test_linearity(self, a, b, x, y):
        e = parse(f"({a!r}) * x1 + ({b!r}) * x2")
        assert value_at(e, (x, y, 0.0)) == pytest.approx(a * x + b * y, abs=1e-9)


class TestDerivative:
    @pytest.mark.parametrize("text", EXPRESSIONS)
    @pytest.mark.parametrize("axis", [1, 2, 3])
    def test_against_finite_differences(self, text, axis):
        point = (0.3, 0.7, 0.2)
        d = diff(parse(text), axis)
        exact = value_at(d, point)
        approx = fd_derivative(text, point, axis)
        assert exact == pytest.approx(approx, rel=1e-7, abs=1e-7)

    def test_constant_derivative_is_zero(self):
        d = diff(parse("pi * 2 + e"), 1)
        assert isinstance(d, Num) and d.value == 0.0

    def test_power_rule(self):
        d = diff(parse("x1^3"), 1)
        assert value_at(d, (2.0, 0.0, 0.0)) == pytest.approx(12.0)

    def test_general_power(self):
        # d/dx1 x1^x2 at (2, 3): x1^x2 (x2/x1) = 8 * 1.5 = 12
        d = diff(parse("x1^x2"), 1)
        assert value_at(d, (2.0, 3.0, 0.0)) == pytest.approx(12.0)

    def test_axis_validation(self):
        with pytest.raises(ValueError):
            diff(parse("x1"), 0)


# Expressions whose tree is exactly `levels` levels deep, one shape each.
DEEP_SHAPES = {
    "sum": lambda levels: "+".join(["x1"] * levels),
    "quotient": lambda levels: "/".join(["x1", "x2"] * levels)[: 3 * levels - 1],
    "tower": lambda levels: "^".join(["x1"] * levels),
    "parentheses": lambda levels: "(" * (levels - 1) + "x1" + ")" * (levels - 1),
    "squared": lambda levels: "(" * (levels - 2) + "x1" + ")" * (levels - 2) + "^2",
    "minus": lambda levels: "-" * (levels - 1) + "x1",
}


class TestDepthLimit:
    @pytest.mark.parametrize("shape", DEEP_SHAPES)
    def test_deepest_accepted_tree_stays_inside_the_recursion_limit(self, shape):
        e = parse(DEEP_SHAPES[shape](_Parser.MAX_DEPTH))
        assert math.isfinite(eval_oracle(e, (1.0, 1.0, 1.0)))
        for tree in [e] + [diff(e, k) for k in (1, 2, 3)]:
            to_python_source(tree)
            try:
                compile_expr(tree)
            except ExpressionCompileError:
                pass  # nesting beyond Python's parser: a located error, not a crash

    @pytest.mark.parametrize("shape", DEEP_SHAPES)
    def test_one_level_deeper_is_refused(self, shape):
        with pytest.raises(ExpressionSyntaxError) as info:
            parse(DEEP_SHAPES[shape](_Parser.MAX_DEPTH + 1))
        assert info.value.message == f"expression nests deeper than {_Parser.MAX_DEPTH} levels"

    def test_long_sum_is_refused_at_its_last_operator(self):
        text = "+".join(["x1"] * (_Parser.MAX_DEPTH + 1))
        with pytest.raises(ExpressionSyntaxError) as info:
            parse(text)
        assert info.value.offset == text.rindex("+")


class TestCompiled:
    @pytest.mark.parametrize("text", EXPRESSIONS)
    @pytest.mark.parametrize("point", POINTS)
    def test_matches_interpreter(self, text, point):
        e = parse(text)
        values, failures = ExpressionStack([e]).evaluate(np.array([point]))
        assert failures == {}
        assert values[0, 0] == pytest.approx(eval_oracle(e, point), rel=1e-14, abs=1e-14)

    def test_compiled_domain_error(self):
        fn = compile_expr(parse("sqrt(x1)"))
        with pytest.raises(EvaluationDomainError):
            call_compiled(fn, (-1.0, 0.0, 0.0))
