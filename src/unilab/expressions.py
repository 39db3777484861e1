"""Scalar expressions in body coordinates: parse, differentiate, compile.

Grammar, with standard precedence (^ is right-associative and binds
tighter than unary minus):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?
    atom   := NUMBER | 'pi' | 'e' | 'x1' | 'x2' | 'x3'
            | FUNC '(' expr ')' | '(' expr ')'
    FUNC   := 'sin' | 'cos' | 'tan' | 'exp' | 'log' | 'sqrt'

Differentiation is exact on the tree. A power with a non-constant
exponent differentiates through the rewrite u^v = exp(v*log(u)).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Union

import numpy as np

from .errors import (
    EvaluationDomainError,
    ExpressionCompileError,
    ExpressionSyntaxError,
    NonFiniteError,
    UnilabError,
    UnknownIdentifierError,
)

CONSTANTS = {"pi": math.pi, "e": math.e}
FUNCTIONS = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
}
VARIABLES = {"x1": 1, "x2": 2, "x3": 3}


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Const:
    name: str


@dataclass(frozen=True)
class Var:
    axis: int  # 1, 2, or 3


@dataclass(frozen=True)
class Neg:
    arg: "ScalarExpr"


@dataclass(frozen=True)
class Add:
    lhs: "ScalarExpr"
    rhs: "ScalarExpr"


@dataclass(frozen=True)
class Sub:
    lhs: "ScalarExpr"
    rhs: "ScalarExpr"


@dataclass(frozen=True)
class Mul:
    lhs: "ScalarExpr"
    rhs: "ScalarExpr"


@dataclass(frozen=True)
class Div:
    lhs: "ScalarExpr"
    rhs: "ScalarExpr"


@dataclass(frozen=True)
class Pow:
    base: "ScalarExpr"
    exponent: "ScalarExpr"


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "ScalarExpr"


ScalarExpr = Union[Num, Const, Var, Neg, Add, Sub, Mul, Div, Pow, Call]


# ---------------------------------------------------------------------------
# Tokenizer and parser
# ---------------------------------------------------------------------------

_OPERATORS = set("+-*/^()")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Return (kind, text, offset) triples. Kinds: num, name, op, end."""
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _OPERATORS:
            tokens.append(("op", c, i))
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            start = i
            while i < n and text[i].isdigit():
                i += 1
            if i < n and text[i] == ".":
                i += 1
                while i < n and text[i].isdigit():
                    i += 1
            if i < n and text[i] in "eE":
                j = i + 1
                if j < n and text[j] in "+-":
                    j += 1
                if j < n and text[j].isdigit():
                    i = j
                    while i < n and text[i].isdigit():
                        i += 1
            tokens.append(("num", text[start:i], start))
            continue
        if c.isalpha() or c == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(("name", text[start:i], start))
            continue
        raise ExpressionSyntaxError(i, f"unexpected character {c!r}")
    tokens.append(("end", "", n))
    return tokens


_BINARY_OPS = {"+": (1, Add), "-": (1, Sub), "*": (2, Mul), "/": (2, Div)}


class _Parser:
    """Recursive descent over the grammar above, tracking each subtree's height.

    Every operator, call and pair of parentheses counts as one level.
    Trees deeper than MAX_DEPTH levels are refused with a located
    ExpressionSyntaxError, so neither this parser nor the recursive tree
    walkers (diff, to_python_source on an expression and on its
    derivatives, which can nest three times deeper) reach Python's
    default recursion limit. A 250-term sum is 251 levels deep. One
    method covers both binary precedence levels and one the unary, power
    and atom rules, so a level costs this parser at most three frames.
    """

    MAX_DEPTH = 256

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.open = 0  # levels opened around the operand being parsed

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, tok):
        if tok[0] == "end":
            raise ExpressionSyntaxError(tok[2], "unexpected end of expression")
        raise ExpressionSyntaxError(tok[2], f"unexpected token {tok[1]!r}")

    def expect_op(self, symbol: str):
        tok = self.advance()
        if tok[0] != "op" or tok[1] != symbol:
            self.fail(tok)

    def check(self, height: int, tok) -> int:
        if height > self.MAX_DEPTH:
            raise ExpressionSyntaxError(
                tok[2], f"expression nests deeper than {self.MAX_DEPTH} levels"
            )
        return height

    def inner(self, tok, parse):
        """(node, height) of parse() one level below tok."""
        self.open = self.check(self.open + 1, tok)
        node, height = parse()
        self.open -= 1
        return node, self.check(height + 1, tok)

    def parse(self) -> ScalarExpr:
        node, _ = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            self.fail(tok)
        return node

    def expr(self, level: int = 1) -> tuple[ScalarExpr, int]:
        """A left-associative chain of the binary operators binding at level or tighter.

        Level 1 is expr of the grammar, level 2 is term.
        """
        node, height = self.factor()
        while True:
            tok = self.peek()
            kind, text, _ = tok
            if kind != "op" or text not in _BINARY_OPS or _BINARY_OPS[text][0] < level:
                return node, height
            self.advance()
            precedence, node_type = _BINARY_OPS[text]
            rhs, rhs_height = self.expr(precedence + 1)
            node = node_type(node, rhs)
            height = self.check(max(height, rhs_height) + 1, tok)

    def factor(self) -> tuple[ScalarExpr, int]:
        """factor, power and atom of the grammar."""
        tok = self.advance()
        kind, text, offset = tok
        if kind == "op" and text == "-":
            arg, height = self.inner(tok, self.factor)
            return Neg(arg), height
        if kind == "num":
            base, height = Num(float(text)), 1
        elif kind == "name" and text in VARIABLES:
            base, height = Var(VARIABLES[text]), 1
        elif kind == "name" and text in CONSTANTS:
            base, height = Const(text), 1
        elif kind == "name" and text in FUNCTIONS:
            self.expect_op("(")
            arg, height = self.inner(tok, self.expr)
            self.expect_op(")")
            base = Call(text, arg)
        elif kind == "name":
            raise UnknownIdentifierError(offset, text)
        elif kind == "op" and text == "(":
            base, height = self.inner(tok, self.expr)
            self.expect_op(")")
        else:
            self.fail(tok)
        tok = self.peek()
        if tok[0] == "op" and tok[1] == "^":
            self.advance()
            exponent, exponent_height = self.inner(tok, self.factor)
            return Pow(base, exponent), self.check(max(height + 1, exponent_height), tok)
        return base, height


def parse(text: str) -> ScalarExpr:
    """Parse expression text; syntax faults carry the byte offset."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Differentiation
# ---------------------------------------------------------------------------


def _is_num(e: ScalarExpr, value=None) -> bool:
    return isinstance(e, Num) and (value is None or e.value == value)


def add(a: ScalarExpr, b: ScalarExpr) -> ScalarExpr:
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value + b.value)
    if _is_num(a, 0.0):
        return b
    if _is_num(b, 0.0):
        return a
    return Add(a, b)


def sub(a: ScalarExpr, b: ScalarExpr) -> ScalarExpr:
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value - b.value)
    if _is_num(b, 0.0):
        return a
    if _is_num(a, 0.0):
        return neg(b)
    return Sub(a, b)


def mul(a: ScalarExpr, b: ScalarExpr) -> ScalarExpr:
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value * b.value)
    if _is_num(a, 0.0) or _is_num(b, 0.0):
        return Num(0.0)
    if _is_num(a, 1.0):
        return b
    if _is_num(b, 1.0):
        return a
    return Mul(a, b)


def div(a: ScalarExpr, b: ScalarExpr) -> ScalarExpr:
    if isinstance(a, Num) and isinstance(b, Num) and b.value != 0.0:
        return Num(a.value / b.value)
    if _is_num(a, 0.0):
        return Num(0.0)
    if _is_num(b, 1.0):
        return a
    return Div(a, b)


def neg(a: ScalarExpr) -> ScalarExpr:
    if isinstance(a, Num):
        return Num(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def power(a: ScalarExpr, b: ScalarExpr) -> ScalarExpr:
    if _is_num(b, 1.0):
        return a
    if _is_num(b, 0.0):
        return Num(1.0)
    return Pow(a, b)


def diff(e: ScalarExpr, axis: int) -> ScalarExpr:
    """Exact partial derivative with respect to x<axis> (axis in 1..3)."""
    if axis not in (1, 2, 3):
        raise ValueError("axis must be 1, 2, or 3")
    return _diff(e, axis)


def _diff(e: ScalarExpr, axis: int) -> ScalarExpr:
    if isinstance(e, (Num, Const)):
        return Num(0.0)
    if isinstance(e, Var):
        return Num(1.0 if e.axis == axis else 0.0)
    if isinstance(e, Neg):
        return neg(_diff(e.arg, axis))
    if isinstance(e, Add):
        return add(_diff(e.lhs, axis), _diff(e.rhs, axis))
    if isinstance(e, Sub):
        return sub(_diff(e.lhs, axis), _diff(e.rhs, axis))
    if isinstance(e, Mul):
        return add(mul(_diff(e.lhs, axis), e.rhs), mul(e.lhs, _diff(e.rhs, axis)))
    if isinstance(e, Div):
        num = sub(mul(_diff(e.lhs, axis), e.rhs), mul(e.lhs, _diff(e.rhs, axis)))
        return div(num, power(e.rhs, Num(2.0)))
    if isinstance(e, Pow):
        du = _diff(e.base, axis)
        if isinstance(e.exponent, Num):
            c = e.exponent.value
            return mul(mul(Num(c), power(e.base, Num(c - 1.0))), du)
        # u^v = exp(v*log(u)):  d = u^v * (dv*log(u) + v*du/u)
        dv = _diff(e.exponent, axis)
        inner = add(mul(dv, Call("log", e.base)), mul(e.exponent, div(du, e.base)))
        return mul(Pow(e.base, e.exponent), inner)
    if isinstance(e, Call):
        du = _diff(e.arg, axis)
        u = e.arg
        if e.fn == "sin":
            return mul(Call("cos", u), du)
        if e.fn == "cos":
            return neg(mul(Call("sin", u), du))
        if e.fn == "tan":
            return div(du, power(Call("cos", u), Num(2.0)))
        if e.fn == "exp":
            return mul(Call("exp", u), du)
        if e.fn == "log":
            return div(du, u)
        if e.fn == "sqrt":
            return div(du, mul(Num(2.0), Call("sqrt", u)))
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# Compilation (fast repeated evaluation on lattices)
# ---------------------------------------------------------------------------
#
# Compiled source names its functions and non-finite constants; the
# namespace it runs in binds them either to the math module (one point at
# a time) or to numpy ufuncs (whole coordinate arrays at once). Both run
# the same operations in the same order, so they agree up to the rounding
# of the library functions themselves.

_SCALAR_NAMESPACE = {"pow": math.pow, **FUNCTIONS}
_ARRAY_NAMESPACE = {
    "pow": np.power,
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
}
for _namespace in (_SCALAR_NAMESPACE, _ARRAY_NAMESPACE):
    _namespace.update({"inf": math.inf, "nan": math.nan, "__builtins__": {}})

_BINARY = {Add: ("+", 1), Sub: ("-", 1), Mul: ("*", 2), Div: ("/", 2)}
_UNARY_LEVEL = 3
_ATOM_LEVEL = 4


def to_python_source(e: ScalarExpr, context: int = 0) -> str:
    """Python source for the tree, with only the parentheses its shape needs.

    context is the binding level the surrounding operator requires. Binary
    operators are left-associative in Python as in the tree, so a right
    operand of equal precedence keeps its parentheses and the parsed
    source has exactly the tree's operations in the tree's order.
    """
    level = _ATOM_LEVEL
    if isinstance(e, Num):
        text = repr(e.value)
        if text.startswith("-"):
            level = _UNARY_LEVEL
    elif isinstance(e, Const):
        text = repr(CONSTANTS[e.name])
    elif isinstance(e, Var):
        text = f"x{e.axis}"
    elif isinstance(e, Neg):
        level = _UNARY_LEVEL
        text = "-" + to_python_source(e.arg, _UNARY_LEVEL)
    elif isinstance(e, (Add, Sub, Mul, Div)):
        symbol, level = _BINARY[type(e)]
        text = to_python_source(e.lhs, level) + symbol + to_python_source(e.rhs, level + 1)
    elif isinstance(e, Pow):
        text = f"pow({to_python_source(e.base)}, {to_python_source(e.exponent)})"
    elif isinstance(e, Call):
        text = f"{e.fn}({to_python_source(e.arg)})"
    else:
        raise TypeError(f"not an expression node: {e!r}")
    return f"({text})" if level < context else text


def _compile(source: str, filename: str, mode: str):
    try:
        return compile(source, filename, mode)
    except SyntaxError as exc:  # nesting beyond the limits of Python's parser
        raise ExpressionCompileError(f"cannot compile expression: {exc.msg}") from None


def compile_expr(e: ScalarExpr) -> Callable[[float, float, float], float]:
    """Compile to a plain (x1, x2, x3) -> float callable."""
    source = f"lambda x1, x2, x3: {to_python_source(e)}"
    return eval(_compile(source, "<scalar-expr>", "eval"), _SCALAR_NAMESPACE)


def call_compiled(fn, point) -> float:
    """Invoke a compiled expression at one point; domain faults and non-finite results raise."""
    try:
        value = fn(float(point[0]), float(point[1]), float(point[2]))
    except (ValueError, ZeroDivisionError) as exc:
        raise EvaluationDomainError(str(exc)) from None
    except OverflowError as exc:
        raise NonFiniteError(str(exc)) from None
    if not math.isfinite(value):
        raise NonFiniteError(f"expression evaluated to {value!r}")
    return value


class ExpressionStack:
    """Several expressions compiled into one function over coordinate arrays."""

    def __init__(self, exprs):
        self.exprs = tuple(exprs)

    @cached_property
    def _array_fn(self):
        # A bare return tuple adds no nesting level to the entries' own.
        body = ", ".join(to_python_source(e) for e in self.exprs)
        source = f"def stack(x1, x2, x3):\n    return {body},\n"
        namespace = dict(_ARRAY_NAMESPACE)
        exec(_compile(source, "<expr-stack>", "exec"), namespace)
        return namespace["stack"]

    @cached_property
    def scalar_fns(self):
        """The expressions compiled one by one for call_compiled."""
        return tuple(compile_expr(e) for e in self.exprs)

    def evaluate(self, points: np.ndarray) -> tuple[np.ndarray, dict]:
        """Values (N, K) of the K expressions at the rows of an (N, 3) array.

        Returns (values, failures), failures mapping a node index to the
        error call_compiled raises there at its first failing expression.
        One numpy pass computes every node, however many there are. Nodes
        it cannot vouch for are evaluated again one at a time through
        call_compiled: nodes with a non-finite value, or every node when
        numpy flags a division by zero, an overflow or an invalid
        operation anywhere (an infinite intermediate may turn finite
        again, where math raises).
        """
        n = len(points)
        values = np.empty((n, len(self.exprs)))
        if 0 in points.strides:
            # A broadcast stack, such as point[None]: numpy takes a
            # zero-stride column for one scalar and may round differently.
            points = points.copy()
        try:
            with np.errstate(divide="raise", over="raise", invalid="raise", under="ignore"):
                for k, column in enumerate(self._array_fn(*points.T)):
                    values[:, k] = column
            # A row sum is non-finite when any entry is (or, harmlessly, overflows).
            with np.errstate(over="ignore"):
                suspects = np.flatnonzero(~np.isfinite(values.sum(axis=1))).tolist()
        except ArithmeticError:
            suspects = range(n)
        failures = {}
        for node in suspects:
            try:
                values[node] = [call_compiled(fn, points[node]) for fn in self.scalar_fns]
            except UnilabError as exc:
                failures[node] = exc
        return values, failures
