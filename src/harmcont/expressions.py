"""Tiny arithmetic grammar for user-supplied nonlinearities g(u), compiled once.

Supports + - * / ^ (power, right-associative; ** also works), unary signs,
parentheses, the constant pi, the variable u, and the functions sin, cos,
arctan, ln, abs.  parse reads the text with Python's own expression parser
(ast.parse builds a tree and executes nothing), ^ read as **, and keeps only
these forms: any other node, or a number not written as digits with an
optional point and exponent (1_000, 0x10, 1j, True), is an ExpressionError.
Digits may be any Unicode decimal digits, and integers may have leading
zeros (007 is 7).  The result is a small tuple tree, at most MAX_DEPTH
levels deep.  Expression(text) folds every u-free subtree to an np.float64
and turns every other node into one closure over its children, in the
tree's order: nothing is reassociated, shared or rewritten.  It evaluates
on numpy arrays or scalars with numpy semantics (1/0 is inf, not an
exception).

complex_step(g, u) = Im g(u + ih) / h is the one rule for g' (Squire &
Trapp, SIAM Rev. 40, 1998): no difference is taken, so with h = 1e-30 it
is exact to roundoff wherever g is real-analytic and evaluates complex
input without casting it to float.  abs is continued analytically as -z or
z by the sign of Re z.  Where g has no real derivative the complex step
still returns a finite number: 1 for abs(u) at 0, about 7e14 for u^0.5 at
0, and some value for u^u at 0 and at negative integers.
"""

from __future__ import annotations

import ast
import math
import operator
import re
import warnings
from functools import partial
from itertools import accumulate

import numpy as np

MAX_DEPTH = 64  # nesting levels of an expression; deeper ones would exhaust Python's stack
STEP = 1e-30  # imaginary step of g'; it enters no difference, so it need not balance roundoff

_FOREIGN = re.compile(r"[^\s\dA-Za-z_.+\-*/^()]")  # a character no token of g holds
# an integer, not an exponent's, is written as a float: 007 is then 7, and an integer
# past Python's 4300-digit limit on int literals is inf, as float() reads it
_INTEGER = re.compile(r"(?<![\w.])(?<![eE][+-])0*(\d+)(?![\w.])")
_NUMBER = re.compile(r"\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?")
_TOO_DEEP = f"expression nested deeper than {MAX_DEPTH} levels"


def _abs(z):
    # |x| continued analytically off the real axis, so the complex step sees sign(x)
    return np.where(z.real < 0, -z, z) if np.iscomplexobj(z) else np.abs(z)


_FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "arctan": np.arctan,
    "ln": np.log,
    "abs": _abs,
}
_BINARY = {ast.Add: "add", ast.Sub: "sub", ast.Mult: "mul", ast.Div: "div", ast.Pow: "pow"}


class ExpressionError(ValueError):
    """Raised for syntax errors or unknown names in a g(u) expression."""


def parse(text: str):
    """Parse an expression string into a tree at most MAX_DEPTH levels deep."""
    if bad := _FOREIGN.search(text):
        raise ExpressionError(
            f"unexpected character {bad[0]!r} at position {bad.start()} in {text!r}"
        )
    # Python's parser gives up at 200 parentheses with a message of its own
    if max(accumulate((c == "(") - (c == ")") for c in text), default=0) >= MAX_DEPTH:
        raise ExpressionError(_TOO_DEEP)
    source = re.sub(r"\d", lambda m: str(int(m[0])), " ".join(text.split()))
    source = _INTEGER.sub(r"\1.", source.replace("^", "**"))
    if not source:
        raise ExpressionError("empty expression")
    try:
        with warnings.catch_warnings():  # "1if u else 2" warns before it is rejected
            warnings.simplefilter("ignore")
            body = ast.parse(source, mode="eval").body
    except SyntaxError as exc:
        raise ExpressionError(f"cannot parse {text!r}: {exc.msg}") from None
    except (RecursionError, MemoryError):  # the parser's own limits on nesting
        raise ExpressionError(_TOO_DEEP) from None
    return _tree(body, source, 1)


def _tree(node, source: str, level: int):
    """The tuple tree of a whitelisted ast node at depth level of the tree."""
    if level > MAX_DEPTH:
        raise ExpressionError(_TOO_DEEP)
    while isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.UAdd):
        node = node.operand  # +x adds no node to the tree
    written = source[node.col_offset:node.end_col_offset]  # source is ASCII on one line
    match node:
        case ast.BinOp(left, op, right) if type(op) in _BINARY:
            return (_BINARY[type(op)], _tree(left, source, level + 1),
                    _tree(right, source, level + 1))
        case ast.UnaryOp(ast.USub(), operand):
            return ("neg", _tree(operand, source, level + 1))
        # a name called straight away: (sin)(u) starts before its callee
        case ast.Call(ast.Name(name) as f, [arg], []) if (
                name in _FUNCTIONS and f.col_offset == node.col_offset):
            return (name, _tree(arg, source, level + 1))
        case ast.Name("u"):
            return ("var",)
        case ast.Name("pi"):
            return ("num", math.pi)
        case ast.Constant() if _NUMBER.fullmatch(written):
            return ("num", float(written))
        case ast.Name(name) if name not in _FUNCTIONS:
            raise ExpressionError(f"unknown name {name!r} (variable is 'u', constant 'pi')")
    raise ExpressionError(f"unexpected {written!r}: g takes + - * / ^ of numbers, u, pi "
                          f"and {', '.join(_FUNCTIONS)} of one argument")


_OPERATIONS = {"neg": operator.neg, "add": operator.add, "sub": operator.sub,
               "mul": operator.mul, "div": operator.truediv, "pow": operator.pow,
               **_FUNCTIONS}


def _compile(tree):
    """An np.float64 for a u-free tree, otherwise a closure u -> value."""
    if tree[0] == "num":
        return np.float64(tree[1])
    if tree[0] == "var":
        return lambda u: u
    f, args = _OPERATIONS[tree[0]], [_compile(kid) for kid in tree[1:]]
    if not any(map(callable, args)):
        return f(*args)
    a = args[0]
    if len(args) == 1:
        return lambda u: f(a(u))
    b = args[1]
    if not callable(b):
        return lambda u: f(a(u), b)
    if not callable(a):
        return lambda u: f(a, b(u))
    return lambda u: f(a(u), b(u))


class Expression:
    """g(u) compiled from text; call it at u (real or complex, scalar or array).

    .constant is the folded value of a text without u, and None otherwise.
    Folding warns of nothing; a call returns numpy scalars for scalar u, so
    1/0 gives inf and 0/0 nan (with numpy's warning).  Pickles as its text.
    """

    def __init__(self, text: str):
        self.text = text
        with np.errstate(all="ignore"):
            self._program = _compile(parse(text))
        self.constant = None if callable(self._program) else self._program

    def __call__(self, u):
        u = np.asarray(u)
        if self.constant is not None:
            return np.full(u.shape, self.constant)
        return self._program(u)

    def __reduce__(self):
        return Expression, (self.text,)


def complex_step(g, u):
    """g'(u) = Im g(u + i STEP) / STEP, for a g that takes complex input."""
    return np.imag(g(u + 1j * STEP)) / STEP


def compile_expression(text: str):
    """Return (g, g_prime) callables for an expression in u; g' by complex step."""
    g = Expression(text)
    return g, partial(complex_step, g)
