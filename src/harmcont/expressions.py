"""Tiny arithmetic grammar for user-supplied nonlinearities g(u), compiled once.

Supports + - * / ^ (power, right-associative), unary minus, parentheses,
the constant pi, the variable u, and the functions sin, cos, arctan, ln,
abs.  Expression(text) parses to a small tuple tree, at most MAX_DEPTH
levels deep, folds every u-free subtree to an np.float64 and turns every
other node into one closure over its children, in the tree's order: nothing
is reassociated, shared or rewritten.  It evaluates on numpy arrays or
scalars with numpy semantics (1/0 is inf, not an exception).

complex_step(g, u) = Im g(u + ih) / h is the one rule for g' (Squire &
Trapp, SIAM Rev. 40, 1998): no difference is taken, so with h = 1e-30 it
is exact to roundoff wherever g is real-analytic and evaluates complex
input without casting it to float.  abs is continued analytically as -z or
z by the sign of Re z.  Where g has no real derivative the complex step
still returns a finite number: 1 for abs(u) at 0, about 7e14 for u^0.5 at
0, and some value for u^u at 0 and at negative integers.
"""

from __future__ import annotations

import math
import operator
import re
from functools import partial

import numpy as np

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\*\*|[-+*/^()]))"
)

MAX_DEPTH = 64  # nesting levels of an expression; deeper ones would exhaust Python's stack
STEP = 1e-30  # imaginary step of g'; it enters no difference, so it need not balance roundoff


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


class ExpressionError(ValueError):
    """Raised for syntax errors or unknown names in a g(u) expression."""


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            rest = text[pos:].lstrip()
            if not rest:
                break
            pos = len(text) - len(rest)  # the first character that is not blank
            raise ExpressionError(
                f"unexpected character {text[pos]!r} at position {pos} in {text!r}"
            )
        pos = m.end()
        tok = m.group("num") or m.group("name") or m.group("op")
        tokens.append("^" if tok == "**" else tok)
    if not tokens:
        raise ExpressionError("empty expression")
    return tokens


class _Parser:
    """Recursive descent over the token list; produces a tuple tree."""

    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0
        self.level = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, tok: str):
        got = self.take()
        if got != tok:
            raise ExpressionError(f"expected {tok!r}, got {got!r}")

    def parse(self):
        tree = self.expr()
        if self.peek() is not None:
            raise ExpressionError(f"trailing input starting at {self.peek()!r}")
        return tree

    def expr(self):
        node = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            node = ("add" if op == "+" else "sub", node, rhs)
        return node

    def term(self):
        node = self.unary()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.unary()
            node = ("mul" if op == "*" else "div", node, rhs)
        return node

    def unary(self):
        # every nesting (parentheses, signs, function arguments, exponents)
        # passes through here, so this bounds the parser's recursion
        self.level += 1
        if self.level > MAX_DEPTH:
            raise ExpressionError(f"expression nested deeper than {MAX_DEPTH} levels")
        if self.peek() == "-":
            self.take()
            node = ("neg", self.unary())
        elif self.peek() == "+":
            self.take()
            node = self.unary()
        else:
            node = self.power()
        self.level -= 1
        return node

    def power(self):
        base = self.atom()
        if self.peek() == "^":
            self.take()
            return ("pow", base, self.unary())
        return base

    def atom(self):
        tok = self.take()
        if tok is None:
            raise ExpressionError("unexpected end of expression")
        if tok == "(":
            node = self.expr()
            self.expect(")")
            return node
        if re.fullmatch(r"\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?", tok):
            return ("num", float(tok))
        if tok == "u":
            return ("var",)
        if tok == "pi":
            return ("num", math.pi)
        if tok in _FUNCTIONS:
            self.expect("(")
            arg = self.expr()
            self.expect(")")
            return (tok, arg)
        raise ExpressionError(f"unknown name {tok!r} (variable is 'u', constant 'pi')")


def _depth(tree) -> int:
    """Levels of a tree, counted without recursion: u+u+...+u is as deep as it is long."""
    depth, level = 0, [tree]
    while level:
        depth += 1
        level = [kid for node in level for kid in node[1:] if isinstance(kid, tuple)]
    return depth


def parse(text: str):
    """Parse an expression string into a tree at most MAX_DEPTH levels deep."""
    tree = _Parser(_tokenize(text)).parse()
    if _depth(tree) > MAX_DEPTH:
        raise ExpressionError(f"expression nested deeper than {MAX_DEPTH} levels")
    return tree


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
