import math

import numpy as np
import pytest

from harmcont import problems
from harmcont.expressions import (MAX_DEPTH, ExpressionError, compile_expression,
                                  complex_step, evaluate, parse)


def test_numbers_and_constants():
    assert evaluate(parse("2.5"), 0.0) == 2.5
    assert evaluate(parse("pi"), 0.0) == math.pi
    assert evaluate(parse("1e-3"), 0.0) == 1e-3
    assert evaluate(parse(".5"), 0.0) == 0.5


def test_precedence_and_associativity():
    assert evaluate(parse("2+3*4"), 0.0) == 14.0
    assert evaluate(parse("(2+3)*4"), 0.0) == 20.0
    assert evaluate(parse("2^3^2"), 0.0) == 512.0  # right-associative
    assert evaluate(parse("2**3"), 0.0) == 8.0
    assert evaluate(parse("-u^2"), 3.0) == -9.0
    assert evaluate(parse("6/3/2"), 0.0) == 1.0
    assert evaluate(parse("1-2-3"), 0.0) == -4.0


def test_functions():
    u = 0.7
    assert evaluate(parse("sin(u)"), u) == pytest.approx(math.sin(u))
    assert evaluate(parse("cos(u)"), u) == pytest.approx(math.cos(u))
    assert evaluate(parse("arctan(u)"), u) == pytest.approx(math.atan(u))
    assert evaluate(parse("ln(u^2+1)"), u) == pytest.approx(math.log(u * u + 1))
    assert evaluate(parse("abs(u)"), -2.0) == 2.0


def test_vectorized_evaluation():
    u = np.linspace(-2, 2, 11)
    tree = parse("pi^2*u + 5*(u^2+1)^(5/12)*sin(u)")
    expected = np.pi ** 2 * u + 5 * (u ** 2 + 1) ** (5 / 12) * np.sin(u)
    assert np.allclose(evaluate(tree, u), expected, atol=1e-14)
    # constants broadcast to the input shape
    assert evaluate(parse("2"), u).shape == u.shape


@pytest.mark.parametrize("text", ["", "2+", "sin", "sin 3", "(1+2", "1+2)",
                                  "2..5", "x+1", "foo(u)", "1 2"])
def test_syntax_errors(text):
    with pytest.raises(ExpressionError):
        parse(text)


@pytest.mark.parametrize("text,dtext", [
    ("u^3", "3*u^2"),
    ("sin(u)", "cos(u)"),
    ("cos(2*u)", "-2*sin(2*u)"),
    ("arctan(u)", "1/(1+u^2)"),
    ("ln(u)", "1/u"),
    ("u*sin(u)", "sin(u)+u*cos(u)"),
    ("1/u", "-1/u^2"),
])
def test_derivative_against_closed_form(text, dtext):
    _, gp = compile_expression(text)
    ref = parse(dtext)
    for u in (0.3, 1.7, 2.9):
        assert gp(u) == pytest.approx(evaluate(ref, u), rel=1e-12)


def test_derivative_general_power():
    # d/du u^u = u^u (ln u + 1)
    _, gp = compile_expression("u^u")
    for u in (0.5, 1.0, 2.3):
        expected = u ** u * (math.log(u) + 1)
        assert gp(u) == pytest.approx(expected, rel=1e-12)


def test_derivative_abs():
    g, gp = compile_expression("abs(u)")
    assert gp(2.0) == 1.0
    assert gp(-2.0) == -1.0
    # real input keeps np.abs, so g itself is untouched by the continuation
    u = np.array([-2.5, -0.0, 0.0, 3.0])
    assert np.array_equal(g(u), np.abs(u))


def _closed_form_derivative(name, u):
    """g' of each catalog entry by hand, the reference for the complex step."""
    pi2 = np.pi ** 2
    if name == "amann-hess-type":
        q = u * u + 1
        a = pi2 + (2 / np.pi) * np.arctan(u) + 0.9 * np.sin(np.log(q))
        da = (2 / np.pi) / q + 0.9 * np.cos(np.log(q)) * 2 * u / q
        return -np.sin(u) + a + u * da
    if name == "oscillatory-p512":
        q = u * u + 1
        return (pi2 + (25 / 6) * u * q ** (-7 / 12) * np.sin(u)
                + 5.0 * q ** (5 / 12) * np.cos(u))
    if name == "resonance-k7":
        return 49 * pi2 + np.cos(u)
    if name == "cubic":
        return problems.DEFAULT_CUBIC_LAMBDA - 3 * u * u
    q = 1 + u * u  # resonant-bounded
    return pi2 + (1 - u * u) / (q * q)


@pytest.mark.parametrize("name", problems.CATALOG_NAMES)
def test_derivative_matches_catalog(name):
    # the compiled descriptor gives the catalog's g, and both g' (complex
    # steps of the two g) match the closed form, relative to max(|g'|, 1)
    # as in problems.check_derivative
    nl = problems.catalog(name).nonlinearity
    g, gp = compile_expression(nl.descriptor)
    u = np.random.default_rng(3).uniform(-50, 50, 500)
    assert np.max(np.abs(g(u) - nl.g(u)) / np.maximum(np.abs(nl.g(u)), 1.0)) < 1e-14
    ref = _closed_form_derivative(name, u)
    for deriv in (gp, nl.g_prime):
        assert np.max(np.abs(deriv(u) - ref) / np.maximum(np.abs(ref), 1.0)) < 1e-13


@pytest.mark.parametrize("name", problems.CATALOG_NAMES)
def test_catalog_derivative_is_complex_step(name):
    nl = problems.catalog(name).nonlinearity
    u = np.random.default_rng(4).uniform(-50, 50, 200)
    assert np.array_equal(nl.g_prime(u), complex_step(nl.g, u))
    assert nl.g_prime(0.7) == complex_step(nl.g, 0.7)


@pytest.mark.parametrize("text", ["1/u", "u^-1", "pi^2*u + 0.1/(u^2)"])
def test_scalar_division_by_zero_is_inf(text):
    g, _ = compile_expression(text)
    with np.errstate(divide="ignore"):
        assert g(0.0) == np.inf


@pytest.mark.parametrize("text", [
    "(" * 300 + "u" + ")" * 300,
    "+".join(["u"] * 1500),
    "-" * 2000 + "u",
], ids=["parentheses", "sum-chain", "unary-minus"])
def test_too_deep_rejected(text):
    with pytest.raises(ExpressionError, match="deeper than"):
        parse(text)


def test_depth_limit_is_inclusive():
    parse("(" * (MAX_DEPTH - 1) + "u" + ")" * (MAX_DEPTH - 1))
    parse("+".join(["u"] * MAX_DEPTH))
    with pytest.raises(ExpressionError):
        parse("+".join(["u"] * (MAX_DEPTH + 1)))


@pytest.mark.parametrize("text", [
    "pi^2*u + 5*(u^2+1)^(5/12)*sin(u)",
    "cos(u) + u*(pi^2 + (2/pi)*arctan(u) + 0.9*sin(ln(u^2+1)))",
    "u/(1+u^2)",
    "sin(cos(u)) - ln(u^2+2)/arctan(u+3)",
])
def test_compiled_derivative_matches_finite_differences(text):
    g, gp = compile_expression(text)
    rng = np.random.default_rng(12)
    u = rng.uniform(-20, 20, 60)
    h = 1e-6 * (1 + np.abs(u))
    fd = (g(u + h) - g(u - h)) / (2 * h)
    assert np.max(np.abs(fd - gp(u)) / np.maximum(np.abs(gp(u)), 1.0)) < 1e-6
