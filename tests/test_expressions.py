import math
import pickle
import warnings
from functools import partial

import numpy as np
import pytest

from harmcont import problems
from harmcont.expressions import (MAX_DEPTH, Expression, ExpressionError,
                                  compile_expression, complex_step, parse)


def g_of(text):
    """The compiled g of a text, as a config or catalog problem gets it."""
    return compile_expression(text)[0]


def test_numbers_and_constants():
    assert g_of("2.5")(0.0) == 2.5
    assert g_of("pi")(0.0) == math.pi
    assert g_of("1e-3")(0.0) == 1e-3
    assert g_of(".5")(0.0) == 0.5


def test_precedence_and_associativity():
    assert g_of("2+3*4")(0.0) == 14.0
    assert g_of("(2+3)*4")(0.0) == 20.0
    assert g_of("2^3^2")(0.0) == 512.0  # right-associative
    assert g_of("2**3")(0.0) == 8.0
    assert g_of("-u^2")(3.0) == -9.0
    assert g_of("6/3/2")(0.0) == 1.0
    assert g_of("1-2-3")(0.0) == -4.0
    assert g_of("+u")(3.0) == 3.0
    assert g_of("-+u")(3.0) == -3.0
    assert g_of("2^+1")(0.0) == 2.0


def test_functions():
    u = 0.7
    assert g_of("sin(u)")(u) == pytest.approx(math.sin(u))
    assert g_of("cos(u)")(u) == pytest.approx(math.cos(u))
    assert g_of("arctan(u)")(u) == pytest.approx(math.atan(u))
    assert g_of("ln(u^2+1)")(u) == pytest.approx(math.log(u * u + 1))
    assert g_of("abs(u)")(-2.0) == 2.0


def test_vectorized_evaluation():
    u = np.linspace(-2, 2, 11)
    g = g_of("pi^2*u + 5*(u^2+1)^(5/12)*sin(u)")
    expected = np.pi ** 2 * u + 5 * (u ** 2 + 1) ** (5 / 12) * np.sin(u)
    assert np.allclose(g(u), expected, atol=1e-14)
    # constants broadcast to the input shape
    assert g_of("2")(u).shape == u.shape


def test_constants_folded_once():
    assert Expression("pi^2").constant == math.pi ** 2
    assert type(Expression("2/pi").constant) is np.float64
    assert Expression("cos(0) + 2*3").constant == 7.0
    # any u leaves the text a function of u, even one that cancels
    assert Expression("u").constant is None
    assert Expression("u - u").constant is None


@pytest.mark.parametrize("u", [0.5, np.linspace(-1, 1, 7), np.ones((2, 3)) + 1e-30j],
                         ids=["scalar", "vector", "complex-matrix"])
def test_constant_takes_the_shape_of_u(u):
    value = g_of("pi^2/2")(u)
    assert value.shape == np.shape(u)
    assert np.all(value == np.pi ** 2 / 2)


def test_folded_division_by_zero_compiles_silently():
    # the constant 1/0 folds to inf at compile time without a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = g_of("1/0*u")
        assert Expression("1/0").constant == np.inf
        assert g(2.0) == np.inf


def test_pickles_as_text():
    g = Expression("cos(u) + 2*u")
    q = pickle.loads(pickle.dumps(g))
    assert isinstance(q, Expression) and q.text == g.text
    u = np.linspace(-3, 3, 13)
    assert np.array_equal(q(u), g(u))


def test_cubic_of_u_rejected():
    with pytest.raises(problems.ConfigError, match="must be a constant"):
        problems.catalog("cubic(u)")


@pytest.mark.parametrize("text", [
    "", "2+", "sin", "sin 3", "(1+2", "1+2)", "2..5", "x+1", "foo(u)", "1 2",
    # Python's grammar reads each of these; g's does not
    "1_000*u", "0x10*u", "1j*u", "True*u", "u//2", "u if u else 1", "not u",
    "sin(u, u)", "sin(x=u)", "u.real", "lambda: u", "2u", "u # c", "(sin)(u)",
])
def test_syntax_errors(text):
    with pytest.raises(ExpressionError):
        parse(text)


@pytest.mark.parametrize("text,tree", [
    ("u*007", ("mul", ("var",), ("num", 7.0))),
    ("00.5", ("num", 0.5)),
    ("1e05*u", ("mul", ("num", 1e5), ("var",))),
    ("\u0663*u", ("mul", ("num", 3.0), ("var",))),  # ARABIC-INDIC DIGIT THREE
    ("\uff15*u", ("mul", ("num", 5.0), ("var",))),  # FULLWIDTH DIGIT FIVE
    ("9" * 5000, ("num", math.inf)),  # past Python's 4300-digit limit on integers
    ("pi^2*u\n  + sin(u)",  # a config value continued on a second line
     ("add", ("mul", ("pow", ("num", math.pi), ("num", 2.0)), ("var",)), ("sin", ("var",)))),
], ids=["leading-zeros", "leading-zeros-float", "exponent-zero", "arabic-indic-digit",
        "fullwidth-digit", "long-integer", "two-lines"])
def test_numbers_and_lines_read_as_written(text, tree):
    assert parse(text) == tree


def test_unexpected_character_skips_blanks():
    # the error names the first character it cannot read, not a blank before it
    with pytest.raises(ExpressionError, match="'#' at position 21"):
        parse("pi^2*u + sin(u)      # expression in u (required)")


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
    ref = g_of(dtext)
    for u in (0.3, 1.7, 2.9):
        assert gp(u) == pytest.approx(ref(u), rel=1e-12)


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
    # the compiled descriptor is the catalog's g, and both g' (complex
    # steps of the two g) match the closed form, relative to max(|g'|, 1)
    # as in problems.check_derivative
    nl = problems.catalog(name).nonlinearity
    g, gp = compile_expression(nl.descriptor)
    u = np.random.default_rng(3).uniform(-50, 50, 500)
    assert np.array_equal(g(u), nl.g(u))
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
    "-" * 100000 + "u",
    "u^" * 100000 + "u",
    "+" * 100000 + "u",
    "+".join(["u"] * 100000),
], ids=["parentheses", "sum-chain", "unary-minus", "long-unary-minus", "long-power-chain",
        "long-unary-plus", "long-sum-chain"])
def test_too_deep_rejected(text):
    with pytest.raises(ExpressionError, match="deeper than"):
        parse(text)


def test_depth_limit_is_inclusive():
    parse("(" * (MAX_DEPTH - 1) + "u" + ")" * (MAX_DEPTH - 1))
    parse("+".join(["u"] * MAX_DEPTH))
    with pytest.raises(ExpressionError):
        parse("+".join(["u"] * (MAX_DEPTH + 1)))


def test_deepest_chain_compiles_and_evaluates():
    g, gp = compile_expression("+".join(["u"] * MAX_DEPTH))
    assert g(1.0) == MAX_DEPTH
    assert gp(0.3) == pytest.approx(MAX_DEPTH, rel=1e-14)


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


# The catalog's g as numpy functions, written out in the order of their
# text.  A compiled g applies the same operations in the same order, so it
# must match these bit for bit; reassociating or sharing subexpressions
# would show here first.
_PI2 = np.pi ** 2


def _ref_amann_hess(u):
    return np.cos(u) + u * (_PI2 + (2 / np.pi) * np.arctan(u)
                            + 0.9 * np.sin(np.log(u * u + 1)))


def _ref_oscillatory(u):
    return _PI2 * u + 5.0 * (u * u + 1) ** (5 / 12) * np.sin(u)


def _ref_resonance_k7(u):
    return 49 * _PI2 * u + np.sin(u)


def _ref_cubic(u, lam):
    return lam * u - u ** 3


def _ref_resonant_bounded(u):
    return _PI2 * u + u / (1 + u * u)


_REFERENCES = [
    ("amann-hess-type", _ref_amann_hess),
    ("oscillatory-p512", _ref_oscillatory),
    ("resonance-k7", _ref_resonance_k7),
    ("resonant-bounded", _ref_resonant_bounded),
    *[(f"cubic({lam!r})", partial(_ref_cubic, lam=lam))
      for lam in (problems.DEFAULT_CUBIC_LAMBDA, 2.5 * _PI2, -3.0, 0.0)],
]


@pytest.mark.parametrize("name,ref", _REFERENCES, ids=[n for n, _ in _REFERENCES])
@pytest.mark.parametrize("n", [256, 512])
def test_catalog_g_bitwise_equal_to_numpy_form(name, ref, n):
    nl = problems.catalog(name).nonlinearity
    u = np.random.default_rng(n).uniform(-50, 50, n)
    for x in (u, u + 1j * 1e-30):
        assert np.array_equal(nl.g(x), ref(x))
    assert np.array_equal(nl.g_prime(u), complex_step(ref, u))
