"""Problem instances: nonlinearities, the built-in catalog, config ingestion.

A problem is u'' + g(u) = mu_k sin(k pi x/L) + e(x) on (0, L) with Dirichlet
ends, where e is orthogonal to the driven harmonic.  mu_k is a solver output,
never a field.  A Nonlinearity is made from g alone: its g' is
expressions.complex_step of g, checked against finite differences when it
is made, so g must take complex u.  Every g is text compiled once by
expressions.Expression: a config's g is its expression, and each catalog
entry's g is its text in the one catalog table, which is also its
descriptor.  A config's [run] keys are the fields of RunSettings, the
names the CLI overrides them by; RunSettings also holds the default of each
run setting, which the solver and continuation read.
"""

from __future__ import annotations

import configparser
import re
from dataclasses import dataclass, field, fields
from functools import partial

import numpy as np

from . import expressions
from .spectral import SineSeries, eigenvalue

# check_derivative: sample count and range of u, and the largest relative error
DERIVATIVE_SAMPLES = 100
DERIVATIVE_RANGE = (-50.0, 50.0)
DERIVATIVE_RTOL = 1e-5
CONDITION_SAMPLES = 10_000  # points of u_range that validate_conditions samples


@dataclass(frozen=True)
class Nonlinearity:
    """Scalar nonlinearity g, vectorized over numpy arrays and complex u.

    g_prime is the complex step of g, checked by check_derivative here.
    """

    g: callable
    descriptor: str = ""
    g_prime: callable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "g_prime", partial(expressions.complex_step, self.g))
        check_derivative(self)

    @classmethod
    def from_expression(cls, text: str) -> "Nonlinearity":
        return cls(expressions.compile_expression(text)[0], text.strip())


@dataclass(frozen=True)
class ProblemSpec:
    """One boundary value problem: interval, driven harmonic, forcing, g."""

    L: float
    k: int
    e: SineSeries
    nonlinearity: Nonlinearity

    def __post_init__(self):
        if self.k < 1 or int(self.k) != self.k:
            raise ValueError(f"driven harmonic k must be a positive integer, got {self.k}")
        if not np.isclose(self.e.L, self.L):
            raise ValueError("forcing series length does not match the problem interval")
        if self.k <= self.e.n_modes and self.e.coeffs[self.k - 1] != 0.0:
            raise ValueError(
                f"e must be orthogonal to the driven harmonic sin({self.k} pi x/L): "
                f"coefficient {self.k} is {self.e.coeffs[self.k - 1]!r}, not 0 "
                f"(that amplitude is mu_{self.k}, an output)"
            )


def check_derivative(nl: Nonlinearity) -> float:
    """Verify g' against centered differences of g at random sample points.

    The difference quotient with step h/2 is off by about h^2 g'''/24, a
    third of its distance from the quotient with step h, so that distance is
    allowed for: g = sin(1000*u) passes, and a wrong g' of a smooth g still
    fails.  Returns the worst excess of |quotient - g'| over the distance,
    relative to max(|g'|, 1); raises if it exceeds DERIVATIVE_RTOL.  Samples
    where g fails to evaluate finitely are skipped (the solver would reject
    them too).
    """
    rng = np.random.default_rng(20240)
    lo, hi = DERIVATIVE_RANGE
    u = rng.uniform(lo, hi, DERIVATIVE_SAMPLES)
    h = 1e-6 * (1.0 + np.abs(u))
    with np.errstate(all="ignore"):
        fd, fd_half = ((np.asarray(nl.g(u + s), dtype=float)
                        - np.asarray(nl.g(u - s), dtype=float)) / (2 * s) for s in (h, h / 2))
        gp = np.asarray(nl.g_prime(u), dtype=float)
    ok = np.isfinite(fd) & np.isfinite(fd_half) & np.isfinite(gp)
    if not ok.any():
        raise ValueError(f"nonlinearity {nl.descriptor!r} not finite on [{lo}, {hi}]")
    excess = np.abs(fd_half[ok] - gp[ok]) - np.abs(fd[ok] - fd_half[ok])
    err = float(np.max(excess / np.maximum(np.abs(gp[ok]), 1.0)))
    if err > DERIVATIVE_RTOL:
        raise ValueError(
            f"g_prime disagrees with finite differences of g for {nl.descriptor!r}: "
            f"relative error {err:.2e} > {DERIVATIVE_RTOL:.0e}"
        )
    return err


# --- catalog ---------------------------------------------------------------
# name -> (g text, k, forcing pairs, h text).  g is also the descriptor; the
# cubic's is formatted with its lambda per call.  h, if any, is the amplitude of
# the closed-form curve (for_catalog).  Each fixed entry's g is
# compiled once into a module attribute (_g_resonance_k7 for resonance-k7),
# which catalog() reads at call time, so a module wrapper is what a problem gets.

_CATALOG = {
    "amann-hess-type": ("cos(u) + u*(pi^2 + (2/pi)*arctan(u) + 0.9*sin(ln(u^2+1)))",
                        1, [(2, 1.0), (5, -2.0)], None),
    "oscillatory-p512": ("pi^2*u + 5*(u^2+1)^(5/12)*sin(u)", 1, [(2, 0.2)], "5*(u^2+1)^(5/12)"),
    "resonance-k7": ("49*pi^2*u + sin(u)", 7, [(3, 1.0), (4, -2.0)], "1"),
    "cubic": ("{!r}*u - u^3", 1, [(2, 0.3)], None),
    "resonant-bounded": ("pi^2*u + u/(1+u^2)", 1, [(2, 0.2)], None),
}
CATALOG_NAMES = tuple(_CATALOG)


def for_catalog(name: str) -> expressions.Expression | None:
    """The amplitude h of a catalog problem's closed-form curve; None if it has none."""
    h = _CATALOG.get(name, (None,) * 4)[3]
    return None if h is None else expressions.Expression(h)


def _module_attr(name: str) -> str:
    return "_g_" + name.replace("-", "_")


globals().update({_module_attr(name): expressions.Expression(text)
                  for name, (text, *_) in _CATALOG.items() if name != "cubic"})

DEFAULT_CUBIC_LAMBDA = np.pi ** 2 / 2

_CUBIC_RE = re.compile(r"cubic(?:\((?P<arg>.*)\))?$")


def _cubic_lambda(arg: str) -> float:
    """lambda of "cubic(arg)": a finite constant expression; ConfigError otherwise."""
    try:
        lam = expressions.Expression(arg).constant
    except expressions.ExpressionError as exc:
        raise ConfigError(f"cubic({arg}): {exc}") from exc
    if lam is None:
        raise ConfigError(f"cubic({arg}): lambda must be a constant, not depend on u")
    if not np.isfinite(lam):
        raise ConfigError(f"cubic({arg}): lambda = {lam} is not finite")
    return float(lam)


def catalog(name: str, e: SineSeries | None = None) -> ProblemSpec:
    """Return a built-in problem by name.

    Names: amann-hess-type, oscillatory-p512, resonance-k7, cubic(lambda),
    resonant-bounded.  The cubic accepts a finite constant expression for
    lambda, e.g. "cubic(pi^2/2)" (ConfigError for one in u, one that does not
    parse or one that is not finite); plain "cubic" uses lambda = pi^2/2.
    Every entry's forcing may be overridden by e; ProblemSpec rejects one
    with a coefficient on the driven harmonic.  An unknown name raises
    KeyError.
    """
    name = name.strip()
    if m := _CUBIC_RE.fullmatch(name):
        arg = m.group("arg")
        text, k, pairs, _ = _CATALOG["cubic"]
        text = text.format(DEFAULT_CUBIC_LAMBDA if arg is None or arg.strip() == ""
                           else _cubic_lambda(arg))
        g = expressions.Expression(text)
    elif name in _CATALOG:
        text, k, pairs, _ = _CATALOG[name]
        g = globals()[_module_attr(name)]
    else:
        raise KeyError(
            f"unknown catalog problem {name!r}; available: {', '.join(CATALOG_NAMES)}"
        )
    if e is None:
        e = SineSeries.from_pairs(1.0, pairs, n_modes=k)
    return ProblemSpec(L=1.0, k=k, e=e, nonlinearity=Nonlinearity(g, text))


@dataclass(frozen=True)
class ConditionReport:
    """Advisory numerical check of the solvability hypotheses on a u-range.

    For k = 1 the relevant bound is g' < lambda_2; for k >= 2 the sandwich
    lambda_{k-1} < g' < lambda_{k+1}.  The crossing condition asks g(u)/u to
    sit below lambda_1 on the outer fifth of the range's u < 0 side and above
    it on that of its u > 0 side; a side the range does not reach fails it.
    Never blocks solving.
    """

    k: int
    u_range: tuple[float, float]
    gprime_min: float
    gprime_max: float
    sandwich_ok: bool
    crossing_ok: bool
    tail_ratio_neg: float
    tail_ratio_pos: float

    def summary(self) -> str:
        lines = [
            f"g' in [{self.gprime_min:.6g}, {self.gprime_max:.6g}] on "
            f"[{self.u_range[0]:.6g}, {self.u_range[1]:.6g}]",
            ("sandwich holds" if self.sandwich_ok else "sandwich FAILS")
            + (" (g' < lambda_2)" if self.k == 1
               else f" (lambda_{self.k - 1} < g' < lambda_{self.k + 1})"),
            ("crossing of lambda_1 holds" if self.crossing_ok else "no crossing detected")
            + f": g(u)/u tails {self.tail_ratio_neg:.6g} (u<0), {self.tail_ratio_pos:.6g} (u>0)",
        ]
        return "\n".join(lines)


def validate_conditions(p: ProblemSpec, u_range: tuple[float, float]) -> ConditionReport:
    """Sample g' and g(u)/u on u_range and report which hypotheses hold.

    Dense sampling only; advisory diagnostics, not a proof.
    """
    lo, hi = float(u_range[0]), float(u_range[1])
    u = np.linspace(lo, hi, CONDITION_SAMPLES)
    gp = np.asarray(p.nonlinearity.g_prime(u), dtype=float)
    gp_min, gp_max = float(np.min(gp)), float(np.max(gp))

    lam_k1 = eigenvalue(p.k + 1, p.L)
    if p.k == 1:
        sandwich_ok = gp_max < lam_k1
    else:
        lam_km1 = eigenvalue(p.k - 1, p.L)
        sandwich_ok = (lam_km1 < gp_min) and (gp_max < lam_k1)

    # crossing (Amann-Hess style), away from u = 0 where g(u)/u ~ g(0)/u
    lam1 = eigenvalue(1, p.L)
    neg = u[u < 0.8 * lo]
    pos = u[u > 0.8 * hi]
    ratio = lambda v: np.asarray(p.nonlinearity.g(v), dtype=float) / v
    tail_neg = float(np.max(ratio(neg))) if neg.size else np.inf
    tail_pos = float(np.min(ratio(pos))) if pos.size else -np.inf
    crossing_ok = tail_neg < lam1 < tail_pos

    return ConditionReport(
        k=p.k, u_range=(lo, hi), gprime_min=gp_min, gprime_max=gp_max,
        sandwich_ok=sandwich_ok, crossing_ok=crossing_ok,
        tail_ratio_neg=tail_neg, tail_ratio_pos=tail_pos,
    )


# --- config files ------------------------------------------------------------

@dataclass(frozen=True)
class RunSettings:
    """[run] section of a config file; CLI flags override these."""

    xi_min: float = -10.0
    xi_max: float = 10.0
    xi_step: float = 0.1
    modes: int = 64
    newton_tol: float = 1e-10
    max_iter: int = 50
    mu_star: tuple[float, ...] = ()


class ConfigError(ValueError):
    """Raised for malformed problem config files."""


def _parse_pairs(text: str) -> list[tuple[int, float]]:
    tokens = [tok for tok in re.split(r"[\s,]+", text.strip()) if tok]
    pairs = []
    for tok in tokens:
        m = re.fullmatch(r"(\d+)\s*:\s*(\S+)", tok)
        if not m:
            raise ConfigError(f"cannot parse forcing entry {tok!r}; use mode:coeff, ...")
        try:
            pairs.append((int(m.group(1)), float(m.group(2))))
        except ValueError as exc:
            raise ConfigError(f"cannot parse forcing entry {tok!r}: {exc}") from exc
    return pairs


def load_config(path) -> tuple[ProblemSpec, RunSettings]:
    """Load a problem + run description from an INI-style config file.

    Required: [problem] with key g; optional k (default 1), L (default 1.0)
    and e, a comma- or whitespace-separated list of mode:coefficient pairs
    with none on mode k.  L must be positive and finite.  g(0)
    must be finite, since u vanishes at both ends.  The optional [run]
    section sets fields of RunSettings, each cast to the type of its default
    (mu_star: a comma- or whitespace-separated list; ConfigError naming the
    key if the cast fails).  Their rules are checked where they are used,
    after the caller's overrides.  Any other section ([DEFAULT] too), or a
    key that its section does not know, raises ConfigError (section names
    are case-sensitive), "#" or ";" after whitespace starts a comment, and
    "%" is not interpolated: it is a character like any other.
    """
    # no header names the empty section, so [DEFAULT] is an unknown section
    # like any other, not one whose keys every section inherits
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None,
                                   default_section="")
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc

    run_defaults = {f.name: f.default for f in fields(RunSettings)}
    sections = {"problem": ("g", "k", "L", "e"), "run": tuple(run_defaults)}
    for section in cp.sections():
        if section not in sections:
            raise ConfigError(f"{path}: unknown section [{section}]; known sections: "
                              f"{', '.join(f'[{name}]' for name in sections)}")
        for key in cp[section]:
            if key not in map(str.lower, sections[section]):
                raise ConfigError(f"{path}: unknown [{section}] key {key!r}; "
                                  f"known keys: {', '.join(sections[section])}")
    if not cp.has_section("problem"):
        raise ConfigError(f"{path}: missing [problem] section")
    prob = cp["problem"]
    if prob.get("g") is None:
        raise ConfigError(f"{path}: [problem] needs g = <expression in u>")
    try:
        nl = Nonlinearity.from_expression(prob.get("g"))
    except ValueError as exc:  # ExpressionError is one
        raise ConfigError(f"{path}: bad expression for g: {exc}") from exc
    with np.errstate(all="ignore"):
        g0 = float(nl.g(0.0))
    if not np.isfinite(g0):
        raise ConfigError(f"{path}: g(0) = {g0} is not finite, but u vanishes at "
                          f"both ends, so g must be finite at 0")
    try:  # SineSeries and ProblemSpec check L, k and the forcing modes
        L, k = float(prob.get("L", "1.0")), int(prob.get("k", "1"))
        e = SineSeries.from_pairs(L, _parse_pairs(prob.get("e", "")), n_modes=k)
        spec = ProblemSpec(L=L, k=k, e=e, nonlinearity=nl)
    except ValueError as exc:
        raise ConfigError(f"{path}: bad [problem] value: {exc}") from exc

    kwargs = {}
    for key, text in cp["run"].items() if cp.has_section("run") else ():
        cast = type(run_defaults[key])
        try:
            kwargs[key] = (tuple(float(tok) for tok in re.split(r"[\s,]+", text.strip()) if tok)
                           if cast is tuple else cast(text))
        except ValueError as exc:
            raise ConfigError(f"{path}: bad [run] value {key} = {text!r}: {exc}") from exc
    return spec, RunSettings(**kwargs)
