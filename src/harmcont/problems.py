"""Problem instances: nonlinearities, the built-in catalog, config ingestion.

A problem is u'' + g(u) = mu_k sin(k pi x/L) + e(x) on (0, L) with Dirichlet
ends, where e is orthogonal to the driven harmonic.  mu_k is a solver output,
never a field.
"""

from __future__ import annotations

import configparser
import re
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import expressions
from .spectral import SineSeries, eigenvalue

_PI2 = np.pi ** 2


@dataclass(frozen=True)
class Nonlinearity:
    """Scalar nonlinearity g with derivative; both vectorized over numpy arrays."""

    g: callable
    g_prime: callable
    descriptor: str = ""

    @classmethod
    def from_expression(cls, text: str) -> "Nonlinearity":
        g, gp = expressions.compile_expression(text)
        nl = cls(g=g, g_prime=gp, descriptor=text.strip())
        check_derivative(nl)
        return nl


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
                f"e must be orthogonal to the driven harmonic: coefficient {self.k} "
                f"is {self.e.coeffs[self.k - 1]!r}, not 0"
            )


def check_derivative(nl: Nonlinearity, lo: float = -50.0, hi: float = 50.0,
                     n: int = 100, rtol: float = 1e-5) -> float:
    """Verify g_prime against centered differences of g at random sample points.

    Returns the worst relative error; raises if it exceeds rtol.  Samples where
    g fails to evaluate finitely are skipped (the solver would reject them too).
    """
    rng = np.random.default_rng(20240)
    u = rng.uniform(lo, hi, n)
    h = 1e-6 * (1.0 + np.abs(u))
    with np.errstate(all="ignore"):
        fd = (np.asarray(nl.g(u + h), dtype=float) - np.asarray(nl.g(u - h), dtype=float)) / (2 * h)
        gp = np.asarray(nl.g_prime(u), dtype=float)
    ok = np.isfinite(fd) & np.isfinite(gp)
    if not ok.any():
        raise ValueError(f"nonlinearity {nl.descriptor!r} not finite on [{lo}, {hi}]")
    scale = np.maximum(np.abs(gp[ok]), 1.0)
    err = float(np.max(np.abs(fd[ok] - gp[ok]) / scale))
    if err > rtol:
        raise ValueError(
            f"g_prime disagrees with finite differences of g for {nl.descriptor!r}: "
            f"relative error {err:.2e} > {rtol:.0e}"
        )
    return err


# --- catalog nonlinearities (module-level so problem specs stay picklable) ---

def _g_amann_hess(u):
    u = np.asarray(u, dtype=float)
    return np.cos(u) + u * (_PI2 + (2 / np.pi) * np.arctan(u)
                            + 0.9 * np.sin(np.log(u * u + 1)))


def _gp_amann_hess(u):
    u = np.asarray(u, dtype=float)
    a = _PI2 + (2 / np.pi) * np.arctan(u) + 0.9 * np.sin(np.log(u * u + 1))
    da = (2 / np.pi) / (1 + u * u) + 0.9 * np.cos(np.log(u * u + 1)) * 2 * u / (u * u + 1)
    return -np.sin(u) + a + u * da


def _g_oscillatory(u):
    u = np.asarray(u, dtype=float)
    return _PI2 * u + 5.0 * (u * u + 1) ** (5 / 12) * np.sin(u)


def _gp_oscillatory(u):
    u = np.asarray(u, dtype=float)
    q = u * u + 1
    return (_PI2 + (25 / 6) * u * q ** (-7 / 12) * np.sin(u)
            + 5.0 * q ** (5 / 12) * np.cos(u))


def _g_resonance_k7(u):
    u = np.asarray(u, dtype=float)
    return 49 * _PI2 * u + np.sin(u)


def _gp_resonance_k7(u):
    return 49 * _PI2 + np.cos(np.asarray(u, dtype=float))


def _g_cubic(u, lam):
    u = np.asarray(u, dtype=float)
    return lam * u - u ** 3


def _gp_cubic(u, lam):
    u = np.asarray(u, dtype=float)
    return lam - 3 * u * u


def _g_resonant_bounded(u):
    u = np.asarray(u, dtype=float)
    return _PI2 * u + u / (1 + u * u)


def _gp_resonant_bounded(u):
    u = np.asarray(u, dtype=float)
    q = 1 + u * u
    return _PI2 + (1 - u * u) / (q * q)


CATALOG_NAMES = (
    "amann-hess-type",
    "oscillatory-p512",
    "resonance-k7",
    "cubic",
    "resonant-bounded",
)

DEFAULT_CUBIC_LAMBDA = _PI2 / 2

_CUBIC_RE = re.compile(r"cubic(?:\((?P<arg>.*)\))?$")


def _cubic_lambda(arg: str) -> float:
    """lambda of "cubic(arg)": a finite constant expression; ConfigError otherwise."""
    try:
        tree = expressions.parse(arg)
    except expressions.ExpressionError as exc:
        raise ConfigError(f"cubic({arg}): {exc}") from exc
    nodes = [tree]
    while nodes:
        node = nodes.pop()
        if node[0] == "var":
            raise ConfigError(f"cubic({arg}): lambda must be a constant, not depend on u")
        nodes += [kid for kid in node[1:] if isinstance(kid, tuple)]
    with np.errstate(all="ignore"):
        lam = float(expressions.evaluate(tree, 0.0))
    if not np.isfinite(lam):
        raise ConfigError(f"cubic({arg}): lambda = {lam} is not finite")
    return lam


def catalog(name: str, e: SineSeries | None = None) -> ProblemSpec:
    """Return a built-in problem by name.

    Names: amann-hess-type, oscillatory-p512, resonance-k7, cubic(lambda),
    resonant-bounded.  The cubic accepts a finite constant expression for
    lambda, e.g. "cubic(pi^2/2)" (ConfigError for one in u, one that does not
    parse or one that is not finite); plain "cubic" uses lambda = pi^2/2.  For
    the cubic the forcing e may be overridden (default 0.3 sin 2 pi x).  An
    unknown name raises KeyError.
    """
    name = name.strip()
    m = _CUBIC_RE.fullmatch(name)
    if m:
        arg = m.group("arg")
        lam = DEFAULT_CUBIC_LAMBDA if arg is None or arg.strip() == "" else _cubic_lambda(arg)
        nl = Nonlinearity(
            g=partial(_g_cubic, lam=lam),
            g_prime=partial(_gp_cubic, lam=lam),
            descriptor=f"{lam!r}*u - u^3",
        )
        if e is None:
            e = SineSeries.from_pairs(1.0, [(2, 0.3)])
        spec = ProblemSpec(L=1.0, k=1, e=e, nonlinearity=nl)
    elif name == "amann-hess-type":
        nl = Nonlinearity(
            g=_g_amann_hess, g_prime=_gp_amann_hess,
            descriptor="cos(u) + u*(pi^2 + (2/pi)*arctan(u) + 0.9*sin(ln(u^2+1)))",
        )
        spec = ProblemSpec(L=1.0, k=1,
                           e=SineSeries.from_pairs(1.0, [(2, 1.0), (5, -2.0)]),
                           nonlinearity=nl)
    elif name == "oscillatory-p512":
        nl = Nonlinearity(
            g=_g_oscillatory, g_prime=_gp_oscillatory,
            descriptor="pi^2*u + 5*(u^2+1)^(5/12)*sin(u)",
        )
        spec = ProblemSpec(L=1.0, k=1, e=SineSeries.from_pairs(1.0, [(2, 0.2)]),
                           nonlinearity=nl)
    elif name == "resonance-k7":
        nl = Nonlinearity(
            g=_g_resonance_k7, g_prime=_gp_resonance_k7,
            descriptor="49*pi^2*u + sin(u)",
        )
        spec = ProblemSpec(L=1.0, k=7,
                           e=SineSeries.from_pairs(1.0, [(3, 1.0), (4, -2.0)], n_modes=7),
                           nonlinearity=nl)
    elif name == "resonant-bounded":
        nl = Nonlinearity(
            g=_g_resonant_bounded, g_prime=_gp_resonant_bounded,
            descriptor="pi^2*u + u/(1+u^2)",
        )
        spec = ProblemSpec(L=1.0, k=1, e=SineSeries.from_pairs(1.0, [(2, 0.2)]),
                           nonlinearity=nl)
    else:
        raise KeyError(
            f"unknown catalog problem {name!r}; available: {', '.join(CATALOG_NAMES)}"
        )
    check_derivative(spec.nonlinearity)
    return spec


@dataclass(frozen=True)
class ConditionReport:
    """Advisory numerical check of the solvability hypotheses on a u-range.

    For k = 1 the relevant bound is g' < lambda_2; for k >= 2 the sandwich
    lambda_{k-1} < g' < lambda_{k+1}.  The crossing condition asks g(u)/u to
    sit below lambda_1 on the far negative tail and above it on the far
    positive tail.  Never blocks solving.
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


def validate_conditions(p: ProblemSpec, u_range: tuple[float, float],
                        samples: int = 10_000) -> ConditionReport:
    """Sample g' and g(u)/u on u_range and report which hypotheses hold.

    Dense sampling only; advisory diagnostics, not a proof.
    """
    lo, hi = float(u_range[0]), float(u_range[1])
    u = np.linspace(lo, hi, samples)
    gp = np.asarray(p.nonlinearity.g_prime(u), dtype=float)
    gp_min, gp_max = float(np.min(gp)), float(np.max(gp))

    lam_k1 = eigenvalue(p.k + 1, p.L)
    if p.k == 1:
        sandwich_ok = gp_max < lam_k1
    else:
        lam_km1 = eigenvalue(p.k - 1, p.L)
        sandwich_ok = (lam_km1 < gp_min) and (gp_max < lam_k1)

    # crossing (Amann-Hess style): examine g(u)/u on the outer 20% tails
    lam1 = eigenvalue(1, p.L)
    span = hi - lo
    neg = u[u < lo + 0.2 * span]
    pos = u[u > hi - 0.2 * span]
    neg = neg[np.abs(neg) > 1e-9]
    pos = pos[np.abs(pos) > 1e-9]
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

    Required: [problem] with keys k and g; optional L (default 1.0) and e,
    a comma- or whitespace-separated list of mode:coefficient pairs.  g(0)
    must be finite, since u vanishes at both ends.  The optional [run]
    section carries xi_min, xi_max, xi_step, modes, newton_tol, max_iter,
    mu_star (comma-separated list).
    """
    cp = configparser.ConfigParser()
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc

    if not cp.has_section("problem"):
        raise ConfigError(f"{path}: missing [problem] section")
    prob = cp["problem"]
    try:
        L = float(prob.get("L", "1.0"))
        k = int(prob.get("k", "1"))
        gtext = prob.get("g")
        if gtext is None:
            raise ConfigError(f"{path}: [problem] needs g = <expression in u>")
        pairs = _parse_pairs(prob.get("e", ""))
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{path}: bad [problem] value: {exc}") from exc

    for mode, coeff in pairs:
        if mode == k and coeff != 0.0:
            raise ConfigError(
                f"{path}: e has a nonzero coefficient {coeff} on mode {k}, but the "
                f"forcing must be orthogonal to the driven harmonic sin({k} pi x/L); "
                f"set the mode-{k} coefficient to zero (it is carried by mu_{k})"
            )
    try:
        nl = Nonlinearity.from_expression(gtext)
    except (expressions.ExpressionError, ValueError) as exc:
        raise ConfigError(f"{path}: bad expression for g: {exc}") from exc
    with np.errstate(all="ignore"):
        g0 = float(nl.g(0.0))
    if not np.isfinite(g0):
        raise ConfigError(f"{path}: g(0) = {g0} is not finite, but u vanishes at "
                          f"both ends, so g must be finite at 0")
    e = SineSeries.from_pairs(L, pairs, n_modes=k)
    spec = ProblemSpec(L=L, k=k, e=e, nonlinearity=nl)

    kwargs = {}
    if cp.has_section("run"):
        run = cp["run"]
        try:
            for key, cast in (("xi_min", float), ("xi_max", float), ("xi_step", float),
                              ("modes", int), ("newton_tol", float), ("max_iter", int)):
                if run.get(key) is not None:
                    kwargs[key] = cast(run.get(key))
            if run.get("mu_star") is not None:
                kwargs["mu_star"] = tuple(
                    float(tok) for tok in re.split(r"[\s,]+", run.get("mu_star").strip()) if tok
                )
        except ValueError as exc:
            raise ConfigError(f"{path}: bad [run] value: {exc}") from exc
    settings = RunSettings(**kwargs)
    check_run_settings(spec, settings, where=f"{path}: ")
    return spec, settings


def check_run_settings(spec: ProblemSpec, settings: RunSettings, where: str = "") -> None:
    """Raise ConfigError unless the [run] settings can be run on spec.

    The xi range must be finite and nonempty, the step finite and positive,
    and the mode count must hold twice the driven harmonic and every forcing
    mode.
    """
    for key in ("xi_min", "xi_max", "xi_step"):
        value = getattr(settings, key)
        if not np.isfinite(value):
            raise ConfigError(f"{where}{key} must be finite, got {value}")
    if not settings.xi_min < settings.xi_max:
        raise ConfigError(f"{where}xi_min must be below xi_max, got "
                          f"[{settings.xi_min}, {settings.xi_max}]")
    if settings.xi_step <= 0:
        raise ConfigError(f"{where}xi_step must be positive, got {settings.xi_step}")
    need = max(2 * spec.k, spec.e.n_modes)
    if settings.modes < need:
        raise ConfigError(f"{where}modes must be at least max(2k, forcing modes) = "
                          f"{need}, got {settings.modes}")
