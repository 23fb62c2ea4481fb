"""Closed-form large-xi predictions for the solution curves.

One formula serves both families the theory covers: the principal curve of
u'' + lambda_1 u + h(u) sin u = mu_1 phi_1 + e and the k-th curve of
u'' + lambda_k u + sin u = mu_k phi_k + e follow

    mu(xi) ~ 2 sqrt(2/(pi |xi|)) sin(xi -+ pi/4) h(xi),

with h == 1 for the second.  It derives from the stationary-phase
evaluation of int f e^{i lambda g}; that evaluator is exposed directly.

The slowly-varying correction inside h's argument is dropped (h is evaluated
at xi itself), which shows up as a small phase error at moderate xi.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import problems
from .expressions import Expression
from .spectral import SineSeries, eigenvalue


@dataclass(frozen=True)
class AsymptoticCurve:
    """The large-xi curve formula with amplitude h, by default h == 1."""

    h: Callable = Expression("1")


def _decay(xi_arr):
    return 2.0 * np.sqrt(2.0 / (np.pi * np.abs(xi_arr)))


def mu_asymptotic(a: AsymptoticCurve, xi):
    """Evaluate the curve formula at xi (scalar or array); xi = 0 is rejected."""
    xi_arr = np.asarray(xi, dtype=float)
    if np.any(xi_arr == 0.0):
        raise ValueError("the asymptotic formula is singular at xi = 0")
    phase = np.where(xi_arr > 0, xi_arr - np.pi / 4, xi_arr + np.pi / 4)
    out = _decay(xi_arr) * np.sin(phase) * np.asarray(a.h(xi_arr), dtype=float)
    return out if out.ndim else float(out)


def envelope(a: AsymptoticCurve, xi):
    """Oscillation envelope |mu| <= envelope(xi) of the formula."""
    xi_arr = np.asarray(xi, dtype=float)
    env = _decay(xi_arr) * np.abs(np.asarray(a.h(xi_arr), dtype=float))
    return env if env.ndim else float(env)


def for_catalog(name: str) -> AsymptoticCurve | None:
    """The closed-form curve of a catalog problem; None if it has none.

    Its amplitude h is the expression the catalog table gives the entry.
    """
    h = problems._CATALOG.get(name, (None,) * 4)[3]
    return None if h is None else AsymptoticCurve(h=Expression(h))


def _second_derivative(fn, x, h):
    """Centered second difference, Richardson-extrapolated in h.

    The extrapolation kills the h^2 truncation term, so genuinely degenerate
    points (g'' = 0) report ~0 instead of the stencil artifact 2h^2.
    """
    def stencil(step):
        return (fn(x + step) - 2 * fn(x) + fn(x - step)) / (step * step)

    return (4.0 * stencil(h / 2) - stencil(h)) / 3.0


def stationary_phase(f, g, lam: float, a: float, b: float) -> complex:
    """Leading term of int_a^b f(x) e^{i lam g(x)} dx for large lam.

    g must have a unique interior critical point x0 with g''(x0) != 0; x0 is
    the root of the centered difference of g, found by Brent's method.
    Returns e^{i [lam g(x0) +- pi/4]} sqrt(2 pi/(lam |g''(x0)|)) f(x0), the
    sign following the sign of g''(x0).  The dropped remainder is O(1/lam).
    """
    if not b > a:
        raise ValueError(f"empty interval [{a}, {b}]")
    width = b - a
    hd = 1e-6 * width
    # imported here so that hc run, which never calls this, skips scipy.optimize
    from scipy.optimize import brentq
    try:
        x0 = brentq(lambda x: (g(x + hd) - g(x - hd)) / (2 * hd),
                    a + hd, b - hd, xtol=1e-12)
    except ValueError as exc:
        raise ValueError("no sign change of g' on the interval; "
                         "no interior critical point found") from exc
    g2 = _second_derivative(g, x0, 1e-4 * width)
    if abs(g2) < 1e-8:
        raise ValueError(
            f"degenerate critical point: |g''({x0})| = {abs(g2):.2e} < 1e-8"
        )
    sign = 1.0 if g2 > 0 else -1.0
    amp = np.sqrt(2 * np.pi / (lam * abs(g2))) * f(x0)
    return complex(amp * np.exp(1j * (lam * g(x0) + sign * np.pi / 4)))


def universal_profile(e: SineSeries, xi: float) -> SineSeries:
    """Large-xi solution shape xi phi_1 + E for slowly growing perturbations.

    E is the unique solution of E'' + lambda_1 E = e with Dirichlet ends and
    E _|_ phi_1; it does not depend on the nonlinearity at all.
    """
    if e.n_modes >= 1 and e.coeffs[0] != 0.0:
        raise ValueError("e must be orthogonal to the principal harmonic")
    # E_j = e_j / (lambda_1 - lambda_j), never resonant for j >= 2
    lam = np.array([eigenvalue(j, e.L) for j in range(1, e.n_modes + 1)])
    out = np.empty(e.n_modes)
    out[0] = xi
    out[1:] = e.coeffs[1:] / (lam[0] - lam[1:])
    return SineSeries(e.L, out)
