"""Closed-form large-xi predictions for the solution curves.

One formula serves both families the theory covers: the principal curve of
u'' + lambda_1 u + h(u) sin u = mu_1 phi_1 + e and the k-th curve of
u'' + lambda_k u + sin u = mu_k phi_k + e follow

    mu(xi) ~ 2 sqrt(2/(pi |xi|)) sin(xi -+ pi/4) h(xi),

with h == 1 for the second.  It derives from the stationary-phase
evaluation of int f e^{i lambda g} at the humps of sin(k pi x), whose
critical points and second derivatives are known in closed form, so the
evaluator takes both as given.

The slowly-varying correction inside h's argument is dropped (h is evaluated
at xi itself), which shows up as a small phase error at moderate xi.
"""

from __future__ import annotations

import numpy as np

from .spectral import SineSeries, eigenvalue


def _decay(xi_arr):
    return 2.0 * np.sqrt(2.0 / (np.pi * np.abs(xi_arr)))


def mu_asymptotic(h, xi):
    """The curve formula of amplitude h at xi (scalar or array); xi = 0 is rejected."""
    xi_arr = np.asarray(xi, dtype=float)
    if np.any(xi_arr == 0.0):
        raise ValueError("the asymptotic formula is singular at xi = 0")
    phase = np.where(xi_arr > 0, xi_arr - np.pi / 4, xi_arr + np.pi / 4)
    out = _decay(xi_arr) * np.sin(phase) * np.asarray(h(xi_arr), dtype=float)
    return out if out.ndim else float(out)


def envelope(h, xi):
    """Oscillation envelope |mu| <= envelope(h, xi) of the formula."""
    xi_arr = np.asarray(xi, dtype=float)
    env = _decay(xi_arr) * np.abs(np.asarray(h(xi_arr), dtype=float))
    return env if env.ndim else float(env)


def stationary_phase(f, g, lam: float, *, x0: float, g2: float) -> complex:
    """Leading term of int f(x) e^{i lam g(x)} dx for large lam.

    x0 is the only critical point of g in the interior of the interval and
    g2 = g''(x0) != 0.  Returns e^{i [lam g(x0) +- pi/4]} sqrt(2 pi/(lam |g2|))
    f(x0), the sign following the sign of g2.  The dropped remainder is
    O(1/lam).
    """
    if g2 == 0:
        raise ValueError(f"degenerate critical point: g''({x0}) = 0")
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
