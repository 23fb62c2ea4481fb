"""Newton solver for one point of a solution curve.

Given a problem and a prescribed k-th harmonic xi, find the remainder
U _|_ sin(k pi x/L) and the scalar mu_k so that u = xi sin(k pi x/L) + U
solves u'' + g(u) = mu_k sin(k pi x/L) + e(x).  The harmonic projection of
the equation fixes mu_k directly; the complementary projection is solved by
a damped Newton iteration on the sine coefficients of U.  The iteration works
on plain coefficient arrays; a SineSeries is built only for the returned
point.

A solve given a workspace that keeps the LU of an earlier Jacobian first
takes chord steps on it: the full step -LU^-1 R of simplified Newton
(Deuflhard, Newton Methods for Nonlinear Problems, 2004, sec. 2.1), each
kept only when it cuts the residual norm to at most THETA of its value.
The first chord step that does not is discarded, and the solve goes on from
the same iterate as it would without a kept LU: damped Newton with a fresh
Jacobian, its condition check and the line search in every iteration; each
fresh LU replaces the kept one.  A failed solve drops the kept LU.  A curve
passes one workspace to all its solves; its nodes are close, so most of
them converge on chord steps alone.  A solve given no workspace builds its
own and starts cold, so equal arguments give bit-identical points.  The LU,
its solves and the condition estimate are direct LAPACK calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack
from scipy.linalg.lapack import dgetrf, dgetrs

from .problems import ProblemSpec, RunSettings
from .spectral import (SineSeries, from_grid, l2_norm, multiplication_matrix,
                       to_grid)

__all__ = [
    "SolverSettings", "SolutionPoint", "solve_at_signature",
    "solution_series", "SINGULAR_CONDITION",
]

SINGULAR_CONDITION = 1e14
MIN_DAMPING = 2.0 ** -10  # the line search halves a Newton step down to this
# A chord step is kept when the residual norm falls to at most THETA times its
# value.  With 0.25, oscillatory-p512 took 9.2 steps per node and mu moved by
# up to 6.6e-11 against the committed figure curves (3.0e-11 with 0.01).
THETA = 0.01


@dataclass(frozen=True)
class SolverSettings:
    newton_tol: float = RunSettings.newton_tol
    max_iter: int = RunSettings.max_iter

    def __post_init__(self):
        # NaN fails every comparison; an infinite tolerance would accept any point
        if not 0.0 < self.newton_tol < np.inf:
            raise ValueError("newton_tol must be positive and finite")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass(frozen=True)
class SolutionPoint:
    """One point on a solution curve.

    failure is None for converged points; otherwise one of "max_iter",
    "singular_jacobian" (condition estimate above 1e14, the numerical
    signature of a violated g' sandwich), "line_search_stalled" or
    "non_finite" (g overflows or is NaN at the start point, so the residual
    or mu is not a finite number).

    newton_iters counts chord steps and fresh Newton steps alike, and
    max_iter bounds both.
    """

    xi: float
    mu: float
    U: SineSeries
    residual_norm: float
    newton_iters: int
    failure: str | None = None

    @property
    def converged(self) -> bool:
        return self.failure is None


def lu_factor(J: np.ndarray):
    """LU factors and pivots of J (LAPACK dgetrf); J itself is not modified.

    An exactly singular J is not raised: its condition estimate is 0.
    """
    lu, piv, _ = dgetrf(J)
    return lu, piv


def solution_series(point: SolutionPoint, k: int) -> SineSeries:
    """u = xi * phi_k + U as a single sine series."""
    c = point.U.coeffs.copy()
    c[k - 1] = point.xi
    return SineSeries(point.U.L, c)


class _Workspace:
    """Per-(problem, N) arrays shared by residual and Jacobian assembly."""

    def __init__(self, p: ProblemSpec, n_modes: int):
        need = max(2 * p.k, p.e.n_modes)
        if n_modes < need:
            raise ValueError(f"modes must be at least max(2k, forcing modes) = "
                             f"{need}, got {n_modes}")
        self.p = p
        self.N = n_modes
        self.M = 4 * n_modes
        self.lam = (np.arange(1, self.N + 1) * np.pi / p.L) ** 2
        self.e_pad = p.e.padded(self.N)
        self.reduced = np.delete(np.arange(self.N), p.k - 1)
        # g(u) does not vanish at the Dirichlet ends unless g(0) = 0; its sine
        # tail then decays like 1/j and aliases into the computed modes.  Split
        # off the constant g(0), whose coefficients 2 g(0) (1 - (-1)^j)/(j pi)
        # are known exactly, and transform only the end-vanishing remainder.
        self.g0 = float(np.asarray(p.nonlinearity.g(0.0), dtype=float))
        j = np.arange(1, self.N + 1)
        self.const_coeffs = 2.0 * (1.0 - (-1.0) ** j) / (j * np.pi)
        # (lu, piv) of the last Jacobian factored, until a solve fails
        self.factor = None

    def g_coefficients(self, g_vals: np.ndarray) -> np.ndarray:
        if self.g0 == 0.0:
            return from_grid(g_vals, self.N)
        tilted = from_grid(g_vals - self.g0, self.N)
        return tilted + self.g0 * self.const_coeffs

    def residual_mu(self, xi: float, U: np.ndarray):
        """Projected residual R = P[u'' + g(u) - e], mu and u on the grid.

        U holds the N coefficients of the remainder; its k-th slot is
        ignored.  R has a zero k-th coefficient; mu is fixed by the k-th sine
        coefficient of the equation, mu = -lambda_k xi + (2/L) int g(u) phi_k.
        """
        c = U.copy()
        c[self.p.k - 1] = xi
        u_vals = to_grid(c, self.M)
        g_vals = np.asarray(self.p.nonlinearity.g(u_vals), dtype=float)
        g_coef = self.g_coefficients(g_vals)
        k = self.p.k
        mu = -self.lam[k - 1] * xi + g_coef[k - 1]
        R = -self.lam * c + g_coef - self.e_pad
        R[k - 1] = 0.0
        return R, mu, u_vals

    def jacobian(self, u_vals: np.ndarray) -> np.ndarray:
        """Dense reduced Jacobian d(residual)/dU on the non-k modes."""
        gp_vals = np.asarray(self.p.nonlinearity.g_prime(u_vals), dtype=float)
        J = multiplication_matrix(gp_vals, self.N)
        J[np.diag_indices(self.N)] -= self.lam
        return J.take(self.reduced, 0).take(self.reduced, 1)

    def trial(self, xi: float, U: np.ndarray, delta: np.ndarray, step: float):
        """U moved by step * delta on the non-k modes, its R, mu, u and |R|."""
        U_try = U.copy()
        U_try[self.reduced] += step * delta
        R, mu, u_vals = self.residual_mu(xi, U_try)
        return U_try, R, mu, u_vals, l2_norm(R, self.p.L)


def solve_at_signature(p: ProblemSpec, xi: float, U0: SineSeries | None = None,
                       settings: SolverSettings | None = None,
                       n_modes: int = RunSettings.modes,
                       workspace: _Workspace | None = None) -> SolutionPoint:
    """Damped Newton iteration for the curve point at prescribed xi.

    n_modes alone sets the spectral resolution: the returned point has
    n_modes modes.  U0 is a warm start orthogonal to the driven harmonic
    (zero if omitted) with at most n_modes modes; a coarser one is
    zero-padded, a finer one raises ValueError.  workspace, built for p at
    n_modes, carries a kept LU in and out; without one the solve starts
    cold.  Non-convergence is reported in the returned point, never raised.
    """
    settings = settings or SolverSettings()
    ws = workspace or _Workspace(p, n_modes)
    if ws.p is not p or ws.N != n_modes:
        raise ValueError("workspace was built for another problem or mode count")
    U = np.zeros(n_modes) if U0 is None else U0.padded(n_modes)
    if U[p.k - 1] != 0.0:
        raise ValueError("warm start must have zero coefficient on the driven harmonic")
    red = ws.reduced

    R, mu, u_vals = ws.residual_mu(xi, U)
    rnorm = l2_norm(R, p.L)
    iters = 0
    failure = None
    # g overflows or is NaN at the start point.  A trial step whose residual
    # is not finite fails the line search's comparison and is halved.
    if not (np.isfinite(R).all() and np.isfinite(mu)):
        failure = "non_finite"

    chord = ws.factor is not None  # no chord step discarded yet
    while failure is None and rnorm >= settings.newton_tol and iters < settings.max_iter:
        if chord:
            lu, piv = ws.factor
            delta = dgetrs(lu, piv, -R[red], overwrite_b=True)[0]
            trial = ws.trial(xi, U, delta, 1.0)
            if trial[-1] <= THETA * rnorm:
                U, R, mu, u_vals, rnorm = trial
                iters += 1
                continue
            chord = False
        J = ws.jacobian(u_vals)
        anorm = np.abs(J).sum(0).max()  # the 1-norm
        lu, piv = lu_factor(J)
        rcond = lapack.dgecon(lu, anorm, norm="1")[0]
        if not np.isfinite(rcond) or rcond == 0 or 1.0 / rcond > SINGULAR_CONDITION:
            failure = "singular_jacobian"
            break
        ws.factor = (lu, piv)
        delta = dgetrs(lu, piv, -R[red], overwrite_b=True)[0]

        step = 1.0
        accepted = False
        while step >= MIN_DAMPING:
            trial = ws.trial(xi, U, delta, step)
            if trial[-1] < rnorm:
                U, R, mu, u_vals, rnorm = trial
                accepted = True
                break
            step *= 0.5
        iters += 1
        if not accepted:
            failure = "line_search_stalled"
            break

    if failure is None and not rnorm < settings.newton_tol:
        failure = "max_iter"
    if failure is not None:
        ws.factor = None
    return SolutionPoint(xi=float(xi), mu=float(mu), U=SineSeries(p.L, U),
                         residual_norm=rnorm, newton_iters=iters, failure=failure)
