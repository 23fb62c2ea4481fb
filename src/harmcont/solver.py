"""Newton solver for one point of a solution curve.

Given a problem and a prescribed k-th harmonic xi, find the remainder
U _|_ sin(k pi x/L) and the scalar mu_k so that u = xi sin(k pi x/L) + U
solves u'' + g(u) = mu_k sin(k pi x/L) + e(x).  One residual, the sine
coefficients of u'' + g(u) minus a forcing that holds e and the g(0)
correction, serves the whole equation: mu_k is its k-th coefficient, and a
damped Newton iteration on the sine coefficients of U zeroes the others.  The
iteration works on plain coefficient arrays; a SineSeries is built only for
the returned point.

A solve given a workspace that keeps the LU of an earlier Jacobian first
takes quasi-Newton steps on it: QNERR (Deuflhard, Newton Methods for
Nonlinear Problems, 2004, sec. 2.1.4), the step -LU^-1 R corrected by the
steps already taken on the kept LU, which applies Broyden's "good" rank-1
updates of that Jacobian without forming them.  Each step is kept only when
it cuts the residual norm to at most THETA of its value.  The first step
that does not is discarded, and the solve goes on from the same iterate as
it would without a kept LU: damped Newton with a fresh Jacobian, its
condition check and the line search in every iteration; each fresh LU
replaces the kept one.  The steps are dropped when the solve ends, and a
failed solve drops the kept LU.  A curve passes one workspace to all its
solves; its nodes are close, so most of them converge on quasi-Newton steps
alone.  A solve given no workspace builds its own and starts cold, so equal
arguments give bit-identical points.  The LU, its solves and the condition
estimate are direct LAPACK calls.
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
# A quasi-Newton step is kept when the residual norm falls to at most THETA
# times its value.  Residuals / LU calls for oscillatory-p512 on [5, 60]
# (step 0.1, 64 modes, three-point predictor): 0.01 -> 2423 / 898, 0.02 ->
# 2618 / 665, 0.03 -> 2752 / 527, 0.05 -> 2981 / 368; mu moved by at most
# 4.5e-11 against the committed curve at each.  At 0.01 and 0.02 a secant
# start at xi = 7 needs a fresh LU; at 0.05 the plain warm start there does
# not (tests/test_solver.py TestTangent).
THETA = 0.03


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

    newton_iters counts quasi-Newton steps and fresh Newton steps alike, and
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
        j = np.arange(1, self.N + 1)
        self.neg_lam = -(j * np.pi / p.L) ** 2
        self.reduced = np.delete(np.arange(self.N), p.k - 1)
        # g(u) does not vanish at the Dirichlet ends unless g(0) = 0; its sine
        # tail then decays like 1/j and aliases into the computed modes.  The
        # forcing swaps the transform's coefficients of the constant g(0) for
        # the exact ones, 2 g(0) (1 - (-1)^j)/(j pi).
        g0 = float(np.asarray(p.nonlinearity.g(0.0), dtype=float))
        exact = 2.0 * (1.0 - (-1.0) ** j) / (j * np.pi)
        self.forcing = p.e.padded(self.N) - g0 * (exact - from_grid(np.ones(self.M), self.N))
        # (lu, piv) of the last Jacobian factored, until a solve fails
        self.factor = None

    def step(self, R: np.ndarray, steps=()) -> np.ndarray:
        """Step at residual R on the kept LU, as an N-vector with 0 in slot k.

        steps holds (s, s.s) for the full steps s_0..s_m already taken on the
        kept LU in this solve.  With none, this is -LU^-1 R.  Each one adds
        Broyden's "good" rank-1 update of the Jacobian (QNERR), applied to
        v = -LU^-1 R by Sherman-Morrison: v += (s_(i-1).v / |s_(i-1)|^2) s_i
        for i = 1..m, then v /= 1 - s_m.v / |s_m|^2.
        """
        lu, piv = self.factor
        v = np.zeros(self.N)
        v[self.reduced] = dgetrs(lu, piv, -R[self.reduced], overwrite_b=True)[0]
        for (s0, ss0), (s1, _) in zip(steps, steps[1:]):
            v += (s0 @ v / ss0) * s1
        if steps:
            s, ss = steps[-1]
            v /= 1.0 - s @ v / ss
        return v

    def residual_mu(self, xi: float, U: np.ndarray):
        """Projected residual R, mu and u on the grid.

        U holds the N coefficients of the remainder; its k-th slot is
        ignored.  mu is the k-th coefficient of u'' + g(u) - forcing, the
        g(0) correction being part of the forcing; R has that slot zeroed.
        """
        c = U.copy()
        c[self.p.k - 1] = xi
        u_vals = to_grid(c, self.M)
        R = self.neg_lam * c
        R += from_grid(np.asarray(self.p.nonlinearity.g(u_vals), dtype=float), self.N)
        R -= self.forcing
        mu = R[self.p.k - 1]
        R[self.p.k - 1] = 0.0
        return R, mu, u_vals

    def jacobian(self, u_vals: np.ndarray) -> np.ndarray:
        """Dense reduced Jacobian d(residual)/dU on the non-k modes."""
        gp_vals = np.asarray(self.p.nonlinearity.g_prime(u_vals), dtype=float)
        J = multiplication_matrix(gp_vals, self.N)
        J[np.diag_indices(self.N)] += self.neg_lam
        return J.take(self.reduced, 0).take(self.reduced, 1)

    def trial(self, xi: float, U: np.ndarray, v: np.ndarray):
        """U + v (v an N-vector with 0 in slot k), its R, mu, u and |R|."""
        U_try = U + v
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

    R, mu, u_vals = ws.residual_mu(xi, U)
    rnorm = l2_norm(R, p.L)
    iters = 0
    failure = None
    # g overflows or is NaN at the start point.  A trial step whose residual
    # is not finite fails the line search's comparison and is halved.
    if not (np.isfinite(R).all() and np.isfinite(mu)):
        failure = "non_finite"

    steps = [] if ws.factor is not None else None  # None once a step is discarded
    while failure is None and rnorm >= settings.newton_tol and iters < settings.max_iter:
        if steps is not None:
            v = ws.step(R, steps)
            trial = ws.trial(xi, U, v)
            if trial[-1] <= THETA * rnorm:
                U, R, mu, u_vals, rnorm = trial
                steps.append((v, v @ v))
                iters += 1
                continue
            steps = None
        J = ws.jacobian(u_vals)
        anorm = np.abs(J).sum(0).max()  # the 1-norm
        lu, piv = lu_factor(J)
        rcond = lapack.dgecon(lu, anorm, norm="1")[0]
        if not np.isfinite(rcond) or rcond == 0 or 1.0 / rcond > SINGULAR_CONDITION:
            failure = "singular_jacobian"
            break
        ws.factor = (lu, piv)
        v = ws.step(R)

        damping = 1.0
        accepted = False
        while damping >= MIN_DAMPING:
            trial = ws.trial(xi, U, damping * v)
            if trial[-1] < rnorm:
                U, R, mu, u_vals, rnorm = trial
                accepted = True
                break
            damping *= 0.5
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
