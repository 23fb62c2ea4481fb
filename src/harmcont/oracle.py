"""The independent verification path for the spectral solver: collocation.

A collocation method solves the same boundary value problem in physical
space: scipy's solve_bvp (4th-order Lobatto IIIA collocation with residual
control; Kierzenka & Shampine, ACM TOMS 27, 2001) on the state (u, u', w),
where w accumulates the k-th harmonic and mu is the unknown parameter.  It
reads only g and e.eval (a direct sine sum): no g', no sine transform and no
solver code, so agreement with the spectral solver is meaningful evidence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .problems import ProblemSpec

BVP_TOL = 1e-8  # solve_bvp's residual and boundary tolerance
BVP_START_NODES = 401  # uniform mesh of the pure-harmonic start
BVP_MAX_NODES = 50_000  # solve_bvp stops with status 1 beyond this mesh size


@dataclass(frozen=True)
class OracleResult:
    mu: float
    u: Callable  # x -> u(x), solve_bvp's collocation interpolant
    status: int  # solve_bvp's: 0 converged, 1 max_nodes, 2 singular, 3 boundary tol missed
    newton_iters: int

    @property
    def converged(self) -> bool:
        return self.status == 0


def shoot(p: ProblemSpec, xi_target: float) -> OracleResult:
    """Solve the boundary value problem by collocation, at prescribed harmonic.

    u'' = -g(u) + mu phi_k + e and w' = (2/L) u phi_k, with u(0) = u(L) = 0,
    w(0) = 0 and w(L) = xi_target.  The start is the pure harmonic
    xi phi_k with mu = -lambda_k xi.  The solution u is returned as a
    callable, which the caller samples where it needs; converged only when
    solve_bvp reports status 0.  The name stays shoot because
    bench/tracing.py and bench/workloads.py patch it.
    """
    # imported here so that hc run, which never calls this, skips scipy.integrate
    from scipy.integrate import solve_bvp

    L, kw = p.L, p.k * np.pi / p.L
    g = p.nonlinearity.g

    def rhs(x, y, params):
        phi = np.sin(kw * x)
        upp = -np.asarray(g(y[0]), dtype=float) + params[0] * phi + p.e.eval(x)
        return np.vstack([y[1], upp, (2.0 / L) * y[0] * phi])

    def bc(ya, yb, params):
        return np.array([ya[0], yb[0], ya[2], yb[2] - xi_target])

    x = np.linspace(0.0, L, BVP_START_NODES)
    y = xi_target * np.vstack([np.sin(kw * x), kw * np.cos(kw * x),
                               x / L - np.sin(2 * kw * x) / (2 * p.k * np.pi)])
    sol = solve_bvp(rhs, bc, x, y, p=[-kw ** 2 * xi_target], tol=BVP_TOL,
                    max_nodes=BVP_MAX_NODES)
    return OracleResult(mu=float(sol.p[0]), u=lambda x: sol.sol(x)[0],
                        status=int(sol.status), newton_iters=int(sol.niter))
