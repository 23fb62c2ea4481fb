"""Independent verification paths for the spectral solver.

A collocation method solves the same boundary value problem in physical
space: scipy's solve_bvp (4th-order Lobatto IIIA collocation with residual
control; Kierzenka & Shampine, ACM TOMS 27, 2001) on the state (u, u', w),
where w accumulates the k-th harmonic and mu is the unknown parameter.  It
reads only g and e.eval (a direct sine sum): no g', no sine transform and no
solver code, so agreement with the spectral solver is meaningful evidence.

Also ships an adaptive panel quadrature for oscillatory integrals
int f e^{i lambda g}, one complex quad call per panel, used to validate the
stationary-phase evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problems import ProblemSpec

MAX_PANELS = 200_000  # oscillatory_quadrature refuses integrands that need more
BVP_TOL = 1e-8  # solve_bvp's residual and boundary tolerance
BVP_START_NODES = 401  # uniform mesh of the pure-harmonic start
BVP_MAX_NODES = 50_000  # solve_bvp stops with status 1 beyond this mesh size


@dataclass(frozen=True)
class OracleResult:
    mu: float
    nodes: np.ndarray
    grid_solution: np.ndarray
    converged: bool
    status: int  # solve_bvp's: 0 converged, 1 max_nodes, 2 singular, 3 boundary tol missed
    newton_iters: int


def shoot(p: ProblemSpec, xi_target: float, n_steps: int = 10_000) -> OracleResult:
    """Solve the boundary value problem by collocation, at prescribed harmonic.

    u'' = -g(u) + mu phi_k + e and w' = (2/L) u phi_k, with u(0) = u(L) = 0,
    w(0) = 0 and w(L) = xi_target.  The start is the pure harmonic
    xi phi_k with mu = -lambda_k xi.  The solution is returned sampled on
    n_steps + 1 uniform nodes; converged only when solve_bvp reports status 0.
    The name stays shoot because bench/tracing.py and bench/workloads.py patch it.
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
    nodes = np.linspace(0.0, L, n_steps + 1)
    return OracleResult(
        mu=float(sol.p[0]), nodes=nodes, grid_solution=sol.sol(nodes)[0],
        converged=sol.status == 0, status=int(sol.status), newton_iters=int(sol.niter),
    )


def oscillatory_quadrature(f, g, lam: float, a: float, b: float,
                           abs_tol: float = 1e-10) -> complex:
    """Reference value of int_a^b f(x) e^{i lam g(x)} dx.

    The interval is pre-split into panels no wider than an eighth of the
    fastest oscillation period (estimated from max |g'| on a dense sample),
    then each panel is handed to one complex adaptive Gauss-Kronrod
    quadrature (scipy's quad with complex_func=True).
    """
    # imported here so that hc run, which never calls this, skips scipy.integrate
    from scipy.integrate import quad

    if not b > a:
        raise ValueError(f"empty interval [{a}, {b}]")
    xs = np.linspace(a, b, 4097)
    gp_max = float(np.max(np.abs(np.gradient(np.asarray(g(xs), dtype=float), xs))))
    if lam != 0.0 and gp_max > 0:
        period = 2 * np.pi / (abs(lam) * gp_max)
        n_panels = int(np.ceil((b - a) / (period / 8.0)))
        n_panels = max(1, min(n_panels, MAX_PANELS))
        if n_panels == MAX_PANELS:
            raise ValueError("panel budget exceeded; integrand oscillates too fast")
    else:
        n_panels = 1
    edges = np.linspace(a, b, n_panels + 1)
    total = 0.0 + 0.0j
    tol_each = max(abs_tol / n_panels, 1e-13)
    for lo, hi in zip(edges[:-1], edges[1:]):
        total += quad(lambda x: f(x) * np.exp(1j * lam * g(x)), lo, hi,
                      epsabs=tol_each, epsrel=1e-12, limit=200, complex_func=True)[0]
    return complex(total)
