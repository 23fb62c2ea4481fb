"""Independent verification paths for the spectral solver.

A shooting method integrates the same boundary value problem as an initial
value problem with classical RK4 and enforces {u(L) = 0, k-th harmonic = xi}
by a damped 2x2 Newton iteration on (u'(0), mu).  Nothing here touches the
sine-transform machinery: the integrator is plain RK4 and the harmonic is
extracted by trapezoid quadrature, so agreement with the spectral solver is
meaningful evidence.

Also ships an adaptive panel quadrature for oscillatory integrals
int f e^{i lambda g}, used to validate the stationary-phase formulas.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .problems import ProblemSpec

MAX_PANELS = 200_000  # oscillatory_quadrature refuses integrands that need more


@dataclass(frozen=True)
class ShootingResult:
    slope: float
    mu: float
    nodes: np.ndarray
    grid_solution: np.ndarray
    boundary_defect: float
    xi_defect: float
    converged: bool
    newton_iters: int


def _integrate_batch(p: ProblemSpec, slopes: np.ndarray, mus: np.ndarray,
                     phi_half: np.ndarray, e_half: np.ndarray, n_steps: int):
    """RK4 for u'' = -g(u) + mu phi_k + e over [0, L], batched over columns.

    phi_half and e_half hold phi_k and e at all nodes and half-nodes
    (2 n_steps + 1 values).  Returns u at the n_steps + 1 nodes, one column
    per (slope, mu) pair.
    """
    h = p.L / n_steps
    g = p.nonlinearity.g
    ncol = slopes.size
    u = np.zeros(ncol)
    v = slopes.astype(float).copy()
    out = np.empty((n_steps + 1, ncol))
    out[0] = u
    # superlinear g can blow the IVP up in finite x for off-manifold (s, mu);
    # bail out early and mark the remaining nodes unusable
    with np.errstate(all="ignore"):
        for i in range(n_steps):
            f0 = mus * phi_half[2 * i] + e_half[2 * i]
            fh = mus * phi_half[2 * i + 1] + e_half[2 * i + 1]
            f1 = mus * phi_half[2 * i + 2] + e_half[2 * i + 2]
            k1u = v
            k1v = -np.asarray(g(u), dtype=float) + f0
            u2 = u + 0.5 * h * k1u
            k2u = v + 0.5 * h * k1v
            k2v = -np.asarray(g(u2), dtype=float) + fh
            u3 = u + 0.5 * h * k2u
            k3u = v + 0.5 * h * k2v
            k3v = -np.asarray(g(u3), dtype=float) + fh
            u4 = u + h * k3u
            k4u = v + h * k3v
            k4v = -np.asarray(g(u4), dtype=float) + f1
            u = u + (h / 6.0) * (k1u + 2 * k2u + 2 * k3u + k4u)
            v = v + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
            out[i + 1] = u
            if not np.all(np.isfinite(u)) or np.max(np.abs(u)) > 1e150:
                out[i + 1:] = np.inf
                break
    return out


def _harmonic(p: ProblemSpec, u_nodes: np.ndarray, phi_nodes: np.ndarray,
              n_steps: int) -> np.ndarray:
    """(2/L) int u phi_k dx by composite trapezoid on the RK nodes."""
    h = p.L / n_steps
    with np.errstate(all="ignore"):  # blown-up trajectories carry inf
        w = u_nodes * phi_nodes[:, None]
        return (2.0 / p.L) * h * (np.sum(w, axis=0) - 0.5 * (w[0] + w[-1]))


def shoot(p: ProblemSpec, xi_target: float, n_steps: int = 10_000,
          s0: float | None = None, mu0: float | None = None,
          tol: float = 1e-10, max_iter: int = 40) -> ShootingResult:
    """Solve the boundary value problem by shooting, at prescribed harmonic.

    Integrates u'' = -g(u) + mu phi_k + e from u(0) = 0, u'(0) = s and drives
    (u(L), harmonic defect) to zero over (s, mu) by damped Newton with a
    forward-difference Jacobian.  Warm starts (s0, mu0) default to the pure
    harmonic shape; when several roots exist the one nearest the warm start
    is found.
    """
    if p.k > 8:
        raise ValueError("shooting supports k <= 8 (IVP too oscillatory beyond)")
    x_half = np.linspace(0.0, p.L, 2 * n_steps + 1)
    phi_half = np.sin(p.k * np.pi * x_half / p.L)
    e_half = p.e.eval(x_half)
    phi_nodes = phi_half[::2]

    if s0 is None:
        s0 = xi_target * p.k * np.pi / p.L
    if mu0 is None:
        # project the pure-harmonic guess: mu ~ -lambda_k xi + (2/L) int g(xi phi) phi
        lam_k = (p.k * np.pi / p.L) ** 2
        gh = np.asarray(p.nonlinearity.g(xi_target * phi_nodes), dtype=float) * phi_nodes
        h = p.L / n_steps
        mu0 = -lam_k * xi_target + (2.0 / p.L) * h * (np.sum(gh) - 0.5 * (gh[0] + gh[-1]))

    z = np.array([s0, mu0], dtype=float)

    def defects(cols_s, cols_mu):
        u_nodes = _integrate_batch(p, cols_s, cols_mu, phi_half, e_half, n_steps)
        bdry = u_nodes[-1]
        xi = _harmonic(p, u_nodes, phi_nodes, n_steps)
        return u_nodes, np.stack([bdry, xi - xi_target])

    scale = 1.0 + abs(xi_target)
    u_nodes, F = defects(z[:1], z[1:])
    Fz = F[:, 0]
    fnorm = float(np.hypot(*Fz))
    iters = 0
    converged = fnorm < tol * scale

    while not converged and iters < max_iter:
        if not np.isfinite(fnorm):
            break
        # probes stay small: superlinear problems amplify (s, mu) changes
        # exponentially in x, and the secant Jacobian must stay local
        ds = 1e-8 * (1.0 + abs(z[0]))
        dm = 1e-8 * (1.0 + abs(z[1]))
        _, Fpert = defects(np.array([z[0] + ds, z[0]]), np.array([z[1], z[1] + dm]))
        J = np.column_stack([(Fpert[:, 0] - Fz) / ds, (Fpert[:, 1] - Fz) / dm])
        try:
            delta = np.linalg.solve(J, -Fz)
        except np.linalg.LinAlgError:
            break
        step = 1.0
        accepted = False
        while step >= 2.0 ** -10:
            z_try = z + step * delta
            u_try, F_try = defects(z_try[:1], z_try[1:])
            fn_try = float(np.hypot(*F_try[:, 0]))
            if fn_try < fnorm:
                z, u_nodes, Fz, fnorm = z_try, u_try, F_try[:, 0], fn_try
                accepted = True
                break
            step *= 0.5
        iters += 1
        if not accepted:
            break
        converged = fnorm < tol * scale

    return ShootingResult(
        slope=float(z[0]), mu=float(z[1]), nodes=x_half[::2],
        grid_solution=u_nodes[:, 0], boundary_defect=float(abs(Fz[0])),
        xi_defect=float(abs(Fz[1])), converged=bool(converged),
        newton_iters=iters,
    )


def oscillatory_quadrature(f, g, lam: float, a: float, b: float,
                           abs_tol: float = 1e-10) -> complex:
    """Reference value of int_a^b f(x) e^{i lam g(x)} dx.

    The interval is pre-split into panels no wider than an eighth of the
    fastest oscillation period (estimated from max |g'| on a dense sample),
    then each panel is handed to adaptive Gauss-Kronrod quadrature for the
    real and imaginary parts separately.
    """
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

    def real_part(x):
        return f(x) * np.cos(lam * g(x))

    def imag_part(x):
        return f(x) * np.sin(lam * g(x))

    total = 0.0 + 0.0j
    tol_each = max(abs_tol / n_panels, 1e-13)
    for lo, hi in zip(edges[:-1], edges[1:]):
        re, _ = quad(real_part, lo, hi, epsabs=tol_each, epsrel=1e-12, limit=200)
        im, _ = quad(imag_part, lo, hi, epsabs=tol_each, epsrel=1e-12, limit=200)
        total += re + 1j * im
    return complex(total)
