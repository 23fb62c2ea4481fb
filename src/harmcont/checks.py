"""Named verification suites: linear, oracle, asymptotics, invariants.

Each suite returns a list of CheckRow records; the CLI prints them as a
PASS/FAIL table and the test suite asserts on them.  Tolerances here are
fixed, not configurable: they are the project's accuracy contract.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import asymptotics, continuation, oracle, problems, solver, spectral

# per-problem spectral resolution for tight cross-validation; the driven
# harmonic's Bessel band extends to roughly k*(|xi| + 15) modes, and the
# amann-hess entry needs extra modes for its slowly decaying (g(0) != 0) tail
ORACLE_MODES = {
    "amann-hess-type": 256,
    "oscillatory-p512": 64,
    "resonance-k7": 128,
    "cubic(pi^2/2)": 64,
    "resonant-bounded": 64,
}
ORACLE_XI = (-10.0, -3.0, 0.0, 3.0, 10.0)


@dataclass(frozen=True)
class CheckRow:
    suite: str
    name: str
    passed: bool
    detail: str


def _row(suite, name, passed, detail):
    return CheckRow(suite=suite, name=name, passed=bool(passed), detail=detail)


def linear_suite() -> list[CheckRow]:
    """For g == 0 the curve is exactly mu = -lambda_1 xi with U = 0."""
    zero = lambda u: np.zeros_like(np.asarray(u, dtype=float))
    nl = problems.Nonlinearity(g=zero, g_prime=zero, descriptor="0")
    p = problems.ProblemSpec(L=1.0, k=1, e=spectral.SineSeries.zero(1.0, 4),
                             nonlinearity=nl)
    rng = np.random.default_rng(7)
    worst_mu = worst_U = 0.0
    lam1 = spectral.eigenvalue(1, 1.0)
    for xi in rng.uniform(-10, 10, 20):
        pt = solver.solve_at_signature(p, float(xi), n_modes=16)
        worst_mu = max(worst_mu, abs(pt.mu + lam1 * xi))
        worst_U = max(worst_U, pt.U.l2_norm())
    rows = [_row("linear", "mu = -lambda_1 xi (20 random xi)", worst_mu < 1e-10,
                 f"worst |mu + lambda_1 xi| = {worst_mu:.2e}"),
            _row("linear", "remainder vanishes", worst_U < 1e-12,
                 f"worst ||U|| = {worst_U:.2e}")]

    # nonzero forcing: Newton is exact in one step and matches modal division
    p2 = problems.ProblemSpec(L=1.0, k=1,
                              e=spectral.SineSeries.from_pairs(1.0, [(2, 1.0)]),
                              nonlinearity=nl)
    pt = solver.solve_at_signature(p2, 0.0, n_modes=16)
    expect = -1.0 / (4 * np.pi ** 2)
    err = abs(pt.U.coeffs[1] - expect)
    rows.append(_row("linear", "modal solution for e = sin 2 pi x",
                     pt.newton_iters == 1 and err < 1e-13,
                     f"iters = {pt.newton_iters}, coefficient error = {err:.2e}"))
    return rows


def oracle_pair(p: problems.ProblemSpec, xi: float, n_modes: int,
                n_steps: int = 10_000):
    """Solve one point both ways; returns (point, shot, dmu, sup_error).

    Shooting starts from its own pure-harmonic predictor.  If that fails
    (the superlinear cubic's initial value problem blows up in finite x for
    starts off the stable manifold at |xi| ~ 10), the shot is retried from
    the spectral answer itself.  In that fallback the check degenerates to
    trajectory verification: an independent RK4 integration from the
    spectral (slope, mu) must return to the boundary, through the problem's
    exponential error amplification, with a defect at roundoff scale.
    """
    pt = solver.solve_at_signature(p, xi, n_modes=n_modes)
    shot = oracle.shoot(p, xi, n_steps=n_steps)
    if not shot.converged:
        u = solver.solution_series(pt, p.k)
        s_spec = float(np.sum(u.coeffs * np.arange(1, n_modes + 1) * np.pi / p.L))
        shot = oracle.shoot(p, xi, n_steps=n_steps, s0=s_spec, mu0=pt.mu,
                            tol=1e-8)
    u_spec = solver.solution_series(pt, p.k).eval(shot.nodes)
    sup = float(np.max(np.abs(u_spec - shot.grid_solution)))
    dmu = abs(pt.mu - shot.mu)
    return pt, shot, dmu, sup


def oracle_suite(xi_values=ORACLE_XI, dmu_tol: float = 1e-8,
                 sup_tol: float = 1e-6) -> list[CheckRow]:
    """Spectral vs shooting cross-validation over the whole catalog."""
    rows = []
    for name, n_modes in ORACLE_MODES.items():
        p = problems.catalog(name)
        n_steps = 10_000 if (p.k > 1 or name.startswith("cubic")) else 6_000
        worst_dmu = worst_sup = 0.0
        all_ok = True
        for xi in xi_values:
            pt, shot, dmu, sup = oracle_pair(p, xi, n_modes, n_steps)
            all_ok &= pt.converged and shot.converged
            worst_dmu = max(worst_dmu, dmu)
            worst_sup = max(worst_sup, sup)
        rows.append(_row(
            "oracle", name,
            all_ok and worst_dmu < dmu_tol and worst_sup < sup_tol,
            f"worst |dmu| = {worst_dmu:.2e}, worst sup = {worst_sup:.2e}"
            + ("" if all_ok else ", NON-CONVERGENCE"),
        ))
    return rows


def fresnel_errors(lams=(100.0, 200.0, 400.0)) -> dict[float, float]:
    """Absolute stationary-phase error on int_{-1}^{1} e^{i lam x^2} dx."""
    one = lambda x: np.ones_like(np.asarray(x, dtype=float)) if np.ndim(x) else 1.0
    sq = lambda x: np.asarray(x, dtype=float) ** 2
    out = {}
    for lam in lams:
        sp = asymptotics.stationary_phase(one, sq, lam, -1.0, 1.0)
        qu = oracle.oscillatory_quadrature(one, sq, lam, -1.0, 1.0)
        out[lam] = abs(sp - qu)
    return out


def hump_sum_identity(k: int = 7, xi: float = 23.0) -> float:
    """|formula - stationary-phase hump sum| for the k-th curve formula.

    The k-th curve formula is exactly (2/L) Im of the per-hump stationary
    phase contributions of int sin(k pi x) e^{i xi sin(k pi x)}; summing the
    evaluator over the k humps must reproduce it to roundoff.
    """
    g = lambda x: np.sin(k * np.pi * np.asarray(x, dtype=float))
    total = sum(asymptotics.stationary_phase(g, g, xi, m / k, (m + 1) / k)
                for m in range(k))
    a = asymptotics.AsymptoticCurve(kind=asymptotics.HIGHER_K, k=k, L=1.0)
    return abs(2.0 * total.imag - asymptotics.mu_asymptotic(a, xi))


def asymptotics_suite() -> list[CheckRow]:
    rows = []
    a = asymptotics.for_catalog("oscillatory-p512")

    # zeros of the principal formula sit exactly at pi/4 + n pi (h > 0)
    worst = 0.0
    for n in range(1, 20):
        z = np.pi / 4 + n * np.pi
        worst = max(worst, abs(asymptotics.mu_asymptotic(a, z)))
    rows.append(_row("asymptotics", "zero crossings at pi/4 + n pi", worst < 1e-12,
                     f"worst |mu| at the nodes = {worst:.2e}"))

    hk = asymptotics.AsymptoticCurve(kind=asymptotics.HIGHER_K, k=7)
    xs = np.linspace(1.0, 80.0, 4001)
    vals = np.abs(asymptotics.mu_asymptotic(hk, xs))
    env = asymptotics.envelope(hk, xs)
    peaks = np.pi / 4 + np.pi / 2 + np.arange(0, 24) * np.pi
    touch = max(abs(abs(asymptotics.mu_asymptotic(hk, z)) - asymptotics.envelope(hk, z))
                for z in peaks)
    rows.append(_row("asymptotics", "envelope bounds the oscillation",
                     np.all(vals <= env + 1e-12) and touch < 1e-12,
                     f"max |mu|-env = {np.max(vals - env):.2e}, touch defect = {touch:.2e}"))

    errs = fresnel_errors()
    r1 = errs[100.0] / errs[200.0]
    r2 = errs[200.0] / errs[400.0]
    ok = 1.5 <= r1 <= 3.0 and 1.5 <= r2 <= 3.0
    ok = ok and all(errs[lam] < 5.0 / lam for lam in errs)
    rows.append(_row("asymptotics", "Fresnel remainder is O(1/lambda)", ok,
                     f"err ratios {r1:.3f}, {r2:.3f}; |err| vs 5/lambda ok = "
                     f"{all(errs[lam] < 5.0 / lam for lam in errs)}"))

    d = hump_sum_identity()
    rows.append(_row("asymptotics", "per-hump stationary phase sum", d < 1e-8,
                     f"defect = {d:.2e}"))
    return rows


def invariants_suite() -> list[CheckRow]:
    rows = []
    rng = np.random.default_rng(11)

    # Parseval: (L/2) sum a^2 equals grid quadrature of the squared function
    s = spectral.SineSeries(2.0, rng.standard_normal(24))
    vals = spectral.to_grid(s.coeffs, 96)
    quad = np.sum(vals ** 2) * 2.0 / (96 + 1)
    par = abs(quad - 2.0 / 2 * np.sum(s.coeffs ** 2)) / max(quad, 1e-30)
    rows.append(_row("invariants", "Parseval consistency", par < 1e-10,
                     f"relative defect = {par:.2e}"))

    # project_out then reinsertion reconstructs exactly
    xi, rem = spectral.project_out(s, 5)
    back = rem.coeffs.copy()
    back[4] = xi
    rows.append(_row("invariants", "harmonic split/reinsert is exact",
                     np.array_equal(back, s.coeffs), "bitwise comparison"))

    # catalog derivatives against finite differences
    worst = 0.0
    for name in ("amann-hess-type", "oscillatory-p512", "resonance-k7",
                 "cubic(pi^2/2)", "resonant-bounded"):
        p = problems.catalog(name)
        worst = max(worst, problems.check_derivative(p.nonlinearity))
    rows.append(_row("invariants", "catalog g' matches finite differences",
                     worst < 1e-5, f"worst relative error = {worst:.2e}"))

    # warm-start consistency: half stepping reproduces mu at shared nodes
    p = problems.catalog("oscillatory-p512")
    c1 = continuation.follow_curve(p, 5.0, 9.0, 0.2, n_modes=64)
    c2 = continuation.follow_curve(p, 5.0, 9.0, 0.1, n_modes=64)
    mu2 = {round(pt.xi, 9): pt.mu for pt in c2.points}
    worst = max(abs(pt.mu - mu2[round(pt.xi, 9)]) for pt in c1.points)
    rows.append(_row("invariants", "curve independent of step size", worst < 1e-8,
                     f"worst |dmu| at shared nodes = {worst:.2e}"))

    # uniqueness under the sandwich: random warm starts land on the same point
    p7 = problems.catalog("resonance-k7")
    base = solver.solve_at_signature(p7, 17.0, n_modes=96)
    x = np.linspace(0, 1, 801)
    ubase = solver.solution_series(base, 7).eval(x)
    worst = 0.0
    for _ in range(10):
        c = rng.standard_normal(96)
        c[6] = 0.0
        c *= 5.0 / spectral.SineSeries(1.0, c).l2_norm()
        U0 = spectral.SineSeries(1.0, c)
        pt = solver.solve_at_signature(p7, 17.0, U0)
        worst = max(worst, float(np.max(np.abs(
            solver.solution_series(pt, 7).eval(x) - ubase))))
    rows.append(_row("invariants", "unique point from 10 random warm starts",
                     worst < 1e-8, f"worst pairwise sup distance = {worst:.2e}"))
    return rows


SUITES = {
    "linear": linear_suite,
    "oracle": oracle_suite,
    "asymptotics": asymptotics_suite,
    "invariants": invariants_suite,
}


def run_suite(name: str) -> list[CheckRow]:
    if name == "all":
        rows = []
        for fn in SUITES.values():
            rows.extend(fn())
        return rows
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from "
                       f"{', '.join([*SUITES, 'all'])}")
    return SUITES[name]()
