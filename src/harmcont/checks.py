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
ORACLE_DMU_TOL = 1e-8  # worst |mu_spectral - mu_oracle| over ORACLE_XI
ORACLE_SUP_TOL = 1e-6  # worst sup |u_spectral - u_oracle| over ORACLE_XI
FRESNEL_LAMS = (100.0, 200.0, 400.0)  # each twice the last, for the O(1/lam) ratios


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
    nl = problems.Nonlinearity.from_expression("0")
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

    The comparison grid is chosen here: sup_error compares the spectral
    solution with the collocation one on n_steps + 1 uniform nodes of [0, L].
    """
    pt = solver.solve_at_signature(p, xi, n_modes=n_modes)
    shot = oracle.shoot(p, xi)
    nodes = np.linspace(0.0, p.L, n_steps + 1)
    u_spec = solver.solution_series(pt, p.k).eval(nodes)
    sup = float(np.max(np.abs(u_spec - shot.u(nodes))))
    dmu = abs(pt.mu - shot.mu)
    return pt, shot, dmu, sup


def oracle_suite() -> list[CheckRow]:
    """Spectral vs collocation cross-validation over the whole catalog."""
    rows = []
    for name, n_modes in ORACLE_MODES.items():
        p = problems.catalog(name)
        worst_dmu = worst_sup = 0.0
        worst_xi = ORACLE_XI[0]
        failed = []
        for xi in ORACLE_XI:
            pt, shot, dmu, sup = oracle_pair(p, xi, n_modes)
            if not pt.converged:
                failed.append(f"xi = {xi:g} (spectral {pt.failure})")
            if not shot.converged:
                failed.append(f"xi = {xi:g} (solve_bvp status {shot.status})")
            if dmu > worst_dmu:
                worst_dmu, worst_xi = dmu, xi
            worst_sup = max(worst_sup, sup)
        rows.append(_row(
            "oracle", name,
            not failed and worst_dmu < ORACLE_DMU_TOL and worst_sup < ORACLE_SUP_TOL,
            f"worst |dmu| = {worst_dmu:.2e} at xi = {worst_xi:g}, "
            f"worst sup = {worst_sup:.2e}"
            + "".join(f", NON-CONVERGENCE at {f}" for f in failed),
        ))
    return rows


def fresnel_errors() -> dict[float, float]:
    """Absolute stationary-phase error on int_{-1}^{1} e^{i lam x^2} dx.

    The reference is exact: 2 sqrt(pi/(2 lam)) (C(z) + i S(z)) with
    z = sqrt(2 lam/pi), in the Fresnel integrals C and S (DLMF 7.2).
    """
    # imported here so that hc run, which never calls this, skips scipy.special
    from scipy.special import fresnel

    out = {}
    for lam in FRESNEL_LAMS:
        sp = asymptotics.stationary_phase(lambda x: 1.0, lambda x: x * x, lam,
                                          x0=0.0, g2=2.0)
        s, c = fresnel(np.sqrt(2.0 * lam / np.pi))
        out[lam] = abs(sp - 2.0 * np.sqrt(np.pi / (2.0 * lam)) * complex(c, s))
    return out


def hump_sum_identity(k: int = 7, xi: float = 23.0) -> float:
    """|formula - stationary-phase hump sum| for the k-th curve formula.

    The k-th curve formula is exactly (2/L) Im of the per-hump stationary
    phase contributions of int sin(k pi x) e^{i xi sin(k pi x)}: hump m has
    its critical point at (m + 1/2)/k, where g'' = -(k pi)^2 (-1)^m.  Summing
    the evaluator over the k humps must reproduce it to roundoff.
    """
    g = lambda x: np.sin(k * np.pi * x)
    total = sum(asymptotics.stationary_phase(g, g, xi, x0=(m + 0.5) / k,
                                             g2=-(k * np.pi) ** 2 * (-1) ** m)
                for m in range(k))
    formula = asymptotics.mu_asymptotic(problems.for_catalog("resonance-k7"), xi)
    return abs(2.0 * total.imag - formula)


def asymptotics_suite() -> list[CheckRow]:
    rows = []
    h = problems.for_catalog("oscillatory-p512")

    # zeros of the principal formula sit exactly at pi/4 + n pi (h > 0)
    worst = 0.0
    for n in range(1, 20):
        z = np.pi / 4 + n * np.pi
        worst = max(worst, abs(asymptotics.mu_asymptotic(h, z)))
    rows.append(_row("asymptotics", "zero crossings at pi/4 + n pi", worst < 1e-12,
                     f"worst |mu| at the nodes = {worst:.2e}"))

    hk = problems.for_catalog("resonance-k7")  # h == 1
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
    lam1, lam2, lam3 = FRESNEL_LAMS
    r1 = errs[lam1] / errs[lam2]
    r2 = errs[lam2] / errs[lam3]
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
        pt = solver.solve_at_signature(p7, 17.0, U0, n_modes=96)
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
