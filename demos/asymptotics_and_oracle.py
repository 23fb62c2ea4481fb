"""The verification toolbox: stationary phase, quadrature, collocation, profile.

Four independent ways to confirm the solver, demonstrated head to head:
  1. the stationary-phase evaluator against adaptive oscillatory quadrature
     on the Fresnel integral (remainder shrinks like 1/lambda);
  2. the per-hump stationary-phase sum reproducing the k-th curve formula;
  3. a collocation oracle (scipy's solve_bvp, no spectral machinery)
     matching the spectral solver to ~1e-10 in mu;
  4. the universal large-xi profile xi sin(pi x) + E(x), which depends on
     the forcing but not on the nonlinearity.

Run:  python demos/asymptotics_and_oracle.py
"""

import numpy as np

from harmcont import (AsymptoticCurve, Nonlinearity, ProblemSpec, SineSeries,
                      catalog, mu_asymptotic, oscillatory_quadrature, shoot,
                      solution_series, solve_at_signature, stationary_phase,
                      universal_profile)

print("1. Fresnel integral  int_-1^1 e^{i lam x^2} dx")
one = lambda x: 1.0
square = lambda x: x * x
for lam in (100.0, 200.0, 400.0):
    sp = stationary_phase(one, square, lam, -1.0, 1.0)
    quad = oscillatory_quadrature(one, square, lam, -1.0, 1.0)
    print(f"   lam = {lam:5.0f}: leading term {sp:.6f}, "
          f"|remainder| = {abs(sp - quad):.2e}  (~1/lam = {1 / lam:.2e})")

print("2. per-hump sum vs the k-th curve formula (k = 7, xi = 23)")
g = lambda x: np.sin(7 * np.pi * x)
total = sum(stationary_phase(g, g, 23.0, m / 7, (m + 1) / 7) for m in range(7))
formula = mu_asymptotic(AsymptoticCurve(), 23.0)
print(f"   2 Im(sum) = {2 * total.imag:.10f}")
print(f"   formula   = {formula:.10f}")

print("3. spectral solver vs collocation on the resonant-bounded problem")
p = catalog("resonant-bounded")
pt = solve_at_signature(p, 3.0, n_modes=64)
bvp = shoot(p, 3.0)
x = np.linspace(0.0, p.L, 10_001)
u_spec = solution_series(pt, p.k).eval(x)
print(f"   mu: spectral {pt.mu:.12f} vs collocation {bvp.mu:.12f} "
      f"({bvp.newton_iters} solve_bvp iterations, status {bvp.status})")
print(f"   sup |u_spectral - u_collocation| = {np.max(np.abs(u_spec - bvp.u(x))):.2e}")

print("4. universal profile at xi = 50 (slowly growing oscillatory term)")
nl = Nonlinearity.from_expression("pi^2*u + 2*(u^2+1)^(1/5)*sin(u)")
e = SineSeries.from_pairs(1.0, [(2, 1.0)])
spec = ProblemSpec(L=1.0, k=1, e=e, nonlinearity=nl)
pt = solve_at_signature(spec, 50.0, n_modes=128)
profile = universal_profile(e, 50.0)
x = np.linspace(0, 1, 2001)
sup = np.max(np.abs(solution_series(pt, 1).eval(x) - profile.eval(x)))
print(f"   sup |u - (50 sin(pi x) + E)| = {sup:.4f} "
      "(E solves E'' + pi^2 E = e, independent of g)")
