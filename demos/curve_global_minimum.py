"""A curve with a global minimum: zero, one, or two solutions by mu level.

The nonlinearity cos u + u (pi^2 + (2/pi) arctan u + 0.9 sin(ln(u^2+1)))
crosses the principal eigenvalue as u runs from -inf to +inf, but g(u)/u has
no limits at infinity (the log-oscillation never settles).  The curve
mu_1(xi_1) still rises to +infinity on both ends, so its interior global
minimum mu_0 splits the forcing axis into no-solution, tangent, and
multiple-solution regimes.

Run:  python demos/curve_global_minimum.py
The curve files in out/amann-hess-type/ come from
      hc run amann-hess-type --xi-min -40 --xi-max 40 --step 0.1 --mu-star 0 --out out/amann-hess-type
"""

from harmcont import analyze, catalog, count_solutions, follow_curve, validate_conditions

problem = catalog("amann-hess-type")
print(validate_conditions(problem, (-50.0, 50.0)).summary())

curve = follow_curve(problem, -40.0, 40.0, 0.1, n_modes=64)
report = analyze(curve)
xi0, mu0 = report.global_min
print(f"\nglobal minimum mu_0 = {mu0:.4f} at xi_0 = {xi0:.4f}")
print(f"curve ends: mu(-40) = {curve.mu()[0]:.2f}, mu(40) = {curve.mu()[-1]:.2f}")
for offset in (-1.0, 0.0, 1.0, 5.0):
    level = mu0 + offset
    print(f"solutions at mu_1 = mu_0 + {offset:+.0f}: "
          f"{count_solutions(curve, level)}")
