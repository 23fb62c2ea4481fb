"""Principal curve of an oscillatory problem with unbounded amplitude.

Follows mu_1(xi_1) for u'' + pi^2 u + 5 (u^2+1)^(5/12) sin u = mu_1 sin(pi x)
+ 0.2 sin(2 pi x) over xi in [5, 60] and compares it with the closed-form
stationary-phase prediction: an oscillation with phase xi - pi/4 whose
amplitude grows like xi^(1/3).  Every value of mu_1 is hit infinitely often
as xi grows, so the problem has infinitely many solutions for any forcing.

Run:  python demos/curve_oscillatory.py
The curve files in out/oscillatory-p512/ come from
      hc run oscillatory-p512 --xi-min 5 --xi-max 60 --step 0.1 --out out/oscillatory-p512
"""

import numpy as np

from harmcont import analyze, catalog, follow_curve, for_catalog, mu_asymptotic

problem = catalog("oscillatory-p512")
curve = follow_curve(problem, 5.0, 60.0, 0.1, n_modes=64)
print(f"followed {len(curve.points)} points, {len(curve.gaps)} gaps")

asym = for_catalog("oscillatory-p512")
xi = curve.xi()
formula = mu_asymptotic(asym, xi)
peaks = [(x, m) for x, m, kind in analyze(curve).extrema if x > 30 and kind == "max"]
env_dev = max(abs(m - np.max(mu_asymptotic(asym, np.linspace(x - 1.6, x + 1.6, 3201))))
              / m for x, m in peaks)
print(f"oscillation amplitude past xi = 30 matches the formula to "
      f"{100 * env_dev:.0f}% (the remainder shifts the phase by ~0.4 there, "
      f"so pointwise differences look larger than the envelope mismatch)")

report = analyze(curve)
crossings = [z for z in report.sign_changes if z > 30]
offsets = [abs(z - (np.pi / 4 + round((z - np.pi / 4) / np.pi) * np.pi))
           for z in crossings]
print(f"zero crossings past xi = 30 sit within {max(offsets):.3f} of pi/4 + n pi")
