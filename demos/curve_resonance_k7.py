"""Resonance at a higher eigenvalue: the 7th-harmonic solution curve.

For u'' + 49 pi^2 u + sin u = mu_7 sin(7 pi x) + sin(3 pi x) - 2 sin(4 pi x)
the derivative of the nonlinearity stays within one unit of lambda_7, so all
solutions lie on a single continuous curve mu_7(xi_7).  The curve follows
2 sqrt(2/(pi xi)) sin(xi - pi/4) so closely that solid and dashed lines are
hard to tell apart; mu_7 = 0 is crossed at every phase zero (infinitely many
solutions at resonance), while no solutions exist for large |mu_7|.

Run:  python demos/curve_resonance_k7.py
The curve files in out/resonance-k7/ come from
      hc run resonance-k7 --xi-min 10 --xi-max 60 --step 0.1 --modes 128 --out out/resonance-k7
"""

import numpy as np

from harmcont import (catalog, count_solutions, envelope, follow_curve,
                      for_catalog, mu_asymptotic)

problem = catalog("resonance-k7")
curve = follow_curve(problem, 10.0, 60.0, 0.1, n_modes=128)
print(f"followed {len(curve.points)} points, {len(curve.gaps)} gaps")

asym = for_catalog("resonance-k7")
xi = curve.xi()
formula = mu_asymptotic(asym, xi)
print(f"worst |mu - formula| relative to the local envelope: "
      f"{np.max(np.abs(curve.mu() - formula) / envelope(asym, xi)):.4f}")

for mu_star in (0.0, 0.2, 0.5):
    print(f"solutions with mu_7 = {mu_star}: {count_solutions(curve, mu_star)} "
          f"on the sampled window")
