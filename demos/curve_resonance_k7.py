"""Resonance at a higher eigenvalue: the 7th-harmonic solution curve.

For u'' + 49 pi^2 u + sin u = mu_7 sin(7 pi x) + sin(3 pi x) - 2 sin(4 pi x)
the derivative of the nonlinearity stays within one unit of lambda_7, so all
solutions lie on a single continuous curve mu_7(xi_7).  The curve follows
2 sqrt(2/(pi xi)) sin(xi - pi/4) so closely that solid and dashed lines are
hard to tell apart; mu_7 = 0 is crossed at every phase zero (infinitely many
solutions at resonance), while no solutions exist for large |mu_7|.

Run:  python demos/curve_resonance_k7.py  (writes out/resonance-k7/)
"""

from pathlib import Path

import numpy as np

from harmcont import (catalog, count_solutions, envelope, follow_curve,
                      for_catalog, mu_asymptotic)
from harmcont.cli import write_asymptote_csv, write_curve_csv, write_svg

out = Path("out/resonance-k7")
out.mkdir(parents=True, exist_ok=True)

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

write_curve_csv(out / "curve.csv", curve)
asym_xy = [(float(x), float(mu_asymptotic(asym, float(x)))) for x in xi]
write_asymptote_csv(out / "asymptote.csv", asym_xy)
write_svg(out / "curve.svg", curve, asym_xy,
          title="resonance-k7: computed (solid) vs asymptotic (dashed)")
print(f"artifacts in {out}/")
