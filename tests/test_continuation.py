import numpy as np
import pytest

from harmcont import continuation
from harmcont.continuation import (analyze, count_solutions, follow_curve,
                                   shape_check, xi_nodes)
from harmcont.problems import Nonlinearity, ProblemSpec, catalog
from harmcont.solver import SolverSettings
from harmcont.spectral import SineSeries

PI2 = np.pi ** 2


def zero_fn(u):
    return np.zeros_like(np.asarray(u, dtype=float))


def linear_spec(n=8):
    nl = Nonlinearity(g=zero_fn, g_prime=zero_fn, descriptor="0")
    return ProblemSpec(L=1.0, k=1, e=SineSeries.zero(1.0, n), nonlinearity=nl)


class TestXiNodes:
    def test_simple_range(self):
        nodes = xi_nodes(-2.0, 2.0, 0.5)
        assert np.allclose(nodes, np.arange(-2.0, 2.01, 0.5))

    def test_non_divisible_step_stops_inside(self):
        nodes = xi_nodes(0.0, 1.0, 0.3)
        assert nodes[-1] == pytest.approx(0.9)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            xi_nodes(1.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            xi_nodes(0.0, 1.0, -0.1)


class TestLinearCurve:
    def test_exact_line(self):
        c = follow_curve(linear_spec(), -2.0, 2.0, 0.5, n_modes=8)
        assert len(c.points) == 9 and not c.gaps
        assert np.allclose(c.mu(), -PI2 * c.xi(), atol=1e-12)

    def test_analysis_of_line(self):
        c = follow_curve(linear_spec(), -2.0, 2.0, 0.5, n_modes=8)
        an = analyze(c)
        assert an.extrema == []
        assert len(an.sign_changes) == 1
        assert an.sign_changes[0] == pytest.approx(0.0, abs=1e-12)
        assert count_solutions(c, 0.0) == 1
        assert count_solutions(c, 5.0) == 1
        assert count_solutions(c, 1e6) == 0


class TestWarmStartConsistency:
    def test_half_step_reproduces_mu(self):
        p = catalog("oscillatory-p512")
        coarse = follow_curve(p, 5.0, 9.0, 0.2, n_modes=64)
        fine = follow_curve(p, 5.0, 9.0, 0.1, n_modes=64)
        fine_mu = {round(pt.xi, 9): pt.mu for pt in fine.points}
        worst = max(abs(pt.mu - fine_mu[round(pt.xi, 9)]) for pt in coarse.points)
        assert worst < 1e-8


class TestGaps:
    def test_unsolvable_range_returns_empty_curve(self):
        lam2 = 4 * PI2
        nl = Nonlinearity(g=lambda u: lam2 * np.asarray(u, dtype=float),
                          g_prime=lambda u: np.full(np.shape(u), lam2),
                          descriptor="lambda_2 * u")
        p = ProblemSpec(L=1.0, k=1, e=SineSeries.from_pairs(1.0, [(2, 1.0)]),
                        nonlinearity=nl)
        c = follow_curve(p, 0.0, 1.0, 0.5, n_modes=8)
        assert c.points == []
        assert len(c.gaps) == 3
        assert all(g.failure == "singular_jacobian" for g in c.gaps)

    def test_all_rows_ordered(self):
        c = follow_curve(linear_spec(), 0.0, 1.0, 0.5, n_modes=8)
        assert [pt.xi for pt in c.all_rows()] == [0.0, 0.5, 1.0]


class TestCounting:
    def test_k7_zero_count_matches_phase_zeros(self):
        # zeros of sin(xi - pi/4) in [10, 20]: xi = pi/4 + n pi for n = 3..6
        p = catalog("resonance-k7")
        c = follow_curve(p, 10.0, 20.0, 0.1, n_modes=96)
        assert not c.gaps
        phase_zeros = [np.pi / 4 + n * np.pi for n in range(3, 7)]
        count = count_solutions(c, 0.0)
        assert abs(count - len(phase_zeros)) <= 1

    def test_tangency_counted_once(self):
        c = follow_curve(linear_spec(), -1.0, 1.0, 0.5, n_modes=8)
        # mu = 0 exactly at the xi = 0 node; counted once, not twice
        assert count_solutions(c, 0.0) == 1

    def test_needs_three_points(self):
        c = follow_curve(linear_spec(), 0.0, 0.5, 0.5, n_modes=8)
        with pytest.raises(ValueError):
            count_solutions(c, 0.0)
        with pytest.raises(ValueError):
            analyze(c)


class TestCubicShapes:
    def test_low_lambda_monotone(self):
        p = catalog("cubic(pi^2/2)")
        c = follow_curve(p, -3.0, 3.0, 0.25, n_modes=32)
        assert not c.gaps
        assert np.all(np.diff(c.mu()) < 0)

    def test_high_lambda_two_turns(self):
        p = catalog("cubic(2.5*pi^2)",
                    e=SineSeries.from_pairs(1.0, [(2, 0.05)]))
        c = follow_curve(p, -3.0, 3.0, 0.1, n_modes=32)
        an = analyze(c)
        kinds = [kind for _, _, kind in an.extrema]
        assert len(an.extrema) >= 2
        assert "min" in kinds and "max" in kinds


class TestResonantBounded:
    def test_sign_change(self):
        p = catalog("resonant-bounded")
        c = follow_curve(p, -30.0, 30.0, 0.5, n_modes=32)
        mu = c.mu()
        assert mu[-1] > 0 and mu[0] < 0
        assert len(analyze(c).sign_changes) >= 1


class TestShapeCheck:
    def test_linear_remainder_identically_zero(self):
        c = follow_curve(linear_spec(), -25.0, 25.0, 5.0, n_modes=8)
        rep = shape_check(c)
        assert rep.positive is not None and rep.negative is not None
        assert rep.positive.r_far == 0.0 and rep.negative.r_far == 0.0

    def test_oscillatory_ratio_decays(self):
        c = follow_curve(catalog("oscillatory-p512"), 5.0, 60.0, 0.5, n_modes=64)
        rep = shape_check(c)
        assert rep.positive.decayed and rep.positive.weighted_decayed
        assert rep.negative is None

    def test_resonance_k7_ratio_decays_in_both_norms(self):
        c = follow_curve(catalog("resonance-k7"), 10.0, 60.0, 0.5, n_modes=128)
        rep = shape_check(c)
        assert rep.positive.decayed
        assert rep.positive.weighted_decayed
        assert "decays" in rep.summary()


class TestBridge:
    """Step-halving bridge on g = 4 pi^2 u + 2 sin(u), where g' crosses lambda_2."""

    def test_converged_substeps_kept(self, monkeypatch):
        nl = Nonlinearity.from_expression("4*pi^2*u + 2*sin(u)")
        p = ProblemSpec(L=1.0, k=1, e=SineSeries.from_pairs(1.0, [(2, 0.3), (3, 0.5)]),
                        nonlinearity=nl)
        calls = []
        solve = continuation.solve_at_signature

        def recording_solve(p, xi, *args, **kwargs):
            pt = solve(p, xi, *args, **kwargs)
            calls.append((float(xi), pt.converged))
            return pt

        monkeypatch.setattr(continuation, "solve_at_signature", recording_solve)
        c = follow_curve(p, -5.0, 0.0, 0.1, n_modes=32)
        nodes = xi_nodes(-5.0, 0.0, 0.1)

        # split the calls per node: each node starts with its direct attempt
        resolved = 0
        i = -1
        for xi, converged in calls:
            if i + 1 < len(nodes) and xi == nodes[i + 1]:
                i += 1
                kept = set()
                continue
            resolved += xi in kept
            if converged:
                kept.add(xi)
        assert i == len(nodes) - 1
        assert resolved == 0

        assert len(c.gaps) == 4
        node_set = set(nodes.tolist())
        assert all(g.xi in node_set and g.failure for g in c.gaps)
        assert all(pt.residual_norm < 1e-10 for pt in c.points)


class TestCurveSettingsPropagation:
    def test_custom_tolerance_respected(self):
        p = catalog("cubic(1)")
        c = follow_curve(p, 0.0, 0.5, 0.25, SolverSettings(newton_tol=1e-6),
                         n_modes=16)
        assert all(pt.residual_norm < 1e-6 for pt in c.points)


class TestFigureCurveInvariants:
    def test_amann_hess_bounded_below(self, fig3_curve):
        # the crossing structure keeps the curve above a fixed floor
        assert float(np.min(fig3_curve.mu())) > -50.0

    def test_fig2_shape_ratio_decays(self, fig2_curve):
        rep = shape_check(fig2_curve)
        assert rep.positive.decayed and rep.positive.weighted_decayed
