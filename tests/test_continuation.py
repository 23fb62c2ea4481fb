import dataclasses

import numpy as np
import pytest

from harmcont import continuation, solver
from harmcont.continuation import Curve, analyze, count_solutions, follow_curve, xi_nodes
from harmcont.problems import Nonlinearity, ProblemSpec, catalog
from harmcont.solver import SolutionPoint, SolverSettings
from harmcont.spectral import SineSeries

from conftest import linear_spec

PI2 = np.pi ** 2


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

    @pytest.mark.parametrize("xi_min, xi_max, step", [
        (0.0, 1.0, np.inf), (0.0, 1.0, np.nan), (0.0, np.inf, 0.1),
        (-np.inf, 0.0, 0.1), (np.nan, 1.0, 0.1),
    ])
    def test_non_finite_inputs(self, xi_min, xi_max, step):
        with pytest.raises(ValueError, match="finite"):
            xi_nodes(xi_min, xi_max, step)


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


class TestGaps:
    def test_unsolvable_range_returns_empty_curve(self):
        lam2 = 4 * PI2
        nl = Nonlinearity(lambda u: lam2 * np.asarray(u), "lambda_2 * u")
        p = ProblemSpec(L=1.0, k=1, e=SineSeries.from_pairs(1.0, [(2, 1.0)]),
                        nonlinearity=nl)
        c = follow_curve(p, 0.0, 1.0, 0.5, n_modes=8)
        assert c.points == []
        assert len(c.gaps) == 3
        assert all(g.failure == "singular_jacobian" for g in c.gaps)

    def test_all_rows_ordered(self):
        c = follow_curve(linear_spec(), 0.0, 1.0, 0.5, n_modes=8)
        assert [pt.xi for pt in c.rows] == [0.0, 0.5, 1.0]
        assert c.points == c.rows and c.gaps == []


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


def synthetic_curve(mu, step=1.0):
    """A curve of converged points at xi = 0, step, 2 step, ... with the given mu."""
    U = SineSeries.zero(1.0, 2)
    return Curve(problem=linear_spec(), rows=[
        SolutionPoint(xi=step * x, mu=m, U=U, residual_norm=0.0, newton_iters=0)
        for x, m in enumerate(mu)])


class TestCrossings:
    @pytest.mark.parametrize("mu, crossings", [
        # each product mu_i mu_{i+1} underflows to -0.0; the signs still change
        ([1e-200, -1e-200, 1e-200], [0.5, 1.5]),
        # a run of exact zeros counts once, at its first node
        ([1.0, 0.0, 0.0, -1.0, 0.0, 1.0], [1.0, 4.0]),
    ], ids=["underflow", "zero-run"])
    def test_sign_changes_agree_with_count(self, mu, crossings):
        c = synthetic_curve(mu)
        assert analyze(c).sign_changes == crossings
        assert count_solutions(c, 0.0) == len(crossings)

    def test_extrema_survive_underflow(self):
        # each product of neighbouring slopes underflows to 0; the signs still change
        mu = np.array([0, 1, 3, 2.5, 0, -1, -3, -2.5, 0])

        def extrema(scale):
            an = analyze(synthetic_curve(scale * mu, step=0.1))
            return [(round(x, 2), kind) for x, _, kind in an.extrema]

        assert extrema(1.0) == [(0.23, "max"), (0.63, "min")]
        assert extrema(1e-170) == extrema(1.0)


class TestBridge:
    """Half-step bridge on g = 4 pi^2 u + A sin(u), where g' crosses lambda_2."""

    def test_converged_substeps_kept(self):
        nl = Nonlinearity.from_expression("4*pi^2*u + 2*sin(u)")
        p = ProblemSpec(L=1.0, k=1, e=SineSeries.from_pairs(1.0, [(2, 0.3), (3, 0.5)]),
                        nonlinearity=nl)
        c = follow_curve(p, -5.0, 0.0, 0.1, n_modes=32)
        assert len(c.gaps) == 4
        node_set = set(xi_nodes(-5.0, 0.0, 0.1).tolist())
        assert all(g.xi in node_set and g.failure for g in c.gaps)
        assert all(pt.residual_norm < 1e-10 for pt in c.points)

    def test_one_workspace_per_curve(self, monkeypatch):
        # the direct attempts and both bridge solves share the curve's
        # workspace; a solve given none would build its own
        nl = Nonlinearity.from_expression("4*pi^2*u + 2*sin(u)")
        p = ProblemSpec(L=1.0, k=1, e=SineSeries.from_pairs(1.0, [(2, 0.3), (3, 0.5)]),
                        nonlinearity=nl)
        built = []
        init = solver._Workspace.__init__

        def counting_init(ws, *args):
            built.append(args)
            init(ws, *args)

        monkeypatch.setattr(solver._Workspace, "__init__", counting_init)
        c = follow_curve(p, -5.0, 0.0, 0.1, n_modes=32)
        assert len(c.gaps) == 4
        assert built == [(p, 32)]

    def test_one_bridge_per_gap_band(self, monkeypatch):
        # A = 1.5 leaves 49 gaps in 4 bands on [-10, 10]; only the first gap
        # of a band follows a converged node, so only it is bridged
        nl = Nonlinearity.from_expression("4*pi^2*u + 1.5*sin(u)")
        p = ProblemSpec(L=1.0, k=1, e=SineSeries.from_pairs(1.0, [(2, 0.3), (3, 0.5)]),
                        nonlinearity=nl)
        calls = []  # (xi, returned point), in call order
        solve = continuation.solve_at_signature

        def recording_solve(p, xi, *args, **kwargs):
            pt = solve(p, xi, *args, **kwargs)
            calls.append((float(xi), pt))
            return pt

        monkeypatch.setattr(continuation, "solve_at_signature", recording_solve)
        c = follow_curve(p, -10.0, 10.0, 0.1, n_modes=64)
        nodes = xi_nodes(-10.0, 10.0, 0.1)

        # split the calls per node: each node starts with its direct attempt,
        # and a bridge's half step never reaches the next node
        per_node = []
        for xi, pt in calls:
            if len(per_node) < len(nodes) and xi == nodes[len(per_node)]:
                per_node.append([])
            per_node[-1].append(pt)
        assert len(per_node) == len(nodes)

        gap = [not pt.converged for pt in c.rows]
        assert sum(gap) == 49 and not gap[0]
        bands = 0
        for i, solves in enumerate(per_node):
            if not gap[i]:
                continue
            assert c.rows[i] is solves[0]  # the gap row is the direct attempt
            if gap[i - 1]:
                assert len(solves) == 1
            else:  # a failed bridge: the half step, then the landing if it converged
                bands += 1
                assert len(solves) == (2 if not solves[1].converged else 3)
                assert not solves[-1].converged
        assert bands == 4

    def test_half_step_rescues_a_failed_node(self, monkeypatch):
        # the predicted attempt at 6.8 fails; the half step to 6.75 and the
        # landing on 6.8 converge from plain warm starts and keep the march on
        # its branch: without the bridge 6.8 is a gap and 6.9 lands near 205.53
        nl = Nonlinearity.from_expression("4*pi^2*u + 2.7738*sin(u)")
        p = ProblemSpec(L=1.0, k=1, e=SineSeries.from_pairs(1.0, [(2, 0.3), (3, 0.5)]),
                        nonlinearity=nl)
        calls = []  # (xi, start coefficients, returned point), in call order
        solve = continuation.solve_at_signature

        def recording_solve(p, xi, U0, *args, **kwargs):
            pt = solve(p, xi, U0, *args, **kwargs)
            calls.append((float(xi), U0.coeffs.copy(), pt))
            return pt

        monkeypatch.setattr(continuation, "solve_at_signature", recording_solve)
        c = follow_curve(p, 6.5, 7.5, 0.1, n_modes=64)
        nodes = xi_nodes(6.5, 7.5, 0.1)
        before, target = c.rows[2], nodes[3]
        j = next(n for n, call in enumerate(calls) if call[0] == target)
        direct, half, landing = calls[j:j + 3]
        assert before.converged and not direct[2].converged
        assert half[0] == before.xi + (target - before.xi) / 2
        assert half[0] == pytest.approx(6.75)
        assert np.array_equal(half[1], before.U.coeffs) and half[2].converged
        assert landing[0] == target
        assert np.array_equal(landing[1], half[2].U.coeffs) and landing[2].converged
        assert c.rows[3] is landing[2]
        assert c.rows[3].mu == pytest.approx(201.7943, abs=1e-4)
        assert c.rows[4].converged and c.rows[4].mu == pytest.approx(204.5336, abs=1e-4)


# gap nodes of 4 pi^2 u + A sin u, e = 0.3 phi_2 + 0.5 phi_3, over [-10, 10] with
# step 0.1 and 64 modes, recorded with every gap node bridged: bridging only
# the first gap of a band must leave no other gap
RETRY_GAPS = {
    1.5: [-7.5, -7.4, -7.3, -7.2, -7.1, -7.0, -6.9, -6.8, -6.7, -6.6, -6.5, -6.4, -6.3,
          -6.2, -6.1, -6.0,
          -2.6, -2.5, -2.4, -2.3, -2.2, -2.1, -2.0, -1.9, -1.8,
          1.9, 2.0, 2.1, 2.2, 2.3, 2.4, 2.5, 2.6,
          6.0, 6.1, 6.2, 6.3, 6.4, 6.5, 6.6, 6.7, 6.8, 6.9, 7.0, 7.1, 7.2, 7.3, 7.4, 7.5],
    3.0: [-7.2, -7.1, -7.0, -6.9, -6.8, -6.7,
          -2.4, -2.3, -2.2,
          2.3, 2.4,
          9.2, 9.3, 9.4, 9.5, 9.6, 9.7, 9.8],
}


class TestKeptFactorization:
    @pytest.mark.parametrize("A", [1.5, 3.0])
    def test_same_branch_as_fresh_factorizations(self, monkeypatch, A):
        # g' = 4 pi^2 + A cos u crosses lambda_2, so one xi can have several
        # remainders; quasi-Newton steps on an LU kept from the last node must not
        # move the march to another one, nor change which nodes converge
        nl = Nonlinearity.from_expression(f"4*pi^2*u + {A}*sin(u)")
        p = ProblemSpec(L=1.0, k=1, e=SineSeries.from_pairs(1.0, [(2, 0.3), (3, 0.5)]),
                        nonlinearity=nl)
        kept = follow_curve(p, -10.0, 10.0, 0.1).rows
        solve = continuation.solve_at_signature

        def fresh_solve(*args, workspace, **kwargs):
            return solve(*args, **kwargs)  # without the curve's workspace: a cold solve

        monkeypatch.setattr(continuation, "solve_at_signature", fresh_solve)
        fresh = follow_curve(p, -10.0, 10.0, 0.1).rows
        assert [(pt.xi, pt.converged) for pt in kept] == [(pt.xi, pt.converged)
                                                         for pt in fresh]
        assert [round(pt.xi, 9) for pt in kept if not pt.converged] == RETRY_GAPS[A]
        assert max(abs(a.mu - b.mu) for a, b in zip(kept, fresh) if a.converged) <= 1e-10


class TestPredictor:
    def test_failed_prediction_goes_to_bridge_from_warm_start(self, monkeypatch):
        # every node of this smooth stretch from the third on is predicted; the
        # wrapper reports the predicted attempt at fail_once as failed, and
        # every attempt at fail_always, so that node becomes a gap
        p = catalog("oscillatory-p512")
        nodes = xi_nodes(5.0, 6.0, 0.1)
        fail_once, fail_always = nodes[3], nodes[7]
        calls = []  # (xi, start coefficients, returned point), in call order
        solve = continuation.solve_at_signature

        def failing_solve(p, xi, U0, settings, **kwargs):
            pt = solve(p, xi, U0, settings, **kwargs)
            if (xi == fail_once and not any(c[0] == xi for c in calls)) or xi == fail_always:
                pt = dataclasses.replace(pt, failure="max_iter")
            calls.append((float(xi), U0.coeffs.copy(), pt))
            return pt

        monkeypatch.setattr(continuation, "solve_at_signature", failing_solve)
        c = follow_curve(p, 5.0, 6.0, 0.1, n_modes=64)
        assert [pt.xi for pt in c.rows] == list(nodes)
        assert [pt.xi for pt in c.gaps] == [fail_always]
        # the direct attempt, then the landing after the converged half step
        assert [x for x, _, _ in calls].count(fail_once) == 2
        assert [x for x, _, _ in calls].count(fail_always) == 2
        # one converged point is no secant: the second node starts from the first
        assert [x for x, _, _ in calls[:3]] == list(nodes[:3])
        assert np.array_equal(calls[1][1], c.points[0].U.coeffs)

        def direct(i):  # the call of node i's direct attempt
            return next(n for n, call in enumerate(calls) if call[0] == nodes[i])

        def secant(a, b, xi):  # the line through rows a and b, at xi
            ra, rb = c.rows[a], c.rows[b]
            return rb.U.coeffs + (xi - rb.xi) / (rb.xi - ra.xi) * (rb.U.coeffs - ra.U.coeffs)

        # two rows before node 2, and node 8 follows the gap: each starts from
        # the secant through the last two converged points
        assert np.array_equal(calls[direct(2)][1], secant(0, 1, nodes[2]))
        assert np.array_equal(calls[direct(8)][1], secant(5, 6, nodes[8]))

        for i in (3, 7):
            xi = nodes[i]
            j = direct(i)
            # after three converged rows: the parabola through them, at xi
            (x0, U0), (x1, U1), (x2, U2) = [(r.xi, r.U.coeffs) for r in c.rows[i - 3:i]]
            quadratic = ((xi - x1) * (xi - x2) / ((x0 - x1) * (x0 - x2)) * U0
                         + (xi - x0) * (xi - x2) / ((x1 - x0) * (x1 - x2)) * U1
                         + (xi - x0) * (xi - x1) / ((x2 - x0) * (x2 - x1)) * U2)
            assert np.max(np.abs(calls[j][1] - quadratic)) <= 1e-14 * np.max(np.abs(U2))
            assert np.max(np.abs(calls[j][1] - secant(i - 2, i - 1, xi))) > 1e-6
            # no second direct attempt: the bridge's half step from the plain
            # warm start comes next
            prev = c.rows[i - 1]
            half = calls[j + 1]
            assert half[0] == prev.xi + (xi - prev.xi) / 2
            assert np.array_equal(half[1], prev.U.coeffs)
            assert half[2].converged
            assert calls[j + 2][0] == xi
            assert np.array_equal(calls[j + 2][1], half[2].U.coeffs)
            if i == 3:  # the bridge reached the node
                assert c.rows[3] is calls[j + 2][2]
            else:  # the gap row is the direct attempt
                assert c.rows[7] is calls[j][2]

    def test_fewer_newton_iterations_than_plain_warm_starts(self, monkeypatch):
        p = catalog("oscillatory-p512")
        predicted = follow_curve(p, 5.0, 15.0, 0.1, n_modes=64)
        # no secant step is short enough: every node starts from the last U
        monkeypatch.setattr(continuation, "MAX_PREDICTOR_STEP", 0.0)
        warm = follow_curve(p, 5.0, 15.0, 0.1, n_modes=64)
        assert np.array_equal(predicted.xi(), warm.xi())
        assert np.max(np.abs(predicted.mu() - warm.mu())) < 1e-10
        iters = lambda c: sum(pt.newton_iters for pt in c.points)
        assert iters(predicted) < 0.85 * iters(warm)

    def test_long_euler_step_not_taken(self, monkeypatch):
        # g' = 4 pi^2 + A cos u crosses lambda_2, so one xi can have several
        # remainders.  Near xi = 6.8 an unbounded secant step lands on another
        # one than plain warm-started marching follows; the step bound keeps
        # the march on the plain branch
        nl = Nonlinearity.from_expression("4*pi^2*u + 2.6836*sin(u)")
        p = ProblemSpec(L=1.0, k=1, e=SineSeries.from_pairs(1.0, [(2, 0.3), (3, 0.5)]),
                        nonlinearity=nl)

        def march():
            return {pt.xi: pt.mu for pt in follow_curve(p, 6.0, 7.5, 0.1, n_modes=64).points}

        bounded = march()
        monkeypatch.setattr(continuation, "MAX_PREDICTOR_STEP", np.inf)
        unbounded = march()
        monkeypatch.setattr(continuation, "MAX_PREDICTOR_STEP", 0.0)
        plain = march()

        def off_branch(curve):
            return sum(abs(mu - plain[xi]) > 1e-8 for xi, mu in curve.items() if xi in plain)

        assert set(bounded) == set(plain) and off_branch(bounded) == 0
        assert off_branch(unbounded) > 0


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
