from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg.lapack import dgetrs

from harmcont import expressions, problems, solver
from harmcont.continuation import follow_curve
from harmcont.problems import Nonlinearity, ProblemSpec, catalog
from harmcont.solver import (SolverSettings, _Workspace, solution_series,
                             solve_at_signature)
from harmcont.spectral import SineSeries, l2_norm

from conftest import linear_spec

PI2 = np.pi ** 2


def workspace_residual(p, xi, U):
    """Projected residual coefficients and mu at the remainder U."""
    R, mu, _ = _Workspace(p, U.n_modes).residual_mu(xi, U.coeffs)
    return R, mu


def singular_spec():
    # g'(u) == lambda_2 makes the projected linearization exactly singular
    lam2 = 4 * PI2
    nl = Nonlinearity(lambda u: lam2 * np.asarray(u), "lambda_2 * u")
    return ProblemSpec(L=1.0, k=1, e=SineSeries.from_pairs(1.0, [(2, 1.0)]),
                       nonlinearity=nl)


def stalling_spec():
    nl = Nonlinearity(lambda u: 4 * PI2 * np.asarray(u) + 2 * np.sin(u), "4 pi^2 u + 2 sin u")
    return ProblemSpec(L=1.0, k=1, e=SineSeries.from_pairs(1.0, [(2, 0.3), (3, 0.5)]),
                       nonlinearity=nl)


def counting_lu(monkeypatch):
    """Count solver.lu_factor calls from now on; returns the one-item counter."""
    calls = [0]
    lu_factor = solver.lu_factor

    def counting(J):
        calls[0] += 1
        return lu_factor(J)

    monkeypatch.setattr(solver, "lu_factor", counting)
    return calls


def counting_residuals(monkeypatch):
    """Count _Workspace.residual_mu calls from now on; returns the one-item counter."""
    calls = [0]
    residual_mu = _Workspace.residual_mu

    def counting(ws, xi, U):
        calls[0] += 1
        return residual_mu(ws, xi, U)

    monkeypatch.setattr(_Workspace, "residual_mu", counting)
    return calls


class TestResidual:
    def test_pure_harmonic_linear(self):
        p = linear_spec()
        R, mu = workspace_residual(p, 1.0, SineSeries.zero(1.0, 8))
        assert mu == pytest.approx(-PI2, rel=1e-14)
        assert np.all(R == 0.0)

    def test_exact_remainder_zeroes_residual(self):
        p = linear_spec(e_pairs=[(2, 1.0)])
        U = SineSeries.from_pairs(1.0, [(2, -1 / (4 * PI2))], n_modes=8)
        R, mu = workspace_residual(p, 0.0, U)
        assert mu == pytest.approx(0.0, abs=1e-14)
        assert np.max(np.abs(R)) < 1e-14

    def test_projection_integral_against_quadrature(self):
        # mu at U = 0 is -lambda_1 xi + 2 int_0^1 g(xi sin pi x) sin pi x dx
        p = catalog("oscillatory-p512")
        xi = 2.0
        R, mu = workspace_residual(p, xi, SineSeries.zero(1.0, 64))
        integrand = lambda x: p.nonlinearity.g(xi * np.sin(np.pi * x)) * np.sin(np.pi * x)
        expected = -PI2 * xi + 2 * quad(integrand, 0.0, 1.0, limit=200)[0]
        assert mu == pytest.approx(expected, abs=1e-9)
        assert np.max(np.abs(R)) > 1e-3  # genuinely nonlinear point

    def test_residual_has_zero_driven_coefficient(self):
        p = catalog("resonance-k7")
        R, _ = workspace_residual(p, 3.0, SineSeries.zero(1.0, 32))
        assert R[6] == 0.0


class TestSolveLinear:
    def test_converges_in_one_iteration_with_forcing(self):
        p = linear_spec(e_pairs=[(2, 1.0), (5, -2.0)])
        pt = solve_at_signature(p, 0.7, n_modes=16)
        assert pt.converged and pt.newton_iters == 1
        assert pt.mu == pytest.approx(-PI2 * 0.7, rel=1e-13)
        assert pt.U.coeffs[1] == pytest.approx(-1 / (4 * PI2), rel=1e-12)
        assert pt.U.coeffs[4] == pytest.approx(2 / (25 * PI2), rel=1e-12)

    def test_higher_harmonic_linear(self):
        p = linear_spec(k=3)
        pt = solve_at_signature(p, -2.0, n_modes=8)
        assert pt.mu == pytest.approx(9 * PI2 * 2.0, rel=1e-13)
        assert pt.U.l2_norm() == 0.0


class TestSolveNonlinear:
    def test_oscillatory_cold_start_at_large_xi(self):
        # cold Newton at xi = 40 lands on the curve; the leading-order
        # formula misses it by 12.6% there, near a crest: the swing's
        # amplitude agrees to 1.4%, but the computed crests and troughs both
        # sit about 10% of the amplitude below the formula's pure sine (10.1%
        # of the envelope near xi = 29, still 9.5% near xi = 192)
        from harmcont import for_catalog, mu_asymptotic
        p = catalog("oscillatory-p512")
        pt = solve_at_signature(p, 40.0, n_modes=64)
        assert pt.converged
        f = mu_asymptotic(for_catalog("oscillatory-p512"), 40.0)
        assert abs(pt.mu - f) / abs(f) < 0.15
        # resolution-doubling: the computed mu is discretization-converged
        pt2 = solve_at_signature(p, 40.0, n_modes=128)
        assert abs(pt.mu - pt2.mu) < 1e-8

    def test_driven_coefficient_exactly_zero(self):
        pt = solve_at_signature(catalog("resonance-k7"), 5.0, n_modes=64)
        assert pt.U.coeffs[6] == 0.0

    def test_residual_reevaluation_idempotent(self):
        p = catalog("amann-hess-type")
        settings = SolverSettings(newton_tol=1e-10)
        pt = solve_at_signature(p, 4.0, settings=settings, n_modes=64)
        assert pt.converged
        R, mu = workspace_residual(p, 4.0, pt.U)
        assert np.sqrt(0.5 * np.dot(R, R)) < settings.newton_tol
        assert mu == pytest.approx(pt.mu, abs=1e-14)

    def test_warm_start_with_driven_component_rejected(self):
        p = catalog("cubic(1)")
        U0 = SineSeries.from_pairs(1.0, [(1, 0.5)], n_modes=8)
        with pytest.raises(ValueError, match="warm start"):
            solve_at_signature(p, 1.0, U0)

    def test_singular_jacobian_reported(self):
        pt = solve_at_signature(singular_spec(), 0.0, n_modes=8)
        assert not pt.converged
        assert pt.failure == "singular_jacobian"

    def test_max_iter_reported(self):
        p = catalog("oscillatory-p512")
        pt = solve_at_signature(p, 25.0, settings=SolverSettings(max_iter=1),
                                n_modes=64)
        assert not pt.converged
        assert pt.failure == "max_iter"
        assert pt.newton_iters == 1

    def test_overflow_reported_not_raised(self, monkeypatch):
        # g = u^9 overflows at the start point xi = 1e40.  From xi = 1e34,
        # where g itself (1e306) still fits in a double, the first full
        # Newton step overflows; it is rejected and halved like any other.
        # The residual norms that follow (about 1e290) square past the
        # largest double, and must stay finite for Newton to go on
        p = ProblemSpec(L=1.0, k=1, e=SineSeries.from_pairs(1.0, [(2, 1.0)], n_modes=16),
                        nonlinearity=Nonlinearity.from_expression("u^9"))
        finite = []
        residual_mu = _Workspace.residual_mu

        def recording(ws, xi, U):
            R, mu, u_vals = residual_mu(ws, xi, U)
            finite.append(bool(np.isfinite(R).all() and np.isfinite(mu)))
            return R, mu, u_vals

        with np.errstate(over="ignore", invalid="ignore"):
            start = solve_at_signature(p, 1e40, n_modes=16)
            monkeypatch.setattr(_Workspace, "residual_mu", recording)
            trial = solve_at_signature(p, 1e34, n_modes=16)
        assert not start.converged
        assert start.failure == "non_finite" and start.newton_iters == 0
        assert finite[:3] == [True, False, True]  # start, full step, half step
        assert trial.newton_iters > 1 and np.isfinite(trial.residual_norm)

    def test_g_infinite_at_zero_reported(self):
        # g(0) enters the residual through the Dirichlet ends
        p = ProblemSpec(L=1.0, k=1, e=SineSeries.from_pairs(1.0, [(2, 1.0)], n_modes=16),
                        nonlinearity=Nonlinearity.from_expression("1/u"))
        with np.errstate(divide="ignore", invalid="ignore"):
            pt = solve_at_signature(p, 1.0, n_modes=16)
        assert pt.failure == "non_finite" and pt.newton_iters == 0

    def test_solution_series_combines_harmonic(self):
        pt = solve_at_signature(catalog("cubic(1)"), 0.8, n_modes=16)
        u = solution_series(pt, 1)
        assert u.coeffs[0] == 0.8
        assert np.array_equal(u.coeffs[1:], pt.U.coeffs[1:])


class TestTracerSeam:
    def test_solve_calls_through_module_globals(self, monkeypatch):
        # bench/tracing.py times the layers by replacing these attributes of
        # the solver module, so the solver must look them up at call time
        calls = dict.fromkeys(["to_grid", "from_grid", "multiplication_matrix",
                               "lu_factor", "dgecon"], 0)

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("to_grid", "from_grid", "multiplication_matrix", "lu_factor"):
            monkeypatch.setattr(solver, name, counting(name, getattr(solver, name)))
        monkeypatch.setattr(solver, "lapack",
                            SimpleNamespace(dgecon=counting("dgecon", solver.lapack.dgecon)))
        pt = solve_at_signature(catalog("oscillatory-p512"), 10.0, n_modes=16)
        assert pt.converged and pt.newton_iters >= 1
        assert all(calls.values()), calls


    def test_catalog_g_called_through_module_global(self, monkeypatch):
        # bench/tracing.py wraps every problems._g_* in a plain function and
        # compile_expression's two callables; the wrapper is what a catalog
        # problem calls, and the descriptor is not read off g
        calls = [0]
        original = problems._g_oscillatory_p512
        descriptor = catalog("oscillatory-p512").nonlinearity.descriptor

        def counting(u):
            calls[0] += 1
            return original(u)

        monkeypatch.setattr(problems, "_g_oscillatory_p512", counting)
        p = catalog("oscillatory-p512")
        assert p.nonlinearity.descriptor == descriptor
        pt = solve_at_signature(p, 10.0, n_modes=16)
        assert pt.converged and calls[0] > 0
        g, gp = expressions.compile_expression("pi^2*u + sin(u)")
        assert callable(g) and callable(gp)

    def test_config_g_called_through_compile_expression(self, monkeypatch, tmp_path):
        # bench/tracing.py counts a config's g by wrapping what
        # expressions.compile_expression returns; that wrapper is what a
        # load_config problem calls, for g and for its complex-step g'
        calls = [0]
        compile_expression = expressions.compile_expression

        def traced_compile(text):
            g, gp = compile_expression(text)

            def counting(u):
                calls[0] += 1
                return g(u)

            return counting, gp

        monkeypatch.setattr(expressions, "compile_expression", traced_compile)
        cfg = tmp_path / "p.cfg"
        cfg.write_text("[problem]\ng = pi^2*u + sin(u)\ne = 2:0.3\n")
        spec, _ = problems.load_config(cfg)
        before = calls[0]
        spec.nonlinearity.g_prime(0.3)
        assert calls[0] == before + 1
        pt = solve_at_signature(spec, 1.0, n_modes=16)
        assert pt.converged and calls[0] > before + 1


class TestTangent:
    @pytest.mark.parametrize("name,xi,n_modes", [
        ("oscillatory-p512", 7.0, 64),
        ("amann-hess-type", -3.0, 64),
        ("resonance-k7", 30.0, 128),
    ])
    def test_converged_on_kept_factorization(self, monkeypatch, name, xi, n_modes):
        # the next node of a curve, started from the secant through the two
        # previous nodes (a difference approximation of the curve tangent),
        # converges on quasi-Newton steps alone, on the LU factored for those nodes
        p = catalog(name)
        ws = _Workspace(p, n_modes)
        prev = solve_at_signature(p, xi - 0.2, n_modes=n_modes, workspace=ws)
        last = solve_at_signature(p, xi - 0.1, prev.U, n_modes=n_modes, workspace=ws)
        secant = last.U.coeffs + (xi - last.xi) / (last.xi - prev.xi) * (
            last.U.coeffs - prev.U.coeffs)
        lu_calls = counting_lu(monkeypatch)
        pt = solve_at_signature(p, xi, SineSeries(p.L, secant), n_modes=n_modes,
                                workspace=ws)
        assert lu_calls[0] == 0 and pt.newton_iters >= 1
        # control: from the plain warm start, the last node's remainder, the
        # same kept LU does not contract.  On the amann-hess-type and
        # resonance-k7 figure ranges (step 0.1) no node was found where the
        # plain start needs a fresh LU, so those cases show only the secant
        if name == "oscillatory-p512":
            plain = solve_at_signature(p, xi, last.U, n_modes=n_modes, workspace=ws)
            assert plain.converged and lu_calls[0] >= 1
        cold = solve_at_signature(p, xi, n_modes=n_modes)
        assert pt.converged and abs(pt.mu - cold.mu) <= 1e-10


class TestHistoryIndependence:
    def test_equal_arguments_give_bitwise_equal_points(self):
        # a solve given no workspace starts cold, whatever was solved before
        p = catalog("oscillatory-p512")
        assert solve_at_signature(p, 40.0, n_modes=64).converged
        a, b = (solve_at_signature(p, 10.0, n_modes=64) for _ in range(2))
        assert a.converged and b.converged
        assert (a.mu, a.residual_norm, a.newton_iters) == (b.mu, b.residual_norm,
                                                            b.newton_iters)
        assert np.array_equal(a.U.coeffs, b.U.coeffs)


class TestFactorizationReuse:
    def test_rejected_chord_step_leaves_the_iteration_unchanged(self, monkeypatch):
        # an LU kept from xi = 40 does not contract at xi = 10: the first
        # quasi-Newton step is discarded, and the solve is the cold solve bit for bit
        p = catalog("oscillatory-p512")
        ws = _Workspace(p, 64)
        assert solve_at_signature(p, 40.0, workspace=ws).converged
        assert ws.factor is not None
        residuals = counting_residuals(monkeypatch)
        kept = solve_at_signature(p, 10.0, workspace=ws)
        kept_residuals, residuals[0] = residuals[0], 0
        cold = solve_at_signature(p, 10.0, n_modes=64)
        assert kept_residuals == residuals[0] + 1  # the discarded step
        assert kept.converged and cold.converged
        assert (kept.mu, kept.residual_norm, kept.newton_iters) == (
            cold.mu, cold.residual_norm, cold.newton_iters)
        assert np.array_equal(kept.U.coeffs, cold.U.coeffs)

    def test_singular_jacobian_reported_with_kept_factorization(self):
        p = singular_spec()
        ws = _Workspace(p, 8)
        n = ws.reduced.size
        ws.factor = solver.lu_factor(np.eye(n))
        pt = solve_at_signature(p, 0.0, n_modes=8, workspace=ws)
        assert not pt.converged and pt.failure == "singular_jacobian"
        assert ws.factor is None

    @pytest.mark.parametrize("xi,settings,failure", [
        (25.0, SolverSettings(max_iter=1), "max_iter"),
        (-9.8, SolverSettings(), "line_search_stalled"),
    ])
    def test_failed_solve_drops_factorization(self, xi, settings, failure):
        # the problem of test_stalled_line_search_terminates for the stall
        p = catalog("oscillatory-p512") if failure == "max_iter" else stalling_spec()
        ws = _Workspace(p, 64)
        assert solve_at_signature(p, xi - 0.1, workspace=ws).converged
        assert ws.factor is not None
        pt = solve_at_signature(p, xi, settings=settings, workspace=ws)
        assert pt.failure == failure and ws.factor is None

    @pytest.mark.parametrize("other", ["problem", "modes"])
    def test_workspace_of_another_solve_rejected(self, other):
        p = catalog("oscillatory-p512")
        ws = _Workspace(catalog("oscillatory-p512") if other == "problem" else p, 32)
        U0 = SineSeries.zero(p.L, 32 if other == "problem" else 64)
        with pytest.raises(ValueError, match="another problem or mode count"):
            solve_at_signature(p, 10.0, U0, workspace=ws)


class TestQuasiNewtonStep:
    def test_broyden_updates_of_the_kept_jacobian(self):
        # the k-th step solves with J_k = J_(k-1) + R_k s_(k-1)^T / |s_(k-1)|^2,
        # Broyden's "good" update of the kept J_0 by the last step taken; with
        # no step taken it is the chord step on the kept LU, bit for bit
        p = catalog("resonance-k7")
        ws = _Workspace(p, 16)
        _, _, u_vals = ws.residual_mu(3.0, np.zeros(16))
        J = ws.jacobian(u_vals)
        ws.factor = solver.lu_factor(J)
        red = ws.reduced
        rng = np.random.default_rng(5)
        steps = []
        for _ in range(4):
            R = rng.standard_normal(16)
            R[p.k - 1] = 0.0
            v = ws.step(R, steps)
            assert v[p.k - 1] == 0.0
            if steps:
                s = steps[-1][0][red]
                J = J + np.outer(R[red], s) / (s @ s)
            else:
                assert np.array_equal(v[red], dgetrs(*ws.factor, -R[red])[0])
            expected = np.linalg.solve(J, -R[red])
            assert np.max(np.abs(v[red] - expected)) <= 1e-12 * np.max(np.abs(expected))
            steps.append((v, v @ v))


class TestWorkPerCurve:
    """Work counts of the figure curves, which timing noise would hide."""

    def test_lu_calls_oscillatory_p512(self, monkeypatch):
        # 1163 with chord steps at THETA = 0.01 and the secant predictor alone
        lu_calls = counting_lu(monkeypatch)
        c = follow_curve(catalog("oscillatory-p512"), 5.0, 60.0, 0.1, n_modes=64)
        assert not c.gaps and lu_calls[0] <= 600

    def test_residuals_amann_hess_type(self, monkeypatch):
        # 3691 with chord steps at THETA = 0.01 and the secant predictor alone
        residuals = counting_residuals(monkeypatch)
        c = follow_curve(catalog("amann-hess-type"), -40.0, 40.0, 0.1, n_modes=64)
        assert not c.gaps and residuals[0] <= 3450


class TestResolution:
    """n_modes alone sets a solve's resolution; the workspace checks it."""

    @pytest.mark.parametrize("run", [
        lambda p: follow_curve(p, 10.0, 10.3, 0.1, n_modes=10),
        lambda p: solve_at_signature(p, 10.0, n_modes=10),
    ], ids=["follow_curve", "solve_at_signature"])
    def test_fewer_than_2k_modes_rejected(self, run):
        # resonance-k7 has k = 7: 10 modes hold the harmonic but not 2k
        with pytest.raises(ValueError, match=r"modes must be at least .* = 14, got 10"):
            run(catalog("resonance-k7"))

    def test_coarse_warm_start_padded(self):
        p = catalog("oscillatory-p512")
        pt = solve_at_signature(p, 3.0, SineSeries.zero(1.0, 16), n_modes=64)
        assert pt.U.n_modes == 64
        cold = solve_at_signature(p, 3.0, n_modes=64)
        assert pt.mu == cold.mu and np.array_equal(pt.U.coeffs, cold.U.coeffs)

    def test_fine_warm_start_rejected(self):
        p = catalog("oscillatory-p512")
        with pytest.raises(ValueError, match="cannot shrink a 96-mode series to 64"):
            solve_at_signature(p, 3.0, SineSeries.zero(1.0, 96), n_modes=64)


JACOBIAN_CHECK_DIRECTIONS = 5  # random directions jacobian_check probes
JACOBIAN_CHECK_SEED = 0


def jacobian_check(p, xi, U):
    """Finite-difference validation of the assembled Jacobian.

    Compares J v against (R(U+hv) - R(U-hv)) / 2h for random directions v
    orthogonal to the driven harmonic; returns the worst relative error.
    """
    ws = _Workspace(p, U.n_modes)
    red = ws.reduced
    Uc = U.padded(ws.N)
    Uc[p.k - 1] = 0.0
    _, _, u_vals = ws.residual_mu(xi, Uc)
    J = ws.jacobian(u_vals)
    h = 1e-6 * (1.0 + l2_norm(Uc, p.L))
    rng = np.random.default_rng(JACOBIAN_CHECK_SEED)
    worst = 0.0
    for _ in range(JACOBIAN_CHECK_DIRECTIONS):
        v = rng.standard_normal(red.size)
        v /= np.linalg.norm(v)
        Up, Um = Uc.copy(), Uc.copy()
        Up[red] += h * v
        Um[red] -= h * v
        Rp, _, _ = ws.residual_mu(xi, Up)
        Rm, _, _ = ws.residual_mu(xi, Um)
        fd = (Rp[red] - Rm[red]) / (2 * h)
        Jv = J @ v
        denom = max(np.linalg.norm(Jv), 1e-30)
        worst = max(worst, float(np.linalg.norm(Jv - fd) / denom))
    return worst


class TestJacobianCheck:
    def test_linear_exact(self):
        assert jacobian_check(linear_spec(), 1.0, SineSeries.zero(1.0, 8)) < 1e-9

    def test_cubic_random_remainder(self):
        rng = np.random.default_rng(2)
        c = 0.1 * rng.standard_normal(32)
        c[0] = 0.0
        err = jacobian_check(catalog("cubic(1)"), 1.0, SineSeries(1.0, c))
        assert err < 1e-5

    def test_resonance_k7(self):
        err = jacobian_check(catalog("resonance-k7"), 10.0,
                             SineSeries.zero(1.0, 64))
        assert err < 1e-5


class TestSettingsValidation:
    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            SolverSettings(newton_tol=0.0)

    def test_bad_max_iter(self):
        with pytest.raises(ValueError):
            SolverSettings(max_iter=0)

    def test_stalled_line_search_terminates(self):
        pt = solve_at_signature(stalling_spec(), -9.8)
        assert pt.failure == "line_search_stalled"


class TestResolutionRobustness:
    # the driven harmonic's nonlinear sideband spectrum reaches roughly
    # k (|xi| + 15) modes, hence the per-problem resolutions
    @pytest.mark.parametrize("name,n_modes", [
        ("amann-hess-type", 256),
        ("oscillatory-p512", 64),
        ("resonance-k7", 384),
        ("cubic(pi^2/2)", 64),
        ("resonant-bounded", 64),
    ])
    def test_doubling_modes_leaves_mu_unchanged(self, name, n_modes):
        p = catalog(name)
        for xi in (-40.0, 40.0):
            a = solve_at_signature(p, xi, n_modes=n_modes)
            b = solve_at_signature(p, xi, n_modes=2 * n_modes)
            assert a.converged and b.converged
            assert abs(a.mu - b.mu) < 1e-8
