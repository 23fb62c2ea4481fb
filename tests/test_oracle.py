import numpy as np
import pytest

from harmcont import checks, oracle
from harmcont.oracle import oscillatory_quadrature, shoot
from harmcont.problems import Nonlinearity, ProblemSpec, catalog
from harmcont.solver import solution_series, solve_at_signature
from harmcont.spectral import SineSeries, eigenvalue

PI2 = np.pi ** 2


def linear_spec(e_pairs=(), k=1, n=8):
    nl = Nonlinearity.from_expression("0")
    e = SineSeries.from_pairs(1.0, e_pairs, n_modes=n) if e_pairs else SineSeries.zero(1.0, n)
    return ProblemSpec(L=1.0, k=k, e=e, nonlinearity=nl)


class TestShootingLinear:
    def test_pure_harmonic_closed_form(self):
        res = shoot(linear_spec(), 1.0)
        assert res.converged and res.status == 0
        assert res.mu == pytest.approx(-PI2, abs=1e-8)
        x = np.linspace(0.0, 1.0, 2001)
        assert np.max(np.abs(res.u(x) - np.sin(np.pi * x))) < 1e-9

    def test_k9_closed_form(self):
        # u = xi sin(9 pi x) - sin(2 pi x) / (4 pi^2), mu = -lambda_9 xi; the
        # forcing keeps the pure-harmonic start off the solution
        xi = 1.5
        res = shoot(linear_spec(e_pairs=[(2, 1.0)], k=9, n=9), xi)
        assert res.converged
        assert res.mu == pytest.approx(-eigenvalue(9, 1.0) * xi, abs=1e-8)
        x = np.linspace(0.0, 1.0, 2001)
        exact = xi * np.sin(9 * np.pi * x) - np.sin(2 * np.pi * x) / (4 * PI2)
        assert np.max(np.abs(res.u(x) - exact)) < 1e-9

    def test_reads_no_derivative(self):
        # g' is g at complex u, so an oracle that reads no g' calls g at real u only
        p = catalog("cubic(pi^2/2)")
        complex_u = []

        def g(u):
            complex_u.append(np.iscomplexobj(u))
            return p.nonlinearity.g(u)

        nl = Nonlinearity(g, "cubic")
        complex_u.clear()  # the derivative check made on construction
        res = shoot(ProblemSpec(L=p.L, k=p.k, e=p.e, nonlinearity=nl), 3.0)
        assert res.converged
        assert complex_u and not any(complex_u)


class TestShootingCrossValidation:
    def test_cubic_matches_spectral(self):
        p = catalog("cubic(pi^2/2)")
        pt = solve_at_signature(p, 0.0, n_modes=64)
        res = shoot(p, 0.0)
        assert res.converged and pt.converged
        x = np.linspace(0.0, 1.0, 4001)
        u_spec = solution_series(pt, 1).eval(x)
        assert np.max(np.abs(u_spec - res.u(x))) < checks.ORACLE_SUP_TOL
        assert abs(pt.mu - res.mu) < checks.ORACLE_DMU_TOL

    @pytest.mark.parametrize("xi", [-10.0, 10.0])
    def test_cubic_at_edge_from_its_own_start(self, monkeypatch, xi):
        # one oracle call, started from the pure harmonic and not from the
        # spectral answer, checks the superlinear cubic at |xi| = 10
        calls = []
        shoot_fn = oracle.shoot

        def counting_shoot(*args, **kwargs):
            calls.append(kwargs)
            return shoot_fn(*args, **kwargs)

        monkeypatch.setattr(oracle, "shoot", counting_shoot)
        name = "cubic(pi^2/2)"
        pt, res, dmu, sup = checks.oracle_pair(catalog(name), xi,
                                               checks.ORACLE_MODES[name])
        assert len(calls) == 1
        assert pt.converged and res.converged
        assert dmu < checks.ORACLE_DMU_TOL and sup < checks.ORACLE_SUP_TOL


class TestOscillatoryQuadrature:
    def test_lambda_zero_unit_integrand(self):
        one = lambda x: np.ones_like(np.asarray(x, dtype=float)) if np.ndim(x) else 1.0
        sq = lambda x: np.asarray(x, dtype=float) ** 2
        assert oscillatory_quadrature(one, sq, 0.0, 0.0, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_fresnel_self_consistency(self):
        one = lambda x: 1.0
        sq = lambda x: x * x
        loose = oscillatory_quadrature(one, sq, 400.0, -1.0, 1.0, abs_tol=1e-8)
        tight = oscillatory_quadrature(one, sq, 400.0, -1.0, 1.0, abs_tol=1e-11)
        assert abs(loose - tight) < 1e-8

    def test_sine_phase_self_consistency(self):
        f = lambda x: np.sin(np.pi * x)
        loose = oscillatory_quadrature(f, f, 40.0, 0.0, 1.0, abs_tol=1e-8)
        tight = oscillatory_quadrature(f, f, 40.0, 0.0, 1.0, abs_tol=1e-11)
        assert abs(loose - tight) < 1e-8

    def test_linear_phase_closed_form(self):
        # int_0^1 e^{i lam x} dx = (e^{i lam} - 1) / (i lam)
        one = lambda x: 1.0
        ident = lambda x: x
        lam = 37.0
        got = oscillatory_quadrature(one, ident, lam, 0.0, 1.0)
        expected = (np.exp(1j * lam) - 1.0) / (1j * lam)
        assert got == pytest.approx(expected, abs=1e-10)

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            oscillatory_quadrature(lambda x: 1.0, lambda x: x, 1.0, 1.0, 1.0)
