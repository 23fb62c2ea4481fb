import inspect
import pickle

import numpy as np
import pytest

from harmcont.continuation import follow_curve
from harmcont.problems import (CATALOG_NAMES, DERIVATIVE_RTOL, ConfigError, Nonlinearity,
                               ProblemSpec, RunSettings, catalog, check_derivative,
                               load_config, validate_conditions)
from harmcont.solver import SolverSettings, solve_at_signature
from harmcont.spectral import SineSeries

PI2 = np.pi ** 2

ALL_ENTRIES = ["amann-hess-type", "oscillatory-p512", "resonance-k7",
               "cubic(pi^2/2)", "resonant-bounded"]


class TestCatalog:
    def test_resonance_k7_drives_seventh_harmonic(self):
        assert catalog("resonance-k7").k == 7

    def test_oscillatory_forcing_coefficients(self):
        e = catalog("oscillatory-p512").e
        assert e.coeffs[1] == 0.2
        assert np.all(np.delete(e.coeffs, 1) == 0.0)

    def test_cubic_at_zero_lambda(self):
        p = catalog("cubic(0)")
        assert p.nonlinearity.g(2.0) == pytest.approx(-8.0)

    def test_cubic_lambda_expression(self):
        p = catalog("cubic(pi^2/2)")
        assert p.nonlinearity.g_prime(0.0) == pytest.approx(PI2 / 2)

    def test_cubic_default_lambda(self):
        assert catalog("cubic").nonlinearity.g_prime(0.0) == pytest.approx(PI2 / 2)

    def test_amann_hess_forcing(self):
        e = catalog("amann-hess-type").e
        assert e.coeffs[1] == 1.0 and e.coeffs[4] == -2.0

    def test_resonance_k7_values(self):
        p = catalog("resonance-k7")
        assert p.nonlinearity.g(0.5) == pytest.approx(49 * PI2 * 0.5 + np.sin(0.5))

    @pytest.mark.parametrize("name", ALL_ENTRIES)
    def test_forcing_orthogonal_to_driven_harmonic(self, name):
        p = catalog(name)
        assert p.e.coeffs[p.k - 1] == 0.0

    @pytest.mark.parametrize("name", ALL_ENTRIES)
    def test_pickle_round_trip(self, name):
        p = catalog(name)
        q = pickle.loads(pickle.dumps(p))
        assert (q.L, q.k, q.nonlinearity.descriptor) == (p.L, p.k, p.nonlinearity.descriptor)
        assert np.array_equal(q.e.coeffs, p.e.coeffs)
        u = np.linspace(-5, 5, 11)
        assert np.array_equal(q.nonlinearity.g(u), p.nonlinearity.g(u))
        assert np.array_equal(q.nonlinearity.g_prime(u), p.nonlinearity.g_prime(u))

    @pytest.mark.parametrize("name", ALL_ENTRIES)
    def test_forcing_override_every_entry(self, name):
        e = SineSeries.from_pairs(1.0, [(3, 0.7)], n_modes=8)
        p = catalog(name, e=e)
        assert p.e is e
        with pytest.raises(ValueError, match="orthogonal"):
            catalog(name, e=SineSeries.from_pairs(1.0, [(p.k, 0.1)]))

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown catalog"):
            catalog("nonexistent")

    def test_names_listing(self):
        assert set(CATALOG_NAMES) == {"amann-hess-type", "oscillatory-p512",
                                      "resonance-k7", "cubic", "resonant-bounded"}


class TestProblemSpecValidation:
    def test_forcing_on_driven_harmonic_rejected(self):
        nl = catalog("cubic(1)").nonlinearity
        with pytest.raises(ValueError, match="orthogonal"):
            ProblemSpec(L=1.0, k=2, e=SineSeries.from_pairs(1.0, [(2, 0.1)]),
                        nonlinearity=nl)

    def test_bad_harmonic_index(self):
        nl = catalog("cubic(1)").nonlinearity
        with pytest.raises(ValueError):
            ProblemSpec(L=1.0, k=0, e=SineSeries.zero(1.0, 2), nonlinearity=nl)

    def test_forcing_on_another_interval_rejected(self):
        nl = catalog("cubic(1)").nonlinearity
        with pytest.raises(ValueError, match="does not match the problem interval"):
            ProblemSpec(L=2.0, k=1, e=SineSeries.zero(1.0, 2), nonlinearity=nl)


class TestValidateConditions:
    def test_resonance_k7_sandwich(self):
        rep = validate_conditions(catalog("resonance-k7"), (-100.0, 100.0))
        assert rep.sandwich_ok
        assert rep.gprime_min == pytest.approx(49 * PI2 - 1, abs=1e-3)
        assert rep.gprime_max == pytest.approx(49 * PI2 + 1, abs=1e-3)
        assert 36 * PI2 < rep.gprime_min and rep.gprime_max < 64 * PI2

    def test_cubic_below_second_eigenvalue(self):
        rep = validate_conditions(catalog("cubic(pi^2/2)"), (-10.0, 10.0))
        assert rep.sandwich_ok
        assert rep.gprime_max < 4 * PI2

    def test_amann_hess_crossing(self):
        p = catalog("amann-hess-type")
        rep = validate_conditions(p, (-50.0, 50.0))
        assert rep.crossing_ok
        # independent recomputation of the tail ratios
        neg = np.linspace(-50, -40, 2000)
        pos = np.linspace(40, 50, 2000)
        assert np.max(p.nonlinearity.g(neg) / neg) < PI2
        assert np.min(p.nonlinearity.g(pos) / pos) > PI2
        assert rep.tail_ratio_neg < PI2 < rep.tail_ratio_pos

    def test_oscillatory_violates_sandwich(self):
        rep = validate_conditions(catalog("oscillatory-p512"), (-40.0, 40.0))
        assert not rep.sandwich_ok  # advisory only; solving still works

    def test_summary_renders(self):
        rep = validate_conditions(catalog("resonance-k7"), (-5.0, 5.0))
        assert "sandwich" in rep.summary()


class TestNonlinearityFromExpression:
    def test_round_trip(self):
        nl = Nonlinearity.from_expression("pi^2*u + sin(u)")
        assert nl.g(0.3) == pytest.approx(PI2 * 0.3 + np.sin(0.3))
        assert nl.g_prime(0.3) == pytest.approx(PI2 + np.cos(0.3))
        assert nl.descriptor == "pi^2*u + sin(u)"

    def test_bad_expression(self):
        with pytest.raises(Exception):
            Nonlinearity.from_expression("pi^2*u + qux(u)")

    @pytest.mark.parametrize("text", ["pi^2*u + 0.1*sin(100*u)", "sin(1000*u)"])
    def test_oscillatory_g_passes_the_derivative_check(self, text):
        # a plain centred difference is off by h^2 g'''/6: 3.95e-5 and 4.33e-4
        # of g' here, where the complex step is exact
        nl = Nonlinearity.from_expression(text)
        assert check_derivative(nl) < DERIVATIVE_RTOL

    @pytest.mark.parametrize("g", [lambda u: np.abs(u) ** 3, lambda u: np.real(u) ** 3],
                             ids=["abs-cubed", "real-part-cubed"])
    def test_g_without_complex_continuation_rejected(self, g):
        # both drop the imaginary part, so their complex step is 0
        with pytest.raises(ValueError, match="g_prime"):
            Nonlinearity(g, "x")


def test_run_defaults_match_the_solver_defaults():
    # the solver and continuation read each of these defaults from RunSettings
    run, solver_settings = RunSettings(), SolverSettings()
    assert (run.newton_tol, run.max_iter) == (solver_settings.newton_tol,
                                              solver_settings.max_iter)
    for fn in (follow_curve, solve_at_signature):
        assert inspect.signature(fn).parameters["n_modes"].default == run.modes


class TestConfigFiles:
    def write(self, tmp_path, text):
        path = tmp_path / "problem.cfg"
        path.write_text(text)
        return path

    def test_full_config(self, tmp_path):
        path = self.write(tmp_path, """
[problem]
L = 1.0
k = 1
g = pi^2*u + sin(u)
e = 2:0.5, 3:-0.25

[run]
xi_min = -2
xi_max = 2
xi_step = 0.5
modes = 32
newton_tol = 1e-9
max_iter = 30
mu_star = 0, 1.5
""")
        spec, run = load_config(path)
        assert spec.k == 1 and spec.L == 1.0
        assert spec.e.coeffs[1] == 0.5 and spec.e.coeffs[2] == -0.25
        assert run.xi_step == 0.5 and run.modes == 32
        assert run.newton_tol == 1e-9 and run.max_iter == 30
        assert run.mu_star == (0.0, 1.5)

    def test_defaults(self, tmp_path):
        spec, run = load_config(self.write(tmp_path, "[problem]\ng = u\n"))
        assert spec.k == 1 and spec.L == 1.0
        assert np.all(spec.e.coeffs == 0.0)
        assert run.modes == 64 and run.newton_tol == 1e-10

    def test_forcing_on_driven_harmonic_rejected(self, tmp_path):
        path = self.write(tmp_path, "[problem]\nk = 2\ng = u\ne = 2:1.0\n")
        with pytest.raises(ConfigError, match="orthogonal"):
            load_config(path)

    def test_repeated_forcing_mode_rejected(self, tmp_path):
        path = self.write(tmp_path, "[problem]\ng = u\ne = 2:0.5, 2:0.5\n")
        with pytest.raises(ConfigError, match="mode 2"):
            load_config(path)

    def test_missing_g(self, tmp_path):
        with pytest.raises(ConfigError, match="needs g"):
            load_config(self.write(tmp_path, "[problem]\nk = 1\n"))

    def test_missing_problem_section(self, tmp_path):
        with pytest.raises(ConfigError, match="problem"):
            load_config(self.write(tmp_path, "[run]\nxi_min = 0\n"))
        # a key before any section header
        with pytest.raises(ConfigError, match="malformed config"):
            load_config(self.write(tmp_path, "g = u\n[problem]\ng = u\n"))

    def test_bad_pair_syntax(self, tmp_path):
        for e in ("2=0.5", "2:abc"):  # no colon; a coefficient that is not a float
            with pytest.raises(ConfigError, match="forcing entry"):
                load_config(self.write(tmp_path, f"[problem]\ng = u\ne = {e}\n"))

    def test_bad_expression_reported(self, tmp_path):
        with pytest.raises(ConfigError, match="expression"):
            load_config(self.write(tmp_path, "[problem]\ng = 2+*u\n"))

    @pytest.mark.parametrize("g", ["1/u", "u^-1", "pi^2*u + 0.1/(u^2)"])
    def test_g_not_finite_at_zero_rejected(self, tmp_path, g):
        # u vanishes at both ends, so g(0) enters every residual
        with pytest.raises(ConfigError, match=r"g\(0\)"):
            load_config(self.write(tmp_path, f"[problem]\ng = {g}\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.cfg")
