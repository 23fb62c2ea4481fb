import numpy as np
import pytest
from scipy.special import jv, struve

from harmcont.asymptotics import (envelope, mu_asymptotic, stationary_phase,
                                  universal_profile)
from harmcont.checks import hump_sum_identity
from harmcont.problems import for_catalog
from harmcont.spectral import SineSeries

PI2 = np.pi ** 2
HK = for_catalog("resonance-k7")  # h == 1: the k-th curve of lambda_k u + sin u


class TestCurveFormulas:
    def test_zero_at_quarter_pi(self):
        assert mu_asymptotic(HK, np.pi / 4) == pytest.approx(0.0, abs=1e-15)

    def test_value_at_three_quarter_pi(self):
        # 2 sqrt(2/(pi * 3pi/4)) * sin(pi/2) = 4 sqrt(6) / (3 pi)
        expected = 4 * np.sqrt(6.0) / (3 * np.pi)
        assert mu_asymptotic(HK, 3 * np.pi / 4) == pytest.approx(expected, rel=1e-14)

    def test_negative_branch_phase(self):
        # for xi < 0 the phase is xi + pi/4
        assert mu_asymptotic(HK, -3 * np.pi / 4) == pytest.approx(
            -4 * np.sqrt(6.0) / (3 * np.pi), rel=1e-14)
        assert mu_asymptotic(HK, -np.pi / 4) == pytest.approx(0.0, abs=1e-15)

    def test_principal_family_scales_by_h(self):
        a = for_catalog("oscillatory-p512")
        xi = 40.0
        h = 5.0 * (xi ** 2 + 1) ** (5 / 12)
        expected = 2 * np.sqrt(2 / (np.pi * xi)) * np.sin(xi - np.pi / 4) * h
        assert mu_asymptotic(a, xi) == pytest.approx(expected, rel=1e-14)

    def test_envelope_bounds_and_touches(self):
        xs = np.linspace(0.5, 80.0, 5001)
        vals = np.abs(mu_asymptotic(HK, xs))
        env = envelope(HK, xs)
        assert np.all(vals <= env + 1e-12)
        peaks = np.pi / 4 + np.pi / 2 + np.arange(0, 20) * np.pi
        for z in peaks:
            assert abs(abs(mu_asymptotic(HK, z)) - envelope(HK, z)) < 1e-12

    def test_array_evaluation(self):
        out = mu_asymptotic(HK, np.array([1.0, -1.0, 10.0]))
        assert out.shape == (3,)

    def test_xi_zero_rejected(self):
        with pytest.raises(ValueError):
            mu_asymptotic(HK, 0.0)
        with pytest.raises(ValueError):
            mu_asymptotic(HK, np.array([1.0, 0.0]))

    def test_envelope_scales_by_abs_h(self):
        h = lambda u: -3.0 * np.ones_like(u)
        xs = np.array([-7.0, 2.0, 50.0])
        assert np.array_equal(envelope(h, xs), envelope(HK, xs) * 3.0)

    def test_catalog_mapping(self):
        # the amplitude texts of the catalog table, h == 1 for the k-th curve
        xs = np.array([-30.0, 0.5, 40.0])
        assert np.array_equal(for_catalog("resonance-k7")(xs), np.ones(3))
        h = for_catalog("oscillatory-p512")
        assert h(40.0) == pytest.approx(5.0 * (40.0 ** 2 + 1) ** (5 / 12), rel=1e-15)
        for name in ("amann-hess-type", "resonant-bounded", "cubic", "cubic(pi^2)"):
            assert for_catalog(name) is None


def one(x):
    return 1.0


def square(x):
    return x * x


class TestStationaryPhase:
    def test_fresnel_closed_form(self):
        lam = 400.0
        sp = stationary_phase(one, square, lam, x0=0.0, g2=2.0)
        expected = np.exp(1j * np.pi / 4) * np.sqrt(np.pi / lam)
        assert sp == pytest.approx(expected, rel=1e-15)

    def test_zero_amplitude(self):
        zero = lambda x: 0.0
        assert stationary_phase(zero, square, 100.0, x0=0.0, g2=2.0) == 0

    def test_interval_call_rejected(self):
        # the critical point and g'' are keyword-only: the old (a, b) call of
        # an interval does not run with x0 = a
        with pytest.raises(TypeError):
            stationary_phase(one, square, 100.0, -1.0, 1.0)

    def test_sine_phase_closed_form(self):
        # f = g = sin(pi x) on [0,1]: x0 = 1/2, g'' = -pi^2, f(x0) = 1
        lam = 100.0
        f = lambda x: np.sin(np.pi * x)
        sp = stationary_phase(f, f, lam, x0=0.5, g2=-PI2)
        expected = np.exp(1j * (lam - np.pi / 4)) * np.sqrt(2.0 / (np.pi * lam))
        assert sp == pytest.approx(expected, rel=1e-14)
        # the exact integral, 2/pi - H_1(lam) + i J_1(lam) (DLMF 10.9, 11.5)
        exact = 2.0 / np.pi - struve(1, lam) + 1j * jv(1, lam)
        assert abs(sp - exact) < 5.0 / lam

    def test_minimum_takes_positive_sign(self):
        # g = -sin(pi x): interior minimum, g'' > 0, phase +pi/4
        f = lambda x: np.sin(np.pi * x)
        g = lambda x: -np.sin(np.pi * x)
        lam = 150.0
        sp = stationary_phase(f, g, lam, x0=0.5, g2=PI2)
        expected = np.exp(1j * (-lam + np.pi / 4)) * np.sqrt(2.0 / (np.pi * lam))
        assert sp == pytest.approx(expected, rel=1e-14)

    def test_degenerate_critical_point_rejected(self):
        quartic = lambda x: x ** 4
        with pytest.raises(ValueError, match="degenerate"):
            stationary_phase(one, quartic, 100.0, x0=0.0, g2=0.0)

    def test_per_hump_sum_reproduces_curve_formula(self):
        # the closed-form critical points leave only roundoff; the suite row
        # checks k = 7 at xi = 23 against a looser bound
        for k, xi in ((4, 31.0), (7, 23.0)):
            assert hump_sum_identity(k=k, xi=xi) < 1e-15


class TestUniversalProfile:
    def test_no_forcing(self):
        prof = universal_profile(SineSeries.zero(1.0, 4), 3.0)
        assert prof.coeffs[0] == 3.0
        assert np.all(prof.coeffs[1:] == 0.0)

    def test_single_mode_forcing(self):
        e = SineSeries.from_pairs(1.0, [(2, 1.0)])
        prof = universal_profile(e, 7.0)
        assert prof.coeffs[0] == 7.0
        assert prof.coeffs[1] == pytest.approx(-1 / (3 * PI2), rel=1e-14)

    def test_forcing_on_principal_harmonic_rejected(self):
        with pytest.raises(ValueError, match="orthogonal"):
            universal_profile(SineSeries.from_pairs(1.0, [(1, 0.1)]), 1.0)

    def test_profile_solves_shifted_equation(self):
        # E'' + lambda_1 E = e for the non-harmonic part
        e = SineSeries.from_pairs(2.0, [(2, 0.5), (3, -1.0)])
        prof = universal_profile(e, 0.0)
        lam = np.array([(j * np.pi / 2.0) ** 2 for j in range(1, 4)])
        res = -lam * prof.coeffs + (np.pi / 2.0) ** 2 * prof.coeffs - e.coeffs
        assert np.max(np.abs(res[1:])) < 1e-13

    def test_two_mode_forcing(self):
        # e = sin 3 pi x - 2 sin 4 pi x: mode-wise division by lambda_1 - lambda_j
        prof = universal_profile(SineSeries(1.0, [0, 0, 1.0, -2.0, 0, 0, 0]), 0.0)
        assert prof.coeffs[2] == pytest.approx(1 / (PI2 - 9 * PI2), rel=1e-14)
        assert prof.coeffs[3] == pytest.approx(-2 / (PI2 - 16 * PI2), rel=1e-14)
        assert np.all(prof.coeffs[[0, 1, 4, 5, 6]] == 0.0)

    def test_random_forcing_leaves_principal_coefficient(self):
        rng = np.random.default_rng(6)
        c = rng.standard_normal(9)
        c[0] = 0.0
        assert universal_profile(SineSeries(1.0, c), 0.0).coeffs[0] == 0.0
