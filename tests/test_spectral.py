import numpy as np
import pytest
from scipy.fft import dst

from harmcont.spectral import (SineSeries, eigenvalue, from_grid,
                               modal_linear_solve, multiplication_matrix,
                               project_out, to_grid)

PI2 = np.pi ** 2


class TestEigenvalue:
    def test_principal(self):
        assert eigenvalue(1, 1.0) == pytest.approx(PI2, rel=1e-15)

    def test_seventh(self):
        assert eigenvalue(7, 1.0) == pytest.approx(49 * PI2, rel=1e-15)

    def test_scaling_identity(self):
        assert eigenvalue(2, 2.0) == pytest.approx(PI2, rel=1e-15)

    @pytest.mark.parametrize("k,L", [(0, 1.0), (-1, 1.0), (1, 0.0), (1, -2.0)])
    def test_rejects_bad_arguments(self, k, L):
        with pytest.raises(ValueError):
            eigenvalue(k, L)


def nodes(M, L):
    """The interior nodes x_m = m L/(M+1), m = 1..M, of the grid transforms."""
    return np.arange(1, M + 1) * L / (M + 1)


class TestGridTransforms:
    def test_basis_function_at_midpoint(self):
        vals = to_grid(np.array([1.0]), 15)  # node 8/16 = 1/2
        assert vals[7] == pytest.approx(1.0, abs=1e-14)

    def test_zero_series(self):
        vals = to_grid(np.zeros(5), 16)
        assert np.all(vals == 0.0)

    def test_two_mode_sum_at_quarter(self):
        expected = np.sin(np.pi / 4) + 0.2 * np.sin(np.pi / 2)
        assert to_grid(np.array([1.0, 0.2]), 15)[3] == pytest.approx(expected, abs=1e-14)

    def test_grid_too_coarse_rejected(self):
        with pytest.raises(ValueError, match="coarse"):
            to_grid(np.ones(8), 8)

    def test_from_grid_recovers_basis_function(self):
        vals = np.sin(2 * np.pi * nodes(16, 1.0))
        assert np.allclose(from_grid(vals, 4), [0, 1, 0, 0], atol=1e-14)

    def test_from_grid_zero(self):
        assert np.all(from_grid(np.zeros(16), 4) == 0.0)

    def test_from_grid_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            from_grid(np.zeros(10), 8)

    def test_not_1d_rejected(self):
        with pytest.raises(ValueError, match="1-D"):
            to_grid(np.ones((2, 2)), 8)
        with pytest.raises(ValueError, match="1-D"):
            from_grid(np.ones((8, 2)), 2)

    def test_sin_squared_expansion(self):
        # hand integration: 2 int_0^1 sin^2(pi x) sin(j pi x) dx
        #   = 8 / (pi j (4 - j^2)) for odd j, 0 for even j
        vals = np.sin(np.pi * nodes(64, 1.0)) ** 2
        coeffs = from_grid(vals, 8)
        expected = np.zeros(8)
        for j in (1, 3, 5, 7):
            expected[j - 1] = 8.0 / (np.pi * j * (4 - j ** 2))
        # the sine tail of sin^2 decays like j^-3; only quadrature aliasing
        # of that tail separates the discrete from the exact coefficients
        assert np.allclose(coeffs, expected, atol=2e-5)
        assert coeffs[0] == pytest.approx(8 / (3 * np.pi), rel=1e-4)

    def test_round_trip_exact(self):
        rng = np.random.default_rng(3)
        for N, M in [(4, 8), (16, 40), (64, 256)]:
            c = rng.standard_normal(N)
            back = from_grid(to_grid(c, M), N)
            assert np.max(np.abs(back - c)) < 1e-12

    @pytest.mark.parametrize("M,N", [(256, 64), (512, 128)])
    def test_match_dst_type_1(self, M, N):
        # the partial transforms are the first N columns of DST-I
        rng = np.random.default_rng(M)
        c = rng.standard_normal(N)
        vals = rng.standard_normal(M)
        padded = np.concatenate([c, np.zeros(M - N)])
        assert np.allclose(to_grid(c, M), dst(padded, type=1) / 2,
                           rtol=0, atol=1e-13)
        assert np.allclose(from_grid(vals, N),
                           dst(vals, type=1)[:N] / (M + 1), rtol=0, atol=1e-13)

    def test_parseval(self):
        rng = np.random.default_rng(4)
        c = rng.standard_normal(20)
        vals = to_grid(c, 80)
        quadrature = np.sum(vals ** 2) * 3.0 / 81
        exact = 3.0 / 2 * np.sum(c ** 2)
        assert abs(quadrature - exact) / exact < 1e-10

    def test_eval_matches_direct_sum(self):
        s = SineSeries(1.5, [0.5, -0.25, 1.0])
        x = np.array([0.0, 0.3, 0.75, 1.5])
        direct = sum(c * np.sin((j + 1) * np.pi * x / 1.5)
                     for j, c in enumerate(s.coeffs))
        assert np.allclose(s.eval(x), direct, atol=1e-15)
        assert s.eval(np.array([0.0, 1.5])) == pytest.approx([0.0, 0.0], abs=1e-13)


class TestProjectOut:
    def test_coefficient_extraction(self):
        s = SineSeries(1.0, [3.0, 1.0])
        xi, rem = project_out(s, 1)
        assert xi == 3.0
        assert np.array_equal(rem.coeffs, [0.0, 1.0])

    def test_pure_harmonic(self):
        for k in (1, 2, 5):
            s = SineSeries(1.0, np.eye(6)[k - 1])
            xi, rem = project_out(s, k)
            assert xi == 1.0
            assert np.all(rem.coeffs == 0.0)

    def test_orthogonal_forcing_untouched(self):
        e = SineSeries(1.0, [0.0, 0.2])
        xi, rem = project_out(e, 1)
        assert xi == 0.0
        assert np.array_equal(rem.coeffs, e.coeffs)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            project_out(SineSeries(1.0, [1.0, 2.0]), 3)

    def test_reinsert_reconstructs(self):
        rng = np.random.default_rng(5)
        s = SineSeries(1.0, rng.standard_normal(12))
        xi, rem = project_out(s, 4)
        rebuilt = rem.coeffs.copy()
        rebuilt[3] = xi
        assert np.array_equal(rebuilt, s.coeffs)


class TestModalLinearSolve:
    def test_single_mode(self):
        rhs = SineSeries(1.0, [0.0, 1.0])
        w = modal_linear_solve(rhs, PI2, excluded=1)
        assert w.coeffs[1] == pytest.approx(-1 / (3 * PI2), rel=1e-14)
        assert w.coeffs[0] == 0.0

    def test_zero_rhs(self):
        w = modal_linear_solve(SineSeries(1.0, np.zeros(6)), PI2, excluded=1)
        assert np.all(w.coeffs == 0.0)

    def test_two_mode_division(self):
        # rhs = sin 3 pi x - 2 sin 4 pi x with shift lambda_7
        rhs = SineSeries(1.0, [0, 0, 1.0, -2.0, 0, 0, 0])
        w = modal_linear_solve(rhs, 49 * PI2, excluded=7)
        assert w.coeffs[2] == pytest.approx(1 / (49 * PI2 - 9 * PI2), rel=1e-14)
        assert w.coeffs[3] == pytest.approx(-2 / (49 * PI2 - 16 * PI2), rel=1e-14)
        assert w.coeffs[6] == 0.0

    def test_excluded_coefficient_always_zero(self):
        rng = np.random.default_rng(6)
        c = rng.standard_normal(9)
        c[4] = 0.0
        w = modal_linear_solve(SineSeries(1.0, c), 30.0, excluded=5)
        assert w.coeffs[4] == 0.0

    def test_resonance_detected(self):
        rhs = SineSeries(1.0, [0.0, 1.0])
        with pytest.raises(ValueError, match="resonance"):
            modal_linear_solve(rhs, 4 * PI2, excluded=1)

    def test_nonzero_excluded_rejected(self):
        with pytest.raises(ValueError, match="excluded"):
            modal_linear_solve(SineSeries(1.0, [1.0, 1.0]), 5.0, excluded=1)

    def test_residual_of_solution_vanishes(self):
        rng = np.random.default_rng(7)
        c = rng.standard_normal(8)
        c[0] = 0.0
        rhs = SineSeries(2.0, c)
        shift = 3.0
        w = modal_linear_solve(rhs, shift, excluded=1)
        lam = np.array([eigenvalue(j, 2.0) for j in range(1, 9)])
        residual = -lam * w.coeffs + shift * w.coeffs - rhs.coeffs
        residual[0] = 0.0
        assert np.max(np.abs(residual)) < 1e-12


class TestMultiplicationMatrix:
    def test_constant_weight_is_identity(self):
        A = multiplication_matrix(np.full(32, 2.5), 8)
        assert np.allclose(A, 2.5 * np.eye(8), atol=1e-13)

    @pytest.mark.parametrize("M,N", [(16, 8), (256, 64), (512, 128)])
    def test_matches_explicit_quadrature(self, M, N):
        # (2/(M+1)) B^T diag(w) B, the quadrature from_grid applies to w f
        rng = np.random.default_rng(N)
        w = rng.standard_normal(M)
        m, j = np.arange(1, M + 1), np.arange(1, N + 1)
        B = np.sin(np.pi * np.outer(m, j) / (M + 1))
        expected = (2.0 / (M + 1)) * (B.T @ (w[:, None] * B))
        A = multiplication_matrix(w, N)
        assert np.max(np.abs(A - expected)) <= 1e-13 * np.max(np.abs(expected))

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ValueError, match="resolve"):
            multiplication_matrix(np.ones(15), 8)


class TestSineSeriesValidation:
    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            SineSeries(0.0, [1.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            SineSeries(1.0, [np.nan])

    def test_from_pairs(self):
        s = SineSeries.from_pairs(1.0, [(2, 0.2), (5, -1.0)], n_modes=7)
        assert s.n_modes == 7
        assert s.coeffs[1] == 0.2 and s.coeffs[4] == -1.0
