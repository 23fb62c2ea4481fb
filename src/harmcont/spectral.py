"""Sine-basis representation of functions on (0, L) with Dirichlet ends.

A function is stored as coefficients a_1..a_N of sum_j a_j sin(j pi x / L);
the plain-sine convention is used throughout, so harmonics are extracted with
the (2/L) projection factor.  SineSeries is the checked form at the API
boundary; the grid transforms and the multiplication matrix take and return
plain arrays, since the solver calls them on every residual.  Node values
live on the interior nodes x_m = m L / (M+1), m = 1..M, so an array of M
values fixes the node set up to the scale L, which no transform depends on.
The grid transforms are partial type-I discrete sine transforms: N
coefficients in, or N out, of a length-M transform.  They are products with
the cached M x N sine matrix B[m, j] = sin(j pi m/(M+1)), which skip the 3N
coefficients the solver's M = 4N grid never uses (and the prime FFT length
M + 1 = 257 of the default N = 64).  Multiplication by a grid function w is
the Toeplitz-minus-Hankel matrix c_|i-j| - c_(i+j) built from the cosine
coefficients c_n of w (Olver & Townsend, SIAM Rev. 2013).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


def eigenvalue(k: int, L: float) -> float:
    """k-th Dirichlet eigenvalue of -u'' on (0, L): (k pi / L)^2."""
    if k < 1 or int(k) != k:
        raise ValueError(f"harmonic index must be a positive integer, got {k}")
    if L <= 0:
        raise ValueError(f"interval length must be positive, got {L}")
    return (k * np.pi / L) ** 2


@dataclass(frozen=True)
class SineSeries:
    """Coefficients of sum_j a_j sin(j pi x / L) on (0, L)."""

    L: float
    coeffs: np.ndarray

    def __post_init__(self):
        if not 0 < self.L < np.inf:
            raise ValueError(f"interval length must be positive and finite, got {self.L}")
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=float))
        if c.ndim != 1 or c.size < 1:
            raise ValueError("coefficients must be a non-empty 1-D array")
        if not np.isfinite(c).all():
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coeffs", c)

    @property
    def n_modes(self) -> int:
        return self.coeffs.size

    @classmethod
    def zero(cls, L: float, n_modes: int) -> "SineSeries":
        return cls(L, np.zeros(n_modes))

    @classmethod
    def from_pairs(cls, L: float, pairs, n_modes: int | None = None) -> "SineSeries":
        """Build from (mode, coefficient) pairs; modes are 1-based, each once."""
        pairs = list(pairs)
        modes = [m for m, _ in pairs]
        c = np.zeros(max(n_modes or 0, *modes, 1))
        for m, a in pairs:
            if m < 1 or int(m) != m:
                raise ValueError(f"mode index must be a positive integer, got {m}")
            if modes.count(m) > 1:
                raise ValueError(f"mode {m} is given twice")
            c[int(m) - 1] = a
        return cls(L, c)

    def eval(self, x) -> np.ndarray:
        """Evaluate the represented function at arbitrary points (direct sum)."""
        x = np.asarray(x, dtype=float)
        j = np.arange(1, self.n_modes + 1)
        return np.sin(np.multiply.outer(x, j) * (np.pi / self.L)) @ self.coeffs

    def padded(self, n_modes: int) -> np.ndarray:
        """Coefficient vector zero-padded (or identical) to n_modes entries."""
        if n_modes < self.n_modes:
            raise ValueError(
                f"cannot shrink a {self.n_modes}-mode series to {n_modes} modes"
            )
        out = np.zeros(n_modes)
        out[: self.n_modes] = self.coeffs
        return out

    def l2_norm(self) -> float:
        """L2 norm of the represented function: sqrt(L/2 * sum a_j^2)."""
        return l2_norm(self.coeffs, self.L)


def l2_norm(coeffs: np.ndarray, L: float) -> float:
    """sqrt(L/2 * sum a_j^2), the L2 norm on (0, L) of a sine series.

    Finite coefficients above about 1e154 overflow the sum of squares; only
    then is the sum taken over coefficients scaled by the largest one.
    """
    sq = L / 2.0 * np.dot(coeffs, coeffs)
    if sq == np.inf and np.isfinite(coeffs).all():
        scale = np.max(np.abs(coeffs))
        c = coeffs / scale
        return float(scale * np.sqrt(L / 2.0 * np.dot(c, c)))
    return float(np.sqrt(sq))


def to_grid(coeffs: np.ndarray, M: int) -> np.ndarray:
    """Values at the M interior nodes of sum_j a_j sin(j pi x/L): B @ coeffs."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim != 1:
        raise ValueError("coefficients must be a 1-D array")
    if M < 2 * coeffs.size:
        raise ValueError(
            f"grid too coarse: M={M} nodes for N={coeffs.size} modes (need M >= 2N)"
        )
    return _sine_matrix(M, coeffs.size) @ coeffs


def from_grid(values: np.ndarray, n_modes: int) -> np.ndarray:
    """Sine coefficients a_j = (2/L) int f sin(j pi x/L) dx from node values.

    The quadrature is the discrete sine transform on the node set,
    (2/(M+1)) values @ B; the round trip from_grid(to_grid(c, M), N) is exact
    to roundoff when c has <= N modes and M >= 2N.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ValueError("grid values must be a 1-D array")
    M = values.size
    if M < 2 * n_modes:
        raise ValueError(
            f"dimension mismatch: {M} grid values cannot resolve {n_modes} modes"
        )
    return (2.0 / (M + 1)) * (values @ _sine_matrix(M, n_modes))


def _angles(a: np.ndarray, b: np.ndarray, M: int) -> np.ndarray:
    """pi a b/(M+1), with a b reduced mod 2(M+1) in integers before scaling."""
    return np.pi * (np.outer(a, b) % (2 * (M + 1))) / (M + 1)


@lru_cache(maxsize=16)
def _sine_matrix(M: int, N: int) -> np.ndarray:
    """B[m-1, j-1] = sin(j pi m/(M+1)); maps N coefficients to M node values."""
    B = np.sin(_angles(np.arange(1, M + 1), np.arange(1, N + 1), M))
    B.setflags(write=False)
    return B


@lru_cache(maxsize=16)
def _cosine_matrix(M: int, N: int) -> np.ndarray:
    """C[n, m-1] = cos(n pi m/(M+1)) / (M+1) for n = 0..2N."""
    C = np.cos(_angles(np.arange(2 * N + 1), np.arange(1, M + 1), M)) / (M + 1)
    C.setflags(write=False)
    return C


@lru_cache(maxsize=16)
def _toeplitz_hankel_indices(N: int) -> tuple[np.ndarray, np.ndarray]:
    """|i-j| and i+j for the 1-based mode pairs (i, j) of an N x N matrix."""
    i, j = np.indices((N, N))
    toeplitz, hankel = np.abs(i - j), i + j + 2
    toeplitz.setflags(write=False)
    hankel.setflags(write=False)
    return toeplitz, hankel


def multiplication_matrix(weights: np.ndarray, n_modes: int) -> np.ndarray:
    """Sine-coefficient matrix of f -> w(x) f(x), w given by grid node values.

    Entry (i, j) is the i-th sine coefficient of w(x) sin(j pi x/L) by the
    same quadrature as from_grid, (2/(M+1)) sum_m w_m sin(i t_m) sin(j t_m)
    with t_m = pi m/(M+1).  Since 2 sin(i t) sin(j t) = cos((i-j) t) -
    cos((i+j) t), that is c_|i-j| - c_(i+j) with the cosine coefficients
    c_n = (1/(M+1)) sum_m w_m cos(n t_m), n = 0..2N.
    """
    weights = np.asarray(weights, dtype=float)
    M = weights.size
    if M < 2 * n_modes:
        raise ValueError(f"{M} nodes cannot resolve {n_modes} modes")
    c = _cosine_matrix(M, n_modes) @ weights
    toeplitz, hankel = _toeplitz_hankel_indices(n_modes)
    return c[toeplitz] - c[hankel]
