import time

import pytest

from harmcont.continuation import follow_curve
from harmcont.problems import Nonlinearity, ProblemSpec, catalog
from harmcont.spectral import SineSeries


def linear_spec(e_pairs=(), L=1.0, k=1, n=8):
    """g == 0 driven at k, forced by the (mode, coefficient) pairs on n modes."""
    nl = Nonlinearity.from_expression("0")
    e = SineSeries.from_pairs(L, e_pairs, n_modes=n) if e_pairs else SineSeries.zero(L, n)
    return ProblemSpec(L=L, k=k, e=e, nonlinearity=nl)


@pytest.fixture(scope="session")
def fig1_curve():
    t0 = time.perf_counter()
    c = follow_curve(catalog("oscillatory-p512"), 5.0, 60.0, 0.1, n_modes=64)
    return c, time.perf_counter() - t0


@pytest.fixture(scope="session")
def fig2_curve():
    return follow_curve(catalog("resonance-k7"), 10.0, 60.0, 0.1, n_modes=128)


@pytest.fixture(scope="session")
def k7_central_lobe():
    # |mu_7| peaks at 1.163 near xi = +-1.8 and stays below 0.47 on |xi| >= 10;
    # g' = 49 pi^2 + cos u stays inside (lambda_6, lambda_8), so this branch
    # is the whole solution set
    return follow_curve(catalog("resonance-k7"), -10.0, 10.0, 0.1, n_modes=128)


@pytest.fixture(scope="session")
def fig3_curve():
    return follow_curve(catalog("amann-hess-type"), -40.0, 40.0, 0.1, n_modes=64)
