import pytest

from harmcont import checks, oracle
from harmcont.checks import (SUITES, invariants_suite, linear_suite, oracle_suite,
                             run_suite)


def test_invariants_suite_all_pass():
    rows = invariants_suite()
    assert rows and all(r.passed for r in rows)


def test_rows_carry_detail():
    for row in linear_suite():
        assert row.suite == "linear"
        assert row.detail


def test_suite_registry():
    assert set(SUITES) == {"linear", "oracle", "asymptotics", "invariants"}
    with pytest.raises(KeyError):
        run_suite("bogus")


def test_oracle_row_names_worst_xi(monkeypatch):
    monkeypatch.setattr(checks, "ORACLE_MODES", {"resonant-bounded": 64})
    (row,) = oracle_suite()
    assert row.passed
    assert " at xi = " in row.detail.split(",")[0]


def test_oracle_row_names_each_non_convergence(monkeypatch):
    # the points at |xi| = 10 need about 950 collocation nodes, at |xi| = 3
    # about 780, and xi = 0 converges on the 401-node start
    monkeypatch.setattr(checks, "ORACLE_MODES", {"resonant-bounded": 64})
    monkeypatch.setattr(oracle, "BVP_MAX_NODES", 850)
    (row,) = oracle_suite()
    assert not row.passed
    failures = row.detail.split("NON-CONVERGENCE at ")[1:]
    assert [f.split(" (")[0] for f in failures] == ["xi = -10", "xi = 10"]
    assert all("solve_bvp status 1" in f for f in failures)
