import pytest

from pgzo.core import ConfigError, OracleHandle, RngHandle
from pgzo.diagnostics import (check_lemma36, check_theorem_bounds, mc_g2_moments,
                              mc_prgf_drift, mc_rgf_drift, subspace_optimality_margin)


def test_rgf_drift_small():
    mean, se = mc_rgf_drift(20, 4, 4000, RngHandle(0))
    assert abs(mean - 0.2) <= 3 * se


def test_rgf_drift_full_span_is_one():
    mean, se = mc_rgf_drift(6, 6, 1000, RngHandle(1))
    assert mean == pytest.approx(1.0, abs=1e-10)
    assert se <= 1e-10


def test_rgf_drift_d2():
    mean, se = mc_rgf_drift(2, 1, 5000, RngHandle(2))
    assert abs(mean - 0.5) <= 3 * se


def test_prgf_drift_perfect_prior():
    mean, _ = mc_prgf_drift(30, 5, 1.0, 1000, RngHandle(3))
    assert mean == pytest.approx(1.0, abs=1e-10)


def test_prgf_drift_no_prior_quality():
    mean, se = mc_prgf_drift(25, 4, 0.0, 4000, RngHandle(4))
    assert abs(mean - 4 / 24) <= 3 * se


def test_g2_moments_sanity():
    rel, n2 = mc_g2_moments(12, 3, 0.5, 4000, RngHandle(5))
    assert rel < 0.05
    target = 0.5 + (11 / 3) * 0.5
    assert abs(n2 - target) / target < 0.05


def test_g2_variance_reduced_moments():
    # control-variate construction: ||g2||^2 tends to D + (d/q)(1 - D)
    d, q = 12, 3
    for D in (0.0, 0.5, 1.0):
        rel, n2 = mc_g2_moments(d, q, D, 6000, RngHandle(6), variance_reduced=True)
        target = D + (d / q) * (1 - D)
        assert rel < 0.08
        assert abs(n2 - target) / target < 0.08


def test_optimality_margin_nonnegative():
    for d in (3, 5, 8):
        margin = subspace_optimality_margin(d, 2, 500, RngHandle(7))
        assert margin >= -1e-12


def test_lemma36_zero_violations_when_lhat_ok():
    violations, samples = check_lemma36(40, 4, 10.0, 200, seed=0)
    assert violations == 0
    assert len(samples) == 199


def test_lemma36_computes_each_gradient_once(monkeypatch):
    # The exact oracle's gradient at x_t serves both the probe and the C_t/D_t
    # diagnostic of the same step: one gradient_at call per iteration.
    calls = []
    gradient_at = OracleHandle.gradient_at

    def counting(self, x):
        calls.append(1)
        return gradient_at(self, x)
    monkeypatch.setattr(OracleHandle, "gradient_at", counting)
    check_lemma36(20, 4, 10.0, 100, seed=0)
    assert len(calls) == 100


def test_lemma36_reports_out_of_hypothesis_runs():
    # L̂ < L is outside the lemma's hypotheses: must report, not assert
    violations, _ = check_lemma36(40, 4, 0.5, 200, seed=0)
    assert violations >= 0


def test_bound_checks_require_enough_seeds():
    with pytest.raises(ConfigError):
        check_theorem_bounds(20, 4, [50], seeds=range(5))


def test_bound_checks_pass_on_f2():
    checks = check_theorem_bounds(30, 5, [60], seeds=range(20))
    assert all(c.ok for c in checks)


def test_historical_bound_needs_large_T():
    with pytest.raises(ConfigError):
        check_theorem_bounds(30, 5, [10], seeds=range(20), L_hat_mult=10.0,
                             historical=True)
