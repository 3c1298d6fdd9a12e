import dataclasses
import math

import numpy as np
import pytest

import pgzo.diagnostics
from pgzo.ars import ArsConfig, run_ars
from pgzo.core import ConfigError, OracleHandle, RngHandle, sample_unit_sphere
from pgzo.diagnostics import (DriftSample, _prior_with_quality, check_ars_bound, check_lemma36,
                              check_theorem_bounds,
                              mc_g2_moments, mc_prgf_drift, mc_rgf_drift,
                              subspace_optimality_margin)
from pgzo.frames import (ProbeSet, build_frame, build_frames, cos_sq, g2_unbiased,
                         g2_variance_reduced, subspace_estimate)
from pgzo.greedy import GreedyConfig, run_greedy
from pgzo.testfns import bench_function


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


def _ref_lemma36(d, q, L_hat_mult, iterations, seed, tol=1e-9):
    """check_lemma36 as a loop over the iterations, pairing C_(t-1) with D_t
    one by one in numpy scalars: the reference its column pairing must equal."""
    fn = bench_function("f2", d)
    cfg = GreedyConfig(L_hat=L_hat_mult * fn.L, q=q, algo="history_prgf",
                       budget=iterations * (q + 1), oracle_mode="exact", diagnostics=True)
    trace = run_greedy(fn.as_objective(), cfg, seed)
    a = (1.0 - 1.0 / L_hat_mult) ** 2
    c_col, d_col = trace.column("C_t"), trace.column("D_t")
    samples, violations = [], 0
    for t in range(1, iterations):
        c_prev, d_t = c_col[t - 1], d_col[t]
        if np.isnan(c_prev) or np.isnan(d_t):
            continue
        samples.append(DriftSample(C_t=float(c_col[t]), D_t=float(d_t), iteration=t))
        if d_t < a * c_prev - tol:
            violations += 1
    return violations, samples


@pytest.mark.parametrize("L_hat_mult", [0.5, 1.0, 10.0])
def test_lemma36_equals_its_pairing_loop(L_hat_mult):
    assert check_lemma36(40, 4, L_hat_mult, 200, seed=0) == _ref_lemma36(40, 4, L_hat_mult,
                                                                          200, 0)


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


def _per_seed_deltas(d, q, T_values, seeds, L_hat_mult=1.0, historical=False):
    """The reference loop: one ``run_greedy`` per seed, delta_T at each T."""
    fn = bench_function("f2", d)
    cfg = GreedyConfig(L_hat=L_hat_mult * fn.L, q=q, algo="history_prgf" if historical else "rgf",
                       budget=max(T_values) * (q + 1 if historical else q), oracle_mode="exact")
    traces = [run_greedy(fn.as_objective(), cfg, seed) for seed in seeds]
    return [[tr.rows[T][3] - fn.f_star for tr in traces] for T in T_values]


# perfbench's two shapes: the plain rates at T=100, and the historical
# factor-2 bound at L̂ = 50 L
@pytest.mark.parametrize("T_values,kwargs", [([100], {}),
                                             ([50, 100], {"L_hat_mult": 50.0, "historical": True})])
def test_bound_checks_equal_their_per_seed_loop(T_values, kwargs):
    seeds = range(20, 40)
    checks = check_theorem_bounds(50, 5, T_values, seeds, **kwargs)
    means = [float(np.mean(deltas)) for deltas in _per_seed_deltas(50, 5, T_values, seeds,
                                                                       **kwargs)]
    per_T = 1 if kwargs else 2  # the plain rates check each T twice
    assert [c.T for c in checks] == [T for T in T_values for _ in range(per_T)]
    assert [c.observed for c in checks] == [m for m in means for _ in range(per_T)]


def test_historical_bound_needs_large_T():
    with pytest.raises(ConfigError):
        check_theorem_bounds(30, 5, [10], seeds=range(20), L_hat_mult=10.0,
                             historical=True)


# ARS at theta = q^2/(L d^2), exact oracle, 20 seeds: the seed mean of delta_T
# against psi_T (f(x0) - f* + gamma0/2 ||x0 - x*||^2). At taû = tau the
# momentum's lambda and beta depend on taû; at taû = 0 (the fig1 setting)
# they do not. The long taû = 0 run is where a doubled momentum coefficient
# theta/alpha ends above the bound (1.8x at T=800, over 1000x at T=1600).
@pytest.mark.parametrize("d,q,T_values,tau_hat_mult", [
    (50, 5, (100, 400), 1.0),
    (100, 10, (100,), 0.0),
    (20, 2, (800, 1600), 0.0),
])
def test_ars_meets_its_accelerated_bound(d, q, T_values, tau_hat_mult):
    checks = check_ars_bound(d, q, T_values, seeds=range(20), tau_hat_mult=tau_hat_mult)
    assert [c.T for c in checks] == list(T_values)
    assert all(c.ok for c in checks), checks


@pytest.mark.parametrize("kwargs", [{"seeds": range(5)}, {"tau_hat_mult": 1.5}])
def test_ars_bound_check_rejects_its_bad_settings(kwargs):
    with pytest.raises(ConfigError):
        check_ars_bound(20, 4, [10], **{"seeds": range(20), **kwargs})


@pytest.fixture
def f2_evals(monkeypatch):
    """The objective evaluations of the bound checks: f2's ``eval`` and
    ``grad``, counted through the ``bench_function`` they call."""
    calls = {"eval": 0, "grad": 0}

    def counted(name, fn):
        def wrapper(x):
            calls[name] += 1
            return fn(x)
        return wrapper

    def counting_bench_function(name, d):
        bf = bench_function(name, d)
        return dataclasses.replace(bf, eval=counted("eval", bf.eval),
                                   grad=counted("grad", bf.grad))
    monkeypatch.setattr(pgzo.diagnostics, "bench_function", counting_bench_function)
    return calls


@pytest.mark.parametrize("check,T_values,kwargs", [
    (check_theorem_bounds, [10], {"L_hat_mult": 10.0, "historical": True}),  # T < 5d/q
    (check_theorem_bounds, [], {}),
    (check_theorem_bounds, [60, 0], {}),
    (check_theorem_bounds, [60, 2.5], {}),
    (check_ars_bound, [], {}),
    (check_ars_bound, [-60], {}),
    (check_ars_bound, (60.0,), {}),
])
def test_bound_checks_reject_bad_T_values_before_evaluating(f2_evals, check, T_values, kwargs):
    with pytest.raises(ConfigError):
        check(30, 5, T_values, seeds=range(20), **kwargs)
    assert f2_evals == {"eval": 0, "grad": 0}


# (check, T_values, kwargs, rows logged per seed before the final row)
@pytest.mark.parametrize("check,T_values,kwargs,logged", [
    (check_theorem_bounds, [60, 90], {}, 3),         # gcd 30: rows 0, 30, 60
    (check_theorem_bounds, [50, 100], {"L_hat_mult": 50.0, "historical": True}, 2),
    (check_ars_bound, (40, 100), {}, 5),             # gcd 20: rows 0, 20, ..., 80
])
def test_thinned_bound_checks_evaluate_f_only_at_logged_rows(f2_evals, check, T_values, kwargs,
                                                              logged):
    check(30, 5, T_values, seeds=range(20), **kwargs)
    # per seed f(x0), each logged row and the final row; once more for the bound
    assert f2_evals["eval"] == 20 * (1 + logged + 1) + 1


def test_ars_bound_check_equals_its_per_seed_loop_logging_every_row():
    fn = bench_function("f2", 30)
    cfg = ArsConfig(L_hat=fn.L, q=5, algo="ars", budget=100 * 5, oracle_mode="exact",
                    tau_hat=fn.tau)
    traces = [run_ars(fn.as_objective(), cfg, seed) for seed in range(20)]
    checks = check_ars_bound(30, 5, (40, 100), seeds=range(20))
    assert [c.observed for c in checks] == [
        float(np.mean([tr.rows[T][3] - fn.f_star for tr in traces])) for T in (40, 100)]


# The Monte-Carlo checks as they were written before they built frames in
# blocks: one build_frame and one set of single-frame estimates per sample.
# The block versions must return the same floats, bit for bit.

def _ref_exact_probes(frame, grad):
    pd = float(frame.prior @ grad) if frame.prior is not None else None
    return ProbeSet(frame=frame, prior_deriv=pd, dir_derivs=frame.directions @ grad)


def ref_mc_drift(d, q, n_samples, rng, D_fixed):
    grad = sample_unit_sphere(rng, d)
    prior = None if D_fixed is None else _prior_with_quality(grad, D_fixed, rng)
    cs = np.empty(n_samples)
    for i in range(n_samples):
        frame = build_frame(rng, d, q, prior=prior)
        cs[i] = cos_sq(grad, subspace_estimate(_ref_exact_probes(frame, grad)))
    return float(cs.mean()), float(cs.std(ddof=1) / np.sqrt(n_samples))


def ref_mc_g2_moments(d, q, D, n_samples, rng, variance_reduced=False):
    grad = 2.0 * sample_unit_sphere(rng, d)
    prior = _prior_with_quality(grad, D, rng)
    acc = np.zeros(d)
    norm_sq = 0.0
    for _ in range(n_samples):
        if variance_reduced:
            frame = build_frame(rng, d, q)
            g2 = g2_variance_reduced(_ref_exact_probes(frame, grad), prior, float(prior @ grad))
        else:
            frame = build_frame(rng, d, q, prior=prior)
            g2 = g2_unbiased(_ref_exact_probes(frame, grad))
        acc += g2
        norm_sq += g2 @ g2
    mean = acc / n_samples
    gn2 = float(grad @ grad)
    return (float(np.linalg.norm(mean - grad) / np.sqrt(gn2)), float(norm_sq / n_samples / gn2))


# 1037 samples: several whole blocks and a partial one
@pytest.mark.parametrize("seed", [0, 1])
def test_rgf_drift_equals_per_sample_loop(seed):
    assert mc_rgf_drift(50, 5, 1037, RngHandle(seed)) == ref_mc_drift(50, 5, 1037,
                                                                        RngHandle(seed), None)


@pytest.mark.parametrize("D", [0.25, 0.9])
def test_prgf_drift_equals_per_sample_loop(D):
    assert (mc_prgf_drift(101, 10, D, 1037, RngHandle(3))
            == ref_mc_drift(101, 10, 1037, RngHandle(3), D))


@pytest.mark.parametrize("variance_reduced", [False, True])
@pytest.mark.parametrize("D,n", [(0.0, 1037), (0.5, 1037), (1.0, 200), (0.5, 1)])
def test_g2_moments_equal_per_sample_loop(variance_reduced, D, n):
    assert (mc_g2_moments(20, 4, D, n, RngHandle(5), variance_reduced=variance_reduced)
            == ref_mc_g2_moments(20, 4, D, n, RngHandle(5), variance_reduced=variance_reduced))


def test_mc_at_full_span_equals_per_sample_loop():
    # q = d, where every frame spans the space and g1 equals grad up to rounding
    assert mc_rgf_drift(3, 3, 1000, RngHandle(0)) == ref_mc_drift(3, 3, 1000, RngHandle(0), None)
    assert (mc_g2_moments(6, 2, 0.5, 1000, RngHandle(0))
            == ref_mc_g2_moments(6, 2, 0.5, 1000, RngHandle(0)))


@pytest.mark.parametrize("check,args,kwargs,rows", [
    (mc_rgf_drift, (50, 5, 1000), {}, 5),                  # AC02 and perfbench
    (mc_rgf_drift, (101, 10, 1000), {}, 10),
    (mc_prgf_drift, (101, 10, 0.5, 1000), {}, 11),         # AC03 and perfbench
    (mc_g2_moments, (20, 4, 0.5, 1000), {}, 5),            # AC05 and perfbench
    (mc_g2_moments, (20, 4, 0.5, 1000), {"variance_reduced": True}, 4),
])
def test_monte_carlo_blocks_hold_at_most_the_block_values(monkeypatch, check, args, kwargs,
                                                          rows):
    # a block counts the rows its frames allocate, prior included, so that its
    # (n, rows, d) array stays within MC_BLOCK_VALUES doubles
    shapes = []

    def recording(*a, **kw):
        frames = build_frames(*a, **kw)
        shapes.append(frames.stacked().shape)
        return frames
    monkeypatch.setattr(pgzo.diagnostics, "build_frames", recording)
    check(*args, RngHandle(0), **kwargs)
    assert {shape[1:] for shape in shapes} == {(rows, args[0])}
    assert sum(shape[0] for shape in shapes) == args[-1] and len(shapes) > 1
    values = [n * rows * args[0] for n, _, _ in shapes]
    assert max(values) <= pgzo.diagnostics.MC_BLOCK_VALUES
    # and a block holds as many frames as fit
    assert values[0] + rows * args[0] > pgzo.diagnostics.MC_BLOCK_VALUES


@pytest.mark.parametrize("n", [0, -1])
def test_g2_moments_need_a_sample(n):
    with pytest.raises(ConfigError, match="n_samples"):
        mc_g2_moments(20, 4, 0.5, n, RngHandle(0))


@pytest.mark.parametrize("D", [-0.1, 1.5, math.nan])
def test_prior_quality_outside_unit_interval_is_a_config_error(D):
    with pytest.raises(ConfigError, match="prior quality"):
        mc_g2_moments(20, 4, D, 100, RngHandle(0))
    with pytest.raises(ConfigError, match="prior quality"):
        mc_g2_moments(20, 4, D, 100, RngHandle(0), variance_reduced=True)
    with pytest.raises(ConfigError, match="prior quality"):
        mc_prgf_drift(20, 4, D, 1000, RngHandle(0))


@pytest.mark.parametrize("kwargs", [{"n_trials": 0}, {"n_vectors": 0}, {"n_trials": -2},
                                    {"n_trials": 2.5}, {"n_vectors": 1.5}, {"n_trials": True}])
def test_optimality_margin_needs_trials_and_vectors(kwargs):
    args = dict({"n_vectors": 100, "n_trials": 20}, **kwargs)
    with pytest.raises(ConfigError, match="n_trials and n_vectors"):
        subspace_optimality_margin(5, 2, args["n_vectors"], RngHandle(0), n_trials=args["n_trials"])


@pytest.mark.parametrize("iterations", [0, 1])
def test_lemma36_needs_two_iterations(iterations):
    with pytest.raises(ConfigError, match="iterations"):
        check_lemma36(20, 4, 10.0, iterations, seed=0)
