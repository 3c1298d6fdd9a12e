"""Cross-module invariants: accounting details, drift compensation, and the
smooth-convex greedy bound at the documented iteration counts."""

import dataclasses

import numpy as np
import pytest

import pgzo.core
import pgzo.trace
from pgzo.ars import ArsConfig, run_ars
from pgzo.bench import ALGO_PRIORS, ARS_ALGOS, RunConfig, run_single
from pgzo.core import ConfigError, OracleFailureError, OracleHandle, RngHandle
from pgzo.diagnostics import check_theorem_bounds
from pgzo.frames import build_frame, estimate_grad_norm_sq, probe
from pgzo.greedy import GreedyConfig, run_greedy
from pgzo.testfns import bench_function

from test_core import helper_threads


def test_fn_eval_accounting_fd_probes():
    # forward differences share one base evaluation per iteration:
    # q+1 evals without a prior, q+2 with one
    fn = bench_function("f2", 30)
    obj = fn.as_objective()
    cfg = GreedyConfig(L_hat=2.0, q=7, algo="rgf", budget=7 * 50, diagnostics=False)
    tr = run_greedy(obj, cfg, 0)
    assert tr.rows[-1][2] == 50 * 8
    cfg = GreedyConfig(L_hat=2.0, q=7, algo="history_prgf", budget=8 * 50, diagnostics=False)
    tr = run_greedy(obj, cfg, 0)
    assert tr.rows[-1][2] == 50 * 9


def test_restart_charges_one_eval_in_exact_mode():
    # with an exact oracle nothing ever evaluates f, so the restart check
    # must buy its own function value each iteration
    fn = bench_function("f2", 20)
    cfg = ArsConfig(L_hat=2.0, q=5, algo="ars", budget=5 * 30, restart=True,
                    oracle_mode="exact", diagnostics=False)
    tr = run_ars(fn.as_objective(), cfg, 0)
    assert tr.rows[-1][2] == 30
    cfg = ArsConfig(L_hat=2.0, q=5, algo="ars", budget=5 * 30, restart=False,
                    oracle_mode="exact", diagnostics=False)
    tr = run_ars(fn.as_objective(), cfg, 0)
    assert tr.rows[-1][2] == 0


def test_queries_strictly_increasing_in_traces():
    fn = bench_function("f2", 25)
    cfg = GreedyConfig(L_hat=2.0, q=5, budget=5 * 40, diagnostics=False)
    tr = run_greedy(fn.as_objective(), cfg, 0)
    qs = tr.column("dd_queries")
    assert np.all(np.diff(qs) > 0)


def test_grad_norm_estimate_unbiased_mc():
    # 20000 frames at d=20, q=5: the mean lands within 3 standard errors
    d, q, n = 20, 5, 20000
    rng = RngHandle(31)
    grad = rng.gen.standard_normal(d) * 1.7
    target = float(grad @ grad)
    vals = np.empty(n)
    prior = rng.gen.standard_normal(d)
    for i in range(n):
        frame = build_frame(rng, d, q, prior=prior)
        pd = float(frame.prior @ grad)
        from pgzo.frames import ProbeSet
        ps = ProbeSet(frame=frame, prior_deriv=pd, dir_derivs=frame.directions @ grad)
        vals[i] = estimate_grad_norm_sq(ps)
    se = vals.std(ddof=1) / np.sqrt(n)
    assert abs(vals.mean() - target) <= 3 * se
    assert abs(vals.mean() - target) / target < 0.01


def test_smooth_convex_bound_documented_horizons():
    # seed-averaged delta_T against 2 L' (d/q) R^2 / (T+1) with 20% slack
    checks = check_theorem_bounds(50, 5, [50, 100], seeds=range(20))
    smooth = [c for c in checks if c.name == "smooth_convex_rate"]
    assert {c.T for c in smooth} == {50, 100}
    assert all(c.ok for c in smooth)


def test_history_prgf_compensates_conservative_learning_rate():
    # greedy invariant: at L̂ = 50 L and q/d = 0.02 the running mean of C_t
    # over the last half of a 500-iteration run exceeds 5 q/d
    d, q = 250, 5
    fn = bench_function("f2", d)
    cfg = GreedyConfig(L_hat=50 * fn.L, q=q, algo="history_prgf",
                       budget=(q + 1) * 500, oracle_mode="exact", diagnostics=True,
                       log_every=1)
    tr = run_greedy(fn.as_objective(), cfg, seed=0)
    c = tr.column("C_t")[:-1]
    assert len(c) == 500
    late_mean = float(np.nanmean(c[250:]))
    assert late_mean > 5 * q / d, f"late C_t mean {late_mean} too small"


def test_history_pars_robust_to_conservative_learning_rate():
    # at a 50x conservative learning rate, the history-guided momentum method
    # reaches the target within 2x the queries of the optimally tuned baseline
    from pgzo.bench import RunConfig, run_single

    def reach(algo, q, scale):
        out = []
        for s in range(5):
            cfg = RunConfig(function="f2", dim=100, algo=algo, q=q, budget=400000,
                            lhat_scale=scale, restart=True, target_log10=-2.0,
                            stop_on_target=True, log_every=32, diagnostics=False,
                            seeds=(s,))
            out.append(run_single(cfg, s).reached_queries)
        assert all(r is not None for r in out)
        return float(np.mean(out))

    baseline = reach("ars", 11, 1.0)
    robust = reach("history_pars", 10, 50.0)
    assert robust <= 2.0 * baseline, (robust, baseline)


def test_f2_biased_prior_ordering():
    # adaptive theta beats the naive prior plug-in, which beats no prior
    from pgzo.bench import RunConfig, run_single

    final = {}
    for algo, q, prior in (("ars", 11, "none"), ("pars_naive", 10, "biased"),
                           ("pars_impl", 8, "biased")):
        vals = []
        for s in range(5):
            cfg = RunConfig(function="f2", dim=128, algo=algo, q=q, prior=prior,
                            budget=11 * 1500, lhat_scale=1.0, tau_hat="true",
                            log_every=16, diagnostics=False, seeds=(s,))
            vals.append(run_single(cfg, s).rows[-1][4])
        final[algo] = float(np.mean(vals))
    assert final["pars_impl"] < final["pars_naive"] < final["ars"], final


def test_conservative_theta_at_least_half_of_plain():
    # on matched probe values the factor-2 denominator costs at most half
    from pgzo.ars import theta_from_D
    from pgzo.frames import ProbeSet, estimate_Dt

    rng = RngHandle(13)
    d, q = 30, 6
    for _ in range(100):
        frame = build_frame(rng, d, q, prior=rng.gen.standard_normal(d))
        grad = rng.gen.standard_normal(d)
        ps = ProbeSet(frame=frame, prior_deriv=float(frame.prior @ grad),
                      dir_derivs=frame.directions @ grad)
        plain = theta_from_D(estimate_Dt(ps), q, d, 2.0)
        cons = theta_from_D(estimate_Dt(ps, conservative=True), q, d, 2.0)
        assert cons >= 0.5 * plain - 1e-18
        assert cons <= plain + 1e-18


def test_variance_reduced_g2_exact_when_prior_parallel():
    # gradient parallel to the prior cancels the random part exactly
    from pgzo.frames import ProbeSet, g2_variance_reduced

    rng = RngHandle(14)
    d, q = 20, 4
    p = rng.gen.standard_normal(d)
    p /= np.linalg.norm(p)
    grad = 3.0 * p
    for _ in range(50):
        frame = build_frame(rng, d, q)
        ps = ProbeSet(frame=frame, prior_deriv=None, dir_derivs=frame.directions @ grad)
        g2 = g2_variance_reduced(ps, p, float(p @ grad))
        np.testing.assert_allclose(g2, grad, atol=1e-12)


def test_probe_base_cache_shared_within_iteration():
    fn = bench_function("f2", 15)
    oracle = OracleHandle(fn.as_objective(), mu=1e-6)
    rng = RngHandle(2)
    x = fn.x0.copy()
    probe(oracle, x, build_frame(rng, 15, 4))
    assert oracle.fn_evals == 5
    probe(oracle, x, build_frame(rng, 15, 4))  # same base point: no new base eval
    assert oracle.fn_evals == 9


# -- the run driver both families share ----------------------------------------

@pytest.mark.parametrize("mode", ["fd", "exact"])
@pytest.mark.parametrize("algo", list(ALGO_PRIORS))
def test_run_driver_contract(monkeypatch, algo, mode):
    spent = []
    dd = OracleHandle.directional_derivatives

    def counting(self, x, directions):
        spent.append(directions.shape[0])
        return dd(self, x, directions)
    monkeypatch.setattr(OracleHandle, "directional_derivatives", counting)

    fn = bench_function("f2", 20)
    cfg = RunConfig(function="f2", dim=20, algo=algo, q=4, budget=600, lhat_scale=1.0,
                    oracle_mode=mode, diagnostics=True, restart=algo in ARS_ALGOS)
    full = run_single(cfg, 5)
    iterations = full.rows[-1][0]
    assert iterations == len(full.rows) - 1 > 6
    assert full.rows[0][:2] == (0, 0) and full.rows[0][3] == full.f0 == fn.eval(fn.x0)
    assert full.final_queries == sum(spent)
    assert len(full.guess_passes) == (iterations if algo == "pars_est" else 0)

    thinned = run_single(dataclasses.replace(cfg, log_every=3), 5)
    # repr: exact for floats, and NaN diagnostics compare equal
    kept = [r for r in full.rows[:-1] if r[0] % 3 == 0] + [full.rows[-1]]
    assert repr(thinned.rows) == repr(kept)
    # every step counts, logged or thinned away
    assert (thinned.restarts, thinned.guess_passes) == (full.restarts, full.guess_passes)

    # stop at the first row whose error reaches that of a row midway through
    target = full.rows[iterations // 2][4]
    first = next(i for i, r in enumerate(full.rows) if r[4] <= target)
    stopped = run_single(dataclasses.replace(cfg, target_log10=target, stop_on_target=True), 5)
    assert stopped.reached_queries == full.rows[first][1]
    assert repr(stopped.rows[:-1]) == repr(full.rows[:first + 1])
    assert repr(stopped.rows[-1][:5]) == repr(full.rows[first + 1][:5])
    assert len(stopped.guess_passes) == (first + 1 if algo == "pars_est" else 0)


@pytest.mark.parametrize("log_every", [0, -1])
def test_log_every_below_one_rejected(log_every):
    for family in (GreedyConfig, ArsConfig):
        with pytest.raises(ConfigError, match="log_every"):
            family(L_hat=2.0, q=3, budget=30, log_every=log_every)


# -- normal read-ahead -----------------------------------------------------------

def force_read_ahead(monkeypatch, on: bool) -> list:
    """Read ahead in every run (on) or in none; a 7-value chunk makes frame
    draws cross chunk boundaries at every offset. Returns the streams started."""
    started = []

    class Counted(pgzo.core.NormalStream):
        def __init__(self, bit_generator):
            started.append(self)
            super().__init__(bit_generator)
    monkeypatch.setattr(pgzo.trace, "READ_AHEAD_MIN_BLOCK", 0 if on else 1 << 62)
    monkeypatch.setattr(pgzo.trace, "NormalStream", Counted)
    monkeypatch.setattr(pgzo.core, "READ_AHEAD_CHUNK", 7)
    return started


@pytest.mark.parametrize("mode", ["fd", "exact"])
@pytest.mark.parametrize("algo", list(ALGO_PRIORS))
def test_read_ahead_keeps_traces_bit_identical(monkeypatch, algo, mode):
    cfg = RunConfig(function="f2", dim=20, algo=algo, q=4, budget=600, lhat_scale=1.0,
                    oracle_mode=mode, diagnostics=True, restart=algo in ARS_ALGOS)

    def runs(on):
        started = force_read_ahead(monkeypatch, on)
        full = run_single(cfg, 5)
        target = full.rows[len(full.rows) // 2][4]
        stopped = run_single(dataclasses.replace(cfg, target_log10=target,
                                                 stop_on_target=True), 5)
        assert len(started) == (2 if on else 0)
        # repr: exact for floats, and NaN diagnostics compare equal
        return repr([(tr.rows, tr.reached_queries, tr.restarts, tr.guess_passes)
                     for tr in (full, stopped)])

    assert runs(True) == runs(False)
    assert not helper_threads()


def test_read_ahead_matrix_covers_restarts_and_early_stops():
    # the cases above are not vacuous: ARS restarts happen and the target
    # run stops early
    cfg = RunConfig(function="f2", dim=20, algo="ars", q=4, budget=600, lhat_scale=1.0,
                    diagnostics=True, restart=True)
    full = run_single(cfg, 5)
    assert full.restarts > 0
    stopped = run_single(dataclasses.replace(cfg, target_log10=full.rows[len(full.rows) // 2][4],
                                             stop_on_target=True), 5)
    assert stopped.final_queries < full.final_queries


def _watched_f2(seen, fail_after=None):
    """f2 at d=20 whose batch evaluation records whether a helper thread is
    alive, and returns NaN from call ``fail_after`` on."""
    fn = bench_function("f2", 20)

    def eval_batch(pts):
        seen.append(bool(helper_threads()))
        if fail_after is not None and len(seen) > fail_after:
            return np.full(len(pts), np.nan)
        return fn.eval_batch(pts)
    return fn, dataclasses.replace(fn.as_objective(), eval_batch=eval_batch)


@pytest.mark.parametrize("family", ["greedy", "ars"])
def test_no_helper_thread_outlives_a_run(monkeypatch, family):
    force_read_ahead(monkeypatch, True)

    def run(obj, fn, **kw):
        if family == "greedy":
            return run_greedy(obj, GreedyConfig(L_hat=fn.L, q=4, budget=4 * 60, **kw), 0)
        return run_ars(obj, ArsConfig(L_hat=fn.L, q=4, budget=4 * 60, restart=True, **kw), 0)

    seen = []
    fn, obj = _watched_f2(seen)
    full = run(obj, fn)                      # the budget runs out
    assert full.final_queries == 240 and seen and all(seen)
    assert not helper_threads()

    seen.clear()
    stopped = run(obj, fn, target_log10=full.rows[10][4], stop_on_target=True)
    assert stopped.final_queries < 240 and all(seen)
    assert not helper_threads()

    seen.clear()
    fn, obj = _watched_f2(seen, fail_after=5)
    with pytest.raises(OracleFailureError):
        run(obj, fn)
    assert len(seen) == 6 and all(seen)
    assert not helper_threads()
