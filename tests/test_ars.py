import math
import warnings

import numpy as np
import pytest

from pgzo import ars
from pgzo.ars import (ArsConfig, ArsState, alpha_beta_gamma, maybe_restart, run_ars,
                      theta_floor, theta_from_D)
from pgzo.core import (ConfigError, InvalidPriorError, ObjectiveSpec, OracleFailureError,
                       OracleHandle, RngHandle)
from pgzo.greedy import GreedyConfig, run_greedy
from pgzo.testfns import bench_function, biased_prior_feed


def biased_feed(fn, seed=99):
    return biased_prior_feed(fn, RngHandle(seed))


# -- theta and the momentum coefficients ---------------------------------------

def test_theta_tabulated_values():
    assert theta_from_D(0.0, 10, 101, 1.0) == pytest.approx(0.01, abs=1e-15)
    assert theta_from_D(1.0, 10, 101, 1.0) == pytest.approx(1.0, abs=1e-15)
    assert theta_from_D(1.0, 3, 40, 2.5) == pytest.approx(1 / 2.5, abs=1e-15)
    assert theta_from_D(0.5, 10, 101, 1.0) == pytest.approx(0.1, abs=1e-15)


def test_theta_monotone_in_D():
    vals = [theta_from_D(D, 5, 60, 2.0) for D in np.linspace(0, 1, 30)]
    assert np.all(np.diff(vals) >= 0)


def test_theta_domain_checked():
    with pytest.raises(ConfigError):
        theta_from_D(-0.1, 5, 60, 2.0)
    with pytest.raises(ConfigError):
        theta_from_D(1.1, 5, 60, 2.0)


def test_alpha_golden_ratio_case():
    # theta*gamma = 1, tau=0: alpha solves alpha^2 + alpha - 1 = 0
    alpha, beta, gamma_next = alpha_beta_gamma(0.5, 2.0, 0.0)
    assert alpha == pytest.approx((math.sqrt(5) - 1) / 2, abs=1e-14)
    assert beta == pytest.approx(alpha)
    assert gamma_next == pytest.approx((1 - alpha) * 2.0)


def test_alpha_zero_theta():
    assert alpha_beta_gamma(0.0, 3.0, 0.0) == (0.0, 0.0, 3.0)


@pytest.mark.parametrize("theta,gamma,tau", [(2.5e-298, 2.5e-298, 2.5e-298),
                                             (5e-324, 1.0, 0.0), (1e-200, 1e-200, 0.0)])
def test_alpha_rejects_underflowing_theta_gamma(theta, gamma, tau):
    # theta*gamma below the normal range: the root is lost (0/0 at zero)
    with pytest.raises(ConfigError, match="normal float range"):
        alpha_beta_gamma(theta, gamma, tau)


def test_gamma_fixed_point_at_critical_coupling():
    # tau = gamma: gamma_next = (1-a)g + a*g = g for any alpha
    alpha, _, gamma_next = alpha_beta_gamma(0.3, 1.5, 1.5)
    assert gamma_next == pytest.approx(1.5, abs=1e-14)
    assert alpha > 0


@pytest.mark.parametrize("theta,gamma,tau", [(0.01, 2.0, 0.0), (0.4, 1.0, 0.2),
                                             (1e-6, 5.0, 0.0), (0.9, 0.5, 0.5)])
def test_alpha_root_residual(theta, gamma, tau):
    alpha, beta, gamma_next = alpha_beta_gamma(theta, gamma, tau)
    residual = alpha ** 2 - theta * ((1 - alpha) * gamma + alpha * tau)
    assert abs(residual) <= 1e-12 * max(1.0, alpha ** 2)
    assert 0.0 <= alpha < 1.0
    assert gamma_next > 0.0


def test_gamma_nonincreasing_when_tau_zero():
    gamma = 2.0
    for _ in range(50):
        _, _, nxt = alpha_beta_gamma(0.05, gamma, 0.0)
        assert nxt <= gamma
        gamma = nxt


# -- per-variant accounting ----------------------------------------------------

@pytest.mark.parametrize("variant,q,cost", [("ars", 11, 11), ("pars_naive", 10, 11),
                                            ("pars_impl", 8, 11), ("history_pars", 10, 11)])
def test_query_cost_per_iteration(variant, q, cost):
    fn = bench_function("f2", 40)
    feed = biased_feed(fn) if variant in ("pars_naive", "pars_impl") else None
    cfg = ArsConfig(L_hat=2.0, q=q, algo=variant, budget=cost * 100, diagnostics=False)
    trace = run_ars(fn.as_objective(), cfg, seed=0, prior_feed=feed)
    assert trace.rows[-1][0] == 100
    assert trace.final_queries == cost * 100


def test_pars_est_accounting_formula():
    fn = bench_function("f2", 40)
    cfg = ArsConfig(L_hat=2.0, q=10, algo="pars_est", budget=33 * 60, diagnostics=False)
    trace = run_ars(fn.as_objective(), cfg, seed=0, prior_feed=biased_feed(fn))
    analytic = sum((2 + g) * 11 for g in trace.guess_passes)
    assert trace.final_queries == analytic
    assert all(g >= 1 for g in trace.guess_passes)


def test_budget_never_exceeded():
    fn = bench_function("f2", 40)
    for variant, q in [("ars", 11), ("history_pars", 10), ("pars_est", 10)]:
        feed = biased_feed(fn) if variant == "pars_est" else None
        cfg = ArsConfig(L_hat=2.0, q=q, algo=variant, budget=500, diagnostics=False)
        trace = run_ars(fn.as_objective(), cfg, seed=1, prior_feed=feed)
        assert trace.final_queries <= 500


# -- variant behavior ----------------------------------------------------------

def test_history_pars_first_iteration_is_stationary():
    # m_0 = x_0 makes y_0 = x_0 whatever theta_0 is
    fn = bench_function("f2", 20)
    cfg = ArsConfig(L_hat=2.0, q=5, algo="history_pars", budget=6, diagnostics=False)
    trace = run_ars(fn.as_objective(), cfg, seed=0)
    # single iteration: x_1 = y_0 - g1/L̂ with y_0 = x_0; f must not increase
    assert trace.rows[-1][3] <= trace.rows[0][3] + 1e-9


def test_theta_floor_across_run():
    fn = bench_function("f2", 60)
    d = 60
    for variant, q in [("pars_impl", 8), ("pars_est", 10), ("history_pars", 10)]:
        feed = biased_feed(fn) if variant in ("pars_impl", "pars_est") else None
        cfg = ArsConfig(L_hat=2.0, q=q, algo=variant, budget=40 * (3 * (q + 1)),
                        diagnostics=False)
        trace = run_ars(fn.as_objective(), cfg, seed=2, prior_feed=feed)
        thetas = trace.column("theta_t")
        thetas = thetas[~np.isnan(thetas)]
        assert thetas.size > 0
        assert np.all(thetas >= theta_floor(q, d, 2.0) - 1e-15)


def test_history_pars_logs_the_theta_each_step_ran_with(monkeypatch):
    # History-PARS calls alpha_beta_gamma once per step, with the theta it
    # runs at; row t must log that theta, and the first one is the floor
    used = []

    def spy(theta, gamma, tau_hat):
        used.append(theta)
        return alpha_beta_gamma(theta, gamma, tau_hat)
    monkeypatch.setattr(ars, "alpha_beta_gamma", spy)
    d, q = 60, 10
    fn = bench_function("f2", d)
    cfg = ArsConfig(L_hat=2.0, q=q, algo="history_pars", budget=(q + 1) * 40,
                    diagnostics=False)
    trace = run_ars(fn.as_objective(), cfg, seed=0)
    logged = trace.column("theta_t")
    assert len(used) == 40 and math.isnan(logged[-1])
    assert logged[:-1].tolist() == used
    assert used[0] == theta_floor(q, d, 2.0)
    assert min(used) >= theta_floor(q, d, 2.0)


def test_history_pars_at_d_1_is_a_config_error():
    # no theta floor exists at d = 1 (q <= d-1 = 0 fails)
    obj = ObjectiveSpec(dim=1, eval=lambda x: float(x @ x), x0=np.ones(1))
    cfg = ArsConfig(L_hat=2.0, q=1, algo="history_pars", budget=20, diagnostics=False)
    with pytest.raises(ConfigError, match="d-1"):
        run_ars(obj, cfg, seed=0)


def test_pars_impl_dhat_clipped():
    fn = bench_function("f2", 30)
    cfg = ArsConfig(L_hat=2.0, q=8, algo="pars_impl", budget=11 * 60, diagnostics=False)
    obj = fn.as_objective()
    # perfect prior: estimated quality must still be clipped at B_UB = 0.6
    feed = lambda x: fn.grad(x)
    trace = run_ars(obj, cfg, seed=0, prior_feed=feed)
    assert trace.final_queries == 11 * 60
    from pgzo.ars import _step_pars_impl  # check the clip directly
    state = ArsState(x=obj.x0.copy(), m=obj.x0.copy(), gamma=cfg.L_hat)
    oracle = OracleHandle(obj, mode="exact")
    rng = RngHandle(0)
    for _ in range(5):
        row = _step_pars_impl(state, oracle, cfg, rng, fn.grad(state.x))
        # theta rises strictly with D, so this bounds D̂ by B_UB = 0.6
        assert row.theta <= theta_from_D(ars.B_UB, 8, 30, 2.0)


def test_restart_resets_momentum():
    cfg = ArsConfig(L_hat=1.0, q=2, algo="ars", budget=100, restart=True)
    state = ArsState(x=np.array([1.0, 2.0]), m=np.array([5.0, 5.0]), gamma=0.25)
    state.last_f_y = 1.0
    assert not maybe_restart(state, 0.9, cfg)          # decreased: no restart
    assert state.gamma == 0.25
    assert maybe_restart(state, 1.5, cfg)              # increased: restart
    np.testing.assert_array_equal(state.m, state.x)
    assert state.gamma == 1.0
    assert state.last_f_y == 1.5


def test_strictly_decreasing_sequence_never_restarts():
    cfg = ArsConfig(L_hat=1.0, q=2, algo="ars", budget=100, restart=True)
    state = ArsState(x=np.zeros(2), m=np.zeros(2), gamma=1.0)
    for f_y in np.linspace(10.0, 1.0, 40):
        assert not maybe_restart(state, float(f_y), cfg)


def test_restart_count_recorded_in_trace(monkeypatch):
    restarts = []

    def spy(*args):
        restarts.append(maybe_restart(*args))
        return restarts[-1]
    monkeypatch.setattr(ars, "maybe_restart", spy)
    fn = bench_function("f2", 30)
    # L̂ = L/2 overshoots, so f(y_t) rises now and then
    cfg = ArsConfig(L_hat=1.0, q=5, algo="history_pars", budget=6 * 80, restart=True,
                    diagnostics=False)
    trace = run_ars(fn.as_objective(), cfg, seed=0)
    assert len(restarts) == 80
    assert trace.restarts == sum(restarts) > 0


def test_run_deterministic():
    fn = bench_function("f1", 32)
    cfg = ArsConfig(L_hat=fn.L, q=4, algo="history_pars", budget=5 * 50, diagnostics=False)
    a = run_ars(fn.as_objective(), cfg, seed=5)
    b = run_ars(fn.as_objective(), cfg, seed=5)
    assert a.rows == b.rows


def test_full_basis_ars_matches_first_order_momentum():
    # q = d and an exact oracle make g1 the true gradient, so the trajectory
    # reproduces the deterministic accelerated method step for step
    d = 6
    fn = bench_function("f2", d)
    obj = fn.as_objective()
    cfg = ArsConfig(L_hat=2.0, q=d, algo="ars", budget=d * 40, oracle_mode="exact",
                    diagnostics=False)
    trace = run_ars(obj, cfg, seed=0)

    theta = d * d / (2.0 * d * d)  # q^2/(L̂ d^2) with q=d
    x = obj.x0.copy()
    m = obj.x0.copy()
    gamma = cfg.L_hat
    for _ in range(40):
        alpha, beta, gamma = alpha_beta_gamma(theta, gamma, 0.0)
        y = (1 - beta) * x + beta * m
        g = fn.grad(y)
        x = y - g / 2.0
        m = m - (theta / alpha) * (d / d) * g
    assert trace.final_f == pytest.approx(fn.eval(x), rel=1e-10)


def test_full_basis_ars_matches_the_momentum_recursion_at_positive_tau_hat():
    # As above, but at taû = tau > 0, where beta, gamma and lambda all enter;
    # alpha, beta, gamma and lambda come from the paper's formulas here, not
    # from alpha_beta_gamma.
    d, T = 6, 25
    fn = bench_function("f2", d)
    obj = fn.as_objective()
    tau_hat = fn.tau
    cfg = ArsConfig(L_hat=fn.L, q=d, algo="ars", budget=d * T, tau_hat=tau_hat,
                    oracle_mode="exact", diagnostics=False)
    trace = run_ars(obj, cfg, seed=0)

    theta = 1.0 / fn.L  # q^2/(L̂ d^2) with q = d
    x = obj.x0.copy()
    m = obj.x0.copy()
    gamma = fn.L  # gamma0 defaults to L̂
    f_values = [fn.eval(x)]
    for _ in range(T):
        # alpha > 0 solves alpha^2 + theta*(gamma - taû)*alpha - theta*gamma = 0
        b = theta * (gamma - tau_hat)
        alpha = (-b + math.sqrt(b * b + 4.0 * theta * gamma)) / 2.0
        beta = alpha * gamma / (gamma + alpha * tau_hat)
        gamma_next = (1.0 - alpha) * gamma + alpha * tau_hat
        lam = alpha * tau_hat / gamma_next
        y = (1.0 - beta) * x + beta * m
        g = fn.grad(y)
        x = y - g / fn.L
        m = (1.0 - lam) * m + lam * y - (theta / alpha) * g
        gamma = gamma_next
        f_values.append(fn.eval(x))
    assert trace.column("iteration").tolist() == list(range(T + 1))
    np.testing.assert_allclose(trace.column("f_value"), f_values, rtol=1e-10, atol=0.0)


# -- trace values the step already paid for -------------------------------------

def _count_calls(monkeypatch, method="peek_function_value"):
    calls = []
    wrapped = getattr(OracleHandle, method)

    def counting(self, x):
        calls.append(1)
        return wrapped(self, x)
    monkeypatch.setattr(OracleHandle, method, counting)
    return calls


def _pars_run(variant, oracle_mode):
    fn = bench_function("f1", 40)
    q = 8 if variant == "pars_impl" else 10
    cfg = ArsConfig(L_hat=fn.L, q=q, algo=variant, budget=40 * 3 * (q + 1),
                    oracle_mode=oracle_mode, diagnostics=False)
    return run_ars(fn.as_objective(), cfg, seed=3, prior_feed=biased_feed(fn))


@pytest.mark.parametrize("variant", ["pars_impl", "pars_est"])
def test_fd_trace_reuses_base_value_of_first_query(monkeypatch, variant):
    # Row t logs the f(x_t) the step's first query at x_t differenced
    # against. Forgetting it after every step forces a fresh read instead;
    # both runs must log identical rows, counters included.
    peeks = _count_calls(monkeypatch)
    reused = _pars_run(variant, "fd")
    assert len(peeks) == 2  # f0 and the final row
    step = ars._STEPPERS[variant]

    def forgetful(state, *args):
        return step(state, *args)._replace(f=None)
    monkeypatch.setitem(ars._STEPPERS, variant, forgetful)
    peeks.clear()
    reread = _pars_run(variant, "fd")
    iterations = int(reread.rows[-1][0])
    assert iterations > 10
    assert len(peeks) == iterations + 2
    assert reused.rows == reread.rows


@pytest.mark.parametrize("variant", ["pars_impl", "pars_est"])
def test_exact_mode_trace_reads_every_iterate(monkeypatch, variant):
    peeks = _count_calls(monkeypatch)
    trace = _pars_run(variant, "exact")
    assert len(peeks) == int(trace.rows[-1][0]) + 2


@pytest.mark.parametrize("variant", ["ars", "pars_naive", "history_pars"])
def test_thinned_run_reads_only_logged_iterates(monkeypatch, variant):
    # These steps return f = None. With log_every=16 and no target,
    # f(x_t) is read for f0, each logged row and the final row only.
    peeks = _count_calls(monkeypatch)
    fn = bench_function("f1", 40)
    cfg = ArsConfig(L_hat=fn.L, q=5, algo=variant, budget=320 * 5, log_every=16,
                    diagnostics=False)
    trace = run_ars(fn.as_objective(), cfg, seed=0, prior_feed=biased_feed(fn))
    iterations = int(trace.rows[-1][0])
    assert iterations > 250 and len(trace.rows) == -(-iterations // 16) + 1
    assert len(peeks) == len(trace.rows) + 1


@pytest.mark.parametrize("oracle_mode", ["fd", "exact"])
@pytest.mark.parametrize("variant,exact_queries", [("ars", 0), ("pars_naive", 0),
                                                   ("history_pars", 0), ("pars_impl", 2)])
def test_diagnostics_compute_each_gradient_once(monkeypatch, variant, exact_queries,
                                                oracle_mode):
    # With diagnostics on, C_t/D_t reuse the gradient an exact probe answered
    # from; only fd runs ask for it separately. pars_impl's two fixed-point
    # queries along the prior read the exact gradient at their own points.
    grads = _count_calls(monkeypatch, "gradient_at")
    fn = bench_function("f1", 40)
    cfg = ArsConfig(L_hat=fn.L, q=5, algo=variant, budget=1200, oracle_mode=oracle_mode,
                    diagnostics=True)
    trace = run_ars(fn.as_objective(), cfg, seed=3, prior_feed=biased_feed(fn))
    iterations = int(trace.rows[-1][0])
    assert iterations > 10
    per_iteration = 1 + (exact_queries if oracle_mode == "exact" else 0)
    assert len(grads) == per_iteration * iterations


def test_prior_feed_required():
    fn = bench_function("f2", 20)
    cfg = ArsConfig(L_hat=2.0, q=5, algo="pars_impl", budget=100)
    with pytest.raises(ConfigError, match="^pars_impl: .*requires a prior_feed"):
        run_ars(fn.as_objective(), cfg, seed=0)


@pytest.mark.parametrize("bad", [0.0, np.nan])
@pytest.mark.parametrize("algo", ["prgf", "pars_naive", "pars_impl", "pars_est"])
def test_invalid_prior_reported_as_such(algo, bad):
    fn = bench_function("f1", 50)
    q = 5
    feed = lambda x: np.full(50, bad)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidPriorError):
            if algo == "prgf":
                cfg = GreedyConfig(L_hat=fn.L, q=q, algo="prgf", budget=600)
                run_greedy(fn.as_objective(), cfg, 0, feed)
            else:
                cfg = ArsConfig(L_hat=fn.L, q=q, algo=algo, budget=600)
                run_ars(fn.as_objective(), cfg, 0, feed)


GREEDY_ALGOS = r"\('rgf', 'prgf', 'history_prgf'\)"
ARS_ALGOS = r"\('ars', 'pars_naive', 'pars_impl', 'pars_est', 'history_pars'\)"


def test_config_validation():
    # (family, settings, message): a wrong algo lists the family's algorithms
    for family, settings, match in [
            (ArsConfig, dict(L_hat=0.0), "L_hat"),
            (ArsConfig, dict(algo="nope"), "^nope: .*" + ARS_ALGOS),
            (ArsConfig, dict(algo="rgf"), "^rgf: .*" + ARS_ALGOS),
            (GreedyConfig, dict(algo="ars"), "^ars: .*" + GREEDY_ALGOS),
            (GreedyConfig, dict(algo="nope"), "^nope: .*" + GREEDY_ALGOS),
            (ArsConfig, dict(tau_hat=2.0), "tau_hat.*L_hat"),
            (GreedyConfig, dict(stop_on_target=True), "stop_on_target"),
            (ArsConfig, dict(stop_on_target=True), "stop_on_target")]:
        with pytest.raises(ConfigError, match=match):
            family(**{"L_hat": 1.0, "q": 5, "budget": 100, **settings})


def test_overflowed_history_pars_fails_as_an_oracle_failure():
    # L̂ = L/4: the run diverges and g1 overflows; the historical prior keeps
    # its last direction instead of becoming g1/inf = 0, so the divergence
    # ends in the oracle's failure, with its context, not in the next frame
    fn = bench_function("f2", 30)
    cfg = ArsConfig(L_hat=0.5, q=5, algo="history_pars", budget=480, restart=True)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(OracleFailureError,
                          match="^history_pars at iteration 38 after 228 dd-queries: "):
        run_ars(fn.as_objective(), cfg, 0)
