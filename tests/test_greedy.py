import math

import numpy as np
import pytest

from pgzo.core import ConfigError, ObjectiveSpec, OracleFailureError, OracleHandle, RngHandle
from pgzo.frames import build_frame, probe, subspace_estimate
from pgzo.greedy import GreedyConfig, GreedyState, greedy_step, run_greedy
from pgzo.testfns import bench_function


def half_norm_sq(d=2):
    return ObjectiveSpec(dim=d, eval=lambda x: 0.5 * float(x @ x),
                         true_gradient=lambda x: x.copy(),
                         f_star=0.0, x0=np.zeros(d))


def manual_step_along(v, x, obj, L_hat):
    """Expected greedy update for an exact oracle along one direction."""
    g = obj.true_gradient(x)
    return x - (g @ v) / L_hat * v


def test_step_full_alignment_reaches_optimum():
    # f = ||x||^2/2, frame direction +-e1 forced by d=2, q=1, prior=e2
    obj = half_norm_sq()
    oracle = OracleHandle(obj, mode="exact")
    cfg = GreedyConfig(L_hat=1.0, q=1, algo="prgf", budget=10)
    state = GreedyState(x=np.array([1.0, 0.0]))
    greedy_step(state, oracle, cfg, RngHandle(0), prior=np.array([0.0, 1.0]))
    # frame = {e2 prior, +-e1}: spans R^2, so g1 = grad and the step is exact
    np.testing.assert_allclose(state.x, [0.0, 0.0], atol=1e-12)


def test_step_returns_the_row_of_its_start():
    obj = half_norm_sq(4)
    oracle = OracleHandle(obj, mu=1e-6)
    cfg = GreedyConfig(L_hat=1.0, q=2, budget=10, diagnostics=True)
    x0 = np.array([1.0, -2.0, 0.5, 3.0])
    row = greedy_step(GreedyState(x=x0), oracle, cfg, RngHandle(0))
    # f(x_t) from the fd base query; C_t from the true gradient; no prior, no theta
    assert row.f == obj.eval(x0)
    assert 0.0 < row.C <= 1.0 and math.isnan(row.D) and math.isnan(row.theta)
    assert row.restarted is False and row.guess_passes is None


def test_step_diagonal_direction_drop():
    obj = half_norm_sq()
    x = np.array([1.0, 0.0])
    v = np.array([1.0, 1.0]) / np.sqrt(2.0)
    x_next = manual_step_along(v, x, obj, L_hat=1.0)
    np.testing.assert_allclose(x_next, [0.5, -0.5], atol=1e-15)
    drop = obj.eval(x) - obj.eval(x_next)
    assert drop == pytest.approx(0.25)  # (grad . v)^2 / (2 L) with equality


def test_zero_estimate_leaves_state_fixed():
    obj = ObjectiveSpec(dim=3, eval=lambda x: 1.0, true_gradient=lambda x: np.zeros(3),
                        x0=np.zeros(3))
    oracle = OracleHandle(obj, mode="exact")
    cfg = GreedyConfig(L_hat=1.0, q=2, algo="history_prgf", budget=10)
    state = GreedyState(x=np.ones(3), prior=np.array([1.0, 0.0, 0.0]))
    before = state.prior.copy()
    greedy_step(state, oracle, cfg, RngHandle(1), state.prior)
    np.testing.assert_array_equal(state.x, np.ones(3))
    np.testing.assert_array_equal(state.prior, before)  # zero g1 keeps the prior


def test_run_iteration_count_matches_budget():
    fn = bench_function("f2", 40)
    cfg = GreedyConfig(L_hat=2.0, q=10, algo="history_prgf", budget=11 * 37, diagnostics=False)
    trace = run_greedy(fn.as_objective(), cfg, seed=0)
    assert trace.rows[-1][0] == 37
    assert trace.final_queries == 11 * 37


def test_run_constant_function():
    obj = ObjectiveSpec(dim=5, eval=lambda x: 4.2, x0=np.ones(5))
    cfg = GreedyConfig(L_hat=1.0, q=2, budget=20)
    trace = run_greedy(obj, cfg, seed=3)
    fs = trace.column("f_value")
    assert np.all(fs == 4.2)


def test_budget_below_one_iteration_rejected():
    fn = bench_function("f2", 10)
    cfg = GreedyConfig(L_hat=2.0, q=5, budget=4)
    with pytest.raises(ConfigError, match="^rgf: budget 4 is below one iteration's cost 5$"):
        run_greedy(fn.as_objective(), cfg, seed=0)


# a run takes one seed: a list of seeds (what the removed lockstep stack
# took) would otherwise seed one generator from all of them
@pytest.mark.parametrize("algo", ["rgf", "history_prgf"])
@pytest.mark.parametrize("seed,message", [
    ([0, 1], "seed must be an integer, got [0, 1]"),
    (-1, "seed must be nonnegative, got -1"),
    (True, "seed must be an integer, got True"),
])
def test_a_run_takes_one_nonnegative_integer_seed_before_any_evaluation(algo, seed, message):
    fn = bench_function("f2", 10)
    calls = []

    def counted(x):
        calls.append(1)
        return fn.eval(x)
    obj = ObjectiveSpec(dim=10, eval=counted, true_gradient=fn.grad, f_star=fn.f_star, x0=fn.x0)
    cfg = GreedyConfig(L_hat=fn.L, q=3, algo=algo, budget=60, oracle_mode="exact")
    with pytest.raises(ConfigError) as exc:
        run_greedy(obj, cfg, seed)
    assert str(exc.value) == message
    assert calls == []


def test_external_prior_requires_feed():
    fn = bench_function("f2", 10)
    cfg = GreedyConfig(L_hat=2.0, q=5, algo="prgf", budget=60)
    with pytest.raises(ConfigError, match="^prgf: .*requires a prior_feed"):
        run_greedy(fn.as_objective(), cfg, seed=0)


def test_monotone_descent_exact_oracle():
    fn = bench_function("f2", 30)
    cfg = GreedyConfig(L_hat=2.0, q=5, budget=5 * 200, oracle_mode="exact",
                       diagnostics=False)
    trace = run_greedy(fn.as_objective(), cfg, seed=1)
    fs = trace.column("f_value")
    assert np.all(np.diff(fs) <= 1e-12)


def test_near_monotone_descent_finite_differences():
    # forward differences allow slack L̂ mu^2-ish per step
    fn = bench_function("f2", 30)
    cfg = GreedyConfig(L_hat=2.0, q=5, budget=5 * 200, mu=1e-6, diagnostics=False)
    trace = run_greedy(fn.as_objective(), cfg, seed=1)
    fs = trace.column("f_value")
    assert np.all(np.diff(fs) <= 1e-9)


def test_bit_reproducible_runs():
    fn = bench_function("f1", 24)
    cfg = GreedyConfig(L_hat=fn.L, q=4, algo="history_prgf", budget=5 * 80)
    t1 = run_greedy(fn.as_objective(), cfg, seed=9)
    t2 = run_greedy(fn.as_objective(), cfg, seed=9)
    assert t1.rows == t2.rows


def test_historical_prior_is_previous_estimate_direction():
    fn = bench_function("f2", 12)
    obj = fn.as_objective()
    oracle = OracleHandle(obj, mode="exact")
    rng = RngHandle(4)
    cfg = GreedyConfig(L_hat=2.0, q=3, algo="history_prgf", budget=10 ** 6)
    state = GreedyState(x=obj.x0.copy(), prior=np.eye(12)[1])
    greedy_step(state, oracle, cfg, rng, state.prior)
    # replay the step's frame from the same seed to recover its g1
    frame = build_frame(RngHandle(4), 12, 3, prior=np.eye(12)[1])
    g1 = subspace_estimate(probe(OracleHandle(obj, mode="exact"), obj.x0, frame))
    np.testing.assert_allclose(state.prior, g1 / np.linalg.norm(g1), atol=1e-14)


def test_diagnostics_columns_populated():
    fn = bench_function("f2", 15)
    cfg = GreedyConfig(L_hat=2.0, q=4, algo="history_prgf", budget=5 * 20,
                       oracle_mode="exact", diagnostics=True)
    trace = run_greedy(fn.as_objective(), cfg, seed=0)
    c, d_col = trace.column("C_t"), trace.column("D_t")
    assert np.all((c[:-1] >= -1e-12) & (c[:-1] <= 1.0 + 1e-12))
    assert np.all((d_col[:-1] >= -1e-12) & (d_col[:-1] <= 1.0 + 1e-12))


def test_target_stops_early():
    fn = bench_function("f2", 20)
    cfg = GreedyConfig(L_hat=2.0, q=5, budget=5 * 10 ** 5, target_log10=-1.0,
                       stop_on_target=True, diagnostics=False)
    trace = run_greedy(fn.as_objective(), cfg, seed=0)
    assert trace.reached_queries is not None
    assert trace.final_queries < 5 * 10 ** 5
    assert trace.rows[-1][4] <= -1.0


def test_overflowed_history_prgf_fails_as_an_oracle_failure():
    # exact oracle at L̂ = L/4 diverges until g1 overflows; the historical
    # prior keeps its last direction, so the oracle's failure ends the run
    fn = bench_function("f2", 30)
    cfg = GreedyConfig(L_hat=0.5, q=5, algo="history_prgf", budget=6000, oracle_mode="exact")
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(OracleFailureError,
                          match="^history_prgf at iteration 339 after 2034 dd-queries: "):
        run_greedy(fn.as_objective(), cfg, 0)
