"""Bad numbers fail at the boundary as ConfigError: non-finite or
non-positive settings, settings of the wrong type (a bool is no count), a
missing, misshapen or non-finite x0 and a NaN target. C_t/D_t
are recorded only when asked, and asking without a true gradient fails before
any evaluation."""

import dataclasses
import math

import numpy as np
import pytest

from pgzo.ars import ArsConfig, run_ars
from pgzo.bench import RunConfig
from pgzo.core import (ConfigError, ObjectiveSpec, OracleHandle, UnsupportedDiagnosticError,
                       require_finite_positive, require_int_at_least)
from pgzo.greedy import GreedyConfig, run_greedy
from pgzo.testfns import bench_function

NON_FINITE = [math.nan, math.inf]
RUN = {"function": "f2", "dim": 10, "algo": "rgf", "q": 2, "budget": 10, "lhat": 1.0}


@pytest.mark.parametrize("value", [0.0, -1.0, -math.inf] + NON_FINITE)
def test_require_finite_positive_rejects(value):
    with pytest.raises(ConfigError, match="x must be finite and positive"):
        require_finite_positive("x", value)


def test_require_finite_positive_accepts_the_extremes():
    require_finite_positive("x", 5e-324)
    require_finite_positive("x", 1.7e308)


@pytest.mark.parametrize("value", NON_FINITE)
def test_greedy_config_rejects_non_finite_L_hat(value):
    with pytest.raises(ConfigError, match="L_hat"):
        GreedyConfig(L_hat=value, q=2, budget=10)


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("name", ["L_hat", "tau_hat"])
def test_ars_config_rejects_non_finite(name, value):
    with pytest.raises(ConfigError, match=f"{name} must be finite"):
        ArsConfig(**{"L_hat": 1.0, "q": 2, "budget": 10, name: value})


@pytest.mark.parametrize("mu", NON_FINITE)
def test_oracle_rejects_non_finite_mu(mu):
    with pytest.raises(ConfigError, match="mu"):
        OracleHandle(bench_function("f2", 3).as_objective(), mu=mu)


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("name", ["lhat", "lhat_scale"])
def test_run_config_rejects_non_finite_lhat(name, value):
    with pytest.raises(ConfigError, match=f"{name} must be finite"):
        RunConfig(function="f2", dim=10, algo="rgf", q=3, budget=100, **{name: value})


def test_run_config_takes_exactly_one_lhat():
    with pytest.raises(ConfigError, match="exactly one"):
        RunConfig(function="f2", dim=10, algo="rgf", q=3, budget=100, lhat=2.0,
                  lhat_scale=50.0)


@pytest.mark.parametrize("value", ["abc", "", "True", None])
def test_run_config_rejects_a_tau_hat_that_is_no_number(value):
    # only "true" or a number; run_single would otherwise fail on float(value)
    with pytest.raises(ConfigError, match="tau_hat must be a number or 'true'"):
        RunConfig(function="f2", dim=10, algo="ars", q=2, budget=100, lhat=1.0, tau_hat=value)


@pytest.mark.parametrize("value", NON_FINITE)
def test_objective_rejects_non_finite_x0(value):
    with pytest.raises(ConfigError, match="x0"):
        ObjectiveSpec(dim=2, eval=lambda x: 0.0, x0=np.array([0.0, value]))


@pytest.mark.parametrize("x0", [np.zeros((2, 3)), np.zeros((2, 1)), np.zeros(3), "ab",
                                [0.0, "a"]])
def test_objective_rejects_an_x0_that_is_no_vector_of_dim_numbers(x0):
    # a (2, 3) x0 has length 2, yet a run from it fails only at "frame dim 3 != oracle dim 2"
    with pytest.raises(ConfigError, match="x0"):
        ObjectiveSpec(dim=2, eval=lambda x: 0.0, x0=x0)


def test_objective_takes_a_list_x0():
    fn = bench_function("f2", 6)
    obj = fn.as_objective()
    cfg = GreedyConfig(L_hat=fn.L, q=3, budget=30)
    listed = run_greedy(dataclasses.replace(obj, x0=fn.x0.tolist()), cfg, 0)
    assert listed.rows == run_greedy(obj, cfg, 0).rows


@pytest.mark.parametrize("family", ["greedy", "ars"])
def test_run_without_x0_is_a_config_error(family):
    obj = ObjectiveSpec(dim=3, eval=lambda x: float(x @ x))
    with pytest.raises(ConfigError, match="x0"):
        if family == "greedy":
            run_greedy(obj, GreedyConfig(L_hat=1.0, q=2, budget=10), 0)
        else:
            run_ars(obj, ArsConfig(L_hat=1.0, q=2, budget=10), 0)


def test_nan_target_is_a_config_error():
    for family in (GreedyConfig, ArsConfig):
        with pytest.raises(ConfigError, match="target_log10"):
            family(L_hat=1.0, q=2, budget=10, target_log10=math.nan)


@pytest.mark.parametrize("family", [GreedyConfig, ArsConfig, RunConfig])
@pytest.mark.parametrize("options,match", [
    ({"mu": math.nan}, "mu must be finite"),
    ({"mu": 0.0}, "mu must be finite"),
    ({"oracle_mode": "bogus"}, "unknown oracle mode 'bogus'"),
    ({"oracle_mode": "bogus", "mu": math.nan}, "mu must be finite"),
    ({"log_every": 0}, "log_every must be >= 1"),
])
def test_config_rejects_bad_oracle_options_when_built(family, options, match):
    # RunConfig checks the same run options as the configs it builds
    run = {"function": "f2", "dim": 10, "algo": "rgf", "lhat": 1.0}
    with pytest.raises(ConfigError, match=match):
        family(q=2, budget=10, **(run if family is RunConfig else {"L_hat": 1.0}), **options)


@pytest.mark.parametrize("family", [GreedyConfig, ArsConfig, RunConfig])
@pytest.mark.parametrize("settings,match", [
    *(({"budget": value}, "budget must be an integer") for value in
      [math.nan, math.inf, -math.inf, 2.5]),
    ({"budget": -1}, "budget must be nonnegative"),
    ({"q": 2.5}, "q must be an integer"),
    ({"q": math.nan}, "q must be an integer"),
    ({"q": 0}, "q must be >= 1"),
])
def test_config_rejects_a_budget_or_q_that_is_no_count(family, settings, match):
    # counts: a budget of inf would never end a run, one of NaN would end it
    # before its first step, and a fractional q fails inside numpy
    run = {"function": "f2", "dim": 10, "algo": "rgf", "lhat": 1.0}
    with pytest.raises(ConfigError, match=match):
        family(**{"q": 2, "budget": 10, **(run if family is RunConfig else {"L_hat": 1.0}),
                  **settings})


@pytest.mark.parametrize("settings,match", [
    ({"seeds": (0.5,)}, "seeds must be an integer, got 0.5"),
    ({"seeds": "01"}, "seeds must be an integer, got '0'"),
    ({"seeds": (0, 1.0)}, "seeds must be an integer, got 1.0"),
    ({"seeds": (3, -1)}, "seeds must be nonnegative"),
    ({"dim": 10.5}, "dim must be an integer"),
    ({"dim": math.nan}, "dim must be an integer"),
    ({"dim": 0}, "dim must be >= 1"),
])
def test_run_config_rejects_seeds_and_dims_that_are_no_counts(settings, match):
    with pytest.raises(ConfigError, match=match):
        RunConfig(**{"function": "f2", "dim": 10, "algo": "rgf", "q": 2, "budget": 10,
                     "lhat": 1.0, **settings})


@pytest.mark.parametrize("family,settings,match", [
    (RunConfig, {"seeds": 3}, "seeds must be a non-empty sequence of integers, got 3"),
    (RunConfig, {"mu": "1"}, "mu must be finite and positive"),
    (RunConfig, {"lhat": "2"}, "lhat must be finite and positive"),
    (RunConfig, {"target_log10": "x"}, "target_log10 must be a number"),
    (GreedyConfig, {"L_hat": "1"}, "L_hat must be finite and positive"),
    (ArsConfig, {"tau_hat": "0"}, "tau_hat must be finite"),
    (RunConfig, {"log_every": True}, "log_every must be an integer, got True"),
    (GreedyConfig, {"q": True}, "q must be an integer, got True"),
    (RunConfig, {"budget": True}, "budget must be an integer, got True"),
    (RunConfig, {"dim": True}, "dim must be an integer, got True"),
    (RunConfig, {"seeds": (True,)}, "seeds must be an integer, got True"),
    (RunConfig, {"algo": "ars", "tau_hat": True}, "tau_hat must be a number or 'true'"),
])
def test_a_setting_of_the_wrong_type_is_a_config_error(family, settings, match):
    # unchecked, each raises a bare TypeError, or a bool counts as 1
    run = RUN if family is RunConfig else {"L_hat": 1.0, "q": 2, "budget": 10}
    with pytest.raises(ConfigError, match=match):
        family(**{**run, **settings})


def test_require_int_at_least_takes_numpy_integers():
    require_int_at_least("n", np.int64(3), 3)
    with pytest.raises(ConfigError, match="n must be an integer"):
        require_int_at_least("n", np.float64(3.0), 1)


@pytest.mark.parametrize("algo", ["rgf", "history_prgf"])
def test_eval_batch_with_one_value_per_point_or_a_config_error(algo):
    fn = bench_function("f2", 6)
    obj = ObjectiveSpec(dim=6, eval=fn.eval, x0=fn.x0,
                        eval_batch=lambda pts: fn.eval_batch(pts)[:, None])
    with pytest.raises(ConfigError, match=r"eval_batch returned shape \(\d+, 1\) for \d+ points"):
        run_greedy(obj, GreedyConfig(L_hat=fn.L, q=3, algo=algo, budget=40), 0)


FAMILIES = [(GreedyConfig, run_greedy, "history_prgf"), (ArsConfig, run_ars, "history_pars")]


@pytest.mark.parametrize("family,run,algo", FAMILIES, ids=["greedy", "ars"])
def test_diagnostics_without_a_true_gradient_fail_before_any_evaluation(family, run, algo):
    fn = bench_function("f2", 20)
    calls = []

    def counted(x):
        calls.append(1)
        return fn.eval(x)

    obj = ObjectiveSpec(dim=20, eval=counted, x0=fn.x0)
    cfg = family(L_hat=fn.L, q=5, algo=algo, budget=60, diagnostics=True)
    with pytest.raises(UnsupportedDiagnosticError, match=algo):
        run(obj, cfg, 0)
    assert calls == []


def test_diagnostics_default_to_off_in_every_config():
    assert GreedyConfig(L_hat=1.0, q=2).diagnostics is False
    assert ArsConfig(L_hat=1.0, q=2).diagnostics is False
    assert RunConfig(function="f2", dim=10, algo="rgf", q=2, budget=10,
                     lhat=1.0).diagnostics is False


@pytest.mark.parametrize("family,run,algo", FAMILIES, ids=["greedy", "ars"])
def test_diagnostics_are_recorded_only_when_asked(family, run, algo):
    # f2 has a true gradient, yet a default fd run logs no C_t/D_t
    fn = bench_function("f2", 20)
    columns = {}
    for asked in (False, True):
        extra = {"diagnostics": True} if asked else {}
        trace = run(fn.as_objective(), family(L_hat=fn.L, q=5, algo=algo, budget=60, **extra), 0)
        columns[asked] = np.concatenate([trace.column("C_t")[:-1], trace.column("D_t")[:-1]])
    assert columns[False].size == 20 and np.isnan(columns[False]).all()
    assert np.isfinite(columns[True]).all()
