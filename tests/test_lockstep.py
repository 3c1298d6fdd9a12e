"""A stack of seeds run in lockstep (``greedy.run_greedy_lockstep``) gives
every seed the trace its own ``run_greedy`` gives, bit for bit, and a
rejected frame inside the stack is redrawn from its own seed's stream. A
stack runs only what ``diagnostics.check_theorem_bounds`` runs: ``rgf`` or
``history_prgf`` with an exact oracle and no external prior, diagnostics or
target. Any other stack, the ARS steps among them, is refused before any
evaluation: with the fd oracle a stack lost to single runs at d >= 256, so
presets and benchmarks run seed by seed (README, "Seeds in lockstep")."""

import numpy as np
import pytest

import pgzo.trace
from pgzo.ars import ArsConfig, ArsState, _step_ars
from pgzo.core import ConfigError, ObjectiveSpec, OracleFailureError, OracleHandle, RngHandle
from pgzo.frames import build_frame, build_frames
from pgzo.greedy import GreedyConfig, run_greedy, run_greedy_lockstep
from pgzo.testfns import bench_function
from pgzo.trace import run_loop
from test_frames import TapeRng

SEEDS = [0, 1, 2, 3, 4]


def outcome(trace):
    return trace.seed, trace.rows, trace.reached_queries, trace.restarts, trace.guess_passes


def assert_stack_equals_own_runs(fn, cfg, seeds):
    stacked = run_greedy_lockstep(fn.as_objective(), cfg, seeds)
    own = [run_greedy(fn.as_objective(), cfg, s) for s in seeds]
    assert [outcome(tr) for tr in stacked] == [outcome(tr) for tr in own]
    return stacked


@pytest.mark.parametrize("log_every", [1, 3])
@pytest.mark.parametrize("d,q", [(10, 3), (40, 5)])
@pytest.mark.parametrize("function", ["f1", "f2"])
@pytest.mark.parametrize("algo", ["rgf", "history_prgf"])
def test_stacked_runs_equal_their_own_runs(algo, function, d, q, log_every):
    fn = bench_function(function, d)
    cfg = GreedyConfig(L_hat=fn.L, q=q, algo=algo, budget=2400, oracle_mode="exact",
                       log_every=log_every)
    stacked = assert_stack_equals_own_runs(fn, cfg, SEEDS)
    assert {tr.rows[-1][0] for tr in stacked} == {2400 // cfg.queries_per_iteration}


@pytest.mark.parametrize("algo", ["rgf", "history_prgf"])
def test_a_stack_of_one_seed_is_its_own_run(algo):
    fn = bench_function("f2", 12)
    cfg = GreedyConfig(L_hat=fn.L, q=3, algo=algo, budget=400, oracle_mode="exact")
    [trace] = assert_stack_equals_own_runs(fn, cfg, [7])
    assert trace.seed == 7


@pytest.mark.parametrize("algo", ["rgf", "history_prgf"])
def test_a_rejected_frame_inside_a_stack_is_redrawn_from_its_seed(algo, monkeypatch):
    # q = d (q = d-1 with a prior): each seed's normals come from a tape whose
    # blocks at ``bad`` are rank deficient, so the stack redraws some frames
    d = 4
    q = d if algo == "rgf" else d - 1
    bad = {0: (), 1: (0,), 2: (3, 4), 3: (1, 5, 6), 4: (3,)}  # 2 and 4 redraw together
    tapes = {}

    def tape_rng(seed):
        # the historical prior's first d values sit at the tape's head, so a
        # block boundary may fall inside it; only the frames need to be bad
        tapes[seed] = TapeRng(seed, q, d, 200, bad[seed])
        return tapes[seed]
    monkeypatch.setattr(pgzo.trace, "RngHandle", tape_rng)
    fn = bench_function("f2", d)
    cfg = GreedyConfig(L_hat=fn.L, q=q, algo=algo, budget=(q + (algo != "rgf")) * 20,
                       oracle_mode="exact")
    stacked = run_greedy_lockstep(fn.as_objective(), cfg, list(bad))
    used = {s: tapes[s].used for s in bad}
    own = [run_greedy(fn.as_objective(), cfg, s) for s in bad]
    assert [outcome(tr) for tr in stacked] == [outcome(tr) for tr in own]
    assert used == {s: tapes[s].used for s in bad}
    if algo == "rgf":  # each rejected block cost one more block of draws
        assert used == {s: (20 + len(b)) * q * d for s, b in bad.items()}


@pytest.mark.parametrize("kind", ["none", "shared", "per_frame"])
def test_stacked_frames_equal_each_seeds_own_frame(kind):
    d, q = 9, 4
    bad = [(), (0,), (0, 1), (), (2,)]
    priors = np.array([RngHandle(100 + i).gen.standard_normal(d) for i in range(5)])
    prior = {"none": None, "shared": priors[0], "per_frame": priors}[kind]
    own_priors = {"none": [None] * 5, "shared": [priors[0]] * 5, "per_frame": priors}[kind]
    handles = [TapeRng(i, q, d, 80, b) for i, b in enumerate(bad)]
    singles = [TapeRng(i, q, d, 80, b) for i, b in enumerate(bad)]
    stack = build_frames(handles, d, q, 5, prior=prior)
    own = [build_frame(rng, d, q, p).stacked() for rng, p in zip(singles, own_priors)]
    np.testing.assert_array_equal(stack.stacked(), own)
    assert [h.used for h in handles] == [s.used for s in singles]


def test_64_rejects_of_one_seed_raise_in_a_stack():
    d, q = 9, 4
    handles = [TapeRng(0, q, d, 80), TapeRng(1, q, d, 80, bad=range(64))]
    with pytest.raises(ConfigError, match="orthonormal frame"):
        build_frames(handles, d, q, 2)
    handles = [TapeRng(0, q, d, 80), TapeRng(1, q, d, 80, bad=range(63))]
    assert build_frames(handles, d, q, 2).stacked().shape == (2, q, d)


def test_stack_needs_one_handle_per_frame():
    with pytest.raises(ConfigError, match="2 random handles for 3 frames"):
        build_frames([RngHandle(0), RngHandle(1)], 5, 2, 3)


def test_an_ars_step_refuses_a_stack():
    fn = bench_function("f2", 10)
    cfg = ArsConfig(L_hat=fn.L, q=3, algo="ars", budget=60)
    new_state = lambda x0: ArsState(x=x0, m=x0.copy(), gamma=cfg.L_hat)  # noqa: E731
    with pytest.raises(ConfigError, match="^ars: its steps run one seed at a time"):
        run_loop(fn.as_objective(), cfg, [0, 1], new_state, _step_ars, None)
    with pytest.raises(ConfigError, match="^ars: its steps run one seed at a time"):
        run_greedy_lockstep(fn.as_objective(), cfg, [0, 1])


def test_an_empty_stack_is_a_config_error():
    fn = bench_function("f2", 10)
    with pytest.raises(ConfigError, match="at least one seed"):
        run_greedy_lockstep(fn.as_objective(), GreedyConfig(L_hat=fn.L, q=3, budget=60), [])


@pytest.mark.parametrize("algo,options", [
    ("prgf", {"oracle_mode": "exact"}),
    ("rgf", {}),  # the fd oracle
    ("history_prgf", {"oracle_mode": "exact", "diagnostics": True}),
    ("rgf", {"oracle_mode": "exact", "target_log10": -3.0}),
    ("rgf", {"oracle_mode": "exact", "target_log10": -3.0, "stop_on_target": True}),
])
def test_a_stack_other_than_the_bound_checks_is_refused_before_any_evaluation(algo, options):
    fn = bench_function("f2", 10)
    calls = []

    def counted(x):
        calls.append(1)
        return fn.eval(x)
    obj = ObjectiveSpec(dim=10, eval=counted, true_gradient=fn.grad, f_star=fn.f_star, x0=fn.x0)
    cfg = GreedyConfig(L_hat=fn.L, q=3, algo=algo, budget=60, **options)
    with pytest.raises(ConfigError, match=f"^{algo}: a stack runs with an exact oracle and no "
                                          "external prior, diagnostics or target$"):
        run_greedy_lockstep(obj, cfg, [0, 1])
    assert calls == []


def test_stack_charges_each_seed_its_own_oracle(monkeypatch):
    built = []
    init = OracleHandle.__post_init__

    def record(self):
        init(self)
        built.append(self)
    monkeypatch.setattr(OracleHandle, "__post_init__", record)
    fn = bench_function("f2", 10)
    cfg = GreedyConfig(L_hat=fn.L, q=3, algo="rgf", budget=60, oracle_mode="exact")
    run_greedy_lockstep(fn.as_objective(), cfg, [0, 1, 2])
    assert [(o.dd_queries, o.fn_evals) for o in built] == [(60, 0)] * 3


def test_a_failing_seed_ends_the_stack_with_its_own_message():
    # History-PRGF at L̂ = L/4 overflows; seeds 2 and 4 fail first, at
    # iteration 336, as their own runs do
    fn = bench_function("f2", 30)
    cfg = GreedyConfig(L_hat=0.5, q=5, algo="history_prgf", budget=6000, oracle_mode="exact")
    messages = []
    with np.errstate(over="ignore", invalid="ignore"):
        for seed in SEEDS:
            with pytest.raises(OracleFailureError) as own:
                run_greedy(fn.as_objective(), cfg, seed)
            messages.append(str(own.value))
        with pytest.raises(OracleFailureError) as stacked:
            run_greedy_lockstep(fn.as_objective(), cfg, SEEDS)
    assert str(stacked.value) == messages[2] == messages[4]
    assert messages[2].startswith("history_prgf at iteration 336 after 2016 dd-queries: ")
