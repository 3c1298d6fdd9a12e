import gc
import json
import os
import subprocess
import sys
import threading
import warnings
from concurrent import futures
from pathlib import Path

import numpy as np
import pytest

from pgzo import core
from pgzo.core import (ConfigError, NormalStream, ObjectiveSpec, OracleFailureError,
                       OracleHandle, RngHandle, UnsupportedDiagnosticError, directional_derivative,
                       l2_norm, sample_unit_sphere)
from pgzo.testfns import bench_function


def half_norm_sq(d=2):
    return ObjectiveSpec(dim=d, eval=lambda x: 0.5 * float(x @ x),
                         true_gradient=lambda x: x.copy(),
                         f_star=0.0, x0=np.zeros(d))


def test_forward_difference_quadratic():
    # f = ||x||^2/2 at x = e1 along e1: derivative 1 plus the mu/2 curvature term
    oracle = OracleHandle(half_norm_sq(), mu=1e-6)
    got = directional_derivative(oracle, np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    # cancellation in f(x+mu v) - f(x) costs ~eps*f/mu = 1e-10 of absolute noise
    assert got == pytest.approx(1.0 + 0.5e-6, abs=1e-9)


def test_forward_difference_constant_function():
    obj = ObjectiveSpec(dim=3, eval=lambda x: 7.0, x0=np.zeros(3))
    oracle = OracleHandle(obj, mu=1e-6)
    v = np.array([1.0, 0.0, 0.0])
    assert directional_derivative(oracle, np.zeros(3), v) == 0.0


def test_forward_difference_f2_error_bound():
    fn = bench_function("f2", 4)
    oracle = OracleHandle(fn.as_objective(), mu=1e-6)
    x = np.array([1.0, 0.0, 0.0, 0.0])
    v = np.array([1.0, 0.0, 0.0, 0.0])
    got = directional_derivative(oracle, x, v)
    assert got == pytest.approx(0.5 + 2.5e-7, abs=1e-9)
    assert abs(got - 0.5) <= 0.5 * fn.L * 1e-6


def test_exact_directional_derivative():
    oracle = OracleHandle(half_norm_sq(), mode="exact")
    assert oracle.directional_derivatives(np.array([3.0, 4.0]), np.eye(2)).tolist() == [3.0, 4.0]
    oracle = OracleHandle(bench_function("f2", 4).as_objective(), mode="exact")
    got = oracle.directional_derivatives(np.ones(4), np.eye(4)[:1])
    assert got[0] == pytest.approx(0.5)


def test_exact_requires_gradient():
    obj = ObjectiveSpec(dim=2, eval=lambda x: 0.0, x0=np.zeros(2))
    with pytest.raises(UnsupportedDiagnosticError):
        OracleHandle(obj).gradient_at(np.zeros(2))
    with pytest.raises(ConfigError):
        OracleHandle(obj, mode="exact")


def test_last_grad_set_by_exact_queries_only():
    obj = half_norm_sq()
    x, dirs = np.array([3.0, 4.0]), np.eye(2)
    exact = OracleHandle(obj, mode="exact")
    assert exact.last_grad is None
    exact.directional_derivatives(x, dirs)
    np.testing.assert_array_equal(exact.last_grad, x)
    fd = OracleHandle(obj, mode="fd")
    fd.last_grad = x
    fd.directional_derivatives(x, dirs)
    assert fd.last_grad is None


def test_query_accounting_and_base_cache():
    oracle = OracleHandle(half_norm_sq(), mu=1e-6)
    x = np.array([1.0, 2.0])
    e1, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    directional_derivative(oracle, x, e1)
    assert (oracle.dd_queries, oracle.fn_evals) == (1, 2)
    directional_derivative(oracle, x, e2)  # base f(x) reused
    assert (oracle.dd_queries, oracle.fn_evals) == (2, 3)
    directional_derivative(oracle, x + 1.0, e1)  # new base point
    assert (oracle.dd_queries, oracle.fn_evals) == (3, 5)


def test_base_cache_hits_equal_values_not_identity():
    oracle = OracleHandle(half_norm_sq(3), mu=1e-6)
    x = np.array([1.0, 2.0, 3.0])
    oracle.function_value(x)
    assert oracle.function_value(x.copy()) == 7.0
    assert oracle.fn_evals == 1
    x[2] = 4.0  # changed in place behind the cache's back: a new point
    assert oracle.function_value(x) == 10.5
    assert oracle.fn_evals == 2
    x[0] = 0.0
    assert oracle.function_value(x) == 10.0
    assert oracle.fn_evals == 3


def test_base_cache_signed_zero_hits():
    oracle = OracleHandle(half_norm_sq(2), mu=1e-6)
    oracle.function_value(np.array([0.0, 0.0]))
    oracle.function_value(np.array([-0.0, 0.0]))
    oracle.function_value(np.array([0.0, -0.0]))
    assert oracle.fn_evals == 1


@pytest.mark.parametrize("nan_at", [0, 1])
def test_base_cache_nan_never_hits(nan_at):
    obj = ObjectiveSpec(dim=2, eval=lambda x: 1.0, x0=np.zeros(2))
    oracle = OracleHandle(obj, mu=1e-6)
    x = np.ones(2)
    x[nan_at] = np.nan
    oracle.function_value(x)
    oracle.function_value(x)
    oracle.function_value(x.copy())
    assert oracle.fn_evals == 3


def test_peek_does_not_count():
    oracle = OracleHandle(half_norm_sq(), mu=1e-6)
    assert oracle.peek_function_value(np.array([3.0, 0.0])) == pytest.approx(4.5)
    assert (oracle.dd_queries, oracle.fn_evals) == (0, 0)


def test_non_finite_value_raises():
    obj = ObjectiveSpec(dim=1, eval=lambda x: float("inf") if x[0] > 0.5 else 0.0,
                        x0=np.zeros(1))
    oracle = OracleHandle(obj, mu=1.0)
    with pytest.raises(OracleFailureError) as exc:
        directional_derivative(oracle, np.zeros(1), np.array([1.0]))
    assert exc.value.point is not None


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("row", [0, 2, 4])
def test_non_finite_batch_row_reported(bad, row):
    def eval_batch(pts):
        out = pts.sum(axis=1)
        out[row] = bad
        return out

    obj = ObjectiveSpec(dim=5, eval=lambda x: float(x.sum()), eval_batch=eval_batch,
                        x0=np.zeros(5))
    x, dirs = np.arange(5.0), np.eye(5)
    with pytest.raises(OracleFailureError) as exc:
        OracleHandle(obj, mu=1e-3).directional_derivatives(x, dirs)
    np.testing.assert_array_equal(exc.value.point, 1e-3 * dirs[row] + x)


def test_finite_batch_with_overflowing_sum_accepted():
    # Each value is finite but their sum is not; the check must pass such a
    # batch silently, with no overflow warning and no FloatingPointError.
    big = np.finfo(float).max / 2
    obj = ObjectiveSpec(dim=3, eval=lambda x: big, eval_batch=lambda pts: np.full(len(pts), big),
                        x0=np.zeros(3))
    oracle = OracleHandle(obj, mu=1.0)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        vals = oracle.directional_derivatives(np.zeros(3), np.eye(3))
    np.testing.assert_array_equal(vals, np.zeros(3))
    assert (oracle.dd_queries, oracle.fn_evals) == (3, 4)


def _norm_cases():
    gen = RngHandle(5).gen
    cases = {f"random{d}": gen.standard_normal(d) for d in (1, 2, 7, 256, 500)}
    cases["strided"] = gen.standard_normal(40)[::3]
    cases["scaled"] = 1e-160 * gen.standard_normal(30)
    cases["overflow"] = np.full(4, 1e160)
    cases["zero"] = np.zeros(6)
    cases["neg_zero"] = np.full(3, -0.0)
    for name, v in (("inf", np.inf), ("-inf", -np.inf), ("nan", np.nan)):
        w = gen.standard_normal(9)
        w[4] = v
        cases[name] = w
    return cases


@pytest.mark.parametrize("case", sorted(_norm_cases()))
def test_l2_norm_bit_identical_to_linalg_norm(case):
    v = _norm_cases()[case]
    with np.errstate(over="ignore", under="ignore"):
        got, ref = l2_norm(v), np.linalg.norm(v)
    if np.isnan(ref):
        assert np.isnan(got)
    else:
        assert got == ref


def test_l2_norm_bit_identical_on_many_lengths():
    # Summation order is what differs between candidate norm formulas, and
    # it shows only on some inputs: check hundreds of lengths.
    gen = RngHandle(6).gen
    for n in range(1, 601, 2):
        v = gen.standard_normal(n)
        assert l2_norm(v) == np.linalg.norm(v)


def test_non_unit_direction_rejected():
    oracle = OracleHandle(half_norm_sq(), mu=1e-6)
    with pytest.raises(ConfigError):
        directional_derivative(oracle, np.zeros(2), np.array([1.0, 1.0]))


def test_batch_and_scalar_eval_paths_agree():
    fn = bench_function("f2", 6)
    obj = fn.as_objective()
    no_batch = ObjectiveSpec(dim=6, eval=obj.eval, true_gradient=obj.true_gradient,
                             f_star=0.0, x0=obj.x0)
    dirs = np.eye(6)[:3]
    x = np.arange(6.0)
    a = OracleHandle(obj, mu=1e-6).directional_derivatives(x, dirs)
    b = OracleHandle(no_batch, mu=1e-6).directional_derivatives(x, dirs)
    # summation order differs between the two paths; 1/mu amplifies the
    # eval-level round-off into ~1e-8 on the derivative values
    np.testing.assert_allclose(a, b, rtol=0, atol=1e-7)


def test_sample_unit_sphere_basics():
    rng = RngHandle(123)
    v = sample_unit_sphere(rng, 1)
    assert v[0] in (-1.0, 1.0)
    u = sample_unit_sphere(rng, 10)
    assert abs(np.linalg.norm(u) - 1.0) < 1e-12


# unchecked, SFC64 takes a list as entropy for one stream, and -1 or 1.5 raise
# a bare ValueError or TypeError
@pytest.mark.parametrize("seed,message", [
    ([0, 1], "seed must be an integer, got [0, 1]"),
    (-1, "seed must be nonnegative, got -1"),
    (1.5, "seed must be an integer, got 1.5"),
    (True, "seed must be an integer, got True"),
])
def test_a_handle_takes_one_nonnegative_integer_seed(seed, message):
    with pytest.raises(ConfigError) as exc:
        RngHandle(seed)
    assert str(exc.value) == message


def test_sample_unit_sphere_deterministic():
    a = sample_unit_sphere(RngHandle(7), 10)
    b = sample_unit_sphere(RngHandle(7), 10)
    np.testing.assert_array_equal(a, b)


def test_sample_unit_sphere_isotropic_mean():
    # CLT band: each coordinate has variance 1/d, so the empirical mean of
    # 20000 draws stays within 3/sqrt(n) * (1/sqrt(d)) of zero
    rng = RngHandle(2024)
    d, n = 50, 20000
    acc = np.zeros(d)
    for _ in range(n):
        acc += sample_unit_sphere(rng, d)
    band = 3.0 / np.sqrt(n) / np.sqrt(d)
    assert np.max(np.abs(acc / n)) < 3.5 * band  # max over d coords, slightly wider


def test_prop21_bound_random_points():
    # finite-difference error bounded by L*mu/2 on f2 for random (x, v)
    fn = bench_function("f2", 12)
    obj = fn.as_objective()
    rng = RngHandle(5)
    mu = 1e-6
    exact_oracle = OracleHandle(obj, mode="exact")
    for _ in range(50):
        x = rng.gen.standard_normal(12) * 3.0
        v = sample_unit_sphere(rng, 12)
        oracle = OracleHandle(obj, mu=mu)
        fd = directional_derivative(oracle, x, v)
        exact = exact_oracle.directional_derivatives(x, v[None, :])[0]
        assert abs(fd - exact) <= 0.5 * fn.L * mu + 1e-15


# -- normal draws and the read-ahead stream ----------------------------------------

def helper_threads():
    """Live read-ahead workers: the executor names its thread ``pgzo-normals_0``."""
    return [t for t in threading.enumerate() if t.name.startswith("pgzo-normals")]


def test_direct_normal_draws_split_like_one_draw():
    rng = RngHandle(5)
    parts = [rng.normal(n) for n in (0, 1, 13, 500)] + [rng.normal((2, 3)).ravel()]
    np.testing.assert_array_equal(np.concatenate(parts),
                                  RngHandle(5).gen.standard_normal(520))


@pytest.mark.parametrize("chunk", [1, 7, 32])
def test_stream_split_equals_one_draw_at_every_chunk_offset(monkeypatch, chunk):
    monkeypatch.setattr(core, "READ_AHEAD_CHUNK", chunk)
    sizes = sorted({max(1, chunk - 1), chunk, chunk + 1, 3 * chunk + 2})
    for offset in range(chunk + 1):
        for n in sizes:
            rng = RngHandle(11)
            rng.stream = NormalStream(rng.gen.bit_generator)
            try:
                got = [rng.normal(offset), rng.normal(n), rng.normal((2, 3)).ravel()]
            finally:
                rng.stream.close()
            want = RngHandle(11).gen.standard_normal(offset + n + 6)
            np.testing.assert_array_equal(np.concatenate(got), want)
    assert not helper_threads()


def test_stream_threads_under_fast_switching_stay_bit_identical(monkeypatch):
    # more consumers than cores, each with its own stream and helper thread;
    # a chunk lost or handed over twice would shift every later value
    monkeypatch.setattr(core, "READ_AHEAD_CHUNK", 3)
    sizes = np.random.default_rng(0).integers(1, 10, 300)
    failures = []

    def consume(seed):
        rng = RngHandle(seed)
        rng.stream = NormalStream(rng.gen.bit_generator)
        try:
            got = np.concatenate([rng.normal(int(n)) for n in sizes])
        finally:
            rng.stream.close()
        if not np.array_equal(got, RngHandle(seed).gen.standard_normal(int(sizes.sum()))):
            failures.append(seed)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=consume, args=(s,)) for s in range(6)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(w.is_alive() for w in workers)
    assert failures == []
    assert not helper_threads()


@pytest.mark.parametrize("drawn", [False, True])
def test_stream_close_returns_with_draws_in_flight(monkeypatch, drawn):
    # READ_AHEAD_DEPTH chunks are pending (or, with drawn, all finished) when
    # close runs; it must neither wait on them forever nor leave the worker
    monkeypatch.setattr(core, "READ_AHEAD_CHUNK", 4)
    stream = NormalStream(np.random.SFC64(0))
    stream.take(6)  # crosses into the second chunk, so a third draw is submitted
    assert len(stream._ahead) == core.READ_AHEAD_DEPTH
    if drawn:
        futures.wait(stream._ahead, timeout=10)
        assert all(f.done() for f in stream._ahead)
    closer = threading.Thread(target=stream.close)
    closer.start()
    closer.join(timeout=10)
    assert not closer.is_alive()
    assert not helper_threads()


def test_dropped_stream_leaves_no_worker(monkeypatch):
    monkeypatch.setattr(core, "READ_AHEAD_CHUNK", 4)
    stream = NormalStream(np.random.SFC64(0))
    stream.take(6)
    workers = helper_threads()
    assert workers
    del stream  # without close()
    gc.collect()
    for w in workers:
        w.join(timeout=10)
    assert not helper_threads()


@pytest.mark.parametrize("read_ahead", [False, True])
def test_negative_draw_size_raises_and_keeps_the_stream(read_ahead):
    rng = RngHandle(0)
    if read_ahead:
        rng.stream = NormalStream(rng.gen.bit_generator)
    try:
        first = rng.normal(5)
        with pytest.raises(ValueError, match="negative dimensions"):
            rng.normal(-3)
        after = rng.normal(3)
    finally:
        if read_ahead:
            rng.stream.close()
    np.testing.assert_array_equal(np.concatenate([first, after]),
                                  RngHandle(0).gen.standard_normal(8))


def test_stream_failure_reaches_the_consumer(monkeypatch):
    # a negative chunk size makes the helper's draw raise
    monkeypatch.setattr(core, "READ_AHEAD_CHUNK", -1)
    stream = NormalStream(np.random.SFC64(0))
    with pytest.raises(ValueError, match="negative"):
        stream.take(3)
    stream.close()
    assert not helper_threads()


# In a fresh interpreter: import scipy.linalg before or after pgzo, then use
# scipy.linalg as a caller would.
FLAPACK_INTEROP = """
import json, sys
if sys.argv[1] == "scipy_first":
    import scipy.linalg
from pgzo import core
entry_left = "scipy.linalg._flapack" in sys.modules and "scipy.linalg" not in sys.modules
import numpy as np
import scipy.linalg
from scipy.linalg import lapack
x = scipy.linalg.solveh_banded(np.array([[2.0, 2.0], [-1.0, 0.0]]), np.array([1.0, 0.0]),
                               lower=True)
print(json.dumps({"entry_left": entry_left, "bound": hasattr(scipy.linalg, "_flapack"),
                  "same": [getattr(core.flapack, f) is getattr(lapack, f)
                           for f in ("dpotrf", "dtrtri", "dptsv", "dstebz")],
                  "x": x.tolist()}))
"""


@pytest.mark.parametrize("order", ["pgzo_first", "scipy_first"])
def test_flapack_is_scipy_linalg_lapack(order):
    # pgzo loads scipy's LAPACK extension without scipy.linalg's init and
    # leaves no sys.modules entry, so a later import of scipy.linalg binds its
    # _flapack and hands out the very functions pgzo calls.
    src = Path(__file__).resolve().parent.parent / "src"
    child = subprocess.run([sys.executable, "-c", FLAPACK_INTEROP, order], capture_output=True,
                           text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(src)})
    assert child.returncode == 0, child.stderr
    out = json.loads(child.stdout)
    assert out["entry_left"] is False
    assert out["bound"] and out["same"] == [True] * 4
    assert out["x"] == pytest.approx([2 / 3, 1 / 3], rel=1e-15)


def test_missing_lapack_extension_is_an_import_error(monkeypatch):
    monkeypatch.delitem(sys.modules, "scipy.linalg", raising=False)
    monkeypatch.setattr(core, "EXTENSION_SUFFIXES", [".not-built.so"])
    with pytest.raises(ImportError, match=r"_flapack\.not-built\.so"):
        core._load_flapack()
