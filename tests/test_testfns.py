import numpy as np
import pytest

from pgzo.bench import RunConfig, run_single
from pgzo.core import ConfigError, RngHandle, sample_unit_sphere
from pgzo.testfns import BiasedPriorGen, bench_function, biased_prior_feed

ALL_IDS = ("f1", "f2", "f3", "f4")


def central_diff_grad(fn, x, h=1e-5):
    g = np.empty_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (fn.eval(x + e) - fn.eval(x - e)) / (2 * h)
    return g


def random_points(fn, n, seed=0, scale=2.0):
    rng = RngHandle(seed)
    return [fn.x0 + scale * rng.gen.standard_normal(fn.dim) for _ in range(n)]


def test_f1_values_and_gradient_at_origin():
    fn = bench_function("f1", 16)
    assert fn.eval(np.zeros(16)) == 0.0
    g = fn.grad(np.zeros(16))
    expected = np.zeros(16)
    expected[0] = -1.0
    np.testing.assert_array_equal(g, expected)


def test_f1_minimizer_and_L():
    d = 64
    fn = bench_function("f1", d)
    # closed forms for the chain quadratic: x*_i = 1 - i/(d+1), eigenvalues
    # 2 - 2 cos(k pi / (d+1))
    x_star = 1.0 - np.arange(1, d + 1) / (d + 1)
    assert np.linalg.norm(fn.grad(x_star)) <= 1e-10
    assert fn.f_star == pytest.approx(fn.eval(x_star), abs=1e-12)
    assert fn.L == pytest.approx(2 - 2 * np.cos(d * np.pi / (d + 1)), abs=1e-9)
    assert fn.tau == pytest.approx(2 - 2 * np.cos(np.pi / (d + 1)), abs=1e-12)


@pytest.mark.parametrize("d", [2, 3, 40, 256, 500])
def test_f1_constants_equal_scipy_linalg_bit_for_bit(d):
    # f1 calls the LAPACK routines behind these two scipy.linalg functions
    # directly; its constants must not move by a bit.
    from scipy.linalg import eigh_tridiagonal, solveh_banded
    fn = bench_function("f1", d)
    band = np.vstack([np.full(d, 2.0), np.full(d, -1.0)])
    band[1, -1] = 0.0
    e1 = np.zeros(d)
    e1[0] = 1.0
    diag, off = np.full(d, 2.0), np.full(d - 1, -1.0)
    (tau,), (L,) = (eigh_tridiagonal(diag, off, eigvals_only=True, select="i",
                                     select_range=(i, i)) for i in (0, d - 1))
    assert (fn.tau, fn.L) == (tau, L)
    assert fn.f_star == fn.eval(solveh_banded(band, e1, lower=True))


def test_f2_values():
    fn = bench_function("f2", 4)
    assert fn.eval(np.array([4.0, 0, 0, 0])) == pytest.approx(4.0)
    assert fn.eval(fn.x0) == pytest.approx(4.0)  # f2(x0) = d for any d
    fn500 = bench_function("f2", 500)
    assert fn500.eval(fn500.x0) == pytest.approx(500.0)
    assert (fn.L, fn.tau) == (2.0, 0.5)
    assert (fn500.L, fn500.tau) == (2.0, 2.0 / 500)


def test_f3_minimum_at_ones():
    fn = bench_function("f3", 12)
    assert fn.eval(np.ones(12)) == 0.0
    assert np.linalg.norm(fn.grad(np.ones(12))) == 0.0
    assert fn.L is None
    # so a run must give an absolute L-hat, not a multiple of L
    cfg = RunConfig(function="f3", dim=12, algo="rgf", q=2, budget=20, lhat_scale=1.0)
    with pytest.raises(ConfigError, match="has no true L"):
        run_single(cfg, 0)


def test_f4_values():
    fn = bench_function("f4", 4)
    assert fn.x0[0] == pytest.approx(10.0)  # 5 sqrt(4)
    assert fn.eval(fn.x0) == pytest.approx(4.5)  # r = 5 on the linear branch
    inner = np.zeros(4)
    inner[0] = 1.0  # f2 = 1/4, r = 1/2 <= 1: quadratic branch
    assert fn.eval(inner) == pytest.approx(0.125)


@pytest.mark.parametrize("name", ALL_IDS)
def test_gradients_match_central_differences(name):
    fn = bench_function(name, 10)
    for x in random_points(fn, 100, seed=11, scale=1.5):
        g = fn.grad(x)
        num = central_diff_grad(fn, x)
        denom = max(np.linalg.norm(num), 1.0)
        assert np.linalg.norm(g - num) / denom < 1e-5


@pytest.mark.parametrize("name", ALL_IDS)
def test_batch_eval_matches_scalar(name):
    fn = bench_function(name, 9)
    pts = np.vstack(random_points(fn, 20, seed=3))
    batch = fn.eval_batch(pts)
    scalar = np.array([fn.eval(p) for p in pts])
    np.testing.assert_allclose(batch, scalar, rtol=1e-14, atol=0)


@pytest.mark.parametrize("name", ("f1", "f2", "f4"))
def test_convexity_on_sampled_triples(name):
    fn = bench_function(name, 8)
    rng = RngHandle(21)
    for _ in range(200):
        x = fn.x0 + rng.gen.standard_normal(8) * 2
        y = fn.x0 + rng.gen.standard_normal(8) * 2
        lam = rng.gen.uniform()
        lhs = fn.eval(lam * x + (1 - lam) * y)
        rhs = lam * fn.eval(x) + (1 - lam) * fn.eval(y)
        assert lhs <= rhs + 1e-9


@pytest.mark.parametrize("name", ("f1", "f2", "f4"))
def test_gradient_lipschitz_constant(name):
    fn = bench_function(name, 10)
    rng = RngHandle(17)
    worst = 0.0
    for _ in range(300):
        x = fn.x0 + rng.gen.standard_normal(10) * 2
        y = x + rng.gen.standard_normal(10) * 0.5
        num = np.linalg.norm(fn.grad(x) - fn.grad(y))
        den = np.linalg.norm(x - y)
        worst = max(worst, num / den)
    assert worst <= fn.L * (1 + 1e-9)


def test_x0_above_optimum():
    for name in ALL_IDS:
        fn = bench_function(name, 8)
        assert fn.eval(fn.x0) > fn.f_star


def test_biased_prior_unit_norm_and_fixed_bias():
    fn = bench_function("f2", 20)
    gen = BiasedPriorGen(rng=RngHandle(9), dim=20)
    b_before = gen.b.copy()
    for x in random_points(fn, 10, seed=2):
        p = gen(fn.grad(x))
        assert abs(np.linalg.norm(p) - 1.0) < 1e-12
    np.testing.assert_array_equal(gen.b, b_before)


def test_biased_prior_aligned_case():
    # no noise and bias equal to the gradient direction: prior == direction
    gen = BiasedPriorGen(rng=RngHandle(0), dim=6, noise_norm=0.0)
    g = np.zeros(6)
    g[2] = 2.5
    gen.b = g / np.linalg.norm(g)
    p = gen(g)
    np.testing.assert_allclose(p, gen.b, atol=1e-14)


def test_biased_prior_orthogonal_bias_half_cosine():
    gen = BiasedPriorGen(rng=RngHandle(0), dim=6, noise_norm=0.0)
    g = np.array([1.0, 0, 0, 0, 0, 0])
    gen.b = np.array([0.0, 1.0, 0, 0, 0, 0])
    p = gen(g)
    assert (p @ g) ** 2 / (g @ g) == pytest.approx(0.5)


def test_biased_prior_zero_gradient_falls_back():
    gen = BiasedPriorGen(rng=RngHandle(1), dim=6)
    p = gen(np.zeros(6))
    assert abs(np.linalg.norm(p) - 1.0) < 1e-12


def test_biased_prior_useful_but_imperfect():
    # mean squared cosine strictly between the random-search level q/d and 1
    d = 256
    fn = bench_function("f2", d)
    gen = BiasedPriorGen(rng=RngHandle(42), dim=d)
    rng = RngHandle(7)
    cos2 = []
    for _ in range(2000):
        g = sample_unit_sphere(rng, d)
        p = gen(g)
        cos2.append((p @ g) ** 2)
    mean = float(np.mean(cos2))
    assert 10 / d < mean < 0.9


def test_unknown_function_rejected():
    with pytest.raises(ConfigError):
        bench_function("f9", 10)


def test_prior_feed_closure():
    fn = bench_function("f1", 12)
    feed = biased_prior_feed(fn, RngHandle(3))
    p = feed(fn.x0 + 1.0)
    assert p.shape == (12,)
    assert abs(np.linalg.norm(p) - 1.0) < 1e-12


# -- bit identity with the np.diff / np.sum formulas ---------------------------

def _f1_wrapped(x):
    return float(0.5 * x[0] ** 2 + 0.5 * np.sum(np.diff(x) ** 2) + 0.5 * x[-1] ** 2 - x[0])


def _f1_batch_wrapped(pts):
    return (0.5 * pts[:, 0] ** 2 + 0.5 * np.sum(np.diff(pts, axis=1) ** 2, axis=1)
            + 0.5 * pts[:, -1] ** 2 - pts[:, 0])


def _f3_wrapped(x):
    return float(np.sum(100.0 * (x[:-1] ** 2 - x[1:]) ** 2 + (x[:-1] - 1.0) ** 2))


def _f3_batch_wrapped(pts):
    a, b = pts[:, :-1], pts[:, 1:]
    return np.sum(100.0 * (a * a - b) ** 2 + (a - 1.0) ** 2, axis=1)


def _edge_rows(d, seed):
    """Gaussian rows plus rows of signed zeros, values near 1e150 and ones."""
    gen = RngHandle(seed).gen
    pts = 3.0 * gen.standard_normal((7, d))
    pts[1] = 0.0
    pts[1, 1::2] = -0.0
    pts[2] = 1e150 * gen.uniform(0.5, 1.5, d)
    pts[3] = -pts[2]
    pts[4, ::2] = -0.0
    pts[4, 1::2] = 1e150
    pts[5] = 1.0
    pts[6, 0] = -0.0
    return pts


def _assert_same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("d", [2, 3, 256])
@pytest.mark.parametrize("name,scalar_ref,batch_ref", [
    ("f1", _f1_wrapped, _f1_batch_wrapped), ("f3", _f3_wrapped, _f3_batch_wrapped)])
def test_objective_bit_identical_to_wrapper_formulas(name, scalar_ref, batch_ref, d):
    fn = bench_function(name, d)
    pts = _edge_rows(d, seed=d)
    with np.errstate(over="ignore", invalid="ignore"):  # f3 overflows to inf at 1e150
        _assert_same_bits([fn.eval(p) for p in pts], [scalar_ref(p) for p in pts])
        _assert_same_bits(fn.eval_batch(pts), batch_ref(pts))
