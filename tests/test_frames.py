import warnings

import numpy as np
import pytest
from scipy.linalg import lapack

from pgzo.core import ConfigError, InvalidPriorError, OracleHandle, RngHandle
from pgzo.frames import (OrthonormalFrame, ProbeSet, build_frame, build_frames, cos_sq,
                         estimate_Dt, estimate_grad_norm_sq, g2_unbiased, g2_variance_reduced,
                         probe, subspace_estimate)
from pgzo.testfns import bench_function


def exact_probes(frame, grad):
    pd = float(frame.prior @ grad) if frame.prior is not None else None
    return ProbeSet(frame=frame, prior_deriv=pd, dir_derivs=frame.directions @ grad)


def test_frame_d2_prior_e1_gives_pm_e2():
    frame = build_frame(RngHandle(0), 2, 1, prior=np.array([1.0, 0.0]))
    u = frame.directions[0]
    assert abs(abs(u[1]) - 1.0) < 1e-12 and abs(u[0]) < 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_frame_orthonormal_no_prior(seed):
    frame = build_frame(RngHandle(seed), 10, 3)
    gram = frame.directions @ frame.directions.T
    assert np.abs(gram - np.eye(3)).max() < 1e-10


@pytest.mark.parametrize("seed", range(5))
def test_frame_with_prior_spans_whole_space(seed):
    rng = RngHandle(seed)
    prior = rng.gen.standard_normal(5)
    frame = build_frame(rng, 5, 4, prior=prior)
    stacked = frame.stacked()
    gram = stacked @ stacked.T
    assert np.abs(gram - np.eye(5)).max() < 1e-10
    # 5 orthonormal vectors in R^5: determinant of the square stack is +-1
    assert abs(abs(np.linalg.det(stacked)) - 1.0) < 1e-10


def test_frame_prior_kept_unrotated():
    rng = RngHandle(3)
    prior = np.array([3.0, 0.0, 4.0, 0.0])
    frame = build_frame(rng, 4, 2, prior=prior)
    np.testing.assert_allclose(frame.prior, prior / 5.0, atol=1e-15)


def gram_schmidt_rows(raw, prior):
    """Reference construction: project each draw against the prior and all
    earlier directions, then normalize."""
    q, d = raw.shape
    out = np.empty((q, d))
    for j in range(q):
        w = raw[j].copy()
        if prior is not None:
            w -= (prior @ w) * prior
        for k in range(j):
            w -= (out[k] @ w) * out[k]
        n = np.linalg.norm(w)
        assert n >= 1e-12, "degenerate draw"
        out[j] = w / n
    return out


def test_fast_path_matches_reference_gram_schmidt():
    prior = np.ones(8) / np.sqrt(8)
    raw = RngHandle(11).gen.standard_normal((4, 8))
    projected = raw - np.outer(raw @ prior, prior)
    ref = gram_schmidt_rows(projected, prior)
    fast = build_frame(RngHandle(11), 8, 4, prior=prior)
    np.testing.assert_allclose(fast.directions, ref, atol=1e-9)


class ScriptedGen:
    """Generator stand-in: hands out ``blocks`` in order, then draws from
    ``then`` (a numpy Generator) when given."""

    def __init__(self, blocks, then=None):
        self.blocks, self.then, self.calls = list(blocks), then, 0

    def standard_normal(self, shape):
        self.calls += 1
        if self.blocks:
            return np.reshape(self.blocks.pop(0), shape)
        if self.then is not None:
            return self.then.standard_normal(shape)
        return np.zeros(shape)


def scripted_rng(gen: ScriptedGen) -> RngHandle:
    """An RngHandle whose normal draws come from ``gen``."""
    rng = RngHandle(0)
    rng.gen = gen
    return rng


@pytest.mark.parametrize("with_prior", [False, True])
def test_rank_deficient_draw_is_redrawn(with_prior):
    d, q = 9, 4
    prior = RngHandle(5).gen.standard_normal(d) if with_prior else None
    equal_rows = np.tile(RngHandle(6).gen.standard_normal(d), (q, 1))
    gen = ScriptedGen([equal_rows], then=RngHandle(3).gen)
    frame = build_frame(scripted_rng(gen), d, q, prior=prior)
    assert gen.calls == 2
    stacked = frame.stacked()
    n = stacked.shape[0]
    assert np.abs(stacked @ stacked.T - np.eye(n)).max() < 1e-10
    # the second block is used exactly as a first successful draw would be
    np.testing.assert_array_equal(stacked, build_frame(RngHandle(3), d, q, prior=prior).stacked())


@pytest.mark.parametrize("with_prior", [False, True])
def test_all_zero_draws_raise_config_error(with_prior):
    prior = np.ones(6) if with_prior else None
    gen = ScriptedGen([])
    with pytest.raises(ConfigError, match="orthonormal frame"):
        build_frame(scripted_rng(gen), 6, 3, prior=prior)
    assert gen.calls == 64


class TapeRng(RngHandle):
    """An RngHandle whose normals come from a fixed tape of (q, d) blocks,
    with the blocks at ``bad`` replaced by rank-deficient ones (all rows
    equal). ``normal`` serves the tape in order however the draws are split,
    as the handle's own stream does; ``used`` counts the values taken."""

    def __init__(self, seed, q, d, n_blocks, bad=()):
        super().__init__(seed)
        tape = self.gen.standard_normal((n_blocks, q, d))
        for b in bad:
            tape[b] = tape[b][0]
        self.tape, self.used = tape.ravel(), 0

    def normal(self, size):
        n = int(np.prod(size))
        out = self.tape[self.used:self.used + n].reshape(size)
        self.used += n
        return out.copy()


FRAME_SHAPES = [(20, 4), (50, 5), (101, 10), (3, 3), (6, 2)]


def frame_shape(d, q, with_prior, seed=0):
    """(q, prior) for a frame of shape (d, q); with a prior, q is capped at d-1."""
    if not with_prior:
        return q, None
    return min(q, d - 1), RngHandle(1000 + seed).gen.standard_normal(d)


@pytest.mark.parametrize("d,q", FRAME_SHAPES)
@pytest.mark.parametrize("with_prior", [False, True])
def test_build_frames_equals_sequential_build_frame(d, q, with_prior):
    q, prior = frame_shape(d, q, with_prior)
    rng_seq, rng_batch = RngHandle(7), RngHandle(7)
    seq = np.array([build_frame(rng_seq, d, q, prior=prior).stacked() for _ in range(70)])
    frames = build_frames(rng_batch, d, q, 70, prior=prior)
    np.testing.assert_array_equal(frames.stacked(), seq)
    # both left the stream at the same place
    assert rng_seq.gen.standard_normal() == rng_batch.gen.standard_normal()
    assert frames.q == q and frames.dim == d
    if with_prior:
        np.testing.assert_array_equal(frames.prior, seq[:, 0])
        np.testing.assert_array_equal(frames.directions, seq[:, 1:])
    else:
        assert frames.prior is None


@pytest.mark.parametrize("d,q", FRAME_SHAPES)
@pytest.mark.parametrize("with_prior", [False, True])
@pytest.mark.parametrize("bad", [(5,), (5, 6, 11), (0, 12)])
def test_rejected_block_shifts_later_frames_as_sequential_calls(d, q, with_prior, bad):
    q, prior = frame_shape(d, q, with_prior)
    n = 12
    seq_rng, batch_rng = TapeRng(3, q, d, n + 8, bad), TapeRng(3, q, d, n + 8, bad)
    seq = np.array([build_frame(seq_rng, d, q, prior=prior).stacked() for _ in range(n)])
    batch = build_frames(batch_rng, d, q, n, prior=prior).stacked()
    np.testing.assert_array_equal(batch, seq)
    # each rejected block cost exactly one extra block of draws
    assert batch_rng.used == seq_rng.used == (n + len(bad)) * q * d
    # and the frames are the ones the good blocks give, in order
    good = [b for b in range(n + len(bad)) if b not in bad]
    clean = TapeRng(3, q, d, n + 8)
    clean.tape = clean.tape.reshape(-1, q, d)[good].ravel()
    np.testing.assert_array_equal(build_frames(clean, d, q, n, prior=prior).stacked(), batch)


@pytest.mark.parametrize("with_prior", [False, True])
def test_64_consecutive_rejects_raise_in_a_batch(with_prior):
    d, q = 9, 4
    q, prior = frame_shape(d, q, with_prior)
    # blocks 2..65 are bad: frame 2 runs out of tries, as build_frame would
    rng = TapeRng(4, q, d, 80, bad=range(2, 66))
    with pytest.raises(ConfigError, match="orthonormal frame"):
        build_frames(rng, d, q, 10, prior=prior)
    seq = TapeRng(4, q, d, 80, bad=range(2, 66))
    with pytest.raises(ConfigError, match="orthonormal frame"):
        for _ in range(10):
            build_frame(seq, d, q, prior=prior)
    # 63 bad blocks in a row still leave every frame buildable
    ok_batch = build_frames(TapeRng(4, q, d, 80, bad=range(2, 65)), d, q, 10, prior=prior)
    ok_seq = TapeRng(4, q, d, 80, bad=range(2, 65))
    np.testing.assert_array_equal(
        ok_batch.stacked(), np.array([build_frame(ok_seq, d, q, prior=prior).stacked()
                                      for _ in range(10)]))


@pytest.mark.parametrize("with_prior", [False, True])
def test_an_accepted_block_resets_the_rejects_in_a_row(with_prior):
    d, q = 9, 4
    q, prior = frame_shape(d, q, with_prior)
    # 40 bad blocks, a good one, then 40 more: 80 rejects, never 64 in a row
    bad = [*range(2, 42), *range(43, 83)]
    batch = build_frames(TapeRng(4, q, d, 100, bad), d, q, 5, prior=prior)
    seq = TapeRng(4, q, d, 100, bad)
    np.testing.assert_array_equal(
        batch.stacked(), np.array([build_frame(seq, d, q, prior=prior).stacked()
                                   for _ in range(5)]))


def test_build_frames_rejects_empty_batch():
    with pytest.raises(ConfigError, match="n must be >= 1"):
        build_frames(RngHandle(0), 5, 2, 0)


def reference_cholqr_frame(seed, d, q, prior):
    """build_frame written out step by step, one temporary per operation:
    draw, np.outer projection, Gram, dpotrf, dtrtri, matmul."""
    raw = RngHandle(seed).gen.standard_normal((q, d))
    p = None
    if prior is not None:
        p = np.asarray(prior, dtype=float) / np.linalg.norm(prior)
        raw -= np.outer(raw @ p, p)
    chol, info = lapack.dpotrf(raw @ raw.T, lower=1)
    assert info == 0 and np.min(np.diagonal(chol)) >= 1e-6
    inv_l, info = lapack.dtrtri(chol, lower=1)
    assert info == 0
    return inv_l @ raw, p


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("d,q", [(8, 4), (500, 11)])
@pytest.mark.parametrize("with_prior", [False, True])
def test_build_frame_bit_identical_to_reference(seed, d, q, with_prior):
    prior = RngHandle(1000 + seed).gen.standard_normal(d) if with_prior else None
    q = q - 1 if with_prior else q
    ref_dirs, ref_prior = reference_cholqr_frame(seed, d, q, prior)
    frame = build_frame(RngHandle(seed), d, q, prior=prior)
    np.testing.assert_array_equal(frame.directions, ref_dirs)
    if with_prior:
        np.testing.assert_array_equal(frame.prior, ref_prior)
        np.testing.assert_array_equal(frame.stacked(), np.vstack([ref_prior, ref_dirs]))
        assert np.shares_memory(frame.stacked(), frame.directions)
        assert np.shares_memory(frame.stacked(), frame.prior)
    else:
        assert frame.prior is None and frame.stacked() is frame.directions


def test_cos_sq_of_a_stack_equals_row_by_row():
    gen = np.random.default_rng(0)
    # dot products whose square as a numpy scalar (the C library's pow)
    # differs from the correctly rounded x * x; a @ b is exactly x for a = e1
    xs = [x for x in gen.standard_normal(100_000) if np.float64(x) ** 2 != x * x][:50]
    a = np.eye(6)[0]
    b = gen.standard_normal((len(xs) + 50, 6))
    b[:len(xs), 0] = xs
    b[-1] = 0.0
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        stacked = cos_sq(a, b)
        rows = [cos_sq(a, row) for row in b]
        zero_a = [cos_sq(np.zeros(6), b), cos_sq(np.zeros(6), b[0])]
    for x, row, v in zip(xs, b, rows):
        assert v == x * x / (row @ row)
    assert np.isnan(stacked[-1]) and np.isnan(rows[-1])
    assert np.isnan(zero_a[0]).all() and np.isnan(zero_a[1])
    np.testing.assert_array_equal(stacked[:-1], rows[:-1])
    assert all(type(v) is float for v in rows)


def test_frame_from_directions_and_prior():
    dirs = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    prior = np.array([1.0, 0.0, 0.0])
    frame = OrthonormalFrame(np.vstack([prior, dirs]), with_prior=True)
    assert frame.q == 2 and frame.dim == 3
    np.testing.assert_array_equal(frame.stacked(), np.eye(3))
    np.testing.assert_array_equal(frame.prior, prior)
    np.testing.assert_array_equal(frame.directions, dirs)
    plain = OrthonormalFrame(dirs, with_prior=False)
    assert plain.prior is None and plain.q == 2
    np.testing.assert_array_equal(plain.stacked(), dirs)


def test_probe_carries_fd_base_value():
    fn = bench_function("f2", 20)
    frame = build_frame(RngHandle(1), 20, 5, prior=np.ones(20))
    x = fn.x0 + 0.5
    fd = OracleHandle(fn.as_objective(), mu=1e-6)
    probe(fd, x, frame)
    assert fd.last_base_f == fn.eval(x)
    exact = OracleHandle(fn.as_objective(), mode="exact")
    probe(exact, x, frame)
    assert exact.last_base_f is None


def test_zero_prior_rejected():
    with pytest.raises(InvalidPriorError):
        build_frame(RngHandle(0), 4, 2, prior=np.zeros(4))


def test_q_bounds_enforced():
    with pytest.raises(ConfigError):
        build_frame(RngHandle(0), 4, 5)
    with pytest.raises(ConfigError):
        build_frame(RngHandle(0), 4, 4, prior=np.ones(4))


def test_probe_query_counts():
    fn = bench_function("f2", 20)
    oracle = OracleHandle(fn.as_objective(), mu=1e-6)
    rng = RngHandle(1)
    frame = build_frame(rng, 20, 10, prior=np.ones(20))
    probe(oracle, fn.x0, frame)
    assert oracle.dd_queries == 11  # q + 1 with a prior
    frame = build_frame(rng, 20, 11)
    probe(oracle, fn.x0, frame)
    assert oracle.dd_queries == 22  # 11 more without one


def test_probe_exact_mode_linear_function():
    g = np.arange(1.0, 7.0)
    from pgzo.core import ObjectiveSpec
    obj = ObjectiveSpec(dim=6, eval=lambda x: float(g @ x), true_gradient=lambda x: g.copy(),
                        x0=np.zeros(6))
    oracle = OracleHandle(obj, mode="exact")
    frame = build_frame(RngHandle(2), 6, 3)
    ps = probe(oracle, np.zeros(6), frame)
    np.testing.assert_allclose(ps.dir_derivs, frame.directions @ g, atol=1e-14)


def test_subspace_estimate_full_basis_recovers_gradient():
    grad = np.array([3.0, 4.0])
    frame = build_frame(RngHandle(0), 2, 1, prior=np.array([1.0, 0.0]))
    g1 = subspace_estimate(exact_probes(frame, grad))
    np.testing.assert_allclose(g1, grad, atol=1e-12)


def test_subspace_estimate_zero_probes():
    frame = build_frame(RngHandle(0), 5, 2)
    ps = ProbeSet(frame=frame, prior_deriv=None, dir_derivs=np.zeros(2))
    np.testing.assert_array_equal(subspace_estimate(ps), np.zeros(5))


def test_subspace_estimate_equals_projector():
    rng = RngHandle(9)
    grad = rng.gen.standard_normal(5)
    frame = build_frame(rng, 5, 2)
    g1 = subspace_estimate(exact_probes(frame, grad))
    proj = frame.directions.T @ frame.directions @ grad
    np.testing.assert_allclose(g1, proj, atol=1e-10)


def test_g2_full_basis_d2():
    grad = np.array([3.0, 4.0])
    frame = build_frame(RngHandle(0), 2, 1, prior=np.array([1.0, 0.0]))
    np.testing.assert_allclose(g2_unbiased(exact_probes(frame, grad)), grad, atol=1e-12)


def test_g2_requires_prior():
    frame = build_frame(RngHandle(0), 5, 2)
    with pytest.raises(ConfigError):
        g2_unbiased(exact_probes(frame, np.ones(5)))


def test_g2_variance_reduced_prior_orthogonal_reduces_to_scaled_rgf():
    rng = RngHandle(4)
    d, q = 10, 3
    grad = rng.gen.standard_normal(d)
    p = rng.gen.standard_normal(d)
    p -= (p @ grad) / (grad @ grad) * grad  # orthogonal prior
    frame = build_frame(rng, d, q)
    ps = exact_probes(frame, grad)
    g2 = g2_variance_reduced(ps, p, float(p / np.linalg.norm(p) @ grad))
    plain = (d / q) * (ps.dir_derivs @ frame.directions)
    np.testing.assert_allclose(g2, plain, atol=1e-12)


def test_estimate_grad_norm_sq_full_basis():
    grad = np.array([3.0, 4.0])
    frame = build_frame(RngHandle(0), 2, 1, prior=np.array([1.0, 0.0]))
    assert estimate_grad_norm_sq(exact_probes(frame, grad)) == pytest.approx(25.0)
    zeros = ProbeSet(frame=frame, prior_deriv=0.0, dir_derivs=np.zeros(1))
    assert estimate_grad_norm_sq(zeros) == 0.0


def test_estimate_Dt_values():
    frame = build_frame(RngHandle(0), 2, 1, prior=np.array([1.0, 0.0]))
    ps = ProbeSet(frame=frame, prior_deriv=3.0, dir_derivs=np.array([4.0]))
    assert estimate_Dt(ps) == pytest.approx(0.36)
    assert estimate_Dt(ps, conservative=True) == pytest.approx(9.0 / 41.0)
    aligned = ProbeSet(frame=frame, prior_deriv=3.0, dir_derivs=np.zeros(1))
    assert estimate_Dt(aligned) == 1.0
    silent = ProbeSet(frame=frame, prior_deriv=0.0, dir_derivs=np.zeros(1))
    assert estimate_Dt(silent) == 0.0


@pytest.mark.parametrize("seed", range(10))
def test_conservative_Dt_never_exceeds_plain(seed):
    rng = RngHandle(seed)
    frame = build_frame(rng, 12, 4, prior=rng.gen.standard_normal(12))
    ps = exact_probes(frame, rng.gen.standard_normal(12))
    plain, cons = estimate_Dt(ps), estimate_Dt(ps, conservative=True)
    assert 0.0 <= cons <= plain <= 1.0
