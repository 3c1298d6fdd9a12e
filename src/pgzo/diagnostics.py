"""Monte-Carlo and trace-based verification of the estimator/convergence claims.

Everything here uses true-gradient access and exact directional derivatives;
none of it is charged to oracle query counters.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Optional, Sequence

import numpy as np

from .ars import ArsConfig, alpha_beta_gamma, run_ars
from .core import (Array, ConfigError, OracleFailureError, RngHandle, is_real,
                   require_finite_positive, require_int_at_least, require_seeds,
                   sample_unit_sphere)
from .frames import (OrthonormalFrame, ProbeSet, _dot, build_frame, build_frames, cos_sq,
                     g2_unbiased, g2_variance_reduced, subspace_estimate)
from .greedy import GreedyConfig, _adopt_prior, greedy_step, run_greedy
from .testfns import bench_function
from .trace import StepRow


# Frame values per block of Monte-Carlo samples, (q + 1) * d per frame with
# a prior and q * d without: at most 128 KiB of doubles, glibc's initial mmap
# threshold, above which the heap's history decides whether a block's rows
# are mmapped. The block bounds memory, not speed: on a 2-vCPU host (OpenBLAS
# 0.3.31) the AC02-AC05 shapes ran as fast with 16384 as with 32768 and
# slower with 65536; at (101, 10) blocks of 64 frames raised peak RSS 1.5 MB.
MC_BLOCK_VALUES = 16384
_BOUND_SLACK = 0.2  # check_theorem_bounds: multiplicative slack on the plain-frame rates
_LEMMA36_TOL = 1e-9  # check_lemma36: the rounding by which D_t may miss its bound


class DriftSample(NamedTuple):
    C_t: float
    D_t: float
    iteration: int


class BoundCheck(NamedTuple):
    name: str
    T: int
    observed: float
    bound: float

    @property
    def ok(self) -> bool:
        return self.observed <= self.bound


def _exact_probes(frame: OrthonormalFrame, grad: Array) -> ProbeSet:
    """Exact directional derivatives along a frame or a stack of frames."""
    pd = None if frame.prior is None else _dot(frame.prior, grad)[..., None]
    return ProbeSet(frame=frame, prior_deriv=pd, dir_derivs=frame.directions @ grad)


def _prior_with_quality(grad: Array, D: float, rng: RngHandle) -> Array:
    """Unit vector whose squared cosine with ``grad`` is exactly D."""
    if not (is_real(D) and 0.0 <= D <= 1.0):
        raise ConfigError(f"prior quality D must lie in [0, 1], got {D}")
    g_hat = grad / np.linalg.norm(grad)
    while True:
        w = sample_unit_sphere(rng, len(grad))
        w = w - (w @ g_hat) * g_hat
        n = np.linalg.norm(w)
        if n > 1e-12:
            break
    w /= n
    return np.sqrt(D) * g_hat + np.sqrt(1.0 - D) * w


def _blocks(n_samples: int, rows: int, d: int):
    """(start, size) of each block of samples: as many frames of ``rows``
    rows as MC_BLOCK_VALUES values hold (at least one); the last is shorter."""
    block = max(1, MC_BLOCK_VALUES // (rows * d))
    for start in range(0, n_samples, block):
        yield start, min(block, n_samples - start)


def _add_in_order(total, terms: Array):
    """``total + terms[0] + terms[1] + ...`` with the additions made one by
    one, as a loop over the samples makes them (a sum pairs them up)."""
    return np.add.accumulate(np.concatenate([np.asarray(total)[None], terms]))[-1]


def _require_counts(**counts) -> None:
    """ConfigError unless each count is an integer, not a float or a bool, >= 1."""
    for name, value in counts.items():
        require_int_at_least(name, value, 1)


def _mc_drift(d: int, q: int, n_samples: int, rng: RngHandle,
              D_fixed: Optional[float]) -> tuple[float, float]:
    """MC mean/stderr of C_t against a fixed random gradient, over plain
    frames, or over prior-guided ones when ``D_fixed`` is the prior quality."""
    require_int_at_least("n_samples", n_samples, 1000)
    grad = sample_unit_sphere(rng, d)
    prior = None if D_fixed is None else _prior_with_quality(grad, D_fixed, rng)
    cs = np.empty(n_samples)
    for start, size in _blocks(n_samples, q + (prior is not None), d):
        frames = build_frames(rng, d, q, size, prior=prior)
        cs[start:start + size] = cos_sq(grad, subspace_estimate(_exact_probes(frames, grad)))
    return float(cs.mean()), float(cs.std(ddof=1) / np.sqrt(n_samples))


def mc_rgf_drift(d: int, q: int, n_samples: int, rng: RngHandle) -> tuple[float, float]:
    """MC mean/stderr of C_t for plain random frames against a fixed gradient."""
    _require_counts(d=d, q=q)
    if q > d:
        raise ConfigError(f"q={q} exceeds d={d}")
    return _mc_drift(d, q, n_samples, rng, None)


def mc_prgf_drift(d: int, q: int, D_fixed: float, n_samples: int,
                  rng: RngHandle) -> tuple[float, float]:
    """MC mean/stderr of C_t for prior-guided frames at fixed prior quality D."""
    _require_counts(d=d, q=q)
    if q > d - 1:
        raise ConfigError(f"q={q} must satisfy q <= d-1={d - 1}")
    return _mc_drift(d, q, n_samples, rng, D_fixed)


def mc_g2_moments(d: int, q: int, D: float, n_samples: int, rng: RngHandle,
                  variance_reduced: bool = False) -> tuple[float, float]:
    """(relative error of the MC mean of g2, MC mean of ||g2||^2 / ||grad||^2).

    The plain construction removes the prior from the random directions; the
    variance-reduced one keeps them uniform and uses the prior as a control
    variate.
    """
    _require_counts(d=d, q=q, n_samples=n_samples)
    grad = 2.0 * sample_unit_sphere(rng, d)
    prior = _prior_with_quality(grad, D, rng)
    acc = np.zeros(d)
    norm_sq = 0.0
    for _, size in _blocks(n_samples, q + (not variance_reduced), d):
        if variance_reduced:
            frames = build_frames(rng, d, q, size)
            g2 = g2_variance_reduced(_exact_probes(frames, grad), prior, float(prior @ grad))
        else:
            frames = build_frames(rng, d, q, size, prior=prior)
            g2 = g2_unbiased(_exact_probes(frames, grad))
        acc = _add_in_order(acc, g2)
        norm_sq = _add_in_order(norm_sq, _dot(g2, g2))
    mean = acc / n_samples
    gn2 = float(grad @ grad)
    rel_err = float(np.linalg.norm(mean - grad) / np.sqrt(gn2))
    return rel_err, float(norm_sq / n_samples / gn2)


def subspace_optimality_margin(d: int, q: int, n_vectors: int, rng: RngHandle,
                               n_trials: int = 20) -> float:
    """Worst observed cos^2 margin of the projection direction over random
    in-subspace unit vectors; nonnegative up to rounding if the projection
    is optimal."""
    _require_counts(n_trials=n_trials, n_vectors=n_vectors, d=d, q=q)
    worst = np.inf
    for _ in range(n_trials):
        grad = sample_unit_sphere(rng, d) * rng.gen.uniform(0.5, 2.0)
        frame = build_frame(rng, d, q)
        g1 = subspace_estimate(_exact_probes(frame, grad))
        best = cos_sq(grad, g1)
        z = rng.gen.standard_normal((n_vectors, q))
        competitors = cos_sq(grad, z @ frame.directions)
        worst = min(worst, best - float(competitors.max()))
    return worst


def check_lemma36(d: int, q: int, L_hat_mult: float, iterations: int,
                  seed: int) -> tuple[int, List[DriftSample]]:
    """Count violations of D_t >= (1 - L/L̂)^2 C_{t-1} along a History-PRGF
    run on the diagonal quadratic with an exact oracle. Zero on quadratics
    whenever L̂ >= L."""
    require_int_at_least("iterations", iterations, 2)  # to pair C_(t-1) with D_t
    require_finite_positive("L_hat_mult", L_hat_mult)
    fn = bench_function("f2", d)
    L = fn.L
    cfg = GreedyConfig(L_hat=L_hat_mult * L, q=q, algo="history_prgf",
                       budget=iterations * (q + 1), oracle_mode="exact", diagnostics=True,
                       log_every=iterations)
    # C_t and D_t from the steps' own records: the trace keeps rows 0 and T
    # only, so the run reads f(x_t) at those two alone
    rows: List[StepRow] = []
    run_greedy(fn.as_objective(), cfg, seed,
               step=lambda *args: rows.append(greedy_step(*args)) or rows[-1])
    a = (1.0 - 1.0 / L_hat_mult) ** 2
    c_col, d_col = np.array([(r.C, r.D) for r in rows]).T
    c_prev, c_t, d_t = c_col[:-1], c_col[1:], d_col[1:]
    paired = ~(np.isnan(c_prev) | np.isnan(d_t))  # t = 1 .. iterations-1 where both are set
    violations = int(np.count_nonzero(d_t[paired] < a * c_prev[paired] - _LEMMA36_TOL))
    samples = list(map(DriftSample, c_t[paired].tolist(), d_t[paired].tolist(),
                       (np.flatnonzero(paired) + 1).tolist()))
    return violations, samples


def _delta_at(trace, T: int, f_star: float) -> float:
    at = np.flatnonzero(trace.column("iteration") == T)
    if not at.size:
        raise ConfigError(f"trace has no row for iteration {T}")
    return trace.rows[at[-1]][3] - f_star


def _log_every(T_values: Sequence[int]) -> int:
    """gcd(T_values): a bound check logs only the rows it reads, at each T and the
    last; ConfigError unless T_values is a non-empty sequence of positive integers."""
    if not isinstance(T_values, (Sequence, np.ndarray)) or len(T_values) == 0:
        raise ConfigError(f"T_values must be a non-empty sequence, got {T_values!r}")
    _require_counts(**{f"T_values[{i}]": T for i, T in enumerate(T_values)})
    return math.gcd(*T_values)


def check_theorem_bounds(d: int, q: int, T_values: Sequence[int], seeds: Sequence[int],
                         L_hat_mult: float = 1.0, historical: bool = False) -> List[BoundCheck]:
    """Seed-averaged delta_T against the applicable convergence bound on the
    diagonal quadratic.

    Plain frames: the strongly-convex rate exp(-(tau/L')(q/d) T) and the
    smooth-convex rate 2 L' (d/q) R^2 / (T+1), both with multiplicative
    slack. Historical prior at a conservative learning rate: the factor-2
    bound with rate 0.1 (q/d)(tau/L), valid for T >= 5 d/q.

    The seeds run as one stack of exact-oracle ``rgf`` or ``history_prgf``
    runs: each iteration builds every seed's frame from its own handle
    (``build_frames``) and takes every seed's step at once, so x_T is bit for
    bit the iterate of the seed's own ``run_greedy``. f is read only at each
    T; a non-finite f(x_T) raises OracleFailureError naming the algorithm, T
    and the dd-queries spent, as the seed's own run does.
    """
    require_seeds(seeds, 20, "bound checks need at least 20 seeds")
    _log_every(T_values)  # checks T_values; the stack logs no rows
    fn = bench_function("f2", d)
    require_int_at_least("q", q, 1)
    require_finite_positive("L_hat_mult", L_hat_mult)
    if historical and min(T_values) < 5 * d / q:
        raise ConfigError(f"historical-prior bound needs T >= 5d/q, got T={min(T_values)}")
    L, tau = fn.L, fn.tau
    L_hat = L_hat_mult * L
    L_prime = L / (1.0 - (1.0 - L / L_hat) ** 2) if L_hat > L else L
    algo, cost = ("history_prgf", q + 1) if historical else ("rgf", q)
    rngs = [RngHandle(seed) for seed in seeds]
    n = len(rngs)
    x = np.tile(fn.x0, (n, 1))
    prior = np.array([sample_unit_sphere(rng, d) for rng in rngs]) if historical else None
    deltas = {}
    for t in range(1, max(T_values) + 1):
        frames = build_frames(rngs, d, q, n, prior)
        grads = np.array([fn.grad(xi) for xi in x])
        vals = (frames.stacked() @ grads[:, :, None])[..., 0]  # each row's exact probes
        g1 = subspace_estimate(ProbeSet(frames, vals[:, :1], vals[:, 1:]) if historical
                               else ProbeSet(frames, None, vals))
        x -= g1 / L_hat
        if historical:
            prior = _adopt_prior(g1, prior)
        if t in T_values:
            deltas[t] = []
            for xi in x:
                f = fn.eval(xi)
                if not math.isfinite(f):
                    raise OracleFailureError(f"{algo} at iteration {t} after {t * cost} "
                                             f"dd-queries: objective returned non-finite "
                                             f"value {f}", xi)
                deltas[t].append(f - fn.f_star)
    delta0 = fn.eval(fn.x0) - fn.f_star
    R = float(d)  # farthest sublevel point puts all mass on the flattest axis
    checks: List[BoundCheck] = []
    for T in T_values:
        mean = float(np.mean(deltas[T]))
        if historical:
            bound = 2.0 * np.exp(-0.1 * (q / d) * (tau / L) * T) * delta0
            checks.append(BoundCheck("history_factor2_rate", T, mean, float(bound)))
        else:
            bound_strong = delta0 * np.exp(-(tau / L_prime) * (q / d) * T) * (1.0 + _BOUND_SLACK)
            bound_smooth = 2.0 * L_prime * (d / q) * R * R / (T + 1) * (1.0 + _BOUND_SLACK)
            checks.append(BoundCheck("strongly_convex_rate", T, mean, float(bound_strong)))
            checks.append(BoundCheck("smooth_convex_rate", T, mean, float(bound_smooth)))
    return checks


def check_ars_bound(d: int, q: int, T_values: Sequence[int], seeds: Sequence[int],
                    tau_hat_mult: float = 1.0) -> List[BoundCheck]:
    """Seed-averaged delta_T of ``ars`` against its accelerated convergence
    bound on the diagonal quadratic (x* = 0), with an exact oracle, no
    restart, L̂ = L and taû = ``tau_hat_mult`` * tau <= tau.

    ``ars`` fixes theta = q^2/(L̂ d^2). The descent step from y_t along the
    subspace estimate g1 gives f(x_{t+1}) <= f(y_t) - ||g1||^2/(2L̂), and
    E||g1||^2 = (q/d)||grad f(y_t)||^2. Its momentum estimate g2 = (d/q) g1
    has E g2 = grad f(y_t) and E||g2||^2 = (d/q)||grad f(y_t)||^2, so
    E f(x_{t+1}) <= f(y_t) - (theta/2) E||g2||^2. Under that condition the
    estimating-sequence argument of Nesterov & Spokoiny (2017, "Random
    Gradient-Free Minimization of Convex Functions", Found. Comput. Math.)
    and the source paper's ARS analysis, with alpha_t^2 = theta gamma_{t+1},
    gamma_{t+1} = (1 - alpha_t) gamma_t + alpha_t taû, beta_t =
    alpha_t gamma_t/(gamma_t + alpha_t taû) and m_{t+1} = (1 - lambda_t) m_t +
    lambda_t y_t - (theta/alpha_t) g2 with lambda_t = alpha_t taû/gamma_{t+1},
    give E Phi_{t+1} <= (1 - alpha_t) E Phi_t for Phi_t = f(x_t) - f* +
    gamma_t/2 ||m_t - x*||^2 whenever L̂ >= L and taû <= tau. With m_0 = x_0 and gamma_0 = L̂:

        E[f(x_T) - f*] <= psi_T (f(x_0) - f* + L̂/2 ||x_0 - x*||^2),
        psi_T = prod_{t<T} (1 - alpha_t).

    theta is fixed, so alpha_t and psi_T follow from ``alpha_beta_gamma``
    alone. The bound has no slack.
    """
    require_seeds(seeds, 20, "bound checks need at least 20 seeds")
    log_every = _log_every(T_values)
    if not (is_real(tau_hat_mult) and 0.0 <= tau_hat_mult <= 1.0):
        raise ConfigError(f"the bound needs 0 <= taû <= tau, got tau_hat_mult={tau_hat_mult}")
    fn = bench_function("f2", d)
    T_max = max(T_values)
    cfg = ArsConfig(L_hat=fn.L, q=q, algo="ars", budget=T_max * q, oracle_mode="exact",
                    tau_hat=tau_hat_mult * fn.tau, log_every=log_every)
    traces = [run_ars(fn.as_objective(), cfg, seed) for seed in seeds]
    phi0 = fn.eval(fn.x0) - fn.f_star + cfg.L_hat / 2.0 * float(fn.x0 @ fn.x0)
    theta = q * q / (cfg.L_hat * d * d)
    psi, gamma = [1.0], cfg.L_hat
    for _ in range(T_max):
        alpha, _, gamma = alpha_beta_gamma(theta, gamma, cfg.tau_hat)
        psi.append(psi[-1] * (1.0 - alpha))
    return [BoundCheck("ars_accelerated_rate", T,
                       float(np.mean([_delta_at(tr, T, fn.f_star) for tr in traces])),
                       psi[T] * phi0) for T in T_values]
