"""Benchmark objectives f1..f4 with analytic gradients and constants.

f1  chain quadratic with a linear tilt (the classic hard smooth convex case)
f2  diagonal quadratic sum_i (i/d) x_i^2 started at the flattest coordinate
f3  Rosenbrock (nonconvex; no smoothness certificate, tune L̂ by search)
f4  Huber-like composition of r = sqrt(f2): quadratic near the optimum,
    linear in r far away, so the global L is set by the worst local region
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .core import (Array, ConfigError, ObjectiveSpec, RngHandle, flapack, l2_norm,
                   require_int_at_least, sample_unit_sphere)

FUNCTION_IDS = ("f1", "f2", "f3", "f4")


@dataclass(frozen=True)
class BenchFunction:
    name: str
    dim: int
    eval: Callable[[Array], float]
    eval_batch: Callable[[Array], Array]
    grad: Callable[[Array], Array]
    x0: Array
    f_star: float
    L: Optional[float]          # None when no certificate exists (f3)
    tau: float

    def as_objective(self) -> ObjectiveSpec:
        return ObjectiveSpec(dim=self.dim, eval=self.eval, eval_batch=self.eval_batch,
                             true_gradient=self.grad, f_star=self.f_star, x0=self.x0)


def _make_f1(d: int) -> BenchFunction:
    def f(x: Array) -> float:
        # x[1:] - x[:-1] and np.add.reduce are what np.diff and np.sum
        # compute, without their Python wrappers (same bits).
        return float(0.5 * x[0] ** 2 + 0.5 * np.add.reduce((x[1:] - x[:-1]) ** 2)
                     + 0.5 * x[-1] ** 2 - x[0])

    def f_batch(pts: Array) -> Array:
        diff = pts[:, 1:] - pts[:, :-1]
        return (0.5 * pts[:, 0] ** 2 + 0.5 * np.add.reduce(diff ** 2, axis=1)
                + 0.5 * pts[:, -1] ** 2 - pts[:, 0])

    def g(x: Array) -> Array:
        out = 2.0 * x
        out[:-1] -= x[1:]
        out[1:] -= x[:-1]
        out[0] -= 1.0
        return out

    # Hessian is tridiag(-1, 2, -1): solve H x* = e1 for x*, take L and tau
    # from its extreme eigenvalues. These are the LAPACK calls, with the same
    # arguments, that scipy.linalg.solveh_banded makes for a 2-row band and
    # eigh_tridiagonal(select="i") for one eigenvalue by index.
    diag, off = np.full(d, 2.0), np.full(d - 1, -1.0)
    e1 = np.zeros(d)
    e1[0] = 1.0
    x_star = flapack.dptsv(diag, off, e1, 0, 0, 0)[2]
    tau, L = (float(flapack.dstebz(diag, off, 2, 0.0, 1.0, i, i, 0.0, "E")[1][0])
              for i in (1, d))
    return BenchFunction("f1", d, f, f_batch, g, np.zeros(d), f(x_star), L=L, tau=tau)


def _make_f2(d: int) -> BenchFunction:
    c = np.arange(1, d + 1) / d

    def f(x: Array) -> float:
        return float(c @ (x * x))

    def f_batch(pts: Array) -> Array:
        return (pts * pts) @ c

    def g(x: Array) -> Array:
        return 2.0 * c * x

    x0 = np.zeros(d)
    x0[0] = d
    return BenchFunction("f2", d, f, f_batch, g, x0, 0.0, L=2.0, tau=2.0 / d)


def _make_f3(d: int) -> BenchFunction:
    def f(x: Array) -> float:
        return float(np.add.reduce(100.0 * (x[:-1] ** 2 - x[1:]) ** 2 + (x[:-1] - 1.0) ** 2))

    def f_batch(pts: Array) -> Array:
        a, b = pts[:, :-1], pts[:, 1:]
        return np.add.reduce(100.0 * (a * a - b) ** 2 + (a - 1.0) ** 2, axis=1)

    def g(x: Array) -> Array:
        out = np.zeros_like(x)
        t = x[:-1] ** 2 - x[1:]
        out[:-1] += 400.0 * x[:-1] * t + 2.0 * (x[:-1] - 1.0)
        out[1:] -= 200.0 * t
        return out

    return BenchFunction("f3", d, f, f_batch, g, np.zeros(d), 0.0, L=None, tau=0.0)


def _make_f4(d: int) -> BenchFunction:
    c = np.arange(1, d + 1) / d

    def f(x: Array) -> float:
        r = np.sqrt(c @ (x * x))
        return float(0.5 * r * r if r <= 1.0 else r - 0.5)

    def f_batch(pts: Array) -> Array:
        r = np.sqrt((pts * pts) @ c)
        return np.where(r <= 1.0, 0.5 * r * r, r - 0.5)

    def g(x: Array) -> Array:
        gf2 = 2.0 * c * x
        r = np.sqrt(c @ (x * x))
        if r <= 1.0:
            return 0.5 * gf2
        return gf2 / (2.0 * r)

    x0 = np.zeros(d)
    x0[0] = 5.0 * np.sqrt(d)
    # Inner branch Hessian is diag(i/d) (top eigenvalue 1); outer branch
    # curvature is bounded by 1/r <= 1 on its domain. Tests validate this
    # with sampled gradient-Lipschitz checks.
    return BenchFunction("f4", d, f, f_batch, g, x0, 0.0, L=1.0, tau=0.0)


_FACTORIES = {"f1": _make_f1, "f2": _make_f2, "f3": _make_f3, "f4": _make_f4}


def bench_function(name: str, d: int) -> BenchFunction:
    if name not in _FACTORIES:
        raise ConfigError(f"unknown function {name!r}, expected one of {FUNCTION_IDS}")
    require_int_at_least("d", d, 2)
    return _FACTORIES[name](d)


@dataclass
class BiasedPriorGen:
    """Benchmark prior: the normalized gradient plus a fixed bias b and fresh
    noise n each call (||b|| = 1, ||n|| = 1.5), renormalized to unit length.
    Uses the true gradient, so it costs no oracle queries.
    """

    rng: RngHandle
    dim: int
    noise_norm: float = 1.5
    b: Array = field(init=False)

    def __post_init__(self):
        self.b = sample_unit_sphere(self.rng, self.dim)

    def __call__(self, grad: Array) -> Array:
        n = self.noise_norm * sample_unit_sphere(self.rng, self.dim)
        gn = l2_norm(grad)
        v = (self.b + n) if gn == 0.0 else (grad / gn + self.b + n)
        nv = l2_norm(v)
        if nv == 0.0:  # measure-zero cancellation: fall back to the bias
            return self.b.copy()
        return v / nv


def biased_prior_feed(fn: BenchFunction, rng: RngHandle) -> Callable[[Array], Array]:
    """Per-iterate prior callable p(x) built on the biased-gradient generator."""
    gen = BiasedPriorGen(rng=rng, dim=fn.dim)
    return lambda x: gen(fn.grad(x))
