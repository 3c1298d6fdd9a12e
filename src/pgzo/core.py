"""Black-box objective wrapper, directional-derivative oracle, and seeded RNG."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

Array = np.ndarray

DEFAULT_MU = 1e-6


class OracleFailureError(RuntimeError):
    """The black-box function returned a non-finite value."""

    def __init__(self, message: str, point: Optional[Array] = None):
        super().__init__(message)
        self.point = point


class UnsupportedDiagnosticError(RuntimeError):
    """A true-gradient diagnostic was requested but no gradient is available."""


class InvalidPriorError(ValueError):
    """A prior direction with zero (or near-zero) norm was supplied."""


class ConfigError(ValueError):
    """An algorithm/benchmark configuration violates a precondition."""


@dataclass(frozen=True)
class ObjectiveSpec:
    """A d-dimensional objective with optional analytic side information.

    ``eval`` is the only thing the optimizers may query. ``true_gradient``
    exists for diagnostics and exact-oracle runs and is never charged to the
    query counters. ``eval_batch``, when given, must agree with ``eval``
    row-wise; it exists so probing a whole frame costs one vectorized call.
    """

    dim: int
    eval: Callable[[Array], float]
    eval_batch: Optional[Callable[[Array], Array]] = None
    true_gradient: Optional[Callable[[Array], Array]] = None
    f_star: Optional[float] = None
    x0: Optional[Array] = None

    def __post_init__(self):
        if self.dim < 1:
            raise ConfigError(f"dim must be >= 1, got {self.dim}")
        if self.x0 is not None and len(self.x0) != self.dim:
            raise ConfigError(f"x0 has length {len(self.x0)}, expected {self.dim}")


@dataclass
class RngHandle:
    """Seeded random stream; identical seeds give identical sample streams."""

    seed: int
    gen: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self):
        # SFC64 over the default PCG64: same statistical quality, measurably
        # faster normal generation on the single-core benchmark hosts.
        self.gen = np.random.Generator(np.random.SFC64(self.seed))


def l2_norm(v: Array) -> float:
    """Euclidean norm of a 1-D real vector: the sqrt(v . v) that
    ``np.linalg.norm`` computes, without its Python-level dispatch."""
    return math.sqrt(v @ v)


def sample_unit_sphere(rng: RngHandle, d: int) -> Array:
    """Uniform draw from the unit sphere via a normalized Gaussian vector."""
    if d < 1:
        raise ConfigError(f"d must be >= 1, got {d}")
    while True:
        v = rng.gen.standard_normal(d)
        n = l2_norm(v)
        if n > 0.0:  # all-zero draw has probability zero; resample
            return v / n


@dataclass
class OracleHandle:
    """Finite-difference directional-derivative oracle with query accounting.

    ``dd_queries`` counts directional-derivative requests (the paper-level
    cost unit). ``fn_evals`` counts raw function evaluations; the base value
    f(x) is cached per base point so all probes sharing a base pay for it
    once. ``mode="exact"`` answers queries from ``true_gradient`` instead of
    finite differences (the idealized oracle); dd accounting is unchanged.
    ``last_base_f`` is the f(x) the latest ``directional_derivatives`` call
    differenced against, None after an exact-mode call; ``last_grad`` is the
    true gradient an exact-mode call answered from, None after an fd call.
    """

    objective: ObjectiveSpec
    mu: float = DEFAULT_MU
    mode: str = "fd"
    dd_queries: int = 0
    fn_evals: int = 0
    _base_x: Optional[Array] = field(default=None, repr=False)
    _base_f: float = field(default=np.nan, repr=False)
    last_base_f: Optional[float] = field(default=None, init=False, repr=False)
    last_grad: Optional[Array] = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.mu <= 0.0:
            raise ConfigError(f"mu must be positive, got {self.mu}")
        if self.mode not in ("fd", "exact"):
            raise ConfigError(f"unknown oracle mode {self.mode!r}")
        if self.mode == "exact" and self.objective.true_gradient is None:
            raise ConfigError("exact oracle mode requires a true_gradient")

    # -- base-point caching ------------------------------------------------

    def _is_cached(self, x: Array) -> bool:
        # Value equality, as np.array_equal: -0.0 hits 0.0, NaN never hits, and
        # an array changed in place since it was cached misses. A new base
        # point nearly always differs in shape or first element already.
        b = self._base_x
        if b is None:
            return False
        x = np.asarray(x)
        if b.shape != x.shape or (b.size and b.item(0) != x.item(0)):
            return False
        return np.array_equal(b, x)

    def _eval_raw(self, x: Array) -> float:
        v = float(self.objective.eval(x))
        if not math.isfinite(v):
            raise OracleFailureError(f"objective returned non-finite value {v}", x)
        return v

    def function_value(self, x: Array) -> float:
        """f(x), counted in fn_evals unless the base cache already holds it."""
        if not self._is_cached(x):
            self._base_x = np.array(x, dtype=float, copy=True)
            self._base_f = self._eval_raw(x)
            self.fn_evals += 1
        return self._base_f

    def peek_function_value(self, x: Array) -> float:
        """f(x) for trace/diagnostic use; never touches the counters."""
        if self._is_cached(x):
            return self._base_f
        return self._eval_raw(x)

    def gradient_at(self, x: Array) -> Array:
        """True gradient at x (diagnostics / exact mode); never counted."""
        if self.objective.true_gradient is None:
            raise UnsupportedDiagnosticError("objective has no true_gradient")
        return np.asarray(self.objective.true_gradient(x), dtype=float)

    # -- query paths ---------------------------------------------------------

    def directional_derivatives(self, x: Array, directions: Array) -> Array:
        """Query the oracle once per row of ``directions`` (unit vectors).

        Forward differences share the base value f(x). Returns one scalar per
        direction; dd_queries grows by ``directions.shape[0]``.
        """
        n = directions.shape[0]
        if self.mode == "exact":
            g = self.gradient_at(x)
            vals = directions @ g
            self.last_base_f = None
            self.last_grad = g
        else:
            base = self.function_value(x)
            self.last_base_f = base
            self.last_grad = None
            pts = self.mu * directions
            pts += x
            if self.objective.eval_batch is not None:
                fv = np.asarray(self.objective.eval_batch(pts), dtype=float)
            else:
                fv = np.array([self.objective.eval(p) for p in pts], dtype=float)
            self.fn_evals += n
            if not np.isfinite(fv).all():
                bad = pts[int(np.argmax(~np.isfinite(fv)))]
                raise OracleFailureError("objective returned non-finite value", bad)
            vals = (fv - base) / self.mu
        self.dd_queries += n
        return vals


def directional_derivative(oracle: OracleHandle, x: Array, v: Array) -> float:
    """Forward-difference estimate (f(x + mu v) - f(x)) / mu for unit v."""
    nv = np.linalg.norm(v)
    if abs(nv - 1.0) > 1e-8:
        raise ConfigError(f"direction must be a unit vector, got norm {nv}")
    if len(x) != oracle.objective.dim:
        raise ConfigError(f"point has length {len(x)}, expected {oracle.objective.dim}")
    return float(oracle.directional_derivatives(np.asarray(x, dtype=float),
                                                np.asarray(v, dtype=float)[None, :])[0])


def exact_directional_derivative(objective: ObjectiveSpec, x: Array, v: Array) -> float:
    """grad f(x) . v from the analytic gradient; diagnostics only, not counted."""
    if objective.true_gradient is None:
        raise UnsupportedDiagnosticError("objective has no true_gradient")
    g = np.asarray(objective.true_gradient(np.asarray(x, dtype=float)))
    return float(g @ np.asarray(v, dtype=float))
