"""Black-box objective wrapper, directional-derivative oracle, and seeded RNG."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import partial
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import module_from_spec, spec_from_loader
from numbers import Integral, Real
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

Array = np.ndarray

DEFAULT_MU = 1e-6


def _load_flapack():
    """scipy's compiled LAPACK module (pgzo calls its dpotrf, dtrtri, dptsv and
    dstebz), loaded without running ``scipy.linalg``'s init.

    That init, like ``scipy.special``'s, loads ``scipy._lib._array_api``,
    which imports numpy.f2py, numpy.testing, numpy.ma and more. Loading the
    extension alone, with ``scipy.special`` imported only to aggregate, cut
    the cold import of pgzo, pgzo.bench, pgzo.cli and pgzo.diagnostics from
    0.39 to 0.14 s and its peak RSS from 60 to 34 MB (2-vCPU host, scipy
    1.17.1, numpy 2.4.6, Python 3.11; medians of 12 interleaved pairs,
    ``BENCH_ab_import.json``). ``import scipy`` runs first: it sets up the
    path the extension's shared libraries load from. No ``sys.modules``
    entry is left, so a later ``import scipy.linalg`` binds its own
    ``_flapack``; CPython copies a single-phase extension's namespace into
    each module it creates for it, so its functions are these same objects.
    """
    linalg = sys.modules.get("scipy.linalg")
    if linalg is not None:
        return linalg._flapack
    import scipy

    name = "scipy.linalg._flapack"
    path = Path(scipy.__file__).parent / "linalg" / ("_flapack" + EXTENSION_SUFFIXES[0])
    if not path.is_file():
        raise ImportError(f"scipy's extension is missing: {path}", name=name, path=str(path))
    module = module_from_spec(spec_from_loader(name, ExtensionFileLoader(name, str(path))))
    sys.modules.pop(name, None)  # creating a single-phase extension registers it
    return module


flapack = _load_flapack()


# NormalStream read-ahead. Each chunk's hand-over (one future's result, one
# submit) waits on the interpreter lock, so chunks hold several frames: 32768
# doubles (256 KB) is about 6 frames at d=500, q=11. On a 2-vCPU host
# (OpenBLAS, one BLAS thread) RGF at d=500 took 80/67/60/63 us per iteration
# with chunks of 8k/16k/32k/64k values, ARS at d=256 71/59/53/49. With one
# draw in flight instead of two, RGF at d=500 took 127 against 119 us (median,
# slower in 8 of 10 interleaved pairs on a loaded host). Peak RSS grows by 1.2
# to 1.8 MB.
READ_AHEAD_CHUNK = 32768
READ_AHEAD_DEPTH = 2


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


def is_real(value) -> bool:
    """Whether ``value`` is a real number and not a bool (``numbers.Real``
    takes ``True`` as 1)."""
    return isinstance(value, Real) and not isinstance(value, bool)


def require_finite_positive(name: str, value: float) -> None:
    """ConfigError unless ``value`` is real, finite and above zero; NaN fails
    the comparison."""
    if not (is_real(value) and 0.0 < value < math.inf):
        raise ConfigError(f"{name} must be finite and positive, got {value}")


def require_int_at_least(name: str, value, floor: int) -> None:
    """ConfigError unless ``value`` is an integer, not a float or a bool, at or
    above ``floor``."""
    if not isinstance(value, Integral) or isinstance(value, bool):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < floor:
        bound = "nonnegative" if floor == 0 else f">= {floor}"
        raise ConfigError(f"{name} must be {bound}, got {value}")


def require_seeds(seeds: Sequence[int], at_least: int, needs: str) -> None:
    """ConfigError unless ``seeds`` is a sequence of at least ``at_least``
    integers >= 0, none repeated: a seed average is a sample mean only over
    distinct seeds. ``needs`` begins the message of a short or missing list."""
    if not isinstance(seeds, (Sequence, np.ndarray)) or len(seeds) < at_least:
        raise ConfigError(f"{needs}, got {seeds!r}")
    for seed in seeds:
        require_int_at_least("seeds", seed, 0)
    if len(set(seeds)) != len(seeds):
        raise ConfigError(f"repeated seeds in {tuple(seeds)}")


def check_oracle_options(mode: str, mu: float) -> None:
    """ConfigError unless ``mode`` is an oracle mode and ``mu`` finite and positive."""
    require_finite_positive("mu", mu)
    if mode not in ("fd", "exact"):
        raise ConfigError(f"unknown oracle mode {mode!r}")


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
        require_int_at_least("dim", self.dim, 1)
        try:
            x0 = None if self.x0 is None else np.asarray(self.x0)
        except ValueError as exc:  # a ragged sequence
            raise ConfigError(f"x0 must be {self.dim} finite real numbers: {exc}") from None
        if x0 is not None and not (x0.shape == (self.dim,) and x0.dtype.kind in "biuf"
                                   and np.isfinite(x0).all()):
            raise ConfigError(f"x0 must be {self.dim} finite real numbers, got {x0.dtype} "
                              f"of shape {x0.shape}")


class NormalStream:
    """Standard normals drawn ahead of use by a single-worker executor.

    Its thread (``pgzo-normals_0``) fills chunks of ``READ_AHEAD_CHUNK``
    values from a second Generator over ``bit_generator``, keeping
    ``READ_AHEAD_DEPTH`` draws in flight; numpy fills each chunk without
    holding the interpreter lock. ``take(n)`` returns the next n values, so
    the values taken are the bit generator's own standard-normal stream, bit
    for bit, however it is split. Nothing else may draw from
    ``bit_generator`` until ``close()``. The draws hold the Generator, not
    the stream, so a stream dropped unclosed frees its executor and worker.
    """

    def __init__(self, bit_generator: np.random.BitGenerator):
        # imported here: runs that draw directly skip its 0.6 MB of RSS and
        # 5 ms of import after numpy, most of it ``logging``
        from concurrent.futures import ThreadPoolExecutor
        self._draw = partial(np.random.Generator(bit_generator).standard_normal, READ_AHEAD_CHUNK)
        self._pool = ThreadPoolExecutor(1, thread_name_prefix="pgzo-normals")
        self._ahead = [self._pool.submit(self._draw) for _ in range(READ_AHEAD_DEPTH)]
        self._chunk = np.empty(0)
        self._pos = 0

    def _next_chunk(self) -> Array:
        self._chunk, self._pos = self._ahead.pop(0).result(), 0  # re-raises a failed draw
        self._ahead.append(self._pool.submit(self._draw))
        return self._chunk

    def take(self, n: int) -> Array:
        """The next n values: a view into the current chunk, or a copy when
        they span chunks."""
        if n < 0:
            raise ValueError("negative dimensions are not allowed")
        end = self._pos + n
        if end <= len(self._chunk):
            out = self._chunk[self._pos:end]
            self._pos = end
            return out
        parts = [self._chunk[self._pos:]]
        n -= len(parts[0])
        while True:
            chunk = self._next_chunk()
            if n <= len(chunk):
                parts.append(chunk[:n])
                self._pos = n
                return np.concatenate(parts)
            parts.append(chunk)
            n -= len(chunk)

    def close(self):
        """Cancel the draws not yet started and join the worker."""
        self._pool.shutdown(cancel_futures=True)


@dataclass
class RngHandle:
    """Seeded random stream; identical seeds give identical sample streams.

    Normal draws go through ``normal``; while ``stream`` is attached, it
    serves them from values drawn ahead, and ``gen`` must not be drawn from.
    """

    seed: int
    gen: np.random.Generator = field(init=False, repr=False)
    stream: Optional[NormalStream] = field(default=None, init=False, repr=False)

    def __post_init__(self):
        # SFC64 would take a list of seeds as entropy for one stream
        require_int_at_least("seed", self.seed, 0)
        # SFC64 over the default PCG64: same statistical quality, measurably
        # faster normal generation on the single-core benchmark hosts.
        self.gen = np.random.Generator(np.random.SFC64(self.seed))

    def normal(self, size) -> Array:
        """The next standard normals of this handle's stream, in C order in
        an array of ``size`` (an int or a shape tuple, as numpy's ``size``);
        ``normal(a)`` then ``normal(b)`` equals one ``normal(a + b)``."""
        if self.stream is None:
            return self.gen.standard_normal(size)
        return self.stream.take(math.prod(size) if isinstance(size, tuple) else size).reshape(size)


def l2_norm(v: Array) -> float:
    """Euclidean norm of a 1-D real vector: the sqrt(v . v) that
    ``np.linalg.norm`` computes, without its Python-level dispatch."""
    return math.sqrt(v @ v)


def sample_unit_sphere(rng: RngHandle, d: int) -> Array:
    """Uniform draw from the unit sphere via a normalized Gaussian vector."""
    if d < 1:
        raise ConfigError(f"d must be >= 1, got {d}")
    while True:
        v = rng.normal(d)
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
    dd_queries: int = field(default=0, init=False)
    fn_evals: int = field(default=0, init=False)
    _base_x: Optional[Array] = field(default=None, init=False, repr=False)
    _base_f: float = field(default=np.nan, init=False, repr=False)
    last_base_f: Optional[float] = field(default=None, init=False, repr=False)
    last_grad: Optional[Array] = field(default=None, init=False, repr=False)

    def __post_init__(self):
        check_oracle_options(self.mode, self.mu)
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
            self.last_base_f = None
            self.last_grad = g
            self.dd_queries += n
            return directions @ g
        base = self.function_value(x)
        self.last_base_f = base
        self.last_grad = None
        pts = self.mu * directions
        pts += x
        if self.objective.eval_batch is not None:
            fv = np.asarray(self.objective.eval_batch(pts), dtype=float)
            if fv.shape != (n,):
                raise ConfigError(f"eval_batch returned shape {fv.shape} for {n} points, "
                                  f"expected ({n},)")
        else:
            fv = np.array([self.objective.eval(p) for p in pts], dtype=float)
        self.fn_evals += n
        if not np.isfinite(fv).all():
            bad = pts[int(np.argmax(~np.isfinite(fv)))]
            raise OracleFailureError("objective returned non-finite value", bad)
        self.dd_queries += n
        return (fv - base) / self.mu


def directional_derivative(oracle: OracleHandle, x: Array, v: Array) -> float:
    """Forward-difference estimate (f(x + mu v) - f(x)) / mu for unit v."""
    nv = np.linalg.norm(v)
    if abs(nv - 1.0) > 1e-8:
        raise ConfigError(f"direction must be a unit vector, got norm {nv}")
    if len(x) != oracle.objective.dim:
        raise ConfigError(f"point has length {len(x)}, expected {oracle.objective.dim}")
    return float(oracle.directional_derivatives(np.asarray(x, dtype=float),
                                                np.asarray(v, dtype=float)[None, :])[0])

