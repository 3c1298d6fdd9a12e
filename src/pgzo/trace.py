"""Per-iteration run traces and the budgeted run loop shared by the optimizers."""

from __future__ import annotations

import math
import struct
from array import array
from dataclasses import dataclass, field
from numbers import Real
from typing import Callable, NamedTuple, Optional

import numpy as np

from .core import (DEFAULT_MU, Array, ConfigError, NormalStream, ObjectiveSpec,
                   OracleFailureError, OracleHandle, RngHandle, UnsupportedDiagnosticError,
                   check_oracle_options, require_int_at_least, sample_unit_sphere)

# Runs whose block (queries per iteration times d) reaches this draw their
# normals through a NormalStream; smaller runs draw directly. Starting the
# helper and waiting for its first chunk costs a run about 0.4 ms, and the
# saving per iteration grows with the block. On a 2-vCPU host, 100-iteration
# exact-oracle RGF runs took +0.45 ms at block 250 (d=50), about +0.1 to
# +0.2 ms at blocks 800-1000, -0.3 ms at 1280 and -0.7 ms (-16 %) at 2048.
# Below 4096 the saving is not steady either: a run that reads ahead needs
# the host's second core. With it idle, perfbench ars_presets_d256 (mostly
# d=256 fig1 runs, blocks 2816 to 3328) gained 13 % iters_per_s by reading
# ahead at 2048. While other guests took CPU time from the 2-vCPU host, the
# fig1_f1 runs took a median 1.5x and 2.1x as long reading ahead as drawing
# directly (two sets of interleaved rounds), and five interleaved
# ars_presets_d256 runs spread 0.11-0.15 s (IQR of job_s_p50, median
# 0.19-0.23 s) at 2048 against 0.03 s at 4096. The d=500 preset runs (block
# >= 5500) and d=256 PARS-Est (8448) read ahead; the d=256 fig1 runs and the
# runs of the contract checks (d <= 100, q = 5, block <= 600) draw directly.
READ_AHEAD_MIN_BLOCK = 4096

COLUMNS = ("iteration", "dd_queries", "fn_evals", "f_value",
           "log10_rel_err", "C_t", "D_t", "theta_t")
_WIDTH = len(COLUMNS)
_PACK = struct.Struct(f"{_WIDTH}d").pack  # under half the time array("d", row) takes


class TraceRows:
    """The rows of a trace, packed into one float64 buffer of ``len(COLUMNS)``
    values per row: 64 bytes a row, where a tuple of Python numbers took
    about 300. ``append`` takes one full row of numbers whose first three
    columns (iteration, dd_queries, fn_evals) are finite. Indexing and
    iteration yield tuples in which those three are ints; slices return lists
    of them, and ``repr`` is that of the list of tuples. ``==`` compares the
    float64 bits, so NaN rows are equal and -0.0 differs from 0.0.
    """

    __slots__ = ("_buf",)

    def __init__(self, rows=()):
        self._buf = array("d")
        for row in rows:
            self.append(row)

    def append(self, row) -> None:
        try:  # packed whole, so a bad row leaves the buffer as it was
            packed = _PACK(*row)
        except struct.error as exc:
            raise ValueError(f"a trace row holds {_WIDTH} numbers: {exc}") from None
        if not math.isfinite(row[0] + row[1] + row[2]):
            raise ValueError(f"a trace row's counts must be finite, got {tuple(row[:3])}")
        self._buf.frombytes(packed)

    def __len__(self) -> int:
        return len(self._buf) // _WIDTH

    def __getitem__(self, i):
        picked = range(len(self))[i]
        if isinstance(picked, range):
            return [self[k] for k in picked]
        row = self._buf[picked * _WIDTH:(picked + 1) * _WIDTH].tolist()
        return (int(row[0]), int(row[1]), int(row[2]), *row[3:])

    def __iter__(self):
        # numpy turns whole columns into Python numbers; int() on each count
        # read the rows twice as slowly. The view is gone when this returns.
        table = np.frombuffer(self._buf, dtype=float).reshape(-1, _WIDTH)
        return zip(*table[:, :3].astype(np.int64).T.tolist(), *table[:, 3:].T.tolist())

    def __eq__(self, other):
        if not isinstance(other, TraceRows):
            return NotImplemented
        return self._buf.tobytes() == other._buf.tobytes()

    def __repr__(self) -> str:
        return repr(list(self))

    def column(self, k: int) -> Array:
        """A copy of column ``k``; a view of the buffer would block appends."""
        return np.frombuffer(self._buf, dtype=float)[k::_WIDTH].copy()


@dataclass
class RunTrace:
    """Append-only log of an optimization run.

    Row t describes the iterate x_t: the queries spent to *reach* it, its
    function value, and the diagnostics of the step taken from it (NaN on the
    final row and wherever a quantity does not apply). ``log_every`` thins the
    rows of long runs; the initial and final rows are always kept. ``rows``
    may be given as a list of rows; it is held as ``TraceRows``.
    """

    seed: int = 0
    f0: Optional[float] = None
    f_star: Optional[float] = None
    rows: TraceRows = field(default_factory=TraceRows)
    reached_queries: Optional[int] = field(init=False, default=None)
    restarts: int = field(init=False, default=0)
    guess_passes: list = field(init=False, default_factory=list)  # pars_est bookkeeping

    def __post_init__(self):
        if not isinstance(self.rows, TraceRows):
            self.rows = TraceRows(self.rows)

    def log10_rel_err(self, f_value: float) -> float:
        if self.f_star is None or self.f0 is None or self.f0 <= self.f_star:
            return math.nan
        rel = (f_value - self.f_star) / (self.f0 - self.f_star)
        return math.log10(rel) if rel > 0.0 else -math.inf

    def append(self, iteration: int, dd_queries: int, fn_evals: int, f_value: float,
               c_t: float = math.nan, d_t: float = math.nan, theta_t: float = math.nan):
        self.rows.append((iteration, dd_queries, fn_evals, f_value,
                          self.log10_rel_err(f_value), c_t, d_t, theta_t))

    def column(self, name: str) -> Array:
        return self.rows.column(COLUMNS.index(name))

    @property
    def final_f(self) -> float:
        return self.rows[-1][3]

    @property
    def final_queries(self) -> int:
        return int(self.rows[-1][1])

    def mark_reached(self, target_log10: float, f_value: float, dd_queries: int):
        if self.reached_queries is None and self.log10_rel_err(f_value) <= target_log10:
            self.reached_queries = dd_queries


class StepRow(NamedTuple):
    """What one step from x_t reports for row t."""
    f: Optional[float]            # f(x_t) if the step's own queries paid for it, else None
    C: float = math.nan           # C_t and D_t, NaN without diagnostics
    D: float = math.nan
    theta: float = math.nan       # the step coefficient it ran with; NaN for greedy
    restarted: bool = False
    guess_passes: Optional[int] = None  # pars_est's guess passes


@dataclass(kw_only=True)
class RunOptions:
    """The options ``run_loop`` reads, each declared once with the one default
    the library and the CLI share, and checked when a config is built; the
    algorithm configs and ``bench.RunConfig`` extend it."""
    oracle_mode: str = "fd"
    mu: float = DEFAULT_MU
    diagnostics: bool = False  # record C_t/D_t; needs the objective's true gradient
    log_every: int = 1
    target_log10: Optional[float] = None  # marks (and with stop_on_target ends at) a crossing
    stop_on_target: bool = False

    def __post_init__(self):
        check_oracle_options(self.oracle_mode, self.mu)
        require_int_at_least("log_every", self.log_every, 1)
        target = self.target_log10
        if target is not None and (not isinstance(target, Real) or math.isnan(target)):
            raise ConfigError(f"target_log10 must be a number, not NaN, got {target!r}")
        if self.stop_on_target and self.target_log10 is None:
            raise ConfigError("stop_on_target needs a target_log10")


def run_loop(objective: ObjectiveSpec, config, seed, new_state: Callable, step: Callable,
             prior_feed):
    """Step from x0 while another iteration of ``config.queries_per_iteration``
    queries fits ``config.budget``.

    ``config`` (a ``GreedyConfig`` or ``ArsConfig``) holds the ``RunOptions``
    too: ``target_log10``'s first crossing is marked and, with
    ``stop_on_target``, ends the run. ``new_state(x0)`` builds the optimizer
    state, which carries ``x`` and ``iteration``. Each iteration calls
    ``step(state, oracle, config, rng, prior)`` with the prior
    ``config.prior_source`` names: None ("none"), ``prior_feed(x_t)``
    ("external") or ``state.prior`` ("historical", first drawn uniformly on
    the sphere; ``greedy.descend`` keeps it) and logs the ``StepRow`` it
    returns as row t, reading f(x_t) uncharged where ``f`` is None, only for
    a logged row or a target. Every record, thinned away or not, counts in
    ``RunTrace.restarts`` and ``guess_passes``. A run whose block (queries
    per iteration times d) reaches ``READ_AHEAD_MIN_BLOCK`` draws its normals
    through a NormalStream, closed before it returns or raises. An
    ``OracleFailureError`` is raised again with the algorithm, the iteration
    and the dd-queries spent in its message.

    ``seed`` is one seed, or a list of seeds run in lockstep as one stack,
    as ``diagnostics.check_theorem_bounds`` runs them: a ``config.LOCKSTEP``
    step (``rgf``, ``history_prgf``) with an exact oracle and no external
    prior, diagnostics or target; any other stack is a ConfigError before
    any evaluation. Each seed keeps its own ``RngHandle`` (drawing directly),
    ``OracleHandle`` and trace; ``state`` holds one row per seed, ``step``
    takes the lists of handles and returns one ``StepRow`` per seed, and the
    seeds, which spend alike, end at the budget together. Returns the list
    of traces, each equal to its seed's own run's; a failure ends the stack
    with the message that seed's own run gives.
    """
    stack = isinstance(seed, list)
    seeds = seed if stack else [seed]
    cost, budget = config.queries_per_iteration, config.budget
    external = config.prior_source == "external"
    if stack and not config.LOCKSTEP:
        raise ConfigError(f"{config.algo}: its steps run one seed at a time, not a stack")
    if not seeds:
        raise ConfigError("a stack needs at least one seed")
    if stack and (external or config.oracle_mode != "exact" or config.diagnostics
                  or config.target_log10 is not None):
        raise ConfigError(f"{config.algo}: a stack runs with an exact oracle and no external "
                          "prior, diagnostics or target")
    if budget < cost:
        raise ConfigError(f"{config.algo}: budget {budget} is below one iteration's cost {cost}")
    if objective.x0 is None:
        raise ConfigError("the objective has no x0 to start from")
    if external and prior_feed is None:
        raise ConfigError(f"{config.algo}: an external prior requires a prior_feed callable")
    if config.diagnostics and objective.true_gradient is None:
        raise UnsupportedDiagnosticError(f"{config.algo}: diagnostics need a true_gradient")
    target_log10, log_every = config.target_log10, config.log_every
    oracles = [OracleHandle(objective, mu=config.mu, mode=config.oracle_mode) for _ in seeds]
    rngs = [RngHandle(s) for s in seeds]
    if not stack and cost * objective.dim >= READ_AHEAD_MIN_BLOCK:
        rngs[0].stream = NormalStream(rngs[0].gen.bit_generator)
    traces = []

    def log_row(trace, oracle, row: StepRow, x_here: Array, dd_before: int, fn_before: int):
        """A seed's row t from the record of its step from x_t."""
        t = state.iteration - 1
        if row.restarted:
            trace.restarts += 1
        if row.guess_passes is not None:
            trace.guess_passes.append(row.guess_passes)
        if not (logged := t % log_every == 0) and target_log10 is None:
            return  # row t is dropped and no target reads f(x_t)
        f_here = row.f if row.f is not None else oracle.peek_function_value(x_here)
        if logged:
            trace.append(t, dd_before, fn_before, f_here, row.C, row.D, row.theta)
        if target_log10 is not None:
            trace.mark_reached(target_log10, f_here, dd_before)

    try:
        x0 = np.array(objective.x0, dtype=float)
        state = new_state(np.tile(x0, (len(seeds), 1)) if stack else x0)
        if config.prior_source == "historical":
            priors = [sample_unit_sphere(rng, objective.dim) for rng in rngs]
            state.prior = np.array(priors) if stack else priors[0]
        for s, oracle in zip(seeds, oracles):
            f0 = oracle.peek_function_value(x0)
            traces.append(RunTrace(seed=s, f0=f0, f_star=objective.f_star))
            if target_log10 is not None:
                traces[-1].mark_reached(target_log10, f0, 0)

        oracle = oracles[0]  # a stack's seeds spend alike, so the first speaks for all
        if not stack:
            rng, trace = rngs[0], traces[0]
            while oracle.dd_queries + cost <= budget:
                if config.stop_on_target and trace.reached_queries is not None:
                    break
                x_here = state.x
                dd_before, fn_before = oracle.dd_queries, oracle.fn_evals
                prior = prior_feed(x_here) if external else state.prior
                log_row(trace, oracle, step(state, oracle, config, rng, prior), x_here,
                        dd_before, fn_before)
        else:
            while oracle.dd_queries + cost <= budget:
                points, dd_before, fn_before = state.x, oracle.dd_queries, oracle.fn_evals
                rows = step(state, oracles, config, rngs, state.prior)  # sets a new state.x
                for trace, seed_oracle, row, x in zip(traces, oracles, rows, points):
                    log_row(trace, seed_oracle, row, x, dd_before, fn_before)
        for trace, oracle, x in zip(traces, oracles, state.x if stack else [state.x]):
            f_final = oracle.peek_function_value(x)
            trace.append(state.iteration, oracle.dd_queries, oracle.fn_evals, f_final)
            if target_log10 is not None:
                trace.mark_reached(target_log10, f_final, oracle.dd_queries)
    except OracleFailureError as exc:
        # the failing call was not charged, and a stack fails only in an
        # uncharged read of f, after every seed has paid for the step
        raise OracleFailureError(f"{config.algo} at iteration {state.iteration} after "
                                 f"{oracles[0].dd_queries} dd-queries: {exc}", exc.point) from exc
    finally:
        if rngs[0].stream is not None:
            rngs[0].stream.close()
    return traces if stack else traces[0]
