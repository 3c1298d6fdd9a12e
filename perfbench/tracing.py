"""Spans around the calls the benchmark makes into pgzo, and what they yield.

One recorder serves two instrumentation levels:

- ``jobs``: only job boundaries are timed (one seeded run through
  ``pgzo.bench.run_single``, or one Monte-Carlo check the benchmark calls
  itself), so the untraced pass can report job-time percentiles for two
  clock reads per job; with a ``HostClock`` attached, a reference-kernel
  mark runs before each job, outside its timed interval (in a traced pass
  inside ``bench.run_batch``, whose time below excludes it).
- ``layers``: additionally every public pgzo function the workloads reach, as
  each calling module binds it (``build_frame`` is wrapped separately in
  ``pgzo.greedy``, ``pgzo.ars`` and ``pgzo.diagnostics``), the
  ``OracleHandle`` and ``RunTrace`` methods on their classes, the objective
  and prior-feed callables where ``bench_function`` and
  ``biased_prior_feed`` build them, and the Gaussian draws of every
  ``RngHandle``.

No file under ``src/pgzo`` is edited: the wrappers replace module and class
attributes for the duration of one pass and put the originals back.

While a pass runs, a span costs two (event, clock) appends to flat arrays
kept in memory: its name id when it opens and -1 when it closes. Calls nest
and the process is single-threaded, so ``spans()`` rebuilds every span's
(name, start, end, parent, job) from that stream afterwards. A span's self
time is its duration minus the time its direct children cover. Span times
include the cost of recording their children.
"""

from __future__ import annotations

import dataclasses
import functools
import os
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

import pgzo.ars
import pgzo.bench
import pgzo.cli
import pgzo.core
import pgzo.diagnostics
import pgzo.greedy
import pgzo.trace

BUILD_FRAME = "frames.build_frame"
DRAW = "core.rng.standard_normal"
ESTIMATORS = ("subspace_estimate", "g2_unbiased", "g2_variance_reduced",
              "estimate_grad_norm_sq", "estimate_Dt")
BASE_LOOKUPS = ("core.function_value", "core.peek_function_value")
MARK = "perfbench.hostclock.mark"


def p50(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def tail(values) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples above it; the maximum when there are ten samples or fewer."""
    v = np.sort(np.asarray(values, dtype=float))
    n = len(v)
    if n == 0:
        return 0.0, 0.0
    i = n - 11 if n > 10 else n - 1
    return float(v[i]), 100.0 * (i + 1) / n


@dataclasses.dataclass
class Spans:
    names: list
    name: np.ndarray
    parent: np.ndarray
    job: np.ndarray
    start: np.ndarray
    end: np.ndarray
    in_ars: np.ndarray      # span has an ars.run_ars ancestor

    @property
    def duration(self) -> np.ndarray:
        return self.end - self.start

    def self_time(self) -> np.ndarray:
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=self.duration[has_parent],
                            minlength=len(self.name))
        return self.duration - child


class SpanLog:
    """Event stream of one or more passes, plus every job's (start, end)."""

    JOB_PREFIXES = ("bench.run_single", "diagnostics.")

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.events = array("i")
        self.times = array("d")
        self.job_bounds: list[tuple[float, float]] = []
        self.clock = None                   # a HostClock marks every job start
        self.frame_shapes = array("i")      # q, d of every frame built
        self.counts: Counter = Counter()
        self.oracles: list = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def run_job(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` as one job, timing it whatever the level. With a clock,
        a reference-kernel mark runs first, recorded as a span of its own so
        that the layer metrics can leave it out."""
        if self.clock is not None:
            self.events.append(self.name_id(MARK))
            self.times.append(perf_counter())
            self.clock.mark()
            self.events.append(-1)
            self.times.append(perf_counter())
        nid = self.name_id(name)
        self.events.append(nid)
        t0 = perf_counter()
        self.times.append(t0)
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self.events.append(-1)
            self.times.append(t1)
            self.job_bounds.append((t0, t1))

    def spans(self) -> Spans:
        n = sum(1 for e in self.events if e >= 0)
        name = np.empty(n, np.int32)
        parent = np.empty(n, np.int32)
        job = np.empty(n, np.int32)
        in_ars = np.zeros(n, bool)
        start = np.empty(n)
        end = np.empty(n)
        is_job = [nm.startswith(self.JOB_PREFIXES) for nm in self.names]
        ars_id = self._ids.get("ars.run_ars", -2)
        stack: list[int] = []
        i, jobs, ars_open = 0, -1, 0
        for e, t in zip(self.events, self.times):
            if e >= 0:
                if is_job[e] and not any(is_job[name[s]] for s in stack):
                    jobs += 1
                name[i], start[i], job[i] = e, t, jobs
                parent[i] = stack[-1] if stack else -1
                in_ars[i] = ars_open > 0
                ars_open += e == ars_id
                stack.append(i)
                i += 1
            else:
                s = stack.pop()
                end[s] = t
                ars_open -= name[s] == ars_id
        return Spans(list(self.names), name, parent, job, start, end, in_ars)

    def save(self, path: str):
        sp = self.spans()
        np.savez(path, names=np.array(sp.names), name=sp.name, parent=sp.parent,
                 job=sp.job, start=sp.start, end=sp.end)


def _spanned(log: SpanLog, name: str, fn, after=None):
    nid = log.name_id(name)
    ev, ts = log.events.append, log.times.append

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        ev(nid)
        ts(perf_counter())
        try:
            out = fn(*args, **kwargs)
            if after is not None:
                after(out, args)
            return out
        finally:
            ev(-1)
            ts(perf_counter())
    return wrapper


def _job(log: SpanLog, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return log.run_job(name, fn, *args, **kwargs)
    return wrapper


class _GenProxy:
    """Forwards to a numpy Generator and times its ``standard_normal``."""

    def __init__(self, log: SpanLog, gen):
        self._gen = gen
        self.standard_normal = _spanned(log, DRAW, gen.standard_normal)

    def __getattr__(self, attr):
        return getattr(self._gen, attr)


def _frame_shape(log: SpanLog):
    shapes = log.frame_shapes

    def after(frame, args):
        shapes.extend(frame.directions.shape)
    return after


def _driver(log: SpanLog, name: str, fn):
    """A run loop; counts the iterations and pars_est guess passes it made."""
    def after(trace, args):
        log.counts[name + ".iterations"] += int(trace.rows[-1][0])
        if trace.guess_passes:
            log.counts["ars.guess_runs"] += 1
            log.counts["ars.guess_passes_sum"] += float(np.mean(trace.guess_passes))
    return _spanned(log, name, fn, after)


def _rows(log: SpanLog, name: str):
    def after(out, args):
        log.counts[name] += len(args[0])
    return after


def _bench_function(log: SpanLog, fn):
    def wrapper(*args, **kwargs):
        bf = fn(*args, **kwargs)
        return dataclasses.replace(
            bf, eval=_spanned(log, "testfns.eval", bf.eval),
            eval_batch=_spanned(log, "testfns.eval_batch", bf.eval_batch,
                                _rows(log, "testfns.eval_batch.rows")),
            grad=_spanned(log, "testfns.grad", bf.grad))
    return _spanned(log, "testfns.bench_function", functools.wraps(fn)(wrapper))


def _prior_feed(log: SpanLog, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return _spanned(log, "testfns.prior_feed", fn(*args, **kwargs))
    return wrapper


def _file_bytes(log: SpanLog, name: str):
    def after(path, args):
        log.counts[name + ".bytes"] += os.path.getsize(path)
    return after


@contextmanager
def instrument(log: SpanLog, level: str):
    """Wrap pgzo for one pass at ``level`` ("jobs" or "layers")."""
    saved = []

    def patch(owner, attr, wrapped):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapped)

    bench, cli, core, diag = pgzo.bench, pgzo.cli, pgzo.core, pgzo.diagnostics
    try:
        patch(bench, "run_single", _job(log, "bench.run_single", bench.run_single))
        if level == "layers":
            shape = _frame_shape(log)
            for mod in (pgzo.greedy, pgzo.ars, diag):
                patch(mod, "build_frame", _spanned(log, BUILD_FRAME, mod.build_frame, shape))
                for est in ESTIMATORS:
                    if est in mod.__dict__:
                        patch(mod, est, _spanned(log, "frames." + est, getattr(mod, est)))
            for mod in (pgzo.greedy, pgzo.ars):
                patch(mod, "probe", _spanned(log, "frames.probe", mod.probe))

            rng_init = core.RngHandle.__post_init__

            def traced_rng_init(self):
                rng_init(self)
                self.gen = _GenProxy(log, self.gen)
            patch(core.RngHandle, "__post_init__", traced_rng_init)

            oracle = core.OracleHandle
            oracle_init = oracle.__post_init__

            def traced_oracle_init(self):
                oracle_init(self)
                log.oracles.append(self)
            patch(oracle, "__post_init__", traced_oracle_init)
            for method, name in (("directional_derivatives", "core.dd"),
                                 ("function_value", BASE_LOOKUPS[0]),
                                 ("peek_function_value", BASE_LOOKUPS[1]),
                                 ("gradient_at", "core.gradient_at")):
                patch(oracle, method, _spanned(log, name, oracle.__dict__[method]))

            for mod in (bench, diag):
                patch(mod, "bench_function", _bench_function(log, mod.bench_function))
            patch(bench, "biased_prior_feed", _prior_feed(log, bench.biased_prior_feed))
            for mod in (bench, diag):
                patch(mod, "run_greedy", _driver(log, "greedy.run_greedy", mod.run_greedy))
            patch(bench, "run_ars", _driver(log, "ars.run_ars", bench.run_ars))
            patch(pgzo.trace.RunTrace, "append",
                  _spanned(log, "trace.append", pgzo.trace.RunTrace.append))

            for mod in (bench, cli):
                patch(mod, "run_batch", _spanned(log, "bench.run_batch", mod.run_batch))
            patch(bench, "aggregate_traces",
                  _spanned(log, "bench.aggregate_traces", bench.aggregate_traces))
            for fn in ("emit_csv", "emit_svg"):
                name = "bench." + fn
                patch(cli, fn, _spanned(log, name, getattr(cli, fn), _file_bytes(log, name)))
            patch(cli, "run_from_settings",
                  _spanned(log, "cli.run_from_settings", cli.run_from_settings))
        yield log
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)


# -- per-layer metrics ---------------------------------------------------------

def layer_metrics(log: SpanLog, passes: int, overhead_frac: float,
                  diag_samples: int) -> dict[str, float]:
    """Per-layer metrics from the spans and counters of ``passes`` traced
    passes; totals are reported per pass."""
    sp = log.spans()
    dur, self_t = sp.duration, sp.self_time()
    k = len(sp.names)
    ids = {n: i for i, n in enumerate(sp.names)}
    calls = np.bincount(sp.name, minlength=k)
    total = np.bincount(sp.name, weights=dur, minlength=k)
    selfs = np.bincount(sp.name, weights=self_t, minlength=k)
    c = log.counts
    per = 1.0 / passes

    def mask(name):
        return sp.name == ids.get(name, -1)

    def n_calls(name):
        return float(calls[ids[name]]) if name in ids else 0.0

    def s(name):
        return float(total[ids[name]]) if name in ids else 0.0

    def self_s(*prefixes):
        return float(sum(selfs[i] for n, i in ids.items() if n.startswith(prefixes)))

    def ratio(a, b):
        return a / b if b else 0.0

    frames = mask(BUILD_FRAME)
    bf_durs = dur[frames]
    draws = mask(DRAW)
    par = sp.parent[draws]
    draws[draws] = (par >= 0) & (sp.name[np.maximum(par, 0)] == ids.get(BUILD_FRAME, -1))
    draw_s = float(dur[draws].sum())
    q, d = (np.frombuffer(log.frame_shapes, np.int32).reshape(-1, 2).astype(float).T
            if len(log.frame_shapes) else (np.zeros(0), np.zeros(0)))
    # Gram 2q^2d, dpotrf q^3/3, dtrtri q^3/3, final matmul 2q^2d.
    flops = float(np.sum(4 * q * q * d + 2 * q ** 3 / 3))
    # 8-byte doubles: draw writes qd; Gram reads qd, writes q^2; dpotrf and
    # dtrtri read and write q^2 each; the matmul reads q^2 + qd, writes qd.
    nbytes = float(np.sum(8 * (4 * q * d + 6 * q * q)))
    lookups = mask(BASE_LOOKUPS[0]) | mask(BASE_LOOKUPS[1])
    with_child = np.zeros(len(sp.name), bool)
    with_child[sp.parent[sp.parent >= 0]] = True
    hits = int(np.sum(lookups & ~with_child))
    ars_frames = float(np.sum(frames & sp.in_ars))
    marks = mask(MARK)
    mark_par = sp.parent[marks]
    in_batch = (mark_par >= 0) & (sp.name[np.maximum(mark_par, 0)] == ids.get("bench.run_batch", -1))
    mark_s = float(dur[marks][in_batch].sum())
    ars_iters = c["ars.run_ars.iterations"]
    return {
        "frames.build_frame.calls": n_calls(BUILD_FRAME) * per,
        "frames.build_frame.s": s(BUILD_FRAME) * per,
        "frames.build_frame.us_p50": p50(bf_durs) * 1e6,
        "frames.build_frame.us_tail": tail(bf_durs)[0] * 1e6,
        "frames.draw.s": draw_s * per,
        "frames.orthonormalize.s": (s(BUILD_FRAME) - draw_s) * per,
        "frames.gaussians_drawn": float(np.sum(q * d)) * per,
        "frames.orth_flops_computed": flops * per,
        "frames.bytes_moved_computed": nbytes * per,
        "frames.probe.self_s": self_s("frames.probe") * per,
        "frames.estimators.s": sum(s("frames." + e) for e in ESTIMATORS) * per,
        "core.dd_calls": n_calls("core.dd") * per,
        "core.dd_queries": sum(o.dd_queries for o in log.oracles) * per,
        "core.fn_evals": sum(o.fn_evals for o in log.oracles) * per,
        "core.base_hit_ratio": ratio(hits, int(np.sum(lookups))),
        "core.dd.self_s": self_s("core.dd") * per,
        "core.dd.us_p50": p50(dur[mask("core.dd")]) * 1e6,
        "core.gradient_at.s": s("core.gradient_at") * per,
        "testfns.eval_batch.calls": n_calls("testfns.eval_batch") * per,
        "testfns.eval_batch.rows": c["testfns.eval_batch.rows"] * per,
        "testfns.eval_batch.s": s("testfns.eval_batch") * per,
        "testfns.eval.calls": n_calls("testfns.eval") * per,
        "testfns.eval.s": s("testfns.eval") * per,
        "testfns.prior_feed.calls": n_calls("testfns.prior_feed") * per,
        "testfns.prior_feed.s": s("testfns.prior_feed") * per,
        "ars.self_s": self_s("ars.") * per,
        "ars.frames_per_iter": ratio(ars_frames, ars_iters),
        "ars.useful_frame_ratio": ratio(ars_iters, ars_frames),
        "ars.guess_passes_mean": ratio(c["ars.guess_passes_sum"], c["ars.guess_runs"]),
        "greedy.self_s": self_s("greedy.") * per,
        "trace.append.calls": n_calls("trace.append") * per,
        "trace.append.s": s("trace.append") * per,
        "bench.run_batch.s": (s("bench.run_batch") - mark_s) * per,
        "bench.aggregate_traces.s": s("bench.aggregate_traces") * per,
        "bench.emit_csv.s": s("bench.emit_csv") * per,
        "bench.emit_csv.bytes": c["bench.emit_csv.bytes"] * per,
        "bench.emit_svg.s": s("bench.emit_svg") * per,
        "bench.emit_svg.bytes": c["bench.emit_svg.bytes"] * per,
        "cli.run_from_settings.self_s": self_s("cli.") * per,
        "diagnostics.samples": diag_samples * per,
        "diagnostics.self_s": self_s("diagnostics.") * per,
        "tracing.overhead_frac": overhead_frac,
        "tracing.spans": (len(sp.name) - int(marks.sum())) * per,
    }
