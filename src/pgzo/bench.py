"""Benchmark harness: run seed batches, aggregate with confidence bands,
emit CSV traces and self-contained SVG convergence plots."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import List, Optional, Sequence, Union

import numpy as np

from .ars import ArsConfig, run_ars
from .core import (ConfigError, RngHandle, is_real, require_finite_positive,
                   require_int_at_least, require_seeds)
from .greedy import GreedyConfig, run_greedy
from .testfns import bench_function, biased_prior_feed
from .trace import COLUMNS, RunOptions, RunTrace

# The prior each algorithm runs with, from the two families' tables: "biased"
# is the function's biased-gradient feed (the external prior of every run
# here), "historical" the run's own previous estimate.
ALGO_PRIORS = {algo: "biased" if source == "external" else source
               for family in (GreedyConfig, ArsConfig)
               for algo, source in family.ALGOS.items()}
ARS_ALGOS = tuple(ArsConfig.ALGOS)
# settings only the ARS family reads, with the defaults a greedy run keeps
_ARS_SETTINGS = {f.name: f.default for f in fields(ArsConfig)
                 if f.name not in {g.name for g in fields(GreedyConfig)}}

CSV_HEADER = ("seed",) + COLUMNS


@dataclass(kw_only=True)
class RunConfig(RunOptions):
    """A seed batch: the function, the algorithm and its settings, the seeds
    and the ``RunOptions``; ``run_single`` builds each seed's algorithm config
    from these fields by name. ``algo``, ``q`` and ``budget`` (required here)
    and the ARS settings (``tau_hat`` also takes "true") are declared again."""
    function: str
    dim: int
    algo: str
    q: int
    budget: int
    lhat: Optional[float] = None          # absolute; or use lhat_scale
    lhat_scale: Optional[float] = None    # multiple of the true L
    tau_hat: Union[float, str] = 0.0      # "true" resolves to the function's tau
    seeds: Sequence[int] = (0,)
    prior: Optional[str] = None           # defaults to ALGO_PRIORS[algo]
    restart: bool = False
    label: str = ""

    def __post_init__(self):
        if self.algo not in ALGO_PRIORS:
            raise ConfigError(f"unknown algo {self.algo!r}")
        implied = ALGO_PRIORS[self.algo]
        if self.prior not in (None, implied):
            raise ConfigError(f"algo {self.algo!r} runs with prior={implied!r}, got {self.prior!r}")
        self.prior = implied
        if self.tau_hat != "true" and not is_real(self.tau_hat):
            raise ConfigError(f"tau_hat must be a number or 'true', got {self.tau_hat!r}")
        unread = [k for k, v in _ARS_SETTINGS.items() if getattr(self, k) != v]
        if unread and self.algo not in ARS_ALGOS:
            raise ConfigError(f"algo {self.algo!r} does not read {', '.join(unread)}")
        super().__post_init__()
        require_int_at_least("dim", self.dim, 1)
        require_int_at_least("q", self.q, 1)
        require_int_at_least("budget", self.budget, 0)
        require_seeds(self.seeds, 1, "seeds must be a non-empty sequence of integers")
        if (self.lhat is None) == (self.lhat_scale is None):
            raise ConfigError("exactly one of lhat / lhat_scale is required")
        name = "lhat" if self.lhat_scale is None else "lhat_scale"
        require_finite_positive(name, getattr(self, name))
        if not self.label:
            self.label = self.algo


@dataclass
class Aggregate:
    grid: np.ndarray      # common dd-query grid
    mean: np.ndarray      # seed mean of log10 rel err (or f when no f*)
    lo: np.ndarray        # 95% t-interval
    hi: np.ndarray
    label: str = ""
    # seeds whose trace has not ended at each grid point (aggregate_traces)
    n_running: Optional[np.ndarray] = None


@dataclass
class BatchResult:
    config: RunConfig
    traces: List[RunTrace]
    aggregate: Aggregate

    def mean_final_log10(self) -> float:
        return float(np.mean([t.rows[-1][4] for t in self.traces]))


def run_single(config: RunConfig, seed: int) -> RunTrace:
    fn = bench_function(config.function, config.dim)
    obj = fn.as_objective()
    if config.lhat is not None:
        lhat = config.lhat
    else:
        if fn.L is None:
            raise ConfigError(f"{fn.name} has no true L; pass an absolute lhat")
        lhat = config.lhat_scale * fn.L
    family, run = (ArsConfig, run_ars) if config.algo in ARS_ALGOS else (GreedyConfig, run_greedy)
    given = {f.name: getattr(config, f.name) for f in fields(family) if hasattr(config, f.name)}
    if "tau_hat" in given:
        given["tau_hat"] = fn.tau if config.tau_hat == "true" else float(config.tau_hat)
    cfg = family(L_hat=lhat, **given)
    prior_feed = None
    if cfg.prior_source == "external":
        # dedicated stream so the frame noise is unchanged across prior modes
        prior_feed = biased_prior_feed(fn, RngHandle(seed + 0x9E3779B9))
    return run(obj, cfg, seed, prior_feed)


def _values_for_aggregation(trace: RunTrace) -> np.ndarray:
    v = trace.column("log10_rel_err")
    if np.all(np.isnan(v)):
        v = trace.column("f_value")
    return v


# stdtrit(df, 0.975), the 97.5 % Student-t quantile, for df = 1 ... 30: the
# values scipy.special returns, bit for bit (tests/test_bench.py checks each).
# With them a batch of 2 to 31 seeds aggregates without loading scipy's
# special-function extensions, which added 3 MB to a batch run's peak RSS;
# every batch pgzo and perfbench run fits (presets 10 seeds, perfbench 2-8).
T975 = (12.706204736174694, 4.302652729749462, 3.1824463052837078, 2.7764451051977934,
        2.5705818356363146, 2.4469118511449786, 2.364624251592784, 2.306004135204166,
        2.262157162798205, 2.228138851986274, 2.200985160091639, 2.1788128296672284,
        2.1603686564627913, 2.144786687917804, 2.131449545559776, 2.1199052992212546,
        2.1098155778333156, 2.1009220402410382, 2.0930240544083087, 2.085963447265864,
        2.0796138447276795, 2.0738730679040254, 2.0686576104190486, 2.0638985616280245,
        2.0595385527532972, 2.0555294386428735, 2.0518305164802846, 2.0484071417952454,
        2.045229642132703, 2.0422724563012378)


def aggregate_traces(traces: List[RunTrace], label: str = "") -> Aggregate:
    """Resample traces onto the union of their query grids (last value carried
    forward) and form the seed mean with a 95% t-interval. A trace that
    ended before a grid point enters its mean with its final value and is
    not counted in ``n_running`` there."""
    if not traces:
        raise ConfigError("no traces to aggregate")
    grid = np.unique(np.concatenate([tr.column("dd_queries") for tr in traces]))
    n = len(traces)
    mat = np.empty((n, len(grid)))
    n_running = np.zeros(len(grid), dtype=int)
    for i, tr in enumerate(traces):
        qs = tr.column("dd_queries")
        vals = _values_for_aggregation(tr)
        idx = np.searchsorted(qs, grid, side="right") - 1
        idx = np.clip(idx, 0, len(qs) - 1)
        mat[i] = vals[idx]
        n_running += grid <= qs[-1]
    mean = mat.mean(axis=0)
    if n > 1:
        # stdtrit is the Student-t inverse CDF that stats.t.ppf wraps (same
        # bits). Past 31 seeds it comes from scipy.special, imported only
        # here: its package init took 0.2-0.3 s and 24 MB of peak RSS once
        # per process (2-vCPU host, scipy 1.17.1), which no preset pays.
        if n <= len(T975) + 1:
            t = T975[n - 2]
        else:
            from scipy.special import stdtrit
            t = stdtrit(n - 1, 0.975)
        half = t * mat.std(axis=0, ddof=1) / math.sqrt(n)
    else:
        half = np.zeros_like(mean)
    return Aggregate(grid=grid, mean=mean, lo=mean - half, hi=mean + half,
                     n_running=n_running, label=label)


def run_batch(config: RunConfig) -> BatchResult:
    traces = [run_single(config, s) for s in config.seeds]
    return BatchResult(config=config, traces=traces,
                       aggregate=aggregate_traces(traces, label=config.label))


# -- CSV ---------------------------------------------------------------------

def _fmt(v: float) -> str:
    if math.isnan(v):
        return ""
    return format(v, ".17g")


def emit_csv(traces: List[RunTrace], path: str) -> str:
    try:
        with open(path, "w") as fh:
            fh.write(",".join(CSV_HEADER) + "\n")
            for tr in traces:
                for row in tr.rows:
                    fh.write(",".join([str(tr.seed)] + [_fmt(v) for v in row]) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc
    return path


def read_csv(path: str) -> List[RunTrace]:
    try:
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            if tuple(header) != CSV_HEADER:
                raise ConfigError(f"unexpected CSV header in {path}: {header}")
            by_seed: dict[int, RunTrace] = {}
            for lineno, line in enumerate(fh, start=2):
                try:
                    seed, *parts = line.rstrip("\n").split(",")
                    seed = int(seed)
                    tr = by_seed.get(seed)
                    if tr is None:
                        tr = by_seed[seed] = RunTrace(seed=seed)
                    tr.rows.append([float(p) if p else math.nan for p in parts])
                except ValueError as exc:
                    raise ConfigError(f"malformed row in {path}, line {lineno}: {exc}") from None
    except OSError as exc:
        raise OSError(f"cannot read CSV from {path}: {exc}") from exc
    return list(by_seed.values())


# -- SVG ---------------------------------------------------------------------

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#17becf", "#7f7f7f")
_W, _H = 860, 520
_ML, _MR, _MT, _MB = 70, 20, 20, 50


def _finite(values: np.ndarray, fallback: float) -> np.ndarray:
    out = np.array(values, dtype=float)
    out[~np.isfinite(out)] = fallback
    return out


def emit_svg(aggregates: List[Aggregate], path: str) -> str:
    """Single self-contained chart: one mean polyline and one shaded
    confidence band per aggregate, whose label is XML-escaped."""
    if not aggregates:
        raise ConfigError("no aggregates to plot")
    from html import escape  # imported here: runs that plot nothing skip its 0.4 MB of RSS
    all_y = np.concatenate([np.concatenate([a.lo, a.hi]) for a in aggregates])
    finite_y = all_y[np.isfinite(all_y)]
    y_min = float(finite_y.min()) if finite_y.size else -1.0
    y_max = float(finite_y.max()) if finite_y.size else 0.0
    if y_max == y_min:
        y_max += 1.0
    x_max = max(float(a.grid.max()) for a in aggregates)
    x_min = 0.0
    if x_max == x_min:
        x_max = 1.0

    def sx(x):
        return _ML + (x - x_min) / (x_max - x_min) * (_W - _ML - _MR)

    def sy(y):
        return _H - _MB - (y - y_min) / (y_max - y_min) * (_H - _MT - _MB)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
             f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
             f'<rect width="{_W}" height="{_H}" fill="white"/>']
    # axes and ticks
    parts.append(f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" stroke="black"/>')
    parts.append(f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" stroke="black"/>')
    for i in range(6):
        xv = x_min + i * (x_max - x_min) / 5
        parts.append(f'<line x1="{sx(xv):.1f}" y1="{_H - _MB}" x2="{sx(xv):.1f}" '
                     f'y2="{_H - _MB + 5}" stroke="black"/>')
        parts.append(f'<text x="{sx(xv):.1f}" y="{_H - _MB + 18}" text-anchor="middle">'
                     f'{xv:.3g}</text>')
        yv = y_min + i * (y_max - y_min) / 5
        parts.append(f'<line x1="{_ML - 5}" y1="{sy(yv):.1f}" x2="{_ML}" y2="{sy(yv):.1f}" '
                     f'stroke="black"/>')
        parts.append(f'<text x="{_ML - 8}" y="{sy(yv) + 4:.1f}" text-anchor="end">{yv:.3g}</text>')
    parts.append(f'<text x="{(_ML + _W - _MR) / 2}" y="{_H - 12}" text-anchor="middle">'
                 'directional-derivative queries</text>')
    parts.append(f'<text x="16" y="{(_MT + _H - _MB) / 2}" text-anchor="middle" '
                 f'transform="rotate(-90 16 {(_MT + _H - _MB) / 2})">log10 relative error</text>')

    for k, agg in enumerate(aggregates):
        color = _PALETTE[k % len(_PALETTE)]
        lo = _finite(agg.lo, y_min)
        hi = _finite(agg.hi, y_min)
        mean = _finite(agg.mean, y_min)
        band = ("M" + " L".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in zip(agg.grid, hi))
                + " L" + " L".join(f"{sx(x):.1f},{sy(y):.1f}"
                                   for x, y in zip(agg.grid[::-1], lo[::-1])) + " Z")
        parts.append(f'<path class="band" d="{band}" fill="{color}" fill-opacity="0.18" stroke="none"/>')
        pts = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in zip(agg.grid, mean))
        parts.append(f'<polyline class="mean" points="{pts}" fill="none" stroke="{color}" stroke-width="1.6"/>')
        ly = _MT + 16 + 16 * k
        parts.append(f'<line x1="{_W - _MR - 170}" y1="{ly}" x2="{_W - _MR - 140}" y2="{ly}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{_W - _MR - 134}" y="{ly + 4}">{escape(agg.label, quote=False)}</text>')
    parts.append("</svg>")
    try:
        with open(path, "w") as fh:
            print(*parts, sep="\n", end="", file=fh)  # the document is not held a second time
    except OSError as exc:
        raise OSError(f"cannot write SVG to {path}: {exc}") from exc
    return path


# -- presets -------------------------------------------------------------------

DEFAULT_SEEDS = tuple(range(10))
# 11 dd queries per iteration across algorithms: plain frames use q=11,
# prior-guided frames q=10, and the two extra fixed-point queries leave q=8.
Q_PLAIN, Q_PRIOR, Q_IMPL = 11, 10, 8
FIG1_BUDGET = 11 * 2500
FIG2_BUDGET = 11 * 12000
# Rosenbrock has no usable global L; 256 is the preset's value. Over seeds 0-9
# at d=256 and the preset budget it is stable for RGF, PRGF and ARS, while
# PARS diverges on all ten seeds and PARS-Naive on one (the fig1_f3 item in
# ROADMAP.md has the sweep).
F3_LHAT = 256.0


# the function (and, for Figure 1, the ARS family's tau_hat) of each preset
_FIG1 = {"fig1_f1": ("f1", 0.0), "fig1_f2": ("f2", "true"), "fig1_f3": ("f3", 0.0)}
_FIG2 = {"fig2_f1": "f1", "fig2_f2": "f2", "fig2_f4": "f4"}
PRESETS = (*_FIG1, *_FIG2)


def preset(name: str) -> List[RunConfig]:
    if name in _FIG1:
        fn, tau = _FIG1[name]
        lhat = dict(lhat_scale=1.0) if fn != "f3" else dict(lhat=F3_LHAT)
        mk = lambda **kw: RunConfig(function=fn, dim=256, budget=FIG1_BUDGET,
                                    seeds=DEFAULT_SEEDS, **lhat, **kw)
        return [
            mk(algo="rgf", q=Q_PLAIN, label="RGF"),
            mk(algo="prgf", q=Q_PRIOR, label="PRGF"),
            mk(algo="ars", q=Q_PLAIN, tau_hat=tau, label="ARS"),
            mk(algo="pars_naive", q=Q_PRIOR, tau_hat=tau, label="PARS-Naive"),
            mk(algo="pars_impl", q=Q_IMPL, tau_hat=tau, label="PARS"),
        ]
    if name in _FIG2:
        fn = _FIG2[name]
        mk = lambda scale, **kw: RunConfig(function=fn, dim=500, budget=FIG2_BUDGET,
                                           seeds=DEFAULT_SEEDS, lhat_scale=scale, **kw)
        out = []
        for scale, suffix in ((1.0, ""), (50.0, "-0.02")):
            out += [
                mk(scale, algo="rgf", q=Q_PLAIN, label=f"RGF{suffix}"),
                mk(scale, algo="history_prgf", q=Q_PRIOR, label=f"History-PRGF{suffix}"),
                mk(scale, algo="ars", q=Q_PLAIN, restart=True, label=f"ARS{suffix}"),
                mk(scale, algo="history_pars", q=Q_PRIOR, restart=True,
                   label=f"History-PARS{suffix}"),
            ]
        return out
    raise ConfigError(f"unknown preset {name!r}; expected one of {', '.join(PRESETS)}")
