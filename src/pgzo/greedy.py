"""Greedy descent driven by subspace gradient estimates.

Each iteration probes a random orthonormal frame (optionally containing a
prior direction), forms the projection estimate g1, and steps x <- x - g1/L̂.
Prior sources: none (plain random search), historical (previous estimate
direction), or external (a caller-supplied per-iterate callable); the run
loop (``trace.run_loop``) hands each step its prior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Optional, Sequence

import numpy as np

from .core import (Array, ConfigError, ObjectiveSpec, RngHandle,
                   require_finite_positive, require_int_at_least)
from .frames import (ProbeSet, _dot, build_frame, build_frames, cos_sq, probe,
                     subspace_estimate)
from .trace import RunOptions, RunTrace, StepRow, run_loop


@dataclass
class GreedyConfig(RunOptions):
    """One run of a greedy algorithm: the step, the budget and the
    ``RunOptions``. ``ArsConfig`` extends it for the ARS family."""
    L_hat: float
    q: int
    algo: str = "rgf"
    budget: int = 0            # total directional-derivative queries

    # the family's algorithms by the prior they probe with
    ALGOS: ClassVar[dict] = {"rgf": "none", "prgf": "external", "history_prgf": "historical"}
    LOCKSTEP: ClassVar[bool] = True  # the steps run a stack of seeds (see trace.run_loop)

    def __post_init__(self):
        if self.algo not in self.ALGOS:
            raise ConfigError(f"{self.algo}: not an algorithm of {type(self).__name__}; "
                              f"expected one of {tuple(self.ALGOS)}")
        require_finite_positive("L_hat", self.L_hat)
        super().__post_init__()
        require_int_at_least("q", self.q, 1)
        require_int_at_least("budget", self.budget, 0)

    @property
    def prior_source(self) -> str:
        return self.ALGOS[self.algo]

    @property
    def queries_per_iteration(self) -> int:
        return self.q + (0 if self.prior_source == "none" else 1)


@dataclass
class GreedyState:
    """x (d,) and the historical prior, or (n, d) for a stack of n seeds."""
    x: Array
    prior: Optional[Array] = None
    iteration: int = field(init=False, default=0)


def _adopt_prior(g1: Array, prior: Array) -> Array:
    """g1/‖g1‖ where 0 < ‖g1‖ < inf, else the old prior; row by row for a
    stack. A zero estimate has no direction, and one that overflowed would
    make a zero prior."""
    if g1.ndim == 1:
        n = math.sqrt(g1 @ g1)  # l2_norm(g1)
        return g1 / n if 0.0 < n < math.inf else prior
    n = np.sqrt(_dot(g1, g1))[:, None]  # per row the ddot and sqrt of l2_norm
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where((0.0 < n) & (n < math.inf), g1 / n, prior)


def descend(state, oracle, config, rng, point: Array,
            prior: Optional[Array]) -> tuple[ProbeSet, Array, float, float]:
    """The descent step both families take: probe a frame around ``prior`` at
    ``point``, set ``state.x = point - g1/L̂`` and count the iteration. The
    historical prior (``state.prior``, which ``run_loop`` sets for it alone)
    becomes g1/‖g1‖. Greedy descends from x_t, the ARS family from y_t.
    Returns the probes, g1, and C_t and D_t (NaN unless
    ``config.diagnostics``).

    For a stack of n seeds (``trace.run_loop``), ``oracle`` and ``rng`` are
    lists of the seeds' exact oracles and handles, ``point``, ``prior`` and
    ``state``'s arrays hold one row per seed, and g1 one row per seed; a
    stack records no diagnostics."""
    if isinstance(rng, RngHandle):
        frame = build_frame(rng, point.shape[-1], config.q, prior)
    else:
        frame = build_frames(rng, point.shape[-1], config.q, len(rng), prior)
    probes = probe(oracle, point, frame)
    g1 = subspace_estimate(probes)
    c_t = d_t = math.nan
    if config.diagnostics:
        grad = oracle.last_grad if oracle.last_grad is not None else oracle.gradient_at(point)
        c_t = cos_sq(grad, g1)
        d_t = cos_sq(grad, frame.prior) if prior is not None else d_t
    state.x = point - g1 / config.L_hat
    state.iteration += 1
    if state.prior is not None:
        state.prior = _adopt_prior(g1, state.prior)
    return probes, g1, c_t, d_t


def greedy_step(state: GreedyState, oracle, config: GreedyConfig, rng, prior=None):
    """One frame probe around ``prior`` and descent update from x_t; mutates
    ``state`` and returns row t's ``StepRow``, or one per seed of a stack
    (see ``descend``), whose exact oracles paid for no f(x_t)."""
    _, _, c_t, d_t = descend(state, oracle, config, rng, state.x, prior)
    if not isinstance(oracle, list):
        return StepRow(oracle.last_base_f, c_t, d_t)
    return [StepRow(None)] * len(oracle)


def run_greedy(objective: ObjectiveSpec, config: GreedyConfig, seed: int,
               prior_feed: Optional[Callable[[Array], Array]] = None) -> RunTrace:
    """Iterate greedy_step until the dd-query budget is exhausted.

    Row t's f-value reuses the base evaluation made by the step's own finite
    differences; only the first and last rows need uncharged diagnostic reads.
    """
    return run_loop(objective, config, seed, GreedyState, greedy_step, prior_feed)


def run_greedy_lockstep(objective: ObjectiveSpec, config: GreedyConfig,
                        seeds: Sequence[int]) -> list[RunTrace]:
    """``run_greedy(objective, config, seed)`` for every seed, run as one
    stack: each iteration steps every seed at once. Returns one trace per
    seed, in order, each equal to the one ``run_greedy`` returns.

    Only an exact-oracle ``rgf`` or ``history_prgf`` run with no
    diagnostics and no target stacks (see ``trace.run_loop``); that is all
    ``diagnostics.check_theorem_bounds`` runs. With the fd oracle a stack
    lost to single runs at d >= 256 (README, "Seeds in lockstep")."""
    return run_loop(objective, config, list(seeds), GreedyState, greedy_step, None)
