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
from typing import Callable, ClassVar, Optional

import numpy as np

from .core import (Array, ConfigError, ObjectiveSpec, OracleHandle, RngHandle,
                   require_finite_positive, require_int_at_least)
from .frames import ProbeSet, _dot, build_frame, cos_sq, probe, subspace_estimate
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
    """x and the historical prior, each (d,)."""
    x: Array
    prior: Optional[Array] = None
    iteration: int = field(init=False, default=0)


def _adopt_prior(g1: Array, prior: Array) -> Array:
    """g1/‖g1‖ where 0 < ‖g1‖ < inf, else the old prior; row by row for the
    (n, d) stack of ``diagnostics.check_theorem_bounds``. A zero estimate has
    no direction, and one that overflowed would make a zero prior."""
    if g1.ndim == 1:
        n = math.sqrt(g1 @ g1)  # l2_norm(g1)
        return g1 / n if 0.0 < n < math.inf else prior
    n = np.sqrt(_dot(g1, g1))[:, None]  # per row the ddot and sqrt of l2_norm
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where((0.0 < n) & (n < math.inf), g1 / n, prior)


def descend(state, oracle: OracleHandle, config, rng: RngHandle, point: Array,
            prior: Optional[Array]) -> tuple[ProbeSet, Array, float, float]:
    """The descent step both families take: probe a frame around ``prior`` at
    ``point``, set ``state.x = point - g1/L̂`` and count the iteration. The
    historical prior (``state.prior``, which ``run_loop`` sets for it alone)
    becomes g1/‖g1‖. Greedy descends from x_t, the ARS family from y_t.
    Returns the probes, g1, and C_t and D_t (NaN unless
    ``config.diagnostics``)."""
    frame = build_frame(rng, len(point), config.q, prior)
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


def greedy_step(state: GreedyState, oracle: OracleHandle, config: GreedyConfig,
                rng: RngHandle, prior: Optional[Array] = None) -> StepRow:
    """One frame probe around ``prior`` and descent update from x_t; mutates
    ``state`` and returns row t's ``StepRow``."""
    _, _, c_t, d_t = descend(state, oracle, config, rng, state.x, prior)
    return StepRow(oracle.last_base_f, c_t, d_t)


def run_greedy(objective: ObjectiveSpec, config: GreedyConfig, seed: int,
               prior_feed: Optional[Callable[[Array], Array]] = None,
               step: Callable = greedy_step) -> RunTrace:
    """Iterate greedy_step until the dd-query budget is exhausted.

    Row t's f-value reuses the base evaluation made by the step's own finite
    differences; only the first and last rows need uncharged diagnostic reads.
    ``step`` stands in for ``greedy_step`` with its signature:
    ``diagnostics.check_lemma36`` passes one that keeps every ``StepRow``.
    """
    return run_loop(objective, config, seed, GreedyState, step, prior_feed)
