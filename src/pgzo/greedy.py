"""Greedy descent driven by subspace gradient estimates.

Each iteration probes a random orthonormal frame (optionally containing a
prior direction), forms the projection estimate g1, and steps x <- x - g1/L̂.
Prior sources: none (plain random search), historical (previous estimate
direction), or external (a caller-supplied per-iterate callable); the run
loop (``trace.run_loop``) hands each step its prior.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar, Optional

from .core import (Array, ConfigError, ObjectiveSpec, OracleHandle, RngHandle, l2_norm,
                   require_finite_positive)
from .frames import ProbeSet, build_frame, cos_sq, probe, subspace_estimate
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
        if self.q < 1:
            raise ConfigError(f"q must be >= 1, got {self.q}")

    @property
    def prior_source(self) -> str:
        return self.ALGOS[self.algo]

    @property
    def queries_per_iteration(self) -> int:
        return self.q + (0 if self.prior_source == "none" else 1)


@dataclass
class GreedyState:
    x: Array
    prior: Optional[Array] = None
    iteration: int = 0


def descend(state, oracle: OracleHandle, config, rng: RngHandle, point: Array,
            prior: Optional[Array]) -> tuple[ProbeSet, Array, float, float]:
    """The descent step both families take: probe a frame around ``prior`` at
    ``point``, set ``state.x = point - g1/L̂`` and count the iteration. A
    historical ``config.prior_source`` makes g1/‖g1‖ the next
    ``state.prior``. Greedy descends from x_t, the ARS family from y_t.
    Returns the probes, g1, and C_t and D_t (NaN unless
    ``config.diagnostics``)."""
    frame = build_frame(rng, oracle.objective.dim, config.q, prior=prior)
    probes = probe(oracle, point, frame)
    g1 = subspace_estimate(probes)
    c_t = d_t = float("nan")
    if config.diagnostics:
        grad = oracle.last_grad if oracle.last_grad is not None else oracle.gradient_at(point)
        c_t = cos_sq(grad, g1)
        d_t = cos_sq(grad, frame.prior) if frame.prior is not None else d_t
    state.x = point - g1 / config.L_hat
    state.iteration += 1
    if config.prior_source == "historical":
        n = l2_norm(g1)
        if n > 0.0:  # zero estimate: keep the old prior
            state.prior = g1 / n
    return probes, g1, c_t, d_t


def greedy_step(state: GreedyState, oracle: OracleHandle, config: GreedyConfig,
                rng: RngHandle, prior: Optional[Array] = None) -> StepRow:
    """One frame probe around ``prior`` and descent update from x_t; mutates
    ``state`` and returns row t's ``StepRow``."""
    _, _, c_t, d_t = descend(state, oracle, config, rng, state.x, prior)
    return StepRow(oracle.last_base_f, c_t, d_t)


def run_greedy(objective: ObjectiveSpec, config: GreedyConfig, seed: int,
               prior_feed: Optional[Callable[[Array], Array]] = None) -> RunTrace:
    """Iterate greedy_step until the dd-query budget is exhausted.

    Row t's f-value reuses the base evaluation made by the step's own finite
    differences; only the first and last rows need uncharged diagnostic reads.
    """
    return run_loop(objective, config, seed, GreedyState, greedy_step, prior_feed)
