"""Accelerated random search and its prior-guided variants.

All variants share one momentum skeleton: a step coefficient theta sets the
mixing weight alpha through alpha^2 = theta*((1-alpha)*gamma + alpha*taû),
the probe point is y = (1-beta)x + beta*m, the iterate descends along the
subspace estimate g1, and the momentum point moves along an unbiased
estimate g2. The variants differ in how theta is chosen and which frame and
g2 construction they use:

  ars          fixed theta = q^2/(L̂ d^2), plain random frame, g2 = (d/q) g1
  pars_naive   fixed theta, prior-guided frame, g2 = (d/q) g1 (still biased)
  pars_est     conservative theta from a sacrificial frame, then a fresh
               frame for the estimates (guess/verify loop on theta)
  pars_impl    two fixed-point passes for theta using one prior query each,
               gradient norm approximated by a windowed average
  history_pars previous iteration's theta and estimate direction as prior
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable, ClassVar, List, Optional

import numpy as np

from .core import Array, ConfigError, ObjectiveSpec, OracleHandle, RngHandle, is_real
from .frames import (_unit_prior, build_frame, estimate_Dt, estimate_grad_norm_sq, g2_unbiased,
                     probe)
from .greedy import GreedyConfig, GreedyState, descend
from .trace import RunTrace, StepRow, run_loop

B_UB = 0.6          # pars_impl: upper clip on the estimated prior quality D̂
AVG_WINDOW_K = 10   # pars_impl: gradient-norm estimates in the running average
KAPPA = 0.9         # pars_est: guess discount on the conservative theta bound
MAX_GUESS = 8       # pars_est: guess/verify passes per step


def theta_from_D(D: float, q: int, d: int, L_hat: float) -> float:
    """Step coefficient as a function of prior quality D, nondecreasing in D."""
    if not 0.0 <= D <= 1.0:
        raise ConfigError(f"D must lie in [0, 1], got {D}")
    if q > d - 1:
        raise ConfigError(f"q={q} must satisfy q <= d-1={d - 1}")
    c = q / (d - 1)
    num = D + c * (1.0 - D)
    den = L_hat * (D + (1.0 - D) / c)
    return num / den


def theta_floor(q: int, d: int, L_hat: float) -> float:
    """Worst-case theta (D = 0); every prior-guided variant stays above it."""
    if q > d - 1:
        raise ConfigError(f"q={q} must satisfy q <= d-1={d - 1}")
    return q * q / (L_hat * (d - 1) ** 2)


def alpha_beta_gamma(theta: float, gamma: float, tau_hat: float) -> tuple[float, float, float]:
    """Positive root of alpha^2 = theta*((1-alpha)*gamma + alpha*taû) plus
    the induced mixing weight beta and next gamma."""
    if theta < 0.0 or gamma <= 0.0:
        raise ConfigError(f"need theta >= 0 and gamma > 0, got {theta}, {gamma}")
    if theta == 0.0:
        return 0.0, 0.0, gamma
    if theta * gamma < sys.float_info.min:
        # subnormal theta*gamma loses the root; at zero it is 0/0
        raise ConfigError(f"theta*gamma = {theta * gamma!r} is below the normal float range")
    # gamma >= tau_hat is maintained by the recursion, so b >= 0 and the
    # cancellation-free form of the quadratic root applies.
    b = theta * (gamma - tau_hat)
    alpha = 2.0 * theta * gamma / (b + math.sqrt(b * b + 4.0 * theta * gamma))
    beta = alpha * gamma / (gamma + alpha * tau_hat)
    gamma_next = (1.0 - alpha) * gamma + alpha * tau_hat
    return alpha, beta, gamma_next


@dataclass
class ArsConfig(GreedyConfig):
    """``GreedyConfig`` plus the ARS family's momentum settings; gamma starts at ``L_hat``."""
    algo: str = "ars"
    tau_hat: float = 0.0
    restart: bool = False

    ALGOS: ClassVar[dict] = {"ars": "none", "pars_naive": "external", "pars_impl": "external",
                             "pars_est": "external", "history_pars": "historical"}

    def __post_init__(self):
        super().__post_init__()
        # gamma falls from L_hat toward tau_hat
        if not (is_real(self.tau_hat) and 0.0 <= self.tau_hat <= self.L_hat):
            raise ConfigError(f"tau_hat must be finite, nonnegative and <= L_hat={self.L_hat}, "
                              f"got {self.tau_hat}")

    @property
    def queries_per_iteration(self) -> int:
        if self.algo == "pars_impl":
            return self.q + 3
        if self.algo == "pars_est":
            return 3 * (self.q + 1)  # initial pass + one verify + resample
        return super().queries_per_iteration


@dataclass(kw_only=True)
class ArsState(GreedyState):
    """``GreedyState`` plus the momentum point and gamma, History-PARS's next
    theta, PARS-Impl's norm window and the f(y) a restart compares against."""
    m: Array
    gamma: float
    theta_prev: float = 0.0
    norm_sq_history: List[float] = field(init=False, default_factory=list)
    last_f_y: Optional[float] = field(init=False, default=None)


def maybe_restart(state: ArsState, f_y_current: float, config: ArsConfig) -> bool:
    """Adaptive restart: m <- x and gamma <- L̂ when f(y_t) increased over f(y_{t-1})."""
    restarted = state.last_f_y is not None and f_y_current > state.last_f_y
    if restarted:
        state.m = state.x.copy()
        state.gamma = config.L_hat
    state.last_f_y = f_y_current
    return restarted


def _descend(state: ArsState, oracle: OracleHandle, config: ArsConfig, rng: RngHandle,
             theta: float, prior: Optional[Array], f: Optional[float] = None,
             guess_passes: Optional[int] = None) -> tuple:
    """The step every variant takes once it has chosen theta: mix y, take the
    greedy descent step from y (see ``greedy.descend``), move m along g2,
    then test for a restart. Returns the probes, for the variant's own
    bookkeeping, and the step's ``StepRow`` with the variant's ``f`` and
    ``guess_passes``."""
    d = oracle.objective.dim
    alpha, beta, gamma_next = alpha_beta_gamma(theta, state.gamma, config.tau_hat)
    y = (1.0 - beta) * state.x + beta * state.m
    probes, g1, c_t, d_t = descend(state, oracle, config, rng, y, prior)
    g2 = (d / config.q) * g1 if config.algo in ("ars", "pars_naive") else g2_unbiased(probes)
    lam = config.tau_hat * alpha / gamma_next
    coef = theta / alpha if alpha > 0.0 else 0.0  # theta=0 limit
    state.m = (1.0 - lam) * state.m + lam * y - coef * g2
    state.gamma = gamma_next
    restarted = config.restart and maybe_restart(state, oracle.function_value(y), config)
    return probes, StepRow(f, c_t, d_t, theta, restarted, guess_passes)


def _step_ars(state: ArsState, oracle: OracleHandle, config: ArsConfig, rng: RngHandle,
              prior: Optional[Array] = None) -> StepRow:
    d = oracle.objective.dim
    theta = config.q ** 2 / (config.L_hat * d * d)
    return _descend(state, oracle, config, rng, theta, prior)[1]


def _step_pars_impl(state: ArsState, oracle: OracleHandle, config: ArsConfig, rng: RngHandle,
                    prior: Array) -> StepRow:
    d = oracle.objective.dim
    p = _unit_prior(prior)
    hist = state.norm_sq_history
    # np.mean's own arithmetic: one reduction, then a division by the count
    avg = float(np.add.reduce(np.array(hist)) / len(hist)) if hist else 0.0

    def clipped_dhat(deriv: float) -> float:
        if avg <= 0.0:
            return 0.0  # no norm history yet: fall back to the theta floor
        return min(deriv * deriv / avg, B_UB)

    # fixed-point pass 1: evaluate the prior derivative at y^(0) = x_t
    d0 = float(oracle.directional_derivatives(state.x, p[None, :])[0])
    f = oracle.last_base_f
    theta = theta_from_D(clipped_dhat(d0), config.q, d, config.L_hat)
    # fixed-point pass 2: re-evaluate at the y this theta induces
    _, beta, _ = alpha_beta_gamma(theta, state.gamma, config.tau_hat)
    y1 = (1.0 - beta) * state.x + beta * state.m
    d1 = float(oracle.directional_derivatives(y1, p[None, :])[0])
    theta = theta_from_D(clipped_dhat(d1), config.q, d, config.L_hat)

    probes, row = _descend(state, oracle, config, rng, theta, p, f)
    state.norm_sq_history.append(estimate_grad_norm_sq(probes))
    if len(state.norm_sq_history) > AVG_WINDOW_K:
        state.norm_sq_history.pop(0)
    return row


def _step_pars_est(state: ArsState, oracle: OracleHandle, config: ArsConfig, rng: RngHandle,
                   prior: Array) -> StepRow:
    d = oracle.objective.dim
    p = _unit_prior(prior)
    pass_cost = config.q + 1

    def conservative_theta_at(point: Array) -> float:
        frame = build_frame(rng, d, config.q, prior=p)
        probes = probe(oracle, point, frame)
        return theta_from_D(estimate_Dt(probes, conservative=True), config.q, d, config.L_hat)

    theta_bound = conservative_theta_at(state.x)  # theta=0 implies y = x_t
    f = oracle.last_base_f
    theta = None
    passes = 0
    for _ in range(MAX_GUESS):
        if oracle.dd_queries + 2 * pass_cost > config.budget:
            break  # keep the verify pass plus the final resample affordable
        guess = KAPPA * theta_bound
        _, beta, _ = alpha_beta_gamma(guess, state.gamma, config.tau_hat)
        y_guess = (1.0 - beta) * state.x + beta * state.m
        passes += 1
        theta_bound = conservative_theta_at(y_guess)
        if guess <= theta_bound:
            theta = guess
            break
    if theta is None:
        theta = theta_floor(config.q, d, config.L_hat)
    # a fresh frame for the estimates
    return _descend(state, oracle, config, rng, theta, p, f, passes)[1]


def _step_history_pars(state: ArsState, oracle: OracleHandle, config: ArsConfig, rng: RngHandle,
                       prior: Array) -> StepRow:
    d = oracle.objective.dim
    probes, row = _descend(state, oracle, config, rng, state.theta_prev, prior)
    # theta for the *next* iteration, from this iteration's probes
    state.theta_prev = theta_from_D(estimate_Dt(probes), config.q, d, config.L_hat)
    return row


_STEPPERS: dict[str, Callable] = {
    "ars": _step_ars,
    "pars_naive": _step_ars,
    "pars_impl": _step_pars_impl,
    "pars_est": _step_pars_est,
    "history_pars": _step_history_pars,
}


def run_ars(objective: ObjectiveSpec, config: ArsConfig, seed: int,
            prior_feed: Optional[Callable[[Array], Array]] = None) -> RunTrace:
    """Run the configured ARS variant until the dd-query budget is exhausted."""
    # only History-PARS reads theta_prev: its first step runs at the floor
    theta0 = (theta_floor(config.q, objective.dim, config.L_hat)
              if config.algo == "history_pars" else 0.0)
    return run_loop(objective, config, seed,
                    lambda x0: ArsState(x=x0, m=x0.copy(), gamma=config.L_hat, theta_prev=theta0),
                    _STEPPERS[config.algo], prior_feed)
