"""Prior-guided zeroth-order optimization.

Gradient-free optimizers built on finite-difference directional derivatives:
random and prior-guided subspace estimators, a greedy descent framework, an
accelerated random search family, benchmark objectives, Monte-Carlo
diagnostics, and a CLI benchmark harness.
"""

from .ars import (ArsConfig, ArsState, alpha_beta_gamma, maybe_restart, run_ars,
                  theta_floor, theta_from_D)
from .core import (ConfigError, InvalidPriorError, ObjectiveSpec, OracleFailureError,
                   OracleHandle, RngHandle, UnsupportedDiagnosticError,
                   directional_derivative, sample_unit_sphere)
from .frames import (OrthonormalFrame, ProbeSet, build_frame, estimate_Dt,
                     estimate_grad_norm_sq, g2_unbiased, g2_variance_reduced,
                     probe, subspace_estimate)
from .greedy import GreedyConfig, GreedyState, greedy_step, run_greedy
from .testfns import BenchFunction, BiasedPriorGen, bench_function, biased_prior_feed
from .trace import RunTrace

__version__ = "0.1.0"

__all__ = [
    "ArsConfig", "ArsState", "BenchFunction", "BiasedPriorGen", "ConfigError",
    "GreedyConfig", "GreedyState", "InvalidPriorError", "ObjectiveSpec",
    "OracleFailureError", "OracleHandle", "OrthonormalFrame", "ProbeSet",
    "RngHandle", "RunTrace", "UnsupportedDiagnosticError", "alpha_beta_gamma",
    "bench_function", "biased_prior_feed", "build_frame",
    "directional_derivative", "estimate_Dt", "estimate_grad_norm_sq",
    "g2_unbiased", "g2_variance_reduced", "greedy_step", "maybe_restart",
    "probe", "run_ars", "run_greedy", "sample_unit_sphere",
    "subspace_estimate", "theta_floor", "theta_from_D",
]
