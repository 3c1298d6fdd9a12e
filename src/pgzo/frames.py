"""Orthonormal probe frames and the gradient estimators built on them.

A frame holds an optional prior direction plus q random orthonormal
directions spanning the probe subspace. All of them are rows of one
(q+1, d) array, prior first, or (q, d) without a prior, so probing an entire
frame is one vectorized oracle call on that array as it stands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import lapack

from .core import Array, ConfigError, InvalidPriorError, OracleHandle, RngHandle, l2_norm

# Smallest prior norm a frame accepts.
RESIDUAL_EPS = 1e-12


class OrthonormalFrame:
    """Prior direction (optional) plus q orthonormal random directions.

    Binds the row block ``rows`` without a copy: ``prior`` (d,) is row 0 when
    ``with_prior``, ``directions`` (q, d) the rest; ``stacked()`` returns
    ``rows`` itself.
    """

    def __init__(self, rows: Array, with_prior: bool):
        self._rows = rows
        self.dim = rows.shape[1]
        if with_prior:
            self.prior, self.directions = rows[0], rows[1:]
        else:
            self.prior, self.directions = None, rows

    @property
    def q(self) -> int:
        return self.directions.shape[0]

    def stacked(self) -> Array:
        """All probe directions as rows, prior first when present."""
        return self._rows


@dataclass
class ProbeSet:
    """Directional derivatives measured along a frame at one point."""

    frame: OrthonormalFrame
    prior_deriv: Optional[float]
    dir_derivs: Array          # (q,)


def _unit_prior(prior: Array) -> Array:
    """``prior`` scaled to unit norm; InvalidPriorError unless its norm is
    finite and at least RESIDUAL_EPS (a NaN norm fails the comparison)."""
    prior = np.asarray(prior, dtype=float)
    pn = l2_norm(prior)
    if not pn >= RESIDUAL_EPS or not math.isfinite(pn):
        raise InvalidPriorError(f"prior must have a finite norm >= {RESIDUAL_EPS}, got {pn}")
    return prior / pn


def build_frame(rng: RngHandle, d: int, q: int, prior: Optional[Array] = None) -> OrthonormalFrame:
    """Sample q directions uniformly and orthonormalize them (and the prior).

    The prior is only normalized, never rotated; the random directions are
    made orthogonal to it and to each other. Gaussian draws are used directly
    since projection + normalization is direction-invariant under scaling.
    """
    if q < 1:
        raise ConfigError(f"q must be >= 1, got {q}")
    p = None
    if prior is not None:
        p = _unit_prior(prior)
        if q > d - 1:
            raise ConfigError(f"q={q} with a prior requires q <= d-1={d - 1}")
    elif q > d:
        raise ConfigError(f"q={q} exceeds dimension d={d}")

    if p is None:
        rows = dirs = np.empty((q, d))
    else:
        rows = np.empty((q + 1, d))
        rows[0] = p
        dirs = rows[1:]
    # Cholesky-QR: identical to Gram-Schmidt in exact arithmetic, one LAPACK
    # call instead of q passes. The Cholesky diagonal equals the per-direction
    # Gram-Schmidt residual norms; a draw anywhere near degeneracy (where
    # CholQR's conditioning degrades) is discarded and the whole block redrawn.
    for _ in range(64):
        raw = rng.normal((q, d))
        if p is not None:
            raw -= (raw @ p)[:, None] * p
        chol, info = lapack.dpotrf(raw @ raw.T, lower=1)
        if info == 0 and chol.diagonal().min() >= 1e-6:
            inv_l, info2 = lapack.dtrtri(chol, lower=1)
            if info2 == 0:
                np.matmul(inv_l, raw, out=dirs)
                return OrthonormalFrame(rows, p is not None)
    raise ConfigError("could not build an orthonormal frame (d too small?)")


def probe(oracle: OracleHandle, x: Array, frame: OrthonormalFrame) -> ProbeSet:
    """One directional-derivative query per frame vector (prior included)."""
    if frame.dim != oracle.objective.dim:
        raise ConfigError(f"frame dim {frame.dim} != oracle dim {oracle.objective.dim}")
    vals = oracle.directional_derivatives(x, frame.stacked())
    if frame.prior is None:
        return ProbeSet(frame, None, vals)
    return ProbeSet(frame, float(vals[0]), vals[1:])


def subspace_estimate(probes: ProbeSet) -> Array:
    """g1: the projection of the gradient onto the probed subspace."""
    g = probes.dir_derivs @ probes.frame.directions
    if probes.prior_deriv is not None:
        g += probes.prior_deriv * probes.frame.prior
    return g


def g2_unbiased(probes: ProbeSet) -> Array:
    """Unbiased gradient estimate: prior term plus (d-1)/q-scaled random part."""
    if probes.prior_deriv is None:
        raise ConfigError("g2_unbiased requires a frame with a prior")
    d, q = probes.frame.dim, probes.frame.q
    scale = (d - 1) / q
    return probes.prior_deriv * probes.frame.prior + scale * (probes.dir_derivs @ probes.frame.directions)


def g2_variance_reduced(probes_plain: ProbeSet, prior_orig: Array, prior_deriv_orig: float) -> Array:
    """Control-variate unbiased estimate from *unprojected* uniform directions.

    The directions must have been sampled without removing the prior; the
    prior enters only through the separately queried derivative along it.
    """
    if probes_plain.frame.prior is not None:
        raise ConfigError("g2_variance_reduced expects a frame without a prior")
    p = _unit_prior(prior_orig)
    d, q = probes_plain.frame.dim, probes_plain.frame.q
    u = probes_plain.frame.directions
    corrected = probes_plain.dir_derivs - prior_deriv_orig * (u @ p)
    return (d / q) * (corrected @ u) + prior_deriv_orig * p


def cos_sq(a: Array, b: Array) -> float:
    """Squared cosine between a and b; NaN when either is zero."""
    na, nb = l2_norm(a), l2_norm(b)
    if na == 0.0 or nb == 0.0:
        return float("nan")
    return float((a @ b) ** 2 / (na * na * nb * nb))


def estimate_grad_norm_sq(probes: ProbeSet) -> float:
    """Unbiased estimate of ||grad f||^2 from the frame's probe values."""
    if probes.prior_deriv is None:
        raise ConfigError("estimate_grad_norm_sq requires a frame with a prior")
    d, q = probes.frame.dim, probes.frame.q
    return float(probes.prior_deriv ** 2 + (d - 1) / q * np.add.reduce(probes.dir_derivs ** 2))


def estimate_Dt(probes: ProbeSet, conservative: bool = False) -> float:
    """Estimated squared cosine between the prior and the gradient, in [0, 1].

    The conservative variant doubles the random-part weight in the
    denominator so the estimate undershoots with high probability.
    """
    if probes.prior_deriv is None:
        raise ConfigError("estimate_Dt requires a frame with a prior")
    d, q = probes.frame.dim, probes.frame.q
    factor = (2.0 if conservative else 1.0) * (d - 1) / q
    num = probes.prior_deriv ** 2
    denom = num + factor * float(np.add.reduce(probes.dir_derivs ** 2))
    if denom == 0.0:
        return 0.0  # gradient may genuinely vanish; callers take a zero step
    return float(num / denom)
