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

from .core import Array, ConfigError, InvalidPriorError, OracleHandle, RngHandle, flapack

# Smallest prior norm a frame accepts.
RESIDUAL_EPS = 1e-12
# rows[..., 0, :] and rows[..., 1:, :], built once (a slice is built anew on every use)
_FIRST_ROW, _LATER_ROWS = (..., 0, slice(None)), (..., slice(1, None), slice(None))


class OrthonormalFrame:
    """Prior direction (optional) plus q orthonormal random directions.

    Binds the row block ``rows`` without a copy: ``prior`` is row 0 when
    ``with_prior``, ``directions`` the rest; ``stacked()`` returns ``rows``
    itself. One frame has (k, d) rows, so a (d,) prior and (q, d)
    directions; a stack of n frames has (n, k, d) rows, so (n, d) priors
    and (n, q, d) directions.
    """

    def __init__(self, rows: Array, with_prior: bool):
        self._rows = rows
        self.dim = rows.shape[-1]
        if with_prior:
            self.prior, self.directions = rows[_FIRST_ROW], rows[_LATER_ROWS]
        else:
            self.prior, self.directions = None, rows

    @property
    def q(self) -> int:
        return self.directions.shape[-2]

    def stacked(self) -> Array:
        """All probe directions as rows, prior first when present."""
        return self._rows


@dataclass
class ProbeSet:
    """Directional derivatives measured along a frame at one point."""

    frame: OrthonormalFrame
    prior_deriv: Optional[float]   # for a stack of n frames, an (n, 1) column
    dir_derivs: Array              # (q,), or (n, q) for a stack


def _unit_prior(prior: Array) -> Array:
    """``prior`` scaled to unit norm, or each row of an (n, d) stack of
    priors; InvalidPriorError unless every norm is finite and at least
    RESIDUAL_EPS (a NaN norm fails the comparison)."""
    prior = np.asarray(prior, dtype=float)
    if prior.ndim == 1:
        pn = worst = math.sqrt(prior @ prior)  # l2_norm(prior)
    else:  # per row the same ddot and correctly rounded sqrt as l2_norm
        pn = np.sqrt(_dot(prior, prior))[:, None]
        ok = (pn >= RESIDUAL_EPS) & (pn < math.inf)
        worst = RESIDUAL_EPS if ok.all() else float(pn[~ok][0])
    if not worst >= RESIDUAL_EPS or not math.isfinite(worst):
        raise InvalidPriorError(f"prior must have a finite norm >= {RESIDUAL_EPS}, got {worst}")
    return prior / pn


def build_frames(rng, d: int, q: int, n: Optional[int],
                 prior: Optional[Array] = None) -> OrthonormalFrame:
    """n frames as one stack of (n, k, d) rows, or one frame of (k, d) rows
    when n is None: q directions sampled uniformly and orthonormalized (and
    the prior).

    ``rng`` is one ``RngHandle``, which draws the n frames in turn, or a
    sequence of n handles, one per frame (the seeds of a lockstep run).
    ``prior`` is one (d,) prior for every frame or, with one handle per
    frame, an (n, d) stack of them, one per frame.

    The prior is only normalized, never rotated; the random directions are
    made orthogonal to it and to each other. Gaussian draws are used directly
    since projection + normalization is direction-invariant under scaling.
    Every frame is bit for bit the one ``build_frame`` would build from its
    handle, which is consumed as that call would consume it: one pass, run
    again on the frames it rejects, builds them all (``_cholqr``)."""
    if q < 1:
        raise ConfigError(f"q must be >= 1, got {q}")
    if n is not None and n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    if not isinstance(rng, RngHandle) and len(rng) != n:
        raise ConfigError(f"{len(rng)} random handles for {n} frames")
    p = None
    if prior is not None:
        p = _unit_prior(prior)
        if q > d - 1:
            raise ConfigError(f"q={q} with a prior requires q <= d-1={d - 1}")
    elif q > d:
        raise ConfigError(f"q={q} exceeds dimension d={d}")

    rows = np.empty((1 if n is None else n, q + (p is not None), d))
    if p is not None:
        rows[_FIRST_ROW] = p
    _cholqr(rng, rows[:, -q:], p)
    return OrthonormalFrame(rows if n is not None else rows[0], p is not None)


def _cholqr(rng, out: Array, p: Optional[Array], rejects: int = 0) -> None:
    """Fills ``out``, m (q, d) blocks, with frames: m blocks of normals from
    ``rng`` (one handle, or one block from each handle of a list) made
    orthogonal to ``p`` (one unit prior or one per block), each times L^-1
    for its Gram matrix L L^T (Cholesky-QR: Gram-Schmidt in exact arithmetic,
    with its residual norms on L's diagonal). A Gram block's transpose is
    itself and Fortran-ordered, so dpotrf and dtrtri overwrite it in place;
    their flags go in by position (f2py's keyword parsing costs a
    microsecond per frame). The pass runs again on the frames of the blocks
    it rejects as near degenerate: with one handle, a rejected block passes
    its frame to the next and the tail is drawn anew; with one handle per
    frame, each from its own handle. ``rejects`` counts rejects in a row so
    far (of the handle's blocks, or of every frame not yet built)."""
    m, q, d = out.shape
    raw = (rng.normal((m, q, d)) if isinstance(rng, RngHandle)
           else np.concatenate([h.normal((1, q, d)) for h in rng]))
    if p is not None:
        raw -= (raw @ p[..., None]) * p[..., None, :]
    inv_l = (raw @ raw.transpose(0, 2, 1)).transpose(0, 2, 1)  # the Gram blocks
    if m == 1:
        chol, info = flapack.dpotrf(inv_l[0], 1, 1, 1)
        if not info and min(chol.diagonal().tolist()) >= 1e-6:
            if not flapack.dtrtri(chol, 1, 0, 1)[1]:
                np.matmul(inv_l, raw, out=out)
                return
        rejected = [0]
    else:
        infos = [flapack.dpotrf(chol, 1, 1, 1)[1] for chol in inv_l]
        wide = (inv_l.diagonal(0, 1, 2) >= 1e-6).all(1).tolist()
        rejected = [i for i, (chol, info, ok) in enumerate(zip(inv_l, infos, wide))
                    if info or not ok or flapack.dtrtri(chol, 1, 0, 1)[1]]
        np.matmul(inv_l, raw, out=out)  # a rejected block's rows are written again below
        if not rejected:
            return
    if isinstance(rng, RngHandle):
        for i in range(m):  # rejects in a row of the handle's blocks
            rejects = rejects + 1 if i in rejected else 0
            if rejects == 64:
                break
        accepted = [i for i in range(m) if i not in rejected]
        out[:len(accepted)] = out[accepted]  # first, in stream order
        redo = slice(len(accepted), None)
    else:  # every frame not yet built was rejected on every pass
        rejects, rng, redo = rejects + 1, [rng[i] for i in rejected], rejected
    if rejects == 64:
        raise ConfigError("could not build an orthonormal frame (d too small?)")
    rebuilt = out[redo]  # the tail's view, or a copy of the rejected frames
    _cholqr(rng, rebuilt, p if p is None or p.ndim == 1 else p[redo], rejects)
    out[redo] = rebuilt


def build_frame(rng: RngHandle, d: int, q: int, prior: Optional[Array] = None) -> OrthonormalFrame:
    """One frame of q orthonormal random directions (see ``build_frames``)."""
    return build_frames(rng, d, q, None, prior)


def probe(oracle, x: Array, frame: OrthonormalFrame) -> ProbeSet:
    """One directional-derivative query per frame vector (prior included).
    For a stack of frames, ``oracle`` and ``x`` hold one exact-mode
    ``OracleHandle`` and one point per frame, and each oracle is charged for
    its own frame. The products are then taken for the whole stack at once,
    each frame's bit for bit as its own oracle takes them."""
    rows = frame._rows
    if isinstance(oracle, OracleHandle):
        if frame.dim != oracle.objective.dim:
            raise ConfigError(f"frame dim {frame.dim} != oracle dim {oracle.objective.dim}")
        vals = oracle.directional_derivatives(x, rows)
        if frame.prior is None:
            return ProbeSet(frame, None, vals)
        return ProbeSet(frame, vals.item(0), vals[1:])
    first = oracle[0]
    if frame.dim != first.objective.dim:
        raise ConfigError(f"frame dim {frame.dim} != oracle dim {first.objective.dim}")
    if first.mode != "exact":
        raise ConfigError("a stack of frames is probed only by exact oracles")
    grads = np.array([o.exact_gradient(xi, len(r)) for o, xi, r in zip(oracle, x, rows)])
    vals = (rows @ grads[:, :, None])[..., 0]
    if frame.prior is None:
        return ProbeSet(frame, None, vals)
    return ProbeSet(frame, vals[:, :1], vals[:, 1:])


def _dot(a: Array, b: Array) -> Array:
    """``a @ b`` along the last axis, one value per row of a stacked operand,
    as (..., 1, d) @ (..., d, 1): numpy hands each to the same ddot as a 1-D
    ``a @ b``, where (n, d) @ (d,) would be one gemv, which rounds otherwise."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _combine(coef: Array, rows: Array) -> Array:
    """``coef @ rows`` per frame: (q,) with (q, d), or (n, q) with (n, q, d)
    as (n, 1, q) @ (n, q, d), the same product for every frame."""
    if coef.ndim == 1:
        return coef @ rows
    return (coef[:, None, :] @ rows)[:, 0]


def subspace_estimate(probes: ProbeSet) -> Array:
    """g1: the projection of the gradient onto the probed subspace."""
    g = _combine(probes.dir_derivs, probes.frame.directions)
    if probes.prior_deriv is not None:
        g += probes.prior_deriv * probes.frame.prior
    return g


def g2_unbiased(probes: ProbeSet) -> Array:
    """Unbiased gradient estimate: prior term plus (d-1)/q-scaled random part."""
    if probes.prior_deriv is None:
        raise ConfigError("g2_unbiased requires a frame with a prior")
    d, q = probes.frame.dim, probes.frame.q
    scale = (d - 1) / q
    return (probes.prior_deriv * probes.frame.prior
            + scale * _combine(probes.dir_derivs, probes.frame.directions))


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
    return (d / q) * _combine(corrected, u) + prior_deriv_orig * p


def cos_sq(a: Array, b: Array):
    """Squared cosine ``ab * ab / (aa * bb)`` between a and b, from the dot
    products ab = a.b, aa = a.a and bb = b.b; NaN when either is zero. For a
    stack of rows ``b``, one value per row, each the float ``cos_sq(a, row)``
    gives: ``_dot`` takes the same dot products and every other operation is
    one correctly rounded multiplication or division."""
    if b.ndim == 1:
        ab, aa_bb = float(a @ b), float(a @ a) * float(b @ b)
        return ab * ab / aa_bb if aa_bb != 0.0 else math.nan
    ab = _dot(a, b)
    with np.errstate(divide="ignore", invalid="ignore"):
        return ab * ab / (_dot(a, a) * _dot(b, b))


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
