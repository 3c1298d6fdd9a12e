"""Property tests for the ARS step coefficients and the frame sampler."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from pgzo.ars import alpha_beta_gamma, theta_floor, theta_from_D  # noqa: E402
from pgzo.core import RngHandle  # noqa: E402
from pgzo.frames import build_frame  # noqa: E402

EPS = np.finfo(float).eps
unit = st.floats(0.0, 1.0)
lhat = st.floats(1e-3, 1e3)


@st.composite
def q_and_d(draw, max_d=1000):
    q = draw(st.integers(1, 50))
    return q, draw(st.integers(q + 1, max(q + 1, max_d)))


@given(q_and_d(), lhat, unit, unit)
def test_theta_nondecreasing_in_D(qd, L_hat, D1, D2):
    q, d = qd
    lo, hi = sorted((D1, D2))
    # a few ulps of slack: the two rounded quotients may cross for D1 ~ D2
    assert theta_from_D(lo, q, d, L_hat) <= theta_from_D(hi, q, d, L_hat) * (1 + 8 * EPS)


@given(q_and_d(), lhat)
def test_theta_endpoints(qd, L_hat):
    q, d = qd
    assert theta_from_D(0.0, q, d, L_hat) == pytest.approx(theta_floor(q, d, L_hat),
                                                          rel=8 * EPS, abs=0)
    assert theta_from_D(1.0, q, d, L_hat) == 1.0 / L_hat


# 0, or a fraction far from underflow: theta*gamma near 1e-300 would lose
# the root to subnormal arithmetic, and no run comes within 1e-200 of that.
fraction = st.one_of(st.just(0.0), st.floats(1e-12, 1.0))


@st.composite
def ars_coefficients(draw):
    # The ARS recursion's domain: theta <= 1/L̂, tau_hat <= gamma <= gamma0 = L̂.
    L_hat = draw(lhat)
    theta = draw(fraction) / L_hat
    tau = draw(fraction) * L_hat
    gamma = tau + draw(fraction) * (L_hat - tau)
    hypothesis.assume(gamma > 0.0)
    return theta, gamma, tau


@given(ars_coefficients())
def test_alpha_is_the_root_and_gamma_stays_above_tau(coeffs):
    theta, gamma, tau = coeffs
    alpha, beta, gamma_next = alpha_beta_gamma(theta, gamma, tau)
    rhs = theta * ((1.0 - alpha) * gamma + alpha * tau)
    scale = max(alpha * alpha, theta * gamma, theta * tau)
    assert abs(alpha * alpha - rhs) <= 8 * EPS * scale
    assert 0.0 <= alpha <= 1.0 and 0.0 <= beta <= 1.0
    assert gamma_next >= tau * (1 - 4 * EPS)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 30), st.integers(0, 3), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_build_frame_orthonormal_with_prior_unrotated(d, gap, with_prior, seed):
    # q at or near d: up to d directions without a prior, d-1 with one
    q = max(1, d - int(with_prior) - gap)
    hypothesis.assume(q <= d - int(with_prior))
    rng = RngHandle(seed)
    prior = rng.gen.standard_normal(d) if with_prior else None
    hypothesis.assume(prior is None or np.linalg.norm(prior) > 1e-3)
    frame = build_frame(rng, d, q, prior=prior)
    rows = frame.stacked()
    assert rows.shape == (q + int(with_prior), d)
    np.testing.assert_allclose(rows @ rows.T, np.eye(len(rows)), atol=1e-9)
    if with_prior:
        np.testing.assert_array_equal(frame.prior, prior / math.sqrt(prior @ prior))
