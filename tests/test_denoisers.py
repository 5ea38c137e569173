"""Denoiser evaluation, analytic vs finite-difference partials, divergences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amp_lab.denoisers import (
    Denoiser,
    _identity,
    _one,
    additive_denoiser,
    identity_denoiser,
    linear_mmse_combining_denoiser,
    mmse_rademacher_denoiser,
    projection_denoiser,
    random_lipschitz_denoiser,
    tanh_denoiser,
)
from amp_lab.errors import ValidationError


def constant_denoiser(t: int, c: float) -> Denoiser:
    """eta = c: the identity link of the zero projection, offset by c."""
    return additive_denoiser(f"constant({c})", np.zeros((1, t)), _identity, _one,
                             offsets=[float(c)])


def linear_denoiser(weights) -> Denoiser:
    """eta = sum_i w_i r_i."""
    return projection_denoiser("linear", weights, _identity, _one)


FD_STEP = 1e-5


def _history(t, n, seed=0):
    return np.random.default_rng(seed).standard_normal((t, n))


def _fd_partials(den, R):
    """Central finite differences of den.evaluate, the independent check of
    the analytic partials; zero for the rows den does not read."""
    out = np.zeros_like(R)
    reads = den.projection.any(axis=0)
    for i in range(R.shape[0]):
        if not reads[i]:
            continue
        h = FD_STEP * (1.0 + np.abs(R[i]))
        Rp = R.copy()
        Rp[i] = R[i] + h
        Rm = R.copy()
        Rm[i] = R[i] - h
        out[i] = (den.evaluate(Rp) - den.evaluate(Rm)) / (2.0 * h)
    return out


def test_identity_denoiser():
    R = _history(3, 10)
    den = identity_denoiser(3)
    assert np.array_equal(den.evaluate(R), R[-1])
    p = den.partials(R)
    assert np.array_equal(p[2], np.ones(10))
    assert np.array_equal(p[:2], np.zeros((2, 10)))


def test_constant_denoiser():
    den = constant_denoiser(2, 0.7)
    R = _history(2, 5)
    assert np.allclose(den.evaluate(R), 0.7)
    assert np.allclose(den.divergences(R), 0.0)


def test_linear_denoiser():
    w = np.array([0.5, -1.0, 2.0])
    den = linear_denoiser(w)
    R = _history(3, 20, seed=1)
    assert np.allclose(den.evaluate(R), w @ R)
    assert np.allclose(den.divergences(R), w)


def test_arity_mismatch_raises():
    den = tanh_denoiser(2)
    for call in (den.evaluate, den.divergences, den.evaluate_with_divergences):
        with pytest.raises(ValidationError,
                           match=r"^denoiser 'tanh\(scale=1.0\)' expects 2 history rows, got 3$"):
            call(_history(3, 4))


@pytest.mark.parametrize("factory", [
    lambda t: tanh_denoiser(t, scale=1.3),
    lambda t: random_lipschitz_denoiser(t, seed=5),
    lambda t: mmse_rademacher_denoiser(t, beta=1.2, sigma2=0.8),
    # two terms reading overlapping projections of the history
    lambda t: additive_denoiser("two-term", [[0.5, -1.0, 0.0], [0.2, 0.3, 1.1]], np.tanh,
                                lambda s: 1.0 - np.tanh(s) ** 2, weights=[0.7, -1.3],
                                offsets=[0.1, -0.4]),
])
def test_analytic_partials_match_finite_differences(factory):
    t = 3
    den = factory(t)
    R = _history(t, 50, seed=2)
    analytic = den.partials(R)
    fd = _fd_partials(den, R)
    assert np.max(np.abs(analytic - fd)) < 1e-5


def test_combining_denoiser_partials_match_fd():
    beta = np.array([0.5, 1.0, 2.0])
    Sigma = np.diag([1.0, 0.5, 0.25])
    den = linear_mmse_combining_denoiser(beta, Sigma)
    R = _history(3, 50, seed=3)
    assert np.max(np.abs(den.partials(R) - _fd_partials(den, R))) < 1e-5


def test_combining_weights_solve_sigma():
    beta = np.array([0.3, 0.9])
    Sigma = np.array([[1.0, 0.2], [0.2, 0.5]])
    den = linear_mmse_combining_denoiser(beta, Sigma)
    assert np.allclose(Sigma @ den.projection[0], beta, atol=1e-10)


def test_combining_denoiser_shape_validation():
    with pytest.raises(ValidationError):
        linear_mmse_combining_denoiser(np.ones(2), np.eye(3))


def test_mmse_rademacher_validates_sigma():
    with pytest.raises(ValidationError):
        mmse_rademacher_denoiser(1, beta=1.0, sigma2=0.0)


def test_random_lipschitz_bound_holds():
    den = random_lipschitz_denoiser(4, seed=9)
    R1 = _history(4, 30, seed=4)
    R2 = R1 + 0.01 * _history(4, 30, seed=5)
    lhs = np.abs(den.evaluate(R1) - den.evaluate(R2))
    rhs = den.lipschitz_bound * np.abs(R1 - R2).sum(axis=0)
    assert np.all(lhs <= rhs + 1e-12)


def test_random_lipschitz_is_one_term_per_history_row():
    # eta = sum_i w_i tanh(s_i r_i + b_i): the additive form with p_i = s_i e_i,
    # evaluated and differentiated in the order of the explicit sum
    t = 4
    den = random_lipschitz_denoiser(t, seed=11)
    rng = np.random.default_rng(11)
    w = rng.uniform(0.3, 1.0, size=t) * rng.choice([-1.0, 1.0], size=t)
    s = rng.uniform(0.5, 1.5, size=t)
    b = rng.uniform(-0.5, 0.5, size=t)
    R = _history(t, 64, seed=12)
    th = np.tanh(s[:, None] * R + b[:, None])
    assert np.array_equal(den.evaluate(R), np.sum(w[:, None] * th, axis=0))
    assert np.array_equal(den.partials(R), (w * s)[:, None] * (1.0 - th**2))


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.2, max_value=3.0),
       st.integers(min_value=0, max_value=10_000))
def test_tanh_partials_property(scale, seed):
    den = tanh_denoiser(1, scale=scale)
    R = np.random.default_rng(seed).standard_normal((1, 20))
    assert np.max(np.abs(den.partials(R) - _fd_partials(den, R))) < 1e-5


@pytest.mark.parametrize("factory", [
    lambda t: tanh_denoiser(t, scale=1.3),
    lambda t: random_lipschitz_denoiser(t, seed=5),
    lambda t: linear_denoiser(np.arange(1.0, t + 1.0)),
    lambda t: additive_denoiser("two-term", [[0.5, -1.0, 0.0], [0.2, 0.3, 1.1]], np.tanh,
                                lambda s: 1.0 - np.tanh(s) ** 2, weights=[0.7, -1.3],
                                offsets=[0.1, -0.4]),
])
def test_fused_evaluation_matches_evaluate_and_the_mean_of_the_partials(factory):
    # one pass of the link arguments gives eta bit for bit as `evaluate`,
    # and the average-first divergence row equals `divergences` bit for bit
    # and the mean of the (t, N) partials to rounding
    den = factory(3)
    R = _history(3, 500, seed=4)
    value, div = den.evaluate_with_divergences(R)
    assert np.array_equal(value, den.evaluate(R))
    assert np.array_equal(div, den.divergences(R))
    ref = den.partials(R).mean(axis=1)
    assert np.all(np.abs(div - ref) <= 1e-15 * np.abs(ref).max())
