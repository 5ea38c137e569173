"""Denoiser evaluation, analytic vs finite-difference partials, divergences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amp_lab.denoisers import (
    Denoiser,
    constant_denoiser,
    identity_denoiser,
    linear_denoiser,
    linear_mmse_combining_denoiser,
    mmse_rademacher_denoiser,
    random_lipschitz_denoiser,
    tanh_denoiser,
)
from amp_lab.errors import ValidationError


def _history(t, n, seed=0):
    return np.random.default_rng(seed).standard_normal((t, n))


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
    assert den.depends_on() == frozenset()


def test_linear_denoiser():
    w = np.array([0.5, -1.0, 2.0])
    den = linear_denoiser(w)
    R = _history(3, 20, seed=1)
    assert np.allclose(den.evaluate(R), w @ R)
    assert np.allclose(den.divergences(R), w)


def test_arity_mismatch_raises():
    den = tanh_denoiser(2)
    with pytest.raises(ValidationError):
        den.evaluate(_history(3, 4))


@pytest.mark.parametrize("factory", [
    lambda t: tanh_denoiser(t, scale=1.3),
    lambda t: random_lipschitz_denoiser(t, seed=5),
    lambda t: mmse_rademacher_denoiser(t, beta=1.2, sigma2=0.8),
])
def test_analytic_partials_match_finite_differences(factory):
    t = 3
    den = factory(t)
    R = _history(t, 50, seed=2)
    analytic = den.partials(R)
    fd = den._fd_partials(R)
    assert np.max(np.abs(analytic - fd)) < 1e-5


def test_combining_denoiser_partials_match_fd():
    beta = np.array([0.5, 1.0, 2.0])
    Sigma = np.diag([1.0, 0.5, 0.25])
    den = linear_mmse_combining_denoiser(beta, Sigma)
    R = _history(3, 50, seed=3)
    assert np.max(np.abs(den.partials(R) - den._fd_partials(R))) < 1e-5


def test_combining_weights_solve_sigma():
    beta = np.array([0.3, 0.9])
    Sigma = np.array([[1.0, 0.2], [0.2, 0.5]])
    den = linear_mmse_combining_denoiser(beta, Sigma)
    assert np.allclose(Sigma @ den.combining_weights, beta, atol=1e-10)


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


def test_fd_fallback_used_without_partial_fn():
    den = Denoiser("cube", 2, lambda R: R[-1] ** 3)
    R = _history(2, 40, seed=6)
    p = den.partials(R)
    assert np.max(np.abs(p[1] - 3 * R[-1] ** 2)) < 1e-6
    assert np.max(np.abs(p[0])) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.2, max_value=3.0),
       st.integers(min_value=0, max_value=10_000))
def test_tanh_partials_property(scale, seed):
    den = tanh_denoiser(1, scale=scale)
    R = np.random.default_rng(seed).standard_normal((1, 20))
    assert np.max(np.abs(den.partials(R) - den._fd_partials(R))) < 1e-5
