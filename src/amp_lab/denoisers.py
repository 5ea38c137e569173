"""Rowwise-separable iterate denoisers in one additive form.

A denoiser at step t maps the history rows (r_1[n], ..., r_t[n]) to a
scalar, eta(R) = sum_k c_k g(p_k^T R + b_k): K terms, each a scalar link g of
one projection p_k of the history.  A projection denoiser g(p^T R) is the
one-term case; `random_lipschitz_denoiser` has one term per history row.
State evolution integrates every term exactly by quadrature over at most two
projections.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True, eq=False)  # identity equality and hash: the fields are arrays
class Denoiser:
    """eta: (t, N) history array -> (N,) output, eta(R) = sum_k c_k g(p_k^T R + b_k).

    Row k of `projection` (K, arity) is p_k, with zero entries for unread
    rows; `weights` c and `offsets` b have length K; `link` g and
    `link_prime` g' act elementwise on arrays of any shape.  The partials are
    d eta / d r_i = sum_k c_k p_{k,i} g'(p_k^T R + b_k).  `prime_of_link`,
    when set, gives g' from the values of g (1 - g^2 for tanh), bit for bit
    `link_prime`, so `evaluate_with_divergences` evaluates g once.
    """

    name: str
    projection: np.ndarray
    link: Callable
    link_prime: Callable
    weights: np.ndarray
    offsets: np.ndarray
    prime_of_link: Callable | None = None

    @property
    def arity(self) -> int:
        return self.projection.shape[1]

    def _args(self, R: np.ndarray) -> np.ndarray:
        """(K, N) link arguments p_k^T R + b_k of a history with `arity` rows."""
        R = np.atleast_2d(np.asarray(R, dtype=float))
        if R.shape[0] != self.arity:
            raise ValidationError(
                f"denoiser {self.name!r} expects {self.arity} history rows, got {R.shape[0]}"
            )
        return self.projection @ R + self.offsets[:, None]

    def _value(self, g: np.ndarray) -> np.ndarray:
        """eta from the (K, N) link values g(p_k^T R + b_k)."""
        return np.sum(self.weights[:, None] * g, axis=0)

    def _divergences(self, gp: np.ndarray) -> np.ndarray:
        """<d_i eta> = sum_k c_k p_{k,i} <g'(p_k^T R + b_k)> from the (K, N)
        values gp of g': each term's g' averaged over the N coordinates
        before the projection, so no (t, N) array is formed."""
        return (self.weights[:, None] * self.projection).T @ gp.mean(axis=1)

    def evaluate(self, R: np.ndarray) -> np.ndarray:
        return self._value(self.link(self._args(R)))

    def partials(self, R: np.ndarray) -> np.ndarray:
        """(t, N) array of partial derivatives."""
        return (self.weights[:, None] * self.projection).T @ self.link_prime(self._args(R))

    def divergences(self, R: np.ndarray) -> np.ndarray:
        """Empirical divergence row <d_i eta> (length t)."""
        return self._divergences(self.link_prime(self._args(R)))

    def evaluate_with_divergences(self, R: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(eta(R), divergence row) from one evaluation of the link
        arguments, and of g when `prime_of_link` is set: `evaluate` and
        `divergences` of R, bit for bit."""
        args = self._args(R)
        g = self.link(args)
        gp = self.link_prime(args) if self.prime_of_link is None else self.prime_of_link(g)
        return self._value(g), self._divergences(gp)


# ---------------------------------------------------------------------------
# factories
# ---------------------------------------------------------------------------

def additive_denoiser(name: str, P, link: Callable, link_prime: Callable,
                      weights=None, offsets=None, prime_of_link=None) -> Denoiser:
    """eta(R) = sum_k weights_k link(P[k] @ R + offsets_k) with arity
    P.shape[1] (weights default to 1, offsets to 0)."""
    P = np.atleast_2d(np.asarray(P, dtype=float))
    K = P.shape[0]
    c = np.ones(K) if weights is None else np.asarray(weights, dtype=float)
    b = np.zeros(K) if offsets is None else np.asarray(offsets, dtype=float)
    return Denoiser(name, P, link, link_prime, c, b, prime_of_link)


def projection_denoiser(name: str, p, link: Callable, link_prime: Callable,
                        prime_of_link=None) -> Denoiser:
    """eta(R) = link(p^T R) with arity len(p): the one-term case."""
    return additive_denoiser(name, np.atleast_1d(np.asarray(p, dtype=float))[None, :],
                             link, link_prime, prime_of_link=prime_of_link)


def _last(t: int, scale: float = 1.0) -> np.ndarray:
    """scale * e_t, the projection of a single-memory denoiser."""
    p = np.zeros(t)
    p[-1] = scale
    return p


def last_row_denoiser(den: Denoiser, t: int) -> Denoiser:
    """The single-memory (arity-1) denoiser `den` as a memory-t one that
    reads only the last history row r_t."""
    if den.arity != 1:
        raise ValidationError(
            f"denoiser {den.name!r} is not single-memory: arity {den.arity}, expected 1")
    P = np.zeros((den.projection.shape[0], t))
    P[:, -1] = den.projection[:, 0]
    return additive_denoiser(den.name, P, den.link, den.link_prime, den.weights, den.offsets,
                             den.prime_of_link)


def _identity(s):
    return s


def _one(s):
    return np.ones_like(s)


def _tanh_prime(s):
    return _tanh_prime_of_link(np.tanh(s))


def _tanh_prime_of_link(g):
    return 1.0 - g ** 2


def identity_denoiser(t: int) -> Denoiser:
    """eta = r_t (last history row)."""
    return projection_denoiser("identity", _last(t), _identity, _one)


def tanh_denoiser(t: int, scale: float = 1.0) -> Denoiser:
    """eta = tanh(scale * r_t), single memory."""
    s = float(scale)
    return projection_denoiser(f"tanh(scale={s})", _last(t, s), np.tanh, _tanh_prime,
                               _tanh_prime_of_link)


def random_lipschitz_denoiser(t: int, seed: int) -> Denoiser:
    """eta = sum_i w_i tanh(s_i r_i + b_i): t terms, p_i = s_i e_i, so the
    divergence w.r.t. every history index is generically nonzero (exercises
    the full lower-triangular de-biasing path)."""
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.3, 1.0, size=t) * rng.choice([-1.0, 1.0], size=t)
    s = rng.uniform(0.5, 1.5, size=t)
    b = rng.uniform(-0.5, 0.5, size=t)
    return additive_denoiser(f"random-lipschitz(seed={seed})", np.diag(s), np.tanh,
                             _tanh_prime, weights=w, offsets=b,
                             prime_of_link=_tanh_prime_of_link)


def mmse_rademacher_denoiser(t: int, beta: float, sigma2: float) -> Denoiser:
    """Posterior mean of a Rademacher signal from r_t = beta x + N(0, sigma2):
    eta = tanh(beta r / sigma2)."""
    if sigma2 <= 0:
        raise ValidationError("sigma2 must be positive")
    c = float(beta) / float(sigma2)
    return projection_denoiser(f"mmse-rademacher(beta={beta},sigma2={sigma2})",
                               _last(t, c), np.tanh, _tanh_prime, _tanh_prime_of_link)


def linear_mmse_combining_denoiser(beta, Sigma) -> Denoiser:
    """Precision-weighted combination of the history followed by the scalar
    Rademacher posterior mean.

    With R = beta x + Z, Z ~ N(0, Sigma), the statistic s = c^T R with
    c = Sigma^-1 beta satisfies s | x ~ N(gamma x, gamma), gamma = beta^T c, so
    the posterior mean is tanh(s).  The combining weights c are the projection's
    one row.
    """
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    Sigma = np.atleast_2d(np.asarray(Sigma, dtype=float))
    t = beta.size
    if Sigma.shape != (t, t):
        raise ValidationError("Sigma shape must match beta length")
    # least-squares solve tolerates the near-singular Sigma of late iterations
    c, *_ = np.linalg.lstsq(Sigma, beta, rcond=1e-12)
    return projection_denoiser("linear-mmse-combining", c, np.tanh, _tanh_prime,
                               _tanh_prime_of_link)
