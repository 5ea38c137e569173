"""Rowwise-separable iterate denoisers in one additive form.

A denoiser at step t maps the history rows (r_1[n], ..., r_t[n]) to a
scalar, eta(R) = sum_k c_k g(p_k^T R + b_k): K terms, each a scalar link g of
one projection p_k of the history.  A projection denoiser g(p^T R) is the
one-term case; `random_lipschitz_denoiser` has one term per history row.
`Denoiser.evaluate` returns eta(R) and its divergence row <d_i eta> from one
evaluation of the link.  The slope g' receives the link's arguments and
values: tanh takes 1 - g^2 from the values, a posterior mean can take
Var(x | s) from the arguments.  State evolution integrates every term
exactly by quadrature over at most two projections.
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
    rows; `weights` c and `offsets` b have length K.  `link` g acts
    elementwise on arrays of any shape, and `slope(a, g)` is g'(a) given the
    arguments a and their values g = link(a).  The partials are
    d eta / d r_i = sum_k c_k p_{k,i} g'(p_k^T R + b_k).
    """

    name: str
    projection: np.ndarray
    link: Callable
    slope: Callable
    weights: np.ndarray
    offsets: np.ndarray

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

    def evaluate(self, R: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(eta(R), divergence row <d_i eta> of length t) from one evaluation
        of the link: each term's g' averaged over the N coordinates before
        the projection, so no (t, N) array is formed."""
        args = self._args(R)
        g = self.link(args)
        return (np.sum(self.weights[:, None] * g, axis=0),
                (self.weights[:, None] * self.projection).T @ self.slope(args, g).mean(axis=1))

    def partials(self, R: np.ndarray) -> np.ndarray:
        """(t, N) array of partial derivatives."""
        args = self._args(R)
        return (self.weights[:, None] * self.projection).T @ self.slope(args, self.link(args))


# ---------------------------------------------------------------------------
# factories
# ---------------------------------------------------------------------------

def additive_denoiser(name: str, P, link: Callable, slope: Callable,
                      weights=None, offsets=None) -> Denoiser:
    """eta(R) = sum_k weights_k link(P[k] @ R + offsets_k) with arity
    P.shape[1] (weights default to 1, offsets to 0); a 1-D P is one term.
    ValidationError unless weights and offsets are 1-D with one entry per
    row of P, and all three are finite."""
    P = np.atleast_2d(np.asarray(P, dtype=float))
    K = P.shape[0]
    c = np.ones(K) if weights is None else np.asarray(weights, dtype=float)
    b = np.zeros(K) if offsets is None else np.asarray(offsets, dtype=float)
    if P.ndim != 2 or c.shape != (K,) or b.shape != (K,):
        raise ValidationError(f"denoiser {name!r}: weights {c.shape} and offsets {b.shape} "
                              f"need one entry per row of the {P.shape} projection")
    if not (np.isfinite(P).all() and np.isfinite(c).all() and np.isfinite(b).all()):
        raise ValidationError(f"denoiser {name!r}: projection, weights and offsets "
                              "must be finite")
    return Denoiser(name, P, link, slope, c, b)


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
    return additive_denoiser(den.name, P, den.link, den.slope, den.weights, den.offsets)


def _identity(s):
    return s


def _identity_slope(a, g):
    return np.ones_like(a)


def _tanh_slope(a, g):
    return 1.0 - g ** 2


def identity_denoiser(t: int) -> Denoiser:
    """eta = r_t (last history row)."""
    return additive_denoiser("identity", _last(t), _identity, _identity_slope)


def tanh_denoiser(t: int, scale: float = 1.0) -> Denoiser:
    """eta = tanh(scale * r_t), single memory."""
    s = float(scale)
    return additive_denoiser(f"tanh(scale={s})", _last(t, s), np.tanh, _tanh_slope)


def random_lipschitz_denoiser(t: int, seed: int) -> Denoiser:
    """eta = sum_i w_i tanh(s_i r_i + b_i): t terms, p_i = s_i e_i, so the
    divergence w.r.t. every history index is generically nonzero (exercises
    the full lower-triangular de-biasing path)."""
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.3, 1.0, size=t) * rng.choice([-1.0, 1.0], size=t)
    s = rng.uniform(0.5, 1.5, size=t)
    b = rng.uniform(-0.5, 0.5, size=t)
    return additive_denoiser(f"random-lipschitz(seed={seed})", np.diag(s), np.tanh,
                             _tanh_slope, weights=w, offsets=b)


def mmse_rademacher_denoiser(t: int, beta: float, sigma2: float) -> Denoiser:
    """Posterior mean of a Rademacher signal from r_t = beta x + N(0, sigma2):
    eta = tanh(beta r / sigma2)."""
    if sigma2 <= 0:
        raise ValidationError("sigma2 must be positive")
    c = float(beta) / float(sigma2)
    return additive_denoiser(f"mmse-rademacher(beta={beta},sigma2={sigma2})",
                             _last(t, c), np.tanh, _tanh_slope)


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
    return additive_denoiser("linear-mmse-combining", c, np.tanh, _tanh_slope)
