"""Rowwise-separable iterate denoisers with analytic or finite-difference partials.

A denoiser at step t maps the history rows (r_1[n], ..., r_t[n]) to a
scalar.  Most denoisers are projections, eta(R) = g(p^T R) for a fixed vector
p and a scalar link g; state evolution integrates those exactly by quadrature
over at most two projections.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ValidationError

FD_STEP = 1e-5


@dataclass(frozen=True, eq=False)  # identity equality and hash: `projection` is an array
class Denoiser:
    """eta: (t, N) history array -> (N,) output.

    A projection denoiser sets `projection` p (length `arity`, zero entries
    for unread rows), an elementwise `link` g and its derivative `link_prime`:
    eta(R) = g(p^T R) and d eta / d r_i = p_i g'(p^T R).  Otherwise `fn(R)`
    and optional `partial_fn(R) -> (t, N)` operate on the full history;
    partials w.r.t. unused inputs must be zero.
    """

    name: str
    arity: int
    fn: Callable | None = None
    partial_fn: Callable | None = None
    lipschitz_bound: float = float("inf")
    projection: np.ndarray | None = None
    link: Callable | None = None
    link_prime: Callable | None = None

    def depends_on(self) -> frozenset:
        """1-based history indices the map reads."""
        if self.projection is None:
            return frozenset(range(1, self.arity + 1))
        return frozenset(int(i) + 1 for i in np.flatnonzero(self.projection))

    def _apply(self, R: np.ndarray) -> np.ndarray:
        if self.projection is not None:
            return self.link(self.projection @ R)
        return self.fn(R)

    def evaluate(self, R: np.ndarray) -> np.ndarray:
        R = np.atleast_2d(np.asarray(R, dtype=float))
        if R.shape[0] != self.arity:
            raise ValidationError(
                f"denoiser {self.name!r} expects {self.arity} history rows, got {R.shape[0]}"
            )
        return np.asarray(self._apply(R), dtype=float)

    def partials(self, R: np.ndarray) -> np.ndarray:
        """(t, N) array of partial derivatives; finite differences as fallback."""
        R = np.atleast_2d(np.asarray(R, dtype=float))
        if self.projection is not None:
            return self.projection[:, None] * self.link_prime(self.projection @ R)[None, :]
        if self.partial_fn is not None:
            return np.asarray(self.partial_fn(R), dtype=float)
        return self._fd_partials(R)

    def _fd_partials(self, R: np.ndarray) -> np.ndarray:
        out = np.zeros_like(R)
        deps = self.depends_on()
        for i in range(R.shape[0]):
            if (i + 1) not in deps:
                continue
            h = FD_STEP * (1.0 + np.abs(R[i]))
            Rp = R.copy()
            Rp[i] = R[i] + h
            Rm = R.copy()
            Rm[i] = R[i] - h
            fp = self._apply(Rp)
            fm = self._apply(Rm)
            out[i] = (np.asarray(fp) - np.asarray(fm)) / (2.0 * h)
        return out

    def divergences(self, R: np.ndarray) -> np.ndarray:
        """Empirical divergence row <d_i eta> (length t)."""
        return self.partials(R).mean(axis=1)


# ---------------------------------------------------------------------------
# factories
# ---------------------------------------------------------------------------

def projection_denoiser(name: str, p, link: Callable, link_prime: Callable) -> Denoiser:
    """eta(R) = link(p^T R) with arity len(p).  `link` and `link_prime` act
    elementwise on arrays of any shape; every link used here is 1-Lipschitz,
    so sum |p_i| bounds the Lipschitz constant."""
    p = np.atleast_1d(np.asarray(p, dtype=float))
    return Denoiser(name, p.size, projection=p, link=link, link_prime=link_prime,
                    lipschitz_bound=float(np.abs(p).sum()))


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
    if den.projection is not None:
        return projection_denoiser(den.name, _last(t, den.projection[0]),
                                   den.link, den.link_prime)

    def partial(R):
        out = np.zeros_like(R)
        out[-1] = den.partials(R[-1:])[0]
        return out

    return Denoiser(den.name, t, lambda R: den.evaluate(R[-1:]), partial,
                    lipschitz_bound=den.lipschitz_bound)


def _identity(s):
    return s


def _one(s):
    return np.ones_like(s)


def _zero(s):
    return np.zeros_like(s)


def _tanh_prime(s):
    return 1.0 - np.tanh(s) ** 2


def identity_denoiser(t: int) -> Denoiser:
    """eta = r_t (last history row)."""
    return projection_denoiser("identity", _last(t), _identity, _one)


def constant_denoiser(t: int, c: float) -> Denoiser:
    value = float(c)
    return projection_denoiser(f"constant({c})", np.zeros(t),
                               lambda s: np.full(np.shape(s), value), _zero)


def linear_denoiser(weights) -> Denoiser:
    """eta = sum_i w_i r_i."""
    return projection_denoiser("linear", weights, _identity, _one)


def tanh_denoiser(t: int, scale: float = 1.0) -> Denoiser:
    """eta = tanh(scale * r_t), single memory."""
    s = float(scale)
    return projection_denoiser(f"tanh(scale={s})", _last(t, s), np.tanh, _tanh_prime)


def random_lipschitz_denoiser(t: int, seed: int) -> Denoiser:
    """eta = sum_i w_i tanh(s_i r_i + b_i): Lipschitz, analytic partials, and
    generically nonzero divergence w.r.t. every history index (exercises the
    full lower-triangular de-biasing path).  Not a projection denoiser."""
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.3, 1.0, size=t) * rng.choice([-1.0, 1.0], size=t)
    s = rng.uniform(0.5, 1.5, size=t)
    b = rng.uniform(-0.5, 0.5, size=t)

    def fn(R):
        return np.sum(w[:, None] * np.tanh(s[:, None] * R + b[:, None]), axis=0)

    def partial(R):
        return (w * s)[:, None] * (1.0 - np.tanh(s[:, None] * R + b[:, None]) ** 2)

    return Denoiser(f"random-lipschitz(seed={seed})", t, fn, partial,
                    lipschitz_bound=float(np.abs(w * s).sum()))


def mmse_rademacher_denoiser(t: int, beta: float, sigma2: float) -> Denoiser:
    """Posterior mean of a Rademacher signal from r_t = beta x + N(0, sigma2):
    eta = tanh(beta r / sigma2)."""
    if sigma2 <= 0:
        raise ValidationError("sigma2 must be positive")
    c = float(beta) / float(sigma2)
    return projection_denoiser(f"mmse-rademacher(beta={beta},sigma2={sigma2})",
                               _last(t, c), np.tanh, _tanh_prime)


def linear_mmse_combining_denoiser(beta, Sigma) -> Denoiser:
    """Precision-weighted combination of the history followed by the scalar
    Rademacher posterior mean.

    With R = beta x + Z, Z ~ N(0, Sigma), the statistic s = c^T R with
    c = Sigma^-1 beta satisfies s | x ~ N(gamma x, gamma), gamma = beta^T c, so
    the posterior mean is tanh(s).  The combining weights c are the projection.
    """
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    Sigma = np.atleast_2d(np.asarray(Sigma, dtype=float))
    t = beta.size
    if Sigma.shape != (t, t):
        raise ValidationError("Sigma shape must match beta length")
    # least-squares solve tolerates the near-singular Sigma of late iterations
    c, *_ = np.linalg.lstsq(Sigma, beta, rcond=1e-12)
    den = projection_denoiser("linear-mmse-combining", c, np.tanh, _tanh_prime)
    object.__setattr__(den, "combining_weights", den.projection)
    return den
