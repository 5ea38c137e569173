"""Moments, free cumulants, and the polynomial families behind the AMP variants.

Two independent routes between moments and free cumulants are kept:

  * an exact interleaved coefficient recursion (`moments_to_cumulants`), and
  * brute-force enumeration of non-crossing partitions
    (`cumulants_to_moments_nc`), which serves as the combinatorial oracle.

Arithmetic is generic: feeding `fractions.Fraction` values keeps every
intermediate exact, so round trips are not tolerance-limited.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import SizeLimitError, ValidationError
from .laws import SpectralLaw, catalan  # noqa: F401 (re-exported)
from .randmat import SpectralOperator, _map_eigenvalues, dense_symmetric

NC_ORDER_CAP = 12
RECURSION_ORDER_CAP = 20
# quadrature nodes of a population law's trace-free rows, before a one-f
# schedule reduces them to the Gauss rule of the pushforward
MP_DEBIAS_NODES = 400


# ---------------------------------------------------------------------------
# non-crossing partitions
# ---------------------------------------------------------------------------

def enumerate_nc_partitions(k: int):
    """All non-crossing partitions of {1, ..., k}, each a tuple of blocks."""
    if k < 1:
        raise ValidationError("k must be >= 1")
    if k > NC_ORDER_CAP:
        raise SizeLimitError(f"k={k} exceeds the combinatorial cap {NC_ORDER_CAP}")
    return list(_nc_gen(tuple(range(1, k + 1))))


def _nc_gen(labels: tuple):
    if not labels:
        yield ()
        return
    n = len(labels)
    # block of labels[0]: index 0 plus any increasing subset of the rest;
    # the gaps between chosen indices (and the tail) partition independently
    for size in range(n):
        for members in itertools.combinations(range(1, n), size):
            members = (0,) + members
            block = tuple(labels[i] for i in members)
            gaps = []
            for lo, hi in zip(members, members[1:]):
                gaps.append(labels[lo + 1 : hi])
            gaps.append(labels[members[-1] + 1 :])
            for combo in itertools.product(*[tuple(_nc_gen(g)) for g in gaps]):
                part = (block,)
                for sub in combo:
                    part += sub
                yield part


def is_noncrossing(partition) -> bool:
    """Direct four-element crossing test (independent of the generator)."""
    blocks = [set(b) for b in partition]
    elems = sorted(e for b in blocks for e in b)
    idx = {}
    for i, b in enumerate(blocks):
        for e in b:
            idx[e] = i
    for a, b, c, d in itertools.combinations(elems, 4):
        if idx[a] == idx[c] and idx[b] == idx[d] and idx[a] != idx[b]:
            return False
    return True


def partition_to_tuple(partition, k: int) -> tuple:
    """Bijection onto step sequences: entry i is the block size if i is the
    largest element of its block, else 0."""
    s = [0] * k
    for block in partition:
        s[max(block) - 1] = len(block)
    return tuple(s)


def enumerate_step_tuples(k: int):
    """Tuples (s_1..s_k) with s_i >= 0, partial sums <= position, total = k."""
    if k > NC_ORDER_CAP:
        raise SizeLimitError(f"k={k} exceeds the combinatorial cap {NC_ORDER_CAP}")

    out = []

    def rec(prefix, total):
        m = len(prefix)
        if m == k:
            if total == k:
                out.append(tuple(prefix))
            return
        for s in range(0, m + 1 - total + 1):
            if total + s <= m + 1:
                rec(prefix + [s], total + s)

    rec([], 0)
    return out


@lru_cache(maxsize=None)
def _nc_block_profiles(k: int) -> dict:
    """Map sorted block-size tuples -> multiplicity over NC(k)."""
    profiles: dict = {}
    for part in _nc_gen(tuple(range(1, k + 1))):
        key = tuple(sorted(len(b) for b in part))
        profiles[key] = profiles.get(key, 0) + 1
    return profiles


def cumulants_to_moments_nc(cumulants: Sequence) -> list:
    """Moment-cumulant formula by summation over non-crossing partitions."""
    k = len(cumulants)
    if k > NC_ORDER_CAP:
        raise SizeLimitError(f"order {k} exceeds the combinatorial cap {NC_ORDER_CAP}")
    moments = []
    for n in range(1, k + 1):
        total = 0
        for sizes, count in _nc_block_profiles(n).items():
            term = count
            for s in sizes:
                term = term * cumulants[s - 1]
            total = total + term
        moments.append(total)
    return moments


# ---------------------------------------------------------------------------
# exact recursion (interleaved alpha / kappa updates)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CumulantTable:
    """Moments m_1..m_n, free cumulants k_1..k_n, and the triangular
    coefficient table of the centered polynomial sequence Q_n."""

    order: int
    moments: tuple
    cumulants: tuple
    alpha: tuple  # alpha[n] = coefficients of Q_n in powers 0..n

    def kappa(self, n: int):
        return self.cumulants[n - 1]

    def moment(self, n: int):
        return self.moments[n - 1]


def moments_to_cumulants(moments: Sequence) -> CumulantTable:
    """Free cumulants from moments by the interleaved coefficient recursion.

    alpha_{n,i} = alpha_{n-1,i-1} - sum_{j=1}^{n-i} kappa_j alpha_{n-j,i},
    kappa_{n+1} = sum_j alpha_{n,j} m_{j+1},   kappa_1 = m_1.
    """
    n_ord = len(moments)
    if n_ord < 1:
        raise ValidationError("need at least one moment")
    if n_ord > RECURSION_ORDER_CAP:
        raise SizeLimitError(f"order {n_ord} exceeds the recursion cap {RECURSION_ORDER_CAP}")
    alpha = [[moments[0] * 0 + 1]]  # row 0: Q_0 = 1, in the input arithmetic
    kappas = [moments[0]]
    for n in range(1, n_ord):
        alpha.append(_next_alpha_row(alpha, kappas))
        kappa_next = sum(alpha[n][j] * moments[j] for j in range(0, n + 1))
        kappas.append(kappa_next)
    return CumulantTable(
        order=n_ord,
        moments=tuple(moments),
        cumulants=tuple(kappas),
        alpha=tuple(tuple(r) for r in alpha),
    )


def cumulants_from_law(law: SpectralLaw, order: int) -> CumulantTable:
    return moments_to_cumulants(law.moments(order))


def _next_alpha_row(alpha, kappas):
    """Row n = len(alpha) of the coefficient recursion, given kappa_1..kappa_n
    (the arithmetic of kappa_1 carries through, so Fractions stay exact)."""
    n = len(alpha)
    zero = kappas[0] * 0
    row = []
    for i in range(0, n):
        acc = alpha[n - 1][i - 1] if i >= 1 else zero
        for j in range(1, n - i + 1):
            acc = acc - kappas[j - 1] * alpha[n - j][i]
        row.append(acc)
    row.append(zero + 1)
    return row


# ---------------------------------------------------------------------------
# polynomial families (Q, H, K)
# ---------------------------------------------------------------------------

def phi_powers(Phi: np.ndarray, n: int) -> np.ndarray:
    """Stack (n, t, t) of Phi^0..Phi^{n-1}, each the previous one times Phi.

    Every polynomial in a divergence matrix Phi (debiasing matrices,
    unfolding entries, SE covariance forms) is summed from this one stack."""
    t = Phi.shape[0]
    pows = np.empty((n, t, t))
    P = np.eye(t)
    for i in range(n):
        pows[i] = P
        P = P @ Phi
    return pows


@dataclass(frozen=True)
class PolyFamily:
    """Zero-mean polynomial sequence with its centering constants.

    `coeffs[n]` are the coefficients of member n in powers of the base
    variable (the eigenvalue for kinds Q and H, the processed eigenvalue
    f(lambda) for kind K).  `centering[n-1]` is E[base * member_{n-1}]:
    the free cumulants for Q, the one-step centering constants for H,
    and the free cumulants of f(Lambda) for K.
    """

    kind: str
    order: int
    coeffs: tuple
    centering: tuple
    base_fn: Callable | None = None

    def evaluate(self, n: int, lam):
        x = np.asarray(lam, dtype=float)
        if self.base_fn is not None:
            x = np.asarray(self.base_fn(x), dtype=float)
        return np.polynomial.polynomial.polyval(x, np.asarray(self.coeffs[n], dtype=float))


def build_poly_family(
    law: SpectralLaw,
    kind: str,
    order: int,
    f: Callable | None = None,
) -> PolyFamily:
    """Build the centered polynomial family of the requested kind.

    Q: member recursion with all past members subtracted (its centering
       constants are the free cumulants of the law).
    H: one-step centering only.
    K: same recursion as Q but applied to the pushforward variable f(Lambda);
       requires `f`.
    """
    if order < 0:
        raise ValidationError("order must be >= 0")
    if order > RECURSION_ORDER_CAP:
        raise SizeLimitError(f"order {order} exceeds the recursion cap {RECURSION_ORDER_CAP}")
    if kind == "K":
        if f is None:
            raise ValidationError("kind K requires a processing function")
        mom = [law.expect(lambda lam, _n=n: np.asarray(f(lam)) ** _n) for n in range(1, order + 1)]
    elif kind in ("Q", "H"):
        mom = law.moments(order)
    else:
        raise ValidationError(f"unknown family kind {kind!r}")

    if kind in ("Q", "K"):
        if order == 0:
            table = None
            coeffs: list = [[1.0]]
            centering: list = []
        else:
            table = moments_to_cumulants(mom)
            coeffs = [list(r) for r in table.alpha]
            centering = list(table.cumulants)
            # the cumulant recursion stops at row order-1; one more row is
            # needed so the family itself reaches the requested order
            coeffs.append(_next_alpha_row(coeffs, centering))
        return PolyFamily(
            kind=kind,
            order=order,
            coeffs=tuple(tuple(float(c) for c in r) for r in coeffs),
            centering=tuple(float(c) for c in centering),
            base_fn=f if kind == "K" else None,
        )

    # kind H: H_n = lam H_{n-1} - E[Lam H_{n-1}]
    coeffs = [[1.0]]
    centering = []
    for n in range(1, order + 1):
        prev = coeffs[n - 1]
        gamma = sum(prev[i] * mom[i] for i in range(len(prev)))  # E[Lam H_{n-1}]
        row = [0.0] + list(prev)
        row[0] -= gamma
        coeffs.append(row)
        centering.append(gamma)
    return PolyFamily(
        kind="H",
        order=order,
        coeffs=tuple(tuple(float(c) for c in r) for r in coeffs),
        centering=tuple(float(c) for c in centering),
    )


# ---------------------------------------------------------------------------
# trace-free rows (the long-memory OAMP form of every variant)
# ---------------------------------------------------------------------------

def _gauss_rule(apply: Callable, weights: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the Gauss rule, at most k points, of the spectral
    measure of a symmetric M (`apply`: v -> M v) at sqrt(weights); for
    M = diag(values), the measure of mass `weights` at `values`.

    k steps of Lanczos on M from sqrt(weights / mass), with full
    reorthogonalization (twice against every earlier vector), stopped early
    when the new vector vanishes: then the measure has as many distinct
    values as steps taken and the rule reproduces it.  The nodes are the
    eigenvalues of the Jacobi matrix and the weights mass times the squared
    first components of its eigenvectors; the rule integrates every
    polynomial of degree <= 2 k - 1 as the measure does (Golub & Welsch,
    Math. Comp. 23, 1969)."""
    mass = float(weights.sum())
    k = min(k, weights.size)
    Q = np.empty((k, weights.size))
    Q[0] = np.sqrt(weights / mass)
    alpha = np.zeros(k)
    beta = np.zeros(k - 1)
    tol = 0.0
    for j in range(k):
        w = apply(Q[j])
        # a vanishing vector is rounding of the products, relative to their size
        tol = max(tol, 64.0 * np.finfo(float).eps * float(np.linalg.norm(w)))
        alpha[j] = Q[j] @ w
        for _ in range(2):
            w -= (Q[: j + 1] @ w) @ Q[: j + 1]
        if j == k - 1:
            break
        b = float(np.linalg.norm(w))
        if b <= tol:
            k = j + 1
            break
        beta[j] = b
        Q[j + 1] = w / b
    jac = np.diag(alpha[:k]) + np.diag(beta[: k - 1], 1) + np.diag(beta[: k - 1], -1)
    nodes, vecs = np.linalg.eigh(jac)
    return nodes, mass * vecs[0] ** 2


class _TraceFreeRows:
    """Onsager rows E of the template r_t = f_t u_t - sum_i E_{t,i} x_i,
    u = ubar + Phi r, over a law, appended one per step with the rows of
    u = S ubar and r = J ubar.  `template` picks x = u ("u": RI-AMP,
    RI-AMP-MP) or x = ubar ("ubar": RI-AMP-DF, OAMP).

    S is unit lower triangular and S = I + Phi J, so row n of S needs only
    the earlier rows of J: S_n = e_n + sum_{k<n} Phi_{n,k} J_k.  Row n of J
    is J_n = f_n S_n - sum_{m<=n} E_{n,m} X_m, X = S for x = u and X = I
    for x = ubar, so E_mu[J_n] = 0 is the unit-triangular system
    E_mu[S]^T e = E_mu[f_n S_n] for x = u and the explicit row
    e = E_mu[f_n S_n] for x = ubar.  With f = identity the rows of E are
    sum_i kappa_i Phi^{i-1} for x = u (kappa the free cumulants) and
    sum_i gamma_i Phi^{i-1} for x = ubar (gamma the H family's centering
    constants).  Each row costs O(width n^2); S_n and J_n are kept as
    (n, width) arrays of values at nodes, and `mean` takes E_mu of their
    entries as a pairwise sum, whose rounding grows with log(width).

    Each entry is a polynomial of degree <= T in f_1..f_T, so a product of
    two (state evolution's Sigma) has degree <= 2 T.  With one f (all f_t
    the same object) the nodes are the T + 1 point Gauss rule, exact to
    degree 2 T + 1, of f's pushforward of the law's `quad_nodes` (a, w)
    (every atom of a grid, MP_DEBIAS_NODES of a population law), and
    multiplying by f multiplies by the rule's nodes.  With `theta` they are
    the rule of f's pushforward of nu, the spectral measure of the spiked
    core A = diag(a) + theta sqrt(w) sqrt(w)^T at sqrt(w), whose transform
    is m_mu / (1 - theta m_mu).  Both rules are Lanczos on f of the core
    (`SpectralOperator.core_function`; with theta f is a RationalFn, as in
    a spiked run).  A schedule of distinct f keeps the law's nodes; theta
    is for one f."""

    def __init__(self, law: SpectralLaw, f_schedule: Sequence[Callable], template: str = "u",
                 theta: float | None = None):
        T = len(f_schedule)
        self.x_is_ubar = template == "ubar"
        nodes, w = law.quad_nodes(MP_DEBIAS_NODES)
        if len({id(ft) for ft in f_schedule}) == 1:  # only the core is applied: no rotation
            core = (SpectralOperator(nodes, rotation=None) if theta is None else
                    SpectralOperator(nodes, rotation=None, z=np.sqrt(w), rho=theta))
            f_nodes, w = _gauss_rule(core.core_function(f_schedule[0]), w, T + 1)
            self._f_at = lambda n: f_nodes
        else:
            self._f_at = lambda n: _map_eigenvalues(f_schedule[n - 1], nodes)
        self.w = w
        self.S: list = []
        self.J: list = []
        self.S_mean = np.zeros((T, T))  # row m-1: E_mu[S_m]

    def mean(self, a: np.ndarray) -> np.ndarray:
        return (a * self.w).sum(axis=1)

    def append(self, phi_row: np.ndarray, e_row: np.ndarray | None = None) -> np.ndarray:
        """Append row n = len(S) + 1 from phi_row = Phi[n-1, :n-1] and return
        row n of E: e_row when given, else the trace-free solution."""
        n = len(self.S) + 1
        s = np.zeros((n, self.w.size))
        s[n - 1] = 1.0
        for k, j_k in enumerate(self.J):
            s[: k + 1] += phi_row[k] * j_k
        j = self._f_at(n) * s
        self.S.append(s)
        self.S_mean[n - 1, :n] = self.mean(s)
        if e_row is None:  # E_mu[S] is lower triangular, diagonal sum(w)
            e_row = (self.mean(j) if self.x_is_ubar
                     else np.linalg.solve(self.S_mean[:n, :n].T, self.mean(j)))
        if self.x_is_ubar:
            j -= e_row[:, None]
        else:
            for m, s_m in enumerate(self.S):
                j[: m + 1] -= e_row[m] * s_m
        self.J.append(j)
        return e_row


# ---------------------------------------------------------------------------
# partial moments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PartialMomentTable:
    """Doubly-indexed interpolation between moments and free cumulants."""

    order: int
    c: np.ndarray  # shape (order+1, order+1); c[k, j]

    def __getitem__(self, kj):
        k, j = kj
        return float(self.c[k, j])


def partial_moments(law: SpectralLaw, order: int) -> PartialMomentTable:
    """Table c_{k,j} = sum_m c_{k-1,m} kappa_{j+1-m}, c_{0,0}=1, c_{0,j>=1}=0.

    Satisfies c_{k,j} = E[Lambda^k Q_j]."""
    if order < 0:
        raise ValidationError("order must be >= 0")
    width = max(2 * order, 1)  # column need shrinks by one per row step
    kap = moments_to_cumulants(law.moments(width + 1)).cumulants
    kappa = [1.0] + [float(k) for k in kap]  # kappa[0] = 1 convention
    c = np.zeros((order + 1, width + 1))
    c[0, 0] = 1.0
    for k in range(1, order + 1):
        for j in range(0, width - k + 1):
            acc = 0.0
            for m in range(0, j + 2):
                acc += c[k - 1, m] * kappa[j + 1 - m]
            c[k, j] = acc
    return PartialMomentTable(order=order, c=c[: order + 1, : order + 1].copy())


# ---------------------------------------------------------------------------
# Monte-Carlo cumulant estimator (no eigendecomposition)
# ---------------------------------------------------------------------------

def mc_cumulants(W, order: int, seed: int) -> np.ndarray:
    """Free-cumulant estimator from a single probe vector.

    Runs the centered vector recursion z_n = W z_{n-1} - sum_i k_i z_{n-i}
    with k_n = h^T z_{n-1} / N and h = W g; the estimated cumulants feed the
    subsequent updates on the fly.  Never materializes polynomial matrices.
    W may be a dense symmetric array or expose `apply(v)`.
    """
    apply, N = _as_matvec(W)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(N)
    h = apply(g)
    zs = [g]
    kap = np.empty(order)
    for n in range(1, order + 1):
        kap[n - 1] = h @ zs[n - 1] / N
        z = apply(zs[n - 1])
        for i in range(1, n + 1):
            z = z - kap[i - 1] * zs[n - i]
        zs.append(z)
    return kap


def _as_matvec(W):
    """(v -> W v, N) of an object with `apply` and `N`, or of a dense array
    that `randmat.dense_symmetric` accepts."""
    if hasattr(W, "apply") and hasattr(W, "N"):
        return W.apply, int(W.N)
    W = dense_symmetric(W)
    return (lambda v: W @ v), W.shape[0]
