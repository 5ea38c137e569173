"""Moments, free cumulants, and the polynomial families behind the AMP variants.

Free cumulants arise from one recursive centering (`_center`): P_0 = 1,
c_n = E[x P_{n-1}] and P_n = x P_{n-1} - sum_{j<=n} c_j P_{n-j} give the free
cumulants c and the Q family P.  The loop runs on three representations:
coefficient arrays against the moments of Lambda (`moments_to_cumulants`, and
`build_poly_family`'s Q family and H family, whose one-step memory is
P_n = x P_{n-1} - c_n P_0), against those of f(Lambda) (the K family), and
vectors with x = W (`mc_cumulants`).  Summation over non-crossing
partitions (`cumulants_to_moments_nc`) is its independent oracle.
Arithmetic is generic: `fractions.Fraction` inputs keep every intermediate
exact, so round trips are not tolerance-limited.
"""

from __future__ import annotations

import hashlib
import itertools
import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import NumericalError, SizeLimitError, ValidationError
from .laws import SpectralLaw
from .randmat import SpectralOperator, _map_eigenvalues, dense_symmetric

NC_ORDER_CAP = 12
RECURSION_ORDER_CAP = 20
GAUSS_RULE_MEMO = 8  # Gauss rules of `_TraceFreeRows` kept, the least recently used dropped


# ---------------------------------------------------------------------------
# non-crossing partitions
# ---------------------------------------------------------------------------

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
# the centering recursion
# ---------------------------------------------------------------------------

def _center(times_x: Callable, mean: Callable, p0, order: int, full_memory: bool = True):
    """P_0..P_order and c_1..c_order of the centering

        c_n = mean(x P_{n-1}),   P_n = x P_{n-1} - sum_{j=1}^n c_j P_{n-j}

    (full memory), or P_n = x P_{n-1} - c_n P_0 (one-step memory), for any
    representation of P with `-` and scalar `*`: `times_x` maps P to x P."""
    P, c = [p0], []
    for n in range(1, order + 1):
        xp = times_x(P[-1])
        c.append(mean(xp))
        for j in range(1, n + 1) if full_memory else (n,):
            xp = xp - c[j - 1] * P[n - j]
        P.append(xp)
    return P, c


def _center_on_moments(moments: Sequence, full_memory: bool = True):
    """`_center` on coefficient arrays in powers 0..n of x, n = len(moments),
    against m_0 = 1, m_1..m_n: P_0..P_n and c_1..c_n in the moments'
    arithmetic (object arrays, so `Fraction`s stay exact)."""
    zero = moments[0] * 0 if len(moments) else 0.0
    m = np.array([zero + 1, *moments], dtype=object)
    p0 = np.array([zero + 1] + [zero] * len(moments), dtype=object)
    return _center(lambda p: np.concatenate(([zero], p[:-1])), lambda p: sum(p * m), p0,
                   len(moments), full_memory)


def _check_order(order: int) -> None:
    if order > RECURSION_ORDER_CAP:
        raise SizeLimitError(f"order {order} exceeds the recursion cap {RECURSION_ORDER_CAP}")


@dataclass(frozen=True)
class CumulantTable:
    """Moments m_1..m_n and free cumulants k_1..k_n."""

    moments: tuple
    cumulants: tuple


def moments_to_cumulants(moments: Sequence) -> CumulantTable:
    """Free cumulants kappa_n = E[x Q_{n-1}] from moments by the centering on
    coefficient arrays."""
    if len(moments) < 1:
        raise ValidationError("need at least one moment")
    _check_order(len(moments))
    _, kappas = _center_on_moments(moments)
    return CumulantTable(moments=tuple(moments), cumulants=tuple(kappas))


def cumulants_from_law(law: SpectralLaw, order: int) -> CumulantTable:
    _check_order(order)
    return moments_to_cumulants(law.moments(order))


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
    """The centered polynomial family of the requested kind: `_center` on
    coefficient arrays against the moments of Lambda, or of f(Lambda) for K.

    Q: full memory (its centering constants are the free cumulants of the law).
    H: one-step memory.
    K: full memory in the pushforward variable f(Lambda); requires `f`.
    """
    if order < 0:
        raise ValidationError("order must be >= 0")
    _check_order(order)
    if kind == "K":
        if f is None:
            raise ValidationError("kind K requires a processing function")
        mom = [law.expect(lambda lam, _n=n: np.asarray(f(lam)) ** _n) for n in range(1, order + 1)]
    elif kind in ("Q", "H"):
        mom = law.moments(order)
    else:
        raise ValidationError(f"unknown family kind {kind!r}")
    P, centering = _center_on_moments(mom, full_memory=kind != "H")
    return PolyFamily(
        coeffs=tuple(tuple(float(c) for c in p[: n + 1]) for n, p in enumerate(P)),
        centering=tuple(float(c) for c in centering),
        base_fn=f if kind == "K" else None,
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
    Math. Comp. 23, 1969).  NumericalError unless the mass is finite and
    positive."""
    mass = float(weights.sum())
    if not (np.isfinite(mass) and mass > 0):
        raise NumericalError(f"the quadrature weights sum to {mass}, not a positive mass")
    k = min(k, weights.size)
    Q = np.empty((k, weights.size))
    Q[0] = np.sqrt(weights / mass)
    alpha = np.zeros(k)
    beta = np.zeros(k - 1)
    tol = 0.0
    for j in range(k):
        w = apply(Q[j])
        # a vanishing vector is rounding of the products, relative to their size
        tol = max(tol, 64.0 * np.finfo(float).eps * _norm(w))
        alpha[j] = Q[j] @ w
        for _ in range(2):
            w -= (Q[: j + 1] @ w) @ Q[: j + 1]
        if j == k - 1:
            break
        b = _norm(w)
        if b <= tol:
            k = j + 1
            break
        beta[j] = b
        Q[j + 1] = w / b
    jac = np.diag(alpha[:k]) + np.diag(beta[: k - 1], 1) + np.diag(beta[: k - 1], -1)
    nodes, vecs = np.linalg.eigh(jac)
    return nodes, mass * vecs[0] ** 2


def _norm(w: np.ndarray) -> float:
    """|w|, taken as max|w| |w / max|w|| when the plain norm overflows
    (from |w| of about 1e154 its squares do)."""
    with np.errstate(over="ignore"):
        n = float(np.linalg.norm(w))
    if not np.isfinite(n):
        big = float(np.max(np.abs(w)))
        n = big * float(np.linalg.norm(w / big))
    return n


def _combine(v: np.ndarray, coeffs, rows: Sequence[np.ndarray]) -> np.ndarray:
    """v += sum_i coeffs[i] rows[i] in place, in index order, and return v.
    A row shorter than v along the leading axis stands for zeros past its
    end.  Both linear steps of the template, u = ubar + Phi r and
    r = f u - E x, are this one step (the second with -E) on the rows of
    `_TraceFreeRows` and in the verifier's replay."""
    for c, row in zip(coeffs, rows):
        v[: len(row)] += c * row
    return v


_RULES: OrderedDict = OrderedDict()  # (digest, id(f), k, theta) -> (f, nodes, weights)
_RULES_LOCK = threading.Lock()


def _memo_gauss_rule(nodes: np.ndarray, w: np.ndarray, f: Callable, k: int,
                     theta: float | None) -> tuple[np.ndarray, np.ndarray]:
    """The k-point Gauss rule of f's pushforward of the measure (nodes, w),
    or of nu with `theta` (see `_TraceFreeRows`), built once while it stays
    among the GAUSS_RULE_MEMO most recently used.  The seeds of a CLI run and
    the runs of a session on one grid share the eigenvalues and f, so they
    share the rule.  The key holds a digest of nodes and w (no array of
    their length) and f's identity: distinct f objects never share a rule,
    and each entry keeps its f alive, so the identity is not reused while
    the entry lives.  The arrays returned are read-only; a lock makes the
    memo safe for the CLI's seed threads, which wait for one build."""
    h = hashlib.blake2b(np.ascontiguousarray(nodes, dtype=float).tobytes(), digest_size=16)
    h.update(np.ascontiguousarray(w, dtype=float).tobytes())
    key = (h.digest(), id(f), k, theta)
    with _RULES_LOCK:
        entry = _RULES.get(key)
        if entry is None:
            # only the core is applied, so the operator needs no rotation
            core = (SpectralOperator(nodes, rotation=None) if theta is None else
                    SpectralOperator(nodes, rotation=None, z=np.sqrt(w), rho=theta))
            rule = _gauss_rule(core.core_function(f), w, k)
            for a in rule:
                a.flags.writeable = False
            entry = _RULES[key] = (f, *rule)
            if len(_RULES) > GAUSS_RULE_MEMO:
                _RULES.popitem(last=False)
        else:
            _RULES.move_to_end(key)
    return entry[1], entry[2]


class _TraceFreeRows:
    """Onsager rows E of the template r_t = f_t u_t - sum_i E_{t,i} x_i,
    u = ubar + Phi r, over a law, appended one per step with the rows of
    u = S ubar and r = J ubar.  `template` picks x = u ("u": RI-AMP,
    RI-AMP-MP), x = ubar ("ubar": RI-AMP-DF), or x = u = ubar ("oamp": OAMP,
    whose rows ignore Phi).

    S is unit lower triangular and S = I + Phi J, so row n of S needs only
    the earlier rows of J: S_n = e_n + sum_{k<n} Phi_{n,k} J_k (S_n = e_n
    for OAMP).  Row n of J is J_n = f_n S_n - sum_{m<=n} E_{n,m} X_m, X_m
    = S_m for x = u and the unit row e_m for x = ubar, so E_mu[J_n] = 0 is
    the lower-triangular system E_mu[X]^T e = E_mu[f_n S_n], whose diagonal
    is the rule's mass.  With f = identity the rows of E are
    sum_i kappa_i Phi^{i-1} for x = u (kappa the free cumulants) and
    sum_i gamma_i Phi^{i-1} for x = ubar (gamma the H family's centering
    constants).  Each row costs O(width n^2); S_n, X_n and J_n are (n, width)
    arrays of values at nodes, and `mean` takes E_mu of their entries as a
    pairwise sum, whose rounding grows with log(width).

    Each entry is a polynomial of degree <= T in f_1..f_T, so a product of
    two (state evolution's Sigma) has degree <= 2 T.  With one f (all f_t
    the same object) the nodes are the T + 1 point Gauss rule, exact to
    degree 2 T + 1, of f's pushforward of the law's `quad_nodes` (a, w)
    (every atom of a grid, 400 nodes of a population law), and
    multiplying by f multiplies by the rule's nodes.  With `theta` they are
    the rule of f's pushforward of nu, the spectral measure of the spiked
    core A = diag(a) + theta sqrt(w) sqrt(w)^T at sqrt(w), whose transform
    is m_mu / (1 - theta m_mu).  Both rules are Lanczos on f of the core
    (`SpectralOperator.core_function`; with theta f is a RationalFn, as in
    a spiked run), built once per measure, f, T and theta
    (`_memo_gauss_rule`).  A schedule of distinct f keeps the law's nodes;
    theta is for one f."""

    def __init__(self, law: SpectralLaw, f_schedule: Sequence[Callable], template: str = "u",
                 theta: float | None = None):
        T = len(f_schedule)
        self.template = template
        nodes, w = law.quad_nodes()
        if len({id(ft) for ft in f_schedule}) == 1:
            f_nodes, w = _memo_gauss_rule(nodes, w, f_schedule[0], T + 1, theta)
            self._f_at = lambda n: f_nodes
        else:
            self._f_at = lambda n: _map_eigenvalues(f_schedule[n - 1], nodes)
        self.w = w
        self.X: list = []
        self.J: list = []
        self.X_mean = np.zeros((T, T))  # row m-1: E_mu[X_m]

    def mean(self, a: np.ndarray) -> np.ndarray:
        return (a * self.w).sum(axis=1)

    def append(self, phi_row: np.ndarray, e_row: np.ndarray | None = None) -> np.ndarray:
        """Append row n = len(X) + 1 from phi_row = Phi[n-1, :n-1] and return
        row n of E: e_row when given, else the trace-free solution."""
        n = len(self.X) + 1
        e_n = np.zeros((n, self.w.size))
        e_n[n - 1] = 1.0
        s = e_n if self.template == "oamp" else _combine(e_n.copy(), phi_row, self.J)
        x = e_n if self.template == "ubar" else s
        j = self._f_at(n) * s
        self.X.append(x)
        self.X_mean[n - 1, :n] = self.mean(x)
        if e_row is None:
            e_row = np.linalg.solve(self.X_mean[:n, :n].T, self.mean(j))
        self.J.append(_combine(j, -e_row, self.X))
        return e_row


# ---------------------------------------------------------------------------
# partial moments
# ---------------------------------------------------------------------------

def partial_moments(law: SpectralLaw, order: int) -> np.ndarray:
    """The (order+1) x (order+1) array c[k, j] of c_{k,j} = sum_m c_{k-1,m}
    kappa_{j+1-m}, c_{0,0}=1, c_{0,j>=1}=0, which interpolates between the
    moments (column 0) and the free cumulants (row 1).

    Satisfies c_{k,j} = E[Lambda^k Q_j]."""
    if order < 0:
        raise ValidationError("order must be >= 0")
    width = max(2 * order, 1)  # column need shrinks by one per row step
    if width + 1 > RECURSION_ORDER_CAP:
        raise SizeLimitError(f"order {order} needs {width + 1} moments, past the recursion "
                             f"cap {RECURSION_ORDER_CAP}")
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
    return c[: order + 1, : order + 1].copy()


# ---------------------------------------------------------------------------
# Monte-Carlo cumulant estimator (no eigendecomposition)
# ---------------------------------------------------------------------------

def mc_cumulants(W, order: int, seed: int) -> np.ndarray:
    """Free-cumulant estimator from a single probe vector.

    The centering on vectors, z_0 = g, k_n = g^T W z_{n-1} / N and
    z_n = W z_{n-1} - sum_i k_i z_{n-i}: the estimated cumulants feed the
    subsequent updates on the fly.  Never materializes polynomial matrices.
    W may be a dense symmetric array or expose `apply(v)`.
    """
    apply, N = _as_matvec(W)
    g = np.random.default_rng(seed).standard_normal(N)
    return np.array(_center(apply, lambda v: g @ v / N, g, order)[1])


def _as_matvec(W):
    """(v -> W v, N) of an object with `apply` and `N`, or of a dense array
    that `randmat.dense_symmetric` accepts."""
    if hasattr(W, "apply") and hasattr(W, "N"):
        return W.apply, int(W.N)
    W = dense_symmetric(W)
    return (lambda v: W @ v), W.shape[0]
