"""Deterministic state evolution (SE) for every algorithm variant.

One recursion, `_evolve`, serves RI-AMP, RI-AMP-DF, RI-AMP-MP, OAMP and the
spiked model; Gaussian AMP is RI-AMP under the unit semicircle.  Every
variant is long-memory OAMP, r_t = sum_s V_{t,s}(W) ubar_s with V
trace-free, and the recursion appends row t of V at the rows' nodes over
the law (and over nu, with a spike) by the row recursion the runs use
(`freeprob._TraceFreeRows`), then integrates Sigma_t.  With one f those
nodes are the T + 1 point Gauss rule of f's pushforward, exact for Sigma's
degree 2 T.  Beside the rows it appends the moments of the step's new
denoiser (`_MomentRows`) and carries the earlier ones: the entries of
U_{j+1} read only the leading blocks of Sigma and beta that step j saw, and
later steps extend those blocks without changing them.
`theorem_sigma`, `fan_se_form` and `gaussian_amp_se` stay as closed-form
references.

The expectations over the Gaussian iterate limits use one engine,
Gauss-Hermite quadrature, for every denoiser and prior: each denoiser is a
sum of terms g(p_k^T R + b_k), so each moment is a sum of integrals over at
most two projections plus the signal, which enters through the prior's
atoms (Gauss-Hermite nodes for a gaussian prior).  SE samples nothing.
Spiked states add the overlap vector beta and alpha = E[X* Ubar].

The spiked rows are taken over nu, the limit of the eigen-overlap measure:
the spectral measure of the spiked core diag(a) + theta sqrt(w) sqrt(w)^T
at sqrt(w), (a, w) the law's `quad_nodes`.  Spiked SE takes nu's rule by
Lanczos on f of that core, O(nodes) a step, with no cap on the atoms;
`nu_measure` forms all of nu from the core's secular roots in O(nodes^2).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .denoisers import Denoiser
from .errors import NumericalError, ValidationError
from .freeprob import _TraceFreeRows, build_poly_family, phi_powers
from .laws import DiscreteGrid, SpectralLaw
# build_rot_invariant is not called here: perfbench's tracer wraps it by this module's name
from .randmat import IDENTITY, Prior, RationalFn, build_rot_invariant, diag_rank_one_eigh

PSD_TOL = 1e-9
# At 192 nodes every spiked-mp prediction is within 3e-4 relative of the
# 256-node value; from 371 nodes `hermegauss`' weights overflow (`_gh_rule` raises).
GH_POINTS = 192
GH_BLOCK_ROWS = 32  # pair-rule rows per block: 32 x 100 kept nodes, 26 KB a temporary
POLE_GAP = 1e-6  # a 1/x matrix denoiser needs the support this far from 0


@functools.lru_cache(maxsize=4)
def _gh_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Probabilists' Gauss-Hermite nodes and weights normalized to sum 1.

    Nodes of weight below 1e-30 are dropped (about half of them at 192
    nodes): their total mass, even against z^4, is below 1e-26.  The rule is
    computed once per n and shared read-only.  NumericalError when the
    weights overflow (from 371 nodes).
    """
    with np.errstate(all="ignore"):
        z, w = np.polynomial.hermite_e.hermegauss(n)
        w = w / w.sum()
    keep = w > 1e-30
    if not (np.all(np.isfinite(w)) and keep.any()):
        raise NumericalError(f"the {n}-point Gauss-Hermite rule failed: its weights overflow")
    z, w = z[keep], w[keep]
    z.flags.writeable = False
    w.flags.writeable = False
    return z, w


@dataclass
class SeInit:
    """Initialization of the SE recursion.

    Non-spiked: U_1 ~ prior (independent of the Gaussian iterates).
    Spiked (omega set): U_1 = sqrt(omega) X* + sqrt(1-omega) G,
    X* ~ prior, G standard normal.
    """

    prior: Prior
    omega: float | None = None

    def __post_init__(self):
        if abs(self.prior.second_moment - 1.0) > 1e-12:
            raise ValidationError("SE initialization requires a unit-second-moment prior")
        if self.omega is not None and not 0.0 <= self.omega <= 1.0:
            raise ValidationError("omega must lie in [0, 1]")

    @property
    def spiked(self) -> bool:
        return self.omega is not None

    @property
    def psd_tol(self) -> float:  # a spiked Sigma subtracts beta beta^T: more rounding
        return 1e-7 if self.spiked else PSD_TOL


@dataclass
class SeState:
    t: int
    Sigma: np.ndarray
    Phi: np.ndarray
    DeltaBar: np.ndarray
    beta: np.ndarray | None = None
    alpha: np.ndarray | None = None
    mse_pred: float | None = None
    denoiser: Denoiser | None = None


def _psd_check(S: np.ndarray, name: str, tol: float = PSD_TOL) -> None:
    if S.size == 0:
        return
    w = np.linalg.eigvalsh(0.5 * (S + S.T))
    if w.min() < -tol:
        raise ValidationError(f"{name} is not PSD (min eigenvalue {w.min():.3e})")


def _gauss_factor(S: np.ndarray) -> np.ndarray:
    """L with L L^T = S (eigen square root; tolerates semidefiniteness)."""
    S = 0.5 * (S + S.T)
    w, V = np.linalg.eigh(S)
    w = np.clip(w, 0.0, None)
    return V * np.sqrt(w)[None, :]


# ---------------------------------------------------------------------------
# population moments of (X*, U_1..U_{t+1}) given Sigma_t, beta_t
# ---------------------------------------------------------------------------

@dataclass
class PopMoments:
    Phi: np.ndarray  # (t+1, t+1), strictly lower; row j-1 = divergences of U_j
    DeltaBar: np.ndarray  # (t+1, t+1)
    alpha: np.ndarray | None  # (t+1,)
    resid: np.ndarray | None = None  # DeltaBar - alpha alpha^T, computed stably
    mse: float | None = None


def population_moments(denoisers: Sequence[Denoiser], Sigma: np.ndarray,
                       beta: np.ndarray | None, init: SeInit) -> PopMoments:
    """Moments of U_1..U_{t+1} (t = Sigma size) in the population limit:
    R = beta X* + Z, Z ~ N(0, Sigma), U_{j+1} = eta_{j+1}(R_1..R_j).  One
    `_MomentRows.append` per denoiser, each on the given Sigma and beta.

    Each eta_{j+1} = sum_k c_k g(s_k + b_k), s_k = p_k^T R.  With
    d_k = c_k E[g'(s_k + b_k)] the divergence row is sum_k d_k p_k, so the
    divergence-free residual Ubar_{j+1} = sum_k (c_k g(s_k + b_k) - d_k s_k)
    is a sum of one-projection terms.  Every moment is then a sum of
    expectations over one or two projections of R and the signal X, taken by
    tensorized Gauss-Hermite quadrature given each signal value (the prior's
    atoms; Gauss-Hermite nodes for a gaussian prior).  The residuals about the
    signal, Ubar - alpha X, are integrated directly so that
    DeltaBar - alpha alpha^T stays accurate when it is tiny.
    """
    Sigma = np.atleast_2d(np.asarray(Sigma, dtype=float))
    _psd_check(Sigma, "Sigma", init.psd_tol)
    t = Sigma.shape[0]
    if len(denoisers) < t:
        raise ValidationError("denoiser schedule shorter than the horizon")
    moments = _MomentRows(init, t)
    for den in denoisers[:t]:
        moments.append(den, Sigma, beta)
    return moments.block(t + 1)


class _MomentRows:
    """Population moments of U_1, U_2, ..., one denoiser at a time, from U_1
    alone (Phi = 0, DeltaBar = 1, alpha_1 = sqrt(omega), 0 unspiked).

    `append(den, Sigma, beta)` integrates only the entries of
    U_{j+1} = den(R_1..R_j): Phi's row j, alpha_{j+1}, row and column j of
    E[(Ubar_m - alpha_m X)(Ubar_n - alpha_n X)] and, with a spike, den's MSE.
    Earlier entries are carried: those of U_{i+1} read only the leading
    blocks of Sigma and beta that step i saw, which later steps extend
    without changing.  Each denoiser's one-projection terms are kept for the
    cross terms and zero-padded to the Sigma of each call.
    """

    def __init__(self, init: SeInit, T: int):
        self.init = init
        # the signal as values with probabilities; without a spike it is never
        # read (U_1's unit second moment is all SE needs)
        self.signal = ((np.zeros(1), np.ones(1)) if not init.spiked else
                       _gh_rule(GH_POINTS) if init.prior.law is None else
                       init.prior.law.quad_nodes())
        self.Phi = np.zeros((T + 1, T + 1))
        self.alpha = np.zeros(T + 1)
        self.alpha[0] = math.sqrt(init.omega or 0.0)
        self.resid = np.zeros((T + 1, T + 1))  # E[(Ubar_m - alpha_m X)(Ubar_n - alpha_n X)]
        self.resid[0, 0] = 1.0 - self.alpha[0] ** 2  # the U_1 noise is independent of the rest
        self.res = []  # res[i]: (projection, term functions) of Ubar_{i+2} - alpha_{i+2} X
        self.mse = None  # E[(eta - X)^2] of the last denoiser, with a spike

    def block(self, n: int) -> PopMoments:
        """Copies of the moments of U_1..U_n (alpha None unspiked)."""
        alpha, resid = self.alpha[:n].copy(), self.resid[:n, :n].copy()
        return PopMoments(Phi=self.Phi[:n, :n].copy(), DeltaBar=resid + np.outer(alpha, alpha),
                          alpha=alpha if self.init.spiked else None, resid=resid, mse=self.mse)

    def append(self, den: Denoiser, Sigma: np.ndarray, beta: np.ndarray | None) -> None:
        """Integrate the entries of the next U_{j+1} = den(R_1..R_j) given
        R = beta X* + Z, Z ~ N(0, Sigma), Sigma t x t with t >= j."""
        t, j = Sigma.shape[0], len(self.res) + 1
        z, wz = _gh_rule(GH_POINTS)
        # pairs take the tensor rule in row blocks, every temporary far below glibc's
        # 128 KB mmap threshold, so the time does not depend on allocation history
        blocks = [slice(i, i + GH_BLOCK_ROWS) for i in range(0, z.size, GH_BLOCK_ROWS)]
        xv, xw = self.signal
        spiked = self.init.spiked
        b = np.asarray(beta, dtype=float) if spiked and beta is not None else np.zeros(t)

        def expect(Q, h):
            """E[h(*(Q R), X)] over the one or two projections in the rows of Q,
            given each signal value (conditioning on X keeps the Gaussian part
            narrow, which the quadrature resolves far better)."""
            L = _gauss_factor(Q @ Sigma @ Q.T)
            m = Q @ b
            if len(Q) == 1:
                return sum(px * float(wz @ h(m[0] * x + L[0, 0] * z, x)) for x, px in zip(xv, xw))
            return sum(px * float(wz[k] @ h(m[0] * x + L[0, 0] * z[k, None] + L[0, 1] * z,
                                            m[1] * x + L[1, 0] * z[k, None] + L[1, 1] * z, x) @ wz)
                       for x, px in zip(xv, xw) for k in blocks)

        def cross(A, B):
            """E[(sum_k A_k)(sum_l B_l)] for terms (p, h), h a function of (p^T R, X)."""
            return sum(expect(pa[None], lambda s, x: ha(s, x) ** 2) if ha is hb else
                       expect(np.vstack([pa, pb]), lambda sa, sb, x: ha(sa, x) * hb(sb, x))
                       for pa, ha in A for pb, hb in B)

        padded = lambda proj: np.pad(proj, ((0, 0), (0, t - proj.shape[1])))  # the terms' p_k

        P, g, gp = padded(den.projection), den.link, den.link_prime
        hs = []
        for p, c, o in zip(P, den.weights, den.offsets):
            d = c * expect(p[None], lambda s, x: gp(s + o))
            self.Phi[j, :j] += d * p[:j]
            u = lambda s, x, c=c, o=o, d=d: c * g(s + o) - d * s
            a = expect(p[None], lambda s, x: x * u(s, x)) if spiked else 0.0
            self.alpha[j] += a
            hs.append(lambda s, x, u=u, a=a: u(s, x) - a * x)
        self.res.append((den.projection, hs))
        new = list(zip(P, hs))
        for i, (proj, his) in enumerate(self.res):
            self.resid[i + 1, j] = self.resid[j, i + 1] = cross(list(zip(padded(proj), his)), new)
        if spiked:  # the signal split evenly over den's terms
            err = [(p, lambda s, x, c=c, o=o, K=len(P): c * g(s + o) - x / K)
                   for p, c, o in zip(P, den.weights, den.offsets)]
            self.mse = cross(err, err)


# ---------------------------------------------------------------------------
# covariance forms
# ---------------------------------------------------------------------------

def _family_gram(law: SpectralLaw, kind: str, t: int, f: Callable | None = None,
                 nu: DiscreteGrid | None = None):
    """First and second moments of the polynomial family members 1..t under
    the law (and optionally under nu)."""
    fam = build_poly_family(law, kind, t, f=f)
    nodes, w = law.quad_nodes()
    vals = np.vstack([fam.evaluate(i, nodes) for i in range(1, t + 1)])
    gram_mu = np.einsum("a,ia,ja->ij", w, vals, vals)
    if nu is None:
        return fam, gram_mu, None, None
    nu_nodes, nu_w = nu.quad_nodes()
    nvals = np.vstack([fam.evaluate(i, nu_nodes) for i in range(1, t + 1)])
    mean_nu = nvals @ nu_w
    gram_nu = np.einsum("a,ia,ja->ij", nu_w, nvals, nvals)
    return fam, gram_mu, mean_nu, gram_nu


def theorem_sigma(gram: np.ndarray, Phi: np.ndarray, Delta: np.ndarray) -> np.ndarray:
    """Sigma = sum_{ij} gram_{ij} Phi^{i-1} Delta (Phi^{j-1})^T."""
    pows = phi_powers(Phi, Phi.shape[0])
    left = np.einsum("iab,bc->iac", pows, Delta)  # Phi^{i-1} Delta
    return np.einsum("ij,iac,jdc->ad", gram, left, pows)


def fan_se_form(kappa: Sequence[float], Phi: np.ndarray, Delta: np.ndarray) -> np.ndarray:
    """Sigma = sum_{j>=0} sum_{i=0}^{j} kappa_{j+2} Phi^i Delta (Phi^{j-i})^T,
    truncated exactly at j = 2t-2 by nilpotency of the strictly-lower Phi."""
    Phi = np.atleast_2d(np.asarray(Phi, dtype=float))
    Delta = np.atleast_2d(np.asarray(Delta, dtype=float))
    t = Phi.shape[0]
    jmax = 2 * t - 2
    if len(kappa) < jmax + 2:
        raise ValidationError(f"need kappa up to order {jmax + 2}")
    pows = phi_powers(Phi, jmax + 1)
    Sigma = np.zeros((t, t))
    for j in range(jmax + 1):
        k = float(kappa[j + 1])
        if k == 0.0:
            continue
        for i in range(j + 1):
            Sigma += k * pows[i] @ Delta @ pows[j - i].T
    return Sigma


# ---------------------------------------------------------------------------
# the SE core: every variant in the long-memory OAMP form
# ---------------------------------------------------------------------------

def _weighted_gram(V: np.ndarray, w: np.ndarray, D: np.ndarray) -> np.ndarray:
    """sum_x w_x V(x) D V(x)^T for V of shape (t, t, nodes)."""
    return np.einsum("anx,bnx,x->ab", np.einsum("amx,mn->anx", V, D), V, w)


def _evolve(rows, denoisers, init: SeInit, T: int, nu_rows=None, centered: bool = False) -> list[SeState]:
    """The one SE recursion.  At each t it appends row t of V at the nodes
    of the rows over the law (`rows`) and, with a spike, at nu's atoms with mu's E (`nu_rows`):
    Sigma_t = E_mu[V (DeltaBar - a a^T) V^T] + E_nu[V a a^T V^T] - b b^T with
    a = alpha_t (0 unspiked), b = beta_t = E_nu[V] a, and then appends the
    moments of eta_{t+1} on Sigma_t and beta_t.  `centered` (OAMP) puts
    Phi = 0 in the rows.  `denoisers`: Denoisers or factory(t, beta, Sigma)."""
    spiked = init.spiked
    if spiked and nu_rows is None:
        raise ValidationError("use spiked_se for spiked initializations")
    moments = _MomentRows(init, T)
    V = np.zeros((T, T, rows.w.size))
    Vnu = np.zeros((T, T, nu_rows.w.size)) if spiked else None
    states, beta = [], None
    for t in range(1, T + 1):
        pm = moments.block(t)  # U_1..U_t; appending eta_{t+1} leaves this block as it is
        phi_row = np.zeros(t - 1) if centered else pm.Phi[t - 1, : t - 1]
        e_row = rows.append(phi_row)
        V[t - 1, :t] = rows.J[-1]
        _psd_check(pm.resid, f"DeltaBar_{t} - alpha alpha^T" if spiked else f"DeltaBar_{t}")
        Sigma = _weighted_gram(V[:t, :t], rows.w, pm.resid)
        if spiked:
            nu_rows.append(phi_row, e_row)
            Vnu[t - 1, :t] = nu_rows.J[-1]
            beta = np.einsum("amx,m,x->a", Vnu[:t, :t], pm.alpha, nu_rows.w)
            Sigma += (_weighted_gram(Vnu[:t, :t], nu_rows.w, np.outer(pm.alpha, pm.alpha))
                      - np.outer(beta, beta))
        _psd_check(Sigma, f"Sigma_{t}", init.psd_tol)
        item = denoisers[t - 1] if isinstance(denoisers, (list, tuple)) else denoisers
        den = item if isinstance(item, Denoiser) else item(t, beta, Sigma)
        moments.append(den, Sigma, beta)
        states.append(SeState(t=t, Sigma=Sigma, Phi=pm.Phi, DeltaBar=pm.DeltaBar, beta=beta,
                              alpha=pm.alpha, mse_pred=moments.mse, denoiser=den))
    return states


def ri_amp_se(law: SpectralLaw, denoisers, init: SeInit, T: int) -> list[SeState]:
    """State evolution of RI-AMP: the trace-free rows of f = identity (their E
    is its free-cumulant Onsager matrix)."""
    return ri_amp_mp_se(law, IDENTITY, denoisers, init, T)


def ri_amp_df_se(law: SpectralLaw, denoisers, init: SeInit, T: int) -> list[SeState]:
    """State evolution of RI-AMP-DF: the x = ubar trace-free rows of
    f = identity (their E is its H-family Onsager matrix)."""
    return _evolve(_TraceFreeRows(law, [IDENTITY] * T, template="ubar"), denoisers, init, T)


def ri_amp_mp_se(law: SpectralLaw, f: Callable, denoisers, init: SeInit,
                 T: int) -> list[SeState]:
    """State evolution of non-spiked RI-AMP-MP with one matrix function f:
    the trace-free rows of f."""
    return _evolve(_TraceFreeRows(law, [f] * T), denoisers, init, T)


def gaussian_amp_se(denoisers: Sequence[Denoiser], T: int) -> np.ndarray:
    """Scalar recursion sigma_t^2 = Var(R_t) of single-memory Gaussian AMP:
    sigma_1^2 = E[U_1^2] = 1; sigma_{t+1}^2 = E[eta_{t+1}(sigma_t Z)^2].  A
    closed-form reference for `ri_amp_se` under the unit semicircle.

    `denoisers[t-1]` is eta_{t+1} (the map from r_t to u_{t+1}); only the
    last history row is read."""
    z, wz = _gh_rule(GH_POINTS)
    out = np.empty(T)
    out[0] = 1.0
    for t in range(1, T):
        den = denoisers[t - 1]
        R = np.zeros((den.arity, z.size))
        R[-1] = math.sqrt(max(out[t - 1], 0.0)) * z
        vals = den.evaluate(R)
        out[t] = float(wz @ vals**2)
    return out


def oamp_se(law: SpectralLaw, f_schedule: Sequence[Callable], g_schedule,
            init: SeInit, T: int) -> list[SeState]:
    """State evolution of OAMP, Sigma_t = Omega_t.  Its rows have Phi = 0, so
    row t of V is the one entry f_t - E_mu f_t, and
    Omega_t = [Cov_mu(f_i, f_j)] o [E[Xbar_i Xbar_j]]."""
    rows = _TraceFreeRows(law, list(f_schedule[:T]))
    return _evolve(rows, g_schedule, init, T, centered=True)


# ---------------------------------------------------------------------------
# the nu measure and the spiked recursion
# ---------------------------------------------------------------------------

def find_outlier(law: SpectralLaw, theta: float) -> tuple | None:
    """Root z* > support of 1 = theta m_mu(z) plus the atom weight
    -1 / (theta^2 m_mu'(z*)); None when theta is sub-critical.

    The bracket starts just above the edge hi, by the larger of 1e-9 and
    1e-15 |hi|, so it lies off the support at every edge within
    SUPPORT_CAP.  It ends at b = hi + 10 theta + 10, where
    theta m(b) <= theta / (b - hi) < 0.1."""
    if theta <= 0:
        raise ValidationError("theta must be > 0")
    lo, hi = law.support()
    a = hi + max(1e-9, 1e-15 * abs(hi))
    b = hi + 10.0 * theta + 10.0
    g = lambda zz: theta * law.stieltjes(zz).real - 1.0
    if g(a) < 0:  # m(edge+) < 1/theta: no outlier separates
        return None
    for _ in range(200):
        mid = 0.5 * (a + b)
        if g(mid) > 0:
            a = mid
        else:
            b = mid
    z_star = 0.5 * (a + b)
    mprime = law.stieltjes_derivative(z_star).real
    weight = -1.0 / (theta**2 * mprime)
    return (float(z_star), float(weight))


def nu_measure(law: SpectralLaw, theta: float) -> DiscreteGrid:
    """Limit nu of the eigen-overlap measure of Y = (theta/N) x* x*^T + W, W
    of spectral law mu: m_nu = m_mu / (1 - theta m_mu), an atom law, nothing
    sampled.  By Sherman-Morrison it is the spectral measure of the spiked
    core diag(a) + theta sqrt(w) sqrt(w)^T at sqrt(w), (a, w) the law's
    `quad_nodes` (every atom of an atom law, 400 nodes of a population law):
    the core's secular roots weighted by their squared overlaps, the top one
    the outlier when theta is supercritical.  O(n^2) time for n nodes."""
    if theta <= 0:
        raise ValidationError("theta must be > 0")
    nodes, w = law.quad_nodes()
    mu, overlap = diag_rank_one_eigh(nodes, np.sqrt(w), theta)
    return DiscreteGrid(atoms=mu, weights=overlap)


def mp_denoise_fn(theta: float, alpha: float) -> RationalFn:
    """The matrix-denoising map f(x) = (theta/alpha)(1 + (alpha-1)/x)
    - theta^2/(alpha x) = theta/alpha + theta (alpha - 1 - theta)/(alpha x),
    which has a pole at x = 0."""
    return RationalFn(coeffs=(theta / alpha,), pole=theta * (alpha - 1.0 - theta) / alpha)


def check_pole_free(law: SpectralLaw) -> None:
    """Reject laws whose support meets (-POLE_GAP, POLE_GAP) when a 1/x
    matrix denoiser is selected."""
    lo, hi = law.support()
    if lo < POLE_GAP and hi > -POLE_GAP:
        raise ValidationError(
            f"law support [{lo}, {hi}] intersects (-{POLE_GAP}, {POLE_GAP}): "
            "matrix denoiser has a pole at 0"
        )


def spiked_se(law: SpectralLaw, theta: float, f: RationalFn, denoisers,
              init: SeInit, T: int) -> list[SeState]:
    """Spiked-model state evolution for constant-f matrix processing: the
    trace-free rows of f on mu, and on nu with the E solved on mu, nu's
    rule by Lanczos on f of the spiked core (`_TraceFreeRows` with theta)."""
    if not (init.spiked and theta > 0):
        raise ValidationError("spiked_se requires theta > 0 and a spiked init (omega set)")
    return _evolve(_TraceFreeRows(law, [f] * T), denoisers, init, T,
                   nu_rows=_TraceFreeRows(law, [f] * T, theta=theta))
