"""Iterative algorithms: RI-AMP, RI-AMP-DF, RI-AMP-MP, OAMP, and Gaussian AMP
as RI-AMP under the unit semicircle.

All variants run one loop, `_run_loop`, and differ only in a step hook that
forms r_t from the matrix and the history.  The matrix is always a
`randmat.SpectralOperator`: `as_operator` takes a spiked instance's
operator, an operator as it is, or the eigendecomposition of a dense
symmetric array.  The loop keeps the shared
bookkeeping: iterates r_t / u_t, the orthogonal (divergence-free) residuals
ubar_t, the empirical divergence matrix Phi_hat, and the de-biasing
coefficients each hook subtracted at each step.  The unfolding
verifier reconstructs every r_t as a triangular matrix of polynomials in the
driving matrix applied to (ubar_1..ubar_t) — an exact algebraic identity when
the de-biasing coefficients come from the realized eigenvalue grid.  It
applies that matrix by products with the operator's core in W's eigenbasis,
one path for spiked and non-spiked runs alike.  RI-AMP-MP's trace-free
de-biasing rows, in the run and in the verifier, come from one row
recursion (`freeprob._TraceFreeRows`, which state evolution shares).  Over
a grid with one f it runs on a Lanczos (Gauss) rule of the grid's
pushforward under f with T // 2 + 1 points, exact for the rows' polynomial
degree; otherwise, and for the verifier's all-atom trace residuals, it runs
at the law's quadrature nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .denoisers import Denoiser, last_row_denoiser
from .errors import NumericalError, UnsupportedVariantError, ValidationError
from .freeprob import (MP_DEBIAS_NODES, _TraceFreeRows, build_poly_family,
                       moments_to_cumulants, phi_powers)
from .laws import DiscreteGrid, Semicircle, SpectralLaw
from .randmat import (RationalFn, SpectralOperator, SpikedInstance, _eigh, _map_eigenvalues,
                      dense_symmetric)

HORIZON_CAP = 10


def as_operator(M) -> SpectralOperator:
    """The factored operator a run acts on: a spiked instance's operator, a
    SpectralOperator as it is, or `eigh` of a dense symmetric array (checked
    by `randmat.dense_symmetric`).  Its eigenvalues are those of W, not Y,
    for a spiked instance."""
    if isinstance(M, SpikedInstance):
        return M.operator
    if isinstance(M, SpectralOperator):
        return M
    lam, O = _eigh(dense_symmetric(M))
    return SpectralOperator(lam, O)


@dataclass
class AmpRun:
    """Record of one algorithm execution."""

    variant: str
    r: list  # r_1..r_T
    u: list  # u_1..u_{T+1}
    ubar: list  # ubar_1..ubar_{T+1}
    phi: np.ndarray  # (T+1)x(T+1); phi[j-1, i-1] = <d_i u_j>, strictly lower
    debias: np.ndarray  # (T, T); row t-1 = de-biasing coefficients of step t
    diagnostics: list
    operator: SpectralOperator
    debias_law: SpectralLaw
    denoisers: list  # denoisers[t-1] maps r_1..r_t to u_{t+1}
    f_schedule: list | None = None

    @property
    def T(self) -> int:
        return len(self.r)

    @property
    def N(self) -> int:
        return self.operator.N

    def phi_matrix(self, t: int) -> np.ndarray:
        """Strictly-lower-triangular divergence matrix over u_1..u_t."""
        return self.phi[:t, :t]


def _check_finite(v: np.ndarray, t: int, what: str) -> None:
    if not np.all(np.isfinite(v)):
        raise NumericalError(f"{what} diverged (non-finite entries) at iteration t={t}")


def _resolve_horizon(T: int) -> int:
    if not 1 <= T <= HORIZON_CAP:
        raise ValidationError(f"horizon T={T} outside [1, {HORIZON_CAP}]")
    return T


def _debias_law(mode: str, law: SpectralLaw | None, w_eigenvalues: np.ndarray) -> SpectralLaw:
    if mode == "grid":
        return DiscreteGrid(atoms=np.sort(w_eigenvalues))
    if mode == "population":
        if law is None:
            raise ValidationError("population mode requires a spectral law")
        return law
    raise ValidationError(f"unknown cumulant mode {mode!r} (use 'grid' or 'population')")


def _subtract(v: np.ndarray, row: np.ndarray, basis: Sequence[np.ndarray]) -> np.ndarray:
    """v - sum_i row[i] basis[i], summed in index order."""
    for i in range(row.size):
        v = v - row[i] * basis[i]
    return v


def ri_amp_debias(kappa: Sequence[float], phi_hat: np.ndarray) -> np.ndarray:
    """B_t = sum_{i=1}^t kappa_i Phi_hat^{i-1} (lower triangular, diag kappa_1)."""
    phi_hat = np.atleast_2d(np.asarray(phi_hat, dtype=float))
    t = phi_hat.shape[0]
    if np.any(np.abs(np.triu(phi_hat)) > 0):
        raise ValidationError("phi_hat must be strictly lower triangular")
    B = np.zeros((t, t))
    for i, P in enumerate(phi_powers(phi_hat, t)):
        B += float(kappa[i]) * P
    return B


def ri_amp_mp_debias(law: SpectralLaw, f_schedule: Sequence[Callable],
                     phi_hat: np.ndarray, n_nodes: int = MP_DEBIAS_NODES) -> np.ndarray:
    """Unique lower-triangular E_t with E_mu[J(Lambda)] = 0, where
    J = (F - E)(I - Phi_hat (F - E))^{-1}, F(lambda) = diag(f_1..f_t)(lambda).

    Solved row by row (`_TraceFreeRows`): row n depends only on the leading
    n x n blocks of Phi_hat and E, so the rows of E_t are those of E_{t-1}
    with one row appended.  Over a DiscreteGrid with one f (every f_t the
    same object) the rows live on a Lanczos rule of T // 2 + 1 points.
    """
    phi_hat = np.atleast_2d(np.asarray(phi_hat, dtype=float))
    t = phi_hat.shape[0]
    if len(f_schedule) != t:
        raise ValidationError("f schedule length must match phi_hat size")
    if np.any(np.abs(np.triu(phi_hat)) > 0):
        raise ValidationError("phi_hat must be strictly lower triangular")
    rows = _TraceFreeRows(law, f_schedule, n_nodes)
    E = np.zeros((t, t))
    for n in range(1, t + 1):
        E[n - 1, :n] = rows.append(phi_hat[n - 1, : n - 1])
    return E


def _prepare(M, law: SpectralLaw | None, mode: str, T: int):
    """(T, operator, debias law) of a run: the checked horizon, the factored
    matrix and the law whose cumulants debias it."""
    T = _resolve_horizon(T)
    operator = as_operator(M)
    return T, operator, _debias_law(mode, law, operator.eigenvalues)


def _run_loop(variant, operator, debias_law, denoisers, u1, T, r_step, f_schedule=None):
    """The iteration every variant shares.  At step t the variant's hook
    `r_step(t, u, ubar, phi[:t, :t])` returns r_t and the coefficient row it
    subtracted; then u_{t+1} = denoisers[t-1](r_1..r_t), its divergence row
    and the divergence-free residual ubar_{t+1} are recorded."""
    N = operator.N
    u1 = np.asarray(u1, dtype=float)
    if u1.shape != (N,):
        raise ValidationError("u_1 must be a length-N vector")
    if len(denoisers) < T:
        raise ValidationError(f"need {T} denoisers for horizon T={T}")
    u = [u1]
    ubar = [u1.copy()]
    r: list = []
    phi = np.zeros((T + 1, T + 1))
    debias = np.zeros((T, T))
    diagnostics = []
    for t in range(1, T + 1):
        r_t, row = r_step(t, u, ubar, phi[:t, :t])
        _check_finite(r_t, t, "r")
        r.append(r_t)
        debias[t - 1, : row.size] = row
        den = denoisers[t - 1]
        R = np.vstack(r)
        u_next = den.evaluate(R)
        _check_finite(u_next, t, "u")
        d = den.divergences(R)
        phi[t, :t] = d
        u.append(u_next)
        ubar.append(_subtract(u_next, d, r))  # u_{t+1} - sum_i <d_i u_{t+1}> r_i
        diagnostics.append({
            "t": t,
            "norm_r": float(np.linalg.norm(r_t) / np.sqrt(N)),
            "norm_u": float(np.linalg.norm(u_next) / np.sqrt(N)),
        })
    return AmpRun(variant=variant, r=r, u=u, ubar=ubar, phi=phi, debias=debias,
                  diagnostics=diagnostics, operator=operator, debias_law=debias_law,
                  denoisers=list(denoisers[:T]), f_schedule=f_schedule)


def run_ri_amp(M, law: SpectralLaw | None, denoisers: Sequence[Denoiser],
               u1: np.ndarray, T: int, mode: str = "grid") -> AmpRun:
    """r_t = W u_t - sum_i b_{t,i} u_i with B_t = sum kappa_i Phi_hat^{i-1}."""
    T, operator, dlaw = _prepare(M, law, mode, T)
    kappa = [float(k) for k in moments_to_cumulants(dlaw.moments(T)).cumulants]

    def r_step(t, u, ubar, phi_t):
        row = ri_amp_debias(kappa[:t], phi_t)[t - 1]
        return _subtract(operator.apply(u[t - 1]), row, u), row

    return _run_loop("RIAMP", operator, dlaw, denoisers, u1, T, r_step)


def run_ri_amp_df(M, law: SpectralLaw | None, denoisers: Sequence[Denoiser],
                  u1: np.ndarray, T: int, mode: str = "grid") -> AmpRun:
    """r_t = W u_t - sum_i c_{t,i} ubar_i with C_t = sum gamma_i Phi_hat^{i-1};
    gamma are the one-step centering constants of the H family."""
    T, operator, dlaw = _prepare(M, law, mode, T)
    gamma = list(build_poly_family(dlaw, "H", T).centering)

    def r_step(t, u, ubar, phi_t):
        row = ri_amp_debias(gamma[:t], phi_t)[t - 1]
        return _subtract(operator.apply(u[t - 1]), row, ubar), row

    return _run_loop("RIAMPDF", operator, dlaw, denoisers, u1, T, r_step)


def run_ri_amp_mp(M, law: SpectralLaw | None, f, denoisers: Sequence[Denoiser],
                  u1: np.ndarray, T: int, mode: str = "grid") -> AmpRun:
    """r_t = f_t(M) u_t - sum_i e_{t,i} u_i; E_t solves the trace-free equation
    over the (grid or population) law of W.  M may be a spiked instance, in
    which case f_t(Y) is applied in W's eigenbasis and each f_t must be a
    RationalFn."""
    T, operator, dlaw = _prepare(M, law, mode, T)
    f_schedule = list(f) if isinstance(f, (list, tuple)) else [f] * T
    if len(f_schedule) < T:
        raise ValidationError("f schedule shorter than horizon")
    f_schedule = f_schedule[:T]
    f_ops = [operator.function(ft) for ft in f_schedule]
    rows = _TraceFreeRows(dlaw, f_schedule)

    def r_step(t, u, ubar, phi_t):
        row = rows.append(phi_t[t - 1, : t - 1])
        return _subtract(f_ops[t - 1](u[t - 1]), row, u), row

    return _run_loop("RIAMPMP", operator, dlaw, denoisers, u1, T, r_step,
                     f_schedule=f_schedule)


def run_gaussian_amp(M, denoisers: Sequence[Denoiser], u1: np.ndarray, T: int) -> AmpRun:
    """Single-memory AMP for Wigner-type matrices:
    r_t = W u_t - <eta_t'> u_{t-1}; u_{t+1} = eta_{t+1}(r_t).

    `denoisers[t-1]` is eta_{t+1}, the arity-1 map from r_t to u_{t+1}.  This
    is RI-AMP under the unit semicircle, whose cumulants are (0, 1, 0, ...):
    B_t = Phi_hat, so the Onsager row of step t is the divergence row of u_t,
    whose only entry is <eta_t'> at u_{t-1}.  The run is RI-AMP's, with each
    eta lifted to the history and debiased by the population law.
    """
    lifted = [last_row_denoiser(den, t) for t, den in enumerate(denoisers[:T], start=1)]
    return run_ri_amp(M, Semicircle(), lifted, u1, T, mode="population")


def run_oamp(M, f_schedule: Sequence[Callable], g_schedule: Sequence[Denoiser],
             xbar1: np.ndarray, T: int) -> AmpRun:
    """Orthogonal AMP: x_t = (f_t(W) - tr f_t(W)/N I) xbar_t;
    xbar_{t+1} = g_{t+1}(x_1..x_t) - sum_i <d_i g> x_i.

    Stored in the shared run layout with x_t in the `r` slot, g_{t+1} in `u`
    and xbar_t in `ubar`.  The x-step subtracts nothing, so the `debias`
    rows are zero.  M is not a spiked instance: the trace-free centering
    needs the spectrum of f_t(M)."""
    T, operator, dlaw = _prepare(M, None, "grid", T)
    if operator.z is not None:
        raise ValidationError("OAMP runs on a rotationally-invariant matrix, "
                              "not on a spiked instance")
    if len(f_schedule) < T:
        raise ValidationError(f"need {T} matrix denoisers for horizon T={T}")
    centered = []
    for f in f_schedule[:T]:
        mean = _map_eigenvalues(f, operator.eigenvalues).mean()  # exact trace-free centering
        centered.append(operator.function(lambda x, f=f, mean=mean: f(x) - mean))

    def r_step(t, u, ubar, phi_t):
        return centered[t - 1](ubar[t - 1]), np.zeros(t)

    return _run_loop("OAMP", operator, dlaw, g_schedule, xbar1, T, r_step,
                     f_schedule=list(f_schedule[:T]))


# ---------------------------------------------------------------------------
# verification: unfolding, divergence-freeness, orthogonality
# ---------------------------------------------------------------------------

@dataclass
class UnfoldedRepresentation:
    """Triangular polynomial-matrix representation of a run."""

    variant: str
    per_t_errors: np.ndarray  # relative l2 reconstruction error of each r_t
    trace_residuals: np.ndarray  # T x T; |E_law[poly_{s,j}(Lambda)]|
    max_error: float


_FAMILY_KIND = {"RIAMP": "Q", "RIAMPDF": "H"}


def _unfold_by_products(run: AmpRun, fam) -> np.ndarray:
    """Columns O^T sum_j [poly]_{t,j}(M) ubar_j, W's eigenbasis coordinates
    of the reconstruction, by products with the core D on
    S = O^T [ubar_1..ubar_T]: diagonal without a spike, and without D's
    eigenvectors with one.  fam is the run's polynomial family (None for
    RI-AMP-MP).  A scalar matrix A acts on a block of columns S as S A^T."""
    T = run.T
    op = run.operator
    S = op.to_spectral(np.column_stack(run.ubar[:T]))
    Phi = run.phi_matrix(T)
    if fam is not None:
        # [poly]_{t,j} = sum_i (Phi^{i-1})_{t,j} P_i, P_i the family's members
        out = np.zeros_like(S)
        for i, P in enumerate(phi_powers(Phi, T), start=1):
            out += op.core_function(RationalFn(coeffs=fam.coeffs[i]))(S @ P.T)
        return out
    # RI-AMP-MP: J = (F - E) sum_k (Phi (F - E))^k, nilpotent: k < T
    E = np.tril(run.debias)
    fs = [op.core_function(ft) for ft in run.f_schedule]

    def f_minus_e(X):
        return np.column_stack([g(X[:, t]) for t, g in enumerate(fs)]) - X @ E.T

    X = acc = S
    for _ in range(1, T):
        X = f_minus_e(X) @ Phi.T
        acc = acc + X
    return f_minus_e(acc)


def _trace_residuals(run: AmpRun, fam, law: SpectralLaw) -> np.ndarray:
    """|E[poly entries]| over the run's realized eigenvalue law, T x T, for
    the entries that `law` defines.  A family's entries average to
    sum_i Phi^{i-1} E[P_i], the family built from `law`; RI-AMP-MP's are the
    averages of the rows of J over every node of the run's law (every atom
    in grid mode), built from the E that `law` solves for, so they check the
    Lanczos rule's E against the all-atom averages."""
    T = run.T
    Phi = run.phi_matrix(T)
    if fam is not None:
        nodes, w = run.debias_law.quad_nodes()
        means = [w @ fam.evaluate(i, nodes) for i in range(1, T + 1)]
        return np.abs(np.einsum("i,isj->sj", means, phi_powers(Phi, T)))
    E = ri_amp_mp_debias(law, run.f_schedule, Phi)
    rows = _TraceFreeRows(run.debias_law, run.f_schedule, all_nodes=True)
    out = np.zeros((T, T))
    for n in range(1, T + 1):
        rows.append(Phi[n - 1, : n - 1], E[n - 1, :n])
        out[n - 1, :n] = np.abs(rows.mean(rows.J[-1]))
    return out


def verify_unfolding(run: AmpRun, law: SpectralLaw | None = None) -> UnfoldedRepresentation:
    """Reconstruct each r_t as sum_j [poly]_{t,j}(M) ubar_j and report the
    relative errors plus the trace residuals E_law[poly entries]."""
    if law is None:
        law = run.debias_law
    if run.variant in _FAMILY_KIND:
        fam = build_poly_family(law, _FAMILY_KIND[run.variant], run.T)
    elif run.variant == "RIAMPMP":
        fam = None
    else:
        raise UnsupportedVariantError(
            f"no unfolding representation for variant {run.variant!r}"
        )
    # compared in W's eigenbasis: each r_t lies in the span a lazy rotation
    # has revealed, so O^T r reveals nothing, while O applied to the
    # reconstruction would record its rounding as new directions of O
    r_hat = _unfold_by_products(run, fam)
    R = run.operator.to_spectral(np.column_stack(run.r))
    denom = np.maximum(np.linalg.norm(R, axis=0), 1e-300)
    errors = np.linalg.norm(r_hat - R, axis=0) / denom
    # trace residuals average the polynomial entries over the run's realized
    # eigenvalue law, so a mismatched `law` (wrong cumulants) shows up here
    return UnfoldedRepresentation(
        variant=run.variant,
        per_t_errors=errors,
        trace_residuals=_trace_residuals(run, fam, law),
        max_error=float(errors.max()),
    )


def ubar_divergences(run: AmpRun) -> float:
    """Max |empirical divergence of ubar_{t+1} w.r.t. r_i| — exactly zero by
    construction with analytic partials; recomputed here from scratch."""
    worst = 0.0
    for t, den in enumerate(run.denoisers[: run.T], start=1):
        d = den.divergences(np.vstack(run.r[:t]))
        worst = max(worst, float(np.abs(d - run.phi[t, :t]).max()))
    return worst


def orthogonality_residuals(run: AmpRun) -> np.ndarray:
    """Matrix of |(1/N) u_s^T ubar_t| for s < t (zero elsewhere)."""
    n = len(run.ubar)
    out = np.zeros((n, n))
    N = run.N
    for t in range(n):
        for s in range(t):
            out[s, t] = abs(run.u[s] @ run.ubar[t]) / N
    return out
