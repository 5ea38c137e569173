"""Iterative algorithms: RI-AMP, RI-AMP-DF, RI-AMP-MP, OAMP, and Gaussian AMP
as RI-AMP under the unit semicircle.

Every variant runs one template, long-memory OAMP,
r_t = f_t(M) u_t - sum_i E_{t,i} x_i with u = ubar + Phi r, so each run is
r = V(M) ubar with V lower triangular and trace-free.  RI-AMP and RI-AMP-MP
take x = u, RI-AMP-DF and OAMP x = ubar (`AmpRun.template`); RI-AMP and
RI-AMP-DF have f = identity, and OAMP ignores Phi, applying f_t to ubar_t.
One loop, `_run`, keeps the shared bookkeeping: iterates r_t / u_t, the
divergence-free residuals ubar_t, the empirical divergence matrix Phi_hat,
and the Onsager row E_t of each step.  The matrix is always a
`randmat.SpectralOperator`, spiked or not: `as_operator` takes an operator
as it is, or the eigendecomposition of a dense symmetric array.

The Onsager rows of every variant come from one row recursion
(`freeprob._TraceFreeRows`, which state evolution shares).  For f =
identity they are the free-cumulant rows sum_i kappa_i Phi^{i-1} (x = u)
and RI-AMP-DF's H-family rows sum_i gamma_i Phi^{i-1} (x = ubar), which
`ri_amp_debias` forms as a reference; for OAMP the one entry E_{t,t} is
the centering tr f_t(W) / N.  With one f the recursion runs on the
T + 1 point Gauss rule of the debias law's pushforward under f, exact for
the rows' polynomial degree, and otherwise at the law's quadrature nodes.

The unfolding verifier replays the template with the same rows, given the
run's own record (Phi, E, f): from its ubar in W's eigenbasis with f of the
operator's core, spiked or not, to reconstruct every r_t, and from the unit
rows at the nodes of a law (the run's debias law by default) for the trace
residuals E_law[V], zero when the recorded E is trace-free under that law.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .denoisers import Denoiser, last_row_denoiser
from .errors import NumericalError, ValidationError
from .freeprob import _map_distinct, _TraceFreeRows, _unit_rows, phi_powers
from .laws import DiscreteGrid, Semicircle, SpectralLaw
from .randmat import IDENTITY, LazyHaarRotation, SpectralOperator, _eigh, dense_symmetric

HORIZON_CAP = 10


def as_operator(M) -> SpectralOperator:
    """The factored operator a run acts on: a SpectralOperator as it is (a
    spiked one keeps W's eigenvalues, not Y's), or `eigh` of a dense
    symmetric array (checked by `randmat.dense_symmetric`)."""
    if isinstance(M, SpectralOperator):
        return M
    lam, O = _eigh(dense_symmetric(M))
    return SpectralOperator(lam, O)


@dataclass
class AmpRun:
    """Record of one algorithm execution."""

    template: str  # "u", "ubar" or "oamp", as `freeprob._TraceFreeRows` takes it
    r: list  # r_1..r_T
    u: list  # u_1..u_{T+1}
    ubar: list  # ubar_1..ubar_{T+1}
    phi: np.ndarray  # (T+1)x(T+1); phi[j-1, i-1] = <d_i u_j>, strictly lower
    debias: np.ndarray  # (T, T); row t-1 = de-biasing coefficients of step t
    diagnostics: list
    operator: SpectralOperator
    debias_law: SpectralLaw
    denoisers: list  # denoisers[t-1] maps r_1..r_t to u_{t+1}
    f_schedule: list  # f_1..f_T of the template; IDENTITY for RI-AMP and RI-AMP-DF

    @property
    def T(self) -> int:
        return len(self.r)

    @property
    def N(self) -> int:
        return self.operator.N


def _check_finite(v: np.ndarray, t: int, what: str) -> None:
    if not np.all(np.isfinite(v)):
        raise NumericalError(f"{what} diverged (non-finite entries) at iteration t={t}")


def _debias_law(mode: str, law: SpectralLaw | None, w_eigenvalues: np.ndarray) -> SpectralLaw:
    if mode == "grid":
        return DiscreteGrid(atoms=np.sort(w_eigenvalues))
    if mode == "population":
        if law is None:
            raise ValidationError("population mode requires a spectral law")
        return law
    raise ValidationError(f"unknown cumulant mode {mode!r} (use 'grid' or 'population')")


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


def _run(template, M, law: SpectralLaw | None, f, denoisers, u1, T: int, mode: str) -> AmpRun:
    """The one iteration every variant runs: r_t = f_t(M) u_t - sum_i E_{t,i} x_i
    on the template of `_TraceFreeRows` ("u": x = u; "ubar" and "oamp": x =
    ubar), its Onsager row E_t appended by `_TraceFreeRows` over the debias
    law; then u_{t+1} = denoisers[t-1](r_1..r_t), its divergence row and the
    divergence-free residual ubar_{t+1} are recorded.  OAMP's rows ignore
    Phi: its r-step takes f_t(M) ubar_t, and its one row entry E_{t,t} =
    E_mu f_t is the centering.  The histories are preallocated blocks whose rows are
    `run.r`, `run.u` and `run.ubar`, so each linear step is one
    matrix-vector product with a block, and the denoiser's value and
    divergence row come from one evaluation of its link arguments."""
    if not 1 <= T <= HORIZON_CAP:
        raise ValidationError(f"horizon T={T} outside [1, {HORIZON_CAP}]")
    operator = as_operator(M)
    if template == "oamp" and operator.z is not None:
        raise ValidationError("OAMP runs on a rotationally-invariant matrix, "
                              "not on a spiked instance")
    dlaw = _debias_law(mode, law, operator.eigenvalues)
    f_schedule = list(f) if isinstance(f, (list, tuple)) else [f] * T
    if len(f_schedule) < T:
        raise ValidationError(f"need {T} matrix functions for horizon T={T}")
    f_schedule = f_schedule[:T]
    f_ops = _map_distinct(operator.function, f_schedule)  # each holds f at the N eigenvalues
    rows = _TraceFreeRows.over(dlaw, f_schedule, template)
    N = operator.N
    u1 = np.asarray(u1, dtype=float)
    if u1.shape != (N,):
        raise ValidationError("u_1 must be a length-N vector")
    if len(denoisers) < T:
        raise ValidationError(f"need {T} denoisers for horizon T={T}")
    if isinstance(operator.rotation, LazyHaarRotation):
        operator.rotation.pairs.reserve(2 * T)  # a step reveals at most two pairs
    # rows of the history blocks: U[t-1] = u_t, Ubar[t-1] = ubar_t, R[t-1] = r_t
    U, Ubar, R = np.empty((T + 1, N)), np.empty((T + 1, N)), np.empty((T, N))
    U[0] = Ubar[0] = u1
    X = U if template == "u" else Ubar
    phi = np.zeros((T + 1, T + 1))
    debias = np.zeros((T, T))
    diagnostics = []
    for t in range(1, T + 1):
        row = rows.append(phi[t - 1, : t - 1])
        np.subtract(f_ops[t - 1](Ubar[t - 1] if template == "oamp" else U[t - 1]),
                    row @ X[:t], out=R[t - 1])
        _check_finite(R[t - 1], t, "r")
        debias[t - 1, :t] = row
        U[t], d = denoisers[t - 1].evaluate(R[:t])
        _check_finite(U[t], t, "u")
        phi[t, :t] = d
        np.subtract(U[t], d @ R[:t], out=Ubar[t])  # u_{t+1} - sum_i <d_i u_{t+1}> r_i
        diagnostics.append({
            "t": t,
            "norm_r": float(np.linalg.norm(R[t - 1]) / np.sqrt(N)),
            "norm_u": float(np.linalg.norm(U[t]) / np.sqrt(N)),
        })
    return AmpRun(template=template, r=list(R), u=list(U), ubar=list(Ubar), phi=phi, debias=debias,
                  diagnostics=diagnostics, operator=operator, debias_law=dlaw,
                  denoisers=list(denoisers[:T]), f_schedule=f_schedule)


def run_ri_amp(M, law: SpectralLaw | None, denoisers: Sequence[Denoiser],
               u1: np.ndarray, T: int, mode: str = "grid") -> AmpRun:
    """r_t = W u_t - sum_i b_{t,i} u_i with B_t trace-free, which is
    sum_i kappa_i Phi_hat^{i-1} for the free cumulants kappa of the law:
    RI-AMP-MP with f = identity."""
    return _run("u", M, law, IDENTITY, denoisers, u1, T, mode)


def run_ri_amp_df(M, law: SpectralLaw | None, denoisers: Sequence[Denoiser],
                  u1: np.ndarray, T: int, mode: str = "grid") -> AmpRun:
    """r_t = W u_t - sum_i c_{t,i} ubar_i with C_t trace-free, which is
    sum_i gamma_i Phi_hat^{i-1} for the one-step centering constants gamma
    of the H family."""
    return _run("ubar", M, law, IDENTITY, denoisers, u1, T, mode)


def run_ri_amp_mp(M, law: SpectralLaw | None, f, denoisers: Sequence[Denoiser],
                  u1: np.ndarray, T: int, mode: str = "grid") -> AmpRun:
    """r_t = f_t(M) u_t - sum_i e_{t,i} u_i; E_t solves the trace-free equation
    over the (grid or population) law of W.  M may be spiked (`build_spiked`), in
    which case f_t(Y) is applied in W's eigenbasis and each f_t must be a
    RationalFn."""
    return _run("u", M, law, f, denoisers, u1, T, mode)


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
    and xbar_t in `ubar`.  The x-step is the "oamp" template, x = xbar
    with Phi ignored, so row t of `debias` holds tr f_t(W)/N on its diagonal.
    M is not a spiked instance: the trace-free centering needs the spectrum
    of f_t(M)."""
    return _run("oamp", M, None, list(f_schedule), g_schedule, xbar1, T, "grid")


# ---------------------------------------------------------------------------
# verification: unfolding, divergence-freeness, orthogonality
# ---------------------------------------------------------------------------

@dataclass
class UnfoldedRepresentation:
    """How closely a run unfolds as r = V(M) ubar, V lower triangular."""

    per_t_errors: np.ndarray  # relative l2 reconstruction error of each r_t
    trace_residuals: np.ndarray  # T x T, lower; |E_law[V_{t,j}(Lambda)]|
    max_error: float


def verify_unfolding(run: AmpRun, law: SpectralLaw | None = None) -> UnfoldedRepresentation:
    """Replay the run's template r = V(M) ubar with its Phi and recorded E
    (`_TraceFreeRows`) twice: from the unit rows at the nodes of `law`, for
    the trace residuals |E_law[V_{t,j}(Lambda)]| (first, so the T(T+1) node
    rows are freed before the reconstruction), and from its own ubar in W's
    eigenbasis, for the relative error of each r_t.  `law` defaults to the
    run's debias law, under which the recorded E is trace-free.

    On a lazy rotation the errors depend on every pair revealed before the
    verification, by the other runs on the operator too, to rounding.  So a
    byte-for-byte comparison of one variant's report across changes that
    touch another variant's rounding needs one rotation per variant."""
    law = run.debias_law if law is None else law
    T, op = run.T, run.operator

    def replay(start, core: SpectralOperator) -> list:
        rows = _TraceFreeRows(start, _map_distinct(core.core_function, run.f_schedule),
                              run.template)
        for t in range(T):
            rows.append(run.phi[t, :t], run.debias[t, : t + 1])
        return rows.J

    nodes, w = law.quad_nodes()
    residuals = np.zeros((T, T))
    for t, v_t in enumerate(replay(_unit_rows(nodes.size), SpectralOperator(nodes, rotation=None))):
        residuals[t, : t + 1] = np.abs((v_t * w).sum(axis=1))
    # compared in W's eigenbasis: each r_t lies in the span a lazy rotation
    # has revealed, so O^T r reveals nothing, while O applied to the
    # reconstruction would record its rounding as new directions of O
    r_hat = np.column_stack(replay(op.to_spectral(np.column_stack(run.ubar[:T])).T, op))
    R = op.to_spectral(np.column_stack(run.r))
    errors = np.linalg.norm(r_hat - R, axis=0) / np.maximum(np.linalg.norm(R, axis=0), 1e-300)
    return UnfoldedRepresentation(
        per_t_errors=errors,
        trace_residuals=residuals,
        max_error=float(errors.max()),
    )


def ubar_divergences(run: AmpRun) -> float:
    """Max |empirical divergence of ubar_{t+1} w.r.t. r_i| — exactly zero by
    construction with analytic partials; recomputed here from scratch."""
    worst = 0.0
    R = np.vstack(run.r)
    for t, den in enumerate(run.denoisers[: run.T], start=1):
        d = den.evaluate(R[:t])[1]
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
