"""AMP engines: debiasing matrices, exact unfolding, trace/divergence
exactness, cross-variant consistency, and the run record."""

import tracemalloc
from collections import OrderedDict
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from amp_lab import engines, freeprob, se
from amp_lab.denoisers import (additive_denoiser, identity_denoiser,
                               linear_mmse_combining_denoiser, random_lipschitz_denoiser,
                               tanh_denoiser)
from amp_lab.engines import (
    HORIZON_CAP,
    as_operator,
    orthogonality_residuals,
    ri_amp_debias,
    run_gaussian_amp,
    run_oamp,
    run_ri_amp,
    run_ri_amp_df,
    run_ri_amp_mp,
    ubar_divergences,
    verify_unfolding,
)
from amp_lab.errors import DomainError, ValidationError
from amp_lab.freeprob import (_TraceFreeRows, build_poly_family, cumulants_from_law,
                              cumulants_to_moments_nc, moments_to_cumulants)
from amp_lab.laws import DiscreteGrid, MarchenkoPastur, Semicircle
from amp_lab.randmat import (RationalFn, SpectralOperator, build_rot_invariant, build_spiked,
                             goe_ensemble, make_prior, sample_goe)
from amp_lab.se import SeInit, mp_denoise_fn, ri_amp_se, spiked_se


def _setup(law, N, seed):
    ens = build_rot_invariant(law.quantile_grid(N).atoms, seed=seed)
    rng = np.random.default_rng(1000 + seed)
    u1 = rng.choice([-1.0, 1.0], size=N)
    return ens, u1


def _lip_dens(T, seed):
    return [random_lipschitz_denoiser(t, seed=seed + t) for t in range(1, T + 1)]


def _rows_e(law, fs, Phi, template="u"):
    """E from the row recursion, and the recursion itself."""
    rows = _TraceFreeRows.over(law, fs, template)
    T = len(fs)
    E = np.zeros((T, T))
    for n in range(1, T + 1):
        E[n - 1, :n] = rows.append(Phi[n - 1, : n - 1])
    return E, rows


# ---------------------------------------------------------------------------
# debiasing matrices
# ---------------------------------------------------------------------------

def test_ri_amp_debias_polynomial_in_phi():
    rng = np.random.default_rng(0)
    t = 4
    phi = np.tril(rng.uniform(-1, 1, (t, t)), k=-1)
    kappa = [0.5, 1.0, -0.2, 0.1]
    B = ri_amp_debias(kappa, phi)
    direct = sum(kappa[i] * np.linalg.matrix_power(phi, i) for i in range(t))
    assert np.max(np.abs(B - direct)) < 1e-12


def test_ri_amp_debias_rejects_nonstrictly_lower():
    with pytest.raises(ValidationError):
        ri_amp_debias([1.0], np.eye(2))


def test_mp_debias_identity_f_matches_cumulant_series():
    # f = id makes the trace-free solve reduce to B_t = sum kappa_i Phi^(i-1)
    law = MarchenkoPastur(alpha=0.3)
    rng = np.random.default_rng(1)
    t = 4
    phi = np.tril(rng.uniform(-0.5, 0.5, (t, t)), k=-1)
    E, _ = _rows_e(law, [lambda x: x] * t, phi)
    kappa = [float(k) for k in cumulants_from_law(law, t).cumulants]
    B = ri_amp_debias(kappa, phi)
    assert np.max(np.abs(E - B)) < 1e-10


@pytest.mark.parametrize("mode", ["grid", "population"])
@pytest.mark.parametrize("law", [Semicircle(), MarchenkoPastur(alpha=0.3)])
def test_run_rows_are_the_closed_form_onsager_matrices(law, mode):
    # the paper's theorem: the trace-free rows of f = identity are
    # sum_i kappa_i Phi^(i-1) for x = u (free cumulants from the moments) and
    # sum_i gamma_i Phi^(i-1) for x = ubar (the H family's centering)
    T = HORIZON_CAP
    ens, u1 = _setup(law, 300, seed=27)
    a = run_ri_amp(ens, law, _lip_dens(T, seed=270), u1, T, mode=mode)
    kappa = [float(k) for k in moments_to_cumulants(a.debias_law.moments(T)).cumulants]
    assert np.max(np.abs(a.debias - ri_amp_debias(kappa, a.phi[:T, :T]))) <= 1e-12
    ens, u1 = _setup(law, 300, seed=28)
    b = run_ri_amp_df(ens, law, _lip_dens(T, seed=280), u1, T, mode=mode)
    gamma = build_poly_family(b.debias_law, "H", T).centering
    assert np.max(np.abs(b.debias - ri_amp_debias(gamma, b.phi[:T, :T]))) <= 1e-12


def _exact_series(moments, T):
    """Free cumulants kappa_1..kappa_T and H-family centering constants
    gamma_1..gamma_T of exact moments m_1..m_T, as floats."""
    kappa = moments_to_cumulants(moments).cumulants
    m = [Fraction(1)] + list(moments)
    H, gamma = [Fraction(1)], []  # coefficients of H_{n-1}
    for _ in range(T):
        gamma.append(sum(c * m[i + 1] for i, c in enumerate(H)))  # E[Lambda H_{n-1}]
        H = [-gamma[-1]] + H  # H_n = Lambda H_{n-1} - gamma_n
    return [float(k) for k in kappa], [float(g) for g in gamma]


@pytest.mark.parametrize("case", ["grid", "population"])
def test_trace_free_rows_match_exact_series(case):
    # against the series of exact cumulants the rows err by rounding alone;
    # the float moment-to-cumulant recursion is 2.9e-14 off on this grid and
    # 1.4e-14 on the population law
    mp = MarchenkoPastur(alpha=0.3)
    T = HORIZON_CAP
    ens, u1 = _setup(mp, 1000, seed=0)
    Phi = run_ri_amp(ens, mp, _lip_dens(T, seed=0), u1, T, mode="grid").phi[:T, :T]
    if case == "grid":
        law = mp.quantile_grid(100)
        atoms = [Fraction(float(a)) for a in law.atoms]
        moments = [sum(a**n for a in atoms) / len(atoms) for n in range(1, T + 1)]
        kappa, gamma = _exact_series(moments, T)
    else:
        law = mp
        kappa = [0.3 ** (n - 1) for n in range(1, T + 1)]
        exact = [Fraction(3, 10) ** (n - 1) for n in range(1, T + 1)]
        gamma = _exact_series(cumulants_to_moments_nc(exact), T)[1]
    for template, series in (("u", kappa), ("ubar", gamma)):
        E, _ = _rows_e(law, [lambda x: x] * T, Phi, template)
        assert np.max(np.abs(E - ri_amp_debias(series, Phi))) <= 1e-14


def test_mp_debias_constant_schedule_is_pushforward_cumulants():
    law = MarchenkoPastur(alpha=0.25)
    f = mp_denoise_fn(1.2, 0.25)
    rng = np.random.default_rng(2)
    t = 4
    phi = np.tril(rng.uniform(-0.5, 0.5, (t, t)), k=-1)
    E, _ = _rows_e(law, [f] * t, phi)
    nodes, w = law.quad_nodes()
    fmoms = [float(w @ np.asarray(f(nodes)) ** n) for n in range(1, t + 1)]
    kap = [float(k) for k in moments_to_cumulants(fmoms).cumulants]
    direct = sum(kap[i] * np.linalg.matrix_power(phi, i) for i in range(t))
    assert np.max(np.abs(E - direct)) < 1e-8


def test_mp_debias_rows_appended_per_step_match_full_solve():
    # the run solves one new row per step; the full solve at the horizon
    # re-solves every row from the final Phi
    law = MarchenkoPastur(alpha=0.3)
    N, T = 300, 6
    ens, u1 = _setup(law, N, 4)
    f = mp_denoise_fn(1.2, 0.3)
    run = run_ri_amp_mp(ens, law, f, _lip_dens(T, 4), u1, T, mode="grid")
    E, _ = _rows_e(run.debias_law, [f] * T, run.phi[:T, :T])
    assert np.max(np.abs(run.debias - E)) <= 1e-12 * np.max(np.abs(E))


def _dense_j(F, E, Phi):
    """J = (F - E)(I - Phi (F - E))^{-1} at each node by a dense solve, with
    F[:, a] = f_1..f_T at node a: (nodes, T, T)."""
    T = Phi.shape[0]
    FmE = np.broadcast_to(-E, (F.shape[1], T, T)).copy()
    FmE[:, np.arange(T), np.arange(T)] += F.T
    return np.linalg.solve(np.eye(T) - FmE @ Phi, FmE)


@pytest.mark.parametrize("mode", ["grid", "population"])
def test_trace_free_rows_match_dense_solve_per_node(mode):
    # the row recursion against its definition: at every node, J from one
    # dense T x T solve with the returned E; the rows match J and the E they
    # return makes E_mu[J] vanish
    mp = MarchenkoPastur(alpha=0.3)
    law = mp.quantile_grid(300) if mode == "grid" else mp
    T = 6
    quad = lambda x: 0.5 - x + 0.3 * x**2
    fs = [mp_denoise_fn(1.2, 0.3) if t % 2 else quad for t in range(T)]
    Phi = np.tril(np.random.default_rng(3).uniform(-0.5, 0.5, (T, T)), k=-1)
    E, rows = _rows_e(law, fs, Phi)
    nodes, w = law.quad_nodes()
    J = _dense_j(np.vstack([f(nodes) for f in fs]), E, Phi)
    scale = np.max(np.abs(J))
    for n in range(1, T + 1):
        assert np.max(np.abs(rows.J[n - 1].T - J[:, n - 1, :n])) <= 1e-12 * scale
    assert np.max(np.abs(np.einsum("a,ast->st", w, J))) <= 1e-12


def _long_double_e(F, w, Phi):
    """E of the row recursion in long double: S_n = e_n + sum_k Phi_{n,k} J_k,
    J_n = F S_n - sum_m E_{n,m} S_m, row n of E by back substitution in
    E_mu[S]^T e = E_mu[F S_n]."""
    T = Phi.shape[0]
    S, J = [], []
    S_mean = np.zeros((T, T), dtype=np.longdouble)
    E = np.zeros((T, T), dtype=np.longdouble)
    for n in range(1, T + 1):
        s = np.zeros((n, F.size), dtype=np.longdouble)
        s[n - 1] = 1
        for k, j_k in enumerate(J):
            s[: k + 1] += Phi[n - 1, k] * j_k
        j = F * s
        S.append(s)
        S_mean[n - 1, :n] = (s * w).sum(axis=1)
        rhs = (j * w).sum(axis=1)
        for m in reversed(range(n)):
            E[n - 1, m] = (rhs[m] - S_mean[m + 1 : n, m] @ E[n - 1, m + 1 : n]) / S_mean[m, m]
        for m, s_m in enumerate(S):
            j[: m + 1] -= E[n - 1, m] * s_m
        J.append(j)
    return E


def _all_atom_e(grid, f, Phi):
    """The long-double rows at every atom of a grid, for one f."""
    nodes, w = grid.quad_nodes()
    return _long_double_e(np.asarray(f(nodes), dtype=np.longdouble),
                          w.astype(np.longdouble), Phi.astype(np.longdouble))


@pytest.mark.parametrize("N", [2000, 100_000])
@pytest.mark.parametrize("case", ["semicircle", "mp"])
def test_lanczos_rule_rows_match_all_atom_rows(case, N):
    # one f over a grid: the rows live on the T + 1 point Gauss rule of the
    # pushforward, exact for every entry's degree <= T, so E matches the
    # long-double rows at every atom to rounding
    if case == "semicircle":
        grid, f = Semicircle().quantile_grid(N), lambda x: x + 0.3 * x**2
    else:
        grid, f = MarchenkoPastur(alpha=0.3).quantile_grid(N), mp_denoise_fn(1.2, 0.3)
    T = 10
    Phi = np.tril(np.random.default_rng(4).uniform(-0.5, 0.5, (T, T)), k=-1)
    E, rows = _rows_e(grid, [f] * T, Phi)
    assert rows.w.size == T + 1
    ref = _all_atom_e(grid, f, Phi)
    assert float(np.max(np.abs(E - ref)) / np.max(np.abs(ref))) <= 1e-13


def test_node_path_mean_is_a_pairwise_sum():
    # a schedule of distinct f objects keeps the rows at every atom of a
    # 10^5-point grid; E from the float64 rows agrees with a long-double run
    # of the same recursion on the same float64 inputs
    grid = MarchenkoPastur(alpha=0.3).quantile_grid(100_000)
    T = 10
    fs = [mp_denoise_fn(1.2, 0.3) for _ in range(T)]
    Phi = np.tril(np.random.default_rng(6).uniform(-0.5, 0.5, (T, T)), k=-1)
    E, rows = _rows_e(grid, fs, Phi)
    assert rows.w.size == grid.atoms.size
    del rows
    ref = _all_atom_e(grid, fs[0], Phi)
    assert float(np.max(np.abs(E - ref)) / np.max(np.abs(ref))) <= 1e-15


@pytest.mark.parametrize("N,kind,width", [(1, "quadratic", 1), (2, "quadratic", 2),
                                          (3, "quadratic", 3), (500, "constant", 1)])
def test_lanczos_rule_breakdown_matches_all_atom_solve(N, kind, width):
    # fewer distinct values of f than the T + 1 = 11 rule points: Lanczos
    # stops early, and its smaller rule reproduces the law
    grid = DiscreteGrid(atoms=np.linspace(-1.0, 1.5, N))
    f = (lambda x: np.full_like(x, 0.7)) if kind == "constant" else (lambda x: x + 0.3 * x**2)
    T = 10
    Phi = np.tril(np.random.default_rng(5).uniform(-0.5, 0.5, (T, T)), k=-1)
    E, rows = _rows_e(grid, [f] * T, Phi)
    assert rows.w.size == width
    ref = _all_atom_e(grid, f, Phi)
    assert float(np.max(np.abs(E - ref)) / np.max(np.abs(ref))) <= 1e-13


def test_grid_mode_trace_free_rows_are_not_n_wide(monkeypatch):
    # a grid run, SE on a grid and spiked SE on a grid (over mu and over nu)
    # keep no row at every atom, and every instance the verifier makes is
    # given the run's recorded E rows and never solves
    made = []

    class Recording(_TraceFreeRows):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.given = []
            made.append(self)

        def append(self, phi_row, e_row=None):
            self.given.append(e_row)
            return super().append(phi_row, e_row)

    monkeypatch.setattr(engines, "_TraceFreeRows", Recording)
    monkeypatch.setattr(se, "_TraceFreeRows", Recording)
    law, N, T = MarchenkoPastur(alpha=0.2), 300, 6
    ens, u1 = _setup(law, N, seed=8)
    f = mp_denoise_fn(1.5, 0.2)
    run = run_ri_amp_mp(ens, law, f, _lip_dens(T, seed=80), u1, T, mode="grid")
    grid = law.quantile_grid(N)
    ri_amp_se(grid, [tanh_denoiser(t) for t in range(1, T + 1)],
              SeInit(prior=make_prior("rademacher")), T)
    fac = lambda t, beta, Sigma: linear_mmse_combining_denoiser(beta, Sigma)
    spiked_se(grid, 1.5, f, fac, SeInit(prior=make_prior("rademacher"), omega=0.3), T)
    assert len(made) == 4
    for rows in made:
        assert rows.w.size <= T + 1
        assert {a.shape[1] for a in rows.X + rows.J} == {rows.w.size}
    verify_unfolding(run)
    assert len(made) == 6
    for rows in made[4:]:
        assert len(rows.given) == T and not rows.X_mean.any()
        for t, e in enumerate(rows.given):
            assert np.array_equal(e, run.debias[t, : t + 1])


# ---------------------------------------------------------------------------
# exact unfolding (grid mode)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("variant", ["ri-amp", "ri-amp-df", "ri-amp-mp"])
def test_unfolding_exact(variant):
    law = Semicircle()
    N, T = 300, 4
    ens, u1 = _setup(law, N, seed=3)
    dens = _lip_dens(T, seed=50)
    if variant == "ri-amp":
        run = run_ri_amp(ens, law, dens, u1, T, mode="grid")
    elif variant == "ri-amp-df":
        run = run_ri_amp_df(ens, law, dens, u1, T, mode="grid")
    else:
        run = run_ri_amp_mp(ens, law, lambda x: x + 0.3 * x**2, dens, u1, T, mode="grid")
    rep = verify_unfolding(run)
    assert rep.max_error < 1e-10
    assert np.max(rep.trace_residuals) < 1e-9
    assert ubar_divergences(run) < 1e-12


@pytest.mark.parametrize("variant", ["ri-amp", "ri-amp-df", "ri-amp-mp-poly",
                                     "ri-amp-mp-denoise"])
def test_unfolding_by_products_matches_dense_reference(variant):
    # the product form on a non-spiked run against O diag(V(lambda)) O^T
    # with V the unfolding matrix at every eigenvalue, O formed densely
    law = MarchenkoPastur(alpha=0.3)
    N, T = 200, 5
    ens, u1 = _setup(law, N, seed=22)
    dens = _lip_dens(T, seed=220)
    if variant == "ri-amp":
        run = run_ri_amp(ens, law, dens, u1, T, mode="grid")
    elif variant == "ri-amp-df":
        run = run_ri_amp_df(ens, law, dens, u1, T, mode="grid")
    else:
        f = (lambda x: x + 0.3 * x**2) if variant == "ri-amp-mp-poly" else mp_denoise_fn(1.2, 0.3)
        run = run_ri_amp_mp(ens, law, f, dens, u1, T, mode="grid")
    lam, Phi = ens.eigenvalues, run.phi[:T, :T]
    if variant.startswith("ri-amp-mp"):
        F = np.vstack([f(lam) for f in run.f_schedule])
        V = np.transpose(_dense_j(F, np.tril(run.debias), Phi), (1, 2, 0))
    else:
        fam = build_poly_family(run.debias_law, "Q" if run.template == "u" else "H", T)
        vals = [np.polynomial.polynomial.polyval(lam, fam.coeffs[i]) for i in range(1, T + 1)]
        V = sum(np.linalg.matrix_power(Phi, i)[:, :, None] * vals[i] for i in range(T))
    O = ens.rotation.dense()
    fs = run.f_schedule or [RationalFn(coeffs=(0.0, 1.0))] * T
    S = ens.to_spectral(np.column_stack(run.ubar[:T])).T
    rows = _TraceFreeRows(S, [ens.core_function(f) for f in fs], run.template)
    for t in range(T):
        rows.append(run.phi[t, :t], run.debias[t, : t + 1])
    products = O @ np.column_stack(rows.J)
    spec = O.T @ np.column_stack(run.ubar[:T])
    dense = O @ np.einsum("tjn,nj->nt", V * np.tri(T)[:, :, None], spec)
    err = np.linalg.norm(products - dense, axis=0) / np.linalg.norm(dense, axis=0)
    assert np.max(err) <= 1e-12


def test_unfolding_exact_spiked_mp_denoise():
    # a spiked instance runs through the secular factorization of Y; the
    # unfolding identity holds in Y's eigenbasis (acceptance 5/6 bounds)
    law = MarchenkoPastur(alpha=0.3)
    N, T, theta = 500, 4, 1.5
    ens, u1 = _setup(law, N, seed=6)
    Y, _ = build_spiked(theta, make_prior("rademacher"), ens, seed=7)
    run = run_ri_amp_mp(Y, law, mp_denoise_fn(theta, 0.3), _lip_dens(T, seed=80),
                        u1, T, mode="grid")
    rep = verify_unfolding(run)
    assert rep.max_error <= 1e-8
    assert np.max(rep.trace_residuals) <= 1e-9


@pytest.mark.parametrize("variant", ["ri-amp", "ri-amp-df", "ri-amp-mp-cubic"])
def test_unfolding_exact_spiked_by_products(variant):
    # polynomial unfolding entries (and a polynomial RI-AMP-MP schedule) are
    # applied to a spiked run by products with its core, without eigenvectors
    law = MarchenkoPastur(alpha=0.3)
    N, T = 400, 5
    ens, u1 = _setup(law, N, seed=12)
    Y, _ = build_spiked(1.5, make_prior("rademacher"), ens, seed=13)
    dens = _lip_dens(T, seed=120)
    if variant == "ri-amp":
        run = run_ri_amp(Y, law, dens, u1, T, mode="grid")
    elif variant == "ri-amp-df":
        run = run_ri_amp_df(Y, law, dens, u1, T, mode="grid")
    else:
        cubics = [RationalFn(coeffs=(0.1 * t, 1.0, -0.3, 0.05 * t)) for t in range(1, T + 1)]
        run = run_ri_amp_mp(Y, law, cubics, dens, u1, T, mode="grid")
    rep = verify_unfolding(run)
    assert rep.max_error <= 1e-8
    assert np.max(rep.trace_residuals) <= 1e-9


def test_spiked_run_allocates_no_n_by_n_array():
    # after the instance is built, a spiked RI-AMP-MP run holds O(N T^2)
    # numbers: Y's eigenvector matrix alone would be 8 N^2 bytes
    law = MarchenkoPastur(alpha=0.2)
    N, T, theta = 1000, 4, 1.5
    ens, _ = _setup(law, N, seed=14)
    Y, x = build_spiked(theta, make_prior("rademacher"), ens, seed=15)
    u1 = 0.5 * x + np.random.default_rng(16).standard_normal(N)
    dens, f = _lip_dens(T, seed=140), mp_denoise_fn(theta, 0.2)
    tracemalloc.start()
    try:
        run_ri_amp_mp(Y, law, f, dens, u1, T, mode="grid")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.25 * 8 * N * N


def test_ri_amp_run_allocates_no_n_by_n_array():
    # building the ensemble and running RI-AMP at the horizon cap holds the
    # rotation's revealed pairs and the iterates, O(N T) numbers; the N x N
    # Householder reflectors of a full Haar draw were 0.5 of 8 N^2 bytes
    law = MarchenkoPastur(alpha=0.3)
    N, T = 20000, HORIZON_CAP
    grid = law.quantile_grid(N).atoms
    u1 = np.random.default_rng(21).choice([-1.0, 1.0], size=N)
    dens = [tanh_denoiser(t) for t in range(1, T + 1)]
    tracemalloc.start()
    try:
        ens = build_rot_invariant(grid, seed=20)
        run_ri_amp(ens, law, dens, u1, T, mode="grid")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.02 * 8 * N * N


def test_grid_mp_run_and_verify_hold_no_t_by_t_matrix_per_eigenvalue():
    # tracemalloc peaks, in length-N vectors, of a grid-mode RI-AMP-MP run at
    # the horizon cap (ensemble build included) and of verify_unfolding above
    # what the run left allocated: the debias rows of S and J at the N atoms
    # are T (T + 1) = 110 vectors, and neither side forms a T x T matrix per
    # eigenvalue (100 vectors each)
    law = MarchenkoPastur(alpha=0.3)
    N, T = 20000, HORIZON_CAP
    grid = law.quantile_grid(N).atoms
    u1 = np.random.default_rng(23).choice([-1.0, 1.0], size=N)
    dens = [tanh_denoiser(t) for t in range(1, T + 1)]
    tracemalloc.start()
    try:
        ens = build_rot_invariant(grid, seed=24)
        run = run_ri_amp_mp(ens, law, mp_denoise_fn(1.2, 0.3), dens, u1, T, mode="grid")
        run_peak = tracemalloc.get_traced_memory()[1]
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        rep = verify_unfolding(run)
        verify_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert rep.max_error <= 1e-8
    assert run_peak <= 400 * 8 * N
    assert verify_peak <= 400 * 8 * N


def test_spiked_runs_need_rational_matrix_functions():
    law = MarchenkoPastur(alpha=0.3)
    ens, u1 = _setup(law, 100, seed=17)
    Y, _ = build_spiked(1.5, make_prior("rademacher"), ens, seed=18)
    dens = _lip_dens(2, seed=170)
    with pytest.raises(ValidationError, match="rational"):
        run_ri_amp_mp(Y, law, lambda x: x + 0.3 * x**2, dens, u1, 2, mode="grid")
    with pytest.raises(ValidationError, match="spiked"):
        run_oamp(Y, [RationalFn(coeffs=(0.0, 1.0))] * 2, dens, u1, 2)


def test_spiked_pole_check_on_w_and_y():
    # a pole at 0 fails when 0 is an eigenvalue of W or of Y; Y is singular
    # here although W is not: D = diag(-1, 1) + e_1 e_1^T = diag(0, 1)
    pole = RationalFn(coeffs=(1.0,), pole=2.0)
    sing_y = SpectralOperator(eigenvalues=np.array([-1.0, 1.0]), rotation=np.eye(2),
                              z=np.array([1.0, 0.0]), rho=1.0)
    with pytest.raises(DomainError, match="eigenvalue of Y"):
        sing_y.function(pole)
    sing_w, _ = build_spiked(1.0, make_prior("rademacher"),
                             SpectralOperator(eigenvalues=np.array([0.0, 1.0]),
                                              rotation=np.eye(2)), seed=0)
    with pytest.raises(DomainError, match="eigenvalue of W"):
        as_operator(sing_w).function(pole)
    as_operator(sing_w).function(RationalFn(coeffs=(1.0, 2.0)))  # no pole: fine


def test_verify_unfolding_reveals_no_direction_of_the_rotation():
    # every r_t lies in the span the run revealed, so the verifier compares
    # in W's eigenbasis and its queries record no pair: verifying a run does
    # not change the draws of later runs on the same ensemble
    law = MarchenkoPastur(alpha=0.3)
    N, T = 500, HORIZON_CAP
    for seed in range(8):
        ens, u1 = _setup(law, N, seed)
        run = run_ri_amp(ens, law, _lip_dens(T, seed), u1, T, mode="grid")
        revealed = ens.rotation.pairs.k
        verify_unfolding(run)
        assert ens.rotation.pairs.k == revealed


def test_verify_unfolding_maps_each_distinct_f_once():
    # a T = 10 run of one f: the verifier maps f once at the law's nodes and
    # once at the eigenvalues, not once per step, and its report is bit for
    # bit that of the same record with T distinct copies of f
    calls = []

    def f(x):
        calls.append(np.shape(x))
        return x + 0.3 * x**2

    law, N, T = Semicircle(), 300, HORIZON_CAP
    ens, u1 = _setup(law, N, seed=5)
    run = run_ri_amp_mp(ens, law, f, _lip_dens(T, seed=70), u1, T, mode="grid")
    calls.clear()
    rep = verify_unfolding(run)
    assert calls == [(N,), (N,)]
    copies = replace(run, f_schedule=[lambda x: f(x) for _ in range(T)])
    again = verify_unfolding(copies)
    assert len(calls) == 2 + 2 * T
    assert np.array_equal(rep.per_t_errors, again.per_t_errors)
    assert np.array_equal(rep.trace_residuals, again.trace_residuals)


def test_a_session_builds_one_gauss_rule_per_grid_and_f(monkeypatch):
    # three variants on two seeds of one grid: ri-amp and ri-amp-df share
    # f = identity, ri-amp-mp has its own f, so two rules, not six
    built = []
    orig = freeprob._gauss_rule
    monkeypatch.setattr(freeprob, "_RULES", OrderedDict())
    monkeypatch.setattr(freeprob, "_gauss_rule", lambda *a: built.append(a) or orig(*a))
    law, N, T = MarchenkoPastur(alpha=0.3), 300, 6
    f = mp_denoise_fn(1.2, 0.3)
    for seed in (1, 2):
        ens, u1 = _setup(law, N, seed=seed)
        dens = _lip_dens(T, seed=10 * seed)
        run_ri_amp(ens, law, dens, u1, T)
        run_ri_amp_df(ens, law, dens, u1, T)
        run_ri_amp_mp(ens, law, f, dens, u1, T)
    assert len(built) == 2


def test_a_run_evaluates_the_denoiser_link_once_per_step(monkeypatch):
    calls = {"link": 0, "slope": 0, "tanh": 0}

    def counted(name, g):
        def fn(*args):
            calls[name] += 1
            return g(*args)
        return fn

    law, N, T = Semicircle(), 300, HORIZON_CAP
    ens, u1 = _setup(law, N, seed=3)
    link, slope = counted("link", np.tanh), counted("slope", lambda a, g: 1.0 - g ** 2)
    dens = [additive_denoiser("tanh", np.eye(t)[-1:], link, slope) for t in range(1, T + 1)]
    # np.tanh counted from here: only the link evaluates it
    monkeypatch.setattr(np, "tanh", counted("tanh", np.tanh))
    run = run_ri_amp(ens, law, dens, u1, T)
    assert calls == {"link": T, "slope": T, "tanh": 0}
    assert ubar_divergences(run) == 0.0
    # a tanh link takes g' = 1 - g^2 from the same values: one tanh a step
    run = run_ri_amp(ens, law, [tanh_denoiser(t, scale=1.3) for t in range(1, T + 1)], u1, T)
    assert calls["tanh"] == T
    assert ubar_divergences(run) == 0.0


def test_unfolding_population_mode_approximate():
    # population-law cumulants are not the grid's at finite N, but the
    # verifier replays the run's recorded Onsager rows, so a population-mode
    # run reconstructs exactly and is trace-free under its population law
    law = Semicircle()
    ens, u1 = _setup(law, 500, seed=4)
    dens = _lip_dens(3, seed=60)
    run = run_ri_amp(ens, law, dens, u1, 3, mode="population")
    rep = verify_unfolding(run, law=law)
    assert rep.max_error < 1e-12
    assert np.max(rep.trace_residuals) < 1e-12


def test_population_mode_run_is_not_trace_free_under_its_grid():
    # the same run verified under its realized grid: the reconstruction does
    # not depend on the law, the trace residuals show the cumulant mismatch
    law = Semicircle()
    ens, u1 = _setup(law, 500, seed=4)
    run = run_ri_amp(ens, law, _lip_dens(3, seed=60), u1, 3, mode="population")
    rep = verify_unfolding(run, law=DiscreteGrid(atoms=np.sort(ens.eigenvalues)))
    assert rep.max_error <= 1e-12
    assert np.max(rep.trace_residuals) > 1e-5


@pytest.mark.parametrize("variant", ["ri-amp", "ri-amp-df", "ri-amp-mp", "oamp"])
def test_unfolding_reads_the_recorded_onsager_rows(variant):
    # one recorded debias entry off by 1e-6 no longer reconstructs r
    law = MarchenkoPastur(alpha=0.3)
    N, T = 300, 4
    ens, u1 = _setup(law, N, seed=25)
    dens = _lip_dens(T, seed=250)
    if variant == "ri-amp":
        run = run_ri_amp(ens, law, dens, u1, T, mode="grid")
    elif variant == "ri-amp-df":
        run = run_ri_amp_df(ens, law, dens, u1, T, mode="grid")
    elif variant == "ri-amp-mp":
        run = run_ri_amp_mp(ens, law, mp_denoise_fn(1.2, 0.3), dens, u1, T, mode="grid")
    else:
        run = run_oamp(ens, [mp_denoise_fn(1.2, 0.3)] * T, dens, u1, T)
    assert verify_unfolding(run).max_error <= 1e-12
    run.debias[2, 1] += 1e-6
    assert verify_unfolding(run).max_error > 1e-8


@pytest.mark.parametrize("law", [Semicircle(), MarchenkoPastur(alpha=0.3)])
def test_oamp_unfolds_exactly(law):
    # OAMP is the shared template with Phi = 0: x_t = V_{t,t}(W) xbar_t with
    # V_{t,t} = f_t - E_mu f_t, a different f at each step
    N, T = 400, HORIZON_CAP
    ens, u1 = _setup(law, N, seed=26)
    fs = [RationalFn(coeffs=(0.1 * t, 1.0, -0.2 + 0.05 * t)) for t in range(T)]
    run = run_oamp(ens, fs, _lip_dens(T, seed=260), u1, T)
    rep = verify_unfolding(run)
    assert rep.max_error <= 1e-13
    assert np.max(rep.trace_residuals) <= 1e-13
    assert ubar_divergences(run) <= 1e-13


def test_unfolding_breaks_with_tampered_cumulants():
    # perturbing the debias law must break grid-mode trace exactness
    law = Semicircle()
    ens, u1 = _setup(law, 200, seed=5)
    dens = _lip_dens(3, seed=70)
    run = run_ri_amp(ens, law, dens, u1, 3, mode="grid")
    good = verify_unfolding(run)
    assert np.max(good.trace_residuals) < 1e-9
    tampered = DiscreteGrid(atoms=np.sort(ens.eigenvalues) + 1e-3)
    bad = verify_unfolding(run, law=tampered)
    assert np.max(bad.trace_residuals) > 1e-5
    # RI-AMP-MP: the debias rows are solved from the given law
    mp = MarchenkoPastur(alpha=0.3)
    ens, u1 = _setup(mp, 300, seed=5)
    run = run_ri_amp_mp(ens, mp, mp_denoise_fn(1.2, 0.3), _lip_dens(4, seed=70), u1, 4,
                        mode="grid")
    good = verify_unfolding(run)
    assert np.max(good.trace_residuals) < 1e-9
    tampered = DiscreteGrid(atoms=np.sort(ens.eigenvalues) + 1e-3)
    bad = verify_unfolding(run, law=tampered)
    assert np.max(bad.trace_residuals) > 1e-5


def test_gaussian_amp_unfolds_exactly_on_goe():
    # Gaussian AMP is RI-AMP debiased by the unit semicircle, so a GOE run
    # unfolds over the semicircle's Q family like any population-mode run
    ens = goe_ensemble(300, seed=6)
    rng = np.random.default_rng(7)
    u1 = rng.choice([-1.0, 1.0], size=300)
    dens = [tanh_denoiser(1) for _ in range(4)]
    rep = verify_unfolding(run_gaussian_amp(ens, dens, u1, 4))
    assert rep.max_error <= 1e-8
    assert np.max(rep.trace_residuals) <= 1e-9


def test_cross_variant_first_step_identical():
    law = MarchenkoPastur(alpha=0.3)
    ens, u1 = _setup(law, 200, seed=8)
    dens = _lip_dens(1, seed=80)
    r1 = run_ri_amp(ens, law, dens, u1, 1, mode="grid").r[0]
    r2 = run_ri_amp_df(ens, law, dens, u1, 1, mode="grid").r[0]
    r3 = run_ri_amp_mp(ens, law, lambda x: x, dens, u1, 1, mode="grid").r[0]
    assert np.max(np.abs(r1 - r2)) < 1e-12
    assert np.max(np.abs(r1 - r3)) < 1e-10


def test_mp_identity_f_equals_ri_amp_trajectory():
    # RI-AMP is RI-AMP-MP with f = identity, bit for bit: one template and
    # one row recursion, each run on its own ensemble drawn from one seed
    T = 4
    dens = _lip_dens(T, seed=90)
    for law in (Semicircle(), MarchenkoPastur(alpha=0.2)):
        for mode in ("grid", "population"):
            ens, u1 = _setup(law, 250, seed=9)
            a = run_ri_amp(ens, law, dens, u1, T, mode=mode)
            twin, _ = _setup(law, 250, seed=9)
            b = run_ri_amp_mp(twin, law, lambda x: x, dens, u1, T, mode=mode)
            for name in ("r", "u", "ubar"):
                assert all(np.array_equal(x, y)
                           for x, y in zip(getattr(a, name), getattr(b, name)))
            assert np.array_equal(a.debias, b.debias)


def test_goe_population_debias_equals_divergence_matrix():
    # semicircle cumulants (0,1,0,...) collapse B_t to the divergence matrix:
    # the Onsager row at step t is exactly the recorded divergences of u_t
    ens = goe_ensemble(500, seed=10)
    rng = np.random.default_rng(11)
    u1 = rng.choice([-1.0, 1.0], size=500)
    T = 4
    dens = [tanh_denoiser(t) for t in range(1, T + 1)]
    run = run_ri_amp(ens, Semicircle(), dens, u1, T, mode="population")
    assert np.max(np.abs(run.debias - run.phi[:T, :T])) < 1e-12


def test_determinism_bit_identical():
    # an ensemble carries the revealed part of its rotation, so each run gets
    # its own ensemble, built from the same seed
    law = Semicircle()
    dens = _lip_dens(3, seed=100)
    runs = []
    for _ in range(2):
        ens, u1 = _setup(law, 150, seed=12)
        runs.append(run_ri_amp(ens, law, dens, u1, 3, mode="grid"))
    a, b = runs
    for t in range(3):
        assert np.array_equal(a.r[t], b.r[t])
        assert np.array_equal(a.u[t + 1], b.u[t + 1])


def test_repeat_run_on_one_ensemble_agrees():
    # the second run queries only revealed directions of the rotation
    law = Semicircle()
    ens, u1 = _setup(law, 150, seed=12)
    dens = _lip_dens(3, seed=100)
    a = run_ri_amp(ens, law, dens, u1, 3, mode="grid")
    b = run_ri_amp(ens, law, dens, u1, 3, mode="grid")
    for t in range(3):
        assert np.max(np.abs(a.r[t] - b.r[t])) <= 1e-12
        assert np.max(np.abs(a.u[t + 1] - b.u[t + 1])) <= 1e-12


def test_horizon_cap():
    law = Semicircle()
    ens, u1 = _setup(law, 64, seed=13)
    with pytest.raises(ValidationError):
        run_ri_amp(ens, law, _lip_dens(HORIZON_CAP + 1, 0), u1, HORIZON_CAP + 1)


def test_orthogonality_residuals_small():
    law = Semicircle()
    ens, u1 = _setup(law, 2000, seed=14)
    T = 3
    dens = [tanh_denoiser(t) for t in range(1, T + 1)]
    run = run_ri_amp(ens, law, dens, u1, T, mode="grid")
    res = orthogonality_residuals(run)
    assert np.max(res) < 0.08  # single-seed bound; seed averages are tighter


def test_oamp_residuals_approximately_orthogonal():
    law = MarchenkoPastur(alpha=0.3)
    N, T = 1500, 3
    ens, u1 = _setup(law, N, seed=15)
    f = lambda x: x
    dens = _lip_dens(T, seed=110)
    run = run_oamp(ens, [f] * T, dens, u1, T)
    # divergence removal makes <x_i, xbar_{t+1}>/N vanish asymptotically
    for t in range(1, T):
        for i in range(t):
            assert abs(run.r[i] @ run.ubar[t] / N) < 0.05


def test_gaussian_amp_requires_arity_one():
    # only single-memory denoisers: eta_{t+1} reads r_t alone
    ens = goe_ensemble(100, seed=16)
    dens = [identity_denoiser(1)] + [random_lipschitz_denoiser(2, 0)] * 3
    with pytest.raises(ValidationError):
        run_gaussian_amp(ens, dens, np.zeros(100), 2)


def test_gaussian_amp_is_ri_amp_under_semicircle_cumulants():
    # the paper's reduction: with cumulants (0, 1, 0, ...) the RI-AMP debias
    # matrix is Phi_hat, whose rows are the single-memory Onsager terms
    ens = goe_ensemble(500, seed=21)
    u1 = np.random.default_rng(22).choice([-1.0, 1.0], size=500)
    T = 6
    a = run_gaussian_amp(ens, [tanh_denoiser(1) for _ in range(T)], u1, T)
    b = run_ri_amp(ens, Semicircle(), [tanh_denoiser(t) for t in range(1, T + 1)], u1, T,
                   mode="population")
    for name in ("r", "u", "ubar"):
        assert all(np.array_equal(x, y) for x, y in zip(getattr(a, name), getattr(b, name)))
    assert np.array_equal(a.phi, b.phi)
    assert np.array_equal(a.debias, b.debias)


def test_oamp_ubar_divergences_detect_tampered_phi():
    law = MarchenkoPastur(alpha=0.3)
    ens, u1 = _setup(law, 300, seed=19)
    T = 3
    run = run_oamp(ens, [lambda x: x] * T, _lip_dens(T, seed=130), u1, T)
    assert ubar_divergences(run) < 1e-12
    # the x-step subtracts only its centering tr f_t(W) / N times xbar_t
    centering = np.eye(T) * ens.eigenvalues.mean()
    assert np.max(np.abs(run.debias - centering)) <= 1e-15
    run.phi[2, :2] += 1.0
    assert ubar_divergences(run) >= 0.5


def test_ri_amp_mp_rejects_f_undefined_at_an_eigenvalue():
    ens = build_rot_invariant(np.array([-1.0, 0.0, 1.0, 2.0]), seed=0)
    dens = [identity_denoiser(1)]
    with pytest.raises(DomainError):
        run_ri_amp_mp(ens, None, lambda x: 1.0 / x, dens, np.ones(4), 1)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_dense_input_with_non_finite_entries_rejected(bad):
    W = sample_goe(50, seed=1)
    W[3, 7] = W[7, 3] = bad
    with pytest.raises(ValidationError, match="non-finite"):
        run_ri_amp(W, None, _lip_dens(1, seed=0), np.ones(50), 1)


def test_dense_input_must_be_symmetric():
    # a non-symmetric A is refused rather than run as the matrix eigh builds
    # from its lower triangle; asymmetry at rounding level is accepted
    rng = np.random.default_rng(2)
    A = rng.standard_normal((50, 50)) / np.sqrt(50)
    with pytest.raises(ValidationError, match="not symmetric"):
        run_ri_amp(A, None, _lip_dens(1, seed=0), np.ones(50), 1)
    W = sample_goe(50, seed=3)
    noise = rng.standard_normal((50, 50))
    W_rounded = W + 1e-14 * np.max(np.abs(W)) * (noise - noise.T)
    v = rng.standard_normal(50)
    assert np.linalg.norm(as_operator(W_rounded).apply(v) - W @ v) <= 1e-12 * np.linalg.norm(W @ v)


def test_nonfinite_denoiser_output_raises():
    law = Semicircle()
    ens, u1 = _setup(law, 64, seed=18)
    bad = additive_denoiser("bad", [1.0], lambda s: s * np.inf, lambda a, g: np.zeros_like(a))
    from amp_lab.errors import NumericalError
    with pytest.raises(NumericalError):
        run_ri_amp(ens, law, [bad], u1, 1, mode="grid")
