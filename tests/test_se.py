"""State evolution: covariance forms, expectation engines, the overlap limit
measure, and the spiked recursion."""

import json
import math
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np
import pytest

from amp_lab import se
from amp_lab.cli import ALL_ALGOS, SPIKED_ALGOS, ExperimentConfig, compute_se, main
from amp_lab.denoisers import (Denoiser, linear_mmse_combining_denoiser,
                               random_lipschitz_denoiser, tanh_denoiser)
from amp_lab.freeprob import _TraceFreeRows, cumulants_from_law, phi_powers
from amp_lab.errors import NumericalError, ValidationError
from amp_lab.laws import (DiscreteGrid, ExternalDensity, MarchenkoPastur, Semicircle, catalan,
                          parse_law_spec)
from amp_lab.randmat import (Prior, RationalFn, build_rot_invariant, build_spiked, make_prior,
                             overlap_measure, parse_prior_spec)
from amp_lab.se import (
    GH_POINTS,
    SeInit,
    check_pole_free,
    fan_se_form,
    find_outlier,
    gaussian_amp_se,
    mp_denoise_fn,
    nu_measure,
    oamp_se,
    ri_amp_df_se,
    ri_amp_mp_se,
    ri_amp_se,
    spiked_se,
    theorem_sigma,
    _family_gram,
)
from test_denoisers import constant_denoiser


# ---------------------------------------------------------------------------
# covariance forms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("law", [Semicircle(), MarchenkoPastur(alpha=0.3)])
def test_covariance_forms_equivalent(law):
    kappa = [float(k) for k in cumulants_from_law(law, 10).cumulants]
    _, gram, _, _ = _family_gram(law, "Q", 5)
    rng = np.random.default_rng(3)
    for _ in range(50):
        t = int(rng.integers(1, 6))
        Phi = np.tril(rng.uniform(-1, 1, (t, t)), k=-1)
        A = rng.uniform(-1, 1, (t, t))
        DeltaBar = A @ A.T / t + np.eye(t)
        Sigma = theorem_sigma(gram[:t, :t], Phi, DeltaBar)
        Delta = DeltaBar + Phi @ Sigma @ Phi.T
        Sigma2 = fan_se_form(kappa, Phi, Delta)
        assert np.max(np.abs(Sigma - Sigma2)) < 1e-8
        assert np.max(np.abs(Delta - (DeltaBar + Phi @ Sigma2 @ Phi.T))) < 1e-9


def test_fan_form_needs_enough_cumulants():
    with pytest.raises(ValidationError):
        fan_se_form([0.0, 1.0], np.zeros((3, 3)), np.eye(3))


def test_theorem_sigma_t1_is_variance():
    # Sigma_1 = E[Q_1^2] DeltaBar_1 = Var(Lambda) for a unit signal
    law = MarchenkoPastur(alpha=0.4)
    _, gram, _, _ = _family_gram(law, "Q", 1)
    Sigma = theorem_sigma(gram, np.zeros((1, 1)), np.array([[1.0]]))
    assert abs(Sigma[0, 0] - (law.moment(2) - law.moment(1) ** 2)) < 1e-10


# ---------------------------------------------------------------------------
# the quadrature engine against an independent Monte-Carlo reference
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
    se._psd_check(Sigma, "Sigma", init.psd_tol)
    t = Sigma.shape[0]
    if len(denoisers) < t:
        raise ValidationError("denoiser schedule shorter than the horizon")
    moments = se._MomentRows(init, t)
    for den in denoisers[:t]:
        moments.append(den, Sigma, beta)
    alpha, resid = moments.alpha.copy(), moments.resid.copy()
    return PopMoments(Phi=moments.Phi.copy(), DeltaBar=resid + np.outer(alpha, alpha),
                      alpha=alpha if init.spiked else None, resid=resid, mse=moments.mse)


def _population_moments_mc(denoisers, Sigma, beta, init, samples, seed, step_seed):
    """Seeded Monte Carlo for the moments `population_moments` integrates:
    `samples` draws of (X*, Z), every denoiser evaluated on them."""
    t = Sigma.shape[0]
    M = int(samples)
    rng = np.random.default_rng(seed + 7919 * step_seed)
    L = se._gauss_factor(Sigma)
    Z = L @ rng.standard_normal((t, M))
    spiked = init.spiked
    if spiked:
        X = init.prior.sample(M, rng)
        b = np.zeros(t) if beta is None else np.asarray(beta, dtype=float)
        R = b[:, None] * X[None, :] + Z
        G0 = rng.standard_normal(M)
        U1 = math.sqrt(init.omega) * X + math.sqrt(1.0 - init.omega) * G0
    else:
        X = None
        R = Z
        U1 = init.prior.sample(M, rng)
    U = [U1]
    Phi = np.zeros((t + 1, t + 1))
    for j in range(1, t + 1):
        den = denoisers[j - 1]
        U.append(den.evaluate(R[:j])[0])
        Phi[j, :j] = den.partials(R[:j]).mean(axis=1)
    Ubar = [U[0]]
    for j in range(1, t + 1):
        Ubar.append(U[j] - Phi[j, :j] @ R[:j])
    Ub = np.vstack(Ubar)
    mse = None
    if spiked:
        # estimate DeltaBar - alpha alpha^T from signal-centered samples so its
        # Monte Carlo error stays relative even when the residual is tiny
        alpha = Ub @ X / M
        V = Ub - alpha[:, None] * X[None, :]
        resid = V @ V.T / M
        DeltaBar = resid + np.outer(alpha, alpha)
        mse = float(((U[t] - X) ** 2).mean())
    else:
        alpha = resid = None
        DeltaBar = Ub @ Ub.T / M
    return PopMoments(Phi=Phi, DeltaBar=DeltaBar, alpha=alpha, resid=resid, mse=mse)


def _one_denoiser_moments(den, Sigma, init=None, beta=None) -> dict:
    """Row t of `population_moments` for one denoiser of arity t = Sigma size,
    after t - 1 zero denoisers: its divergence row, E[Ubar^2], the cross row
    and (spiked) alpha."""
    t = Sigma.shape[0]
    init = init or SeInit(prior=make_prior("rademacher"))
    schedule = [constant_denoiser(j, 0.0) for j in range(1, t)] + [den]
    pm = population_moments(schedule, Sigma, beta, init)
    out = {"divergences": pm.Phi[t, :t], "ubar_second_moment": float(pm.DeltaBar[t, t]),
           "ubar_cross": pm.DeltaBar[t, : t + 1]}
    if pm.alpha is not None:
        out["alpha"] = float(pm.alpha[t])
    return out


def test_gaussian_expectation_tanh_derivative():
    # E[1 - tanh^2(Z)], Z ~ N(0,1): quadrature-grade reference value
    out = _one_denoiser_moments(tanh_denoiser(1), np.array([[1.0]]))
    assert abs(out["divergences"][0] - 0.6057055096) < 1e-9


def test_gh_and_mc_engines_agree():
    den = tanh_denoiser(2, scale=1.1)
    Sigma = np.array([[1.0, 0.3], [0.3, 0.8]])
    init = SeInit(prior=make_prior("rademacher"))
    gh = _one_denoiser_moments(den, Sigma, init=init)
    mc = _population_moments_mc([constant_denoiser(1, 0.0), den], Sigma, None, init,
                                samples=2_000_000, seed=5, step_seed=0)
    assert abs(gh["divergences"][1] - mc.Phi[2, 1]) < 5e-3
    assert abs(gh["ubar_second_moment"] - mc.DeltaBar[2, 2]) < 5e-3


def test_an_overflowing_gauss_hermite_rule_raises(monkeypatch, tmp_path, capsys):
    # the rule's weights overflow from 371 nodes: SE exits 2 with a message
    # instead of integrating against an empty rule
    for n in (371, 400):
        with pytest.raises(NumericalError, match=f"{n}-point"):
            se._gh_rule(n)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"law": "semicircle", "N": 100, "T": 2, "algo": "ri-amp",
                               "denoiser": "tanh"}))
    monkeypatch.setattr(se, "GH_POINTS", 400)
    assert main(["se", "--config", str(cfg)]) == 2
    assert "400-point Gauss-Hermite rule" in capsys.readouterr().err


@pytest.mark.parametrize("n", [1, 2, 3, 80, GH_POINTS, 370])
def test_the_gauss_hermite_rule_is_numpys_bit_for_bit(n):
    # the port against numpy.polynomial's rule, up to the last node count
    # whose weights are finite
    z, w = se._hermegauss(n)
    ref_z, ref_w = np.polynomial.hermite_e.hermegauss(n)
    assert z.tobytes() == ref_z.tobytes() and w.tobytes() == ref_w.tobytes()


SIGMA3 = np.array([[1.0, 0.3, 0.2], [0.3, 0.8, 0.25], [0.2, 0.25, 0.6]])
BETA3 = np.array([0.6, 0.9, 1.2])


def _assert_quadrature_matches_mc(dens, Sigma, beta, init):
    """The quadrature moments against 16 Monte-Carlo batches of 125k samples,
    every entry within 4 standard errors of the batch mean."""
    spiked = init.spiked

    def flat(pm):
        parts = [pm.Phi.ravel(), pm.DeltaBar.ravel()]
        return np.concatenate(parts + [pm.alpha, [pm.mse]] if spiked else parts)

    quad = flat(population_moments(dens, Sigma, beta, init))
    batches = np.array([
        flat(_population_moments_mc(dens, Sigma, beta, init, samples=125_000, seed=s,
                                    step_seed=3))
        for s in range(16)])
    stderr = batches.std(axis=0, ddof=1) / math.sqrt(len(batches))
    diff = np.abs(quad - batches.mean(axis=0))
    assert np.all(diff <= 4.0 * stderr + 1e-12)


def test_quadrature_and_mc_agree_for_combining_schedule():
    # a fixed multi-memory linear-mmse-combining schedule at t=3
    dens = [linear_mmse_combining_denoiser(BETA3[:j], SIGMA3[:j, :j]) for j in range(1, 4)]
    init = SeInit(prior=make_prior("rademacher"), omega=0.3)
    _assert_quadrature_matches_mc(dens, SIGMA3, BETA3, init)


@pytest.mark.parametrize("case", ["random-lipschitz", "sparse-tanh"])
def test_quadrature_and_mc_agree_beyond_one_term_and_two_atoms(case):
    # a non-spiked random-lipschitz schedule (j terms at step j, pairs of
    # terms reading one history row) and a spiked three-atom sparse prior
    if case == "random-lipschitz":
        dens = [random_lipschitz_denoiser(j, seed=40 + j) for j in range(1, 4)]
        init, beta = SeInit(prior=make_prior("rademacher")), None
    else:
        dens = [tanh_denoiser(j, scale=1.2) for j in range(1, 4)]
        init, beta = SeInit(prior=parse_prior_spec("sparse:rho=0.3"), omega=0.3), BETA3
    _assert_quadrature_matches_mc(dens, SIGMA3, beta, init)


def test_projection_quadrature_matches_explicit_1d_tanh():
    # p = 1.1 e_3: the projection path reduces to a 1-D Gauss-Hermite rule in R_3
    Sigma = np.array([[1.0, 0.3, 0.2], [0.3, 0.8, 0.25], [0.2, 0.25, 0.6]])
    beta = np.array([0.6, 0.9, 1.2])
    init = SeInit(prior=make_prior("rademacher"), omega=0.3)
    out = _one_denoiser_moments(tanh_denoiser(3, scale=1.1), Sigma, init=init, beta=beta)
    z, w = np.polynomial.hermite_e.hermegauss(GH_POINTS)
    w = w / w.sum()
    r = np.array([-1.0, 1.0])[:, None] * beta[2] + math.sqrt(Sigma[2, 2]) * z[None, :]
    x = np.array([-1.0, 1.0])[:, None]

    def expect(vals):
        return float(np.mean(vals @ w))

    d = expect(1.1 * (1.0 - np.tanh(1.1 * r) ** 2))
    ubar = np.tanh(1.1 * r) - d * r
    assert np.array_equal(out["divergences"][:2], np.zeros(2))
    assert abs(out["divergences"][2] - d) < 1e-12
    assert abs(out["alpha"] - expect(x * ubar)) < 1e-12
    assert abs(out["ubar_second_moment"] - expect(ubar**2)) < 1e-12


# the `mc_samples` config key: SE samples nothing, so it has no effect, but
# old configs carry it and it keeps its validation (an integer >= 2)
MC_CFG = {"law": "mp:alpha=0.3", "N": 200, "T": 3, "algo": "ri-amp",
          "denoiser": "random-lipschitz:seed=3", "prior": "sparse:rho=0.2"}


@pytest.mark.parametrize("kw", [{"mc_samples": 1}, {"mc_samples": 0}, {"mc_samples": -5},
                                {"mc_samples": 96.5}, {"mc_samples": True},
                                {"mc_samples": "many"}, {"mc_samples": None}])
def test_mc_config_rejects_bad_sizes(kw):
    with pytest.raises(ValidationError):
        ExperimentConfig.from_dict({**MC_CFG, **kw})


def test_mc_config_accepts_range_ends():
    rows = [compute_se(ExperimentConfig.from_dict({**MC_CFG, "mc_samples": n}))[1]
            for n in (2, 2_000_000, 10**12)]
    assert rows[0] == rows[1] == rows[2]


def test_ri_amp_se_goe_matches_scalar_recursion():
    sc = Semicircle()
    T = 4
    dens = [tanh_denoiser(t) for t in range(1, T + 1)]
    init = SeInit(prior=make_prior("rademacher"))
    states = ri_amp_se(sc, dens, init, T)
    scalar = gaussian_amp_se([tanh_denoiser(1)] * T, T)
    for t in range(1, T + 1):
        assert abs(states[t - 1].Sigma[t - 1, t - 1] - scalar[t - 1]) < 1e-8


def test_ri_amp_df_se_first_steps_match_q_variant_at_t1():
    # Sigma_1 is variance of H_1 = Q_1 = lambda - m_1 under either family
    mp = MarchenkoPastur(alpha=0.2)
    init = SeInit(prior=make_prior("rademacher"))
    dens = [tanh_denoiser(t) for t in range(1, 3)]
    q = ri_amp_se(mp, dens, init, 2)
    h = ri_amp_df_se(mp, dens, init, 2)
    assert abs(q[0].Sigma[0, 0] - h[0].Sigma[0, 0]) < 1e-10


def test_se_states_psd_and_nested():
    mp = MarchenkoPastur(alpha=0.3)
    init = SeInit(prior=make_prior("rademacher"))
    dens = [tanh_denoiser(t) for t in range(1, 5)]
    states = ri_amp_se(mp, dens, init, 4)
    for s in states:
        w = np.linalg.eigvalsh(s.Sigma)
        assert w.min() > -1e-8
    # leading blocks nest across iterations
    for t in range(1, 4):
        lead = states[t].Sigma[:t, :t]
        assert np.max(np.abs(lead - states[t - 1].Sigma)) < 1e-7


# ---------------------------------------------------------------------------
# nu measure
# ---------------------------------------------------------------------------

def _semicircle_table(n: int) -> ExternalDensity:
    x = np.linspace(-2, 2, n)
    return ExternalDensity(grid=x, density=np.sqrt(np.clip(4 - x * x, 0, None)) / (2 * np.pi))


def test_nu_semicircle_supercritical():
    theta = 1.5
    nu = nu_measure(Semicircle(), theta)
    z_star, w_atom = nu.atoms[-1], nu.weights[-1]  # the outlier is nu's top root
    outlier = find_outlier(Semicircle(), theta)
    assert abs(z_star - outlier[0]) <= 1e-12 and abs(w_atom - outlier[1]) <= 1e-12
    assert abs(z_star - (theta + 1 / theta)) < 1e-8
    assert abs(w_atom - (1 - 1 / theta**2)) < 1e-6
    assert abs(nu.weights.sum() - 1.0) < 1e-6
    assert abs(nu.moment(1) - theta) < 1e-6


def test_nu_subcritical_no_atom():
    nu = nu_measure(Semicircle(), 0.5)
    assert nu.atoms.max() <= Semicircle().support()[1]  # no atom above the support
    assert find_outlier(Semicircle(), 0.5) is None


def test_nu_mp_mean():
    # E_nu[lambda] = m_1 + theta for the one-spike deformation
    theta, alpha = 1.5, 0.2
    nu = nu_measure(MarchenkoPastur(alpha=alpha), theta)
    assert abs(nu.weights.sum() - 1.0) < 1e-6
    assert abs(nu.moment(1) - (1.0 + theta)) < 1e-5


def test_nu_empirical_matches_analytic_mean():
    # the reference: the mean of the sampled overlap measures of 6 instances
    theta, N, seeds = 1.5, 1200, 6
    ana = nu_measure(Semicircle(), theta)
    grid = Semicircle().quantile_grid(N).atoms
    oms = [overlap_measure(build_spiked(theta, make_prior("rademacher"),
                                        build_rot_invariant(grid, seed=17 * s + 1),
                                        seed=17 * s + 2)[0]) for s in range(seeds)]
    assert abs(np.mean([om.weights.sum() for om in oms]) - 1.0) < 1e-8
    assert abs(np.mean([om.moment(1) for om in oms]) - ana.moment(1)) < 0.1


def test_nu_of_atoms_is_the_spectral_measure_of_the_spiked_diagonal():
    # nu of n atoms: the eigenvalues of diag(atoms) + theta 1 1^T / n, each
    # weighted by its eigenvector's squared overlap with 1 / sqrt(n)
    theta, atoms = 1.5, Semicircle().quantile_grid(30).atoms
    nu = nu_measure(DiscreteGrid(atoms=atoms), theta)
    lam, vecs = np.linalg.eigh(np.diag(atoms) + theta / atoms.size)
    assert nu.atoms.size == atoms.size
    assert np.max(np.abs(nu.atoms - lam)) <= 1e-13
    assert np.max(np.abs(nu.weights - (vecs.sum(axis=0) / math.sqrt(atoms.size)) ** 2)) <= 1e-13
    point = nu_measure(parse_law_spec("point:c=1.5"), theta)
    assert point.atoms.tolist() == [3.0] and point.weights.tolist() == [1.0]


def _nu_transform_error(law, theta):
    """Largest relative gap between m_nu(z) of nu = nu_measure(law, theta)
    and m_mu(z) / (1 - theta m_mu(z)) at four points off both supports."""
    nu = nu_measure(law, theta)
    assert isinstance(nu, DiscreteGrid)
    lo, hi = law.support()
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    err = 0.0
    for z in (lo - half, complex(mid, half), complex(mid, -0.25 * half),
              complex(hi + half, 0.5 * half)):
        m = law.stieltjes(z)
        want = m / (1.0 - theta * m)
        err = max(err, abs(nu.stieltjes(z) - want) / abs(want))
    return err


@pytest.mark.parametrize("theta", [0.5, 1.5, 4.0])
@pytest.mark.parametrize("law", ["random-300", "mp-500"])
def test_nu_of_an_atom_law_has_the_spiked_stieltjes_transform(law, theta):
    # m_nu = m_mu / (1 - theta m_mu) holds exactly for the secular roots
    law = (DiscreteGrid(atoms=np.random.default_rng(3).uniform(-1.0, 2.0, 300))
           if law == "random-300" else MarchenkoPastur(alpha=0.3).quantile_grid(500))
    assert _nu_transform_error(law, theta) <= 1e-13


@pytest.mark.parametrize("theta", [0.5, 1.5, 4.0])
@pytest.mark.parametrize("law", [Semicircle(), MarchenkoPastur(alpha=0.3)])
def test_nu_of_a_continuous_law_has_the_spiked_stieltjes_transform(law, theta):
    # the reweighted quadrature nodes and the outlier atom integrate 1/(z - x)
    assert _nu_transform_error(law, theta) <= 1e-9


@pytest.mark.parametrize("theta", [0.5, 1.5, 4.0])
def test_nu_of_a_weighted_atom_law_has_the_spiked_stieltjes_transform(theta):
    # weights w: the spectral measure of diag(atoms) + theta sqrt(w) sqrt(w)^T at sqrt(w);
    # a zero weight deflates its atom, which keeps weight 0 in nu
    rng = np.random.default_rng(4)
    w = rng.dirichlet(np.ones(200))
    w[7] = 0.0
    law = DiscreteGrid(atoms=rng.uniform(-1.0, 2.0, 200), weights=w)
    assert _nu_transform_error(law, theta) <= 1e-13
    nu = nu_measure(law, theta)
    assert abs(nu.weights.sum() - w.sum()) <= 1e-13
    assert nu.weights[np.flatnonzero(nu.atoms == law.atoms[7])].tolist() == [0.0]


def _exact_mu_moments(law, n: int) -> list:
    """Moments 0..n of the semicircle, MP(1/5) or an atom law as Fractions."""
    if isinstance(law, Semicircle):
        return [Fraction(catalan(k // 2)) if k % 2 == 0 else Fraction(0) for k in range(n + 1)]
    if isinstance(law, MarchenkoPastur):  # Narayana polynomials
        a = Fraction(1, 5)
        return [Fraction(1)] + [sum(Fraction(math.comb(k, j) * math.comb(k, j + 1), k) * a**j
                                    for j in range(k)) for k in range(1, n + 1)]
    atoms, w = ([Fraction(float(v)) for v in x] for x in law.quad_nodes())
    return [sum(wi * ai**k for ai, wi in zip(atoms, w)) for k in range(n + 1)]


@pytest.mark.parametrize("theta", [0.5, 1.5])
@pytest.mark.parametrize("law", ["semicircle", "mp-0.2", "weighted-atoms"])
def test_nu_rule_moments_match_the_exact_nu_moments(law, theta):
    # m_nu = m_mu / (1 - theta m_mu) in u = 1/z: nu's moment series is
    # N = M + theta u M N, M mu's, summed in exact arithmetic; the
    # (T + 1)-point rule of the rows over nu integrates degree 2 T + 1 exactly
    rng = np.random.default_rng(4)
    law = {"semicircle": Semicircle(), "mp-0.2": MarchenkoPastur(alpha=0.2),
           "weighted-atoms": DiscreteGrid(atoms=rng.uniform(-1.0, 2.0, 200),
                                          weights=rng.dirichlet(np.ones(200)))}[law]
    T = 10
    n = 2 * T + 1
    mu, nu, th = _exact_mu_moments(law, n), [], Fraction(theta)
    for k in range(n + 1):
        nu.append(mu[k] + th * sum(nu[j] * mu[k - 1 - j] for j in range(k)))
    rows = _TraceFreeRows.over(law, [RationalFn(coeffs=(0.0, 1.0))] * T, theta=theta)
    x = rows.f_maps[0](np.ones(rows.w.size))  # the rule's nodes
    assert x.size == T + 1
    for k in range(n + 1):
        assert abs(float(rows.w @ x**k) - float(nu[k])) <= 1e-13 * max(1.0, abs(float(nu[k])))


def test_nu_of_a_density_table_matches_the_closed_form_law():
    # the 4001-point tabulated semicircle: mass 1, mean theta, and the
    # outlier theta + 1/theta of weight 1 - 1/theta^2
    theta = 1.5
    nu = nu_measure(_semicircle_table(4001), theta)
    assert abs(nu.weights.sum() - 1.0) < 1e-6 and abs(nu.moment(1) - theta) < 1e-6
    assert abs(nu.atoms[-1] - (theta + 1 / theta)) < 1e-3
    assert abs(nu.weights[-1] - (1 - 1 / theta**2)) < 1e-3


def test_check_pole_free():
    with pytest.raises(ValidationError):
        check_pole_free(Semicircle())
    check_pole_free(MarchenkoPastur(alpha=0.2))  # support away from zero


# ---------------------------------------------------------------------------
# spiked recursion
# ---------------------------------------------------------------------------

def test_mp_denoise_fn_coefficients_match_its_expression():
    # the spiked operator and every evaluation at points apply f from its
    # coefficients and pole; they match the map as the paper writes it
    theta, alpha = 1.2, 0.3
    f = mp_denoise_fn(theta, alpha)
    x = MarchenkoPastur(alpha=alpha).quantile_grid(2000).atoms
    closed = (theta / alpha) * (1.0 + (alpha - 1.0) / x) - theta**2 / (alpha * x)
    assert np.max(np.abs(f(x) - closed)) <= 1e-13 * np.max(np.abs(closed))


def test_spiked_se_first_step_closed_form():
    # beta_1 = sqrt(omega) E_nu[f]; alpha_1 = sqrt(omega)
    theta, alpha, omega = 1.5, 0.2, 0.3
    mp = MarchenkoPastur(alpha=alpha)
    f = mp_denoise_fn(theta, alpha)
    init = SeInit(prior=make_prior("rademacher"), omega=omega)
    fac = lambda t, beta, Sigma: linear_mmse_combining_denoiser(beta, Sigma)
    states = spiked_se(mp, theta, f, fac, init, 2)
    nu = nu_measure(mp, theta)
    k1 = nu.expect(f) - mp.expect(f)  # K_1 = f - E_mu[f]
    assert abs(states[0].beta[0] - math.sqrt(omega) * k1) < 1e-8
    assert abs(states[0].alpha[0] - math.sqrt(omega)) < 1e-12


def test_spiked_se_mse_decreases_supercritical():
    theta, alpha, omega = 1.5, 0.2, 0.3
    mp = MarchenkoPastur(alpha=alpha)
    f = mp_denoise_fn(theta, alpha)
    init = SeInit(prior=make_prior("rademacher"), omega=omega)
    fac = lambda t, beta, Sigma: linear_mmse_combining_denoiser(beta, Sigma)
    states = spiked_se(mp, theta, f, fac, init, 5)
    mses = [s.mse_pred for s in states]
    assert all(b <= a + 1e-6 for a, b in zip(mses, mses[1:]))
    assert mses[-1] < 0.01


def test_spiked_se_requires_omega():
    init = SeInit(prior=make_prior("rademacher"))
    with pytest.raises(ValidationError):
        spiked_se(Semicircle(), 1.5, lambda x: x,
                  lambda t, b, S: tanh_denoiser(t), init, 2)


def test_spiked_se_requires_a_positive_theta_and_a_rational_f():
    # nu's rows apply f to the spiked core as a spiked run applies f(Y)
    init = SeInit(prior=make_prior("rademacher"), omega=0.3)
    fac = lambda t, b, S: tanh_denoiser(t)
    with pytest.raises(ValidationError, match="theta > 0"):
        spiked_se(Semicircle(), 0.0, RationalFn(coeffs=(0.0, 1.0)), fac, init, 2)
    with pytest.raises(ValidationError, match="RationalFn"):
        spiked_se(Semicircle(), 1.5, lambda x: x, fac, init, 2)


@pytest.mark.parametrize("spiked", [True, False])
def test_population_moments_psd_tolerance_follows_the_init(spiked):
    # a spiked Sigma may dip 1e-7 below PSD, any other 1e-9
    init = SeInit(prior=make_prior("rademacher"), omega=0.3 if spiked else None)
    dens = [tanh_denoiser(1), tanh_denoiser(2)]
    beta = np.array([0.5, 0.2]) if spiked else None
    small, large = np.diag([1.0, -5e-8]), np.diag([1.0, -5e-7])
    if spiked:
        population_moments(dens, small, beta, init)
    else:
        with pytest.raises(ValidationError, match="not PSD"):
            population_moments(dens, small, beta, init)
    with pytest.raises(ValidationError, match="not PSD"):
        population_moments(dens, large, beta, init)


def test_se_init_validation():
    with pytest.raises(ValidationError):
        SeInit(prior=make_prior("rademacher"), omega=1.5)


def test_gaussian_amp_se_values():
    # sigma_1^2 = 1; sigma_2^2 = E[tanh^2(Z)]
    out = gaussian_amp_se([tanh_denoiser(1)] * 3, 3)
    assert out[0] == 1.0
    z, w = np.polynomial.hermite_e.hermegauss(80)
    w = w / w.sum()
    ref = float(w @ np.tanh(z) ** 2)
    assert abs(out[1] - ref) < 1e-8


# ---------------------------------------------------------------------------
# the one SE core against the closed forms
# ---------------------------------------------------------------------------

def _rel(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))) / np.max(np.abs(b)))


def _gram_form_gap(states, law, kind, f=None):
    """Largest relative gap of each state's Sigma from the Gram form
    theorem_sigma(E[P_i P_j], Phi, DeltaBar) at the state's own Phi, DeltaBar."""
    _, gram, _, _ = _family_gram(law, kind, len(states), f=f)
    return max(_rel(s.Sigma, theorem_sigma(gram[: s.t, : s.t], s.Phi, s.DeltaBar))
               for s in states)


QUAD = lambda x: -0.3 + 0.6 * x + 0.25 * x**2


@pytest.mark.parametrize("law", [Semicircle(), MarchenkoPastur(alpha=0.3)])
def test_se_core_matches_q_h_and_k_gram_forms(law):
    # RI-AMP: the trace-free rows of f = identity; RI-AMP-DF: the H family;
    # non-spiked RI-AMP-MP: the trace-free rows of f, the K family's Gram form
    T = 6
    init = SeInit(prior=make_prior("rademacher"))
    dens = [tanh_denoiser(t) for t in range(1, T + 1)]
    assert _gram_form_gap(ri_amp_se(law, dens, init, T), law, "Q") <= 1e-13
    assert _gram_form_gap(ri_amp_df_se(law, dens, init, T), law, "H") <= 1e-13
    assert _gram_form_gap(ri_amp_mp_se(law, QUAD, dens, init, T), law, "K", f=QUAD) <= 1e-13


def test_se_core_gram_form_on_a_one_column_file_law(tmp_path):
    # a one-column file is a DiscreteGrid: the core keeps its rows on the
    # T + 1 point Gauss rule of its pushforward, exact to the degree 2T that
    # Sigma needs
    path = tmp_path / "atoms.txt"
    path.write_text("\n".join(repr(float(x)) for x in Semicircle().quantile_grid(300).atoms) + "\n")
    law = parse_law_spec(f"file:{path}")
    assert isinstance(law, DiscreteGrid)
    T = 6
    init = SeInit(prior=make_prior("rademacher"))
    dens = [tanh_denoiser(t) for t in range(1, T + 1)]
    assert _TraceFreeRows.over(law, [QUAD] * T).w.size <= T + 1
    assert _gram_form_gap(ri_amp_se(law, dens, init, T), law, "Q") <= 1e-13
    assert _gram_form_gap(ri_amp_mp_se(law, QUAD, dens, init, T), law, "K", f=QUAD) <= 1e-13


def test_se_on_a_large_grid_keeps_no_row_at_every_atom():
    # one f: the rows live on the T + 1 point Gauss rule of the grid's
    # pushforward; rows kept at every atom of this grid peaked at 238 MiB
    grid = MarchenkoPastur(alpha=0.3).quantile_grid(100_000)
    T = 10
    dens = [tanh_denoiser(t) for t in range(1, T + 1)]
    init = SeInit(prior=make_prior("rademacher"))
    tracemalloc.start()
    try:
        ri_amp_se(grid, dens, init, T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


@pytest.mark.parametrize("law", [Semicircle(), MarchenkoPastur(alpha=0.3)])
def test_se_core_matches_oamp_hadamard_form(law):
    # Phi = 0 in the rows: row t of V is f_t - E f_t alone, so
    # Omega_t = [Cov_mu(f_i, f_j)] o [E Xbar_i Xbar_j]
    T = 5
    fs = [QUAD, lambda x: np.sin(x), lambda x: x**3, QUAD, lambda x: np.exp(-x)]
    init = SeInit(prior=make_prior("rademacher"))
    g = lambda t, beta, Sigma: tanh_denoiser(t)
    nodes, w = law.quad_nodes()
    F = np.vstack([f(nodes) for f in fs])
    cov = (F * w) @ F.T - np.outer(F @ w, F @ w)
    for s in oamp_se(law, fs, g, init, T):
        assert _rel(s.Sigma, cov[: s.t, : s.t] * s.DeltaBar) <= 1e-13


@pytest.mark.parametrize("f_name", ["mp-denoise", "identity"])
def test_spiked_se_core_matches_k_family_plus_nu(f_name):
    # the spiked-mp config: the rows of f on mu, and on nu with mu's E, give
    # the K-family form beta = sum_i E_nu[K_i] Phi^{i-1} alpha and
    # Sigma = E_nu[J aa^T J^T] - bb^T + E_mu[J (DeltaBar - aa^T) J^T]
    theta, T = 1.5, 6
    mp = MarchenkoPastur(alpha=0.2)
    f = mp_denoise_fn(theta, 0.2) if f_name == "mp-denoise" else RationalFn(coeffs=(0.0, 1.0))
    init = SeInit(prior=make_prior("rademacher"), omega=0.3)
    fac = lambda t, beta, Sigma: linear_mmse_combining_denoiser(beta, Sigma)
    nu = nu_measure(mp, theta)
    states = spiked_se(mp, theta, f, fac, init, T)
    _, gram_mu, mean_nu, gram_nu = _family_gram(mp, "K", T, f=f, nu=nu)
    for s in states:
        t, a = s.t, s.alpha
        beta = np.einsum("i,iab->ab", mean_nu[:t], phi_powers(s.Phi, t)) @ a
        Sigma = (theorem_sigma(gram_nu[:t, :t], s.Phi, np.outer(a, a)) - np.outer(beta, beta)
                 + theorem_sigma(gram_mu[:t, :t], s.Phi, s.DeltaBar - np.outer(a, a)))
        assert _rel(s.beta, beta) <= 1e-12
        assert _rel(s.Sigma, Sigma) <= 1e-12


def test_se_core_rejects_mismatched_spike():
    dens = [tanh_denoiser(t) for t in range(1, 3)]
    spiked = SeInit(prior=make_prior("rademacher"), omega=0.3)
    for call in (lambda: ri_amp_se(Semicircle(), dens, spiked, 2),
                 lambda: ri_amp_mp_se(Semicircle(), QUAD, dens, spiked, 2),
                 lambda: oamp_se(Semicircle(), [QUAD] * 2, dens, spiked, 2)):
        with pytest.raises(ValidationError, match="spiked_se"):
            call()


def test_pair_quadrature_temporaries_stay_small():
    # the pair expectations take the tensor Gauss-Hermite rule in row blocks,
    # so one population_moments call at the last spiked-mp step peaks far
    # below the 128 KB mmap threshold times two
    mp = MarchenkoPastur(alpha=0.2)
    init = SeInit(prior=make_prior("rademacher"), omega=0.3)
    fac = lambda t, beta, Sigma: linear_mmse_combining_denoiser(beta, Sigma)
    states = spiked_se(mp, 1.5, mp_denoise_fn(1.5, 0.2), fac, init, 6)
    dens, last = [s.denoiser for s in states], states[-1]
    population_moments(dens, last.Sigma, last.beta, init)
    tracemalloc.start()
    try:
        population_moments(dens, last.Sigma, last.beta, init)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 256 * 1024


def test_se_integrates_each_entry_once(monkeypatch):
    # every step integrates only its new denoiser's entries: the whole
    # recursion takes as many quadrature expectations as one
    # population_moments call on its final schedule and Sigma
    calls = []
    factor = se._gauss_factor
    monkeypatch.setattr(se, "_gauss_factor", lambda S: calls.append(1) or factor(S))
    init = SeInit(prior=make_prior("rademacher"))
    fac = lambda t, beta, Sigma: random_lipschitz_denoiser(t, 3 + 31 * t)
    states = ri_amp_se(Semicircle(), fac, init, 10)
    recursion = len(calls)
    calls.clear()
    population_moments([s.denoiser for s in states], states[-1].Sigma, None, init)
    assert recursion == len(calls)


@pytest.mark.parametrize("spiked", [False, True], ids=["mp", "spiked-mp"])
def test_carried_moments_equal_recomputed_ones(spiked):
    # the moments SE carries from step to step equal those integrated afresh
    # on each step's Sigma and beta: the entries of U_{j+1} read only the
    # leading blocks that step j saw (bit for bit unspiked, to rounding with
    # a spike)
    if spiked:
        cfg = ExperimentConfig(law="mp:alpha=0.2", N=2000, T=6, theta=1.5, omega=0.3,
                               algo="ri-amp-mp", denoiser="linear-mmse-combining",
                               matrix_fn="mp-denoise")
    else:
        cfg = ExperimentConfig(law="mp:alpha=0.3", N=500, T=10, algo="ri-amp",
                               denoiser="random-lipschitz:seed=3")
    states, _ = compute_se(cfg)
    init = SeInit(prior=make_prior("rademacher"), omega=cfg.omega if spiked else None)
    dens = [s.denoiser for s in states]
    for t in range(1, cfg.T):
        pm = population_moments(dens[:t], states[t - 1].Sigma, states[t - 1].beta, init)
        carried, fresh = [states[t].Phi, states[t].DeltaBar], [pm.Phi, pm.DeltaBar]
        if not spiked:
            assert all(np.array_equal(a, b) for a, b in zip(carried, fresh))
            continue
        carried += [states[t].alpha, [states[t - 1].mse_pred]]
        fresh += [pm.alpha, [pm.mse]]
        assert max(_rel(a, b) for a, b in zip(carried, fresh)) <= 1e-14


# ---------------------------------------------------------------------------
# one expectation engine: SE samples nothing
# ---------------------------------------------------------------------------

def _no_sampling(*args, **kwargs):
    raise AssertionError("state evolution drew a random sample")


class _NoSampleGenerator(np.random.Generator):
    def standard_normal(self, *args, **kwargs):
        _no_sampling()


ANALYTIC_SETTINGS = (
    [(algo, den, prior, False) for algo in ALL_ALGOS
     for den in ("tanh", "identity", "random-lipschitz:seed=3")
     for prior in ("rademacher", "gaussian", "sparse:rho=0.2")]
    + [(algo, den, prior, True) for algo in SPIKED_ALGOS
       for den in ("mmse-rademacher", "linear-mmse-combining", "tanh", "identity",
                   "random-lipschitz:seed=3")
       for prior in ("rademacher", "gaussian", "sparse:rho=0.2")])


# spiked on a `file:` density table, a `file:` atom list and a point mass
LAW_FILE_SETTINGS = [("ri-amp-mp", "linear-mmse-combining", "rademacher", True, law)
                     for law in ("file-table", "file-atoms", "point:c=1.5")]


def _law_spec(law, algo, tmp_path) -> str:
    if law is None:
        return "semicircle" if algo == "gaussian-amp" else "mp:alpha=0.2"
    if not law.startswith("file-"):
        return law
    path = tmp_path / "law.txt"
    if law == "file-table":
        table = _semicircle_table(401)
        np.savetxt(path, np.column_stack([table.grid, table.density]))
    else:
        np.savetxt(path, Semicircle().quantile_grid(500).atoms)
    return f"file:{path}"


@pytest.mark.parametrize("algo,den,prior,spiked,law", [
    pytest.param(*v, None, id="-".join([*v[:3], "spiked" if v[3] else "plain"]))
    for v in ANALYTIC_SETTINGS] + [
    pytest.param(*v, id="-".join([*v[:3], "spiked", v[4]])) for v in LAW_FILE_SETTINGS])
def test_se_samples_nothing(monkeypatch, tmp_path, algo, den, prior, spiked, law):
    # every generator standard_normal-s into an error, and so does every prior
    cfg = {"law": _law_spec(law, algo, tmp_path), "N": 200,
           "T": 3, "algo": algo, "denoiser": den, "prior": prior}
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed=None: _NoSampleGenerator(np.random.PCG64(seed)))
    monkeypatch.setattr(Prior, "sample", _no_sampling)
    if spiked:
        cfg.update(theta=1.5, omega=0.3,
                   matrix_fn="mp-denoise" if algo == "ri-amp-mp" and law is None else "identity")
    elif algo in ("ri-amp-mp", "oamp"):
        cfg["matrix_fn"] = "polynomial:-0.3,0.6,0.25"
    _, rows = compute_se(ExperimentConfig.from_dict(cfg))
    assert len(rows) == 3 and all(math.isfinite(v) for _, v in rows)
