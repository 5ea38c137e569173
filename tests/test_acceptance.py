"""End-to-end acceptance checks, one test per criterion.

Each test prints a single "ACCEPTANCE n: PASS/FAIL" line (bypassing pytest
capture) before asserting, so a full run gives a readable scorecard.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from amp_lab.cli import ExperimentConfig, run_experiment
from amp_lab.denoisers import random_lipschitz_denoiser, tanh_denoiser
from amp_lab.engines import (
    orthogonality_residuals,
    run_ri_amp,
    run_ri_amp_df,
    run_ri_amp_mp,
    ubar_divergences,
    verify_unfolding,
)
from amp_lab.freeprob import (
    build_poly_family,
    cumulants_from_law,
    cumulants_to_moments_nc,
    mc_cumulants,
    moments_to_cumulants,
    partial_moments,
)
from amp_lab.laws import MarchenkoPastur, Semicircle, catalan
from amp_lab.randmat import (
    build_rot_invariant,
    build_spiked,
    goe_ensemble,
    make_prior,
    overlap_measure,
    sample_goe,
)
from amp_lab.se import (
    SeInit,
    _family_gram,
    fan_se_form,
    gaussian_amp_se,
    ri_amp_se,
    theorem_sigma,
)


@pytest.fixture
def announce(capsys):
    def _announce(n, ok, detail):
        line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}"
        with capsys.disabled():
            print(line, flush=True)

    return _announce


# ---------------------------------------------------------------------------
# 1. moment/cumulant roundtrip
# ---------------------------------------------------------------------------

def test_acceptance_01_cumulant_roundtrip(announce):
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(500):
        order = int(rng.integers(1, 9))
        kappa = rng.uniform(-1.0, 1.0, size=order)
        moments = cumulants_to_moments_nc(list(kappa))
        back = np.asarray(moments_to_cumulants(moments).cumulants, dtype=float)
        worst = max(worst, float(np.max(np.abs(back - kappa))))
    # rational mode is exact
    kq = [Fraction(1, 3), Fraction(-2, 7), Fraction(5, 11), Fraction(1, 2)]
    exact = moments_to_cumulants(cumulants_to_moments_nc(kq)).cumulants
    ok = worst <= 1e-10 and list(exact) == kq
    announce(1, ok, f"500 roundtrips order<=8, max error {worst:.2e} (<= 1e-10), "
                    "rational mode exact")
    assert ok


# ---------------------------------------------------------------------------
# 2. known cumulants
# ---------------------------------------------------------------------------

def test_acceptance_02_known_cumulants(announce):
    # semicircle from exact Catalan moments, in rational arithmetic
    moms = [Fraction(catalan(n // 2)) if n % 2 == 0 else Fraction(0)
            for n in range(1, 7)]
    sc = moments_to_cumulants(moms).cumulants
    sc_exact = list(sc) == [0, 1, 0, 0, 0, 0]
    worst = 0.0
    for alpha in (0.2, 0.5, 0.9):
        kap = np.asarray(cumulants_from_law(MarchenkoPastur(alpha=alpha), 6).cumulants,
                         dtype=float)
        worst = max(worst, float(np.max(np.abs(kap - alpha ** np.arange(6)))))
    ok = sc_exact and worst <= 1e-9
    announce(2, ok, f"semicircle kappa=(0,1,0,0,0,0) exact; MP kappa_n=alpha^(n-1) "
                    f"max error {worst:.2e} (<= 1e-9)")
    assert ok


# ---------------------------------------------------------------------------
# 3. Monte-Carlo cumulant estimators at N = 4000
# ---------------------------------------------------------------------------

def test_acceptance_03_mc_estimators(announce):
    N, n_seeds = 4000, 50
    t0 = time.time()
    true_goe = np.array([0.0, 1.0, 0.0, 0.0])
    goe_ok = 0
    for s in range(n_seeds):
        k = mc_cumulants(sample_goe(N, seed=s), 4, seed=1000 + s)
        goe_ok += int(np.max(np.abs(k - true_goe)) <= 0.15)
    mp = MarchenkoPastur(alpha=0.2)
    grid = mp.quantile_grid(N).atoms
    true_mp = 0.2 ** np.arange(4)
    # a fresh Haar rotation is QR-bound at this size, so probe several seeds
    # per ensemble: the estimator's randomness is the probe vector
    ensembles = [build_rot_invariant(grid, seed=10 + e) for e in range(5)]
    mp_ok = 0
    for s in range(n_seeds):
        k = mc_cumulants(ensembles[s % 5], 4, seed=2000 + s)
        mp_ok += int(np.max(np.abs(k - true_mp)) <= 0.15)
    elapsed = time.time() - t0
    ok = goe_ok >= 45 and mp_ok >= 45 and elapsed <= 120
    announce(3, ok, f"|kappa_hat - kappa| <= 0.15 for n<=4 on {goe_ok}/50 GOE and "
                    f"{mp_ok}/50 MP seeds (need >= 45), {elapsed:.0f}s (<= 120s)")
    assert ok


# ---------------------------------------------------------------------------
# 4. partial-moment identity
# ---------------------------------------------------------------------------

def test_acceptance_04_partial_moments(announce):
    worst = 0.0
    for law in (Semicircle(), MarchenkoPastur(alpha=0.3)):
        table = partial_moments(law, 6)
        fam = build_poly_family(law, "Q", 6)
        nodes, w = law.quad_nodes()
        for k in range(7):
            for j in range(7):
                direct = float(w @ (nodes ** k * fam.evaluate(j, nodes)))
                worst = max(worst, abs(table[k, j] - direct))
    ok = worst <= 1e-9
    announce(4, ok, f"c_kj = E[Lambda^k Q_j] for k,j <= 6, both laws, "
                    f"max error {worst:.2e} (<= 1e-9)")
    assert ok


# ---------------------------------------------------------------------------
# 5. exact algebraic unfolding
# ---------------------------------------------------------------------------

def _unfold_setup(seed, N=300, T=4):
    law = Semicircle()
    ens = build_rot_invariant(law.quantile_grid(N).atoms, seed=seed)
    u1 = np.random.default_rng(500 + seed).choice([-1.0, 1.0], size=N)
    dens = [random_lipschitz_denoiser(t, seed=seed * 100 + t) for t in range(1, T + 1)]
    return law, ens, u1, dens


def test_acceptance_05_exact_unfolding(announce):
    T = 4
    worst = 0.0
    for seed in range(10):
        law, ens, u1, dens = _unfold_setup(seed)
        runs = [
            run_ri_amp(ens, law, dens, u1, T, mode="grid"),
            run_ri_amp_df(ens, law, dens, u1, T, mode="grid"),
            run_ri_amp_mp(ens, law, lambda x: x + 0.3 * x ** 2, dens, u1, T,
                          mode="grid"),
        ]
        for run in runs:
            worst = max(worst, float(verify_unfolding(run).max_error))
    ok = worst <= 1e-8
    announce(5, ok, f"r_t reconstruction over 10 seeds x 3 variants, "
                    f"max relative l2 error {worst:.2e} (<= 1e-8)")
    assert ok


# ---------------------------------------------------------------------------
# 6. trace-free and divergence-free exactness
# ---------------------------------------------------------------------------

def test_acceptance_06_trace_and_divergence_exactness(announce):
    T = 4
    worst_trace, worst_div = 0.0, 0.0
    for seed in range(5):
        law, ens, u1, _ = _unfold_setup(seed, N=300, T=T)
        dens = [tanh_denoiser(t, scale=1.0 + 0.1 * t) for t in range(1, T + 1)]
        for runner in (run_ri_amp, run_ri_amp_df):
            run = runner(ens, law, dens, u1, T, mode="grid")
            rep = verify_unfolding(run)
            worst_trace = max(worst_trace, float(np.max(rep.trace_residuals)))
            worst_div = max(worst_div, float(ubar_divergences(run)))
    ok = worst_trace <= 1e-9 and worst_div <= 1e-10
    announce(6, ok, f"grid-mode trace residuals {worst_trace:.2e} (<= 1e-9), "
                    f"ubar divergences {worst_div:.2e} (<= 1e-10)")
    assert ok


# ---------------------------------------------------------------------------
# 7. SE-form equivalence
# ---------------------------------------------------------------------------

def test_acceptance_07_se_form_equivalence(announce):
    law = MarchenkoPastur(alpha=0.3)
    kappa = [float(k) for k in cumulants_from_law(law, 11).cumulants]
    _, gram, _, _ = _family_gram(law, "Q", 5)
    rng = np.random.default_rng(7)
    worst_form, worst_rel = 0.0, 0.0
    for _ in range(50):
        t = int(rng.integers(1, 6))
        Phi = np.tril(rng.uniform(-1.0, 1.0, (t, t)), k=-1)
        A = rng.uniform(-1.0, 1.0, (t, t))
        DeltaBar = A @ A.T / t + np.eye(t)
        Sigma = theorem_sigma(gram[:t, :t], Phi, DeltaBar)
        Delta = DeltaBar + Phi @ Sigma @ Phi.T
        Sigma2 = fan_se_form(kappa, Phi, Delta)
        worst_form = max(worst_form, float(np.max(np.abs(Sigma - Sigma2))))
        resid = Delta - (DeltaBar + Phi @ Sigma2 @ Phi.T)
        worst_rel = max(worst_rel, float(np.max(np.abs(resid))))
    ok = worst_form <= 1e-8 and worst_rel <= 1e-9
    announce(7, ok, f"50 random (Phi, DeltaBar), t<=5: forms agree to "
                    f"{worst_form:.2e} (<= 1e-8), coupling relation to "
                    f"{worst_rel:.2e} (<= 1e-9)")
    assert ok


# ---------------------------------------------------------------------------
# 8. Gaussianity and SE match at finite N
# ---------------------------------------------------------------------------

def test_acceptance_08_gaussianity_and_se_match(announce):
    N, T, n_seeds = 2000, 3, 20
    init = SeInit(prior=make_prior("rademacher"))
    results = {}
    for name, law in (("semicircle", Semicircle()),
                      ("mp", MarchenkoPastur(alpha=0.3))):
        dens = [tanh_denoiser(t) for t in range(1, T + 1)]
        Sigma = ri_amp_se(law, dens, init, T)[-1].Sigma
        grid = law.quantile_grid(N).atoms
        cov = np.zeros((T, T))
        skew = np.zeros(T)
        exkurt = np.zeros(T)
        orth = 0.0
        for s in range(n_seeds):
            ens = build_rot_invariant(grid, seed=7000 + s)
            u1 = np.random.default_rng(8000 + s).choice([-1.0, 1.0], size=N)
            run = run_ri_amp(ens, law, dens, u1, T, mode="grid")
            R = np.vstack(run.r)
            cov += R @ R.T / N
            std = R.std(axis=1)
            Z = (R - R.mean(axis=1, keepdims=True)) / std[:, None]
            skew += (Z ** 3).mean(axis=1)
            exkurt += (Z ** 4).mean(axis=1) - 3.0
            orth += float(np.max(orthogonality_residuals(run)))
        cov /= n_seeds
        frob = float(np.linalg.norm(cov - Sigma) / np.linalg.norm(Sigma))
        results[name] = (frob, float(np.max(np.abs(skew / n_seeds))),
                         float(np.max(np.abs(exkurt / n_seeds))),
                         orth / n_seeds)
    ok = all(f <= 0.05 and s <= 0.1 and k <= 0.2 and o <= 0.05
             for f, s, k, o in results.values())
    detail = "; ".join(
        f"{name}: Frobenius {f:.3f} (<= 0.05), |skew| {s:.3f} (<= 0.1), "
        f"|exkurt| {k:.3f} (<= 0.2), orthogonality {o:.4f}"
        for name, (f, s, k, o) in results.items())
    announce(8, ok, detail)
    assert ok


# ---------------------------------------------------------------------------
# 9. spiked matrix-denoising experiment
# ---------------------------------------------------------------------------

def test_acceptance_09_spiked_experiment(announce):
    cfg = ExperimentConfig.from_dict({
        "law": "mp:alpha=0.2", "N": 2000, "T": 6, "theta": 1.5, "omega": 0.3,
        "runs": 20, "seed_base": 0, "algo": "ri-amp-mp",
        "denoiser": "linear-mmse-combining", "matrix_fn": "mp-denoise",
        "mc_samples": 2_000_000,
    })
    rows, _, n_ok, n_div = run_experiment(cfg)
    emp = np.array([r[1] for r in rows])
    stderr = np.array([r[2] for r in rows])
    pred = np.array([r[3] for r in rows])
    tol = np.maximum(0.05 * pred, 2.0 * stderr)
    diffs = np.abs(emp - pred)
    matched = bool(np.all(diffs <= tol))
    # the prediction is non-increasing exactly; the empirical mean only up to
    # its sampling noise once it sits at the fixed point
    slack = 2.0 * (stderr[:-1] + stderr[1:])
    noninc = bool(np.all(np.diff(pred) <= 1e-9)
                  and np.all(np.diff(emp) <= slack))
    ok = matched and noninc and n_div == 0
    announce(9, ok, f"MP(0.2) theta=1.5 omega=0.3, N=2000, 20 runs, T=6: "
                    f"max |emp-pred|/tol = {float(np.max(diffs / tol)):.2f} "
                    f"(<= 1), MSE non-increasing: {noninc}, "
                    f"final MSE {emp[-1]:.2e} vs pred {pred[-1]:.2e}")
    assert ok


# ---------------------------------------------------------------------------
# 10. BBP outlier and overlap measure
# ---------------------------------------------------------------------------

def test_acceptance_10_bbp_sanity(announce):
    theta, N, n_seeds = 1.5, 2000, 20
    sc = Semicircle()
    prior = make_prior("rademacher")
    grid = sc.quantile_grid(N).atoms
    tops, means = [], []
    for s in range(n_seeds):
        ens = build_rot_invariant(grid, seed=300 + s)
        inst = build_spiked(theta, prior, ens, seed=400 + s)
        om = overlap_measure(inst)
        tops.append(float(om.atoms.max()))
        means.append(float(om.moment(1)))
    top_dev = abs(float(np.mean(tops)) - (theta + 1.0 / theta))
    mean_dev = abs(float(np.mean(means)) - theta)
    ok = top_dev <= 0.1 and mean_dev <= 0.1
    announce(10, ok, f"top eigenvalue dev {top_dev:.3f} from theta+1/theta "
                     f"(<= 0.1), nu first-moment dev {mean_dev:.3f} from theta "
                     f"(<= 0.1), 20 seeds at N=2000")
    assert ok


# ---------------------------------------------------------------------------
# 11. reduction to Gaussian AMP under GOE
# ---------------------------------------------------------------------------

def test_acceptance_11_goe_reduction(announce):
    # (a) semicircle cumulants collapse the Onsager matrix to the divergence
    #     matrix exactly in population mode
    N, T = 500, 4
    ens = goe_ensemble(N, seed=21)
    u1 = np.random.default_rng(22).choice([-1.0, 1.0], size=N)
    dens = [tanh_denoiser(t) for t in range(1, T + 1)]
    run = run_ri_amp(ens, Semicircle(), dens, u1, T, mode="population")
    debias_dev = float(np.max(np.abs(run.debias - run.phi[:T, :T])))
    # (b) the SE diagonal matches the scalar Gaussian-AMP recursion
    init = SeInit(prior=make_prior("rademacher"))
    states = ri_amp_se(Semicircle(), dens, init, T)
    scalar = gaussian_amp_se([tanh_denoiser(1)] * T, T)
    se_dev = max(abs(float(states[t - 1].Sigma[t - 1, t - 1]) - scalar[t - 1])
                 for t in range(1, T + 1))
    ok = debias_dev <= 1e-12 and se_dev <= 1e-8
    announce(11, ok, f"B_t = Phi_t to {debias_dev:.2e} (<= 1e-12); SE diagonal "
                     f"matches scalar recursion to {se_dev:.2e} (<= 1e-8)")
    assert ok
