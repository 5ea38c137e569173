"""Rank-one estimation with matrix denoising: theory vs simulation.

A spike theta x x^T / N hides inside Marchenko-Pastur noise.  The algorithm
applies a scalar eigenvalue shrinker f to the observation and iterates with
a linear combining denoiser whose weights come from the state-evolution
prediction itself.  The predicted MSE tracks the simulated one.

Run with:  python3 demos/05_spiked_experiment.py  (under a second)
"""

import math

import numpy as np

from amp_lab import (
    MarchenkoPastur,
    SeInit,
    build_rot_invariant,
    build_spiked,
    linear_mmse_combining_denoiser,
    make_prior,
    mp_denoise_fn,
    ri_amp_se,
    run_ri_amp_mp,
    spiked_se,
)

theta, alpha, omega = 1.5, 0.2, 0.3
N, T, runs = 800, 5, 6
mp = MarchenkoPastur(alpha=alpha)
f = mp_denoise_fn(theta, alpha)  # optimal shrinker for MP noise
prior = make_prior("rademacher")

# --- state evolution ---------------------------------------------------------
# Each state carries the signal correlation beta_t, the noise covariance
# Sigma_t, the MSE prediction, and the denoiser the prediction was built for.
init = SeInit(prior=prior, omega=omega)
factory = lambda t, beta, Sigma: linear_mmse_combining_denoiser(beta, Sigma)
states = spiked_se(mp, theta, f, factory, init, T)
pred = [s.mse_pred for s in states]

# --- simulation --------------------------------------------------------------
grid = mp.quantile_grid(N).atoms
mse = np.zeros(T)
for s in range(runs):
    ens = build_rot_invariant(grid, seed=s)
    inst = build_spiked(theta, prior, ens, seed=100 + s)
    rng = np.random.default_rng(200 + s)
    u1 = (math.sqrt(omega) * inst.x_star
          + math.sqrt(1 - omega) * rng.standard_normal(N))
    dens = [states[t - 1].denoiser for t in range(1, T + 1)]
    run = run_ri_amp_mp(inst, mp, f, dens, u1, T, mode="grid")
    mse += np.array([np.mean((run.u[t] - inst.x_star) ** 2)
                     for t in range(1, T + 1)]) / runs

print(f"{'t':>2s}  {'predicted MSE':>14s}  {'empirical MSE':>14s}")
for t in range(T):
    print(f"{t + 1:2d}  {pred[t]:14.5e}  {mse[t]:14.5e}")
