"""Running the AMP variants and checking the exact algebraic structure of
their iterates.

Each variant produces residuals r_t that are, exactly in finite samples, a
polynomial combination sum_j p_{t,j}(M) ubar_j of the matrix applied to the
denoised iterates — with trace-free polynomial entries.  `verify_unfolding`
replays each run's own template to reconstruct every r_t this way, and
reports the errors and the trace residuals.

Run with:  python3 demos/03_amp_runs_and_unfolding.py
"""

import numpy as np

from amp_lab import (
    MarchenkoPastur,
    build_rot_invariant,
    orthogonality_residuals,
    run_ri_amp,
    run_ri_amp_df,
    run_ri_amp_mp,
    tanh_denoiser,
    ubar_divergences,
    verify_unfolding,
)

law = MarchenkoPastur(alpha=0.3)
N, T = 600, 4
ens = build_rot_invariant(law.quantile_grid(N).atoms, seed=0)
u1 = np.random.default_rng(1).choice([-1.0, 1.0], size=N)
dens = [tanh_denoiser(t) for t in range(1, T + 1)]

# mode="grid" computes the Onsager coefficients from the realized eigenvalue
# grid, which makes the unfolding identities exact to machine precision;
# mode="population" uses the limiting law's cumulants instead.
runs = {
    "ri-amp":    run_ri_amp(ens, law, dens, u1, T, mode="grid"),
    "ri-amp-df": run_ri_amp_df(ens, law, dens, u1, T, mode="grid"),
    "ri-amp-mp": run_ri_amp_mp(ens, law, lambda x: x + 0.2 * x**2, dens, u1, T,
                               mode="grid"),
}
for name, run in runs.items():
    rep = verify_unfolding(run)
    print(f"{name:10s} reconstruction error {rep.max_error:.2e}"
          f"  max trace residual {np.max(rep.trace_residuals):.2e}"
          f"  ubar divergences {ubar_divergences(run):.2e}")

# Residuals across iterations are asymptotically uncorrelated after the
# Onsager correction; |<r_s, ubar_t>|/N shrinks with N.
run = runs["ri-amp"]
print("orthogonality residuals max:", float(np.max(orthogonality_residuals(run))))

# Per-iteration diagnostics (already normalized by sqrt(N)) live on the run.
for t, d in enumerate(run.diagnostics, start=1):
    print(f"t={t}  |r_t|/sqrt(N) = {d['norm_r']:.4f}")
