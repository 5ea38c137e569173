"""Rotationally-invariant ensembles, rank-one spikes, and the BBP outlier.

Run with:  python3 demos/02_ensembles_and_spikes.py
"""

import numpy as np

from amp_lab import (
    Semicircle,
    build_rot_invariant,
    build_spiked,
    find_outlier,
    make_prior,
    nu_measure,
    overlap_measure,
    sample_haar_rotation,
)

N = 1500
sc = Semicircle()

# --- a rotationally-invariant matrix is O diag(lambda) O^T, O Haar -----------
O = sample_haar_rotation(N, seed=0).dense()
print("Haar orthogonality |O^T O - I| =", np.max(np.abs(O.T @ O - np.eye(N))))

grid = sc.quantile_grid(N).atoms  # deterministic quantile grid of the law
ens = build_rot_invariant(grid, seed=1)
g = np.random.default_rng(2).standard_normal(N)
print("m_2 via quadratic form:", g @ ens.apply(ens.apply(g)) / N,
      " (law value", sc.moment(2), ")")

# --- spiked model Y = (theta/N) x x^T + W -----------------------------------
theta = 1.5
prior = make_prior("rademacher")
inst = build_spiked(theta, prior, ens, seed=3)

# Above the transition (theta > 1 for the semicircle) the top eigenvalue
# detaches from the bulk edge and lands at theta + 1/theta.
om = overlap_measure(inst)
print("top eigenvalue:", om.atoms.max(),
      " predicted outlier:", theta + 1 / theta)

# The eigen-overlap measure weights each eigenvalue by its squared projection
# on the signal.  Its limit nu is an atom law like the overlap measure: a bulk
# reweighting of the semicircle's quadrature nodes and, as its last atom, the
# outlier of mass 1 - 1/theta^2.
nu = nu_measure(sc, theta)
print("nu outlier:", nu.atoms[-1], " mass:", nu.weights[-1],
      "  empirical top-eigenvector overlap:", om.weights.max())
print("nu mean:", nu.moment(1), " empirical:", om.moment(1))

# Below the transition there is no outlier and the signal is invisible to PCA.
print("outlier at theta=0.8:", find_outlier(sc, 0.8))
