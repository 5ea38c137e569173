"""Free cumulants: exact recursions, polynomial families, and the
matvec-only Monte-Carlo estimator.

Run with:  python3 demos/01_free_cumulants.py
"""

import numpy as np

from amp_lab import (
    MarchenkoPastur,
    Semicircle,
    build_poly_family,
    cumulants_from_law,
    cumulants_to_moments_nc,
    mc_cumulants,
    moments_to_cumulants,
    partial_moments,
)
from amp_lab.randmat import sample_goe

# --- moments <-> free cumulants -------------------------------------------
# The semicircle law has Catalan-number even moments and free cumulants
# (0, 1, 0, 0, ...): the free analogue of the Gaussian.
table = cumulants_from_law(Semicircle(), 6)
print("semicircle moments  ", np.round(table.moments, 10))
print("semicircle cumulants", np.round(table.cumulants, 10))

# Marchenko-Pastur with aspect ratio alpha has kappa_n = alpha^(n-1).
mp = MarchenkoPastur(alpha=0.25)
print("MP(0.25) cumulants  ", np.round(cumulants_from_law(mp, 5).cumulants, 10))

# The two directions invert each other (non-crossing partition sum one way,
# triangular coefficient recursion back).
kappa = [0.3, 1.1, -0.4, 0.2]
moments = cumulants_to_moments_nc(kappa)
print("roundtrip error     ",
      np.max(np.abs(np.asarray(moments_to_cumulants(moments).cumulants) - kappa)))

# --- centered polynomial families ------------------------------------------
# Q_n is monic of degree n with E[Q_n] = 0 and E[Lambda Q_n] = kappa_{n+1};
# the same recursion applied to f(Lambda) gives the K family.
fam = build_poly_family(mp, "Q", 4)
nodes, w = mp.quad_nodes()
print("E[Q_2] =", float(w @ fam.evaluate(2, nodes)),
      "  E[Lambda Q_2] =", float(w @ (nodes * fam.evaluate(2, nodes))),
      "(= kappa_3 =", fam.centering[2], ")")

# Partial moments interpolate between plain moments (column 0) and free
# cumulants (the superdiagonal): c_{k,j} = E[Lambda^k Q_j].
pm = partial_moments(mp, 4)
print("c[3, 0] = m_3 =", pm[3, 0], " vs moment", mp.moment(3))

# --- Monte-Carlo estimation without eigendecomposition ----------------------
# The estimator only needs matrix-vector products: z_n = W z_{n-1} minus the
# already-estimated lower-order cumulant corrections.  W is a dense GOE draw,
# never eigendecomposed.
W = sample_goe(2000, seed=0)
print("GOE kappa_hat (N=2000):", np.round(mc_cumulants(W, 4, seed=1), 3))
