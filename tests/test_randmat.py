"""Ensembles, priors, spiked instances, overlap measures, and matrix I/O."""

import numpy as np
import pytest

from amp_lab.engines import as_operator
from amp_lab.errors import DomainError, ValidationError
from amp_lab.laws import DiscreteGrid, MarchenkoPastur, Semicircle, parse_law_spec
from amp_lab.randmat import (
    RotInvEnsemble,
    build_rot_invariant,
    build_spiked,
    diag_rank_one_eigh,
    goe_ensemble,
    load_matrix,
    make_prior,
    matrix_function,
    overlap_measure,
    sample_goe,
    sample_haar_orthogonal,
    save_matrix,
    trace_free_center,
)
from amp_lab.se import mp_denoise_fn


# ---------------------------------------------------------------------------
# Haar sampling
# ---------------------------------------------------------------------------

def test_haar_is_orthogonal():
    for N in (1, 5, 80):
        O = sample_haar_orthogonal(N, seed=3)
        assert np.max(np.abs(O.T @ O - np.eye(N))) < 1e-12


def test_haar_deterministic_per_seed():
    a = sample_haar_orthogonal(20, seed=11)
    b = sample_haar_orthogonal(20, seed=11)
    assert np.array_equal(a, b)
    c = sample_haar_orthogonal(20, seed=12)
    assert not np.array_equal(a, c)


def test_haar_n1_signs():
    vals = [sample_haar_orthogonal(1, seed=s)[0, 0] for s in range(200)]
    assert set(np.round(vals, 12)) <= {-1.0, 1.0}
    assert 0.3 < np.mean(np.array(vals) > 0) < 0.7


def test_haar_entry_statistics():
    # first entry is asymptotically N(0, 1/N)
    N, seeds = 500, 200
    vals = np.array([sample_haar_orthogonal(N, seed=s)[0, 0] for s in range(seeds)])
    scaled = vals * np.sqrt(N)
    stderr = 1.0 / np.sqrt(seeds)
    assert abs(scaled.mean()) < 3 * stderr
    assert abs(scaled.var() - 1.0) < 0.2


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------

def test_rot_invariant_spectrum_and_apply():
    grid = np.linspace(-1, 2, 64)
    ens = build_rot_invariant(grid, seed=0)
    lam = np.sort(np.linalg.eigvalsh(ens.W))
    assert np.max(np.abs(lam - np.sort(grid))) < 1e-10
    v = np.random.default_rng(1).standard_normal(64)
    assert np.max(np.abs(ens.apply(v) - ens.W @ v)) < 1e-10


def test_build_rot_invariant_validates():
    with pytest.raises(ValidationError):
        build_rot_invariant(np.array([[1.0, 2.0]]), seed=0)
    with pytest.raises(ValidationError):
        build_rot_invariant(np.array([1.0, np.nan]), seed=0)


def test_goe_symmetric_with_semicircle_moments():
    W = sample_goe(2500, seed=7)
    assert np.max(np.abs(W - W.T)) == 0.0
    n = W.shape[0]
    m2 = np.trace(W @ W) / n
    m4 = np.trace(np.linalg.matrix_power(W, 4)) / n
    assert abs(m2 - 1.0) < 0.1
    assert abs(m4 - 2.0) < 0.25


def test_goe_ensemble_factored():
    ens = goe_ensemble(100, seed=5)
    recon = (ens.eigenvectors * ens.eigenvalues[None, :]) @ ens.eigenvectors.T
    assert np.max(np.abs(recon - ens.W)) < 1e-10


# ---------------------------------------------------------------------------
# matrix functions
# ---------------------------------------------------------------------------

def test_matrix_function_polynomial():
    W = sample_goe(60, seed=2)
    f = lambda x: x**2 + 2 * x - 1
    direct = W @ W + 2 * W - np.eye(60)
    assert np.max(np.abs(matrix_function(W, f) - direct)) < 1e-10


def test_matrix_function_domain_error():
    grid = np.array([-1.0, 0.0, 1.0, 2.0])
    ens = build_rot_invariant(grid, seed=0)
    with pytest.raises(DomainError):
        matrix_function(ens, lambda x: 1.0 / x)


def test_trace_free_center():
    A = np.random.default_rng(0).standard_normal((30, 30))
    B = trace_free_center(A)
    assert abs(np.trace(B)) < 1e-10
    off = ~np.eye(30, dtype=bool)
    assert np.array_equal(A[off], B[off])


# ---------------------------------------------------------------------------
# priors
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,kw", [("rademacher", {}), ("gaussian", {}),
                                     ("sparse", {"rho": 0.1})])
def test_priors_unit_second_moment(name, kw):
    prior = make_prior(name, **kw)
    rng = np.random.default_rng(0)
    x = prior.sample(200_000, rng)
    assert abs(np.mean(x**2) - 1.0) < 0.02
    assert abs(np.mean(x)) < 0.02


def test_sparse_prior_sparsity():
    prior = make_prior("sparse", rho=0.2)
    x = prior.sample(100_000, np.random.default_rng(1))
    assert abs(np.mean(x != 0) - 0.2) < 0.01


def test_make_prior_validates():
    with pytest.raises(ValidationError):
        make_prior("cauchy")
    with pytest.raises(ValidationError):
        make_prior("sparse", rho=0.0)


# ---------------------------------------------------------------------------
# spiked instances and the overlap measure
# ---------------------------------------------------------------------------

def test_build_spiked_shape_and_symmetry():
    mp = MarchenkoPastur(alpha=0.3)
    ens = build_rot_invariant(mp.quantile_grid(128).atoms, seed=0)
    inst = build_spiked(1.5, make_prior("rademacher"), ens, seed=1)
    assert inst.Y.shape == (128, 128)
    assert np.max(np.abs(inst.Y - inst.Y.T)) < 1e-12
    v = np.random.default_rng(2).standard_normal(128)
    assert np.max(np.abs(inst.apply_Y(v) - inst.Y @ v)) < 1e-9


def test_build_spiked_validates_theta():
    ens = build_rot_invariant(np.linspace(-1, 1, 32), seed=0)
    with pytest.raises(ValidationError):
        build_spiked(-1.0, make_prior("rademacher"), ens, seed=0)


def test_overlap_measure_total_mass():
    # sum of squared overlaps of a unit-second-moment signal is ||x||^2/N = 1
    sc = Semicircle()
    ens = build_rot_invariant(sc.quantile_grid(400).atoms, seed=3)
    inst = build_spiked(1.5, make_prior("rademacher"), ens, seed=4)
    om = overlap_measure(inst)
    assert abs(om.total_mass() - 1.0) < 1e-10
    assert om.eigenvalues.shape == (400,)


def test_overlap_measure_bbp_outlier():
    # supercritical theta: top eigenvalue near theta + 1/theta and the
    # overlap mean near theta
    theta = 1.5
    sc = Semicircle()
    means, tops = [], []
    for s in range(5):
        ens = build_rot_invariant(sc.quantile_grid(1500).atoms, seed=10 + s)
        inst = build_spiked(theta, make_prior("rademacher"), ens, seed=20 + s)
        om = overlap_measure(inst)
        tops.append(om.eigenvalues.max())
        means.append(om.mean())
    assert abs(np.mean(tops) - (theta + 1 / theta)) < 0.1
    assert abs(np.mean(means) - theta) < 0.1


def test_overlap_measure_size_cap():
    ens = build_rot_invariant(np.linspace(-1, 1, 64), seed=0)
    inst = build_spiked(1.0, make_prior("rademacher"), ens, seed=0)
    with pytest.raises(ValidationError):
        overlap_measure(inst, n_cap=32)


def _secular_case(name, N):
    """(instance, eigenvalue scale) for one secular-vs-dense comparison."""
    prior = make_prior("rademacher")
    if name == "mp":
        law, theta = MarchenkoPastur(alpha=0.2), 1.5
    elif name == "semicircle-subcritical":
        law, theta = Semicircle(), 0.5
    elif name == "point-mass":  # one eigenvalue: everything but the spike deflates
        law, theta = parse_law_spec("point:c=1.5"), 1.5
    elif name == "repeated-atoms":
        law, theta = DiscreteGrid(atoms=np.array([0.5, 1.0, 1.0, 2.0, 3.0])), 1.2
    else:  # identity eigenbasis and a sparse signal: exact zeros in z
        law, theta = MarchenkoPastur(alpha=0.3), 1.5
        prior = make_prior("sparse", rho=0.1)
    grid = law.quantile_grid(N).atoms
    if name == "sparse-identity":
        ens = RotInvEnsemble(eigenvalues=grid.copy(), eigenvectors=np.eye(N))
    else:
        ens = build_rot_invariant(grid, seed=N + 1)
    return build_spiked(theta, prior, ens, seed=N + 2), float(np.max(np.abs(grid)))


@pytest.mark.parametrize("N", [200, 500])
@pytest.mark.parametrize("name", ["mp", "semicircle-subcritical", "point-mass",
                                  "repeated-atoms", "sparse-identity"])
def test_secular_factorization_matches_dense_eigh(name, N):
    inst, scale = _secular_case(name, N)
    z, mu, V = inst.spectrum
    lam, U = np.linalg.eigh(inst.Y)
    assert np.max(np.abs(mu - lam)) <= 1e-12 * scale
    assert np.max(np.abs(V.T @ V - np.eye(N))) <= 1e-10
    op, _ = as_operator(inst)
    v = np.random.default_rng(N).standard_normal(N)
    for f in (mp_denoise_fn(1.5, 0.2), np.polynomial.Polynomial([1.0, -1.0, 0.0, 0.5])):
        dense = U @ (f(lam) * (U.T @ v))
        assert np.linalg.norm(op.apply_values(f(mu), v) - dense) <= 1e-10 * np.linalg.norm(dense)
    om = overlap_measure(inst)
    assert np.array_equal(om.eigenvalues, mu)
    assert np.max(np.abs(om.weights - (inst.x_star @ U) ** 2 / N)) <= 1e-12


def test_diag_rank_one_eigh_reconstructs():
    # unsorted diagonal with a tie and a zero coupling
    lam = np.array([3.0, -1.0, 2.0, -1.0, 0.5])
    z = np.array([0.3, 1.0, 0.0, -2.0, 0.7])
    mu, V = diag_rank_one_eigh(lam, z, 0.8)
    assert np.all(np.diff(mu) >= 0)
    recon = (V * mu) @ V.T
    assert np.max(np.abs(recon - (np.diag(lam) + 0.8 * np.outer(z, z)))) < 1e-14
    with pytest.raises(ValidationError):
        diag_rank_one_eigh(lam, z, 0.0)


# ---------------------------------------------------------------------------
# binary matrix container
# ---------------------------------------------------------------------------

def test_save_load_roundtrip(tmp_path):
    A = np.random.default_rng(0).standard_normal((17, 17))
    path = str(tmp_path / "m.bin")
    save_matrix(path, A)
    B = load_matrix(path)
    assert np.array_equal(A, B)


def test_load_matrix_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValidationError, match="magic"):
        load_matrix(str(path))


def test_save_matrix_rejects_nonsquare(tmp_path):
    with pytest.raises(ValidationError):
        save_matrix(str(tmp_path / "m.bin"), np.ones((3, 4)))


def test_load_matrix_truncated(tmp_path):
    path = str(tmp_path / "m.bin")
    save_matrix(path, np.ones((4, 4)))
    data = open(path, "rb").read()
    with open(path, "wb") as fh:
        fh.write(data[:-8])
    with pytest.raises(ValidationError, match="payload"):
        load_matrix(path)
