"""Ensembles, priors, spiked instances, overlap measures, and matrix I/O."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from amp_lab import randmat
from amp_lab.cli import ExperimentConfig, compute_se, resolve_matrix_fn
from amp_lab.denoisers import tanh_denoiser
from amp_lab.engines import HORIZON_CAP, as_operator, run_ri_amp, run_ri_amp_mp
from amp_lab.errors import ValidationError
from amp_lab.laws import DiscreteGrid, MarchenkoPastur, Semicircle, parse_law_spec
from amp_lab.randmat import (
    SYMMETRY_RTOL,
    RationalFn,
    SpectralOperator,
    build_rot_invariant,
    build_spiked,
    dense_symmetric,
    diag_rank_one_eigh,
    goe_ensemble,
    make_prior,
    overlap_measure,
    sample_goe,
    sample_haar_rotation,
)
from amp_lab.se import mp_denoise_fn


# ---------------------------------------------------------------------------
# Haar sampling
# ---------------------------------------------------------------------------

def test_haar_is_orthogonal():
    for N in (1, 5, 80):
        O = sample_haar_rotation(N, seed=3).dense()
        assert np.max(np.abs(O.T @ O - np.eye(N))) < 1e-12


def test_haar_deterministic_per_seed():
    a = sample_haar_rotation(20, seed=11).dense()
    b = sample_haar_rotation(20, seed=11).dense()
    assert np.array_equal(a, b)
    c = sample_haar_rotation(20, seed=12).dense()
    assert not np.array_equal(a, c)


def test_haar_n1_signs():
    vals = [sample_haar_rotation(1, seed=s).dense()[0, 0] for s in range(200)]
    assert set(np.round(vals, 12)) <= {-1.0, 1.0}
    assert 0.3 < np.mean(np.array(vals) > 0) < 0.7


def test_haar_entry_statistics():
    # first entry is asymptotically N(0, 1/N)
    N, seeds = 500, 200
    vals = np.array([sample_haar_rotation(N, seed=s).dense()[0, 0] for s in range(seeds)])
    scaled = vals * np.sqrt(N)
    stderr = 1.0 / np.sqrt(seeds)
    assert abs(scaled.mean()) < 3 * stderr
    assert abs(scaled.var() - 1.0) < 0.2


def _qr_haar(N, seed):
    """Reference sampler: QR of a Gaussian matrix with the R-diagonal sign
    correction (Mezzadri 2007)."""
    Q, R = np.linalg.qr(np.random.default_rng(seed).standard_normal((N, N)))
    d = np.sign(np.diag(R))
    d[d == 0] = 1.0
    return Q * d[None, :]


@pytest.mark.parametrize("N", [1, 2, 50, 63, 64, 65, 130, 400])
def test_lazy_haar_rotation_dense_form(N):
    # answers given before dense() agree with it, dense() is orthogonal, and
    # the same seed given the same calls gives the same bits.  The pair
    # storage starts at min(N, 16) and dense() grows it to N in one step;
    # after that every query is in-span
    rng = np.random.default_rng(N + 1)
    calls = (rng.standard_normal(N), rng.standard_normal((N, 3)))

    def answers(rot):
        out = [rot @ calls[0], rot.T @ calls[1], rot @ calls[1]]
        return out + [rot.dense(), rot.T.dense()]

    rot = sample_haar_rotation(N, seed=N)
    got = answers(rot)
    O = got[3]
    assert np.max(np.abs(O.T @ O - np.eye(N))) < 1e-13
    assert np.max(np.abs(O @ O.T - np.eye(N))) < 1e-13
    assert np.max(np.abs(got[4] - O.T)) < 1e-13
    for answer, want in zip(got[:3], (O @ calls[0], O.T @ calls[1], O @ calls[1])):
        assert np.max(np.abs(answer - want)) < 1e-13
    assert np.max(np.abs(rot.T @ (rot @ calls[1]) - calls[1])) < 1e-13
    for a, b in zip(got, answers(sample_haar_rotation(N, seed=N))):
        assert np.array_equal(a, b)


def test_lazy_haar_rotation_round_trip():
    # O^T (O x) returns x on a fresh rotation, and O (O^T y) returns y
    N = 300
    rng = np.random.default_rng(5)
    x, y = rng.standard_normal(N), rng.standard_normal((N, 4))
    rot = sample_haar_rotation(N, seed=6)
    assert np.max(np.abs(rot.T @ (rot @ x) - x)) < 1e-13
    assert np.max(np.abs(rot @ (rot.T @ y) - y)) < 1e-13


@pytest.mark.parametrize("transposed", [False, True])
def test_lazy_haar_block_query_matches_column_queries(transposed):
    # a block is projected at once up to its first new direction and then
    # queried column by column; its twin rotation, queried one column at a
    # time, reveals the same pairs and gives the same answers to rounding
    N = 200
    rng = np.random.default_rng(9)
    rots = [sample_haar_rotation(N, seed=10) for _ in range(2)]
    start = rng.standard_normal((N, 3))
    for rot in rots:
        rot @ start
    a, b = (rot.T if transposed else rot for rot in rots)
    seen = rots[0].pairs.rows[int(transposed), :3]  # the revealed span on a's input side
    block = np.column_stack([seen.T @ rng.standard_normal(3), rng.standard_normal(N),
                             seen.T @ rng.standard_normal(3)])
    by_block = a @ block
    by_column = np.column_stack([b @ block[:, j] for j in range(3)])
    assert rots[0].pairs.k == rots[1].pairs.k == 4
    assert np.max(np.abs(by_block - by_column)) <= 1e-13
    later = rng.standard_normal((N, 2))
    assert np.max(np.abs(a @ later - np.column_stack([b @ later[:, 0], b @ later[:, 1]]))) <= 1e-13


@pytest.mark.parametrize("law", ["semicircle", "mp:alpha=0.3", "point:c=1.5",
                                 "five-atoms"])
def test_lazy_haar_w_powers_match_dense(law):
    # W^k x by alternating O^T and O, k up to twice the horizon cap, against
    # O Lambda^k O^T x with O completed densely afterwards.  A residual at
    # rounding level must not become a pair: a W with few distinct
    # eigenvalues reveals only that many
    N = 400
    if law == "five-atoms":
        grid, distinct = np.repeat([0.5, 1.0, 1.5, 2.0, 3.0], N // 5), 5
    else:
        grid = parse_law_spec(law).quantile_grid(N).atoms
        distinct = np.unique(grid).size
    rot = sample_haar_rotation(N, seed=7)
    x = np.random.default_rng(8).standard_normal(N)
    powers = [x]
    for _ in range(2 * HORIZON_CAP):
        powers.append(rot @ (grid * (rot.T @ powers[-1])))
    assert rot.pairs.k <= min(distinct, 2 * HORIZON_CAP + 1)
    O = rot.dense()
    ref = x
    for k in range(1, 2 * HORIZON_CAP + 1):
        ref = O @ (grid * (O.T @ ref))
        assert np.linalg.norm(powers[k] - ref) <= 1e-13 * np.linalg.norm(ref)


def test_lazy_haar_rotation_guards():
    with pytest.raises(ValidationError):
        sample_haar_rotation(0, seed=0)
    rot = sample_haar_rotation(8, seed=0)
    for bad in (np.ones(9), np.ones((9, 2)), np.ones((8, 2, 2)), np.ones(())):
        with pytest.raises(ValidationError):
            rot @ bad
        with pytest.raises(ValidationError):
            rot.T @ bad
    assert rot.pairs.k == 0


def test_lazy_haar_rotation_holds_only_its_pairs():
    # a rotation answering 2T queries holds O(N T) numbers, not an N x N draw
    N = 3000
    grid = np.linspace(-1.0, 2.0, N)
    x = np.random.default_rng(0).standard_normal(N)
    tracemalloc.start()
    try:
        rot = sample_haar_rotation(N, seed=0)
        for _ in range(HORIZON_CAP):
            x = rot @ (grid * (rot.T @ x))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rot.pairs.k == HORIZON_CAP + 1
    assert peak <= 0.02 * 8 * N * N  # Householder reflectors alone were 0.5


def test_fresh_direction_takes_a_second_pass_only_when_the_first_loses_norm():
    rng = np.random.default_rng(3)
    N = 200
    Q = np.linalg.qr(rng.standard_normal((N, 5)))[0].T
    # mostly off the span: one pass, bit for bit the first CGS step
    g = rng.standard_normal(N)
    one = g - (Q @ g) @ Q
    assert np.array_equal(randmat._fresh_direction(g.copy(), Q), one / np.linalg.norm(one))
    # 1e8 along the span: one pass leaves a component about 1e-8 of the
    # result along it, the second pass removes it
    h = 1e8 * Q[0] + rng.standard_normal(N)
    first = h - (Q @ h) @ Q
    assert np.abs(Q @ (first / np.linalg.norm(first))).max() > 1e-12
    e = randmat._fresh_direction(h, Q)
    assert np.abs(Q @ e).max() <= 1e-15 and abs(e @ e - 1.0) <= 1e-15


def test_revealed_pairs_stay_orthonormal_up_to_a_full_rotation(monkeypatch):
    # querying every column of I on a small rotation reveals all N pairs;
    # late fresh directions keep about sqrt(1 - k/N) of their norm, so both
    # branches of `_fresh_direction` run
    N = 24
    seen = []
    orig = randmat._fresh_direction

    def spy(g, Q):
        rest = g - (Q @ g) @ Q
        seen.append(np.linalg.norm(rest) >= np.sqrt(0.5) * np.linalg.norm(g))
        return orig(g, Q)

    monkeypatch.setattr(randmat, "_fresh_direction", spy)
    rot = sample_haar_rotation(N, seed=11)
    for j in range(N):
        (rot.T if j % 2 else rot) @ np.eye(N)[j]
    assert rot.pairs.k == N and True in seen and False in seen
    for side in rot.pairs.rows:
        assert np.abs(side @ side.T - np.eye(N)).max() <= 1e-13


def test_a_run_grows_the_pair_store_only_before_its_first_step(monkeypatch):
    # a run reserves its 2T pairs up front: past the 16 rows a rotation
    # starts with, the store is replaced once per run, never mid-iteration
    grown = []
    orig = randmat._RevealedPairs.reserve

    def spy(self, m):
        before = self.rows
        orig(self, m)
        if self.rows is not before:
            grown.append(self.k)

    monkeypatch.setattr(randmat._RevealedPairs, "reserve", spy)
    N, T = 300, HORIZON_CAP
    law = MarchenkoPastur(alpha=0.3)
    ens = build_rot_invariant(law.quantile_grid(N).atoms, seed=5)
    u1, u1_other = np.random.default_rng(6).choice([-1.0, 1.0], size=(2, N))
    dens = [tanh_denoiser(t) for t in range(1, T + 1)]
    run_ri_amp(ens, law, dens, u1, T)
    assert ens.rotation.pairs.k == 2 * T and grown == [0]
    run_ri_amp(ens, law, dens, u1_other, T)
    assert ens.rotation.pairs.k == 4 * T and grown == [0, 2 * T]
    ens.rotation.pairs.reserve(10 * N)  # never room for more than N pairs
    assert ens.rotation.pairs.rows.shape == (2, N, N)


def test_lazy_haar_law_matches_qr_reference():
    # two-sample KS between the lazy sampler and QR with sign correction,
    # on disjoint seeds: sqrt(N) O[0, 0] and a fixed bilinear form u^T O v
    N, seeds = 50, 4000
    rng = np.random.default_rng(99)
    u, v = rng.standard_normal(N), rng.standard_normal(N)
    u, v = u / np.linalg.norm(u), v / np.linalg.norm(v)
    new = np.array([np.sqrt(N) * (sample_haar_rotation(N, seed=s) @ np.eye(N)[0])[0]
                    for s in range(seeds)])
    new_uv = np.array([u @ (sample_haar_rotation(N, seed=s) @ v) for s in range(seeds)])
    refs = [_qr_haar(N, seed=10**6 + s) for s in range(seeds)]
    ref = np.array([O[0, 0] * np.sqrt(N) for O in refs])
    ref_uv = np.array([u @ O @ v for O in refs])
    assert stats.ks_2samp(new, ref).pvalue > 0.01
    assert stats.ks_2samp(new_uv, ref_uv).pvalue > 0.01


def _trajectories(ensembles, spiked):
    """Per-seed RI-AMP trajectories with tanh denoisers on MP(0.3) quantile
    grids: |r_t|^2 / N without a spike, x*^T u_{t+1} / N with one."""
    N, T, theta, omega = 400, 4, 1.5, 0.3
    law = MarchenkoPastur(alpha=0.3)
    dens = [tanh_denoiser(t) for t in range(1, T + 1)]
    out = []
    for seed, ens in ensembles:
        rng = np.random.default_rng(seed)
        if spiked:
            Y, x = build_spiked(theta, make_prior("rademacher"), ens, seed=seed + 1)
            u1 = np.sqrt(omega) * x + np.sqrt(1.0 - omega) * rng.standard_normal(N)
            run = run_ri_amp(Y, law, dens, u1, T, mode="grid")
            out.append([x @ run.u[t + 1] / N for t in range(T)])
        else:
            u1 = rng.choice([-1.0, 1.0], size=N)
            run = run_ri_amp(ens, law, dens, u1, T, mode="grid")
            out.append([r @ r / N for r in run.r])
    return np.array(out)


@pytest.mark.parametrize("spiked", [False, True], ids=["r2", "overlap"])
def test_trajectories_same_law_under_qr_reference(spiked):
    # RI-AMP on MP(0.3) with tanh denoisers: per-seed |r_t|^2 / N (no spike)
    # and signal overlaps x*^T u_{t+1} / N (theta = 1.5) with the lazy
    # sampler and with dense QR eigenvectors, on disjoint seeds: two-sample
    # KS on each t
    N, seeds = 400, 150
    grid = MarchenkoPastur(alpha=0.3).quantile_grid(N).atoms
    new = _trajectories([(2000 + s, build_rot_invariant(grid, seed=3000 + s))
                         for s in range(seeds)], spiked)
    ref = _trajectories([(4000 + s, SpectralOperator(eigenvalues=grid.copy(),
                                                     rotation=_qr_haar(N, seed=5000 + s)))
                         for s in range(seeds)], spiked)
    for t in range(new.shape[1]):
        assert stats.ks_2samp(new[:, t], ref[:, t]).pvalue > 0.01


def test_spiked_mse_same_law_under_qr_reference():
    # per-seed MSE of spiked RI-AMP-MP at t = 1, 2 with the lazy sampler
    # and with dense QR eigenvectors: two-sample KS on each t
    cfg = ExperimentConfig.from_dict({
        "law": "mp:alpha=0.2", "N": 1000, "T": 2, "theta": 1.5, "omega": 0.3,
        "runs": 24, "algo": "ri-amp-mp", "denoiser": "linear-mmse-combining",
        "matrix_fn": "mp-denoise"})
    law = parse_law_spec(cfg.law)
    f = resolve_matrix_fn(cfg.matrix_fn, law, cfg.theta)
    states, _ = compute_se(cfg)
    dens = [st.denoiser for st in states]
    grid = law.quantile_grid(cfg.N).atoms
    prior = make_prior("rademacher")

    def mse(ens, seed):
        Y, x = build_spiked(cfg.theta, prior, ens, seed=seed)
        noise = np.random.default_rng(seed + 1).standard_normal(cfg.N)
        u1 = np.sqrt(cfg.omega) * x + np.sqrt(1.0 - cfg.omega) * noise
        run = run_ri_amp_mp(Y, law, f, dens, u1, cfg.T, mode="grid")
        return [np.mean((run.u[t] - x) ** 2) for t in (1, 2)]

    new = np.array([mse(build_rot_invariant(grid, seed=500 + s), 600 + s)
                    for s in range(cfg.runs)])
    ref = np.array([mse(SpectralOperator(eigenvalues=grid.copy(),
                                         rotation=_qr_haar(cfg.N, seed=700 + s)), 800 + s)
                    for s in range(cfg.runs)])
    for t in range(2):
        assert stats.ks_2samp(new[:, t], ref[:, t]).pvalue > 0.01


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------

def test_rot_invariant_spectrum_and_apply():
    grid = np.linspace(-1, 2, 64)
    ens = build_rot_invariant(grid, seed=0)
    W = ens.dense()
    lam = np.sort(np.linalg.eigvalsh(W))
    assert np.max(np.abs(lam - np.sort(grid))) < 1e-10
    v = np.random.default_rng(1).standard_normal(64)
    assert np.max(np.abs(ens.apply(v) - W @ v)) < 1e-10


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


def _goe_full_square(N, seed):
    """The earlier GOE sampler: N^2 normals G, then (G + G^T) / sqrt(2N)."""
    G = np.random.default_rng(seed).standard_normal((N, N))
    return (G + G.T) / np.sqrt(2 * N)


def test_goe_triangle_draw_matches_full_square_draw():
    # two-sample KS, 10 draws each at N=400 on disjoint seeds: the entries
    # above the diagonal (times sqrt(N)), the diagonal (times sqrt(N/2)) and
    # the pooled eigenvalues
    N, draws = 400, 10
    iu = np.triu_indices(N, 1)
    stats_of = {"upper": [[], []], "diagonal": [[], []], "eigenvalues": [[], []]}
    for s in range(draws):
        for k, W in enumerate((sample_goe(N, seed=s), _goe_full_square(N, seed=1000 + s))):
            stats_of["upper"][k].append(np.sqrt(N) * W[iu])
            stats_of["diagonal"][k].append(np.sqrt(N / 2) * np.diag(W))
            stats_of["eigenvalues"][k].append(np.linalg.eigvalsh(W))
    for name, (new, old) in stats_of.items():
        assert stats.ks_2samp(np.concatenate(new), np.concatenate(old)).pvalue > 0.01, name


def _dense_symmetric_reference(M):
    """The whole-matrix form of the check: max|W - W^T|, isfinite and max|W|
    each over all N^2 entries."""
    W = np.asarray(M, dtype=float)
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        raise ValidationError("matrix input must be square")
    if not np.all(np.isfinite(W)):
        raise ValidationError("matrix input has non-finite entries")
    asym = float(np.max(np.abs(W - W.T), initial=0.0))
    if asym > SYMMETRY_RTOL * float(np.max(np.abs(W), initial=0.0)):
        raise ValidationError(f"matrix input is not symmetric: max|M - M^T| = {asym:.3g} "
                              f"exceeds {SYMMETRY_RTOL:g} of max|M|")
    return W


def _asym(N, rel):
    # a symmetric draw with one mirrored pair apart by rel * max|W|, past the
    # first row block
    W = sample_goe(N, seed=4)
    W[N - 1, 2] += rel * np.max(np.abs(W))
    return W


@pytest.mark.parametrize("case", ["symmetric", "above-rtol", "below-rtol", "nan", "inf",
                                  "non-square", "empty", "one-block"])
def test_dense_symmetric_decisions_match_whole_matrix_check(case):
    N = 600
    M = {"symmetric": lambda: sample_goe(N, seed=4),
         "above-rtol": lambda: _asym(N, 1.01 * SYMMETRY_RTOL),
         "below-rtol": lambda: _asym(N, 0.99 * SYMMETRY_RTOL),
         "nan": lambda: np.where(np.eye(N, k=-400) > 0, np.nan, sample_goe(N, seed=4)),
         "inf": lambda: np.where(np.eye(N, k=3) > 0, -np.inf, sample_goe(N, seed=4)),
         "non-square": lambda: np.ones((N, N - 1)),
         "empty": lambda: np.zeros((0, 0)),
         "one-block": lambda: _asym(8, 2 * SYMMETRY_RTOL)}[case]()
    outcomes = []
    for check in (dense_symmetric, _dense_symmetric_reference):
        try:
            outcomes.append(("ok", check(M).tobytes()))
        except ValidationError as exc:
            outcomes.append(("error", str(exc)))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == ("ok" if case in ("symmetric", "below-rtol", "empty") else "error")


def test_dense_symmetric_makes_no_n2_temporary():
    # the whole-matrix check holds at least two N^2 temporaries (64 MB here);
    # the row-blocked one stays below half of one N x N array
    N = 2000
    W = sample_goe(N, seed=5)
    tracemalloc.start()
    try:
        dense_symmetric(W)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * N * N // 2


def test_goe_ensemble_factored():
    # the factors rebuild the GOE draw of the same seed
    ens = goe_ensemble(100, seed=5)
    W = sample_goe(100, seed=5)
    recon = (ens.rotation * ens.eigenvalues[None, :]) @ ens.rotation.T
    assert np.max(np.abs(recon - W)) < 1e-10
    assert np.max(np.abs(ens.dense() - W)) < 1e-10


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


def test_discrete_priors_carry_their_atom_law():
    # the law SE integrates against is the law the sampler draws from
    for prior, atoms, mass in ((make_prior("rademacher"), [-1.0, 1.0], [0.5, 0.5]),
                               (make_prior("sparse", rho=0.2), [-5**0.5, 0.0, 5**0.5],
                                [0.1, 0.8, 0.1])):
        nodes, w = prior.law.quad_nodes()
        assert isinstance(prior.law, DiscreteGrid)
        assert np.allclose(nodes, atoms, rtol=1e-15) and np.allclose(w, mass, rtol=1e-15)
        assert abs(prior.law.moment(2) - 1.0) < 1e-15
        x = prior.sample(100_000, np.random.default_rng(2))
        assert np.all(np.isin(x, nodes))
    assert make_prior("gaussian").law is None


def test_make_prior_validates():
    with pytest.raises(ValidationError):
        make_prior("cauchy")
    with pytest.raises(ValidationError):
        make_prior("sparse", rho=0.0)


# ---------------------------------------------------------------------------
# spiked instances and the overlap measure
# ---------------------------------------------------------------------------

def _dense_y(Y, x):
    """Y = (theta/N) x* x*^T + W formed densely from its definition, in
    O(N^3): the reference for the factored operator."""
    W = replace(Y, z=None, rho=0.0).dense()
    return Y.rho * np.outer(x, x) + W


def test_build_spiked_shape_and_symmetry():
    mp = MarchenkoPastur(alpha=0.3)
    ens = build_rot_invariant(mp.quantile_grid(128).atoms, seed=0)
    op, x = build_spiked(1.5, make_prior("rademacher"), ens, seed=1)
    Y = _dense_y(op, x)
    assert Y.shape == (128, 128)
    assert np.max(np.abs(Y - Y.T)) < 1e-12
    v = np.random.default_rng(2).standard_normal(128)
    assert np.max(np.abs(op.apply(v) - Y @ v)) < 1e-9


@pytest.mark.parametrize("rotation", ["lazy-haar", "dense"])
def test_spiked_operator_dense_matches_y(rotation):
    # O (Lambda + (theta/N) z z^T) O^T formed from the factors against Y
    # formed from its definition, (theta/N) x* x*^T + W
    N = 200
    grid = MarchenkoPastur(alpha=0.3).quantile_grid(N).atoms
    ens = (build_rot_invariant(grid, seed=3) if rotation == "lazy-haar"
           else SpectralOperator(eigenvalues=grid.copy(), rotation=_qr_haar(N, seed=3)))
    op, x = build_spiked(1.5, make_prior("rademacher"), ens, seed=4)
    Y = _dense_y(op, x)
    assert np.linalg.norm(op.dense() - Y) <= 1e-12 * np.linalg.norm(Y)


def test_build_spiked_shares_the_rotation_and_refuses_a_second_spike():
    ens = build_rot_invariant(np.linspace(-1, 1, 32), seed=0)
    Y, x = build_spiked(1.5, make_prior("rademacher"), ens, seed=1)
    assert Y.rotation is ens.rotation
    assert ens.z is None
    assert np.array_equal(Y.z, ens.to_spectral(x))
    assert Y.rho == 1.5 / 32
    with pytest.raises(ValidationError, match="rank-one"):
        build_spiked(1.0, make_prior("rademacher"), Y, seed=2)


def test_build_spiked_validates_theta():
    ens = build_rot_invariant(np.linspace(-1, 1, 32), seed=0)
    with pytest.raises(ValidationError):
        build_spiked(-1.0, make_prior("rademacher"), ens, seed=0)


def test_overlap_measure_total_mass():
    # sum of squared overlaps of a unit-second-moment signal is ||x||^2/N = 1
    sc = Semicircle()
    ens = build_rot_invariant(sc.quantile_grid(400).atoms, seed=3)
    Y, _ = build_spiked(1.5, make_prior("rademacher"), ens, seed=4)
    om = overlap_measure(Y)
    assert isinstance(om, DiscreteGrid)
    assert abs(om.weights.sum() - 1.0) < 1e-10
    assert om.atoms.shape == (400,)


def test_overlap_measure_bbp_outlier():
    # supercritical theta: top eigenvalue near theta + 1/theta and the
    # overlap mean near theta
    theta = 1.5
    sc = Semicircle()
    means, tops = [], []
    for s in range(5):
        ens = build_rot_invariant(sc.quantile_grid(1500).atoms, seed=10 + s)
        Y, _ = build_spiked(theta, make_prior("rademacher"), ens, seed=20 + s)
        om = overlap_measure(Y)
        tops.append(om.atoms.max())
        means.append(om.moment(1))
    assert abs(np.mean(tops) - (theta + 1 / theta)) < 0.1
    assert abs(np.mean(means) - theta) < 0.1


def test_overlap_measure_size_cap(monkeypatch):
    ens = build_rot_invariant(np.linspace(-1, 1, 64), seed=0)
    Y, _ = build_spiked(1.0, make_prior("rademacher"), ens, seed=0)
    monkeypatch.setattr(randmat, "OVERLAP_N_CAP", 32)
    with pytest.raises(ValidationError):
        overlap_measure(Y)


def test_overlap_measure_refuses_an_operator_without_a_spike():
    ens = build_rot_invariant(np.linspace(-1, 1, 64), seed=0)
    with pytest.raises(ValidationError, match="rank-one"):
        overlap_measure(ens)


def _secular_case(name, N):
    """((Y, x*), eigenvalue scale) for one secular-vs-dense comparison."""
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
        ens = SpectralOperator(eigenvalues=grid.copy(), rotation=np.eye(N))
    else:
        ens = build_rot_invariant(grid, seed=N + 1)
    return build_spiked(theta, prior, ens, seed=N + 2), float(np.max(np.abs(grid)))


@pytest.mark.parametrize("N", [200, 500])
@pytest.mark.parametrize("name", ["mp", "semicircle-subcritical", "point-mass",
                                  "repeated-atoms", "sparse-identity"])
def test_secular_factorization_matches_dense_eigh(name, N):
    # the secular roots and closed-form overlap weights, and the spiked
    # operator's products, against a dense eigendecomposition of Y
    (spiked, x), scale = _secular_case(name, N)
    Y = _dense_y(spiked, x)
    lam, U = np.linalg.eigh(Y)
    om = overlap_measure(spiked)
    assert np.max(np.abs(om.atoms - lam)) <= 1e-12 * scale
    assert np.max(np.abs(om.weights - (x @ U) ** 2 / N)) <= 1e-12
    op = as_operator(spiked)
    assert op is spiked
    v = np.random.default_rng(N).standard_normal(N)
    assert np.linalg.norm(op.apply(v) - Y @ v) <= 1e-12 * np.linalg.norm(Y @ v)
    for f in (mp_denoise_fn(1.5, 0.2), RationalFn(coeffs=(1.0, -1.0, 0.0, 0.5))):
        dense = U @ (f(lam) * (U.T @ v))
        assert np.linalg.norm(op.function(f)(v) - dense) <= 1e-10 * np.linalg.norm(dense)


def test_diag_rank_one_eigh_peak_memory():
    # roots and weights need O(N) memory; the N x N eigenvector matrix
    # alone would be N length-N arrays
    N = 3000
    rng = np.random.default_rng(0)
    lam, z = np.sort(rng.standard_normal(N)), rng.standard_normal(N)
    tracemalloc.start()
    try:
        diag_rank_one_eigh(lam, z, 1.5 / N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 8 * N


@pytest.mark.parametrize("case", ["sorted", "unsorted-with-ties"])
def test_diag_rank_one_eigh_roots_and_weights(case):
    # in the sorted case the CLI takes, and with grouping, deflation and an
    # unsorted diagonal: roots against eigvalsh, and the weights (z^T v_k)^2
    # against the dense eigenvectors
    N = 1000
    rng = np.random.default_rng(1)
    lam, z = np.sort(rng.standard_normal(N)), rng.standard_normal(N)
    if case == "unsorted-with-ties":
        lam[100:140] = lam[100]
        z[500:520] = 0.0
        perm = rng.permutation(N)
        lam, z = lam[perm], z[perm]
    mu, w = diag_rank_one_eigh(lam, z, 1.5 / N)
    ev, U = np.linalg.eigh(np.diag(lam) + 1.5 / N * np.outer(z, z))
    assert np.max(np.abs(mu - ev)) <= 1e-12
    assert np.max(np.abs(w - (z @ U) ** 2)) <= 1e-12 * (z @ z)


def test_diag_rank_one_eigh_reconstructs():
    # unsorted diagonal with a tie and a zero coupling: the roots are D's
    # eigenvalues, and roots and weights reproduce z^T D^p z
    lam = np.array([3.0, -1.0, 2.0, -1.0, 0.5])
    z = np.array([0.3, 1.0, 0.0, -2.0, 0.7])
    D = np.diag(lam) + 0.8 * np.outer(z, z)
    mu, w = diag_rank_one_eigh(lam, z, 0.8)
    assert np.all(np.diff(mu) >= 0)
    assert np.max(np.abs(mu - np.linalg.eigvalsh(D))) < 1e-14
    for p in range(4):
        quad = z @ np.linalg.matrix_power(D, p) @ z
        assert abs(w @ mu**p - quad) < 1e-14 * (z @ z) * np.linalg.norm(D, 2) ** p
    with pytest.raises(ValidationError):
        diag_rank_one_eigh(lam, z, 0.0)
