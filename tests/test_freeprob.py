"""Moment/cumulant machinery: non-crossing partitions (enumerated, as the
reference for Kreweras' counts), the coefficient recursion, polynomial
families, partial moments, and Monte Carlo estimators."""

import itertools
import math
import threading
import time
from collections import OrderedDict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amp_lab import freeprob
from amp_lab.engines import IDENTITY
from amp_lab.errors import NumericalError, SizeLimitError, ValidationError
from amp_lab.freeprob import (
    GAUSS_RULE_MEMO,
    RECURSION_ORDER_CAP,
    _center_on_moments,
    _gauss_rule,
    _memo_gauss_rule,
    _nc_block_profiles,
    _TraceFreeRows,
    _unit_rows,
    build_poly_family,
    cumulants_from_law,
    cumulants_to_moments_nc,
    mc_cumulants,
    moments_to_cumulants,
    partial_moments,
)
from amp_lab.laws import DiscreteGrid, MarchenkoPastur, Semicircle, catalan, point_mass
from amp_lab.randmat import build_rot_invariant, sample_goe


NC_ORDER_CAP = 12  # the brute-force enumeration below is exponential in k


def _nc_gen(labels: tuple):
    """Every non-crossing partition of `labels`, each a tuple of blocks."""
    if not labels:
        yield ()
        return
    n = len(labels)
    # block of labels[0]: index 0 plus any increasing subset of the rest;
    # the gaps between chosen indices (and the tail) partition independently
    for size in range(n):
        for members in itertools.combinations(range(1, n), size):
            members = (0,) + members
            block = tuple(labels[i] for i in members)
            gaps = []
            for lo, hi in zip(members, members[1:]):
                gaps.append(labels[lo + 1 : hi])
            gaps.append(labels[members[-1] + 1 :])
            for combo in itertools.product(*[tuple(_nc_gen(g)) for g in gaps]):
                part = (block,)
                for sub in combo:
                    part += sub
                yield part


def enumerate_nc_partitions(k: int):
    """All non-crossing partitions of {1, ..., k}, each a tuple of blocks."""
    if k < 1:
        raise ValidationError("k must be >= 1")
    if k > NC_ORDER_CAP:
        raise SizeLimitError(f"k={k} exceeds the combinatorial cap {NC_ORDER_CAP}")
    return list(_nc_gen(tuple(range(1, k + 1))))


def is_noncrossing(partition) -> bool:
    """Direct four-element crossing test (independent of the generator)."""
    blocks = [set(b) for b in partition]
    elems = sorted(e for b in blocks for e in b)
    idx = {}
    for i, b in enumerate(blocks):
        for e in b:
            idx[e] = i
    for a, b, c, d in itertools.combinations(elems, 4):
        if idx[a] == idx[c] and idx[b] == idx[d] and idx[a] != idx[b]:
            return False
    return True


def partition_to_tuple(partition, k: int) -> tuple:
    """Bijection onto step sequences: entry i is the block size if i is the
    largest element of its block, else 0."""
    s = [0] * k
    for block in partition:
        s[max(block) - 1] = len(block)
    return tuple(s)


def enumerate_step_tuples(k: int):
    """Tuples (s_1..s_k) with s_i >= 0, partial sums <= position, total = k."""
    if k > NC_ORDER_CAP:
        raise SizeLimitError(f"k={k} exceeds the combinatorial cap {NC_ORDER_CAP}")

    out = []

    def rec(prefix, total):
        m = len(prefix)
        if m == k:
            if total == k:
                out.append(tuple(prefix))
            return
        for s in range(0, m + 1 - total + 1):
            if total + s <= m + 1:
                rec(prefix + [s], total + s)

    rec([], 0)
    return out


# ---------------------------------------------------------------------------
# noncrossing partitions
# ---------------------------------------------------------------------------

def test_catalan_recurrence():
    # C_0 = 1, C_{k+1} = sum_i C_i C_{k-i}
    assert catalan(0) == 1
    for k in range(11):
        assert catalan(k + 1) == sum(catalan(i) * catalan(k - i) for i in range(k + 1))


@pytest.mark.parametrize("k", range(1, 9))
def test_nc_partition_count_is_catalan(k):
    parts = list(enumerate_nc_partitions(k))
    assert len(parts) == catalan(k)
    seen = {tuple(sorted(tuple(sorted(b)) for b in p)) for p in parts}
    assert len(seen) == len(parts)  # no duplicates
    for p in parts:
        assert sorted(x for b in p for x in b) == list(range(1, k + 1))
        assert is_noncrossing(p)


@pytest.mark.parametrize("k", range(1, 11))
def test_step_tuple_bijection_count(k):
    assert len(list(enumerate_step_tuples(k))) == catalan(k)


def test_is_noncrossing_detects_crossing():
    assert not is_noncrossing([(1, 3), (2, 4)])
    assert is_noncrossing([(1, 4), (2, 3)])
    assert is_noncrossing([(1, 2, 3, 4)])


def test_partition_to_tuple_roundtrip_counts():
    k = 6
    tuples = {partition_to_tuple(p, k) for p in enumerate_nc_partitions(k)}
    assert len(tuples) == catalan(k)


@pytest.mark.parametrize("n", range(1, 11))
def test_kreweras_counts_are_the_enumerations_in_its_order(n):
    # the oracle's profiles and counts, in the order the enumeration first meets each
    counts = {}
    for part in enumerate_nc_partitions(n):
        key = tuple(sorted(len(b) for b in part))
        counts[key] = counts.get(key, 0) + 1
    assert list(_nc_block_profiles(n)) == list(counts.items())


@pytest.mark.parametrize("n", range(1, RECURSION_ORDER_CAP + 1))
def test_kreweras_counts_sum_to_catalan_and_narayana(n):
    # NC(n) has C_n partitions, C(n, k) C(n, k-1) / n of them with k blocks
    by_blocks = {}
    for sizes, count in _nc_block_profiles(n):
        by_blocks[len(sizes)] = by_blocks.get(len(sizes), 0) + count
    assert sum(by_blocks.values()) == catalan(n)
    assert by_blocks == {k: math.comb(n, k) * math.comb(n, k - 1) // n for k in range(1, n + 1)}


# ---------------------------------------------------------------------------
# moment <-> cumulant maps
# ---------------------------------------------------------------------------

def test_semicircle_moments_are_catalan():
    # kappa = (0,1,0,...) => m_{2k} = C_k, odd moments 0
    mom = cumulants_to_moments_nc([0, 1, 0, 0, 0, 0, 0, 0])
    expected = [0, 1, 0, 2, 0, 5, 0, 14]
    assert np.allclose(mom, expected)


def test_point_mass_cumulants():
    table = cumulants_from_law(point_mass(1.5), 4)
    assert np.allclose(table.cumulants, [1.5, 0.0, 0.0, 0.0], atol=1e-12)


def test_free_poisson_cumulants_exact_fraction():
    # MP(alpha) has kappa_n = alpha^(n-1); verify in exact arithmetic through
    # the NC moment oracle
    alpha = Fraction(1, 5)
    kap = [alpha ** (n - 1) for n in range(1, 7)]
    mom = cumulants_to_moments_nc(kap)
    back = moments_to_cumulants(mom).cumulants
    assert list(back) == kap


def test_roundtrip_rational_is_exact():
    kap = [Fraction(1, 3), Fraction(-2, 7), Fraction(5, 2), Fraction(0),
           Fraction(1, 11), Fraction(-3, 4)]
    mom = cumulants_to_moments_nc(kap)
    assert list(moments_to_cumulants(mom).cumulants) == kap


def test_nc_oracle_runs_to_the_recursion_cap_and_no_further():
    kap = [Fraction((-1) ** n * (n + 1), 2 * n + 3) for n in range(RECURSION_ORDER_CAP)]
    mom = cumulants_to_moments_nc(kap)
    assert list(moments_to_cumulants(mom).cumulants) == kap
    with pytest.raises(SizeLimitError, match="order 21 exceeds the recursion cap 20"):
        cumulants_to_moments_nc(kap + [Fraction(1)])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=-2, max_value=2, allow_nan=False),
                min_size=1, max_size=8))
def test_roundtrip_property(kappas):
    mom = cumulants_to_moments_nc(kappas)
    back = moments_to_cumulants(mom).cumulants
    tol = 1e-10 * (1.0 + float(np.max(np.abs(mom))))
    assert np.max(np.abs(np.array(back) - np.array(kappas))) <= tol


def test_moments_to_cumulants_validates():
    with pytest.raises(ValidationError):
        moments_to_cumulants([])
    with pytest.raises(SizeLimitError):
        moments_to_cumulants(list(range(25)))


def test_order_cap_is_checked_before_any_moment():
    # Semicircle.moment(2000) overflows a float: the cap must come first
    with pytest.raises(SizeLimitError, match="order 2000 exceeds the recursion cap 20"):
        cumulants_from_law(Semicircle(), 2000)
    with pytest.raises(SizeLimitError, match="order 2000 exceeds the recursion cap 20"):
        build_poly_family(Semicircle(), "Q", 2000)


# ---------------------------------------------------------------------------
# polynomial families
# ---------------------------------------------------------------------------

def test_q_family_centering_is_cumulants():
    law = MarchenkoPastur(alpha=0.25)
    fam = build_poly_family(law, "Q", 6)
    kap = cumulants_from_law(law, 6).cumulants
    assert np.allclose(fam.centering, kap, atol=1e-10)


def test_q_family_orthogonal_to_one():
    # E[Q_n] = 0 for n >= 1
    for law in (Semicircle(), MarchenkoPastur(alpha=0.2),
                DiscreteGrid(atoms=np.linspace(-1, 2, 7))):
        fam = build_poly_family(law, "Q", 6)
        for n in range(1, 7):
            assert abs(law.expect(lambda x, n=n: fam.evaluate(n, x))) < 1e-9


def test_h_family_one_step_recursion():
    # H_n = lambda H_{n-1} - gamma_n with gamma_n = E[Lambda H_{n-1}]
    law = MarchenkoPastur(alpha=0.4)
    fam = build_poly_family(law, "H", 5)
    x = np.linspace(*law.support(), 41)
    for n in range(1, 6):
        gamma = law.expect(lambda v, n=n: v * fam.evaluate(n - 1, v))
        assert abs(gamma - fam.centering[n - 1]) < 1e-9
        lhs = fam.evaluate(n, x)
        rhs = x * fam.evaluate(n - 1, x) - gamma
        assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_k_family_identity_pushforward_equals_q():
    law = MarchenkoPastur(alpha=0.2)
    q = build_poly_family(law, "Q", 5)
    k = build_poly_family(law, "K", 5, f=lambda x: x)
    x = np.linspace(*law.support(), 31)
    for n in range(0, 6):
        assert np.max(np.abs(q.evaluate(n, x) - k.evaluate(n, x))) < 1e-10


def test_k_family_recursion():
    # K_n = f K_{n-1} - sum_i E[f K_{i-1}] K_{n-i}
    law = MarchenkoPastur(alpha=0.3)
    f = lambda x: x + 0.5 * x**2
    fam = build_poly_family(law, "K", 4, f=f)
    x = np.linspace(*law.support(), 31)
    for n in range(1, 5):
        rhs = f(x) * fam.evaluate(n - 1, x)
        for i in range(1, n + 1):
            c = law.expect(lambda v, i=i: f(v) * fam.evaluate(i - 1, v))
            rhs = rhs - c * fam.evaluate(n - i, x)
        assert np.max(np.abs(fam.evaluate(n, x) - rhs)) < 1e-8


def test_q_product_moment_identity():
    # E[Q_{I+1} Q_{J+1}] = sum over the cross-cumulant expansion:
    # E[Lambda Q_I Lambda Q_J] decomposes via partial moments; spot-check the
    # Gram matrix against direct quadrature instead
    law = MarchenkoPastur(alpha=0.2)
    fam = build_poly_family(law, "Q", 5)
    for i in range(1, 5):
        for j in range(1, 5):
            direct = law.expect(lambda x, i=i, j=j: fam.evaluate(i, x) * fam.evaluate(j, x))
            # Gram must be symmetric and PSD-consistent
            direct_t = law.expect(lambda x, i=i, j=j: fam.evaluate(j, x) * fam.evaluate(i, x))
            assert abs(direct - direct_t) < 1e-12
    g = np.array([[law.expect(lambda x, i=i, j=j: fam.evaluate(i, x) * fam.evaluate(j, x))
                   for j in range(1, 5)] for i in range(1, 5)])
    assert np.min(np.linalg.eigvalsh(g)) > -1e-10


# ---------------------------------------------------------------------------
# partial moments
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("law", [Semicircle(), MarchenkoPastur(alpha=0.2)])
def test_partial_moments_match_expectations(law):
    order = 6
    pm = partial_moments(law, order)
    fam = build_poly_family(law, "Q", order)
    for k in range(0, order + 1):
        for j in range(0, order + 1):
            direct = law.expect(lambda x, k=k, j=j: x**k * fam.evaluate(j, x))
            assert abs(pm[k, j] - direct) < 1e-9, (k, j)


def test_partial_moments_first_row_is_cumulants():
    # c_{1,j} = kappa_{j+1}
    law = MarchenkoPastur(alpha=0.3)
    pm = partial_moments(law, 5)
    kap = cumulants_from_law(law, 6).cumulants
    for j in range(0, 5):
        assert abs(pm[1, j] - kap[j]) < 1e-10


def test_partial_moments_base_row():
    # c_{0,0} = 1 = E[Q_0]; c_{0,j} = E[Q_j] = 0 for j >= 1
    law = MarchenkoPastur(alpha=0.2)
    pm = partial_moments(law, 5)
    assert pm[0, 0] == 1.0
    for j in range(1, 6):
        assert abs(pm[0, j]) < 1e-12


def test_partial_moments_cap_names_the_requested_order():
    # order k takes 2 k + 1 moments: 9 is the largest order within the cap
    assert partial_moments(Semicircle(), 9).shape == (10, 10)
    with pytest.raises(SizeLimitError, match="order 10 needs 21 moments"):
        partial_moments(Semicircle(), 10)


# ---------------------------------------------------------------------------
# the Onsager rows are the centering
# ---------------------------------------------------------------------------

def _last_shift_row(law, T, template):
    """Row T of `_TraceFreeRows`' Onsager rows E with f = identity and Phi the
    shift matrix (Phi_{n,n-1} = 1), reversed: entry n is E_{T,T-n+1}."""
    rows = _TraceFreeRows.over(law, [IDENTITY] * T, template)
    Phi = np.eye(T, k=-1)
    for n in range(1, T + 1):
        e = rows.append(Phi[n - 1, : n - 1])
    return e[::-1]


def test_shift_rows_of_template_u_are_the_free_cumulants_past_the_cap():
    # E = sum_i kappa_i Phi^{i-1}, so E_{T,m} = kappa_{T-m+1}, at T = 40
    T = 40
    kappa = _last_shift_row(MarchenkoPastur(alpha=0.2), T, "u")
    assert np.max(np.abs(kappa - 0.2 ** np.arange(T))) <= 1e-14
    kappa = _last_shift_row(Semicircle(), T, "u")
    assert np.max(np.abs(kappa - np.eye(T)[1])) <= 1e-14


def test_shift_rows_of_template_ubar_are_the_h_centering_constants():
    # E = sum_i gamma_i Phi^{i-1}; gamma from MP(1/5)'s Narayana moments in
    # exact arithmetic, by the one-step centering
    T, a = 20, Fraction(1, 5)
    moments = [sum(Fraction(math.comb(n, k) * math.comb(n, k + 1), n) * a**k for k in range(n))
               for n in range(1, T + 1)]
    gamma = np.array([float(g) for g in _center_on_moments(moments, full_memory=False)[1]])
    rows = _last_shift_row(MarchenkoPastur(alpha=0.2), T, "ubar")
    assert np.max(np.abs(rows - gamma) / np.abs(gamma)) <= 1e-13


def test_gauss_rule_of_a_huge_measure_is_the_scaled_rule():
    # from values of about 1e154 the plain norms of the Lanczos vectors
    # overflow; that is not a breakdown, and the rule is the unit rule scaled
    nodes, w = Semicircle().quad_nodes()
    x, wx = _gauss_rule(lambda v: nodes * v, w, 4)
    big, w_big = _gauss_rule(lambda v: 1e160 * nodes * v, w, 4)
    assert big.size == 4
    assert np.max(np.abs(big / 1e160 - x)) <= 1e-14 * np.max(np.abs(x))
    assert np.max(np.abs(w_big - wx)) <= 1e-14


@pytest.mark.parametrize("weights", [np.zeros(5), np.array([1.0, np.nan]), np.array([-1.0])])
def test_gauss_rule_refuses_a_measure_without_positive_finite_mass(weights):
    with pytest.raises(NumericalError, match="not a positive mass"):
        _gauss_rule(lambda v: v, weights, 2)


@pytest.fixture
def rule_memo(monkeypatch):
    """An empty Gauss-rule memo for one test, and a count of the rules built."""
    built = []
    orig = freeprob._gauss_rule

    def counting(*args):
        built.append(args)
        return orig(*args)

    monkeypatch.setattr(freeprob, "_RULES", OrderedDict())
    monkeypatch.setattr(freeprob, "_gauss_rule", counting)
    return built


def test_memo_rule_is_the_built_rule_read_only(rule_memo):
    nodes, w = MarchenkoPastur(alpha=0.3).quad_nodes()
    f = lambda x: x + 0.3 * x**2  # noqa: E731
    x, wx = _memo_gauss_rule(nodes, w, f, 5, None)
    ref = _gauss_rule(lambda v: f(nodes) * v, w, 5)
    assert np.array_equal(x, ref[0]) and np.array_equal(wx, ref[1])
    assert not x.flags.writeable and not wx.flags.writeable
    with pytest.raises(ValueError):
        x[0] = 0.0
    again = _memo_gauss_rule(nodes.copy(), w.copy(), f, 5, None)  # equal arrays, new objects
    assert again[0] is x and again[1] is wx and len(rule_memo) == 1
    # a new f, k, theta or measure is a new rule; nothing N-long is in a key
    g = lambda x: x + 0.3 * x**2  # noqa: E731
    _memo_gauss_rule(nodes, w, g, 5, None)
    _memo_gauss_rule(nodes, w, IDENTITY, 5, None)
    _memo_gauss_rule(nodes, w, IDENTITY, 5, 1.5)
    _memo_gauss_rule(nodes, w, f, 4, None)
    _memo_gauss_rule(nodes, 0.5 * w, f, 5, None)
    assert len(rule_memo) == len(freeprob._RULES) == 6
    assert _memo_gauss_rule(nodes, w, g, 5, None)[0] is not x
    for key in freeprob._RULES:
        assert all(not isinstance(part, np.ndarray) for part in key)


def test_memo_rule_stays_bounded(rule_memo):
    nodes, w = Semicircle().quad_nodes()
    fs = [lambda x, c=c: x + c * x**2 for c in range(3 * GAUSS_RULE_MEMO)]
    for f in fs:
        _memo_gauss_rule(nodes, w, f, 3, None)
    assert len(freeprob._RULES) == GAUSS_RULE_MEMO
    _memo_gauss_rule(nodes, w, fs[-1], 3, None)  # the most recent ones are kept
    assert len(rule_memo) == 3 * GAUSS_RULE_MEMO


def test_memo_rule_is_built_once_by_concurrent_threads(rule_memo, monkeypatch):
    slow = freeprob._gauss_rule

    def slower(*args):
        time.sleep(0.05)
        return slow(*args)

    monkeypatch.setattr(freeprob, "_gauss_rule", slower)
    nodes, w = Semicircle().quad_nodes()
    out = [None] * 4

    def work(i):
        out[i] = _memo_gauss_rule(nodes, w, IDENTITY, 4, None)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    assert len(rule_memo) == 1 and all(o[0] is out[0][0] for o in out)


@pytest.mark.parametrize("template", ["ubar", "oamp"])
@pytest.mark.parametrize("one_f", [True, False], ids=["gauss-rule", "atoms"])
def test_x_ubar_rows_are_trace_free_under_a_rule_of_mass_one_half(template, one_f):
    # X_m is the unit row e_m, so E_mu[X] is the rule's mass times I and the
    # solve divides E_mu[f S_n] by it; taking e = E_mu[f S_n] as it is leaves
    # E_mu[J_n] = (1 - mass) E_mu[f S_n], half of it here
    rng = np.random.default_rng(7)
    atoms = np.sort(rng.uniform(-2.0, 2.0, 12))
    w = rng.uniform(0.5, 1.5, 12)
    T = 5
    fs = ([IDENTITY] * T if one_f else
          [lambda x, k=k: np.tanh(x + 0.3 * k) for k in range(T)])
    rows = _TraceFreeRows.over(DiscreteGrid(atoms=atoms, weights=0.5 * w / w.sum()), fs, template)
    assert abs(rows.w.sum() - 0.5) <= 1e-15
    Phi = np.tril(rng.uniform(-1.0, 1.0, (T, T)), -1)
    for n in range(1, T + 1):
        rows.append(Phi[n - 1, : n - 1])
        s = np.zeros((n, rows.w.size))
        s[n - 1] = 1.0
        for k, j_k in enumerate(rows.J[:-1] if template == "ubar" else []):
            s[: k + 1] += Phi[n - 1, k] * j_k
        f_s = rows.mean(rows.f_maps[n - 1](s))
        assert np.max(np.abs(rows.mean(rows.J[-1]))) <= 1e-14 * np.max(np.abs(f_s))
        if template == "oamp":  # Phi does not enter: J_n = (f_n - E_mu f_n / mass) e_n
            assert not rows.J[-1][:-1].any()


@pytest.mark.parametrize("template", ["u", "ubar", "oamp"])
@pytest.mark.parametrize("one_f", [True, False], ids=["gauss-rule", "atoms"])
def test_rows_given_their_own_e_replay_the_solved_rows_bit_for_bit(template, one_f):
    # the verifier and the rows over nu take E as given; from the same start
    # and maps, the solved rows' own E must give back the same J
    grid = MarchenkoPastur(alpha=0.3).quantile_grid(40)
    T = 6
    fs = ([lambda x: 0.5 - x + 0.3 * x**2] * T if one_f else
          [lambda x, k=k: np.tanh(x + 0.3 * k) for k in range(T)])
    solved = _TraceFreeRows.over(grid, fs, template)
    assert solved.w.size == (T + 1 if one_f else 40)
    Phi = np.tril(np.random.default_rng(8).uniform(-1.0, 1.0, (T, T)), -1)
    E = [solved.append(Phi[n - 1, : n - 1]) for n in range(1, T + 1)]
    given = _TraceFreeRows(_unit_rows(solved.w.size), solved.f_maps, template, solved.w)
    for n, e in enumerate(E, start=1):
        assert given.append(Phi[n - 1, : n - 1], e) is e
    assert not given.X_mean.any()
    assert all(a.tobytes() == b.tobytes() for a, b in zip(given.J, solved.J, strict=True))


# ---------------------------------------------------------------------------
# Monte Carlo estimators
# ---------------------------------------------------------------------------

def test_mc_cumulants_goe_and_mp():
    W = sample_goe(3000, seed=5)
    k = mc_cumulants(W, 4, seed=6)
    assert np.max(np.abs(k - [0, 1, 0, 0])) < 0.15
    mp = MarchenkoPastur(alpha=0.2)
    ens = build_rot_invariant(mp.quantile_grid(2000).atoms, seed=7)
    k = mc_cumulants(ens, 4, seed=8)
    assert np.max(np.abs(k - 0.2 ** np.arange(4))) < 0.15


def test_mc_cumulants_factored_matches_dense():
    mp = MarchenkoPastur(alpha=0.5)
    ens = build_rot_invariant(mp.quantile_grid(300).atoms, seed=9)
    k_fac = mc_cumulants(ens, 4, seed=10)
    k_dense = mc_cumulants(ens.dense(), 4, seed=10)
    assert np.max(np.abs(k_fac - k_dense)) < 1e-10


def test_mc_rejects_nonsquare():
    with pytest.raises(ValidationError):
        mc_cumulants(np.ones((3, 4)), 2, seed=0)


@pytest.mark.parametrize("estimator", [mc_cumulants], ids=lambda f: f.__name__)
def test_mc_rejects_non_finite_dense_input(estimator):
    W = sample_goe(50, seed=11)
    W[4, 9] = W[9, 4] = np.nan
    with pytest.raises(ValidationError, match="non-finite"):
        estimator(W, 3, seed=0)


@pytest.mark.parametrize("estimator", [mc_cumulants], ids=lambda f: f.__name__)
def test_mc_rejects_non_symmetric_dense_input(estimator):
    # a Gaussian A is not a symmetric matrix; its products would estimate
    # nothing the estimator defines
    A = np.random.default_rng(12).standard_normal((50, 50)) / np.sqrt(50)
    with pytest.raises(ValidationError, match="not symmetric"):
        estimator(A, 3, seed=0)
