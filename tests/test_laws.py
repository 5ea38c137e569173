"""Spectral laws: moments, Stieltjes transforms, quantile grids, quadrature,
and the law-spec / file parsers."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from amp_lab.errors import DomainError, NumericalError, ValidationError
from amp_lab.laws import (
    DiscreteGrid,
    ExternalDensity,
    MarchenkoPastur,
    Semicircle,
    _leggauss,
    _read_columns_by_line,
    catalan,
    load_law_file,
    parse_law_spec,
    point_mass,
    read_columns,
)
from amp_lab.se import find_outlier


def _semicircle_table(n: int = 4001) -> ExternalDensity:
    x = np.linspace(-2, 2, n)
    return ExternalDensity(grid=x, density=np.sqrt(np.clip(4 - x * x, 0, None)) / (2 * np.pi))


# ---------------------------------------------------------------------------
# closed-form laws
# ---------------------------------------------------------------------------

def test_semicircle_moments():
    sc = Semicircle()
    catalan = [1, 2, 5, 14]
    for k, c in enumerate(catalan, start=1):
        assert abs(sc.moment(2 * k) - c) < 1e-10
        assert abs(sc.moment(2 * k - 1)) < 1e-12


def test_semicircle_scaled_variance():
    sc = Semicircle(variance=2.0)
    assert abs(sc.moment(2) - 2.0) < 1e-10
    lo, hi = sc.support()
    assert abs(hi - 2.0 * math.sqrt(2.0)) < 1e-12
    assert abs(lo + hi) < 1e-12


def test_mp_moments():
    # m_1 = 1, m_2 = 1 + alpha, m_3 = 1 + 3 alpha + alpha^2
    a = 0.2
    mp = MarchenkoPastur(alpha=a)
    assert abs(mp.moment(1) - 1.0) < 1e-10
    assert abs(mp.moment(2) - (1 + a)) < 1e-10
    assert abs(mp.moment(3) - (1 + 3 * a + a * a)) < 1e-10


def test_mp_alpha_validation():
    with pytest.raises(ValidationError):
        MarchenkoPastur(alpha=0.0)
    with pytest.raises(ValidationError):
        MarchenkoPastur(alpha=1.5)


def test_total_mass_one():
    for law in (Semicircle(), MarchenkoPastur(alpha=0.3),
                DiscreteGrid(atoms=np.array([0.0, 1.0, 2.0]))):
        assert abs(law.expect(lambda x: np.ones_like(x)) - 1.0) < 1e-10


# ---------------------------------------------------------------------------
# Stieltjes transforms
# ---------------------------------------------------------------------------

def test_stieltjes_asymptotics():
    # m(z) ~ 1/z + m_1/z^2 as |z| -> inf
    for law in (Semicircle(), MarchenkoPastur(alpha=0.4)):
        z = 50.0 + 0.0j
        m = law.stieltjes(z)
        approx = 1 / z + law.moment(1) / z**2 + law.moment(2) / z**3
        assert abs(m - approx) < 1e-4


def test_stieltjes_herglotz_branch():
    # Im m(z) and Im z have opposite signs off the real axis
    for law in (Semicircle(), MarchenkoPastur(alpha=0.4)):
        for z in (1.0 + 0.5j, -0.3 + 2j, 2.0 - 1j):
            m = law.stieltjes(z)
            assert m.imag * z.imag < 0


def test_stieltjes_matches_quadrature():
    for law in (Semicircle(), MarchenkoPastur(alpha=0.25), _semicircle_table()):
        z = 0.7 + 0.3j
        direct = law.expect(lambda x: np.real(1.0 / (z - x))) \
            + 1j * law.expect(lambda x: np.imag(1.0 / (z - x)))
        assert abs(law.stieltjes(z) - direct) < 1e-7


def test_density_table_stieltjes_is_closed_form_off_and_on_the_support():
    # off the support it is the semicircle's to the table's own resolution;
    # at x - i0 on it, Im m = pi rho(x); on the real support it is refused
    table, sc = _semicircle_table(), Semicircle()
    for z in (2.5, -3.0, 50.0, 0.3 + 1e-3j):
        assert abs(table.stieltjes(z) - sc.stieltjes(z)) < 1e-5 * abs(sc.stieltjes(z))
    for x in (-1.7, 0.0, 0.9):
        m = table.stieltjes(complex(x, -1e-10))
        assert abs(m.imag - np.pi * table._density_vector(np.array([x]))[0]) < 1e-8
    with pytest.raises(DomainError):
        table.stieltjes(1.0)


def test_find_outlier_on_a_density_table():
    # the BBP outlier theta + 1/theta of the tabulated semicircle
    theta = 1.5
    z_star, _ = find_outlier(_semicircle_table(), theta)
    assert abs(z_star - (theta + 1 / theta)) < 1e-3


@pytest.mark.parametrize("theta", [1.2, 1.5, 3.0])
def test_find_outlier_semicircle_closed_form(theta):
    # the BBP outlier theta + 1/theta of weight 1 - 1/theta^2
    z_star, weight = find_outlier(Semicircle(), theta)
    assert abs(z_star - (theta + 1 / theta)) <= 1e-12
    assert abs(weight - (1 - 1 / theta**2)) <= 1e-12


@pytest.mark.parametrize("variance,theta", [(1e14, 2e7), (2.4e29, 1e15)])
def test_find_outlier_on_a_wide_support(variance, theta):
    # the outlier theta + v/theta of weight 1 - v/theta^2 where the edge
    # 2 sqrt(v) is past 1e7, so that edge + 1e-9 rounds to the edge
    z_star, weight = find_outlier(Semicircle(variance=variance), theta)
    assert abs(z_star - (theta + variance / theta)) <= 1e-12 * z_star
    assert abs(weight - (1 - variance / theta**2)) <= 1e-12


@pytest.mark.parametrize("alpha,theta", [(0.2, 1.5), (0.3, 1.2)])
def test_mp_stieltjes_derivative_at_the_outlier(alpha, theta):
    law = MarchenkoPastur(alpha=alpha)
    z_star, weight = find_outlier(law, theta)
    ref = -law.expect(lambda x: 1.0 / (z_star - x) ** 2)
    mprime = law.stieltjes_derivative(z_star)
    assert abs(mprime - ref) <= 1e-10 * abs(ref)
    assert weight == -1.0 / (theta**2 * mprime.real)


def test_stieltjes_derivative_of_atoms_and_tables():
    # atoms: -mean(1/(z - a)^2) exactly; a density table: the derivative of
    # its closed form, against a central difference of it
    atoms = np.array([-1.0, 0.5, 2.0])
    z = 0.1 + 0.2j
    assert abs(DiscreteGrid(atoms=atoms).stieltjes_derivative(z)
               + np.mean(1.0 / (z - atoms) ** 2)) < 1e-14
    table = _semicircle_table(401)
    for z in (2.5, -3.0, 0.3 + 0.5j):
        h = 1e-5
        diff = (table.stieltjes(z + h) - table.stieltjes(z - h)) / (2 * h)
        assert abs(table.stieltjes_derivative(z) - diff) < 1e-8 * abs(diff)
    with pytest.raises(DomainError):
        table.stieltjes_derivative(1.0)


def test_atom_law_stieltjes_and_derivative_refuse_an_atom():
    law = DiscreteGrid(atoms=np.array([0.0, 1.0]))
    for transform in (law.stieltjes, law.stieltjes_derivative):
        with pytest.raises(DomainError, match="coincides with an atom"):
            transform(1.0)


def test_discrete_grid_stieltjes_exact():
    atoms = np.array([-1.0, 0.5, 2.0])
    law = DiscreteGrid(atoms=atoms)
    z = 0.1 + 0.2j
    expected = np.mean(1.0 / (z - atoms))
    assert abs(law.stieltjes(z) - expected) < 1e-14


def test_weighted_grid_is_the_weighted_atom_law():
    # expectations, moments, both transforms and the quadrature rule all take
    # the weights; equal given weights are the equal-weight law
    atoms, w = np.array([-1.0, 0.5, 2.0]), np.array([0.5, 0.2, 0.3])
    law, z = DiscreteGrid(atoms=atoms, weights=w), 0.1 + 0.2j
    assert abs(law.expect(np.cos) - w @ np.cos(atoms)) < 1e-15
    assert abs(law.moment(3) - w @ atoms**3) < 1e-15
    assert abs(law.stieltjes(z) - w @ (1.0 / (z - atoms))) < 1e-14
    assert abs(law.stieltjes_derivative(z) + w @ (1.0 / (z - atoms) ** 2)) < 1e-14
    nodes, weights = law.quad_nodes()
    assert np.array_equal(nodes, atoms) and np.array_equal(weights, w)
    equal = DiscreteGrid(atoms=atoms, weights=np.full(3, 1 / 3))
    assert abs(equal.moment(2) - DiscreteGrid(atoms=atoms).moment(2)) < 1e-15
    assert np.array_equal(equal.quantile_grid(3).atoms, atoms)


@pytest.mark.parametrize("weights", [[0.5, 0.5], [0.5, np.nan, 0.5], [0.5, -0.1, 0.6],
                                     [[0.2, 0.3, 0.5]]])
def test_weighted_grid_rejects_bad_weights(weights):
    with pytest.raises(ValidationError, match="weights"):
        DiscreteGrid(atoms=np.array([-1.0, 0.5, 2.0]), weights=np.array(weights))


def test_quantile_grid_of_a_weighted_grid_raises():
    law = DiscreteGrid(atoms=np.array([-1.0, 0.5, 2.0]), weights=np.array([0.5, 0.2, 0.3]))
    for N in (2, 3, 10):
        with pytest.raises(ValidationError, match="equal weights"):
            law.quantile_grid(N)


# ---------------------------------------------------------------------------
# quantile grids and quadrature
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("law", [Semicircle(), MarchenkoPastur(alpha=0.2)])
def test_quantile_grid_matches_moments(law):
    grid = law.quantile_grid(4000)
    for n in range(1, 5):
        emp = np.mean(grid.atoms ** n)
        assert abs(emp - law.moment(n)) < 0.02 * max(1.0, abs(law.moment(n)))


def test_quantile_grid_sorted_and_supported():
    law = MarchenkoPastur(alpha=0.3)
    grid = law.quantile_grid(500)
    atoms = grid.atoms
    assert np.all(np.diff(atoms) >= 0)
    lo, hi = law.support()
    assert atoms[0] >= lo - 1e-6 and atoms[-1] <= hi + 1e-6


@pytest.mark.parametrize("law", [Semicircle(), MarchenkoPastur(alpha=0.2)])
def test_quad_nodes_integrate_moments(law):
    nodes, w = law.quad_nodes()
    assert abs(w.sum() - 1.0) < 1e-10
    for n in range(1, 9):
        assert abs(w @ nodes**n - law.moment(n)) < 1e-9 * max(1, abs(law.moment(n)))


@pytest.mark.parametrize("alpha", [1e-40, 1e-33, 1e-30, 1e-25, 1e-20, 1e-10, 1e-4, 0.3, 0.99])
def test_mp_quad_weights_keep_their_mass_at_every_aspect_ratio(alpha):
    # the half-width 2 sqrt(alpha) of the support, not (a+ - a-) / 2 formed
    # from two numbers near 1, which lost the mass below alpha ~ 1e-20
    _, w = MarchenkoPastur(alpha=alpha).quad_nodes()
    assert abs(w.sum() - 1.0) <= 8 * np.finfo(float).eps


def test_external_density_roundtrip():
    # tabulated semicircle density behaves like the closed form
    sc = Semicircle()
    law = _semicircle_table()
    for n in (1, 2, 4):
        assert abs(law.moment(n) - sc.moment(n)) < 5e-4
    nodes, w = law.quad_nodes()
    assert abs(w.sum() - 1.0) < 1e-6


# ---------------------------------------------------------------------------
# parsers
# ---------------------------------------------------------------------------

def test_parse_law_spec():
    assert isinstance(parse_law_spec("semicircle"), Semicircle)
    mp = parse_law_spec("mp:alpha=0.2")
    assert isinstance(mp, MarchenkoPastur) and mp.alpha == 0.2
    pm = parse_law_spec("point:c=1.5")
    assert isinstance(pm, DiscreteGrid) and pm.atoms[0] == 1.5
    with pytest.raises(ValidationError):
        parse_law_spec("weibull")


def test_point_mass_moments():
    law = point_mass(2.0)
    assert law.moment(3) == 8.0


def test_load_law_file_atoms(tmp_path):
    p = tmp_path / "atoms.txt"
    p.write_text("# comment\n1.0\n2.0\n\n3.0\n")
    law = load_law_file(str(p))
    assert isinstance(law, DiscreteGrid)
    assert np.allclose(np.sort(law.atoms), [1, 2, 3])


def test_load_law_file_density(tmp_path):
    p = tmp_path / "dens.txt"
    x = np.linspace(-2, 2, 801)
    d = np.sqrt(np.clip(4 - x * x, 0, None)) / (2 * np.pi)
    p.write_text("\n".join(f"{a} {b}" for a, b in zip(x, d)))
    law = load_law_file(str(p))
    assert isinstance(law, ExternalDensity)
    assert abs(law.moment(2) - 1.0) < 1e-2


def test_load_law_file_errors_carry_line_numbers(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("1.0\nnot-a-number\n")
    with pytest.raises(ValidationError, match=":2"):
        load_law_file(str(p))
    q = tmp_path / "ragged.txt"
    q.write_text("1.0 0.5\n2.0\n")
    with pytest.raises(ValidationError, match=":2"):
        load_law_file(str(q))
    r = tmp_path / "empty.txt"
    r.write_text("# nothing\n")
    with pytest.raises(ValidationError, match="no data"):
        load_law_file(str(r))


def test_a_200k_line_law_file_reads_as_loadtxt_does(tmp_path):
    # the one-pass reader: about 0.15 s for this file on a 2-core x86-64
    # host, where the value-by-value reader took 0.33 s and np.loadtxt 0.09 s
    atoms = MarchenkoPastur(alpha=0.2).quantile_grid(200_000).atoms
    p = tmp_path / "law.txt"
    p.write_text("# MP(0.2) quantiles\n" + "\n".join(map(repr, atoms.tolist())) + "\n\n")
    data = read_columns(str(p), "law file", (1, 2))
    assert data.shape == (200_000, 1)
    assert np.array_equal(data[:, 0], np.loadtxt(str(p)))
    assert np.array_equal(data[:, 0], atoms)


_TABLE_PIECES = ["1", "-2.5", "3e2", "1_0", "nan", "inf", "x", "#", " ", "\t", "\x0b", "\x0c",
                 "\n", "\r", "\r\n"]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.sampled_from(_TABLE_PIECES), max_size=30))
@example(["1", " ", "-2.5", " ", "3e2", "\n", "1_0"])  # 3 + 1 values: two rows of two by count
@example(["1", "\r", "-2.5", "#", "x", "\n", "\x0c", "3e2"])
def test_one_pass_reader_agrees_with_the_line_reader(tmp_path, pieces):
    # the same table or the same error message, word for word
    p = tmp_path / "table.txt"
    p.write_text("".join(pieces), newline="")

    def outcome(reader):
        try:
            return reader(str(p), "law file", (1, 2)).tolist()
        except ValidationError as exc:
            return str(exc)

    assert outcome(read_columns) == outcome(_read_columns_by_line)


@pytest.mark.parametrize("name", ["", "absent.txt", "."])
def test_missing_or_unreadable_law_file_is_a_validation_error(tmp_path, name):
    # "file:" names no file; "file:." names a directory
    path = "" if name == "" else str(tmp_path / name)
    with pytest.raises(ValidationError, match="law file"):
        parse_law_spec("file:" + path)


@pytest.mark.parametrize("spec,law", [
    ("sc:variance=2", Semicircle(variance=2.0)), (" GOE : Var = 2 ", Semicircle(variance=2.0)),
    ("semicircle:", Semicircle()), ("Marchenko-Pastur:ALPHA=0.3", MarchenkoPastur(alpha=0.3)),
    ("mp", MarchenkoPastur(alpha=0.5)),
])
def test_law_spec_spellings_name_one_law(spec, law):
    assert parse_law_spec(spec) == law


@pytest.mark.parametrize("spec,needle", [
    ("semicircle:var=2,variance=3", "given twice"), ("mp:alpha=0.2,alpha=0.3", "given twice"),
    ("semicircle:var=2,", "unknown parameter"), ("mp:alpha", "not a number"),
    ("wigner", "unknown law spec"),
])
def test_law_spec_rejects_repeated_missing_and_unknown_keys(spec, needle):
    with pytest.raises(ValidationError, match=needle):
        parse_law_spec(spec)


@pytest.mark.parametrize("spec", ["semicircle:var=nan", "semicircle:var=inf",
                                  "semicircle:var=1e300", "point:c=inf", "point:c=nan",
                                  "point:c=-1e100"])
def test_non_finite_law_parameters_rejected(spec):
    with pytest.raises(ValidationError):
        parse_law_spec(spec)


@pytest.mark.parametrize("table", ["1.0\ninf\n", "nan\n", "0 1\n1 nan\n2 1\n",
                                   "0 1\ninf 1\n", "0 inf\n1 1\n",
                                   "0 1\n5e-324 1\n", "0 0\n1.8826534973161846e-171 1\n"])
def test_non_finite_law_tables_rejected(tmp_path, table):
    p = tmp_path / "law.txt"
    p.write_text(table)
    with pytest.raises(ValidationError):
        load_law_file(str(p))


_LAW_HEADS = ["semicircle", "sc", "goe", "mp", "marchenko-pastur", "marchenkopastur",
              "point", "point-mass"]
_NUMBER_TEXT = st.floats().map(repr) | st.sampled_from(
    ["nan", "inf", "-inf", "1e999", "1e300", "-0", "5e-324", "0.3", "1.5"])
_PARAM_TEXT = st.text(max_size=12) | st.builds(
    "{}={}".format, st.sampled_from(["var", "variance", "alpha", "c", "x"]),
    _NUMBER_TEXT | st.text(max_size=6))
_TABLE_ROWS = st.lists(st.lists(_NUMBER_TEXT, min_size=1, max_size=2), max_size=6)
_DENSITY_ROWS = st.lists(st.floats(), min_size=2, max_size=6, unique=True).flatmap(
    lambda xs: st.lists(_NUMBER_TEXT, min_size=len(xs), max_size=len(xs)).map(
        lambda ds: [[repr(x), d] for x, d in zip(sorted(xs), ds)]))


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(head=st.sampled_from(_LAW_HEADS) | st.text(max_size=8).filter(
           lambda h: h.partition(":")[0].strip().lower() != "file"),
       params=st.lists(_PARAM_TEXT, max_size=3),
       table=st.none() | _TABLE_ROWS | _DENSITY_ROWS)
def test_law_spec_gives_finite_law_or_validation_error(tmp_path, head, params, table):
    # file: specs point only at the table written here
    if table is None:
        spec = head + (":" + ",".join(params) if params else "")
    else:
        path = tmp_path / "law.txt"
        path.write_text("\n".join(" ".join(row) for row in table) + "\n")
        spec = f"file:{path}"
    try:
        law = parse_law_spec(spec)
    except ValidationError:
        return
    lo, hi = law.support()
    assert math.isfinite(lo) and math.isfinite(hi) and lo <= hi
    assert all(math.isfinite(m) for m in law.moments(4))


# ---------------------------------------------------------------------------
# the Gauss-Legendre expectation engine
# ---------------------------------------------------------------------------

def _quad_reference(law, f):
    """E[f] by adaptive scipy quadrature over the arcsine substitution."""
    from scipy import integrate

    if isinstance(law, Semicircle):
        r = 2.0 * math.sqrt(law.variance)

        def integrand(theta):
            return f(r * np.sin(theta)) * (2.0 / np.pi) * np.cos(theta) ** 2
    else:
        a_minus, a_plus = law.edges
        mid, half = 0.5 * (a_plus + a_minus), 0.5 * (a_plus - a_minus)

        def integrand(theta):
            lam = mid + half * np.sin(theta)
            return f(lam) * half**2 * np.cos(theta) ** 2 / (2.0 * np.pi * law.alpha * lam)

    with warnings.catch_warnings():  # its roundoff warnings on odd integrands
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, _ = integrate.quad(integrand, -np.pi / 2, np.pi / 2, epsabs=1e-12,
                                epsrel=1e-12, limit=200)
    return val


def _engine_integrands(law):
    from amp_lab.freeprob import build_poly_family
    from amp_lab.se import mp_denoise_fn

    fs = [lambda x, n=n: x**n for n in range(21)]
    if isinstance(law, MarchenkoPastur):
        g = mp_denoise_fn(1.5, law.alpha)
        fs += [lambda x, k=k: g(x) ** k for k in range(1, 11)]
    z = 0.7 + 0.3j  # as in test_stieltjes_matches_quadrature
    fs += [lambda x: np.real(1.0 / (z - x)), lambda x: np.imag(1.0 / (z - x))]
    fam = build_poly_family(law, "Q", 6)
    fs += [lambda x, i=i, j=j: fam.evaluate(i, x) * fam.evaluate(j, x)
           for i in range(7) for j in range(i, 7)]
    return fs


@pytest.mark.parametrize("law", [Semicircle(), Semicircle(variance=2.0)]
                         + [MarchenkoPastur(alpha=a) for a in (0.2, 0.5, 0.9, 0.99)],
                         ids=lambda law: repr(law))
def test_expect_matches_scipy_quad(law):
    for f in _engine_integrands(law):
        ref = _quad_reference(law, f)
        assert abs(law.expect(f) - ref) <= 1e-10 * max(1.0, abs(ref))


@pytest.mark.parametrize("alpha", [0.2, 0.5, 0.9])
def test_mp_closed_form_moments_match_expectation(alpha):
    mp = MarchenkoPastur(alpha=alpha)
    assert mp.moment(0) == 1.0
    for n in range(1, 21):
        by_quadrature = mp.expect(lambda x, n=n: x**n)
        assert abs(mp.moment(n) - by_quadrature) <= 1e-13 * by_quadrature


@pytest.mark.parametrize("f", [lambda x: np.sign(x - 0.3), lambda x: np.cos(1e4 * x),
                               lambda x: 1.0 / (x - 0.3)])
def test_expect_raises_when_rules_do_not_agree(f):
    with pytest.raises(NumericalError, match="did not converge"):
        Semicircle().expect(f)


def test_expect_raises_on_non_finite_integrand():
    with pytest.raises(NumericalError, match="not finite"):
        MarchenkoPastur(alpha=0.3).expect(lambda x: np.log(x - 1.0))


def test_expect_accepts_constant_integrand():
    assert MarchenkoPastur(alpha=0.3).expect(lambda x: 2.5) == pytest.approx(2.5, abs=1e-13)


def test_catalan_lives_in_laws():
    import amp_lab.freeprob

    assert not hasattr(amp_lab.freeprob, "catalan")
    assert [catalan(k) for k in range(7)] == [1, 1, 2, 5, 14, 42, 132]
    assert Semicircle(variance=2.0).moment(8) == 14 * 2.0**4


@pytest.mark.parametrize("law", [Semicircle(variance=1.5), MarchenkoPastur(alpha=0.2),
                                 ExternalDensity(grid=np.linspace(0.0, 2.0, 9),
                                                 density=np.linspace(1.0, 3.0, 9))],
                         ids=lambda law: type(law).__name__)
def test_cdf_grid_equals_scipy_cumulative_trapezoid(law):
    from scipy.integrate import cumulative_trapezoid

    lam, cdf = law.cdf_grid(5001)
    ref = cumulative_trapezoid(law._density_vector(lam), lam, initial=0.0)
    assert np.array_equal(cdf, ref / ref[-1])


def _unique_quantile_atoms(law, N):
    """The midpoint-quantile atoms by the table-sized formula quantile_grid
    replaced: the whole CDF table at once and np.unique for its strictly
    increasing points."""
    lo, hi = law.support()
    s = np.linspace(0.0, 1.0, 60_000)
    lam = lo + (hi - lo) * 0.5 * (1.0 - np.cos(np.pi * s))
    dens = law._density_vector(lam)
    cdf = np.concatenate(([0.0], np.cumsum(np.diff(lam) * (dens[1:] + dens[:-1]) / 2.0)))
    cdf /= cdf[-1]
    cdf_u, idx = np.unique(cdf, return_index=True)
    return np.sort(np.interp((np.arange(N) + 0.5) / N, cdf_u, lam[idx]))


def _law_with_flat_segments(tmp_path):
    # zero-density stretches make the CDF table flat over thousands of points
    path = tmp_path / "gaps.txt"
    path.write_text("0 1\n0.5 2\n1 0\n1.5 0\n2 1\n3 0\n3.2 0\n4 0.5\n")
    return parse_law_spec(f"file:{path}")


@pytest.mark.parametrize("N", [1, 16, 1000, 200_000])
@pytest.mark.parametrize("case", ["semicircle", "mp", "file-with-gaps"])
def test_quantile_grid_atoms_bit_identical_to_unique_formula(case, N, tmp_path):
    law = {"semicircle": lambda: Semicircle(variance=1.5),
           "mp": lambda: MarchenkoPastur(alpha=0.3),
           "file-with-gaps": lambda: _law_with_flat_segments(tmp_path)}[case]()
    atoms = law.quantile_grid(N).atoms
    assert atoms.tobytes() == _unique_quantile_atoms(law, N).tobytes()


@pytest.mark.parametrize("law", [Semicircle(), MarchenkoPastur(alpha=0.3)],
                         ids=lambda law: type(law).__name__)
def test_quantile_grid_keeps_no_table_sized_temporaries(law):
    import tracemalloc

    law.quantile_grid(1000)  # any first-call caches
    tracemalloc.start()
    try:
        law.quantile_grid(1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the two 60 000-point tables (lam, cdf) are 0.96 MB; the formula with
    # np.unique held about seven and peaked at 3.4 MB
    assert peak <= 1.5e6


def _leggauss_reference(n: int, x0: float) -> tuple:
    """The root of P_n next to x0 and its Gauss-Legendre weight, by Newton's
    method at 40 decimal digits."""
    from decimal import Decimal, localcontext

    def pair(x):
        p_prev, p = Decimal(1), x
        for j in range(1, n):
            p_prev, p = p, ((2 * j + 1) * x * p - j * p_prev) / (j + 1)
        return p, p_prev

    with localcontext() as ctx:
        ctx.prec = 40
        x = Decimal(x0)
        for _ in range(5):
            p, q = pair(x)
            x -= p * (1 - x * x) / (n * (q - x * p))
        p, q = pair(x)
        g = n * (q - x * p)  # (1 - x^2) P_n'(x)
        return x, 2 * (1 - x * x) / (g * g)


@pytest.mark.parametrize("n, weight_tol", [(17, 1e-12), (64, 1e-12), (400, 1e-12),
                                           (2048, 1e-9)])
def test_leggauss_matches_decimal_reference(n, weight_tol):
    from decimal import Decimal

    x, w = _leggauss(n)
    assert np.all(np.diff(x) > 0) and np.array_equal(x, -x[::-1])
    for i in (0, 1, n // 2, n - 2, n - 1):  # both edges and the centre
        ref_x, ref_w = _leggauss_reference(n, float(x[i]))
        assert abs(float(ref_x) - x[i]) <= np.finfo(float).eps
        assert abs(float((Decimal(float(w[i])) - ref_w) / ref_w)) <= weight_tol
