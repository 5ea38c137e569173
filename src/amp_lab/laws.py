"""Limiting spectral measures: moments, expectations, Stieltjes transforms, grids.

Supported families:
  * semicircle(variance)
  * marchenko_pastur(aspect ratio alpha in [1e-7, 1))
  * discrete grid (atoms with weights, equal by default): grids, point
    masses, discrete priors and the spiked model's overlap measures
  * external tabulated density (piecewise linear, renormalized on load)

Every family has its Stieltjes transform in closed form: the semicircle's
and MP's quadratic roots, a weighted mean over a grid's atoms, and a sum of one
logarithm per segment for a tabulated density.  The spiked model's outlier
(`se.find_outlier`) reads it, and its derivative, at real z above the
support.

All laws are immutable after construction and safe to share across workers.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NumericalError, ValidationError

QUAD_TOL = 1e-12
# first and largest Gauss-Legendre rule of `expect`
EXPECT_NODES = (64, 2048)
# bound on |lambda| over a law's support: below it every moment up to order
# 20, the recursion cap of `freeprob`, is a finite float (1e15^20 = 1e300)
SUPPORT_CAP = 1e15
# points per block of `cdf_grid`'s density and of `quantile_grid`'s compaction
CDF_BLOCK = 4096
# least MP aspect ratio, the least power of ten from which on the 400-node
# rule's variance is alpha within QUAD_TOL relative: its nodes lie within
# 2 sqrt(alpha) of 1, so rounding keeps eps / sqrt(alpha) of their spread
# (at 1e-8 the variance is off by 1.4e-12)
MP_ALPHA_FLOOR = 1e-7


def catalan(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)


def _check_support(values, what: str) -> None:
    """Reject values that are not finite or lie beyond +-SUPPORT_CAP."""
    if not np.all(np.abs(np.asarray(values, dtype=float)) <= SUPPORT_CAP):
        raise ValidationError(f"{what} must be finite and within +-{SUPPORT_CAP:g}")


def _legendre_pair(x: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(P_n(x), P_{n-1}(x)) by the three-term recurrence, in the form
    P_{j+1} = x P_j + j/(j+1) (x P_j - P_{j-1})."""
    p_prev, p = np.ones_like(x), x
    for j in range(1, n):
        xp = x * p
        p_prev, p = p, xp + (j / (j + 1)) * (xp - p_prev)
    return p, p_prev


@functools.lru_cache(maxsize=32)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes (ascending) and weights on [-1, 1],
    computed once in O(n) memory.

    The nodes in (0, 1] are the roots of P_n(cos theta), found by Newton's
    method in theta from Tricomi's asymptotic guesses; the rule is their
    mirror image on [-1, 0).  With g = n (P_{n-1} - x P_n) = (1 - x^2) P_n',
    the weight 2 (1 - x^2) / g^2 is taken at the rounded node x: g is
    stationary at a root, and the factor 1 + 2 x P_n / g moves 1 - x^2 to
    the true root, whose distance from x is, relative to 1 - x^2, of order
    eps n^2 near the edges."""
    k = np.arange(1, (n + 1) // 2 + 1)
    theta = np.pi * (4 * k - 1) / (4 * n + 2)
    theta = theta + (n - 1) / (8.0 * n**3) / np.tan(theta)
    for _ in range(20):  # three or four steps from these guesses
        x = np.cos(theta)
        p, q = _legendre_pair(x, n)
        step = np.sin(theta) * p / (n * (q - x * p))
        theta = theta + step
        if np.all(np.abs(step * np.sin(theta)) <= 1e-13):
            break
    x = np.cos(theta)
    if n % 2:
        x[-1] = 0.0  # the middle root; cos(pi/2) rounds to 6e-17
    p, q = _legendre_pair(x, n)
    g = n * (q - x * p)
    w = 2.0 * (1.0 - x) * (1.0 + x) * (1.0 + 2.0 * x * p / g) / g**2
    keep = n % 2  # the middle node of an odd rule is not mirrored
    x = np.concatenate((-x, x[::-1][keep:]))
    w = np.concatenate((w, w[::-1][keep:]))
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


@dataclass(frozen=True)
class SpectralLaw:
    """Base class for probability measures on the real line."""

    def support(self) -> tuple[float, float]:
        raise NotImplementedError

    def expect(self, f) -> float:
        """E[f(Lambda)] for a vectorized f, with error <= 1e-9 max(1, |E|)
        (or a few rounding units of E|f| when the values of f cancel).

        f is evaluated on `quad_nodes(n)` for n = 64, 128, ... up to 2048
        nodes (EXPECT_NODES), until two successive rules agree within
        QUAD_TOL max(1, |E|), or within 16 eps E|f|; the finer one is
        returned.  If none do, or f is not finite at a node, NumericalError
        is raised.
        """
        n, cap = EXPECT_NODES
        prev = change = None
        while n <= cap:
            x, w = self.quad_nodes(n)
            with np.errstate(all="ignore"):
                fx = np.broadcast_to(np.asarray(f(x), dtype=float), x.shape)
            if not np.all(np.isfinite(fx)):
                raise NumericalError(f"integrand is not finite at {n} quadrature nodes")
            # the products are summed without rounding, so terms that cancel
            # (an odd f on a symmetric rule) add no error of their own
            val = math.fsum((w * fx).tolist())
            if prev is not None:
                change = abs(val - prev)
                # an integrand whose values cancel, e.g. an odd one, is
                # resolved when the rules agree to the rounding of the sum
                rounding = 16.0 * np.finfo(float).eps * float(w @ np.abs(fx))
                if change <= max(QUAD_TOL * max(1.0, abs(val)), rounding):
                    return val
            prev = val
            n *= 2
        raise NumericalError(f"expectation did not converge by {cap} Gauss-Legendre "
                             f"nodes: estimate {val!r}, last change {change:.2e}")

    def moment(self, n: int) -> float:
        if n < 0:
            raise ValidationError("moment order must be >= 0")
        if n == 0:
            return 1.0
        return self.expect(lambda lam: lam**n)

    def moments(self, order: int) -> list[float]:
        return [self.moment(n) for n in range(1, order + 1)]

    def _off_support(self, z: complex) -> complex:
        """z as a complex number; DomainError when it lies on the support.
        Each law's `stieltjes(z)`, m(z) = E[1/(z - Lambda)], and its closed-form
        `stieltjes_derivative(z)` take such a z."""
        z = complex(z)
        lo, hi = self.support()
        if z.imag == 0.0 and lo <= z.real <= hi:
            raise DomainError(f"z={z} lies on the support [{lo}, {hi}]")
        return z

    def cdf_grid(self, resolution: int = 60_000) -> tuple[np.ndarray, np.ndarray]:
        """(lambda values, CDF values) on an edge-clustered grid.

        The two returned arrays are the only ones of the grid's length: lam is
        formed in place and the density and trapezoid increments in blocks of
        CDF_BLOCK points, so no table-sized temporary is made."""
        lo, hi = self.support()
        # lo + (hi - lo) 0.5 (1 - cos(pi s)), s = linspace(0, 1), in place
        lam = np.linspace(0.0, 1.0, resolution)
        lam *= np.pi
        np.cos(lam, out=lam)
        np.subtract(1.0, lam, out=lam)
        lam *= (hi - lo) * 0.5
        lam += lo
        # cumulative trapezoid, summed in scipy.integrate's operation order:
        # cumsum is a running sum, so starting each block's first increment
        # from the carry adds the terms in the same order as one cumsum
        cdf = np.empty_like(lam)
        cdf[0] = 0.0
        for a in range(0, resolution - 1, CDF_BLOCK):
            seg = lam[a : a + CDF_BLOCK + 1]
            dens = self._density_vector(seg)
            inc = np.diff(seg) * (dens[1:] + dens[:-1]) / 2.0
            inc[0] += cdf[a]
            np.cumsum(inc, out=cdf[a + 1 : a + 1 + inc.size])
        if cdf[-1] <= 0:
            raise NumericalError("degenerate CDF (zero total mass)")
        cdf /= cdf[-1]
        return lam, cdf

    def _density_vector(self, lam: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def quantile_grid(self, N: int) -> "DiscreteGrid":
        """Midpoint-quantile discretization: atoms F^{-1}((i - 1/2)/N), sorted."""
        if N < 1:
            raise ValidationError("grid size must be >= 1")
        lam, cdf = self.cdf_grid()
        # make cdf strictly increasing for interpolation: cdf does not
        # decrease, so the first point of each run of equal values is where
        # it strictly increases; those points are moved to the front in place,
        # block by block (a point only moves to a lower index)
        keep = np.empty(cdf.size, dtype=bool)
        keep[0] = True
        np.greater(cdf[1:], cdf[:-1], out=keep[1:])
        n = 0
        for a in range(0, cdf.size, CDF_BLOCK):
            sel = keep[a : a + CDF_BLOCK]
            m = np.count_nonzero(sel)
            cdf[n : n + m] = cdf[a : a + CDF_BLOCK][sel]
            lam[n : n + m] = lam[a : a + CDF_BLOCK][sel]
            n += m
        if n < 2:
            raise NumericalError("inverse-CDF bracketing failed: flat CDF")
        p = np.arange(N, dtype=float)
        p += 0.5
        p /= N
        atoms = np.interp(p, cdf[:n], lam[:n])
        atoms.sort()
        return DiscreteGrid(atoms=atoms)

    def quad_nodes(self, n: int = 400) -> tuple[np.ndarray, np.ndarray]:
        """Nodes and weights with sum(w * f(x)) ~ E[f(Lambda)] for smooth f."""
        raise NotImplementedError


@dataclass(frozen=True)
class Semicircle(SpectralLaw):
    variance: float = 1.0

    def __post_init__(self):
        if not self.variance > 0:
            raise ValidationError(
                f"semicircle variance must be positive and finite, got {self.variance!r}")
        _check_support(2.0 * math.sqrt(self.variance), "semicircle radius 2 sqrt(var)")

    def support(self):
        r = 2.0 * math.sqrt(self.variance)
        return (-r, r)

    def _density_vector(self, lam):
        r2 = 4.0 * self.variance
        return np.sqrt(np.clip(r2 - lam**2, 0.0, None)) / (2.0 * np.pi * self.variance)

    def moment(self, n: int) -> float:
        if n < 0:
            raise ValidationError("moment order must be >= 0")
        if n % 2 == 1:
            return 0.0
        k = n // 2
        return float(catalan(k)) * self.variance**k

    def stieltjes(self, z: complex) -> complex:
        z = self._off_support(z)
        v = self.variance
        root = cmath.sqrt(z * z - 4.0 * v)
        # branch with sqrt(z^2 - 4v) ~ z at large |z|, so m ~ 1/z
        if (z.conjugate() * root).real < 0:
            root = -root
        return (z - root) / (2.0 * v)

    def stieltjes_derivative(self, z: complex) -> complex:
        # v m^2 - z m + 1 = 0, differentiated in z
        m = self.stieltjes(z)
        return m / (2.0 * self.variance * m - complex(z))

    def quad_nodes(self, n: int = 400):
        theta, w = _leggauss(n)
        theta = theta * (np.pi / 2.0)
        w = w * (np.pi / 2.0)
        sig = math.sqrt(self.variance)
        lam = 2.0 * sig * np.sin(theta)
        return lam, w * (2.0 / np.pi) * np.cos(theta) ** 2


@dataclass(frozen=True)
class MarchenkoPastur(SpectralLaw):
    """Marchenko-Pastur law with aspect ratio alpha in [MP_ALPHA_FLOOR, 1).

    Density sqrt((a+ - x)(x - a-)) / (2 pi alpha x) on [a-, a+],
    a± = (1 ± sqrt(alpha))^2.  First moment 1, free cumulants alpha^(n-1).
    """

    alpha: float = 0.5

    def __post_init__(self):
        if not MP_ALPHA_FLOOR <= self.alpha < 1.0:
            raise ValidationError(f"MP aspect ratio must lie in [{MP_ALPHA_FLOOR:g}, 1)")

    @property
    def edges(self) -> tuple[float, float]:
        s = math.sqrt(self.alpha)
        return ((1.0 - s) ** 2, (1.0 + s) ** 2)

    def support(self):
        return self.edges

    def _density_vector(self, lam):
        a_minus, a_plus = self.edges
        num = np.sqrt(np.clip((a_plus - lam) * (lam - a_minus), 0.0, None))
        return num / (2.0 * np.pi * self.alpha * np.clip(lam, 1e-300, None))

    def moment(self, n: int) -> float:
        """Narayana polynomial: sum_k C(n,k) C(n,k+1)/n alpha^k."""
        if n < 0:
            raise ValidationError("moment order must be >= 0")
        if n == 0:
            return 1.0
        return float(sum(math.comb(n, k) * math.comb(n, k + 1) // n * self.alpha**k
                         for k in range(n)))

    def stieltjes(self, z: complex) -> complex:
        z = self._off_support(z)
        a = self.alpha
        # a z m^2 - (z - 1 + a) m + 1 = 0, branch with m ~ 1/z at infinity
        b = z - 1.0 + a
        disc = cmath.sqrt(b * b - 4.0 * a * z)
        m1 = (b + disc) / (2.0 * a * z)
        m2 = (b - disc) / (2.0 * a * z)
        if z.imag != 0.0:
            # Stieltjes transforms satisfy Im(m) Im(z) < 0
            return m1 if m1.imag * z.imag < 0 else m2
        # real z off the support: both roots are real, m(z) is the one near 1/z
        return m1 if abs(m1 - 1.0 / z) < abs(m2 - 1.0 / z) else m2

    def stieltjes_derivative(self, z: complex) -> complex:
        # a z m^2 - (z - 1 + a) m + 1 = 0, differentiated in z
        m, a, z = self.stieltjes(z), self.alpha, complex(z)
        return (m - a * m * m) / (2.0 * a * z * m - (z - 1.0 + a))

    def quad_nodes(self, n: int = 400):
        # lam = mid + half sin(theta), theta = x pi/2, with the distances to
        # both edges, 2 half sin^2((1 -+ x) pi/4), formed without cancellation
        # so that lam and the weight keep their relative accuracy at the edges;
        # half = (a+ - a-) / 2 = 2 sqrt(alpha), not formed as a difference near 1
        x, w = _leggauss(n)
        a_minus, a_plus = self.edges
        half = 2.0 * math.sqrt(self.alpha)
        above = 2.0 * half * np.sin((1.0 + x) * (np.pi / 4.0)) ** 2  # lam - a_minus
        below = 2.0 * half * np.sin((1.0 - x) * (np.pi / 4.0)) ** 2  # a_plus - lam
        lam = np.where(x < 0.0, a_minus + above, a_plus - below)
        return lam, w * (np.pi / 2.0) * above * below / (2.0 * np.pi * self.alpha * lam)


@dataclass(frozen=True)
class DiscreteGrid(SpectralLaw):
    """Weighted atom law: `atoms` of probability `weights`, equal when None
    (e.g. a realized eigenvalue grid).  Given weights must be finite,
    nonnegative and one per atom; they are not renormalized, so an overlap
    measure or nu keeps its mass as computed."""

    atoms: np.ndarray = field(default_factory=lambda: np.array([0.0]))
    weights: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "atoms", np.asarray(self.atoms, dtype=float))
        if self.atoms.ndim != 1 or self.atoms.size == 0:
            raise ValidationError("atom list must be a nonempty 1-d array")
        _check_support(self.atoms, "atoms")
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=float)
            if w.shape != self.atoms.shape or not np.all(np.isfinite(w) & (w >= 0)):
                raise ValidationError("atom weights must be finite, nonnegative and "
                                      "one per atom")
            object.__setattr__(self, "weights", w)

    def _mean(self, values: np.ndarray):
        """The weighted mean of values at the atoms."""
        return np.mean(values) if self.weights is None else self.weights @ values

    def support(self):
        return (float(self.atoms.min()), float(self.atoms.max()))

    def expect(self, f):
        return float(self._mean(np.broadcast_to(f(self.atoms), self.atoms.shape)))

    def moment(self, n: int) -> float:
        if n < 0:
            raise ValidationError("moment order must be >= 0")
        return float(self._mean(self.atoms**n))

    def _off_support(self, z: complex) -> complex:
        """z as a complex number; DomainError when it is an atom."""
        z = complex(z)
        if z.imag == 0.0 and np.any(self.atoms == z.real):
            raise DomainError(f"z={z} coincides with an atom")
        return z

    def stieltjes(self, z: complex) -> complex:
        return complex(self._mean(1.0 / (self._off_support(z) - self.atoms)))

    def stieltjes_derivative(self, z: complex) -> complex:
        return complex(-self._mean(1.0 / (self._off_support(z) - self.atoms) ** 2))

    def quad_nodes(self, n: int = 400):
        if self.weights is None:
            return self.atoms, np.full(self.atoms.size, 1.0 / self.atoms.size)
        return self.atoms, self.weights

    def quantile_grid(self, N: int) -> "DiscreteGrid":
        """Equal-weight atoms only: ValidationError for unequal weights."""
        if N < 1:
            raise ValidationError("grid size must be >= 1")
        if self.weights is not None and np.ptp(self.weights) > 0:
            raise ValidationError("the quantile grid of an atom law needs equal weights")
        srt = np.sort(self.atoms)
        p = (np.arange(N) + 0.5) / N
        idx = np.minimum((p * srt.size).astype(int), srt.size - 1)
        return DiscreteGrid(atoms=srt[idx])


@dataclass(frozen=True)
class ExternalDensity(SpectralLaw):
    """Tabulated density, piecewise-linear interpolated, renormalized to mass 1."""

    grid: np.ndarray = field(default_factory=lambda: np.array([0.0, 1.0]))
    density: np.ndarray = field(default_factory=lambda: np.array([1.0, 1.0]))

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        d = np.asarray(self.density, dtype=float)
        if g.ndim != 1 or g.size < 2 or d.shape != g.shape:
            raise ValidationError("density table needs matching 1-d grid/density columns")
        _check_support(g, "density grid")
        if np.any(np.diff(g) <= 0):
            raise ValidationError("density grid must be strictly increasing")
        if not np.all(np.isfinite(d) & (d >= 0)):
            raise ValidationError("density values must be finite and nonnegative")
        mass = np.trapezoid(d, g)
        with np.errstate(all="ignore"):
            d = d / mass
        if not (0 < mass < np.inf and np.all(np.isfinite(d))):
            raise ValidationError("density table needs a positive, finite total mass")
        # np.interp divides by the segment widths; an overflowing slope makes it inf/nan
        with np.errstate(all="ignore"):
            slopes = np.diff(d) / np.diff(g)
        if not np.all(np.isfinite(slopes)):
            raise ValidationError("density table is too steep to interpolate "
                                  "(a segment is too narrow for its density jump)")
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "density", d)

    def support(self):
        return (float(self.grid[0]), float(self.grid[-1]))

    def _density_vector(self, lam):
        return np.interp(lam, self.grid, self.density, left=0.0, right=0.0)

    def _segments(self):
        """Per segment [a_k, b_k]: a, b, the density d_k at a_k and its slope q_k."""
        a, b = self.grid[:-1], self.grid[1:]
        return a, b, self.density[:-1], np.diff(self.density) / (b - a)

    def stieltjes(self, z: complex) -> complex:
        """Closed form for the density d_k + q_k (lambda - a_k) on each
        segment [a_k, b_k]: m(z) = sum_k (d_k + q_k (z - a_k)) log((z - a_k) /
        (z - b_k)) - q_k (b_k - a_k), the principal logarithm being analytic
        off the segment."""
        z = self._off_support(z)
        a, b, d, q = self._segments()
        return complex(np.sum((d + q * (z - a)) * np.log((z - a) / (z - b)) - q * (b - a)))

    def stieltjes_derivative(self, z: complex) -> complex:
        """The derivative of `stieltjes`' per-segment closed form."""
        z = self._off_support(z)
        a, b, d, q = self._segments()
        return complex(np.sum(q * np.log((z - a) / (z - b))
                              + (d + q * (z - a)) * (1.0 / (z - a) - 1.0 / (z - b))))

    def _segment_rule(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(segments, k) nodes and density-times-weights of k-point Gauss-Legendre."""
        nodes, weights = _leggauss(k)
        a, b = self.grid[:-1], self.grid[1:]
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        lam = mid[:, None] + half[:, None] * nodes[None, :]
        return lam, half[:, None] * weights[None, :] * self._density_vector(lam)

    def expect(self, f):
        lam, w = self._segment_rule(16)
        return float(np.sum(np.asarray(f(lam)) * w))

    def quad_nodes(self, n: int = 400):
        per_seg = max(4, int(np.ceil(n / (self.grid.size - 1))))
        lam, w = self._segment_rule(min(per_seg, 64))
        return lam.ravel(), w.ravel()


def point_mass(c: float) -> DiscreteGrid:
    return DiscreteGrid(atoms=np.array([float(c)]))


# the spec grammar of `parse_law_spec`: each law name's keys
_LAW_KEYS = {"semicircle": ("var",), "mp": ("alpha",), "point": ("c",)}
# other spellings of the names and keys of every spec grammar
SPEC_ALIASES = {"sc": "semicircle", "goe": "semicircle", "marchenko-pastur": "mp",
                "marchenkopastur": "mp", "point-mass": "point", "variance": "var"}


def parse_number(text: str, where: str) -> float:
    """`text` as a finite float, or a ValidationError that starts with `where`."""
    try:
        value = float(text)
    except ValueError:
        raise ValidationError(f"{where}{text.strip()!r} is not a number") from None
    if not math.isfinite(value):
        raise ValidationError(f"{where}{text.strip()!r} is not finite")
    return value


def parse_spec(spec: str, kind: str,
               keys: dict[str, tuple[str, ...]]) -> tuple[str, dict[str, float]]:
    """(name, {key: value}) of a spec "name[:key=value,...]" of one `kind`
    (law spec, prior, denoiser), `keys` mapping each name to the keys it
    takes.  Names and keys are case-insensitive, SPEC_ALIASES gives their
    other spellings, and whitespace around them is ignored.  An unknown name
    or key, a key given twice (in either spelling) and a value that is not
    a finite number raise ValidationError naming `kind` and the spec."""
    head, _, rest = spec.partition(":")
    name = SPEC_ALIASES.get(head.strip().lower(), head.strip().lower())
    if name not in keys:
        raise ValidationError(f"unknown {kind} {spec!r}; choose from {sorted(keys)}")
    params = {}
    for item in rest.split(",") if rest.strip() else ():
        key, _, value = item.partition("=")
        key = SPEC_ALIASES.get(key.strip().lower(), key.strip().lower())
        if key not in keys[name]:
            raise ValidationError(f"{kind} {spec!r}: unknown parameter {key!r}; "
                                  f"{name} takes {list(keys[name]) or 'none'}")
        if key in params:
            raise ValidationError(f"{kind} {spec!r}: {key} is given twice")
        params[key] = parse_number(value, f"{kind} {spec!r}: {key}=")
    return name, params


def read_columns(path: str, what: str, widths: tuple[int, ...]) -> np.ndarray:
    """The (rows, columns) table of finite numbers in a text file: a row a line,
    '#' comments, blank lines skipped, every row as wide as the first, a width in
    `widths`.  Errors are ValidationErrors naming `what`, the file and line.

    The whole body is split and converted by `float` in one pass; a file it
    does not accept is read again line by line (`_read_columns_by_line`),
    which finds the first bad line and words the error."""
    try:
        with open(path) as fh:
            text = fh.read()
        lines = text.split("\n")
        if "#" in text:
            lines = [line.split("#", 1)[0] for line in lines]
        tokens = " ".join(lines).split()
        filled = len(lines) - lines.count("") - sum(map(str.isspace, lines))
        width = len(tokens) // filled if filled else 0
        # every filled line holds a token, so with one column the count is the check
        if (width in widths and len(tokens) == width * filled
                and (width == 1 or all(len(line.split()) in (0, width) for line in lines))):
            data = np.array(list(map(float, tokens)))
            if np.isfinite(data).all():
                return data.reshape(filled, width)
    except (OSError, UnicodeDecodeError, ValueError):
        pass
    return _read_columns_by_line(path, what, widths)


def _read_columns_by_line(path: str, what: str, widths: tuple[int, ...]) -> np.ndarray:
    """`read_columns` one line and one value (`parse_number`) at a time."""
    rows = []
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, start=1):
                parts = raw.split("#", 1)[0].split()
                if not parts:
                    continue
                where = f"{what} {path}:{lineno}: "
                expected = (len(rows[0]),) if rows else widths
                if len(parts) not in expected:
                    raise ValidationError(f"{where}expected {' or '.join(map(str, expected))} "
                                          "columns")
                rows.append([parse_number(p, where) for p in parts])
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"{what} {path!r}: {exc}") from exc
    if not rows:
        raise ValidationError(f"{what} {path}: no data rows")
    return np.asarray(rows)


def load_law_file(path: str) -> SpectralLaw:
    """Load atoms (one value per line) or a density table ("lambda density")
    by `read_columns`: one column -> DiscreteGrid, two columns ->
    ExternalDensity."""
    data = read_columns(path, "law file", (1, 2))
    if data.shape[1] == 1:
        return DiscreteGrid(atoms=data[:, 0])
    return ExternalDensity(grid=data[:, 0], density=data[:, 1])


def parse_law_spec(spec: str) -> SpectralLaw:
    """The law of a CLI spec "semicircle[:var=v]", "mp[:alpha=a]",
    "point[:c=c]" (the `parse_spec` grammar) or "file:path"."""
    head, _, path = spec.partition(":")
    if head.strip().lower() == "file":
        return load_law_file(path)
    name, kv = parse_spec(spec, "law spec", _LAW_KEYS)
    if name == "semicircle":
        return Semicircle(variance=kv.get("var", 1.0))
    if name == "mp":
        return MarchenkoPastur(alpha=kv.get("alpha", 0.5))
    return point_mass(kv.get("c", 0.0))
