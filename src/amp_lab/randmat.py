"""Rotationally-invariant matrices, spiked instances, and signal priors.

Every matrix a run acts on is one `SpectralOperator`: O D O^T with
D = diag(eigenvalues) + rho z z^T, the rank-one term present only for a
spiked instance.  A Haar eigenbasis is a `LazyHaarRotation`: it is drawn
only on the vectors it is applied to, each answer from the Haar law
conditioned on the earlier ones, in O(N k) time after k earlier answers,
and the dense orthogonal and symmetric matrices are materialized only on
request (`dense()`).  Such an operator carries state.  Two operators built
from the same seed and given the same calls in the same order agree bit
for bit; a repeated call on one agrees with its first answer to rounding,
not bit for bit.  An operator must not be shared across threads.  A spiked
instance Y = O (Lambda + rho z z^T) O^T, z = O^T x*, is the operator of W
with the rank-one term added; it shares W's rotation, is never formed and
never eigendecomposed: matrix functions of the form polynomial plus b/x
(`RationalFn`) apply to its diagonal-plus-rank-one core exactly in O(N),
and the secular equation of that core gives Y's eigenvalues and signal
overlaps, without eigenvectors, when the overlap measure is asked for.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import DomainError, NumericalError, ValidationError
from .laws import SUPPORT_CAP, DiscreteGrid, parse_spec

OVERLAP_N_CAP = 8000  # the secular solver's root loop takes O(N^2) time
# A query's residual off the revealed span is new only above this multiple
# of the query's norm; below it, it is rounding left by the projection.
RANK_TOL = 64 * np.finfo(float).eps
# largest relative asymmetry max|M - M^T| / max|M| of a dense matrix input
SYMMETRY_RTOL = 1e-10
GOE_MIRROR_BLOCK = 256  # rows per block when a dense N x N matrix is mirrored or checked


class _RevealedPairs:
    """Orthonormal rows a_1..a_k and b_1..b_k with O a_i = b_i, and the
    generator that reveals the rest of O.  Storage doubles as pairs are
    added, or grows when room is reserved for them."""

    def __init__(self, N: int, seed: int):
        self.rng = np.random.default_rng(seed)
        self.rows = np.empty((2, min(N, 16), N))  # rows[0, i] = a_i, rows[1, i] = b_i
        self.k = 0

    def reserve(self, m: int) -> None:
        """Room for m more pairs (at most N in all), so the next m appends
        copy nothing; a store too small at least doubles."""
        k, cap, N = self.k, self.rows.shape[1], self.rows.shape[2]
        if k + m > cap and cap < N:
            grown = np.empty((2, min(max(2 * cap, k + m), N), N))
            grown[:, :k] = self.rows[:, :k]
            self.rows = grown

    def append(self, a: np.ndarray, b: np.ndarray) -> None:
        """Record the pairs a[j] -> b[j] (arrays of shape (m, N))."""
        k, m = self.k, a.shape[0]
        self.reserve(m)
        self.rows[0, k:k + m] = a
        self.rows[1, k:k + m] = b
        self.k = k + m


def _project_off(v: np.ndarray, Q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(c, r) with v = Q^T c + r and r orthogonal to the orthonormal rows of
    Q, for v a vector (N,) or a block of columns (N, m): classical
    Gram-Schmidt, twice (CGS2)."""
    c = Q @ v
    r = v - (c.T @ Q).T
    c2 = Q @ r
    r -= (c2.T @ Q).T
    return c + c2, r


def _fresh_direction(g: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """The unit vector along g's part orthogonal to the orthonormal rows of
    Q.  One classical Gram-Schmidt pass is enough when its residual keeps at
    least 1/sqrt(2) of |g|; a second pass is taken only when it keeps less
    ("twice is enough": Giraud, Langou & Rozloznik, Comput. Math. Appl. 50,
    2005).  A Gaussian g off a span of k << N dimensions keeps about
    sqrt(1 - k/N) of its norm, so runs take one pass."""
    norm = float(np.linalg.norm(g))
    g = g - (Q @ g) @ Q
    kept = float(np.linalg.norm(g))
    if kept < np.sqrt(0.5) * norm:
        g -= (Q @ g) @ Q
        kept = float(np.linalg.norm(g))
    g /= kept
    return g


@dataclass(frozen=True)
class LazyHaarRotation:
    """Haar orthogonal O, revealed only on the vectors it is applied to.

    The rotation keeps orthonormal pairs (a_i, b_i) with O a_i = b_i.  A
    query O @ x splits x = A^T c + rho e with e a unit vector orthogonal to
    the a_i (CGS2) and returns B^T c + rho g, where g is a fresh standard
    normal vector projected off the b_i (one pass unless a second is needed,
    `_fresh_direction`) and normalized; the pair (e, g) is recorded.  Given
    the pairs, O maps the complement of span(a) onto that of span(b) as a
    Haar isometry, so O e is uniform on the unit sphere of the latter:
    every answer has the Haar law conditioned on the earlier ones (Rangan,
    Schniter & Fletcher, IEEE TIT 65, 2019; Takeuchi, IEEE TIT 66, 2020).
    O.T @ y is the same query with the roles of a and b swapped.  A query
    costs O(N k) for k pairs.

    A residual rho <= RANK_TOL |x| is rounding, not a new direction: it is
    dropped and no pair is recorded.  Recording such noise would break the
    orthonormality of the pairs and, with it, every later answer.

    The answers depend on the rotation's seed and on the sequence of queries
    made so far: two rotations of the same seed given the same queries agree
    bit for bit, and a repeated query agrees with its first answer to
    rounding.  The revealed state is not locked, so a rotation must not be
    queried from two threads.
    """

    pairs: _RevealedPairs
    transposed: bool = False

    @property
    def N(self) -> int:
        return self.pairs.rows.shape[2]

    @property
    def T(self) -> "LazyHaarRotation":
        """The transpose (and inverse), sharing the revealed pairs."""
        return replace(self, transposed=not self.transposed)

    def __matmul__(self, x) -> np.ndarray:
        """O @ x (O.T @ x when transposed) for x of shape (N,) or (N, m); the
        m columns are queried in order.  The columns before the first with a
        new direction reveal nothing, so their answers come from one block
        projection; the rest are queried one by one."""
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[0] != self.N:
            raise ValidationError(f"cannot apply an {self.N}x{self.N} rotation "
                                  f"to shape {x.shape}")
        if x.ndim == 1:
            return self._query(x)
        P = self.pairs
        src, dst = P.rows[int(self.transposed), :P.k], P.rows[1 - int(self.transposed), :P.k]
        c, r = _project_off(x, src)
        new = np.linalg.norm(r, axis=0) > RANK_TOL * np.linalg.norm(x, axis=0)
        first = int(np.argmax(new)) if P.k < self.N and new.any() else x.shape[1]
        y = np.empty_like(x)
        y[:, :first] = (c[:, :first].T @ dst).T
        for j in range(first, x.shape[1]):
            y[:, j] = self._query(x[:, j])
        return y

    def _query(self, x: np.ndarray) -> np.ndarray:
        P = self.pairs
        src, dst = P.rows[int(self.transposed), :P.k], P.rows[1 - int(self.transposed), :P.k]
        c, r = _project_off(x, src)
        y = c @ dst
        rho = float(np.linalg.norm(r))
        if P.k < self.N and rho > RANK_TOL * float(np.linalg.norm(x)):
            g = _fresh_direction(P.rng.standard_normal(self.N), dst)
            y += rho * g
            e = r / rho
            a, b = (g, e) if self.transposed else (e, g)
            P.append(a[None, :], b[None, :])
        return y

    def dense(self) -> np.ndarray:
        """The N x N matrix, in O(N^3).  The unrevealed part is revealed at
        once: with orthonormal bases Qa, Qb of the complements of span(a) and
        span(b), O Qa = Qb H for a Haar H, drawn as the sign-corrected Q
        factor of a Gaussian matrix (Mezzadri, Notices AMS 54, 2007)."""
        P, N = self.pairs, self.N
        k = P.k
        if k < N:
            Qa, Qb = (np.linalg.qr(P.rows[i, :k].T, mode="complete")[0][:, k:]
                      for i in (0, 1))
            H, R = np.linalg.qr(P.rng.standard_normal((N - k, N - k)))
            H *= np.where(np.diag(R) < 0, -1.0, 1.0)
            P.append(Qa.T, (Qb @ H).T)
        A, B = P.rows[0, :N], P.rows[1, :N]
        return A.T @ B if self.transposed else B.T @ A


def sample_haar_rotation(N: int, seed: int) -> LazyHaarRotation:
    """Haar-distributed orthogonal matrix, revealed lazily (see
    LazyHaarRotation); nothing is drawn until it is applied."""
    if N < 1:
        raise ValidationError("N must be >= 1")
    return LazyHaarRotation(_RevealedPairs(N, seed))


@dataclass
class SpectralOperator:
    """Factored symmetric matrix M = O D O^T with D = diag(eigenvalues) +
    rho z z^T.  The eigenbasis O is a LazyHaarRotation (Haar) or a dense
    orthogonal matrix (GOE, or `eigh` of a dense input).  The rank-one term
    is that of a spiked instance (eigenvalues and O are W's, z = O^T x*,
    rho = theta/N) and is absent (z None) otherwise; Y's eigenvectors are
    never formed.  A Haar operator carries the state of its rotation: see
    LazyHaarRotation for what that means for determinism and threads.
    to_spectral and from_spectral take a vector (N,) or, as the rotation
    does, a block (N, k); the other maps take one vector (N,)."""

    eigenvalues: np.ndarray
    rotation: np.ndarray | LazyHaarRotation
    z: np.ndarray | None = None
    rho: float = 0.0

    @property
    def N(self) -> int:
        return self.eigenvalues.shape[0]

    def to_spectral(self, v: np.ndarray) -> np.ndarray:
        """Coordinates of v in W's eigenbasis: O^T v."""
        return self.rotation.T @ v

    def from_spectral(self, s: np.ndarray) -> np.ndarray:
        """The vector with eigenbasis coordinates s: O s."""
        return self.rotation @ s

    def _core(self, s: np.ndarray) -> np.ndarray:
        """D s = lambda s + rho z (z^T s)."""
        ds = self.eigenvalues * s
        return ds if self.z is None else ds + self.rho * self.z * (self.z @ s)

    def apply(self, v: np.ndarray) -> np.ndarray:
        """M v without materializing M."""
        return self.from_spectral(self._core(self.to_spectral(v)))

    def core_function(self, f: Callable) -> Callable:
        """s -> f(D) s.  Without a spike, f is taken at the eigenvalues
        (DomainError where it is undefined there).  With one, f must be a
        RationalFn (else ValidationError), applied in O(N) per column:
        Horner's rule on D for the polynomial part and Sherman-Morrison,
        D^-1 = L^-1 - rho L^-1 z z^T L^-1 / (1 + rho z^T L^-1 z) with
        L = diag(eigenvalues), for the pole.  DomainError when the pole meets
        the spectrum of W or of Y (det D = det L (1 + rho z^T L^-1 z))."""
        if self.z is None:
            values = _map_eigenvalues(f, self.eigenvalues)
            return lambda s: values * s
        if not isinstance(f, RationalFn):
            raise ValidationError("a spiked instance applies only rational matrix functions "
                                  "(RationalFn: polynomial plus b/x), got " + repr(f))
        coeffs = [float(c) for c in f.coeffs]
        pole = float(f.pole)
        lam, z, rho = self.eigenvalues, self.z, self.rho
        if pole:
            if np.any(lam == 0.0):
                raise DomainError("f has a pole at 0, an eigenvalue of W")
            zl = z / lam
            denom = 1.0 + rho * (z @ zl)
            if not (np.isfinite(denom) and denom != 0.0):
                raise DomainError("f has a pole at 0, an eigenvalue of Y")

        def fn(s):
            y = coeffs[-1] * s
            for c in reversed(coeffs[:-1]):
                y = self._core(y) + c * s
            if pole:
                inv = s / lam - zl * (rho * (zl @ s) / denom)
                y = y + pole * inv
            return y

        return fn

    def function(self, f: Callable) -> Callable:
        """v -> f(M) v (see core_function)."""
        g = self.core_function(f)
        return lambda v: self.from_spectral(g(self.to_spectral(v)))

    def dense(self) -> np.ndarray:
        """M = O D O^T as an N x N array, in O(N^3); a lazy rotation is
        revealed in full."""
        O = self.rotation.dense() if isinstance(self.rotation, LazyHaarRotation) else self.rotation
        M = (O * self.eigenvalues[None, :]) @ O.T
        if self.z is not None:
            Oz = O @ self.z
            M += self.rho * np.outer(Oz, Oz)
        return 0.5 * (M + M.T)


def build_rot_invariant(grid: np.ndarray, seed: int) -> SpectralOperator:
    """O diag(grid) O^T with a fresh Haar eigenbasis O."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 1:
        raise ValidationError("grid must be a nonempty 1-d array")
    if not np.all(np.isfinite(grid)):
        raise ValidationError("grid contains non-finite entries")
    O = sample_haar_rotation(grid.size, seed)
    return SpectralOperator(eigenvalues=grid.copy(), rotation=O)


def sample_goe(N: int, seed: int) -> np.ndarray:
    """Symmetric W with independent N(0, 1/N) entries above the diagonal and
    N(0, 2/N) on it, drawn row by row over the upper triangle: N(N+1)/2
    normals, the entries' count."""
    if N < 1:
        raise ValidationError("N must be >= 1")
    rng = np.random.default_rng(seed)
    W = np.zeros((N, N))
    for i in range(N):
        rng.standard_normal(out=W[i, i:])
    W[np.diag_indices(N)] *= np.sqrt(2.0)
    W /= np.sqrt(N)
    for j in range(0, N, GOE_MIRROR_BLOCK):  # mirror in blocks: a transposed add is slow
        k = j + GOE_MIRROR_BLOCK
        W[j:k, :j] = W[:j, j:k].T
        W[j:k, j:k] = np.triu(W[j:k, j:k]) + np.triu(W[j:k, j:k], 1).T
    return W


def goe_ensemble(N: int, seed: int) -> SpectralOperator:
    """`sample_goe(N, seed)` in factored form (eigendecomposed once)."""
    lam, O = _eigh(sample_goe(N, seed))
    return SpectralOperator(eigenvalues=lam, rotation=O)


def dense_symmetric(M) -> np.ndarray:
    """M as a float array; ValidationError unless it is square, finite and
    symmetric within SYMMETRY_RTOL of max|M|."""
    W = np.asarray(M, dtype=float)
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        raise ValidationError("matrix input must be square")
    # in row blocks, so no check makes an N^2 temporary
    blocks = [slice(j, j + GOE_MIRROR_BLOCK) for j in range(0, len(W), GOE_MIRROR_BLOCK)]
    if not all(np.isfinite(W[b]).all() for b in blocks):
        raise ValidationError("matrix input has non-finite entries")
    big = max((float(np.max(np.abs(W[b]))) for b in blocks), default=0.0)
    asym = max((float(np.max(np.abs(W[b, b.start:] - W[b.start:, b].T))) for b in blocks),
               default=0.0)
    if asym > SYMMETRY_RTOL * big:
        raise ValidationError(f"matrix input is not symmetric: max|M - M^T| = {asym:.3g} "
                              f"exceeds {SYMMETRY_RTOL:g} of max|M|")
    return W


def _eigh(W: np.ndarray):
    try:
        lam, O = np.linalg.eigh(W)
    except np.linalg.LinAlgError as e:  # pragma: no cover
        raise NumericalError(f"eigendecomposition failed: {e}") from e
    return lam, O


@dataclass(frozen=True)
class RationalFn:
    """Matrix function f(x) = sum_k coeffs[k] x^k + pole / x.

    A spiked instance applies f(Y) from these coefficients alone, so every
    matrix function of a spiked run has this form; at points the polynomial
    is evaluated by Horner's rule.
    """

    coeffs: tuple
    pole: float = 0.0

    def __post_init__(self):
        for name, c in [*((f"coefficient {k}", c) for k, c in enumerate(self.coeffs)),
                        ("pole", self.pole)]:
            if not np.isfinite(c):
                raise ValidationError(f"matrix function {name} is {c}, not a finite number")

    def __call__(self, x):
        y = _horner(x, self.coeffs)
        return y + self.pole / x if self.pole else y


IDENTITY = RationalFn(coeffs=(0.0, 1.0))  # RI-AMP's f; Horner gives x exactly (-0.0 as 0.0)


def _horner(x, coeffs):
    """sum_k coeffs[k] x^k by Horner's rule, in the operation order of
    numpy.polynomial.polynomial.polyval, so bit for bit its value, without
    importing numpy.polynomial."""
    c = np.asarray(coeffs, dtype=float)
    y = c[-1] + x * 0
    for ck in c[-2::-1]:
        y = ck + y * x
    return y


def _map_eigenvalues(f: Callable, lam: np.ndarray) -> np.ndarray:
    with np.errstate(all="ignore"):
        fv = np.asarray(f(lam), dtype=float)
    fv = np.broadcast_to(fv, lam.shape)
    bad = ~np.isfinite(fv)
    if np.any(bad):
        offenders = lam[bad][:10]
        raise DomainError(f"f undefined at eigenvalue(s) {offenders.tolist()}")
    return fv


# ---------------------------------------------------------------------------
# signal priors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Prior:
    """Scalar signal prior with unit second moment (validated).  `law` is
    the atom law of a discrete prior, which state evolution integrates
    against; None for the gaussian prior."""

    name: str
    sampler: Callable  # (rng, size) -> array
    second_moment: float
    law: DiscreteGrid | None = None

    def sample(self, N: int, rng: np.random.Generator) -> np.ndarray:
        return self.sampler(rng, N)


_PRIOR_PARAMS = {"rademacher": (), "gaussian": (), "sparse": ("rho",)}
# least nonzero fraction of the sparse prior: the atom 1/sqrt(rho) of a
# smaller one passes SUPPORT_CAP
SPARSE_RHO_FLOOR = 1e-30


def parse_prior_spec(spec: str) -> Prior:
    """The prior of a spec 'name[:key=value,...]' (`laws.parse_spec`), e.g. 'sparse:rho=0.2'."""
    name, params = parse_spec(spec, "prior", _PRIOR_PARAMS)
    return make_prior(name, **params)


def make_prior(name: str, /, **params) -> Prior:
    """Priors: 'rademacher' (default choice), 'sparse' (three-point, param
    rho = nonzero fraction in [SPARSE_RHO_FLOOR, 1], default 0.1), 'gaussian'."""
    if name not in _PRIOR_PARAMS or not set(params) <= set(_PRIOR_PARAMS[name]):
        raise ValidationError(f"prior {name!r} with parameters {sorted(params)}: the priors "
                              f"and their parameters are {_PRIOR_PARAMS}")
    if name == "rademacher":
        return Prior("rademacher", lambda rng, n: rng.choice([-1.0, 1.0], size=n), 1.0,
                     law=DiscreteGrid(atoms=np.array([-1.0, 1.0])))
    if name == "gaussian":
        return Prior("gaussian", lambda rng, n: rng.standard_normal(n), 1.0)
    if name == "sparse":
        rho = float(params.get("rho", 0.1))
        if not SPARSE_RHO_FLOOR <= rho <= 1:
            raise ValidationError(f"prior 'sparse:rho={rho!r}' needs {SPARSE_RHO_FLOOR:g} <= rho "
                                  f"<= 1: below that the atom 1/sqrt(rho) is beyond "
                                  f"+-{SUPPORT_CAP:g}")
        a = 1.0 / np.sqrt(rho)

        def sampler(rng, n, rho=rho, a=a):
            u = rng.random(n)
            x = np.zeros(n)
            x[u < rho / 2] = a
            x[(u >= rho / 2) & (u < rho)] = -a
            return x

        return Prior("sparse", sampler, 1.0,
                     law=DiscreteGrid(atoms=np.array([-a, 0.0, a]),
                                      weights=np.array([rho / 2, 1.0 - rho, rho / 2])))


# ---------------------------------------------------------------------------
# spiked instances and the overlap measure
# ---------------------------------------------------------------------------

def diag_rank_one_eigh(lam: np.ndarray, z: np.ndarray,
                       rho: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues mu (ascending) of diag(lam) + rho z z^T for rho > 0 and the
    squared overlaps (z^T v_k)^2 of their unit eigenvectors v_k, in O(N^2)
    time and O(N) memory; the eigenvectors are never formed.

    Entries of lam equal to within tol = 8 eps max(|lam|, rho |z|^2) are
    grouped, and a reflection within each group moves the group's part of z
    onto one entry, so the group's other eigenvectors have overlap 0.
    Entries whose coupling rho |z_i| is below tol are deflated to the
    eigenpair (lam_i, e_i), of overlap z_i^2.  The K remaining eigenvalues
    are the roots of the secular equation 1 + rho sum_i z_i^2 / (d_i - mu) = 0,
    one in each interval (d_j, d_j+1) and the last above d_K.  The
    eigenvector of root mu is proportional to (d - mu)^-1 z, so its overlap
    is 1 / (rho^2 sum_i z_i^2 / (d_i - mu)^2).  LAPACK dlasd4 finds each root
    with every difference d_i - mu to high relative accuracy, after the map
    d -> sqrt(d - d_1 + s) (Gu & Eisenstat, SIAM J. Matrix Anal. Appl. 15,
    1994).
    """
    lam = np.asarray(lam, dtype=float)
    z = np.asarray(z, dtype=float)
    if lam.ndim != 1 or z.shape != lam.shape:
        raise ValidationError("lam and z must be 1-d arrays of equal length")
    if not rho > 0:
        raise ValidationError("rho must be > 0")
    N = lam.size
    order = np.argsort(lam, kind="stable")
    d = lam[order]
    w = z[order]
    znorm = float(np.linalg.norm(w))
    rho_n = rho * znorm**2
    if znorm > 0:
        w = w / znorm
    tol = 8.0 * np.finfo(float).eps * max(float(np.abs(d).max()), rho_n)

    starts = [0]
    dl = d.tolist()
    for i in range(1, N):
        if dl[i] - dl[starts[-1]] > tol:
            starts.append(i)
    for first, stop in zip(starts, starts[1:] + [N]):
        if stop - first > 1:
            nv = float(np.linalg.norm(w[first:stop]))
            w[first:stop] = 0.0
            w[first] = nv

    keep = np.flatnonzero(rho_n * np.abs(w) > tol)
    mu = d.copy()
    overlap = (znorm * w) ** 2
    if keep.size == 1:  # one coupled entry: its 1 x 1 block is its own root
        mu[keep] = d[keep] + rho_n * w[keep] ** 2
    elif keep.size > 1:
        mu[keep], overlap[keep] = _secular_roots(d[keep], w[keep], rho_n)
        overlap[keep] *= znorm**2
    cols = np.argsort(mu, kind="stable")
    return mu[cols], overlap[cols]


def _secular_roots(d: np.ndarray, w: np.ndarray, rho_n: float):
    """Roots mu of diag(d) + rho_n w w^T for strictly increasing d and w
    without negligible entries, with the squared overlaps (w^T v)^2 of their
    eigenvectors.  w is rescaled to unit length, as dlasd4 assumes."""
    from scipy.linalg import lapack  # the only scipy use; loaded on first call

    K = d.size
    wn = float(np.linalg.norm(w))
    rho_k = rho_n * wn**2
    w = w / wn
    w2 = w * w
    dd = np.sqrt(d - d[0] + (d[-1] - d[0]))
    mu = np.empty(K)
    overlap = np.empty(K)
    for j in range(K):
        delta, _, work, info = lapack.dlasd4(j, dd, w, rho_k)
        if info != 0:
            raise NumericalError(f"secular equation root {j} did not converge (info={info})")
        gaps = delta * work  # d_i - mu_j
        mu[j] = d[j] - gaps[j]
        overlap[j] = 1.0 / (rho_k**2 * np.sum(w2 / gaps**2))
    return mu, wn**2 * overlap


def build_spiked(theta: float, prior: Prior, ensemble: SpectralOperator,
                 seed: int) -> tuple[SpectralOperator, np.ndarray]:
    """(Y, x*): Y = (theta/N) x* x*^T + W as W's operator with the rank-one
    term, z = O^T x* and rho = theta/N, sharing W's rotation and its revealed
    state; x* iid from a unit-second-moment prior.  W = ensemble must not
    carry a rank-one term already."""
    if theta <= 0:
        raise ValidationError("theta must be > 0")
    if abs(prior.second_moment - 1.0) > 1e-12:
        raise ValidationError(
            f"prior {prior.name!r} has second moment {prior.second_moment}, expected 1"
        )
    if ensemble.z is not None:
        raise ValidationError("the ensemble already carries a rank-one spike")
    rng = np.random.default_rng(seed)
    x = prior.sample(ensemble.N, rng)
    return replace(ensemble, z=ensemble.to_spectral(x), rho=float(theta) / ensemble.N), x


def overlap_measure(Y: SpectralOperator) -> DiscreteGrid:
    """Eigen-overlap measure of a spiked operator Y, an atom law: its
    eigenvalues (ascending), the one of eigenvector O v_k of weight
    (z^T v_k)^2 / N.  ValidationError for an operator without a rank-one term."""
    if Y.z is None:
        raise ValidationError("the overlap measure needs a spiked operator (a rank-one term)")
    if Y.N > OVERLAP_N_CAP:
        raise ValidationError(f"N={Y.N} exceeds the secular solver's cap {OVERLAP_N_CAP}")
    mu, overlap = diag_rank_one_eigh(Y.eigenvalues, Y.z, Y.rho)
    return DiscreteGrid(atoms=mu, weights=overlap / Y.N)
