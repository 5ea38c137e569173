"""Rotationally-invariant ensembles, spiked instances, and signal priors.

Matrices with prescribed spectra are kept in factored form (eigenvalues,
Haar eigenvectors).  A Haar eigenbasis is sampled as N Householder
reflectors in O(N^2) time and never formed: applying it, or its transpose,
to a vector costs about one dense matrix-vector product, and the dense
orthogonal and symmetric matrices are materialized only on request.  A
spiked instance Y = O (Lambda + rho z z^T) O^T, z = O^T x*, is factored
through the secular equation of its diagonal-plus-rank-one core, without
forming Y.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import DomainError, NumericalError, ValidationError

DENSE_N_CAP = 8000
WY_BLOCK = 64  # reflectors per compact-WY block


@dataclass(frozen=True)
class HouseholderRotation:
    """Orthogonal O = H_1 ... H_N diag(signs), H_k = I - tau_k v_k v_k^T,
    where v_k is zero before entry k and one at entry k; O is never formed.

    The reflectors are kept in consecutive blocks (k0, V, T): row i of V is
    v_{k0+i} from entry k0 on, and H_k0 ... H_k0+nb-1 = I - V^T T V in
    compact WY form with T upper triangular (Schreiber & Van Loan, SIAM J.
    Sci. Stat. Comput. 10, 1989).  O @ x and O.T @ x cost three BLAS-2
    calls per block, about one dense matrix-vector product, and the blocks
    hold about N^2/2 numbers.
    """

    blocks: tuple  # ((k0, V, T), ...) in reflector order
    signs: np.ndarray  # (N,), entries +-1
    transposed: bool = False

    @classmethod
    def from_gaussian_rows(cls, row_blocks) -> "HouseholderRotation":
        """Rotation whose reflector k is built from row k, columns k on, of
        the N x N matrix stacked from `row_blocks`, by the LAPACK dlarfg
        convention (beta = -sign(alpha) |x|), with signs = sign(beta).  Each
        block of rows becomes one compact-WY block.

        For iid standard normal rows the rotation is Haar: the reflectors of
        a Householder QR of a Gaussian matrix are built from independent
        Gaussian vectors of lengths N, N-1, ..., 1, and sign(diag R) makes
        Q Haar (Stewart, SIAM J. Numer. Anal. 17, 1980; Mezzadri, Notices
        AMS 54, 2007).
        """
        blocks, signs = [], []
        k0, N = 0, None
        for rows in row_blocks:
            nb = rows.shape[0]
            N = rows.shape[1] if N is None else N
            if rows.shape[1] != N or k0 + nb > N:
                raise ValidationError("row blocks must stack to a square matrix")
            V = np.array(rows[:, k0:], dtype=float)
            V[:, :nb][np.tril_indices(nb, -1)] = 0.0
            diag = np.arange(nb)
            alpha = V[diag, diag].copy()
            V[diag, diag] = 0.0
            xnorm = np.linalg.norm(V, axis=1)
            beta = -np.copysign(np.hypot(alpha, xnorm), alpha)
            if np.any(beta == 0.0):
                raise NumericalError(f"zero-norm Householder row at reflector "
                                     f"{k0 + int(np.argmax(beta == 0.0))}")
            reflect = xnorm > 0.0  # otherwise H_k = I and beta = alpha
            tau = np.where(reflect, (beta - alpha) / beta, 0.0)
            V *= np.where(reflect, 1.0 / (alpha - beta), 0.0)[:, None]
            V[diag, diag] = 1.0
            signs.append(np.sign(np.where(reflect, beta, alpha)))
            # forward columnwise T (LAPACK dlarft):
            # T[:i, i] = -tau_i T[:i, :i] V[:i] v_i
            S = V @ V.T
            T = np.zeros((nb, nb))
            for i in range(nb):
                T[:i, i] = -tau[i] * (T[:i, :i] @ S[:i, i])
                T[i, i] = tau[i]
            blocks.append((k0, V, T))
            k0 += nb
        if N is None or k0 != N:
            raise ValidationError("row blocks must stack to a square matrix")
        return cls(blocks=tuple(blocks), signs=np.concatenate(signs))

    @property
    def N(self) -> int:
        return self.signs.shape[0]

    @property
    def T(self) -> "HouseholderRotation":
        """The transpose (and inverse), sharing the reflectors."""
        return replace(self, transposed=not self.transposed)

    def __matmul__(self, x) -> np.ndarray:
        """O @ x (O.T @ x when transposed) for x of shape (N,) or (N, k)."""
        y = np.array(x, dtype=float)
        if y.ndim not in (1, 2) or y.shape[0] != self.N:
            raise ValidationError(f"cannot apply an {self.N}x{self.N} rotation "
                                  f"to shape {y.shape}")
        d = self.signs if y.ndim == 1 else self.signs[:, None]
        if self.transposed:  # diag(d) Q_B^T ... Q_1^T x, Q_b^T = I - V^T T^T V
            for k0, V, T in self.blocks:
                seg = y[k0:]
                seg -= V.T @ (T.T @ (V @ seg))
            y *= d
        else:  # Q_1 ... Q_B diag(d) x, Q_b = I - V^T T V
            y *= d
            for k0, V, T in reversed(self.blocks):
                seg = y[k0:]
                seg -= V.T @ (T @ (V @ seg))
        return y

    def dense(self) -> np.ndarray:
        """The N x N matrix, formed in O(N^3)."""
        return self @ np.eye(self.N)


def sample_haar_rotation(N: int, seed: int) -> HouseholderRotation:
    """Haar-distributed orthogonal matrix in factored form, in O(N^2): row k
    of one N x N standard-normal draw supplies reflector k.  The draw is
    taken WY_BLOCK rows at a time (the same numbers as one N x N draw), so
    only the reflectors' half of it is kept."""
    if N < 1:
        raise ValidationError("N must be >= 1")
    rng = np.random.default_rng(seed)
    return HouseholderRotation.from_gaussian_rows(
        rng.standard_normal((min(WY_BLOCK, N - k0), N)) for k0 in range(0, N, WY_BLOCK))


def sample_haar_orthogonal(N: int, seed: int) -> np.ndarray:
    """Dense form of `sample_haar_rotation(N, seed)`."""
    return sample_haar_rotation(N, seed).dense()


def _dense(O) -> np.ndarray:
    """An eigenbasis as a dense matrix (formed if it is a rotation)."""
    return O.dense() if isinstance(O, HouseholderRotation) else O


@dataclass
class RotInvEnsemble:
    """W = O diag(eigenvalues) O^T; dense W built on demand.  The
    eigenbasis O is a HouseholderRotation (Haar) or a dense orthogonal
    matrix (GOE)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | HouseholderRotation
    _W: np.ndarray | None = field(default=None, repr=False)

    @property
    def N(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def W(self) -> np.ndarray:
        if self._W is None:
            O = _dense(self.eigenvectors)
            self._W = (O * self.eigenvalues[None, :]) @ O.T
            self._W = 0.5 * (self._W + self._W.T)
        return self._W

    def apply(self, v: np.ndarray) -> np.ndarray:
        """W @ v without materializing W."""
        O = self.eigenvectors
        return O @ (self.eigenvalues * (O.T @ v))


def build_rot_invariant(grid: np.ndarray, seed: int) -> RotInvEnsemble:
    """Ensemble with the given eigenvalues and a fresh Haar eigenbasis."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 1:
        raise ValidationError("grid must be a nonempty 1-d array")
    if not np.all(np.isfinite(grid)):
        raise ValidationError("grid contains non-finite entries")
    O = sample_haar_rotation(grid.size, seed)
    return RotInvEnsemble(eigenvalues=grid.copy(), eigenvectors=O)


def sample_goe(N: int, seed: int) -> np.ndarray:
    """W = (G + G^T)/sqrt(2N) with G iid standard normal."""
    if N < 1:
        raise ValidationError("N must be >= 1")
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((N, N))
    return (G + G.T) / np.sqrt(2 * N)


def goe_ensemble(N: int, seed: int) -> RotInvEnsemble:
    """GOE sample stored in factored form (eigendecomposed once)."""
    W = sample_goe(N, seed)
    lam, O = _eigh(W)
    return RotInvEnsemble(eigenvalues=lam, eigenvectors=O, _W=W)


def _eigh(W: np.ndarray):
    try:
        lam, O = np.linalg.eigh(W)
    except np.linalg.LinAlgError as e:  # pragma: no cover
        raise NumericalError(f"eigendecomposition failed: {e}") from e
    return lam, O


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
    """Scalar signal prior with unit second moment (validated)."""

    name: str
    sampler: Callable  # (rng, size) -> array
    second_moment: float
    params: tuple = ()

    def sample(self, N: int, rng: np.random.Generator) -> np.ndarray:
        return self.sampler(rng, N)


def make_prior(name: str, **params) -> Prior:
    """Priors: 'rademacher' (default choice), 'sparse' (three-point, param
    rho = nonzero fraction), 'gaussian'."""
    if name == "rademacher":
        return Prior("rademacher", lambda rng, n: rng.choice([-1.0, 1.0], size=n), 1.0)
    if name == "gaussian":
        return Prior("gaussian", lambda rng, n: rng.standard_normal(n), 1.0)
    if name == "sparse":
        rho = float(params.get("rho", 0.1))
        if not 0 < rho <= 1:
            raise ValidationError("sparse prior needs 0 < rho <= 1")
        a = 1.0 / np.sqrt(rho)

        def sampler(rng, n, rho=rho, a=a):
            u = rng.random(n)
            x = np.zeros(n)
            x[u < rho / 2] = a
            x[(u >= rho / 2) & (u < rho)] = -a
            return x

        return Prior("sparse", sampler, 1.0, params=(("rho", rho),))
    raise ValidationError(f"unknown prior {name!r}")


# ---------------------------------------------------------------------------
# spiked instances and the overlap measure
# ---------------------------------------------------------------------------

def diag_rank_one_eigh(lam: np.ndarray, z: np.ndarray,
                       rho: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition diag(lam) + rho z z^T = V diag(mu) V^T for rho > 0,
    with mu ascending and V orthogonal, in O(N^2) time.

    Entries of lam equal to within tol = 8 eps max(|lam|, rho |z|^2) are
    grouped, and a Householder reflection within each group moves the
    group's part of z onto one entry.  Entries whose coupling rho |z_i| is
    below tol are deflated to the eigenpair (lam_i, e_i).  The K remaining
    eigenvalues are the roots of the secular equation
    1 + rho sum_i z_i^2 / (d_i - mu) = 0, one in each interval (d_j, d_j+1)
    and the last above d_K.  LAPACK dlasd4 finds them, along with every
    difference d_i - mu_j to high relative accuracy, after the map
    d -> sqrt(d - d_1 + s).  z is then recomputed by the Loewner formula, so
    that the roots are exact eigenvalues of a nearby problem, and the
    eigenvectors (d - mu_j)^-1 z are orthogonal to working precision
    (Gu & Eisenstat, SIAM J. Matrix Anal. Appl. 15, 1994).
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
    reflectors = []  # (first, stop, v): H = I - 2 v v^T / v^T v on rows first:stop
    for first, stop in zip(starts, starts[1:] + [N]):
        if stop - first < 2:
            continue
        v = w[first:stop].copy()
        nv = float(np.linalg.norm(v))
        if nv == 0:
            continue
        sgn = 1.0 if v[0] >= 0 else -1.0
        v[0] += sgn * nv
        w[first:stop] = 0.0
        w[first] = -sgn * nv
        reflectors.append((first, stop, v))

    keep = rho_n * np.abs(w) > tol
    K = np.flatnonzero(keep)
    mu_all = d.copy()
    # V is built in the sorted frame (row i <-> d_i) and its rows are put
    # in the order of lam at the end; the secular eigenvectors are formed in
    # V's leading K x K block and moved out in place, so that V is the only
    # N x N array.
    V = np.zeros((N, N))
    if K.size == 1:  # dlasd4 returns no differences d_i - mu for a single root
        mu_all[K] = d[K] + rho_n * w[K] ** 2
        V[0, 0] = 1.0
    elif K.size > 1:
        mu_all[K] = _secular_core(d[K], w[K], rho_n, V[:K.size, :K.size])

    cols = np.argsort(mu_all, kind="stable")
    col_of = np.empty(N, dtype=int)
    col_of[cols] = np.arange(N)
    # root j goes to column col_of[K[j]] >= j and row j to row K[j] >= j,
    # both increasing in j, so moving the last first overwrites nothing
    for j, c in reversed(list(enumerate(col_of[K]))):
        if c != j:
            V[:K.size, c] = V[:K.size, j]
            V[:K.size, j] = 0.0
    for i, r in reversed(list(enumerate(K))):
        if r != i:
            V[r] = V[i]
            V[i] = 0.0
    defl = np.flatnonzero(~keep)
    V[defl, col_of[defl]] = 1.0
    for first, stop, v in reflectors:
        block = V[first:stop]
        block -= np.outer(v, (2.0 / (v @ v)) * (v @ block))
    _permute_rows(V, order)
    return mu_all[cols], V


def _permute_rows(A: np.ndarray, order: np.ndarray) -> None:
    """A[order] = A (A's row i moves to row order[i]) in place, one cycle
    of the permutation at a time, with a single row as scratch."""
    done = order == np.arange(order.size)
    for start in np.flatnonzero(~done):
        if done[start]:
            continue
        row = A[start].copy()
        i = start
        while not done[i]:
            done[i] = True
            row, A[order[i]] = A[order[i]].copy(), row
            i = order[i]


def _secular_core(d: np.ndarray, w: np.ndarray, rho_n: float, out: np.ndarray):
    """Roots mu of diag(d) + rho_n w w^T for strictly increasing d and w
    without negligible entries; the eigenvectors are written to the K x K
    array `out`, column j for root j.  w is rescaled to unit length, as
    dlasd4 assumes."""
    from scipy.linalg import lapack  # the only scipy use; loaded on first call

    K = d.size
    wn = float(np.linalg.norm(w))
    rho_k = rho_n * wn**2
    w = w / wn
    s = d[-1] - d[0]
    dd = np.sqrt(d - d[0] + s)
    # Loewner: zhat_i^2 = (mu_K - d_i)/rho prod_{j<i} (d_i - mu_j)/(d_i - d_j)
    #                     prod_{i<=j<K-1} (mu_j - d_i)/(d_{j+1} - d_i),
    # every ratio in (0, 1); differences of d taken in the shifted variable.
    # The product is accumulated one root at a time, so that no K x K
    # temporary is needed beside gaps, which is `out` itself.
    gaps = out  # gaps[j, i] = d_i - mu_j
    prod = np.ones(K)
    idx = np.arange(K)
    for j in range(K):
        delta, _, work, info = lapack.dlasd4(j, dd, w, rho_k)
        if info != 0:
            raise NumericalError(f"secular equation root {j} did not converge (info={info})")
        gaps[j] = delta * work
        if j < K - 1:
            other = np.where(j < idx, dd[j], dd[j + 1])
            prod *= np.abs(gaps[j]) / (np.abs(other - dd) * (other + dd))
    mu = d - np.diagonal(gaps)
    zhat = np.sqrt(np.abs(gaps[-1]) / rho_k * prod)
    zhat = np.copysign(zhat, w)
    np.divide(zhat, gaps, out=gaps)
    # normalize the eigenvectors (rows of gaps) a block at a time, each norm
    # summed along the row as np.linalg.norm(gaps.T, axis=0) would
    for j0 in range(0, K, 64):
        vecs = gaps[j0:j0 + 64].T
        vecs /= np.sqrt(np.add.reduce(vecs * vecs, axis=0))
    _transpose_in_place(out)
    return mu


def _transpose_in_place(A: np.ndarray, block: int = 256) -> None:
    """A = A.T for a square A, swapping block x block tiles."""
    n = A.shape[0]
    for i in range(0, n, block):
        A[i:i + block, i:i + block] = A[i:i + block, i:i + block].T.copy()
        for j in range(i + block, n, block):
            tile = A[i:i + block, j:j + block].copy()
            A[i:i + block, j:j + block] = A[j:j + block, i:i + block].T
            A[j:j + block, i:i + block] = tile.T


@dataclass
class SpikedInstance:
    theta: float
    x_star: np.ndarray
    ensemble: RotInvEnsemble
    _Y: np.ndarray | None = field(default=None, repr=False)
    _spectrum: tuple | None = field(default=None, repr=False)

    @property
    def N(self) -> int:
        return self.x_star.shape[0]

    @property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(z, mu, V) with z = O^T x*, mu ascending and
        Y = O V diag(mu) V^T O^T: the secular factorization of
        diag(lambda) + (theta/N) z z^T, computed once; Y is not formed."""
        if self._spectrum is None:
            z = self.ensemble.eigenvectors.T @ self.x_star
            mu, V = diag_rank_one_eigh(self.ensemble.eigenvalues, z, self.theta / self.N)
            self._spectrum = (z, mu, V)
        return self._spectrum

    @property
    def Y(self) -> np.ndarray:
        if self._Y is None:
            x = self.x_star
            self._Y = (self.theta / self.N) * np.outer(x, x) + self.ensemble.W
        return self._Y

    def apply_Y(self, v: np.ndarray) -> np.ndarray:
        x = self.x_star
        return (self.theta / self.N) * x * (x @ v) + self.ensemble.apply(v)


def build_spiked(theta: float, prior: Prior, ensemble: RotInvEnsemble, seed: int) -> SpikedInstance:
    """Y = (theta/N) x* x*^T + W with x* iid from a unit-second-moment prior."""
    if theta <= 0:
        raise ValidationError("theta must be > 0")
    if abs(prior.second_moment - 1.0) > 1e-12:
        raise ValidationError(
            f"prior {prior.name!r} has second moment {prior.second_moment}, expected 1"
        )
    rng = np.random.default_rng(seed)
    x = prior.sample(ensemble.N, rng)
    return SpikedInstance(theta=float(theta), x_star=x, ensemble=ensemble)


@dataclass(frozen=True)
class OverlapMeasure:
    """Atoms (lambda_i(Y), (x*^T u_i)^2 / N) over all eigenpairs of Y."""

    eigenvalues: np.ndarray
    weights: np.ndarray

    def total_mass(self) -> float:
        return float(self.weights.sum())

    def mean(self) -> float:
        return float(self.weights @ self.eigenvalues / self.weights.sum())

    def expect(self, f: Callable) -> float:
        return float(self.weights @ np.asarray(f(self.eigenvalues)) / self.weights.sum())


def overlap_measure(inst: SpikedInstance, n_cap: int = DENSE_N_CAP) -> OverlapMeasure:
    """Empirical eigen-overlap measure of the spiked matrix, eigenvalues
    ascending; the weight of eigenvector O v_k is (z^T v_k)^2 / N."""
    if inst.N > n_cap:
        raise ValidationError(f"N={inst.N} exceeds the dense decomposition cap {n_cap}")
    z, mu, V = inst.spectrum
    return OverlapMeasure(eigenvalues=mu, weights=(z @ V) ** 2 / inst.N)


# ---------------------------------------------------------------------------
# binary matrix container
# ---------------------------------------------------------------------------

_MAGIC = b"AMPM"
_DTYPES = {"float64": 1}
_DTYPE_CODES = {v: k for k, v in _DTYPES.items()}


def save_matrix(path: str, A: np.ndarray) -> None:
    """Row-major binary dump with a {magic, N, dtype} header."""
    A = np.ascontiguousarray(np.asarray(A, dtype=np.float64))
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValidationError("only square matrices are persisted")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<qB", A.shape[0], _DTYPES["float64"]))
        fh.write(A.tobytes(order="C"))


def load_matrix(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise ValidationError(f"{path}: bad magic {magic!r}")
        N, code = struct.unpack("<qB", fh.read(9))
        if code not in _DTYPE_CODES:
            raise ValidationError(f"{path}: unknown dtype code {code}")
        data = np.frombuffer(fh.read(), dtype=np.float64)
    if data.size != N * N:
        raise ValidationError(f"{path}: payload size {data.size} != N^2 = {N * N}")
    return data.reshape(N, N).copy()
