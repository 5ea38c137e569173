"""Configuration-driven experiment runner and `amp-lab` command line tool.

Subcommands: `cumulants` (moment/free-cumulant tables, exact or Monte Carlo),
`run` (sample instances, run the configured algorithm, aggregate MSE against
the state-evolution prediction), `se` (deterministic recursion only), and
`verify` (pinned-seed property suites).  Exit codes: 0 ok, 1 validation
error, 2 numerical failure, 3 verification failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import threading
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .denoisers import (identity_denoiser, last_row_denoiser, linear_mmse_combining_denoiser,
                        mmse_rademacher_denoiser, random_lipschitz_denoiser,
                        tanh_denoiser)
from .engines import (HORIZON_CAP, orthogonality_residuals, ri_amp_debias, run_oamp,
                      run_ri_amp, run_ri_amp_df, run_ri_amp_mp, ubar_divergences,
                      verify_unfolding)
from .errors import AmpLabError, NumericalError, ValidationError
from .freeprob import (build_poly_family, cumulants_from_law,
                       cumulants_to_moments_nc, mc_cumulants,
                       moments_to_cumulants, partial_moments)
from .laws import (MarchenkoPastur, Semicircle, SpectralLaw, parse_law_spec, parse_number,
                   parse_spec, read_columns)
from .randmat import (IDENTITY, RationalFn, build_rot_invariant, build_spiked, goe_ensemble,
                      parse_prior_spec)
from .se import (SeInit, check_pole_free, fan_se_form, mp_denoise_fn, oamp_se,
                 ri_amp_df_se, ri_amp_mp_se, spiked_se, theorem_sigma, _family_gram)

FLOAT_FMT = "{:.17g}"
SPIKED_ALGOS = ("ri-amp", "ri-amp-mp")
MATRIX_FN_ALGOS = ("ri-amp-mp", "oamp")  # the others run on the matrix itself
ALL_ALGOS = ("ri-amp", "ri-amp-df", "ri-amp-mp", "gaussian-amp", "oamp")
# numpy's floating-point warnings are silenced: every result is checked for
# finiteness, and an overflow ends in one `numerical failure:` line
_ERRSTATE = {"over": "ignore", "invalid": "ignore", "divide": "ignore"}
# elements per array of a seed's numpy calls from which seeds share threads
# by default (`_worker_count`); the sweep that set it is in README
POOL_MIN_ELEMENTS = 10_000


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

_CONFIG_FIELDS = {
    "law": str, "N": int, "T": int, "theta": float, "omega": float,
    "runs": int, "seed_base": int, "algo": str, "denoiser": str,
    "matrix_fn": str, "prior": str, "mc_samples": int, "output": str,
}
_NULLABLE_FIELDS = ("theta", "omega", "output")
# the spec grammar of `resolve_denoiser_factory`: each denoiser's keys
_DENOISER_KEYS = {"linear-mmse-combining": (), "mmse-rademacher": (), "tanh": ("scale",),
                  "identity": (), "random-lipschitz": ("seed",)}
# matrix_fn names; polynomial and file take positional coefficients or a path
_MATRIX_FN_NAMES = {"identity": (), "mp-denoise": (), "polynomial": (), "file": ()}


def _physical_memory_bytes() -> int | None:
    """Physical memory of the machine, or None where the OS does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, OSError, ValueError):
        return None


def _seed_bytes(N: int, algo: str, T: int) -> int:
    """Peak bytes one seed holds.  Gaussian AMP holds a dense GOE draw and
    its eigendecomposition: a seed (draw and a T = 6 run) peaked at 43.6 and
    41.9 N^2 bytes above the import at N = 2000 and 3000, so it is budgeted
    66 N^2.  The others hold only length-N vectors, 16 (T + 2) of them: the
    revealed pairs of the lazy Haar rotation, the iterates and their
    temporaries.  One-worker peaks of whole `run` processes at N = 10^6
    (ri-amp, ri-amp-df, ri-amp-mp and oamp; ri-amp and ri-amp-mp also
    spiked) were at most 27, 49, 82 and 126 vectors at T = 1, 3, 6 and 10.
    Every budget is at least 1.5 times the measured peak.  A run reserves
    its revealed pairs before its first step and forms no (t, N) array of
    partials: spiked-mp seeds at N = 10^6, T = 6, run one at a time after
    SE, peak 54 vectors above the process's 62 MB before them.  The trace-free
    Onsager rows keep nothing of length N in grid mode: they live on a
    Gauss rule of T + 1 points, whose Lanczos build holds T + 1 transient
    vectors.  The budget bounds memory only: the default seed-thread count
    (`_worker_count`) goes by array length, because a gaussian-amp seed's
    time grows as N^3 and the others' as N, neither as its memory."""
    if algo == "gaussian-amp":
        return 66 * N * N
    return 8 * N * 16 * (T + 2)


def _check_fits_memory(need: int, what: str) -> None:
    have = _physical_memory_bytes()
    if have is not None and need > have:
        raise ValidationError(f"{what} needs about {need / 2**30:.1f} GiB, more than "
                              f"the {have / 2**30:.1f} GiB of physical memory")


@dataclass
class ExperimentConfig:
    law: str
    N: int
    T: int
    theta: float | None = None
    omega: float | None = None
    runs: int = 1
    seed_base: int = 0
    algo: str = "ri-amp-mp"
    denoiser: str = "linear-mmse-combining"
    matrix_fn: str = "identity"
    prior: str = "rademacher"
    mc_samples: int = 2_000_000  # accepted and validated; SE samples nothing
    output: str | None = None

    def __post_init__(self):
        if self.N < 16:
            raise ValidationError("N must be >= 16")
        if not 1 <= self.T <= HORIZON_CAP:
            raise ValidationError(f"T must lie in [1, {HORIZON_CAP}]")
        if self.runs < 1:
            raise ValidationError("runs must be >= 1")
        if self.seed_base < 0:
            raise ValidationError("seed_base must be >= 0")
        if self.mc_samples < 2:
            raise ValidationError("mc_samples must be >= 2")
        if self.omega is not None and not 0.0 <= self.omega <= 1.0:
            raise ValidationError("omega must lie in [0, 1]")
        if self.theta is not None and not (math.isfinite(self.theta) and self.theta > 0):
            raise ValidationError("theta must be a finite number > 0")
        if (self.theta is None) != (self.omega is None):
            raise ValidationError("spiked runs need both theta and omega")
        if self.algo not in ALL_ALGOS:
            raise ValidationError(f"unknown algo {self.algo!r}; choose from {ALL_ALGOS}")
        if self.spiked and self.algo not in SPIKED_ALGOS:
            raise ValidationError(
                f"spiked experiments support algos {SPIKED_ALGOS}, got {self.algo!r}")
        if self.matrix_fn.strip().lower() != "identity" and self.algo not in MATRIX_FN_ALGOS:
            raise ValidationError(f"matrix_fn {self.matrix_fn!r} applies only to algos "
                                  f"{MATRIX_FN_ALGOS}; {self.algo!r} needs 'identity'")
        parse_prior_spec(self.prior)
        resolve_denoiser_factory(self.denoiser, self.spiked)
        workers = _worker_count(self.runs, self.N, self.algo)
        _check_fits_memory(workers * _seed_bytes(self.N, self.algo, self.T),
                           f"N={self.N} with {workers} concurrent seed(s)")

    @property
    def spiked(self) -> bool:
        return self.theta is not None

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        unknown = set(data) - set(_CONFIG_FIELDS)
        if unknown:
            raise ValidationError(f"unknown config keys: {sorted(unknown)}")
        for key in ("law", "N", "T"):
            if key not in data:
                raise ValidationError(f"config is missing required key {key!r}")
        coerced = {}
        for key, val in data.items():
            typ = _CONFIG_FIELDS[key]
            if val is None:
                if key not in _NULLABLE_FIELDS:
                    raise ValidationError(f"config key {key!r} must not be null")
                coerced[key] = None
                continue
            if typ is str and not isinstance(val, str):
                raise ValidationError(f"config key {key!r} must be a string, got {val!r}")
            if typ is not str and (isinstance(val, bool) or not isinstance(val, (int, float))):
                raise ValidationError(f"config key {key!r} must be a number, got {val!r}")
            if typ is int and isinstance(val, float) and not val.is_integer():
                raise ValidationError(f"config key {key!r} must be an integer, got {val!r}")
            try:
                coerced[key] = typ(val)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValidationError(f"config key {key!r}: {exc}") from exc
        return cls(**coerced)

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ValidationError(f"{path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}:{exc.lineno}: invalid JSON ({exc.msg})") from exc
        if not isinstance(data, dict):
            raise ValidationError(f"{path}: config must be a JSON object")
        return cls.from_dict(data)


def resolve_matrix_fn(spec: str, law: SpectralLaw, theta: float | None):
    """Matrix-denoiser specs: identity | mp-denoise | polynomial:c0,c1,... |
    file:path (one coefficient per line, read by `laws.read_columns`); every
    coefficient a finite number.  Names are case-insensitive and whitespace
    around them is ignored, as in `laws.parse_spec`; a file path is taken
    verbatim.  Each resolves to a RationalFn, the form a spiked run applies
    without eigenvectors."""
    head, _, rest = spec.partition(":")
    name = head.strip().lower()
    if name == "polynomial":
        return RationalFn(coeffs=tuple(parse_number(c, f"matrix_fn {spec!r}: coefficient ")
                                       for c in rest.split(",")))
    if name == "file":
        return RationalFn(coeffs=tuple(read_columns(rest, "matrix_fn file", (1,))[:, 0].tolist()))
    if parse_spec(spec, "matrix_fn", _MATRIX_FN_NAMES)[0] == "identity":
        return IDENTITY
    if not isinstance(law, MarchenkoPastur):
        raise ValidationError("mp-denoise requires a Marchenko-Pastur law")
    if theta is None:
        raise ValidationError("mp-denoise requires theta")
    check_pole_free(law)
    try:
        return mp_denoise_fn(theta, law.alpha)
    except ValidationError as exc:  # theta large enough to overflow f
        raise ValidationError(f"matrix_fn {spec!r}: {exc}") from None


def resolve_denoiser_factory(spec: str, spiked: bool):
    """Denoiser specs (`laws.parse_spec`): mmse-rademacher | linear-mmse-combining
    (spiked configs only) | tanh[:scale=s] | identity | random-lipschitz[:seed=s],
    s an integer in [0, 2^53], where floats hold integers exactly.  Returns
    factory(t, beta, Sigma)."""
    name, params = parse_spec(spec, "denoiser", _DENOISER_KEYS)
    if name in ("mmse-rademacher", "linear-mmse-combining") and not spiked:
        raise ValidationError(f"denoiser {spec!r} needs a spiked config")
    if name == "linear-mmse-combining":
        return lambda t, beta, Sigma: linear_mmse_combining_denoiser(beta, Sigma)
    if name == "mmse-rademacher":
        return lambda t, beta, Sigma: mmse_rademacher_denoiser(
            t, float(beta[-1]), float(Sigma[-1, -1]))
    if name == "tanh":
        scale = params.get("scale", 1.0)
        return lambda t, beta, Sigma: tanh_denoiser(t, scale)
    if name == "identity":
        return lambda t, beta, Sigma: identity_denoiser(t)
    seed = params.get("seed", 0.0)
    if not (seed.is_integer() and 0 <= seed <= 2**53):
        raise ValidationError(f"denoiser {spec!r}: seed must be an integer in [0, 2^53]")
    return lambda t, beta, Sigma: random_lipschitz_denoiser(t, int(seed) + 31 * t)


# ---------------------------------------------------------------------------
# SE predictions for a config
# ---------------------------------------------------------------------------

def _resolve(cfg: ExperimentConfig):
    """(law, prior, f, factory) of a config, each resolved once (f is IDENTITY
    for the algos that run on the matrix itself)."""
    law = parse_law_spec(cfg.law)
    prior = parse_prior_spec(cfg.prior)
    factory = resolve_denoiser_factory(cfg.denoiser, cfg.spiked)
    return law, prior, resolve_matrix_fn(cfg.matrix_fn, law, cfg.theta), factory


def compute_se(cfg: ExperimentConfig):
    """Return (states, prediction rows).  Spiked rows are (t, mse_se_pred);
    non-spiked rows are (t, r2_se_pred = Sigma_tt = E[R_t^2])."""
    return _se(cfg, *_resolve(cfg))


def _se(cfg: ExperimentConfig, law, prior, f, factory):
    """compute_se on resolved inputs.  RI-AMP is RI-AMP-MP with f = identity,
    and Gaussian AMP is RI-AMP under the unit semicircle, each eta read on
    the last history row as its runs apply it."""
    init = SeInit(prior=prior, omega=cfg.omega)
    if cfg.spiked:
        states = spiked_se(law, cfg.theta, f, factory, init, cfg.T)
        return states, [(s.t, s.mse_pred) for s in states]
    dens = factory
    if cfg.algo == "gaussian-amp":
        if law != Semicircle():  # the runs draw a unit-variance GOE
            raise ValidationError("gaussian-amp requires the unit semicircle law (GOE)")
        dens = [last_row_denoiser(factory(1, None, None), t) for t in range(1, cfg.T + 1)]
    if cfg.algo == "oamp":
        states = oamp_se(law, [f] * cfg.T, dens, init, cfg.T)
    elif cfg.algo == "ri-amp-df":
        states = ri_amp_df_se(law, dens, init, cfg.T)
    else:
        states = ri_amp_mp_se(law, f, dens, init, cfg.T)
    return states, [(s.t, float(s.Sigma[s.t - 1, s.t - 1])) for s in states]


# ---------------------------------------------------------------------------
# experiment runner
# ---------------------------------------------------------------------------

def _worker_count(runs: int, N: int, algo: str) -> int:
    """Seed threads for `runs` seeds of `algo` at size N.

    `AMP_LAB_THREADS`, when set, is used as given, at most one per seed.
    Unset, min(runs, CPU count) threads share the seeds once the arrays of
    a seed's numpy calls reach POOL_MIN_ELEMENTS: length-N vectors, or
    gaussian-amp's N x N matrices.  Smaller seeds run one after another on
    the calling thread.  A seed makes about 150 numpy calls a step, and only
    the work inside a call runs beside another thread: for short arrays the
    interpreter lock's hand-offs cost more than a second core returns, and a
    second thread would hold a second seed's memory."""
    env = os.environ.get("AMP_LAB_THREADS", "").strip()
    try:
        cap = int(env) if env else (os.cpu_count() or 1)
    except ValueError:
        raise ValidationError(f"AMP_LAB_THREADS must be an integer, got {env!r}") from None
    if cap < 1:
        raise ValidationError("AMP_LAB_THREADS must be >= 1")
    if not env and (N * N if algo == "gaussian-amp" else N) < POOL_MIN_ELEMENTS:
        return 1
    return max(1, min(runs, cap))


def _seed(base: int, run_idx: int, stream: int) -> int:
    return base + 1_000_003 * run_idx + stream


def _single_run(cfg: ExperimentConfig, law, prior, f, states, grid, run_idx: int):
    """One seeded instance; returns per-iteration metric rows, NumericalError
    when one is not finite (the seed diverged).

    `grid` holds the law's N quantile atoms, built once per run before the
    worker pool and shared read-only by every seed (each ensemble copies
    it); it is None for gaussian-amp, whose seeds draw a GOE matrix.  Every
    algo runs the denoisers its SE states built."""
    rng = np.random.default_rng(_seed(cfg.seed_base, run_idx, 0))
    if cfg.algo == "gaussian-amp":
        ens = goe_ensemble(cfg.N, seed=_seed(cfg.seed_base, run_idx, 1))
    else:
        ens = build_rot_invariant(grid, seed=_seed(cfg.seed_base, run_idx, 1))
    dens = [states[t - 1].denoiser for t in range(1, cfg.T + 1)]
    if cfg.spiked:
        M, x = build_spiked(cfg.theta, prior, ens, seed=_seed(cfg.seed_base, run_idx, 2))
        u1 = (math.sqrt(cfg.omega) * x
              + math.sqrt(1.0 - cfg.omega) * rng.standard_normal(cfg.N))
    else:
        M, u1 = ens, prior.sample(cfg.N, rng)
    if cfg.algo == "oamp":
        run = run_oamp(M, [f] * cfg.T, dens, u1, cfg.T)
    elif cfg.algo == "ri-amp-df":
        run = run_ri_amp_df(M, law, dens, u1, cfg.T, mode="grid")
    else:  # RI-AMP-MP, f = identity for RI-AMP; Gaussian AMP debiases by the unit semicircle
        mode = "population" if cfg.algo == "gaussian-amp" else "grid"
        run = run_ri_amp_mp(M, law, f, dens, u1, cfg.T, mode=mode)
    if cfg.spiked:
        mse = np.array([np.mean((run.u[t] - x) ** 2) for t in range(1, cfg.T + 1)])
        ovl = np.array([1.0 - (run.u[t] @ x / cfg.N) ** 2 for t in range(1, cfg.T + 1)])
        metrics = np.column_stack([mse, ovl])
    else:
        metrics = np.array([d["norm_r"] ** 2 for d in run.diagnostics])[:, None]
    bad = ~np.isfinite(metrics).all(axis=1)
    if bad.any():
        raise NumericalError(f"the metrics are not finite at t={int(np.argmax(bad)) + 1}")
    return metrics


def _run_seeds(task, runs: int, workers: int) -> list:
    """[task(0), ..., task(runs - 1)] on `workers` threads, the calling one
    among them: each takes the next seed in index order until none is left.
    After every thread has joined, the exception of the lowest seed that
    raised is re-raised; once one has, no further seed is started."""
    results, errors = [None] * runs, {}
    seeds, lock = iter(range(runs)), threading.Lock()

    def work():
        while True:
            with lock:
                run_idx = None if errors else next(seeds, None)
            if run_idx is None:
                return
            try:
                results[run_idx] = task(run_idx)
            except BaseException as exc:  # re-raised by the calling thread
                with lock:
                    errors[run_idx] = exc

    helpers = [threading.Thread(target=work) for _ in range(workers - 1)]
    for th in helpers:
        th.start()
    try:
        work()
    finally:
        for th in helpers:
            th.join()
    if errors:
        raise errors[min(errors)]
    return results


def run_experiment(cfg: ExperimentConfig):
    """Run `cfg.runs` seeded instances on the seed threads and aggregate.

    Returns (rows, se_rows, n_ok, n_divergent).  Seeds whose run raises a
    numerical failure are excluded from aggregation and counted, each with
    a warning on stderr, printed in seed order once every seed is done."""
    workers = _worker_count(cfg.runs, cfg.N, cfg.algo)
    law, prior, f, factory = _resolve(cfg)
    states, se_rows = _se(cfg, law, prior, f, factory)
    grid = None
    if cfg.algo != "gaussian-amp":
        grid = law.quantile_grid(cfg.N).atoms
        grid.flags.writeable = False

    def task(run_idx):
        try:
            with np.errstate(**_ERRSTATE):  # numpy keeps it per thread
                return _single_run(cfg, law, prior, f, states, grid, run_idx)
        except NumericalError as exc:
            return exc

    results = _run_seeds(task, cfg.runs, workers)
    for run_idx, r in enumerate(results):  # in seed order, whichever thread finished first
        if isinstance(r, NumericalError):
            print(f"warning: seed {run_idx} diverged and was excluded: {r}", file=sys.stderr)
    ok = [r for r in results if not isinstance(r, NumericalError)]
    n_div = cfg.runs - len(ok)
    if not ok:
        raise NumericalError("all seeds diverged")
    stack = np.stack(ok)  # (runs_ok, T, metrics); seed order fixed => deterministic
    mean = stack.mean(axis=0)
    if len(ok) > 1:
        stderr = stack.std(axis=0, ddof=1) / math.sqrt(len(ok))
    else:
        stderr = np.zeros_like(mean)
    pred = dict(se_rows)
    rows = []
    for t in range(1, cfg.T + 1):
        row = [t, mean[t - 1, 0], stderr[t - 1, 0], pred[t]]
        if cfg.spiked:
            row += [mean[t - 1, 1], stderr[t - 1, 1]]
        rows.append(row)
    return rows, se_rows, len(ok), n_div


# ---------------------------------------------------------------------------
# output files
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    return FLOAT_FMT.format(float(x))


def _csv_text(header: list[str] | None, rows) -> str:
    """CSV lines: the header, if any, then the rows, t an integer, the rest in FLOAT_FMT."""
    lines = [",".join(header)] if header else []
    lines += [",".join([str(int(row[0]))] + [_fmt(c) for c in row[1:]]) for row in rows]
    return "".join(line + "\n" for line in lines)


def _write_csv(path: str, header: list[str], rows) -> bytes:
    """Write `_csv_text` to `path`, making its directory; return the bytes."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    data = _csv_text(header, rows).encode()
    with open(path, "wb") as fh:
        fh.write(data)
    return data


def _write_svg(path: str, rows, spiked: bool) -> None:
    """Cosmetic line plot (log10 metric vs t): empirical mean with stderr
    bars plus the SE prediction; acceptance reads the CSV, not this."""
    W, H, pad = 640, 440, 60
    ts = [r[0] for r in rows]
    emp = [max(r[1], 1e-300) for r in rows]
    err = [r[2] for r in rows]
    prd = [max(r[3], 1e-300) for r in rows]
    lo = min(min(emp), min(prd))
    hi = max(max(emp), max(prd))
    ylo, yhi = math.floor(math.log10(lo)) - 0.2, math.ceil(math.log10(hi)) + 0.2

    def X(t):
        span = max(ts[-1] - ts[0], 1)
        return pad + (W - 2 * pad) * (t - ts[0]) / span

    def Y(v):
        return H - pad - (H - 2 * pad) * (math.log10(max(v, 1e-300)) - ylo) / (yhi - ylo)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}">',
             f'<rect width="{W}" height="{H}" fill="white"/>',
             f'<line x1="{pad}" y1="{H - pad}" x2="{W - pad}" y2="{H - pad}" stroke="black"/>',
             f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{H - pad}" stroke="black"/>']
    label = "mse" if spiked else "|r_t|^2/N"
    parts.append(f'<text x="{W // 2}" y="{H - 20}" font-size="13">t</text>')
    parts.append(f'<text x="12" y="{H // 2}" font-size="13">log10 {label}</text>')
    pts = " ".join(f"{X(t):.1f},{Y(v):.1f}" for t, v in zip(ts, prd))
    parts.append(f'<polyline points="{pts}" fill="none" stroke="#d62728" stroke-width="1.5"/>')
    for t, v, e in zip(ts, emp, err):
        parts.append(f'<circle cx="{X(t):.1f}" cy="{Y(v):.1f}" r="3" fill="#1f77b4"/>')
        if e > 0:
            parts.append(f'<line x1="{X(t):.1f}" y1="{Y(max(v - e, 1e-300)):.1f}" '
                         f'x2="{X(t):.1f}" y2="{Y(v + e):.1f}" stroke="#1f77b4"/>')
    parts.append(f'<text x="{W - pad - 160}" y="{pad}" font-size="12" fill="#1f77b4">'
                 'empirical mean ± stderr</text>')
    parts.append(f'<text x="{W - pad - 160}" y="{pad + 16}" font-size="12" fill="#d62728">'
                 'state-evolution prediction</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


def _check_out_dir(path: str) -> None:
    """ValidationError, before any work, unless `path` is a writable
    directory or can be made one; nothing is created."""
    head = os.path.abspath(path)
    while not os.path.lexists(head):
        head = os.path.dirname(head)
    if not (os.path.isdir(head) and os.access(head, os.W_OK | os.X_OK)):
        raise ValidationError(f"output directory {path!r}: {head!r} is not a writable directory")


def _write_outputs(cfg: ExperimentConfig, out_dir: str, rows, se_rows,
                   n_ok: int, n_div: int) -> None:
    if cfg.spiked:
        header = ["t", "mse_emp_mean", "mse_emp_stderr", "mse_se_pred",
                  "overlap_emp_mean", "overlap_emp_stderr"]
        se_header = ["t", "mse_se_pred"]
    else:
        header = ["t", "r2_emp_mean", "r2_emp_stderr", "r2_se_pred"]
        se_header = ["t", "r2_se_pred"]
    mse_bytes = _write_csv(os.path.join(out_dir, "mse.csv"), header, rows)
    se_bytes = _write_csv(os.path.join(out_dir, "se.csv"), se_header, se_rows)
    _write_svg(os.path.join(out_dir, "mse.svg"), rows, cfg.spiked)
    digest = hashlib.sha256(mse_bytes + se_bytes).hexdigest()
    meta = {
        "config": asdict(cfg),
        "version": __version__,
        "seeds_ok": n_ok,
        "seeds_divergent": n_div,
        "content_hash": digest,
    }
    with open(os.path.join(out_dir, "meta.json"), "w") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_cumulants(args) -> int:
    law = parse_law_spec(args.law)
    if args.order < 1:
        raise ValidationError("order must be >= 1")
    if args.mc:
        if args.replicas < 1 or args.dim < 1:
            raise ValidationError("--replicas and --dim must be >= 1")
        if args.seed < 0:
            raise ValidationError("--seed must be >= 0")
        # the replicas run one after another, each on one Haar ensemble that
        # answers the `order` products of the centering recursion
        _check_fits_memory(_seed_bytes(args.dim, "ri-amp", args.order), f"--dim {args.dim}")
    table = cumulants_from_law(law, args.order)
    header = ["n", "m_n", "kappa_n"]
    rows = [[n, m, k] for n, (m, k) in enumerate(zip(table.moments, table.cumulants), start=1)]
    if args.mc:
        reps = []
        grid = law.quantile_grid(args.dim).atoms
        for rep in range(args.replicas):
            ens = build_rot_invariant(grid, seed=args.seed + 101 * rep)
            reps.append(mc_cumulants(ens, args.order, seed=args.seed + 101 * rep + 1))
        reps = np.array(reps)
        spread = reps.std(axis=0, ddof=1) if len(reps) > 1 else np.zeros(args.order)
        rows = [row + [m, e] for row, m, e in zip(rows, reps.mean(axis=0), spread)]
        header += ["kappa_hat_n", "kappa_hat_spread"]
    sys.stdout.write(_csv_text(header, rows))
    return 0


def cmd_run(args) -> int:
    cfg = ExperimentConfig.from_file(args.config)
    out_dir = args.out or cfg.output or "."
    _check_out_dir(out_dir)
    rows, se_rows, n_ok, n_div = run_experiment(cfg)
    _write_outputs(cfg, out_dir, rows, se_rows, n_ok, n_div)
    sys.stdout.write(_csv_text(None, rows))
    if n_div:
        print(f"warning: {n_div} seed(s) excluded after numerical failure",
              file=sys.stderr)
    return 0


def cmd_se(args) -> int:
    cfg = ExperimentConfig.from_file(args.config)
    if args.out:
        _check_out_dir(args.out)
    _, se_rows = compute_se(cfg)
    header = ["t", "mse_se_pred" if cfg.spiked else "r2_se_pred"]
    if args.out:
        _write_csv(os.path.join(args.out, "se.csv"), header, se_rows)
    sys.stdout.write(_csv_text(header, se_rows))
    return 0


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

def _check(name, observed, tol):
    return {"name": name, "observed": float(observed), "tolerance": float(tol),
            "passed": bool(observed <= tol)}


def _suite_cumulants():
    checks = []
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        kap = rng.uniform(-1.0, 1.0, size=8)
        mom = cumulants_to_moments_nc(kap)
        back = moments_to_cumulants(mom).cumulants
        worst = max(worst, float(np.max(np.abs(np.array(back) - kap))))
    checks.append(_check("moment-cumulant roundtrip (order 8, 100 draws)", worst, 1e-10))
    sc = cumulants_from_law(Semicircle(), 6).cumulants
    checks.append(_check("semicircle cumulants = (0,1,0,0,0,0)",
                         np.max(np.abs(np.array(sc) - np.eye(6)[1])), 1e-12))
    mp = MarchenkoPastur(alpha=0.2)
    kmp = cumulants_from_law(mp, 6).cumulants
    checks.append(_check("MP(0.2) cumulants = alpha^(n-1)",
                         np.max(np.abs(np.array(kmp) - 0.2 ** np.arange(6))), 1e-9))
    for law, lname in ((Semicircle(), "semicircle"), (mp, "mp(0.2)")):
        pm = partial_moments(law, 4)
        qfam = build_poly_family(law, "Q", 4)
        worst = 0.0
        for k in range(1, 5):
            for j in range(0, 5):
                rhs = law.expect(lambda x, k=k, j=j: x ** k * qfam.evaluate(j, x))
                worst = max(worst, abs(pm[k, j] - rhs))
        checks.append(_check(f"partial moments match E[L^k Q_j] ({lname})", worst, 1e-9))
    return checks


def _closed_form_rows(run):
    """The paper's Onsager matrix sum_i c_i Phi^{i-1} of RI-AMP, template "u"
    (c the free cumulants of the debias law, from its moments), or of
    RI-AMP-DF, template "ubar" (c the centering constants of the law's H
    family)."""
    law, T = run.debias_law, run.T
    c = (moments_to_cumulants(law.moments(T)).cumulants if run.template == "u"
         else build_poly_family(law, "H", T).centering)
    return ri_amp_debias(c, run.phi[:T, :T])


def _suite_unfolding():
    """Every variant unfolds and is trace-free; the trace-free rows of RI-AMP
    and RI-AMP-DF are the paper's closed-form Onsager matrices."""
    checks = []
    N, T = 300, 4
    sc, mp, f = Semicircle(), MarchenkoPastur(alpha=0.3), mp_denoise_fn(1.2, 0.3)
    # (variant, law, runner, seed base, denoiser seed stride, closed-form series)
    cases = (("ri-amp", sc, run_ri_amp, 1, 7, "free-cumulant"),
             ("ri-amp-df", sc, run_ri_amp_df, 1, 7, "H-family"),
             ("ri-amp-mp", mp, lambda M, law, *a, **k: run_ri_amp_mp(M, law, f, *a, **k), 2, 11,
              None),
             ("oamp", mp, lambda M, law, dens, u1, T, mode: run_oamp(M, [f] * T, dens, u1, T),
              3, 13, None))
    for variant, law, runner, base, stride, series in cases:
        grid = law.quantile_grid(N).atoms
        worst_rec = worst_tr = worst_rows = 0.0
        for s in range(3):
            ens = build_rot_invariant(grid, seed=10 * base + s)
            u1 = np.random.default_rng(100 * base + s).choice([-1.0, 1.0], size=N)
            dens = [random_lipschitz_denoiser(t, seed=stride * s + t) for t in range(1, T + 1)]
            run = runner(ens, law, dens, u1, T, mode="grid")
            rep = verify_unfolding(run)
            worst_rec = max(worst_rec, rep.max_error)
            worst_tr = max(worst_tr, float(np.max(rep.trace_residuals)))
            if series:
                worst_rows = max(worst_rows,
                                 float(np.max(np.abs(run.debias - _closed_form_rows(run)))))
        checks.append(_check(f"{variant} unfolding reconstruction", worst_rec, 1e-8))
        checks.append(_check(f"{variant} trace residuals", worst_tr, 1e-9))
        if series:
            checks.append(_check(f"{variant} Onsager rows = {series} series", worst_rows, 1e-12))
    return checks


def _suite_se_equivalence():
    checks = []
    law = Semicircle()
    kappa = [float(k) for k in cumulants_from_law(law, 10).cumulants]
    _, gram, _, _ = _family_gram(law, "Q", 5)
    rng = np.random.default_rng(5)
    worst_sig = worst_cpl = 0.0
    for _ in range(50):
        t = int(rng.integers(1, 6))
        Phi = np.tril(rng.uniform(-1.0, 1.0, size=(t, t)), k=-1)
        A = rng.uniform(-1.0, 1.0, size=(t, t))
        DeltaBar = A @ A.T / t + np.eye(t)
        Sigma = theorem_sigma(gram[:t, :t], Phi, DeltaBar)
        Delta = DeltaBar + Phi @ Sigma @ Phi.T
        Sigma2 = fan_se_form(kappa, Phi, Delta)
        worst_sig = max(worst_sig, float(np.max(np.abs(Sigma - Sigma2))))
        Delta2 = DeltaBar + Phi @ Sigma2 @ Phi.T
        worst_cpl = max(worst_cpl, float(np.max(np.abs(Delta - Delta2))))
    checks.append(_check("covariance forms agree (50 draws, t<=5)", worst_sig, 1e-8))
    checks.append(_check("coupling consistency", worst_cpl, 1e-9))
    return checks


def _suite_orthogonality():
    """Pairwise orthogonality |u_s^T ubar_t|/N averaged over seeds (tanh
    denoisers), plus exactness of the divergence-free construction."""
    checks = []
    law = Semicircle()
    N, T, seeds = 2000, 4, 5
    acc = None
    worst_div = 0.0
    grid = law.quantile_grid(N).atoms
    for s in range(seeds):
        ens = build_rot_invariant(grid, seed=40 + s)
        rng = np.random.default_rng(400 + s)
        u1 = rng.choice([-1.0, 1.0], size=N)
        dens = [tanh_denoiser(t) for t in range(1, T + 1)]
        run = run_ri_amp(ens, law, dens, u1, T, mode="grid")
        res = np.abs(orthogonality_residuals(run))
        acc = res if acc is None else acc + res
        worst_div = max(worst_div, ubar_divergences(run))
    checks.append(_check(f"pairwise orthogonality (N={N}, {seeds}-seed average)",
                         float(np.max(acc / seeds)), 0.05))
    checks.append(_check("divergence-free residual divergences", worst_div, 1e-10))
    return checks


_SUITES = {
    "cumulants": _suite_cumulants,
    "unfolding": _suite_unfolding,
    "se-equivalence": _suite_se_equivalence,
    "orthogonality": _suite_orthogonality,
}


def cmd_verify(args) -> int:
    if args.suite == "all":
        names = list(_SUITES)
    elif args.suite in _SUITES:
        names = [args.suite]
    else:
        raise ValidationError(
            f"unknown suite {args.suite!r}; choose from {list(_SUITES) + ['all']}")
    report = {"suites": {}, "passed": True}
    for name in names:
        checks = _SUITES[name]()
        report["suites"][name] = checks
        if not all(c["passed"] for c in checks):
            report["passed"] = False
    print(json.dumps(report, indent=2))
    return 0 if report["passed"] else 3


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # map usage errors onto the validation exit code
        raise ValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="amp-lab",
                description="Free cumulants, rotationally-invariant AMP, and "
                            "state-evolution experiments.")
    sub = p.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("cumulants", help="moment/free-cumulant table for a law")
    pc.add_argument("--law", required=True, help="e.g. semicircle, mp:alpha=0.2, "
                                                 "point:c=1.5, file:path")
    pc.add_argument("--order", type=int, required=True)
    pc.add_argument("--mc", action="store_true", help="add Monte Carlo estimates")
    pc.add_argument("--dim", type=int, default=2000, help="matrix size for --mc")
    pc.add_argument("--seed", type=int, default=0)
    pc.add_argument("--replicas", type=int, default=5)
    pc.set_defaults(fn=cmd_cumulants)

    pr = sub.add_parser("run", help="run the configured experiment")
    pr.add_argument("--config", required=True)
    pr.add_argument("--out", default=None, help="output directory")
    pr.set_defaults(fn=cmd_run)

    ps = sub.add_parser("se", help="state-evolution predictions only")
    ps.add_argument("--config", required=True)
    ps.add_argument("--out", default=None)
    ps.set_defaults(fn=cmd_se)

    pv = sub.add_parser("verify", help="run a pinned verification suite")
    pv.add_argument("--suite", required=True,
                    help="cumulants | unfolding | se-equivalence | orthogonality | all")
    pv.set_defaults(fn=cmd_verify)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        with np.errstate(**_ERRSTATE):
            return args.fn(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except AmpLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
