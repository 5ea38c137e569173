"""Programs the benchmark runs in fresh child processes.

    python3 perfbench/child.py setup   --workload W --inputs DIR
    python3 perfbench/child.py session --inputs DIR --out DIR [--spans FILE]
    python3 perfbench/child.py cli     [--spans FILE] -- AMP-LAB-ARGS...

`setup` imports amp_lab, resolves the workload's inputs (config, law spec
with any law file, quantile grid, matrix function, denoiser factory) and
prints the seconds that took.  It stops before SE or sampling.

`session` is the unfolding-exact workload: a library session that runs
RI-AMP, RI-AMP-DF and RI-AMP-MP on semicircle and MP(0.3) quantile grids
and verifies every run.

`cli` runs `amp_lab.cli.main(AMP-LAB-ARGS)` in this process, the same
code as `python -m amp_lab.cli AMP-LAB-ARGS`.

With --spans, the module attributes through which amp_lab's layers call
one another (LAYER_CALLS) are wrapped with spans before the workload
starts, so the program's own code is timed, not a copy of it.  Code inside
a wrapped function is not touched, so `freeprob` and `denoisers` time is
counted in the `engines` and `se` spans that call them.  Only the standard
library is imported before the timed `import amp_lab`.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import importlib
import itertools
import json
import os
import resource
import sys
import threading
import time


class Tracer:
    """In-memory spans (id, parent, name, start, end) and counts."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self.values: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append({"id": sid, "parent": parent, "name": name,
                                   "start": start, "end": end})

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    def record(self, name: str, value: float) -> None:
        with self._lock:
            self.values[name] = value

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts,
                       "values": self.values}, fh)


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _fmt(x) -> str:
    return "{:.17g}".format(float(x))


# (module, attribute, span): each call through that attribute is one span.
# cli, se and the session call the same function through their own module
# globals, so each binding is wrapped.
LAYER_CALLS = (
    ("cli", "ExperimentConfig.from_file", "cli.config"),
    ("cli", "resolve_matrix_fn", "cli.config"),
    ("cli", "resolve_denoiser_factory", "cli.config"),
    ("cli", "parse_law_spec", "laws.parse"),
    ("laws", "parse_law_spec", "laws.parse"),
    ("laws", "SpectralLaw.quantile_grid", "laws.quantile_grid"),
    ("laws", "DiscreteGrid.quantile_grid", "laws.quantile_grid"),
    ("cli", "spiked_se", "se.spiked_se"),
    ("se", "nu_measure", "se.nu_measure"),
    ("cli", "build_rot_invariant", "randmat.haar"),
    ("se", "build_rot_invariant", "randmat.haar"),
    ("randmat", "build_rot_invariant", "randmat.haar"),
    ("engines", "as_operator", "engines.decompose"),
    ("cli", "run_ri_amp", "engines.run"),
    ("cli", "run_ri_amp_df", "engines.run"),
    ("cli", "run_ri_amp_mp", "engines.run"),
    ("engines", "run_ri_amp", "engines.run"),
    ("engines", "run_ri_amp_df", "engines.run"),
    ("engines", "run_ri_amp_mp", "engines.run"),
    ("engines", "verify_unfolding", "engines.verify"),
    ("engines", "ubar_divergences", "engines.verify"),
)


def _after(tr: Tracer, attr: str, span: str, result) -> None:
    """Counts and values taken when a wrapped call returns."""
    if span == "randmat.haar":
        tr.count("randmat.haar_calls")
    elif span == "engines.run":
        tr.count("engines.steps", result.T)
    elif attr == "verify_unfolding":
        tr.count("engines.verify_calls")
    elif span == "se.spiked_se":
        tr.record("se.rss_hwm_mb", _maxrss_mb())


def install_spans(tr: Tracer) -> None:
    """Wrap every LAYER_CALLS attribute of amp_lab with a span."""
    for module_name, attr, span in LAYER_CALLS:
        owner = importlib.import_module("amp_lab." + module_name)
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        orig = getattr(owner, name)

        @functools.wraps(orig)
        def timed(*args, _orig=orig, _name=name, _span=span, **kwargs):
            with tr.span(_span):
                result = _orig(*args, **kwargs)
            _after(tr, _name, _span, result)
            return result

        # a classmethod is read back bound to its class; store it unbound
        if isinstance(vars(owner).get(name), classmethod):
            timed = staticmethod(timed)
        setattr(owner, name, timed)


# ---------------------------------------------------------------------------
# setup probe
# ---------------------------------------------------------------------------

def setup_probe(workload: str, inputs: str) -> float:
    start = time.perf_counter()
    from amp_lab.cli import ExperimentConfig, resolve_denoiser_factory, resolve_matrix_fn
    from amp_lab.laws import parse_law_spec
    if workload == "unfolding-exact":
        from amp_lab.denoisers import random_lipschitz_denoiser
        spec = _load_json(os.path.join(inputs, "session.json"))
        for law_spec in SESSION_LAWS:
            parse_law_spec(law_spec).quantile_grid(spec["N"])
            _session_f(law_spec)
        for t in range(1, spec["T"] + 1):
            random_lipschitz_denoiser(t, seed=t)
    else:
        cfg = ExperimentConfig.from_file(os.path.join(inputs, "config.json"))
        law = parse_law_spec(cfg.law)
        law.quantile_grid(cfg.N)
        resolve_matrix_fn(cfg.matrix_fn, law, cfg.theta)
        resolve_denoiser_factory(cfg.denoiser, cfg.spiked)
    return time.perf_counter() - start


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# the unfolding-exact library session
# ---------------------------------------------------------------------------

SESSION_LAWS = ("semicircle", "mp:alpha=0.3")
SESSION_REPORT_HEADER = ["law", "seed", "variant", "recon_error", "trace_residual",
                         "ubar_divergence", "r_sha256"]


def _session_f(law_spec: str):
    """Matrix function of RI-AMP-MP on each law: x + 0.3 x^2 on the
    semicircle (acceptance 5), the MP shrinker with theta=1.2 on MP(0.3)
    (the CLI's unfolding suite)."""
    from amp_lab.se import mp_denoise_fn
    if law_spec == "semicircle":
        return lambda x: x + 0.3 * x ** 2
    return mp_denoise_fn(1.2, 0.3)


def session(inputs: str, out: str) -> None:
    import numpy as np
    from amp_lab.denoisers import random_lipschitz_denoiser
    from amp_lab.engines import (run_ri_amp, run_ri_amp_df, run_ri_amp_mp,
                                 ubar_divergences, verify_unfolding)
    from amp_lab.laws import parse_law_spec
    from amp_lab.randmat import build_rot_invariant

    spec = _load_json(os.path.join(inputs, "session.json"))
    N, T, base = spec["N"], spec["T"], 1000 * spec["seed"]
    lines = [",".join(SESSION_REPORT_HEADER)]
    for li, law_spec in enumerate(SESSION_LAWS):
        law = parse_law_spec(law_spec)
        grid = law.quantile_grid(N).atoms
        f = _session_f(law_spec)
        for s in range(spec["seeds_per_law"]):
            seed = base + 100 * li + 20 * s
            ens = build_rot_invariant(grid, seed=seed)
            u1 = np.random.default_rng(seed + 1).choice([-1.0, 1.0], size=N)
            dens = [random_lipschitz_denoiser(t, seed=seed + 1 + t) for t in range(1, T + 1)]
            variants = (("ri-amp", lambda: run_ri_amp(ens, law, dens, u1, T, mode="grid")),
                        ("ri-amp-df", lambda: run_ri_amp_df(ens, law, dens, u1, T, mode="grid")),
                        ("ri-amp-mp", lambda: run_ri_amp_mp(ens, law, f, dens, u1, T,
                                                            mode="grid")))
            for name, call in variants:
                run = call()
                rep = verify_unfolding(run)
                div = ubar_divergences(run)
                digest = hashlib.sha256(b"".join(r.tobytes() for r in run.r)).hexdigest()
                lines.append(",".join([law_spec, str(s), name, _fmt(rep.max_error),
                                       _fmt(np.max(rep.trace_residuals)), _fmt(div), digest]))
    with open(os.path.join(out, "unfolding.csv"), "w") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    cut = argv.index("--") if "--" in argv else len(argv)
    p = argparse.ArgumentParser(prog="child.py")
    p.add_argument("mode", choices=("setup", "session", "cli"))
    p.add_argument("--workload", default="unfolding-exact")
    p.add_argument("--inputs")
    p.add_argument("--out")
    p.add_argument("--spans")
    args = p.parse_args(argv[:cut])
    if args.mode == "setup":
        print(repr(setup_probe(args.workload, args.inputs)))
        return 0
    tr = Tracer()
    with tr.span("import"):
        import amp_lab  # noqa: F401
    if args.spans:
        install_spans(tr)
    if args.mode == "session":
        session(args.inputs, args.out)
        rc = 0
    else:
        from amp_lab.cli import main as amp_lab_main
        rc = amp_lab_main(argv[cut + 1:])
    if args.spans:
        tr.dump(args.spans)
    return rc


if __name__ == "__main__":
    sys.exit(main())
