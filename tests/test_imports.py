"""Import footprint: numpy is the only heavy dependency that `import amp_lab`,
the non-spiked paths, verification, spiked runs and spiked SE load, and
none of them loads numpy.polynomial or concurrent.futures; scipy.linalg
(for LAPACK dlasd4) loads only when the secular solver runs, for the
overlap measure or `nu_measure`.  A run's seed threads include the main
one.  Every name the benchmark and the demos import from amp_lab, and every
attribute the benchmark's tracer wraps, exists."""

import ast
import glob
import importlib
import json
import os
import subprocess
import sys
import threading

import pytest

import amp_lab
from amp_lab.cli import main

SRC = os.path.dirname(os.path.dirname(os.path.abspath(amp_lab.__file__)))
# modules no amp_lab path needs (scipy only for the secular solver)
UNNEEDED = ("scipy", "numpy.polynomial", "concurrent.futures")
# the loaded modules under any UNNEEDED prefix, as an expression in a child
LOADED = (f"sorted(m for m in sys.modules if any(m == p or m.startswith(p + '.') "
          f"for p in {UNNEEDED!r}))")


def _modules(code: str, *args: str) -> set:
    """The modules under any UNNEEDED prefix loaded after running `code` in a
    fresh interpreter."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               AMP_LAB_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c",
                           f"import json, sys\n{code}\nprint(json.dumps({LOADED}))", *args],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.strip().splitlines()[-1]))


def _write_config(tmp_path, **cfg) -> str:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_import_loads_no_scipy():
    assert _modules("import amp_lab, amp_lab.cli") == set()


def test_nonspiked_run_and_verification_load_no_scipy(tmp_path):
    cfg = _write_config(tmp_path, law="mp:alpha=0.3", N=64, T=2, algo="ri-amp",
                        denoiser="tanh", runs=1)
    code = """
import numpy as np
from amp_lab.cli import main
from amp_lab.denoisers import tanh_denoiser
from amp_lab.engines import run_ri_amp, verify_unfolding
from amp_lab.laws import Semicircle
from amp_lab.randmat import build_rot_invariant
assert main(["run", "--config", sys.argv[1], "--out", sys.argv[2]]) == 0
assert main(["verify", "--suite", "all"]) == 0
law = Semicircle()
ens = build_rot_invariant(law.quantile_grid(64).atoms, seed=1)
u1 = np.random.default_rng(2).choice([-1.0, 1.0], size=64)
run = run_ri_amp(ens, law, [tanh_denoiser(t) for t in (1, 2)], u1, 2, mode="grid")
assert verify_unfolding(run).max_error < 1e-8
"""
    assert _modules(code, cfg, str(tmp_path / "out")) == set()


def test_spiked_run_loads_no_scipy(tmp_path):
    cfg = _write_config(tmp_path, law="mp:alpha=0.2", N=64, T=2, theta=1.5, omega=0.3,
                        algo="ri-amp-mp", denoiser="linear-mmse-combining",
                        matrix_fn="mp-denoise", runs=1)
    code = """
from amp_lab.cli import main
assert main(["run", "--config", sys.argv[1], "--out", sys.argv[2]]) == 0
"""
    assert _modules(code, cfg, str(tmp_path / "out")) == set()


def test_scipy_loads_only_for_the_secular_solver(tmp_path):
    # a spiked library run, its verification and a spiked `amp-lab se` on a
    # one-column file: atom law load no unneeded module; nu_measure, through
    # the secular solver, loads scipy.linalg (which itself imports
    # numpy.polynomial and concurrent.futures)
    law_file = tmp_path / "atoms.txt"
    law_file.write_text("\n".join(str(0.4 + 0.002 * i) for i in range(800)) + "\n")
    cfg = _write_config(tmp_path, law=f"file:{law_file}", N=800, T=3, theta=1.5, omega=0.3,
                        algo="ri-amp", denoiser="linear-mmse-combining", runs=1)
    code = """
import numpy as np
from amp_lab.cli import main
from amp_lab.denoisers import tanh_denoiser
from amp_lab.engines import run_ri_amp_mp, verify_unfolding
from amp_lab.laws import MarchenkoPastur
from amp_lab.randmat import build_rot_invariant, build_spiked, make_prior
from amp_lab.se import mp_denoise_fn, nu_measure
law = MarchenkoPastur(alpha=0.2)
ens = build_rot_invariant(law.quantile_grid(64).atoms, seed=1)
Y, x = build_spiked(1.5, make_prior("rademacher"), ens, seed=2)
run = run_ri_amp_mp(Y, law, mp_denoise_fn(1.5, 0.2), [tanh_denoiser(t) for t in (1, 2)],
                    x, 2, mode="grid")
assert verify_unfolding(run).max_error < 1e-8
assert main(["se", "--config", sys.argv[1]]) == 0
assert not """ + LOADED + """
nu_measure(law.quantile_grid(64), 1.5)
"""
    mods = _modules(code, cfg)
    assert "scipy.linalg" in mods
    assert not mods & {"scipy.integrate", "scipy.special", "scipy.optimize"}


def test_a_two_seed_run_on_two_workers_starts_one_thread(tmp_path, monkeypatch):
    # the main thread runs seeds too, so it starts workers - 1 helpers
    cfg = _write_config(tmp_path, law="mp:alpha=0.2", N=64, T=2, theta=1.5, omega=0.3,
                        algo="ri-amp-mp", denoiser="linear-mmse-combining",
                        matrix_fn="mp-denoise", runs=2, mc_samples=1000)
    started, start = [], threading.Thread.start

    def counted(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setenv("AMP_LAB_THREADS", "2")
    monkeypatch.setattr(threading.Thread, "start", counted)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert len(started) == 1


def _amp_lab_imports(path: str) -> list:
    """(module, name) for each name `path` imports from amp_lab or a submodule."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), filename=path)
    return [(node.module, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module
            and node.module.split(".")[0] == "amp_lab" for alias in node.names]


def _layer_calls(path: str) -> list:
    """(module, dotted attribute) for each entry of the LAYER_CALLS tuple in
    `path`: the amp_lab callables a traced benchmark run wraps by name."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), filename=path)
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "LAYER_CALLS" for t in node.targets):
            return [("amp_lab." + mod, attr) for mod, attr, _ in ast.literal_eval(node.value)]
    return []


def _resolves(module: str, dotted: str) -> bool:
    obj = importlib.import_module(module)
    for part in dotted.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


@pytest.mark.parametrize("folder", ["perfbench", "demos"])
def test_names_imported_from_amp_lab_resolve(folder):
    # in perfbench, also every attribute the tracer wraps (child.py's
    # LAYER_CALLS): a renamed one would crash a traced benchmark run
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    files = sorted(glob.glob(os.path.join(root, folder, "*.py")))
    pairs = [pair for path in files for pair in _amp_lab_imports(path)]
    assert pairs, f"no amp_lab imports found under {folder}/"
    if folder == "perfbench":
        layer_calls = _layer_calls(os.path.join(root, folder, "child.py"))
        assert layer_calls, "no LAYER_CALLS found in perfbench/child.py"
        pairs += layer_calls
    missing = [f"{mod}.{name}" for mod, name in pairs if not _resolves(mod, name)]
    assert not missing, missing
