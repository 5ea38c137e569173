"""The benchmark's unfolding-exact library session, at a small size, passes
the benchmark's own gates on every row it reports, and a traced CLI run
finds every layer call the tracer wraps."""

import importlib.util
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def _checks_module(monkeypatch):
    """perfbench/checks.py, loaded under a name of its own."""
    spec = importlib.util.spec_from_file_location("perfbench_checks",
                                                  os.path.join(PERFBENCH, "checks.py"))
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def _child(*args):
    """perfbench/child.py with `args`, on one BLAS thread, importing src/."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, os.path.join(PERFBENCH, "child.py"), *args],
                          env=env, capture_output=True, text=True, timeout=300)


def test_unfolding_session_passes_its_gates_at_n64(tmp_path, monkeypatch):
    session = {"N": 64, "T": 10, "seeds_per_law": 2, "seed": 3}
    (tmp_path / "session.json").write_text(json.dumps(session))
    proc = _child("session", "--inputs", str(tmp_path), "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    report = (tmp_path / "unfolding.csv").read_bytes()
    rows = report.decode().splitlines()[1:]
    # two laws, each seed runs RI-AMP, RI-AMP-DF and RI-AMP-MP
    assert len(rows) == 2 * session["seeds_per_law"] * 3
    found = _checks_module(monkeypatch).unfolding_report_checks(report)
    assert len(found) == 3 * len(rows)
    failed = [f"{c.name}: {c.detail}" for c in found if not c.passed]
    assert not failed, failed


def test_traced_cli_run_finds_every_layer_call(tmp_path):
    # --spans wraps every LAYER_CALLS attribute by name before the run, so a
    # renamed or deleted one fails here instead of in a traced benchmark run
    cfg = {"law": "mp:alpha=0.2", "N": 64, "T": 2, "theta": 1.5, "omega": 0.3,
           "algo": "ri-amp-mp", "denoiser": "linear-mmse-combining",
           "matrix_fn": "mp-denoise"}
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    spans = tmp_path / "spans.json"
    proc = _child("cli", "--spans", str(spans), "--",
                  "se", "--config", str(tmp_path / "config.json"))
    assert proc.returncode == 0, proc.stderr
    names = {s["name"] for s in json.loads(spans.read_text())["spans"]}
    assert "se.spiked_se" in names
