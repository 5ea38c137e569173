"""The benchmark's unfolding-exact library session, at a small size, passes
the benchmark's own gates on every row it reports."""

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


def test_unfolding_session_passes_its_gates_at_n64(tmp_path, monkeypatch):
    session = {"N": 64, "T": 10, "seeds_per_law": 2, "seed": 3}
    (tmp_path / "session.json").write_text(json.dumps(session))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, os.path.join(PERFBENCH, "child.py"), "session",
                           "--inputs", str(tmp_path), "--out", str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = (tmp_path / "unfolding.csv").read_bytes()
    rows = report.decode().splitlines()[1:]
    # two laws, each seed runs RI-AMP, RI-AMP-DF and RI-AMP-MP
    assert len(rows) == 2 * session["seeds_per_law"] * 3
    found = _checks_module(monkeypatch).unfolding_report_checks(report)
    assert len(found) == 3 * len(rows)
    failed = [f"{c.name}: {c.detail}" for c in found if not c.passed]
    assert not failed, failed
