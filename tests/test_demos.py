"""Every demo script and the README's Python quick start run to completion
against the package namespace; the shell demos through an `amp-lab` command
that runs the CLI module."""

import glob
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))
SHELL_DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.sh")))


def _env() -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               AMP_LAB_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    return env


@pytest.mark.parametrize("demo", DEMOS, ids=os.path.basename)
def test_demo_runs(demo, tmp_path):
    proc = subprocess.run([sys.executable, demo], cwd=tmp_path, env=_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_readme_python_quick_start_runs(tmp_path):
    with open(os.path.join(ROOT, "README.md")) as fh:
        blocks = re.findall(r"^```python\n(.*?)^```", fh.read(), re.M | re.S)
    assert blocks
    script = tmp_path / "quick_start.py"
    script.write_text("\n".join(blocks))
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("demo", SHELL_DEMOS, ids=os.path.basename)
def test_shell_demo_runs(demo, tmp_path):
    # the `amp-lab` entry point an install provides, as a shim on PATH
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    shim = bin_dir / "amp-lab"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m amp_lab.cli "$@"\n')
    shim.chmod(0o755)
    env = _env()
    env["PATH"] = os.pathsep.join((str(bin_dir), env.get("PATH", "")))
    proc = subprocess.run(["sh", demo], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
