"""Each correctness check of the benchmark fails on corrupted output.

    python3 -m pytest -q perfbench/test_checks.py

Valid outputs come from the program itself at a small size; each test
corrupts one thing and asserts that the check guarding it fails while it
passed on the valid output.
"""

import dataclasses
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
from amp_lab import build_rot_invariant, random_lipschitz_denoiser, run_ri_amp_mp  # noqa: E402
from amp_lab.cli import main as amp_lab_main  # noqa: E402
from amp_lab.engines import ubar_divergences, verify_unfolding  # noqa: E402
from amp_lab.laws import MarchenkoPastur  # noqa: E402
from amp_lab.se import mp_denoise_fn  # noqa: E402

RUNS, N = 4, 400


def _by_name(found):
    return {c.name: c.passed for c in found}


@pytest.fixture(scope="module")
def spiked_out(tmp_path_factory):
    d = tmp_path_factory.mktemp("spiked")
    cfg = {"law": "mp:alpha=0.2", "N": N, "T": 4, "theta": 1.5, "omega": 0.3,
           "runs": RUNS, "algo": "ri-amp-mp", "denoiser": "linear-mmse-combining",
           "matrix_fn": "mp-denoise", "mc_samples": 50_000}
    (d / "config.json").write_text(json.dumps(cfg))
    assert amp_lab_main(["run", "--config", str(d / "config.json"), "--out", str(d)]) == 0
    return {name: (d / name).read_bytes() for name in ("mse.csv", "se.csv", "meta.json")}


def _spiked(files, mse=None, se=None, meta=None):
    meta = meta if meta is not None else json.loads(files["meta.json"])
    return _by_name(checks.spiked_run_checks(mse or files["mse.csv"], se or files["se.csv"],
                                             meta, RUNS, N))


def _change_digit(data: bytes, row: int, col: int) -> bytes:
    lines = data.decode().split("\n")
    cells = lines[row].split(",")
    head, _, tail = cells[col].partition("e")
    last = head[-1]
    cells[col] = head[:-1] + ("1" if last != "1" else "2") + (("e" + tail) if tail else "")
    lines[row] = ",".join(cells)
    return "\n".join(lines).encode()


def test_valid_output_passes(spiked_out):
    found = _spiked(spiked_out)
    for name in ("meta_seeds", "content_hash", "se_csv_equals_prediction",
                 "prediction_nonincreasing"):
        assert found[name], name


def test_changed_csv_digit_fails_content_hash(spiked_out):
    bad = _change_digit(spiked_out["mse.csv"], row=2, col=1)
    assert bad != spiked_out["mse.csv"]
    assert not _spiked(spiked_out, mse=bad)["content_hash"]


def test_changed_prediction_digit_fails_se_equality(spiked_out):
    bad = _change_digit(spiked_out["mse.csv"], row=3, col=3)
    found = _spiked(spiked_out, mse=bad)
    assert not found["se_csv_equals_prediction"]
    assert not found["content_hash"]


def test_wrong_content_hash_fails(spiked_out):
    meta = json.loads(spiked_out["meta.json"])
    meta["content_hash"] = "0" * 64
    assert not _spiked(spiked_out, meta=meta)["content_hash"]


def test_nonzero_seeds_divergent_fails(spiked_out):
    meta = json.loads(spiked_out["meta.json"])
    meta["seeds_divergent"] = 1
    assert not _spiked(spiked_out, meta=meta)["meta_seeds"]


def test_increasing_prediction_fails(spiked_out):
    header, rows = checks.parse_csv(spiked_out["mse.csv"])
    col = header.index("mse_se_pred")
    rows[-1][col] = repr(float(rows[0][col]) * 2.0)
    bad = ("\n".join([",".join(header)] + [",".join(r) for r in rows]) + "\n").encode()
    assert not _spiked(spiked_out, mse=bad)["prediction_nonincreasing"]


def test_perturbed_debias_row_fails_unfolding():
    law = MarchenkoPastur(alpha=0.3)
    T, n = 4, 200
    ens = build_rot_invariant(law.quantile_grid(n).atoms, seed=5)
    u1 = np.random.default_rng(6).choice([-1.0, 1.0], size=n)
    dens = [random_lipschitz_denoiser(t, seed=7 + t) for t in range(1, T + 1)]
    run = run_ri_amp_mp(ens, law, mp_denoise_fn(1.2, 0.3), dens, u1, T, mode="grid")

    def verdict(r):
        rep = verify_unfolding(r)
        return _by_name(checks.unfolding_checks("run", rep.max_error,
                                                float(np.max(rep.trace_residuals)),
                                                ubar_divergences(r)))

    assert all(verdict(run).values())
    debias = run.debias.copy()
    debias[2, 1] += 1e-3
    assert not verdict(dataclasses.replace(run, debias=debias))["run/reconstruction"]


class _Crash(run.Workload):
    """A workload whose process always exits 3."""

    name = "crash"
    ops = {"seeds": 2}

    def write_inputs(self):
        pass

    def argv(self, out):
        return [sys.executable, "-c", "import sys; sys.exit(3)"]


def test_nonzero_exit_fails_run(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "setup_times", lambda *args: [1.0])
    tally, metrics = run.untraced(_Crash(0, str(tmp_path)), str(tmp_path), seconds=0.0)
    assert not tally.correct
    assert tally.failed == tally.attempted == {"seeds": 2}
    assert metrics == {}  # no timing is taken from a failed process
