"""CLI harness: config parsing, subcommands, exit codes, determinism."""

import contextlib
import io
import json
import math
import os
import re
import sys
import tempfile
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amp_lab import cli
from amp_lab.cli import (
    _CONFIG_FIELDS,
    ExperimentConfig,
    compute_se,
    main,
    resolve_denoiser_factory,
    resolve_matrix_fn,
    run_experiment,
)
from amp_lab.denoisers import tanh_denoiser
from amp_lab.engines import HORIZON_CAP
from amp_lab.errors import ValidationError
from amp_lab.laws import SUPPORT_CAP, MarchenkoPastur, Semicircle, SpectralLaw, parse_law_spec
from amp_lab.randmat import LazyHaarRotation, RationalFn, make_prior, parse_prior_spec
from amp_lab import se
from amp_lab.se import SeInit, spiked_se


BASE = {"law": "mp:alpha=0.2", "N": 200, "T": 3, "theta": 1.5, "omega": 0.3,
        "runs": 2, "seed_base": 1, "algo": "ri-amp-mp",
        "denoiser": "linear-mmse-combining", "matrix_fn": "mp-denoise",
        "mc_samples": 50_000}

_SE_CFG = {"law": "semicircle", "N": 64, "T": 2, "algo": "ri-amp", "denoiser": "tanh"}
_MP_CFG = {**_SE_CFG, "law": "mp:alpha=0.3", "algo": "ri-amp-mp"}


def _cfg(**over):
    d = dict(BASE)
    d.update(over)
    return ExperimentConfig.from_dict(d)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_config_rejects_unknown_keys():
    with pytest.raises(ValidationError, match="unknown config keys"):
        ExperimentConfig.from_dict({**BASE, "bogus": 1})


def test_config_requires_core_keys():
    with pytest.raises(ValidationError, match="missing"):
        ExperimentConfig.from_dict({"law": "semicircle", "N": 100})


@pytest.mark.parametrize("bad", [
    {"N": 8}, {"runs": 0}, {"omega": 1.5}, {"theta": -1.0},
    {"algo": "vamp"}, {"omega": None},
])
def test_config_validation(bad):
    with pytest.raises(ValidationError):
        _cfg(**bad)


@pytest.mark.parametrize("bad", [
    {"N": 100.7}, {"runs": True}, {"seed_base": 1.9}, {"T": 2.5}, {"N": False},
    {"mc_samples": 1000.5}, {"mc_samples": 1}, {"seed_base": -1}, {"T": None},
    {"N": float("inf")}, {"theta": float("nan")}, {"theta": True},
    {"T": HORIZON_CAP + 1},
])
def test_config_rejects_non_integral_and_out_of_range_values(bad):
    with pytest.raises(ValidationError):
        _cfg(**bad)


def test_config_accepts_integral_floats():
    cfg = _cfg(N=200.0, runs=3.0)
    assert (cfg.N, cfg.runs) == (200, 3)
    assert type(cfg.N) is int and type(cfg.runs) is int


@pytest.mark.parametrize("bad,kind", [
    ({"N": "2000"}, "number"), ({"theta": "1.5"}, "number"), ({"runs": "2"}, "number"),
    ({"output": 5}, "string"), ({"law": 0.2}, "string"), ({"algo": ["ri-amp"]}, "string"),
], ids=["N-string", "theta-string", "runs-string", "output-number", "law-number", "algo-list"])
def test_config_values_of_the_wrong_json_type_exit_1(bad, kind, tmp_path, capsys):
    # a string is not read as a number, nor a number as a string
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({**BASE, **bad}))
    assert main(["se", "--config", str(p)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and f"config key {next(iter(bad))!r} must be a {kind}" in err


@pytest.mark.parametrize("bad", [{"N": 100.7}, {"runs": True}, {"T": HORIZON_CAP + 1}])
def test_bad_config_values_exit_1(bad, tmp_path, capsys):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({**BASE, **bad}))
    assert main(["se", "--config", str(p)]) == 1
    assert capsys.readouterr().out == ""  # rejected before any prediction


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6)
_PLAUSIBLE = st.sampled_from([0, 1, 2, 10, 16, 200, 1.5, 0.3, -1, 2.5, "mp:alpha=0.2",
                              "semicircle", "ri-amp", "tanh", "rademacher", "sparse"])


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.sampled_from(sorted(_CONFIG_FIELDS) + ["bogus"]),
                       _JSON_VALUES | _PLAUSIBLE, max_size=4),
       st.booleans())
def test_from_dict_gives_valid_config_or_validation_error(data, over_base):
    if over_base:
        data = {**BASE, **data}
    try:
        cfg = ExperimentConfig.from_dict(data)
    except ValidationError:
        return
    for key, typ in _CONFIG_FIELDS.items():
        val = getattr(cfg, key)
        assert type(val) is typ or (val is None and key in ("theta", "omega", "output"))
    assert cfg.N >= 16 and 1 <= cfg.T <= HORIZON_CAP and cfg.runs >= 1
    assert cfg.seed_base >= 0 and cfg.mc_samples >= 2


def test_config_rejects_n_beyond_physical_memory(monkeypatch, tmp_path, capsys):
    # a seed holds 8 N 16 (T + 2) bytes for every algo but gaussian-amp
    # (T = 3 here), so 2 seed workers at N=839000 (1.0739e9 bytes) do not
    # fit 1 GiB (1.0737e9) and at N=838000 (1.0726e9 bytes) do, spiked
    # RI-AMP-MP and RI-AMP alike; nothing large is allocated
    monkeypatch.setattr(cli, "_physical_memory_bytes", lambda: 2**30)
    monkeypatch.setenv("AMP_LAB_THREADS", "2")
    nonspiked = dict(theta=None, omega=None, algo="ri-amp", denoiser="tanh",
                     matrix_fn="identity")
    with pytest.raises(ValidationError, match="physical memory"):
        _cfg(N=839000)
    _cfg(N=838000)
    with pytest.raises(ValidationError, match="physical memory"):
        _cfg(N=839000, **nonspiked)
    _cfg(N=838000, **nonspiked)
    monkeypatch.setenv("AMP_LAB_THREADS", "1")
    _cfg(N=1677000)  # 1.0733e9 bytes
    with pytest.raises(ValidationError, match="physical memory"):
        _cfg(N=1678000)  # 1.0739e9 bytes
    # dense GOE: 66 N^2, so one seed at N=4033 (1.07350e9 bytes) fits and at
    # N=4034 (1.07403e9) does not
    goe = dict(theta=None, omega=None, algo="gaussian-amp", denoiser="tanh",
               law="semicircle", matrix_fn="identity")
    _cfg(N=4033, **goe)
    with pytest.raises(ValidationError, match="physical memory"):
        _cfg(N=4034, **goe)
    monkeypatch.setattr(cli, "_physical_memory_bytes", lambda: None)
    _cfg(N=100_000)
    monkeypatch.setattr(cli, "_physical_memory_bytes", lambda: 2**30)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({**BASE, "N": 1_700_000}))
    assert main(["se", "--config", str(p)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "physical memory" in captured.err


def test_a_seed_count_beyond_physical_memory_exits_1_naming_runs(tmp_path, monkeypatch,
                                                                 capsys):
    # a run keeps cli._kept_bytes(T) per seed until it writes, so 10^12
    # seeds of N = 16 do not fit 1 TiB; nothing is allocated for them
    monkeypatch.setattr(cli, "_physical_memory_bytes", lambda: 2**40)
    monkeypatch.setenv("AMP_LAB_THREADS", "1")
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"law": "semicircle", "N": 16, "T": 1, "runs": 10**12,
                             "algo": "ri-amp", "denoiser": "tanh"}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(p), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "runs=1000000000000" in captured.err and "physical memory" in captured.err


@pytest.mark.parametrize("algo,spiked", [("ri-amp", False), ("ri-amp-df", False),
                                         ("gaussian-amp", False), ("ri-amp", True)])
def test_matrix_fn_other_than_identity_exits_1(algo, spiked, tmp_path, capsys):
    # ri-amp, ri-amp-df and gaussian-amp iterate with the matrix itself, so a
    # matrix_fn there is a config error, not a silently ignored key
    cfg = {"law": "semicircle", "N": 200, "T": 3, "algo": algo, "denoiser": "tanh",
           "matrix_fn": "polynomial:0.5,2.0,1.0"}
    if spiked:
        cfg.update(theta=3.0, omega=0.3)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    assert main(["se", "--config", str(p)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "matrix_fn 'polynomial:0.5,2.0,1.0'" in captured.err
    p.write_text(json.dumps({**cfg, "matrix_fn": "identity"}))
    assert main(["se", "--config", str(p)]) == 0


@pytest.mark.parametrize("cmd", ["se", "run"])
@pytest.mark.parametrize("out", ["taken", "taken/sub"])
def test_output_path_that_cannot_be_a_directory_exits_1_before_any_work(
        cmd, out, tmp_path, monkeypatch, capsys):
    # "taken" is a file, so neither it nor a path under it can be a directory
    (tmp_path / "taken").write_text("")
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(_SE_CFG))

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the output path was checked")

    monkeypatch.setattr(cli, "compute_se", no_work)
    monkeypatch.setattr(cli, "run_experiment", no_work)
    assert main([cmd, "--config", str(p), "--out", str(tmp_path / out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: output directory ")
    assert str(tmp_path / out) in captured.err and captured.err.count("\n") == 1


@pytest.mark.parametrize("cmd", ["se", "run"])
def test_gaussian_amp_requires_the_unit_semicircle(cmd, tmp_path, capsys):
    # the runs draw a unit-variance GOE, so a prediction for another law
    # would not describe them
    cfg = {"law": "semicircle:var=4", "N": 400, "T": 3, "runs": 2,
           "algo": "gaussian-amp", "denoiser": "tanh"}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    assert main([cmd, "--config", str(p), "--out", str(tmp_path / "o")]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "unit semicircle" in captured.err
    assert not (tmp_path / "o").exists()
    p.write_text(json.dumps({**cfg, "law": "semicircle:var=1"}))
    assert main([cmd, "--config", str(p), "--out", str(tmp_path / "o")]) == 0


def test_gaussian_amp_se_is_ri_amp_se_under_the_unit_semicircle(tmp_path, capsys):
    # gaussian-amp predicts through the SE core as RI-AMP does; the scalar
    # recursion gaussian_amp_se is the closed-form reference
    T = 6
    csvs = {}
    for algo in ("gaussian-amp", "ri-amp"):
        p = tmp_path / f"{algo}.json"
        p.write_text(json.dumps({"law": "semicircle", "N": 200, "T": T, "algo": algo,
                                 "denoiser": "tanh"}))
        assert main(["se", "--config", str(p), "--out", str(tmp_path / algo)]) == 0
        csvs[algo] = (tmp_path / algo / "se.csv").read_bytes()
    capsys.readouterr()
    assert csvs["gaussian-amp"] == csvs["ri-amp"]
    pred = [float(line.split(",")[1]) for line in csvs["gaussian-amp"].decode().split()[1:]]
    ref = se.gaussian_amp_se([tanh_denoiser(1)] * T, T)
    np.testing.assert_allclose(pred, ref, rtol=1e-13, atol=0)


def test_mmse_denoiser_requires_spiked():
    with pytest.raises(ValidationError):
        ExperimentConfig.from_dict({"law": "semicircle", "N": 100, "T": 2,
                                    "denoiser": "linear-mmse-combining",
                                    "algo": "ri-amp"})


def test_config_from_file_errors(tmp_path):
    p = tmp_path / "c.json"
    p.write_text("{broken")
    with pytest.raises(ValidationError, match="invalid JSON"):
        ExperimentConfig.from_file(str(p))
    with pytest.raises(ValidationError):
        ExperimentConfig.from_file(str(tmp_path / "missing.json"))


# ---------------------------------------------------------------------------
# spec resolvers
# ---------------------------------------------------------------------------

def test_matrix_fn_specs(tmp_path):
    mp = MarchenkoPastur(alpha=0.2)
    ident = resolve_matrix_fn("identity", mp, None)
    assert ident(3.0) == 3.0
    f = resolve_matrix_fn("mp-denoise", mp, 1.5)
    x = np.array([0.5, 1.0])
    expected = (1.5 / 0.2) * (1 + (0.2 - 1) / x) - 1.5**2 / (0.2 * x)
    assert np.allclose(f(x), expected)
    poly = resolve_matrix_fn("polynomial:1,0,2", mp, None)
    assert abs(poly(2.0) - 9.0) < 1e-12
    p = tmp_path / "coef.txt"
    p.write_text("# constant\n1.0\n0.0\n2.0\n")
    file_poly = resolve_matrix_fn(f"file:{p}", mp, None)
    assert abs(file_poly(2.0) - 9.0) < 1e-12
    assert all(isinstance(g, RationalFn) for g in (ident, f, poly, file_poly))


def test_matrix_fn_spec_errors():
    sc = Semicircle()
    with pytest.raises(ValidationError):
        resolve_matrix_fn("mp-denoise", sc, 1.5)  # wrong law
    for spec in ("polynomial:", "polynomial:1,,2", "polynomial:1,2,", "polynomial:nan"):
        with pytest.raises(ValidationError, match="matrix_fn"):
            resolve_matrix_fn(spec, sc, None)
    with pytest.raises(ValidationError):
        resolve_matrix_fn("wavelet", sc, None)


def test_matrix_fn_file_not_utf8_exits_1(tmp_path, capsys):
    bad = tmp_path / "coef.txt"
    bad.write_bytes(b"\xff\xfe1\x00.\x00")
    with pytest.raises(ValidationError, match="coef.txt"):
        resolve_matrix_fn(f"file:{bad}", Semicircle(), None)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"law": "mp:alpha=0.3", "N": 64, "T": 2, "algo": "oamp",
                             "denoiser": "tanh", "matrix_fn": f"file:{bad}"}))
    for cmd in ("se", "run"):
        assert main([cmd, "--config", str(p), "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and str(bad) in captured.err
        assert captured.err.count("\n") == 1


def test_mp_denoise_rejects_pole_in_support():
    # an MP law whose support reaches 0 must be rejected
    mp = MarchenkoPastur(alpha=0.999)
    with pytest.raises(ValidationError, match="pole"):
        resolve_matrix_fn("mp-denoise", mp, 1.5)


@pytest.mark.parametrize("prior,ok", [
    ("rademacher", True), ("gaussian", True), ("sparse", True), ("sparse:rho=0.2", True),
    ("sparse: rho = 1", True), ("sparse:eps=0.2", False), ("sparse:rho=abc", False),
    ("sparse:rho=", False), ("sparse:rho=0", False), ("sparse:rho=1.5", False),
    ("sparse:rho=nan", False), ("sparse:name=0.2", False), ("rademacher:rho=0.5", False),
    ("gaussian:rho=0.5", False), ("laplace", False),
])
def test_prior_specs_through_se(prior, ok, tmp_path, capsys):
    # one parser for name[:key=value]: a bad key, value or name exits 1 at
    # config load, before any prediction
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"law": "semicircle", "N": 64, "T": 2, "algo": "ri-amp",
                             "denoiser": "tanh", "prior": prior, "mc_samples": 20_000}))
    rc = main(["se", "--config", str(p)])
    captured = capsys.readouterr()
    if ok:
        assert rc == 0 and captured.out.startswith("t,r2_se_pred\n")
    else:
        assert rc == 1 and captured.out == ""
        assert "prior" in captured.err and captured.err.count("\n") == 1


@pytest.mark.parametrize("rho", ["1e-300", "1e-31"])
def test_a_sparse_fraction_below_the_floor_exits_1_naming_it(rho, tmp_path, capsys):
    # below 1e-30 the atom 1/sqrt(rho) passes laws.SUPPORT_CAP: the message
    # names the prior and the floor, not the atoms
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({**_SE_CFG, "prior": f"sparse:rho={rho}"}))
    assert main(["se", "--config", str(p)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert f"prior 'sparse:rho={rho}' needs 1e-30 <= rho <= 1" in captured.err


def test_the_sparse_fraction_floor_is_accepted():
    prior = parse_prior_spec("sparse:rho=1e-30")
    assert 0 < prior.law.atoms.max() <= SUPPORT_CAP
    ExperimentConfig.from_dict({**_SE_CFG, "prior": "sparse:rho=1e-30"})


def test_nonspiked_ri_amp_mp_predictions_match_runs(tmp_path, capsys):
    # MP(0.3), f = -0.3 + 0.6x + 0.25x^2, tanh, N=2000, 12 seeds: the bound
    # |r2_emp_mean - r2_se_pred| <= 3 r2_emp_stderr at every t was fixed
    # before the first run
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"law": "mp:alpha=0.3", "N": 2000, "T": 5, "runs": 12,
                             "algo": "ri-amp-mp", "denoiser": "tanh",
                             "matrix_fn": "polynomial:-0.3,0.6,0.25"}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(p), "--out", str(out)]) == 0
    assert main(["se", "--config", str(p)]) == 0
    assert capsys.readouterr().out.endswith((out / "se.csv").read_text())
    rows = np.loadtxt(out / "mse.csv", delimiter=",", skiprows=1)
    assert rows.shape == (5, 4)
    assert np.all(np.abs(rows[:, 1] - rows[:, 3]) <= 3.0 * rows[:, 2])


def test_denoiser_specs():
    fac = resolve_denoiser_factory("tanh:scale=2", False)
    den = fac(2, None, None)
    assert "tanh" in den.name
    with pytest.raises(ValidationError):
        resolve_denoiser_factory("oracle", True)


@pytest.mark.parametrize("over,kind", [
    ({"denoiser": "tanh:scale=abc"}, "denoiser"), ({"denoiser": "tanh:scale"}, "denoiser"),
    ({"denoiser": "tanh:sclae=2"}, "denoiser"), ({"denoiser": "tanh:scale=nan"}, "denoiser"),
    ({"denoiser": "identity:foo=1"}, "denoiser"),
    ({**BASE, "denoiser": "mmse-rademacher:zzz"}, "denoiser"),
    ({"denoiser": "random-lipschitz:seed=1.5"}, "denoiser"),
    ({"denoiser": "random-lipschitz:seed=-40"}, "denoiser"),
    ({"denoiser": "random-lipschitz:seed=-1"}, "denoiser"),
    ({"law": "semicircle:var=2,variance=3"}, "law spec"),
    ({"prior": "sparse:rho=0.5,rho=0.2"}, "prior"),
    ({**_MP_CFG, "matrix_fn": "polynomial:1,inf"}, "matrix_fn"),
    ({**_MP_CFG, "matrix_fn": "file:{nan_table}"}, "matrix_fn file"),
])
def test_bad_spec_exits_1_naming_its_kind(over, kind, tmp_path, capsys):
    # one grammar for every name[:key=value] spec: a bad value, an unknown or
    # repeated key (var and variance are one key) exits 1 before any output
    table = tmp_path / "coef.txt"
    table.write_text("1.0\nnan\n")
    cfg = {**_SE_CFG, **over}
    cfg["matrix_fn"] = cfg.get("matrix_fn", "identity").format(nan_table=table)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    assert main(["se", "--config", str(p)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {kind} ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("spec", ["TANH:Scale=1", " tanh : scale = 1 ", "tanh:scale=1.0"])
def test_denoiser_spec_names_and_keys_are_case_and_space_insensitive(spec):
    assert resolve_denoiser_factory(spec, False)(2, None, None).name == "tanh(scale=1.0)"


@pytest.mark.parametrize("spec,canonical", [
    ("Identity", "identity"), (" identity", "identity"), ("IDENTITY ", "identity"),
    ("MP-Denoise", "mp-denoise"), (" mp-denoise ", "mp-denoise"),
    (" Polynomial : 0.5,2", "polynomial:0.5,2"),
])
def test_matrix_fn_spec_names_are_case_and_space_insensitive(spec, canonical, tmp_path,
                                                            capsys):
    mp = MarchenkoPastur(alpha=0.3)
    assert resolve_matrix_fn(spec, mp, 1.5) == resolve_matrix_fn(canonical, mp, 1.5)
    # the CLI takes the spelling too: spiked ri-amp-mp, and plain ri-amp for identity
    outs = []
    for m in (spec, canonical):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({**_MP_CFG, "theta": 1.5, "omega": 0.3,
                                 "denoiser": "linear-mmse-combining", "matrix_fn": m}))
        assert main(["se", "--config", str(p)]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    if canonical == "identity":
        p.write_text(json.dumps({**_SE_CFG, "matrix_fn": spec}))
        assert main(["se", "--config", str(p)]) == 0


def test_random_lipschitz_seed_is_an_integer_from_zero():
    names = [resolve_denoiser_factory(f"random-lipschitz:seed={s}", False)(1, None, None).name
             for s in ("0", "3", "3.0", "9007199254740992")]
    assert names == ["random-lipschitz(seed=31)", "random-lipschitz(seed=34)",
                     "random-lipschitz(seed=34)", "random-lipschitz(seed=9007199254741023)"]
    for bad in ("-1", "0.5", "1e300", "inf"):
        with pytest.raises(ValidationError, match="denoiser"):
            resolve_denoiser_factory(f"random-lipschitz:seed={bad}", False)


def _spec_text(names, keys):
    """Arbitrary text, or one of `names` followed by key=value items drawn
    from `keys` (positional values when `keys` is empty)."""
    values = st.sampled_from(["1", "0.3", "-1", "2.5", "0", "1e300", "1e400", "nan", "inf",
                              "", "x", " 2 "])
    items = values if not keys else st.builds("{}={}".format, st.sampled_from(keys), values)
    params = st.lists(items | st.text(max_size=4), max_size=3).map(",".join)
    return st.text(max_size=16) | st.builds("{}{}{}".format, st.sampled_from(names),
                                             st.sampled_from([":", " : "]), params)


_RESOLVERS = {
    "law": (parse_law_spec, ["semicircle", "SC", "goe", "mp", "marchenko-pastur", "point",
                             "point-mass"], ["var", "variance", "alpha", "c", "Var", "x"]),
    "prior": (parse_prior_spec, ["rademacher", "gaussian", "sparse", "Sparse"],
              ["rho", "RHO", "x"]),
    "denoiser": (lambda spec: resolve_denoiser_factory(spec, True),
                 ["tanh", "identity", "random-lipschitz", "mmse-rademacher",
                  "linear-mmse-combining"], ["scale", "seed", "x"]),
    "matrix_fn": (lambda spec: resolve_matrix_fn(spec, MarchenkoPastur(alpha=0.3), 1.5),
                  ["identity", "mp-denoise", "polynomial"], []),
}


@pytest.mark.parametrize("kind", list(_RESOLVERS))
@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_spec_resolvers_return_or_raise_validation_error(kind, data):
    # on any spec text but a file: one, a resolver returns or raises
    # ValidationError, never another exception
    resolve, names, keys = _RESOLVERS[kind]
    spec = data.draw(_spec_text(names, keys).filter(
        lambda s: s.partition(":")[0].strip().lower() != "file"))
    try:
        resolve(spec)
    except ValidationError:
        pass


_MAGNITUDE = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)  # across [1e-300, 1e300]


@settings(max_examples=25, deadline=None, derandomize=True)
@given(spiked=st.booleans(), theta=_MAGNITUDE, omega=_MAGNITUDE, scale=_MAGNITUDE,
       T=st.integers(1, 3))
def test_numeric_config_keys_through_se_exit_0_1_or_2(spiked, theta, omega, scale, T):
    # any theta, omega and tanh scale from 1e-300 to 1e300: `se` ends with an
    # exit code (an overflow is a numerical failure), never an exception
    cfg = {"law": "semicircle", "N": 16, "T": T, "algo": "ri-amp",
           "denoiser": f"tanh:scale={scale!r}"}
    if spiked:
        cfg.update(theta=theta, omega=omega)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "cfg.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        assert main(["se", "--config", path]) in (0, 1, 2)


_OVERFLOWING = {
    "tanh-scale": {"law": "semicircle", "N": 64, "T": 3, "algo": "ri-amp",
                   "denoiser": "tanh:scale=1e300"},
    "spiked-theta": {"law": "semicircle", "N": 64, "T": 3, "theta": 1e300, "omega": 0.3,
                     "algo": "ri-amp", "denoiser": "mmse-rademacher"},
}


@pytest.mark.parametrize("cmd", ["se", "run"])
@pytest.mark.parametrize("name", list(_OVERFLOWING))
def test_overflowing_state_evolution_exits_2_naming_the_matrix(name, cmd, tmp_path, capsys):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(_OVERFLOWING[name]))
    assert main([cmd, "--config", str(p), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"numerical failure: (Sigma|DeltaBar)_\d is not finite: .*\n", err)


def test_overflowing_mp_denoise_exits_1_naming_matrix_fn(tmp_path, capsys):
    # theta = 1e300 overflows mp-denoise's pole to -inf, which RationalFn refuses
    with pytest.raises(ValidationError, match="pole is -inf"):
        RationalFn(coeffs=(1.0,), pole=float("-inf"))
    with pytest.raises(ValidationError, match="coefficient 1 is nan"):
        RationalFn(coeffs=(1.0, float("nan")))
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({**_MP_CFG, "law": "mp:alpha=0.2", "theta": 1e300, "omega": 0.3,
                             "matrix_fn": "mp-denoise", "denoiser": "mmse-rademacher"}))
    assert main(["se", "--config", str(p)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: matrix_fn 'mp-denoise': ")
    assert "pole is -inf" in captured.err and captured.err.count("\n") == 1


@pytest.mark.parametrize("cmd", ["se", "run"])
@pytest.mark.parametrize("name", list(_OVERFLOWING))
def test_an_overflowing_state_evolution_prints_one_line(name, cmd, tmp_path, capsys):
    # numpy's overflow warnings are silenced (here they would raise): stderr
    # holds the `numerical failure:` line alone
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(_OVERFLOWING[name]))
    assert main([cmd, "--config", str(p), "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("numerical failure: ")


def test_an_overflowing_spiked_prediction_exits_2(tmp_path, capsys):
    # Sigma_1 is finite (about 1e308), but the MSE integral of eta_2 = R_1
    # overflows: the prediction is checked, not printed as inf
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"law": "semicircle", "N": 64, "T": 1, "theta": 2.0, "omega": 0.3,
                             "algo": "ri-amp-mp", "matrix_fn": "polynomial:0,5e153",
                             "denoiser": "identity"}))
    assert main(["se", "--config", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        "numerical failure: the predicted MSE at t=1 is not finite: the state evolution "
        "overflowed\n")


_GAUSS_RULE_FAILURES = {
    # |f| near 1e160: the norms of the Lanczos vectors overflow, which once
    # read as a breakdown and gave a one-node rule with V = 0
    "huge-f": ({"law": "semicircle", "N": 64, "T": 3, "algo": "ri-amp-mp",
                "matrix_fn": "polynomial:1e160,1e160,1e160", "denoiser": "tanh"},
               r"Sigma_1 is not finite: .*"),
}


@pytest.mark.parametrize("name", list(_GAUSS_RULE_FAILURES))
def test_a_failing_gauss_rule_exits_2_with_one_line(name, tmp_path, capsys):
    cfg, message = _GAUSS_RULE_FAILURES[name]
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    assert main(["se", "--config", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch("numerical failure: " + message + "\n", captured.err)


@pytest.mark.parametrize("alpha", ["5e-324", "1e-8"])
def test_an_mp_aspect_ratio_below_the_floor_exits_1_naming_it(alpha, tmp_path, capsys):
    # MP(5e-324) once gave a rule whose weights summed to 0 (exit 2), and
    # MP(1e-8) one whose variance was off by 1.4e-12: both are refused
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"law": f"mp:alpha={alpha}", "N": 64, "T": 3, "algo": "ri-amp",
                             "denoiser": "tanh"}))
    assert main(["se", "--config", str(p)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: MP aspect ratio must lie in [1e-07, 1)\n"


def test_a_run_whose_iterates_overflow_exits_2_and_writes_nothing(tmp_path, capsys):
    # f is constant, so SE reads 0, but rounding in f(M) u grows |r_2|^2 past
    # 1e308: every seed's metrics are not finite, so every seed diverges
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"law": "semicircle", "N": 2000, "T": 2, "algo": "ri-amp-mp",
                             "matrix_fn": "polynomial:3e152", "denoiser": "identity",
                             "runs": 2}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(p), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.splitlines() == [
        f"warning: seed {i} diverged and was excluded: the metrics are not finite at t=2"
        for i in (0, 1)] + ["numerical failure: all seeds diverged"]


_COEFFICIENT = st.one_of(st.just(0.0), st.builds(lambda sign, e: sign * 10.0**e,
                                                  st.sampled_from([-1.0, 1.0]),
                                                  st.floats(-300.0, 300.0)))
_MATRIX_CASES = st.one_of(
    st.lists(_COEFFICIENT, min_size=3, max_size=3).map(lambda c: {
        "law": "semicircle", "algo": "ri-amp-mp",
        "matrix_fn": "polynomial:" + ",".join(repr(x) for x in c)}),
    st.floats(-300.0, -0.01).map(lambda e: {"law": f"mp:alpha={10.0**e!r}", "algo": "ri-amp"}))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(case=_MATRIX_CASES, cmd=st.sampled_from(["se", "run"]), N=st.integers(16, 64),
       T=st.integers(1, 3))
def test_matrix_fn_coefficients_and_mp_aspect_through_main_exit_0_1_or_2(case, cmd, N, T):
    # polynomial coefficients from 1e-300 to 1e300 and MP aspect ratios from
    # 1e-300 to 0.98: `se` and `run` end with an exit code, never an exception
    # or a numpy warning, and print finite values when they succeed
    cfg = {**case, "N": N, "T": T, "denoiser": "tanh", "runs": 2}
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "cfg.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main([cmd, "--config", path, "--out", os.path.join(d, "out")])
    assert code in (0, 1, 2)
    if code == 0:
        rows = [line.split(",") for line in out.getvalue().splitlines()[1 if cmd == "se" else 0:]]
        assert len(rows) == T and np.isfinite(np.array(rows, dtype=float)).all()


# ---------------------------------------------------------------------------
# subcommands through main()
# ---------------------------------------------------------------------------

def test_cumulants_exit_codes(capsys):
    assert main(["cumulants", "--law", "mp:alpha=0.2", "--order", "4"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "n,m_n,kappa_n"
    kappas = [float(line.split(",")[2]) for line in out[1:]]
    assert np.allclose(kappas, [1.0, 0.2, 0.04, 0.008], atol=1e-9)
    assert main(["cumulants", "--law", "nope", "--order", "4"]) == 1
    assert main(["cumulants", "--law", "semicircle", "--order", "0"]) == 1


def test_cumulants_order_past_the_cap_exits_1(capsys):
    # Semicircle.moment(2000) overflows a float: the cap is checked first
    assert main(["cumulants", "--law", "semicircle", "--order", "2000"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: order 2000 exceeds the recursion cap 20\n"


def test_cumulants_point_mass(capsys):
    assert main(["cumulants", "--law", "point:c=1.5", "--order", "4"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    kappas = [float(line.split(",")[2]) for line in out[1:]]
    assert np.allclose(kappas, [1.5, 0, 0, 0], atol=1e-12)


def test_cumulants_mc_columns(capsys):
    assert main(["cumulants", "--law", "semicircle", "--order", "3", "--mc",
                 "--dim", "300", "--replicas", "2"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "n,m_n,kappa_n,kappa_hat_n,kappa_hat_spread"
    assert len(out) == 4


def test_usage_error_maps_to_exit_1(capsys):
    assert main(["cumulants", "--order", "4"]) == 1  # missing --law


def test_run_writes_outputs_and_is_deterministic(tmp_path, capsys):
    cfg = dict(BASE)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["run", "--config", str(p), "--out", out1]) == 0
    assert main(["run", "--config", str(p), "--out", out2]) == 0
    for name in ("mse.csv", "se.csv", "mse.svg", "meta.json"):
        assert os.path.exists(os.path.join(out1, name))
    a = open(os.path.join(out1, "mse.csv"), "rb").read()
    b = open(os.path.join(out2, "mse.csv"), "rb").read()
    assert a == b
    header = a.decode().splitlines()[0]
    assert header == ("t,mse_emp_mean,mse_emp_stderr,mse_se_pred,"
                      "overlap_emp_mean,overlap_emp_stderr")
    meta = json.load(open(os.path.join(out1, "meta.json")))
    assert meta["seeds_ok"] == 2 and meta["seeds_divergent"] == 0
    assert meta["content_hash"] == json.load(
        open(os.path.join(out2, "meta.json")))["content_hash"]


def test_run_meta_json_byte_identical(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({**BASE, "N": 64, "runs": 1, "mc_samples": 10_000}))
    metas = []
    for name in ("a", "b"):
        assert main(["run", "--config", str(p), "--out", str(tmp_path / name)]) == 0
        metas.append((tmp_path / name / "meta.json").read_bytes())
    assert metas[0] == metas[1]


@pytest.mark.parametrize("cfg", [
    {"law": "mp:alpha=0.3", "denoiser": "tanh"},
    {"law": "semicircle", "denoiser": "random-lipschitz:seed=2"},
    {"law": "semicircle", "theta": 1.5, "omega": 0.3, "denoiser": "mmse-rademacher"},
    {"law": "mp:alpha=0.2", "theta": 1.5, "omega": 0.3, "denoiser": "linear-mmse-combining"},
], ids=["plain-mp", "plain-semicircle", "spiked-semicircle", "spiked-mp"])
def test_run_ri_amp_is_ri_amp_mp_with_identity(cfg, tmp_path, capsys):
    # the CLI runs ri-amp as ri-amp-mp with f = identity: the same bytes
    outputs = []
    for algo in ("ri-amp", "ri-amp-mp"):
        p = tmp_path / f"{algo}.json"
        p.write_text(json.dumps({**cfg, "N": 200, "T": 4, "runs": 2, "seed_base": 3,
                                 "algo": algo, "matrix_fn": "identity"}))
        assert main(["run", "--config", str(p), "--out", str(tmp_path / algo)]) == 0
        outputs.append([(tmp_path / algo / name).read_bytes() for name in ("mse.csv", "se.csv")])
    assert outputs[0] == outputs[1]


def test_run_samples_haar_without_qr_or_dense_rotation(tmp_path, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("dense Haar sampling path used")

    monkeypatch.setattr(np.linalg, "qr", forbidden)
    monkeypatch.setattr(LazyHaarRotation, "dense", forbidden)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(dict(BASE)))
    assert main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == 0
    meta = json.load(open(tmp_path / "o" / "meta.json"))
    assert meta["seeds_ok"] == BASE["runs"] and meta["seeds_divergent"] == 0


def test_bad_thread_count_env_exits_1(tmp_path, monkeypatch, capsys):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(dict(BASE)))
    monkeypatch.setenv("AMP_LAB_THREADS", "x")
    assert main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == 1
    assert "AMP_LAB_THREADS" in capsys.readouterr().err


@pytest.mark.parametrize("spec,needle", [("mp:alpha=abc", "not a number"),
                                         ("semicircle:vr=2", "unknown parameter")])
def test_bad_law_spec_exits_1(spec, needle, capsys):
    assert main(["cumulants", "--law", spec, "--order", "4"]) == 1
    assert needle in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["--law", "file:"], ["--law", "file:/"], ["--law", "semicircle:var=nan"],
    ["--law", "point:c=inf"], ["--law", "semicircle", "--mc", "--replicas", "0"],
    ["--law", "semicircle", "--mc", "--seed", "-1"],
])
def test_bad_cumulants_inputs_exit_1_with_one_line(args, capsys):
    assert main(["cumulants", "--order", "2", *args]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def test_cumulants_mc_dim_beyond_physical_memory_exits_1(monkeypatch, capsys):
    # one Haar ensemble answering an order-2 recursion is budgeted 8 dim 64
    # bytes, so dim=2200000 (1.13e9 bytes) does not fit 1 GiB; nothing large
    # is allocated
    monkeypatch.setattr(cli, "_physical_memory_bytes", lambda: 2**30)
    argv = ["cumulants", "--law", "semicircle", "--order", "2", "--mc", "--replicas", "1"]
    assert main(argv + ["--dim", "2200000"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "physical memory" in captured.err
    assert main(argv + ["--dim", "300"]) == 0


def test_run_aggregation_independent_of_worker_count(tmp_path, monkeypatch):
    cfg = _cfg(runs=3)
    monkeypatch.setenv("AMP_LAB_THREADS", "1")
    rows1, *_ = run_experiment(cfg)
    monkeypatch.setenv("AMP_LAB_THREADS", "3")
    rows3, *_ = run_experiment(cfg)
    assert np.allclose(np.asarray(rows1, dtype=float),
                       np.asarray(rows3, dtype=float), atol=0)


def test_worker_count_pools_seeds_only_from_the_array_threshold(monkeypatch):
    # unset, seeds of N below POOL_MIN_ELEMENTS (N^2 for gaussian-amp) take
    # one worker and larger ones min(runs, cores); AMP_LAB_THREADS is used
    # as given, capped at the seed count, whatever the size
    monkeypatch.delenv("AMP_LAB_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    big = cli.POOL_MIN_ELEMENTS
    assert cli._worker_count(8, big - 1, "ri-amp-mp") == 1
    assert cli._worker_count(8, big, "ri-amp-mp") == 4
    assert cli._worker_count(3, big, "oamp") == 3
    assert cli._worker_count(1, big, "ri-amp") == 1
    dense = math.isqrt(big - 1) + 1  # the least N with N^2 >= POOL_MIN_ELEMENTS
    assert cli._worker_count(8, dense - 1, "gaussian-amp") == 1
    assert cli._worker_count(8, dense, "gaussian-amp") == 4
    monkeypatch.setenv("AMP_LAB_THREADS", "3")
    assert cli._worker_count(8, 16, "ri-amp-mp") == 3
    assert cli._worker_count(8, big, "ri-amp-mp") == 3
    assert cli._worker_count(2, 16, "gaussian-amp") == 2


def test_a_pooled_run_writes_the_bytes_of_a_one_thread_run(tmp_path, monkeypatch):
    # at the threshold, unset, the 2 seeds share 2 threads (one started);
    # with AMP_LAB_THREADS=1 they run on the calling thread; same bytes
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**BASE, "N": cli.POOL_MIN_ELEMENTS, "T": 2}))
    started, start = [], threading.Thread.start

    def counted(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    outputs = []
    for threads in (None, "1"):
        if threads is None:
            monkeypatch.delenv("AMP_LAB_THREADS", raising=False)
        else:
            monkeypatch.setenv("AMP_LAB_THREADS", threads)
        out = tmp_path / f"out{threads}"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        outputs.append([(out / name).read_bytes()
                        for name in ("mse.csv", "se.csv", "meta.json")])
    assert len(started) == 1
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("failing", [{1}, {0, 1}])
def test_a_seed_that_raises_exits_1_with_its_one_message(failing, tmp_path, monkeypatch,
                                                          capsys):
    # whichever seed thread raises, main re-raises the lowest failing seed's
    # error once every thread has joined: one line, exit 1, no traceback
    orig = cli._single_run

    def failing_run(cfg, law, prior, f, states, grid, run_idx):
        if run_idx in failing:
            raise ValidationError(f"seed {run_idx} refused")
        return orig(cfg, law, prior, f, states, grid, run_idx)

    monkeypatch.setattr(cli, "_single_run", failing_run)
    monkeypatch.setenv("AMP_LAB_THREADS", "2")
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(BASE))
    out = tmp_path / "out"
    assert main(["run", "--config", str(p), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == f"error: seed {min(failing)} refused\n"


def test_seed_threads_run_every_seed_once_and_keep_index_order():
    # more threads than cores and a short switch interval: a lost or
    # repeated hand-out of a seed would show in the calls or the results
    calls, interval = [], sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = cli._run_seeds(lambda i: calls.append(i) or i * i, 500, 8)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(calls) == list(range(500))
    assert results == [i * i for i in range(500)]


def test_a_thread_count_above_the_ceiling_exits_1_before_any_thread_starts(
        tmp_path, monkeypatch, capsys):
    started = []
    monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread))
    monkeypatch.setenv("AMP_LAB_THREADS", str(cli.MAX_SEED_THREADS + 1))
    with pytest.raises(ValidationError, match=r"^AMP_LAB_THREADS must lie in \[1, 256\]"):
        cli._worker_count(30000, 16, "ri-amp")
    monkeypatch.setenv("AMP_LAB_THREADS", "30000")
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"law": "semicircle", "N": 16, "T": 1, "runs": 30000,
                             "algo": "ri-amp", "denoiser": "tanh"}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(p), "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("error: AMP_LAB_THREADS must lie in [1, 256], "
                                       "got 30000\n")
    assert started == [] and not out.exists()
    # the ceiling itself is accepted, and the default count stops there too
    monkeypatch.setenv("AMP_LAB_THREADS", str(cli.MAX_SEED_THREADS))
    assert cli._worker_count(10**6, 16, "ri-amp") == cli.MAX_SEED_THREADS
    monkeypatch.delenv("AMP_LAB_THREADS")
    monkeypatch.setattr(os, "cpu_count", lambda: 4 * cli.MAX_SEED_THREADS)
    assert cli._worker_count(10**6, cli.POOL_MIN_ELEMENTS, "ri-amp") == cli.MAX_SEED_THREADS


def test_a_thread_that_fails_to_start_leaves_the_started_ones_joined(monkeypatch):
    # the second helper fails to start: the first is joined before the error
    # reaches the caller, so no seed thread outlives _run_seeds
    started, start = [], threading.Thread.start

    def second_fails(thread):
        if started:
            raise RuntimeError("can't start new thread")
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", second_fails)
    with pytest.raises(RuntimeError, match="can't start new thread"):
        cli._run_seeds(lambda i: time.sleep(0.02), 6, 3)
    assert len(started) == 1 and not started[0].is_alive()


def test_run_builds_one_quantile_grid_shared_read_only(monkeypatch):
    built, grids = [], []
    orig_grid, orig_run = SpectralLaw.quantile_grid, cli._single_run

    def counted(self, N):
        built.append(N)
        return orig_grid(self, N)

    def recorded(cfg, law, prior, f, states, grid, run_idx):
        grids.append(grid)
        return orig_run(cfg, law, prior, f, states, grid, run_idx)

    monkeypatch.setattr(SpectralLaw, "quantile_grid", counted)
    monkeypatch.setattr(cli, "_single_run", recorded)
    run_experiment(_cfg(runs=4))
    assert built == [BASE["N"]]
    assert len(grids) == 4 and all(g is grids[0] for g in grids)
    assert not grids[0].flags.writeable
    with pytest.raises(ValueError):
        grids[0][0] = 0.0


def test_run_resolves_each_input_once(tmp_path, monkeypatch):
    # one resolution serves SE and every seed, so the law file is opened once
    law_file = tmp_path / "atoms.txt"
    law_file.write_text("\n".join(str(x) for x in np.linspace(0.2, 2.0, 40)) + "\n")
    opened = []
    real_open = open

    def recording_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", recording_open)
    run_experiment(_cfg(law=f"file:{law_file}", matrix_fn="identity",
                        denoiser="tanh", theta=None, omega=None, N=40, T=2))
    assert opened.count(str(law_file)) == 1


def test_se_command(tmp_path, capsys):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(dict(BASE)))
    assert main(["se", "--config", str(p)]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "t,mse_se_pred"
    vals = [float(line.split(",")[1]) for line in out[1:]]
    assert len(vals) == BASE["T"]
    assert all(v >= 0 for v in vals)


def test_spiked_se_rows_do_not_depend_on_mc_samples():
    # linear-mmse-combining is a projection denoiser, so the spiked
    # prediction is quadrature and never samples
    cfg = {**BASE, "N": 2000, "T": 6, "runs": 2, "seed_base": 0}
    rows_small = compute_se(ExperimentConfig.from_dict({**cfg, "mc_samples": 10}))[1]
    rows_big = compute_se(ExperimentConfig.from_dict({**cfg, "mc_samples": 2_000_000}))[1]
    assert rows_small == rows_big


def test_spiked_se_converged_in_quadrature_nodes(monkeypatch):
    cfg = ExperimentConfig.from_dict({**BASE, "T": 6})
    law = parse_law_spec(cfg.law)
    f = resolve_matrix_fn(cfg.matrix_fn, law, cfg.theta)
    fac = resolve_denoiser_factory(cfg.denoiser, True)
    init = SeInit(prior=make_prior(cfg.prior), omega=cfg.omega)
    pred = np.array([v for _, v in compute_se(cfg)[1]])
    monkeypatch.setattr(se, "GH_POINTS", 256)
    ref = spiked_se(law, cfg.theta, f, fac, init, cfg.T)
    ref = np.array([s.mse_pred for s in ref])
    assert np.all(np.abs(pred - ref) <= 1e-3 * ref)


def test_se_perfect_init_starts_lower():
    # omega = 1 gives a better first iterate than omega = 0.3
    lo = compute_se(_cfg(omega=1.0, mc_samples=100_000))[1]
    hi = compute_se(_cfg(omega=0.3, mc_samples=100_000))[1]
    assert lo[0][1] < hi[0][1]


def test_run_omega_ordering():
    rows_hi, *_ = run_experiment(_cfg(omega=1.0))
    rows_lo, *_ = run_experiment(_cfg(omega=0.3))
    assert rows_hi[0][1] <= rows_lo[0][1]  # MSE_1 ordering, same seeds


def test_spiked_ri_amp_equals_mp_identity_per_seed():
    cfg_a = _cfg(law="semicircle", theta=3.0, algo="ri-amp",
                 matrix_fn="identity", denoiser="linear-mmse-combining")
    cfg_b = _cfg(law="semicircle", theta=3.0, algo="ri-amp-mp",
                 matrix_fn="identity", denoiser="linear-mmse-combining")
    rows_a, *_ = run_experiment(cfg_a)
    rows_b, *_ = run_experiment(cfg_b)
    assert np.allclose([r[1] for r in rows_a], [r[1] for r in rows_b], atol=1e-8)


def test_verify_exit_codes(capsys):
    assert main(["verify", "--suite", "se-equivalence"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True
    assert main(["verify", "--suite", "nonsense"]) == 1


def test_verify_unfolding_covers_every_variant_and_the_closed_forms(capsys):
    # OAMP unfolds like the others, and the trace-free rows of RI-AMP and
    # RI-AMP-DF are checked against the paper's closed-form series
    assert main(["verify", "--suite", "unfolding"]) == 0
    names = [c["name"] for c in json.loads(capsys.readouterr().out)["suites"]["unfolding"]]
    assert "oamp unfolding reconstruction" in names
    assert "ri-amp Onsager rows = free-cumulant series" in names
    assert "ri-amp-df Onsager rows = H-family series" in names


def test_random_lipschitz_se_matches_runs():
    # the term-wise quadrature against runs: semicircle RI-AMP with a
    # random-lipschitz schedule, 12 seeds at N=2000, every t within 3 standard
    # errors (bound fixed before this prediction was first compared)
    cfg = ExperimentConfig.from_dict({"law": "semicircle", "N": 2000, "T": 5, "runs": 12,
                                      "seed_base": 5000, "algo": "ri-amp",
                                      "denoiser": "random-lipschitz:seed=3"})
    rows, _, n_ok, n_div = run_experiment(cfg)
    assert (n_ok, n_div) == (12, 0)
    for t, mean, stderr, pred in rows:
        assert abs(mean - pred) <= 3.0 * stderr, (t, mean, stderr, pred)


def test_nonspiked_run_header(tmp_path):
    cfg = {"law": "semicircle", "N": 300, "T": 3, "runs": 2, "seed_base": 0,
           "algo": "ri-amp", "denoiser": "tanh", "mc_samples": 50_000}
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))
    out = str(tmp_path / "o")
    assert main(["run", "--config", str(p), "--out", out]) == 0
    header = open(os.path.join(out, "mse.csv")).readline().strip()
    assert header == "t,r2_emp_mean,r2_emp_stderr,r2_se_pred"
