import argparse
import hashlib
import json
import os
import shlex
from dataclasses import replace

import numpy as np
import pytest

from fpplab.cli import build_parser, main
from fpplab.model import RiskParams
from fpplab import affine
from fpplab.spectral import (EigenfunctionSelection, ExpEigenfunction, SpectralMeasure,
                             WidderFunction)

from conftest import make_rank_deficient_grid_model


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("FPPLAB_OUT", raising=False)
    rp = RiskParams(gamma=2.0, p=0.25)
    market, spec = affine.canonical_affine_market(
        M=[[-0.5]], w=[0.4], L=[0.2], Lambda=[0.25], lambda0=0.05,
        H=[-0.3], rp=rp)
    market.save(tmp_path / "model.json")
    with open(tmp_path / "aspec.json", "w") as fh:
        json.dump(spec.to_json(), fh)
    with open(tmp_path / "simcfg.json", "w") as fh:
        json.dump({"dt": 0.01, "horizon": 0.5, "n_paths": 200, "seed": 9,
                   "record_stride": 5}, fh)
    with open(tmp_path / "fpp.json", "w") as fh:
        json.dump({"affine_spec": spec.to_json(), "gamma": 2.0, "p": 0.25,
                   "horizon": 0.5, "direction": "forward"}, fh)
    np.savetxt(tmp_path / "rho.csv", 0.6 * np.eye(2), delimiter=",")
    t = np.linspace(0.0, 1.0, 41)
    u = 0.3 * np.exp(-0.5 * t) + 0.7 * np.exp(-2.0 * t)
    np.savetxt(tmp_path / "samples.csv", np.column_stack([t, u]),
               delimiter=",", header="t,u", comments="")
    return tmp_path


def test_eve_project_scaled_identity(workdir):
    assert main(["eve", "project", "--in", "rho.csv", "--out", "o1"]) == 0
    payload = json.load(open(workdir / "o1" / "eve_projection.json"))
    assert payload["r_star"] == pytest.approx(0.6, abs=1e-12)
    np.testing.assert_allclose(payload["Q_star"], np.eye(2), atol=1e-10)
    assert payload["p"]["frobenius"] == pytest.approx(0.36, abs=1e-12)


def test_eve_select_p_single_norm(workdir):
    assert main(["eve", "select-p", "--in", "rho.csv", "--norm", "trace",
                 "--out", "o2"]) == 0
    payload = json.load(open(workdir / "o2" / "eve_p.json"))
    assert set(payload) == {"trace"}


def test_affine_solve_matches_closed_form(workdir):
    assert main(["affine", "solve", "--spec", "aspec.json", "--gamma", "2.0",
                 "--p", "0.25", "--horizon", "1.0", "--out", "o3"]) == 0
    data = np.loadtxt(workdir / "o3" / "riccati.csv", delimiter=",", skiprows=1)
    spec = affine.AffineSpec.load(workdir / "aspec.json")
    sol = affine.solve_riccati_closed_form(spec, RiskParams(2.0, 0.25), 1.0)
    np.testing.assert_allclose(data[:, 1:2], sol.Phi(data[:, 0]), atol=1e-10)
    np.testing.assert_allclose(data[:, 2], sol.Theta(data[:, 0]), atol=1e-10)
    table = json.load(open(workdir / "o3" / "riccati_components.json"))
    assert table["method"] == "closed-form"
    assert len(table["components"]) == 1


def test_affine_solve_records_solver_and_fallback(workdir):
    coupled = affine.AffineSpec(M=[[-0.5, 0.1], [0.05, -0.8]], w=[0.4, 0.5],
                                L=[0.2, 0.15], Lambda=[0.16, 0.09], lambda0=0.04,
                                N=[[0.0, 0.0], [0.0, 0.0]], c=[0.0, 0.0],
                                H=[-0.3, 0.2], h0=0.0)
    with open(workdir / "coupled.json", "w") as fh:
        json.dump(coupled.to_json(), fh)
    for spec_file, out in (("coupled.json", "oc"), ("aspec.json", "od")):
        assert main(["affine", "solve", "--spec", spec_file, "--gamma", "2.0",
                     "--p", "0.25", "--horizon", "1.0", "--out", out]) == 0
    table = json.load(open(workdir / "oc" / "riccati_components.json"))
    assert table["method"] == "numeric"
    assert "not diagonal" in table["fallback_reason"]
    assert table["solver"]["nfev"] > 0 and table["solver"]["steps"] > 0
    assert table["solver"]["status"] == 0 and table["solver"]["message"]
    table = json.load(open(workdir / "od" / "riccati_components.json"))
    assert table["method"] == "closed-form"
    assert table["solver"] is None and table["fallback_reason"] is None


def test_affine_portfolio(workdir):
    assert main(["affine", "portfolio", "--spec", "aspec.json", "--model",
                 "model.json", "--gamma", "2.0", "--p", "0.25",
                 "--horizon", "1.0", "--t", "0.4", "--y", "0.9",
                 "--out", "o4"]) == 0
    payload = json.load(open(workdir / "o4" / "portfolio.json"))
    spec = affine.AffineSpec.load(workdir / "aspec.json")
    from fpplab.model import ModelSpec
    model = ModelSpec.load(workdir / "model.json")
    sol = affine.solve_riccati(spec, RiskParams(2.0, 0.25), 1.0)
    expected = affine.optimal_portfolio_affine(sol, model, RiskParams(2.0, 0.25),
                                               0.4, [0.9])
    np.testing.assert_allclose(payload["pi"], expected, atol=1e-12)


def test_spectral_invert_round_trip(workdir):
    assert main(["spectral", "invert", "--in", "samples.csv", "--atoms", "2",
                 "--out", "o5"]) == 0
    payload = json.load(open(workdir / "o5" / "measure.json"))
    zetas = [a["zeta"] for a in payload["atoms"]]
    weights = [a["weight"] for a in payload["atoms"]]
    np.testing.assert_allclose(zetas, [0.5, 2.0], atol=1e-6)
    np.testing.assert_allclose(weights, [0.3, 0.7], atol=1e-6)


def test_spectral_evaluate_rows_run_t_outer(workdir):
    nu = SpectralMeasure([0.3, 1.1], [0.6, 0.4], [0.0])
    sel = EigenfunctionSelection((ExpEigenfunction([0.5], [0.0]),
                                  ExpEigenfunction([-0.8], [0.0])), [0.0])
    with open(workdir / "measure.json", "w") as fh:
        json.dump(nu.to_json(), fh)
    with open(workdir / "selection.json", "w") as fh:
        json.dump(sel.to_json(), fh)
    assert main(["spectral", "evaluate", "--measure", "measure.json",
                 "--selection", "selection.json", "--t-grid", "0:1:3",
                 "--y", "0.1;0.4", "--out", "o5"]) == 0
    rows = np.loadtxt(workdir / "o5" / "widder_values.csv", delimiter=",", skiprows=1)
    assert rows.shape == (6, 3)
    expected = [[t, y] for t in (0.0, 0.5, 1.0) for y in (0.1, 0.4)]
    np.testing.assert_array_equal(rows[:, :2], expected)
    u = WidderFunction(nu, sel)
    for t, y, value in rows:
        assert abs(value - u(t, [y])) <= 1e-14


def test_spectral_evaluate_rejects_selection_normalized_at_another_y0(workdir, capsys):
    nu = SpectralMeasure([0.3], [1.0], [0.0])
    sel = EigenfunctionSelection((ExpEigenfunction([0.5], [1.0]),), [1.0])
    for name, obj in (("measure.json", nu), ("selection.json", sel)):
        with open(workdir / name, "w") as fh:
            json.dump(obj.to_json(), fh)
    assert main(["spectral", "evaluate", "--measure", "measure.json",
                 "--selection", "selection.json", "--t-grid", "0:1:3",
                 "--y", "0.0", "--out", "o5b"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "y0" in err
    assert not os.path.exists(workdir / "o5b" / "widder_values.csv")


def test_spectral_eigenfn_and_radial(workdir):
    assert main(["spectral", "eigenfn-1d", "--model", "model.json",
                 "--gamma", "2.0", "--p", "0.25", "--zeta", "0.0",
                 "--y0", "1.0", "--slope", "0.2", "--grid", "0.2:2.0:19",
                 "--out", "o6"]) == 0
    data = np.loadtxt(workdir / "o6" / "eigenfunction.csv", delimiter=",",
                      skiprows=1)
    assert data.shape == (19, 2)
    assert main(["spectral", "radial", "--zeta", "0", "--k", "3",
                 "--r-max", "8", "--out", "o6b"]) == 0
    payload = json.load(open(workdir / "o6b" / "radial.json"))
    assert payload["truncated_integral"] == pytest.approx(np.log(8.0), abs=1e-8)
    assert payload["growth_flag"] is True


def test_sim_run_and_verify_martingale(workdir):
    assert main(["sim", "run", "--model", "model.json", "--config", "simcfg.json",
                 "--strategy", "affine-optimal", "--affine", "aspec.json",
                 "--gamma", "2.0", "--p", "0.25", "--horizon", "0.5",
                 "--y0", "1.0", "--out", "o7"]) == 0
    assert (workdir / "o7" / "paths" / "X.npy").exists()
    diagnostics = json.load(open(workdir / "o7" / "paths" / "meta.json"))["diagnostics"]
    exit_time = np.load(workdir / "o7" / "paths" / "exit_time.npy")
    assert diagnostics["exited_paths"] == np.count_nonzero(np.isfinite(exit_time))
    assert diagnostics["clipped_states"] >= 0
    assert main(["verify", "martingale", "--paths", "o7/paths",
                 "--fpp", "fpp.json", "--out", "o8"]) == 0
    report = json.load(open(workdir / "o8" / "martingale_report.json"))
    assert report["verdict"] in ("martingale-consistent",
                                 "supermartingale-consistent")
    assert len(report["buckets"]) == 10


def test_sim_run_delta_shifts_every_strategy(workdir):
    # --delta is added to every allocation, not only to affine-optimal.
    base = ["sim", "run", "--model", "model.json", "--config", "simcfg.json",
            "--y0", "1.0"]
    assert main(base + ["--strategy", "constant:0.1,0.1", "--delta", "0.5",
                        "--out", "o7d"]) == 0
    assert main(base + ["--strategy", "constant:0.6,0.6", "--out", "o7c"]) == 0
    np.testing.assert_array_equal(np.load(workdir / "o7d" / "paths" / "X.npy"),
                                  np.load(workdir / "o7c" / "paths" / "X.npy"))
    assert main(base + ["--strategy", "constant:0.1,0.1", "--out", "o7n"]) == 0
    assert not np.array_equal(np.load(workdir / "o7n" / "paths" / "X.npy"),
                              np.load(workdir / "o7c" / "paths" / "X.npy"))


def test_sim_feynman_kac(workdir):
    assert main(["sim", "feynman-kac", "--model", "model.json",
                 "--config", "simcfg.json", "--gamma", "2.0", "--p", "0.25",
                 "--t", "0.5", "--y", "1.0", "--affine", "aspec.json",
                 "--paths", "500", "--out", "o9"]) == 0
    payload = json.load(open(workdir / "o9" / "feynman_kac.json"))
    assert payload["estimate"] > 0
    assert payload["std_error"] > 0


def test_verify_residual_subcommand(workdir):
    assert main(["verify", "residual", "--which", "nonlinear",
                 "--model", "model.json", "--affine", "aspec.json",
                 "--gamma", "2.0", "--p", "0.25", "--out", "o10"]) == 0
    payload = json.load(open(workdir / "o10" / "residual_nonlinear.json"))
    assert payload["max_abs_residual"] <= 1e-4


def test_verify_residual_hjb_subcommand(workdir):
    assert main(["verify", "residual", "--which", "hjb",
                 "--model", "model.json", "--affine", "aspec.json",
                 "--gamma", "2.0", "--p", "0.25", "--out", "o10h"]) == 0
    payload = json.load(open(workdir / "o10h" / "residual_hjb.json"))
    assert payload["n_points"] == 5 * 3 * 5
    assert payload["max_abs_residual"] <= 1e-4


def test_manifest_command_round_trips_through_shlex(workdir):
    argv = ["eve", "project", "--in", "rho.csv", "--out", "o 1"]
    assert main(argv) == 0
    manifest = json.load(open(workdir / "o 1" / "manifest.json"))
    assert shlex.split(manifest["command"]) == ["fpplab"] + argv


def test_manifest_written_with_hashes(workdir):
    assert main(["eve", "project", "--in", "rho.csv", "--out", "o11"]) == 0
    manifest = json.load(open(workdir / "o11" / "manifest.json"))
    assert manifest["command"].startswith("fpplab eve project")
    assert "rho.csv" in manifest["config_hashes"]
    assert manifest["outputs"] == ["eve_projection.json"]
    assert manifest["version"]


def test_repeat_runs_are_byte_identical(workdir):
    for out in ("d1", "d2"):
        assert main(["sim", "run", "--model", "model.json", "--config",
                     "simcfg.json", "--strategy", "zero", "--y0", "1.0",
                     "--out", out]) == 0
    for name in ("times", "W", "Y", "X", "exit_time"):
        b1 = open(workdir / "d1" / "paths" / f"{name}.npy", "rb").read()
        b2 = open(workdir / "d2" / "paths" / f"{name}.npy", "rb").read()
        assert b1 == b2


def test_unknown_flag_exits_one(workdir, capsys):
    assert main(["eve", "project", "--in", "rho.csv", "--frobnicate"]) == 1


def test_missing_file_exits_one(workdir):
    assert main(["eve", "project", "--in", "nope.csv"]) == 1


def test_malformed_config_exits_one_and_names_field(workdir, capsys):
    with open(workdir / "bad.json", "w") as fh:
        json.dump({"dt": 0.01, "horizon": 1.0}, fh)   # n_paths missing
    code = main(["sim", "run", "--model", "model.json", "--config", "bad.json"])
    assert code == 1
    assert "n_paths" in capsys.readouterr().err


# (file, path to the JSON object, key dropped from it); at the parent every
# case raised an uncaught KeyError out of main.
_MISSING_KEY_CASES = [
    ("model.json", ("kappa",), "scale"),
    ("model.json", ("domain",), "upper"),
    ("measure.json", (), "atoms"),
    ("selection.json", ("functions", 0), "v"),
]


@pytest.mark.parametrize("name, path, key", _MISSING_KEY_CASES)
def test_missing_json_key_exits_one_and_names_it(workdir, capsys, name, path, key):
    nu = SpectralMeasure([0.3, 1.1], [0.6, 0.4], [0.0])
    sel = EigenfunctionSelection((ExpEigenfunction([0.5], [0.0]),
                                  ExpEigenfunction([-0.8], [0.0])), [0.0])
    files = {"model.json": json.load(open(workdir / "model.json")),
             "measure.json": nu.to_json(), "selection.json": sel.to_json()}
    obj = files[name]
    for step in path:
        obj = obj[step]
    del obj[key]
    for fname, data in files.items():
        with open(workdir / fname, "w") as fh:
            json.dump(data, fh)
    argv = (["sim", "run", "--model", "model.json", "--config", "simcfg.json"]
            if name == "model.json" else
            ["spectral", "evaluate", "--measure", "measure.json", "--selection",
             "selection.json", "--t-grid", "0:1:3", "--y", "0.1"])
    assert main(argv + ["--out", "o"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert f"missing field '{key}'" in err


@pytest.mark.parametrize("d_Wperp", [0, 3])
def test_wperp_dimension_other_than_d_B_exits_one(workdir, capsys, d_Wperp):
    data = json.load(open(workdir / "model.json"))
    data["d_Wperp"] = d_Wperp
    with open(workdir / "wperp.json", "w") as fh:
        json.dump(data, fh)
    assert main(["sim", "run", "--model", "wperp.json", "--config", "simcfg.json",
                 "--out", "o"]) == 1
    assert f"d_Wperp={d_Wperp} must equal d_B=1" in capsys.readouterr().err


def test_numerical_failure_exits_two(workdir):
    # gamma < 1 with a large Sharpe slope blows the Riccati solution up.
    blow = affine.AffineSpec(M=[[0.0]], w=[0.1], L=[4.0], Lambda=[4.0],
                             lambda0=0.0, N=[[0.0]], c=[0.0], H=[0.0], h0=0.0)
    with open(workdir / "blow.json", "w") as fh:
        json.dump(blow.to_json(), fh)
    code = main(["affine", "solve", "--spec", "blow.json", "--gamma", "0.5",
                 "--p", "0.0", "--horizon", "3.0", "--method", "numeric"])
    assert code == 2


def test_singular_sigma_exits_two(workdir, capsys):
    # A rank-deficient sigma raises SingularModelError: a numerical failure,
    # not bad input.
    from fpplab.model import ConstantField, ModelSpec
    model = ModelSpec.load(workdir / "model.json")
    replace(model, sigma=ConstantField(np.diag([1.0, 0.0]))).save(workdir / "singular.json")
    code = main(["sim", "run", "--model", "singular.json", "--config", "simcfg.json",
                 "--strategy", "affine-optimal", "--affine", "aspec.json",
                 "--gamma", "2.0", "--p", "0.25", "--horizon", "0.5",
                 "--y0", "1.0", "--out", "os"])
    assert code == 2
    assert "numerical failure" in capsys.readouterr().err


def test_rank_deficient_grid_sigma_exits_two(workdir, capsys):
    # The tabulated sigma has rank 1 for y >= 1; the run must not proceed on
    # a pseudoinverse Sharpe ratio.
    make_rank_deficient_grid_model().save(workdir / "rank1.json")
    code = main(["sim", "run", "--model", "rank1.json", "--config", "simcfg.json",
                 "--y0", "1.5", "--out", "or"])
    assert code == 2
    err = capsys.readouterr().err
    assert "numerical failure" in err and "y=[1.5]" in err


def test_help_lists_flags(workdir, capsys):
    assert main(["affine", "solve", "--help"]) == 0
    out = capsys.readouterr().out
    for flag in ("--spec", "--gamma", "--p", "--horizon", "--direction",
                 "--method", "--grid-points", "--out"):
        assert flag in out


def test_env_var_output_directory(workdir, monkeypatch):
    monkeypatch.setenv("FPPLAB_OUT", str(workdir / "envout"))
    assert main(["eve", "project", "--in", "rho.csv"]) == 0
    assert (workdir / "envout" / "eve_projection.json").exists()


def _sha256(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


def _written_files(out_dir):
    return sorted(os.path.relpath(os.path.join(root, name), out_dir)
                  for root, _, names in os.walk(out_dir) for name in names
                  if name != "manifest.json")


_RISK = ["--gamma", "2.0", "--p", "0.25"]
_SUBCOMMANDS = {
    "eve project": ["--in", "rho.csv"],
    "eve select-p": ["--in", "rho.csv"],
    "affine solve": ["--spec", "aspec.json", *_RISK, "--horizon", "1.0"],
    "affine portfolio": ["--spec", "aspec.json", "--model", "model.json", *_RISK,
                         "--horizon", "1.0", "--t", "0.4", "--y", "0.9"],
    "spectral invert": ["--in", "samples.csv", "--atoms", "2"],
    "spectral evaluate": ["--measure", "measure.json", "--selection", "selection.json",
                          "--t-grid", "0:1:3", "--y", "0.1;0.4"],
    "spectral eigenfn-1d": ["--model", "model.json", *_RISK, "--zeta", "0.0", "--y0", "1.0",
                            "--slope", "0.2", "--grid", "0.2:2.0:19"],
    "spectral radial": ["--zeta", "0", "--k", "3", "--r-max", "8"],
    "sim run": ["--model", "model.json", "--config", "simcfg.json", "--y0", "1.0", "--csv"],
    "sim feynman-kac": ["--model", "model.json", "--config", "simcfg.json", *_RISK,
                        "--t", "0.5", "--y", "1.0", "--affine", "aspec.json"],
    "verify residual": ["--which", "linear", "--model", "model.json",
                        "--affine", "aspec.json", *_RISK],
    "verify martingale": ["--paths", "pre/paths", "--fpp", "fpp.json"],
}


@pytest.mark.parametrize("command, flag, value", [
    ("affine solve", "--grid-points", "0"),
    ("verify residual", "--t-points", "0"),
    ("verify residual", "--y-points", "0"),
    ("verify martingale", "--buckets", "0"),
    ("verify martingale", "--buckets", "-3"),
])
def test_counts_below_one_exit_one(workdir, capsys, command, flag, value):
    argv = [*command.split(), *_SUBCOMMANDS[command], flag, value, "--out", "o14"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"error: argument {flag}" in err and "Traceback" not in err


@pytest.mark.parametrize("command", list(_SUBCOMMANDS))
def test_manifest_lists_every_file_the_run_wrote(workdir, command):
    if command == "spectral evaluate":
        nu = SpectralMeasure([0.3, 1.1], [0.6, 0.4], [0.0])
        sel = EigenfunctionSelection((ExpEigenfunction([0.5], [0.0]),
                                      ExpEigenfunction([-0.8], [0.0])), [0.0])
        for name, obj in (("measure.json", nu), ("selection.json", sel)):
            with open(workdir / name, "w") as fh:
                json.dump(obj.to_json(), fh)
    if command == "verify martingale":
        assert main(["sim", "run", "--model", "model.json", "--config", "simcfg.json",
                     "--out", "pre"]) == 0
    assert main([*command.split(), *_SUBCOMMANDS[command], "--out", "out"]) == 0
    manifest = json.load(open(workdir / "out" / "manifest.json"))
    assert sorted(manifest["outputs"]) == _written_files(workdir / "out")
    assert manifest["outputs"]
    inputs = [v for v in _SUBCOMMANDS[command] if os.path.isfile(workdir / v)]
    if command == "verify martingale":
        inputs.append("pre/paths/meta.json")   # the bundle the verdict certifies
    assert manifest["config_hashes"] == {p: _sha256(workdir / p) for p in inputs}
    assert manifest["seed"] == (9 if command.startswith("sim") else None)


def test_manifest_hashes_inputs_sharing_a_basename(workdir):
    os.mkdir(workdir / "b")
    os.replace(workdir / "model.json", workdir / "b" / "cfg.json")
    os.replace(workdir / "simcfg.json", workdir / "cfg.json")
    assert main(["sim", "run", "--model", "b/cfg.json", "--config", "cfg.json",
                 "--out", "o13"]) == 0
    hashes = json.load(open(workdir / "o13" / "manifest.json"))["config_hashes"]
    assert hashes == {"b/cfg.json": _sha256(workdir / "b" / "cfg.json"),
                      "cfg.json": _sha256(workdir / "cfg.json")}


# Option strings and defaults of every subcommand; REQUIRED marks a required
# option.  A flag lost or changed while the CLI is restructured fails here.
REQUIRED = "<required>"
_SURFACE = {
    "eve project": {"--in": REQUIRED, "--out": None},
    "eve select-p": {"--in": REQUIRED, "--norm": "all", "--out": None},
    "affine solve": {"--spec": REQUIRED, "--gamma": REQUIRED, "--p": 0.0,
                     "--horizon": REQUIRED, "--direction": "forward", "--method": "auto",
                     "--grid-points": 101, "--out": None},
    "affine portfolio": {"--spec": REQUIRED, "--model": REQUIRED, "--gamma": REQUIRED,
                         "--p": 0.0, "--horizon": REQUIRED, "--direction": "forward",
                         "--t": REQUIRED, "--y": REQUIRED, "--out": None},
    "spectral invert": {"--in": REQUIRED, "--atoms": REQUIRED, "--y0": None, "--out": None},
    "spectral evaluate": {"--measure": REQUIRED, "--selection": REQUIRED,
                          "--t-grid": REQUIRED, "--y": REQUIRED, "--out": None},
    "spectral eigenfn-1d": {"--model": REQUIRED, "--gamma": REQUIRED, "--p": 0.0,
                            "--zeta": REQUIRED, "--y0": REQUIRED, "--slope": REQUIRED,
                            "--grid": REQUIRED, "--out": None},
    "spectral radial": {"--zeta": REQUIRED, "--k": REQUIRED, "--r-max": REQUIRED,
                        "--potential": "const:0", "--out": None},
    "sim run": {"--model": REQUIRED, "--config": REQUIRED, "--strategy": "zero",
                "--affine": None, "--gamma": 2.0, "--p": 0.0, "--horizon": 1.0,
                "--direction": "forward", "--delta": 0.0, "--x0": 1.0, "--y0": None,
                "--seed": None, "--paths": None, "--dt": None, "--csv": False,
                "--out": None},
    "sim feynman-kac": {"--model": REQUIRED, "--config": REQUIRED, "--gamma": REQUIRED,
                        "--p": 0.0, "--t": REQUIRED, "--y": REQUIRED, "--affine": None,
                        "--seed": None, "--paths": None, "--dt": None, "--out": None},
    "verify residual": {"--which": REQUIRED, "--model": REQUIRED, "--affine": REQUIRED,
                        "--gamma": REQUIRED, "--p": 0.0, "--horizon": 1.0,
                        "--direction": "forward", "--t-points": 5, "--y-points": 5,
                        "--tol-step": 0.001, "--out": None},
    "verify martingale": {"--paths": REQUIRED, "--fpp": REQUIRED, "--buckets": 10,
                          "--out": None},
}


def _leaves(parser, path=()):
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        yield " ".join(path), parser
    for action in subparsers:
        for name, sub in action.choices.items():
            yield from _leaves(sub, path + (name,))


def test_cli_surface_is_pinned():
    leaves = dict(_leaves(build_parser()))
    assert set(leaves) == set(_SURFACE) == set(_SUBCOMMANDS)
    for name, leaf in leaves.items():
        assert callable(leaf.get_default("run")), name
        options = {a.option_strings[0]: REQUIRED if a.required else a.default
                   for a in leaf._actions
                   if a.option_strings and not isinstance(a, argparse._HelpAction)}
        assert "--out" in options, name
        assert options == _SURFACE[name], name
