import argparse
import hashlib
import json
import math
import os
import shlex
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import fpplab
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
    nu = SpectralMeasure([0.3, 1.1], [0.6, 0.4], [0.0])
    sel = EigenfunctionSelection((ExpEigenfunction([0.5], [0.0]),
                                  ExpEigenfunction([-0.8], [0.0])), [0.0])
    for name, content in (("measure.json", nu.to_json()), ("selection.json", sel.to_json())):
        with open(tmp_path / name, "w") as fh:
            json.dump(content, fh)
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


def test_non_integral_path_count_exits_one(workdir, capsys):
    with open(workdir / "frac.json", "w") as fh:
        json.dump({"dt": 0.01, "horizon": 0.5, "n_paths": 200.5}, fh)
    assert main(["sim", "run", "--model", "model.json", "--config", "frac.json",
                 "--out", "o"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert "simulation config: field 'n_paths' must be an integer" in err


# A bundle under the one-factor model of the workdir, for verify martingale.
_SIM_RUN = ["sim", "run", "--model", "model.json", "--config", "simcfg.json", "--y0", "1.0",
            "--out", "o7"]
_EIGENFN_1D = ["spectral", "eigenfn-1d", "--model", "model.json", "--gamma", "2.0", "--p",
               "0.25", "--y0", "1.0", "--grid", "0.2:2.0:19"]
_RADIAL = ["spectral", "radial", "--k", "3", "--r-max", "8"]
_EVALUATE = ["spectral", "evaluate", "--measure", "measure.json", "--selection",
             "selection.json"]
_VERIFY_MARTINGALE = ["verify", "martingale", "--paths", "o7/paths", "--fpp", "fpp.json",
                      "--out", "o8"]


@pytest.mark.parametrize("name, key, value, argv", [
    ("simcfg.json", "dt", [0.05], _SIM_RUN),
    ("simcfg.json", "horizon", "0.5", _SIM_RUN),
    ("fpp.json", "gamma", None, _VERIFY_MARTINGALE),
    ("fpp.json", "p", True, _VERIFY_MARTINGALE),
])
def test_wrongly_typed_json_number_exits_one_and_names_it(workdir, capsys, name, key, value,
                                                          argv):
    # Before the check, float() raised an uncaught TypeError on a list or
    # None and read a str or a bool as a number.  The constructors read the
    # raw values through model.reals, which names the owner and the key.
    assert main(_SIM_RUN) == 0
    data = json.load(open(workdir / name))
    (workdir / name).write_text(json.dumps({**data, key: value}))
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    what = "simulation config " if name == "simcfg.json" else ""
    assert f"error: {what}{key} must be a number, got {value!r}\n" == err


@pytest.mark.parametrize("name, key, value, argv", [
    ("simcfg.json", "dt", math.nan, _SIM_RUN),
    ("simcfg.json", "horizon", math.inf, _SIM_RUN),
    ("fpp.json", "horizon", -math.inf, _VERIFY_MARTINGALE),
], ids=["dt_nan", "horizon_inf", "fpp_horizon_minus_inf"])
def test_non_finite_json_number_exits_one_and_names_it(workdir, capsys, name, key, value,
                                                       argv):
    # json reads NaN and Infinity as floats; before the check "dt": NaN failed
    # in n_steps naming no field and "horizon": Infinity escaped as an
    # OverflowError traceback.
    assert main(_SIM_RUN) == 0
    data = json.load(open(workdir / name))
    (workdir / name).write_text(json.dumps({**data, key: value}))
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    what = "simulation config " if name == "simcfg.json" else ""
    assert f"error: {what}{key} must be finite, got {value}\n" == err


@pytest.mark.parametrize("edit, named", [
    (lambda meta: [], "path bundle meta: expected a JSON object, got list"),
    (lambda meta: {k: v for k, v in meta.items() if k != "model"},
     "path bundle meta: missing field 'model'"),
], ids=["list", "no_model"])
def test_malformed_bundle_meta_exits_one_and_names_it(workdir, capsys, edit, named):
    # Before the check, a list ended in an AttributeError traceback and a meta
    # without its model was accepted.
    assert main(_SIM_RUN) == 0
    meta_path = workdir / "o7" / "paths" / "meta.json"
    meta_path.write_text(json.dumps(edit(json.load(open(meta_path)))))
    assert main(_VERIFY_MARTINGALE) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert named in err


def test_one_factor_fpp_on_a_two_factor_bundle_exits_one(workdir, capsys):
    # Before the check, numpy's matmul core-dimension message named neither k.
    market, _ = affine.canonical_affine_market(
        M=np.diag([-0.5, -0.8]), w=[0.4, 0.5], L=[0.2, 0.15], Lambda=[0.16, 0.09],
        lambda0=0.04, H=[-0.3, 0.2], rp=RiskParams(gamma=2.0, p=0.25))
    market.save(workdir / "model2f.json")
    assert main(["sim", "run", "--model", "model2f.json", "--config", "simcfg.json",
                 "--out", "o7"]) == 0
    assert main(_VERIFY_MARTINGALE) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert "y has shape (200, 2); the FPP has k=1 factors" in err


@pytest.mark.parametrize("argv, named", [
    (["sim", "run", "--y0", "0.5"], "y0 has shape (1,)"),
    (["sim", "feynman-kac", "--gamma", "2.0", "--t", "0.5", "--y", "0.5,0.5,0.5"],
     "y has shape (3,)"),
])
def test_start_state_of_the_wrong_length_exits_one(workdir, capsys, argv, named):
    market, _ = affine.canonical_affine_market(
        M=np.diag([-0.5, -0.8]), w=[0.4, 0.5], L=[0.2, 0.15], Lambda=[0.16, 0.09],
        lambda0=0.04, H=[-0.3, 0.2], rp=RiskParams(gamma=2.0, p=0.25))
    market.save(workdir / "model2f.json")
    assert main([*argv, "--model", "model2f.json", "--config", "simcfg.json",
                 "--out", "o"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert named in err and "k=2" in err


@pytest.mark.parametrize("y", ["0.5", "0.5,0.5,0.5"])
def test_affine_portfolio_of_the_wrong_length_exits_one(workdir, capsys, y):
    # Both lengths are named, not numpy's matmul core-dimension message.
    market, spec = affine.canonical_affine_market(
        M=np.diag([-0.5, -0.8]), w=[0.4, 0.5], L=[0.2, 0.15], Lambda=[0.16, 0.09],
        lambda0=0.04, H=[-0.3, 0.2], rp=RiskParams(gamma=2.0, p=0.25))
    market.save(workdir / "model2f.json")
    (workdir / "aspec2f.json").write_text(json.dumps(spec.to_json()))
    assert main(["affine", "portfolio", "--spec", "aspec2f.json", "--model", "model2f.json",
                 "--gamma", "2.0", "--p", "0.25", "--horizon", "1.0", "--t", "0.4",
                 "--y", y, "--out", "o"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert f"y has shape ({len(y.split(','))},)" in err and "k=2" in err


@pytest.mark.parametrize("argv", [
    ["affine", "portfolio", "--spec", "aspec.json", "--horizon", "1.0", "--t", "0.4",
     "--y", "0.5,0.5"],
    ["sim", "run", "--strategy", "affine-optimal", "--affine", "aspec.json",
     "--config", "simcfg.json"],
    ["sim", "feynman-kac", "--affine", "aspec.json", "--config", "simcfg.json",
     "--t", "0.5", "--y", "0.5,0.5"],
    ["verify", "residual", "--which", "hjb", "--affine", "aspec.json"],
])
def test_one_factor_spec_on_a_two_factor_model_exits_one(workdir, capsys, argv):
    # Before the check, two of these exited 0 with Phi broadcast across both
    # factors and two exited 1 with numpy's matmul message.
    market, _ = affine.canonical_affine_market(
        M=np.diag([-0.5, -0.8]), w=[0.4, 0.5], L=[0.2, 0.15], Lambda=[0.16, 0.09],
        lambda0=0.04, H=[-0.3, 0.2], rp=RiskParams(gamma=2.0, p=0.25))
    market.save(workdir / "model2f.json")
    assert main([*argv, "--model", "model2f.json", "--gamma", "2.0", "--p", "0.25",
                 "--out", "o"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert "affine spec aspec.json has k=1 factors; the model has k=2" in err


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
    # A model file of an earlier version states d_Wperp, which must be d_B.
    data = json.load(open(workdir / "model.json"))
    data["d_Wperp"] = d_Wperp
    with open(workdir / "wperp.json", "w") as fh:
        json.dump(data, fh)
    assert main(["sim", "run", "--model", "wperp.json", "--config", "simcfg.json",
                 "--out", "o"]) == 1
    assert capsys.readouterr().err == \
        f"error: model spec: field 'd_Wperp' is {d_Wperp}, but the fields give d_B=1\n"


@pytest.mark.parametrize("n, sigma, message", [
    (3, [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]], "field 'n' is 3, but the fields give n=2"),
    (2, np.eye(3).tolist(), "mu(y) has shape (2,), not (n,) = (3,)"),
], ids=["n_above_sigma", "n_below_sigma"])
def test_a_stated_n_that_disagrees_with_sigma_exits_one(workdir, capsys, n, sigma, message):
    # With n stated and checked against nothing, the first run ended in
    # "sigma(y) rank 2 < n=3" (exit 2) and the second in numpy's "matmul:
    # Input operand 1 has a mismatch".  n is now sigma's column count.
    data = json.load(open(workdir / "model.json"))
    data.update(n=n, d_W=3, sigma={"family": "constant", "value": sigma},
                rho=[[0.5], [0.0], [0.0]])
    with open(workdir / "n.json", "w") as fh:
        json.dump(data, fh)
    assert main(["sim", "run", "--model", "n.json", "--config", "simcfg.json",
                 "--out", "o"]) == 1
    assert capsys.readouterr().err == f"error: model spec: {message}\n"


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


_AFFINE_FLAGS = ["--model", "model.json", "--affine", "aspec.json", "--gamma", "2.0"]


@pytest.mark.parametrize("argv, named", [
    (["affine", "solve", "--spec", "aspec.json", "--gamma", "2.0", "--horizon", "nan"],
     "horizon must be finite, got nan"),
    (["affine", "portfolio", "--spec", "aspec.json", "--model", "model.json", "--gamma", "2.0",
      "--horizon", "1.0", "--t", "nan", "--y", "0.9"], "t must be finite, got nan"),
    ([*_SIM_RUN, "--x0", "nan"], "x0 must be finite, got nan"),
    ([*_SIM_RUN, "--x0", "inf"], "x0 must be finite, got inf"),
    ([*_SIM_RUN, "--y0", "nan"], "y0 must be finite"),
    ([*_SIM_RUN, "--dt", "nan"], "simulation config dt must be finite, got nan"),
    (["sim", "feynman-kac", "--model", "model.json", "--config", "simcfg.json",
      "--gamma", "2.0", "--t", "nan", "--y", "0.5"], "t must be finite, got nan"),
    (["verify", "residual", "--which", "linear", *_AFFINE_FLAGS, "--tol-step", "0"], "fd_step"),
    (["verify", "residual", "--which", "nonlinear", *_AFFINE_FLAGS, "--tol-step", "0"],
     "fd_step"),
    (["verify", "residual", "--which", "hjb", *_AFFINE_FLAGS, "--tol-step", "0"], "fd_step"),
    (["verify", "residual", "--which", "hjb", *_AFFINE_FLAGS, "--tol-step", "nan"], "fd_step"),
    (["affine", "portfolio", "--spec", "aspec.json", "--model", "model.json", "--gamma", "2.0",
      "--horizon", "1.0", "--t", "0.4", "--y", "nan"], "y must be finite, got [nan]"),
    (["sim", "feynman-kac", "--model", "model.json", "--config", "simcfg.json",
      "--gamma", "2.0", "--t", "0.5", "--y", "nan"], "y must be finite, got [nan]"),
    ([*_SIM_RUN, "--delta", "nan"], "delta must be finite, got nan"),
    ([*_SIM_RUN, "--strategy", "constant:nan,0"],
     "constant strategy pi must be finite, got [nan, 0.0]"),
    ([*_EIGENFN_1D, "--zeta", "inf", "--slope", "0.2"], "zeta must be finite, got inf"),
    ([*_EIGENFN_1D, "--zeta", "0.0", "--slope", "nan"], "slope must be finite, got nan"),
    ([*_RADIAL, "--zeta", "nan"], "zeta must be finite, got nan"),
    ([*_RADIAL, "--zeta", "0", "--potential", "const:nan"],
     "potential level must be finite, got nan"),
    ([*_EVALUATE, "--t-grid", "0:1:3", "--y", "nan"], "y[0] must be finite, got [nan]"),
    ([*_EVALUATE, "--t-grid", "0:1:3", "--y", "inf"], "y[0] must be finite, got [inf]"),
    ([*_EVALUATE, "--t-grid", "nan:1:3", "--y", "0.1"],
     "--t-grid ends must be finite, got [nan, 1.0]"),
    ([*_EVALUATE, "--t-grid", "0:1:0", "--y", "0.1"],
     "--t-grid: grid needs at least 1 point, got n=0"),
    ([*_EIGENFN_1D[:-1], "0.2:2.0:0", "--zeta", "0.0", "--slope", "0.2"],
     "--grid: grid needs at least 1 point, got n=0"),
    (["affine", "solve", "--spec", "aspec.json", "--gamma", "inf", "--horizon", "1.0"],
     "gamma must be finite, got inf"),
    (["affine", "portfolio", "--spec", "aspec.json", "--model", "model.json", "--gamma", "inf",
      "--horizon", "1.0", "--t", "0.4", "--y", "0.9"], "gamma must be finite, got inf"),
], ids=["horizon_nan", "t_nan", "x0_nan", "x0_inf", "y0_nan", "dt_nan", "fk_t_nan",
        "linear_step_0", "nonlinear_step_0", "hjb_step_0", "hjb_step_nan", "portfolio_y_nan",
        "fk_y_nan", "delta_nan", "constant_nan", "zeta_inf", "slope_nan", "radial_zeta_nan",
        "potential_nan", "evaluate_y_nan", "evaluate_y_inf", "t_grid_nan", "t_grid_no_point",
        "grid_no_point", "solve_gamma_inf", "portfolio_gamma_inf"])
def test_non_finite_or_zero_flag_exits_one_and_names_it(workdir, capsys, argv, named):
    # Before the checks NaN passed every range test: these runs exited 0 with
    # NaN or inf outputs (the portfolio of y = nan among them; spectral
    # evaluate at y or t = nan or inf; gamma = inf), 2 ("numerical failure")
    # for y0, the Feynman-Kac y, delta, a constant strategy and an infinite
    # zeta, or 1 with a numpy or scipy message that names no field or the
    # wrong one ("cannot convert float NaN to integer", "`y0` must be
    # finite").  A grid of 0 points wrote a CSV with only its header
    # (--t-grid) or ended in an IndexError traceback (--grid).
    assert main([*argv, "--out", "o_bad"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert named in err


@pytest.mark.parametrize("argv, message", [
    ([*_RADIAL, "--zeta", "0", "--potential", "const:abc"],
     "--potential const:VALUE: 'abc' is not a number"),
    ([*_RADIAL, "--zeta", "0", "--potential", "const:"],
     "--potential const:VALUE: '' is not a number"),
    (["affine", "portfolio", "--spec", "aspec.json", "--model", "model.json", "--gamma", "2.0",
      "--horizon", "1.0", "--t", "0.4", "--y", "abc"], "--y: 'abc' is not a number"),
    ([*_SIM_RUN, "--y0", "x"], "--y0: 'x' is not a number"),
    ([*_SIM_RUN, "--strategy", "constant:a,b"],
     "--strategy constant:pi1,pi2,...: 'a' is not a number"),
], ids=["const_abc", "const_empty", "portfolio_y", "sim_y0", "constant_strategy"])
def test_a_flag_that_is_not_a_number_exits_one_and_names_it(workdir, capsys, argv, message):
    # float() alone said only "could not convert string to float: 'abc'".
    assert main([*argv, "--out", "o_text"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def _cli_child(*argv, timeout=60):
    """``fpplab.cli`` run in a child with a timeout, so a hang fails the test
    instead of stalling the suite."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.dirname(os.path.dirname(
        fpplab.__file__)), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "fpplab.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("r_max", ["nan", "inf"])
def test_spectral_radial_refuses_a_non_finite_r_max(workdir, r_max):
    # NaN passed the r_max <= 1 test and the ODE was then integrated to
    # 10 r_max without end.
    out = _cli_child("spectral", "radial", "--zeta", "0", "--k", "3", "--r-max", r_max,
                     "--out", "o_radial")
    assert out.returncode == 1
    assert out.stderr.startswith("error:") and f"r_max must be finite, got {r_max}" in out.stderr


def test_spectral_eigenfn_refuses_a_nan_zeta(workdir):
    # The shooting ODE with zeta = nan spun at full CPU without end.
    out = _cli_child(*_EIGENFN_1D, "--zeta", "nan", "--slope", "0.2", "--out", "o_eigen")
    assert out.returncode == 1
    assert out.stderr.startswith("error:") and "zeta must be finite, got nan" in out.stderr


@pytest.mark.parametrize("command", ["project", "select-p"])
def test_eve_refuses_a_non_finite_rho_hat(workdir, capsys, command):
    # The SVD of a rho_hat holding NaN failed to converge and the command
    # exited 2 ("numerical failure"), though the fault is in the input.
    rho = 0.6 * np.eye(2)
    rho[1, 0] = np.nan
    np.savetxt(workdir / "rho_nan.csv", rho, delimiter=",")
    assert main(["eve", command, "--in", "rho_nan.csv", "--out", "o_eve"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "rho_hat[1] must be finite, got [nan, 0.6]" in err


def test_spectral_evaluate_names_a_non_numeric_atom(workdir, capsys):
    # sorted() compared "a" with a float and ended in an uncaught TypeError.
    sel = EigenfunctionSelection((ExpEigenfunction([0.5], [0.0]),
                                  ExpEigenfunction([-0.8], [0.0])), [0.0])
    with open(workdir / "selection.json", "w") as fh:
        json.dump(sel.to_json(), fh)
    with open(workdir / "measure.json", "w") as fh:
        json.dump({"y0": [0.0], "atoms": [{"zeta": 0.3, "weight": 0.6},
                                          {"zeta": "a", "weight": 0.4}]}, fh)
    assert main(["spectral", "evaluate", "--measure", "measure.json",
                 "--selection", "selection.json", "--t-grid", "0:1:3",
                 "--y", "0.1", "--out", "o_atom"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert "spectral measure atom zeta must be a number, got 'a'" in err


@pytest.mark.parametrize("name, data, named", [
    ("measure.json", {"y0": [0.0], "atoms": 3}, "spectral measure: field 'atoms' must be a list"),
    ("selection.json", {"y0": [0.0], "functions": 3},
     "eigenfunction selection: field 'functions' must be a list"),
], ids=["atoms", "functions"])
def test_spectral_evaluate_names_a_field_that_is_not_a_list(workdir, capsys, name, data, named):
    # Iterating the number ended in an uncaught "'int' object is not iterable".
    nu = SpectralMeasure([0.3, 1.1], [0.6, 0.4], [0.0])
    sel = EigenfunctionSelection((ExpEigenfunction([0.5], [0.0]),
                                  ExpEigenfunction([-0.8], [0.0])), [0.0])
    files = {"measure.json": nu.to_json(), "selection.json": sel.to_json(), name: data}
    for fname, content in files.items():
        with open(workdir / fname, "w") as fh:
            json.dump(content, fh)
    assert main(["spectral", "evaluate", "--measure", "measure.json",
                 "--selection", "selection.json", "--t-grid", "0:1:3",
                 "--y", "0.1", "--out", "o_list"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert named in err


# Each eigenfunction reads the selection's y0 before the selection does, so
# the first one names it.
@pytest.mark.parametrize("name, y0, named", [
    ("measure.json", "abc", "spectral measure y0 must be a number or a rectangular list of "
                            "numbers, got 'abc'"),
    ("measure.json", [float("nan")], "spectral measure y0 must be finite, got [nan]"),
    ("selection.json", "abc", "exp eigenfunction y0 must be a number or a rectangular list "
                              "of numbers, got 'abc'"),
    ("selection.json", [0.0, "abc"], "exp eigenfunction y0 must be a number or a rectangular "
                                     "list of numbers, got [0.0, 'abc']"),
], ids=["measure-string", "measure-nan", "selection-string", "selection-entry"])
def test_spectral_evaluate_names_a_y0_that_is_not_finite_numbers(workdir, capsys, name, y0,
                                                                 named):
    # numpy's "could not convert string to float" named neither file nor field.
    nu = SpectralMeasure([0.3, 1.1], [0.6, 0.4], [0.0])
    sel = EigenfunctionSelection((ExpEigenfunction([0.5], [0.0]),
                                  ExpEigenfunction([-0.8], [0.0])), [0.0])
    files = {"measure.json": nu.to_json(), "selection.json": sel.to_json()}
    files[name]["y0"] = y0
    for fname, content in files.items():
        with open(workdir / fname, "w") as fh:
            json.dump(content, fh)
    assert main(["spectral", "evaluate", "--measure", "measure.json",
                 "--selection", "selection.json", "--t-grid", "0:1:3",
                 "--y", "0.1", "--out", "o_y0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert f"error: {named}\n" == err


def test_constant_strategy_of_the_wrong_width_exits_one_and_names_it(workdir, capsys):
    # Two fractions on a three-stock market ended in numpy's "matmul: ... core
    # dimension" message, which names neither the strategy nor n.
    market, _ = affine.canonical_affine_market(
        M=np.diag([-0.5, -0.8]), w=[0.4, 0.5], L=[0.2, 0.15], Lambda=[0.16, 0.09],
        lambda0=0.04, H=[-0.3, 0.2], rp=RiskParams(gamma=2.0, p=0.25))
    assert market.n == 3
    market.save(workdir / "model3.json")
    assert main(["sim", "run", "--model", "model3.json", "--config", "simcfg.json",
                 "--strategy", "constant:0.2,0.1", "--y0", "0.5,0.5", "--out", "o_width"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert ("strategy 'constant' gave allocations of shape (200, 2) for 200 states; "
            "the model has n=3 stocks") in err


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


# ---------------------------------------------------------------------------
# Every number through model.reals
# ---------------------------------------------------------------------------

def _write_edited(workdir, name, path, value):
    """Write ``bad_<name>``: the JSON file ``name`` with the entry at ``path``
    (keys and list indices) replaced by ``value``."""
    data = json.load(open(workdir / name))
    *parents, last = path
    node = data
    for key in parents:
        node = node[key]
    node[last] = value
    (workdir / f"bad_{name}").write_text(json.dumps(data))


_BAD_SIM_RUN = ["sim", "run", "--model", "bad_model.json", "--config", "simcfg.json",
                "--y0", "1.0"]
_BAD_AFFINE_SOLVE = ["affine", "solve", "--spec", "bad_aspec.json", "--gamma", "2.0",
                     "--horizon", "1.0"]
_BAD_EVALUATE = ["spectral", "evaluate", "--measure", "measure.json", "--selection",
                 "bad_selection.json", "--t-grid", "0:1:3", "--y", "0.1"]
_STRING = "must be a number or a rectangular list of numbers, got"


@pytest.mark.parametrize("name, path, value, argv, named", [
    ("model.json", ("domain", "lower"), 3, _BAD_SIM_RUN,
     "domain: field 'lower' must be a list"),
    ("model.json", ("domain", "lower", 0), math.nan, _BAD_SIM_RUN,
     "domain lower must be finite, got nan"),
    ("model.json", ("rho", 1, 0), None, _BAD_SIM_RUN, f"model spec rho {_STRING} [[0.5], [None]]"),
    ("model.json", ("sigma", "value", 0, 0), math.nan, _BAD_SIM_RUN,
     "model spec sigma: constant field value[0] must be finite, got [nan, 0.0]"),
    ("model.json", ("alpha", "offset", 0), math.nan, _BAD_SIM_RUN,
     "model spec alpha: affine field offset must be finite, got [nan]"),
    ("model.json", ("kappa", "scale", 0), math.nan, _BAD_SIM_RUN,
     "model spec kappa: sqrt_diag field scale must be finite, got [nan]"),
    ("model.json", ("rho",), "abc", _BAD_SIM_RUN, f"model spec rho {_STRING} 'abc'"),
    ("model.json", ("sigma", "value"), "x", _BAD_SIM_RUN,
     f"model spec sigma: constant field value {_STRING} 'x'"),
    ("aspec.json", ("w", 0), math.nan, _BAD_AFFINE_SOLVE,
     "affine spec w must be finite, got [nan]"),
    ("aspec.json", ("h0",), "abc", _BAD_AFFINE_SOLVE, "affine spec h0 must be a number, got 'abc'"),
    ("selection.json", ("functions", 0, "v", 0), math.nan, _BAD_EVALUATE,
     "exp eigenfunction v must be finite, got [nan]"),
    ("selection.json", ("functions", 0, "v"), "abc", _BAD_EVALUATE,
     f"exp eigenfunction v {_STRING} 'abc'"),
], ids=["domain_not_a_list", "domain_nan", "rho_null", "sigma_nan", "alpha_offset_nan",
        "kappa_scale_nan", "rho_string", "field_value_string", "affine_w_nan",
        "affine_h0_string", "eigenfunction_v_nan", "eigenfunction_v_string"])
def test_a_bad_number_in_a_file_exits_one_and_names_its_field(workdir, capsys, name, path,
                                                              value, argv, named):
    # Before every constructor read its numbers through model.reals these
    # ended in a TypeError traceback (lower: 3), exited 0 with NaN output
    # (domain, w, v), exited 2 with "SVD did not converge" or "non-finite
    # value in path update" (rho, sigma, alpha, kappa), or exited 1 with
    # numpy's "could not convert string to float", which names no field.
    _write_edited(workdir, name, path, value)
    assert main([*argv, "--out", "o_bad"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert named in err


@pytest.mark.parametrize("value, method", [(None, "auto"), (math.nan, "numeric")],
                         ids=["null_auto", "nan_numeric"])
def test_affine_solve_refuses_a_bad_m_at_once(workdir, value, method):
    # Both solves were still running after 20 s: the numeric Riccati solve of
    # a NaN coupling never returns.
    _write_edited(workdir, "aspec.json", ("M", 0, 0), value)
    out = _cli_child(*_BAD_AFFINE_SOLVE, "--method", method, "--out", "o_m", timeout=30)
    assert out.returncode == 1
    assert out.stderr.startswith("error:") and "Traceback" not in out.stderr
    assert "affine spec M" in out.stderr


def test_spectral_invert_refuses_a_nan_sample(workdir, capsys):
    # A NaN sample passed the positivity test and the Hankel SVD failed to
    # converge: exit 2 ("numerical failure") for bad input.
    (workdir / "nan.csv").write_text("t,u\n0,1\n0.1,nan\n0.2,0.8\n0.3,0.7\n0.4,0.6\n0.5,0.5\n")
    assert main(["spectral", "invert", "--in", "nan.csv", "--atoms", "1", "--out", "o_inv"]) == 1
    assert capsys.readouterr().err == "error: samples[1] must be finite, got [0.1, nan]\n"


# ---------------------------------------------------------------------------
# Factor states and tags
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv, named", [
    (["sim", "run", "--y0", "0.5,-3"],
     "y0 [0.5, -3.0] lies outside the domain [0, inf] x [0, inf]"),
    (["sim", "feynman-kac", "--gamma", "2.0", "--t", "0.5", "--y", "0.5,-3"],
     "y [0.5, -3.0] lies outside the domain [0, inf] x [0, inf]"),
])
def test_a_start_outside_the_domain_exits_one(workdir, capsys, argv, named):
    # Both exited 0, the paths starting at y_2 = -3 on the model [0, inf)^2.
    market, _ = affine.canonical_affine_market(
        M=np.diag([-0.5, -0.8]), w=[0.4, 0.5], L=[0.2, 0.15], Lambda=[0.16, 0.09],
        lambda0=0.04, H=[-0.3, 0.2], rp=RiskParams(gamma=2.0, p=0.25))
    market.save(workdir / "model2f.json")
    assert main([*argv, "--model", "model2f.json", "--config", "simcfg.json",
                 "--out", "o"]) == 1
    assert capsys.readouterr().err == f"error: {named}\n"


def test_a_ragged_list_of_states_exits_one_naming_y(workdir, capsys):
    # numpy's "setting an array element with a sequence" named no argument.
    assert main(["spectral", "evaluate", "--measure", "measure.json", "--selection",
                 "selection.json", "--t-grid", "0:1:3", "--y", "0.5;0.5,0.3", "--out", "o"]) == 1
    assert capsys.readouterr().err == ("error: y must be a number or a rectangular list of "
                                       "numbers, got [[0.5], [0.5, 0.3]]\n")


def test_an_affine_spec_whose_l_is_a_matrix_exits_one_naming_l(workdir, capsys):
    # An uncaught IndexError ("too many indices for array") before L was checked.
    _write_edited(workdir, "aspec.json", ("L",), [[0.2]])
    assert main([*_BAD_AFFINE_SOLVE, "--out", "o"]) == 1
    assert capsys.readouterr().err == "error: AffineSpec.L must have shape (1,)\n"


@pytest.mark.parametrize("name, path, argv, message", [
    ("model.json", ("mu", "family"), _BAD_SIM_RUN,
     "model spec mu: coefficient field: unknown family ['sqrt_affine']"),
    ("selection.json", ("functions", 0, "kind"), _BAD_EVALUATE,
     "unknown eigenfunction kind ['exp']"),
])
def test_a_tag_that_is_not_a_string_exits_one_naming_its_key(workdir, capsys, name, path, argv,
                                                             message):
    # Both ended in an uncaught TypeError: unhashable type: 'list'.
    data = json.load(open(workdir / name))
    node = data
    for key in path[:-1]:
        node = node[key]
    _write_edited(workdir, name, path, [node[path[-1]]])
    assert main([*argv, "--out", "o"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
