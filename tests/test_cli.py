import json
import os
from dataclasses import replace

import numpy as np
import pytest

from fpplab.cli import main
from fpplab.model import RiskParams
from fpplab import affine


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
    assert main(["verify", "martingale", "--paths", "o7/paths",
                 "--fpp", "fpp.json", "--out", "o8"]) == 0
    report = json.load(open(workdir / "o8" / "martingale_report.json"))
    assert report["verdict"] in ("martingale-consistent",
                                 "supermartingale-consistent")
    assert len(report["buckets"]) == 10


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
    # np.linalg.inv of a singular sigma^T sigma raises LinAlgError, a
    # ValueError subclass; it is a numerical failure, not bad input.
    from fpplab.model import ConstantField, ModelSpec
    model = ModelSpec.load(workdir / "model.json")
    replace(model, sigma=ConstantField(np.diag([1.0, 0.0]))).save(workdir / "singular.json")
    code = main(["sim", "run", "--model", "singular.json", "--config", "simcfg.json",
                 "--strategy", "affine-optimal", "--affine", "aspec.json",
                 "--gamma", "2.0", "--p", "0.25", "--horizon", "0.5",
                 "--y0", "1.0", "--out", "os"])
    assert code == 2
    assert "numerical failure" in capsys.readouterr().err


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
