"""Command-line front end.

Groups and subcommands:

    eve      project, select-p
    affine   solve, portfolio
    spectral evaluate, invert, eigenfn-1d, radial
    sim      run, feynman-kac
    verify   residual, martingale

Configs are JSON, numeric series are CSV.  Each subcommand is one function
``(args, out_dir) -> (inputs, outputs, seed)``; ``main`` resolves the output
directory, runs it and writes manifest.json there.  The manifest records the
command (shell-quoted, so ``shlex.split`` gives back its arguments), a SHA-256
of every input keyed by its path as given on the command line, the seed, the
version, and every file the run wrote by its path relative to the output
directory.  Numeric outputs are deterministic for fixed seeds; the manifest
itself carries a wall-clock timestamp and is excluded from byte-level
comparisons.

Exit codes: 0 success, 1 validation/configuration failure, 2 numerical
failure.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shlex
import sys
import time
from dataclasses import replace

import numpy as np

from . import __version__, affine, eve, spectral, verify
from . import sim as simmod
from .errors import ConfigError, InsufficientSampleError, NumericalError
from .model import ModelSpec, RiskParams, generator_coefficients, require

ENV_OUT_DIR = "FPPLAB_OUT"


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; the contract here is exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


# ---------------------------------------------------------------------------
# Small IO helpers
# ---------------------------------------------------------------------------

def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_json(out_dir, name, payload):
    path = os.path.join(out_dir, name)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    return path


def _write_csv(out_dir, name, header, rows):
    path = os.path.join(out_dir, name)
    np.savetxt(path, np.asarray(rows, dtype=float), delimiter=",",
               header=header, comments="", fmt="%.17g")
    return path


def _read_matrix(path):
    if path.endswith(".json"):
        with open(path) as fh:
            return np.asarray(json.load(fh), dtype=float)
    return np.atleast_2d(np.loadtxt(path, delimiter=",", comments="#"))


def _read_series(path):
    """CSV with columns (t, u); a non-numeric first row is treated as header."""
    try:
        arr = np.loadtxt(path, delimiter=",", comments="#")
    except ValueError:
        arr = np.loadtxt(path, delimiter=",", comments="#", skiprows=1)
    arr = np.atleast_2d(arr)
    if arr.shape[1] < 2:
        raise ConfigError(f"{path}: need columns (t, u)")
    return arr[:, :2]


def _positive_int(text):
    """argparse type of a count: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not a positive integer")
    return value


def _parse_floats(text):
    return np.array([float(v) for v in text.split(",")], dtype=float)


def _parse_grid(text):
    try:
        lo, hi, n = text.split(":")
        return np.linspace(float(lo), float(hi), int(n))
    except ValueError:
        raise ConfigError(f"grid must be 'lo:hi:n', got '{text}'")


def _load_affine_spec(path, model):
    """The affine spec at ``path``, refused unless it has the model's factors."""
    spec = affine.AffineSpec.load(path)
    if spec.k != model.k:
        raise ConfigError(f"affine spec {path} has k={spec.k} factors; "
                          f"the model has k={model.k}")
    return spec


def _risk_params(args):
    return RiskParams(gamma=args.gamma, p=args.p)


def _solve(args, spec):
    return affine.solve_riccati(spec, _risk_params(args), args.horizon, args.direction)


def _sim_config(args):
    """The config file with the --seed/--paths/--dt overrides that were given."""
    overrides = {"seed": args.seed, "n_paths": args.paths, "dt": args.dt}
    return replace(simmod.SimulationConfig.load(args.config),
                   **{k: v for k, v in overrides.items() if v is not None})


def _load_fpp_bundle(path):
    """JSON {affine_spec, gamma, p, horizon, direction} -> (solution, rp)."""
    with open(path) as fh:
        data = json.load(fh)
    require(data, ["affine_spec", "gamma", "p", "horizon"], "fpp file")
    spec = affine.AffineSpec.from_json(data["affine_spec"])
    rp = RiskParams(gamma=float(data["gamma"]), p=float(data["p"]))
    sol = affine.solve_riccati(spec, rp, float(data["horizon"]),
                               data.get("direction", affine.FORWARD))
    return sol, rp


def _make_strategy(args, model):
    name = args.strategy
    if name == "zero":
        base = simmod.ZeroStrategy(model.n)
    elif name.startswith("constant:"):
        base = simmod.ConstantStrategy(_parse_floats(name.split(":", 1)[1]))
    elif name == "affine-optimal":
        if not args.affine:
            raise ConfigError("affine-optimal strategy requires --affine")
        sol = _solve(args, _load_affine_spec(args.affine, model))
        base = simmod.OptimalStrategy(sol, model, _risk_params(args))
    else:
        raise ConfigError(f"unknown strategy '{name}'")
    return simmod.PerturbedStrategy(base, args.delta) if args.delta else base


# ---------------------------------------------------------------------------
# Subcommands: (args, out_dir) -> (inputs, outputs, seed)
# ---------------------------------------------------------------------------

def eve_project(args, out_dir):
    rho = _read_matrix(args.infile)
    payload = eve.project_eve(rho).to_json()
    payload["p"] = {norm: eve.select_p(rho, norm) for norm in eve.P_NORMS}
    path = _write_json(out_dir, "eve_projection.json", payload)
    print(json.dumps(payload["p"], sort_keys=True))
    return [args.infile], [path], None


def eve_select_p(args, out_dir):
    rho = _read_matrix(args.infile)
    norms = eve.P_NORMS if args.norm == "all" else (args.norm,)
    payload = {norm: eve.select_p(rho, norm) for norm in norms}
    path = _write_json(out_dir, "eve_p.json", payload)
    print(json.dumps(payload, sort_keys=True))
    return [args.infile], [path], None


def affine_solve(args, out_dir):
    spec = affine.AffineSpec.load(args.spec)
    solve = {"closed-form": affine.solve_riccati_closed_form,
             "numeric": affine.solve_riccati_numeric}.get(args.method, affine.solve_riccati)
    sol = solve(spec, _risk_params(args), args.horizon, args.direction)
    ts = np.linspace(0.0, args.horizon, args.grid_points)
    z = sol.state(ts)
    header = "t," + ",".join(f"Phi{i}" for i in range(spec.k)) + ",Theta"
    csv_path = _write_csv(out_dir, "riccati.csv", header, np.column_stack([ts, z]))
    table = {"method": sol.method, "direction": sol.direction,
             "horizon": sol.horizon, "components": sol.component_table(),
             "solver": sol.solver, "fallback_reason": sol.fallback_reason}
    json_path = _write_json(out_dir, "riccati_components.json", table)
    print(f"method={sol.method} Phi(0)={z[0, :-1]} Theta(0)={z[0, -1]:.12g}")
    return [args.spec], [csv_path, json_path], None


def affine_portfolio(args, out_dir):
    model = ModelSpec.load(args.model)
    sol = _solve(args, _load_affine_spec(args.spec, model))
    y = _parse_floats(args.y)
    pi = affine.optimal_portfolio_affine(sol, model, _risk_params(args), args.t, y)
    payload = {"t": args.t, "y": y.tolist(), "pi": pi.tolist()}
    path = _write_json(out_dir, "portfolio.json", payload)
    print(json.dumps(payload))
    return [args.spec, args.model], [path], None


def spectral_invert(args, out_dir):
    samples = _read_series(args.infile)
    y0 = _parse_floats(args.y0) if args.y0 else np.array([0.0])
    result = spectral.invert_laplace_discrete(samples, args.atoms, y0=y0)
    path = _write_json(out_dir, "measure.json", result.to_json())
    print(f"atoms={result.m_effective} residual={result.fit_residual:.3e}")
    return [args.infile], [path], None


def spectral_evaluate(args, out_dir):
    with open(args.measure) as fh:
        nu = spectral.SpectralMeasure.from_json(json.load(fh))
    with open(args.selection) as fh:
        sel = spectral.EigenfunctionSelection.from_json(json.load(fh))
    ts = _parse_grid(args.t_grid)
    Y = np.array([_parse_floats(v) for v in args.y.split(";")])
    u = spectral.WidderFunction(nu, sel)
    rows = [[t, *y, v] for t in ts for y, v in zip(Y, u(t, Y))]
    header = "t," + ",".join(f"y{i}" for i in range(Y.shape[1])) + ",u"
    path = _write_csv(out_dir, "widder_values.csv", header, rows)
    return [args.measure, args.selection], [path], None


def spectral_eigenfn_1d(args, out_dir):
    model = ModelSpec.load(args.model)
    gen = generator_coefficients(model, _risk_params(args))
    fn = spectral.solve_eigenfunction_1d(gen, args.zeta, args.y0_scalar, args.slope,
                                         _parse_grid(args.grid))
    path = _write_csv(out_dir, "eigenfunction.csv", "y,psi",
                      np.column_stack([fn.grid, fn.values]))
    info = {"zeta": args.zeta, "slope": args.slope,
            "positive_on_grid": fn.positive_on_grid,
            "first_sign_change": fn.first_sign_change}
    info_path = _write_json(out_dir, "eigenfunction.json", info)
    print(json.dumps(info))
    return [args.model], [path, info_path], None


def spectral_radial(args, out_dir):
    if not args.potential.startswith("const:"):
        raise ConfigError(f"unknown potential '{args.potential}' (use const:VALUE)")
    level = float(args.potential.split(":", 1)[1])
    diag = spectral.radial_ode_diagnostic(lambda r: level, args.zeta, args.k, args.r_max)
    path = _write_csv(out_dir, "radial_g0.csv", "r,g0",
                      np.column_stack([diag.r_samples, diag.g0_samples]))
    info_path = _write_json(out_dir, "radial.json", diag.to_json())
    print(json.dumps(diag.to_json()))
    return [], [path, info_path], None


def sim_run(args, out_dir):
    model = ModelSpec.load(args.model)
    cfg = _sim_config(args)
    strategy = _make_strategy(args, model)
    y0 = _parse_floats(args.y0) if args.y0 else None
    bundle = simmod.simulate(model, cfg, strategy, x0=args.x0, y0=y0)
    bundle_dir = os.path.join(out_dir, "paths")
    outputs = bundle.save(bundle_dir)
    if args.csv:
        outputs += bundle.export_csv(bundle_dir)
    print(f"paths={bundle.n_paths} grid={bundle.n_times} -> {bundle_dir}")
    return [args.model, args.config, args.affine], outputs, cfg.seed


def sim_feynman_kac(args, out_dir):
    model = ModelSpec.load(args.model)
    cfg = _sim_config(args)
    gen = generator_coefficients(model, _risk_params(args))
    spec = _load_affine_spec(args.affine, model) if args.affine else None
    y = _parse_floats(args.y)
    h = spec.h if spec is not None else (lambda Y: np.ones(len(Y)))
    est, se = simmod.feynman_kac_estimate(gen, h, args.t, y, cfg, domain=model.domain)
    payload = {"t": args.t, "y": y.tolist(), "estimate": est, "std_error": se}
    path = _write_json(out_dir, "feynman_kac.json", payload)
    print(json.dumps(payload))
    return [args.model, args.config, args.affine], [path], cfg.seed


def verify_residual(args, out_dir):
    model = ModelSpec.load(args.model)
    sol = _solve(args, _load_affine_spec(args.affine, model))
    rp = _risk_params(args)
    t_vals = np.linspace(0.05 * args.horizon, 0.95 * args.horizon, args.t_points)
    y_grid = model.domain.interior_grid(points_per_dim=args.y_points)
    if args.which == "hjb":
        payload = verify.hjb_residual(affine.fpp_evaluator(sol, rp), model, rp, t_vals,
                                      [0.6, 1.0, 1.5], y_grid, fd_step=args.tol_step).to_json()
    else:
        payload = verify.distortion_roundtrip(sol, rp, generator_coefficients(model, rp),
                                              t_vals, y_grid,
                                              fd_step=args.tol_step).to_json()[args.which]
    path = _write_json(out_dir, f"residual_{args.which}.json", payload)
    print(json.dumps({"max_abs_residual": payload["max_abs_residual"]}))
    return [args.model, args.affine], [path], None


def verify_martingale(args, out_dir):
    bundle = simmod.PathBundle.load(args.paths_dir)
    sol, rp = _load_fpp_bundle(args.fpp)
    report = verify.martingale_test(bundle, affine.fpp_evaluator(sol, rp),
                                    n_buckets=args.buckets)
    path = _write_json(out_dir, "martingale_report.json", report.to_json())
    print(report.verdict)
    return [args.fpp, os.path.join(args.paths_dir, "meta.json")], [path], None


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------

def _add_risk(p, gamma=None):
    p.add_argument("--gamma", type=float, required=gamma is None, default=gamma,
                   help="risk aversion, in (0,inf), != 1")
    p.add_argument("--p", type=float, default=0.0, help="correlation-strength scalar in [0,1]")


def _add_horizon(p, horizon=None, help=None):
    p.add_argument("--horizon", type=float, required=horizon is None, default=horizon,
                   help=help)
    p.add_argument("--direction", choices=[affine.FORWARD, affine.BACKWARD],
                   default=affine.FORWARD)


def _add_sim_overrides(p):
    p.add_argument("--seed", type=int, help="override config seed")
    p.add_argument("--paths", type=int, help="override config n_paths")
    p.add_argument("--dt", type=float, help="override config dt")


def build_parser() -> _Parser:
    parser = _Parser(prog="fpplab", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    groups = parser.add_subparsers(dest="group", required=True)

    leaves = []

    def group(name, help):
        return groups.add_parser(name, help=help).add_subparsers(dest="subcommand",
                                                                 required=True)

    def leaf(sub, name, run, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        leaves.append(p)
        return p

    # --- eve
    sub = group("eve", "correlation projection and p choice")
    p = leaf(sub, "project", eve_project, "closest r*Q with orthonormal columns")
    p.add_argument("--in", dest="infile", required=True, help="matrix CSV/JSON")
    p = leaf(sub, "select-p", eve_select_p, "scalar p matching rho^T rho to p*I")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--norm", choices=list(eve.P_NORMS) + ["all"], default="all")

    # --- affine
    sub = group("affine", "Riccati solutions and portfolios")
    p = leaf(sub, "solve", affine_solve, "solve the Riccati system")
    p.add_argument("--spec", required=True, help="affine spec JSON")
    _add_risk(p)
    _add_horizon(p)
    p.add_argument("--method", choices=["auto", "closed-form", "numeric"], default="auto")
    p.add_argument("--grid-points", type=_positive_int, default=101)
    p = leaf(sub, "portfolio", affine_portfolio, "optimal allocation at (t, y)")
    p.add_argument("--spec", required=True)
    p.add_argument("--model", required=True, help="market model JSON")
    _add_risk(p)
    _add_horizon(p)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--y", required=True, help="comma-separated factor state")

    # --- spectral
    sub = group("spectral", "measures, eigenfunctions, inversion")
    p = leaf(sub, "invert", spectral_invert, "exponential-sum fit of a sample series")
    p.add_argument("--in", dest="infile", required=True, help="CSV with columns t,u")
    p.add_argument("--atoms", type=int, required=True)
    p.add_argument("--y0", help="normalization state, comma-separated")
    p = leaf(sub, "evaluate", spectral_evaluate, "evaluate the spectral mixture")
    p.add_argument("--measure", required=True)
    p.add_argument("--selection", required=True)
    p.add_argument("--t-grid", required=True, help="lo:hi:n")
    p.add_argument("--y", required=True, help="states, ';'-separated, each comma-separated")
    p = leaf(sub, "eigenfn-1d", spectral_eigenfn_1d, "one-factor eigenfunction by shooting")
    p.add_argument("--model", required=True)
    _add_risk(p)
    p.add_argument("--zeta", type=float, required=True)
    p.add_argument("--y0", dest="y0_scalar", type=float, required=True)
    p.add_argument("--slope", type=float, required=True)
    p.add_argument("--grid", required=True, help="lo:hi:n")
    p = leaf(sub, "radial", spectral_radial, "radial uniqueness-integral diagnostic")
    p.add_argument("--zeta", type=float, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r-max", type=float, required=True)
    p.add_argument("--potential", default="const:0", help="const:VALUE")

    # --- sim
    sub = group("sim", "path simulation and Feynman-Kac")
    p = leaf(sub, "run", sim_run, "simulate paths under a strategy")
    p.add_argument("--model", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--strategy", default="zero",
                   help="zero | constant:pi1,pi2,... | affine-optimal")
    p.add_argument("--affine", help="affine spec JSON (affine-optimal strategy)")
    _add_risk(p, gamma=2.0)
    _add_horizon(p, horizon=1.0, help="solution horizon for affine-optimal")
    p.add_argument("--delta", type=float, default=0.0,
                   help="constant shift added to every allocation")
    p.add_argument("--x0", type=float, default=1.0)
    p.add_argument("--y0", help="initial factor state, comma-separated")
    _add_sim_overrides(p)
    p.add_argument("--csv", action="store_true", help="also export CSV paths")
    p = leaf(sub, "feynman-kac", sim_feynman_kac, "potential-weighted expectation")
    p.add_argument("--model", required=True)
    p.add_argument("--config", required=True)
    _add_risk(p)
    p.add_argument("--t", type=float, required=True, help="time-to-go")
    p.add_argument("--y", required=True)
    p.add_argument("--affine", help="affine spec JSON supplying h = exp(H.y + h0)")
    _add_sim_overrides(p)

    # --- verify
    sub = group("verify", "residual and martingale reports")
    p = leaf(sub, "residual", verify_residual, "PDE residual report")
    p.add_argument("--which", choices=["hjb", "linear", "nonlinear"], required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--affine", required=True)
    _add_risk(p)
    _add_horizon(p, horizon=1.0)
    p.add_argument("--t-points", type=_positive_int, default=5)
    p.add_argument("--y-points", type=_positive_int, default=5)
    p.add_argument("--tol-step", type=float, default=1e-3, help="finite-difference step")
    p = leaf(sub, "martingale", verify_martingale, "martingale verdict for saved paths")
    p.add_argument("--paths", dest="paths_dir", required=True, help="saved bundle directory")
    p.add_argument("--fpp", required=True,
                   help="JSON {affine_spec, gamma, p, horizon, direction}")
    p.add_argument("--buckets", type=_positive_int, default=10)

    # Added last, so that usage and help list --out after each leaf's own options.
    for p in leaves:
        p.add_argument("--out", help=f"output directory (default ${ENV_OUT_DIR} or ./fpplab_out)")
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(argv)
        out_dir = args.out or os.environ.get(ENV_OUT_DIR) or "fpplab_out"
        os.makedirs(out_dir, exist_ok=True)
        inputs, outputs, seed = args.run(args, out_dir)
        _write_json(out_dir, "manifest.json", {
            "command": shlex.join(["fpplab"] + argv),
            "config_hashes": {p: _sha256(p) for p in inputs if p},
            "seed": seed, "version": __version__,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "outputs": [os.path.relpath(p, out_dir) for p in outputs]})
        return 0
    except SystemExit as exc:
        return int(exc.code or 0)
    # LinAlgError subclasses ValueError, so it is caught before bad input.
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, InsufficientSampleError, FileNotFoundError,
            json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
