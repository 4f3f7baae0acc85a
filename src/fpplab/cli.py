"""Command-line front end.

Groups and subcommands:

    eve      project, select-p
    affine   solve, portfolio
    spectral evaluate, invert, eigenfn-1d, radial
    sim      run, feynman-kac
    verify   residual, martingale

Configs are JSON, numeric series are CSV.  Every run writes a RunManifest
(manifest.json) recording command, input hashes, seed, version and outputs.
Numeric outputs are deterministic for fixed seeds; the manifest itself
carries a wall-clock timestamp and is excluded from byte-level comparisons.

Exit codes: 0 success, 1 validation/configuration failure, 2 numerical
failure.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__, affine, eve, spectral, verify
from . import sim as simmod
from .errors import (ConfigError, FppLabError, InsufficientSampleError,
                     NumericalError)
from .model import ModelSpec, RiskParams, generator_coefficients

ENV_OUT_DIR = "FPPLAB_OUT"


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; the contract here is exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


# ---------------------------------------------------------------------------
# Manifest and small IO helpers
# ---------------------------------------------------------------------------

@dataclass
class RunManifest:
    command: str
    config_hashes: dict
    seed: int | None
    version: str
    timestamp: str
    outputs: list

    def write(self, out_dir):
        path = os.path.join(out_dir, "manifest.json")
        with open(path, "w") as fh:
            json.dump(self.__dict__, fh, indent=2, sort_keys=True)
        return path


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _out_dir(args):
    out = getattr(args, "out", None) or os.environ.get(ENV_OUT_DIR) or "fpplab_out"
    os.makedirs(out, exist_ok=True)
    return out


def _manifest(args, inputs, outputs, seed=None):
    out_dir = _out_dir(args)
    manifest = RunManifest(
        command=" ".join(args._invoked),
        config_hashes={os.path.basename(p): _sha256(p) for p in inputs if p},
        seed=seed, version=__version__,
        timestamp=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        outputs=[os.path.basename(p) for p in outputs])
    manifest.write(out_dir)


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


def _parse_floats(text):
    return np.array([float(v) for v in text.split(",")], dtype=float)


def _parse_grid(text):
    try:
        lo, hi, n = text.split(":")
        return np.linspace(float(lo), float(hi), int(n))
    except ValueError:
        raise ConfigError(f"grid must be 'lo:hi:n', got '{text}'")


def _risk_params(args):
    return RiskParams(gamma=args.gamma, p=args.p)


def _load_fpp_bundle(path):
    """JSON {affine_spec, gamma, p, horizon, direction} -> (solution, rp)."""
    with open(path) as fh:
        data = json.load(fh)
    for key in ("affine_spec", "gamma", "p", "horizon"):
        if key not in data:
            raise ConfigError(f"fpp file: missing field '{key}'")
    spec = affine.AffineSpec.from_json(data["affine_spec"])
    rp = RiskParams(gamma=float(data["gamma"]), p=float(data["p"]))
    sol = affine.solve_riccati(spec, rp, float(data["horizon"]),
                               data.get("direction", affine.FORWARD))
    return sol, rp


def _make_strategy(args, model, rp=None):
    name = args.strategy
    if name == "zero":
        return simmod.ZeroStrategy(model.n)
    if name.startswith("constant:"):
        return simmod.ConstantStrategy(_parse_floats(name.split(":", 1)[1]))
    if name == "affine-optimal":
        if not args.affine:
            raise ConfigError("affine-optimal strategy requires --affine")
        spec = affine.AffineSpec.load(args.affine)
        sol = affine.solve_riccati(spec, rp, args.horizon, args.direction)
        base = simmod.AffineOptimalStrategy(sol, model, rp)
        if args.delta:
            return simmod.PerturbedStrategy(base, args.delta)
        return base
    raise ConfigError(f"unknown strategy '{name}'")


# ---------------------------------------------------------------------------
# eve group
# ---------------------------------------------------------------------------

def cmd_eve(args) -> int:
    out_dir = _out_dir(args)
    rho = _read_matrix(args.infile)
    if args.subcommand == "project":
        proj = eve.project_eve(rho)
        payload = proj.to_json()
        payload["p"] = {norm: eve.select_p(rho, norm) for norm in eve.P_NORMS}
        path = _write_json(out_dir, "eve_projection.json", payload)
        print(json.dumps(payload["p"], sort_keys=True))
        _manifest(args, [args.infile], [path])
        return 0
    # select-p
    norms = eve.P_NORMS if args.norm == "all" else (args.norm,)
    payload = {norm: eve.select_p(rho, norm) for norm in norms}
    path = _write_json(out_dir, "eve_p.json", payload)
    print(json.dumps(payload, sort_keys=True))
    _manifest(args, [args.infile], [path])
    return 0


# ---------------------------------------------------------------------------
# affine group
# ---------------------------------------------------------------------------

def cmd_affine(args) -> int:
    out_dir = _out_dir(args)
    spec = affine.AffineSpec.load(args.spec)
    rp = _risk_params(args)

    if args.subcommand == "solve":
        if args.method == "closed-form":
            sol = affine.solve_riccati_closed_form(spec, rp, args.horizon, args.direction)
        elif args.method == "numeric":
            sol = affine.solve_riccati_numeric(spec, rp, args.horizon, args.direction)
        else:
            sol = affine.solve_riccati(spec, rp, args.horizon, args.direction)
        ts = np.linspace(0.0, args.horizon, args.grid_points)
        phis = sol.Phi(ts)
        thetas = sol.Theta(ts)
        header = "t," + ",".join(f"Phi{i}" for i in range(spec.k)) + ",Theta"
        csv_path = _write_csv(out_dir, "riccati.csv", header,
                              np.column_stack([ts, phis, thetas]))
        table = {"method": sol.method, "direction": sol.direction,
                 "horizon": sol.horizon, "components": sol.component_table(),
                 "solver": sol.solver, "fallback_reason": sol.fallback_reason}
        json_path = _write_json(out_dir, "riccati_components.json", table)
        print(f"method={sol.method} Phi(0)={phis[0]} Theta(0)={thetas[0]:.12g}")
        _manifest(args, [args.spec], [csv_path, json_path])
        return 0

    # portfolio
    model = ModelSpec.load(args.model)
    sol = affine.solve_riccati(spec, rp, args.horizon, args.direction)
    y = _parse_floats(args.y)
    pi = affine.optimal_portfolio_affine(sol, model, rp, args.t, y)
    payload = {"t": args.t, "y": y.tolist(), "pi": pi.tolist()}
    path = _write_json(out_dir, "portfolio.json", payload)
    print(json.dumps(payload))
    _manifest(args, [args.spec, args.model], [path])
    return 0


# ---------------------------------------------------------------------------
# spectral group
# ---------------------------------------------------------------------------

def cmd_spectral(args) -> int:
    out_dir = _out_dir(args)

    if args.subcommand == "invert":
        samples = _read_series(args.infile)
        y0 = _parse_floats(args.y0) if args.y0 else np.array([0.0])
        result = spectral.invert_laplace_discrete(samples, args.atoms, y0=y0)
        path = _write_json(out_dir, "measure.json", result.to_json())
        print(f"atoms={result.m_effective} residual={result.fit_residual:.3e}")
        _manifest(args, [args.infile], [path])
        return 0

    if args.subcommand == "evaluate":
        with open(args.measure) as fh:
            nu = spectral.SpectralMeasure.from_json(json.load(fh))
        with open(args.selection) as fh:
            sel = spectral.EigenfunctionSelection.from_json(json.load(fh))
        ts = _parse_grid(args.t_grid)
        ys = [_parse_floats(v) for v in args.y.split(";")]
        u = spectral.WidderFunction(nu, sel)
        rows = [[t, *y, u(t, y)] for t in ts for y in ys]
        k = len(ys[0])
        header = "t," + ",".join(f"y{i}" for i in range(k)) + ",u"
        path = _write_csv(out_dir, "widder_values.csv", header, rows)
        _manifest(args, [args.measure, args.selection], [path])
        return 0

    if args.subcommand == "eigenfn-1d":
        model = ModelSpec.load(args.model)
        gen = generator_coefficients(model, _risk_params(args))
        grid = _parse_grid(args.grid)
        fn = spectral.solve_eigenfunction_1d(gen, args.zeta, args.y0_scalar,
                                             args.slope, grid)
        path = _write_csv(out_dir, "eigenfunction.csv", "y,psi",
                          np.column_stack([fn.grid, fn.values]))
        info = {"zeta": args.zeta, "slope": args.slope,
                "positive_on_grid": fn.positive_on_grid,
                "first_sign_change": fn.first_sign_change}
        info_path = _write_json(out_dir, "eigenfunction.json", info)
        print(json.dumps(info))
        _manifest(args, [args.model], [path, info_path])
        return 0

    # radial
    if args.potential.startswith("const:"):
        level = float(args.potential.split(":", 1)[1])
        potential = lambda r: level  # noqa: E731
    else:
        raise ConfigError(f"unknown potential '{args.potential}' (use const:VALUE)")
    diag = spectral.radial_ode_diagnostic(potential, args.zeta, args.k, args.r_max)
    path = _write_csv(out_dir, "radial_g0.csv", "r,g0",
                      np.column_stack([diag.r_samples, diag.g0_samples]))
    info_path = _write_json(out_dir, "radial.json", diag.to_json())
    print(json.dumps(diag.to_json()))
    _manifest(args, [], [path, info_path])
    return 0


# ---------------------------------------------------------------------------
# sim group
# ---------------------------------------------------------------------------

def cmd_sim(args) -> int:
    out_dir = _out_dir(args)
    model = ModelSpec.load(args.model)
    cfg = simmod.SimulationConfig.load(args.config)
    if args.seed is not None:
        cfg = simmod.SimulationConfig(**{**cfg.to_json(), "seed": args.seed})
    if args.paths is not None:
        cfg = simmod.SimulationConfig(**{**cfg.to_json(), "n_paths": args.paths})
    if args.dt is not None:
        cfg = simmod.SimulationConfig(**{**cfg.to_json(), "dt": args.dt})

    if args.subcommand == "run":
        rp = _risk_params(args) if args.strategy == "affine-optimal" else None
        strategy = _make_strategy(args, model, rp)
        y0 = _parse_floats(args.y0) if args.y0 else None
        bundle = simmod.simulate(model, cfg, strategy, x0=args.x0, y0=y0)
        bundle_dir = os.path.join(out_dir, "paths")
        bundle.save(bundle_dir)
        outputs = [os.path.join("paths", f"{n}.npy") for n in
                   ("times", "W", "Wperp", "B", "Y", "S", "X", "exit_time")]
        if args.csv:
            bundle.export_csv(bundle_dir)
        print(f"paths={bundle.n_paths} grid={bundle.n_times} -> {bundle_dir}")
        _manifest(args, [args.model, args.config, args.affine],
                  outputs, seed=cfg.seed)
        return 0

    # feynman-kac
    rp = _risk_params(args)
    gen = generator_coefficients(model, rp)
    spec = affine.AffineSpec.load(args.affine) if args.affine else None
    y = _parse_floats(args.y)
    if spec is not None:
        h = lambda Y: np.exp(np.atleast_2d(Y) @ spec.H + spec.h0)  # noqa: E731
    else:
        h = lambda Y: np.ones(np.atleast_2d(Y).shape[0])  # noqa: E731
    est, se = simmod.feynman_kac_estimate(gen, h, args.t, y, cfg,
                                          domain=model.domain)
    payload = {"t": args.t, "y": y.tolist(), "estimate": est, "std_error": se}
    path = _write_json(out_dir, "feynman_kac.json", payload)
    print(json.dumps(payload))
    _manifest(args, [args.model, args.config, args.affine], [path], seed=cfg.seed)
    return 0


# ---------------------------------------------------------------------------
# verify group
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    out_dir = _out_dir(args)

    if args.subcommand == "martingale":
        bundle = simmod.PathBundle.load(args.paths_dir)
        sol, rp = _load_fpp_bundle(args.fpp)
        report = verify.martingale_test(bundle, affine.fpp_evaluator(sol, rp),
                                        n_buckets=args.buckets)
        path = _write_json(out_dir, "martingale_report.json", report.to_json())
        print(report.verdict)
        _manifest(args, [args.fpp], [path])
        return 0

    # residual
    model = ModelSpec.load(args.model)
    spec = affine.AffineSpec.load(args.affine)
    rp = _risk_params(args)
    sol = affine.solve_riccati(spec, rp, args.horizon, args.direction)
    gen = generator_coefficients(model, rp)
    t_vals = np.linspace(0.05 * args.horizon, 0.95 * args.horizon, args.t_points)
    y_grid = model.domain.interior_grid(points_per_dim=args.y_points)

    if args.which == "hjb":
        V = lambda t, x, y: affine.evaluate_fpp(sol, rp, t, x, y)  # noqa: E731
        report = verify.hjb_residual(V, model, rp, t_vals, [0.6, 1.0, 1.5],
                                     y_grid, fd_step=args.tol_step)
        payload = report.to_json()
    else:
        u = lambda t, y: affine.evaluate_u_affine(sol, t, y)  # noqa: E731
        rep = verify.distortion_roundtrip(u, rp, gen, t_vals, y_grid,
                                          fd_step=args.tol_step)
        payload = rep.to_json()[args.which]
    path = _write_json(out_dir, f"residual_{args.which}.json", payload)
    print(json.dumps({"max_abs_residual": payload["max_abs_residual"]}))
    _manifest(args, [args.model, args.affine], [path])
    return 0


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------

def _add_common(p):
    p.add_argument("--out", help=f"output directory (default ${ENV_OUT_DIR} or ./fpplab_out)")


def _add_risk(p):
    p.add_argument("--gamma", type=float, required=True, help="risk aversion, in (0,inf), != 1")
    p.add_argument("--p", type=float, default=0.0, help="correlation-strength scalar in [0,1]")


def build_parser() -> _Parser:
    parser = _Parser(prog="fpplab", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    groups = parser.add_subparsers(dest="group", required=True)

    # --- eve
    g_eve = groups.add_parser("eve", help="correlation projection and p choice")
    sub = g_eve.add_subparsers(dest="subcommand", required=True)
    p = sub.add_parser("project", help="closest r*Q with orthonormal columns")
    p.add_argument("--in", dest="infile", required=True, help="matrix CSV/JSON")
    _add_common(p)
    p = sub.add_parser("select-p", help="scalar p matching rho^T rho to p*I")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--norm", choices=list(eve.P_NORMS) + ["all"], default="all")
    _add_common(p)

    # --- affine
    g_aff = groups.add_parser("affine", help="Riccati solutions and portfolios")
    sub = g_aff.add_subparsers(dest="subcommand", required=True)
    p = sub.add_parser("solve", help="solve the Riccati system")
    p.add_argument("--spec", required=True, help="affine spec JSON")
    _add_risk(p)
    p.add_argument("--horizon", type=float, required=True)
    p.add_argument("--direction", choices=[affine.FORWARD, affine.BACKWARD],
                   default=affine.FORWARD)
    p.add_argument("--method", choices=["auto", "closed-form", "numeric"], default="auto")
    p.add_argument("--grid-points", type=int, default=101)
    _add_common(p)
    p = sub.add_parser("portfolio", help="optimal allocation at (t, y)")
    p.add_argument("--spec", required=True)
    p.add_argument("--model", required=True, help="market model JSON")
    _add_risk(p)
    p.add_argument("--horizon", type=float, required=True)
    p.add_argument("--direction", choices=[affine.FORWARD, affine.BACKWARD],
                   default=affine.FORWARD)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--y", required=True, help="comma-separated factor state")
    _add_common(p)

    # --- spectral
    g_sp = groups.add_parser("spectral", help="measures, eigenfunctions, inversion")
    sub = g_sp.add_subparsers(dest="subcommand", required=True)
    p = sub.add_parser("invert", help="exponential-sum fit of a sample series")
    p.add_argument("--in", dest="infile", required=True, help="CSV with columns t,u")
    p.add_argument("--atoms", type=int, required=True)
    p.add_argument("--y0", help="normalization state, comma-separated")
    _add_common(p)
    p = sub.add_parser("evaluate", help="evaluate the spectral mixture")
    p.add_argument("--measure", required=True)
    p.add_argument("--selection", required=True)
    p.add_argument("--t-grid", required=True, help="lo:hi:n")
    p.add_argument("--y", required=True, help="states, ';'-separated, each comma-separated")
    _add_common(p)
    p = sub.add_parser("eigenfn-1d", help="one-factor eigenfunction by shooting")
    p.add_argument("--model", required=True)
    _add_risk(p)
    p.add_argument("--zeta", type=float, required=True)
    p.add_argument("--y0", dest="y0_scalar", type=float, required=True)
    p.add_argument("--slope", type=float, required=True)
    p.add_argument("--grid", required=True, help="lo:hi:n")
    _add_common(p)
    p = sub.add_parser("radial", help="radial uniqueness-integral diagnostic")
    p.add_argument("--zeta", type=float, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r-max", type=float, required=True)
    p.add_argument("--potential", default="const:0", help="const:VALUE")
    _add_common(p)

    # --- sim
    g_sim = groups.add_parser("sim", help="path simulation and Feynman-Kac")
    sub = g_sim.add_subparsers(dest="subcommand", required=True)
    p = sub.add_parser("run", help="simulate paths under a strategy")
    p.add_argument("--model", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--strategy", default="zero",
                   help="zero | constant:pi1,pi2,... | affine-optimal")
    p.add_argument("--affine", help="affine spec JSON (affine-optimal strategy)")
    p.add_argument("--gamma", type=float, default=2.0)
    p.add_argument("--p", type=float, default=0.0)
    p.add_argument("--horizon", type=float, default=1.0,
                   help="solution horizon for affine-optimal")
    p.add_argument("--direction", choices=[affine.FORWARD, affine.BACKWARD],
                   default=affine.FORWARD)
    p.add_argument("--delta", type=float, default=0.0,
                   help="constant shift added to every allocation")
    p.add_argument("--x0", type=float, default=1.0)
    p.add_argument("--y0", help="initial factor state, comma-separated")
    p.add_argument("--seed", type=int, help="override config seed")
    p.add_argument("--paths", type=int, help="override config n_paths")
    p.add_argument("--dt", type=float, help="override config dt")
    p.add_argument("--csv", action="store_true", help="also export CSV paths")
    _add_common(p)
    p = sub.add_parser("feynman-kac", help="potential-weighted expectation")
    p.add_argument("--model", required=True)
    p.add_argument("--config", required=True)
    _add_risk(p)
    p.add_argument("--t", type=float, required=True, help="time-to-go")
    p.add_argument("--y", required=True)
    p.add_argument("--affine", help="affine spec JSON supplying h = exp(H.y + h0)")
    p.add_argument("--seed", type=int)
    p.add_argument("--paths", type=int)
    p.add_argument("--dt", type=float)
    _add_common(p)

    # --- verify
    g_ver = groups.add_parser("verify", help="residual and martingale reports")
    sub = g_ver.add_subparsers(dest="subcommand", required=True)
    p = sub.add_parser("residual", help="PDE residual report")
    p.add_argument("--which", choices=["hjb", "linear", "nonlinear"], required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--affine", required=True)
    _add_risk(p)
    p.add_argument("--horizon", type=float, default=1.0)
    p.add_argument("--direction", choices=[affine.FORWARD, affine.BACKWARD],
                   default=affine.FORWARD)
    p.add_argument("--t-points", type=int, default=5)
    p.add_argument("--y-points", type=int, default=5)
    p.add_argument("--tol-step", type=float, default=1e-3, help="finite-difference step")
    _add_common(p)
    p = sub.add_parser("martingale", help="martingale verdict for saved paths")
    p.add_argument("--paths", dest="paths_dir", required=True, help="saved bundle directory")
    p.add_argument("--fpp", required=True,
                   help="JSON {affine_spec, gamma, p, horizon, direction}")
    p.add_argument("--buckets", type=int, default=10)
    _add_common(p)

    return parser


_DISPATCH = {"eve": cmd_eve, "affine": cmd_affine, "spectral": cmd_spectral,
             "sim": cmd_sim, "verify": cmd_verify}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args._invoked = ["fpplab"] + argv
        return _DISPATCH[args.group](args)
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
