"""The benchmark's three workloads and the checks that certify their outputs.

Each workload has a set-up step, which turns the seed into inputs (markets,
simulation configs, sample series, files for the CLI) and is timed as
``setup_s``, and a run step, the fixed job timed as ``wall_s``.  The run step
calls only public fpplab functions, through their module attributes, so that
a traced run sees every call.  Every program call and every check is one
operation in a ``Ledger``: a raised error or a figure outside its tolerance
fails the operation and the run goes on.

Each tolerance is several times the worst figure seen at the full sizes on
the seeds listed in README.md.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from fpplab import affine, cli, eve, model, sim, spectral, verify
from fpplab.model import GeneratorCoefficients, RiskParams

RP = RiskParams(gamma=2.0, p=0.25)
CANONICAL_1F = dict(M=[[-0.5]], w=[0.4], L=[0.2], Lambda=[0.25], lambda0=0.05, H=[-0.3])
CANONICAL_2F = dict(M=[[-0.5, 0.0], [0.0, -0.8]], w=[0.4, 0.5], L=[0.2, 0.15],
                    Lambda=[0.16, 0.09], lambda0=0.04, H=[-0.3, 0.2])
# Off-diagonal coupling makes M+N non-diagonal: solve_riccati takes the
# numeric route and Theta is evaluated by quadrature.
COUPLED_2F = dict(CANONICAL_2F, M=[[-0.5, 0.1], [0.05, -0.8]])
MARKETS = {"canonical_1f": CANONICAL_1F, "canonical_2f": CANONICAL_2F,
           "coupled_2f": COUPLED_2F}

HORIZON = 1.0
Y0 = {"canonical_1f": [0.5], "canonical_2f": [0.5, 0.5], "coupled_2f": [0.5, 0.5]}
FK_T = 0.5
FK_STATES = ([0.5, 0.5], [1.0, 0.3])
CONTROL_DELTA = 0.3
X_VALS = [0.6, 1.0, 1.5]

# Tolerances.  Martingale and Feynman-Kac figures are in standard errors.
Z_MARTINGALE = 4.0      # optimal strategy: every bucket |z| below this
Z_CONTROL = 5.0         # delta = 0.3 control: some bucket |z| above this
Z_FK = 5.0              # |FK - closed form| / SE, Euler bias included
TOL_RICCATI = 1e-8
TOL_HJB = 2e-5
TOL_DISTORTION = 5e-6
TOL_PORTFOLIO = 1e-10
TOL_RICCATI_RESIDUAL = 1e-7
TOL_ATOMS = 1e-9
TOL_EIGFN = 1e-8          # relative
TOL_EXACT = 1e-12
TOL_ANCHOR = 1e-12
DIGITS_CAP = 16.0

# Accuracy figures; each workload reports 0 for those it does not compute.
FIGURES = ("affine.riccati_err", "affine.riccati_residual", "affine.anchor_err",
           "verify.hjb_max_residual", "verify.distortion_max", "verify.exact_residual",
           "verify.portfolio_residual", "verify.residual_max",
           "spectral.zeta_err", "spectral.psi_err", "spectral.eigfn_err",
           "sim.fk_bias_se", "sim.fk_abs_z", "sim.fk_se_rel",
           "verify.martingale_max_z", "verify.control_max_z", "verify.martingale_se_rel",
           "eve.projection_err", "cli.sim_run.bytes_written")

# The figures whose worst value, in digits, is the workload's accuracy_digits.
ACCURACY = {
    "mc_certify": ("sim.fk_se_rel",),
    "pde_certify": ("affine.riccati_err", "verify.residual_max", "spectral.zeta_err",
                    "spectral.psi_err", "spectral.eigfn_err"),
    "cli_pipeline": ("verify.martingale_se_rel",),
}


@dataclass(frozen=True)
class Sizes:
    mc_paths: int = 10_000
    mc_dt: float = 0.01
    mc_stride: int = 10
    fk_paths: int = 10_000
    fk_dt: float = 0.01
    riccati_points: int = 101
    hjb_t: int = 5
    hjb_y: int = 5              # points per factor dimension
    coupled_hjb_t: int = 2
    coupled_hjb_y: int = 2
    cli_paths: int = 5_000
    cli_dt: float = 0.01


FULL = Sizes()
# Small inputs for the smoke runs in test_perfbench.py.
TINY = Sizes(mc_paths=4000, mc_dt=0.02, mc_stride=5, fk_paths=2000, fk_dt=0.02,
             riccati_points=21, hjb_t=2, hjb_y=2, coupled_hjb_t=1, coupled_hjb_y=2,
             cli_paths=500, cli_dt=0.05)


def digits(err) -> float:
    """-log10 of an error figure, capped at double precision; 0 if not finite."""
    err = abs(float(err))
    if not math.isfinite(err):
        return 0.0
    return min(DIGITS_CAP, -math.log10(max(err, 10.0 ** -DIGITS_CAP)))


def accuracy_digits(workload, figures) -> float:
    errs = [figures.get(name) for name in ACCURACY[workload]]
    if any(e is None for e in errs):
        return 0.0
    return digits(max(abs(e) for e in errs))


class Ledger:
    """Operation accounting: ``failed`` counts raised errors and checks that
    came out false; nothing stops the run."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.figures: dict[str, float] = {}

    @property
    def failed(self) -> int:
        return len(self.failures)

    def call(self, name, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # counted, and the workload carries on
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")
            return None

    def check(self, name, predicate) -> bool:
        self.attempted += 1
        try:
            ok = bool(predicate())
        except Exception as exc:
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")
            return False
        if not ok:
            self.failures.append(f"{name}: outside tolerance")
        return ok

    def within(self, name, figure, fn, tol):
        """One operation: compute an error figure, record it, compare to tol."""
        value = self.call(name, fn)
        if value is not None:
            self.figures[figure] = max(self.figures.get(figure, 0.0), float(value))
            if not float(value) <= tol:
                self.failures.append(f"{name}: {float(value):.3e} > {tol:g}")
        return value


def _market(name):
    return affine.canonical_affine_market(rp=RP, **MARKETS[name])


def _max_z(report):
    return max(abs(b.z) for b in report.buckets)


def heat_generator() -> GeneratorCoefficients:
    """Generator of (1/2) d2/dy2 on R: a = 1, b = 0, P = 0."""
    return GeneratorCoefficients(
        k=1,
        a=lambda y: np.array([[1.0]]),
        b=lambda y: np.array([0.0]),
        P=lambda y: 0.0,
        a_batch=lambda Y: np.ones((np.atleast_2d(Y).shape[0], 1, 1)),
        b_batch=lambda Y: np.zeros((np.atleast_2d(Y).shape[0], 1)),
        P_batch=lambda Y: np.zeros(np.atleast_2d(Y).shape[0]))


def _seeds(seed, n):
    return [int(s) for s in np.random.default_rng(seed).integers(1, 2 ** 31, size=n)]


# ---------------------------------------------------------------------------
# mc_certify
# ---------------------------------------------------------------------------

def setup_mc(seed, sizes, workdir):
    sim_seed, *fk_seeds = _seeds(seed, 1 + len(FK_STATES))
    market, spec = _market("canonical_2f")
    return {
        "market": market, "spec": spec,
        "cfg": sim.SimulationConfig(dt=sizes.mc_dt, horizon=HORIZON, n_paths=sizes.mc_paths,
                                    seed=sim_seed, record_stride=sizes.mc_stride),
        "fk_cfgs": [sim.SimulationConfig(dt=sizes.fk_dt, horizon=HORIZON,
                                         n_paths=sizes.fk_paths, seed=s) for s in fk_seeds],
    }


def run_mc(inp, ledger, trace):
    market, spec, cfg = inp["market"], inp["spec"], inp["cfg"]
    sol = ledger.call("forward closed form", affine.solve_riccati_closed_form,
                      spec, RP, HORIZON, affine.FORWARD)
    strategy = ledger.call("optimal strategy", sim.AffineOptimalStrategy, sol, market, RP)
    U = trace.candidate("verify.V", ledger.call("fpp evaluator", affine.fpp_evaluator, sol, RP),
                        points=lambda t, x, y: np.size(x))

    bundle = ledger.call("simulate optimal", sim.simulate, market, cfg, strategy,
                         y0=Y0["canonical_2f"])
    report = ledger.call("martingale optimal", verify.martingale_test, bundle, U)
    adm = ledger.call("admissibility", sim.admissibility_check, bundle, strategy)
    ledger.check("admissible", lambda: adm.all_finite)
    ledger.within("optimal strategy martingale-consistent", "verify.martingale_max_z",
                  lambda: _max_z(report), Z_MARTINGALE)
    del bundle

    control = ledger.call("perturbed strategy", sim.PerturbedStrategy, strategy, CONTROL_DELTA)
    cbundle = ledger.call("simulate control", sim.simulate, market, cfg, control,
                          y0=Y0["canonical_2f"])
    creport = ledger.call("martingale control", verify.martingale_test, cbundle, U)
    del cbundle
    control_z = ledger.call("control max z", _max_z, creport)
    if control_z is not None:
        ledger.figures["verify.control_max_z"] = control_z
    ledger.check("delta=0.3 control rejected", lambda: control_z > Z_CONTROL)

    back = ledger.call("backward closed form", affine.solve_riccati_closed_form,
                       spec, RP, FK_T, affine.BACKWARD)
    gen = ledger.call("generator", model.generator_coefficients, market, RP)

    def h(Y):
        return np.exp(np.atleast_2d(Y) @ spec.H + spec.h0)

    zs, rels = [], []
    for y, fk_cfg in zip(FK_STATES, inp["fk_cfgs"]):
        out = ledger.call("feynman-kac", sim.feynman_kac_estimate, gen, h, FK_T, y, fk_cfg,
                          domain=market.domain)
        ref = ledger.call("closed-form u", affine.evaluate_u_affine, back, 0.0, y)
        z = ledger.within("feynman-kac within tolerance of closed form", "sim.fk_abs_z",
                          lambda: abs(out[0] - ref) / out[1], Z_FK)
        if z is not None:
            zs.append((out[0] - ref) / out[1])
            rels.append(out[1] / out[0])
    if zs:
        ledger.figures["sim.fk_bias_se"] = float(np.mean(zs))
        ledger.figures["sim.fk_se_rel"] = float(max(rels))


# ---------------------------------------------------------------------------
# pde_certify
# ---------------------------------------------------------------------------

def setup_pde(seed, sizes, workdir):
    rng = np.random.default_rng(seed)
    market, spec = _market("canonical_2f")
    cmarket, cspec = _market("coupled_2f")
    market1, spec1 = _market("canonical_1f")
    # Evaluation points move with the seed; the amount of work does not.
    y_grid = market.domain.interior_grid(points_per_dim=sizes.hjb_y)
    y_grid = y_grid + rng.uniform(-0.02, 0.02, size=y_grid.shape)
    cy_grid = cmarket.domain.interior_grid(points_per_dim=sizes.coupled_hjb_y)
    cy_grid = cy_grid + rng.uniform(-0.02, 0.02, size=cy_grid.shape)
    zetas = np.sort(np.array([rng.uniform(0.2, 0.4), rng.uniform(0.9, 1.2),
                              rng.uniform(2.2, 2.8)]))
    return {
        "market": market, "spec": spec, "cmarket": cmarket, "cspec": cspec,
        "market1": market1, "spec1": spec1,
        "ts": np.linspace(0.0, HORIZON, sizes.riccati_points),
        "t_vals": np.linspace(0.05, 0.95, sizes.hjb_t),
        "ct_vals": np.linspace(0.25, 0.75, sizes.coupled_hjb_t),
        "y_grid": y_grid, "cy_grid": cy_grid,
        "zetas": zetas, "weights": rng.uniform(0.3, 1.0, size=3),
        "sample_t": np.linspace(0.0, 1.0, 41),
        "sample_y": np.array([-0.8, -0.4, 0.0, 0.4, 0.8]),
        "eig_grid": np.linspace(-1.0, 1.0, 41),
        "heat": heat_generator(),
        "y0_1f": float(rng.uniform(0.8, 1.2)),
        "grid_1f": np.linspace(0.3, 2.0, 41),
    }


def _residual(ledger, value):
    if value is not None:
        ledger.figures["verify.residual_max"] = max(
            ledger.figures.get("verify.residual_max", 0.0), float(value))


def _hjb(ledger, name, sol, market, t_vals, y_grid, trace):
    V = trace.candidate("verify.V", lambda t, x, y: affine.evaluate_fpp(sol, RP, t, x, y),
                        points=lambda t, x, y: np.size(x))
    value = ledger.within(name, "verify.hjb_max_residual", lambda: verify.hjb_residual(
        V, market, RP, t_vals, X_VALS, y_grid).max_abs_residual, TOL_HJB)
    _residual(ledger, value)


def run_pde(inp, ledger, trace):
    market, spec, ts = inp["market"], inp["spec"], inp["ts"]
    t_vals, y_grid = inp["t_vals"], inp["y_grid"]

    # canonical_2f: closed form against the Riccati ODE, then the PDE checks.
    cf = ledger.call("closed form", affine.solve_riccati_closed_form, spec, RP, HORIZON)
    num = ledger.call("numeric", affine.solve_riccati_numeric, spec, RP, HORIZON)
    ledger.within("numeric Riccati matches closed form", "affine.riccati_err",
                  lambda: max(np.max(np.abs(num.Phi(ts) - cf.Phi(ts))),
                              np.max(np.abs(num.Theta(ts) - cf.Theta(ts)))), TOL_RICCATI)
    _hjb(ledger, "HJB residual canonical_2f", cf, market, t_vals, y_grid, trace)

    gen = ledger.call("generator", model.generator_coefficients, market, RP)
    u = trace.candidate("verify.u", lambda t, y: affine.evaluate_u_affine(cf, t, y),
                        points=lambda t, y: np.atleast_2d(y).shape[0])
    dist = ledger.call("distortion round trip", verify.distortion_roundtrip,
                       u, RP, gen, t_vals, y_grid)
    for part in ("linear", "nonlinear"):
        value = ledger.within(f"{part} distortion residual", "verify.distortion_max",
                              lambda: getattr(dist, part).max_abs_residual, TOL_DISTORTION)
        _residual(ledger, value)
    ledger.check("validate", lambda: model.validate(market, y_grid, RP).passed)

    def portfolio_residual():
        grad = verify.affine_u_value_grad(cf)
        worst = 0.0
        for t in t_vals:
            for y in y_grid:
                pi = affine.optimal_portfolio_affine(cf, market, RP, t, y)
                worst = max(worst, verify.optimal_portfolio_residual(market, RP, grad, t, y, pi))
        return worst

    ledger.within("optimal portfolio identity", "verify.portfolio_residual",
                  portfolio_residual, TOL_PORTFOLIO)

    # coupled_2f: the numeric route with Theta by quadrature.
    csol = ledger.call("coupled solve", affine.solve_riccati, inp["cspec"], RP, HORIZON)
    ledger.check("coupled takes the numeric route", lambda: csol.method == "numeric")
    ledger.within("coupled Theta anchored at h0", "affine.anchor_err",
                  lambda: abs(csol.Theta(ts)[0] - inp["cspec"].h0), TOL_ANCHOR)
    value = ledger.within("coupled Riccati residual", "affine.riccati_residual",
                          lambda: max(affine.riccati_residual(csol)), TOL_RICCATI_RESIDUAL)
    _residual(ledger, value)
    _hjb(ledger, "HJB residual coupled_2f", csol, inp["cmarket"], inp["ct_vals"],
         inp["cy_grid"], trace)

    _spectral_round_trip(inp, ledger, trace)

    # canonical_1f: psi = exp(z+ (y - y0)) is an eigenfunction of the generator
    # with zeta = (w + c) z+ + (Gamma / 2q) lambda0.
    spec1 = inp["spec1"]
    sol1 = ledger.call("1f closed form", affine.solve_riccati_closed_form, spec1, RP, HORIZON)
    gen1 = ledger.call("1f generator", model.generator_coefficients, inp["market1"], RP)

    def eig_1f():
        v = sol1.components[0].z_plus
        zeta = float((spec1.w + spec1.c)[0] * v + RP.Gamma / (2 * RP.q) * spec1.lambda0)
        y0, grid = inp["y0_1f"], inp["grid_1f"]
        fn = spectral.solve_eigenfunction_1d(gen1, zeta, y0, v, grid)
        exact = np.exp(v * (grid - y0))
        return np.max(np.abs(fn.values - exact) / exact)

    ledger.within("canonical_1f eigenfunction ODE", "spectral.eigfn_err", eig_1f, TOL_EIGFN)


def _spectral_round_trip(inp, ledger, trace):
    """3-atom Widder mixture of cosh eigenfunctions of the heat generator:
    invert the samples, recover the eigenfunctions, re-solve them by ODE."""
    y0 = np.array([0.0])
    zetas, weights = inp["zetas"], inp["weights"]
    heat = trace.generator(inp["heat"])

    def cosh_selection(zs):
        return spectral.EigenfunctionSelection(
            tuple(spectral.ExpMixEigenfunction(0.5, math.sqrt(2 * z), -math.sqrt(2 * z), y0)
                  for z in zs), y0)

    truth = spectral.WidderFunction(spectral.SpectralMeasure(zetas, weights, y0),
                                    cosh_selection(zetas))
    t = inp["sample_t"]
    series = {(float(y),): np.column_stack([t, [truth(tt, [y]) for tt in t]])
              for y in inp["sample_y"]}
    inv = ledger.call("invert laplace", spectral.invert_laplace_discrete,
                      series[(0.0,)], 3, y0=y0)
    ledger.within("atoms recovered", "spectral.zeta_err",
                  lambda: max(np.max(np.abs(inv.measure.zetas - zetas)),
                              np.max(np.abs(inv.measure.weights - weights))), TOL_ATOMS)
    rec = ledger.call("recover selection",
                      lambda: spectral.recover_selection(series, inv.measure))

    def psi_err():
        return max(abs(rec.psi(i, [y]) - math.cosh(math.sqrt(2 * z) * y))
                   for i, z in enumerate(zetas) for y in inp["sample_y"])

    ledger.within("eigenfunction values recovered", "spectral.psi_err", psi_err, TOL_ATOMS)

    def eigfn_err():
        grid = inp["eig_grid"]
        worst = 0.0
        for z in inv.measure.zetas:
            fn = spectral.solve_eigenfunction_1d(heat, float(z), 0.0, 0.0, grid)
            exact = np.cosh(math.sqrt(2 * z) * grid)
            worst = max(worst, np.max(np.abs(fn.values - exact) / exact))
        return worst

    ledger.within("cosh eigenfunction ODE", "spectral.eigfn_err", eigfn_err, TOL_EIGFN)

    def exact_residual():
        u = spectral.WidderFunction(inv.measure, cosh_selection(inv.measure.zetas))
        rep = verify.distortion_roundtrip(u, RP, heat, inp["t_vals"],
                                          inp["sample_y"].reshape(-1, 1))
        return rep.linear.max_abs_residual

    _residual(ledger, ledger.within("Widder mixture solves the heat equation",
                                    "verify.exact_residual", exact_residual, TOL_EXACT))


# ---------------------------------------------------------------------------
# cli_pipeline
# ---------------------------------------------------------------------------

def setup_cli(seed, sizes, workdir):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((3, 2)))
    rho_hat = 0.6 * q + 0.01 * rng.standard_normal((3, 2))
    rho_path = os.path.join(workdir, "rho.csv")
    np.savetxt(rho_path, rho_hat, delimiter=",")
    sim_seeds = _seeds(seed, len(MARKETS))
    legs = []
    for (name, _), sim_seed in zip(MARKETS.items(), sim_seeds):
        market, spec = _market(name)
        leg_dir = os.path.join(workdir, name)
        os.makedirs(leg_dir)
        files = {key: os.path.join(leg_dir, f"{key}.json")
                 for key in ("model", "aspec", "simcfg", "fpp")}
        market.save(files["model"])
        payloads = {
            "aspec": spec.to_json(),
            "simcfg": {"dt": sizes.cli_dt, "horizon": HORIZON, "n_paths": sizes.cli_paths,
                       "seed": sim_seed, "record_stride": 1},
            "fpp": {"affine_spec": spec.to_json(), "gamma": RP.gamma, "p": RP.p,
                    "horizon": HORIZON, "direction": affine.FORWARD},
        }
        for key, payload in payloads.items():
            with open(files[key], "w") as fh:
                json.dump(payload, fh)
        # U_0 = prefactor(x0 = 1) h(y0)^q, since Phi(0) = H and Theta(0) = h0.
        u0 = abs(float(affine.power_utility_prefactor(RP, 1.0)) * spec.h(Y0[name]) ** RP.q)
        legs.append({"name": name, "dir": leg_dir, "files": files, "spec": spec,
                     "y0": Y0[name], "u0": u0})
    return {"workdir": workdir, "rho_path": rho_path, "legs": legs}


_BUNDLE_FILES = ("times", "W", "Wperp", "B", "Y", "S", "X", "exit_time")


def _run_cli(ledger, name, argv, outputs):
    code = ledger.call(name, cli.main, argv)
    ledger.check(f"{name} exits 0 and writes its outputs",
                 lambda: code == 0 and all(os.path.isfile(p) for p in outputs))


def run_cli(inp, ledger, trace):
    risk = ["--gamma", str(RP.gamma), "--p", str(RP.p)]
    out = os.path.join(inp["workdir"], "eve")
    _run_cli(ledger, "eve project", ["eve", "project", "--in", inp["rho_path"], "--out", out],
             [os.path.join(out, "eve_projection.json"), os.path.join(out, "manifest.json")])

    def projection():
        with open(os.path.join(out, "eve_projection.json")) as fh:
            return json.load(fh)

    proj = ledger.call("read eve projection", projection)
    ledger.check("eve projection recovers r = 0.6", lambda: abs(proj["r_star"] - 0.6) <= 0.05)
    ledger.within("eve projection is orthonormal", "eve.projection_err",
                  lambda: np.max(np.abs(np.asarray(proj["Q_star"]).T @ np.asarray(proj["Q_star"])
                                        - np.eye(2))), TOL_ANCHOR)

    se_rel = []
    for leg in inp["legs"]:
        files, d, spec = leg["files"], leg["dir"], leg["spec"]
        solve_out = os.path.join(d, "solve")
        _run_cli(ledger, "affine solve",
                 ["affine", "solve", "--spec", files["aspec"], *risk,
                  "--horizon", str(HORIZON), "--out", solve_out],
                 [os.path.join(solve_out, n) for n in ("riccati.csv", "riccati_components.json")])

        def anchor_err():
            first = np.loadtxt(os.path.join(solve_out, "riccati.csv"), delimiter=",",
                               skiprows=1)[0]
            return max(np.max(np.abs(first[1:-1] - spec.H)), abs(first[-1] - spec.h0))

        ledger.within("affine solve anchored at (H, h0)", "affine.anchor_err",
                      anchor_err, TOL_ANCHOR)

        sim_out = os.path.join(d, "sim")
        paths = os.path.join(sim_out, "paths")
        _run_cli(ledger, "sim run",
                 ["sim", "run", "--model", files["model"], "--config", files["simcfg"],
                  "--strategy", "affine-optimal", "--affine", files["aspec"], *risk,
                  "--horizon", str(HORIZON), "--y0", ",".join(map(str, leg["y0"])),
                  "--out", sim_out],
                 [os.path.join(paths, f"{n}.npy") for n in _BUNDLE_FILES])
        written = sum(e.stat().st_size for e in os.scandir(paths) if e.is_file()) \
            if os.path.isdir(paths) else 0
        ledger.figures["cli.sim_run.bytes_written"] = \
            ledger.figures.get("cli.sim_run.bytes_written", 0) + written

        ver_out = os.path.join(d, "verify")
        report_path = os.path.join(ver_out, "martingale_report.json")
        _run_cli(ledger, "verify martingale",
                 ["verify", "martingale", "--paths", paths, "--fpp", files["fpp"],
                  "--out", ver_out], [report_path])

        def report_z():
            with open(report_path) as fh:
                buckets = json.load(fh)["buckets"]
            se_rel.append(max(b["std_error"] for b in buckets) / leg["u0"])
            return max(abs(b["z"]) for b in buckets)

        ledger.within(f"{leg['name']} optimal strategy martingale-consistent",
                      "verify.martingale_max_z", report_z, Z_MARTINGALE)
    if se_rel:
        ledger.figures["verify.martingale_se_rel"] = max(se_rel)


WORKLOADS = {
    "mc_certify": (setup_mc, run_mc),
    "pde_certify": (setup_pde, run_pde),
    "cli_pipeline": (setup_cli, run_cli),
}
