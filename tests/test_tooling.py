"""Repository hygiene checks, and the rule that every JSON form is declared
once: a value's form is its fields (or declared ``params``) through
``model.plain``, a coefficient family or eigenfunction kind adds its tag."""
import ast
import inspect
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fpplab.model
import fpplab.sim
from fpplab.affine import AffineSpec
from fpplab.cli import main
from fpplab.errors import ConfigError
from fpplab.eve import EveProjection
from fpplab.model import (_FIELD_FAMILIES, AffineField, Box, CheckResult, CoefficientField,
                          ConstantField, GridField, ModelSpec, SqrtAffineField, SqrtDiagField,
                          ValidationReport)
from fpplab.sim import BOUNDARY_POLICIES, AdmissibilityReport, SimulationConfig
from fpplab.spectral import (_KINDS, EigenfunctionSelection, ExpEigenfunction,
                             ExpMixEigenfunction, InversionResult, RadialDiagnostic,
                             SpectralMeasure, TabulatedEigenfunction)
from fpplab.verify import BucketStat, DistortionReport, MartingaleReport, ResidualReport

PACKAGE = Path(fpplab.__file__).resolve().parent


def _unused_module_imports(path):
    tree = ast.parse(path.read_text())
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in bound.items() if name not in used]


def test_no_unused_module_level_imports():
    unused = [hit for path in sorted(PACKAGE.glob("*.py"))
              for hit in _unused_module_imports(path)]
    assert unused == []


def _unread_private_names(path):
    """Module-level ``_NAME = ...`` bindings that nothing in the module reads."""
    tree = ast.parse(path.read_text())
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in getattr(node, "targets", [getattr(node, "target", None)]):
                for name in ast.walk(target):
                    if (isinstance(name, ast.Name) and name.id.startswith("_")
                            and not name.id.startswith("__")):
                        bound[name.id] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{path.name}:{line} {name}" for name, line in bound.items() if name not in read]


def test_no_unread_private_module_names():
    unread = [hit for path in sorted(PACKAGE.glob("*.py"))
              for hit in _unread_private_names(path)]
    assert unread == []


def _constant_field_isinstance_calls(path):
    tree = ast.parse(path.read_text())
    hits = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            names = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node.args[1])}
            if "ConstantField" in names:
                hits.append(f"{path.name}:{node.lineno}")
    return hits


def test_only_model_asks_whether_sigma_is_constant():
    hits = [hit for path in sorted(PACKAGE.glob("*.py")) if path.name != "model.py"
            for hit in _constant_field_isinstance_calls(path)]
    assert hits == []
    assert _constant_field_isinstance_calls(PACKAGE / "model.py") != []


def _market_evaluations(path):
    """(top-level definition, line) of each call evaluating a market
    coefficient mu, sigma, alpha or kappa: ``<...>.<field>(y)``, the one-row
    view, or ``<...>.<field>.batch(Y)``."""
    hits = []
    for top in ast.parse(path.read_text()).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                func = node.func
                if func.attr == "batch" and isinstance(func.value, ast.Attribute):
                    func = func.value
                if func.attr in ("mu", "sigma", "alpha", "kappa"):
                    hits.append((getattr(top, "name", None), node.lineno))
    return hits


def test_only_model_evaluates_the_market():
    # Every other module reads the market off one market_terms call.
    outside = [f"{path.name}:{line}" for path in sorted(PACKAGE.glob("*.py"))
               if path.name != "model.py" for _, line in _market_evaluations(path)]
    assert outside == []
    # Inside model.py: the evaluator and its lazy terms, the generator closures
    # (kept off MarketTerms on their one-row path), validate, whose SVD
    # reports a rank-deficient sigma instead of raising, and ModelSpec, whose
    # shape check evaluates each field once when it is built.
    assert {name for name, _ in _market_evaluations(PACKAGE / "model.py")} == \
        {"MarketTerms", "market_terms", "generator_coefficients", "validate", "ModelSpec"}
    assert not hasattr(fpplab.model, "sigma_terms")


def _called_name(call):
    """The name a call goes by: ``f`` of ``f(...)`` and of ``a.b.f(...)``."""
    return getattr(call.func, "id", getattr(call.func, "attr", None))


def _engine_sites(path):
    """file:definition of the top-level definitions that build a Philox bit
    generator and of those that call ``_step_noise``, and the names of those
    that compare against a boundary-policy name."""
    philox, noise, policy = set(), set(), set()
    for node in ast.parse(path.read_text()).body:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call) and _called_name(sub) == "Philox":
                philox.add(f"{path.name}:{getattr(node, 'name', None)}")
            if isinstance(sub, ast.Call) and _called_name(sub) == "_step_noise":
                noise.add(f"{path.name}:{getattr(node, 'name', None)}")
            if isinstance(sub, ast.Compare) and any(
                    isinstance(c, ast.Constant) and c.value in BOUNDARY_POLICIES
                    for c in (sub.left, *sub.comparators)):
                policy.add(getattr(node, "name", None))
    return philox, noise, policy


def test_sim_has_one_noise_helper_and_one_boundary_step():
    # One noise helper keyed by (seed, step), called by the two Euler loops.
    philox, noise = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        builds, calls, _ = _engine_sites(path)
        philox |= builds
        noise |= calls
    assert philox == {"sim.py:_step_noise"}
    assert noise == {"sim.py:simulate", "sim.py:feynman_kac_estimate"}
    assert _engine_sites(PACKAGE / "sim.py")[2] == {"_eval_state", "_advance"}


def _matmul_sites(path):
    """Top-level functions of ``path`` that apply ``@`` anywhere, and those
    that apply it inside a ``for`` loop."""
    def has_matmul(node):
        return any(isinstance(n, (ast.BinOp, ast.AugAssign)) and isinstance(n.op, ast.MatMult)
                   for n in ast.walk(node))

    tops = [n for n in ast.parse(path.read_text()).body if isinstance(n, ast.FunctionDef)]
    return ({top.name for top in tops if has_matmul(top)},
            {top.name for top in tops
             if any(isinstance(n, ast.For) and has_matmul(n) for n in ast.walk(top))})


def test_the_euler_step_contracts_states_only_through_rowwise():
    # model.rowwise is the one place that fixes the layout of a contraction
    # over a path-contiguous stack; an ``@`` in the step would return a
    # row-major one.  The only ``@`` in sim.py checks the noise mixer once.
    anywhere, in_loops = _matmul_sites(PACKAGE / "sim.py")
    assert anywhere == {"simulate"}
    assert in_loops == set()
    assert "optimal_portfolio_from_terms" not in _matmul_sites(PACKAGE / "affine.py")[0]


def _standard_error_sites(path):
    """Top-level definitions that divide a spread (an expression calling
    ``std``) by a square root (a call of ``sqrt``), as file:definition."""
    def calls(expr, name):
        return any(isinstance(n, ast.Call) and name in (getattr(n.func, "id", None),
                                                        getattr(n.func, "attr", None))
                   for n in ast.walk(expr))

    return {f"{path.name}:{top.name}" for top in ast.parse(path.read_text()).body
            for node in ast.walk(top)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
            and calls(node.left, "std") and calls(node.right, "sqrt")}


def test_only_the_pair_helper_takes_a_monte_carlo_standard_error():
    # Paths come in antithetic pairs, so std / sqrt(n_paths) over paths would
    # understate the error; every standard error goes through sim.pair_se.
    assert set().union(*(_standard_error_sites(PACKAGE / name)
                         for name in ("sim.py", "verify.py"))) == {"sim.py:pair_se"}


def _pi_star_sites(path):
    """Top-level definitions that divide by ``.gamma`` an expression applying
    a pseudoinverse (a name or attribute containing ``pinv``): pi*."""
    tree = ast.parse(path.read_text())

    def applies_pinv(expr):
        return any("pinv" in (getattr(n, "id", None) or getattr(n, "attr", None) or "")
                   for n in ast.walk(expr))

    return {f"{path.name}:{node.name}" for node in tree.body for sub in ast.walk(node)
            if isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Div)
            and getattr(sub.right, "attr", None) == "gamma" and applies_pinv(sub.left)}


def _names_used(path):
    tree = ast.parse(path.read_text())
    return ({getattr(n, "id", None) or getattr(n, "attr", None) for n in ast.walk(tree)}
            | {alias.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
               for alias in n.names})


def test_pi_star_is_written_once_and_sim_builds_it_from_the_step_terms():
    # The Euler step hands its evaluated coefficients to the strategy, so sim
    # never re-evaluates them through optimal_portfolio_affine.
    sites = set().union(*(_pi_star_sites(path) for path in PACKAGE.glob("*.py")))
    assert sites == {"affine.py:optimal_portfolio_from_terms"}
    assert "optimal_portfolio_affine" not in _names_used(PACKAGE / "sim.py")
    assert "optimal_portfolio_from_terms" in _names_used(PACKAGE / "sim.py")


def _callers(path, name):
    """Top-level definitions of ``path`` that call ``name``, as file:definition."""
    return {f"{path.name}:{top.name}" for top in ast.parse(path.read_text()).body
            for node in ast.walk(top) if isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))}


def _defined_names(path):
    tree = ast.parse(path.read_text())
    return ({n.name for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
            | {t.id for n in ast.walk(tree) if isinstance(n, ast.Assign)
               for t in n.targets if isinstance(t, ast.Name)})


def _imports_affine(path):
    """Whether ``path`` has ``from .affine import ...`` or ``from . import affine``."""
    return any(isinstance(n, ast.ImportFrom)
               and (n.module == "affine" or any(alias.name == "affine" for alias in n.names))
               for n in ast.walk(ast.parse(path.read_text())))


def test_one_fpp_interface_for_the_affine_and_widder_u():
    # V = prefactor(x) u^q is written once, over any u with u(t, Y) and
    # u.log_gradient(t, Y); spectral's WidderFunction needs nothing from affine.
    paths = sorted(PACKAGE.glob("*.py"))
    assert set().union(*(_callers(path, "power_utility_prefactor") for path in paths)) == \
        {"affine.py:evaluate_fpp"}
    assert not _imports_affine(PACKAGE / "spectral.py")
    assert _imports_affine(PACKAGE / "sim.py")      # the check can see an import
    removed = {"fpp_from_measure", "CallableStrategy", "_as_strategy"}
    assert [f"{path.name}:{name}" for path in paths
            for name in sorted(_defined_names(path) & removed)] == []
    # The benchmark still builds the strategy by its old name: one alias.
    assert fpplab.sim.AffineOptimalStrategy is fpplab.sim.OptimalStrategy


def _body_without_docstring(path, name):
    fn = next(n for n in ast.parse(path.read_text()).body
              if isinstance(n, ast.FunctionDef) and n.name == name)
    body = fn.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    return body


def test_the_optimality_identity_reads_u_through_the_fpp_interface():
    # optimal_portfolio_residual takes the FPP u itself, so verify knows
    # nothing of the Riccati state layout z = (Phi, Theta).
    assert not _imports_affine(PACKAGE / "verify.py")
    assert [path.name for path in sorted(PACKAGE.glob("*.py"))
            if "u_from_state" in _defined_names(path)] == []
    # The benchmark still passes the residual's u by this name: one return.
    body = _body_without_docstring(PACKAGE / "verify.py", "affine_u_value_grad")
    assert len(body) == 1 and isinstance(body[0], ast.Return)


def _functions(path):
    """(qualified name, FunctionDef) of every top-level function of ``path``
    and every method of its top-level classes, as ``Class.method``."""
    for top in ast.parse(path.read_text()).body:
        if isinstance(top, ast.FunctionDef):
            yield top.name, top
        elif isinstance(top, ast.ClassDef):
            yield from ((f"{top.name}.{fn.name}", fn) for fn in top.body
                        if isinstance(fn, ast.FunctionDef))


def test_strategies_see_the_step_terms_only():
    # Allocations are wealth fractions at terms.Y, so a strategy receives
    # neither the wealth nor a second copy of the states; sim evaluates the
    # market for the step in one place, _step_terms.
    signatures = {f"{path.name}:{name}": [p.arg for p in (*a.posonlyargs, *a.args, a.vararg,
                                                          *a.kwonlyargs, a.kwarg) if p]
                  for path in sorted(PACKAGE.glob("*.py"))
                  for name, fn in _functions(path) if fn.name == "allocations"
                  for a in [fn.args]}
    assert {"sim.py:Strategy.allocations", "sim.py:OptimalStrategy.allocations"} <= set(signatures)
    assert {name for name, args in signatures.items() if args != ["self", "t", "terms"]} == set()
    assert {name for name, fn in _functions(PACKAGE / "sim.py")
            if any(isinstance(n, ast.Call) and getattr(n.func, "id", None) == "market_terms"
                   for n in ast.walk(fn))} == {"_step_terms", "OptimalStrategy.allocations"}


def _sharpe_readers(path):
    """Top-level definitions that read ``.Lambda`` or ``.lambda0``."""
    tree = ast.parse(path.read_text())
    return {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            for sub in ast.walk(node)
            if isinstance(sub, ast.Attribute) and sub.attr in ("Lambda", "lambda0")}


def test_only_the_riccati_rates_and_closed_form_read_the_sharpe_terms():
    # The rates of z = (Phi, Theta) are written once, in _riccati_rhs; the
    # closed form integrates them.  The spec and the market builder define them.
    readers = _sharpe_readers(PACKAGE / "affine.py")
    assert readers - {"AffineSpec", "canonical_affine_market"} == \
        {"_riccati_rhs", "solve_riccati_closed_form"}


def _scipy_imports_run_on_import(path):
    """Imports of scipy that run when the module is imported: every one
    outside a function body."""
    hits = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom):
                names = [child.module or ""]
            else:
                names = []
            if any(name.split(".")[0] == "scipy" for name in names):
                hits.append(f"{path.name}:{child.lineno}")
            visit(child)

    visit(ast.parse(path.read_text()))
    return hits


def test_no_module_imports_scipy_at_import_time():
    # scipy.integrate alone takes most of a second to import; only the
    # numeric Riccati solve, spectral's ODE and inversion routines and
    # GridField need scipy, so each imports it inside the function.
    hits = [hit for path in sorted(PACKAGE.glob("*.py"))
            for hit in _scipy_imports_run_on_import(path)]
    assert hits == []


# Run in a fresh interpreter; prints the scipy modules loaded as its last line.
_SCIPY_LOADED = ("import json, sys\n"
                 "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))")


def _scipy_loaded_after(code, *args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                                      env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", f"{code}\n{_SCIPY_LOADED}", *args],
                         env=env, cwd=cwd, capture_output=True, text=True, timeout=120,
                         check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_importing_every_module_loads_no_scipy():
    modules = ["fpplab"] + [f"fpplab.{path.stem}" for path in sorted(PACKAGE.glob("*.py"))
                            if path.stem != "__init__"]
    assert _scipy_loaded_after(f"import {', '.join(modules)}") == []


def test_cli_on_a_diagonal_market_loads_no_scipy(tmp_path, canonical_2f):
    # The closed-form Riccati and Monte Carlo routes need no scipy.
    market, spec, rp = canonical_2f
    market.save(tmp_path / "model.json")
    files = {
        "aspec.json": spec.to_json(),
        "simcfg.json": {"dt": 0.02, "horizon": 0.5, "n_paths": 200, "seed": 9},
        "fpp.json": {"affine_spec": spec.to_json(), "gamma": rp.gamma, "p": rp.p,
                     "horizon": 0.5, "direction": "forward"},
    }
    for name, payload in files.items():
        (tmp_path / name).write_text(json.dumps(payload))
    np.savetxt(tmp_path / "rho.csv", 0.6 * np.eye(2), delimiter=",")
    risk = ["--gamma", str(rp.gamma), "--p", str(rp.p), "--horizon", "0.5"]
    argvs = [
        ["eve", "project", "--in", "rho.csv", "--out", "eve"],
        ["affine", "solve", "--spec", "aspec.json", *risk, "--out", "solve"],
        ["sim", "run", "--model", "model.json", "--config", "simcfg.json",
         "--strategy", "affine-optimal", "--affine", "aspec.json", *risk,
         "--y0", "0.5,0.5", "--out", "sim"],
        ["verify", "martingale", "--paths", "sim/paths", "--fpp", "fpp.json",
         "--out", "martingale"],
    ]
    code = ("import json, sys\nfrom fpplab.cli import main\n"
            "assert [main(argv) for argv in json.loads(sys.argv[1])] == [0, 0, 0, 0]")
    assert _scipy_loaded_after(code, json.dumps(argvs), cwd=tmp_path) == []
    assert (tmp_path / "martingale" / "martingale_report.json").exists()


# One instance of each family, kind, spec and report, with its JSON form as
# written by the hand-made encoders before the codec was shared
# (sort_keys=True); the formats must not drift.
FIELDS = {
    "constant": ConstantField([[0.2, 0.0], [0.1, 0.3]]),
    "affine": AffineField([[-0.5, 0.1], [0.0, -0.8]], [0.4, 0.5]),
    "sqrt_affine": SqrtAffineField([[0.16, 0.0], [0.0, 0.09], [0.0, 0.0]], [0.0, 0.0, 0.04]),
    "sqrt_diag": SqrtDiagField([0.2, 0.15]),
    "grid": GridField([[0.0, 1.0], [0.0, 2.0]], [[[1.0], [1.5]], [[2.0], [3.5]]]),
}
KINDS = {
    "exp": ExpEigenfunction([0.5, -0.25], [0.0, 1.0]),
    "expmix": ExpMixEigenfunction(0.3, 0.7, -0.4, [0.0]),
    "tabulated": TabulatedEigenfunction([[0.1, 0.0], [0.4, 1.0]], [1.2, 0.9], [0.0, 0.0]),
}
SPECS = {
    "model": ModelSpec(mu=ConstantField([0.1, 0.05]),
                       sigma=GridField([[0.0, 2.0]], [np.eye(2), 2.0 * np.eye(2)]),
                       alpha=AffineField([[-0.5]], [0.4]), kappa=SqrtDiagField([0.2]),
                       rho=[[0.3], [0.1]], domain=Box([0.0], [np.inf])),
    "affine_spec": AffineSpec(M=[[-0.5]], w=[0.4], L=[0.2], Lambda=[0.25], lambda0=0.05,
                              N=[[0.1]], c=[0.0], H=[-0.3], h0=0.5),
    "sim_config": SimulationConfig(dt=0.01, horizon=0.5, n_paths=300, seed=9, record_stride=5),
}
_RESIDUAL = ResidualReport("linear equation", 2.5e-06, 1.25e-06, 0.001, 4, 25,
                           table=np.array([[0.1, 0.5, 2.5e-06]]))
REPORTS = {
    "selection": EigenfunctionSelection((ExpEigenfunction([0.5], [0.25]),
                                         ExpMixEigenfunction(0.3, 0.7, -0.4, [0.25])), [0.25]),
    "admissibility": AdmissibilityReport(0.5, 0.25, 1.5, 0.75, False, ((3, 7), (4, 0))),
    "distortion": DistortionReport(
        nonlinear=ResidualReport("distorted equation", 0.5, 0.125, 0.001, 2, 9),
        linear=_RESIDUAL),
    "validation": ValidationReport((CheckResult("ellipticity", True, 0.04, "min eigenvalue"),
                                    CheckResult("boundedness", False, 2.5))),
    "martingale": MartingaleReport((BucketStat(0.0, 0.25, 0.001, 0.002, 0.5, 0.125),
                                    BucketStat(0.25, 0.5, -0.003, 0.002, -1.5, 3.0)),
                                   300, False, True, False),
    "eve": EveProjection(1.0, np.array([[0.6, 0.8], [-0.8, 0.6], [0.0, 0.0]]), 0.375, 1.25),
    "residual": _RESIDUAL,
    "radial": RadialDiagnostic(np.array([0.0, 1.0]), np.array([1.0, 0.5]), 2.5, True, None),
    "inversion": InversionResult(SpectralMeasure([0.5, 2.0], [0.3, 0.7], [0.0]), 1.5e-12, 3, 2),
}
PINNED = {
    "constant": '{"family": "constant", "value": [[0.2, 0.0], [0.1, 0.3]]}',
    "affine": '{"family": "affine", "matrix": [[-0.5, 0.1], [0.0, -0.8]], "offset": [0.4, 0.5]}',
    "sqrt_affine": '{"family": "sqrt_affine", "matrix": [[0.16, 0.0], [0.0, 0.09], [0.0, 0.0]],'
                   ' "offset": [0.0, 0.0, 0.04]}',
    "sqrt_diag": '{"family": "sqrt_diag", "scale": [0.2, 0.15]}',
    "grid": '{"axes": [[0.0, 1.0], [0.0, 2.0]], "family": "grid",'
            ' "values": [[[1.0], [1.5]], [[2.0], [3.5]]]}',
    "exp": '{"kind": "exp", "v": [0.5, -0.25]}',
    "expmix": '{"kind": "expmix", "rate_minus": -0.4, "rate_plus": 0.7, "weight_plus": 0.3}',
    "tabulated": '{"kind": "tabulated", "points": [[0.1, 0.0], [0.4, 1.0]], "values": [1.2, 0.9]}',
    "model": '{"alpha": {"family": "affine", "matrix": [[-0.5]], "offset": [0.4]},'
             ' "domain": {"lower": [0.0], "upper": [null]},'
             ' "kappa": {"family": "sqrt_diag", "scale": [0.2]},'
             ' "mu": {"family": "constant", "value": [0.1, 0.05]}, "rho": [[0.3], [0.1]],'
             ' "sigma": {"axes": [[0.0, 2.0]], "family": "grid",'
             ' "values": [[[1.0, 0.0], [0.0, 1.0]], [[2.0, 0.0], [0.0, 2.0]]]}}',
    "affine_spec": '{"H": [-0.3], "L": [0.2], "Lambda": [0.25], "M": [[-0.5]], "N": [[0.1]],'
                   ' "c": [0.0], "h0": 0.5, "lambda0": 0.05, "w": [0.4]}',
    "sim_config": '{"boundary_policy": "full-truncation", "dt": 0.01, "horizon": 0.5,'
                  ' "n_paths": 300, "record_stride": 5, "seed": 9}',
    "selection": '{"functions": [{"kind": "exp", "v": [0.5]}, {"kind": "expmix",'
                 ' "rate_minus": -0.4, "rate_plus": 0.7, "weight_plus": 0.3}], "y0": [0.25]}',
    "admissibility": '{"all_finite": false, "drift_integral_max": 0.5,'
                     ' "drift_integral_mean": 0.25, "nonfinite_locations": [[3, 7], [4, 0]],'
                     ' "variation_integral_max": 1.5, "variation_integral_mean": 0.75}',
    "distortion": '{"linear": {"description": "linear equation", "fd_step": 0.001,'
                  ' "max_abs_residual": 2.5e-06, "mean_abs_residual": 1.25e-06, "n_points": 25,'
                  ' "stencil_order": 4}, "nonlinear": {"description": "distorted equation",'
                  ' "fd_step": 0.001, "max_abs_residual": 0.5, "mean_abs_residual": 0.125,'
                  ' "n_points": 9, "stencil_order": 2}}',
    "validation": '{"checks": [{"detail": "min eigenvalue", "name": "ellipticity",'
                  ' "passed": true, "worst": 0.04}, {"detail": "", "name": "boundedness",'
                  ' "passed": false, "worst": 2.5}], "passed": false}',
    "martingale": '{"buckets": [{"excess_kurtosis": 0.125, "mean": 0.001, "std_error": 0.002,'
                  ' "t_end": 0.25, "t_start": 0.0, "z": 0.5}, {"excess_kurtosis": 3.0,'
                  ' "mean": -0.003, "std_error": 0.002, "t_end": 0.5, "t_start": 0.25,'
                  ' "z": -1.5}], "heavy_tails": false, "martingale_consistent": false,'
                  ' "n_paths": 300, "supermartingale_consistent": true,'
                  ' "verdict": "supermartingale-consistent"}',
    "eve": '{"Q_star": [[0.6, 0.8], [-0.8, 0.6], [0.0, 0.0]], "clamped": true,'
           ' "frobenius_distance": 0.375, "r_star": 1.0, "r_unconstrained": 1.25}',
    "residual": '{"description": "linear equation", "fd_step": 0.001,'
                ' "max_abs_residual": 2.5e-06, "mean_abs_residual": 1.25e-06, "n_points": 25,'
                ' "stencil_order": 4}',
    "radial": '{"first_zero": null, "growth_flag": true, "truncated_integral": 2.5}',
    "inversion": '{"atoms": [{"weight": 0.3, "zeta": 0.5}, {"weight": 0.7, "zeta": 2.0}],'
                 ' "fit_residual": 1.5e-12, "m_effective": 2, "m_requested": 3, "y0": [0.0]}',
}


def _constructor_params(cls, drop=()):
    return tuple(name for name in inspect.signature(cls.__init__).parameters
                 if name not in ("self",) + drop)


def test_every_family_and_kind_declares_its_constructor_params():
    assert set(FIELDS) == set(_FIELD_FAMILIES) and set(KINDS) == set(_KINDS)
    for cls in _FIELD_FAMILIES.values():
        assert cls.params == _constructor_params(cls), cls.family
        assert not {"to_json", "_from_json", "from_json"} & set(vars(cls)), cls.family
    for cls in _KINDS.values():
        assert cls.params == _constructor_params(cls, drop=("y0",)), cls.kind
        assert "to_json" not in vars(cls), cls.kind


def test_model_spec_takes_the_six_fields_and_no_dimension():
    assert _constructor_params(ModelSpec) == ("mu", "sigma", "alpha", "kappa", "rho", "domain")


def _d_wperp_mentions(path):
    """(top-level definition, kind) of each mention of d_Wperp in ``path``:
    kind "name" for a variable, attribute, argument or keyword, "text" for a
    string such as a key or a docstring."""
    hits = []
    for top in ast.parse(path.read_text()).body:
        for node in ast.walk(top):
            ident = getattr(node, "id", None) or getattr(node, "attr", None) \
                or getattr(node, "arg", None)
            if ident == "d_Wperp":
                hits.append((getattr(top, "name", None), "name"))
            elif isinstance(node, ast.Constant) and "d_Wperp" in str(node.value):
                hits.append((getattr(top, "name", None), "text"))
    return hits


def test_no_source_names_d_wperp():
    # Wperp has d_B components.  Only ModelSpec speaks of d_Wperp, as a key
    # that model files of earlier versions carry.
    hits = {hit for path in sorted(PACKAGE.glob("*.py")) for hit in _d_wperp_mentions(path)}
    assert hits == {("ModelSpec", "text")}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_json_forms_match_the_pinned_literals(name):
    obj = {**FIELDS, **KINDS, **SPECS, **REPORTS}[name]
    assert json.dumps(obj.to_json(), sort_keys=True) == PINNED[name]


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_field_round_trip_evaluates_identically(name):
    field = FIELDS[name]
    k = field.matrix.shape[1] if hasattr(field, "matrix") else 2
    states = np.linspace(-0.5, 2.5, 4 * k).reshape(4, k)
    again = CoefficientField.from_json(json.loads(json.dumps(field.to_json())))
    assert type(again) is type(field)
    np.testing.assert_array_equal(again.batch(states), field.batch(states))


@pytest.mark.parametrize("name", sorted(KINDS))
def test_kind_round_trip_evaluates_identically(name):
    fn = KINDS[name]
    sel = EigenfunctionSelection((fn,), fn.y0)
    again = EigenfunctionSelection.from_json(json.loads(json.dumps(sel.to_json())))
    states = (fn.points if name == "tabulated"
              else np.linspace(-1.0, 1.0, 3 * fn.y0.size).reshape(3, -1))
    assert type(again.functions[0]) is type(fn)
    np.testing.assert_array_equal(again.values(states), sel.values(states))


def test_spec_round_trips_are_exact():
    for spec in SPECS.values():
        again = type(spec).from_json(json.loads(json.dumps(spec.to_json())))
        assert again.to_json() == spec.to_json()


# The "model" literal as written while ModelSpec still stated its dimensions.
LEGACY_MODEL = (
    '{"alpha": {"family": "affine", "matrix": [[-0.5]], "offset": [0.4]}, "d_B": 1,'
    ' "d_W": 2, "d_Wperp": 1, "domain": {"lower": [0.0], "upper": [null]}, "k": 1,'
    ' "kappa": {"family": "sqrt_diag", "scale": [0.2]},'
    ' "mu": {"family": "constant", "value": [0.1, 0.05]}, "n": 2, "rho": [[0.3], [0.1]],'
    ' "sigma": {"axes": [[0.0, 2.0]], "family": "grid",'
    ' "values": [[[1.0, 0.0], [0.0, 1.0]], [[2.0, 0.0], [0.0, 2.0]]]}}')


def test_the_model_literal_with_dimensions_still_loads():
    again = ModelSpec.from_json(json.loads(LEGACY_MODEL))
    assert again.to_json() == SPECS["model"].to_json()
    assert (again.n, again.k, again.d_W, again.d_B) == (2, 1, 2, 1)


@pytest.mark.parametrize("key", ["n", "k", "d_W", "d_B", "d_Wperp"])
def test_a_dimension_of_the_model_literal_off_by_one_exits_one_and_is_named(tmp_path, capsys,
                                                                           key):
    data = json.loads(LEGACY_MODEL)
    data[key] += 1
    (tmp_path / "model.json").write_text(json.dumps(data))
    SPECS["sim_config"].save(tmp_path / "sim.json")
    assert main(["sim", "run", "--model", str(tmp_path / "model.json"),
                 "--config", str(tmp_path / "sim.json"), "--out", str(tmp_path / "o")]) == 1
    dim = "d_B" if key == "d_Wperp" else key
    assert capsys.readouterr().err == (f"error: model spec: field '{key}' is {data[key]}, "
                                       f"but the fields give {dim}={data[key] - 1}\n")


def test_specs_and_the_selection_save_and_load_through_the_base(tmp_path):
    # None of these classes defines its own load or save; Fields gives both.
    for value in (*SPECS.values(), REPORTS["selection"]):
        cls = type(value)
        assert not {"load", "save"} & set(vars(cls)), cls.__name__
        path = tmp_path / f"{cls.__name__}.json"
        value.save(path)
        assert cls.load(path).to_json() == value.to_json()


def _json_file_calls(path):
    """Lines calling ``json.load`` or ``json.dump``, which read or write a file."""
    return [f"{path.name}:{node.lineno}" for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and node.attr in ("load", "dump")
            and getattr(node.value, "id", None) == "json"]


def test_only_model_reads_and_writes_json_files():
    # model.read_json/write_json decide the file format for every module.
    outside = [hit for path in sorted(PACKAGE.glob("*.py")) if path.name != "model.py"
               for hit in _json_file_calls(path)]
    assert outside == []
    assert len(_json_file_calls(PACKAGE / "model.py")) == 2


def _npy_file_calls(path):
    """"file:Class.function" of each ``np.save``/``np.savez``/``np.load`` call,
    which write or read a .npy or .npz file."""
    hits = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Attribute) and getattr(child.value, "id", None) == "np" \
                    and child.attr in ("save", "savez", "savez_compressed", "load"):
                hits.append(f"{path.name}:{'.'.join(scope)}")
            visit(child, scope)

    visit(ast.parse(path.read_text()), [])
    return hits


def test_only_the_path_bundle_reads_and_writes_npy_files():
    # PathBundle.save/load decide the on-disk layout of every array.
    hits = [hit for path in sorted(PACKAGE.glob("*.py")) for hit in _npy_file_calls(path)]
    assert hits == ["sim.py:PathBundle.save", "sim.py:PathBundle.load"]


def _hand_written_encoders(path):
    """Classes defining a ``to_json`` that does not extend ``super().to_json()``."""
    def extends_base(fn):
        return any(isinstance(n, ast.Call) and getattr(n.func, "attr", None) == "to_json"
                   and isinstance(n.func.value, ast.Call)
                   and getattr(n.func.value.func, "id", None) == "super" for n in ast.walk(fn))

    return {node.name for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ClassDef) for fn in node.body
            if isinstance(fn, ast.FunctionDef) and fn.name == "to_json" and not extends_base(fn)}


def test_every_encoder_extends_the_one_codec():
    # Only the base writes a value's fields; Box (None for infinity) and
    # SpectralMeasure (a list of atoms) have forms that are not their fields.
    hits = set().union(*(_hand_written_encoders(path) for path in PACKAGE.glob("*.py")))
    assert hits == {"Fields", "Box", "SpectralMeasure"}


def _key_error_handlers(path):
    tree = ast.parse(path.read_text())
    return [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.ExceptHandler) and node.type is not None
            and "KeyError" in {getattr(n, "id", None) for n in ast.walk(node.type)}]


def test_no_module_catches_key_error():
    # Missing JSON keys are named by model.require; no reader catches KeyError.
    assert [hit for path in sorted(PACKAGE.glob("*.py")) for hit in _key_error_handlers(path)] == []


# ---------------------------------------------------------------------------
# One gate for numbers
# ---------------------------------------------------------------------------

_OLD_NUMBER_CHECKS = {"_is_number", "require_real", "require_reals", "require_finite"}


def test_reals_is_the_one_number_check():
    defined = {node.name for path in sorted(PACKAGE.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert "reals" in defined and not defined & _OLD_NUMBER_CHECKS
    # Outside model.py, a name imported from .model that speaks of numbers,
    # reals or finiteness is reals itself.
    imported = {alias.name for path in sorted(PACKAGE.glob("*.py")) if path.name != "model.py"
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.ImportFrom) and node.module == "model"
                for alias in node.names if re.search("real|finite|number", alias.name)}
    assert imported == {"reals"}


def _numeric_leaves(value, path=()):
    """Paths (keys and list indices) of the int and float leaves of a JSON value."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _numeric_leaves(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _numeric_leaves(item, path + (i,))
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield path


def _replaced(data, path, value):
    data = json.loads(json.dumps(data))
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return data


def _kind_reader(name):
    y0 = KINDS[name].y0.tolist()
    return lambda data: EigenfunctionSelection.from_json({"functions": [data], "y0": y0})


_MEASURE = '{"atoms": [{"weight": 0.3, "zeta": 0.5}, {"weight": 0.7, "zeta": 2.0}], "y0": [0.0]}'
_READERS = {**{name: CoefficientField.from_json for name in FIELDS},
            **{name: _kind_reader(name) for name in KINDS},
            "model": ModelSpec.from_json, "affine_spec": AffineSpec.from_json,
            "sim_config": SimulationConfig.from_json,
            "selection": EigenfunctionSelection.from_json, "measure": SpectralMeasure.from_json}


@pytest.mark.parametrize("name", sorted(_READERS))
def test_every_json_number_is_refused_by_name_when_it_is_not_one(name):
    # Each numeric leaf in turn becomes a string, a null, a bool, NaN or
    # Infinity; the reader refuses each with a ConfigError naming its key.
    # Only a domain bound may be null: it means infinity.
    literal = _MEASURE if name == "measure" else PINNED[name]
    data, read = json.loads(literal), _READERS[name]
    read(data)
    leaves = list(_numeric_leaves(data))
    assert leaves
    for path in leaves:
        key = next(k for k in reversed(path) if isinstance(k, str))
        for value in ("x", None, True, math.nan, math.inf):
            edited = _replaced(data, path, value)
            if value is None and path[0] == "domain":
                read(edited)
                continue
            with pytest.raises(ConfigError) as exc:
                read(edited)
            assert re.search(rf"\b{re.escape(key)}'?(\[\d+\])? must be ", str(exc.value)), \
                (path, value, str(exc.value))


# reader -> the keys of its leaves that must be strictly positive numbers.
_POSITIVE_KEYS = {"sqrt_diag": {"scale"}, "model": {"scale"}, "affine_spec": {"L"},
                  "measure": {"weight"}, "sim_config": {"dt", "horizon"}}


@pytest.mark.parametrize("name", sorted(_POSITIVE_KEYS))
def test_every_positive_json_number_is_refused_by_name_at_zero_and_below(name):
    # Each such leaf in turn becomes 0, then -1; the reader refuses each with
    # a ConfigError naming its key.
    literal = _MEASURE if name == "measure" else PINNED[name]
    data, read = json.loads(literal), _READERS[name]
    leaves = [path for path in _numeric_leaves(data)
              if next(k for k in reversed(path) if isinstance(k, str)) in _POSITIVE_KEYS[name]]
    assert {next(k for k in reversed(p) if isinstance(k, str)) for p in leaves} \
        == _POSITIVE_KEYS[name]
    for path in leaves:
        key = next(k for k in reversed(path) if isinstance(k, str))
        for value in (0, -1):
            with pytest.raises(ConfigError) as exc:
                read(_replaced(data, path, value))
            assert re.search(rf"\b{re.escape(key)} must be positive, got ", str(exc.value)), \
                (path, value, str(exc.value))


def _attribute_readers(attrs):
    """{"file:Class.function"} of every function of the package reading one
    of the attributes ``attrs`` (``<...>.name``)."""
    hits = set()

    def visit(node, scope, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, scope + [child.name], path)
                continue
            if isinstance(child, ast.Attribute) and child.attr in attrs:
                hits.add(f"{path.name}:{'.'.join(scope)}")
            visit(child, scope, path)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), [], path)
    return hits


def test_only_the_closure_branch_reads_b_and_p_apart():
    # The library reads (a, b, P, kappa) through ``coefficients``, validate
    # too; only a generator given by its closures is read through them.
    assert _attribute_readers({"b_batch", "P_batch"}) == {
        "model.py:GeneratorCoefficients.coefficients"}


def test_no_input_is_refused_with_a_bare_value_error():
    # Bad input raises ConfigError, which the CLI maps to exit code 1.
    raised = [f"{path.name}:{node.lineno}" for path in sorted(PACKAGE.glob("*.py"))
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.Raise) and node.exc is not None
              and getattr(getattr(node.exc, "func", node.exc), "id", None) == "ValueError"]
    assert raised == []
