"""Repository hygiene checks, and the rule that every JSON form is declared
once: a coefficient family or eigenfunction kind is its tag plus ``params``."""
import ast
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fpplab
from fpplab.affine import AffineSpec
from fpplab.model import (_FIELD_FAMILIES, AffineField, Box, CoefficientField, ConstantField,
                          GridField, ModelSpec, SqrtAffineField, SqrtDiagField)
from fpplab.sim import BOUNDARY_POLICIES, SimulationConfig
from fpplab.spectral import (_KINDS, EigenfunctionSelection, ExpEigenfunction,
                             ExpMixEigenfunction, TabulatedEigenfunction)

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


def _engine_sites(path):
    """Top-level definitions that call ``_path_noise``, and those that compare
    against a boundary-policy name."""
    tree = ast.parse(path.read_text())
    noise, policy = set(), set()
    for node in tree.body:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call) and getattr(sub.func, "id", None) == "_path_noise":
                noise.add(node.name)
            if isinstance(sub, ast.Compare) and any(
                    isinstance(c, ast.Constant) and c.value in BOUNDARY_POLICIES
                    for c in (sub.left, *sub.comparators)):
                policy.add(node.name)
    return noise, policy


def test_sim_has_one_block_loop_and_one_boundary_step():
    noise, policy = _engine_sites(PACKAGE / "sim.py")
    assert noise == {"_noise_blocks"}
    assert policy == {"_eval_state", "_advance"}


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


# One instance of each family, kind and spec, with its JSON form as written
# before the codec was shared (sort_keys=True); the formats must not drift.
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
    "model": ModelSpec(n=2, k=1, d_W=2, d_B=1, d_Wperp=1, mu=ConstantField([0.1, 0.05]),
                       sigma=GridField([[0.0, 2.0]], [np.eye(2), 2.0 * np.eye(2)]),
                       alpha=AffineField([[-0.5]], [0.4]), kappa=SqrtDiagField([0.2]),
                       rho=[[0.3], [0.1]], domain=Box([0.0], [np.inf])),
    "affine_spec": AffineSpec(M=[[-0.5]], w=[0.4], L=[0.2], Lambda=[0.25], lambda0=0.05,
                              N=[[0.1]], c=[0.0], H=[-0.3], h0=0.5),
    "sim_config": SimulationConfig(dt=0.01, horizon=0.5, n_paths=300, seed=9, record_stride=5),
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
    "model": '{"alpha": {"family": "affine", "matrix": [[-0.5]], "offset": [0.4]}, "d_B": 1,'
             ' "d_W": 2, "d_Wperp": 1, "domain": {"lower": [0.0], "upper": [null]}, "k": 1,'
             ' "kappa": {"family": "sqrt_diag", "scale": [0.2]},'
             ' "mu": {"family": "constant", "value": [0.1, 0.05]}, "n": 2, "rho": [[0.3], [0.1]],'
             ' "sigma": {"axes": [[0.0, 2.0]], "family": "grid",'
             ' "values": [[[1.0, 0.0], [0.0, 1.0]], [[2.0, 0.0], [0.0, 2.0]]]}}',
    "affine_spec": '{"H": [-0.3], "L": [0.2], "Lambda": [0.25], "M": [[-0.5]], "N": [[0.1]],'
                   ' "c": [0.0], "h0": 0.5, "lambda0": 0.05, "w": [0.4]}',
    "sim_config": '{"boundary_policy": "full-truncation", "dt": 0.01, "horizon": 0.5,'
                  ' "n_paths": 300, "record_stride": 5, "seed": 9}',
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


@pytest.mark.parametrize("name", sorted(PINNED))
def test_json_forms_match_the_pinned_literals(name):
    obj = {**FIELDS, **KINDS, **SPECS}[name]
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


def _key_error_handlers(path):
    tree = ast.parse(path.read_text())
    return [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.ExceptHandler) and node.type is not None
            and "KeyError" in {getattr(n, "id", None) for n in ast.walk(node.type)}]


def test_no_module_catches_key_error():
    # Missing JSON keys are named by model.require; no reader catches KeyError.
    assert [hit for path in sorted(PACKAGE.glob("*.py")) for hit in _key_error_handlers(path)] == []
