"""One gate for factor states: every public entry point that takes a caller's
factor state y, one state (k,) or a stack (P, k), reads it through
``model.states``.  One state gives the first row of the one-row stack, and
each malformed y is refused with a ``ConfigError`` naming its argument."""
import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest

import fpplab
from fpplab import affine
from fpplab.errors import ConfigError
from fpplab.model import RiskParams, generator_coefficients, validate
from fpplab.sim import SimulationConfig, ZeroStrategy, feynman_kac_estimate, simulate
from fpplab.spectral import (EigenfunctionSelection, ExpEigenfunction, SpectralMeasure,
                             WidderFunction, solve_eigenfunction_1d)
from fpplab.verify import distortion_roundtrip, hjb_residual, optimal_portfolio_residual

from conftest import make_heat_generator

PACKAGE = Path(fpplab.__file__).resolve().parent

RP = RiskParams(gamma=2.0, p=0.25)
MARKET, SPEC = affine.canonical_affine_market(
    M=[[-0.5, 0.0], [0.0, -0.8]], w=[0.4, 0.5], L=[0.2, 0.15], Lambda=[0.16, 0.09],
    lambda0=0.04, H=[-0.3, 0.2], rp=RP)
SOL = affine.solve_riccati_closed_form(SPEC, RP, 1.0, affine.FORWARD)
_Y0 = np.zeros(2)
WIDDER = WidderFunction(SpectralMeasure([0.3], [1.0], _Y0),
                        EigenfunctionSelection((ExpEigenfunction([0.5, -0.25], _Y0),), _Y0))
CFG = SimulationConfig(dt=0.1, horizon=0.2, n_paths=4, seed=3)


def _residual(y):
    pi = affine.optimal_portfolio_affine(SOL, MARKET, RP, 0.3, y)
    return optimal_portfolio_residual(MARKET, RP, SOL, 0.3, y, pi)


def _report(report):
    return report.to_json(), report.table.tobytes()


# name -> (call of y, the argument it names, whether a stack is admitted).
SITES = {
    "RiccatiSolution.__call__": (lambda y: SOL(0.3, y), "y", True),
    "AffineSpec.h": (SPEC.h, "y", True),
    "optimal_portfolio_affine": (
        lambda y: affine.optimal_portfolio_affine(SOL, MARKET, RP, 0.3, y), "y", True),
    "WidderFunction.__call__": (lambda y: WIDDER(0.3, y), "y", True),
    "WidderFunction.derivatives": (lambda y: WIDDER.derivatives(0.3, y), "y", True),
    "optimal_portfolio_residual": (_residual, "y", True),
    "hjb_residual": (lambda y: _report(hjb_residual(affine.fpp_evaluator(SOL, RP), MARKET, RP,
                                                    [0.3], [1.0], y)), "y_points", True),
    "distortion_roundtrip": (
        lambda y: _report(distortion_roundtrip(SOL, RP, generator_coefficients(MARKET, RP),
                                               [0.3], y).linear), "y_points", True),
    "validate": (lambda y: validate(MARKET, y, RP).to_json(), "grid", True),
    "simulate": (lambda y: simulate(MARKET, CFG, ZeroStrategy(MARKET.n), y0=y).Y.tobytes(),
                 "y0", False),
    "feynman_kac_estimate": (
        lambda y: feynman_kac_estimate(generator_coefficients(MARKET, RP), SPEC.h, 0.2, y, CFG,
                                       domain=MARKET.domain), "y", False),
}

BAD = {
    "3-D": np.full((1, 1, 2), 0.5),
    "wrong width": [0.5, 0.5, 0.5],
    "NaN": [math.nan, 0.5],
    "inf": [[0.5, 0.5], [math.inf, 0.5]],
    "string": ["a", 0.5],
    "ragged": [[0.5, 0.5], [0.5]],
}


def _same(a, b):
    """a and b are equal bit for bit, and b is of a's type (a float row of a
    stack is a numpy float)."""
    if isinstance(a, tuple):
        return type(b) is tuple and len(a) == len(b) and all(map(_same, a, b))
    return isinstance(b, type(a)) and np.asarray(a).tobytes() == np.asarray(b).tobytes()


@pytest.mark.parametrize("site", sorted(SITES))
def test_one_state_is_the_first_row_of_the_one_row_stack(site):
    call, what, stack = SITES[site]
    one = call([0.5, 0.7])
    if not stack:
        # A start is one state; a stack, even of one row, is refused.
        with pytest.raises(ConfigError, match=rf"^{what} has shape \(1, 2\); "):
            call([[0.5, 0.7]])
        return
    rows = call([[0.5, 0.7]])
    if isinstance(rows, np.ndarray):
        assert _same(one, rows[0])
    elif isinstance(rows, tuple) and isinstance(rows[0], np.ndarray):    # Widder derivatives
        assert _same(one, tuple(v[0] for v in rows))
    else:                                       # a report or a maximum over the states
        assert rows == one


def test_u_and_h_of_one_state_are_floats():
    for value in (SOL(0.3, [0.5, 0.7]), SPEC.h([0.5, 0.7]), WIDDER(0.3, [0.5, 0.7]),
                  *WIDDER.derivatives(0.3, [0.5, 0.7])[:2]):
        assert isinstance(value, float)
    assert affine.optimal_portfolio_affine(SOL, MARKET, RP, 0.3, [0.5, 0.7]).shape == (MARKET.n,)


@pytest.mark.parametrize("bad", sorted(BAD))
@pytest.mark.parametrize("site", sorted(SITES))
def test_a_malformed_state_is_refused_by_name(site, bad):
    call, what, _ = SITES[site]
    with pytest.raises(ConfigError) as exc:
        call(BAD[bad])
    assert re.match(rf"{what}(\[\d+\])? (has shape|must be)", str(exc.value)), str(exc.value)


@pytest.mark.parametrize("site", ["hjb_residual", "distortion_roundtrip"])
def test_the_stencils_name_the_callers_shape(site):
    # The finite-difference stack (33, 3) or (3, 1) was named before.
    call, _, _ = SITES[site]
    with pytest.raises(ConfigError, match=r"^y_points has shape \(1, 3\); the (model|generator) "
                                          r"has k=2 factors$"):
        call([[0.5, 0.5, 0.5]])


@pytest.mark.parametrize("what, y0, grid", [
    ("y0", [0.5, 9.0], np.linspace(0.0, 1.0, 5)),      # 9.0 was dropped
    ("y0", [[0.5]], np.linspace(0.0, 1.0, 5)),
    ("y0", "a", np.linspace(0.0, 1.0, 5)),
    ("y0", math.nan, np.linspace(0.0, 1.0, 5)),
    ("grid", 0.5, [0.0, math.nan, 1.0]),                # was "y0 must lie inside the grid span"
    ("grid", 0.5, [0.0, math.inf]),
    ("grid", 0.5, [[0.0, 1.0], [0.5]]),
    ("grid", 0.5, ["a", 1.0]),
    ("grid", 0.5, np.zeros((3, 2))),
    ("grid", 0.5, 1.0),
])
def test_the_one_factor_routine_reads_its_axis_points_as_numbers(what, y0, grid):
    with pytest.raises(ConfigError, match=rf"^{what} must be "):
        solve_eigenfunction_1d(make_heat_generator(), 0.5, y0, 0.0, grid)


def test_a_start_outside_the_domain_is_refused():
    with pytest.raises(ConfigError, match=r"^y0 \[0.5, -3.0\] lies outside the domain "
                                          r"\[0, inf\] x \[0, inf\]$"):
        simulate(MARKET, CFG, ZeroStrategy(MARKET.n), y0=[0.5, -3.0])
    with pytest.raises(ConfigError, match=r"^y \[0.5, -3.0\] lies outside the domain "):
        feynman_kac_estimate(generator_coefficients(MARKET, RP), SPEC.h, 0.2, [0.5, -3.0], CFG,
                             domain=MARKET.domain)
    # On the boundary is inside.
    simulate(MARKET, CFG, ZeroStrategy(MARKET.n), y0=[0.5, 0.0])


def _calls_by_function(name):
    """{"file:Class.function"} of every function of the package calling ``name``."""
    hits = set()

    def visit(node, scope, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, scope + [child.name], path)
                continue
            if isinstance(child, ast.Call) and getattr(child.func, "id", None) == name:
                hits.add(f"{path.name}:{'.'.join(scope)}")
            visit(child, scope, path)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), [], path)
    return hits


def test_states_is_the_gate_and_require_shape_checks_computed_stacks_only():
    assert _calls_by_function("states") == {
        "affine.py:AffineSpec.h", "affine.py:RiccatiSolution.__call__",
        "affine.py:optimal_portfolio_affine", "spectral.py:WidderFunction.__call__",
        "spectral.py:WidderFunction.derivatives", "spectral.py:EigenfunctionSelection.defect",
        "spectral.py:recover_selection", "verify.py:hjb_residual",
        "verify.py:distortion_roundtrip", "verify.py:optimal_portfolio_residual",
        "model.py:validate", "sim.py:simulate", "sim.py:feynman_kac_estimate"}
    # Besides the gate's own wording: grad_y u / u for pi* and the identity,
    # and the per-step Widder states.
    assert _calls_by_function("require_shape") == {
        "model.py:states", "affine.py:optimal_portfolio_from_terms",
        "verify.py:optimal_portfolio_residual", "spectral.py:WidderFunction.log_gradient"}
