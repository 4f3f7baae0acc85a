"""One gate for times and positive numbers: every public entry point that
takes an FPP time reads it through ``model.instants``, in [0, horizon], and
every strictly positive number goes through ``reals(..., positive=True)``.
A time within 1e-12 outside an end is that end; every other malformed time
or level is refused with a ``ConfigError`` naming its argument."""
import ast
import json
import math
import re

import numpy as np
import pytest

from fpplab import affine
from fpplab.cli import main
from fpplab.errors import ConfigError
from fpplab.model import RiskParams, SqrtDiagField, generator_coefficients
from fpplab.sim import SimulationConfig, ZeroStrategy, feynman_kac_estimate, simulate
from fpplab.spectral import (EigenfunctionSelection, ExpEigenfunction, SpectralMeasure,
                             WidderFunction, radial_ode_diagnostic, recover_selection)
from fpplab.verify import distortion_roundtrip, hjb_residual, optimal_portfolio_residual

from conftest import make_heat_generator
from test_states import PACKAGE, _calls_by_function, _same

RP = RiskParams(gamma=2.0, p=0.25)
MARKET, SPEC = affine.canonical_affine_market(
    M=[[-0.5, 0.0], [0.0, -0.8]], w=[0.4, 0.5], L=[0.2, 0.15], Lambda=[0.16, 0.09],
    lambda0=0.04, H=[-0.3, 0.2], rp=RP)
SOL = affine.solve_riccati_closed_form(SPEC, RP, 1.0, affine.FORWARD)
GEN = generator_coefficients(MARKET, RP)
Y = [0.5, 0.7]
_Y0 = np.zeros(2)
WIDDER = WidderFunction(SpectralMeasure([0.3], [1.0], _Y0),
                        EigenfunctionSelection((ExpEigenfunction([0.5, -0.25], _Y0),), _Y0))
CFG = SimulationConfig(dt=0.1, horizon=0.2, n_paths=4, seed=3)


def _concave_V(t, x, y):
    # Defined at every t, so the time stencil of t = 0 stays in its domain.
    return -np.exp(-x) * (1.0 + t * t) * (1.0 + np.sum(y, axis=1))


def _report(report):
    return json.dumps(report.to_json(), sort_keys=True), report.table.tobytes()


def _fresh_phi(t):
    # A new solution, so log_gradient misses its cache and reads Phi(t).
    sol = affine.solve_riccati_closed_form(SPEC, RP, 1.0, affine.FORWARD)
    return sol.log_gradient(t, np.atleast_2d(Y)).copy()


def _residual(t):
    pi = affine.optimal_portfolio_affine(SOL, MARKET, RP, 0.3, Y)
    return optimal_portfolio_residual(MARKET, RP, SOL, t, Y, pi)


# name -> (call of t, the argument it names, its horizon, whether one time
# only is admitted).  The Riccati sites are solved on [0, 1]; Feynman-Kac
# runs up to the config's horizon 0.2 and refuses t = 0 (see below).
TIME_SITES = {
    "RiccatiSolution.state": (SOL.state, "t", 1.0, False),
    "RiccatiSolution.Phi": (SOL.Phi, "t", 1.0, False),
    "RiccatiSolution.Theta": (SOL.Theta, "t", 1.0, False),
    "RiccatiSolution.__call__": (lambda t: SOL(t, Y), "t", 1.0, True),
    "riccati_residual": (lambda t: affine.riccati_residual(SOL, t), "times", 1.0, False),
    "optimal_portfolio_affine[riccati]": (
        lambda t: affine.optimal_portfolio_affine(SOL, MARKET, RP, t, Y), "t", 1.0, True),
    "optimal_portfolio_affine[widder]": (
        lambda t: affine.optimal_portfolio_affine(WIDDER, MARKET, RP, t, Y), "t", math.inf, True),
    "optimal_portfolio_residual": (_residual, "t", 1.0, True),
    "WidderFunction.__call__": (lambda t: WIDDER(t, Y), "t", math.inf, True),
    "WidderFunction.derivatives": (lambda t: WIDDER.derivatives(t, Y), "t", math.inf, True),
    "hjb_residual": (lambda t: _report(hjb_residual(_concave_V, MARKET, RP, t, [1.0], [Y])),
                     "t_vals", math.inf, False),
    "distortion_roundtrip": (lambda t: _report(distortion_roundtrip(WIDDER, RP, GEN, t,
                                                                    [Y]).linear),
                             "t_vals", math.inf, False),
    "feynman_kac_estimate": (lambda t: feynman_kac_estimate(GEN, SPEC.h, t, Y, CFG,
                                                            domain=MARKET.domain),
                             "t", CFG.horizon, True),
    "SpectralMeasure.laplace": (WIDDER.nu.laplace, "t", math.inf, False),
}

BAD_TIMES = {"NaN": math.nan, "inf": math.inf, "string": "a", "-1": -1.0}


@pytest.mark.parametrize("bad", sorted(BAD_TIMES))
@pytest.mark.parametrize("site", sorted(TIME_SITES))
def test_a_malformed_time_is_refused_by_name(site, bad):
    call, what, _, _ = TIME_SITES[site]
    with pytest.raises(ConfigError, match=rf"^{what} must (be|lie in) "):
        call(BAD_TIMES[bad])


@pytest.mark.parametrize("site", sorted(s for s in TIME_SITES if TIME_SITES[s][3]))
def test_a_list_where_one_time_is_expected_is_refused_by_name(site):
    call, what, _, _ = TIME_SITES[site]
    with pytest.raises(ConfigError, match=rf"^{what} must be a number, got \[0.5\]$"):
        call([0.5])


@pytest.mark.parametrize("site", sorted(s for s in TIME_SITES if not TIME_SITES[s][3]))
def test_a_stack_of_times_is_refused_by_name(site):
    # Every time site takes one time or a 1-D list; a 2-D list ended in a
    # numpy broadcasting or concatenation message.
    call, what, _, _ = TIME_SITES[site]
    with pytest.raises(ConfigError, match=rf"^{what} must be one time or a list of times, "
                                          rf"got shape \(1, 2\)$"):
        call([[0.1, 0.2]])


@pytest.mark.parametrize("site", sorted(s for s in TIME_SITES if TIME_SITES[s][2] < math.inf))
def test_a_time_past_the_horizon_is_refused_by_name(site):
    call, what, horizon, _ = TIME_SITES[site]
    t = horizon + 0.1
    with pytest.raises(ConfigError, match=rf"^{what} must lie in \[0, {horizon:g}\], "
                                          rf"got {t:.6g}"):
        call(t)


_VALID = {"feynman_kac_estimate": 0.15}


@pytest.mark.parametrize("site", sorted(TIME_SITES))
def test_a_valid_time_reads_the_same_in_every_spelling(site):
    call, _, _, _ = TIME_SITES[site]
    t = _VALID.get(site, 0.3)
    value = call(t)
    for spelling in (np.float64(t), np.array(t)):
        assert _same(value, call(spelling)), repr(spelling)


def test_a_valid_time_gives_the_solution_at_that_time():
    # The gate hands the time on as it is: z(0.3) is the solver's own output
    # at tau = 0.3, one time alike or in a list.
    z = SOL._state_impl(np.array([0.3]))
    assert _same(SOL.state(0.3), z[0]) and _same(SOL.state([0.3]), z)
    assert SOL(0.3, Y) == float(np.exp(np.asarray(Y) @ z[0, :-1] + z[0, -1]))


@pytest.mark.parametrize("site", sorted(TIME_SITES))
def test_a_time_within_rounding_of_an_end_is_that_end(site):
    call, _, horizon, _ = TIME_SITES[site]
    if site == "feynman_kac_estimate":
        # t = 0 is refused, so a time just below it is too.
        with pytest.raises(ConfigError, match=r"^t must be positive, got -1e-13$"):
            call(-1e-13)
    else:
        assert _same(call(0.0), call(-1e-13))
    if horizon < math.inf:
        assert _same(call(horizon), call(horizon + 1e-13))


def test_log_gradient_reads_phi_through_the_gate_on_a_cache_miss():
    for t in (math.nan, -1.0, 1.1):
        with pytest.raises(ConfigError, match=r"^t must (be|lie in) "):
            _fresh_phi(t)
    assert _same(_fresh_phi(1.0), _fresh_phi(1.0 + 1e-13))
    assert _same(_fresh_phi(0.0), _fresh_phi(-1e-13))


def test_feynman_kac_refuses_a_zero_time_to_go():
    with pytest.raises(ConfigError, match=r"^t must be positive, got 0.0$"):
        TIME_SITES["feynman_kac_estimate"][0](0.0)


# name -> (call of a level, the argument it names, whether one number only
# is admitted).
LEVEL_SITES = {
    "horizon": (lambda v: affine.solve_riccati_closed_form(SPEC, RP, v), "horizon", True),
    "config dt": (lambda v: SimulationConfig(dt=v, horizon=1.0, n_paths=4),
                  "simulation config dt", True),
    "config horizon": (lambda v: SimulationConfig(dt=0.01, horizon=v, n_paths=4),
                       "simulation config horizon", True),
    "x0": (lambda v: simulate(MARKET, CFG, ZeroStrategy(MARKET.n), x0=v), "x0", True),
    "wealth": (lambda v: affine.evaluate_fpp(SOL, RP, 0.5, v, Y), "wealth x", False),
    "hjb fd_step": (lambda v: hjb_residual(_concave_V, MARKET, RP, [0.3], [1.0], [Y],
                                           fd_step=v), "fd_step", True),
    "distortion fd_step": (lambda v: distortion_roundtrip(SOL, RP, GEN, [0.3], [Y], fd_step=v),
                           "fd_step", True),
    "sqrt_diag scale": (lambda v: SqrtDiagField([0.2, v]), "sqrt_diag field scale", False),
    "affine spec L": (lambda v: affine.AffineSpec(
        M=SPEC.M, w=SPEC.w, L=[0.2, v], Lambda=SPEC.Lambda, lambda0=SPEC.lambda0, N=SPEC.N,
        c=SPEC.c, H=SPEC.H), "affine spec L", False),
    "canonical market L": (lambda v: affine.canonical_affine_market(
        M=SPEC.M, w=SPEC.w, L=[0.2, v], Lambda=SPEC.Lambda, lambda0=SPEC.lambda0, H=SPEC.H,
        rp=RP), "affine spec L", False),
    "measure weight": (lambda v: SpectralMeasure([0.3, 0.5], [1.0, v], [0.0]),
                       "spectral measure atom weight", False),
}

BAD_LEVELS = {"NaN": math.nan, "inf": math.inf, "string": "a", "0": 0.0, "-1": -1.0}


@pytest.mark.parametrize("bad", sorted(BAD_LEVELS))
@pytest.mark.parametrize("site", sorted(LEVEL_SITES))
def test_a_malformed_level_is_refused_by_name(site, bad):
    call, what, _ = LEVEL_SITES[site]
    rule = "be positive" if bad in ("0", "-1") else "be"
    with pytest.raises(ConfigError, match=rf"{re.escape(what)} must {rule}"):
        call(BAD_LEVELS[bad])


@pytest.mark.parametrize("site", sorted(s for s in LEVEL_SITES if LEVEL_SITES[s][2]))
def test_a_list_where_one_level_is_expected_is_refused_by_name(site):
    call, what, _ = LEVEL_SITES[site]
    with pytest.raises(ConfigError, match=rf"{re.escape(what)} must be a number, got \[0.5\]$"):
        call([0.5])


def test_hjb_residual_reads_its_wealth_grid_as_numbers():
    V = affine.fpp_evaluator(SOL, RP)
    for bad in (math.nan, "a"):
        with pytest.raises(ConfigError, match=r"^x_vals must be "):
            hjb_residual(V, MARKET, RP, [0.3], [bad], [Y])
    # Power utility has positive wealth: a stencil node at x <= 0 is refused.
    with pytest.raises(ConfigError, match=r"^wealth x must be positive, got "):
        hjb_residual(V, MARKET, RP, [0.3], [-1.0], [Y])


# Without the gates each case ends in a silent result, a TypeError or
# numpy's "could not convert string to float".
MEASURED = {
    "hjb x_vals NaN": (lambda: hjb_residual(affine.fpp_evaluator(SOL, RP), MARKET, RP, [0.3],
                                            [math.nan], [Y]), "x_vals"),
    "evaluate_fpp wealth NaN": (lambda: affine.evaluate_fpp(SOL, RP, 0.5, math.nan, Y),
                                "wealth x"),
    "Widder derivatives t=-1": (lambda: WIDDER.derivatives(-1.0, Y), "t"),
    "widder portfolio t=-1": (
        lambda: affine.optimal_portfolio_affine(WIDDER, MARKET, RP, -1.0, Y), "t"),
    "simulate x0 string": (lambda: simulate(MARKET, CFG, ZeroStrategy(MARKET.n), x0="a"), "x0"),
    "feynman-kac t string": (lambda: TIME_SITES["feynman_kac_estimate"][0]("a"), "t"),
    "feynman-kac t list": (lambda: TIME_SITES["feynman_kac_estimate"][0]([0.15]), "t"),
    "state t string": (lambda: SOL.state("a"), "t"),
    "riccati_residual string": (lambda: affine.riccati_residual(SOL, ["a"]), "times"),
    "riccati portfolio t string": (
        lambda: affine.optimal_portfolio_affine(SOL, MARKET, RP, "a", Y), "t"),
    "portfolio residual t string": (lambda: _residual("a"), "t"),
    "hjb t_vals string": (lambda: hjb_residual(affine.fpp_evaluator(SOL, RP), MARKET, RP, ["a"],
                                               [1.0], [Y]), "t_vals"),
    "distortion t_vals string": (lambda: distortion_roundtrip(SOL, RP, GEN, ["a"], [Y]),
                                 "t_vals"),
    "radial r_max string": (lambda: radial_ode_diagnostic(lambda r: 0.0, 0.0, 3, "a"), "r_max"),
}


@pytest.mark.parametrize("case", sorted(MEASURED))
def test_each_measured_case_is_refused_by_name(case):
    call, what = MEASURED[case]
    with pytest.raises(ConfigError, match=rf"^{re.escape(what)} must (be|lie in) "):
        call()


_TWO_ATOMS = EigenfunctionSelection((ExpEigenfunction([0.5, -0.25], _Y0),
                                     ExpEigenfunction([0.1, 0.2], _Y0)), _Y0)
_ONE_FACTOR = EigenfunctionSelection((ExpEigenfunction([0.5], [0.0]),), [0.0])


@pytest.mark.parametrize("sel, gen, zetas, grid, message", [
    (_TWO_ATOMS, GEN, [0.1, 0.2], [[math.nan, 0.5]], r"^grid\[0\] must be finite"),
    (_TWO_ATOMS, GEN, [0.1, 0.2], [[0.5, 0.5, 0.5]], r"^grid has shape \(1, 3\); the generator "
                                                     r"has k=2 factors$"),
    (_TWO_ATOMS, GEN, [], [Y], r"^zetas has shape \(0,\); the selection has m=2 atoms$"),
    (_TWO_ATOMS, GEN, [0.1], [Y], r"^zetas has shape \(1,\); the selection has m=2 atoms$"),
    (_TWO_ATOMS, GEN, ["a", 0.2], [Y], r"^zetas must be a number or "),
    (_ONE_FACTOR, make_heat_generator(), [0.1], [0.3, 0.6],
     r"^grid has shape \(2,\); the generator has k=1 factors$"),
])
def test_the_defect_reads_its_grid_as_states_and_one_zeta_per_atom(sel, gen, zetas, grid,
                                                                   message):
    with pytest.raises(ConfigError, match=message):
        sel.defect(gen, zetas, grid)


def test_the_defect_takes_one_state_and_a_bare_zeta_for_one_atom():
    # One state is the one-row grid, and one zeta the one-entry list.
    heat = make_heat_generator()
    assert _ONE_FACTOR.defect(heat, [0.125], [0.3]) == _ONE_FACTOR.defect(heat, [0.125], [[0.3]])
    assert _ONE_FACTOR.defect(heat, 0.125, [[0.3], [0.6]]) == \
        _ONE_FACTOR.defect(heat, [0.125], np.array([[0.3], [0.6]]))


_NU = SpectralMeasure([0.5, 2.0], [0.3, 0.7], [0.0])
_T = np.linspace(0.0, 1.0, 12)
_SERIES = np.column_stack([_T, _NU.laplace(_T)])


@pytest.mark.parametrize("keys, message", [
    ([(0.0, 0.1)], r"^samples_by_point key has shape \(2,\); the spectral measure has k=1 "
                   r"factors$"),
    ([(0.0,), (0.1, 0.2)], r"^samples_by_point key has shape \(2,\); "),
    ([("a",)], r"^samples_by_point key must be a number or "),
    ([(math.nan,)], r"^samples_by_point key must be finite, got \[nan\]$"),
    ([((0.0,),)], r"^samples_by_point key has shape \(1, 1\); "),
])
def test_recover_selection_reads_each_key_as_one_state(keys, message):
    with pytest.raises(ConfigError, match=message):
        recover_selection({key: _SERIES for key in keys}, _NU)


def test_recover_selection_takes_a_scalar_or_a_tuple_key_alike():
    scalar = recover_selection({0.0: _SERIES}, _NU)
    tupled = recover_selection({(0.0,): _SERIES}, _NU)
    for a, b in zip(scalar.functions, tupled.functions):
        assert _same(a.points, b.points) and _same(a.values, b.values)


@pytest.fixture
def files(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("FPPLAB_OUT", raising=False)
    MARKET.save(tmp_path / "model.json")
    SPEC.save(tmp_path / "aspec.json")
    CFG.save(tmp_path / "simcfg.json")
    return tmp_path


_MODEL = ["--model", "model.json", "--gamma", "2.0", "--p", "0.25"]


@pytest.mark.parametrize("argv, named", [
    (["affine", "portfolio", "--spec", "aspec.json", *_MODEL, "--horizon", "1.0", "--t", "-1",
      "--y", "0.5,0.7"], "t must lie in [0, inf], got -1.0"),
    (["affine", "portfolio", "--spec", "aspec.json", *_MODEL, "--horizon", "1.0", "--t", "1.5",
      "--y", "0.5,0.7"], "t must lie in [0, 1], got 1.5"),
    (["affine", "solve", "--spec", "aspec.json", "--gamma", "2.0", "--horizon", "0"],
     "horizon must be positive, got 0.0"),
    (["sim", "run", *_MODEL, "--config", "simcfg.json", "--x0", "0"],
     "x0 must be positive, got 0.0"),
    (["sim", "run", *_MODEL, "--config", "simcfg.json", "--dt", "-0.1"],
     "simulation config dt must be positive, got -0.1"),
    (["sim", "feynman-kac", *_MODEL, "--config", "simcfg.json", "--t", "0", "--y", "0.5,0.7"],
     "t must be positive, got 0.0"),
    (["sim", "feynman-kac", *_MODEL, "--config", "simcfg.json", "--t", "0.3", "--y", "0.5,0.7"],
     "t must lie in [0, 0.2], got 0.3"),
    (["verify", "residual", "--which", "hjb", "--model", "model.json", "--affine", "aspec.json",
      "--gamma", "2.0", "--tol-step", "-1"], "fd_step must be positive, got -1.0"),
])
def test_the_cli_exits_one_naming_a_bad_time_or_level(files, capsys, argv, named):
    assert main([*argv, "--out", "o_bad"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert named in err


_TIME_CALLERS = {
    "affine.py:RiccatiSolution.state", "affine.py:riccati_residual",
    "affine.py:optimal_portfolio_affine", "spectral.py:WidderFunction.__call__",
    "spectral.py:WidderFunction.derivatives", "verify.py:hjb_residual",
    "verify.py:distortion_roundtrip", "verify.py:optimal_portfolio_residual",
    "sim.py:feynman_kac_estimate", "spectral.py:SpectralMeasure.laplace"}


def test_instants_is_the_one_time_gate():
    assert _calls_by_function("instants") == _TIME_CALLERS


def _range_refusals():
    """{"file:Class.function"} of every function of the package raising a
    message that words a positivity or time-range rule."""
    rule = re.compile(r"must be positive|must be >= 0|must lie in|solved horizon|time-to-go|"
                      r"positive and finite|configured horizon")
    hits = set()

    def visit(node, scope, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, scope + [child.name], path)
            elif isinstance(child, ast.Raise):
                if any(isinstance(n, ast.Constant) and isinstance(n.value, str)
                       and rule.search(n.value) for n in ast.walk(child)):
                    hits.add(f"{path.name}:{'.'.join(scope)}")
            else:
                visit(child, scope, path)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), [], path)
    return hits


def test_only_the_gates_word_a_positivity_or_time_range_refusal():
    # Besides the gates: values the package computes, not a caller's levels
    # (1 + Gamma p, the sample values u, a(y) on the grid).
    assert _range_refusals() == {"model.py:reals", "model.py:instants",
                                 "model.py:RiskParams.__post_init__", "spectral.py:_parse_samples",
                                 "spectral.py:solve_eigenfunction_1d"}
