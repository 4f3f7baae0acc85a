import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fpplab.model
from fpplab.errors import (ConcavityViolationError, ConfigError,
                           InsufficientSampleError, PositivityError)
from fpplab.model import (GeneratorCoefficients, RiskParams, generator_coefficients,
                          market_terms, sharpe_ratio)
from fpplab import affine
from fpplab.sim import (OptimalStrategy, PerturbedStrategy,
                        SimulationConfig, ZeroStrategy, simulate)
from fpplab.spectral import (EigenfunctionSelection, ExpEigenfunction, ExpMixEigenfunction,
                             SpectralMeasure, WidderFunction)
from fpplab.verify import (_excess_kurtosis, distortion_roundtrip, hjb_residual,
                           martingale_test, optimal_portfolio_residual)

from conftest import count_calls, make_tabulated_sigma_model


def _affine_setup(fixture):
    market, spec, rp = fixture
    sol = affine.solve_riccati_closed_form(spec, rp, 1.0, affine.FORWARD)
    return market, spec, rp, sol


# ---------------------------------------------------------------------------
# HJB residual
# ---------------------------------------------------------------------------

def test_hjb_residual_small_for_affine_value_function(canonical_1f):
    market, spec, rp, sol = _affine_setup(canonical_1f)

    def V(t, x, y):
        return affine.evaluate_fpp(sol, rp, t, x, y)

    report = hjb_residual(V, market, rp, np.linspace(0.1, 0.9, 4),
                          [0.7, 1.0, 1.4], np.linspace(0.4, 1.6, 4).reshape(-1, 1),
                          fd_step=1e-3)
    assert report.max_abs_residual <= 1e-4


def test_hjb_residual_convergence_order(canonical_1f):
    market, spec, rp, sol = _affine_setup(canonical_1f)

    def V(t, x, y):
        return affine.evaluate_fpp(sol, rp, t, x, y)

    coarse = hjb_residual(V, market, rp, [0.3, 0.6], [1.0], [[0.8], [1.2]],
                          fd_step=1e-2)
    fine = hjb_residual(V, market, rp, [0.3, 0.6], [1.0], [[0.8], [1.2]],
                        fd_step=1e-3)
    slope = math.log10(coarse.max_abs_residual / fine.max_abs_residual)
    assert slope >= 1.8


def test_hjb_log_wealth_negative_control(canonical_1f):
    # V = log x is concave and increasing but solves a different equation:
    # the report must carry a non-trivial residual without raising.
    market, _, rp, _ = _affine_setup(canonical_1f)
    report = hjb_residual(lambda t, x, y: np.log(x), market, rp,
                          [0.5], [1.0], [[1.0]])
    assert report.max_abs_residual > 1e-3


def test_hjb_zero_sharpe_crra_value_is_exact():
    # lambda = 0 and u = 1: every term vanishes identically.
    rp = RiskParams(gamma=2.0, p=0.0)
    market, spec = affine.canonical_affine_market(
        M=[[-0.5]], w=[0.4], L=[0.1], Lambda=[0.0], lambda0=0.0,
        H=[0.0], rp=rp)
    sol = affine.solve_riccati_numeric(spec, rp, 1.0, affine.FORWARD)

    def V(t, x, y):
        return affine.evaluate_fpp(sol, rp, t, x, y)

    report = hjb_residual(V, market, rp, [0.2, 0.8], [0.5, 2.0], [[0.7]])
    assert report.max_abs_residual == 0.0


def test_hjb_residual_evaluates_each_market_coefficient_once(canonical_1f, monkeypatch):
    # One market_terms call serves every grid point, time and wealth.
    market, spec, rp, sol = _affine_setup(canonical_1f)
    varying = make_tabulated_sigma_model(market)
    calls = {f: count_calls(monkeypatch, getattr(varying, f), "batch")
             for f in ("mu", "sigma", "alpha", "kappa")}
    hjb_residual(affine.fpp_evaluator(sol, rp), varying, rp, [0.2, 0.6], [0.5, 1.5],
                 [[0.5], [1.0], [1.7]], order=4)
    assert {f: len(c) for f, c in calls.items()} == dict.fromkeys(calls, 1)


def test_hjb_rejects_convex_candidate(canonical_1f):
    market, _, rp, _ = _affine_setup(canonical_1f)
    with pytest.raises(ConcavityViolationError):
        hjb_residual(lambda t, x, y: x ** 2, market, rp, [0.5], [1.0], [[1.0]])


# ---------------------------------------------------------------------------
# Distortion round trip
# ---------------------------------------------------------------------------

def test_distortion_residuals_small_for_affine_solution(canonical_2f):
    market, spec, rp, sol = _affine_setup(canonical_2f)
    gen = generator_coefficients(market, rp)

    def u(t, y):
        return affine.evaluate_u_affine(sol, t, y)

    grid = np.stack(np.meshgrid(np.linspace(0.4, 1.6, 4),
                                np.linspace(0.4, 1.6, 3),
                                indexing="ij"), axis=-1).reshape(-1, 2)
    report = distortion_roundtrip(u, rp, gen, np.linspace(0.1, 0.9, 5), grid)
    assert report.nonlinear.max_abs_residual <= 1e-4
    assert report.linear.max_abs_residual <= 1e-4


def test_distortion_residuals_coincide_for_p_zero():
    # p = 0 forces q = 1 and g = u: the two reports are identical numbers.
    rp = RiskParams(gamma=2.0, p=0.0)
    market, spec = affine.canonical_affine_market(
        M=[[-0.5]], w=[0.4], L=[0.2], Lambda=[0.25], lambda0=0.05,
        H=[-0.3], rp=rp)
    sol = affine.solve_riccati_closed_form(spec, rp, 1.0, affine.FORWARD)
    gen = generator_coefficients(market, rp)

    def u(t, y):
        return affine.evaluate_u_affine(sol, t, y)

    report = distortion_roundtrip(u, rp, gen, np.linspace(0.1, 0.9, 4),
                                  np.linspace(0.5, 1.5, 4).reshape(-1, 1))
    assert report.nonlinear.max_abs_residual == report.linear.max_abs_residual


def test_distortion_exact_derivative_path_for_widder_mixture(heat_gen):
    # Exact eigenfunction derivatives drive the linear residual to roundoff
    # and the non-linear one below 1e-6.
    rp = RiskParams(gamma=2.0, p=0.25)
    y0 = np.array([0.0])
    nu = SpectralMeasure([0.3, 0.8], [0.6, 0.7], y0)
    funcs = tuple(ExpMixEigenfunction(0.5, math.sqrt(2 * z), -math.sqrt(2 * z), y0)
                  for z in nu.zetas)
    u = WidderFunction(nu, EigenfunctionSelection(funcs, y0))
    report = distortion_roundtrip(u, rp, heat_gen, np.linspace(0.1, 0.9, 5),
                                  np.linspace(-1.0, 1.0, 7).reshape(-1, 1))
    assert report.linear.fd_step == 0.0
    assert report.linear.max_abs_residual <= 1e-8
    assert report.nonlinear.max_abs_residual <= 1e-6


def _cosh_mixture(zetas, weights):
    y0 = np.array([0.0])
    funcs = tuple(ExpMixEigenfunction(0.5, math.sqrt(2 * z), -math.sqrt(2 * z), y0)
                  for z in zetas)
    return WidderFunction(SpectralMeasure(zetas, weights, y0),
                          EigenfunctionSelection(funcs, y0))


def test_exact_path_calls_derivatives_once_per_time_value(heat_gen):
    widder = _cosh_mixture([0.3, 0.8], [0.6, 0.7])
    calls = {"u": 0, "derivatives": 0}

    class Counting:
        def __call__(self, t, Y):
            calls["u"] += 1
            return widder(t, Y)

        def derivatives(self, t, Y):
            calls["derivatives"] += 1
            return widder.derivatives(t, Y)

    t_vals = [0.2, 0.5, 0.8]
    report = distortion_roundtrip(Counting(), RiskParams(gamma=2.0, p=0.25), heat_gen,
                                  t_vals, np.linspace(-1.0, 1.0, 4).reshape(-1, 1))
    assert calls == {"u": 0, "derivatives": len(t_vals)}
    assert report.linear.fd_step == 0.0


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), m=st.integers(2, 3))
def test_exact_and_fd_distortion_agree_on_cosh_mixtures(seed, m):
    # Constant drift and potential on top of the heat generator make the
    # residuals O(1), so the two paths must agree on u, its derivatives and
    # the chain rule, not only on a vanishing residual.  Order-4 stencils with
    # h = 1e-3 agree to about 1e-9 here.
    rng = np.random.default_rng(seed)
    u = _cosh_mixture(np.sort(rng.uniform(0.05, 2.0, m)), rng.uniform(0.2, 1.5, m))
    drift, potential = rng.uniform(-0.5, 0.5, 2)
    gen = GeneratorCoefficients(
        k=1, a=None, b=None, P=None, a_batch=lambda Y: np.ones((len(Y), 1, 1)),
        b_batch=lambda Y: np.full((len(Y), 1), drift),
        P_batch=lambda Y: np.full(len(Y), potential))
    rp = RiskParams(gamma=2.0, p=0.25)
    t_vals, y_points = np.linspace(0.1, 0.9, 4), np.linspace(-1.0, 1.0, 5).reshape(-1, 1)
    exact = distortion_roundtrip(u, rp, gen, t_vals, y_points)
    fd = distortion_roundtrip(lambda t, Y: u(t, Y), rp, gen, t_vals, y_points,
                              order=4)
    assert (exact.linear.fd_step, fd.linear.fd_step) == (0.0, 1e-3)
    for part in ("linear", "nonlinear"):
        np.testing.assert_allclose(getattr(exact, part).table, getattr(fd, part).table,
                                   rtol=0, atol=1e-7)


def test_distortion_rejects_nonpositive_u(heat_gen):
    rp = RiskParams(gamma=2.0, p=0.0)
    with pytest.raises(PositivityError):
        distortion_roundtrip(lambda t, y: -1.0, rp, heat_gen, [0.5], [[0.0]])


def test_concavity_error_names_first_bad_point_in_table_order(canonical_1f):
    # Convex at (t=0.2, y=1.5) for every x and at (t=0.8, y=0.5, x=2): in the
    # documented order (y outer, then t, then x) the second comes first.
    market, _, rp, _ = _affine_setup(canonical_1f)

    def V(t, x, y):
        convex = ((t < 0.5) & (y[:, 0] > 1.0)) | ((t > 0.5) & (y[:, 0] < 1.0) & (x > 1.5))
        return np.where(convex, x ** 2, -x ** 2)

    with pytest.raises(ConcavityViolationError, match=r"\(t=0\.8, x=2\.0, y=\[0\.5\]\)"):
        hjb_residual(V, market, rp, [0.2, 0.8], [1.0, 2.0], [[0.5], [1.5]])


class _ExactCandidate:
    """Candidate exposing exact (here zero) derivatives."""

    def __init__(self, batched):
        self.batched = batched

    def __call__(self, t, Y):
        return self.batched(t, Y)

    def derivatives(self, t, Y):
        P, k = Y.shape
        return np.zeros(P), self.batched(t, Y), np.zeros((P, k)), np.zeros((P, k, k))


@pytest.mark.parametrize("exact", [False, True])
def test_positivity_error_names_first_bad_point_in_table_order(heat_gen, exact):
    # Non-positive at (t=0.2, y=1.5) and (t=0.8, y=0.5): in the documented
    # order (y outer, then t) the second comes first.
    def u(t, y):
        bad = ((t < 0.5) & (y[:, 0] > 1.0)) | ((t > 0.5) & (y[:, 0] < 1.0))
        return np.where(bad, -1.0, 1.0)

    rp = RiskParams(gamma=2.0, p=0.0)
    with pytest.raises(PositivityError, match=r"u\(t=0\.8, y=\[0\.5\]\)"):
        distortion_roundtrip(_ExactCandidate(u) if exact else u, rp, heat_gen,
                             [0.2, 0.8], [[0.5], [1.5]])


@pytest.mark.parametrize("order, calls_per_time", [(2, 3), (4, 5)])
def test_candidate_calls_per_time_value(canonical_2f, order, calls_per_time):
    market, spec, rp, sol = _affine_setup(canonical_2f)
    calls = {"V": 0, "u": 0}

    def V(t, x, y):
        calls["V"] += 1
        return affine.evaluate_fpp(sol, rp, t, x, y)

    def u(t, y):
        calls["u"] += 1
        return affine.evaluate_u_affine(sol, t, y)

    t_vals = [0.2, 0.5, 0.8]
    grid = np.array([[0.5, 0.6], [0.9, 1.4], [1.3, 0.8], [1.6, 1.5]])
    hjb_residual(V, market, rp, t_vals, [0.7, 1.3], grid, order=order)
    distortion_roundtrip(u, rp, generator_coefficients(market, rp), t_vals, grid, order=order)
    assert calls == {"V": len(t_vals) * calls_per_time, "u": len(t_vals) * calls_per_time}


def test_stencil_order_must_be_two_or_four(canonical_1f, heat_gen):
    market, _, rp, sol = _affine_setup(canonical_1f)
    with pytest.raises(ConfigError, match="order must be 2 or 4"):
        hjb_residual(lambda t, x, y: np.log(x), market, rp, [0.5], [1.0], [[1.0]], order=3)
    with pytest.raises(ConfigError, match="order must be 2 or 4"):
        distortion_roundtrip(lambda t, y: 1.0, rp, heat_gen, [0.5], [[0.0]], order=6)


# Reference for the batched stencils: the per-point loop they replaced, one
# candidate call per stencil node, the same formulas and the same row order.

def _d1(f, x, h, order):
    if order == 4:
        return (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12 * h)
    return (f(x + h) - f(x - h)) / (2 * h)


def _d2(f, x, h, order):
    if order == 4:
        return (-f(x + 2 * h) + 16 * f(x + h) - 30 * f(x)
                + 16 * f(x - h) - f(x - 2 * h)) / (12 * h * h)
    return (f(x + h) - 2 * f(x) + f(x - h)) / (h * h)


def _dmixed(f, x, y, hx, hy):
    return (f(x + hx, y + hy) - f(x + hx, y - hy)
            - f(x - hx, y + hy) + f(x - hx, y - hy)) / (4 * hx * hy)


def _subst(y, i, v):
    yp = np.array(y, dtype=float)
    yp[i] = v
    return yp


def _grad_y(fy, y, h, order):
    return np.array([_d1(lambda v: fy(_subst(y, i, v)), y[i], h, order)
                     for i in range(len(y))])


def _hess_y(fy, y, h, order):
    k = len(y)
    H = np.empty((k, k))
    for i in range(k):
        H[i, i] = _d2(lambda v: fy(_subst(y, i, v)), y[i], h, order)
        for j in range(i + 1, k):
            H[i, j] = H[j, i] = _dmixed(lambda vi, vj: fy(_subst(_subst(y, i, vi), j, vj)),
                                        y[i], y[j], h, h)
    return H


def _hjb_rows(V, model, t_vals, x_vals, y_points, h, order):
    rows = []
    for y in y_points:
        kap = np.atleast_2d(model.kappa(y))
        a_y, alpha_y = kap.T @ kap, np.atleast_1d(model.alpha(y))
        lam, rho_kap = sharpe_ratio(model, y), model.rho @ kap
        for t in t_vals:
            for x in x_vals:
                hx = h * max(abs(x), 1.0)
                dVdt = _d1(lambda s: V(s, x, y), t, h, order)
                dVdx = _d1(lambda v: V(t, v, y), x, hx, order)
                d2Vdx2 = _d2(lambda v: V(t, v, y), x, hx, order)
                grad_y = _grad_y(lambda yy: V(t, x, yy), y, h, order)
                hess_y = _hess_y(lambda yy: V(t, x, yy), y, h, order)
                dx_grad_y = np.array([_dmixed(lambda v, yi: V(t, v, _subst(y, i, yi)),
                                              x, y[i], hx, h) for i in range(len(y))])
                gen = 0.5 * np.sum(a_y * hess_y) + alpha_y @ grad_y
                vec = lam * dVdx + rho_kap @ dx_grad_y
                rows.append([t, x, *y, dVdt + gen - 0.5 * (vec @ vec) / d2Vdx2])
    return np.array(rows)


def _distortion_rows(u, rp, gen, t_vals, y_points, h, order):
    q, linear, nonlinear = rp.q, [], []
    for y in y_points:
        a_y, b_y, P_y = gen.a(y), gen.b(y), gen.P(y)
        for t in t_vals:
            u0 = u(t, y)
            du_dt = _d1(lambda s: u(s, y), t, h, order)
            grad_u = _grad_y(lambda yy: u(t, yy), y, h, order)
            hess_u = _hess_y(lambda yy: u(t, yy), y, h, order)
            linear.append([t, *y, du_dt + 0.5 * np.sum(a_y * hess_u)
                           + b_y @ grad_u + P_y * u0])
            g0, slope = u0 ** q, q * u0 ** (q - 1.0)
            grad_g = slope * grad_u
            hess_g = slope * hess_u + q * (q - 1.0) * u0 ** (q - 2.0) * np.outer(grad_u, grad_u)
            nonlinear.append([t, *y, slope * du_dt + 0.5 * np.sum(a_y * hess_g)
                              + b_y @ grad_g + q * P_y * g0
                              + 0.5 * rp.Gamma * rp.p * (grad_g @ a_y @ grad_g) / g0])
    return np.array(linear), np.array(nonlinear)


def _assert_report_matches(report, rows):
    res = np.abs(rows[:, -1])
    assert report.n_points == len(rows)
    assert abs(report.max_abs_residual - res.max()) <= 1e-8
    assert abs(report.mean_abs_residual - res.mean()) <= 1e-8
    np.testing.assert_allclose(report.table, rows, rtol=0, atol=1e-8)


# The market fixtures are never mutated, so sharing them across examples is safe.
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(k=st.sampled_from([1, 2]), order=st.sampled_from([2, 4]),
       seed=st.integers(0, 10_000), n_t=st.integers(1, 3), n_x=st.integers(1, 3),
       n_y=st.integers(1, 4))
def test_batched_stencils_match_per_point_loop(canonical_1f, canonical_2f, k, order, seed,
                                               n_t, n_x, n_y):
    market, spec, rp, sol = _affine_setup(canonical_1f if k == 1 else canonical_2f)
    rng = np.random.default_rng(seed)
    t_vals = np.sort(rng.uniform(0.05, 0.95, n_t))
    x_vals = rng.uniform(0.5, 3.0, n_x)
    y_points = rng.uniform(0.3, 1.8, (n_y, k))

    def V(t, x, y):
        return affine.evaluate_fpp(sol, rp, t, x, y)

    def u(t, y):
        return affine.evaluate_u_affine(sol, t, y)

    report = hjb_residual(V, market, rp, t_vals, x_vals, y_points, fd_step=1e-3,
                          order=order)
    _assert_report_matches(report, _hjb_rows(V, market, t_vals, x_vals, y_points,
                                             1e-3, order))
    gen = generator_coefficients(market, rp)
    report = distortion_roundtrip(u, rp, gen, t_vals, y_points, fd_step=1e-3,
                                  order=order)
    linear, nonlinear = _distortion_rows(u, rp, gen, t_vals, y_points, 1e-3, order)
    _assert_report_matches(report.linear, linear)
    _assert_report_matches(report.nonlinear, nonlinear)


# ---------------------------------------------------------------------------
# Martingale diagnostics
# ---------------------------------------------------------------------------

def _martingale_setup(fixture, n_paths=2000, dt=2e-3):
    market, spec, rp = fixture
    sol = affine.solve_riccati_closed_form(spec, rp, 1.0, affine.FORWARD)
    cfg = SimulationConfig(dt=dt, horizon=1.0, n_paths=n_paths, seed=314,
                           record_stride=max(1, int(round(0.02 / dt))))
    feval = affine.fpp_evaluator(sol, rp)
    opt = OptimalStrategy(sol, market, rp)
    return market, rp, cfg, feval, opt


def test_martingale_verdict_for_optimal_strategy(low_noise_1f):
    market, rp, cfg, feval, opt = _martingale_setup(low_noise_1f)
    bundle = simulate(market, cfg, opt, y0=[1.0])
    report = martingale_test(bundle, feval)
    assert report.verdict == "martingale-consistent"
    assert not report.heavy_tails


def test_supermartingale_verdict_for_zero_strategy(low_noise_1f):
    # pi = 0 with non-zero Sharpe ratio is strictly suboptimal: the drift of
    # U_t(X_t) is non-positive, so the verdict downgrades to supermartingale.
    market, rp, cfg, feval, _ = _martingale_setup(low_noise_1f, n_paths=4000)
    bundle = simulate(market, cfg, ZeroStrategy(market.n), y0=[1.0])
    report = martingale_test(bundle, feval)
    assert report.supermartingale_consistent


def test_martingale_verdicts_monotone_in_perturbation(low_noise_1f):
    # Growing the perturbation never upgrades the verdict back to martingale.
    market, rp, cfg, feval, opt = _martingale_setup(low_noise_1f, n_paths=3000)
    downgraded = False
    for delta in (0.1, 0.2, 0.4):
        bundle = simulate(market, cfg, PerturbedStrategy(opt, delta), y0=[1.0])
        report = martingale_test(bundle, feval)
        assert report.supermartingale_consistent
        if downgraded:
            assert not report.martingale_consistent
        downgraded = downgraded or not report.martingale_consistent
    assert downgraded


def test_martingale_evaluates_u_only_at_the_bucket_edges(low_noise_1f):
    # The increments telescope, so U is needed at the 11 bucket edges only,
    # not at each of the 51 recorded times.
    market, rp, cfg, feval, opt = _martingale_setup(low_noise_1f, n_paths=200, dt=0.01)
    bundle = simulate(market, cfg, opt, y0=[1.0])
    assert bundle.n_times == 51
    seen = []

    def counting(t, x, y):
        seen.append(t)
        return feval(t, x, y)

    report = martingale_test(bundle, counting)
    edges = [b.t_start for b in report.buckets] + [report.buckets[-1].t_end]
    assert seen == edges and len(seen) == 11
    for b in report.buckets:
        j0, j1 = (int(np.argmax(bundle.times == t)) for t in (b.t_start, b.t_end))
        inc = (feval(b.t_end, bundle.X[:, j1], bundle.Y[:, j1])
               - feval(b.t_start, bundle.X[:, j0], bundle.Y[:, j0]))
        assert b.mean == float(np.mean(inc))


def test_martingale_requires_at_least_one_bucket(low_noise_1f):
    # Zero buckets would give an empty table and a vacuous verdict.
    market, rp, cfg, feval, opt = _martingale_setup(low_noise_1f, n_paths=100, dt=0.05)
    bundle = simulate(market, cfg, opt, y0=[1.0])
    for n_buckets in (0, -1):
        with pytest.raises(ConfigError, match="n_buckets"):
            martingale_test(bundle, feval, n_buckets=n_buckets)


def test_martingale_requires_enough_paths(low_noise_1f):
    market, rp, cfg, feval, opt = _martingale_setup(low_noise_1f)
    small = SimulationConfig(dt=0.01, horizon=1.0, n_paths=50, seed=1,
                             record_stride=5)
    bundle = simulate(market, small, opt, y0=[1.0])
    with pytest.raises(InsufficientSampleError):
        martingale_test(bundle, feval)


# ---------------------------------------------------------------------------
# Optimal-portfolio identity
# ---------------------------------------------------------------------------

def test_portfolio_residual_zero_for_constructed_portfolio(canonical_1f):
    market, spec, rp, sol = _affine_setup(canonical_1f)
    for t in (0.0, 0.4, 0.9):
        for y in ([0.5], [1.0], [1.7]):
            pi = affine.optimal_portfolio_affine(sol, market, rp, t, y)
            res = optimal_portfolio_residual(market, rp, sol, t, y, pi)
            assert res <= 1e-10


def test_portfolio_residual_of_myopic_strategy_is_hedging_norm(canonical_1f):
    market, spec, rp, sol = _affine_setup(canonical_1f)
    t, y = 0.4, np.array([0.9])
    sig = market.sigma(y)
    myopic = np.linalg.solve(sig.T @ sig, market.mu(y)) / rp.gamma
    res = optimal_portfolio_residual(market, rp, sol, t, y, myopic)
    expected = (rp.q / rp.gamma) * np.linalg.norm(
        market.rho @ (market.kappa(y) @ sol.Phi(t)))
    assert res == pytest.approx(expected, rel=1e-12)
    assert res > 0


def test_portfolio_residual_p_zero_myopic_is_optimal():
    rp = RiskParams(gamma=2.0, p=0.0)
    market, spec = affine.canonical_affine_market(
        M=[[-0.5]], w=[0.4], L=[0.2], Lambda=[0.25], lambda0=0.05,
        H=[-0.3], rp=rp)
    sol = affine.solve_riccati_closed_form(spec, rp, 1.0, affine.FORWARD)
    y = np.array([0.9])
    sig = market.sigma(y)
    myopic = np.linalg.solve(sig.T @ sig, market.mu(y)) / rp.gamma
    res = optimal_portfolio_residual(market, rp, sol, 0.4, y, myopic)
    assert res <= 1e-14


def test_portfolio_residual_evaluates_and_factors_sigma_once(canonical_1f, monkeypatch):
    market, spec, rp, sol = _affine_setup(canonical_1f)
    varying = make_tabulated_sigma_model(market)
    y = np.array([0.9])
    pi = affine.optimal_portfolio_affine(sol, varying, rp, 0.4, y)
    sigma_calls = count_calls(monkeypatch, varying.sigma, "batch")
    svds = count_calls(monkeypatch, fpplab.model, "_pinv_and_rank")
    res = optimal_portfolio_residual(varying, rp, sol, 0.4, y, pi)
    assert (len(sigma_calls), len(svds)) == (1, 1)
    assert res <= 1e-10


@pytest.mark.parametrize("kind", ["riccati", "widder"])
def test_portfolio_residual_on_a_stack_is_one_market_call_and_the_worst_row(
        canonical_1f, monkeypatch, kind):
    if kind == "widder":
        market, rp, u = _two_atom_widder(canonical_1f)
    else:
        market, _, rp, u = _affine_setup(canonical_1f)
    Y = np.array([[0.2], [0.5], [0.9], [1.3]])
    # Off the optimum by a different amount in each row.
    pi = affine.optimal_portfolio_affine(u, market, rp, 0.4, Y) + 0.01 * np.arange(4)[:, None]
    rows = [optimal_portfolio_residual(market, rp, u, 0.4, y, p) for y, p in zip(Y, pi)]
    assert len(set(rows)) == 4
    calls = count_calls(monkeypatch, fpplab.verify, "market_terms")
    res = optimal_portfolio_residual(market, rp, u, 0.4, Y, pi)
    assert len(calls) == 1
    assert res == pytest.approx(max(rows), rel=1e-13)


def test_portfolio_residual_refuses_a_u_of_another_factor_count(canonical_1f, canonical_2f):
    market, _, rp = canonical_2f
    sol = _affine_setup(canonical_1f)[3]
    with pytest.raises(ConfigError, match=r"has shape \(1, 1\); the model has k=2"):
        optimal_portfolio_residual(market, rp, sol, 0.4, [0.5, 0.5], np.zeros(market.n))
    with pytest.raises(ConfigError, match=r"y has shape \(3,\); the model has k=2"):
        optimal_portfolio_residual(market, rp, sol, 0.4, [0.5, 0.5, 0.5], np.zeros(market.n))


def test_portfolio_residual_refuses_one_pi_for_a_stack_of_states(canonical_1f):
    # One allocation is not compared with every row of the stack.
    market, _, rp, sol = _affine_setup(canonical_1f)
    Y = np.array([[0.5], [0.9]])
    pi = affine.optimal_portfolio_affine(sol, market, rp, 0.4, Y)
    with pytest.raises(ConfigError, match=r"pi has shape \(2,\); y has shape \(2, 1\)"):
        optimal_portfolio_residual(market, rp, sol, 0.4, Y, pi[0])


# ---------------------------------------------------------------------------
# A Widder FPP through the one interface: V, pi* and the optimal strategy
# ---------------------------------------------------------------------------

def _two_atom_widder(fixture, weights=(0.6, 0.4)):
    """u = w_1 e^{-zeta_1 t} psi_1 + w_2 e^{-zeta_2 t} psi_2 on the market of
    ``fixture``, with psi_i = e^{v_i (y - 0.5)} for the stationary Riccati
    roots v = (z_-, z_+) and zeta_i = (w + c) v_i + (Gamma/2q) lambda0.  On
    canonical_1f, v = (-0.0967, 5.656) and zeta = (-0.0496, 2.251), and u is
    not exponential-affine."""
    market, spec, rp = fixture
    roots = affine.solve_riccati_closed_form(spec, rp, 1.0, affine.FORWARD).components[0]
    v = np.array([roots.z_minus, roots.z_plus])
    zetas = float((spec.w + spec.c)[0]) * v + rp.Gamma / (2 * rp.q) * spec.lambda0
    y0 = np.array([0.5])
    sel = EigenfunctionSelection(tuple(ExpEigenfunction([r], y0) for r in v), y0)
    return market, rp, WidderFunction(SpectralMeasure(zetas, list(weights), y0), sel)


def test_widder_fpp_is_a_martingale_under_its_optimal_strategy(canonical_1f):
    market, rp, u = _two_atom_widder(canonical_1f)
    cfg = SimulationConfig(dt=0.01, horizon=1.0, n_paths=10_000, seed=5, record_stride=10)
    V = affine.fpp_evaluator(u, rp)
    opt = OptimalStrategy(u, market, rp)
    report = martingale_test(simulate(market, cfg, opt, y0=[0.5]), V)
    assert max(abs(b.z) for b in report.buckets) < 4.0
    # The delta = 0.3 control needs the 10k paths: at 4k it reads only 3.7.
    control = martingale_test(simulate(market, cfg, PerturbedStrategy(opt, 0.3), y0=[0.5]), V)
    assert max(abs(b.z) for b in control.buckets) > 5.0


def test_widder_portfolio_satisfies_the_optimality_identity(canonical_1f):
    market, rp, u = _two_atom_widder(canonical_1f)
    Y = np.array([[0.2], [0.5], [1.3]])
    for t in (0.0, 0.4, 0.9):
        # grad u / u moves with y, so this is not the affine case in disguise.
        assert np.ptp(u.log_gradient(t, Y)) > 0.1
        stack = affine.optimal_portfolio_affine(u, market, rp, t, Y)
        assert optimal_portfolio_residual(market, rp, u, t, Y, stack) <= 1e-12
        for y, pi in zip(Y, stack):
            np.testing.assert_array_equal(pi, affine.optimal_portfolio_affine(u, market, rp, t, y))
            assert optimal_portfolio_residual(market, rp, u, t, y, pi) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(m=st.floats(-2.0, -0.1), w=st.floats(0.05, 1.0), L=st.floats(0.1, 1.0),
       Lam=st.floats(0.0, 1.0), lambda0=st.floats(0.0, 0.2), gamma=st.floats(1.2, 6.0),
       p=st.floats(0.0, 1.0), weight=st.floats(0.05, 0.95), t=st.floats(0.0, 1.0))
def test_random_two_atom_widder_portfolio_satisfies_the_identity(m, w, L, Lam, lambda0,
                                                                 gamma, p, weight, t):
    # A positive mixture of the two stationary exponentials on a random
    # canonical one-factor market (gamma > 1 keeps D > 0, w > 0 keeps the two
    # zetas apart).
    rp = RiskParams(gamma=gamma, p=p)
    market, spec = affine.canonical_affine_market(M=[[m]], w=[w], L=[L], Lambda=[Lam],
                                                  lambda0=lambda0, H=[0.0], rp=rp)
    _, _, u = _two_atom_widder((market, spec, rp), (weight, 1.0 - weight))
    Y = np.linspace(0.1, 1.5, 6)[:, None]
    stack = affine.optimal_portfolio_affine(u, market, rp, t, Y)
    assert optimal_portfolio_residual(market, rp, u, t, Y, stack) <= 1e-12
    alloc = OptimalStrategy(u, market, rp).allocations(t, market_terms(market, Y))
    np.testing.assert_array_equal(alloc, stack)
    # One row alone may round its matmuls differently, by an ulp or so.
    for y, row in zip(Y, alloc):
        np.testing.assert_allclose(row, affine.optimal_portfolio_affine(u, market, rp, t, y),
                                   rtol=1e-13, atol=1e-15)


def test_one_atom_widder_strategy_matches_the_affine_one(canonical_1f):
    # H at the attracting root z_+ keeps Phi = H, so the affine u is the one
    # atom zeta = (w + c) H + (Gamma/2q) lambda0 with psi = e^{H (y - y0)}.
    market, spec, rp = canonical_1f
    H = affine.solve_riccati_closed_form(spec, rp, 1.0, affine.FORWARD).components[0].z_plus
    spec = replace(spec, H=[H])
    sol = affine.solve_riccati_closed_form(spec, rp, 1.0, affine.FORWARD)
    y0 = np.array([0.5])
    zeta = float((spec.w + spec.c) @ spec.H + rp.Gamma / (2 * rp.q) * spec.lambda0)
    u = WidderFunction(SpectralMeasure([zeta], [math.exp(spec.h0 + H * y0[0])], y0),
                       EigenfunctionSelection((ExpEigenfunction(spec.H, y0),), y0))
    Y = np.linspace(0.05, 2.0, 7)[:, None]
    terms = market_terms(market, Y)
    for t in (0.0, 0.35, 1.0):
        np.testing.assert_allclose(u(t, Y), sol(t, Y), rtol=1e-12)
        np.testing.assert_allclose(
            OptimalStrategy(u, market, rp).allocations(t, terms),
            OptimalStrategy(sol, market, rp).allocations(t, terms),
            rtol=0, atol=1e-12)


@pytest.mark.parametrize("draw", [lambda rng: rng.standard_normal(4000),
                                  lambda rng: rng.standard_t(5, 4000)])
def test_excess_kurtosis_matches_scipy(draw):
    from scipy.stats import kurtosis

    x = draw(np.random.default_rng(3))
    assert _excess_kurtosis(x) == pytest.approx(kurtosis(x), rel=1e-12)
