import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from fpplab import affine
from fpplab.errors import (ClosedFormInapplicableError, ConfigError,
                           ExponentOverflowError, IntegrationError,
                           RiccatiBlowUpError)
from fpplab.model import GridField, ModelSpec, RiskParams, sharpe_ratio
from fpplab.affine import (AffineSpec, BACKWARD, FORWARD,
                           canonical_affine_market, evaluate_fpp,
                           evaluate_u_affine, optimal_portfolio_affine,
                           riccati_residual, solve_riccati,
                           solve_riccati_closed_form, solve_riccati_numeric)


def _spec(k=1, M=None, w=None, L=None, Lambda=None, lambda0=0.0, N=None,
          c=None, H=None, h0=0.0):
    zeros = np.zeros((k, k))
    return AffineSpec(
        M=zeros if M is None else M, w=np.zeros(k) if w is None else w,
        L=np.ones(k) if L is None else L,
        Lambda=np.zeros(k) if Lambda is None else Lambda, lambda0=lambda0,
        N=zeros if N is None else N, c=np.zeros(k) if c is None else c,
        H=np.zeros(k) if H is None else H, h0=h0)


# ---------------------------------------------------------------------------
# Numeric solver
# ---------------------------------------------------------------------------

def test_zero_forcing_keeps_phi_at_equilibrium():
    # Lambda = 0, H = 0: Phi stays 0 and Theta(t) = -(Gamma/2q) lambda0 t.
    rp = RiskParams(gamma=2.0, p=0.0)
    spec = _spec(lambda0=0.4)
    sol = solve_riccati_numeric(spec, rp, 2.0, FORWARD)
    ts = np.linspace(0.0, 2.0, 9)
    assert np.max(np.abs(sol.Phi(ts))) <= 1e-12
    expected = -(rp.Gamma / (2 * rp.q)) * 0.4 * ts
    np.testing.assert_allclose(sol.Theta(ts), expected, atol=1e-10)


def test_numeric_matches_closed_form_scalar_case():
    # gamma=2, p=0, L=1, M+N=0, Lambda=1: D = 1/2, z_pm = +-sqrt(1/2).
    rp = RiskParams(gamma=2.0, p=0.0)
    spec = _spec(Lambda=[1.0])
    cf = solve_riccati_closed_form(spec, rp, 1.0, FORWARD)
    assert cf.components[0].D == pytest.approx(0.5, abs=1e-15)
    assert cf.components[0].z_plus == pytest.approx(math.sqrt(0.5), abs=1e-15)
    assert cf.components[0].z_minus == pytest.approx(-math.sqrt(0.5), abs=1e-15)
    num = solve_riccati_numeric(spec, rp, 1.0, FORWARD)
    ts = np.linspace(0.0, 1.0, 201)
    assert np.max(np.abs(cf.Phi(ts) - num.Phi(ts))) <= 1e-8


def test_diagonal_system_decouples_into_scalar_solves():
    rp = RiskParams(gamma=2.0, p=0.25)
    spec2 = _spec(k=2, M=[[-0.3, 0.0], [0.0, -0.7]], w=[0.2, 0.1],
                  L=[0.5, 1.2], Lambda=[0.4, 0.8], H=[-0.2, 0.3])
    sol2 = solve_riccati_numeric(spec2, rp, 1.0, FORWARD)
    ts = np.linspace(0.0, 1.0, 50)
    for i in range(2):
        spec1 = _spec(k=1, M=[[spec2.M[i, i]]], w=[spec2.w[i]], L=[spec2.L[i]],
                      Lambda=[spec2.Lambda[i]], H=[spec2.H[i]])
        sol1 = solve_riccati_numeric(spec1, rp, 1.0, FORWARD)
        assert np.max(np.abs(sol2.Phi(ts)[:, i] - sol1.Phi(ts)[:, 0])) <= 1e-10


def test_numeric_blow_up_reports_time():
    # gamma=1/2, L=4, Lambda=4, M+N=0: Phi' = -(2 Phi^2 + 2), Phi(0)=0, so
    # Phi = -tan(2t) with a pole at t = pi/4.
    rp = RiskParams(gamma=0.5, p=0.0)
    spec = _spec(L=[4.0], Lambda=[4.0])
    with pytest.raises(RiccatiBlowUpError) as exc:
        solve_riccati_numeric(spec, rp, 3.0, FORWARD)
    assert exc.value.blow_up_time == pytest.approx(math.pi / 4, abs=1e-3)


def test_riccati_residual_invariant_both_methods(canonical_1f):
    _, spec, rp = canonical_1f
    for direction in (FORWARD, BACKWARD):
        for solver in (solve_riccati_closed_form, solve_riccati_numeric):
            sol = solver(spec, rp, 1.0, direction)
            res_phi, res_theta = riccati_residual(sol, np.linspace(0, 1, 100))
            assert res_phi <= 1e-8
            assert res_theta <= 1e-8


def _coupled_spec(h0=0.3):
    return _spec(k=2, M=[[-0.5, 0.1], [0.05, -0.8]], w=[0.4, 0.5],
                 L=[0.2, 0.15], Lambda=[0.16, 0.09], lambda0=0.04,
                 N=[[-0.1, 0.0], [0.0, 0.05]], c=[0.1, -0.2],
                 H=[-0.3, 0.2], h0=h0)


def _residual_per_time(sol, times, h):
    # Reference: the stencils evaluated one time at a time.
    rp, spec = sol.rp, sol.spec
    lam0_term = (rp.Gamma / (2 * rp.q)) * spec.lambda0

    def rhs(phi):
        return -(0.5 * spec.L * phi ** 2 + spec.coupling() @ phi
                 + (rp.Gamma / (2 * rp.q)) * spec.Lambda)

    def ddt(f, t):
        if t - h >= 0.0 and t + h <= sol.horizon:
            return (f(t + h) - f(t - h)) / (2.0 * h)
        if t + 2 * h <= sol.horizon:
            return (-3.0 * f(t) + 4.0 * f(t + h) - f(t + 2 * h)) / (2.0 * h)
        return (3.0 * f(t) - 4.0 * f(t - h) + f(t - 2 * h)) / (2.0 * h)

    max_phi = max_theta = 0.0
    for t in times:
        phi_t = sol.Phi(float(t))
        max_phi = max(max_phi, float(np.max(np.abs(ddt(sol.Phi, float(t)) - rhs(phi_t)))))
        max_theta = max(max_theta, abs(ddt(sol.Theta, float(t))
                                       + (spec.w + spec.c) @ phi_t + lam0_term))
    return max_phi, max_theta


def test_riccati_residual_matches_per_time_stencils(canonical_1f):
    _, spec1, rp = canonical_1f
    times = np.concatenate([np.linspace(0.0, 1.0, 100), [1e-7, 1.0 - 1e-7]])
    for spec, solver in ((spec1, solve_riccati_closed_form),
                         (_coupled_spec(), solve_riccati_numeric)):
        for direction in (FORWARD, BACKWARD):
            sol = solver(spec, rp, 1.0, direction)
            got = riccati_residual(sol, times, fd_step=1e-6)
            want = _residual_per_time(sol, times, 1e-6)
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_numeric_matches_closed_form_random_diagonal(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 3))
    gamma = rng.uniform(0.3, 0.95) if rng.random() < 0.5 else rng.uniform(1.05, 6.0)
    rp = RiskParams(gamma=gamma, p=rng.uniform(0.0, 1.0))
    spec = _spec(k=k, M=np.diag(rng.uniform(-1.5, 0.3, k)),
                 w=rng.uniform(0.0, 0.8, k), L=rng.uniform(0.1, 1.5, k),
                 Lambda=rng.uniform(0.0, 0.8, k), lambda0=rng.uniform(0.0, 0.3),
                 N=np.diag(rng.uniform(-0.3, 0.3, k)), c=rng.uniform(-0.3, 0.3, k),
                 H=rng.uniform(-0.8, 0.8, k), h0=rng.uniform(-0.5, 0.5))
    horizon = rng.uniform(0.2, 2.0)
    ts = np.linspace(0.0, horizon, 41)
    for direction in (FORWARD, BACKWARD):
        try:
            cf = solve_riccati_closed_form(spec, rp, horizon, direction)
        except (ClosedFormInapplicableError, RiccatiBlowUpError):
            assume(False)
        # Keep clear of a pole just beyond the horizon.
        assume(np.max(np.abs(cf.Phi(ts))) <= 10.0)
        num = solve_riccati_numeric(spec, rp, horizon, direction)
        assert np.max(np.abs(num.Phi(ts) - cf.Phi(ts))) <= 1e-8
        assert np.max(np.abs(num.Theta(ts) - cf.Theta(ts))) <= 1e-8
        assert abs(num.Theta(num.anchor_time) - spec.h0) <= 1e-12


def test_numeric_theta_matches_independent_quadrature():
    # Theta(t) = h0 - int_anchor^t ((w+c)^T Phi + (Gamma/2q) lambda0) ds,
    # integrated by scipy's quad over the solver's own Phi.
    rp = RiskParams(gamma=2.0, p=0.25)
    spec = _coupled_spec()
    lam0_term = (rp.Gamma / (2 * rp.q)) * spec.lambda0
    for direction in (FORWARD, BACKWARD):
        sol = solve_riccati_numeric(spec, rp, 1.0, direction)
        rate = lambda s: (spec.w + spec.c) @ sol.Phi(s) + lam0_term  # noqa: E731
        for t in (0.0, 0.3, 0.77, 1.0):
            integral, _ = quad(rate, sol.anchor_time, t, epsabs=1e-13, epsrel=1e-13)
            assert abs(sol.Theta(t) - (spec.h0 - integral)) <= 1e-9


# ---------------------------------------------------------------------------
# Closed form
# ---------------------------------------------------------------------------

def test_closed_form_fixed_point_when_h_equals_z_plus():
    rp = RiskParams(gamma=2.0, p=0.0)
    base = solve_riccati_closed_form(_spec(Lambda=[1.0]), rp, 1.0, FORWARD)
    z_plus = base.components[0].z_plus
    sol = solve_riccati_closed_form(_spec(Lambda=[1.0], H=[z_plus]), rp, 1.0, FORWARD)
    assert sol.components[0].chi == 0.0
    ts = np.linspace(0.0, 1.0, 17)
    np.testing.assert_allclose(sol.Phi(ts), z_plus, atol=1e-14)


def test_closed_form_discriminant_positive_for_gamma_above_one():
    # Gamma < 0 makes -L (Gamma/q) Lambda > 0 whenever Lambda > 0.
    rng = np.random.default_rng(2)
    for _ in range(25):
        rp = RiskParams(gamma=rng.uniform(1.01, 8.0), p=rng.uniform(0, 1))
        m = rng.uniform(-2, 2)
        L = rng.uniform(0.1, 3.0)
        Lam = rng.uniform(0.01, 3.0)
        disc = m ** 2 - L * (rp.Gamma / rp.q) * Lam
        assert disc > 0
        sol = solve_riccati_closed_form(
            _spec(M=[[m]], L=[L], Lambda=[Lam]), rp, 1.0, FORWARD)
        assert sol.components[0].D == pytest.approx(disc, rel=1e-12)


def test_closed_form_rejects_nondiagonal_and_nonpositive_discriminant():
    rp = RiskParams(gamma=2.0, p=0.0)
    with pytest.raises(ClosedFormInapplicableError, match="diagonal"):
        solve_riccati_closed_form(
            _spec(k=2, M=[[0.0, 0.5], [0.0, 0.0]], Lambda=[1.0, 1.0]),
            rp, 1.0, FORWARD)
    with pytest.raises(ClosedFormInapplicableError, match="discriminant"):
        solve_riccati_closed_form(
            _spec(L=[4.0], Lambda=[4.0]), RiskParams(gamma=0.5, p=0.0), 1.0, FORWARD)


def test_closed_form_rejects_h_equal_to_z_minus():
    rp = RiskParams(gamma=2.0, p=0.0)
    base = solve_riccati_closed_form(_spec(Lambda=[1.0]), rp, 1.0, FORWARD)
    z_minus = base.components[0].z_minus
    with pytest.raises(ClosedFormInapplicableError, match="chi undefined"):
        solve_riccati_closed_form(_spec(Lambda=[1.0], H=[z_minus]), rp, 1.0, FORWARD)


def test_closed_form_pole_raises_blow_up():
    # Same tan instance as the numeric blow-up, via the explicit solution.
    rp = RiskParams(gamma=0.5, p=0.0)
    # D = 9 - 8 = 1 > 0; H just below z_minus makes chi > 1, so the
    # denominator crosses zero inside a long horizon.
    zm = solve_riccati_closed_form(
        _spec(M=[[-3.0]], L=[4.0], Lambda=[2.0]), rp, 0.05, FORWARD)
    z_minus = zm.components[0].z_minus
    with pytest.raises(RiccatiBlowUpError):
        solve_riccati_closed_form(
            _spec(M=[[-3.0]], L=[4.0], Lambda=[2.0], H=[z_minus - 1e-3]),
            rp, 10.0, FORWARD)


def test_closed_form_matches_numeric_backward(canonical_2f):
    _, spec, rp = canonical_2f
    cf = solve_riccati_closed_form(spec, rp, 1.5, BACKWARD)
    num = solve_riccati_numeric(spec, rp, 1.5, BACKWARD)
    ts = np.linspace(0.0, 1.5, 120)
    assert np.max(np.abs(cf.Phi(ts) - num.Phi(ts))) <= 1e-7
    assert np.max(np.abs(cf.Theta(ts) - num.Theta(ts))) <= 1e-7


def test_forward_backward_duality_by_residual(canonical_1f):
    # Backward solution reparametrized in time-to-go s = T - t satisfies the
    # sign-flipped equation; checked with an independent finite difference.
    _, spec, rp = canonical_1f
    T = 1.0
    sol = solve_riccati_closed_form(spec, rp, T, BACKWARD)
    mn = spec.coupling()
    forcing = (rp.Gamma / (2 * rp.q)) * spec.Lambda

    def rhs(phi):
        return 0.5 * spec.L * phi ** 2 + mn @ phi + forcing

    h = 1e-6
    for s in np.linspace(0.05, 0.95, 10):
        phi_tilde = lambda sv: sol.Phi(T - sv)   # noqa: E731
        dphi = (phi_tilde(s + h) - phi_tilde(s - h)) / (2 * h)
        assert np.max(np.abs(dphi - rhs(phi_tilde(s)))) <= 1e-7


def test_solve_riccati_falls_back_to_numeric():
    rp = RiskParams(gamma=2.0, p=0.0)
    spec = _spec(k=2, M=[[-0.5, 0.1], [0.0, -0.5]], Lambda=[0.5, 0.5])
    sol = solve_riccati(spec, rp, 1.0, FORWARD)
    assert sol.method == "numeric"
    assert "not diagonal" in sol.fallback_reason
    assert sol.solver["nfev"] > 0 and sol.solver["steps"] > 0
    assert sol.solver["status"] == 0
    sol_diag = solve_riccati(_spec(Lambda=[1.0]), rp, 1.0, FORWARD)
    assert sol_diag.method == "closed-form"
    assert sol_diag.fallback_reason is None and sol_diag.solver is None


# ---------------------------------------------------------------------------
# Evaluations
# ---------------------------------------------------------------------------

def test_u_is_one_for_zero_solution():
    rp = RiskParams(gamma=2.0, p=0.0)
    sol = solve_riccati_numeric(_spec(), rp, 1.0, FORWARD)
    for t in (0.0, 0.5, 1.0):
        assert evaluate_u_affine(sol, t, [0.7]) == pytest.approx(1.0, abs=1e-12)


def test_u_at_time_zero_equals_initial_datum(canonical_1f):
    _, spec, rp = canonical_1f
    sol = solve_riccati_closed_form(spec, rp, 1.0, FORWARD)
    for y in ([0.3], [1.0], [2.5]):
        assert evaluate_u_affine(sol, 0.0, y) == pytest.approx(spec.h(y), rel=1e-12)


def test_u_satisfies_affine_pde_by_central_differences(canonical_2f):
    # Oracle: independent second-order central differences on the affine form
    #   du/dt + (1/2) sum_i L_i y_i d2u/dy_i2 + y^T (M+N) grad u
    #         + (w+c)^T grad u + (Gamma/2q)(Lambda^T y + lambda0) u = 0.
    _, spec, rp = canonical_2f
    sol = solve_riccati_closed_form(spec, rp, 1.0, FORWARD)
    h = 1e-3
    mn = spec.coupling()
    worst = 0.0
    for t in np.linspace(0.1, 0.9, 4):
        for y1 in np.linspace(0.4, 1.6, 4):
            for y2 in np.linspace(0.4, 1.6, 3):
                y = np.array([y1, y2])
                u0 = evaluate_u_affine(sol, t, y)
                du_dt = (evaluate_u_affine(sol, t + h, y)
                         - evaluate_u_affine(sol, t - h, y)) / (2 * h)
                grad = np.zeros(2)
                lap_terms = 0.0
                for i in range(2):
                    e = np.zeros(2)
                    e[i] = h
                    up, dn = evaluate_u_affine(sol, t, y + e), evaluate_u_affine(sol, t, y - e)
                    grad[i] = (up - dn) / (2 * h)
                    lap_terms += 0.5 * spec.L[i] * y[i] * (up - 2 * u0 + dn) / h ** 2
                res = du_dt + lap_terms + y @ (mn @ grad) \
                    + (spec.w + spec.c) @ grad \
                    + (rp.Gamma / (2 * rp.q)) * (spec.Lambda @ y + spec.lambda0) * u0
                worst = max(worst, abs(res))
    assert worst <= 1e-5


def test_u_overflow_raises():
    rp = RiskParams(gamma=2.0, p=0.0)
    spec = _spec(M=[[-0.5]], Lambda=[0.5], H=[2.0])
    sol = solve_riccati_closed_form(spec, rp, 1.0, FORWARD)
    with pytest.raises(ExponentOverflowError):
        evaluate_u_affine(sol, 0.5, [1e4])


def test_fpp_power_utility_arithmetic():
    # gamma = 2: 2^2 * x^{-1}/(-1) * 1 = -4 at x = 1.
    rp2 = RiskParams(gamma=2.0, p=0.0)
    sol = solve_riccati_numeric(_spec(), rp2, 1.0, FORWARD)
    assert evaluate_fpp(sol, rp2, 0.3, 1.0, [0.5]) == pytest.approx(-4.0, abs=1e-12)
    # gamma = 1/2: sqrt(1/2) * sqrt(4) / (1/2) = 2 sqrt(2) at x = 4.
    rp_half = RiskParams(gamma=0.5, p=0.0)
    sol_h = solve_riccati_numeric(_spec(), rp_half, 1.0, FORWARD)
    assert evaluate_fpp(sol_h, rp_half, 0.3, 4.0, [0.5]) == pytest.approx(
        2.0 * math.sqrt(2.0), abs=1e-12)


def test_fpp_strictly_increasing_in_wealth(canonical_1f):
    _, spec, rp = canonical_1f
    sol = solve_riccati_closed_form(spec, rp, 1.0, FORWARD)
    xs = np.linspace(0.25, 4.0, 40)
    vals = [evaluate_fpp(sol, rp, 0.5, x, [1.0]) for x in xs]
    assert np.all(np.diff(vals) > 0)


def test_fpp_rejects_nonpositive_wealth(canonical_1f):
    _, spec, rp = canonical_1f
    sol = solve_riccati_closed_form(spec, rp, 1.0, FORWARD)
    with pytest.raises(ValueError):
        evaluate_fpp(sol, rp, 0.5, 0.0, [1.0])


# ---------------------------------------------------------------------------
# Optimal portfolio
# ---------------------------------------------------------------------------

def test_portfolio_zero_gradient_reduces_to_myopic(canonical_1f):
    market, spec, rp = canonical_1f
    # H = 0 alone does not freeze Phi (Lambda forces it); zero both.
    flat0 = AffineSpec(M=spec.M, w=spec.w, L=spec.L, Lambda=np.zeros(1),
                       lambda0=spec.lambda0, N=spec.N, c=spec.c,
                       H=np.zeros(1), h0=0.0)
    sol = solve_riccati_numeric(flat0, rp, 1.0, FORWARD)
    y = np.array([0.8])
    pi = optimal_portfolio_affine(sol, market, rp, 0.4, y)
    sig = market.sigma(y)
    myopic = np.linalg.solve(sig.T @ sig, market.mu(y)) / rp.gamma
    np.testing.assert_allclose(pi, myopic, atol=1e-14)


def test_portfolio_no_hedging_without_correlation():
    rp = RiskParams(gamma=2.0, p=0.0)
    market, spec = canonical_affine_market(
        M=[[-0.5]], w=[0.4], L=[0.2], Lambda=[0.25], lambda0=0.05,
        H=[-0.3], rp=rp)
    assert np.max(np.abs(market.rho)) == 0.0
    sol = solve_riccati_closed_form(spec, rp, 1.0, FORWARD)
    y = np.array([0.9])
    pi = optimal_portfolio_affine(sol, market, rp, 0.4, y)
    sig = market.sigma(y)
    myopic = np.linalg.solve(sig.T @ sig, market.mu(y)) / rp.gamma
    np.testing.assert_allclose(pi, myopic, atol=1e-14)


def test_portfolio_satisfies_sigma_pi_identity(canonical_1f):
    # Oracle: direct evaluation of the target (1/gamma)(lambda + q rho kappa Phi).
    market, spec, rp = canonical_1f
    sol = solve_riccati_closed_form(spec, rp, 1.0, FORWARD)
    rng = np.random.default_rng(12)
    for _ in range(10):
        t = rng.uniform(0.0, 1.0)
        y = np.array([rng.uniform(0.1, 2.0)])
        pi = optimal_portfolio_affine(sol, market, rp, t, y)
        lam = sharpe_ratio(market, y)
        target = (lam + rp.q * market.rho @ (market.kappa(y) @ sol.Phi(t))) / rp.gamma
        assert np.max(np.abs(market.sigma(y) @ pi - target)) <= 1e-12


def test_portfolio_on_a_stack_equals_per_point_calls_and_strategy(canonical_2f):
    from fpplab.sim import AffineOptimalStrategy

    market, spec, rp = canonical_2f
    sol = solve_riccati_closed_form(spec, rp, 1.0, FORWARD)
    Y = np.random.default_rng(3).uniform(0.1, 2.0, size=(6, 2))
    stack = optimal_portfolio_affine(sol, market, rp, 0.4, Y)
    assert stack.shape == (6, market.n)
    for i, y in enumerate(Y):
        np.testing.assert_allclose(stack[i], optimal_portfolio_affine(sol, market, rp, 0.4, y),
                                   rtol=1e-13, atol=1e-15)
    alloc = AffineOptimalStrategy(sol, market, rp).allocations(0.4, Y, np.ones(6))
    np.testing.assert_array_equal(alloc, stack)


def test_portfolio_with_y_dependent_sigma_matches_formula(canonical_1f):
    # Oracle: (1/gamma)[(sigma^T sigma)^{-1} mu + q pinv(sigma) rho kappa Phi]
    # point by point, for a tabulated full-rank sigma.
    market, spec, rp = canonical_1f
    axis = np.array([0.0, 1.0, 3.0])
    sig_tab = np.eye(2) + axis[:, None, None] * np.array([[0.3, 0.1], [0.0, -0.1]])
    varying = ModelSpec(n=2, k=1, d_W=2, d_B=1, d_Wperp=1, mu=market.mu,
                        sigma=GridField([axis], sig_tab), alpha=market.alpha,
                        kappa=market.kappa, rho=market.rho, domain=market.domain)
    sol = solve_riccati_closed_form(spec, rp, 1.0, FORWARD)
    Y = np.linspace(0.1, 2.5, 5).reshape(-1, 1)
    stack = optimal_portfolio_affine(sol, varying, rp, 0.6, Y)
    for i, y in enumerate(Y):
        sig, mu, kap = varying.sigma(y), varying.mu(y), varying.kappa(y)
        expected = (np.linalg.solve(sig.T @ sig, mu) + rp.q * np.linalg.pinv(sig)
                    @ varying.rho @ kap @ sol.Phi(0.6)) / rp.gamma
        np.testing.assert_allclose(stack[i], expected, rtol=1e-12, atol=1e-14)


# ---------------------------------------------------------------------------
# Solver failures
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("direction,t_reported", [(FORWARD, "0.3"), (BACKWARD, "0.7")])
def test_numeric_solver_failure_is_integration_error(monkeypatch, direction, t_reported):
    # A failed solve without a blow-up event (here: step size underflow after
    # s = 0.3 of time-to-go) is not a blow-up; the time is reported in t.
    from types import SimpleNamespace

    def failed_solve(fun, t_span, y0, **kwargs):
        return SimpleNamespace(status=-1, success=False, t=np.array([0.0, 0.3]),
                               t_events=[np.array([])], message="step size too small",
                               nfev=12, sol=None)

    monkeypatch.setattr(affine, "solve_ivp", failed_solve)
    with pytest.raises(IntegrationError, match=rf"t={t_reported}: step size too small"):
        solve_riccati_numeric(_spec(), RiskParams(2.0, 0.0), 1.0, direction)


# ---------------------------------------------------------------------------
# Spec validation & serialization
# ---------------------------------------------------------------------------

def test_affine_spec_validation_errors():
    with pytest.raises(ConfigError, match="positive"):
        _spec(L=[0.0])
    with pytest.raises(ConfigError, match="off-diagonal"):
        _spec(k=2, M=[[0.0, -0.1], [0.0, 0.0]])
    with pytest.raises(ConfigError, match="non-negative"):
        _spec(w=[-0.2])
    with pytest.raises(ConfigError, match="Lambda"):
        _spec(Lambda=[-0.5])
    with pytest.raises(ConfigError, match="Lambda"):
        _spec(lambda0=-0.1)


def test_affine_spec_json_round_trip(tmp_path, canonical_2f):
    _, spec, _ = canonical_2f
    path = tmp_path / "spec.json"
    with open(path, "w") as fh:
        json.dump(spec.to_json(), fh)
    loaded = AffineSpec.load(path)
    for name in ("M", "w", "L", "Lambda", "N", "c", "H"):
        np.testing.assert_allclose(getattr(loaded, name), getattr(spec, name),
                                   atol=1e-15)
    assert loaded.lambda0 == spec.lambda0
    assert loaded.h0 == spec.h0


def test_solution_rejects_times_outside_horizon(canonical_1f):
    _, spec, rp = canonical_1f
    sol = solve_riccati_closed_form(spec, rp, 1.0, FORWARD)
    with pytest.raises(ValueError):
        sol.Phi(1.2)
    with pytest.raises(ValueError):
        sol.Theta(-0.5)
