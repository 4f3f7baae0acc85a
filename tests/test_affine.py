import json
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.integrate
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from fpplab import affine
from fpplab.errors import (ClosedFormInapplicableError, ConfigError,
                           ExponentOverflowError, IntegrationError,
                           RiccatiBlowUpError)
from fpplab.model import RiskParams, market_terms, sharpe_ratio
from fpplab.affine import (AffineSpec, BACKWARD, FORWARD,
                           canonical_affine_market, evaluate_fpp,
                           evaluate_u_affine, optimal_portfolio_affine,
                           optimal_portfolio_from_terms,
                           riccati_residual, solve_riccati,
                           solve_riccati_closed_form, solve_riccati_numeric)

from conftest import make_tabulated_sigma_model, portfolio_oracle


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
            got = riccati_residual(sol, times)
            want = _residual_per_time(sol, times, 1e-6)
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_numeric_matches_closed_form_random_diagonal(seed):
    # The two routes agree on z = (Phi, Theta), and each satisfies the ODE.
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
        assert np.max(np.abs(num.state(ts) - cf.state(ts))) <= 1e-8
        assert abs(num.Theta(num.anchor_time) - spec.h0) <= 1e-12
        assert max(riccati_residual(cf, ts)) <= 1e-7
        # The dense output's derivative errs relative to the rate: over 14k
        # runs of these specs it reached 4.3e-7, but never 2.5e-8 (1 + rate).
        rate = np.max(np.abs(affine._riccati_rhs(spec, rp)(cf.state(ts))))
        assert max(riccati_residual(num, ts)) <= 1e-7 * (1.0 + rate)
        for sol in (cf, num):
            # Phi and Theta are the columns of z, for array and scalar t.
            for t in (ts, float(ts[7])):
                z = sol.state(t)
                np.testing.assert_array_equal(z[..., :-1], sol.Phi(t))
                np.testing.assert_array_equal(z[..., -1], sol.Theta(t))
            assert type(sol.Theta(float(ts[7]))) is float


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


def test_closed_form_solves_h_equal_to_z_minus():
    # z_- is the repelling fixed point of the forward run: Phi stays there.
    rp = RiskParams(gamma=2.0, p=0.0)
    base = solve_riccati_closed_form(_spec(Lambda=[1.0]), rp, 1.0, FORWARD)
    z_minus = base.components[0].z_minus
    spec = _spec(Lambda=[1.0], H=[z_minus])
    sol = solve_riccati_closed_form(spec, rp, 1.0, FORWARD)
    num = solve_riccati_numeric(spec, rp, 1.0, FORWARD)
    ts = np.linspace(0.0, 1.0, 17)
    np.testing.assert_allclose(sol.Phi(ts), z_minus, atol=1e-14)
    assert np.max(np.abs(sol.Phi(ts) - num.Phi(ts))) <= 1e-10
    # Long after e^{-sqrt(D) t} drops below rounding, Phi and Theta stay finite
    # and exact: Theta = -w z_- t.
    long = solve_riccati_closed_form(_spec(Lambda=[1.0], w=[0.3], H=[z_minus]),
                                     rp, 100.0, FORWARD)
    ts = np.linspace(0.0, 100.0, 11)
    np.testing.assert_allclose(long.Phi(ts)[:, 0], z_minus, rtol=1e-14)
    np.testing.assert_allclose(long.Theta(ts), -0.3 * z_minus * ts, rtol=1e-12, atol=1e-14)


@settings(max_examples=60, deadline=None)
@given(m=st.floats(-8.0, -0.1), L=st.floats(0.05, 2.0), Lam=st.floats(0.0, 1.0),
       w=st.floats(0.0, 1.0), gamma=st.floats(1.2, 6.0), p=st.floats(0.0, 1.0))
def test_forward_run_started_at_the_repelling_root_stays_there(m, L, Lam, w, gamma, p):
    # q = L (H - z_-) / (2 sqrt(D)) is exactly 0 at H = z_-, so rounding is not
    # amplified by e^{sqrt(D) t}; gamma > 1 keeps D >= m^2 > 0.
    rp = RiskParams(gamma=gamma, p=p)
    _, spec = affine.canonical_affine_market(M=[[m]], w=[w], L=[L], Lambda=[Lam],
                                             lambda0=0.04, H=[-100.0], rp=rp)
    # Backward from H far below z_+ has no pole; it gives the solver's roots.
    z_minus = solve_riccati_closed_form(spec, rp, 2.0, BACKWARD).components[0].z_minus
    sol = solve_riccati_closed_form(replace(spec, H=[z_minus]), rp, 2.0, FORWARD)
    drift = np.max(np.abs(sol.Phi(np.linspace(0.0, 2.0, 41)) - z_minus))
    assert drift <= 1e-12 * max(1.0, abs(z_minus))


def test_closed_form_pole_raises_blow_up():
    # Same tan instance as the numeric blow-up, via the explicit solution.
    rp = RiskParams(gamma=0.5, p=0.0)
    # D = 9 - 8 = 1 > 0; H just below z_minus makes q < 0, so the
    # denominator E + q (1 - E) crosses zero inside a long horizon.
    zm = solve_riccati_closed_form(
        _spec(M=[[-3.0]], L=[4.0], Lambda=[2.0]), rp, 0.05, FORWARD)
    z_minus = zm.components[0].z_minus
    with pytest.raises(RiccatiBlowUpError):
        solve_riccati_closed_form(
            _spec(M=[[-3.0]], L=[4.0], Lambda=[2.0], H=[z_minus - 1e-3]),
            rp, 10.0, FORWARD)


@pytest.mark.parametrize("direction,H,t_pole", [
    # D = 1, z_+ = 1, z_- = 1/2.  Forward, H_i < z_- has a pole at
    # ln((z_+ - H_i)/(z_- - H_i)): ln 6 for component 0, ln 1.5 for 1.
    (FORWARD, [0.4, -0.5], math.log(1.5)),
    # Backward, H_i > z_+ has a pole at time-to-go ln((H_i - z_-)/(H_i - z_+)):
    # ln 2 for component 0, ln 1.25 for 1.
    (BACKWARD, [1.5, 3.0], 10.0 - math.log(1.25)),
])
def test_closed_form_reports_earliest_pole_across_components(direction, H, t_pole):
    rp = RiskParams(gamma=0.5, p=0.0)
    spec = _spec(k=2, M=np.diag([-3.0, -3.0]), L=[4.0, 4.0], Lambda=[2.0, 2.0], H=H)
    with pytest.raises(RiccatiBlowUpError) as cf:
        solve_riccati_closed_form(spec, rp, 10.0, direction)
    assert cf.value.blow_up_time == pytest.approx(t_pole, abs=1e-6)
    assert cf.value.component == 1
    with pytest.raises(RiccatiBlowUpError) as num:
        solve_riccati_numeric(spec, rp, 10.0, direction)
    assert num.value.blow_up_time == pytest.approx(t_pole, abs=1e-6)
    assert num.value.component == 1


def test_closed_form_checks_every_discriminant_before_poles():
    # Component 0 has a pole inside the horizon, component 1 has D < 0: the
    # closed form does not apply, and solve_riccati takes the ODE route.
    rp = RiskParams(gamma=0.5, p=0.0)
    spec = _spec(k=2, M=np.diag([-3.0, 0.0]), L=[4.0, 4.0], Lambda=[2.0, 4.0],
                 H=[0.4, 0.0])
    with pytest.raises(ClosedFormInapplicableError, match="component 1"):
        solve_riccati_closed_form(spec, rp, 10.0, FORWARD)
    # Component 1 is Phi = -tan(2t), pole at pi/4 before component 0's ln 6.
    with pytest.raises(RiccatiBlowUpError) as exc:
        solve_riccati(spec, rp, 10.0, FORWARD)
    assert exc.value.blow_up_time == pytest.approx(math.pi / 4, abs=1e-6)


def _assert_closed_form_matches_ode(spec, rp, horizon, direction, tol):
    cf = solve_riccati_closed_form(spec, rp, horizon, direction)
    num = solve_riccati_numeric(spec, rp, horizon, direction)
    ts = np.linspace(0.0, horizon, 41)
    assert np.max(np.abs(cf.Phi(ts) - num.Phi(ts))) <= tol
    assert np.max(np.abs(cf.Theta(ts) - num.Theta(ts))) <= tol
    assert max(riccati_residual(cf)) <= 1e-7


@pytest.mark.parametrize("direction", [FORWARD, BACKWARD])
def test_closed_form_residual_at_tiny_discriminant(direction):
    # D = 5.55e-17: the closed form is chosen and must stay differentiable.
    rp = RiskParams(gamma=0.5, p=0.0)
    spec = _spec(M=[[-0.7040243940423931]], w=[0.2], L=[0.4194753527801486],
                 Lambda=[1.1815958771397335], lambda0=0.01, H=[0.3])
    sol = solve_riccati(spec, rp, 1.0, direction)
    assert sol.method == "closed-form"
    assert 0.0 < sol.components[0].D <= 1e-16
    _assert_closed_form_matches_ode(spec, rp, 1.0, direction, 1e-9)


@settings(max_examples=30, deadline=None)
@given(z=st.floats(-1.0, 1.0), L=st.floats(0.2, 1.5), dH=st.floats(-0.5, 0.5),
       h0=st.floats(-0.5, 0.5), D=st.floats(1e-17, 1e-15), horizon=st.floats(0.2, 1.5))
def test_closed_form_matches_ode_near_zero_discriminant(z, L, dH, h0, D, horizon):
    # gamma = 1/2, p = 0 (Gamma/q = 1): m = -z L and Lambda = (m^2 - D)/L put
    # both stationary roots at about z and the discriminant at about D.
    assume(abs(z) >= 0.05)
    rp = RiskParams(gamma=0.5, p=0.0)
    m = -z * L
    spec = _spec(M=[[m]], w=[0.2], L=[L], Lambda=[(m * m - D) / L],
                 lambda0=0.01, H=[z + dH], h0=h0)
    assume(0.0 < m * m - L * spec.Lambda[0] <= 1e-15)
    for direction in (FORWARD, BACKWARD):
        # |q| sqrt(D) = L |H - r'| / 2 <= 0.375 puts any pole beyond tau = 2.6;
        # still keep away from fast growth toward it, where the ODE's own
        # error nears 1e-9.
        cf = solve_riccati_closed_form(spec, rp, horizon, direction)
        if np.max(np.abs(cf.Phi(np.linspace(0.0, horizon, 41)) - spec.H)) > 0.5:
            continue
        _assert_closed_form_matches_ode(spec, rp, horizon, direction, 1e-9)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_closed_form_blow_up_time_matches_ode(seed):
    # Two components, so that the earliest pole need not be component 0.
    rng = np.random.default_rng(seed)
    rp = RiskParams(gamma=rng.uniform(0.3, 0.95), p=0.0)
    spec = _spec(k=2, M=np.diag(rng.uniform(-3.0, 3.0, 2)), L=rng.uniform(0.5, 4.0, 2),
                 Lambda=rng.uniform(0.0, 0.5, 2), H=rng.uniform(-3.0, 3.0, 2))
    for direction in (FORWARD, BACKWARD):
        try:
            solve_riccati_closed_form(spec, rp, 5.0, direction)
        except ClosedFormInapplicableError:
            return
        except RiccatiBlowUpError as cf:
            with pytest.raises(RiccatiBlowUpError) as num:
                solve_riccati_numeric(spec, rp, 5.0, direction)
            assert num.value.blow_up_time == pytest.approx(cf.blow_up_time, abs=1e-6)


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
    with pytest.raises(ConfigError, match=r"^wealth x must be positive, got 0.0$"):
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
    from fpplab.sim import OptimalStrategy

    market, spec, rp = canonical_2f
    sol = solve_riccati_closed_form(spec, rp, 1.0, FORWARD)
    Y = np.random.default_rng(3).uniform(0.1, 2.0, size=(6, 2))
    stack = optimal_portfolio_affine(sol, market, rp, 0.4, Y)
    assert stack.shape == (6, market.n)
    for i, y in enumerate(Y):
        np.testing.assert_allclose(stack[i], optimal_portfolio_affine(sol, market, rp, 0.4, y),
                                   rtol=1e-13, atol=1e-15)
    alloc = OptimalStrategy(sol, market, rp).allocations(0.4, market_terms(market, Y))
    np.testing.assert_array_equal(alloc, stack)


def test_riccati_solution_is_an_fpp_u_and_pi_takes_phi_per_state(canonical_2f):
    # u(t, Y) and its log-gradient, Phi(t) broadcast to a read-only (P, k)
    # view; one copied phi row per state gives bit for bit the same allocation.
    market, spec, rp = canonical_2f
    sol = solve_riccati_closed_form(spec, rp, 1.0, FORWARD)
    Y = np.random.default_rng(4).uniform(0.1, 2.0, size=(5, 2))
    terms = market_terms(market, Y)
    for t in (0.0, 0.45, 1.0):
        np.testing.assert_array_equal(sol(t, Y), evaluate_u_affine(sol, t, Y))
        assert sol(t, Y[0]) == evaluate_u_affine(sol, t, Y[0])
        phi = sol.log_gradient(t, Y)
        assert phi.shape == (5, 2) and not phi.flags.writeable
        np.testing.assert_array_equal(phi, np.tile(sol.Phi(t), (5, 1)))
        np.testing.assert_array_equal(optimal_portfolio_from_terms(terms, rp, phi.copy()),
                                      optimal_portfolio_from_terms(terms, rp, phi))


def test_log_gradient_keeps_phi_of_at_most_the_store_limit_of_times(monkeypatch,
                                                                     canonical_2f):
    # Past the limit Phi is read on every call, with the same values.
    _, spec, rp = canonical_2f
    sol = solve_riccati_closed_form(spec, rp, 1.0, FORWARD)
    monkeypatch.setattr(affine, "_PHI_STORE_LIMIT", 3)
    ts = np.linspace(0.0, 1.0, 6)
    first = [sol.log_gradient(t, np.zeros((2, 2))).copy() for t in ts]
    assert list(sol._phi_seen) == list(ts[:3])
    for t, phi in zip(ts, first):
        assert sol.log_gradient(t, np.zeros((2, 2))).tobytes() == phi.tobytes()
        assert phi[0].tobytes() == sol.Phi(t).tobytes()
    assert len(sol._phi_seen) == 3


@pytest.mark.parametrize("shape", [(2,), (1, 2), (5, 1), (5, 3)])
def test_pi_refuses_a_log_gradient_not_shaped_p_by_k(canonical_2f, shape):
    # Only (P, k) is read: a shared (k,) row or a wrong k is not broadcast.
    market, spec, rp = canonical_2f
    terms = market_terms(market, np.full((5, 2), 0.5))
    with pytest.raises(ConfigError, match=rf"has shape \({shape[0]},.*the model has k=2"):
        optimal_portfolio_from_terms(terms, rp, np.zeros(shape))


def test_portfolio_refuses_a_non_finite_state(canonical_2f):
    # A NaN factor gave NaN allocations and no error.
    market, spec, rp = canonical_2f
    sol = solve_riccati_closed_form(spec, rp, 1.0, FORWARD)
    with pytest.raises(ConfigError, match=r"^y must be finite, got \[0.05, nan\]$"):
        optimal_portfolio_affine(sol, market, rp, 0.4, [0.05, np.nan])
    with pytest.raises(ConfigError, match=r"^y\[1\] must be finite, got \[inf, 0.5\]$"):
        optimal_portfolio_affine(sol, market, rp, 0.4, [[0.5, 0.5], [np.inf, 0.5], [0.5, 0.5]])


def test_one_factor_u_on_a_two_factor_market_is_refused(canonical_1f, canonical_2f):
    # Phi (1,) of a one-factor spec was broadcast across both factors.
    market, _, rp = canonical_2f
    _, spec, _ = canonical_1f
    sol = solve_riccati_closed_form(spec, rp, 1.0, FORWARD)
    with pytest.raises(ConfigError, match=r"has shape \(1, 1\); the model has k=2"):
        optimal_portfolio_affine(sol, market, rp, 0.4, [0.5, 0.5])


def test_portfolio_with_y_dependent_sigma_matches_formula(canonical_1f):
    # Oracle: (1/gamma)[(sigma^T sigma)^{-1} mu + q pinv(sigma) rho kappa Phi]
    # point by point, for a tabulated full-rank sigma.
    market, spec, rp = canonical_1f
    varying = make_tabulated_sigma_model(market)
    sol = solve_riccati_closed_form(spec, rp, 1.0, FORWARD)
    Y = np.linspace(0.1, 2.5, 5).reshape(-1, 1)
    stack = optimal_portfolio_affine(sol, varying, rp, 0.6, Y)
    for i, y in enumerate(Y):
        expected = portfolio_oracle(varying, sol, rp, 0.6, y)
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

    # solve_riccati_numeric imports solve_ivp when called, so patch it at the source.
    monkeypatch.setattr(scipy.integrate, "solve_ivp", failed_solve)
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


def test_two_factor_riccati_u_refuses_one_factor_states(canonical_2f):
    _, spec, rp = canonical_2f
    sol = solve_riccati(spec, rp, 1.0, FORWARD)
    for y, shape in (([[0.7], [0.9]], r"\(2, 1\)"), ([0.7], r"\(1,\)")):
        with pytest.raises(ConfigError, match=rf"y has shape {shape}; the FPP has k=2 factors"):
            sol(0.2, y)


def test_solution_rejects_times_outside_horizon(canonical_1f):
    _, spec, rp = canonical_1f
    sol = solve_riccati_closed_form(spec, rp, 1.0, FORWARD)
    with pytest.raises(ConfigError, match=r"^t must lie in \[0, 1\], got 1.2$"):
        sol.Phi(1.2)
    with pytest.raises(ConfigError, match=r"^t must lie in \[0, 1\], got -0.5$"):
        sol.Theta(-0.5)


def test_riccati_time_checks_refuse_nan(canonical_1f):
    # NaN compared false with both ends of each range and passed.
    _, spec, rp = canonical_1f
    for horizon in (math.nan, math.inf):
        with pytest.raises(ConfigError, match=f"^horizon must be finite, got {horizon}$"):
            solve_riccati_closed_form(spec, rp, horizon, FORWARD)
    sol = solve_riccati_closed_form(spec, rp, 1.0, FORWARD)
    for t, got in ((math.nan, "nan"), ([0.5, math.nan], r"\[0.5, nan\]")):
        with pytest.raises(ConfigError, match=rf"^t must be finite, got {got}$"):
            sol.state(t)
