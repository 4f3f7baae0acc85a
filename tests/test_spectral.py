import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from fpplab.errors import (ConditioningError, ConfigError,
                           InconsistentDataError, NonRepresentableError,
                           PositivityError)
from fpplab.model import RiskParams, generator_coefficients, market_terms
from fpplab import affine
from fpplab.spectral import (EigenfunctionSelection, ExpEigenfunction,
                             ExpMixEigenfunction, InversionResult,
                             SpectralMeasure, TabulatedEigenfunction,
                             WidderFunction, invert_laplace_discrete,
                             radial_ode_diagnostic, recover_selection,
                             solve_eigenfunction_1d)

from conftest import make_heat_generator


def _exp_mixture_series(zetas, weights, t):
    zetas, weights = np.asarray(zetas, float), np.asarray(weights, float)
    return np.exp(-np.outer(t, zetas)) @ weights


def _sample_series(zetas, weights, n=41, span=1.0):
    t = np.linspace(0.0, span, n)
    return np.column_stack([t, _exp_mixture_series(zetas, weights, t)])


# ---------------------------------------------------------------------------
# SpectralMeasure
# ---------------------------------------------------------------------------

def test_measure_enforces_order_and_positivity():
    with pytest.raises(ConfigError):
        SpectralMeasure([1.0, 0.5], [0.2, 0.3], [0.0])
    with pytest.raises(ConfigError):
        SpectralMeasure([0.5, 1.0], [0.2, -0.3], [0.0])
    nu = SpectralMeasure([0.5, 1.0], [0.2, 0.3], [0.0])
    assert nu.total_mass == pytest.approx(0.5)


def test_measure_json_round_trip():
    nu = SpectralMeasure([0.5, 2.0], [0.3, 0.7], [1.0])
    again = SpectralMeasure.from_json(nu.to_json())
    np.testing.assert_allclose(again.zetas, nu.zetas)
    np.testing.assert_allclose(again.weights, nu.weights)
    np.testing.assert_allclose(again.y0, nu.y0)


# ---------------------------------------------------------------------------
# WidderFunction evaluation
# ---------------------------------------------------------------------------

def test_single_zero_atom_constant_eigenfunction_gives_one():
    y0 = np.array([0.0])
    nu = SpectralMeasure([0.0], [1.0], y0)
    sel = EigenfunctionSelection((ExpEigenfunction([0.0], y0),), y0)
    for t in (0.0, 0.7, 3.0):
        for y in ([-1.0], [0.0], [2.0]):
            assert WidderFunction(nu, sel)(t, y) == pytest.approx(1.0, abs=1e-15)


def test_heat_single_atom_solves_pde_to_high_accuracy():
    # L = (1/2) d2/dy2, atom zeta = 1/2, psi = e^{y - y0}:
    # u(t, y) = e^{-t/2 + y - y0}; fourth-order differences keep the
    # finite-difference defect below 1e-8.
    y0 = np.array([0.0])
    nu = SpectralMeasure([0.5], [1.0], y0)
    sel = EigenfunctionSelection((ExpEigenfunction([1.0], y0),), y0)

    def u(t, y):
        return WidderFunction(nu, sel)(t, [y])

    h = 1e-3
    worst = 0.0
    for t in np.linspace(0.1, 1.0, 5):
        for y in np.linspace(-1.0, 1.0, 5):
            exact = math.exp(-t / 2 + y)
            assert u(t, y) == pytest.approx(exact, rel=1e-14)
            du_dt = (-u(t + 2 * h, y) + 8 * u(t + h, y)
                     - 8 * u(t - h, y) + u(t - 2 * h, y)) / (12 * h)
            d2u = (-u(t, y + 2 * h) + 16 * u(t, y + h) - 30 * u(t, y)
                   + 16 * u(t, y - h) - u(t, y - 2 * h)) / (12 * h * h)
            worst = max(worst, abs(du_dt + 0.5 * d2u))
    assert worst <= 1e-8


def test_mixture_at_time_zero_is_weighted_eigenfunction_sum():
    y0 = np.array([0.3])
    nu = SpectralMeasure([0.2, 1.5], [0.4, 1.1], y0)
    sel = EigenfunctionSelection(
        (ExpEigenfunction([0.5], y0), ExpEigenfunction([-0.2], y0)), y0)
    for y in ([0.0], [0.3], [1.2]):
        expected = 0.4 * sel.psi(0, y) + 1.1 * sel.psi(1, y)
        assert WidderFunction(nu, sel)(0.0, y) == pytest.approx(expected, rel=1e-14)


def test_widder_rejects_negative_time():
    y0 = np.array([0.0])
    nu = SpectralMeasure([0.5], [1.0], y0)
    sel = EigenfunctionSelection((ExpEigenfunction([0.0], y0),), y0)
    with pytest.raises(ConfigError, match=r"^t must lie in \[0, inf\], got -0.1$"):
        WidderFunction(nu, sel)(-0.1, [0.0])


def test_two_factor_widder_u_refuses_one_factor_states():
    # Before the check, u broadcast (P, 1) states across both factors.
    y0 = np.array([0.0, 0.0])
    u = WidderFunction(SpectralMeasure([0.3], [1.0], y0),
                       EigenfunctionSelection((ExpEigenfunction([0.5, -0.25], y0),), y0))
    for call in (u, u.derivatives, u.log_gradient):
        with pytest.raises(ConfigError, match=r"y has shape \(2, 1\); the FPP has k=2 factors"):
            call(0.2, np.array([[0.7], [0.9]]))
    with pytest.raises(ConfigError, match=r"y has shape \(1,\); the FPP has k=2"):
        u(0.2, [0.7])


@pytest.mark.parametrize("sel_y0", [[1.0], [0.0, 0.0]])
def test_widder_rejects_selection_normalized_at_another_y0(sel_y0):
    # Normalized at y = 1, exp(0.5 (y - 1)) gives u(0, 0) = 0.607, not
    # nu.laplace(0) = 1; a y0 of another dimension is no better.
    nu = SpectralMeasure([0.3], [1.0], [0.0])
    sel = EigenfunctionSelection((ExpEigenfunction([0.5] * len(sel_y0), sel_y0),), sel_y0)
    with pytest.raises(ConfigError, match="y0"):
        WidderFunction(nu, sel)


def test_selection_rejects_eigenfunction_normalized_at_another_y0():
    # exp(0.5 (y - 1)) in a selection at y0 = 0 would give u(0, 0) = 0.607
    # under SpectralMeasure([0.3], [1.0], [0.0]), where nu.laplace(0) = 1.
    with pytest.raises(ConfigError, match="y0"):
        EigenfunctionSelection((ExpEigenfunction([0.5], [1.0]),), [0.0])
    with pytest.raises(ConfigError, match="y0"):
        EigenfunctionSelection((ExpEigenfunction([0.5], [0.0]),
                                ExpEigenfunction([0.5, 0.1], [0.0, 0.0])), [0.0])


# ---------------------------------------------------------------------------
# The Widder FPP through affine.evaluate_fpp
# ---------------------------------------------------------------------------

def test_widder_fpp_matches_affine_in_stationary_case():
    # Lambda = 0 with H at the Riccati fixed point -2 (M+N)/L keeps Phi
    # constant, so the affine u is a single synthetic atom with
    # psi(y) = exp(H (y - y0)) and zeta = -(d Theta / dt).
    rp = RiskParams(gamma=2.0, p=0.0)
    spec = affine.AffineSpec(M=[[0.5]], w=[0.3], L=[1.0], Lambda=[0.0],
                             lambda0=0.2, N=[[0.0]], c=[0.0], H=[-1.0], h0=0.1)
    sol = affine.solve_riccati_numeric(spec, rp, 1.0, affine.FORWARD)
    ts = np.linspace(0.0, 1.0, 5)
    assert np.max(np.abs(sol.Phi(ts) - (-1.0))) <= 1e-10

    y0 = np.array([0.8])
    # Theta'(t) = -((w+c).H + (Gamma/2q) lambda0), so the decay rate is
    # zeta = -Theta' = (w+c).H + (Gamma/2q) lambda0.
    zeta = float(spec.w @ spec.H + (rp.Gamma / (2 * rp.q)) * spec.lambda0)
    weight = math.exp(float(spec.H @ y0) + spec.h0)
    nu = SpectralMeasure([zeta], [weight], y0)
    u = WidderFunction(nu, EigenfunctionSelection((ExpEigenfunction(spec.H, y0),), y0))

    for t in (0.0, 0.4, 1.0):
        for x in (0.5, 1.0, 2.0):
            for y in ([0.5], [0.8], [1.3]):
                direct = affine.evaluate_fpp(sol, rp, t, x, y)
                mixture = affine.evaluate_fpp(u, rp, t, x, y)
                assert mixture == pytest.approx(direct, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), direction=st.sampled_from([affine.FORWARD, affine.BACKWARD]))
def test_affine_fpp_at_a_stationary_root_is_a_one_atom_widder_fpp(seed, direction):
    # With H at the root that attracts in the time since the anchor (z_+
    # forward, z_- backward), Phi stays at H and u = exp(H.y + Theta(t)) is
    # the single atom zeta = (w+c).H + (Gamma/2q) lambda0 with eigenfunction
    # psi(y) = exp(H.(y - y0)).  The repelling root is not used: there the
    # exact ODE is unstable, and Phi drifts off H by rounding alone (forward
    # with H = z_-, the closed form by up to 5e-7 at t = 2 when sqrt(D) is 8).
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 3))
    rp = RiskParams(gamma=rng.uniform(1.5, 4.0), p=rng.uniform(0.0, 0.5))
    market, spec = affine.canonical_affine_market(
        M=np.diag(rng.uniform(-1.2, -0.1, k)), w=rng.uniform(0.2, 0.6, k),
        L=rng.uniform(0.05, 0.6, k), Lambda=rng.uniform(0.0, 0.5, k),
        lambda0=rng.uniform(0.0, 0.1), H=np.zeros(k), rp=rp, h0=rng.uniform(-0.5, 0.5))
    horizon = rng.uniform(0.2, 2.0)
    roots = affine.solve_riccati_closed_form(spec, rp, horizon, direction).components
    assume(all(c.D > 0 for c in roots))
    H = np.array([c.z_plus if direction == affine.FORWARD else c.z_minus for c in roots])
    spec = replace(spec, H=H)
    sol = affine.solve_riccati_closed_form(spec, rp, horizon, direction)

    y0 = rng.uniform(0.1, 1.5, k)
    zeta = float((spec.w + spec.c) @ H + rp.Gamma / (2 * rp.q) * spec.lambda0)
    weight = math.exp(spec.h0 + H @ y0 + (zeta * horizon if direction == affine.BACKWARD else 0.0))
    psi = ExpEigenfunction(H, y0)
    u = WidderFunction(SpectralMeasure([zeta], [weight], y0),
                       EigenfunctionSelection((psi,), y0))
    Y = rng.uniform(0.05, 2.0, (6, k))
    for t in np.linspace(0.0, horizon, 4):
        np.testing.assert_allclose(u(t, Y), affine.evaluate_u_affine(sol, t, Y), rtol=1e-12)

    # (L - zeta) psi = 0, each term of the defect scaled by the sum of their sizes.
    gen = generator_coefficients(market, rp)
    value, grad, hess = psi.derivatives(Y)
    terms = [0.5 * np.einsum("pij,pij->p", gen.a_batch(Y), hess),
             np.einsum("pi,pi->p", gen.b_batch(Y), grad), gen.P_batch(Y) * value, -zeta * value]
    assert np.max(np.abs(sum(terms)) / sum(np.abs(term) for term in terms)) <= 1e-11


def test_fpp_point_mass_at_time_zero():
    rp = RiskParams(gamma=2.0, p=0.25)
    y0 = np.array([0.4])
    nu = SpectralMeasure([0.7], [1.0], y0)
    sel = EigenfunctionSelection((ExpEigenfunction([0.6], y0),), y0)
    x = 1.7
    expected = rp.gamma ** rp.gamma * x ** (1 - rp.gamma) / (1 - rp.gamma) \
        * sel.psi(0, y0) ** rp.q
    value = affine.evaluate_fpp(WidderFunction(nu, sel), rp, 0.0, x, y0)
    assert value == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("gamma", [0.5, 2.0])
def test_fpp_weight_doubling_scales_by_two_to_q(gamma):
    rp = RiskParams(gamma=gamma, p=0.25)
    y0 = np.array([0.0])
    nu = SpectralMeasure([0.3, 1.0], [0.5, 0.8], y0)
    sel = EigenfunctionSelection(
        (ExpEigenfunction([0.2], y0), ExpEigenfunction([-0.3], y0)), y0)
    base = affine.evaluate_fpp(WidderFunction(nu, sel), rp, 0.6, 1.4, [0.5])
    doubled = affine.evaluate_fpp(WidderFunction(nu.scaled(2.0), sel), rp, 0.6, 1.4, [0.5])
    assert abs(doubled) == pytest.approx(2.0 ** rp.q * abs(base), rel=1e-13)


# ---------------------------------------------------------------------------
# One-factor eigenfunction ODE
# ---------------------------------------------------------------------------

def test_eigenfunction_exponential_solutions(heat_gen):
    grid = np.linspace(-2.0, 3.0, 51)
    plus = solve_eigenfunction_1d(heat_gen, 0.5, 1.0, 1.0, grid)
    assert np.max(np.abs(plus.values - np.exp(grid - 1.0))) <= 1e-8
    assert plus.positive_on_grid
    minus = solve_eigenfunction_1d(heat_gen, 0.5, 1.0, -1.0, grid)
    assert np.max(np.abs(minus.values - np.exp(-(grid - 1.0)))) <= 1e-8


def test_eigenfunction_zero_slope_is_midpoint_mixture(heat_gen):
    # Oracle: (e^{d} + e^{-d}) / 2 evaluated directly.
    grid = np.linspace(-2.0, 3.0, 51)
    flat = solve_eigenfunction_1d(heat_gen, 0.5, 1.0, 0.0, grid)
    oracle = 0.5 * (np.exp(grid - 1.0) + np.exp(-(grid - 1.0)))
    assert np.max(np.abs(flat.values - oracle)) <= 1e-8
    assert flat.positive_on_grid


def test_eigenfunction_solution_affine_in_slope(heat_gen):
    # The ODE is linear and the initial data (1, s) is affine in s.
    grid = np.linspace(-1.5, 2.5, 41)
    s1, s2, s = 1.0, 0.7, 0.25
    f_plus = solve_eigenfunction_1d(heat_gen, 0.5, 0.5, s1, grid)
    f_minus = solve_eigenfunction_1d(heat_gen, 0.5, 0.5, -s2, grid)
    f_mid = solve_eigenfunction_1d(heat_gen, 0.5, 0.5, s, grid)
    lam = (s + s2) / (s1 + s2)
    combo = lam * f_plus.values + (1 - lam) * f_minus.values
    assert np.max(np.abs(f_mid.values - combo)) <= 1e-9


def test_eigenfunction_sign_change_detected(heat_gen):
    # zeta < 0 gives psi'' = 2 zeta psi, oscillatory: cos(sqrt(-2 zeta) y)
    # with the first zero at pi/2 / sqrt(-2 zeta).
    grid = np.linspace(-3.0, 3.0, 121)
    f = solve_eigenfunction_1d(heat_gen, -2.0, 0.0, 0.0, grid)
    assert not f.positive_on_grid
    assert abs(abs(f.first_sign_change) - math.pi / 4) <= 1e-3


def test_eigenfunction_defect_small_on_interior(heat_gen):
    grid = np.linspace(-2.0, 2.0, 41)
    f = solve_eigenfunction_1d(heat_gen, 0.5, 0.0, 1.0, grid)
    sel = EigenfunctionSelection((f,), np.array([0.0]))
    assert sel.normalization_residual() <= 1e-10
    assert sel.defect(heat_gen, [0.5], grid[2:-2].reshape(-1, 1)) <= 1e-6


def test_ode_eigenfunction_selection_has_no_json_form(heat_gen):
    f = solve_eigenfunction_1d(heat_gen, 0.5, 0.0, 0.0, np.linspace(-1.0, 1.0, 21))
    sel = EigenfunctionSelection((f,), np.array([0.0]))
    with pytest.raises(ConfigError, match="kind 'ode' has no JSON form"):
        sel.to_json()


@pytest.mark.parametrize("y0", [1.0, -1.0])
def test_ode_eigenfunction_evaluates_at_its_grid_end_y0(heat_gen, y0):
    # y0 at a grid end leaves one side of length zero, whose state stays the
    # initial (1, s).  The Hessian at y0 is one-sided, O(h).
    grid = np.linspace(-1.0, 1.0, 11)
    f = solve_eigenfunction_1d(heat_gen, 0.5, y0, 1.0, grid)
    assert f(y0) == 1.0
    psi, grad, _ = f.derivatives(np.array([[y0]]))
    assert (psi[0], grad[0, 0]) == (1.0, 1.0)
    assert np.max(np.abs(f.values - np.exp(grid - y0))) <= 1e-8
    sel = EigenfunctionSelection((f,), np.array([y0]))
    assert sel.normalization_residual() == 0.0
    assert sel.defect(heat_gen, [0.5], grid.reshape(-1, 1)) <= 1e-5


@settings(max_examples=60, deadline=None)
@given(zeta=st.floats(0.05, 2.0), lo=st.floats(-2.0, 0.5), width=st.floats(0.2, 3.0),
       at=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
       n=st.integers(2, 61), tilt=st.floats(-1.0, 1.0))
def test_one_solve_matches_the_analytic_heat_eigenfunctions(zeta, lo, width, at, n, tilt):
    # psi'' = 2 zeta psi from (1, s): cosh(r d) + (s / r) sinh(r d), d = y - y0,
    # r = sqrt(2 zeta), a positive mix of e^{+-r d} for |s| <= r.  Both sides of
    # y0, either of them possibly of length zero, come from the one solve.
    r = math.sqrt(2.0 * zeta)
    slope, y0 = tilt * r, lo + at * width
    grid = np.linspace(lo, lo + width, n)
    f = solve_eigenfunction_1d(make_heat_generator(), zeta, y0, slope, grid)
    d = grid - y0
    exact = np.cosh(r * d) + slope / r * np.sinh(r * d)
    assert np.max(np.abs(f.values - exact) / exact) <= 1e-8
    _, grad, _ = f.derivatives(grid[:, None])
    dexact = r * np.sinh(r * d) + slope * np.cosh(r * d)
    assert np.max(np.abs(grad[:, 0] - dexact) / (np.abs(dexact) + r * exact)) <= 1e-8


def _canonical_1f_eigenfunction_data():
    """(generator, zeta, slope z+) of psi = exp(z+ (y - y0)) on canonical 1f."""
    rp = RiskParams(gamma=2.0, p=0.25)
    market, spec = affine.canonical_affine_market(
        M=[[-0.5]], w=[0.4], L=[0.2], Lambda=[0.25], lambda0=0.05, H=[-0.3], rp=rp)
    v = affine.solve_riccati_closed_form(spec, rp, 1.0).components[0].z_plus
    zeta = float((spec.w + spec.c)[0] * v + rp.Gamma / (2 * rp.q) * spec.lambda0)
    return generator_coefficients(market, rp), zeta, v


def test_one_solve_takes_at_most_sixty_percent_of_the_two_sided_evaluations(monkeypatch):
    # Two solves, one per side of y0, took 484 right-hand-side evaluations
    # here; one solve takes as many steps as the harder side needs.
    import scipy.integrate
    real, nfev = scipy.integrate.solve_ivp, []

    def counting(*args, **kwargs):
        sol = real(*args, **kwargs)
        nfev.append(sol.nfev)
        return sol

    monkeypatch.setattr(scipy.integrate, "solve_ivp", counting)
    gen, zeta, v = _canonical_1f_eigenfunction_data()
    grid = np.linspace(0.3, 2.0, 41)
    f = solve_eigenfunction_1d(gen, zeta, 1.0, v, grid)
    assert sum(nfev) <= 0.6 * 484
    exact = np.exp(v * (grid - 1.0))
    assert np.max(np.abs(f.values - exact) / exact) <= 1e-9


@pytest.mark.parametrize("where", ["left end", "right end", "one point"])
@pytest.mark.parametrize("generator", ["heat", "canonical_1f"])
def test_a_side_of_length_zero_keeps_the_initial_state_exactly(where, generator):
    if generator == "heat":
        gen, zeta, slope = make_heat_generator(), 0.5, 0.7
    else:
        gen, zeta, slope = _canonical_1f_eigenfunction_data()
    y0, grid = 1.0, {"left end": np.linspace(1.0, 2.0, 11),
                     "right end": np.linspace(0.3, 1.0, 11), "one point": np.array([1.0])}[where]
    f = solve_eigenfunction_1d(gen, zeta, y0, slope, grid)
    assert f(y0) == 1.0 and f(np.array([y0])) == 1.0
    with np.errstate(invalid="ignore"):     # the one-point grid has no difference step
        psi, grad, _ = f.derivatives(np.array([[y0]]))
    assert (psi[0], grad[0, 0]) == (1.0, slope)
    assert f.values[grid == y0].tolist() == [1.0]
    # A state past the side of length zero is clipped to y0 and keeps its state.
    for step in {"left end": [-0.5], "right end": [0.5], "one point": [-0.5, 0.5]}[where]:
        assert f(y0 + step) == 1.0


def _random_eigenfunction(kind, rng, heat_gen):
    """(eigenfunction, states (P, k)) with the states inside its domain."""
    if kind == "tabulated":
        points = rng.uniform(-1.0, 1.0, (6, 2))
        f = TabulatedEigenfunction(points, rng.uniform(0.5, 2.0, 6), points[0])
        return f, points[rng.permutation(6)]
    if kind == "ode":
        grid = np.linspace(-1.5, 1.5, 31)
        f = solve_eigenfunction_1d(heat_gen, rng.uniform(0.05, 1.0), rng.uniform(-0.5, 0.5),
                                   rng.uniform(-1.0, 1.0), grid)
        return f, rng.uniform(-1.0, 1.0, (5, 1))
    if kind == "expmix":
        f = ExpMixEigenfunction(rng.uniform(0.0, 1.0), rng.uniform(0.0, 2.0),
                                rng.uniform(-2.0, 0.0), rng.uniform(-0.5, 0.5, 1))
        return f, rng.uniform(-1.0, 1.0, (5, 1))
    k = int(kind[-1])
    f = ExpEigenfunction(rng.uniform(-1.5, 1.5, k), rng.uniform(-0.5, 0.5, k))
    return f, rng.uniform(-1.0, 1.0, (5, k))


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["exp1", "exp2", "expmix", "ode", "tabulated"]),
       seed=st.integers(0, 10_000))
def test_eigenfunction_rows_and_derivatives_match_batch(kind, seed):
    f, Y = _random_eigenfunction(kind, np.random.default_rng(seed), make_heat_generator())
    values = f.batch(Y)
    assert values.shape == (len(Y),)
    for y, v in zip(Y, values):
        assert f(y) == pytest.approx(v, rel=1e-13)
    if kind == "tabulated":
        return
    psi, grad, hess = f.derivatives(Y)
    np.testing.assert_allclose(psi, values, rtol=1e-13)
    # Second-order central differences of batch, h = 1e-3.
    h, k = 1e-3, Y.shape[1]
    tol = 1e-5 * max(1.0, np.max(np.abs(values)))
    E = h * np.eye(k)
    for a in range(k):
        fd = (f.batch(Y + E[a]) - f.batch(Y - E[a])) / (2 * h)
        np.testing.assert_allclose(grad[:, a], fd, rtol=0, atol=tol)
        for b in range(k):
            fd = (f.batch(Y + E[a] + E[b]) - f.batch(Y + E[a] - E[b])
                  - f.batch(Y - E[a] + E[b]) + f.batch(Y - E[a] - E[b])) / (4 * h * h)
            np.testing.assert_allclose(hess[:, a, b], fd, rtol=0, atol=tol)


def test_eigenfunction_requires_positive_diffusion(heat_gen):
    bad = make_heat_generator()
    object.__setattr__(bad, "a_batch", lambda Y: np.zeros((np.atleast_2d(Y).shape[0], 1, 1)))
    with pytest.raises(ConfigError):
        solve_eigenfunction_1d(bad, 0.5, 0.0, 1.0, np.linspace(-1, 1, 11))


# ---------------------------------------------------------------------------
# Laplace inversion
# ---------------------------------------------------------------------------

def test_invert_constant_signal():
    t = np.linspace(0.0, 1.0, 41)
    res = invert_laplace_discrete(np.column_stack([t, np.ones_like(t)]), 1)
    assert abs(res.measure.zetas[0]) <= 1e-12
    assert res.measure.weights[0] == pytest.approx(1.0, abs=1e-12)
    assert res.fit_residual <= 1e-12


def test_invert_two_atom_signal():
    # Forward-synthesis oracle: samples built directly from the atom data.
    res = invert_laplace_discrete(_sample_series([0.5, 2.0], [0.3, 0.7]), 2)
    np.testing.assert_allclose(res.measure.zetas, [0.5, 2.0], atol=1e-6)
    np.testing.assert_allclose(res.measure.weights, [0.3, 0.7], atol=1e-6)


def test_invert_overfit_collapses_to_true_order():
    # Requesting m=3 on a 2-exponential signal: the Hankel matrix has exact
    # numerical rank 2, so no spurious third atom can carry mass.
    res = invert_laplace_discrete(_sample_series([0.5, 2.0], [0.3, 0.7]), 3)
    assert res.m_effective == 2
    extra = [w for z, w in zip(res.measure.zetas, res.measure.weights)
             if min(abs(z - 0.5), abs(z - 2.0)) > 1e-4]
    assert all(w <= 1e-8 for w in extra)
    np.testing.assert_allclose(res.measure.laplace(np.linspace(0, 1, 41)),
                               _sample_series([0.5, 2.0], [0.3, 0.7])[:, 1],
                               atol=1e-10)


def test_invert_round_trip_randomized_identifiable_measures():
    # Separations are kept >= 0.25: tighter clusters push the Hankel spectrum
    # toward the double-precision floor where atom parameters stop being
    # identifiable at 1e-6 regardless of algorithm.
    rng = np.random.default_rng(77)
    for _ in range(12):
        m = rng.integers(1, 5)
        gaps = rng.uniform(0.25, 1.2, size=m)
        zetas = 0.1 + np.cumsum(gaps)
        weights = rng.uniform(0.1, 1.0, size=m)
        res = invert_laplace_discrete(_sample_series(zetas, weights), int(m))
        assert res.m_effective == m
        assert np.max(np.abs(res.measure.zetas - zetas)) <= 1e-6
        assert np.max(np.abs(res.measure.weights - weights)) <= 1e-6


def test_invert_rejects_non_mixture_signal():
    t = np.linspace(0.0, 1.0, 41)
    u = np.exp(-0.5 * t) - 0.8 * np.exp(-3.0 * t) + 0.5
    with pytest.raises((NonRepresentableError, ConditioningError)):
        invert_laplace_discrete(np.column_stack([t, u]), 2)


def test_invert_conditioning_error_on_unidentifiable_cluster():
    series = _sample_series([0.2, 0.3, 0.4, 0.5], [0.4, 0.15, 0.8, 0.3])
    with pytest.raises(ConditioningError):
        invert_laplace_discrete(series, 4)


def test_invert_input_validation():
    t = np.linspace(0.0, 1.0, 41)
    with pytest.raises(ConfigError):
        invert_laplace_discrete(_sample_series([0.5], [1.0], n=5), 2)  # < 2m+2
    with pytest.raises(PositivityError):
        invert_laplace_discrete(np.column_stack([t, -np.ones_like(t)]), 1)
    irregular = np.column_stack([np.concatenate([t[:-1], [2.0]]), np.ones(41)])
    with pytest.raises(ConfigError):
        invert_laplace_discrete(irregular, 1)


def test_measures_are_distinguishable_from_samples_at_y0():
    # Distinct atomic measures produce visibly different series on [0, 1].
    rng = np.random.default_rng(31)
    t = np.linspace(0.0, 1.0, 1001)
    for _ in range(20):
        m1, m2 = rng.integers(1, 4, size=2)
        z1 = np.sort(rng.uniform(0.0, 3.0, size=m1))
        z2 = np.sort(rng.uniform(0.0, 3.0, size=m2))
        w1 = rng.uniform(0.1, 1.0, size=m1)
        w2 = rng.uniform(0.1, 1.0, size=m2)
        gap = np.max(np.abs(_exp_mixture_series(z1, w1, t)
                            - _exp_mixture_series(z2, w2, t)))
        assert gap > 1e-8


# ---------------------------------------------------------------------------
# Selection recovery
# ---------------------------------------------------------------------------

def _recovery_setup():
    y0 = np.array([1.0])
    nu = SpectralMeasure([0.3, 1.1], [0.6, 0.4], y0)
    sel = EigenfunctionSelection(
        (ExpEigenfunction([0.7], y0), ExpEigenfunction([-0.4], y0)), y0)
    points = [0.6, 0.8, 1.0, 1.2, 1.4]
    t = np.linspace(0.0, 1.0, 41)
    series = {}
    for y in points:
        u = np.array([WidderFunction(nu, sel)(tt, [y]) for tt in t])
        series[(y,)] = np.column_stack([t, u])
    return nu, sel, points, series


def test_recover_selection_round_trip():
    nu, sel, points, series = _recovery_setup()
    rec = recover_selection(series, nu)
    for y in points:
        for i in range(nu.m):
            assert rec.psi(i, [y]) == pytest.approx(sel.psi(i, [y]), abs=1e-6)
    assert rec.normalization_residual() == 0.0


def test_normalization_residual_raises_when_y0_is_not_tabulated():
    # One series away from y0 = 1: psi_i(y0) is unknown, not perfect.
    nu, _, _, series = _recovery_setup()
    rec = recover_selection({(0.6,): series[(0.6,)]}, nu)
    with pytest.raises(ConfigError, match="not among tabulated points"):
        rec.normalization_residual()


def test_recover_selection_single_atom_ratio_identity():
    y0 = np.array([1.0])
    nu = SpectralMeasure([0.8], [1.3], y0)
    sel = EigenfunctionSelection((ExpEigenfunction([0.5], y0),), y0)
    t = np.linspace(0.0, 1.0, 41)
    series = {}
    for y in (0.7, 1.0, 1.6):
        u = np.array([WidderFunction(nu, sel)(tt, [y]) for tt in t])
        series[(y,)] = np.column_stack([t, u])
    rec = recover_selection(series, nu)
    for y in (0.7, 1.0, 1.6):
        u0_y = WidderFunction(nu, sel)(0.0, [y])
        u0_y0 = WidderFunction(nu, sel)(0.0, y0)
        assert rec.psi(0, [y]) == pytest.approx(u0_y / u0_y0, rel=1e-10)


def test_recover_selection_constant_eigenfunctions():
    y0 = np.array([0.0])
    nu = SpectralMeasure([0.2, 0.9], [0.5, 0.5], y0)
    sel = EigenfunctionSelection(
        (ExpEigenfunction([0.0], y0), ExpEigenfunction([0.0], y0)), y0)
    t = np.linspace(0.0, 1.0, 41)
    series = {}
    for y in (-0.5, 0.0, 0.5):
        u = np.array([WidderFunction(nu, sel)(tt, [y]) for tt in t])
        series[(y,)] = np.column_stack([t, u])
    rec = recover_selection(series, nu)
    for y in (-0.5, 0.0, 0.5):
        for i in range(2):
            assert rec.psi(i, [y]) == pytest.approx(1.0, abs=1e-8)


def test_recovered_selection_has_no_derivatives_and_says_so(canonical_1f):
    # A recovered selection is tabulated: every reader of its derivatives
    # raises ConfigError naming the kind, not AttributeError.
    from fpplab.sim import OptimalStrategy

    nu, _, points, series = _recovery_setup()
    rec = recover_selection(series, nu)
    u = WidderFunction(nu, rec)
    Y = np.array(points)[:, None]
    market, _, rp = canonical_1f
    calls = [lambda: u.derivatives(0.2, Y), lambda: u.log_gradient(0.2, Y),
             lambda: affine.optimal_portfolio_affine(u, market, rp, 0.2, Y),
             lambda: OptimalStrategy(u, market, rp).allocations(0.2, market_terms(market, Y)),
             lambda: rec.defect(generator_coefficients(market, rp), nu.zetas, Y)]
    for call in calls:
        with pytest.raises(ConfigError, match="eigenfunction kind 'tabulated' has no derivatives"):
            call()


def test_recover_selection_rejects_inconsistent_series():
    nu, _, _, series = _recovery_setup()
    key = next(iter(series))
    corrupted = series[key].copy()
    corrupted[:, 1] += 0.05 * np.sin(40 * corrupted[:, 0])  # not a mixture
    series[key] = corrupted
    with pytest.raises(InconsistentDataError):
        recover_selection(series, nu)


# ---------------------------------------------------------------------------
# Widder mixture PDE residual
# ---------------------------------------------------------------------------

def test_widder_mixture_satisfies_pde_with_fd(heat_gen):
    # L = (1/2) d2/dy2 with two exponential-pair eigenfunctions; residual of
    # du/dt + L u via plain second-order central differences stays <= 1e-5.
    y0 = np.array([0.0])
    nu = SpectralMeasure([0.3, 0.8], [0.6, 0.7], y0)
    funcs = []
    for zeta in nu.zetas:
        r = math.sqrt(2 * zeta)
        funcs.append(ExpMixEigenfunction(0.5, r, -r, y0))
    sel = EigenfunctionSelection(tuple(funcs), y0)
    u = WidderFunction(nu, sel)
    h = 1e-3
    worst = 0.0
    for t in np.linspace(0.1, 0.9, 5):
        for y in np.linspace(-1.0, 1.0, 7):
            du_dt = (u(t + h, [y]) - u(t - h, [y])) / (2 * h)
            d2u = (u(t, [y + h]) - 2 * u(t, [y]) + u(t, [y - h])) / h ** 2
            worst = max(worst, abs(du_dt + 0.5 * d2u))
    assert worst <= 1e-5


def test_widder_function_analytic_derivatives(heat_gen):
    y0 = np.array([0.0])
    nu = SpectralMeasure([0.4], [1.0], y0)
    r = math.sqrt(0.8)
    sel = EigenfunctionSelection((ExpMixEigenfunction(0.5, r, -r, y0),), y0)
    u = WidderFunction(nu, sel)
    t, y = 0.3, np.array([0.6])
    # Exact: u = e^{-0.4 t} cosh(r y);  du/dt = -0.4 u;  u_yy = r^2 u.
    du_dt, _, _, hess = u.derivatives(t, y[None])
    assert du_dt[0] == pytest.approx(-0.4 * u(t, y), rel=1e-13)
    assert hess[0, 0, 0] == pytest.approx(r ** 2 * u(t, y), rel=1e-13)
    assert abs(du_dt[0] + 0.5 * hess[0, 0, 0]) <= 1e-14


# ---------------------------------------------------------------------------
# Radial diagnostic
# ---------------------------------------------------------------------------

def test_radial_flat_case_gives_log(heat_gen):
    # P0 = 0, zeta = 0, k = 3: g = 1, inner integral = 1/t, outer = log(r_max).
    for r_max in (4.0, 8.0):
        diag = radial_ode_diagnostic(lambda r: 0.0, 0.0, 3, r_max)
        assert diag.truncated_integral == pytest.approx(math.log(r_max), abs=1e-9)
        assert diag.growth_flag
        assert diag.first_zero is None
        assert np.max(np.abs(diag.g0_samples - 1.0)) <= 1e-10


def test_radial_negative_zeta_matches_quadrature_oracle():
    # zeta = -1, k = 3: g = sinh(r)/r exactly, so the inner integral is
    # coth(t) - coth(R) + R/sinh(R)^2 analytically; outer by scipy.quad.
    r_max, R = 4.0, 40.0
    diag = radial_ode_diagnostic(lambda r: 0.0, -1.0, 3, r_max)

    def inner_exact(t):
        return (1.0 / math.tanh(t) - 1.0 / math.tanh(R)
                + R / math.sinh(R) ** 2)

    def outer_integrand(t):
        return (math.sinh(t) / t) ** 2 * inner_exact(t)

    oracle, err = quad(outer_integrand, 1.0, r_max, epsabs=1e-12, epsrel=1e-12)
    assert err < 1e-8
    assert diag.truncated_integral == pytest.approx(oracle, abs=1e-6)
    assert not diag.growth_flag


def test_radial_truncation_monotone_in_r_max():
    d1 = radial_ode_diagnostic(lambda r: 0.0, 0.0, 3, 6.0)
    d2 = radial_ode_diagnostic(lambda r: 0.0, 0.0, 3, 12.0)
    assert d2.truncated_integral > d1.truncated_integral


def test_radial_reports_first_zero_for_oscillatory_solution():
    # zeta = 4, k = 3: g = sin(2r)/(2r), first zero at pi/2.
    diag = radial_ode_diagnostic(lambda r: 0.0, 4.0, 3, 4.0)
    assert diag.first_zero == pytest.approx(math.pi / 2, abs=1e-3)
    assert diag.growth_flag


def test_radial_input_validation():
    with pytest.raises(ConfigError):
        radial_ode_diagnostic(lambda r: 0.0, 0.0, 1, 4.0)
    with pytest.raises(ConfigError):
        radial_ode_diagnostic(lambda r: 0.0, 0.0, 3, 0.5)
