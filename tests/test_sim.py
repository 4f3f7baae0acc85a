import numpy as np
import pytest

from fpplab.errors import ConfigError, SimulationError, SingularModelError
from fpplab.model import Box, ConstantField, ModelSpec, RiskParams
from fpplab import affine
from fpplab.sim import (AffineOptimalStrategy, CallableStrategy,
                        ConstantStrategy, PathBundle, PerturbedStrategy,
                        SimulationConfig, Strategy, ZeroStrategy,
                        admissibility_check, feynman_kac_estimate, simulate)

from conftest import make_heat_generator, make_rank_deficient_grid_model


def _flat_market(mu=(0.0, 0.0), rho_val=0.4):
    rho = np.array([[rho_val], [0.0]])
    return ModelSpec(
        n=2, k=1, d_W=2, d_B=1, d_Wperp=1,
        mu=ConstantField(list(mu)), sigma=ConstantField(np.eye(2)),
        alpha=ConstantField([0.0]), kappa=ConstantField([[0.3]]),
        rho=rho, domain=Box([-np.inf], [np.inf]))


# ---------------------------------------------------------------------------
# Config
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ConfigError):
        SimulationConfig(dt=0.0, horizon=1.0, n_paths=10)
    with pytest.raises(ConfigError):
        SimulationConfig(dt=0.5, horizon=0.1, n_paths=10)
    with pytest.raises(ConfigError):
        SimulationConfig(dt=0.1, horizon=1.0, n_paths=0)
    with pytest.raises(ConfigError):
        SimulationConfig(dt=0.1, horizon=1.0, n_paths=10, boundary_policy="bounce")
    cfg = SimulationConfig(dt=0.1, horizon=1.0, n_paths=10)
    assert cfg.n_steps == 10
    assert cfg.dt_effective == pytest.approx(0.1)


def test_config_json_round_trip():
    cfg = SimulationConfig(dt=0.01, horizon=2.0, n_paths=500, seed=7,
                           boundary_policy="absorb", record_stride=5)
    again = SimulationConfig.from_json(cfg.to_json())
    assert again == cfg


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_zero_strategy_keeps_wealth_constant():
    market = _flat_market(mu=(0.1, -0.2))
    cfg = SimulationConfig(dt=0.01, horizon=0.5, n_paths=40, seed=1)
    bundle = simulate(market, cfg, ZeroStrategy(market.n), x0=2.5, y0=[0.0])
    assert np.max(np.abs(bundle.X - 2.5)) == 0.0


def test_driftless_market_wealth_is_martingale():
    # mu = 0: log-Euler makes X_T an exact martingale; the sample mean of a
    # constant-pi wealth stays within 3 standard errors of x0.
    market = _flat_market(mu=(0.0, 0.0))
    cfg = SimulationConfig(dt=0.01, horizon=1.0, n_paths=10_000, seed=21,
                           record_stride=100)
    bundle = simulate(market, cfg, ConstantStrategy([0.6, -0.4]), x0=1.0, y0=[0.0])
    xt = bundle.X[:, -1]
    se = xt.std(ddof=1) / np.sqrt(len(xt))
    assert abs(xt.mean() - 1.0) <= 3 * se
    assert np.all(bundle.X > 0)


def test_terminal_cross_covariance_matches_rho():
    # Sample-covariance oracle: E[B_T W_T^T] = rho^T T.
    market = _flat_market(rho_val=0.5)
    cfg = SimulationConfig(dt=0.01, horizon=1.0, n_paths=10_000, seed=33,
                           record_stride=100)
    bundle = simulate(market, cfg, ZeroStrategy(market.n), y0=[0.0])
    W_T = bundle.W[:, -1, :]        # (P, 2)
    B_T = bundle.B[:, -1, :]        # (P, 1)
    target = market.rho.T * 1.0     # (1, 2)
    prods = B_T[:, :, None] * W_T[:, None, :]          # (P, 1, 2)
    mean = prods.mean(axis=0)
    se = prods.std(axis=0, ddof=1) / np.sqrt(len(W_T))
    assert np.all(np.abs(mean - target) <= 3 * se)


def test_brownian_mixing_identity_every_grid_point(canonical_1f):
    market, _, _ = canonical_1f
    cfg = SimulationConfig(dt=0.02, horizon=0.5, n_paths=64, seed=4)
    bundle = simulate(market, cfg, ZeroStrategy(market.n), y0=[1.0])
    A = market.noise_mixer()
    recon = bundle.W @ market.rho + bundle.Wperp @ A
    assert np.max(np.abs(bundle.B - recon)) <= 1e-13
    assert bundle.diagnostics["mixer_residual"] <= 1e-12


def test_simulation_is_deterministic_and_block_independent(canonical_1f):
    market, spec, rp = canonical_1f
    sol = affine.solve_riccati_closed_form(spec, rp, 0.5, affine.FORWARD)
    strat = AffineOptimalStrategy(sol, market, rp)
    cfg = SimulationConfig(dt=0.01, horizon=0.5, n_paths=300, seed=99)
    b1 = simulate(market, cfg, strat, y0=[1.0])
    b2 = simulate(market, cfg, strat, y0=[1.0])
    for name in ("W", "Wperp", "B", "Y", "S", "X"):
        assert np.array_equal(getattr(b1, name), getattr(b2, name))
    # Same paths appear regardless of how many are requested (Philox streams
    # are keyed per path, not per run).
    b3 = simulate(market, SimulationConfig(dt=0.01, horizon=0.5, n_paths=100,
                                           seed=99), strat, y0=[1.0])
    assert np.array_equal(b1.X[:100], b3.X)


def test_refinement_halving_dt_stays_within_monte_carlo_noise(canonical_1f):
    market, spec, rp = canonical_1f
    sol = affine.solve_riccati_closed_form(spec, rp, 0.5, affine.FORWARD)
    strat = AffineOptimalStrategy(sol, market, rp)
    means, ses = [], []
    for dt in (0.01, 0.005):
        cfg = SimulationConfig(dt=dt, horizon=0.5, n_paths=4000, seed=55,
                               record_stride=25)
        xt = simulate(market, cfg, strat, y0=[1.0]).X[:, -1]
        means.append(xt.mean())
        ses.append(xt.std(ddof=1) / np.sqrt(len(xt)))
    assert abs(means[0] - means[1]) <= 3 * np.hypot(*ses)


def test_nan_strategy_raises_with_location():
    market = _flat_market()
    cfg = SimulationConfig(dt=0.1, horizon=0.5, n_paths=8, seed=2)

    def broken(t, y, x):
        return [np.inf, 0.0] if t > 0.25 else [0.0, 0.0]

    with pytest.raises(SimulationError) as exc:
        simulate(market, cfg, broken, y0=[0.0])
    assert exc.value.path is not None
    assert exc.value.step is not None


def test_boundary_absorb_freezes_paths():
    # Strong negative drift pushes Y out of [0, inf); absorbed paths freeze
    # and record their exit times.
    market = ModelSpec(
        n=1, k=1, d_W=1, d_B=1, d_Wperp=1,
        mu=ConstantField([0.0]), sigma=ConstantField([[1.0]]),
        alpha=ConstantField([-4.0]), kappa=ConstantField([[0.05]]),
        rho=np.zeros((1, 1)), domain=Box([0.0], [np.inf]))
    cfg = SimulationConfig(dt=0.01, horizon=1.0, n_paths=50, seed=6,
                           boundary_policy="absorb")
    bundle = simulate(market, cfg, ZeroStrategy(1), y0=[0.5])
    assert np.all(np.isfinite(bundle.exit_time))
    # After the exit time the factor path no longer moves.
    for p in range(5):
        tau = bundle.exit_time[p]
        frozen = bundle.Y[p, bundle.times >= tau + 1e-12, 0]
        assert np.max(np.abs(np.diff(frozen))) == 0.0


def test_boundary_reflect_stays_inside():
    market = ModelSpec(
        n=1, k=1, d_W=1, d_B=1, d_Wperp=1,
        mu=ConstantField([0.0]), sigma=ConstantField([[1.0]]),
        alpha=ConstantField([-1.0]), kappa=ConstantField([[0.6]]),
        rho=np.zeros((1, 1)), domain=Box([0.0], [np.inf]))
    cfg = SimulationConfig(dt=0.01, horizon=1.0, n_paths=50, seed=6,
                           boundary_policy="reflect")
    bundle = simulate(market, cfg, ZeroStrategy(1), y0=[0.3])
    assert np.all(bundle.Y >= 0.0)


def test_full_truncation_keeps_sqrt_coefficients_finite(canonical_1f):
    # Square-root volatility with small drift offset spends time near zero;
    # truncation evaluates coefficients at the clipped state.
    rp = RiskParams(gamma=2.0, p=0.25)
    market, spec = affine.canonical_affine_market(
        M=[[-1.5]], w=[0.02], L=[0.6], Lambda=[0.09], lambda0=0.01,
        H=[-0.1], rp=rp)
    cfg = SimulationConfig(dt=0.005, horizon=1.0, n_paths=200, seed=13)
    bundle = simulate(market, cfg, ZeroStrategy(market.n), y0=[0.05])
    assert np.all(np.isfinite(bundle.Y))
    assert np.all(np.isfinite(bundle.X))


def test_bundle_save_load_round_trip(tmp_path, canonical_1f):
    market, _, _ = canonical_1f
    cfg = SimulationConfig(dt=0.05, horizon=0.25, n_paths=12, seed=3)
    bundle = simulate(market, cfg, ZeroStrategy(market.n), y0=[1.0])
    bundle.save(tmp_path / "paths")
    again = PathBundle.load(tmp_path / "paths")
    for name in ("times", "W", "Wperp", "B", "Y", "S", "X", "exit_time"):
        np.testing.assert_array_equal(getattr(again, name), getattr(bundle, name))
    assert again.config == bundle.config
    bundle.export_csv(tmp_path / "csv")
    assert (tmp_path / "csv" / "X.csv").exists()


# ---------------------------------------------------------------------------
# Feynman-Kac
# ---------------------------------------------------------------------------

def test_feynman_kac_unit_weight_is_exact(heat_gen):
    cfg = SimulationConfig(dt=0.01, horizon=1.0, n_paths=400, seed=5)
    est, se = feynman_kac_estimate(heat_gen, lambda Y: np.ones(len(Y)),
                                   0.5, [0.0], cfg)
    assert est == 1.0
    assert se == 0.0


def test_feynman_kac_constant_potential_is_deterministic_weight():
    gen = make_heat_generator()
    c = 0.7
    object.__setattr__(gen, "P", lambda y: c)
    object.__setattr__(gen, "P_batch",
                       lambda Y: np.full(np.atleast_2d(Y).shape[0], c))
    cfg = SimulationConfig(dt=0.01, horizon=1.0, n_paths=400, seed=5)
    est, se = feynman_kac_estimate(gen, lambda Y: np.ones(len(Y)), 0.5, [0.0], cfg)
    assert se <= 1e-14
    assert est == pytest.approx(np.exp(c * 0.5), rel=1e-12)


def test_feynman_kac_matches_affine_closed_form(low_noise_1f):
    from fpplab.model import generator_coefficients

    market, spec, rp = low_noise_1f
    gen = generator_coefficients(market, rp)
    t_probe, y_probe = 0.5, np.array([1.0])
    backward = affine.solve_riccati_closed_form(spec, rp, t_probe, affine.BACKWARD)
    exact = affine.evaluate_u_affine(backward, 0.0, y_probe)
    cfg = SimulationConfig(dt=1e-3, horizon=1.0, n_paths=4000, seed=17)
    est, se = feynman_kac_estimate(
        gen, lambda Y: np.exp(np.atleast_2d(Y) @ spec.H + spec.h0),
        t_probe, y_probe, cfg, domain=market.domain)
    assert abs(est - exact) <= 3 * se


def test_feynman_kac_input_validation(heat_gen):
    cfg = SimulationConfig(dt=0.01, horizon=1.0, n_paths=100, seed=5)
    with pytest.raises(ConfigError):
        feynman_kac_estimate(heat_gen, lambda Y: np.ones(len(Y)), 0.0, [0.0], cfg)
    with pytest.raises(ConfigError):
        feynman_kac_estimate(heat_gen, lambda Y: np.ones(len(Y)), 2.0, [0.0], cfg)


def test_feynman_kac_rejects_h_of_wrong_shape(heat_gen):
    cfg = SimulationConfig(dt=0.1, horizon=1.0, n_paths=50, seed=5)
    with pytest.raises(ConfigError, match="shape"):
        feynman_kac_estimate(heat_gen, lambda Y: np.ones((len(Y), 1)), 0.5, [0.0], cfg)
    with pytest.raises(ConfigError, match="shape"):
        feynman_kac_estimate(heat_gen, lambda Y: 1.0, 0.5, [0.0], cfg)


def test_feynman_kac_propagates_errors_from_h(heat_gen):
    cfg = SimulationConfig(dt=0.1, horizon=1.0, n_paths=50, seed=5)
    calls = []

    def h(Y):
        calls.append(Y.shape)
        raise ZeroDivisionError("h failed")

    with pytest.raises(ZeroDivisionError, match="h failed"):
        feynman_kac_estimate(heat_gen, h, 0.5, [0.0], cfg)
    assert calls == [(50, 1)]    # one batched call, no per-row retry


# ---------------------------------------------------------------------------
# Admissibility
# ---------------------------------------------------------------------------

def test_admissibility_bounded_strategy_is_finite(canonical_1f):
    market, _, _ = canonical_1f
    cfg = SimulationConfig(dt=0.01, horizon=1.0, n_paths=60, seed=8)
    bundle = simulate(market, cfg, ConstantStrategy([0.3, 0.1]), y0=[1.0])
    report = admissibility_check(bundle, ConstantStrategy([0.3, 0.1]))
    assert report.all_finite
    assert np.isfinite(report.drift_integral_max)
    assert np.isfinite(report.variation_integral_max)


def test_admissibility_flags_injected_infinity(canonical_1f):
    market, _, _ = canonical_1f
    cfg = SimulationConfig(dt=0.01, horizon=1.0, n_paths=20, seed=8,
                           record_stride=10)
    bundle = simulate(market, cfg, ConstantStrategy([0.3, 0.1]), y0=[1.0])

    class Injected(Strategy):
        def allocations(self, t, Y, X):
            out = np.full((np.atleast_2d(Y).shape[0], 2), 0.3)
            if abs(t - 0.5) < 1e-9:
                out[3, 0] = np.inf
            return out

    report = admissibility_check(bundle, Injected())
    assert not report.all_finite
    assert (3, 5) in report.nonfinite_locations


def test_admissibility_affine_optimal_grows_linearly(low_noise_1f):
    market, spec, rp = low_noise_1f
    totals = []
    for horizon in (1.0, 2.0):
        sol = affine.solve_riccati_closed_form(spec, rp, horizon, affine.FORWARD)
        strat = AffineOptimalStrategy(sol, market, rp)
        cfg = SimulationConfig(dt=0.01, horizon=horizon, n_paths=100, seed=10)
        bundle = simulate(market, cfg, strat, y0=[1.0])
        report = admissibility_check(bundle, strat)
        assert report.all_finite
        totals.append(report.variation_integral_mean)
    ratio = totals[1] / totals[0]
    assert 1.5 <= ratio <= 3.0


# ---------------------------------------------------------------------------
# Strategy helpers
# ---------------------------------------------------------------------------

def test_perturbed_strategy_shifts_every_component(canonical_1f):
    market, spec, rp = canonical_1f
    sol = affine.solve_riccati_closed_form(spec, rp, 1.0, affine.FORWARD)
    base = AffineOptimalStrategy(sol, market, rp)
    shifted = PerturbedStrategy(base, 0.2)
    Y = np.array([[0.8], [1.2]])
    np.testing.assert_allclose(shifted.allocations(0.3, Y, np.ones(2)),
                               base.allocations(0.3, Y, np.ones(2)) + 0.2,
                               atol=1e-15)


def test_callable_strategy_wraps_scalar_map():
    strat = CallableStrategy(lambda t, y, x: [0.1 * x, y[0]])
    out = strat.allocations(0.0, np.array([[2.0], [3.0]]), np.array([1.0, 2.0]))
    np.testing.assert_allclose(out, [[0.1, 2.0], [0.2, 3.0]], atol=1e-15)


def test_affine_optimal_requires_constant_sigma(canonical_1f):
    from fpplab.model import SqrtAffineField

    market, spec, rp = canonical_1f
    sol = affine.solve_riccati_closed_form(spec, rp, 1.0, affine.FORWARD)
    varying = ModelSpec(
        n=market.n, k=market.k, d_W=market.d_W, d_B=market.d_B,
        d_Wperp=market.d_Wperp, mu=market.mu,
        sigma=SqrtAffineField(np.ones((2, 1)), np.zeros(2)),
        alpha=market.alpha, kappa=market.kappa, rho=market.rho,
        domain=market.domain)
    with pytest.raises(ConfigError):
        AffineOptimalStrategy(sol, varying, rp)


def test_simulate_rejects_rank_deficient_grid_sigma():
    model = make_rank_deficient_grid_model()
    cfg = SimulationConfig(dt=0.1, horizon=0.5, n_paths=20, seed=1)
    simulate(model, cfg, ZeroStrategy(model.n), y0=[0.5])   # full rank there
    with pytest.raises(SingularModelError, match=r"y=\[1.5\]"):
        simulate(model, cfg, ZeroStrategy(model.n), y0=[1.5])
