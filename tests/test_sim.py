import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fpplab.model
from fpplab.errors import (ClosedFormInapplicableError, ConfigError,
                           RiccatiBlowUpError, SimulationError, SingularModelError)
from fpplab.model import (Box, ConstantField, GridField, ModelSpec, RiskParams,
                          generator_coefficients, market_terms)
from fpplab import affine, sim
from fpplab.sim import (BOUNDARY_POLICIES, AffineOptimalStrategy, CallableStrategy,
                        ConstantStrategy, PathBundle, PerturbedStrategy,
                        SimulationConfig, Strategy, ZeroStrategy, _path_noise,
                        admissibility_check, feynman_kac_estimate, simulate)

from conftest import (make_heat_generator, make_rank_deficient_grid_model,
                      make_tabulated_sigma_model, portfolio_oracle)


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


def test_config_from_json_refuses_other_schemes():
    data = SimulationConfig(dt=0.1, horizon=1.0, n_paths=10).to_json()
    assert SimulationConfig.from_json(dict(data, scheme="euler-maruyama")) \
        == SimulationConfig.from_json(data)
    with pytest.raises(ConfigError, match="unknown scheme 'milstein'"):
        SimulationConfig.from_json(dict(data, scheme="milstein"))


def test_config_json_round_trip():
    cfg = SimulationConfig(dt=0.01, horizon=2.0, n_paths=500, seed=7,
                           boundary_policy="absorb", record_stride=5)
    again = SimulationConfig.from_json(cfg.to_json())
    assert again == cfg


# ---------------------------------------------------------------------------
# Noise
# ---------------------------------------------------------------------------

def _noise_oracle(seed, path_lo, path_hi, n_steps, dims):
    """One freshly built Philox keyed (seed mod 2^64, p) per path p."""
    return np.stack([
        np.random.Generator(np.random.Philox(key=np.array(
            [seed & 0xFFFF_FFFF_FFFF_FFFF, p], dtype=np.uint64)))
        .standard_normal((n_steps, dims)) for p in range(path_lo, path_hi)])


@pytest.mark.parametrize("seed, path_lo, path_hi, n_steps, dims", [
    (0, 0, 5, 4, 2),
    (99, 4096, 4103, 10, 3),      # a block that does not start at path 0
    (2 ** 63 + 11, 0, 6, 5, 2),   # seed above the int64 range
    (2 ** 64 + 3, 2, 6, 5, 2),    # seed reduced mod 2^64
    (-7, 0, 4, 2, 1),
    (5, 0, 9, 3, 1),              # odd draws per path: a half-used buffer
    (5, 17, 26, 1, 1),            # must not carry over to the next path
])
def test_path_noise_matches_one_philox_per_path(seed, path_lo, path_hi, n_steps, dims):
    out = np.full((path_hi - path_lo, n_steps, dims), np.nan)
    assert _path_noise(seed, path_lo, out) is out
    np.testing.assert_array_equal(out, _noise_oracle(seed, path_lo, path_hi, n_steps, dims))


def test_noise_blocks_are_drawn_into_one_buffer(monkeypatch):
    # Blocks of 4, 4 and 2 paths: one block's noise is alive at a time.
    monkeypatch.setattr(sim, "_BLOCK_SIZE", 4)
    buffers = []
    for lo, hi, noise in sim._noise_blocks(3, 10, 5, 2):
        np.testing.assert_array_equal(noise, _noise_oracle(3, lo, hi, 5, 2))
        buffers.append(noise.base)
    assert buffers[0] is not None
    assert all(buffer is buffers[0] for buffer in buffers)


def test_simulate_builds_one_bit_generator_per_block(monkeypatch, canonical_1f):
    market, _, _ = canonical_1f
    built = []
    real = np.random.Philox

    def counting(*args, **kwargs):
        built.append(kwargs.get("key"))
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting)
    cfg = SimulationConfig(dt=0.05, horizon=0.25, n_paths=300, seed=8)
    simulate(market, cfg, ZeroStrategy(market.n), y0=[1.0])
    assert len(built) == 1


# ---------------------------------------------------------------------------
# Engine: path blocks and recording
# ---------------------------------------------------------------------------

_BUNDLE_ARRAYS = ("times", "W", "Wperp", "B", "Y", "S", "X", "exit_time")


def _perturbed_optimal(market, sol, rp):
    return PerturbedStrategy(AffineOptimalStrategy(sol, market, rp), 0.2)


def _engine_run(policy, record_stride=1, strategy=_perturbed_optimal, y0=0.05):
    """simulate, admissibility_check and feynman_kac_estimate on a
    square-root factor started near 0 at y0, so that paths leave [0, inf).
    ``strategy(market, sol, rp)`` builds the strategy."""
    rp = RiskParams(gamma=2.0, p=0.25)
    market, spec = affine.canonical_affine_market(
        M=[[-1.5]], w=[0.02], L=[0.6], Lambda=[0.09], lambda0=0.01, H=[-0.1], rp=rp)
    sol = affine.solve_riccati_closed_form(spec, rp, 0.5, affine.FORWARD)
    strategy = strategy(market, sol, rp)
    cfg = SimulationConfig(dt=0.05, horizon=0.5, n_paths=30, seed=4,
                           boundary_policy=policy, record_stride=record_stride)
    bundle = simulate(market, cfg, strategy, y0=[y0])
    report = admissibility_check(bundle, strategy)
    fk = feynman_kac_estimate(generator_coefficients(market, rp),
                              lambda Y: np.exp(Y @ spec.H + spec.h0), 0.5, [y0], cfg,
                              domain=market.domain)
    return bundle, report, fk


_BLOCK_RUNS = [   # (strategy, y0): the optimal map and one that ignores the step terms
    (_perturbed_optimal, 0.05),
    (lambda market, sol, rp: AffineOptimalStrategy(sol, market, rp), 0.2),
    (lambda market, sol, rp: PerturbedStrategy(ConstantStrategy([0.3, 0.1]), -0.2), 0.2),
]


@pytest.mark.parametrize("policy", BOUNDARY_POLICIES)
def test_results_do_not_depend_on_the_block_size(monkeypatch, policy):
    # Blocks of 7, 7, 7, 7 and 2 paths, each drawn into the one noise buffer;
    # some paths leave the domain and, under absorb, die.
    for strategy, y0 in _BLOCK_RUNS:
        monkeypatch.setattr(sim, "_BLOCK_SIZE", 4096)
        bundle, report, fk = _engine_run(policy, strategy=strategy, y0=y0)
        assert np.isfinite(bundle.exit_time).any() and np.isnan(bundle.exit_time).any()
        monkeypatch.setattr(sim, "_BLOCK_SIZE", 7)
        small_bundle, small_report, small_fk = _engine_run(policy, strategy=strategy, y0=y0)
        for name in _BUNDLE_ARRAYS:
            assert getattr(small_bundle, name).tobytes() == getattr(bundle, name).tobytes(), name
        assert small_bundle.diagnostics == bundle.diagnostics
        assert small_report == report
        assert small_fk == fk


@pytest.mark.parametrize("policy", BOUNDARY_POLICIES)
def test_diagnostics_count_exited_paths_and_clipped_states(policy):
    bundle, _, _ = _engine_run(policy)
    exited = np.isfinite(bundle.exit_time)
    assert bundle.diagnostics["exited_paths"] == np.count_nonzero(exited) > 0
    below = bundle.Y[:, :, 0] < 0.0     # the domain is [0, inf)
    if policy == "full-truncation":
        # Y is never moved; the coefficients of steps 0..n-1 see it clipped.
        assert np.array_equal(exited, below[:, 1:].any(axis=1))
        assert bundle.diagnostics["clipped_states"] == np.count_nonzero(below[:, :-1]) > 0
    else:
        assert bundle.diagnostics["clipped_states"] == 0


def _count_calls(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that appends to the returned list."""
    calls, real = [], getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_each_step_evaluates_mu_and_kappa_once(monkeypatch, canonical_2f):
    market, spec, rp = canonical_2f
    sol = affine.solve_riccati_closed_form(spec, rp, 1.0, affine.FORWARD)
    strategy = AffineOptimalStrategy(sol, market, rp)
    mu_calls = _count_calls(monkeypatch, market.mu, "batch")
    kappa_calls = _count_calls(monkeypatch, market.kappa, "batch")
    cfg = SimulationConfig(dt=0.1, horizon=1.0, n_paths=50, seed=1)
    bundle = simulate(market, cfg, strategy, y0=[0.5, 0.5])
    assert (len(mu_calls), len(kappa_calls)) == (10, 10)
    admissibility_check(bundle, strategy)     # 10 recorded steps
    assert (len(mu_calls), len(kappa_calls)) == (20, 20)
    # A strategy that ignores the step terms never has kappa evaluated.
    admissibility_check(bundle, ConstantStrategy(np.full(market.n, 0.2)))
    assert (len(mu_calls), len(kappa_calls)) == (30, 20)


class _ParentOptimal(Strategy):
    """pi* of ``model`` evaluated from the model itself, ignoring the terms."""

    def __init__(self, sol, model, rp):
        self.sol, self.model, self.rp = sol, model, rp

    def allocations(self, t, Y, X, terms):
        return affine.optimal_portfolio_affine(self.sol, self.model, self.rp, t, Y)


def test_optimal_strategy_under_another_market_keeps_its_own_model(canonical_1f):
    # A strategy built for one market and run under another (misspecified)
    # takes every coefficient of pi* from its own model, none from the step.
    market, spec, rp = canonical_1f
    varying = make_tabulated_sigma_model(market)
    sol = affine.solve_riccati_closed_form(spec, rp, 1.0, affine.FORWARD)
    strategy = AffineOptimalStrategy(sol, market, rp)
    Y = np.linspace(0.1, 2.5, 5).reshape(-1, 1)
    pi = strategy.allocations(0.6, Y, np.ones(5), market_terms(varying, Y))
    np.testing.assert_array_equal(pi, affine.optimal_portfolio_affine(sol, market, rp, 0.6, Y))
    assert not np.allclose(pi, affine.optimal_portfolio_affine(sol, varying, rp, 0.6, Y))
    cfg = SimulationConfig(dt=0.05, horizon=0.5, n_paths=20, seed=3)
    bundle = simulate(varying, cfg, strategy, y0=[0.8])
    oracle = simulate(varying, cfg, _ParentOptimal(sol, market, rp), y0=[0.8])
    for name in _BUNDLE_ARRAYS:
        np.testing.assert_array_equal(getattr(bundle, name), getattr(oracle, name), err_msg=name)
    assert admissibility_check(bundle, strategy) == admissibility_check(
        bundle, _ParentOptimal(sol, market, rp))


def test_y_dependent_sigma_is_factored_once_per_step(monkeypatch, canonical_1f):
    market, spec, rp = canonical_1f
    varying = make_tabulated_sigma_model(market)
    sol = affine.solve_riccati_closed_form(spec, rp, 1.0, affine.FORWARD)
    strategy = AffineOptimalStrategy(sol, varying, rp)
    svds = _count_calls(monkeypatch, fpplab.model, "_pinv_and_rank")
    cfg = SimulationConfig(dt=0.05, horizon=0.5, n_paths=50, seed=2)
    bundle = simulate(varying, cfg, strategy, y0=[0.8])
    assert len(svds) == 10
    admissibility_check(bundle, strategy)
    assert len(svds) == 20


@pytest.mark.parametrize("stride", [2, 3])
def test_record_stride_keeps_the_stride_one_values(stride):
    # 10 steps: stride 2 records steps 0, 2, ..., 10; stride 3 records
    # 0, 3, 6, 9 and appends the last step, 10.
    full, _, _ = _engine_run("absorb")
    strided, _, _ = _engine_run("absorb", record_stride=stride)
    idx = sorted(set(range(0, 11, stride)) | {10})
    for name in _BUNDLE_ARRAYS[:-1]:
        kept = getattr(full, name)[idx] if name == "times" else getattr(full, name)[:, idx]
        assert getattr(strided, name).tobytes() == kept.tobytes(), name
    assert strided.exit_time.tobytes() == full.exit_time.tobytes()


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
    bundle = simulate(market, cfg, ConstantStrategy([0.5]), y0=[0.5])
    assert np.all(np.isfinite(bundle.exit_time))
    # After the exit time the factor, stock and wealth paths no longer move.
    for p in range(5):
        after = bundle.times >= bundle.exit_time[p] + 1e-12
        for path in (bundle.Y[p, after, 0], bundle.S[p, after, 0], bundle.X[p, after]):
            assert np.max(np.abs(np.diff(path))) == 0.0


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


def test_feynman_kac_steps_with_non_square_kappa():
    # d_B = 2 noises drive one factor: kappa = [[0.6], [0.8]] gives a = 1, so
    # Z is a standard Brownian motion and E[Z_t^2] = y^2 + t exactly.
    market = ModelSpec(
        n=1, k=1, d_W=1, d_B=2, d_Wperp=2,
        mu=ConstantField([0.0]), sigma=ConstantField([[1.0]]),
        alpha=ConstantField([0.0]), kappa=ConstantField([[0.6], [0.8]]),
        rho=np.zeros((1, 2)), domain=Box([-np.inf], [np.inf]))
    gen = generator_coefficients(market, RiskParams(gamma=2.0, p=0.25))
    assert gen.kappa_batch(np.zeros((3, 1))).shape == (3, 2, 1)
    y, t = 0.5, 0.5
    cfg = SimulationConfig(dt=0.05, horizon=1.0, n_paths=4000, seed=12)
    est, se = feynman_kac_estimate(gen, lambda Y: Y[:, 0] ** 2, t, [y], cfg)
    assert abs(est - (y * y + t)) <= 4 * se


def test_feynman_kac_absorb_gives_the_survival_probability(heat_gen):
    # A Brownian motion from y > 0 stays in [0, inf) up to t with probability
    # 2 N(y/sqrt(t)) - 1 = erf(y/sqrt(2t)).  Killed only at the steps, the walk
    # survives more often; shifting the barrier by 0.5826 sqrt(dt)
    # (Broadie-Glasserman-Kou) corrects that bias to first order.
    y, t, dt = 0.5, 0.5, 0.01
    cfg = SimulationConfig(dt=dt, horizon=1.0, n_paths=4000, seed=21,
                           boundary_policy="absorb")
    est, se = feynman_kac_estimate(heat_gen, lambda Y: np.ones(len(Y)), t, [y], cfg,
                                   domain=Box([0.0], [np.inf]))
    exact = math.erf(y / math.sqrt(2 * t))
    shifted = math.erf((y + 0.5826 * math.sqrt(dt)) / math.sqrt(2 * t))
    assert 0.0 < se
    assert exact - 4 * se <= est <= shifted + 4 * se


def test_feynman_kac_reflect_keeps_paths_in_the_domain(heat_gen):
    # Reflecting every Gaussian step at 0 gives exactly the law of |y + W_t|,
    # whose mean is sqrt(2t/pi) e^{-y^2/2t} + y erf(y/sqrt(2t)).
    y, t = 0.2, 0.5
    cfg = SimulationConfig(dt=0.05, horizon=1.0, n_paths=4000, seed=22,
                           boundary_policy="reflect")
    domain = Box([0.0], [np.inf])
    est, se = feynman_kac_estimate(heat_gen, lambda Y: (Y[:, 0] >= 0.0).astype(float),
                                   t, [y], cfg, domain=domain)
    assert (est, se) == (1.0, 0.0)
    est, se = feynman_kac_estimate(heat_gen, lambda Y: Y[:, 0], t, [y], cfg, domain=domain)
    mean = (math.sqrt(2 * t / math.pi) * math.exp(-y * y / (2 * t))
            + y * math.erf(y / math.sqrt(2 * t)))
    assert abs(est - mean) <= 4 * se


def test_feynman_kac_requires_kappa(heat_gen):
    cfg = SimulationConfig(dt=0.1, horizon=1.0, n_paths=50, seed=5)
    with pytest.raises(ConfigError, match="kappa_batch"):
        feynman_kac_estimate(replace(heat_gen, kappa_batch=None),
                             lambda Y: np.ones(len(Y)), 0.5, [0.0], cfg)


# Relative Euler bias allowed on top of 4 standard errors.  With dt = 0.02
# the bias measured on 40k paths over these specs stays below 0.4% of u.
_FK_EULER_BIAS = 0.01


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_closed_form_matches_feynman_kac_random_diagonal(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 3))
    rp = RiskParams(gamma=rng.uniform(1.5, 4.0), p=rng.uniform(0.0, 0.5))
    market, spec = affine.canonical_affine_market(
        M=np.diag(rng.uniform(-1.2, -0.1, k)), w=rng.uniform(0.2, 0.6, k),
        L=rng.uniform(0.05, 0.6, k), Lambda=rng.uniform(0.0, 0.5, k),
        lambda0=rng.uniform(0.0, 0.1), H=rng.uniform(-0.8, 0.5, k), rp=rp)
    t, y = rng.uniform(0.2, 1.0), rng.uniform(0.1, 1.5, k)
    try:
        backward = affine.solve_riccati_closed_form(spec, rp, t, affine.BACKWARD)
    except (ClosedFormInapplicableError, RiccatiBlowUpError):
        assume(False)
    assert all(c.D > 0 for c in backward.components)
    exact = affine.evaluate_u_affine(backward, 0.0, y)
    cfg = SimulationConfig(dt=0.02, horizon=t, n_paths=2000, seed=seed)
    est, se = feynman_kac_estimate(
        generator_coefficients(market, rp),
        lambda Y: np.exp(Y @ spec.H + spec.h0), t, y, cfg, domain=market.domain)
    assert abs(est - exact) <= 4 * se + _FK_EULER_BIAS * exact


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
        def allocations(self, t, Y, X, terms):
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
    terms = market_terms(market, Y)
    np.testing.assert_allclose(shifted.allocations(0.3, Y, np.ones(2), terms),
                               base.allocations(0.3, Y, np.ones(2), terms) + 0.2,
                               atol=1e-15)


def test_callable_strategy_wraps_scalar_map():
    strat = CallableStrategy(lambda t, y, x: [0.1 * x, y[0]])
    out = strat.allocations(0.0, np.array([[2.0], [3.0]]), np.array([1.0, 2.0]), None)
    np.testing.assert_allclose(out, [[0.1, 2.0], [0.2, 3.0]], atol=1e-15)


def test_affine_optimal_strategy_accepts_y_dependent_sigma(canonical_1f):
    market, spec, rp = canonical_1f
    varying = make_tabulated_sigma_model(market)
    sol = affine.solve_riccati_closed_form(spec, rp, 1.0, affine.FORWARD)
    strategy = AffineOptimalStrategy(sol, varying, rp)
    Y = np.linspace(0.1, 2.5, 5).reshape(-1, 1)
    pi = strategy.allocations(0.6, Y, np.ones(5), market_terms(varying, Y))
    for i, y in enumerate(Y):
        np.testing.assert_allclose(pi[i], portfolio_oracle(varying, sol, rp, 0.6, y),
                                   rtol=1e-12, atol=1e-14)
    cfg = SimulationConfig(dt=0.05, horizon=0.5, n_paths=50, seed=2)
    bundle = simulate(varying, cfg, strategy, y0=[0.8])
    assert np.all(np.isfinite(bundle.X)) and np.all(bundle.X > 0)
    assert admissibility_check(bundle, strategy).all_finite


def test_grid_sigma_of_constant_nodes_matches_constant_sigma(canonical_2f):
    # Every node of the grid holds the canonical sigma = I, so only the
    # layout differs: one shared matrix against a per-state stack.
    market, spec, rp = canonical_2f
    axis = np.array([0.0, 1.0, 4.0])
    tabulated = replace(market, sigma=GridField(
        [axis, axis], np.broadcast_to(np.eye(3), (3, 3, 3, 3))))
    sol = affine.solve_riccati_closed_form(spec, rp, 1.0, affine.FORWARD)
    Y = np.array([[0.1, 0.2], [0.5, 0.4], [2.0, 5.0]])
    np.testing.assert_allclose(
        affine.optimal_portfolio_affine(sol, tabulated, rp, 0.3, Y),
        affine.optimal_portfolio_affine(sol, market, rp, 0.3, Y), rtol=1e-12, atol=1e-14)
    cfg = SimulationConfig(dt=0.02, horizon=0.5, n_paths=64, seed=3)
    runs = []
    for model in (market, tabulated):
        strategy = AffineOptimalStrategy(sol, model, rp)
        bundle = simulate(model, cfg, strategy, y0=[0.5, 0.4])
        runs.append((bundle, admissibility_check(bundle, strategy)))
    (const, const_report), (grid, grid_report) = runs
    np.testing.assert_allclose(grid.X, const.X, rtol=1e-12, atol=0)
    np.testing.assert_allclose(grid.S, const.S, rtol=1e-12, atol=0)
    for name in ("drift_integral_max", "drift_integral_mean",
                 "variation_integral_max", "variation_integral_mean"):
        assert getattr(grid_report, name) == pytest.approx(getattr(const_report, name),
                                                           rel=1e-12)
    assert grid_report.all_finite and const_report.all_finite
    assert grid_report.nonfinite_locations == const_report.nonfinite_locations == ()


def test_simulate_rejects_rank_deficient_grid_sigma():
    model = make_rank_deficient_grid_model()
    cfg = SimulationConfig(dt=0.1, horizon=0.5, n_paths=20, seed=1)
    simulate(model, cfg, ZeroStrategy(model.n), y0=[0.5])   # full rank there
    with pytest.raises(SingularModelError, match=r"y=\[1.5\]"):
        simulate(model, cfg, ZeroStrategy(model.n), y0=[1.5])
