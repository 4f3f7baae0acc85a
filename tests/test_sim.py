import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import fpplab.model
from fpplab.errors import (ClosedFormInapplicableError, ConfigError,
                           RiccatiBlowUpError, SimulationError, SingularModelError)
from fpplab.model import (Box, ConstantField, GridField, ModelSpec, RiskParams,
                          generator_coefficients, market_terms)
from fpplab import affine, sim
from fpplab.sim import (BOUNDARY_POLICIES, ConstantStrategy, OptimalStrategy, PathBundle,
                        PerturbedStrategy, SimulationConfig, Strategy, ZeroStrategy,
                        admissibility_check, feynman_kac_estimate, pair_se, simulate)
from fpplab.verify import martingale_test

from conftest import (count_calls, make_heat_generator, make_rank_deficient_grid_model,
                      make_tabulated_sigma_model, portfolio_oracle)


def _flat_market(mu=(0.0, 0.0), rho_val=0.4):
    rho = np.array([[rho_val], [0.0]])
    return ModelSpec(
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


@pytest.mark.parametrize("key, value", [("dt", math.nan), ("horizon", math.nan),
                                        ("horizon", math.inf), ("dt", -math.inf)])
def test_config_refuses_non_finite_times_and_names_them(key, value):
    # NaN passed dt <= 0 and later failed in n_steps naming no field.
    with pytest.raises(ConfigError, match=f"^simulation config {key} must be finite, got {value}$"):
        SimulationConfig(**{"dt": 0.1, "horizon": 1.0, "n_paths": 10, key: value})


def test_non_finite_start_and_time_to_go_are_refused():
    market = _flat_market()
    cfg = SimulationConfig(dt=0.1, horizon=0.5, n_paths=4, seed=2)
    for x0, rule in ((math.nan, "finite"), (math.inf, "finite"), (0.0, "positive")):
        with pytest.raises(ConfigError, match=f"^x0 must be {rule}, got {x0}$"):
            simulate(market, cfg, ZeroStrategy(market.n), x0=x0, y0=[0.0])
    for y0 in ([math.nan], [math.inf]):
        with pytest.raises(ConfigError, match="y0 must be finite"):
            simulate(market, cfg, ZeroStrategy(market.n), y0=y0)
    with pytest.raises(ConfigError, match="^t must be finite, got nan$"):
        feynman_kac_estimate(make_heat_generator(), lambda Y: np.ones(len(Y)), math.nan,
                             [0.0], cfg)
    with pytest.raises(ConfigError, match=r"^y must be finite, got \[nan\]$"):
        feynman_kac_estimate(make_heat_generator(), lambda Y: np.ones(len(Y)), 0.5,
                             [math.nan], cfg)


def test_config_from_json_refuses_other_schemes():
    data = SimulationConfig(dt=0.1, horizon=1.0, n_paths=10).to_json()
    assert SimulationConfig.from_json(dict(data, scheme="euler-maruyama")) \
        == SimulationConfig.from_json(data)
    with pytest.raises(ConfigError, match="unknown scheme 'milstein'"):
        SimulationConfig.from_json(dict(data, scheme="milstein"))


@pytest.mark.parametrize("key, value", [
    ("n_paths", 300.7), ("record_stride", 2.9), ("seed", 1.5), ("n_paths", "300"),
    ("seed", True), ("record_stride", None),
])
def test_config_from_json_refuses_non_integral_counts(key, value):
    data = {"dt": 0.1, "horizon": 1.0, "n_paths": 300, key: value}
    with pytest.raises(ConfigError) as err:
        SimulationConfig.from_json(data)
    assert str(err.value) == f"simulation config: field '{key}' must be an integer"


def test_config_from_json_accepts_integral_floats():
    cfg = SimulationConfig.from_json({"dt": 0.1, "horizon": 1.0, "n_paths": 5000.0,
                                      "seed": 3.0, "record_stride": 2.0})
    assert (cfg.n_paths, cfg.seed, cfg.record_stride) == (5000, 3, 2)
    assert {type(v) for v in (cfg.n_paths, cfg.seed, cfg.record_stride)} == {int}


def test_config_json_round_trip():
    cfg = SimulationConfig(dt=0.01, horizon=2.0, n_paths=500, seed=7,
                           boundary_policy="absorb", record_stride=5)
    again = SimulationConfig.from_json(cfg.to_json())
    assert again == cfg


# ---------------------------------------------------------------------------
# Noise
# ---------------------------------------------------------------------------

def _noise_oracle(seed, path_lo, path_hi, n_steps, dims):
    """(path_hi - path_lo, n_steps, dims): at step i pair j = (2j, 2j + 1)
    reads normals j*dims ... j*dims + dims - 1 of a fresh Philox keyed
    (seed mod 2^64, i); path 2j copies them and path 2j + 1 negates them.
    Each step draws a few normals more than its pairs read, so the oracle
    also checks that a path's noise does not depend on how many are drawn."""
    paths = np.arange(path_lo, path_hi)
    index = (paths // 2)[:, None] * dims + np.arange(dims)
    sign = np.where(paths % 2, -1.0, 1.0)[:, None]
    steps = [sign * np.random.Generator(np.random.Philox(key=np.array(
        [seed & 0xFFFF_FFFF_FFFF_FFFF, i], dtype=np.uint64))).standard_normal(
            (path_hi // 2 + 3) * dims)[index] for i in range(n_steps)]
    return np.stack(steps, axis=1)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(-2 ** 64, 2 ** 65), step=st.integers(0, 5),
       n_paths=st.integers(1, 40), dims=st.integers(1, 4), path_contiguous=st.booleans())
@example(seed=0, step=0, n_paths=10, dims=2, path_contiguous=True)
@example(seed=99, step=7, n_paths=9, dims=3, path_contiguous=True)   # odd P: one unpaired
@example(seed=2 ** 63 + 11, step=3, n_paths=12, dims=5, path_contiguous=True)  # above int64
@example(seed=2 ** 64 + 3, step=1, n_paths=6, dims=2, path_contiguous=False)   # mod 2^64
@example(seed=-7, step=2, n_paths=5, dims=1, path_contiguous=True)
@example(seed=5, step=4, n_paths=1, dims=3, path_contiguous=False)
def test_step_noise_matches_the_oracle(seed, step, n_paths, dims, path_contiguous):
    out = np.full((dims, n_paths), np.nan).T if path_contiguous \
        else np.full((n_paths, dims), np.nan)
    assert sim._step_noise(seed, step, out) is out
    oracle = _noise_oracle(seed, 0, n_paths, step + 1, dims)[:, step]
    assert out.tobytes() == np.ascontiguousarray(oracle).tobytes()


@pytest.mark.parametrize("seed, pair_lo, pair_hi, n_steps, dims", [
    (0, 0, 5, 4, 2),
    (99, 4096, 4103, 10, 3),      # pairs far from pair 0
    (2 ** 63 + 11, 0, 6, 5, 2),   # seed above the int64 range
    (2 ** 64 + 3, 2, 6, 5, 2),    # seed reduced mod 2^64
    (-7, 0, 4, 2, 1),
    (5, 0, 9, 3, 1),              # an odd number of normals per step
    (5, 17, 26, 1, 1),            # one normal per pair, read from pair 17 on
])
def test_step_noise_matches_one_philox_per_step(seed, pair_lo, pair_hi, n_steps, dims):
    # Pairs pair_lo ... pair_hi - 1 at each step read their rows of one
    # Philox keyed (seed mod 2^64, step): the even path copies the row and
    # the odd path negates it.
    for i in range(n_steps):
        out = np.full((2 * pair_hi, dims), np.nan)
        assert sim._step_noise(seed, i, out) is out
        stream = np.random.Generator(np.random.Philox(key=np.array(
            [seed & 0xFFFF_FFFF_FFFF_FFFF, i], dtype=np.uint64))).standard_normal((pair_hi, dims))
        np.testing.assert_array_equal(out[2 * pair_lo::2], stream[pair_lo:])
        np.testing.assert_array_equal(out[2 * pair_lo + 1::2], -stream[pair_lo:])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(-2 ** 64, 2 ** 65), n_paths=st.integers(1, 40),
       first=st.integers(1, 40), step=st.integers(0, 4), dims=st.integers(1, 3))
def test_step_noise_of_the_first_paths_is_the_head_of_that_of_more(seed, n_paths, first,
                                                                   step, dims):
    # The step noise of the first `first` paths, odd counts included (the
    # last path then has no partner), is the head of that of all n_paths.
    first = min(first, n_paths)
    whole = sim._step_noise(seed, step, np.full((n_paths, dims), np.nan))
    head = sim._step_noise(seed, step, np.full((first, dims), np.nan))
    np.testing.assert_array_equal(head, whole[:first])
    np.testing.assert_array_equal(whole, _noise_oracle(seed, 0, n_paths, step + 1, dims)[:, step])


def _recording_step_noise(mp):
    """Patch ``sim._step_noise`` to record (step, out, a copy of the draw)."""
    drawn, real = [], sim._step_noise

    def recording(seed, step, out):
        real(seed, step, out)
        drawn.append((step, out, out.copy()))
        return out

    mp.setattr(sim, "_step_noise", recording)
    return drawn


def test_simulate_draws_every_step_into_one_path_contiguous_buffer(monkeypatch, canonical_2f):
    # 11 paths, so the last has no partner: simulate draws every step's noise
    # into one path-contiguous (P, dims) buffer.
    market, _, _ = canonical_2f
    drawn = _recording_step_noise(monkeypatch)
    cfg = SimulationConfig(dt=0.1, horizon=0.4, n_paths=11, seed=3)
    simulate(market, cfg, ZeroStrategy(market.n), y0=[0.5, 0.5])
    dims = market.d_W + market.d_B
    oracle = _noise_oracle(3, 0, 11, cfg.n_steps, dims)
    assert [step for step, _, _ in drawn] == list(range(cfg.n_steps))
    buffer = drawn[0][1]
    assert buffer.shape == (11, dims) and buffer.strides[0] == buffer.itemsize
    for step, out, noise in drawn:
        assert out is buffer
        np.testing.assert_array_equal(noise, oracle[:, step])


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 64), n_paths=st.integers(1, 30))
def test_feynman_kac_draws_every_step_into_one_path_contiguous_buffer(seed, n_paths):
    # For any path count, the Feynman-Kac loop reads each step's noise from
    # one path-contiguous buffer holding the oracle's step (d_B = 2).
    rp = RiskParams(gamma=2.0, p=0.25)
    market, spec = affine.canonical_affine_market(
        M=[[-0.5, 0.0], [0.0, -0.8]], w=[0.4, 0.5], L=[0.2, 0.15],
        Lambda=[0.16, 0.09], lambda0=0.04, H=[-0.3, 0.2], rp=rp)
    cfg = SimulationConfig(dt=0.1, horizon=0.3, n_paths=n_paths, seed=seed)
    with pytest.MonkeyPatch.context() as mp:
        drawn = _recording_step_noise(mp)
        feynman_kac_estimate(generator_coefficients(market, rp),
                             lambda Y: np.exp(Y @ spec.H + spec.h0), 0.3, [0.5, 0.5], cfg,
                             domain=market.domain)
    assert [step for step, _, _ in drawn] == list(range(cfg.n_steps))
    buffer = drawn[0][1]
    oracle = _noise_oracle(seed, 0, n_paths, cfg.n_steps, buffer.shape[1])
    assert buffer.shape == (n_paths, 2) and buffer.strides[0] == buffer.itemsize
    for step, out, noise in drawn:
        assert out is buffer
        np.testing.assert_array_equal(noise, oracle[:, step])


def test_simulate_builds_one_bit_generator_per_step(monkeypatch, canonical_1f):
    market, _, _ = canonical_1f
    built = []
    real = np.random.Philox

    def counting(*args, **kwargs):
        built.append(kwargs.get("key"))
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting)
    cfg = SimulationConfig(dt=0.05, horizon=0.25, n_paths=300, seed=8)
    simulate(market, cfg, ZeroStrategy(market.n), y0=[1.0])
    assert [key.tolist() for key in built] == [[8, i] for i in range(cfg.n_steps)]


def test_simulate_holds_no_noise_buffer(canonical_2f):
    # Beyond the recorded arrays, 4096 paths peaked at 2.1 MiB over 10 and
    # over 100 steps alike: only one step's noise (160 KiB) is held.  A
    # buffer of every step's pair draws grew from 0.8 to 7.8 MiB.
    market, _, _ = canonical_2f

    def working_memory(horizon):
        cfg = SimulationConfig(dt=0.01, horizon=horizon, n_paths=4096, seed=3,
                               record_stride=10)
        tracemalloc.start()
        try:
            bundle = simulate(market, cfg, ZeroStrategy(market.n), y0=[0.5, 0.5])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak - sum(getattr(bundle, name).nbytes for name in _BUNDLE_ARRAYS)

    working_memory(0.1)     # first-call allocations
    one_step = 4096 * (market.d_W + market.d_B) * 8
    assert working_memory(1.0) - working_memory(0.1) <= one_step


# ---------------------------------------------------------------------------
# Engine: one loop over time and recording
# ---------------------------------------------------------------------------

_BUNDLE_ARRAYS = ("times", "W", "Wperp", "B", "Y", "S", "X", "exit_time")


def _perturbed_optimal(market, sol, rp):
    return PerturbedStrategy(OptimalStrategy(sol, market, rp), 0.2)


def _sqrt_market():
    """(market, spec, sol, rp): a square-root factor whose paths, started
    near 0, leave [0, inf), and its forward Riccati solution."""
    rp = RiskParams(gamma=2.0, p=0.25)
    market, spec = affine.canonical_affine_market(
        M=[[-1.5]], w=[0.02], L=[0.6], Lambda=[0.09], lambda0=0.01, H=[-0.1], rp=rp)
    return market, spec, affine.solve_riccati_closed_form(spec, rp, 0.5, affine.FORWARD), rp


def _engine_run(policy, record_stride=1, strategy=_perturbed_optimal, y0=0.05, n_paths=30):
    """simulate, admissibility_check and feynman_kac_estimate on the
    ``_sqrt_market`` started at y0.  ``strategy(market, sol, rp)`` builds
    the strategy."""
    market, spec, sol, rp = _sqrt_market()
    strategy = strategy(market, sol, rp)
    cfg = SimulationConfig(dt=0.05, horizon=0.5, n_paths=n_paths, seed=4,
                           boundary_policy=policy, record_stride=record_stride)
    bundle = simulate(market, cfg, strategy, y0=[y0])
    report = admissibility_check(bundle, strategy)
    fk = feynman_kac_estimate(generator_coefficients(market, rp),
                              lambda Y: np.exp(Y @ spec.H + spec.h0), 0.5, [y0], cfg,
                              domain=market.domain)
    return bundle, report, fk


_ENGINE_RUNS = [   # (strategy, y0): the optimal map and one that ignores the step terms
    (_perturbed_optimal, 0.05),
    (lambda market, sol, rp: OptimalStrategy(sol, market, rp), 0.2),
    (lambda market, sol, rp: PerturbedStrategy(ConstantStrategy([0.3, 0.1]), -0.2), 0.2),
]


@pytest.mark.parametrize("policy", BOUNDARY_POLICIES)
@settings(max_examples=15, deadline=None)
@given(run=st.sampled_from(_ENGINE_RUNS), n_paths=st.integers(1, 29))
def test_first_paths_do_not_depend_on_n_paths(policy, run, n_paths):
    # Of the 30 paths some leave the domain and, under absorb, die.
    strategy, y0 = run
    bundle = _engine_run(policy, strategy=strategy, y0=y0)[0]
    assert np.isfinite(bundle.exit_time).any() and np.isnan(bundle.exit_time).any()
    first = _engine_run(policy, strategy=strategy, y0=y0, n_paths=n_paths)[0]
    assert first.times.tobytes() == bundle.times.tobytes()
    for name in _BUNDLE_ARRAYS[1:]:
        assert getattr(first, name).tobytes() == getattr(bundle, name)[:n_paths].tobytes(), name


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


def _path_contiguous(a):
    """The path axis (axis 0) has stride one item; one row has no layout."""
    return a.shape[0] < 2 or a.strides[0] == a.itemsize


class _LayoutProbe(Strategy):
    """Checks that the states and terms a step hands over are path-contiguous,
    counts its calls and delegates to ``base``."""

    def __init__(self, base):
        self.base, self.calls = base, 0

    def allocations(self, t, terms):
        assert _path_contiguous(terms.Y) and _path_contiguous(terms.mu)
        assert _path_contiguous(terms.kappa)
        self.calls += 1
        return self.base.allocations(t, terms)


@pytest.mark.parametrize("policy", BOUNDARY_POLICIES)
def test_step_hands_the_strategy_path_contiguous_stacks(policy):
    # Two square-root factors started near the corner of [0, inf)^2: paths
    # leave, and under absorb the later steps mask the killed rows.
    rp = RiskParams(gamma=2.0, p=0.25)
    market, spec = affine.canonical_affine_market(
        M=[[-1.5, 0.0], [0.0, -1.2]], w=[0.02, 0.03], L=[0.6, 0.5], Lambda=[0.09, 0.04],
        lambda0=0.01, H=[-0.1, 0.1], rp=rp)
    sol = affine.solve_riccati_closed_form(spec, rp, 0.5, affine.FORWARD)
    probe = _LayoutProbe(_perturbed_optimal(market, sol, rp))
    cfg = SimulationConfig(dt=0.05, horizon=0.5, n_paths=40, seed=4, boundary_policy=policy)
    bundle = simulate(market, cfg, probe, y0=[0.05, 0.05])
    assert probe.calls == cfg.n_steps and np.isfinite(bundle.exit_time).any()
    for name in _BUNDLE_ARRAYS:     # the bundle shares the engine's layout
        assert _path_contiguous(getattr(bundle, name)), name


def _row_major_absorb(market, cfg, strategy, y0):
    """(Y, S, X, exit_time) of ``simulate`` under absorb, written with
    C-ordered stacks and ``@``: every row is evaluated at its state, killed
    ones included, and the updates of the killed rows are masked out.  sigma
    must be constant."""
    n_steps, dt, P = cfg.n_steps, cfg.dt_effective, cfg.n_paths
    noise = _noise_oracle(cfg.seed, 0, P, n_steps, market.d_W + market.d_B)
    A = market.noise_mixer()
    Y, logS, logX = np.tile(y0, (P, 1)), np.zeros((P, market.n)), np.zeros(P)
    alive, exit_time = np.ones(P, dtype=bool), np.full(P, np.nan)
    rec = {"Y": [Y], "S": [np.exp(logS)], "X": [np.exp(logX)]}
    for i in range(n_steps):
        terms = market_terms(market, Y)
        pi = strategy.allocations(i * dt, terms)
        dW = noise[:, i, :market.d_W] * np.sqrt(dt)
        dB = dW @ market.rho + noise[:, i, market.d_W:] * np.sqrt(dt) @ A
        sigpi = pi @ terms.sigma.T
        dlogS = (terms.mu - 0.5 * np.sum(terms.sigma ** 2, axis=0)) * dt + dW @ terms.sigma
        dlogX = (np.sum(sigpi * terms.lam, axis=1) - 0.5 * np.sum(sigpi ** 2, axis=1)) * dt \
            + np.sum(sigpi * dW, axis=1)
        dY = terms.alpha * dt + np.einsum("pbk,pb->pk", terms.kappa, dB)
        logS = np.where(alive[:, None], logS + dlogS, logS)
        logX = np.where(alive, logX + dlogX, logX)
        Y = np.where(alive[:, None], Y + dY, Y)
        left = ~market.domain.contains(Y)
        alive &= ~left
        exit_time[left & np.isnan(exit_time)] = (i + 1) * dt
        for name, value in zip(rec, (Y, np.exp(logS), np.exp(logX))):
            rec[name].append(value)
    return {name: np.stack(values, axis=1) for name, values in rec.items()}, exit_time


def test_absorb_matches_a_row_major_reference_step():
    # Most paths of the square-root factor started at 0.05 leave [0, inf) and
    # die; the path-contiguous step freezes them as the row-major one does.
    market, _, sol, rp = _sqrt_market()
    probe = _LayoutProbe(_perturbed_optimal(market, sol, rp))
    cfg = SimulationConfig(dt=0.05, horizon=0.5, n_paths=300, seed=4, boundary_policy="absorb")
    bundle = simulate(market, cfg, probe, y0=[0.05])
    oracle, exit_time = _row_major_absorb(market, cfg, probe.base, [0.05])
    for name in ("Y", "S", "X"):
        np.testing.assert_allclose(getattr(bundle, name), oracle[name], rtol=1e-15, atol=0,
                                   err_msg=name)
    np.testing.assert_array_equal(bundle.exit_time, exit_time)
    assert bundle.diagnostics["exited_paths"] == np.count_nonzero(np.isfinite(exit_time)) > 100


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_require_finite_reports_the_first_non_finite_path():
    big = np.full((4, 2), 1e308)    # finite entries whose sum would overflow
    sim._require_finite(3, big, big[:, 0])
    with_inf = big.copy()
    with_inf[2, 1] = np.inf
    with_nan = np.zeros(4)
    with_nan[1] = np.nan
    for arrays, path in (((big, with_nan), 1), ((with_inf, np.zeros(4)), 2),
                         ((np.full((4, 1), -np.inf), np.full(4, np.inf)), 0)):
        with pytest.raises(SimulationError) as exc:
            sim._require_finite(3, *arrays)
        assert (exc.value.path, exc.value.step) == (path, 3)


def test_each_step_evaluates_mu_and_kappa_once(monkeypatch, canonical_2f):
    market, spec, rp = canonical_2f
    sol = affine.solve_riccati_closed_form(spec, rp, 1.0, affine.FORWARD)
    strategy = OptimalStrategy(sol, market, rp)
    mu_calls = count_calls(monkeypatch, market.mu, "batch")
    kappa_calls = count_calls(monkeypatch, market.kappa, "batch")
    alpha_calls = count_calls(monkeypatch, market.alpha, "batch")
    cfg = SimulationConfig(dt=0.1, horizon=1.0, n_paths=50, seed=1)
    bundle = simulate(market, cfg, strategy, y0=[0.5, 0.5])
    assert (len(mu_calls), len(kappa_calls), len(alpha_calls)) == (10, 10, 10)
    admissibility_check(bundle, strategy)     # 10 recorded steps; no dY, so no alpha
    assert (len(mu_calls), len(kappa_calls), len(alpha_calls)) == (20, 20, 10)
    # A strategy that ignores the step terms never has kappa evaluated.
    admissibility_check(bundle, ConstantStrategy(np.full(market.n, 0.2)))
    assert (len(mu_calls), len(kappa_calls), len(alpha_calls)) == (30, 20, 10)


def test_simulation_reads_phi_once_per_grid_time(monkeypatch, canonical_2f):
    # Phi(t) is read once at each of the 10 steps and reused by
    # admissibility_check on the recorded grid.
    market, spec, rp = canonical_2f
    sol = affine.solve_riccati_closed_form(spec, rp, 1.0, affine.FORWARD)
    strategy = OptimalStrategy(sol, market, rp)
    phi_calls = count_calls(monkeypatch, sol, "Phi")
    cfg = SimulationConfig(dt=0.1, horizon=1.0, n_paths=20, seed=1)
    bundle = simulate(market, cfg, strategy, y0=[0.5, 0.5])
    assert len(phi_calls) == 10
    admissibility_check(bundle, strategy)
    assert len(phi_calls) == 10
    assert sorted(sol._phi_seen) == [i * cfg.dt_effective for i in range(10)]
    for t, phi in sol._phi_seen.items():
        assert not phi.flags.writeable
        assert phi.tobytes() == sol.Phi(t).tobytes()
        assert sol.log_gradient(t, np.zeros((3, 2))).tobytes() == np.tile(phi, (3, 1)).tobytes()


class _ParentOptimal(Strategy):
    """pi* of ``model`` evaluated from the model itself, ignoring the terms."""

    def __init__(self, sol, model, rp):
        self.sol, self.model, self.rp = sol, model, rp

    def allocations(self, t, terms):
        return affine.optimal_portfolio_affine(self.sol, self.model, self.rp, t, terms.Y)


def test_optimal_strategy_under_another_market_keeps_its_own_model(canonical_1f):
    # A strategy built for one market and run under another (misspecified)
    # takes every coefficient of pi* from its own model, none from the step.
    market, spec, rp = canonical_1f
    varying = make_tabulated_sigma_model(market)
    sol = affine.solve_riccati_closed_form(spec, rp, 1.0, affine.FORWARD)
    strategy = OptimalStrategy(sol, market, rp)
    Y = np.linspace(0.1, 2.5, 5).reshape(-1, 1)
    pi = strategy.allocations(0.6, market_terms(varying, Y))
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
    strategy = OptimalStrategy(sol, varying, rp)
    svds = count_calls(monkeypatch, fpplab.model, "_pinv_and_rank")
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
    assert abs(xt.mean() - 1.0) <= 3 * pair_se(xt)
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
    assert np.all(np.abs(mean - target) <= 3 * pair_se(prods))


def test_brownian_mixing_identity_every_grid_point(canonical_1f):
    market, _, _ = canonical_1f
    cfg = SimulationConfig(dt=0.02, horizon=0.5, n_paths=64, seed=4)
    bundle = simulate(market, cfg, ZeroStrategy(market.n), y0=[1.0])
    A = market.noise_mixer()
    recon = bundle.W @ market.rho + bundle.Wperp @ A
    assert np.max(np.abs(bundle.B - recon)) <= 1e-13
    assert bundle.diagnostics["mixer_residual"] <= 1e-12


def test_simulation_is_deterministic_and_independent_of_n_paths(canonical_1f):
    market, spec, rp = canonical_1f
    sol = affine.solve_riccati_closed_form(spec, rp, 0.5, affine.FORWARD)
    strat = OptimalStrategy(sol, market, rp)
    cfg = SimulationConfig(dt=0.01, horizon=0.5, n_paths=300, seed=99)
    b1 = simulate(market, cfg, strat, y0=[1.0])
    b2 = simulate(market, cfg, strat, y0=[1.0])
    for name in ("W", "Wperp", "B", "Y", "S", "X"):
        assert np.array_equal(getattr(b1, name), getattr(b2, name))
    # Same paths appear regardless of how many are requested (each step's
    # Philox stream is read pair-major, so a pair's normals come first).
    b3 = simulate(market, SimulationConfig(dt=0.01, horizon=0.5, n_paths=100,
                                           seed=99), strat, y0=[1.0])
    assert np.array_equal(b1.X[:100], b3.X)


def test_refinement_halving_dt_stays_within_monte_carlo_noise(canonical_1f):
    market, spec, rp = canonical_1f
    sol = affine.solve_riccati_closed_form(spec, rp, 0.5, affine.FORWARD)
    strat = OptimalStrategy(sol, market, rp)
    means, ses = [], []
    for dt in (0.01, 0.005):
        cfg = SimulationConfig(dt=dt, horizon=0.5, n_paths=4000, seed=55,
                               record_stride=25)
        xt = simulate(market, cfg, strat, y0=[1.0]).X[:, -1]
        means.append(xt.mean())
        ses.append(pair_se(xt))
    assert abs(means[0] - means[1]) <= 3 * np.hypot(*ses)


def test_default_y0_is_the_lower_inset_point_of_each_axis():
    # interior_grid(points_per_dim=1) is linspace(lo + inset, hi - inset, 1),
    # i.e. the lower inset point, not the center of the domain.
    half_line = replace(_flat_market(), domain=Box([0.0], [np.inf]))
    square = ModelSpec(mu=ConstantField([0.0]), sigma=ConstantField([[1.0]]),
                       alpha=ConstantField([0.0, 0.0]), kappa=ConstantField(0.1 * np.eye(2)),
                       rho=np.zeros((1, 2)), domain=Box([-1.0, 0.0], [1.0, 2.0]))
    cfg = SimulationConfig(dt=0.1, horizon=0.2, n_paths=3, seed=1)
    for model, expected in ((half_line, [0.2]), (square, [-0.8, 0.2])):
        bundle = simulate(model, cfg, ZeroStrategy(model.n))
        np.testing.assert_allclose(bundle.diagnostics["y0"], expected, rtol=0, atol=1e-15)
        np.testing.assert_array_equal(bundle.Y[:, 0], np.tile(bundle.diagnostics["y0"], (3, 1)))


class _InfiniteAfter(Strategy):
    """Allocates (0, 0) up to t = 0.25 and (inf, 0) after."""

    def allocations(self, t, terms):
        return np.tile([np.inf, 0.0] if t > 0.25 else [0.0, 0.0], (len(terms.Y), 1))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_nan_strategy_raises_with_location():
    # The error names the first bad (path, step), with no numpy warning first.
    market = _flat_market()
    cfg = SimulationConfig(dt=0.1, horizon=0.5, n_paths=8, seed=2)
    with pytest.raises(SimulationError) as exc:
        simulate(market, cfg, _InfiniteAfter(), y0=[0.0])
    assert (exc.value.path, exc.value.step) == (0, 3)


def test_optimal_strategy_of_a_one_factor_u_on_a_two_factor_market_is_refused(
        canonical_1f, canonical_2f):
    market, _, rp = canonical_2f
    _, spec, _ = canonical_1f
    sol = affine.solve_riccati_closed_form(spec, rp, 1.0, affine.FORWARD)
    cfg = SimulationConfig(dt=0.1, horizon=0.5, n_paths=4, seed=2)
    with pytest.raises(ConfigError, match=r"has shape \(4, 1\); the model has k=2"):
        simulate(market, cfg, OptimalStrategy(sol, market, rp))


def test_boundary_absorb_freezes_paths():
    # Strong negative drift pushes Y out of [0, inf); absorbed paths freeze
    # and record their exit times.
    market = ModelSpec(
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


_PATH_ARRAYS = ("W", "Wperp", "B", "Y", "S", "X")     # indexed (path, time, ...)


def _fortran_order(path):
    """The ``fortran_order`` flag of a .npy header."""
    with open(path, "rb") as fh:
        assert np.lib.format.read_magic(fh) == (1, 0)
        return np.lib.format.read_array_header_1_0(fh)[1]


def _save_c_ordered(bundle, directory):
    """Write ``bundle`` as every earlier version did: C-ordered arrays."""
    bundle.save(directory)
    for name in _BUNDLE_ARRAYS:
        np.save(directory / f"{name}.npy", np.ascontiguousarray(getattr(bundle, name)))


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


def test_bundle_save_load_keeps_the_path_contiguous_layout(tmp_path, canonical_2f):
    market, _, _ = canonical_2f
    cfg = SimulationConfig(dt=0.05, horizon=0.25, n_paths=12, seed=3)
    bundle = simulate(market, cfg, ZeroStrategy(market.n), y0=[0.5, 0.5])
    bundle.save(tmp_path / "paths")
    again = PathBundle.load(tmp_path / "paths")
    for name in _BUNDLE_ARRAYS:
        assert getattr(again, name).tobytes() == getattr(bundle, name).tobytes(), name
        assert _path_contiguous(getattr(again, name)), name
    for name in _PATH_ARRAYS:
        assert _fortran_order(tmp_path / "paths" / f"{name}.npy"), name
    assert again.config == bundle.config


def test_bundle_written_c_ordered_loads_and_certifies_alike(tmp_path, canonical_1f):
    # Earlier versions wrote every array C-ordered; such a bundle loads as
    # it is and gives the same reports as the path-contiguous one.
    market, spec, rp = canonical_1f
    sol = affine.solve_riccati_closed_form(spec, rp, 1.0, affine.FORWARD)
    strategy = OptimalStrategy(sol, market, rp)
    cfg = SimulationConfig(dt=0.05, horizon=1.0, n_paths=200, seed=8)
    bundle = simulate(market, cfg, strategy, y0=[1.0])
    bundle.save(tmp_path / "new")
    _save_c_ordered(bundle, tmp_path / "old")
    new, old = PathBundle.load(tmp_path / "new"), PathBundle.load(tmp_path / "old")
    for name in _PATH_ARRAYS:
        assert not _fortran_order(tmp_path / "old" / f"{name}.npy"), name
        assert getattr(old, name).flags.c_contiguous, name
        assert getattr(old, name).tobytes() == getattr(new, name).tobytes(), name
    feval = affine.fpp_evaluator(sol, rp)
    assert martingale_test(old, feval) == martingale_test(new, feval)
    assert admissibility_check(old, strategy) == admissibility_check(new, strategy)


def test_bundle_csv_export_depends_only_on_the_values(tmp_path, canonical_2f):
    market, _, _ = canonical_2f
    cfg = SimulationConfig(dt=0.05, horizon=0.25, n_paths=12, seed=3)
    bundle = simulate(market, cfg, ZeroStrategy(market.n), y0=[0.5, 0.5])
    c_ordered = replace(bundle, **{name: np.ascontiguousarray(getattr(bundle, name))
                                   for name in _PATH_ARRAYS})
    for path, again in zip(bundle.export_csv(tmp_path / "f"),
                           c_ordered.export_csv(tmp_path / "c")):
        with open(path, "rb") as fa, open(again, "rb") as fb:
            assert fa.read() == fb.read(), path


# ---------------------------------------------------------------------------
# Feynman-Kac
# ---------------------------------------------------------------------------

def test_feynman_kac_unit_weight_is_exact(heat_gen):
    cfg = SimulationConfig(dt=0.01, horizon=1.0, n_paths=400, seed=5)
    est, se = feynman_kac_estimate(heat_gen, lambda Y: np.ones(len(Y)),
                                   0.5, [0.0], cfg)
    assert est == 1.0
    assert se == 0.0


def test_pair_se_is_the_spread_of_pair_means():
    x = np.array([1.0, 3.0, 2.0, 6.0, 10.0])     # pairs (1, 3) and (2, 6); 10 unpaired
    assert pair_se(x) == np.std([2.0, 4.0], ddof=1) / np.sqrt(2)
    np.testing.assert_array_equal(pair_se(np.column_stack([x, -x])),
                                  [pair_se(x), pair_se(x)])
    assert pair_se(x[:3]) == np.inf and pair_se(x[:1]) == np.inf
    # Antithetic partners that cancel leave no spread.
    assert pair_se(np.array([1.0, -1.0, 5.0, -5.0])) == 0.0


@pytest.mark.parametrize("n_paths", [1, 3, 5])
def test_feynman_kac_mean_counts_the_unpaired_path(heat_gen, n_paths):
    # One step of the driftless walk and h(Z) = Z: each pair sums to exactly
    # 0, so the estimate is the last, unpaired path's Z over P, and the SE of
    # the pair means is inf below two pairs and 0 from two on.
    cfg = SimulationConfig(dt=0.5, horizon=1.0, n_paths=n_paths, seed=5)
    est, se = feynman_kac_estimate(heat_gen, lambda Y: Y[:, 0], 0.5, [0.0], cfg)
    z_last = _noise_oracle(5, n_paths - 1, n_paths, 1, 1)[0, 0, 0] * np.sqrt(0.5)
    assert est == z_last / n_paths != 0.0
    assert se == (np.inf if n_paths < 4 else 0.0)


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
        def allocations(self, t, terms):
            out = np.full((len(terms.Y), 2), 0.3)
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
        strat = OptimalStrategy(sol, market, rp)
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

def test_allocations_of_the_wrong_width_are_refused(canonical_1f):
    market, _, _ = canonical_1f
    cfg = SimulationConfig(dt=0.1, horizon=0.5, n_paths=6, seed=1)
    wide = PerturbedStrategy(ConstantStrategy([0.1, 0.2, 0.3]), 0.1)
    with pytest.raises(ConfigError, match=r"^strategy 'constant\+0.1' gave allocations of "
                       r"shape \(6, 3\) for 6 states; the model has n=2 stocks$"):
        simulate(market, cfg, wide, y0=[1.0])
    bundle = simulate(market, cfg, ZeroStrategy(market.n), y0=[1.0])
    with pytest.raises(ConfigError, match=r"shape \(6, 3\) for 6 states; the model has n=2"):
        admissibility_check(bundle, wide)


def test_perturbed_strategy_shifts_every_component(canonical_1f):
    market, spec, rp = canonical_1f
    sol = affine.solve_riccati_closed_form(spec, rp, 1.0, affine.FORWARD)
    base = OptimalStrategy(sol, market, rp)
    shifted = PerturbedStrategy(base, 0.2)
    Y = np.array([[0.8], [1.2]])
    terms = market_terms(market, Y)
    np.testing.assert_allclose(shifted.allocations(0.3, terms),
                               base.allocations(0.3, terms) + 0.2,
                               atol=1e-15)


def test_affine_optimal_strategy_accepts_y_dependent_sigma(canonical_1f):
    market, spec, rp = canonical_1f
    varying = make_tabulated_sigma_model(market)
    sol = affine.solve_riccati_closed_form(spec, rp, 1.0, affine.FORWARD)
    strategy = OptimalStrategy(sol, varying, rp)
    Y = np.linspace(0.1, 2.5, 5).reshape(-1, 1)
    pi = strategy.allocations(0.6, market_terms(varying, Y))
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
        strategy = OptimalStrategy(sol, model, rp)
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
