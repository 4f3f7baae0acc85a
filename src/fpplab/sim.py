"""Monte Carlo engine: correlated Brownian drivers, factor/stock/wealth paths,
Feynman-Kac functionals, and admissibility diagnostics.

Paths follow Euler-Maruyama for the factor process and exponential (log-Euler)
updates for stocks and wealth, so positivity of S and X is structural:

    Y_{i+1} = Y_i + alpha(Y_i~) dt + kappa(Y_i~)^T dB_i
    S_{i+1} = S_i * exp((mu - diag(sigma^T sigma)/2) dt + sigma^T dW_i)
    X_{i+1} = X_i * exp(((s p)^T lam - |s p|^2 / 2) dt + (s p)^T dW_i),

with s p = sigma(Y_i~) pi_i and dB = rho^T dW + A^T dWperp,
A = (I - rho^T rho)^{1/2}.  Y_i~ is the state the coefficients see.  Each
step evaluates mu, sigma (one SVD, none for a constant sigma), lambda and
kappa once at Y_i~ (``model.market_terms``); the strategy receives them and
the step reuses them.  The boundary policy sets Y_i~ and what follows a step
that leaves the domain:

    full-truncation   Y_i~ is Y_i clipped into the domain; no path stops
    absorb            Y_i~ = Y_i; a path that leaves freezes and is killed
    reflect           Y_i~ = Y_i; Y_{i+1} is folded back across the face

Under each policy exit_time is the first grid time at which Y_{i+1}, before
any reflection, lies outside the domain.  ``simulate`` counts the paths that
left (``exited_paths``) and the path-steps whose coefficients saw a clipped
state (``clipped_states``, full truncation only) in its diagnostics.

Noise comes from counter-based Philox streams keyed by (seed, path), so each
path's noise is the same whatever the batching (see ``_path_noise``).
"""
from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass
from typing import Callable, Optional

import numpy as np

from .affine import optimal_portfolio_from_terms
from .errors import ConfigError, SimulationError
from .model import (Box, GeneratorCoefficients, MarketTerms, ModelSpec, RiskParams,
                    market_terms, require, rowwise)

BOUNDARY_POLICIES = ("full-truncation", "absorb", "reflect")
_BLOCK_SIZE = 4096
_MAX_FLAGS = 100   # nonfinite locations kept by admissibility_check


@dataclass(frozen=True)
class SimulationConfig:
    """Discretization and sampling parameters.

    ``record_stride`` keeps every stride-th grid point in the output bundle
    (the step itself always uses dt); stride 1 retains everything.
    """

    dt: float
    horizon: float
    n_paths: int
    seed: int = 0
    boundary_policy: str = "full-truncation"
    record_stride: int = 1

    def __post_init__(self):
        if self.dt <= 0 or self.horizon <= 0 or self.dt > self.horizon + 1e-15:
            raise ConfigError("need 0 < dt <= horizon")
        if self.n_paths < 1:
            raise ConfigError("n_paths must be >= 1")
        if self.boundary_policy not in BOUNDARY_POLICIES:
            raise ConfigError(f"boundary_policy must be one of {BOUNDARY_POLICIES}")
        if self.record_stride < 1:
            raise ConfigError("record_stride must be >= 1")

    @property
    def n_steps(self) -> int:
        return max(1, int(round(self.horizon / self.dt)))

    @property
    def dt_effective(self) -> float:
        # The grid is horizon/n_steps exactly; dt is honored up to rounding.
        return self.horizon / self.n_steps

    def to_json(self):
        return asdict(self)

    @staticmethod
    def from_json(data):
        require(data, ["dt", "horizon", "n_paths"], "simulation config")
        # Euler-Maruyama is the only scheme; a file naming another is refused.
        scheme = data.get("scheme", "euler-maruyama")
        if scheme != "euler-maruyama":
            raise ConfigError(f"unknown scheme '{scheme}'")
        return SimulationConfig(
            dt=float(data["dt"]), horizon=float(data["horizon"]),
            n_paths=int(data["n_paths"]), seed=int(data.get("seed", 0)),
            boundary_policy=data.get("boundary_policy", "full-truncation"),
            record_stride=int(data.get("record_stride", 1)))

    @staticmethod
    def load(path) -> "SimulationConfig":
        with open(path) as fh:
            return SimulationConfig.from_json(json.load(fh))


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

class Strategy:
    """Feedback allocation map.  Subclasses implement ``allocations``.

    ``allocations(t, Y, X, terms)`` returns the (P, n) stock allocations at
    time t for the states Y (P, k) that the coefficients see (clipped under
    full truncation) and wealth X (P,).  ``terms`` is the ``MarketTerms`` the
    Euler step evaluated once at Y: the model they belong to, mu, sigma,
    sigma^-, lambda and kappa (the last on first read).  A strategy may build
    its allocation from them, as ``AffineOptimalStrategy`` does, or ignore
    them; it must not modify them.
    """

    name = "strategy"

    def allocations(self, t: float, Y: np.ndarray, X: np.ndarray,
                    terms: MarketTerms) -> np.ndarray:
        raise NotImplementedError


class ZeroStrategy(Strategy):
    name = "zero"

    def __init__(self, n: int):
        self.n = n

    def allocations(self, t, Y, X, terms):
        return np.zeros((np.atleast_2d(Y).shape[0], self.n))


class ConstantStrategy(Strategy):
    name = "constant"

    def __init__(self, pi):
        self.pi = np.atleast_1d(np.asarray(pi, dtype=float))

    def allocations(self, t, Y, X, terms):
        return np.broadcast_to(self.pi, (np.atleast_2d(Y).shape[0], self.pi.shape[0])).copy()


class CallableStrategy(Strategy):
    """Wraps a scalar feedback map (t, y, x) -> pi; evaluated path by path."""

    name = "callable"

    def __init__(self, fn: Callable):
        self.fn = fn

    def allocations(self, t, Y, X, terms):
        Y = np.atleast_2d(Y)
        X = np.broadcast_to(np.asarray(X, dtype=float), Y.shape[0])
        return np.stack([np.atleast_1d(self.fn(t, y, x)) for y, x in zip(Y, X)])


class AffineOptimalStrategy(Strategy):
    """pi*(t, y) = sigma(y)^- (lambda(y) + q rho kappa(y) Phi(t)) / gamma of
    ``model``, built by ``optimal_portfolio_from_terms``; sigma may depend on
    y.  The step's terms are used when they are ``model``'s; a strategy run
    under another market (a misspecified one) evaluates its own model at Y,
    so pi* never mixes the coefficients of two models.
    """

    name = "affine-optimal"

    def __init__(self, sol, model: ModelSpec, rp: RiskParams):
        self.sol = sol
        self.model = model
        self.rp = rp

    def allocations(self, t, Y, X, terms):
        if terms.spec is not self.model:
            terms = market_terms(self.model, Y)
        return optimal_portfolio_from_terms(terms, self.model.rho, self.rp,
                                            self.sol.Phi(float(t)))


class PerturbedStrategy(Strategy):
    """Base strategy plus a constant shift delta in every stock coordinate."""

    name = "perturbed"

    def __init__(self, base: Strategy, delta):
        self.base = base
        self.delta = delta
        self.name = f"{base.name}+{delta}"

    def allocations(self, t, Y, X, terms):
        return self.base.allocations(t, Y, X, terms) + self.delta


# ---------------------------------------------------------------------------
# Path bundle
# ---------------------------------------------------------------------------

_ARRAY_FIELDS = ("times", "W", "Wperp", "B", "Y", "S", "X", "exit_time")


@dataclass(frozen=True)
class PathBundle:
    """Recorded simulation output.  Axes: (path, time, component)."""

    times: np.ndarray          # (m,)
    W: np.ndarray              # (P, m, d_W)
    Wperp: np.ndarray          # (P, m, d_Wperp)
    B: np.ndarray              # (P, m, d_B)
    Y: np.ndarray              # (P, m, k)
    S: np.ndarray              # (P, m, n)
    X: np.ndarray              # (P, m)
    exit_time: np.ndarray      # (P,), nan when the path never left the domain
    model: Optional[ModelSpec]
    config: Optional[SimulationConfig]
    diagnostics: dict

    @property
    def n_paths(self) -> int:
        return self.X.shape[0]

    @property
    def n_times(self) -> int:
        return self.times.shape[0]

    def save(self, directory) -> list:
        """One .npy per array field plus meta.json; returns the paths written."""
        os.makedirs(directory, exist_ok=True)
        written = [os.path.join(directory, f"{name}.npy") for name in _ARRAY_FIELDS]
        for name, path in zip(_ARRAY_FIELDS, written):
            np.save(path, getattr(self, name))
        meta = {"model": self.model.to_json() if self.model else None,
                "config": self.config.to_json() if self.config else None,
                "diagnostics": self.diagnostics}
        written.append(os.path.join(directory, "meta.json"))
        with open(written[-1], "w") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
        return written

    @staticmethod
    def load(directory) -> "PathBundle":
        arrays = {name: np.load(os.path.join(directory, f"{name}.npy"))
                  for name in _ARRAY_FIELDS}
        with open(os.path.join(directory, "meta.json")) as fh:
            meta = json.load(fh)
        model = ModelSpec.from_json(meta["model"]) if meta.get("model") else None
        config = SimulationConfig.from_json(meta["config"]) if meta.get("config") else None
        return PathBundle(model=model, config=config,
                          diagnostics=meta.get("diagnostics", {}), **arrays)

    def export_csv(self, directory) -> list:
        """One CSV per variable; rows are (path, t, components...).  Returns
        the paths written."""
        os.makedirs(directory, exist_ok=True)
        P, m = self.X.shape
        path_col = np.repeat(np.arange(P), m)
        t_col = np.tile(self.times, P)
        written = []

        def write(name, columns, header):
            written.append(os.path.join(directory, f"{name}.csv"))
            np.savetxt(written[-1], np.column_stack(columns), delimiter=",",
                       header=header, comments="", fmt="%.17g")

        for name in ("W", "Wperp", "B", "Y", "S"):
            arr = getattr(self, name)
            write(name, [path_col, t_col, arr.reshape(P * m, arr.shape[2])],
                  "path,t," + ",".join(f"{name}{j}" for j in range(arr.shape[2])))
        write("X", [path_col, t_col, self.X.reshape(P * m)], "path,t,X")
        write("exit_time", [np.arange(P), self.exit_time], "path,exit_time")
        return written


# ---------------------------------------------------------------------------
# Euler engine: path blocks, the boundary step and the wealth integrands
# ---------------------------------------------------------------------------

def _path_noise(seed: int, path_lo: int, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` (paths, n_steps, dims) with the noise of paths path_lo,
    path_lo + 1, ... and return it.

    Path p draws from the Philox stream keyed by (seed mod 2^64, p).  One bit
    generator serves the block, reset before each path to the state of a
    fresh one (counter zero, buffer empty) with key (seed, p): the streams of
    one ``Philox(key=[seed, p])`` per path, without building one per path.
    """
    bitgen = np.random.Philox(key=np.array([seed & 0xFFFFFFFFFFFFFFFF, path_lo],
                                           dtype=np.uint64))
    gen = np.random.Generator(bitgen)
    fresh = bitgen.state     # a copy; drawing never changes it
    for offset in range(out.shape[0]):
        fresh["state"]["key"][1] = path_lo + offset
        bitgen.state = fresh
        gen.standard_normal(out=out[offset])
    return out


def _noise_blocks(seed: int, n_paths: int, n_steps: int, dims: int):
    """Yield (lo, hi, noise) for consecutive blocks of at most _BLOCK_SIZE
    paths, noise being the block's (hi - lo, n_steps, dims) draw.  Every block
    is drawn into one buffer, so a block's noise is valid until the next."""
    buffer = np.empty((min(_BLOCK_SIZE, n_paths), n_steps, dims))
    for lo in range(0, n_paths, _BLOCK_SIZE):
        hi = min(lo + _BLOCK_SIZE, n_paths)
        yield lo, hi, _path_noise(seed, lo, buffer[:hi - lo])


def _require_finite(lo: int, step: int, *arrays):
    """Raise SimulationError at the first path of the block starting at lo
    whose row is non-finite in any of the arrays (paths, ...)."""
    if all(np.all(np.isfinite(a)) for a in arrays):
        return
    bad = np.any([~np.isfinite(a).reshape(a.shape[0], -1).all(axis=1) for a in arrays], axis=0)
    raise SimulationError("non-finite value in path update", path=lo + int(np.argmax(bad)),
                          step=step)


def _eval_state(domain: Box, policy: str, Y):
    """The state the coefficients see: Y~ of the module docstring."""
    return domain.clip(Y) if policy == "full-truncation" else Y


def _advance(domain: Box, policy: str, Y, dY, alive):
    """Y + dY on the live paths, then the boundary policy.  Returns the new
    state, the paths still alive and the mask of updated states outside the
    domain (before any reflection)."""
    Y = np.where(alive[:, None], Y + dY, Y)
    left = ~domain.contains(Y)
    if policy == "absorb":
        alive = alive & ~left
    elif policy == "reflect":
        Y = domain.reflect(Y)
    return Y, alive, left


def _wealth_terms(terms: MarketTerms, pi):
    """s p = sigma pi, (s p)^T lambda and |s p|^2 for the allocations pi
    (P, n) at the states where ``terms`` were evaluated."""
    sigpi = rowwise(terms.sigma, pi)
    return sigpi, np.einsum("pw,pw->p", sigpi, terms.lam), np.einsum("pw,pw->p", sigpi, sigpi)


def _as_strategy(strategy) -> Strategy:
    """A plain callable (t, y, x) -> pi becomes a CallableStrategy."""
    if isinstance(strategy, Callable) and not isinstance(strategy, Strategy):
        return CallableStrategy(strategy)
    return strategy


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

def simulate(model: ModelSpec, cfg: SimulationConfig, strategy: Strategy,
             x0: float = 1.0, y0=None) -> PathBundle:
    """Generate paths of (W, Wperp, B, Y, S, X) under the feedback strategy.

    Stocks start at S_0 = 1 (prices never feed back, so S_0 is only a scale),
    wealth at x0 = 1 and y0 at the center of the domain's interior grid unless given.
    ``diagnostics`` holds the mixer residual, the strategy name, x0, y0,
    ``exited_paths`` (paths with an exit time) and ``clipped_states`` (the
    path-steps whose coefficients saw a state clipped into the domain).

    Raises
    ------
    SimulationError
        On the first non-finite coefficient/allocation, reporting (path, step).
    """
    strategy = _as_strategy(strategy)
    if y0 is None:
        y0 = model.domain.interior_grid(points_per_dim=1)[0]
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    if x0 <= 0:
        raise ConfigError("initial wealth must be positive")

    n_steps, dt, policy = cfg.n_steps, cfg.dt_effective, cfg.boundary_policy
    sqdt = np.sqrt(dt)
    rec_idx = np.unique(np.append(np.arange(0, n_steps + 1, cfg.record_stride), n_steps))
    slot = {int(step): j for j, step in enumerate(rec_idx)}

    A = model.noise_mixer()
    mix_residual = float(np.max(np.abs(A.T @ A + model.rho.T @ model.rho - np.eye(model.d_B))))
    if mix_residual > 1e-12:
        raise ConfigError(f"A^T A + rho^T rho - I residual {mix_residual:.3e} > 1e-12")

    P, m = cfg.n_paths, rec_idx.size
    out = {
        "W": np.empty((P, m, model.d_W)), "Wperp": np.empty((P, m, model.d_Wperp)),
        "B": np.empty((P, m, model.d_B)), "Y": np.empty((P, m, model.k)),
        "S": np.empty((P, m, model.n)), "X": np.empty((P, m)),
    }
    exit_time = np.full(P, np.nan)
    clipped = 0

    for lo, hi, noise in _noise_blocks(cfg.seed, P, n_steps, model.d_W + model.d_Wperp):
        Wc, Wpc, Bc = (np.zeros((hi - lo, d)) for d in (model.d_W, model.d_Wperp, model.d_B))
        Y = np.tile(y0, (hi - lo, 1))
        logS = np.zeros((hi - lo, model.n))
        logX = np.full(hi - lo, np.log(x0))
        alive = np.ones(hi - lo, dtype=bool)
        left = ~model.domain.contains(Y)
        exits = exit_time[lo:hi]    # a view: exit times are written in place

        def record(step):
            if step in slot:
                for name, value in zip(out, (Wc, Wpc, Bc, Y, np.exp(logS), np.exp(logX))):
                    out[name][lo:hi, slot[step]] = value

        record(0)
        for i in range(n_steps):
            Yeval = _eval_state(model.domain, policy, Y)
            if Yeval is not Y:      # clipped copy: the rows of Y outside the domain
                clipped += int(np.count_nonzero(left))
            terms = market_terms(model, Yeval)
            pi = np.atleast_2d(strategy.allocations(i * dt, Yeval, np.exp(logX), terms))
            _require_finite(lo, i, pi)
            sigpi, sp_lam, sp_sq = _wealth_terms(terms, pi)

            dW = noise[:, i, :model.d_W] * sqdt
            dWp = noise[:, i, model.d_W:] * sqdt
            dB = dW @ model.rho + dWp @ A

            # diag(sigma^T sigma) and sigma^T dW
            dlogS = (terms.mu - 0.5 * np.sum(terms.sigma ** 2, axis=-2)) * dt \
                + rowwise(np.swapaxes(terms.sigma, -1, -2), dW)
            dlogX = (sp_lam - 0.5 * sp_sq) * dt + np.einsum("pw,pw->p", sigpi, dW)
            dY = model.alpha.batch(Yeval) * dt + np.einsum("pbk,pb->pk", terms.kappa, dB)
            _require_finite(lo, i, dY, dlogS, dlogX)

            logS = np.where(alive[:, None], logS + dlogS, logS)
            logX = np.where(alive, logX + dlogX, logX)
            Wc += dW
            Wpc += dWp
            Bc += dB
            Y, alive, left = _advance(model.domain, policy, Y, dY, alive)
            exits[left & np.isnan(exits)] = (i + 1) * dt
            record(i + 1)

    return PathBundle(times=rec_idx * dt, exit_time=exit_time, model=model, config=cfg,
                      diagnostics={"mixer_residual": mix_residual,
                                   "strategy": getattr(strategy, "name", "custom"),
                                   "x0": x0, "y0": y0.tolist(),
                                   "exited_paths": int(np.count_nonzero(~np.isnan(exit_time))),
                                   "clipped_states": clipped},
                      **out)


# ---------------------------------------------------------------------------
# Feynman-Kac estimate
# ---------------------------------------------------------------------------

def feynman_kac_estimate(gen: GeneratorCoefficients, h: Callable, t: float,
                         y, cfg: SimulationConfig, domain=None):
    """Monte Carlo of E[ exp(int_0^t P(Z_s) ds) h(Z_t) 1_{tau > t} | Z_0 = y ].

    Z follows dZ = b(Z) dt + kappa(Z)^T dB, with B a Brownian motion of
    dimension d_B (the rows of kappa); since a = kappa^T kappa this is the
    diffusion attached to the operator without its potential.  ``gen`` must
    therefore carry ``kappa_batch``, as those built by
    ``generator_coefficients`` do.  The potential integral uses the left
    endpoint rule; coefficients and h see Z~ under the boundary policies of
    the module docstring, and tau is the exit time of an absorbed path.

    ``h`` maps a stack of states (P, k) to values (P,).  ``domain=None`` is
    the unbounded box of dimension k, where clipping, the exit test and
    reflection leave every finite state as it is.

    Returns (estimate, standard_error).
    """
    if t <= 0:
        raise ConfigError("time-to-go must be positive")
    if t > cfg.horizon + 1e-12:
        raise ConfigError("time-to-go exceeds configured horizon")
    if gen.kappa_batch is None:
        raise ConfigError("generator carries no kappa_batch; Feynman-Kac steps "
                          "with kappa^T dB")
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if domain is None:
        domain = Box(np.full(y.size, -np.inf), np.full(y.size, np.inf))
    d_B = gen.kappa_batch(y[None]).shape[1]
    n_steps = max(1, int(round(t / cfg.dt)))
    dt = t / n_steps
    sqdt = np.sqrt(dt)
    P, policy = cfg.n_paths, cfg.boundary_policy

    total = np.empty(P)
    for lo, hi, noise in _noise_blocks(cfg.seed, P, n_steps, d_B):
        Z = np.tile(y, (hi - lo, 1))
        log_weight = np.zeros(hi - lo)
        alive = np.ones(hi - lo, dtype=bool)
        for i in range(n_steps):
            Zeval = _eval_state(domain, policy, Z)
            log_weight += np.where(alive, gen.P_batch(Zeval) * dt, 0.0)
            dZ = gen.b_batch(Zeval) * dt \
                + np.einsum("pbk,pb->pk", gen.kappa_batch(Zeval), noise[:, i]) * sqdt
            _require_finite(lo, i, dZ)
            Z, alive, _ = _advance(domain, policy, Z, dZ, alive)
        h_vals = np.asarray(h(_eval_state(domain, policy, Z)), dtype=float)
        if h_vals.shape != (hi - lo,):
            raise ConfigError(f"h must map states (P, k) to values (P,); "
                              f"got shape {h_vals.shape} for P={hi - lo}")
        total[lo:hi] = np.where(alive, np.exp(log_weight) * h_vals, 0.0)

    return float(np.mean(total)), float(np.std(total, ddof=1) / np.sqrt(P)) if P > 1 else np.inf


# ---------------------------------------------------------------------------
# Admissibility diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdmissibilityReport:
    """Discretized pathwise strategy integrals and finiteness flags.

    drift_integral is int |pi^T sigma^T lambda| dt, variation_integral is
    int |sigma pi|^2 dt, both by the left endpoint rule on the recorded grid.
    """

    drift_integral_max: float
    drift_integral_mean: float
    variation_integral_max: float
    variation_integral_mean: float
    all_finite: bool
    nonfinite_locations: tuple   # (path, grid index) pairs, capped

    def to_json(self):
        return {**asdict(self),
                "nonfinite_locations": [list(loc) for loc in self.nonfinite_locations]}


def admissibility_check(bundle: PathBundle, strategy: Strategy) -> AdmissibilityReport:
    """Evaluate the two admissibility integrals path by path on the bundle.

    Coefficients are evaluated at the recorded states clipped into the domain,
    whatever the bundle's boundary policy.  Never raises on bad values;
    non-finite allocations or integrands are reported with their
    (path, grid index) locations, at most 100 of them.
    """
    strategy = _as_strategy(strategy)
    model = bundle.model
    if model is None:
        raise ConfigError("bundle carries no model; cannot evaluate coefficients")
    P, m = bundle.X.shape
    drift, quad = np.zeros(P), np.zeros(P)
    flags = []
    dts = np.diff(bundle.times)
    for j in range(m - 1):
        Yeval = model.domain.clip(bundle.Y[:, j])
        terms = market_terms(model, Yeval)
        pi = np.atleast_2d(strategy.allocations(float(bundle.times[j]), Yeval,
                                                bundle.X[:, j], terms))
        # Non-finite allocations propagate into the integrands on purpose;
        # they are collected as flags rather than raised.
        with np.errstate(invalid="ignore", over="ignore"):
            _, d_term, q_term = _wealth_terms(terms, pi)
        d_term = np.abs(d_term)
        bad = ~(np.isfinite(d_term) & np.isfinite(q_term))
        flags.extend((int(p), j) for p in np.nonzero(bad)[0][:_MAX_FLAGS - len(flags)])
        drift += np.where(np.isfinite(d_term), d_term, np.inf) * dts[j]
        quad += np.where(np.isfinite(q_term), q_term, np.inf) * dts[j]

    finite = np.isfinite(drift) & np.isfinite(quad)
    return AdmissibilityReport(
        drift_integral_max=float(np.max(drift)),
        drift_integral_mean=float(np.mean(drift[finite])) if np.any(finite) else np.inf,
        variation_integral_max=float(np.max(quad)),
        variation_integral_mean=float(np.mean(quad[finite])) if np.any(finite) else np.inf,
        all_finite=bool(np.all(finite) and not flags),
        nonfinite_locations=tuple(flags))
