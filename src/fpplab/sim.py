"""Monte Carlo engine: correlated Brownian drivers, factor/stock/wealth paths,
Feynman-Kac functionals, and admissibility diagnostics.

Paths follow Euler-Maruyama for the factor process and exponential (log-Euler)
updates for stocks and wealth, so positivity of S and X is structural:

    Y_{i+1} = Y_i + alpha(Y_i~) dt + kappa(Y_i~)^T dB_i
    S_{i+1} = S_i * exp((mu - diag(sigma^T sigma)/2) dt + sigma^T dW_i)
    X_{i+1} = X_i * exp(((s p)^T lam - |s p|^2 / 2) dt + (s p)^T dW_i),

with s p = sigma(Y_i~) pi_i and dB = rho^T dW + A^T dWperp,
A = (I - rho^T rho)^{1/2}.  Y_i~ denotes the boundary-policy-adjusted state
used for coefficient evaluation (full truncation clips to the domain).

Randomness comes from counter-based Philox streams keyed by (seed, path), so
every path's noise is reproducible independently of batching or execution
order.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .affine import optimal_portfolio_affine
from .errors import ConfigError, SimulationError
from .model import (ConstantField, GeneratorCoefficients, ModelSpec,
                    RiskParams, sharpe_ratio_batch)

BOUNDARY_POLICIES = ("full-truncation", "absorb", "reflect")
_BLOCK_SIZE = 4096


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
    scheme: str = "euler-maruyama"
    boundary_policy: str = "full-truncation"
    record_stride: int = 1

    def __post_init__(self):
        if self.dt <= 0 or self.horizon <= 0 or self.dt > self.horizon + 1e-15:
            raise ConfigError("need 0 < dt <= horizon")
        if self.n_paths < 1:
            raise ConfigError("n_paths must be >= 1")
        if self.scheme != "euler-maruyama":
            raise ConfigError(f"unknown scheme '{self.scheme}'")
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
        return {"dt": self.dt, "horizon": self.horizon, "n_paths": self.n_paths,
                "seed": self.seed, "scheme": self.scheme,
                "boundary_policy": self.boundary_policy,
                "record_stride": self.record_stride}

    @staticmethod
    def from_json(data):
        try:
            return SimulationConfig(
                dt=float(data["dt"]), horizon=float(data["horizon"]),
                n_paths=int(data["n_paths"]), seed=int(data.get("seed", 0)),
                scheme=data.get("scheme", "euler-maruyama"),
                boundary_policy=data.get("boundary_policy", "full-truncation"),
                record_stride=int(data.get("record_stride", 1)))
        except KeyError as exc:
            raise ConfigError(f"simulation config: missing field {exc}")

    @staticmethod
    def load(path) -> "SimulationConfig":
        with open(path) as fh:
            return SimulationConfig.from_json(json.load(fh))


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

class Strategy:
    """Feedback allocation map.  Subclasses implement ``allocations``."""

    name = "strategy"

    def allocations(self, t: float, Y: np.ndarray, X: np.ndarray) -> np.ndarray:
        """(P, n) stock allocations for stacked states Y (P, k), wealth X (P,)."""
        raise NotImplementedError


class ZeroStrategy(Strategy):
    name = "zero"

    def __init__(self, n: int):
        self.n = n

    def allocations(self, t, Y, X):
        return np.zeros((np.atleast_2d(Y).shape[0], self.n))


class ConstantStrategy(Strategy):
    name = "constant"

    def __init__(self, pi):
        self.pi = np.atleast_1d(np.asarray(pi, dtype=float))

    def allocations(self, t, Y, X):
        return np.broadcast_to(self.pi, (np.atleast_2d(Y).shape[0], self.pi.shape[0])).copy()


class CallableStrategy(Strategy):
    """Wraps a scalar feedback map (t, y, x) -> pi; evaluated path by path."""

    name = "callable"

    def __init__(self, fn: Callable):
        self.fn = fn

    def allocations(self, t, Y, X):
        Y = np.atleast_2d(Y)
        X = np.broadcast_to(np.asarray(X, dtype=float), Y.shape[0])
        return np.stack([np.atleast_1d(self.fn(t, y, x)) for y, x in zip(Y, X)])


class AffineOptimalStrategy(Strategy):
    """pi*(t, y) = (1/gamma) [(sigma^T sigma)^{-1} mu(y) + q varsigma kappa(y) Phi(t)],
    evaluated by ``optimal_portfolio_affine`` on the stacked states.

    Requires constant sigma (the canonical embedding).
    """

    name = "affine-optimal"

    def __init__(self, sol, model: ModelSpec, rp: RiskParams):
        if not isinstance(model.sigma, ConstantField):
            raise ConfigError("affine-optimal strategy requires constant sigma")
        self.sol = sol
        self.model = model
        self.rp = rp

    def allocations(self, t, Y, X):
        return optimal_portfolio_affine(self.sol, self.model, self.rp, float(t),
                                        np.atleast_2d(Y))


class PerturbedStrategy(Strategy):
    """Base strategy plus a constant shift delta in every stock coordinate."""

    name = "perturbed"

    def __init__(self, base: Strategy, delta):
        self.base = base
        self.delta = delta
        self.name = f"{base.name}+{delta}"

    def allocations(self, t, Y, X):
        return self.base.allocations(t, Y, X) + self.delta


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

    def save(self, directory):
        os.makedirs(directory, exist_ok=True)
        for name in _ARRAY_FIELDS:
            np.save(os.path.join(directory, f"{name}.npy"), getattr(self, name))
        meta = {"model": self.model.to_json() if self.model else None,
                "config": self.config.to_json() if self.config else None,
                "diagnostics": self.diagnostics}
        with open(os.path.join(directory, "meta.json"), "w") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)

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

    def export_csv(self, directory):
        """One CSV per variable; rows are (path, t, components...)."""
        os.makedirs(directory, exist_ok=True)
        P, m = self.X.shape
        path_col = np.repeat(np.arange(P), m)
        t_col = np.tile(self.times, P)
        for name in ("W", "Wperp", "B", "Y", "S"):
            arr = getattr(self, name)
            flat = arr.reshape(P * m, arr.shape[2])
            data = np.column_stack([path_col, t_col, flat])
            header = "path,t," + ",".join(f"{name}{j}" for j in range(arr.shape[2]))
            np.savetxt(os.path.join(directory, f"{name}.csv"), data,
                       delimiter=",", header=header, comments="", fmt="%.17g")
        data = np.column_stack([path_col, t_col, self.X.reshape(P * m)])
        np.savetxt(os.path.join(directory, "X.csv"), data, delimiter=",",
                   header="path,t,X", comments="", fmt="%.17g")
        np.savetxt(os.path.join(directory, "exit_time.csv"),
                   np.column_stack([np.arange(P), self.exit_time]),
                   delimiter=",", header="path,exit_time", comments="", fmt="%.17g")


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

def _path_noise(seed: int, path_lo: int, path_hi: int, n_steps: int, dims: int):
    """Per-path Philox noise block of shape (paths, n_steps, dims)."""
    out = np.empty((path_hi - path_lo, n_steps, dims))
    for offset, p in enumerate(range(path_lo, path_hi)):
        gen = np.random.Generator(np.random.Philox(key=np.array(
            [seed & 0xFFFFFFFFFFFFFFFF, p], dtype=np.uint64)))
        out[offset] = gen.standard_normal((n_steps, dims))
    return out


def _first_nonfinite(arr, paths_slice_origin, step):
    bad = ~np.isfinite(arr)
    if bad.ndim > 1:
        bad = bad.reshape(bad.shape[0], -1).any(axis=1)
    idx = int(np.argmax(bad))
    return SimulationError("non-finite value in path update",
                           path=paths_slice_origin + idx, step=step)


def simulate(model: ModelSpec, cfg: SimulationConfig, strategy: Strategy,
             x0: float = 1.0, y0=None, s0=None) -> PathBundle:
    """Generate paths of (W, Wperp, B, Y, S, X) under the feedback strategy.

    Initial states default to x0 = 1, S_0 = 1 per stock, and y0 at the center
    of the domain's interior grid if not supplied.

    Raises
    ------
    SimulationError
        On the first non-finite coefficient/allocation, reporting (path, step).
    """
    if isinstance(strategy, Callable) and not isinstance(strategy, Strategy):
        strategy = CallableStrategy(strategy)
    if y0 is None:
        grid = model.domain.interior_grid(points_per_dim=1)
        y0 = grid[0]
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    s0 = np.full(model.n, 1.0) if s0 is None else np.atleast_1d(np.asarray(s0, dtype=float))
    if x0 <= 0 or np.any(s0 <= 0):
        raise ConfigError("initial wealth and stock prices must be positive")

    n_steps = cfg.n_steps
    dt = cfg.dt_effective
    sqdt = np.sqrt(dt)
    rec_idx = np.arange(0, n_steps + 1, cfg.record_stride)
    if rec_idx[-1] != n_steps:
        rec_idx = np.append(rec_idx, n_steps)
    times = rec_idx * dt
    m = rec_idx.size

    A = model.noise_mixer()
    mix_residual = float(np.max(np.abs(A.T @ A + model.rho.T @ model.rho
                                       - np.eye(model.d_B))))
    if mix_residual > 1e-12:
        raise ConfigError(f"A^T A + rho^T rho - I residual {mix_residual:.3e} > 1e-12")

    P = cfg.n_paths
    out = {
        "W": np.empty((P, m, model.d_W)), "Wperp": np.empty((P, m, model.d_Wperp)),
        "B": np.empty((P, m, model.d_B)), "Y": np.empty((P, m, model.k)),
        "S": np.empty((P, m, model.n)), "X": np.empty((P, m)),
    }
    exit_time = np.full(P, np.nan)

    noise_dims = model.d_W + model.d_Wperp
    for lo in range(0, P, _BLOCK_SIZE):
        hi = min(lo + _BLOCK_SIZE, P)
        B_ = hi - lo
        noise = _path_noise(cfg.seed, lo, hi, n_steps, noise_dims)

        Wc = np.zeros((B_, model.d_W))
        Wpc = np.zeros((B_, model.d_Wperp))
        Bc = np.zeros((B_, model.d_B))
        Y = np.tile(y0, (B_, 1))
        logS = np.tile(np.log(s0), (B_, 1))
        logX = np.full(B_, np.log(x0))
        alive = np.ones(B_, dtype=bool)
        exits = np.full(B_, np.nan)

        rec_pos = 0

        def record(j):
            out["W"][lo:hi, j] = Wc
            out["Wperp"][lo:hi, j] = Wpc
            out["B"][lo:hi, j] = Bc
            out["Y"][lo:hi, j] = Y
            out["S"][lo:hi, j] = np.exp(logS)
            out["X"][lo:hi, j] = np.exp(logX)

        record(0)
        rec_pos = 1

        for i in range(n_steps):
            t = i * dt
            Yeval = model.domain.clip(Y) if cfg.boundary_policy == "full-truncation" else Y

            mu = model.mu.batch(Yeval)
            alpha = model.alpha.batch(Yeval)
            kap = model.kappa.batch(Yeval)
            lam = sharpe_ratio_batch(model, Yeval)
            if isinstance(model.sigma, ConstantField):
                sig_const, sig = model.sigma.value, None
            else:
                sig_const, sig = None, model.sigma.batch(Yeval)

            X = np.exp(logX)
            pi = np.atleast_2d(strategy.allocations(t, Yeval, X))
            if not np.all(np.isfinite(pi)):
                raise _first_nonfinite(pi, lo, i)

            dW = noise[:, i, :model.d_W] * sqdt
            dWp = noise[:, i, model.d_W:] * sqdt
            dB = dW @ model.rho + dWp @ A

            if sig_const is not None:
                sigpi = pi @ sig_const.T
                sig_dW = dW @ sig_const                       # sigma^T dW
                sig_sq = np.sum(sig_const ** 2, axis=0)       # diag(sigma^T sigma)
            else:
                sigpi = np.einsum("pwn,pn->pw", sig, pi)
                sig_dW = np.einsum("pwn,pw->pn", sig, dW)
                sig_sq = np.einsum("pwn,pwn->pn", sig, sig)

            dlogS = (mu - 0.5 * sig_sq) * dt + sig_dW
            dlogX = (np.einsum("pw,pw->p", sigpi, lam)
                     - 0.5 * np.einsum("pw,pw->p", sigpi, sigpi)) * dt \
                + np.einsum("pw,pw->p", sigpi, dW)
            dY = alpha * dt + np.einsum("pbk,pb->pk", kap, dB)
            if not (np.all(np.isfinite(dY)) and np.all(np.isfinite(dlogS))
                    and np.all(np.isfinite(dlogX))):
                raise _first_nonfinite(np.concatenate(
                    [dY, dlogS, dlogX[:, None]], axis=1), lo, i)

            Y = np.where(alive[:, None], Y + dY, Y)
            logS = np.where(alive[:, None], logS + dlogS, logS)
            logX = np.where(alive, logX + dlogX, logX)
            Wc, Wpc, Bc = Wc + dW, Wpc + dWp, Bc + dB

            left = ~model.domain.contains(Y)
            newly = left & np.isnan(exits)
            exits[newly] = (i + 1) * dt
            if cfg.boundary_policy == "absorb":
                alive &= ~left
            elif cfg.boundary_policy == "reflect":
                Y = model.domain.reflect(Y)

            if rec_pos < m and i + 1 == rec_idx[rec_pos]:
                record(rec_pos)
                rec_pos += 1

        exit_time[lo:hi] = exits

    return PathBundle(times=times, exit_time=exit_time, model=model, config=cfg,
                      diagnostics={"mixer_residual": mix_residual,
                                   "strategy": getattr(strategy, "name", "custom"),
                                   "x0": x0, "y0": y0.tolist()},
                      **out)


# ---------------------------------------------------------------------------
# Feynman-Kac estimate
# ---------------------------------------------------------------------------

def _batched_sqrt_psd(mats: np.ndarray) -> np.ndarray:
    evals, evecs = np.linalg.eigh(mats)
    evals = np.clip(evals, 0.0, None)
    return np.einsum("pij,pj,pkj->pik", evecs, np.sqrt(evals), evecs)


def feynman_kac_estimate(gen: GeneratorCoefficients, h: Callable, t: float,
                         y, cfg: SimulationConfig, domain=None):
    """Monte Carlo of E[ exp(int_0^t P(Z_s) ds) h(Z_t) 1_{tau > t} | Z_0 = y ].

    Z follows drift b and diffusion a^{1/2} (the diffusion attached to the
    operator without its potential).  The potential integral uses the left
    endpoint rule.  Exit killing applies under the ``absorb`` boundary policy;
    under full truncation the state is clipped into the domain for coefficient
    evaluation and never killed, the standard treatment for square-root-type
    diffusions whose continuous paths do not leave the closed orthant.

    ``h`` maps a stack of states (P, k) to values (P,).

    Returns (estimate, standard_error).
    """
    if t <= 0:
        raise ConfigError("time-to-go must be positive")
    if t > cfg.horizon + 1e-12:
        raise ConfigError("time-to-go exceeds configured horizon")
    y = np.atleast_1d(np.asarray(y, dtype=float))
    k = y.shape[0]
    n_steps = max(1, int(round(t / cfg.dt)))
    dt = t / n_steps
    sqdt = np.sqrt(dt)

    P_paths = cfg.n_paths
    total = np.empty(P_paths)
    for lo in range(0, P_paths, _BLOCK_SIZE):
        hi = min(lo + _BLOCK_SIZE, P_paths)
        B_ = hi - lo
        noise = _path_noise(cfg.seed, lo, hi, n_steps, k)
        Z = np.tile(y, (B_, 1))
        log_weight = np.zeros(B_)
        alive = np.ones(B_, dtype=bool)
        for i in range(n_steps):
            Zeval = Z if domain is None or cfg.boundary_policy != "full-truncation" \
                else domain.clip(Z)
            log_weight += np.where(alive, gen.P_batch(Zeval) * dt, 0.0)
            drift = gen.b_batch(Zeval)
            root_a = _batched_sqrt_psd(gen.a_batch(Zeval))
            dZ = drift * dt + np.einsum("pij,pj->pi", root_a, noise[:, i]) * sqdt
            if not np.all(np.isfinite(dZ)):
                raise _first_nonfinite(dZ, lo, i)
            Z = np.where(alive[:, None], Z + dZ, Z)
            if domain is not None:
                if cfg.boundary_policy == "absorb":
                    alive &= domain.contains(Z)
                elif cfg.boundary_policy == "reflect":
                    Z = domain.reflect(Z)
        Zfinal = Z if domain is None or cfg.boundary_policy != "full-truncation" \
            else domain.clip(Z)
        h_vals = np.asarray(h(Zfinal), dtype=float)
        if h_vals.shape != (B_,):
            raise ConfigError(f"h must map states (P, k) to values (P,); "
                              f"got shape {h_vals.shape} for P={B_}")
        total[lo:hi] = np.where(alive, np.exp(log_weight) * h_vals, 0.0)

    estimate = float(np.mean(total))
    stderr = float(np.std(total, ddof=1) / np.sqrt(P_paths)) if P_paths > 1 else np.inf
    return estimate, stderr


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
        return {"drift_integral_max": self.drift_integral_max,
                "drift_integral_mean": self.drift_integral_mean,
                "variation_integral_max": self.variation_integral_max,
                "variation_integral_mean": self.variation_integral_mean,
                "all_finite": self.all_finite,
                "nonfinite_locations": [list(loc) for loc in self.nonfinite_locations]}


def admissibility_check(bundle: PathBundle, strategy: Strategy,
                        max_flags: int = 100) -> AdmissibilityReport:
    """Evaluate the two admissibility integrals path by path on the bundle.

    Never raises on bad values; non-finite allocations or integrands are
    reported with their (path, grid index) locations.
    """
    if isinstance(strategy, Callable) and not isinstance(strategy, Strategy):
        strategy = CallableStrategy(strategy)
    model = bundle.model
    if model is None:
        raise ConfigError("bundle carries no model; cannot evaluate coefficients")
    P, m = bundle.X.shape
    drift = np.zeros(P)
    quad = np.zeros(P)
    flags = []
    dts = np.diff(bundle.times)
    for j in range(m - 1):
        Yj = bundle.Y[:, j]
        Yeval = model.domain.clip(Yj)
        pi = np.atleast_2d(strategy.allocations(float(bundle.times[j]), Yeval,
                                                bundle.X[:, j]))
        lam = sharpe_ratio_batch(model, Yeval)
        # Non-finite allocations propagate into the integrands on purpose;
        # they are collected as flags rather than raised.
        with np.errstate(invalid="ignore", over="ignore"):
            if isinstance(model.sigma, ConstantField):
                sigpi = pi @ model.sigma.value.T
            else:
                sigpi = np.einsum("pwn,pn->pw", model.sigma.batch(Yeval), pi)
            d_term = np.abs(np.einsum("pw,pw->p", sigpi, lam))
            q_term = np.einsum("pw,pw->p", sigpi, sigpi)
        bad = ~(np.isfinite(d_term) & np.isfinite(q_term))
        if np.any(bad):
            for p in np.nonzero(bad)[0]:
                if len(flags) < max_flags:
                    flags.append((int(p), int(j)))
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
