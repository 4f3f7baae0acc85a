"""Monte Carlo engine: correlated Brownian drivers, factor/stock/wealth paths,
Feynman-Kac functionals, and admissibility diagnostics.

Paths follow Euler-Maruyama for the factor process and exponential (log-Euler)
updates for stocks and wealth, so positivity of S and X is structural:

    Y_{i+1} = Y_i + alpha(Y_i~) dt + kappa(Y_i~)^T dB_i
    S_{i+1} = S_i * exp((mu - diag(sigma^T sigma)/2) dt + sigma^T dW_i)
    X_{i+1} = X_i * exp(((s p)^T lam - |s p|^2 / 2) dt + (s p)^T dW_i),

with s p = sigma(Y_i~) pi_i and dB = rho^T dW + A^T dWperp,
A = (I - rho^T rho)^{1/2}.  Y_i~ is the state the coefficients see.  Each
step evaluates mu, sigma (one SVD, none for a constant sigma), lambda, alpha
and kappa once at Y_i~ (``model.market_terms``); the strategy receives them
and the step reuses them.  The boundary policy sets Y_i~ and what follows a
step that leaves the domain:

    full-truncation   Y_i~ is Y_i clipped into the domain; no path stops
    absorb            Y_i~ = Y_i; a path that leaves freezes and is killed
    reflect           Y_i~ = Y_i; Y_{i+1} is folded back across the face

Under each policy exit_time is the first grid time at which Y_{i+1}, before
any reflection, lies outside the domain.  ``simulate`` counts the paths that
left (``exited_paths``) and the path-steps whose coefficients saw a clipped
state (``clipped_states``, full truncation only) in its diagnostics.

Under absorb a killed path is frozen: later steps still evaluate its row,
but ``_live_add`` keeps its state, log prices and log wealth as they were.

Noise comes in antithetic pairs of counter-based Philox streams: path 2j
draws the stream keyed by (seed, j) and path 2j + 1 its negation, so each
path's noise is the same whatever the batching (see ``_path_noise``).  Monte
Carlo standard errors are taken over pair means (``pair_se``); with an odd
path count the last path has no partner and counts only in the mean.

The engine's stacks (P, k), (P, n), (P, d_B, k) and the noise are stored
path-contiguous: the path axis has stride one item.  Their other axes have
length 2 or 3, so numpy's inner loops then run over the P paths instead of
over those short axes; ``model.rowwise`` applies every matrix to a stack in
that layout.  Only the layout changes, not the shapes, and the recorded
``PathBundle`` arrays stay C-ordered.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .affine import optimal_portfolio_from_terms
from .errors import ConfigError, SimulationError
from .model import (Box, Fields, GeneratorCoefficients, MarketTerms, ModelSpec, RiskParams,
                    market_terms, plain, read_json, require, require_int, require_real,
                    require_shape, rowwise, write_json)

BOUNDARY_POLICIES = ("full-truncation", "absorb", "reflect")
_BLOCK_SIZE = 4096
_TILE_BYTES = 1 << 18     # scratch of _path_noise: 64 paths of 100 steps x 5 draws
_MAX_FLAGS = 100   # nonfinite locations kept by admissibility_check


@dataclass(frozen=True)
class SimulationConfig(Fields):
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

    @staticmethod
    def from_json(data):
        require(data, ["dt", "horizon", "n_paths"], "simulation config")
        # Euler-Maruyama is the only scheme; a file naming another is refused.
        scheme = data.get("scheme", "euler-maruyama")
        if scheme != "euler-maruyama":
            raise ConfigError(f"unknown scheme '{scheme}'")
        data = {"seed": 0, "boundary_policy": "full-truncation", "record_stride": 1, **data}
        return SimulationConfig(
            boundary_policy=data["boundary_policy"],
            **{key: require_real(data, key, "simulation config") for key in ("dt", "horizon")},
            **{key: require_int(data, key, "simulation config")
               for key in ("n_paths", "seed", "record_stride")})


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

class Strategy:
    """Feedback allocation map.  Subclasses implement ``allocations``.

    ``allocations(t, Y, X, terms)`` returns the (P, n) stock allocations at
    time t for the states Y (P, k) that the coefficients see (clipped under
    full truncation) and wealth X (P,).  ``terms`` is the ``MarketTerms`` the
    Euler step evaluated once at Y: the model they belong to, mu, sigma,
    sigma^-, lambda, alpha and kappa (the last two on first read).  A
    strategy may build its allocation from them, as ``OptimalStrategy`` does,
    or ignore them; it must not modify them.  ``simulate`` and
    ``admissibility_check`` take a ``Strategy``, not a plain function.
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


class OptimalStrategy(Strategy):
    """pi*(t, y) = sigma(y)^- (lambda(y) + q rho kappa(y) grad_y u / u) / gamma
    of ``model`` for the FPP u, built by ``optimal_portfolio_from_terms`` from
    ``u.log_gradient(t, Y)`` (P, k): Phi(t) once per grid time, broadcast to
    every path of every block, for a ``RiccatiSolution``, one row per path for a
    ``WidderFunction``; a u whose k is not the model's raises ``ConfigError``
    at the first step.  sigma may depend on y.  The step's terms are used
    when they are ``model``'s; a strategy run under another market (a
    misspecified one) evaluates its own model at Y, so every coefficient of
    pi*, rho included, comes from the terms of its own model and pi* never
    mixes two models.
    """

    name = "optimal"

    def __init__(self, u, model: ModelSpec, rp: RiskParams):
        self.u = u
        self.model = model
        self.rp = rp

    def allocations(self, t, Y, X, terms):
        if terms.spec is not self.model:
            terms = market_terms(self.model, Y)
        return optimal_portfolio_from_terms(terms, self.rp, self.u.log_gradient(float(t), Y))


# The name the benchmark builds the strategy by.
AffineOptimalStrategy = OptimalStrategy


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
_META_FIELDS = ("model", "config", "diagnostics")


@dataclass(frozen=True)
class PathBundle:
    """Recorded simulation output.  Axes: (path, time, component).  ``model``
    and ``config`` are always present: ``simulate`` sets both."""

    times: np.ndarray          # (m,)
    W: np.ndarray              # (P, m, d_W)
    Wperp: np.ndarray          # (P, m, d_Wperp)
    B: np.ndarray              # (P, m, d_B)
    Y: np.ndarray              # (P, m, k)
    S: np.ndarray              # (P, m, n)
    X: np.ndarray              # (P, m)
    exit_time: np.ndarray      # (P,), nan when the path never left the domain
    model: ModelSpec
    config: SimulationConfig
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
        meta = {name: plain(getattr(self, name)) for name in _META_FIELDS}
        written.append(write_json(os.path.join(directory, "meta.json"), meta))
        return written

    @staticmethod
    def load(directory) -> "PathBundle":
        meta = read_json(os.path.join(directory, "meta.json"))
        require(meta, _META_FIELDS, "path bundle meta")
        arrays = {name: np.load(os.path.join(directory, f"{name}.npy"))
                  for name in _ARRAY_FIELDS}
        return PathBundle(model=ModelSpec.from_json(meta["model"]),
                          config=SimulationConfig.from_json(meta["config"]),
                          diagnostics=meta["diagnostics"], **arrays)

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

    Path p is (-1)^p times the Philox stream keyed by (seed mod 2^64, p // 2):
    the pair (2j, 2j + 1) shares the stream of key j, the odd path negated.
    The pairing follows the global path index, so it does not depend on
    where a block starts.  Only the even path of a pair in a tile is drawn,
    and its partner is its negation written in place; an odd first path of
    a tile is drawn from key p // 2 and negated.  One bit generator serves
    the call, reset before each draw to the state of a fresh one (counter
    zero, buffer empty) with key (seed, p // 2): the streams of one
    ``Philox(key=[seed, p // 2])`` per pair, without building one per pair.

    Paths are drawn into a C-ordered scratch of at most ``_TILE_BYTES``
    (the generator writes only contiguous rows) and copied into ``out`` a
    tile at a time, so ``out`` may have any layout.
    """
    bitgen = np.random.Philox(key=np.array([seed & 0xFFFFFFFFFFFFFFFF, path_lo // 2],
                                           dtype=np.uint64))
    gen = np.random.Generator(bitgen)
    fresh = bitgen.state     # a copy; drawing never changes it
    path_bytes = out.itemsize * max(1, int(np.prod(out.shape[1:])))
    tile_paths = max(2, _TILE_BYTES // path_bytes // 2 * 2)
    scratch = np.empty((min(tile_paths, out.shape[0]),) + out.shape[1:])
    for start in range(0, out.shape[0], tile_paths):
        tile = scratch[:out.shape[0] - start]
        for offset in range(tile.shape[0]):
            p = path_lo + start + offset
            if p % 2 and offset:
                np.negative(tile[offset - 1], out=tile[offset])
                continue
            fresh["state"]["key"][1] = p // 2
            bitgen.state = fresh
            gen.standard_normal(out=tile[offset])
            if p % 2:
                np.negative(tile[offset], out=tile[offset])
        out[start:start + tile.shape[0]] = tile
    return out


def _noise_blocks(seed: int, n_paths: int, n_steps: int, dims: int):
    """Yield (lo, hi, noise) for consecutive blocks of at most _BLOCK_SIZE
    paths, noise being the block's (hi - lo, n_steps, dims) draw.  Every block
    is drawn into one buffer, so a block's noise is valid until the next.

    The buffer is stored path-last, (n_steps, dims, paths), and exposed as a
    (paths, n_steps, dims) view: the step loop reads noise[:, i] as a stack
    whose path axis is contiguous, like every stack of the Euler engine (see
    ``model.rowwise``)."""
    buffer = np.empty((n_steps, dims, min(_BLOCK_SIZE, n_paths))).transpose(2, 0, 1)
    for lo in range(0, n_paths, _BLOCK_SIZE):
        hi = min(lo + _BLOCK_SIZE, n_paths)
        yield lo, hi, _path_noise(seed, lo, buffer[:hi - lo])


def pair_se(values) -> np.ndarray:
    """Standard error of the mean over paths (axis 0) of per-path values
    under antithetic pairs: std(pair means, ddof=1) / sqrt(P // 2), where
    pair j is the mean of paths 2j and 2j + 1.  With an odd path count the
    last path has no partner and is left out; with fewer than two pairs the
    standard error is inf.  Returns an array of the trailing shape (a 0-d
    one for a 1-D input)."""
    values = np.asarray(values, dtype=float)
    n_pairs = values.shape[0] // 2
    if n_pairs < 2:
        return np.full(values.shape[1:], np.inf)
    pairs = 0.5 * (values[:2 * n_pairs:2] + values[1:2 * n_pairs:2])
    return np.std(pairs, axis=0, ddof=1) / np.sqrt(n_pairs)


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


def _live_add(x, dx, alive):
    """x + dx on the live paths, x on the killed ones: the one place a path
    killed under absorb is frozen.  x and dx are stacks (P, ...)."""
    return np.where(alive.reshape((-1,) + (1,) * (np.ndim(x) - 1)), x + dx, x)


def _advance(domain: Box, policy: str, Y, dY, alive):
    """Y + dY on the live paths, then the boundary policy.  Returns the new
    state, the paths still alive and the mask of updated states outside the
    domain (before any reflection)."""
    Y = _live_add(Y, dY, alive)
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


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

def simulate(model: ModelSpec, cfg: SimulationConfig, strategy: Strategy,
             x0: float = 1.0, y0=None) -> PathBundle:
    """Generate paths of (W, Wperp, B, Y, S, X) under the feedback strategy.

    Stocks start at S_0 = 1 (prices never feed back, so S_0 is only a scale),
    wealth at x0 = 1.  y0 defaults to the point of the domain's one-point
    interior grid, the lower end of each axis inset by 0.1 of its width (an
    unbounded axis cut as ``Box.interior_grid`` cuts it): 0.2 on [0, inf),
    (-0.8, 0.2) on [-1, 1] x [0, 2].
    ``diagnostics`` holds the mixer residual, the strategy name, x0, y0,
    ``exited_paths`` (paths with an exit time) and ``clipped_states`` (the
    path-steps whose coefficients saw a state clipped into the domain).

    Raises
    ------
    SimulationError
        On the first non-finite increment of Y, log S or log X, reporting
        (path, step).  sigma has full column rank, so a non-finite allocation
        makes log X non-finite in the same step.
    """
    if y0 is None:
        y0 = model.domain.interior_grid(points_per_dim=1)[0]
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    require_shape(y0, (model.k,), "y0")
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
        Wc, Wpc, Bc, logS = (np.zeros((hi - lo, d), order="F")
                             for d in (model.d_W, model.d_Wperp, model.d_B, model.n))
        Y = np.full((hi - lo, model.k), y0, order="F")
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
            # A non-finite allocation is reported by _require_finite below.
            with np.errstate(invalid="ignore"):
                sigpi, sp_lam, sp_sq = _wealth_terms(terms, pi)

            dW = noise[:, i, :model.d_W] * sqdt
            dWp = noise[:, i, model.d_W:] * sqdt
            dB = rowwise(model.rho.T, dW) + rowwise(A.T, dWp)

            # diag(sigma^T sigma) and sigma^T dW
            dlogS = (terms.mu - 0.5 * np.sum(terms.sigma ** 2, axis=-2)) * dt \
                + rowwise(np.swapaxes(terms.sigma, -1, -2), dW)
            dlogX = (sp_lam - 0.5 * sp_sq) * dt + np.einsum("pw,pw->p", sigpi, dW)
            dY = terms.alpha * dt + np.einsum("pbk,pb->pk", terms.kappa, dB)
            _require_finite(lo, i, dY, dlogS, dlogX)

            logS = _live_add(logS, dlogS, alive)
            logX = _live_add(logX, dlogX, alive)
            Wc += dW
            Wpc += dWp
            Bc += dB
            Y, alive, left = _advance(model.domain, policy, Y, dY, alive)
            exits[left & np.isnan(exits)] = (i + 1) * dt
            record(i + 1)

    return PathBundle(times=rec_idx * dt, exit_time=exit_time, model=model, config=cfg,
                      diagnostics={"mixer_residual": mix_residual,
                                   "strategy": strategy.name,
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

    Returns (estimate, standard_error): the mean over all ``cfg.n_paths``
    paths and ``pair_se`` of the path values, the standard error over the
    means of antithetic pairs (with an odd path count the last path counts
    only in the estimate; with fewer than two pairs the error is inf).
    """
    if t <= 0:
        raise ConfigError("time-to-go must be positive")
    if t > cfg.horizon + 1e-12:
        raise ConfigError("time-to-go exceeds configured horizon")
    if gen.kappa_batch is None:
        raise ConfigError("generator carries no kappa_batch; Feynman-Kac steps "
                          "with kappa^T dB")
    y = np.atleast_1d(np.asarray(y, dtype=float))
    require_shape(y, (gen.k,), owner="generator")
    if domain is None:
        domain = Box(np.full(y.size, -np.inf), np.full(y.size, np.inf))
    d_B = gen.kappa_batch(y[None]).shape[1]
    n_steps = max(1, int(round(t / cfg.dt)))
    dt = t / n_steps
    sqdt = np.sqrt(dt)
    P, policy = cfg.n_paths, cfg.boundary_policy

    total = np.empty(P)
    for lo, hi, noise in _noise_blocks(cfg.seed, P, n_steps, d_B):
        Z = np.full((hi - lo, gen.k), y, order="F")
        log_weight = np.zeros(hi - lo)
        alive = np.ones(hi - lo, dtype=bool)
        for i in range(n_steps):
            Zeval = _eval_state(domain, policy, Z)
            log_weight += gen.P_batch(Zeval) * dt   # a killed path counts 0 below
            dZ = gen.b_batch(Zeval) * dt \
                + np.einsum("pbk,pb->pk", gen.kappa_batch(Zeval), noise[:, i]) * sqdt
            _require_finite(lo, i, dZ)
            Z, alive, _ = _advance(domain, policy, Z, dZ, alive)
        h_vals = np.asarray(h(_eval_state(domain, policy, Z)), dtype=float)
        if h_vals.shape != (hi - lo,):
            raise ConfigError(f"h must map states (P, k) to values (P,); "
                              f"got shape {h_vals.shape} for P={hi - lo}")
        total[lo:hi] = np.where(alive, np.exp(log_weight) * h_vals, 0.0)

    return float(np.mean(total)), float(pair_se(total))


# ---------------------------------------------------------------------------
# Admissibility diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdmissibilityReport(Fields):
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


def admissibility_check(bundle: PathBundle, strategy: Strategy) -> AdmissibilityReport:
    """Evaluate the two admissibility integrals path by path on the bundle.

    Coefficients are evaluated at the recorded states clipped into the domain,
    whatever the bundle's boundary policy.  Never raises on bad values;
    non-finite allocations or integrands are reported with their
    (path, grid index) locations, at most 100 of them.
    """
    model = bundle.model
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
