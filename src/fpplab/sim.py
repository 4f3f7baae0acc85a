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

Noise is counter-based and comes in antithetic pairs: step i draws from
the Philox stream keyed (seed mod 2^64, i) (Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC'11), pair j = (2j, 2j + 1) reads its
normals j*dims ... j*dims + dims - 1, path 2j copies them and path 2j + 1
negates them (``_step_noise``).  The stream is read pair-major from its
start, so a path's noise does not depend on the number of paths.  A step
reads dims = d_W + d_B normals per path in ``simulate`` (dW, then dWperp:
Wperp has d_B components, as B does) and dims = d_B in
``feynman_kac_estimate`` (dB).  Monte Carlo standard errors are taken over
pair means (``pair_se``); with an odd path count the last path has no
partner and counts only in the mean.

``simulate`` and ``feynman_kac_estimate`` are each one loop over time that
steps all P paths at once, so their working memory per step is O(P): the
stacks below and one step's noise, with no noise buffer across steps.

The engine's stacks (P, k), (P, n), (P, d_B, k) and the step noise are stored
path-contiguous: the path axis has stride one item.  Their other axes have
length 2 or 3, so numpy's inner loops then run over the P paths instead of
over those short axes; ``model.rowwise`` applies every matrix to a stack in
that layout.  The recorded ``PathBundle`` arrays share it, so recording a
step copies each stack into its time slot as contiguous columns.  Only the
layout changes, not the shapes.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .affine import optimal_portfolio_from_terms
from .errors import ConfigError, SimulationError
from .model import (Box, Fields, GeneratorCoefficients, MarketTerms, ModelSpec, RiskParams,
                    instants, integer, market_terms, plain, read_json, reals, require, require_int,
                    rowwise, states, write_json)

BOUNDARY_POLICIES = ("full-truncation", "absorb", "reflect")
_MAX_FLAGS = 100   # nonfinite locations kept by admissibility_check


@dataclass(frozen=True)
class SimulationConfig(Fields):
    """Discretization and sampling parameters.

    ``record_stride`` keeps every stride-th grid point in the output bundle
    (the step itself always uses dt); stride 1 retains everything.  dt and
    horizon are read through ``reals`` as positive numbers, n_paths, seed and
    record_stride through ``integer`` (n_paths and record_stride >= 1).
    """

    dt: float
    horizon: float
    n_paths: int
    seed: int = 0
    boundary_policy: str = "full-truncation"
    record_stride: int = 1

    def __post_init__(self):
        for key in ("dt", "horizon"):
            object.__setattr__(self, key, reals(getattr(self, key), f"simulation config {key}",
                                                scalar=True, positive=True))
        if self.dt > self.horizon + 1e-15:
            raise ConfigError("need 0 < dt <= horizon")
        for key, least in (("n_paths", 1), ("seed", None), ("record_stride", 1)):
            object.__setattr__(self, key, integer(getattr(self, key), f"simulation config {key}",
                                                  least))
        if self.boundary_policy not in BOUNDARY_POLICIES:
            raise ConfigError(f"boundary_policy must be one of {BOUNDARY_POLICIES}")

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
            boundary_policy=data["boundary_policy"], dt=data["dt"], horizon=data["horizon"],
            **{key: require_int(data, key, "simulation config")
               for key in ("n_paths", "seed", "record_stride")})


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

class Strategy:
    """Feedback allocation map.  Subclasses implement ``allocations``.

    ``allocations(t, terms)`` returns the (P, n) wealth fractions at time t
    and the states ``terms.Y`` (P, k) that the coefficients see (clipped
    under full truncation); under power utility they depend on (t, y) only,
    so no strategy sees the wealth.  ``terms`` is the ``MarketTerms`` the
    step evaluated once at those states: their model, mu, sigma, sigma^-,
    lambda, alpha and kappa (the last two on first read).  A strategy may
    build its allocation from them, as ``OptimalStrategy`` does, or ignore
    them; it must not modify them.  ``simulate`` and ``admissibility_check``
    take a ``Strategy``, not a plain function.
    """

    name = "strategy"

    def allocations(self, t: float, terms: MarketTerms) -> np.ndarray:
        raise NotImplementedError


class ConstantStrategy(Strategy):
    name = "constant"

    def __init__(self, pi):
        self.pi = np.atleast_1d(reals(pi, "constant strategy pi"))

    def allocations(self, t, terms):
        return np.broadcast_to(self.pi, (terms.Y.shape[0], self.pi.shape[0])).copy()


class ZeroStrategy(ConstantStrategy):
    name = "zero"

    def __init__(self, n: int):
        super().__init__(np.zeros(n))


class OptimalStrategy(Strategy):
    """pi*(t, y) = sigma(y)^- (lambda(y) + q rho kappa(y) grad_y u / u) / gamma
    of ``model`` for the FPP u, built by ``optimal_portfolio_from_terms`` from
    ``u.log_gradient(t, Y)`` (P, k) at Y = ``terms.Y``: Phi(t) broadcast to
    every path for a ``RiccatiSolution``, which keeps it for each time seen,
    one row per path for a ``WidderFunction``; a u whose k is not the model's
    raises ``ConfigError`` at the first step.  sigma may depend on y.  The
    step's terms are used when they are ``model``'s; a strategy run under
    another (misspecified) market evaluates its own model at Y, so every
    coefficient of pi*, rho included, comes from its own model.
    """

    name = "optimal"

    def __init__(self, u, model: ModelSpec, rp: RiskParams):
        self.u = u
        self.model = model
        self.rp = rp

    def allocations(self, t, terms):
        if terms.spec is not self.model:
            terms = market_terms(self.model, terms.Y)
        return optimal_portfolio_from_terms(terms, self.rp, self.u.log_gradient(float(t), terms.Y))


# The name the benchmark builds the strategy by.
AffineOptimalStrategy = OptimalStrategy


class PerturbedStrategy(Strategy):
    """Base strategy plus a constant shift delta in every stock coordinate."""

    name = "perturbed"

    def __init__(self, base: Strategy, delta):
        self.base = base
        self.delta = reals(delta, "delta")
        self.name = f"{base.name}+{delta}"

    def allocations(self, t, terms):
        return self.base.allocations(t, terms) + self.delta


# ---------------------------------------------------------------------------
# Path bundle
# ---------------------------------------------------------------------------

_ARRAY_FIELDS = ("times", "W", "Wperp", "B", "Y", "S", "X", "exit_time")
_META_FIELDS = ("model", "config", "diagnostics")


@dataclass(frozen=True)
class PathBundle:
    """Recorded simulation output.  Axes: (path, time, component).  ``model``
    and ``config`` are always present: ``simulate`` sets both.

    ``simulate`` stores the path-indexed arrays in Fortran order, so the path
    axis has stride one item and ``X[:, j]``, ``Y[:, j, i]`` are contiguous
    columns.  ``save`` writes them as they are (``fortran_order: True`` in
    each .npy header) and ``load`` returns the layout it finds, so bundles
    written C-ordered load unchanged; only the values matter to readers."""

    times: np.ndarray          # (m,)
    W: np.ndarray              # (P, m, d_W)
    Wperp: np.ndarray          # (P, m, d_B): Wperp has d_B components, as B does
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
# Euler engine: step noise, the boundary step and the wealth integrands
# ---------------------------------------------------------------------------

def _step_noise(seed: int, step: int, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` (P, dims) with the noise of step ``step`` and return it.

    Pair j = (2j, 2j + 1) reads normals j*dims ... j*dims + dims - 1 of the
    Philox stream keyed (seed mod 2^64, step), drawn pair-major: path 2j
    copies them and path 2j + 1 negates them, which is exact.  A fresh
    generator's first normals do not depend on how many are drawn, so a
    path's noise does not depend on P; ``out`` may have any layout."""
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, step], dtype=np.uint64)
    pairs = np.random.Generator(np.random.Philox(key=key)).standard_normal(
        ((out.shape[0] + 1) // 2, out.shape[1]))
    out[0::2] = pairs
    np.negative(pairs[:out.shape[0] // 2], out=out[1::2])
    return out


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


def _require_finite(step: int, *arrays):
    """Raise SimulationError at the first path whose row is non-finite in any
    of the arrays (paths, ...)."""
    if all(np.all(np.isfinite(a)) for a in arrays):
        return
    bad = np.any([~np.isfinite(a).reshape(a.shape[0], -1).all(axis=1) for a in arrays], axis=0)
    raise SimulationError("non-finite value in path update", path=int(np.argmax(bad)), step=step)


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


def _step_terms(model: ModelSpec, strategy: Strategy, t: float, Yeval):
    """(terms, s p, (s p)^T lambda, |s p|^2): the market of ``model`` at the
    states Yeval (P, k) and the wealth integrands of the strategy's
    allocations pi there at time t, s p = sigma pi.  A non-finite pi reaches
    the integrands without a warning; each caller reports it its own way.
    An allocation not shaped (P, n) raises ``ConfigError``."""
    terms = market_terms(model, Yeval)
    pi = strategy.allocations(t, terms)
    if np.shape(pi) != (len(Yeval), model.n):
        raise ConfigError(f"strategy '{strategy.name}' gave allocations of shape "
                          f"{np.shape(pi)} for {len(Yeval)} states; the model has "
                          f"n={model.n} stocks")
    with np.errstate(invalid="ignore", over="ignore"):
        sigpi = rowwise(terms.sigma, pi)
        return (terms, sigpi, np.einsum("pw,pw->p", sigpi, terms.lam),
                np.einsum("pw,pw->p", sigpi, sigpi))


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
    One loop over time steps all paths; beyond the bundle it returns, the
    working memory is one step's O(P) stacks and noise.

    Raises
    ------
    ConfigError
        If the strategy's allocations are not shaped (P, n).
    SimulationError
        On the first non-finite increment of Y, log S or log X, reporting
        (path, step).  sigma has full column rank, so a non-finite allocation
        makes log X non-finite in the same step.
    """
    if y0 is None:
        y0 = model.domain.interior_grid(points_per_dim=1)[0]
    y0, _ = states(y0, model.k, "y0", start=model.domain)
    x0 = reals(x0, "x0", scalar=True, positive=True)

    n_steps, dt, policy = cfg.n_steps, cfg.dt_effective, cfg.boundary_policy
    sqdt = np.sqrt(dt)
    rec_idx = np.unique(np.append(np.arange(0, n_steps + 1, cfg.record_stride), n_steps))
    slot = {int(step): j for j, step in enumerate(rec_idx)}

    A = model.noise_mixer()
    mix_residual = float(np.max(np.abs(A.T @ A + model.rho.T @ model.rho - np.eye(model.d_B))))
    if mix_residual > 1e-12:
        raise ConfigError(f"A^T A + rho^T rho - I residual {mix_residual:.3e} > 1e-12")

    P, m = cfg.n_paths, rec_idx.size
    out = {name: np.empty((P, m) + shape, order="F") for name, shape in (
        ("W", (model.d_W,)), ("Wperp", (model.d_B,)), ("B", (model.d_B,)),
        ("Y", (model.k,)), ("S", (model.n,)), ("X", ()))}
    W, Wp, B, logS = (np.zeros((P, d), order="F")
                      for d in (model.d_W, model.d_B, model.d_B, model.n))
    Y = np.full((P, model.k), y0, order="F")
    logX = np.full(P, np.log(x0))
    alive = np.ones(P, dtype=bool)
    left = ~model.domain.contains(Y)
    exit_time = np.full(P, np.nan)
    xi = np.empty((model.d_W + model.d_B, P)).T     # path-contiguous step noise (dW, dWperp)
    clipped = 0

    def record(step):
        if step in slot:
            j = slot[step]
            for name, value in zip(("W", "Wperp", "B", "Y"), (W, Wp, B, Y)):
                out[name][:, j] = value
            np.exp(logS, out=out["S"][:, j])
            np.exp(logX, out=out["X"][:, j])

    record(0)
    for i in range(n_steps):
        Yeval = _eval_state(model.domain, policy, Y)
        if Yeval is not Y:      # clipped copy: the rows of Y outside the domain
            clipped += int(np.count_nonzero(left))
        # A non-finite allocation is reported by _require_finite below.
        terms, sigpi, sp_lam, sp_sq = _step_terms(model, strategy, i * dt, Yeval)

        _step_noise(cfg.seed, i, xi)
        dW = xi[:, :model.d_W] * sqdt
        dWp = xi[:, model.d_W:] * sqdt
        dB = rowwise(model.rho.T, dW) + rowwise(A.T, dWp)

        # diag(sigma^T sigma) and sigma^T dW
        dlogS = (terms.mu - 0.5 * np.sum(terms.sigma ** 2, axis=-2)) * dt \
            + rowwise(np.swapaxes(terms.sigma, -1, -2), dW)
        dlogX = (sp_lam - 0.5 * sp_sq) * dt + np.einsum("pw,pw->p", sigpi, dW)
        dY = terms.alpha * dt + np.einsum("pbk,pb->pk", terms.kappa, dB)
        _require_finite(i, dY, dlogS, dlogX)

        logS = _live_add(logS, dlogS, alive)
        logX = _live_add(logX, dlogX, alive)
        W += dW
        Wp += dWp
        B += dB
        Y, alive, left = _advance(model.domain, policy, Y, dY, alive)
        exit_time[left & np.isnan(exit_time)] = (i + 1) * dt
        record(i + 1)

    return PathBundle(times=rec_idx * dt, exit_time=exit_time, model=model, config=cfg,
                      diagnostics={"mixer_residual": mix_residual,
                                   "strategy": strategy.name,
                                   "x0": x0, "y0": y0[0].tolist(),
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

    One loop over time steps all paths at once, so the working memory is
    O(P): about 0.2 KB per path at k = 2 (a 36 MB tracemalloc peak at 200k
    paths of a two-factor affine generator).
    """
    t = instants(t, horizon=cfg.horizon, scalar=True, positive=True)
    if gen.kappa_batch is None:
        raise ConfigError("generator carries no kappa_batch; Feynman-Kac steps "
                          "with kappa^T dB")
    if domain is None:
        domain = Box(np.full(gen.k, -np.inf), np.full(gen.k, np.inf))
    y, _ = states(y, gen.k, owner="generator", start=domain)
    d_B = gen.kappa_batch(y).shape[1]
    n_steps = max(1, int(round(t / cfg.dt)))
    dt = t / n_steps
    sqdt = np.sqrt(dt)
    P, policy = cfg.n_paths, cfg.boundary_policy

    Z = np.full((P, gen.k), y, order="F")
    log_weight = np.zeros(P)
    alive = np.ones(P, dtype=bool)
    xi = np.empty((d_B, P)).T       # path-contiguous step noise
    for i in range(n_steps):
        Zeval = _eval_state(domain, policy, Z)
        _, b, pot, kap = gen.coefficients(Zeval)
        log_weight += pot * dt   # a killed path counts 0 below
        _step_noise(cfg.seed, i, xi)
        dZ = b * dt + np.einsum("pbk,pb->pk", kap, xi) * sqdt
        _require_finite(i, dZ)
        Z, alive, _ = _advance(domain, policy, Z, dZ, alive)
    h_vals = np.asarray(h(_eval_state(domain, policy, Z)), dtype=float)
    if h_vals.shape != (P,):
        raise ConfigError(f"h must map states (P, k) to values (P,); "
                          f"got shape {h_vals.shape} for P={P}")
    total = np.where(alive, np.exp(log_weight) * h_vals, 0.0)
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
    (path, grid index) locations, at most 100 of them.  Allocations not
    shaped (P, n) raise ``ConfigError``.
    """
    model = bundle.model
    P, m = bundle.X.shape
    drift, quad = np.zeros(P), np.zeros(P)
    flags = []
    dts = np.diff(bundle.times)
    for j in range(m - 1):
        # Non-finite allocations propagate into the integrands on purpose;
        # they are collected as flags rather than raised.
        _, _, d_term, q_term = _step_terms(model, strategy, float(bundle.times[j]),
                                           model.domain.clip(bundle.Y[:, j]))
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
