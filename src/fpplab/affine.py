"""Riccati system of non-negative affine factor models and the resulting
exponential-affine performance processes.

With factor drift M^T y + w, squared volatility kappa^T kappa = diag(L_i y_i),
affine squared Sharpe ratio Lambda^T y + lambda0 and affine cross term
N^T y + c, the linear parabolic problem for u(t, y) is solved by the ansatz
u = exp(Phi(t)^T y + Theta(t)).  The state z = (Phi, Theta) solves one ODE,
the affine transform of Duffie-Filipovic-Schachermayer (2003):

    Phi_i' + (1/2) L_i Phi_i^2 + sum_j (M+N)_ij Phi_j + (Gamma/2q) Lambda_i = 0,
    Theta' + (w+c)^T Phi + (Gamma/2q) lambda0 = 0,

whose rates ``_riccati_rhs`` alone writes.  The boundary value z = (H, h0)
is anchored at t = 0 for the forward problem and at the horizon for the
backward (fixed terminal utility) problem.  Both solvers work in the time
since the anchor, tau = t forward and tau = horizon - t backward;
``RiccatiSolution`` maps t to tau and returns z at once through ``state(t)``.

When M+N is diagonal each component decouples into a scalar Riccati ODE.
With D_i = (M+N)_ii^2 - L_i (Gamma/q) Lambda_i > 0 and the stationary roots
z_{+/-,i} = (-(M+N)_ii +/- sqrt(D_i)) / L_i, let r = z_+, r' = z_- and
s = +1 forward, r = z_-, r' = z_+ and s = -1 backward (r attracts in tau,
r' repels), and

    g = H - r,    q = s L (H - r') / (2 sqrt(D)),

so q = 1 at H = r and q = 0 at H = r' (this q belongs to the component; it
is not the risk parameter of Gamma/q).  The deviation 1/(Phi - r) solves a
linear ODE (Bernoulli), so with E(tau) = e^{-sqrt(D) tau} and the
denominator d(tau) = E + q (1 - E)

    Phi_i(tau) = r + g E / d(tau),
    int_0^tau Phi_i = r tau + s (2/L) log d(tau),

and Theta = h0 - s ((Gamma/2q) lambda0 tau + (w+c)^T int_0^tau Phi).  1 - E
is evaluated through -expm1(-sqrt(D) tau), and q (1 - E) tends to
s L (H - r') tau / 2 as D -> 0, so the form stays accurate at small
discriminants.  q is taken from H - r' and sqrt(D), not from the difference
of the two roots (which cancels at small D), so it is exactly 0 at H = r'
and a forward run started at the repelling root stays there.  d vanishes
only when q < 0, at the pole tau* = log1p(-1/q) / sqrt(D).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (ClosedFormInapplicableError, ConfigError,
                     ExponentOverflowError, IntegrationError, RiccatiBlowUpError)
from .model import (AffineField, Box, ConstantField, Fields, MarketTerms, ModelSpec, RiskParams,
                    SqrtAffineField, SqrtDiagField, from_params, market_terms, require_shape,
                    rowwise)

BLOW_UP_THRESHOLD = 1e8
DIAGONAL_TOL = 1e-12      # AffineSpec.is_diagonal: relative off-diagonal tolerance
RESIDUAL_FD_STEP = 1e-6   # riccati_residual: central-difference time step
_EXP_LIMIT = 700.0
_PHI_STORE_LIMIT = 10_000   # RiccatiSolution.log_gradient: times whose Phi is kept

FORWARD = "forward"
BACKWARD = "backward"


# ---------------------------------------------------------------------------
# Specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AffineSpec(Fields):
    """Parameters of the affine factor model on [0, inf)^k.

    M : (k, k) factor mean-reversion matrix, non-negative off-diagonals
    w : (k,) non-negative drift offset
    L : (k,) positive volatility scales, kappa^T kappa = diag(L_i y_i)
    Lambda, lambda0 : affine squared Sharpe ratio Lambda^T y + lambda0
    N, c : affine cross term N^T y + c = Gamma kappa^T rho^T lambda
    H, h0 : exponent of the utility datum h(y) = exp(H^T y + h0)
    """

    M: np.ndarray
    w: np.ndarray
    L: np.ndarray
    Lambda: np.ndarray
    lambda0: float
    N: np.ndarray
    c: np.ndarray
    H: np.ndarray
    h0: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "lambda0", float(self.lambda0))
        object.__setattr__(self, "h0", float(self.h0))
        for name in ("M", "N"):
            object.__setattr__(self, name, np.atleast_2d(np.asarray(getattr(self, name), dtype=float)))
        for name in ("w", "L", "Lambda", "c", "H"):
            object.__setattr__(self, name, np.atleast_1d(np.asarray(getattr(self, name), dtype=float)))
        k = self.L.shape[0]
        for name, want in (("M", (k, k)), ("N", (k, k)), ("w", (k,)),
                           ("Lambda", (k,)), ("c", (k,)), ("H", (k,))):
            if getattr(self, name).shape != want:
                raise ConfigError(f"AffineSpec.{name} must have shape {want}")
        if np.any(self.L <= 0):
            raise ConfigError("AffineSpec.L entries must be positive")
        off = self.M - np.diag(np.diag(self.M))
        if np.any(off < -1e-12):
            raise ConfigError("AffineSpec.M must have non-negative off-diagonals")
        if np.any(self.w < -1e-12):
            raise ConfigError("AffineSpec.w must be non-negative")
        # Lambda^T y + lambda0 is a squared norm, hence >= 0 on all of
        # [0, inf)^k, which forces Lambda >= 0 and lambda0 >= 0.
        if np.any(self.Lambda < -1e-12) or self.lambda0 < -1e-12:
            raise ConfigError("AffineSpec requires Lambda >= 0 and lambda0 >= 0")

    @property
    def k(self) -> int:
        return self.L.shape[0]

    def coupling(self) -> np.ndarray:
        return self.M + self.N

    def is_diagonal(self) -> bool:
        """Off-diagonals of M+N within DIAGONAL_TOL (1e-12) of max(1, max |M+N|)."""
        mn = self.coupling()
        off = mn - np.diag(np.diag(mn))
        scale = max(1.0, float(np.max(np.abs(mn))))
        return bool(np.max(np.abs(off)) <= DIAGONAL_TOL * scale)

    def h(self, y):
        """The utility datum h(y) = exp(H^T y + h0) at one state (k,) as a
        float, or at a stack of states (P, k) as (P,)."""
        y = np.asarray(y, dtype=float)
        out = np.exp(y @ self.H + self.h0)
        return float(out) if y.ndim < 2 else out

    @staticmethod
    def from_json(data: dict) -> "AffineSpec":
        return from_params(AffineSpec, data, "affine spec")


@dataclass(frozen=True)
class ClosedFormComponent(Fields):
    """Scalar Riccati data for one decoupled component."""

    D: float
    z_plus: float
    z_minus: float


def _clock(horizon: float, direction: str) -> Callable:
    """Validate a run and return its map from t to the time since the anchor
    tau (t forward, horizon - t backward).  The map is its own inverse."""
    if horizon <= 0:
        raise ConfigError("horizon must be positive")
    if direction not in (FORWARD, BACKWARD):
        raise ConfigError(f"direction must be '{FORWARD}' or '{BACKWARD}'")
    if direction == FORWARD:
        return lambda t: t
    return lambda t: horizon - t


# ---------------------------------------------------------------------------
# Solutions
# ---------------------------------------------------------------------------

class RiccatiSolution:
    """Immutable solution z(t) = (Phi(t), Theta(t)) on [0, horizon].

    ``state(t)`` accepts a scalar or 1-D array of times and returns z with
    shape (k+1,) or (len(t), k+1); ``Phi(t)`` and ``Theta(t)`` are its first k
    columns and its last one (a float for scalar t).  The solvers hand over
    ``state_impl`` as a function of a 1-D array of times tau since the anchor.

    ``solver`` holds the ODE solver's nfev, accepted steps, status and message
    for the numeric route, None for the closed form.  ``fallback_reason`` is
    set by ``solve_riccati`` to why the closed form did not apply, else None.
    """

    def __init__(self, spec: AffineSpec, rp: RiskParams, horizon: float,
                 direction: str, method: str, state_impl: Callable,
                 components: Optional[Sequence[ClosedFormComponent]] = None,
                 solver: Optional[dict] = None):
        self._tau = _clock(horizon, direction)
        self.spec = spec
        self.rp = rp
        self.horizon = float(horizon)
        self.direction = direction
        self.method = method
        self.components = tuple(components) if components is not None else None
        self.solver = solver
        self.fallback_reason: Optional[str] = None
        self._state_impl = state_impl
        self._phi_seen = {}      # t -> Phi(t), read-only; see log_gradient

    def state(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t < -1e-12) or np.any(t > self.horizon + 1e-12):
            raise ValueError(f"time outside solved horizon [0, {self.horizon}]")
        tau = self._tau(np.clip(t, 0.0, self.horizon))
        out = self._state_impl(np.atleast_1d(tau))
        return out[0] if tau.ndim == 0 else out

    def Phi(self, t):
        return self.state(t)[..., :-1]

    def Theta(self, t):
        theta = self.state(t)[..., -1]
        return float(theta) if theta.ndim == 0 else theta

    def __call__(self, t, y):
        """u(t, y) = exp(Phi(t)^T y + Theta(t)) at one state y (k,) as a
        float, or at stacked states (P, k) as (P,), from one read of z;
        ConfigError if y has another k, ExponentOverflowError if the
        exponent exceeds 700."""
        y = np.asarray(y, dtype=float)
        require_shape(y, y.shape[:-1] + (self.spec.k,), owner="FPP")
        z = self.state(t)
        expo = y @ z[:-1] + z[-1]
        if np.any(expo > _EXP_LIMIT):
            raise ExponentOverflowError(f"exponent {np.max(expo):.6g} exceeds {_EXP_LIMIT:g}")
        return np.exp(expo) if y.ndim > 1 else float(np.exp(expo))

    def log_gradient(self, t, Y):
        """grad_y u / u at the stacked states Y (P, k): Phi(t) broadcast to a
        read-only (P, k) view.  Phi(t) is kept for each time already seen, up
        to _PHI_STORE_LIMIT times (a step grid of that many points), so a
        simulation in several path blocks reads Phi once per grid time."""
        t = float(t)
        phi = self._phi_seen.get(t)
        if phi is None:
            phi = self.Phi(t)
            phi.flags.writeable = False
            if len(self._phi_seen) < _PHI_STORE_LIMIT:
                self._phi_seen[t] = phi
        return np.broadcast_to(phi, (np.shape(Y)[0], self.spec.k))

    @property
    def anchor_time(self) -> float:
        return self._tau(0.0)

    def component_table(self) -> list:
        if self.components is None:
            return []
        return [{"component": i, **cf.to_json()} for i, cf in enumerate(self.components)]


def _riccati_rhs(spec: AffineSpec, rp: RiskParams):
    """d/dt of the state z = (Phi, Theta), for one state (k+1,) or a stack
    (m, k+1); the only place where the Phi and Theta rates are written."""
    mn = spec.coupling()
    L = spec.L
    wc = spec.w + spec.c
    half_ratio = rp.Gamma / (2.0 * rp.q)
    lam_term, lam0_term = half_ratio * spec.Lambda, half_ratio * spec.lambda0

    def rhs(z):
        phi = z[..., :-1]
        dtheta = -(phi @ wc + lam0_term)
        return np.append(-(0.5 * L * phi * phi + phi @ mn.T + lam_term),
                         dtheta[..., None], axis=-1)

    return rhs


def solve_riccati_numeric(spec: AffineSpec, rp: RiskParams, horizon: float,
                          direction: str = FORWARD) -> RiccatiSolution:
    """Adaptive Runge-Kutta (DOP853, rtol 1e-10) solution for the state
    z = (Phi, Theta) in tau, so z comes from one dense-output evaluation.

    Raises
    ------
    RiccatiBlowUpError
        If any |Phi_i| exceeds 1e8 before the horizon; the earliest blow-up
        time and the component with the largest |Phi_i| there are reported.
    IntegrationError
        If the solver fails without a blow-up event (e.g. the step size
        underflows); the message carries the solver's reason and the time t
        the solve reached.
    """
    from scipy.integrate import solve_ivp

    to_t = _clock(horizon, direction)
    rhs = _riccati_rhs(spec, rp)
    k = spec.k
    # d/dtau = -d/dt on backward runs.
    sign = 1.0 if direction == FORWARD else -1.0

    def odefun(_, z):
        return sign * rhs(z)

    def blow_up(_, z):
        return float(np.max(np.abs(z[:k]))) - BLOW_UP_THRESHOLD

    blow_up.terminal = True
    blow_up.direction = 1

    sol = solve_ivp(odefun, (0.0, horizon), np.append(spec.H, spec.h0),
                    method="DOP853", rtol=1e-10, atol=1e-12, dense_output=True,
                    events=blow_up)
    if sol.status == 1 and len(sol.t_events[0]):
        raise RiccatiBlowUpError(to_t(float(sol.t_events[0][0])),
                                 int(np.argmax(np.abs(sol.y_events[0][0][:k]))))
    if not sol.success:
        raise IntegrationError(
            f"Riccati integration failed at t={to_t(float(sol.t[-1])):.6g}: {sol.message}")

    solver = {"nfev": int(sol.nfev), "steps": len(sol.t) - 1,
              "status": int(sol.status), "message": sol.message}
    return RiccatiSolution(spec, rp, horizon, direction, "numeric",
                           lambda tau: sol.sol(tau).T, solver=solver)


def solve_riccati_closed_form(spec: AffineSpec, rp: RiskParams, horizon: float,
                              direction: str = FORWARD) -> RiccatiSolution:
    """Explicit solution for diagonal coupling M+N with positive discriminants,
    in the Bernoulli form of the module docstring, evaluated for all
    components at once.

    Raises
    ------
    ClosedFormInapplicableError
        Non-diagonal coupling or some D_i <= 0 (the first such component is
        named).
    RiccatiBlowUpError
        The explicit solution has a pole inside (0, horizon]; the earliest
        pole over all components and its component are reported.
    """
    to_t = _clock(horizon, direction)
    if not spec.is_diagonal():
        raise ClosedFormInapplicableError("M+N is not diagonal")

    L = spec.L
    mn = np.diag(spec.coupling())
    disc = mn * mn - L * (rp.Gamma / rp.q) * spec.Lambda
    bad = np.flatnonzero(disc <= 0)
    if bad.size:
        raise ClosedFormInapplicableError(
            f"component {bad[0]}: discriminant {disc[bad[0]]:.6g} <= 0")
    sq = np.sqrt(disc)
    z_plus = (-mn + sq) / L
    z_minus = (-mn - sq) / L
    s, r, r_other = ((1.0, z_plus, z_minus) if direction == FORWARD
                     else (-1.0, z_minus, z_plus))
    g = spec.H - r
    q = s * L * (spec.H - r_other) / (2.0 * sq)

    pole = np.full(spec.k, np.inf)
    blows = q < 0
    pole[blows] = np.log1p(-1.0 / q[blows]) / sq[blows]
    first = int(np.argmin(pole))
    if pole[first] <= horizon:
        raise RiccatiBlowUpError(to_t(float(pole[first])), component=first)

    lam0_term = (rp.Gamma / (2.0 * rp.q)) * spec.lambda0
    wc = spec.w + spec.c

    def state_impl(tau):
        # E = e^{-sqrt(D) tau} and d = E + q (1 - E), a sum of two terms >= 0
        # when there is no pole, so rounding cannot take it through zero.
        x = np.outer(tau, sq)
        e = np.exp(-x)
        denom = e - q * np.expm1(-x)
        integral = np.outer(tau, r) + s * (2.0 / L) * np.log(denom)
        theta = spec.h0 - s * (lam0_term * tau + integral @ wc)
        return np.column_stack([r + g * e / denom, theta])

    comps = [ClosedFormComponent(D=float(d), z_plus=float(zp), z_minus=float(zm))
             for d, zp, zm in zip(disc, z_plus, z_minus)]
    return RiccatiSolution(spec, rp, horizon, direction, "closed-form",
                           state_impl, components=comps)


def solve_riccati(spec: AffineSpec, rp: RiskParams, horizon: float,
                  direction: str = FORWARD) -> RiccatiSolution:
    """Closed form when applicable, numeric otherwise; the fallback records
    why the closed form did not apply in ``fallback_reason``."""
    try:
        return solve_riccati_closed_form(spec, rp, horizon, direction)
    except ClosedFormInapplicableError as exc:
        sol = solve_riccati_numeric(spec, rp, horizon, direction)
        sol.fallback_reason = str(exc)
        return sol


def riccati_residual(sol: RiccatiSolution, times=None):
    """Max residuals of the Phi system and the Theta equation at sampled times.

    The state z is differenced once, with central differences of step
    RESIDUAL_FD_STEP (1e-6), independent of how the solution was produced, and
    compared with its rate.  Returns (max_phi_residual, max_theta_residual).

    On the numeric route the stencil differences DOP853's dense output, whose
    derivative errs by about 2.4e-8 relative to |dz/dt|: a floor, so a
    reading near 4e-7 where |Phi| ~ 7 is not a wrong solution.
    """
    if times is None:
        times = np.linspace(0.0, sol.horizon, 100)
    t = np.atleast_1d(np.asarray(times, dtype=float))
    h = RESIDUAL_FD_STEP

    # Stencil rows: central inside, second-order one-sided forward and
    # backward at the ends.  Each time gets three nodes t + h * offset.
    offsets = np.array([[-1.0, 1.0, 0.0], [0.0, 1.0, 2.0], [0.0, -1.0, -2.0]])
    weights = np.array([[-1.0, 1.0, 0.0], [-3.0, 4.0, -1.0], [3.0, -4.0, 1.0]])
    row = np.where((t - h >= 0.0) & (t + h <= sol.horizon), 0,
                   np.where(t + 2 * h <= sol.horizon, 1, 2))
    nodes = t[:, None] + h * offsets[row]
    weights = weights[row]

    dz = sum(weights[:, j, None] * sol.state(nodes[:, j]) for j in range(3)) / (2.0 * h)
    res = np.abs(dz - _riccati_rhs(sol.spec, sol.rp)(sol.state(t)))
    return float(np.max(res[:, :-1])), float(np.max(res[:, -1]))


# ---------------------------------------------------------------------------
# Evaluations over any FPP u
# ---------------------------------------------------------------------------
#
# An FPP u is any object with ``u(t, Y)`` and ``u.log_gradient(t, Y)`` =
# grad_y u / u, shape (P, k), on stacked states Y (P, k): a
# ``RiccatiSolution`` (Phi(t) broadcast to every state) or a
# ``spectral.WidderFunction``.  V and pi* below, and the optimality identity
# of ``verify``, read u through these two calls only.

def evaluate_u_affine(sol: RiccatiSolution, t: float, y) -> float | np.ndarray:
    """u(t, y) = ``sol(t, y)`` at a single point (k,) or a stack (P, k)."""
    return sol(t, y)


def power_utility_prefactor(rp: RiskParams, x) -> np.ndarray:
    """gamma^gamma x^{1-gamma} / (1-gamma) for wealth x > 0."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError("wealth must be positive")
    g = rp.gamma
    return g ** g * x ** (1.0 - g) / (1.0 - g)


def evaluate_fpp(u, rp: RiskParams, t: float, x, y):
    """Performance value V(t, x, y) = gamma^gamma x^{1-gamma}/(1-gamma) * u(t, y)^q
    of the FPP u; the one place V is written."""
    out = power_utility_prefactor(rp, x) * np.asarray(u(t, y)) ** rp.q
    return float(out) if np.ndim(out) == 0 else out


def fpp_evaluator(u, rp: RiskParams) -> Callable:
    """Vectorized (t, x, y) -> V callable of the FPP u for Monte Carlo diagnostics."""
    return partial(evaluate_fpp, u, rp)


def optimal_portfolio_affine(u, model_spec: ModelSpec, rp: RiskParams, t: float,
                             y) -> np.ndarray:
    """Optimal allocation pi* = sigma^- (lambda + q rho kappa grad_y u / u) / gamma
    for the FPP u.

    sigma may depend on y.  For the full-column-rank sigma that
    ``market_terms`` enforces, sigma^- lambda = (sigma^T sigma)^{-1} mu, so this
    is the myopic demand plus the hedging demand q sigma^- rho kappa grad_y u / u,
    where grad_y u / u is ``u.log_gradient`` (Phi(t) for the exponential-affine
    u, so no u is evaluated).  ``y`` may be one point (k,) or a stack (P, k);
    the result has shape (n,) or (P, n).

    Raises
    ------
    ConfigError
        If ``y`` or grad_y u / u does not have the model's k factors.
    SingularModelError
        If sigma(y) has rank below n at some point.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    k = model_spec.k
    require_shape(y, (k,) if y.ndim == 1 else (len(y), k))
    Y = np.atleast_2d(y)
    pi = optimal_portfolio_from_terms(market_terms(model_spec, Y), rp, u.log_gradient(t, Y))
    return pi[0] if y.ndim == 1 else pi


def optimal_portfolio_from_terms(terms: MarketTerms, rp: RiskParams,
                                 phi: np.ndarray) -> np.ndarray:
    """pi* = sigma^- (lambda + q rho kappa phi) / gamma, shape (P, n), from
    the coefficients (rho included) of ``terms.spec`` at P states and the
    log-gradient phi = grad_y u / u (P, k), refused with ``ConfigError``
    unless k is the model's.  The one place the expression is written."""
    P, _, k = terms.kappa.shape
    require_shape(phi, (P, k), "grad_y u / u")
    kap_phi = np.einsum("pbk,pk->pb", terms.kappa, phi)   # (P, d_B)
    return rowwise(terms.sigma_pinv, terms.lam + rp.q * rowwise(terms.spec.rho, kap_phi)) / rp.gamma


# ---------------------------------------------------------------------------
# Canonical market embedding
# ---------------------------------------------------------------------------

def canonical_affine_market(M, w, L, Lambda, lambda0, H, rp: RiskParams,
                            h0: float = 0.0):
    """Build a consistent (ModelSpec, AffineSpec) pair for given primitives.

    The embedding uses n = d_W = k+1 stocks with sigma = I, one stock loading
    on each factor's Sharpe component sqrt(Lambda_i y_i) plus one constant
    component sqrt(lambda0), kappa = diag(sqrt(L_i y_i)), and
    rho = sqrt(p) [I_k; 0], so that rho^T rho = p I and the cross term is
    N = diag(Gamma sqrt(p) sqrt(L_i Lambda_i)), c = 0.
    """
    L = np.atleast_1d(np.asarray(L, dtype=float))
    Lambda = np.atleast_1d(np.asarray(Lambda, dtype=float))
    M = np.atleast_2d(np.asarray(M, dtype=float))
    w = np.atleast_1d(np.asarray(w, dtype=float))
    H = np.atleast_1d(np.asarray(H, dtype=float))
    k = L.shape[0]

    root_p = math.sqrt(rp.p)
    N = np.diag(rp.Gamma * root_p * np.sqrt(L * Lambda))
    spec = AffineSpec(M=M, w=w, L=L, Lambda=Lambda, lambda0=float(lambda0),
                      N=N, c=np.zeros(k), H=H, h0=h0)

    d_w = k + 1
    mu_matrix = np.zeros((d_w, k))
    mu_matrix[:k, :] = np.diag(Lambda)
    mu_offset = np.zeros(d_w)
    mu_offset[k] = lambda0
    rho = np.zeros((d_w, k))
    rho[:k, :] = root_p * np.eye(k)

    market = ModelSpec(
        n=d_w, k=k, d_W=d_w, d_B=k, d_Wperp=k,
        mu=SqrtAffineField(mu_matrix, mu_offset),
        sigma=ConstantField(np.eye(d_w)),
        alpha=AffineField(M.T, w),
        kappa=SqrtDiagField(L),
        rho=rho,
        domain=Box(np.zeros(k), np.full(k, np.inf)),
    )
    return market, spec
