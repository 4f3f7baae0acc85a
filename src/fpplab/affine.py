"""Riccati system of non-negative affine factor models and the resulting
exponential-affine performance processes.

With factor drift M^T y + w, squared volatility kappa^T kappa = diag(L_i y_i),
affine squared Sharpe ratio Lambda^T y + lambda0 and affine cross term
N^T y + c, the linear parabolic problem for u(t, y) is solved by the ansatz
u = exp(Phi(t)^T y + Theta(t)) where Phi solves, componentwise,

    Phi_i' + (1/2) L_i Phi_i^2 + sum_j (M+N)_ij Phi_j + (Gamma/2q) Lambda_i = 0

and Theta' + (w+c)^T Phi + (Gamma/2q) lambda0 = 0.  The boundary value
(Phi, Theta) = (H, h0) is anchored at t = 0 for the forward problem and at
the horizon for the backward (fixed terminal utility) problem.  The numeric
route integrates Theta as the (k+1)-th state of the same ODE as Phi, which it
drives linearly.  When M+N is diagonal each
component decouples into a scalar Riccati ODE with the explicit solution

    Phi_i(t) = (z_{+,i} - chi_i z_{-,i} e^{-sqrt(D_i) t})
               / (1 - chi_i e^{-sqrt(D_i) t}),

z_{+/-,i} = (-(M+N)_ii +/- sqrt(D_i)) / L_i being the roots of the stationary
quadratic and D_i = (M+N)_ii^2 - L_i (Gamma/q) Lambda_i its discriminant,
and Theta follows from the exact logarithmic antiderivative of Phi.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.integrate import solve_ivp

from .errors import (ClosedFormInapplicableError, ConfigError,
                     ExponentOverflowError, IntegrationError, RiccatiBlowUpError)
from .model import (AffineField, Box, ConstantField, ModelSpec, RiskParams,
                    SqrtAffineField, SqrtDiagField, _sigma_pinv)

BLOW_UP_THRESHOLD = 1e8
_EXP_LIMIT = 700.0

FORWARD = "forward"
BACKWARD = "backward"


# ---------------------------------------------------------------------------
# Specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AffineSpec:
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

    def is_diagonal(self, tol: float = 1e-12) -> bool:
        mn = self.coupling()
        off = mn - np.diag(np.diag(mn))
        scale = max(1.0, float(np.max(np.abs(mn))))
        return bool(np.max(np.abs(off)) <= tol * scale)

    def h(self, y) -> float:
        return math.exp(float(self.H @ np.asarray(y, dtype=float)) + self.h0)

    def to_json(self) -> dict:
        return {"M": self.M.tolist(), "w": self.w.tolist(), "L": self.L.tolist(),
                "Lambda": self.Lambda.tolist(), "lambda0": self.lambda0,
                "N": self.N.tolist(), "c": self.c.tolist(),
                "H": self.H.tolist(), "h0": self.h0}

    @staticmethod
    def from_json(data: dict) -> "AffineSpec":
        for key in ("M", "w", "L", "Lambda", "lambda0", "N", "c", "H", "h0"):
            if key not in data:
                raise ConfigError(f"affine spec: missing field '{key}'")
        return AffineSpec(M=data["M"], w=data["w"], L=data["L"],
                          Lambda=data["Lambda"], lambda0=float(data["lambda0"]),
                          N=data["N"], c=data["c"], H=data["H"], h0=float(data["h0"]))

    @staticmethod
    def load(path) -> "AffineSpec":
        with open(path) as fh:
            return AffineSpec.from_json(json.load(fh))


@dataclass(frozen=True)
class ClosedFormComponent:
    """Scalar Riccati data for one decoupled component."""

    D: float
    z_plus: float
    z_minus: float
    chi: float


# ---------------------------------------------------------------------------
# Solutions
# ---------------------------------------------------------------------------

class RiccatiSolution:
    """Immutable pair of callables (Phi, Theta) on [0, horizon].

    ``Phi(t)`` accepts a scalar or 1-D array of times and returns shape (k,)
    or (len(t), k); ``Theta(t)`` mirrors that with scalars/1-D arrays.

    ``solver`` holds the ODE solver's nfev, accepted steps, status and message
    for the numeric route, None for the closed form.  ``fallback_reason`` is
    set by ``solve_riccati`` to why the closed form did not apply, else None.
    """

    def __init__(self, spec: AffineSpec, rp: RiskParams, horizon: float,
                 direction: str, method: str,
                 phi_impl: Callable, theta_impl: Callable,
                 components: Optional[Sequence[ClosedFormComponent]] = None,
                 solver: Optional[dict] = None):
        if direction not in (FORWARD, BACKWARD):
            raise ConfigError(f"direction must be '{FORWARD}' or '{BACKWARD}'")
        self.spec = spec
        self.rp = rp
        self.horizon = float(horizon)
        self.direction = direction
        self.method = method
        self.components = tuple(components) if components is not None else None
        self.solver = solver
        self.fallback_reason: Optional[str] = None
        self._phi_impl = phi_impl
        self._theta_impl = theta_impl

    def _check_time(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t < -1e-12) or np.any(t > self.horizon + 1e-12):
            raise ValueError(f"time outside solved horizon [0, {self.horizon}]")
        return np.clip(t, 0.0, self.horizon)

    def Phi(self, t):
        t = self._check_time(t)
        if t.ndim == 0:
            return self._phi_impl(np.array([float(t)]))[0]
        return self._phi_impl(t)

    def Theta(self, t):
        t = self._check_time(t)
        if t.ndim == 0:
            return float(self._theta_impl(np.array([float(t)]))[0])
        return self._theta_impl(t)

    @property
    def anchor_time(self) -> float:
        return 0.0 if self.direction == FORWARD else self.horizon

    def component_table(self) -> list:
        if self.components is None:
            return []
        return [{"component": i, "D": cf.D, "z_plus": cf.z_plus,
                 "z_minus": cf.z_minus, "chi": cf.chi}
                for i, cf in enumerate(self.components)]


def _riccati_rhs(spec: AffineSpec, rp: RiskParams):
    mn = spec.coupling()
    L = spec.L
    lam_term = (rp.Gamma / (2.0 * rp.q)) * spec.Lambda

    def rhs(phi):
        # phi is one state (k,) or a stack of states (m, k).
        return -(0.5 * L * phi * phi + phi @ mn.T + lam_term)

    return rhs


def solve_riccati_numeric(spec: AffineSpec, rp: RiskParams, horizon: float,
                          direction: str = FORWARD) -> RiccatiSolution:
    """Adaptive Runge-Kutta (DOP853, rtol 1e-10) solution of the Riccati
    system.  Theta is carried as the (k+1)-th state of the same solve, so
    Phi and Theta both come from one dense-output evaluation.

    Raises
    ------
    RiccatiBlowUpError
        If any |Phi_i| exceeds 1e8 before the horizon; the earliest blow-up
        time is reported.
    IntegrationError
        If the solver fails without a blow-up event (e.g. the step size
        underflows); the message carries the solver's reason and the time t
        the solve reached.
    """
    if horizon <= 0:
        raise ConfigError("horizon must be positive")
    if direction not in (FORWARD, BACKWARD):
        raise ConfigError(f"direction must be '{FORWARD}' or '{BACKWARD}'")
    rhs = _riccati_rhs(spec, rp)
    k = spec.k
    wc = spec.w + spec.c
    lam0_term = (rp.Gamma / (2.0 * rp.q)) * spec.lambda0
    # Backward runs are integrated in time-to-go s = horizon - t, which flips
    # the sign of the right-hand side.
    sign = 1.0 if direction == FORWARD else -1.0

    def odefun(_, z):
        phi = z[:k]
        return sign * np.append(rhs(phi), -(wc @ phi + lam0_term))

    def blow_up(_, z):
        return float(np.max(np.abs(z[:k]))) - BLOW_UP_THRESHOLD

    blow_up.terminal = True
    blow_up.direction = 1

    sol = solve_ivp(odefun, (0.0, horizon), np.append(spec.H, spec.h0),
                    method="DOP853", rtol=1e-10, atol=1e-12, dense_output=True,
                    events=blow_up)
    if sol.status == 1 and len(sol.t_events[0]):
        s_event = float(sol.t_events[0][0])
        t_event = s_event if direction == FORWARD else horizon - s_event
        raise RiccatiBlowUpError(t_event)
    if not sol.success:
        s_fail = float(sol.t[-1])
        t_fail = s_fail if direction == FORWARD else horizon - s_fail
        raise IntegrationError(
            f"Riccati integration failed at t={t_fail:.6g}: {sol.message}")

    def state(t):
        return sol.sol(t if direction == FORWARD else horizon - t)

    def phi_impl(t):
        return state(t)[:k].T

    def theta_impl(t):
        return state(t)[k]

    solver = {"nfev": int(sol.nfev), "steps": len(sol.t) - 1,
              "status": int(sol.status), "message": sol.message}
    return RiccatiSolution(spec, rp, horizon, direction, "numeric",
                           phi_impl, theta_impl, solver=solver)


def solve_riccati_closed_form(spec: AffineSpec, rp: RiskParams, horizon: float,
                              direction: str = FORWARD) -> RiccatiSolution:
    """Explicit solution for diagonal coupling M+N with positive discriminants.

    chi_i = (z_{+,i} - H_i) / (z_{-,i} - H_i) anchors Phi_i at H_i at time 0;
    the backward run anchors at the horizon, which multiplies chi_i by
    exp(sqrt(D_i) * horizon).  Theta uses the exact logarithmic antiderivative
    of Phi plus the lambda0 term.

    Raises
    ------
    ClosedFormInapplicableError
        Non-diagonal coupling, some D_i <= 0, or H_i exactly equal to z_{-,i}.
    RiccatiBlowUpError
        The explicit solution has a pole inside (0, horizon].
    """
    if horizon <= 0:
        raise ConfigError("horizon must be positive")
    if direction not in (FORWARD, BACKWARD):
        raise ConfigError(f"direction must be '{FORWARD}' or '{BACKWARD}'")
    if not spec.is_diagonal():
        raise ClosedFormInapplicableError("M+N is not diagonal")

    k = spec.k
    mn_diag = np.diag(spec.coupling())
    ratio = rp.Gamma / rp.q
    comps = []
    for i in range(k):
        disc = mn_diag[i] ** 2 - spec.L[i] * ratio * spec.Lambda[i]
        if disc <= 0:
            raise ClosedFormInapplicableError(
                f"component {i}: discriminant {disc:.6g} <= 0")
        sq = math.sqrt(disc)
        z_plus = (-mn_diag[i] + sq) / spec.L[i]
        z_minus = (-mn_diag[i] - sq) / spec.L[i]
        h_i = spec.H[i]
        if z_minus == h_i:
            raise ClosedFormInapplicableError(
                f"component {i}: boundary value equals z_-, chi undefined")
        xi = (z_plus - h_i) / (z_minus - h_i)
        if direction == FORWARD:
            chi = xi
            # Pole of 1 - chi e^{-sqrt(D) t} inside (0, horizon].
            if chi > 1.0 and math.log(chi) <= sq * horizon + 1e-15:
                raise RiccatiBlowUpError(math.log(chi) / sq, component=i)
        else:
            chi = xi * math.exp(min(sq * horizon, _EXP_LIMIT))
            # In time-to-go s the denominator is 1 - xi e^{sqrt(D) s}.
            if 0.0 < xi < 1.0 and -math.log(xi) <= sq * horizon + 1e-15:
                raise RiccatiBlowUpError(horizon + math.log(xi) / sq, component=i)
        comps.append(ClosedFormComponent(D=disc, z_plus=z_plus, z_minus=z_minus, chi=chi))

    sqd = np.array([math.sqrt(cf.D) for cf in comps])
    zp = np.array([cf.z_plus for cf in comps])
    zm = np.array([cf.z_minus for cf in comps])
    h_vec = spec.H
    xi_vec = (zp - h_vec) / (zm - h_vec)

    def phi_impl(t):
        # Evaluated in whichever parametrization keeps exponents negative.
        if direction == FORWARD:
            E = np.exp(-np.outer(t, sqd))                    # (m, k)
            return (zp - xi_vec * zm * E) / (1.0 - xi_vec * E)
        s = horizon - t
        Einv = np.exp(-np.outer(s, sqd))                     # e^{-sqrt(D) s}
        return (zp * Einv - xi_vec * zm) / (Einv - xi_vec)

    lam0_term = (rp.Gamma / (2.0 * rp.q)) * spec.lambda0
    wc = spec.w + spec.c

    def log_denom_forward(t):
        # log |1 - xi e^{-sqrt(D) t}| for a column of times t.
        return np.log(np.abs(1.0 - xi_vec * np.exp(-np.outer(t, sqd))))

    def log_denom_backward(s):
        # log |1 - xi e^{sqrt(D) s}| = sqrt(D) s + log |e^{-sqrt(D) s} - xi|.
        return np.outer(s, sqd) + np.log(np.abs(np.exp(-np.outer(s, sqd)) - xi_vec))

    def theta_impl(t):
        if direction == FORWARD:
            # int_0^t Phi_i = z_+ t + (2/L)(log|1-xi e^{-sqrt(D)t}| - log|1-xi|)
            log_term = log_denom_forward(t) - np.log(np.abs(1.0 - xi_vec))
            integral = np.outer(t, zp) + (2.0 / spec.L) * log_term
            return spec.h0 - lam0_term * t - integral @ wc
        s = horizon - t
        log_term = log_denom_backward(s) - np.log(np.abs(1.0 - xi_vec))
        integral = np.outer(s, zp) - (2.0 / spec.L) * log_term
        return spec.h0 + lam0_term * s + integral @ wc

    return RiccatiSolution(spec, rp, horizon, direction, "closed-form",
                           phi_impl, theta_impl, components=comps)


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


def riccati_residual(sol: RiccatiSolution, times=None, fd_step: float = 1e-6):
    """Max residuals of the Phi system and the Theta equation at sampled times.

    Derivatives are taken by central differences, independent of how the
    solution was produced.  Returns (max_phi_residual, max_theta_residual).
    """
    spec, rp = sol.spec, sol.rp
    if times is None:
        times = np.linspace(0.0, sol.horizon, 100)
    t = np.atleast_1d(np.asarray(times, dtype=float))
    h = fd_step
    rhs = _riccati_rhs(spec, rp)
    lam0_term = (rp.Gamma / (2.0 * rp.q)) * spec.lambda0
    wc = spec.w + spec.c

    # Stencil rows: central inside, second-order one-sided forward and
    # backward at the ends.  Each time gets three nodes t + h * offset.
    offsets = np.array([[-1.0, 1.0, 0.0], [0.0, 1.0, 2.0], [0.0, -1.0, -2.0]])
    weights = np.array([[-1.0, 1.0, 0.0], [-3.0, 4.0, -1.0], [3.0, -4.0, 1.0]])
    row = np.where((t - h >= 0.0) & (t + h <= sol.horizon), 0,
                   np.where(t + 2 * h <= sol.horizon, 1, 2))
    nodes = t[:, None] + h * offsets[row]
    weights = weights[row]

    dphi = dth = 0.0
    for j in range(3):
        dphi = dphi + weights[:, j, None] * sol.Phi(nodes[:, j])
        dth = dth + weights[:, j] * sol.Theta(nodes[:, j])
    dphi, dth = dphi / (2.0 * h), dth / (2.0 * h)

    phi_t = sol.Phi(t)
    res_phi = np.abs(dphi - rhs(phi_t))
    res_theta = np.abs(dth + phi_t @ wc + lam0_term)
    return float(np.max(res_phi)), float(np.max(res_theta))


# ---------------------------------------------------------------------------
# Evaluations
# ---------------------------------------------------------------------------

def evaluate_u_affine(sol: RiccatiSolution, t: float, y) -> float | np.ndarray:
    """u(t, y) = exp(Phi(t)^T y + Theta(t)), positive by construction.

    ``y`` may be a single point (k,) or a stack (P, k).

    Raises
    ------
    ExponentOverflowError
        If the exponent exceeds 700 (double-precision overflow).
    """
    y = np.asarray(y, dtype=float)
    expo = y @ sol.Phi(t) + sol.Theta(t)
    if np.any(np.asarray(expo) > _EXP_LIMIT):
        raise ExponentOverflowError(f"exponent {np.max(expo):.6g} exceeds {_EXP_LIMIT:g}")
    return np.exp(expo) if y.ndim > 1 else float(np.exp(expo))


def power_utility_prefactor(rp: RiskParams, x) -> np.ndarray:
    """gamma^gamma x^{1-gamma} / (1-gamma) for wealth x > 0."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError("wealth must be positive")
    g = rp.gamma
    return g ** g * x ** (1.0 - g) / (1.0 - g)


def evaluate_fpp(sol: RiccatiSolution, rp: RiskParams, t: float, x, y):
    """Performance value gamma^gamma x^{1-gamma}/(1-gamma) * u(t, y)^q."""
    u = evaluate_u_affine(sol, t, y)
    out = power_utility_prefactor(rp, x) * np.asarray(u) ** rp.q
    return float(out) if np.ndim(out) == 0 else out


def fpp_evaluator(sol: RiccatiSolution, rp: RiskParams) -> Callable:
    """Vectorized (t, x, y) -> U callable for Monte Carlo diagnostics."""

    def evaluate(t, x, y):
        return evaluate_fpp(sol, rp, t, x, y)

    return evaluate


def optimal_portfolio_affine(sol: RiccatiSolution, model_spec: ModelSpec,
                             rp: RiskParams, t: float, y) -> np.ndarray:
    """Optimal allocation pi* = (1/gamma) [(sigma^T sigma)^{-1} mu
    + q varsigma kappa Phi(t)] with sigma varsigma = rho (minimum norm).

    The gradient ratio grad_y u / u of the exponential-affine u equals Phi(t),
    so the hedging demand is state-independent given t.  ``y`` may be one
    point (k,) or a stack (P, k); the result has shape (n,) or (P, n).

    Raises
    ------
    SingularModelError
        If sigma(y) has rank below n at some point.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    Y = np.atleast_2d(y)
    sig, pinv_sig = _sigma_pinv(model_spec, Y)
    mu = model_spec.mu.batch(Y)                                            # (P, n)
    kap_phi = np.einsum("pbk,k->pb", model_spec.kappa.batch(Y), sol.Phi(t))  # (P, d_B)
    varsigma = pinv_sig @ model_spec.rho
    if sig.ndim == 2:
        # Constant sigma: the normal matrix is inverted once for all points.
        myopic = mu @ np.linalg.inv(sig.T @ sig).T
        hedge = kap_phi @ varsigma.T
    else:
        normal = np.swapaxes(sig, 1, 2) @ sig                              # (P, n, n)
        myopic = np.linalg.solve(normal, mu[:, :, None])[:, :, 0]
        hedge = np.einsum("pnb,pb->pn", varsigma, kap_phi)
    pi = (myopic + rp.q * hedge) / rp.gamma
    return pi[0] if y.ndim == 1 else pi


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
