"""Certification of candidate performance processes and value functions.

Three instruments:

* finite-difference residuals of the fully non-linear wealth-factor PDE
  for a candidate V(t, x, y), of the linear equation for u(t, y), and of the
  distorted non-linear equation for g = u^q;
* Monte Carlo martingale diagnostics of U_t(X_t) along simulated paths
  (statistical verdicts, never proofs);
* the algebraic optimality identity relating sigma pi to the Sharpe ratio and
  the hedging gradient.

Finite differences use central stencils (2nd order by default, 4th order
available for smooth closed forms) with a configurable absolute step.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (ConcavityViolationError, ConfigError,
                     InsufficientSampleError, PositivityError)
from .model import (Fields, GeneratorCoefficients, ModelSpec, RiskParams, instants, integer,
                    market_terms, reals, require_shape, rowwise, states)
from .sim import PathBundle, pair_se


# ---------------------------------------------------------------------------
# Finite-difference stencils
# ---------------------------------------------------------------------------

# Central stencils as (offsets, integer weights, divisor):
# sum_j w_j f(c + o_j h) / (divisor h^n), summed in stencil order.  First and
# second derivatives along one axis by order; mixed partials use the
# second-order cross (an offset in each of two axes), which is never the
# accuracy bottleneck of the residuals below.
_D1 = {2: ((1, -1), (1, -1), 2), 4: ((2, 1, -1, -2), (-1, 8, -8, 1), 12)}
_D2 = {2: ((1, 0, -1), (1, -2, 1), 1), 4: ((2, 1, 0, -1, -2), (-1, 16, -30, 16, -1), 12)}
_CROSS = (((1, 1), (1, -1), (-1, 1), (-1, -1)), (1, -1, -1, 1), 4)


def _values(fn, n, *args):
    """fn(*args) as n floats; a scalar result is broadcast."""
    return np.broadcast_to(np.asarray(fn(*args), dtype=float), (n,))


def _fd_grid(f, T, Z, scale, fd_step, order, it, point):
    """[df/dt, f, grad f, Hess f] of f(t, z) on the rows (T[it], Z[point])
    for points Z (P, d) with spatial steps fd_step * scale (P, d).  Each time
    costs one call of f on the stacked (P * nodes, d) stencil nodes of every
    point and one call on Z per time offset."""
    if order not in _D1:
        raise ConfigError(f"stencil order must be 2 or 4, got {order}")
    H = reals(fd_step, "finite-difference step fd_step", scalar=True, positive=True) * scale
    P, d = Z.shape
    E = np.eye(d, dtype=int)
    columns = {(0,) * d: 0}                  # node displacement in steps -> column of F

    def place(stencil, *axes):
        offsets, weights, divisor = stencil
        return weights, divisor, [columns.setdefault(tuple(np.ravel(o) @ E[list(axes)]),
                                                     len(columns)) for o in offsets]

    first = [place(_D1[order], a) for a in range(d)]
    second = {(a, b): place(_D2[order], a) if a == b else place(_CROSS, a, b)
              for a in range(d) for b in range(a, d)}
    disp = np.array(list(columns), dtype=float)                   # (nodes, d)
    stack = (Z[:, None, :] + disp * H[:, None, :]).reshape(-1, d)
    offsets, weights, divisor = _D1[order]
    rows = []
    for t in T:
        F = _values(f, len(stack), t, stack).reshape(P, len(disp))
        dt = sum(w * _values(f, P, t + o * fd_step, Z)
                 for o, w in zip(offsets, weights)) / (divisor * fd_step)
        grad = np.stack([sum(w * F[:, c] for w, c in zip(ws, cols)) / (div * H[:, a])
                         for a, (ws, div, cols) in enumerate(first)], axis=1)
        hess = np.empty((P, d, d))
        for (a, b), (ws, div, cols) in second.items():
            hess[:, a, b] = hess[:, b, a] = (sum(w * F[:, c] for w, c in zip(ws, cols))
                                             / (div * H[:, a] * H[:, b]))
        rows.append((dt, F[:, 0], grad, hess))
    return [np.array(v)[it, point] for v in zip(*rows)]


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResidualReport(Fields):
    """Residual summary over a grid.

    ``table`` has one row per grid point: coordinates then the signed
    residual; it stays out of the JSON form, whose keys are ``params``.
    """

    params = ("description", "max_abs_residual", "mean_abs_residual", "fd_step",
              "stencil_order", "n_points")

    description: str
    max_abs_residual: float
    mean_abs_residual: float
    fd_step: float
    stencil_order: int
    n_points: int
    table: Optional[np.ndarray] = None


@dataclass(frozen=True)
class DistortionReport(Fields):
    nonlinear: ResidualReport   # distorted equation for g = u^q
    linear: ResidualReport      # linear equation for u


def _report(description, res, coords, fd_step, order):
    """Summary of the residuals ``res`` at the grid rows ``coords``."""
    return ResidualReport(description=description,
                          max_abs_residual=float(np.max(np.abs(res))),
                          mean_abs_residual=float(np.mean(np.abs(res))),
                          fd_step=fd_step, stencil_order=order, n_points=len(res),
                          table=np.column_stack([coords, res]))


@dataclass(frozen=True)
class BucketStat(Fields):
    t_start: float
    t_end: float
    mean: float
    std_error: float
    z: float
    excess_kurtosis: float


@dataclass(frozen=True)
class MartingaleReport(Fields):
    """Per-bucket mean increments of U_t(X_t) with 3-standard-error verdicts.

    ``martingale_consistent``: every bucket mean within 3 SE of zero.
    ``supermartingale_consistent``: every bucket mean <= +3 SE.
    Heavy tails (excess kurtosis > 1e3 in any bucket) flag that the
    statistical verdict may be unreliable; verdicts are evidence, not proofs.
    """

    buckets: tuple
    n_paths: int
    martingale_consistent: bool
    supermartingale_consistent: bool
    heavy_tails: bool

    @property
    def verdict(self) -> str:
        if self.martingale_consistent:
            return "martingale-consistent"
        if self.supermartingale_consistent:
            return "supermartingale-consistent"
        return "inconsistent"

    def to_json(self):
        return {**super().to_json(), "verdict": self.verdict}


# ---------------------------------------------------------------------------
# HJB residual
# ---------------------------------------------------------------------------

def hjb_residual(V: Callable, model: ModelSpec, rp: RiskParams,
                 t_vals, x_vals, y_points, fd_step: float = 1e-3,
                 order: int = 2) -> ResidualReport:
    """Residual of the candidate value function in the wealth-factor PDE

        dV/dt + G_y V - |lam dV/dx + rho kappa d(grad_y V)/dx|^2 / (2 d2V/dx2)

    where G_y is the factor generator (1/2) tr(kappa^T kappa Hess_y) +
    alpha . grad_y.  ``rp`` is accepted for interface uniformity; the
    equation itself does not involve the risk parameters.

    ``V(t, x, y)`` gets a scalar t, x of shape (P,) and y of shape (P, k) and
    returns shape (P,); a scalar return value is broadcast.  Each time costs
    3 calls of V at order 2, 5 at order 4.  The x step is fd_step max(|x|, 1).
    Table rows (t, x, *y, residual) run y outer, then t, then x.

    Raises
    ------
    ConcavityViolationError
        At the first grid point, in table order, with d2V/dx2 >= 0.
    """
    Y, _ = states(y_points, model.k, "y_points")
    T = np.atleast_1d(instants(t_vals, "t_vals"))
    X = np.atleast_1d(reals(x_vals, "x_vals"))
    # Spatial points z = (x, y), y outer and x inner; the x step scales with |x|.
    Z = np.column_stack([np.tile(X, len(Y)), np.repeat(Y, len(X), axis=0)])
    scale = np.ones(Z.shape)
    scale[:, 0] = np.maximum(np.abs(Z[:, 0]), 1.0)
    iy, it, ix = np.indices((len(Y), len(T), len(X))).reshape(3, -1)
    dVdt, _, grad, hess = _fd_grid(lambda t, z: V(t, z[:, 0], z[:, 1:]), T, Z, scale,
                                   fd_step, order, it, iy * len(X) + ix)
    d2Vdx2 = hess[:, 0, 0]
    bad = d2Vdx2 >= 0
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ConcavityViolationError(f"d2V/dx2 = {d2Vdx2[i]:.6g} >= 0 at "
                                      f"(t={T[it[i]]}, x={X[ix[i]]}, y={Y[iy[i]]})")

    terms = market_terms(model, Y)
    kap = terms.kappa                                              # (Ny, d_B, k)
    a_y, rho_kap = np.einsum("pbi,pbj->pij", kap, kap)[iy], (model.rho @ kap)[iy]
    alpha_y, lam = terms.alpha[iy], terms.lam[iy]
    gen_term = 0.5 * np.einsum("rij,rij->r", a_y, hess[:, 1:, 1:]) \
        + np.einsum("ri,ri->r", alpha_y, grad[:, 1:])
    vec = lam * grad[:, :1] + np.einsum("rwk,rk->rw", rho_kap, hess[:, 0, 1:])
    res = dVdt + gen_term - 0.5 * np.einsum("rw,rw->r", vec, vec) / d2Vdx2
    return _report("wealth-factor PDE residual", res, np.column_stack([T[it], X[ix], Y[iy]]),
                   fd_step, order)


# ---------------------------------------------------------------------------
# Distortion round trip
# ---------------------------------------------------------------------------

def distortion_roundtrip(u: Callable, rp: RiskParams, gen: GeneratorCoefficients,
                         t_vals, y_points, fd_step: float = 1e-3,
                         order: int = 2) -> DistortionReport:
    """Residuals of the linear equation for u and the distorted non-linear
    equation for g = u^q:

        du/dt + (1/2) tr(a Hess u) + b . grad u + P u                (linear)
        dg/dt + (1/2) tr(a Hess g) + b . grad g + q P g
              + (Gamma p / 2) (grad g . a grad g) / g                (non-linear)

    The correlation structure enters only through the scalar p.  ``u(t, Y)``
    gets a scalar t and stacked states Y (P, k) and returns shape (P,).  If
    ``u`` has ``derivatives(t, Y) -> (du/dt (P,), u (P,), grad_y u (P, k),
    Hess_y u (P, k, k))``, those exact derivatives are used, one call per
    time, and ``fd_step`` is ignored (reported as 0).  Otherwise central
    differences apply, a scalar return value of u being broadcast, 3 calls
    per time at order 2, 5 at order 4.  Table rows (t, *y, residual) run y
    outer, then t.

    Raises
    ------
    PositivityError
        At the first grid point, in table order, with u <= 0.
    """
    q, Gamma, p = rp.q, rp.Gamma, rp.p
    exact = hasattr(u, "derivatives")
    Y, _ = states(y_points, gen.k, "y_points", "generator")
    T = np.atleast_1d(instants(t_vals, "t_vals"))
    iy, it = np.indices((len(Y), len(T))).reshape(2, -1)

    if exact:
        rows = [u.derivatives(t, Y) for t in T]
        u_t, u0, grad_u, hess_u = [np.array(v)[it, iy] for v in zip(*rows)]
    else:
        u_t, u0, grad_u, hess_u = _fd_grid(u, T, Y, np.ones(Y.shape), fd_step, order, it, iy)
    bad = u0 <= 0
    if np.any(bad):
        i = int(np.argmax(bad))
        raise PositivityError(f"u(t={T[it[i]]}, y={Y[iy[i]]}) = {u0[i]:.6g} <= 0")

    a_y, b_y, P_y = (v[iy] for v in gen.coefficients(Y)[:3])
    res_l = u_t + 0.5 * np.einsum("rij,rij->r", a_y, hess_u) \
        + np.einsum("ri,ri->r", b_y, grad_u) + P_y * u0

    # Chain rule for g = u^q keeps both residuals on the same grid.
    g0, slope, curv = u0 ** q, q * u0 ** (q - 1.0), q * (q - 1.0) * u0 ** (q - 2.0)
    dg_dt, grad_g = slope * u_t, slope[:, None] * grad_u
    hess_g = slope[:, None, None] * hess_u \
        + curv[:, None, None] * np.einsum("ri,rj->rij", grad_u, grad_u)
    res_nl = dg_dt + 0.5 * np.einsum("rij,rij->r", a_y, hess_g) \
        + np.einsum("ri,ri->r", b_y, grad_g) + q * P_y * g0 \
        + 0.5 * Gamma * p * np.einsum("ri,rij,rj->r", grad_g, a_y, grad_g) / g0

    step_used = 0.0 if exact else fd_step
    coords = np.column_stack([T[it], Y[iy]])
    return DistortionReport(
        nonlinear=_report("distorted non-linear PDE residual (g = u^q)", res_nl, coords,
                          step_used, order),
        linear=_report("linear PDE residual (u)", res_l, coords, step_used, order))


# ---------------------------------------------------------------------------
# Martingale diagnostics
# ---------------------------------------------------------------------------

_SE_MULTIPLE = 3.0
_KURTOSIS_LIMIT = 1e3


def _excess_kurtosis(x) -> float:
    """m4 / m2^2 - 3 with central sample moments (the biased Fisher form)."""
    d = x - np.mean(x)
    d2 = d * d      # d ** 4 would go through libm pow, about 50 times slower
    m2 = np.mean(d2)
    return float(np.mean(d2 * d2) / (m2 * m2) - 3.0)


def martingale_test(bundle: PathBundle, fpp_eval: Callable,
                    n_buckets: int = 10) -> MartingaleReport:
    """Bucketed mean increments of U_t(X_t, Y_t) along the recorded grid.

    Within each time bucket the per-path increment telescopes to
    U(bucket end) - U(bucket start), so ``fpp_eval`` is called only at the
    n_buckets + 1 bucket edges, not at every recorded time.  The bucket mean
    is over all paths.
    Paths 2j and 2j + 1 are an antithetic pair (their noise is negated), so
    the paths are not independent but the pairs are: the bucket standard
    error is ``sim.pair_se``, std(pair means) / sqrt(n_paths // 2), and with
    an odd path count the last path counts only in the mean.

    Raises
    ------
    InsufficientSampleError
        With fewer than 100 paths a 3 SE verdict is meaningless.
    ConfigError
        With fewer than one bucket, or too few recorded grid points for them.
    """
    n_buckets = integer(n_buckets, "n_buckets", least=1)
    P, m = bundle.X.shape
    if P < 100:
        raise InsufficientSampleError(f"need >= 100 paths, got {P}")
    if m < n_buckets + 1:
        raise ConfigError(f"need at least {n_buckets + 1} recorded grid points")

    edges = np.unique(np.round(np.linspace(0, m - 1, n_buckets + 1)).astype(int))
    U = np.empty((P, edges.size))
    for c, j in enumerate(edges):
        U[:, c] = fpp_eval(float(bundle.times[j]), bundle.X[:, j], bundle.Y[:, j])

    buckets = []
    mart = supermart = True
    heavy = False
    for c, (b0, b1) in enumerate(zip(edges[:-1], edges[1:])):
        inc = U[:, c + 1] - U[:, c]
        mean = float(np.mean(inc))
        se = float(pair_se(inc))
        z = mean / se if se > 0 else 0.0
        kurt = _excess_kurtosis(inc) if se > 0 else 0.0
        heavy = heavy or kurt > _KURTOSIS_LIMIT
        mart &= abs(mean) <= _SE_MULTIPLE * se
        supermart &= mean <= _SE_MULTIPLE * se
        buckets.append(BucketStat(t_start=float(bundle.times[b0]),
                                  t_end=float(bundle.times[b1]),
                                  mean=mean, std_error=se, z=z,
                                  excess_kurtosis=kurt))
    return MartingaleReport(buckets=tuple(buckets), n_paths=P,
                            martingale_consistent=mart,
                            supermartingale_consistent=supermart,
                            heavy_tails=heavy)


# ---------------------------------------------------------------------------
# Optimal-portfolio identity
# ---------------------------------------------------------------------------

def optimal_portfolio_residual(model: ModelSpec, rp: RiskParams, u, t: float, y,
                               pi) -> float:
    """Largest row norm of sigma(y) pi - (lambda + q rho kappa grad_y u / u) / gamma
    for the FPP u at one state y (k,) with pi (n,), or at a stack (P, k) with
    (P, n), from one evaluation of the market and of ``u.log_gradient``.

    The target is re-derived here on purpose, not taken from
    ``affine.optimal_portfolio_from_terms``: an identity check that called the
    code building pi* would certify that code against itself."""
    Y, one = states(y, model.k)
    terms = market_terms(model, Y)
    phi = u.log_gradient(instants(t, scalar=True), Y)
    require_shape(phi, (len(Y), model.k), "grad_y u / u")
    hedge = np.einsum("pbk,pk->pb", terms.kappa, phi) @ model.rho.T
    target = (terms.lam + rp.q * hedge) / rp.gamma
    pi = np.asarray(reals(pi, "pi"))
    if pi.shape != ((model.n,) if one else (len(Y), model.n)):
        raise ConfigError(f"pi has shape {pi.shape}; y has shape {np.shape(y)} and the "
                          f"model n={model.n}")
    return float(np.max(np.linalg.norm(rowwise(terms.sigma, np.atleast_2d(pi)) - target, axis=1)))


# The name the benchmark builds the residual's u by.
def affine_u_value_grad(sol):
    return sol
