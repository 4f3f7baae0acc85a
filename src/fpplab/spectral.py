"""Atomic spectral measures, positive eigenfunctions, and Laplace inversion.

A positive solution of the ill-posed problem  du/dt + L u = 0  is represented
as a finite mixture

    u(t, y) = sum_i w_i exp(-zeta_i t) psi_i(y),

where each psi_i is a positive eigenfunction, (L - zeta_i) psi_i = 0, with
the normalization psi_i(y0) = 1.  Restricting the measure to finitely many
atoms keeps recovery well-posed at desk scale: sampling u(., y0) on a short
uniform grid determines the atoms by exponential-sum fitting (Prony linear
prediction plus Levenberg-Marquardt refinement), and sampling u(., y) at
other states recovers the eigenfunction values by non-negative least squares
against the fixed exponents.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq, least_squares, nnls

from .errors import (ConditioningError, ConfigError, InconsistentDataError,
                     IntegrationError, NonRepresentableError, PositivityError)
from .model import GeneratorCoefficients, RiskParams

_RANK_CUTOFF = 1e-12
_COND_LIMIT = 1e12


# ---------------------------------------------------------------------------
# Spectral measure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralMeasure:
    """Finite atomic measure {(zeta_i, w_i)} with normalization point y0.

    Atoms are kept sorted with strictly increasing zeta and positive weights.
    """

    zetas: np.ndarray
    weights: np.ndarray
    y0: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "zetas", np.atleast_1d(np.asarray(self.zetas, dtype=float)))
        object.__setattr__(self, "weights", np.atleast_1d(np.asarray(self.weights, dtype=float)))
        object.__setattr__(self, "y0", np.atleast_1d(np.asarray(self.y0, dtype=float)))
        if self.zetas.shape != self.weights.shape:
            raise ConfigError("zetas and weights must have equal length")
        if np.any(np.diff(self.zetas) <= 0):
            raise ConfigError("atoms must be sorted with strictly increasing zeta")
        if np.any(self.weights <= 0):
            raise ConfigError("atom weights must be positive")
        if not np.all(np.isfinite(self.weights)) or not np.all(np.isfinite(self.zetas)):
            raise ConfigError("atoms must be finite")

    @property
    def m(self) -> int:
        return self.zetas.shape[0]

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.weights))

    def scaled(self, factor: float) -> "SpectralMeasure":
        return SpectralMeasure(self.zetas, factor * self.weights, self.y0)

    def laplace(self, t) -> np.ndarray:
        """sum_i w_i exp(-zeta_i t) for scalar or array t."""
        t = np.asarray(t, dtype=float)
        return np.exp(-np.multiply.outer(t, self.zetas)) @ self.weights

    def to_json(self):
        return {"y0": self.y0.tolist(),
                "atoms": [{"zeta": float(z), "weight": float(w)}
                          for z, w in zip(self.zetas, self.weights)]}

    @staticmethod
    def from_json(data):
        atoms = sorted(data["atoms"], key=lambda a: a["zeta"])
        return SpectralMeasure(zetas=[a["zeta"] for a in atoms],
                               weights=[a["weight"] for a in atoms],
                               y0=data["y0"])


# ---------------------------------------------------------------------------
# Eigenfunctions
# ---------------------------------------------------------------------------

class ExpEigenfunction:
    """psi(y) = exp(v^T (y - y0)); exact derivatives of all orders."""

    kind = "exp"

    def __init__(self, v, y0):
        self.v = np.atleast_1d(np.asarray(v, dtype=float))
        self.y0 = np.atleast_1d(np.asarray(y0, dtype=float))

    def __call__(self, y):
        return float(np.exp(self.v @ (np.asarray(y, dtype=float) - self.y0)))

    def value_grad_hess(self, y):
        val = self(y)
        return val, self.v * val, np.outer(self.v, self.v) * val

    def to_json(self):
        return {"kind": self.kind, "v": self.v.tolist()}


class ExpMixEigenfunction:
    """One-factor mixture psi(y) = w+ e^{r+ d} + (1 - w+) e^{r- d}, d = y - y0.

    Covers both extreme exponential eigenfunctions of a constant-coefficient
    one-factor operator and any convex combination (e.g. cosh for w+ = 1/2).
    """

    kind = "expmix"

    def __init__(self, weight_plus, rate_plus, rate_minus, y0):
        self.weight_plus = float(weight_plus)
        self.rate_plus = float(rate_plus)
        self.rate_minus = float(rate_minus)
        self.y0 = np.atleast_1d(np.asarray(y0, dtype=float))

    def _terms(self, d):
        return (self.weight_plus * np.exp(self.rate_plus * d),
                (1.0 - self.weight_plus) * np.exp(self.rate_minus * d))

    def __call__(self, y):
        d = float(np.atleast_1d(np.asarray(y, dtype=float))[0] - self.y0[0])
        a, b = self._terms(d)
        return float(a + b)

    def value_grad_hess(self, y):
        d = float(np.atleast_1d(np.asarray(y, dtype=float))[0] - self.y0[0])
        a, b = self._terms(d)
        val = a + b
        grad = np.array([self.rate_plus * a + self.rate_minus * b])
        hess = np.array([[self.rate_plus ** 2 * a + self.rate_minus ** 2 * b]])
        return val, grad, hess

    def to_json(self):
        return {"kind": self.kind, "weight_plus": self.weight_plus,
                "rate_plus": self.rate_plus, "rate_minus": self.rate_minus}


class OdeEigenfunction:
    """One-factor eigenfunction integrated from (psi(y0), psi'(y0)) = (1, s).

    Values and first derivatives come from the dense ODE solution; second
    derivatives by a central difference of the dense first derivative, so the
    defect (L - zeta) psi stays an honest diagnostic.
    """

    kind = "ode"

    def __init__(self, zeta, y0, slope, grid, values, dense_left, dense_right,
                 first_sign_change=None):
        self.zeta = float(zeta)
        self.y0 = np.atleast_1d(np.asarray(y0, dtype=float))
        self.slope = float(slope)
        self.grid = np.asarray(grid, dtype=float)
        self.values = np.asarray(values, dtype=float)
        self._dense_left = dense_left
        self._dense_right = dense_right
        self.first_sign_change = first_sign_change

    @property
    def positive_on_grid(self) -> bool:
        return self.first_sign_change is None

    def _state(self, y):
        y = float(np.atleast_1d(np.asarray(y, dtype=float))[0])
        y0 = float(self.y0[0])
        if y >= y0:
            if self._dense_right is None:
                raise ValueError("point beyond integrated range")
            return self._dense_right(min(y, self.grid[-1]))
        if self._dense_left is None:
            raise ValueError("point beyond integrated range")
        return self._dense_left(max(y, self.grid[0]))

    def __call__(self, y):
        return float(self._state(y)[0])

    def derivative(self, y):
        return float(self._state(y)[1])

    def value_grad_hess(self, y, fd_step: float = 1e-6):
        val, grad = self._state(y)
        y = float(np.atleast_1d(y)[0])
        lo = max(y - fd_step, self.grid[0])
        hi = min(y + fd_step, self.grid[-1])
        hess = (self._state(hi)[1] - self._state(lo)[1]) / (hi - lo)
        return val, np.array([grad]), np.array([[hess]])

    def tabulated(self):
        return self.grid.copy(), self.values.copy()


class TabulatedEigenfunction:
    """Eigenfunction known only at finitely many states (recovered data)."""

    kind = "tabulated"

    def __init__(self, points, values, y0, match_tol: float = 1e-9):
        self.points = np.atleast_2d(np.asarray(points, dtype=float))
        self.values = np.atleast_1d(np.asarray(values, dtype=float))
        self.y0 = np.atleast_1d(np.asarray(y0, dtype=float))
        self.match_tol = match_tol
        if self.points.shape[0] != self.values.shape[0]:
            raise ConfigError("points and values must align")

    def _index(self, y):
        y = np.atleast_1d(np.asarray(y, dtype=float))
        dist = np.max(np.abs(self.points - y), axis=1)
        idx = int(np.argmin(dist))
        if dist[idx] > self.match_tol:
            raise ValueError(f"state {y} not among tabulated points")
        return idx

    def __call__(self, y):
        return float(self.values[self._index(y)])

    def to_json(self):
        return {"kind": self.kind, "points": self.points.tolist(),
                "values": self.values.tolist()}


@dataclass(frozen=True)
class EigenfunctionSelection:
    """One positive eigenfunction per atom, all normalized at y0."""

    functions: tuple
    y0: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "y0", np.atleast_1d(np.asarray(self.y0, dtype=float)))
        object.__setattr__(self, "functions", tuple(self.functions))

    @property
    def m(self) -> int:
        return len(self.functions)

    def psi(self, i: int, y) -> float:
        return self.functions[i](y)

    def values(self, y) -> np.ndarray:
        return np.array([f(y) for f in self.functions])

    def normalization_residual(self) -> float:
        out = 0.0
        for f in self.functions:
            try:
                out = max(out, abs(f(self.y0) - 1.0))
            except ValueError:
                continue
        return out

    def defect(self, gen: GeneratorCoefficients, zetas, grid) -> float:
        """max over atoms and grid points of |(L - zeta_i) psi_i|.

        Requires derivative-capable eigenfunctions (exp, expmix, ode).
        """
        zetas = np.atleast_1d(np.asarray(zetas, dtype=float))
        worst = 0.0
        for f, zeta in zip(self.functions, zetas):
            for y in np.atleast_2d(grid):
                val, grad, hess = f.value_grad_hess(y)
                a = np.atleast_2d(gen.a(y))
                b = np.atleast_1d(gen.b(y))
                res = 0.5 * float(np.sum(a * hess)) + float(b @ grad) \
                    + (gen.P(y) - zeta) * val
                worst = max(worst, abs(res))
        return worst

    def to_json(self):
        return {"y0": self.y0.tolist(),
                "functions": [f.to_json() for f in self.functions]}

    @staticmethod
    def from_json(data):
        funcs = []
        y0 = np.asarray(data["y0"], dtype=float)
        for fd in data["functions"]:
            kind = fd.get("kind")
            if kind == "exp":
                funcs.append(ExpEigenfunction(fd["v"], y0))
            elif kind == "expmix":
                funcs.append(ExpMixEigenfunction(fd["weight_plus"], fd["rate_plus"],
                                                 fd["rate_minus"], y0))
            elif kind == "tabulated":
                funcs.append(TabulatedEigenfunction(fd["points"], fd["values"], y0))
            else:
                raise ConfigError(f"unknown eigenfunction kind '{kind}'")
        return EigenfunctionSelection(tuple(funcs), y0)


# ---------------------------------------------------------------------------
# Mixture evaluation
# ---------------------------------------------------------------------------

def fpp_from_measure(nu: SpectralMeasure, sel: EigenfunctionSelection,
                     rp: RiskParams, t: float, x, y):
    """gamma^gamma x^{1-gamma}/(1-gamma) * u(t, y)^q with u the mixture."""
    from .affine import power_utility_prefactor

    u = WidderFunction(nu, sel)(t, y)
    out = power_utility_prefactor(rp, x) * u ** rp.q
    return float(out) if np.ndim(out) == 0 else out


class WidderFunction:
    """u(t, y) = sum_i w_i exp(-zeta_i t) psi_i(y) for t >= 0, with analytic
    derivatives delegated to the eigenfunctions."""

    def __init__(self, nu: SpectralMeasure, sel: EigenfunctionSelection):
        if sel.m != nu.m:
            raise ConfigError("selection size does not match measure")
        self.nu = nu
        self.sel = sel

    def _coeff(self, t):
        return self.nu.weights * np.exp(-self.nu.zetas * t)

    def __call__(self, t, y):
        if t < 0:
            raise ValueError("t must be >= 0")
        return float(self._coeff(t) @ self.sel.values(y))

    def du_dt(self, t, y):
        return float(-(self.nu.zetas * self._coeff(t)) @ self.sel.values(y))

    def grad_y(self, t, y):
        coeff = self._coeff(t)
        return sum(c * f.value_grad_hess(y)[1] for c, f in zip(coeff, self.sel.functions))

    def hess_y(self, t, y):
        coeff = self._coeff(t)
        return sum(c * f.value_grad_hess(y)[2] for c, f in zip(coeff, self.sel.functions))


# ---------------------------------------------------------------------------
# One-factor eigenfunction ODE
# ---------------------------------------------------------------------------

def solve_eigenfunction_1d(gen: GeneratorCoefficients, zeta: float, y0: float,
                           slope_s: float, grid) -> OdeEigenfunction:
    """Integrate (1/2) a psi'' + b psi' + (P - zeta) psi = 0 from
    psi(y0) = 1, psi'(y0) = slope_s across the grid (both directions).

    Positivity is checked on the grid only; the first sign change, if any, is
    recorded on the returned object (location by linear interpolation).
    """
    if gen.k != 1:
        raise ConfigError("one-factor routine requires k = 1")
    grid = np.sort(np.asarray(grid, dtype=float))
    y0 = float(np.atleast_1d(y0)[0])
    if not (grid[0] <= y0 <= grid[-1]):
        raise ConfigError("y0 must lie inside the grid span")

    def scal_a(y):
        return float(np.atleast_2d(gen.a(np.array([y])))[0, 0])

    def scal_b(y):
        return float(np.atleast_1d(gen.b(np.array([y])))[0])

    def scal_P(y):
        return float(gen.P(np.array([y])))

    a_on_grid = np.array([scal_a(y) for y in grid])
    if np.any(a_on_grid <= 0):
        raise ConfigError("a(y) must be positive on the grid")

    def odefun(y, state):
        psi, dpsi = state
        a = scal_a(y)
        return [dpsi, -2.0 / a * (scal_b(y) * dpsi + (scal_P(y) - zeta) * psi)]

    start = [1.0, float(slope_s)]
    dense_left = dense_right = None
    if grid[-1] > y0:
        sol = solve_ivp(odefun, (y0, grid[-1]), start, method="DOP853",
                        rtol=1e-10, atol=1e-12, dense_output=True)
        if not sol.success:
            raise IntegrationError(f"rightward integration failed: {sol.message}")
        dense_right = sol.sol
    if grid[0] < y0:
        sol = solve_ivp(odefun, (y0, grid[0]), start, method="DOP853",
                        rtol=1e-10, atol=1e-12, dense_output=True)
        if not sol.success:
            raise IntegrationError(f"leftward integration failed: {sol.message}")
        dense_left = sol.sol

    def value(y):
        dense = dense_right if y >= y0 else dense_left
        return float(dense(y)[0]) if dense is not None else 1.0

    values = np.array([value(y) for y in grid])

    first_sign_change = None
    order = np.argsort(np.abs(grid - y0))  # scan outward from y0
    signs = values > 0
    for rank in range(1, len(grid)):
        i = order[rank]
        j = i + 1 if grid[i] < y0 else i - 1  # neighbor toward y0
        j = int(np.clip(j, 0, len(grid) - 1))
        if signs[i] != signs[j]:
            lo, hi = sorted((i, j))
            frac = values[lo] / (values[lo] - values[hi])
            loc = grid[lo] + frac * (grid[hi] - grid[lo])
            if first_sign_change is None or abs(loc - y0) < abs(first_sign_change - y0):
                first_sign_change = float(loc)
    return OdeEigenfunction(zeta=zeta, y0=[y0], slope=slope_s, grid=grid,
                            values=values, dense_left=dense_left,
                            dense_right=dense_right,
                            first_sign_change=first_sign_change)


# ---------------------------------------------------------------------------
# Laplace inversion (exponential-sum fitting)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InversionResult:
    measure: SpectralMeasure
    fit_residual: float
    m_requested: int
    m_effective: int

    def to_json(self):
        out = self.measure.to_json()
        out.update({"fit_residual": self.fit_residual,
                    "m_requested": self.m_requested,
                    "m_effective": self.m_effective})
        return out


def _parse_samples(samples):
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ConfigError("samples must be a sequence of (t, u) pairs")
    order = np.argsort(arr[:, 0])
    t, u = arr[order, 0], arr[order, 1]
    if np.any(u <= 0):
        raise PositivityError("sample values must be positive")
    dt = np.diff(t)
    if dt.size == 0 or np.any(dt <= 0):
        raise ConfigError("sample times must be distinct")
    if np.max(np.abs(dt - dt[0])) > 1e-9 * max(dt[0], 1e-300):
        raise ConfigError("sample times must form a uniform grid")
    return t, u, float(dt[0])


def invert_laplace_discrete(samples, m: int, y0=0.0,
                            refine: bool = True) -> InversionResult:
    """Fit u(t) ~ sum_{i<=m} w_i exp(-zeta_i t) on a uniform sample grid.

    Linear stage: the samples of an m-term exponential sum satisfy an order-m
    linear recursion, so the column space of their Hankel matrix is shift
    invariant with the decay factors exp(-zeta_i dt) as transfer eigenvalues.
    These are extracted from the rank-m truncated SVD of the Hankel matrix
    (the ESPRIT/matrix-pencil form of Prony linear prediction, far better
    conditioned than polynomial rooting for clustered exponents).  When the
    Hankel matrix is numerically rank deficient (trailing singular values at
    the double-precision floor) the model order is reduced to the rank: the
    data does not carry m distinct exponentials and the extra requested atoms
    hold no mass.

    Refinement: a Levenberg-Marquardt pass over (zeta_i, log w_i); the log
    parametrization is the positivity barrier for the weights.

    Raises
    ------
    NonRepresentableError
        A linear-stage weight is materially negative: the data is not a
        positive mixture at the requested order.
    ConditioningError
        The retained Hankel block has condition number > 1e12; atom
        parameters would not be trustworthy even though a fit exists.
    """
    t, u, dt = _parse_samples(samples)
    n = t.shape[0]
    if m < 1:
        raise ConfigError("m must be >= 1")
    if n < 2 * m + 2:
        raise ConfigError(f"need at least 2m+2={2 * m + 2} samples, got {n}")
    scale = float(np.max(np.abs(u)))

    L = n // 2
    hank = np.stack([u[i:i + L + 1] for i in range(n - L)])
    sv, Wt = np.linalg.svd(hank)[1:]
    m_eff = min(m, int(np.sum(sv > 1e-14 * sv[0])))
    if m_eff < 1:
        raise ConditioningError("Hankel matrix is numerically zero")
    if sv[0] / sv[m_eff - 1] > _COND_LIMIT:
        raise ConditioningError(
            f"Hankel condition number {sv[0] / sv[m_eff - 1]:.3e} > {_COND_LIMIT:g}; "
            "atoms not identifiable at this order")

    W0 = Wt[:m_eff, :L]
    W1 = Wt[:m_eff, 1:L + 1]
    transfer = np.linalg.lstsq(W0.T, W1.T, rcond=None)[0]
    roots = np.linalg.eigvals(transfer)
    real = roots[np.abs(roots.imag) <= 1e-8 * np.maximum(np.abs(roots), 1.0)].real
    real = real[real > 0]
    if real.size == 0:
        raise NonRepresentableError("no positive real decay roots found")
    zetas = np.sort(-np.log(real) / dt)

    def design(z):
        return np.exp(-np.outer(t, z))

    w, *_ = np.linalg.lstsq(design(zetas), u, rcond=None)
    if np.any(w < -1e-8 * scale):
        raise NonRepresentableError(
            f"fitted weight {np.min(w):.3e} is negative; reduce m or check data")
    w = np.clip(w, 1e-14 * scale, None)

    if refine:
        m_fit = zetas.size

        def pack(z, lw):
            return np.concatenate([z, lw])

        def unpack(theta):
            return theta[:m_fit], np.exp(theta[m_fit:])

        def resid(theta):
            z, wt = unpack(theta)
            return design(z) @ wt - u

        def jac(theta):
            z, wt = unpack(theta)
            E = design(z) * wt            # (n, m)
            return np.concatenate([-t[:, None] * E, E], axis=1)

        fit = least_squares(resid, pack(zetas, np.log(w)), jac=jac, method="lm",
                            xtol=1e-15, ftol=1e-15, gtol=1e-15, max_nfev=2000)
        zetas, w = unpack(fit.x)
        order = np.argsort(zetas)
        zetas, w = zetas[order], w[order]

    # Collapse numerically coincident exponents (refinement may merge atoms).
    keep_z, keep_w = [zetas[0]], [w[0]]
    for z, wt in zip(zetas[1:], w[1:]):
        if z - keep_z[-1] <= 1e-10 * max(1.0, abs(z)):
            keep_w[-1] += wt
        else:
            keep_z.append(z)
            keep_w.append(wt)
    zetas, w = np.array(keep_z), np.array(keep_w)

    residual = float(np.max(np.abs(design(zetas) @ w - u)))
    measure = SpectralMeasure(zetas=zetas, weights=w, y0=np.atleast_1d(y0))
    return InversionResult(measure=measure, fit_residual=residual,
                           m_requested=m, m_effective=int(zetas.size))


def recover_selection(samples_by_point, nu: SpectralMeasure,
                      tol: float = 1e-6) -> EigenfunctionSelection:
    """Recover psi_i(y) = w_i(y) / w_i(y0) against the fixed exponents of nu.

    ``samples_by_point`` maps states y (tuple/scalar/array) to (t, u) series.
    Weights at each state are fitted by non-negative least squares; a relative
    fit residual above ``tol`` raises InconsistentDataError.  psi_i(y0) is set
    to exactly 1 when y0 is among the states.
    """
    if isinstance(samples_by_point, dict):
        items = list(samples_by_point.items())
    else:
        items = list(samples_by_point)
    if not items:
        raise ConfigError("no sample series supplied")

    points, psi_cols = [], []
    for y, series in items:
        y_arr = np.atleast_1d(np.asarray(y, dtype=float))
        t, u, _ = _parse_samples(series)
        E = np.exp(-np.outer(t, nu.zetas))
        what, rnorm = nnls(E, u)
        rel = rnorm / max(np.linalg.norm(u), 1e-300)
        if rel > tol:
            raise InconsistentDataError(
                f"series at y={y_arr} has relative residual {rel:.3e} > {tol:g}")
        points.append(y_arr)
        psi_cols.append(what / nu.weights)

    points = np.vstack(points)
    psi_matrix = np.vstack(psi_cols)          # (n_points, m)
    at_y0 = np.max(np.abs(points - nu.y0), axis=1) <= 1e-9
    psi_matrix[at_y0, :] = 1.0

    funcs = tuple(TabulatedEigenfunction(points, psi_matrix[:, i], nu.y0)
                  for i in range(nu.m))
    return EigenfunctionSelection(functions=funcs, y0=nu.y0)


# ---------------------------------------------------------------------------
# Radial ODE diagnostic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RadialDiagnostic:
    r_samples: np.ndarray
    g0_samples: np.ndarray
    truncated_integral: float
    growth_flag: bool
    first_zero: Optional[float]

    def to_json(self):
        return {"truncated_integral": self.truncated_integral,
                "growth_flag": self.growth_flag, "first_zero": self.first_zero}


def radial_ode_diagnostic(P0_tilde: Callable[[float], float], zeta: float,
                          k: int, r_max: float,
                          tail_factor: float = 10.0) -> RadialDiagnostic:
    """Integrate g'' + ((k-1)/r) g' + (zeta - P0(r)) g = 0 with g(0+) = 1 and
    accumulate the truncated uniqueness integral

        int_1^{r_max} t^{k-3} g(t)^2 ( int_t^inf s^{1-k} g(s)^{-2} ds ) dt.

    The inner integral is quadratured up to R = tail_factor * r_max and closed
    with the frozen-g tail estimate g(R)^{-2} R^{2-k}/(k-2) (k >= 3; omitted
    for k = 2, where a bounded g makes the tail infinite anyway).  Both nested
    integrals are carried as auxiliary ODE states at rtol 1e-11, so their
    accuracy matches the g solve itself.

    The growth flag is heuristic: the outer increment over [r_max/2, r_max]
    must not have decayed below 3/4 of the one over [r_max/4, r_max/2].  No
    convergence or divergence claim is implied.  If g changes sign the inner
    integrand is singular; the first zero is reported, the integral values
    become unreliable (possibly infinite) and the flag is forced on.
    """
    if k < 2:
        raise ConfigError("radial diagnostic requires k >= 2")
    if r_max <= 1.0:
        raise ConfigError("r_max must exceed 1")

    r_start = 1e-6
    R = tail_factor * r_max
    # Series start: g(r) = 1 - (zeta - P0(0+)) r^2 / (2k) + O(r^4).
    c2 = -(zeta - P0_tilde(r_start)) / (2.0 * k)

    def odefun(r, state):
        g, dg = state
        return [dg, -(k - 1.0) / r * dg - (zeta - P0_tilde(r)) * g]

    sol = solve_ivp(odefun, (r_start, R),
                    [1.0 + c2 * r_start ** 2, 2.0 * c2 * r_start],
                    method="DOP853", rtol=1e-11, atol=1e-13, dense_output=True)
    if not sol.success:
        raise IntegrationError(f"radial ODE integration failed: {sol.message}")

    def g(r):
        return float(sol.sol(r)[0])

    r_samples = np.linspace(r_start, r_max, 201)
    g0_samples = sol.sol(r_samples)[0]

    # First zero located on a dense scan of the whole integrated range and
    # refined by bisection on the dense solution.
    scan = np.linspace(r_start, R, 2001)
    g_scan = sol.sol(scan)[0]
    first_zero = None
    flips = np.where(np.diff(np.sign(g_scan)) != 0)[0]
    if flips.size:
        i = int(flips[0])
        first_zero = float(brentq(g, scan[i], scan[i + 1], xtol=1e-12))

    zero_in_quadrature_range = first_zero is not None and first_zero <= R + 1e-12
    if zero_in_quadrature_range:
        # 1/g^2 is non-integrable across a simple zero: the inner integral
        # diverges and the double integral is reported as infinite.
        truncated, growth = math.inf, True
    else:
        tail = (g(R) ** -2) * R ** (2.0 - k) / (k - 2.0) if k >= 3 else 0.0

        # Inner integral I(t) = int_t^R s^{1-k} g^{-2} ds as an ODE, swept
        # backward from I(R) = 0.
        inner_sol = solve_ivp(lambda r, I: [-(r ** (1.0 - k)) / g(r) ** 2],
                              (R, 1.0), [0.0], method="DOP853",
                              rtol=1e-11, atol=1e-14, dense_output=True)
        if not inner_sol.success:
            raise IntegrationError(inner_sol.message)

        def outer_rate(r, _):
            return [r ** (k - 3.0) * g(r) ** 2 * (float(inner_sol.sol(r)[0]) + tail)]

        outer_sol = solve_ivp(outer_rate, (1.0, r_max), [0.0], method="DOP853",
                              rtol=1e-11, atol=1e-14, dense_output=True)
        if not outer_sol.success:
            raise IntegrationError(outer_sol.message)

        def outer_upto(r):
            return float(outer_sol.sol(r)[0])

        truncated = outer_upto(r_max)
        prev_inc = outer_upto(r_max / 2.0) - outer_upto(max(r_max / 4.0, 1.0))
        last_inc = truncated - outer_upto(max(r_max / 2.0, 1.0))
        growth = bool(last_inc >= 0.75 * prev_inc) if prev_inc > 0 else bool(last_inc > 0)

    return RadialDiagnostic(r_samples=r_samples, g0_samples=g0_samples,
                            truncated_integral=truncated, growth_flag=growth,
                            first_zero=first_zero)
