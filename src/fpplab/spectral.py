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

``WidderFunction`` is an FPP u like the affine ``RiccatiSolution``: it
evaluates u(t, Y) and its log-gradient grad_y u / u, so the performance value
and the optimal portfolio come from the one implementation in ``affine``
(``evaluate_fpp``, ``optimal_portfolio_affine``) and the Monte Carlo
strategy from ``sim.OptimalStrategy``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (ConditioningError, ConfigError, InconsistentDataError,
                     IntegrationError, NonRepresentableError, PositivityError)
from .model import (Box, Fields, GeneratorCoefficients, from_params, instants, integer, reals,
                    require, require_list, require_shape, states)

_COND_LIMIT = 1e12
MATCH_TOL = 1e-9            # TabulatedEigenfunction: max-norm distance of a match
RECOVERY_TOL = 1e-6         # recover_selection: largest relative NNLS residual
RADIAL_TAIL_FACTOR = 10.0   # radial_ode_diagnostic: inner integral cut at this * r_max


# ---------------------------------------------------------------------------
# Spectral measure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralMeasure:
    """Finite atomic measure {(zeta_i, w_i)} with normalization point y0.

    zetas, weights (positive) and y0 are read through ``reals``; zeta must
    strictly increase from atom to atom.
    """

    zetas: np.ndarray
    weights: np.ndarray
    y0: np.ndarray

    def __post_init__(self):
        for key, what in (("zetas", "atom zeta"), ("weights", "atom weight"), ("y0", "y0")):
            object.__setattr__(self, key, np.atleast_1d(reals(
                getattr(self, key), f"spectral measure {what}", positive=key == "weights")))
        if self.zetas.ndim != 1 or self.zetas.shape != self.weights.shape:
            raise ConfigError("zetas and weights must be lists of equal length")
        if np.any(np.diff(self.zetas) <= 0):
            raise ConfigError("atoms must be sorted with strictly increasing zeta")

    @property
    def m(self) -> int:
        return self.zetas.shape[0]

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.weights))

    def scaled(self, factor: float) -> "SpectralMeasure":
        return SpectralMeasure(self.zetas, factor * self.weights, self.y0)

    def laplace(self, t) -> np.ndarray:
        """sum_i w_i exp(-zeta_i t) for one time t or a 1-D list, read through
        ``instants``."""
        t = instants(t)
        return np.exp(-np.multiply.outer(t, self.zetas)) @ self.weights

    def to_json(self):
        return {"y0": self.y0.tolist(),
                "atoms": [{"zeta": float(z), "weight": float(w)}
                          for z, w in zip(self.zetas, self.weights)]}

    @staticmethod
    def from_json(data):
        require(data, ["y0", "atoms"], "spectral measure")
        atoms = require_list(data, "atoms", "spectral measure")
        for atom in atoms:
            require(atom, ["zeta", "weight"], "spectral measure atom")
        # A file may list the atoms in any order; the measure takes them sorted.
        atoms = sorted(atoms, key=lambda atom: reals(atom["zeta"], "spectral measure atom zeta",
                                                     scalar=True))
        return SpectralMeasure(zetas=[atom["zeta"] for atom in atoms],
                               weights=[atom["weight"] for atom in atoms], y0=data["y0"])


# ---------------------------------------------------------------------------
# Eigenfunctions
# ---------------------------------------------------------------------------

class Eigenfunction(Fields):
    """A positive eigenfunction psi of the generator with psi(y0) = 1.

    Subclasses implement ``batch(Y) -> (P,)`` on stacked states Y (P, k), and
    the derivative-capable kinds (exp, expmix, ode) also
    ``derivatives(Y) -> (psi (P,), grad (P, k), Hess (P, k, k))``; the others
    (tabulated) raise ``ConfigError`` naming their kind from it.  A single
    state (k,) is the one-row view of ``batch``.  A kind declares ``params``,
    its constructor arguments before ``y0`` (the selection stores y0), each
    kept as an attribute; the JSON form is the ``kind`` tag plus those params.
    Kinds without one (ode: a dense ODE solution) keep ``params`` None and
    raise ``ConfigError`` from ``to_json``.
    """

    kind: str = "abstract"
    params: Optional[tuple] = None

    def __call__(self, y) -> float:
        return float(self.batch(np.atleast_2d(y))[0])

    def batch(self, Y) -> np.ndarray:
        raise NotImplementedError

    def derivatives(self, Y):
        raise ConfigError(f"eigenfunction kind '{self.kind}' has no derivatives")

    def to_json(self) -> dict:
        if self.params is None:
            raise ConfigError(f"eigenfunction kind '{self.kind}' has no JSON form")
        return {"kind": self.kind, **super().to_json()}


class _ExpSum(Eigenfunction):
    """psi(y) = sum_j c_j exp(r_j^T (y - y0)) with coefficients c (J,) and
    rates r (J, k); exact derivatives of all orders."""

    def __init__(self, coefficients, rates, y0):
        self.y0 = np.atleast_1d(reals(y0, f"{self.kind} eigenfunction y0"))
        self._c = np.asarray(coefficients, dtype=float)
        self._r = np.asarray(rates, dtype=float).reshape(len(self._c), -1)

    def _exps(self, Y):
        """exp(r_j^T (y - y0)) for each state and term, shape (P, J)."""
        return np.exp((np.atleast_2d(Y) - self.y0) @ self._r.T)

    def batch(self, Y):
        return self._exps(Y) @ self._c

    def derivatives(self, Y):
        E, r = self._exps(Y) * self._c, self._r
        return E.sum(axis=1), E @ r, np.einsum("pj,jab->pab", E, r[:, :, None] * r[:, None, :])


class ExpEigenfunction(_ExpSum):
    """psi(y) = exp(v^T (y - y0))."""

    kind = "exp"
    params = ("v",)

    def __init__(self, v, y0):
        self.v = np.atleast_1d(reals(v, "exp eigenfunction v"))
        super().__init__([1.0], [self.v], y0)


class ExpMixEigenfunction(_ExpSum):
    """One-factor mixture psi(y) = w+ e^{r+ d} + (1 - w+) e^{r- d}, d = y - y0.

    Covers both extreme exponential eigenfunctions of a constant-coefficient
    one-factor operator and any convex combination (e.g. cosh for w+ = 1/2).
    """

    kind = "expmix"
    params = ("weight_plus", "rate_plus", "rate_minus")

    def __init__(self, weight_plus, rate_plus, rate_minus, y0):
        for key, value in (("weight_plus", weight_plus), ("rate_plus", rate_plus),
                           ("rate_minus", rate_minus)):
            setattr(self, key, reals(value, f"expmix eigenfunction {key}", scalar=True))
        super().__init__([self.weight_plus, 1.0 - self.weight_plus],
                         [self.rate_plus, self.rate_minus], y0)


class OdeEigenfunction(Eigenfunction):
    """One-factor eigenfunction integrated from (psi(y0), psi'(y0)) = (1, s).

    ``dense`` is the one dense solution of ``solve_eigenfunction_1d``: at
    s in [0, 1] it gives (psi, psi') at y0 + s (end - y0) on the right side
    (end the last grid point) and on the left side (end the first), in the
    order (psi_right, psi_left, psi'_right, psi'_left).  Values and first
    derivatives come from it; second derivatives by a central difference of
    the dense first derivative, so the defect (L - zeta) psi stays an honest
    diagnostic.  ``values`` holds psi on the grid and ``first_sign_change``
    the sign change nearest y0 (linear interpolation between grid points),
    or None.
    """

    kind = "ode"

    def __init__(self, zeta, y0, slope, grid, dense):
        self.zeta = float(zeta)
        self.y0 = np.atleast_1d(np.asarray(y0, dtype=float))
        self.slope = float(slope)
        self.grid = np.asarray(grid, dtype=float)
        self._dense = dense
        self.values = self.batch(self.grid[:, None])
        v, g = self.values, self.grid
        i = np.flatnonzero(np.diff(v > 0))
        loc = g[i] + v[i] / (v[i] - v[i + 1]) * (g[i + 1] - g[i])
        self.first_sign_change = (float(loc[np.argmin(np.abs(loc - self.y0[0]))])
                                  if i.size else None)

    @property
    def positive_on_grid(self) -> bool:
        return self.first_sign_change is None

    def _state(self, y):
        """(psi, psi') at the points y (P,), clipped to the grid span, shape
        (2, P).  Each y is read on its side at s = (y - y0) / (end - y0); a
        side of length zero holds only y0, at s = 0."""
        y = np.clip(y, self.grid[0], self.grid[-1])
        left = y < self.y0[0]
        span = np.where(left, self.grid[0], self.grid[-1]) - self.y0[0]
        s = np.divide(y - self.y0[0], span, out=np.zeros_like(y), where=span != 0)
        return self._dense(s).reshape(2, 2, -1)[:, left.astype(int), np.arange(len(y))]

    def batch(self, Y):
        return self._state(np.atleast_2d(Y)[:, 0])[0]

    def derivatives(self, Y):
        y = np.atleast_2d(Y)[:, 0]
        psi, dpsi = self._state(y)
        h = 1e-6
        lo, hi = np.maximum(y - h, self.grid[0]), np.minimum(y + h, self.grid[-1])
        hess = (self._state(hi)[1] - self._state(lo)[1]) / (hi - lo)
        return psi, dpsi[:, None], hess[:, None, None]


class TabulatedEigenfunction(Eigenfunction):
    """Eigenfunction known only at finitely many states (recovered data).

    A state matches a tabulated point when every coordinate is within
    ``MATCH_TOL`` (1e-9) of it.
    """

    kind = "tabulated"
    params = ("points", "values")

    def __init__(self, points, values, y0):
        self.points = np.atleast_2d(reals(points, "tabulated eigenfunction points"))
        self.values = np.atleast_1d(reals(values, "tabulated eigenfunction values"))
        self.y0 = np.atleast_1d(reals(y0, "tabulated eigenfunction y0"))
        if self.points.shape[0] != self.values.shape[0]:
            raise ConfigError("points and values must align")

    def batch(self, Y):
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        dist = np.max(np.abs(Y[:, None, :] - self.points), axis=2)     # (P, N)
        idx = np.argmin(dist, axis=1)
        miss = dist[np.arange(len(Y)), idx] > MATCH_TOL
        if np.any(miss):
            raise ValueError(f"state {Y[np.argmax(miss)]} not among tabulated points")
        return self.values[idx]


_KINDS = {cls.kind: cls for cls in
          (ExpEigenfunction, ExpMixEigenfunction, TabulatedEigenfunction)}


@dataclass(frozen=True)
class EigenfunctionSelection(Fields):
    """One positive eigenfunction per atom, all normalized at y0, which is
    read through ``reals``."""

    functions: tuple
    y0: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "y0", np.atleast_1d(reals(self.y0, "eigenfunction selection y0")))
        object.__setattr__(self, "functions", tuple(self.functions))
        for f in self.functions:    # psi_i(y0) = 1 needs each psi_i normalized at y0
            if not np.array_equal(f.y0, self.y0):
                raise ConfigError(f"eigenfunction y0 {f.y0.tolist()} differs from "
                                  f"selection y0 {self.y0.tolist()}")

    @property
    def m(self) -> int:
        return len(self.functions)

    def psi(self, i: int, y) -> float:
        return self.functions[i](y)

    def values(self, Y) -> np.ndarray:
        """psi_i at the stacked states Y (P, k), shape (P, m)."""
        return np.array([f.batch(Y) for f in self.functions]).T

    def normalization_residual(self) -> float:
        """max_i |psi_i(y0) - 1|; raises where some psi_i is unknown at y0."""
        return max((abs(f(self.y0) - 1.0) for f in self.functions), default=0.0)

    def defect(self, gen: GeneratorCoefficients, zetas, grid) -> float:
        """max over atoms and grid points of |(L - zeta_i) psi_i|, one zeta per atom.

        Requires derivative-capable eigenfunctions (exp, expmix, ode); any
        other kind raises ``ConfigError``.
        """
        Y, _ = states(grid, gen.k, "grid", "generator")
        zetas = np.atleast_1d(reals(zetas, "zetas"))
        if zetas.shape != (self.m,):
            raise ConfigError(f"zetas has shape {zetas.shape}; the selection has m={self.m} atoms")
        a, b, P, _ = gen.coefficients(Y)
        worst = 0.0
        for f, zeta in zip(self.functions, zetas):
            psi, grad, hess = f.derivatives(Y)
            res = 0.5 * np.einsum("pij,pij->p", a, hess) + np.einsum("pi,pi->p", b, grad) \
                + (P - zeta) * psi
            worst = max(worst, float(np.max(np.abs(res))))
        return worst

    @staticmethod
    def from_json(data):
        require(data, ["y0", "functions"], "eigenfunction selection")
        funcs = []
        for fd in require_list(data, "functions", "eigenfunction selection"):
            require(fd, ["kind"], "eigenfunction")
            cls = _KINDS.get(fd["kind"]) if isinstance(fd["kind"], str) else None
            if cls is None:
                raise ConfigError(f"unknown eigenfunction kind {fd['kind']!r}")
            funcs.append(from_params(cls, fd, f"{cls.kind} eigenfunction", data["y0"]))
        return EigenfunctionSelection(tuple(funcs), data["y0"])


# ---------------------------------------------------------------------------
# Mixture evaluation
# ---------------------------------------------------------------------------

class WidderFunction:
    """u(t, y) = sum_i w_i exp(-zeta_i t) psi_i(y) for t >= 0, with exact
    derivatives delegated to the eigenfunctions."""

    def __init__(self, nu: SpectralMeasure, sel: EigenfunctionSelection):
        if sel.m != nu.m:
            raise ConfigError("selection size does not match measure")
        # u(0, y0) = nu.laplace(0) only when both are normalized at one y0.
        if not np.array_equal(sel.y0, nu.y0):
            raise ConfigError(f"selection y0 {sel.y0.tolist()} differs from "
                              f"measure y0 {nu.y0.tolist()}")
        self.nu = nu
        self.sel = sel

    def _coeff(self, t):
        return self.nu.weights * np.exp(-self.nu.zetas * t)

    def __call__(self, t, y):
        """u at one state y (k,) as a float, or at stacked states Y (P, k) as
        (P,)."""
        Y, one = states(y, self.sel.y0.size, owner="FPP")
        u = self.sel.values(Y) @ self._coeff(instants(t, scalar=True))
        return float(u[0]) if one else u

    def derivatives(self, t, y):
        """(du/dt (P,), u (P,), grad_y u (P, k), Hess_y u (P, k, k)) at the
        stacked states y (P, k); at one state (k,) each is its one row, du/dt
        and u floats."""
        Y, one = states(y, self.sel.y0.size, owner="FPP")
        out = self._derivatives(instants(t, scalar=True), Y)
        return tuple(v[0] for v in out) if one else out

    def _derivatives(self, t, Y):
        c = self._coeff(t)
        psi, grad, hess = (np.stack(d, axis=-1) for d in
                           zip(*(f.derivatives(Y) for f in self.sel.functions)))
        return psi @ (-self.nu.zetas * c), psi @ c, grad @ c, hess @ c

    def log_gradient(self, t, Y):
        """grad_y u / u at stacked states Y (P, k), shape (P, k); ungated, as the
        Euler loop reads it every step, but Y must have the FPP's k."""
        require_shape(Y, (len(Y), self.sel.y0.size), owner="FPP")
        _, u, grad, _ = self._derivatives(t, Y)
        return grad / u[:, None]


# ---------------------------------------------------------------------------
# One-factor eigenfunction ODE
# ---------------------------------------------------------------------------

def solve_eigenfunction_1d(gen: GeneratorCoefficients, zeta: float, y0: float,
                           slope_s: float, grid) -> OdeEigenfunction:
    """Integrate (1/2) a psi'' + b psi' + (P - zeta) psi = 0 from
    psi(y0) = 1, psi'(y0) = slope_s across the grid, both sides of y0 in one
    solve.

    The two sides are one first-order system on s in [0, 1], with
    y = y0 + s (end - y0) for the right end (the last grid point) and the
    left end (the first).  The state is (psi_right, psi_left, psi'_right,
    psi'_left), psi' being d psi / dy, and each side's rate in s is its rate
    in y times its signed length end - y0.  DOP853 (rtol 1e-10, atol 1e-12)
    then takes as many steps as the harder side needs, and each right-hand
    side reads ``gen.coefficients`` once, on the 2-row stack of both sides'
    states.  A side of length zero (y0 at a grid end) has rate zero, so its
    state stays (1, slope_s) exactly.

    Positivity is checked on the grid only: the returned object carries psi on
    the grid as ``values`` and the sign change nearest y0, if any, as
    ``first_sign_change`` (location by linear interpolation).
    """
    from scipy.integrate import solve_ivp

    if gen.k != 1:
        raise ConfigError("one-factor routine requires k = 1")
    zeta, slope_s, y0 = (reals(v, what, scalar=True) for v, what in
                         ((zeta, "zeta"), (slope_s, "slope"), (y0, "y0")))
    grid = reals(grid, "grid")
    if np.ndim(grid) != 1:
        raise ConfigError(f"grid must be a list of numbers, got shape {np.shape(grid)}")
    grid = np.sort(grid)
    if not (grid[0] <= y0 <= grid[-1]):
        raise ConfigError("y0 must lie inside the grid span")
    if np.any(gen.a_batch(grid[:, None]) <= 0):
        raise ConfigError("a(y) must be positive on the grid")
    span = np.array([grid[-1], grid[0]]) - y0      # signed lengths (right, left)

    def odefun(s, state):
        a, b, P, _ = gen.coefficients((y0 + s * span)[:, None])
        psi, dpsi = state[:2], state[2:]
        return np.concatenate([span * dpsi,
                               span * (-2.0 / a[:, 0, 0] * (b[:, 0] * dpsi + (P - zeta) * psi))])

    sol = solve_ivp(odefun, (0.0, 1.0), [1.0, 1.0, slope_s, slope_s], method="DOP853",
                    rtol=1e-10, atol=1e-12, dense_output=True)
    if not sol.success:
        raise IntegrationError(f"integration failed: {sol.message}")
    return OdeEigenfunction(zeta=zeta, y0=[y0], slope=slope_s, grid=grid, dense=sol.sol)


# ---------------------------------------------------------------------------
# Laplace inversion (exponential-sum fitting)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InversionResult(Fields):
    measure: SpectralMeasure
    fit_residual: float
    m_requested: int
    m_effective: int

    def to_json(self):
        out = super().to_json()
        return {**out.pop("measure"), **out}


def _parse_samples(samples):
    arr = reals(samples, "samples")
    if np.ndim(arr) != 2 or arr.shape[1] != 2:
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


def invert_laplace_discrete(samples, m: int, y0=0.0) -> InversionResult:
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
    from scipy.optimize import least_squares

    t, u, dt = _parse_samples(samples)
    n = t.shape[0]
    m = integer(m, "m", least=1)
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

    m_fit = zetas.size

    # theta = (zeta, log w).
    def resid(theta):
        return design(theta[:m_fit]) @ np.exp(theta[m_fit:]) - u

    def jac(theta):
        E = design(theta[:m_fit]) * np.exp(theta[m_fit:])     # (n, m)
        return np.concatenate([-t[:, None] * E, E], axis=1)

    fit = least_squares(resid, np.concatenate([zetas, np.log(w)]), jac=jac, method="lm",
                        xtol=1e-15, ftol=1e-15, gtol=1e-15, max_nfev=2000)
    order = np.argsort(fit.x[:m_fit])
    zetas, w = fit.x[:m_fit][order], np.exp(fit.x[m_fit:])[order]

    # Collapse numerically coincident exponents (refinement may merge atoms):
    # a new atom starts wherever zeta moves on by more than 1e-10 relative.
    new_atom = np.diff(zetas) > 1e-10 * np.maximum(1.0, np.abs(zetas[1:]))
    starts = np.flatnonzero(np.append(True, new_atom))
    zetas, w = zetas[starts], np.add.reduceat(w, starts)

    residual = float(np.max(np.abs(design(zetas) @ w - u)))
    measure = SpectralMeasure(zetas=zetas, weights=w, y0=np.atleast_1d(y0))
    return InversionResult(measure=measure, fit_residual=residual,
                           m_requested=m, m_effective=int(zetas.size))


def recover_selection(samples_by_point, nu: SpectralMeasure) -> EigenfunctionSelection:
    """Recover psi_i(y) = w_i(y) / w_i(y0) against the fixed exponents of nu.

    ``samples_by_point`` is a dict from states y (a tuple or a scalar, read
    through ``states``) to (t, u) series.  Weights at each state are fitted
    by non-negative least squares; a relative fit residual above
    ``RECOVERY_TOL`` (1e-6) raises InconsistentDataError.  psi_i(y0) is set
    to exactly 1 when y0 is among the states.
    """
    from scipy.optimize import nnls

    if not samples_by_point:
        raise ConfigError("no sample series supplied")

    # A start box makes ``states`` admit one state only; the measure has no domain.
    anywhere = Box(np.full(nu.y0.size, -np.inf), np.full(nu.y0.size, np.inf))
    points, psi_cols = [], []
    for y, series in samples_by_point.items():
        y_arr = states(y if np.ndim(y) else [y], nu.y0.size, "samples_by_point key",
                       "spectral measure", start=anywhere)[0][0]
        t, u, _ = _parse_samples(series)
        E = np.exp(-np.outer(t, nu.zetas))
        what, rnorm = nnls(E, u)
        rel = rnorm / max(np.linalg.norm(u), 1e-300)
        if rel > RECOVERY_TOL:
            raise InconsistentDataError(
                f"series at y={y_arr} has relative residual {rel:.3e} > {RECOVERY_TOL:g}")
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
class RadialDiagnostic(Fields):
    # The JSON form leaves out g0 sampled on r_samples, a table of its own.
    params = ("truncated_integral", "growth_flag", "first_zero")

    r_samples: np.ndarray
    g0_samples: np.ndarray
    truncated_integral: float
    growth_flag: bool
    first_zero: Optional[float]


def radial_ode_diagnostic(P0_tilde: Callable[[float], float], zeta: float,
                          k: int, r_max: float) -> RadialDiagnostic:
    """Integrate g'' + ((k-1)/r) g' + (zeta - P0(r)) g = 0 with g(0+) = 1 and
    accumulate the truncated uniqueness integral

        int_1^{r_max} t^{k-3} g(t)^2 ( int_t^inf s^{1-k} g(s)^{-2} ds ) dt.

    The inner integral is quadratured up to R = RADIAL_TAIL_FACTOR * r_max
    (10 r_max) and closed with the frozen-g tail estimate
    g(R)^{-2} R^{2-k}/(k-2) (k >= 3; omitted for k = 2, where a bounded g
    makes the tail infinite anyway).  After the g solve, the inner integral
    is one backward solve_ivp sweep from R and the outer one a forward sweep
    over [1, r_max], both at rtol 1e-11, so their accuracy matches the g
    solve itself.

    The growth flag is heuristic: the outer increment over [r_max/2, r_max]
    must not have decayed below 3/4 of the one over [r_max/4, r_max/2].  No
    convergence or divergence claim is implied.  If g changes sign the inner
    integrand is singular; the first zero is reported, the integral values
    become unreliable (possibly infinite) and the flag is forced on.
    """
    from scipy.integrate import solve_ivp

    k = integer(k, "k", least=2)
    r_max, zeta = (reals(v, what, scalar=True) for v, what in ((r_max, "r_max"), (zeta, "zeta")))
    if not 1.0 < r_max:
        raise ConfigError(f"r_max must exceed 1, got {r_max}")

    r_start = 1e-6
    R = RADIAL_TAIL_FACTOR * r_max
    # Series start: g(r) = 1 - (zeta - P0(0+)) r^2 / (2k) + O(r^4).
    c2 = -(zeta - P0_tilde(r_start)) / (2.0 * k)

    def odefun(r, state):
        g, dg = state
        return [dg, -(k - 1.0) / r * dg - (zeta - P0_tilde(r)) * g]

    def g_zero(r, state):
        return state[0]

    sol = solve_ivp(odefun, (r_start, R),
                    [1.0 + c2 * r_start ** 2, 2.0 * c2 * r_start],
                    method="DOP853", rtol=1e-11, atol=1e-13, dense_output=True,
                    events=g_zero)
    if not sol.success:
        raise IntegrationError(f"radial ODE integration failed: {sol.message}")

    def g(r):
        return float(sol.sol(r)[0])

    r_samples = np.linspace(r_start, r_max, 201)
    g0_samples = sol.sol(r_samples)[0]

    # The first zero of g over the whole integrated range, from the solver's
    # event location on the g solve.
    zeros = sol.t_events[0]
    first_zero = float(zeros[0]) if zeros.size else None
    if first_zero is not None:
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
