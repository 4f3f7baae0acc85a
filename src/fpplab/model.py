"""Market/factor model specifications and derived generator quantities.

A model couples n stock price processes, driven by a d_W-dimensional Brownian
motion W, with a k-dimensional factor diffusion Y driven by a d_B-dimensional
Brownian motion B correlated with W through a constant matrix rho.  Stock
drift/volatility and factor drift/volatility are functions of the factor
state, supplied either as parametric coefficient fields or tabulated grids.

The module also derives the second-order linear operator

    L = (1/2) sum_ij a_ij(y) d2/dy_i dy_j + sum_i b_i(y) d/dy_i + P(y)

with a = kappa^T kappa, b = alpha + Gamma kappa^T rho^T lambda and
P = (Gamma / 2q) lambda^T lambda, which drives every construction and
verification routine downstream.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.interpolate import RegularGridInterpolator

from .errors import ConfigError, SingularModelError

# Relative singular-value cutoff for pseudoinverse / rank decisions.
SV_CUTOFF = 1e-12


# ---------------------------------------------------------------------------
# Coefficient fields
# ---------------------------------------------------------------------------

class CoefficientField:
    """A function of the factor state y, vector- or matrix-valued.

    Subclasses implement ``__call__`` for a single point of shape (k,) and
    ``batch`` for a stack of points of shape (P, k).
    """

    family: str = "abstract"

    def __call__(self, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def batch(self, Y: np.ndarray) -> np.ndarray:
        # Generic fallback; subclasses override with vectorized versions.
        return np.stack([self(y) for y in np.atleast_2d(Y)])

    def to_json(self) -> dict:
        raise NotImplementedError

    @staticmethod
    def from_json(data: dict) -> "CoefficientField":
        try:
            family = data["family"]
        except (TypeError, KeyError):
            raise ConfigError("coefficient field: missing 'family' key")
        try:
            cls = _FIELD_FAMILIES[family]
        except KeyError:
            raise ConfigError(f"coefficient field: unknown family '{family}'")
        return cls._from_json(data)


class ConstantField(CoefficientField):
    """y-independent value (vector or matrix)."""

    family = "constant"

    def __init__(self, value):
        self.value = np.asarray(value, dtype=float)

    def __call__(self, y):
        return self.value

    def batch(self, Y):
        Y = np.atleast_2d(Y)
        return np.broadcast_to(self.value, (Y.shape[0],) + self.value.shape)

    def to_json(self):
        return {"family": self.family, "value": self.value.tolist()}

    @classmethod
    def _from_json(cls, data):
        return cls(data["value"])


class AffineField(CoefficientField):
    """Vector field f(y) = A y + c with A of shape (out, k)."""

    family = "affine"

    def __init__(self, matrix, offset):
        self.matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
        self.offset = np.atleast_1d(np.asarray(offset, dtype=float))
        if self.matrix.shape[0] != self.offset.shape[0]:
            raise ConfigError("affine field: matrix rows must match offset length")

    def __call__(self, y):
        return self.matrix @ np.asarray(y, dtype=float) + self.offset

    def batch(self, Y):
        return np.atleast_2d(Y) @ self.matrix.T + self.offset

    def to_json(self):
        return {"family": self.family, "matrix": self.matrix.tolist(),
                "offset": self.offset.tolist()}

    @classmethod
    def _from_json(cls, data):
        return cls(data["matrix"], data["offset"])


class SqrtAffineField(CoefficientField):
    """Vector field f_i(y) = sqrt(max(A_i . y + c_i, 0)).

    The clip keeps evaluation finite on the boundary of [0, inf)^k and for
    truncated simulation states that dip marginally below it.
    """

    family = "sqrt_affine"

    def __init__(self, matrix, offset):
        self.matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
        self.offset = np.atleast_1d(np.asarray(offset, dtype=float))
        if self.matrix.shape[0] != self.offset.shape[0]:
            raise ConfigError("sqrt_affine field: matrix rows must match offset length")

    def __call__(self, y):
        return np.sqrt(np.clip(self.matrix @ np.asarray(y, dtype=float) + self.offset, 0.0, None))

    def batch(self, Y):
        return np.sqrt(np.clip(np.atleast_2d(Y) @ self.matrix.T + self.offset, 0.0, None))

    def to_json(self):
        return {"family": self.family, "matrix": self.matrix.tolist(),
                "offset": self.offset.tolist()}

    @classmethod
    def _from_json(cls, data):
        return cls(data["matrix"], data["offset"])


class SqrtDiagField(CoefficientField):
    """Square matrix field f(y) = diag(sqrt(max(s_i y_i, 0))).

    The canonical volatility structure of non-negative affine factor models:
    f(y)^T f(y) = diag(s_i y_i).
    """

    family = "sqrt_diag"

    def __init__(self, scale):
        self.scale = np.atleast_1d(np.asarray(scale, dtype=float))
        if np.any(self.scale <= 0):
            raise ConfigError("sqrt_diag field: scales must be positive")

    def __call__(self, y):
        return np.diag(np.sqrt(np.clip(self.scale * np.asarray(y, dtype=float), 0.0, None)))

    def batch(self, Y):
        Y = np.atleast_2d(Y)
        vals = np.sqrt(np.clip(Y * self.scale, 0.0, None))  # (P, k)
        out = np.zeros(Y.shape + (Y.shape[1],))
        idx = np.arange(Y.shape[1])
        out[:, idx, idx] = vals
        return out

    def to_json(self):
        return {"family": self.family, "scale": self.scale.tolist()}

    @classmethod
    def _from_json(cls, data):
        return cls(data["scale"])


class GridField(CoefficientField):
    """Tabulated values with multilinear interpolation on a rectangular grid.

    Parameters
    ----------
    axes : sequence of 1-D arrays
        Grid coordinates per factor dimension, strictly increasing.
    values : ndarray
        Shape ``(len(axes[0]), ..., len(axes[-1])) + out_shape``.
    """

    family = "grid"

    def __init__(self, axes, values):
        self.axes = tuple(np.asarray(ax, dtype=float) for ax in axes)
        self.values = np.asarray(values, dtype=float)
        k = len(self.axes)
        self.out_shape = self.values.shape[k:]
        self._interp = RegularGridInterpolator(
            self.axes, self.values, method="linear", bounds_error=False, fill_value=None)

    def __call__(self, y):
        return np.asarray(self._interp(np.atleast_2d(y))[0]).reshape(self.out_shape)

    def batch(self, Y):
        return np.asarray(self._interp(np.atleast_2d(Y)))

    def to_json(self):
        return {"family": self.family, "axes": [ax.tolist() for ax in self.axes],
                "values": self.values.tolist()}

    @classmethod
    def _from_json(cls, data):
        return cls(data["axes"], data["values"])


_FIELD_FAMILIES = {cls.family: cls for cls in
                   (ConstantField, AffineField, SqrtAffineField, SqrtDiagField, GridField)}


# ---------------------------------------------------------------------------
# Domain
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Box:
    """Axis-aligned box, possibly unbounded: lower_i <= y_i <= upper_i."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lower", np.atleast_1d(np.asarray(self.lower, dtype=float)))
        object.__setattr__(self, "upper", np.atleast_1d(np.asarray(self.upper, dtype=float)))
        if self.lower.shape != self.upper.shape:
            raise ConfigError("box: lower/upper must have equal length")
        if np.any(self.lower >= self.upper):
            raise ConfigError("box: lower bounds must be strictly below upper bounds")

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    def contains(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        return np.all((y >= self.lower) & (y <= self.upper), axis=-1)

    def clip(self, y) -> np.ndarray:
        return np.clip(y, self.lower, self.upper)

    def reflect(self, y) -> np.ndarray:
        """Fold points back into the box across whichever face they crossed."""
        y = np.asarray(y, dtype=float)
        lo, hi = self.lower, self.upper
        y = np.where(y < lo, 2 * lo - y, y)
        y = np.where(y > hi, 2 * hi - y, y)
        # Overshoots past the opposite face (giant steps) end up clipped.
        return np.clip(y, lo, hi)

    def interior_grid(self, points_per_dim: int = 5, margin: float = 0.1,
                      span: float = 2.0) -> np.ndarray:
        """Regular grid of interior points; unbounded sides are cut at
        ``finite_bound + span`` (or [-span/2, span/2] for a doubly infinite axis)."""
        axes = []
        for i in range(self.dim):
            lo, hi = self.lower[i], self.upper[i]
            if not np.isfinite(lo) and not np.isfinite(hi):
                lo, hi = -span / 2, span / 2
            elif not np.isfinite(hi):
                hi = lo + span
            elif not np.isfinite(lo):
                lo = hi - span
            width = hi - lo
            axes.append(np.linspace(lo + margin * width, hi - margin * width, points_per_dim))
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def to_json(self):
        def enc(v):
            return [None if not np.isfinite(x) else float(x) for x in v]
        return {"lower": enc(self.lower), "upper": enc(self.upper)}

    @staticmethod
    def from_json(data):
        def dec(vals, sign):
            return [sign * np.inf if v is None else float(v) for v in vals]
        return Box(dec(data["lower"], -1), dec(data["upper"], +1))


# ---------------------------------------------------------------------------
# Model specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelSpec:
    """Dimensions and coefficient functions of the market/factor diffusion.

    dS^i/S^i = mu_i(Y) dt + (sigma(Y)^T dW)_i      (stocks,   i = 1..n)
    dY       = alpha(Y) dt + kappa(Y)^T dB          (factors,  in D)
    B        = rho^T W + A^T Wperp,  A = (I - rho^T rho)^{1/2}

    All coefficient fields map a point of D (shape (k,)) to arrays of shapes
    mu: (n,), sigma: (d_W, n), alpha: (k,), kappa: (d_B, k).
    """

    n: int
    k: int
    d_W: int
    d_B: int
    d_Wperp: int
    mu: CoefficientField
    sigma: CoefficientField
    alpha: CoefficientField
    kappa: CoefficientField
    rho: np.ndarray
    domain: Box

    def __post_init__(self):
        object.__setattr__(self, "rho", np.atleast_2d(np.asarray(self.rho, dtype=float)))
        if self.d_W < self.n:
            raise ConfigError(f"d_W={self.d_W} must be >= n={self.n}")
        if self.rho.shape != (self.d_W, self.d_B):
            raise ConfigError(f"rho must be {self.d_W}x{self.d_B}, got {self.rho.shape}")
        if self.domain.dim != self.k:
            raise ConfigError("domain dimension must equal k")
        sv = np.linalg.svd(self.rho, compute_uv=False)
        if sv.size and sv[0] > 1.0 + 1e-10:
            raise ConfigError(f"rho has singular value {sv[0]:.6g} > 1")

    def noise_mixer(self) -> np.ndarray:
        """A = (I - rho^T rho)^{1/2}, mixing Wperp into B.

        Symmetric eigendecomposition; eigenvalues within -1e-12 of zero are
        clamped (roundoff from singular values at exactly 1).
        """
        m = np.eye(self.d_B) - self.rho.T @ self.rho
        evals, evecs = np.linalg.eigh(m)
        if np.any(evals < -1e-12):
            raise ConfigError("I - rho^T rho is not positive semidefinite")
        evals = np.clip(evals, 0.0, None)
        return (evecs * np.sqrt(evals)) @ evecs.T

    def to_json(self) -> dict:
        return {
            "n": self.n, "k": self.k, "d_W": self.d_W, "d_B": self.d_B,
            "d_Wperp": self.d_Wperp,
            "mu": self.mu.to_json(), "sigma": self.sigma.to_json(),
            "alpha": self.alpha.to_json(), "kappa": self.kappa.to_json(),
            "rho": self.rho.tolist(), "domain": self.domain.to_json(),
        }

    @staticmethod
    def from_json(data: dict) -> "ModelSpec":
        required = ["n", "k", "d_W", "d_B", "d_Wperp", "mu", "sigma",
                    "alpha", "kappa", "rho", "domain"]
        for key in required:
            if key not in data:
                raise ConfigError(f"model spec: missing field '{key}'")
        return ModelSpec(
            n=int(data["n"]), k=int(data["k"]), d_W=int(data["d_W"]),
            d_B=int(data["d_B"]), d_Wperp=int(data["d_Wperp"]),
            mu=CoefficientField.from_json(data["mu"]),
            sigma=CoefficientField.from_json(data["sigma"]),
            alpha=CoefficientField.from_json(data["alpha"]),
            kappa=CoefficientField.from_json(data["kappa"]),
            rho=np.asarray(data["rho"], dtype=float),
            domain=Box.from_json(data["domain"]),
        )

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)

    @staticmethod
    def load(path) -> "ModelSpec":
        with open(path) as fh:
            return ModelSpec.from_json(json.load(fh))


@dataclass(frozen=True)
class RiskParams:
    """Risk aversion gamma and correlation-strength scalar p.

    The derived quantities Gamma = (1 - gamma)/gamma and q = 1/(1 + Gamma p)
    are always recomputed; they are never stored independently.
    """

    gamma: float
    p: float = 0.0

    def __post_init__(self):
        if not (self.gamma > 0) or self.gamma == 1.0:
            raise ConfigError(f"gamma must be in (0, inf) \\ {{1}}, got {self.gamma}")
        if not (0.0 <= self.p <= 1.0):
            raise ConfigError(f"p must be in [0, 1], got {self.p}")
        if 1.0 + self.Gamma * self.p <= 1e-14:
            raise ConfigError("1 + Gamma*p must be positive")

    @property
    def Gamma(self) -> float:
        return (1.0 - self.gamma) / self.gamma

    @property
    def q(self) -> float:
        return 1.0 / (1.0 + self.Gamma * self.p)


@dataclass(frozen=True)
class GeneratorCoefficients:
    """Coefficient closures (a, b, P) of the second-order linear operator.

    a(y) = kappa^T kappa                 (k x k diffusion matrix)
    b(y) = alpha + Gamma kappa^T rho^T lambda   (k drift)
    P(y) = (Gamma / 2q) lambda^T lambda  (scalar potential)

    ``*_batch`` variants evaluate stacks of points with shape (P, k).
    """

    k: int
    a: Callable[[np.ndarray], np.ndarray]
    b: Callable[[np.ndarray], np.ndarray]
    P: Callable[[np.ndarray], float]
    a_batch: Callable[[np.ndarray], np.ndarray]
    b_batch: Callable[[np.ndarray], np.ndarray]
    P_batch: Callable[[np.ndarray], np.ndarray]


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def _pinv_and_rank(mat: np.ndarray):
    u, s, vt = np.linalg.svd(mat, full_matrices=False)
    cutoff = SV_CUTOFF * (s[0] if s.size else 0.0)
    rank = int(np.sum(s > cutoff))
    s_inv = np.where(s > cutoff, 1.0 / np.where(s > cutoff, s, 1.0), 0.0)
    return vt.T @ (s_inv[:, None] * u.T), rank


def sharpe_ratio(spec: ModelSpec, y) -> np.ndarray:
    """Market price of risk lambda(y) = (sigma(y)^T)^- mu(y).

    Uses the Moore-Penrose pseudoinverse (SVD, relative cutoff 1e-12); for
    full-column-rank sigma this coincides with sigma (sigma^T sigma)^{-1} mu.

    Raises
    ------
    SingularModelError
        If sigma(y) has rank below n.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    sig = np.atleast_2d(spec.sigma(y))
    pinv_sig_t, rank = _pinv_and_rank(sig.T)
    if rank < spec.n:
        raise SingularModelError(
            f"sigma(y) rank {rank} < n={spec.n} at y={np.array2string(y, precision=6)}")
    return pinv_sig_t @ np.atleast_1d(spec.mu(y))


def sharpe_ratio_batch(spec: ModelSpec, Y: np.ndarray) -> np.ndarray:
    """Vectorized ``sharpe_ratio`` over points of shape (P, k)."""
    Y = np.atleast_2d(Y)
    mu = spec.mu.batch(Y)                      # (P, n)
    if isinstance(spec.sigma, ConstantField):
        pinv_sig_t, rank = _pinv_and_rank(spec.sigma.value.T)
        if rank < spec.n:
            raise SingularModelError("constant sigma is rank deficient")
        return mu @ pinv_sig_t.T
    sig = spec.sigma.batch(Y)                  # (P, d_W, n)
    return np.einsum("pwn,pn->pw", np.linalg.pinv(np.swapaxes(sig, 1, 2), rcond=SV_CUTOFF), mu)


def generator_coefficients(spec: ModelSpec, rp: RiskParams) -> GeneratorCoefficients:
    """Closures (a, b, P) of the linear operator attached to (spec, rp)."""
    Gamma, q = rp.Gamma, rp.q
    rho = spec.rho

    def a(y):
        kap = np.atleast_2d(spec.kappa(y))
        return kap.T @ kap

    def b(y):
        kap = np.atleast_2d(spec.kappa(y))
        lam = sharpe_ratio(spec, y)
        return np.atleast_1d(spec.alpha(y)) + Gamma * kap.T @ (rho.T @ lam)

    def P(y):
        lam = sharpe_ratio(spec, y)
        return (Gamma / (2.0 * q)) * float(lam @ lam)

    def a_batch(Y):
        kap = spec.kappa.batch(Y)
        return np.einsum("pbi,pbj->pij", kap, kap)

    def b_batch(Y):
        kap = spec.kappa.batch(Y)
        lam = sharpe_ratio_batch(spec, Y)
        return spec.alpha.batch(Y) + Gamma * np.einsum("pbk,pb->pk", kap, lam @ rho)

    def P_batch(Y):
        lam = sharpe_ratio_batch(spec, Y)
        return (Gamma / (2.0 * q)) * np.einsum("pw,pw->p", lam, lam)

    return GeneratorCoefficients(k=spec.k, a=a, b=b, P=P,
                                 a_batch=a_batch, b_batch=b_batch, P_batch=P_batch)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst: float
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __getitem__(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_json(self):
        return {"passed": self.passed,
                "checks": [{"name": c.name, "passed": c.passed,
                            "worst": c.worst, "detail": c.detail} for c in self.checks]}


def validate(spec: ModelSpec, grid: np.ndarray,
             rp: RiskParams | None = None) -> ValidationReport:
    """Grid diagnostics for the standing structural conditions.

    Checks, each reported with its worst-case residual over ``grid``:

    * singular values of rho lie in [0, 1];
    * columns of rho lie in the column space of sigma(y):
      ||sigma sigma^- rho - rho|| <= 1e-10;
    * ellipticity: smallest eigenvalue of a(y) = kappa^T kappa positive;
    * boundedness: finite sup over the grid of |a|, |b|, |P|.

    The report never raises; failures are carried as entries.  Pure function:
    identical inputs produce identical reports.
    """
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    if grid.shape[0] == 0:
        raise ConfigError("validation grid is empty")
    if not np.all(spec.domain.contains(grid)):
        raise ConfigError("validation grid contains points outside the domain")
    rp = rp or RiskParams(gamma=2.0, p=0.0)

    checks = []

    sv = np.linalg.svd(spec.rho, compute_uv=False)
    sv_excess = float(max(sv[0] - 1.0, -sv[-1], 0.0)) if sv.size else 0.0
    checks.append(CheckResult("rho_singular_values", sv_excess <= 1e-12, sv_excess,
                              f"singular values in [{sv[-1]:.6g}, {sv[0]:.6g}]" if sv.size else ""))

    worst_range = 0.0
    worst_ell = np.inf
    sup_a = sup_b = sup_P = 0.0
    finite = True
    gen = generator_coefficients(spec, rp)
    for y in grid:
        sig = np.atleast_2d(spec.sigma(y))
        pinv_sig, _ = _pinv_and_rank(sig)
        res = np.linalg.norm(sig @ (pinv_sig @ spec.rho) - spec.rho)
        worst_range = max(worst_range, float(res))

        a_y = gen.a(y)
        worst_ell = min(worst_ell, float(np.linalg.eigvalsh(a_y)[0]))

        try:
            b_y, P_y = gen.b(y), gen.P(y)
        except SingularModelError:
            finite = False
            continue
        sup_a = max(sup_a, float(np.max(np.abs(a_y))))
        sup_b = max(sup_b, float(np.max(np.abs(b_y))))
        sup_P = max(sup_P, abs(P_y))
        if not (np.all(np.isfinite(a_y)) and np.all(np.isfinite(b_y)) and np.isfinite(P_y)):
            finite = False

    checks.append(CheckResult("rho_range_condition", worst_range <= 1e-10, worst_range,
                              "max ||sigma sigma^- rho - rho|| over grid"))
    checks.append(CheckResult("ellipticity", worst_ell > 0.0, worst_ell,
                              "min eigenvalue of kappa^T kappa over grid"))
    checks.append(CheckResult("boundedness", finite, max(sup_a, sup_b, sup_P),
                              f"sup|a|={sup_a:.6g}, sup|b|={sup_b:.6g}, sup|P|={sup_P:.6g}"))
    return ValidationReport(tuple(checks))
