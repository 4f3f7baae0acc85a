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
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, SingularModelError

# Relative singular-value cutoff for pseudoinverse / rank decisions.
SV_CUTOFF = 1e-12
GRID_MARGIN = 0.1   # Box.interior_grid: inset per side, as a fraction of the axis width
GRID_SPAN = 2.0     # Box.interior_grid: length at which an unbounded axis is cut


def require(data, keys, what: str) -> None:
    """Raise ``ConfigError`` naming the first of ``keys`` missing from the
    JSON object ``data``; ``what`` names the object in the message."""
    if not isinstance(data, dict):
        raise ConfigError(f"{what}: expected a JSON object, got {type(data).__name__}")
    for key in keys:
        if key not in data:
            raise ConfigError(f"{what}: missing field '{key}'")


def plain(value):
    """JSON form of a value: arrays and tuples become lists, objects with a
    ``to_json`` give theirs, anything else is returned as is."""
    if hasattr(value, "to_json"):
        return value.to_json()
    if isinstance(value, tuple):
        return [plain(v) for v in value]
    return value.tolist() if isinstance(value, np.ndarray) else value


def from_params(cls, data: dict, what: str, *extra):
    """``cls(*data[params], *extra)``, where params are the keys ``cls``
    declares in ``params`` or, for a dataclass, its fields."""
    keys = getattr(cls, "params", None) or [f.name for f in fields(cls)]
    require(data, keys, what)
    return cls(*(data[key] for key in keys), *extra)


# ---------------------------------------------------------------------------
# Coefficient fields
# ---------------------------------------------------------------------------

class CoefficientField:
    """A function of the factor state y, vector- or matrix-valued.

    Subclasses implement only ``batch``, which evaluates a stack of points of
    shape (P, k); a single point of shape (k,) is its one-row view.  A family
    declares ``params``, its constructor arguments in order, each kept as an
    attribute; the JSON form is the ``family`` tag plus those params.
    """

    family: str = "abstract"
    params: tuple = ()

    def __call__(self, y: np.ndarray) -> np.ndarray:
        return self.batch(np.atleast_2d(y))[0]

    def batch(self, Y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def to_json(self) -> dict:
        return {"family": self.family, **{p: plain(getattr(self, p)) for p in self.params}}

    @staticmethod
    def from_json(data: dict) -> "CoefficientField":
        require(data, ["family"], "coefficient field")
        cls = _FIELD_FAMILIES.get(data["family"])
        if cls is None:
            raise ConfigError(f"coefficient field: unknown family '{data['family']}'")
        return from_params(cls, data, f"{cls.family} field")


class ConstantField(CoefficientField):
    """y-independent value (vector or matrix)."""

    family = "constant"
    params = ("value",)

    def __init__(self, value):
        self.value = np.asarray(value, dtype=float)

    @cached_property
    def pinv_and_rank(self):
        """Read-only pseudoinverse and rank of ``value`` (one SVD on first use)."""
        pinv, rank = _pinv_and_rank(self.value)
        pinv.flags.writeable = False
        return pinv, rank

    def batch(self, Y):
        Y = np.atleast_2d(Y)
        return np.broadcast_to(self.value, (Y.shape[0],) + self.value.shape)


class AffineField(CoefficientField):
    """Vector field f(y) = A y + c with A of shape (out, k)."""

    family = "affine"
    params = ("matrix", "offset")

    def __init__(self, matrix, offset):
        self.matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
        self.offset = np.atleast_1d(np.asarray(offset, dtype=float))
        if self.matrix.shape[0] != self.offset.shape[0]:
            raise ConfigError(f"{self.family} field: matrix rows must match offset length")

    def batch(self, Y):
        return np.atleast_2d(Y) @ self.matrix.T + self.offset


class SqrtAffineField(AffineField):
    """Vector field f_i(y) = sqrt(max(A_i . y + c_i, 0)).

    The clip keeps evaluation finite on the boundary of [0, inf)^k and for
    truncated simulation states that dip marginally below it.
    """

    family = "sqrt_affine"

    def batch(self, Y):
        return np.sqrt(np.clip(np.atleast_2d(Y) @ self.matrix.T + self.offset, 0.0, None))


class SqrtDiagField(CoefficientField):
    """Square matrix field f(y) = diag(sqrt(max(s_i y_i, 0))).

    The canonical volatility structure of non-negative affine factor models:
    f(y)^T f(y) = diag(s_i y_i).
    """

    family = "sqrt_diag"
    params = ("scale",)

    def __init__(self, scale):
        self.scale = np.atleast_1d(np.asarray(scale, dtype=float))
        if np.any(self.scale <= 0):
            raise ConfigError("sqrt_diag field: scales must be positive")

    def batch(self, Y):
        Y = np.atleast_2d(Y)
        vals = np.sqrt(np.clip(Y * self.scale, 0.0, None))  # (P, k)
        out = np.zeros(Y.shape + (Y.shape[1],))
        idx = np.arange(Y.shape[1])
        out[:, idx, idx] = vals
        return out


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
    params = ("axes", "values")

    def __init__(self, axes, values):
        from scipy.interpolate import RegularGridInterpolator

        self.axes = tuple(np.asarray(ax, dtype=float) for ax in axes)
        self.values = np.asarray(values, dtype=float)
        k = len(self.axes)
        self.out_shape = self.values.shape[k:]
        self._interp = RegularGridInterpolator(
            self.axes, self.values, method="linear", bounds_error=False, fill_value=None)

    def batch(self, Y):
        return np.asarray(self._interp(np.atleast_2d(Y)))


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

    # contains, clip and reflect loop over the k columns: on short rows that
    # is several times faster than broadcasting over a last axis of length k.

    def contains(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        inside = np.ones(y.shape[:-1], dtype=bool)
        for i, (lo, hi) in enumerate(zip(self.lower, self.upper)):
            col = y[..., i]
            inside &= col >= lo
            inside &= col <= hi
        return inside[()]

    def clip(self, y) -> np.ndarray:
        y = np.array(y, dtype=float)
        for i, (lo, hi) in enumerate(zip(self.lower, self.upper)):
            np.clip(y[..., i], lo, hi, out=y[..., i])
        return y

    def reflect(self, y) -> np.ndarray:
        """Fold points back into the box across whichever face they crossed."""
        y = np.array(y, dtype=float)
        for i, (lo, hi) in enumerate(zip(self.lower, self.upper)):
            col = y[..., i]
            np.copyto(col, 2 * lo - col, where=col < lo)
            np.copyto(col, 2 * hi - col, where=col > hi)
            # Overshoots past the opposite face (giant steps) end up clipped.
            np.clip(col, lo, hi, out=col)
        return y

    def interior_grid(self, points_per_dim: int = 5) -> np.ndarray:
        """Regular grid inset GRID_MARGIN (0.1) of each axis' width from its ends;
        unbounded sides are cut at ``finite_bound + GRID_SPAN`` (2.0), or at
        [-GRID_SPAN/2, GRID_SPAN/2] for a doubly infinite axis."""
        axes = []
        for i in range(self.dim):
            lo, hi = self.lower[i], self.upper[i]
            if not np.isfinite(lo) and not np.isfinite(hi):
                lo, hi = -GRID_SPAN / 2, GRID_SPAN / 2
            elif not np.isfinite(hi):
                hi = lo + GRID_SPAN
            elif not np.isfinite(lo):
                lo = hi - GRID_SPAN
            inset = GRID_MARGIN * (hi - lo)
            axes.append(np.linspace(lo + inset, hi - inset, points_per_dim))
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
        require(data, ["lower", "upper"], "domain")
        return Box(dec(data["lower"], -1), dec(data["upper"], +1))


# ---------------------------------------------------------------------------
# Model specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelSpec:
    """Dimensions and coefficient functions of the market/factor diffusion.

    dS^i/S^i = mu_i(Y) dt + (sigma(Y)^T dW)_i      (stocks,   i = 1..n)
    dY       = alpha(Y) dt + kappa(Y)^T dB          (factors,  in D)
    B        = rho^T W + A^T Wperp,  A = (I - rho^T rho)^{1/2}  (d_Wperp = d_B)

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
        if self.d_Wperp != self.d_B:
            raise ConfigError(f"d_Wperp={self.d_Wperp} must equal d_B={self.d_B}")
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
        return {f.name: plain(getattr(self, f.name)) for f in fields(self)}

    @staticmethod
    def from_json(data: dict) -> "ModelSpec":
        require(data, [f.name for f in fields(ModelSpec)], "model spec")
        dims = {key: int(data[key]) for key in ("n", "k", "d_W", "d_B", "d_Wperp")}
        coefs = {key: CoefficientField.from_json(data[key])
                 for key in ("mu", "sigma", "alpha", "kappa")}
        return ModelSpec(**dims, **coefs, rho=data["rho"], domain=Box.from_json(data["domain"]))

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

    ``*_batch`` closures evaluate stacks of points with shape (P, k); those
    built by ``generator_coefficients`` are the only implementation.  The
    library reads only the ``*_batch`` closures; ``a``, ``b``, ``P`` are their
    one-row views at a single point (k,), kept for callers.

    ``kappa_batch`` maps states (P, k) to the factor volatility kappa
    (P, d_B, k), a square root of a = kappa^T kappa that Feynman-Kac steps
    with.  It defaults to None so that a generator given by its six closures
    alone (such as a pure heat operator) stays valid for every other use;
    ``feynman_kac_estimate`` refuses such a generator.
    """

    k: int
    a: Callable[[np.ndarray], np.ndarray]
    b: Callable[[np.ndarray], np.ndarray]
    P: Callable[[np.ndarray], float]
    a_batch: Callable[[np.ndarray], np.ndarray]
    b_batch: Callable[[np.ndarray], np.ndarray]
    P_batch: Callable[[np.ndarray], np.ndarray]
    kappa_batch: Optional[Callable[[np.ndarray], np.ndarray]] = None


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def _one_row(batch: Callable) -> Callable:
    """Single-point view y -> batch(y[None])[0] of a batched closure."""
    return lambda y: batch(np.asarray(y, dtype=float).reshape(1, -1))[0]


def _pinv_and_rank(mats: np.ndarray):
    """Pseudoinverse and rank of a matrix (r, c) or of each matrix in a stack
    (P, r, c), both from one SVD with relative cutoff ``SV_CUTOFF``."""
    u, s, vt = np.linalg.svd(mats, full_matrices=False)
    keep = s > SV_CUTOFF * s[..., :1]
    s_inv = np.divide(1.0, s, out=np.zeros_like(s), where=keep)
    pinv = vt.swapaxes(-1, -2) @ (s_inv[..., None] * u.swapaxes(-1, -2))
    return pinv, keep.sum(axis=-1)


def rowwise(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """M_p v_p for each row of v (P, c), where M is one matrix (r, c) shared
    by every row (a single matmul) or a stack (P, r, c).  Returns (P, r)."""
    return v @ M.T if M.ndim == 2 else np.einsum("prc,pc->pr", M, v)


def sigma_terms(spec: ModelSpec, Y: np.ndarray):
    """mu, sigma, its pseudoinverse sigma^- and the market price of risk
    lambda = (sigma^T)^- mu at the points Y (P, k), from one evaluation of
    mu and sigma and one SVD of sigma.

    A constant sigma is factored once per field and returned as one matrix
    (d_W, n) with sigma^- (n, d_W); otherwise both are stacks (P, d_W, n),
    (P, n, d_W).  ``rowwise`` applies either layout row by row, so callers
    never branch on it.  mu has shape (P, n) and lambda (P, d_W).

    Raises
    ------
    SingularModelError
        If sigma(y) has rank below n at some point; the first is named.
    """
    Y = np.atleast_2d(Y)
    const = isinstance(spec.sigma, ConstantField)
    sig = spec.sigma.value if const else spec.sigma.batch(Y)
    pinv, rank = spec.sigma.pinv_and_rank if const else _pinv_and_rank(sig)
    if rank.min() < spec.n:
        rank = np.broadcast_to(rank, Y.shape[:1])
        i = int(np.argmax(rank < spec.n))
        raise SingularModelError(
            f"sigma(y) rank {rank[i]} < n={spec.n} at y={np.array2string(Y[i], precision=6)}")
    mu = spec.mu.batch(Y)
    return mu, sig, pinv, rowwise(np.swapaxes(pinv, -1, -2), mu)


@dataclass(frozen=True)
class MarketTerms:
    """The coefficients of the model ``spec`` at a stack of states Y (P, k),
    each evaluated at most once: mu (P, n); sigma and sigma^- in the layouts
    of ``sigma_terms``; the market price of risk lam (P, d_W); the factor
    volatility kappa (P, d_B, k), evaluated on first use."""

    spec: ModelSpec
    Y: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray
    sigma_pinv: np.ndarray
    lam: np.ndarray

    @cached_property
    def kappa(self) -> np.ndarray:
        return self.spec.kappa.batch(self.Y)


def market_terms(spec: ModelSpec, Y: np.ndarray) -> MarketTerms:
    """``sigma_terms`` at the points Y (P, k), with kappa on demand: one
    evaluation of each of mu, sigma and (if read) kappa, one SVD of sigma
    (none for a constant one).

    Raises
    ------
    SingularModelError
        As ``sigma_terms``.
    """
    Y = np.atleast_2d(Y)
    return MarketTerms(spec, Y, *sigma_terms(spec, Y))


def sharpe_ratio(spec: ModelSpec, y) -> np.ndarray:
    """Market price of risk lambda(y) at one point; the one-row view of
    ``sharpe_ratio_batch``."""
    return sharpe_ratio_batch(spec, np.asarray(y, dtype=float).reshape(1, -1))[0]


def sharpe_ratio_batch(spec: ModelSpec, Y: np.ndarray) -> np.ndarray:
    """Market price of risk lambda(y) = (sigma(y)^T)^- mu(y) at points (P, k).

    Uses the Moore-Penrose pseudoinverse (SVD, relative cutoff 1e-12); for
    full-column-rank sigma this coincides with sigma (sigma^T sigma)^{-1} mu.
    Returns shape (P, d_W); the last term of ``sigma_terms``.

    Raises
    ------
    SingularModelError
        If sigma(y) has rank below n at some point of Y.
    """
    return sigma_terms(spec, Y)[3]


def generator_coefficients(spec: ModelSpec, rp: RiskParams) -> GeneratorCoefficients:
    """Closures (a, b, P) of the linear operator attached to (spec, rp), and
    the factor volatility kappa with a = kappa^T kappa."""
    Gamma, q = rp.Gamma, rp.q
    rho = spec.rho

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

    return GeneratorCoefficients(k=spec.k, a=_one_row(a_batch), b=_one_row(b_batch),
                                 P=_one_row(P_batch), a_batch=a_batch,
                                 b_batch=b_batch, P_batch=P_batch,
                                 kappa_batch=spec.kappa.batch)


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
    sv_excess = float(max(0.0, sv[0] - 1.0, -sv[-1])) if sv.size else 0.0
    checks.append(CheckResult("rho_singular_values", sv_excess <= 1e-12, sv_excess,
                              f"singular values in [{sv[-1]:.6g}, {sv[0]:.6g}]" if sv.size else ""))

    sig = spec.sigma.batch(grid)                           # (P, d_W, n)
    pinv, rank = _pinv_and_rank(sig)
    range_res = np.linalg.norm(sig @ (pinv @ spec.rho) - spec.rho, axis=(1, 2))
    worst_range = float(np.max(range_res))

    gen = generator_coefficients(spec, rp)
    a = gen.a_batch(grid)                                  # (P, k, k)
    worst_ell = float(np.min(np.linalg.eigvalsh(a)[:, 0]))

    # b and P need lambda, which is undefined where sigma(y) has rank < n.
    singular = rank < spec.n
    ok = grid[~singular]
    a, b, P = a[~singular], gen.b_batch(ok), gen.P_batch(ok)
    sup_a, sup_b, sup_P = (float(np.max(np.abs(v), initial=0.0)) for v in (a, b, P))
    finite = bool(not np.any(singular) and np.all(np.isfinite(a))
                  and np.all(np.isfinite(b)) and np.all(np.isfinite(P)))
    detail = f"sup|a|={sup_a:.6g}, sup|b|={sup_b:.6g}, sup|P|={sup_P:.6g}"
    if np.any(singular):
        first = grid[np.argmax(singular)]
        detail += (f"; sigma(y) rank < n={spec.n} at {int(np.sum(singular))} of "
                   f"{grid.shape[0]} points, first y={np.array2string(first, precision=6)}")

    checks.append(CheckResult("rho_range_condition", worst_range <= 1e-10, worst_range,
                              "max ||sigma sigma^- rho - rho|| over grid"))
    checks.append(CheckResult("ellipticity", worst_ell > 0.0, worst_ell,
                              "min eigenvalue of kappa^T kappa over grid"))
    checks.append(CheckResult("boundedness", finite, max(sup_a, sup_b, sup_P), detail))
    return ValidationReport(tuple(checks))
