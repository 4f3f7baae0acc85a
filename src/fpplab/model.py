"""Market/factor model specifications and derived generator quantities.

A model couples n stock price processes, driven by a d_W-dimensional Brownian
motion W, with a k-dimensional factor diffusion Y driven by a d_B-dimensional
Brownian motion B correlated with W through a constant matrix rho.  Stock
drift/volatility and factor drift/volatility are functions of the factor
state, supplied either as parametric coefficient fields or tabulated grids.
A ``ModelSpec`` states no dimension: k is its domain's, (d_W, d_B) is the
shape of rho and n is the column count of sigma(y).  Its JSON form is its
six fields (mu, sigma, alpha, kappa, rho, domain); a file of an earlier
version that also states the dimensions still loads when they agree.

``market_terms`` is the one evaluator of the market at a stack of states:
mu, sigma, sigma^-, lambda and, lazily (see ``MarketTerms``), alpha and kappa.
The Euler step, pi* and the verification residuals read them from it.

Every JSON file of the package is read by ``read_json`` and written by
``write_json`` in one format: indent 2, keys sorted, no trailing newline.

Every constructor and public entry point reads its input through one of
four gates: numbers through ``reals`` (no string, null, bool, ragged list,
NaN or +-inf; with ``positive``, no entry <= 0), factor states, one (k,) or
a stack (P, k), through ``states``, times, one or a 1-D list kept in
[0, horizon], through ``instants`` (both call ``reals``) and counts and
seeds through ``integer``.  The JSON readers hand raw values on to the
constructor that gates them.  ``market_terms``,
``CoefficientField.batch``, the generator's closures and ``coefficients``,
``Strategy.allocations`` and ``log_gradient`` take no gate: the Euler loop
calls them every step on states and times it built, and ``require_shape``
alone checks a computed stack there.  ``Box`` alone allows +-inf (null in
JSON); its reader sends every other entry through ``reals``, and it
refuses NaN.

The module also derives the second-order linear operator

    L = (1/2) sum_ij a_ij(y) d2/dy_i dy_j + sum_i b_i(y) d/dy_i + P(y)

with a = kappa^T kappa, b = alpha + Gamma kappa^T rho^T lambda and
P = (Gamma / 2q) lambda^T lambda, which drives every construction and
verification routine downstream.
"""
from __future__ import annotations

import json
import reprlib
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from functools import cached_property
from numbers import Real
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


def integer(value, what: str, least: int | None = None) -> int:
    """The count or seed ``value`` of a caller, an integer or an integral
    float such as 5000.0 (not a bool), as an int; a ``ConfigError`` naming
    ``what`` for anything else ("n_paths must be an integer, got 2.5") and
    for a value below ``least`` ("n_buckets must be >= 1, got 0")."""
    if isinstance(value, bool) or not isinstance(value, Real) or not float(value).is_integer():
        raise ConfigError(f"{what} must be an integer, got {reprlib.repr(value)}")
    if least is not None and value < least:
        raise ConfigError(f"{what} must be >= {least}, got {int(value)}")
    return int(value)


def require_list(data: dict, key: str, what: str) -> list:
    """``data[key]``, which must be a JSON list."""
    value = data[key]
    if not isinstance(value, list):
        raise ConfigError(f"{what}: field '{key}' must be a list")
    return value


def require_shape(a, shape: tuple, what: str = "y", owner: str = "model") -> None:
    """Raise ``ConfigError`` unless ``a`` has ``shape``, whose last entry is
    the factor count k of the ``owner``; the message names both, as in
    "y has shape (3,); the model has k=2 factors"."""
    if np.shape(a) != shape:
        raise ConfigError(f"{what} has shape {np.shape(a)}; the {owner} has k={shape[-1]} factors")


def _holds_bool(value) -> bool:
    return (any(map(_holds_bool, value)) if isinstance(value, (list, tuple))
            else isinstance(value, (bool, np.bool_)))


def reals(value, what: str, scalar: bool = False, positive: bool = False):
    """``value`` as a float array, or as a float for one number; a
    ``ConfigError`` naming ``what`` for a string, a null, a bool, a ragged
    list, NaN or +-inf in it, with ``scalar`` for more than one number, and
    with ``positive`` for an entry <= 0 ("dt must be positive, got 0.0").
    A stack of states (ndim > 1) is named by its first row that is not
    finite, as in "y[1] must be finite, got [inf, 0.5]"."""
    try:
        arr = np.asarray(value)
    except ValueError:      # a ragged list
        arr = np.asarray(None)
    if arr.dtype.kind not in "iuf" or (scalar and arr.ndim) or _holds_bool(value):
        form = "a number" if scalar else "a number or a rectangular list of numbers"
        raise ConfigError(f"{what} must be {form}, got {reprlib.repr(value)}")
    arr = arr.astype(float, copy=False)
    finite = np.isfinite(arr)
    if not finite.all():
        if arr.ndim > 1:
            row = int(np.argmin(finite.reshape(len(arr), -1).all(axis=1)))
            what, arr = f"{what}[{row}]", arr[row]
        raise ConfigError(f"{what} must be finite, got {arr.tolist()}")
    if positive and not (arr > 0).all():
        raise ConfigError(f"{what} must be positive, got {arr.tolist()}")
    return float(arr) if arr.ndim == 0 else arr


def instants(t, what: str = "t", horizon: float = np.inf, scalar: bool = False,
             positive: bool = False):
    """The times ``t``, one or a 1-D list, read through ``reals``, in
    [0, horizon]: one within 1e-12 outside an end is that end, any other is
    refused naming ``what`` and the interval, as in "t must lie in [0, 1],
    got 1.2"."""
    T = reals(t, what, scalar, positive)
    if np.ndim(T) > 1:
        raise ConfigError(f"{what} must be one time or a list of times, got shape {np.shape(T)}")
    one = isinstance(T, float)
    lo, hi = (T, T) if one else (T.min(initial=0.0), T.max(initial=0.0))
    if not (-1e-12 <= lo and hi <= horizon + 1e-12):
        raise ConfigError(f"{what} must lie in [0, {horizon:g}], got {lo if lo < -1e-12 else hi}")
    return min(max(T, 0.0), horizon) if one else np.clip(T, 0.0, horizon)


def states(y, k: int, what: str = "y", owner: str = "model", start: Box | None = None):
    """``(Y, one)``: the states ``y``, one (k,) or a stack (P, k), read through
    ``reals`` as a stack Y, (1, k) for one state, which sets ``one``; with
    ``start``, one state inside that box.  Other shapes are refused."""
    Y = np.asarray(reals(y, what))
    require_shape(Y, (len(Y), k) if Y.ndim == 2 and start is None else (k,), what, owner)
    if start is not None and not start.contains(Y):
        raise ConfigError(f"{what} {Y.tolist()} lies outside the domain {start}")
    return (Y[None], True) if Y.ndim == 1 else (Y, False)


def _json_keys(cls):
    """Keys of the JSON form of ``cls`` in order, written and read alike: the
    ``params`` it declares or else its dataclass fields that its constructor
    takes."""
    return getattr(cls, "params", None) or [f.name for f in fields(cls) if f.init]


def plain(value):
    """JSON form of a value: arrays and tuples become lists, objects with a
    ``to_json`` give theirs (a ``Fields`` one its ``_json_keys``, the list
    ``from_params`` reads back), anything else is returned as is."""
    if hasattr(value, "to_json"):
        return value.to_json()
    if isinstance(value, tuple):
        return [plain(v) for v in value]
    return value.tolist() if isinstance(value, np.ndarray) else value


def from_params(cls, data: dict, what: str, **extra):
    """``cls(**data[keys], **extra)`` for the ``_json_keys`` of ``cls``, the
    key list that ``Fields.to_json`` writes.  A key whose dataclass field has
    a default may be absent; the constructor gates every value."""
    keys = _json_keys(cls)
    optional = ({f.name for f in fields(cls) if f.default is not MISSING}
                if is_dataclass(cls) else ())
    require(data, [key for key in keys if key not in optional], what)
    return cls(**{key: data[key] for key in keys if key in data}, **extra)


def read_json(path):
    """The JSON value in the file at ``path``."""
    with open(path) as fh:
        return json.load(fh)


def write_json(path, payload):
    """Write ``payload`` to the file at ``path`` and return ``path``."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    return path


class Fields:
    """The one JSON encoder: each of the class's ``_json_keys`` through
    ``plain``, the key list ``from_params`` reads back.  A form that differs
    overrides ``to_json`` over ``super().to_json()``.  ``save`` writes the
    form to a file, ``load`` reads it back through the class's ``from_json``."""

    def to_json(self) -> dict:
        return {key: plain(getattr(self, key)) for key in _json_keys(type(self))}

    def save(self, path):
        write_json(path, self.to_json())

    @classmethod
    def load(cls, path):
        return cls.from_json(read_json(path))


# ---------------------------------------------------------------------------
# Coefficient fields
# ---------------------------------------------------------------------------

class CoefficientField(Fields):
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
        return {"family": self.family, **super().to_json()}

    @staticmethod
    def from_json(data: dict) -> "CoefficientField":
        require(data, ["family"], "coefficient field")
        family = data["family"]
        cls = _FIELD_FAMILIES.get(family) if isinstance(family, str) else None
        if cls is None:
            raise ConfigError(f"coefficient field: unknown family {family!r}")
        return from_params(cls, data, f"{cls.family} field")


class ConstantField(CoefficientField):
    """y-independent value (vector or matrix)."""

    family = "constant"
    params = ("value",)

    def __init__(self, value):
        self.value = np.asarray(reals(value, "constant field value"))

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
        self.matrix = np.atleast_2d(reals(matrix, f"{self.family} field matrix"))
        self.offset = np.atleast_1d(reals(offset, f"{self.family} field offset"))
        if self.matrix.shape[0] != self.offset.shape[0]:
            raise ConfigError(f"{self.family} field: matrix rows must match offset length")

    def batch(self, Y):
        return rowwise(self.matrix, np.atleast_2d(Y)) + self.offset


class SqrtAffineField(AffineField):
    """Vector field f_i(y) = sqrt(max(A_i . y + c_i, 0)).

    The clip keeps evaluation finite on the boundary of [0, inf)^k and for
    truncated simulation states that dip marginally below it.
    """

    family = "sqrt_affine"

    def batch(self, Y):
        return np.sqrt(np.maximum(rowwise(self.matrix, np.atleast_2d(Y)) + self.offset, 0.0))


class SqrtDiagField(CoefficientField):
    """Square matrix field f(y) = diag(sqrt(max(s_i y_i, 0))).

    The canonical volatility structure of non-negative affine factor models:
    f(y)^T f(y) = diag(s_i y_i).
    """

    family = "sqrt_diag"
    params = ("scale",)

    def __init__(self, scale):
        self.scale = np.atleast_1d(reals(scale, "sqrt_diag field scale", positive=True))

    def batch(self, Y):
        Y = np.atleast_2d(Y)
        vals = np.sqrt(np.maximum(Y * self.scale, 0.0))  # (P, k)
        out = np.zeros(Y.shape + (Y.shape[1],), order="F")
        for i in range(Y.shape[1]):
            out[:, i, i] = vals[:, i]
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

        if not isinstance(axes, (list, tuple, np.ndarray)):
            raise ConfigError(f"grid field axes must be a list of axes, got {reprlib.repr(axes)}")
        self.axes = tuple(reals(ax, "grid field axes") for ax in axes)
        self.values = np.asarray(reals(values, "grid field values"))
        k = len(self.axes)
        self.out_shape = self.values.shape[k:]
        self._interp = RegularGridInterpolator(
            self.axes, self.values, method="linear", bounds_error=False, fill_value=None)

    def batch(self, Y):
        return np.asfortranarray(self._interp(np.atleast_2d(Y)))


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
        if not np.all(self.lower < self.upper):     # false for NaN
            raise ConfigError("box: lower bounds must be strictly below upper bounds")

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    # contains, clip and reflect loop over the k columns: on short rows that
    # is several times faster than broadcasting over a last axis of length k.

    def __str__(self):
        return " x ".join(f"[{lo:g}, {hi:g}]" for lo, hi in zip(self.lower, self.upper))

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
            col = y[..., i]
            if lo > -np.inf:
                np.maximum(col, lo, out=col)
            if hi < np.inf:
                np.minimum(col, hi, out=col)
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
        [-GRID_SPAN/2, GRID_SPAN/2] for a doubly infinite axis.  The count
        ``points_per_dim`` (>= 1) is read through ``integer``."""
        points_per_dim = integer(points_per_dim, "points_per_dim", least=1)
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
        def dec(key, sign):
            return [sign * np.inf if v is None else reals(v, f"domain {key}", scalar=True)
                    for v in require_list(data, key, "domain")]
        require(data, ["lower", "upper"], "domain")
        return Box(dec("lower", -1), dec("upper", +1))


# ---------------------------------------------------------------------------
# Model specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelSpec(Fields):
    """Coefficient functions of the market/factor diffusion.

    dS^i/S^i = mu_i(Y) dt + (sigma(Y)^T dW)_i      (stocks,   i = 1..n)
    dY       = alpha(Y) dt + kappa(Y)^T dB          (factors,  in D)
    B        = rho^T W + A^T Wperp,  A = (I - rho^T rho)^{1/2},

    with Wperp a d_B-dimensional Brownian motion independent of W.  The
    dimensions are read off the fields, never stated: k is ``domain.dim``,
    (d_W, d_B) is ``rho.shape`` and n is the column count of sigma(y) at the
    domain's interior point ``domain.interior_grid(points_per_dim=1)``.
    There each field is evaluated once and must have its shape, mu: (n,),
    sigma: (d_W, n), alpha: (k,), kappa: (d_B, k); d_W >= n is required too.

    The JSON form is the six fields.  A file that also carries n, k, d_W,
    d_B or d_Wperp, as earlier versions wrote, loads when each is an integer
    equal to the value read off the fields (d_Wperp to d_B's).
    """

    mu: CoefficientField
    sigma: CoefficientField
    alpha: CoefficientField
    kappa: CoefficientField
    rho: np.ndarray
    domain: Box
    n: int = field(init=False)

    def __post_init__(self):
        rho = np.atleast_2d(reals(self.rho, "model spec rho"))
        object.__setattr__(self, "rho", rho)
        if rho.ndim != 2:
            raise ConfigError(f"model spec: rho has shape {rho.shape}, not (d_W, d_B)")
        y = self.domain.interior_grid(points_per_dim=1)[0]
        try:
            got = {"sigma": np.shape(self.sigma(y)), "mu": np.shape(self.mu(y)),
                   "alpha": np.shape(self.alpha(y)), "kappa": np.shape(self.kappa(y))}
        except ValueError as exc:     # e.g. an affine matrix whose width is not k
            raise ConfigError(f"model spec: the fields cannot be evaluated at "
                              f"y={y.tolist()} of the domain (k={self.k}): {exc}") from None
        if len(got["sigma"]) != 2 or got["sigma"][0] != self.d_W:
            raise ConfigError(f"model spec: sigma(y) has shape {got['sigma']}, "
                              f"not (d_W, n) = ({self.d_W}, n)")
        object.__setattr__(self, "n", got["sigma"][1])
        for name, form, want in (("mu", "(n,)", (self.n,)), ("alpha", "(k,)", (self.k,)),
                                 ("kappa", "(d_B, k)", (self.d_B, self.k))):
            if got[name] != want:
                raise ConfigError(f"model spec: {name}(y) has shape {got[name]}, "
                                  f"not {form} = {want}")
        if self.d_W < self.n:
            raise ConfigError(f"d_W={self.d_W} must be >= n={self.n}")
        sv = np.linalg.svd(rho, compute_uv=False)
        if sv.size and sv[0] > 1.0 + 1e-10:
            raise ConfigError(f"rho has singular value {sv[0]:.6g} > 1")

    @property
    def k(self) -> int:
        return self.domain.dim

    @property
    def d_W(self) -> int:
        return self.rho.shape[0]

    @property
    def d_B(self) -> int:
        return self.rho.shape[1]

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

    @staticmethod
    def from_json(data: dict) -> "ModelSpec":
        require(data, _json_keys(ModelSpec), "model spec")
        coefficients = {}
        for key in ("mu", "sigma", "alpha", "kappa"):
            try:
                coefficients[key] = CoefficientField.from_json(data[key])
            except ConfigError as exc:
                raise ConfigError(f"model spec {key}: {exc}") from None
        spec = ModelSpec(**coefficients, rho=data["rho"], domain=Box.from_json(data["domain"]))
        # Dimension keys of files written by earlier versions.
        for key, dim in (("n", "n"), ("k", "k"), ("d_W", "d_W"), ("d_B", "d_B"),
                         ("d_Wperp", "d_B")):
            if key in data and (integer(data[key], f"model spec field '{key}'")
                                != getattr(spec, dim)):
                raise ConfigError(f"model spec: field '{key}' is {data[key]}, but the fields "
                                  f"give {dim}={getattr(spec, dim)}")
        return spec


@dataclass(frozen=True)
class RiskParams:
    """Risk aversion gamma and correlation-strength scalar p.

    The derived quantities Gamma = (1 - gamma)/gamma and q = 1/(1 + Gamma p)
    are always recomputed; they are never stored independently.
    """

    gamma: float
    p: float = 0.0

    def __post_init__(self):
        for key in ("gamma", "p"):
            object.__setattr__(self, key, reals(getattr(self, key), key, scalar=True))
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
    """Coefficients (a, b, P) of the second-order linear operator.

    a(y) = kappa^T kappa                 (k x k diffusion matrix)
    b(y) = alpha + Gamma kappa^T rho^T lambda   (k drift)
    P(y) = (Gamma / 2q) lambda^T lambda  (scalar potential)

    ``coefficients(Y)`` gives (a, b, P, kappa) at a stack of states (P, k).
    For a generator built by ``generator_coefficients`` it is one evaluation
    of the market (one ``market_terms``, one kappa, one alpha) through
    ``fused``; the eigenfunction ODE, ``EigenfunctionSelection.defect``,
    ``distortion_roundtrip``, ``feynman_kac_estimate`` and, on the states
    where sigma is regular, ``validate`` read it.  ``b_batch`` and
    ``P_batch`` are views of ``fused``; ``a_batch`` evaluates kappa alone,
    because ``validate`` needs a on states where sigma is singular and
    ``market_terms`` refuses those, and the ODE's positivity check of a on
    its grid reads it too.  ``a``, ``b``, ``P`` are the one-row views of the
    ``*_batch`` closures at a single point (k,), kept for callers.

    A generator given by its closures alone (such as a pure heat operator)
    has no ``fused``: ``coefficients`` then returns the closures' values,
    with kappa None when ``kappa_batch`` is None.  That branch is
    transitional; it goes with the closures once no caller builds a
    generator from them.

    ``kappa_batch`` maps states (P, k) to the factor volatility kappa
    (P, d_B, k), a square root of a = kappa^T kappa that Feynman-Kac steps
    with.  It defaults to None so that a generator given by its six closures
    alone stays valid for every other use; ``feynman_kac_estimate`` refuses
    such a generator.
    """

    k: int
    a: Callable[[np.ndarray], np.ndarray]
    b: Callable[[np.ndarray], np.ndarray]
    P: Callable[[np.ndarray], float]
    a_batch: Callable[[np.ndarray], np.ndarray]
    b_batch: Callable[[np.ndarray], np.ndarray]
    P_batch: Callable[[np.ndarray], np.ndarray]
    kappa_batch: Optional[Callable[[np.ndarray], np.ndarray]] = None
    fused: Optional[Callable[[np.ndarray], tuple]] = None

    def coefficients(self, Y):
        """(a (P, k, k), b (P, k), P (P,), kappa (P, d_B, k) or None) at the
        states Y (P, k)."""
        if self.fused is not None:
            return self.fused(Y)
        return (self.a_batch(Y), self.b_batch(Y), self.P_batch(Y),
                None if self.kappa_batch is None else self.kappa_batch(Y))


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
    # A stack keeps its path axis contiguous, as the other stacks do (``rowwise``).
    return (np.asfortranarray(pinv) if pinv.ndim == 3 else pinv), keep.sum(axis=-1)


def rowwise(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """M_p v_p for each row of v (P, c), where M is one matrix (r, c) shared
    by every row (a single matmul) or a stack (P, r, c).  Returns (P, r).

    The one place that fixes the layout of a contraction over states: the
    result is path-contiguous (its path axis has stride one item) whatever
    the layout of M and v, and its values do not depend on that layout.
    The Euler engine keeps its stacks path-contiguous because their trailing
    axes have length 2 or 3: numpy's inner loops then run over P instead of
    over those short axes."""
    if M.ndim == 2:
        return (M @ np.asfortranarray(v).T).T
    return np.einsum("prc,pc->pr", M, v, order="F")


@dataclass(frozen=True)
class MarketTerms:
    """The market of ``spec`` at a stack of states Y (P, k), each coefficient
    evaluated at most once: mu (P, n), sigma, sigma^-, the market price of
    risk lam = (sigma^T)^- mu (P, d_W), alpha (P, k) and kappa (P, d_B, k).
    A constant sigma is one matrix (d_W, n), factored once per field, with
    sigma^- (n, d_W); otherwise both are stacks (P, d_W, n), (P, n, d_W), and
    ``rowwise`` applies either layout, so readers never branch on it.  alpha
    and kappa are evaluated on first read, because ``admissibility_check``
    under a strategy that ignores the terms reads neither."""

    spec: ModelSpec
    Y: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray
    sigma_pinv: np.ndarray
    lam: np.ndarray

    @cached_property
    def alpha(self) -> np.ndarray:
        return self.spec.alpha.batch(self.Y)

    @cached_property
    def kappa(self) -> np.ndarray:
        return self.spec.kappa.batch(self.Y)


def market_terms(spec: ModelSpec, Y: np.ndarray) -> MarketTerms:
    """The market of ``spec`` at the points Y (P, k), the one evaluator of its
    coefficients: one evaluation of each of mu, sigma and (if read) alpha and
    kappa, one SVD of sigma (none for a constant one).

    Raises
    ------
    SingularModelError
        If sigma(y) has rank below n at some point; the first is named.
    """
    Y = np.atleast_2d(Y)
    const = isinstance(spec.sigma, ConstantField)
    sig = spec.sigma.value if const else spec.sigma.batch(Y)
    pinv, rank = spec.sigma.pinv_and_rank if const else _pinv_and_rank(sig)
    if rank.min(initial=spec.n) < spec.n:
        rank = np.broadcast_to(rank, Y.shape[:1])
        i = int(np.argmax(rank < spec.n))
        raise SingularModelError(
            f"sigma(y) rank {rank[i]} < n={spec.n} at y={np.array2string(Y[i], precision=6)}")
    mu = spec.mu.batch(Y)
    return MarketTerms(spec, Y, mu, sig, pinv, rowwise(np.swapaxes(pinv, -1, -2), mu))


def sharpe_ratio(spec: ModelSpec, y) -> np.ndarray:
    """Market price of risk lambda(y) at one point; the one-row view of
    ``sharpe_ratio_batch``."""
    return sharpe_ratio_batch(spec, np.asarray(y, dtype=float).reshape(1, -1))[0]


def sharpe_ratio_batch(spec: ModelSpec, Y: np.ndarray) -> np.ndarray:
    """Market price of risk lambda(y) = (sigma(y)^T)^- mu(y) at points (P, k).

    Uses the Moore-Penrose pseudoinverse (SVD, relative cutoff 1e-12); for
    full-column-rank sigma this coincides with sigma (sigma^T sigma)^{-1} mu.
    Returns shape (P, d_W); the ``lam`` of ``market_terms``.

    Raises
    ------
    SingularModelError
        If sigma(y) has rank below n at some point of Y.
    """
    return market_terms(spec, Y).lam


def generator_coefficients(spec: ModelSpec, rp: RiskParams) -> GeneratorCoefficients:
    """The generator (a, b, P) of the linear operator attached to (spec, rp)
    and the factor volatility kappa with a = kappa^T kappa, all four from one
    evaluation of the market through ``fused``; ``b_batch`` and ``P_batch``
    are its views, and ``a_batch`` evaluates kappa alone."""
    Gamma, q = rp.Gamma, rp.q
    rho = spec.rho

    def diffusion(kap):
        return np.einsum("pbi,pbj->pij", kap, kap)

    def a_batch(Y):
        return diffusion(spec.kappa.batch(Y))

    # kappa and alpha are evaluated here, not through ``MarketTerms``: on the
    # one-row calls of the eigenfunction ODE that would double their cost.
    def fused(Y):
        kap, lam = spec.kappa.batch(Y), market_terms(spec, Y).lam
        b = spec.alpha.batch(Y) + Gamma * np.einsum("pbk,pb->pk", kap, rowwise(rho.T, lam))
        P = (Gamma / (2.0 * q)) * np.einsum("pw,pw->p", lam, lam)
        return diffusion(kap), b, P, kap

    def b_batch(Y):
        return fused(Y)[1]

    def P_batch(Y):
        return fused(Y)[2]

    return GeneratorCoefficients(k=spec.k, a=_one_row(a_batch), b=_one_row(b_batch),
                                 P=_one_row(P_batch), a_batch=a_batch,
                                 b_batch=b_batch, P_batch=P_batch,
                                 kappa_batch=spec.kappa.batch, fused=fused)


@dataclass(frozen=True)
class CheckResult(Fields):
    name: str
    passed: bool
    worst: float
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport(Fields):
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
        return {**super().to_json(), "passed": self.passed}


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
    grid, _ = states(grid, spec.k, "grid")
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
    _, b, P, _ = gen.coefficients(grid[~singular])
    a = a[~singular]
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
