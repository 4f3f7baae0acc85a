"""Projection of correlation estimates onto the scaled-orthonormal manifold.

A noisy d_W x d_B estimate rho_hat of the stock-factor correlation is replaced
by the closest (Frobenius) matrix of the form r*Q with r in [0, 1] and Q having
orthonormal columns, so that (rQ)^T(rQ) = r^2 I.  The scalar p, which governs
the distortion power q = 1/(1 + Gamma p), is chosen by matching rho_hat^T
rho_hat to p*I in a selectable matrix norm.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, SingularProjectionError
from .model import Fields, reals

_SV_FLOOR = 1e-12

P_NORMS = ("operator", "frobenius", "trace")


@dataclass(frozen=True)
class EveProjection(Fields):
    """Best scaled-orthonormal approximation r*Q* of a correlation estimate.

    ``r_unconstrained`` records the minimizer of the convex quadratic in r
    before clamping to [0, 1]; ``r_star`` is the clamped value actually used.
    """

    r_star: float
    Q_star: np.ndarray
    frobenius_distance: float
    r_unconstrained: float

    @property
    def clamped(self) -> bool:
        return self.r_star != self.r_unconstrained

    def matrix(self) -> np.ndarray:
        return self.r_star * self.Q_star

    def to_json(self):
        return {**super().to_json(), "clamped": self.clamped}


def project_eve(rho_hat: np.ndarray) -> EveProjection:
    """Minimize ||rho_hat - r Q||_F over r in [0, 1] and Q^T Q = I.

    The optimizers are r = (mean of the singular values of rho_hat), clamped
    to [0, 1], and Q = U V^T, the polar factor of the thin SVD
    rho_hat = U S V^T (equal to rho_hat (rho_hat^T rho_hat)^{-1/2}, which
    would square the condition number if formed).

    Raises
    ------
    DimensionError
        If rho_hat has fewer rows than columns.
    SingularProjectionError
        If the smallest singular value of rho_hat is at most 1e-12.
    """
    rho_hat = np.atleast_2d(reals(rho_hat, "rho_hat"))
    d_w, d_b = rho_hat.shape
    if d_w < d_b:
        raise DimensionError(f"need d_W >= d_B, got {d_w} < {d_b}")

    u, sv, vt = np.linalg.svd(rho_hat, full_matrices=False)
    if sv[-1] <= _SV_FLOOR:
        raise SingularProjectionError(
            f"smallest singular value {sv[-1]:.3e} <= {_SV_FLOOR:g}")

    q_star = u @ vt
    r_unc = float(np.mean(sv))
    r_star = float(np.clip(r_unc, 0.0, 1.0))
    dist = float(np.linalg.norm(rho_hat - r_star * q_star))
    return EveProjection(r_star=r_star, Q_star=q_star,
                         frobenius_distance=dist, r_unconstrained=r_unc)


def select_p(rho_hat: np.ndarray, norm: str = "frobenius") -> float:
    """Scalar p minimizing ||rho_hat^T rho_hat - p I|| in the given norm.

    With theta_1 <= ... <= theta_{d_B} the eigenvalues of rho_hat^T rho_hat
    (squared singular values of rho_hat):

    * ``operator`` : (theta_1 + theta_{d_B}) / 2
    * ``frobenius``: mean(theta)
    * ``trace``    : median(theta); for even d_B the midpoint of the two
      central values (any point between them is also a minimizer).
    """
    if norm not in P_NORMS:
        raise ConfigError(f"norm must be one of {P_NORMS}, got '{norm}'")
    rho_hat = np.atleast_2d(reals(rho_hat, "rho_hat"))
    sv = np.linalg.svd(rho_hat, compute_uv=False)
    if sv.size and sv[0] > 1.0 + 1e-10:
        raise ConfigError(f"rho_hat has singular value {sv[0]:.6g} > 1")
    theta = np.sort(sv ** 2)
    if norm == "operator":
        return float((theta[0] + theta[-1]) / 2.0)
    if norm == "frobenius":
        return float(np.mean(theta))
    return float(np.median(theta))
