import numpy as np
import pytest

from fpplab.model import (Box, ConstantField, GeneratorCoefficients, GridField,
                          ModelSpec, RiskParams)
from fpplab import affine


def make_heat_generator():
    """Generator of (1/2) d2/dy2 on R: a = 1, b = 0, P = 0, k = 1."""
    return GeneratorCoefficients(
        k=1,
        a=lambda y: np.array([[1.0]]),
        b=lambda y: np.array([0.0]),
        P=lambda y: 0.0,
        a_batch=lambda Y: np.ones((np.atleast_2d(Y).shape[0], 1, 1)),
        b_batch=lambda Y: np.zeros((np.atleast_2d(Y).shape[0], 1)),
        P_batch=lambda Y: np.zeros(np.atleast_2d(Y).shape[0]))


def make_scalar_model(mu=0.06, sigma=0.2, alpha=0.0, kappa=1.0, rho=0.0):
    """One stock, one factor, everything constant."""
    return ModelSpec(
        n=1, k=1, d_W=1, d_B=1, d_Wperp=1,
        mu=ConstantField([mu]), sigma=ConstantField([[sigma]]),
        alpha=ConstantField([alpha]), kappa=ConstantField([[kappa]]),
        rho=np.array([[rho]]), domain=Box([-np.inf], [np.inf]))


def make_rank_deficient_grid_model():
    """Two stocks, one factor on [0, 2], tabulated sigma of full rank for
    y < 1 and rank 1 for y >= 1 (its second row vanishes there)."""
    sigma = np.array([np.eye(2), [[1.0, 1.0], [0.0, 0.0]], [[2.0, 2.0], [0.0, 0.0]]])
    return ModelSpec(
        n=2, k=1, d_W=2, d_B=1, d_Wperp=1,
        mu=ConstantField([0.1, 0.1]), sigma=GridField([[0.0, 1.0, 2.0]], sigma),
        alpha=ConstantField([0.0]), kappa=ConstantField([[0.1]]),
        rho=np.zeros((2, 1)), domain=Box([0.0], [2.0]))


@pytest.fixture
def heat_gen():
    return make_heat_generator()


@pytest.fixture
def canonical_1f():
    """Standard one-factor affine market: (market, spec, rp)."""
    rp = RiskParams(gamma=2.0, p=0.25)
    market, spec = affine.canonical_affine_market(
        M=[[-0.5]], w=[0.4], L=[0.2], Lambda=[0.25], lambda0=0.05,
        H=[-0.3], rp=rp)
    return market, spec, rp


@pytest.fixture
def low_noise_1f():
    """Low-Sharpe instance used for the statistical certifications."""
    rp = RiskParams(gamma=2.5, p=0.25)
    market, spec = affine.canonical_affine_market(
        M=[[-0.5]], w=[0.4], L=[0.1], Lambda=[0.01], lambda0=0.0025,
        H=[-0.1], rp=rp)
    return market, spec, rp


@pytest.fixture
def canonical_2f():
    """Two-factor diagonal affine market: (market, spec, rp)."""
    rp = RiskParams(gamma=2.0, p=0.25)
    market, spec = affine.canonical_affine_market(
        M=[[-0.5, 0.0], [0.0, -0.8]], w=[0.4, 0.5], L=[0.2, 0.15],
        Lambda=[0.16, 0.09], lambda0=0.04, H=[-0.3, 0.2], rp=rp)
    return market, spec, rp
