import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpplab.errors import DimensionError, SingularProjectionError
from fpplab.eve import P_NORMS, project_eve, select_p


def _random_orthonormal(rng, d_w, d_b):
    q, _ = np.linalg.qr(rng.normal(size=(d_w, d_b)))
    return q[:, :d_b]


def _grid_norm(theta, p, norm):
    diff = theta - p
    if norm == "operator":
        return np.max(np.abs(diff))
    if norm == "frobenius":
        return np.sqrt(np.sum(diff ** 2))
    return np.sum(np.abs(diff))


def _grid_minimizers(theta, norm, step=1e-4):
    """Brute-force minimizer set of |diag(theta) - p I| over p in [0, 1]."""
    ps = np.arange(0.0, 1.0 + step / 2, step)
    vals = np.array([_grid_norm(theta, p, norm) for p in ps])
    return ps[vals <= vals.min() + 1e-12]


# ---------------------------------------------------------------------------
# project_eve
# ---------------------------------------------------------------------------

def test_project_identity_scaled_is_fixed_point():
    proj = project_eve(0.6 * np.eye(2))
    assert proj.r_star == pytest.approx(0.6, abs=1e-14)
    np.testing.assert_allclose(proj.Q_star, np.eye(2), atol=1e-12)
    assert proj.frobenius_distance <= 1e-14


def test_project_diagonal_averages_singular_values():
    # SVD oracle: singular values of diag(0.8, 0.4) are 0.8 and 0.4.
    proj = project_eve(np.diag([0.8, 0.4]))
    assert proj.r_star == pytest.approx(0.6, abs=1e-14)
    np.testing.assert_allclose(proj.Q_star, np.eye(2), atol=1e-12)


def test_project_beats_random_candidates():
    # Random-search minimization oracle: no feasible r Q comes closer.
    rng = np.random.default_rng(42)
    rho = rng.uniform(-0.5, 0.5, size=(4, 2))
    proj = project_eve(rho)
    for _ in range(200):
        r = rng.uniform(0.0, 1.0)
        q = _random_orthonormal(rng, 4, 2)
        assert proj.frobenius_distance <= np.linalg.norm(rho - r * q) + 1e-12


def test_project_orthonormality_invariants():
    rng = np.random.default_rng(5)
    for _ in range(10):
        rho = rng.uniform(-0.45, 0.45, size=(5, 3))
        proj = project_eve(rho)
        qtq = proj.Q_star.T @ proj.Q_star
        assert np.linalg.norm(qtq - np.eye(3)) <= 1e-10
        m = proj.matrix()
        np.testing.assert_allclose(m.T @ m, proj.r_star ** 2 * np.eye(3), atol=1e-10)


def test_project_idempotent_on_own_output():
    rng = np.random.default_rng(9)
    rho = rng.uniform(-0.4, 0.4, size=(4, 2))
    proj = project_eve(rho)
    again = project_eve(proj.matrix())
    assert abs(again.r_star - proj.r_star) <= 1e-10
    np.testing.assert_allclose(again.Q_star, proj.Q_star, atol=1e-10)
    assert again.frobenius_distance <= 1e-10


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), r=st.floats(0.05, 1.0))
def test_project_recovers_exact_eve_matrices(seed, r):
    rng = np.random.default_rng(seed)
    q = _random_orthonormal(rng, 5, 2)
    proj = project_eve(r * q)
    assert abs(proj.r_star - r) <= 1e-10
    np.testing.assert_allclose(proj.Q_star, q, atol=1e-9)
    assert proj.frobenius_distance <= 1e-10


def test_project_clamps_r_to_unit_interval():
    # Unconstrained minimizer exceeds 1; quadratic in r is convex, so the
    # constrained optimum sits at the boundary and is reported as clamped.
    inside = project_eve(np.eye(2) * 0.999)
    assert not inside.clamped
    stretched = project_eve(np.vstack([np.eye(2), np.eye(2)]) * 0.9)
    assert stretched.r_unconstrained > 1.0
    assert stretched.r_star == 1.0
    assert stretched.clamped


def test_project_dimension_and_rank_errors():
    with pytest.raises(DimensionError):
        project_eve(np.ones((2, 3)) * 0.1)
    with pytest.raises(SingularProjectionError):
        project_eve(np.array([[0.5, 0.5], [0.5, 0.5], [0.0, 0.0]]))


@pytest.mark.parametrize("eps", [1e-7, 1e-8, 1e-11])
def test_project_ill_conditioned_full_rank_is_orthonormal(eps):
    # Smallest singular value ~ eps / sqrt(2), above the 1e-12 floor; forming
    # rho^T rho would square the condition number and lose Q's orthonormality.
    rho = np.array([[1.0, 1.0], [0.0, eps], [0.0, 0.0]])
    proj = project_eve(rho)
    q = proj.Q_star
    assert np.max(np.abs(q.T @ q - np.eye(2))) <= 1e-14
    # Q is the polar factor: Q^T rho is symmetric positive semi-definite.
    h = q.T @ rho
    np.testing.assert_allclose(h, h.T, atol=1e-14)
    assert np.min(np.linalg.eigvalsh((h + h.T) / 2)) >= -1e-14
    assert proj.r_star == pytest.approx(np.mean(np.linalg.svd(rho, compute_uv=False)))


# ---------------------------------------------------------------------------
# select_p
# ---------------------------------------------------------------------------

def test_select_p_matches_grid_search_oracle():
    theta = np.array([0.1, 0.2, 0.9])
    rho = np.diag(np.sqrt(theta))
    expected = {"operator": 0.5, "frobenius": 0.4, "trace": 0.2}
    for norm in P_NORMS:
        p = select_p(rho, norm)
        assert p == pytest.approx(expected[norm], abs=1e-12)
        minimizers = _grid_minimizers(theta, norm)
        assert np.min(np.abs(minimizers - p)) <= 1e-4 + 1e-9


def test_select_p_exact_eve_input():
    rho = np.sqrt(0.3) * np.eye(3)
    for norm in P_NORMS:
        assert select_p(rho, norm) == pytest.approx(0.3, abs=1e-14)


def test_select_p_trace_even_count_midpoint():
    # Any p in [0.2, 0.8] minimizes the trace norm; the midpoint is returned.
    theta = np.array([0.2, 0.8])
    rho = np.diag(np.sqrt(theta))
    p = select_p(rho, "trace")
    assert p == pytest.approx(0.5, abs=1e-14)
    minimizers = _grid_minimizers(theta, "trace")
    assert minimizers.min() <= p <= minimizers.max()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_select_p_lies_between_extreme_eigenvalues(seed):
    rng = np.random.default_rng(seed)
    rho = rng.uniform(-0.4, 0.4, size=(4, 3))
    theta = np.sort(np.linalg.svd(rho, compute_uv=False) ** 2)
    for norm in P_NORMS:
        p = select_p(rho, norm)
        assert theta[0] - 1e-12 <= p <= theta[-1] + 1e-12


def test_select_p_frobenius_equals_r_star_squared_iff_equal_spectrum():
    # Equal eigenvalues: equality holds.
    rho_eq = 0.5 * np.eye(3)
    assert select_p(rho_eq, "frobenius") == pytest.approx(
        project_eve(rho_eq).r_star ** 2, abs=1e-14)
    # Distinct eigenvalues: mean of squares strictly exceeds squared mean,
    # confirmed against the brute-force grid minimizer.
    rho_neq = np.diag([0.9, 0.3])
    p = select_p(rho_neq, "frobenius")
    r2 = project_eve(rho_neq).r_star ** 2
    assert p > r2 + 1e-6
    assert np.min(np.abs(_grid_minimizers(np.array([0.81, 0.09]), "frobenius") - p)) <= 1e-4


def test_select_p_rejects_bad_norm_and_scale():
    with pytest.raises(ValueError):
        select_p(0.5 * np.eye(2), "nuclear")
    with pytest.raises(ValueError):
        select_p(1.5 * np.eye(2), "frobenius")
