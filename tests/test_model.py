from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fpplab import model as model_module
from fpplab.errors import ConfigError, SingularModelError
from fpplab.model import (AffineField, Box, CoefficientField, ConstantField, GridField,
                          ModelSpec, RiskParams, SqrtAffineField, SqrtDiagField,
                          generator_coefficients, market_terms, sharpe_ratio,
                          sharpe_ratio_batch, validate)

from conftest import make_rank_deficient_grid_model, make_scalar_model


# ---------------------------------------------------------------------------
# Sharpe ratio
# ---------------------------------------------------------------------------

def test_sharpe_scalar_division():
    model = make_scalar_model(mu=0.06, sigma=0.2)
    lam = sharpe_ratio(model, [0.0])
    assert lam.shape == (1,)
    assert lam[0] == pytest.approx(0.3, abs=1e-15)


def test_sharpe_identity_sigma():
    model = ModelSpec(
        n=2, k=1, d_W=2, d_B=1, d_Wperp=1,
        mu=ConstantField([0.1, 0.2]), sigma=ConstantField(np.eye(2)),
        alpha=ConstantField([0.0]), kappa=ConstantField([[1.0]]),
        rho=np.array([[0.0], [0.0]]), domain=Box([-np.inf], [np.inf]))
    np.testing.assert_allclose(sharpe_ratio(model, [0.0]), [0.1, 0.2], atol=1e-15)


def test_sharpe_matches_normal_equations_oracle():
    # Oracle: least-squares solve of sigma^T lam = mu.
    rng = np.random.default_rng(7)
    for _ in range(20):
        sig = rng.normal(size=(3, 2))
        mu = rng.normal(size=2)
        model = ModelSpec(
            n=2, k=1, d_W=3, d_B=1, d_Wperp=1,
            mu=ConstantField(mu), sigma=ConstantField(sig),
            alpha=ConstantField([0.0]), kappa=ConstantField([[1.0]]),
            rho=np.zeros((3, 1)), domain=Box([-np.inf], [np.inf]))
        lam = sharpe_ratio(model, [0.0])
        oracle = np.linalg.lstsq(sig.T, mu, rcond=None)[0]
        assert np.max(np.abs(lam - oracle)) <= 1e-12


def test_sharpe_rank_deficient_sigma_errors():
    sig = np.array([[1.0, 1.0], [2.0, 2.0], [0.0, 0.0]])  # rank 1 < n = 2
    model = ModelSpec(
        n=2, k=1, d_W=3, d_B=1, d_Wperp=1,
        mu=ConstantField([0.1, 0.1]), sigma=ConstantField(sig),
        alpha=ConstantField([0.0]), kappa=ConstantField([[1.0]]),
        rho=np.zeros((3, 1)), domain=Box([-np.inf], [np.inf]))
    with pytest.raises(SingularModelError, match="y="):
        sharpe_ratio(model, [0.25])


def test_sharpe_rotation_invariance():
    # Left-multiplying sigma by an orthonormal matrix rotates lambda by the
    # same matrix, leaving every sigma^T-contraction unchanged.
    rng = np.random.default_rng(11)
    sig = rng.normal(size=(3, 2))
    mu = rng.normal(size=2)

    def lam_of(s):
        model = ModelSpec(
            n=2, k=1, d_W=3, d_B=1, d_Wperp=1,
            mu=ConstantField(mu), sigma=ConstantField(s),
            alpha=ConstantField([0.0]), kappa=ConstantField([[1.0]]),
            rho=np.zeros((3, 1)), domain=Box([-np.inf], [np.inf]))
        return sharpe_ratio(model, [0.0])

    base = lam_of(sig)
    for _ in range(10):
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        assert np.max(np.abs(lam_of(q @ sig) - q @ base)) <= 1e-10


def test_sharpe_batch_matches_pointwise(canonical_1f):
    market, _, _ = canonical_1f
    Y = np.linspace(0.2, 2.0, 7).reshape(-1, 1)
    batch = sharpe_ratio_batch(market, Y)
    for i, y in enumerate(Y):
        np.testing.assert_allclose(batch[i], sharpe_ratio(market, y), atol=1e-14)


def test_sharpe_batch_rank_deficient_grid_sigma_names_first_bad_point():
    # sigma has rank 1 from y = 1 on; the pseudoinverse must not hide that.
    model = make_rank_deficient_grid_model()
    np.testing.assert_allclose(sharpe_ratio_batch(model, [[0.0], [0.5]]),
                               [[0.1, 0.1], [0.1, 0.1 / 0.5 - 0.1]], atol=1e-14)
    with pytest.raises(SingularModelError, match=r"rank 1 < n=2 at y=\[1.5\]"):
        sharpe_ratio_batch(model, [[0.5], [1.5], [1.8]])
    with pytest.raises(SingularModelError, match=r"y=\[1.2\]"):
        sharpe_ratio(model, [1.2])


def test_constant_sigma_is_factored_once_per_field(monkeypatch):
    rng = np.random.default_rng(3)
    sig, mu = rng.normal(size=(3, 2)), rng.normal(size=2)
    model = ModelSpec(
        n=2, k=1, d_W=3, d_B=1, d_Wperp=1,
        mu=ConstantField(mu), sigma=ConstantField(sig),
        alpha=ConstantField([0.0]), kappa=ConstantField([[1.0]]),
        rho=np.zeros((3, 1)), domain=Box([-np.inf], [np.inf]))
    svds = []
    factor = model_module._pinv_and_rank
    monkeypatch.setattr(model_module, "_pinv_and_rank", lambda m: svds.append(m) or factor(m))
    for Y in ([[0.0]], [[0.5], [1.0]], [[2.0]]):
        np.testing.assert_allclose(sharpe_ratio_batch(model, Y),
                                   np.tile(mu @ np.linalg.pinv(sig), (len(Y), 1)), atol=1e-14)
    assert len(svds) == 1
    pinv, rank = model.sigma.pinv_and_rank
    np.testing.assert_allclose(pinv, np.linalg.pinv(sig), rtol=0, atol=1e-14)
    assert rank == 2
    assert not pinv.flags.writeable


# ---------------------------------------------------------------------------
# Risk parameters
# ---------------------------------------------------------------------------

def test_risk_params_derived_quantities():
    rp = RiskParams(gamma=0.5, p=0.25)
    assert rp.Gamma == pytest.approx(1.0)
    assert rp.q == pytest.approx(0.8)
    assert RiskParams(gamma=2.0, p=0.7).q == pytest.approx(1.0 / (1.0 - 0.5 * 0.7))


def test_risk_params_p_zero_gives_q_one():
    for gamma in (0.5, 2.0, 5.0):
        assert RiskParams(gamma=gamma, p=0.0).q == 1.0


@given(gamma=st.floats(0.01, 0.99), p=st.floats(0.0, 1.0))
def test_risk_params_gamma_below_one(gamma, p):
    rp = RiskParams(gamma=gamma, p=p)
    assert rp.Gamma > 0
    assert 0 < rp.q <= 1.0


@pytest.mark.parametrize("gamma,p", [(1.0, 0.0), (0.0, 0.0), (-2.0, 0.5), (2.0, 1.5)])
def test_risk_params_rejects_bad_inputs(gamma, p):
    with pytest.raises(ConfigError):
        RiskParams(gamma=gamma, p=p)


# ---------------------------------------------------------------------------
# Generator coefficients
# ---------------------------------------------------------------------------

def test_generator_rho_zero_drops_correction():
    model = make_scalar_model(mu=0.3, sigma=1.0, alpha=0.7, kappa=1.0, rho=0.0)
    gen = generator_coefficients(model, RiskParams(gamma=0.5, p=0.0))
    for y in ([-1.0], [0.0], [2.0]):
        np.testing.assert_allclose(gen.b(np.array(y)), [0.7], atol=1e-15)


def test_generator_hand_evaluated_scalar_case():
    # kappa=1, alpha=0, rho=0.5, lambda=0.3, gamma=0.5 (Gamma=1), p=0.25
    # (q=0.8):  b = 0 + 1*1*0.5*0.3 = 0.15,  P = (1/1.6)*0.09 = 0.05625.
    model = make_scalar_model(mu=0.3, sigma=1.0, alpha=0.0, kappa=1.0, rho=0.5)
    gen = generator_coefficients(model, RiskParams(gamma=0.5, p=0.25))
    y = np.array([0.4])
    assert gen.b(y)[0] == pytest.approx(0.15, abs=1e-15)
    assert gen.P(y) == pytest.approx(0.05625, abs=1e-15)
    np.testing.assert_allclose(gen.a(y), [[1.0]], atol=1e-15)


def test_generator_potential_nonpositive_for_gamma_above_one(canonical_1f):
    market, _, _ = canonical_1f
    gen = generator_coefficients(market, RiskParams(gamma=2.0, p=0.25))
    for y in np.linspace(0.0, 3.0, 13):
        assert gen.P(np.array([y])) <= 0.0


def test_generator_small_gamma_distance_limit():
    # Gamma -> 0 (gamma -> 1, excluded; approach by epsilon) gives b -> alpha
    # and P -> 0.
    model = make_scalar_model(mu=0.3, sigma=1.0, alpha=0.7, kappa=1.0, rho=0.5)
    gen = generator_coefficients(model, RiskParams(gamma=1.0 + 1e-8, p=0.5))
    y = np.array([0.0])
    assert abs(gen.b(y)[0] - 0.7) <= 1e-6
    assert abs(gen.P(y)) <= 1e-6


def test_generator_batch_consistency(canonical_1f):
    market, _, rp = canonical_1f
    gen = generator_coefficients(market, rp)
    Y = np.linspace(0.3, 1.8, 5).reshape(-1, 1)
    a_b, b_b, P_b = gen.a_batch(Y), gen.b_batch(Y), gen.P_batch(Y)
    for i, y in enumerate(Y):
        np.testing.assert_allclose(a_b[i], gen.a(y), atol=1e-14)
        np.testing.assert_allclose(b_b[i], gen.b(y), atol=1e-14)
        assert P_b[i] == pytest.approx(gen.P(y), abs=1e-14)


@pytest.mark.parametrize("market_name", ["canonical_1f", "canonical_2f"])
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 10_000))
def test_generator_diffusion_is_kappa_gram(request, market_name, seed):
    # Feynman-Kac steps with kappa^T dB, which has the law of a^{1/2} dB only
    # if a = kappa^T kappa; states include points outside the orthant.
    market, _, rp = request.getfixturevalue(market_name)
    gen = generator_coefficients(market, rp)
    rng = np.random.default_rng(seed)
    Y = rng.uniform(-0.5, 3.0, (int(rng.integers(1, 7)), market.k))
    kap = gen.kappa_batch(Y)
    assert kap.shape == (len(Y), market.d_B, market.k)
    np.testing.assert_allclose(gen.a_batch(Y), np.swapaxes(kap, -1, -2) @ kap,
                               rtol=1e-14, atol=0)


def _field_families():
    """One field of each family over k = 2, keyed by family name."""
    axes = [np.linspace(-1.0, 3.0, 4), np.linspace(-1.0, 3.0, 3)]
    grid_vals = np.random.default_rng(5).normal(size=(4, 3, 2, 2))
    fields = (ConstantField([[1.0, 0.2], [0.0, 0.5]]),
              AffineField([[1.0, -2.0], [0.5, 0.0], [0.0, 0.3]], [0.1, -0.2, 0.0]),
              SqrtAffineField([[0.3, 0.0], [0.0, 0.4]], [0.0, 0.01]),
              SqrtDiagField([0.2, 0.5]),
              GridField(axes, grid_vals))
    return {f.family: f for f in fields}


def _two_factor_market():
    """y-dependent mu, sigma, alpha and kappa with correlated noise; sigma is
    affine in y, tabulated on a grid (exact under multilinear interpolation)
    and of full rank on [0, 3]^2."""
    s0 = np.array([[1.0, 0.0], [0.0, 1.0], [0.1, 0.3]])
    s1 = np.array([[0.5, 0.1], [0.0, -0.2], [0.1, 0.0]])
    s2 = np.array([[0.0, 0.0], [0.3, 0.4], [0.0, 0.2]])
    axis = np.array([0.0, 1.5, 3.0])
    sigma = s0 + axis[:, None, None, None] * s1 + axis[None, :, None, None] * s2
    return ModelSpec(
        n=2, k=2, d_W=3, d_B=2, d_Wperp=2,
        mu=SqrtAffineField([[0.2, 0.0], [0.0, 0.1]], [0.01, 0.02]),
        sigma=GridField([axis, axis], sigma),
        alpha=AffineField([[-0.5, 0.1], [0.0, -0.8]], [0.4, 0.5]),
        kappa=SqrtDiagField([0.2, 0.15]),
        rho=np.array([[0.3, 0.0], [0.0, 0.4], [0.1, 0.1]]),
        domain=Box([0.0, 0.0], [np.inf, np.inf]))


_POINTS = arrays(np.float64, st.tuples(st.integers(1, 6), st.just(2)),
                 elements=st.floats(0.0, 3.0))


@settings(max_examples=40, deadline=None)
@given(Y=_POINTS)
def test_scalar_call_is_batch_row_for_every_field_family(Y):
    fields = _field_families()
    assert set(fields) == {"constant", "affine", "sqrt_affine", "sqrt_diag", "grid"}
    for field in fields.values():
        batch = field.batch(Y)
        for i, y in enumerate(Y):
            np.testing.assert_allclose(field(y), batch[i], rtol=1e-14, atol=1e-14)


@settings(max_examples=40, deadline=None)
@given(Y=_POINTS)
def test_scalar_generator_is_batch_row(Y):
    model = _two_factor_market()
    gen = generator_coefficients(model, RiskParams(gamma=2.0, p=0.25))
    a_b, b_b, P_b = gen.a_batch(Y), gen.b_batch(Y), gen.P_batch(Y)
    lam_b = sharpe_ratio_batch(model, Y)
    for i, y in enumerate(Y):
        np.testing.assert_allclose(gen.a(y), a_b[i], rtol=1e-14, atol=1e-14)
        np.testing.assert_allclose(gen.b(y), b_b[i], rtol=1e-14, atol=1e-14)
        assert gen.P(y) == pytest.approx(P_b[i], rel=1e-14, abs=1e-14)
        np.testing.assert_allclose(sharpe_ratio(model, y), lam_b[i], rtol=1e-14, atol=1e-14)
        # Oracle for lambda: least squares of sigma^T lam = mu.
        oracle = np.linalg.lstsq(model.sigma(y).T, model.mu(y), rcond=None)[0]
        np.testing.assert_allclose(lam_b[i], oracle, atol=1e-12)


# ---------------------------------------------------------------------------
# Layout: stacks keep the path axis contiguous
# ---------------------------------------------------------------------------

def _path_contiguous(a):
    """The path axis (axis 0) has stride one item; one row has no layout."""
    return a.shape[0] < 2 or a.strides[0] == a.itemsize


def _layouts(a):
    return np.ascontiguousarray(a), np.asfortranarray(a)


@settings(max_examples=40, deadline=None)
@given(Y=_POINTS)
def test_every_field_family_gives_the_same_path_contiguous_stack_for_any_layout(Y):
    Yc, Yf = _layouts(Y)
    for family, field in _field_families().items():
        from_c, from_f = field.batch(Yc), field.batch(Yf)
        assert np.array_equal(from_c, from_f), family
        # A constant is broadcast: its path axis has stride 0.
        if from_f.strides[0] != 0:
            assert _path_contiguous(from_f) and _path_contiguous(from_c), family


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), P=st.integers(1, 9), r=st.integers(1, 4),
       c=st.integers(1, 4), shared=st.booleans())
def test_rowwise_result_is_path_contiguous_and_layout_independent(seed, P, r, c, shared):
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(r, c) if shared else (P, r, c))
    v = rng.normal(size=(P, c))
    # A shared M is a model constant; a stack, like v, comes from the states.
    matrices = (M,) if shared else _layouts(M)
    results = [model_module.rowwise(m, x) for m in matrices for x in _layouts(v)]
    oracle = np.stack([(M if shared else M[p]) @ v[p] for p in range(P)])
    for out in results:
        assert np.array_equal(out, results[0])
        assert out.shape == (P, r) and _path_contiguous(out)
        np.testing.assert_allclose(out, oracle, rtol=1e-13, atol=1e-13)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(Y=_POINTS)
def test_market_terms_are_layout_independent_and_path_contiguous(Y, canonical_2f):
    for market in (_two_factor_market(), canonical_2f[0]):
        terms = [market_terms(market, states) for states in _layouts(Y)]
        for name in ("Y", "mu", "sigma", "sigma_pinv", "lam", "alpha", "kappa"):
            from_c, from_f = (getattr(t, name) for t in terms)
            assert np.array_equal(from_c, from_f), name
            # A constant sigma is one matrix, not a stack.
            if from_f.ndim > 2 or name != "sigma" and name != "sigma_pinv":
                assert _path_contiguous(from_f), name


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def _eve_model():
    # rho^T rho = 0.5 I_2 with full-rank sigma.
    rho = np.sqrt(0.5) * np.eye(3)[:, :2]
    return ModelSpec(
        n=3, k=2, d_W=3, d_B=2, d_Wperp=2,
        mu=ConstantField([0.1, 0.05, 0.0]), sigma=ConstantField(np.eye(3)),
        alpha=ConstantField([0.0, 0.0]), kappa=ConstantField(np.eye(2)),
        rho=rho, domain=Box([-np.inf, -np.inf], [np.inf, np.inf]))


def test_validate_eve_model_passes():
    report = validate(_eve_model(), np.zeros((1, 2)))
    assert report.passed
    assert report["rho_range_condition"].worst <= 1e-10
    assert report["ellipticity"].worst > 0


def test_validate_flags_range_condition_failure():
    # sigma has a zero column space direction; rho loads exactly on it.
    sigma = np.zeros((2, 1))
    sigma[0, 0] = 1.0
    model = ModelSpec(
        n=1, k=1, d_W=2, d_B=1, d_Wperp=1,
        mu=ConstantField([0.1]), sigma=ConstantField(sigma),
        alpha=ConstantField([0.0]), kappa=ConstantField([[1.0]]),
        rho=np.array([[0.0], [0.5]]), domain=Box([-np.inf], [np.inf]))
    report = validate(model, np.zeros((1, 1)))
    assert not report["rho_range_condition"].passed
    assert report["rho_range_condition"].worst > 0.4


def test_validate_flags_ellipticity_failure():
    model = ModelSpec(
        n=1, k=2, d_W=1, d_B=2, d_Wperp=2,
        mu=ConstantField([0.1]), sigma=ConstantField([[1.0]]),
        alpha=ConstantField([0.0, 0.0]),
        kappa=ConstantField([[1.0, 0.0], [0.0, 0.0]]),  # kappa^T kappa singular
        rho=np.zeros((1, 2)), domain=Box([-np.inf, -np.inf], [np.inf, np.inf]))
    report = validate(model, np.zeros((1, 2)))
    assert not report["ellipticity"].passed


def test_validate_reports_rank_deficient_points():
    model = make_rank_deficient_grid_model()
    grid = np.linspace(0.2, 1.8, 5).reshape(-1, 1)     # 1.0, 1.4, 1.8 are singular
    report = validate(model, grid)
    check = report["boundedness"]
    assert not check.passed
    assert "rank < n=2 at 3 of 5 points, first y=[1.]" in check.detail
    # The full-rank points are still measured.
    assert check.worst == pytest.approx(0.01)
    assert validate(model, grid[:2])["boundedness"].passed


def test_validate_reports_positive_zero_for_zero_rho():
    # rho = 0 has singular values all 0: the excess is +0.0, never -0.0.
    grid = np.linspace(0.2, 1.8, 5).reshape(-1, 1)
    check = validate(make_rank_deficient_grid_model(), grid)["rho_singular_values"]
    assert check.passed
    assert check.worst == 0.0
    assert not np.signbit(check.worst)


def test_validate_is_pure(canonical_1f):
    market, _, rp = canonical_1f
    grid = np.linspace(0.1, 2.0, 5).reshape(-1, 1)
    r1 = validate(market, grid, rp)
    r2 = validate(market, grid, rp)
    assert r1 == r2


def test_validate_rejects_empty_or_outside_grid(canonical_1f):
    market, _, _ = canonical_1f
    with pytest.raises(ConfigError):
        validate(market, np.empty((0, 1)))
    with pytest.raises(ConfigError):
        validate(market, np.array([[-1.0]]))  # outside [0, inf)


# ---------------------------------------------------------------------------
# Spec construction, fields, serialization
# ---------------------------------------------------------------------------

def test_model_spec_rejects_dw_below_n():
    with pytest.raises(ConfigError, match="d_W"):
        ModelSpec(n=2, k=1, d_W=1, d_B=1, d_Wperp=1,
                  mu=ConstantField([0.1, 0.1]), sigma=ConstantField([[1.0, 0.0]]),
                  alpha=ConstantField([0.0]), kappa=ConstantField([[1.0]]),
                  rho=np.zeros((1, 1)), domain=Box([-np.inf], [np.inf]))


@pytest.mark.parametrize("d_Wperp", [0, 3])
def test_model_spec_rejects_wperp_dimension_other_than_d_B(d_Wperp):
    # A = (I - rho^T rho)^{1/2} is d_B x d_B, so Wperp must have d_B components.
    with pytest.raises(ConfigError, match=f"d_Wperp={d_Wperp} must equal d_B=1"):
        replace(make_scalar_model(), d_Wperp=d_Wperp)


@pytest.mark.parametrize("data, message", [
    (3, "coefficient field: expected a JSON object, got int"),
    ({"value": [1.0]}, "coefficient field: missing field 'family'"),
    ({"family": "cubic"}, "coefficient field: unknown family 'cubic'"),
    ({"family": "sqrt_affine", "matrix": [[1.0]]}, "sqrt_affine field: missing field 'offset'"),
])
def test_field_from_json_names_what_is_wrong(data, message):
    with pytest.raises(ConfigError) as err:
        CoefficientField.from_json(data)
    assert str(err.value) == message


def test_model_spec_rejects_rho_singular_value_above_one():
    with pytest.raises(ConfigError, match="singular value"):
        make_scalar_model(rho=1.5)


def test_noise_mixer_squares_to_complement():
    rho = np.array([[0.6, 0.0], [0.0, 0.5], [0.3, 0.2]])
    model = ModelSpec(
        n=3, k=2, d_W=3, d_B=2, d_Wperp=2,
        mu=ConstantField([0.1, 0.0, 0.0]), sigma=ConstantField(np.eye(3)),
        alpha=ConstantField([0.0, 0.0]), kappa=ConstantField(np.eye(2)),
        rho=rho, domain=Box([-np.inf, -np.inf], [np.inf, np.inf]))
    A = model.noise_mixer()
    np.testing.assert_allclose(A.T @ A + rho.T @ rho, np.eye(2), atol=1e-12)


def test_coefficient_field_families_evaluate_and_batch():
    rng = np.random.default_rng(3)
    Y = rng.uniform(0.1, 2.0, size=(6, 2))

    aff = AffineField([[1.0, -2.0], [0.5, 0.0]], [0.1, -0.2])
    sqa = SqrtAffineField([[0.3, 0.0], [0.0, 0.4]], [0.0, 0.01])
    sqd = SqrtDiagField([0.2, 0.5])
    for field in (aff, sqa, sqd):
        batch = field.batch(Y)
        for i, y in enumerate(Y):
            np.testing.assert_allclose(batch[i], field(y), atol=1e-14)

    np.testing.assert_allclose(sqd(np.array([1.0, 2.0])),
                               np.diag(np.sqrt([0.2, 1.0])), atol=1e-15)
    # Negative states are clipped inside the square root.
    assert np.all(np.isfinite(sqa(np.array([-5.0, -5.0]))))


def test_grid_field_multilinear_interpolation():
    xs = np.linspace(0.0, 1.0, 5)
    ys = np.linspace(0.0, 2.0, 4)
    vals = np.empty((5, 4, 2))
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            vals[i, j] = [2.0 * x + y, x - y]        # linear, exact under interp
    field = GridField([xs, ys], vals)
    pt = np.array([0.37, 1.21])
    np.testing.assert_allclose(field(pt), [2 * 0.37 + 1.21, 0.37 - 1.21], atol=1e-12)


def test_model_spec_json_round_trip(canonical_1f, tmp_path):
    market, _, _ = canonical_1f
    path = tmp_path / "model.json"
    market.save(path)
    loaded = ModelSpec.load(path)
    y = np.array([0.7])
    np.testing.assert_allclose(loaded.mu(y), market.mu(y), atol=1e-15)
    np.testing.assert_allclose(loaded.kappa(y), market.kappa(y), atol=1e-15)
    np.testing.assert_allclose(loaded.rho, market.rho, atol=1e-15)
    assert loaded.domain.lower.tolist() == market.domain.lower.tolist()


@pytest.mark.parametrize("key", ["n", "k", "d_W", "d_B", "d_Wperp"])
def test_model_spec_from_json_refuses_non_integral_dimensions(canonical_1f, key):
    market, _, _ = canonical_1f
    data = market.to_json()
    with pytest.raises(ConfigError) as err:
        ModelSpec.from_json({**data, key: data[key] + 0.5})
    assert str(err.value) == f"model spec: field '{key}' must be an integer"
    again = ModelSpec.from_json({**data, key: float(data[key])})
    assert type(getattr(again, key)) is int and again.to_json() == data


def test_box_contains_clip_reflect():
    box = Box([0.0, -1.0], [1.0, np.inf])
    assert box.contains(np.array([0.5, 3.0]))
    assert not box.contains(np.array([-0.1, 0.0]))
    np.testing.assert_allclose(box.clip(np.array([-0.5, -2.0])), [0.0, -1.0])
    np.testing.assert_allclose(box.reflect(np.array([-0.25, -1.5])), [0.25, -0.5])


def _broadcast_contains(box, y):
    y = np.asarray(y, dtype=float)
    return np.all((y >= box.lower) & (y <= box.upper), axis=-1)


def _broadcast_clip(box, y):
    return np.clip(y, box.lower, box.upper)


def _broadcast_reflect(box, y):
    y = np.asarray(y, dtype=float)
    lo, hi = box.lower, box.upper
    y = np.where(y < lo, 2 * lo - y, y)
    y = np.where(y > hi, 2 * hi - y, y)
    return np.clip(y, lo, hi)


@pytest.mark.parametrize("lower,upper", [
    ([0.0], [np.inf]),
    ([-1.0], [2.0]),
    ([0.0, 0.0], [np.inf, np.inf]),
    ([-np.inf, 0.5], [1.0, np.inf]),
    ([-1.0, -np.inf, 0.0], [1.0, np.inf, 3.0]),
])
def test_box_column_loops_match_the_broadcast_formulas(lower, upper):
    # contains, clip and reflect loop over the k columns; the broadcast forms
    # over the last axis are the reference.
    box = Box(lower, upper)
    rng = np.random.default_rng(11)
    Y = 3.0 * rng.standard_normal((400, box.dim))
    on_face = rng.random(Y.shape) < 0.3
    face = np.where(rng.random(Y.shape) < 0.5, box.lower, box.upper)
    Y = np.where(on_face & np.isfinite(face), face, Y)
    for y in (Y, Y.reshape(20, 20, box.dim), Y[0], Y[1], [1, 2, 3][:box.dim]):
        for name, reference in (("contains", _broadcast_contains), ("clip", _broadcast_clip),
                                ("reflect", _broadcast_reflect)):
            got, want = getattr(box, name)(y), reference(box, y)
            assert type(got) is type(want)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.array_equal(got, want), name
