import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sephill.distributions import (
    EllipticalModel,
    GeneratingVariateSpec,
    RngStream,
    elliptical_rows,
    quantile_u,
    sample_elliptical,
    sample_sphere,
    sample_variate,
)
from sephill.errors import DimensionMismatch, DomainError, NotPositiveDefinite
from sephill.estimators import mahalanobis_distances
from sephill.linalg import cholesky, spd_inverse


class TestRngStream:
    def test_same_stream_reproduces(self):
        a = RngStream(123, 4).generator().random(10)
        b = RngStream(123, 4).generator().random(10)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ(self):
        a = RngStream(123, 0).generator().random(10)
        b = RngStream(123, 1).generator().random(10)
        assert not np.array_equal(a, b)

    def test_seeds_differ(self):
        a = RngStream(0, 7).generator().random(10)
        b = RngStream(1, 7).generator().random(10)
        assert not np.array_equal(a, b)

    def test_value_semantics(self):
        stream = RngStream(55, 2)
        first = stream.generator().random(5)
        # consuming a generator does not mutate the stream value
        second = stream.generator().random(5)
        np.testing.assert_array_equal(first, second)


class TestVariateSpec:
    def test_gamma(self):
        assert GeneratingVariateSpec.pareto(4.0).gamma == 0.25
        assert GeneratingVariateSpec.frechet(2.0).gamma == 0.5
        assert GeneratingVariateSpec.t_radial(3.0, 2).gamma == pytest.approx(1 / 3)

    def test_second_order_exact_power_tail(self):
        so = GeneratingVariateSpec.pareto(2.0).second_order
        assert so.rho == -np.inf
        assert so.lambda_limit == 0.0
        assert GeneratingVariateSpec.pareto(2.0).limit_bias == 0.0

    def test_second_order_unknown_for_other_families(self):
        assert GeneratingVariateSpec.frechet(2.0).second_order is None
        assert GeneratingVariateSpec.frechet(2.0).limit_bias is None
        assert GeneratingVariateSpec.t_radial(2.0, 3).second_order is None

    @pytest.mark.parametrize("alpha", [0.0, -1.0])
    def test_bad_alpha(self, alpha):
        with pytest.raises(DomainError):
            GeneratingVariateSpec.pareto(alpha)
        with pytest.raises(DomainError):
            GeneratingVariateSpec.frechet(alpha)

    @pytest.mark.parametrize(
        "value",
        ["x", [3.0], True, None, np.nan, np.inf, -np.inf, 10**400],
        ids=["string", "list", "bool", "none", "nan", "inf", "minus-inf",
             "int-beyond-float"],
    )
    @pytest.mark.parametrize(
        "make",
        [
            GeneratingVariateSpec.pareto,
            GeneratingVariateSpec.frechet,
            lambda v: GeneratingVariateSpec.t_radial(v, 2),
            lambda v: GeneratingVariateSpec.pareto(2.0, x_m=v),
        ],
        ids=["pareto-alpha", "frechet-alpha", "t-radial-nu", "pareto-x_m"],
    )
    def test_parameters_must_be_finite_positive_reals(self, make, value):
        with pytest.raises(DomainError):
            make(value)

    def test_parameters_stored_as_floats(self):
        for spec in (
            GeneratingVariateSpec.pareto(np.int64(3), x_m=2),
            GeneratingVariateSpec(family="frechet", alpha=np.float32(0.5)),
            GeneratingVariateSpec.t_radial(4, 2),
        ):
            for value in (spec.alpha, spec.x_m, spec.nu):
                assert value is None or type(value) is float

    def test_bad_nu_and_missing_dim(self):
        with pytest.raises(DomainError):
            GeneratingVariateSpec.t_radial(0.0, 2)
        with pytest.raises(DomainError):
            GeneratingVariateSpec(family="t-radial", nu=2.0)

    def test_unknown_family(self):
        with pytest.raises(DomainError):
            GeneratingVariateSpec(family="cauchy", alpha=1.0)


class TestDistributionFunctions:
    def test_pareto_sf(self):
        spec = GeneratingVariateSpec.pareto(2.0)
        assert spec.sf(2.0) == pytest.approx(0.25, rel=1e-15)
        assert spec.sf(0.5) == 1.0
        assert spec.cdf(1.0) == 0.0

    def test_frechet_cdf(self):
        spec = GeneratingVariateSpec.frechet(1.0)
        assert spec.cdf(1.0) == pytest.approx(np.exp(-1.0), rel=1e-15)
        assert spec.sf(1.0) == pytest.approx(1 - np.exp(-1.0), rel=1e-15)
        assert spec.cdf(0.0) == 0.0

    def test_t_radial_cdf_closed_form(self):
        # for d = 2 the radial distribution function is
        # 1 - (1 + r^2/nu)^(-nu/2), which checks the scipy-backed route
        spec = GeneratingVariateSpec.t_radial(3.0, 2)
        for r in (0.5, 1.0, np.sqrt(3.0), 4.0):
            expected = 1.0 - (1.0 + r * r / 3.0) ** -1.5
            assert spec.cdf(r) == pytest.approx(expected, rel=1e-12)

    def test_vectorized(self):
        spec = GeneratingVariateSpec.pareto(1.0)
        out = spec.sf(np.array([0.5, 1.0, 2.0, 4.0]))
        np.testing.assert_allclose(out, [1.0, 1.0, 0.5, 0.25], rtol=1e-15)


class TestQuantileU:
    def test_pareto_hand_values(self):
        spec = GeneratingVariateSpec.pareto(2.0)
        assert quantile_u(spec, 4.0) == pytest.approx(2.0, rel=1e-15)
        assert quantile_u(spec, 1.0) == 1.0
        spec3 = GeneratingVariateSpec.pareto(1.0, x_m=3.0)
        assert quantile_u(spec3, 10.0) == pytest.approx(30.0, rel=1e-15)

    def test_frechet_hand_value(self):
        spec = GeneratingVariateSpec.frechet(1.0)
        assert quantile_u(spec, 2.0) == pytest.approx(1.0 / np.log(2.0), rel=1e-14)

    def test_below_one_rejected(self):
        spec = GeneratingVariateSpec.pareto(2.0)
        with pytest.raises(DomainError):
            quantile_u(spec, 0.5)
        with pytest.raises(DomainError):
            quantile_u(spec, np.nan)

    @pytest.mark.parametrize(
        "spec",
        [
            GeneratingVariateSpec.pareto(2.5),
            GeneratingVariateSpec.frechet(1.5),
            GeneratingVariateSpec.t_radial(3.0, 4),
        ],
        ids=["pareto", "frechet", "t-radial"],
    )
    def test_inverse_of_survival(self, spec):
        for y in (1.5, 4.0, 100.0, 1e4):
            x = quantile_u(spec, y)
            assert spec.sf(x) * y == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("nu", [0.7, 3.0, 12.5])
    def test_t_radial_inverse_of_survival(self, dim, nu):
        spec = GeneratingVariateSpec.t_radial(nu, dim)
        y = np.array([1.5, 4.0, 1e2, 1e4, 1e8, 1e12])
        x = quantile_u(spec, y)
        np.testing.assert_allclose(spec.sf(x) * y, 1.0, rtol=1e-12, atol=0)
        assert quantile_u(spec, 1.0) == 0.0
        assert quantile_u(spec, y.reshape(2, 3)).shape == (2, 3)
        assert isinstance(quantile_u(spec, 4.0), float)

    def test_array_argument(self):
        spec = GeneratingVariateSpec.pareto(1.0)
        np.testing.assert_allclose(
            quantile_u(spec, np.array([1.0, 2.0, 10.0])), [1.0, 2.0, 10.0]
        )


@settings(max_examples=80, deadline=None)
@given(
    y=st.floats(min_value=1.000001, max_value=1e8),
    alpha=st.floats(min_value=0.2, max_value=10.0),
)
def test_closed_form_quantiles_invert_survival(y, alpha):
    for spec in (
        GeneratingVariateSpec.pareto(alpha),
        GeneratingVariateSpec.frechet(alpha),
    ):
        x = quantile_u(spec, y)
        assert spec.sf(x) * y == pytest.approx(1.0, rel=1e-9)


class TestSampleSphere:
    def test_unit_norms(self):
        u = sample_sphere(3, RngStream(1, 0), size=500)
        np.testing.assert_allclose(np.linalg.norm(u, axis=1), 1.0, atol=1e-12)

    def test_single_draw_shape(self):
        u = sample_sphere(4, RngStream(1, 0))
        assert u.shape == (4,)

    def test_deterministic(self):
        a = sample_sphere(2, RngStream(9, 1), size=10)
        b = sample_sphere(2, RngStream(9, 1), size=10)
        np.testing.assert_array_equal(a, b)

    def test_bad_dim(self):
        with pytest.raises(DimensionMismatch):
            sample_sphere(0, RngStream(1, 0))

    def test_mean_near_zero(self):
        u = sample_sphere(2, RngStream(3, 0), size=20000)
        assert np.abs(u.mean(axis=0)).max() < 0.02


class TestSampleVariate:
    @pytest.mark.parametrize(
        "spec",
        [
            GeneratingVariateSpec.pareto(2.0),
            GeneratingVariateSpec.frechet(1.0),
            GeneratingVariateSpec.t_radial(3.0, 2),
        ],
        ids=["pareto", "frechet", "t-radial"],
    )
    def test_positive_and_deterministic(self, spec):
        r1 = sample_variate(spec, RngStream(4, 2), size=2000)
        r2 = sample_variate(spec, RngStream(4, 2), size=2000)
        np.testing.assert_array_equal(r1, r2)
        assert np.all(r1 > 0)

    def test_pareto_respects_lower_endpoint(self):
        spec = GeneratingVariateSpec.pareto(2.0, x_m=1.5)
        r = sample_variate(spec, RngStream(0, 0), size=5000)
        assert np.all(r >= 1.5)

    def test_scalar_draw(self):
        r = sample_variate(GeneratingVariateSpec.pareto(2.0), RngStream(8, 0))
        assert isinstance(r, float) and r >= 1.0

    def test_median_matches_quantile(self):
        # the empirical median of many draws should sit near U(2)
        spec = GeneratingVariateSpec.frechet(2.0)
        r = sample_variate(spec, RngStream(17, 0), size=40000)
        med = np.median(r)
        assert med == pytest.approx(quantile_u(spec, 2.0), rel=0.02)


class TestEllipticalModel:
    def _model(self):
        return EllipticalModel(
            mu=np.array([1.0, -2.0]),
            sigma=np.array([[2.0, 0.5], [0.5, 1.0]]),
            variate=GeneratingVariateSpec.pareto(3.0),
        )

    def test_cholesky_is_cached(self):
        m = self._model()
        np.testing.assert_array_equal(m.lambda_chol, cholesky(m.sigma))

    def test_inverse_is_cached(self):
        m = self._model()
        assert m.sigma_inv.tobytes() == spd_inverse(m.sigma).tobytes()

    def test_rejects_indefinite_scatter(self):
        with pytest.raises(NotPositiveDefinite):
            EllipticalModel(
                mu=np.zeros(2),
                sigma=np.array([[1.0, 2.0], [2.0, 1.0]]),
                variate=GeneratingVariateSpec.pareto(3.0),
            )

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            EllipticalModel(
                mu=np.zeros(3),
                sigma=np.eye(2),
                variate=GeneratingVariateSpec.pareto(3.0),
            )

    def test_rejects_empty_location(self):
        with pytest.raises(DimensionMismatch):
            EllipticalModel(
                mu=np.zeros(0),
                sigma=np.eye(0),
                variate=GeneratingVariateSpec.pareto(3.0),
            )

    def test_t_radial_dim_must_match(self):
        with pytest.raises(DimensionMismatch):
            EllipticalModel(
                mu=np.zeros(2),
                sigma=np.eye(2),
                variate=GeneratingVariateSpec.t_radial(3.0, 5),
            )


class TestSampleElliptical:
    def _model(self):
        return EllipticalModel(
            mu=np.array([1.0, -2.0, 0.5]),
            sigma=np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 1.5]]),
            variate=GeneratingVariateSpec.pareto(2.0),
        )

    def test_shapes(self):
        sample, radii = sample_elliptical(self._model(), 100, RngStream(6, 0))
        assert sample.shape == (100, 3)
        assert radii.shape == (100,)

    def test_radii_equal_scatter_distances(self):
        model = self._model()
        sample, radii = sample_elliptical(model, 2000, RngStream(6, 1))
        dists = mahalanobis_distances(sample, model.mu, spd_inverse(model.sigma))
        assert np.max(np.abs(dists - radii)) < 1e-10

    def test_draw_order_is_fixed(self):
        # radii first, then directions, off a single generator
        model = self._model()
        stream = RngStream(42, 3)
        sample, radii = sample_elliptical(model, 50, stream)
        gen = stream.generator()
        r2 = sample_variate(model.variate, gen, size=50)
        u2 = sample_sphere(3, gen, size=50)
        np.testing.assert_array_equal(radii, r2)
        # coordinate j is sum_{k <= j} L[j, k] * u[:, k], summed in
        # increasing k, times r, plus mu[j]
        lower = model.lambda_chol
        expected = np.empty((50, 3))
        for j in range(3):
            col = lower[j, 0] * u2[:, 0]
            for k in range(1, j + 1):
                col = col + lower[j, k] * u2[:, k]
            expected[:, j] = col * r2 + model.mu[j]
        np.testing.assert_array_equal(sample, expected)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_rows_match_matrix_product(self, d):
        # the lower-triangle sum is L @ u up to the order of rounding
        rng = np.random.default_rng(d)
        a = rng.normal(size=(d, d))
        model = EllipticalModel(
            mu=rng.normal(size=d),
            sigma=a @ a.T + d * np.eye(d),
            variate=GeneratingVariateSpec.pareto(3.0),
        )
        stream = RngStream(9, d)
        gen = stream.generator()
        radii = sample_variate(model.variate, gen, size=4000)
        u = sample_sphere(d, gen, size=4000)
        rows = elliptical_rows(model, radii, u)
        reference = model.mu + radii[:, None] * (u @ model.lambda_chol.T)
        tol = 4 * d * np.finfo(float).eps * np.max(np.abs(reference))
        assert np.max(np.abs(rows - reference)) <= tol
        np.testing.assert_array_equal(rows, sample_elliptical(model, 4000, stream)[0])

    def test_bit_identical_reruns(self):
        model = self._model()
        s1, r1 = sample_elliptical(model, 64, RngStream(0, 0))
        s2, r2 = sample_elliptical(model, 64, RngStream(0, 0))
        np.testing.assert_array_equal(s1, s2)
        np.testing.assert_array_equal(r1, r2)

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            sample_elliptical(self._model(), 0, RngStream(1, 0))
