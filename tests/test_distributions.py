import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from sephill.distributions import (
    EllipticalModel,
    GeneratingVariateSpec,
    RngStream,
    elliptical_rows,
    sample_elliptical,
    sample_sphere,
    sample_variate,
)
from sephill import linalg
from sephill.errors import (
    DimensionMismatch,
    DomainError,
    NonFinite,
    NonSymmetric,
    NotPositiveDefinite,
)
from sephill.estimators import mahalanobis_distances
from sephill.linalg import cholesky, spd_inverse

EPS = np.finfo(float).eps


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

    def test_limit_bias_certified_only_for_exact_power_tail(self):
        assert GeneratingVariateSpec.pareto(2.0).limit_bias == 0.0
        assert GeneratingVariateSpec.frechet(2.0).limit_bias is None
        assert GeneratingVariateSpec.t_radial(2.0, 3).limit_bias is None

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
        ],
        ids=["pareto-alpha", "frechet-alpha", "t-radial-nu"],
    )
    def test_parameters_must_be_finite_positive_reals(self, make, value):
        with pytest.raises(DomainError):
            make(value)

    def test_parameters_stored_as_floats(self):
        for spec in (
            GeneratingVariateSpec.pareto(np.int64(3)),
            GeneratingVariateSpec(family="frechet", alpha=np.float32(0.5)),
            GeneratingVariateSpec.t_radial(4, 2),
        ):
            for value in (spec.alpha, spec.nu):
                assert value is None or type(value) is float

    def test_bad_nu_and_missing_dim(self):
        with pytest.raises(DomainError):
            GeneratingVariateSpec.t_radial(0.0, 2)
        with pytest.raises(DomainError):
            GeneratingVariateSpec(family="t-radial", nu=2.0)

    def test_unknown_family(self):
        with pytest.raises(DomainError):
            GeneratingVariateSpec(family="cauchy", alpha=1.0)


class _Uniforms(np.random.Generator):
    """A generator whose uniform draws are the given values, in order."""

    def __init__(self, *values):
        super().__init__(np.random.Philox(0))
        self._values = np.array(values, dtype=float)

    def random(self, size=None, dtype=np.float64, out=None):
        out[...] = self._values
        return out


def t_radial_law(nu, dim):
    """scipy's law of a t-radial radius r, through r**2 / dim ~ F(dim, nu)."""
    return stats.f(dim, nu)


class TestDistributionFunctions:
    """The draws follow each family's distribution function: Pareto and
    Fréchet through the inverse transform of chosen uniforms, t-radial
    through the empirical distribution of its chi-square ratios."""

    def test_pareto_sf(self):
        # survival x**-alpha: u = 3/4 lands where it is 1/4
        spec = GeneratingVariateSpec.pareto(2.0)
        assert sample_variate(spec, _Uniforms(0.75)) == pytest.approx(2.0, rel=1e-15)
        assert sample_variate(spec, _Uniforms(0.0)) == 1.0

    def test_frechet_cdf(self):
        # distribution function exp(-x**-alpha): u = e**-1 lands at 1
        spec = GeneratingVariateSpec.frechet(1.0)
        r = sample_variate(spec, _Uniforms(np.exp(-1.0)))
        assert r == pytest.approx(1.0, rel=1e-15)
        # a zero uniform is clamped, so the draw stays finite and positive
        r0 = sample_variate(spec, _Uniforms(0.0))
        assert np.isfinite(r0) and r0 > 0

    def test_t_radial_cdf_closed_form(self):
        # for d = 2 the radial distribution function is
        # 1 - (1 + r^2/nu)^(-nu/2); the empirical one of 10**5 draws sits
        # within five binomial deviations of it
        spec = GeneratingVariateSpec.t_radial(3.0, 2)
        n = 100_000
        r = sample_variate(spec, RngStream(29, 0), size=n)
        for x in (0.5, 1.0, np.sqrt(3.0), 4.0):
            expected = 1.0 - (1.0 + x * x / 3.0) ** -1.5
            assert expected == pytest.approx(t_radial_law(3.0, 2).cdf(x * x / 2), rel=1e-12)
            tol = 5 * np.sqrt(expected * (1 - expected) / n)
            assert abs(np.mean(r <= x) - expected) <= tol

    def test_vectorized(self):
        # a vector of draws is the sequence of scalar draws off one generator
        for spec in (GeneratingVariateSpec.pareto(1.0), GeneratingVariateSpec.frechet(1.5)):
            gen = RngStream(3, 1).generator()
            scalars = [sample_variate(spec, gen) for _ in range(8)]
            vector = sample_variate(spec, RngStream(3, 1), size=8)
            np.testing.assert_array_equal(vector, scalars)


class TestQuantileU:
    """The Pareto and Fréchet samplers are inverse transforms: a uniform u
    maps to the tail quantile U(y), the inverse of 1 / survival, at
    y = 1 / (1 - u).  t-radial draws are chi-square ratios, so their tail
    is checked against scipy's quantiles of the F law by exceedance
    counts."""

    def test_pareto_hand_values(self):
        spec = GeneratingVariateSpec.pareto(2.0)
        # y = 4 and y = 1
        assert sample_variate(spec, _Uniforms(0.75)) == pytest.approx(2.0, rel=1e-15)
        assert sample_variate(spec, _Uniforms(0.0)) == 1.0

    def test_frechet_hand_value(self):
        # U(2) = 1 / ln 2 for alpha = 1
        spec = GeneratingVariateSpec.frechet(1.0)
        r = sample_variate(spec, _Uniforms(0.5))
        assert r == pytest.approx(1.0 / np.log(2.0), rel=1e-14)

    @pytest.mark.parametrize(
        "spec, law",
        [
            (GeneratingVariateSpec.pareto(2.5), stats.pareto(b=2.5)),
            (GeneratingVariateSpec.frechet(1.5), stats.invweibull(c=1.5)),
            (GeneratingVariateSpec.t_radial(3.0, 4), t_radial_law(3.0, 4)),
        ],
        ids=["pareto", "frechet", "t-radial"],
    )
    def test_inverse_of_survival(self, spec, law):
        ys = (1.5, 4.0, 100.0, 1e4)
        if spec.family == "t-radial":
            n = 200_000
            r = sample_variate(spec, RngStream(41, 0), size=n)
            for y in ys[:3]:
                x = np.sqrt(spec.dim * law.isf(1.0 / y))
                p = 1.0 / y
                assert abs(np.mean(r > x) - p) <= 5 * np.sqrt(p * (1 - p) / n)
            return
        u = np.array([1.0 - 1.0 / y for y in ys])
        r = sample_variate(spec, _Uniforms(*u), size=len(ys))
        # 1 - u is exact for these u, so it is the tail probability hit
        np.testing.assert_allclose(law.sf(r), 1.0 - u, rtol=1e-9, atol=0)
        np.testing.assert_allclose(r, law.isf(1.0 - u), rtol=1e-9, atol=0)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("nu", [0.7, 3.0, 12.5])
    def test_t_radial_inverse_of_survival(self, dim, nu):
        # a share 1/y of the draws lies beyond scipy's quantile U(y)
        spec = GeneratingVariateSpec.t_radial(nu, dim)
        law = t_radial_law(nu, dim)
        n = 40_000
        r = sample_variate(spec, RngStream(43, 5 * dim + int(nu)), size=n)
        assert r.shape == (n,) and np.all(np.isfinite(r)) and np.all(r > 0)
        for y in (1.5, 4.0, 1e2):
            x = np.sqrt(dim * law.isf(1.0 / y))
            p = 1.0 / y
            assert abs(np.mean(r > x) - p) <= 5 * np.sqrt(p * (1 - p) / n)
        assert isinstance(sample_variate(spec, RngStream(43, 0)), float)

    def test_array_argument(self):
        # U(y) = y for Pareto(1): the uniforms 0, 1/2, 9/10 give 1, 2, 10
        spec = GeneratingVariateSpec.pareto(1.0)
        r = sample_variate(spec, _Uniforms(0.0, 0.5, 0.9), size=3)
        np.testing.assert_allclose(r, [1.0, 2.0, 10.0], rtol=1e-15)


@settings(max_examples=80, deadline=None)
@given(
    y=st.floats(min_value=1.000001, max_value=1e8),
    alpha=st.floats(min_value=0.2, max_value=10.0),
)
def test_closed_form_quantiles_invert_survival(y, alpha):
    # the uniform 1 - 1/y lands on U(y): its closed-form survival is 1/y,
    # taken at the y the stored uniform stands for
    u = 1.0 - 1.0 / y
    y_stored = 1.0 / (1.0 - u)
    r = sample_variate(GeneratingVariateSpec.pareto(alpha), _Uniforms(u))
    assert r**-alpha * y_stored == pytest.approx(1.0, rel=1e-9)
    r = sample_variate(GeneratingVariateSpec.frechet(alpha), _Uniforms(u))
    assert -np.expm1(-(r**-alpha)) * y_stored == pytest.approx(1.0, rel=1e-9)


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
        spec = GeneratingVariateSpec.pareto(2.0)
        r = sample_variate(spec, RngStream(0, 0), size=5000)
        assert np.all(r >= 1.0)

    def test_scalar_draw(self):
        r = sample_variate(GeneratingVariateSpec.pareto(2.0), RngStream(8, 0))
        assert isinstance(r, float) and r >= 1.0

    def test_median_matches_quantile(self):
        # the empirical median of many draws should sit near the Fréchet(2)
        # median, exp(-x**-2) = 1/2 at x = (ln 2)**(-1/2)
        spec = GeneratingVariateSpec.frechet(2.0)
        r = sample_variate(spec, RngStream(17, 0), size=40000)
        med = np.median(r)
        assert med == pytest.approx(np.log(2.0) ** -0.5, rel=0.02)


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

    def test_scatter_validated_and_factored_once(self, monkeypatch):
        calls = {"check_symmetric": 0, "factor": 0}
        check, factor = linalg.check_symmetric, np.linalg.cholesky

        def counted_check(*args, **kwargs):
            calls["check_symmetric"] += 1
            return check(*args, **kwargs)

        def counted_factor(*args, **kwargs):
            calls["factor"] += 1
            return factor(*args, **kwargs)

        monkeypatch.setattr(linalg, "check_symmetric", counted_check)
        monkeypatch.setattr(np.linalg, "cholesky", counted_factor)
        m = self._model()
        assert calls == {"check_symmetric": 1, "factor": 1}
        monkeypatch.undo()
        assert m.sigma_inv.tobytes() == spd_inverse(m.sigma).tobytes()
        assert m.lambda_chol.tobytes() == cholesky(m.sigma).tobytes()

    @pytest.mark.parametrize(
        "sigma, error",
        [
            ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], NonSymmetric),
            ([[1.0, np.inf, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], NonFinite),
            ([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], NonSymmetric),
            ([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]], NotPositiveDefinite),
            (np.eye(3), DimensionMismatch),
        ],
        ids=["not-square", "non-finite", "asymmetric", "indefinite", "valid"],
    )
    def test_scatter_checked_before_dimensions(self, sigma, error):
        # mu has dimension 2 in every case: a fault of the scatter itself
        # is reported before the dimension mismatch
        with pytest.raises(error):
            EllipticalModel(
                mu=np.zeros(2),
                sigma=np.array(sigma),
                variate=GeneratingVariateSpec.pareto(3.0),
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


def row_major_sphere(dim, gen, size):
    """The row-major normalization: each row divided by its
    ``np.linalg.norm``, a zero row pinned to the first axis."""
    g = gen.standard_normal((size, dim))
    norms = np.linalg.norm(g, axis=1)
    zero = norms == 0.0
    if np.any(zero):
        g[zero, 0] = 1.0
        norms[zero] = 1.0
    return g / norms[:, None]


def row_major_elliptical(model, n, stream):
    """Radii then directions off one generator, each output coordinate
    written into column ``j`` of an ``(n, d)`` array."""
    gen = stream.generator()
    radii = sample_variate(model.variate, gen, size=n)
    u = row_major_sphere(model.dim, gen, n)
    lower = model.lambda_chol
    out = np.empty((n, model.dim))
    for j in range(model.dim):
        col = lower[j, 0] * u[:, 0]
        for k in range(1, j + 1):
            col += lower[j, k] * u[:, k]
        col *= radii
        col += model.mu[j]
        out[:, j] = col
    return out, radii


def random_model(d, family):
    rng = np.random.default_rng(100 + d)
    a = rng.normal(size=(d, d))
    variate = (
        GeneratingVariateSpec.pareto(2.5)
        if family == "pareto"
        else GeneratingVariateSpec.t_radial(3.0, d)
    )
    return EllipticalModel(
        mu=rng.normal(size=d), sigma=a @ a.T + d * np.eye(d), variate=variate
    )


class _ZeroRowGenerator(np.random.Generator):
    """A generator whose standard normal draws have an all-zero row 1."""

    def standard_normal(self, size=None, dtype=np.float64, out=None):
        g = super().standard_normal(size)
        g[1] = 0.0
        return g


class TestColumnMajorSample:
    """The sampler builds ``(d, n)`` columns and returns their transpose;
    for d <= 7 the bytes are those of the row-major code above."""

    @pytest.mark.parametrize("d", range(1, 8))
    @pytest.mark.parametrize("n", [1, 2, 9, 1000])
    @pytest.mark.parametrize("seed", [0, 31])
    def test_sphere_bytes_match_row_major(self, d, n, seed):
        stream = RngStream(seed, d)
        u = sample_sphere(d, stream, size=n)
        np.testing.assert_array_equal(u, row_major_sphere(d, stream.generator(), n))
        assert u.T.flags.c_contiguous

    @pytest.mark.parametrize("d", range(1, 8))
    @pytest.mark.parametrize("n", [1, 9, 1000])
    @pytest.mark.parametrize("family", ["pareto", "t-radial"])
    def test_elliptical_bytes_match_row_major(self, d, n, family):
        model = random_model(d, family)
        for seed in (0, 31):
            stream = RngStream(seed, d)
            sample, radii = sample_elliptical(model, n, stream)
            ref, ref_radii = row_major_elliptical(model, n, stream)
            np.testing.assert_array_equal(sample, ref)
            np.testing.assert_array_equal(radii, ref_radii)
            assert sample.shape == (n, d) and sample.dtype == np.float64
            assert sample.T.flags.c_contiguous

    @pytest.mark.parametrize("d", range(8, 13))
    def test_wide_samples_agree_within_a_few_ulp(self, d):
        # from d = 8 numpy's row reduction in np.linalg.norm sums pairwise,
        # while the sampler sums the coordinates in order
        model = random_model(d, "pareto")
        stream = RngStream(5, d)
        u = sample_sphere(d, stream, size=2000)
        np.testing.assert_array_max_ulp(u, row_major_sphere(d, stream.generator(), 2000), maxulp=4)
        sample, radii = sample_elliptical(model, 2000, stream)
        ref, ref_radii = row_major_elliptical(model, 2000, stream)
        np.testing.assert_array_equal(radii, ref_radii)
        # coordinate j is r * sum_k L[j, k] * u[k] + mu[j] with |u[k]| <= 1;
        # bound the gap by a few eps of the summed magnitudes
        scale = radii[:, None] * np.abs(model.lambda_chol).sum(axis=1) + np.abs(model.mu)
        assert np.all(np.abs(sample - ref) <= 4 * (d + 2) * EPS * scale)
        assert sample.T.flags.c_contiguous

    def test_elliptical_rows_output_is_column_major(self):
        model = random_model(3, "pareto")
        rows = elliptical_rows(model, np.ones(5), np.eye(3)[[0, 1, 2, 0, 1]])
        assert rows.shape == (5, 3)
        assert rows.T.flags.c_contiguous

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_zero_vector_pinned_to_first_axis(self, d):
        u = sample_sphere(d, _ZeroRowGenerator(np.random.Philox(8)), size=4)
        expected = np.zeros(d)
        expected[0] = 1.0
        np.testing.assert_array_equal(u[1], expected)
        ref = row_major_sphere(d, _ZeroRowGenerator(np.random.Philox(8)), 4)
        np.testing.assert_array_equal(u, ref)
        np.testing.assert_allclose(np.linalg.norm(u, axis=1), 1.0, atol=1e-15)
