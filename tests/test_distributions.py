import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from sephill.distributions import (
    EllipticalModel,
    GeneratingVariateSpec,
    RngStream,
    sample_elliptical,
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
TINY = np.finfo(float).tiny


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
        assert GeneratingVariateSpec.t_radial(3.0).gamma == pytest.approx(1 / 3)

    def test_limit_bias_certified_only_for_exact_power_tail(self):
        assert GeneratingVariateSpec.pareto(2.0).limit_bias == 0.0
        assert GeneratingVariateSpec.frechet(2.0).limit_bias is None
        assert GeneratingVariateSpec.t_radial(2.0).limit_bias is None

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
            GeneratingVariateSpec.t_radial,
        ],
        ids=["pareto-alpha", "frechet-alpha", "t-radial-alpha"],
    )
    def test_parameters_must_be_finite_positive_reals(self, make, value):
        with pytest.raises(DomainError):
            make(value)

    def test_parameters_stored_as_floats(self):
        for spec in (
            GeneratingVariateSpec.pareto(np.int64(3)),
            GeneratingVariateSpec(family="frechet", alpha=np.float32(0.5)),
            GeneratingVariateSpec.t_radial(4),
        ):
            assert type(spec.alpha) is float

    def test_bad_t_radial_alpha(self):
        with pytest.raises(DomainError):
            GeneratingVariateSpec.t_radial(0.0)

    def test_one_tail_parameter_for_every_family(self):
        # t_radial's positional argument, the degrees of freedom, is its alpha
        assert [f.name for f in dataclasses.fields(GeneratingVariateSpec)] == [
            "family", "alpha",
        ]
        spec = GeneratingVariateSpec.t_radial(4.0)
        assert spec == GeneratingVariateSpec(family="t-radial", alpha=4.0)
        assert spec.gamma == 0.25

    def test_unknown_family(self):
        with pytest.raises(DomainError):
            GeneratingVariateSpec(family="cauchy", alpha=1.0)


class _Uniforms(np.random.Generator):
    """A generator whose uniform draws are the given values, in order (one
    value stands for all), and whose other draws are those of
    ``stream``."""

    def __init__(self, *values, stream=RngStream(0, 0)):
        super().__init__(stream.generator().bit_generator)
        self._values = np.array(values, dtype=float)

    def random(self, size=None, dtype=np.float64, out=None):
        out[...] = self._values
        return out


def draw_radii(spec, rng, n=1, dim=2):
    """The radii ``sample_elliptical`` draws off ``rng`` for a ``dim``-
    dimensional model driven by ``spec``: the first draws of the stream,
    so they are what a sampler of the variate alone would give."""
    model = EllipticalModel(mu=np.zeros(dim), sigma=np.eye(dim), variate=spec)
    return sample_elliptical(model, n, rng)[1]


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
        assert draw_radii(spec, _Uniforms(0.75))[0] == pytest.approx(2.0, rel=1e-15)
        assert draw_radii(spec, _Uniforms(0.0))[0] == 1.0

    def test_frechet_cdf(self):
        # distribution function exp(-x**-alpha): u = e**-1 lands at 1
        spec = GeneratingVariateSpec.frechet(1.0)
        r = draw_radii(spec, _Uniforms(np.exp(-1.0)))[0]
        assert r == pytest.approx(1.0, rel=1e-15)
        # a zero uniform is clamped, so the draw stays finite and positive
        r0 = draw_radii(spec, _Uniforms(0.0))[0]
        assert np.isfinite(r0) and r0 > 0

    def test_t_radial_cdf_closed_form(self):
        # for d = 2 the radial distribution function is
        # 1 - (1 + r^2/nu)^(-nu/2); the empirical one of 10**5 draws sits
        # within five binomial deviations of it
        spec = GeneratingVariateSpec.t_radial(3.0)
        n = 100_000
        r = draw_radii(spec, RngStream(29, 0), n, dim=2)
        for x in (0.5, 1.0, np.sqrt(3.0), 4.0):
            expected = 1.0 - (1.0 + x * x / 3.0) ** -1.5
            assert expected == pytest.approx(t_radial_law(3.0, 2).cdf(x * x / 2), rel=1e-12)
            tol = 5 * np.sqrt(expected * (1 - expected) / n)
            assert abs(np.mean(r <= x) - expected) <= tol


class TestQuantileU:
    """The Pareto and Fréchet samplers are inverse transforms: a uniform u
    maps to the tail quantile U(y), the inverse of 1 / survival, at
    y = 1 / (1 - u).  t-radial draws are chi-square ratios, so their tail
    is checked against scipy's quantiles of the F law by exceedance
    counts."""

    def test_pareto_hand_values(self):
        spec = GeneratingVariateSpec.pareto(2.0)
        # y = 4 and y = 1
        assert draw_radii(spec, _Uniforms(0.75))[0] == pytest.approx(2.0, rel=1e-15)
        assert draw_radii(spec, _Uniforms(0.0))[0] == 1.0

    def test_frechet_hand_value(self):
        # U(2) = 1 / ln 2 for alpha = 1
        spec = GeneratingVariateSpec.frechet(1.0)
        r = draw_radii(spec, _Uniforms(0.5))[0]
        assert r == pytest.approx(1.0 / np.log(2.0), rel=1e-14)

    @pytest.mark.parametrize(
        "spec, law",
        [
            (GeneratingVariateSpec.pareto(2.5), stats.pareto(b=2.5)),
            (GeneratingVariateSpec.frechet(1.5), stats.invweibull(c=1.5)),
            (GeneratingVariateSpec.t_radial(3.0), t_radial_law(3.0, 4)),
        ],
        ids=["pareto", "frechet", "t-radial"],
    )
    def test_inverse_of_survival(self, spec, law):
        ys = (1.5, 4.0, 100.0, 1e4)
        if spec.family == "t-radial":
            n = 200_000
            dim = law.args[0]  # the law is F(dim, nu)
            r = draw_radii(spec, RngStream(41, 0), n, dim=dim)
            for y in ys[:3]:
                x = np.sqrt(dim * law.isf(1.0 / y))
                p = 1.0 / y
                assert abs(np.mean(r > x) - p) <= 5 * np.sqrt(p * (1 - p) / n)
            return
        u = np.array([1.0 - 1.0 / y for y in ys])
        r = draw_radii(spec, _Uniforms(*u), len(ys))
        # 1 - u is exact for these u, so it is the tail probability hit
        np.testing.assert_allclose(law.sf(r), 1.0 - u, rtol=1e-9, atol=0)
        np.testing.assert_allclose(r, law.isf(1.0 - u), rtol=1e-9, atol=0)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("nu", [0.7, 3.0, 12.5])
    def test_t_radial_inverse_of_survival(self, dim, nu):
        # a share 1/y of the draws lies beyond scipy's quantile U(y)
        spec = GeneratingVariateSpec.t_radial(nu)
        law = t_radial_law(nu, dim)
        n = 40_000
        r = draw_radii(spec, RngStream(43, 5 * dim + int(nu)), n, dim=dim)
        assert r.shape == (n,) and np.all(np.isfinite(r)) and np.all(r > 0)
        for y in (1.5, 4.0, 1e2):
            x = np.sqrt(dim * law.isf(1.0 / y))
            p = 1.0 / y
            assert abs(np.mean(r > x) - p) <= 5 * np.sqrt(p * (1 - p) / n)

    def test_array_argument(self):
        # U(y) = y for Pareto(1): the uniforms 0, 1/2, 9/10 give 1, 2, 10
        spec = GeneratingVariateSpec.pareto(1.0)
        r = draw_radii(spec, _Uniforms(0.0, 0.5, 0.9), 3)
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
    r = draw_radii(GeneratingVariateSpec.pareto(alpha), _Uniforms(u))[0]
    assert r**-alpha * y_stored == pytest.approx(1.0, rel=1e-9)
    r = draw_radii(GeneratingVariateSpec.frechet(alpha), _Uniforms(u))[0]
    assert -np.expm1(-(r**-alpha)) * y_stored == pytest.approx(1.0, rel=1e-9)


def unit_rows(d, n, gen):
    """``sample_elliptical``'s rows at mu = 0 and sigma = I, drawn off
    ``gen``, whose uniforms are 0: every Pareto radius is then exactly 1.0,
    so each row is its unit direction, bit for bit."""
    model = EllipticalModel(
        mu=np.zeros(d), sigma=np.eye(d), variate=GeneratingVariateSpec.pareto(1.0)
    )
    sample, r = sample_elliptical(model, n, gen)
    assert np.all(r == 1.0)
    return sample


class TestDirections:
    def test_unit_norms(self):
        u = unit_rows(3, 500, _Uniforms(0.0, stream=RngStream(1, 0)))
        np.testing.assert_allclose(np.linalg.norm(u, axis=1), 1.0, atol=1e-12)

    def test_deterministic(self):
        a = unit_rows(2, 10, _Uniforms(0.0, stream=RngStream(9, 1)))
        b = unit_rows(2, 10, _Uniforms(0.0, stream=RngStream(9, 1)))
        np.testing.assert_array_equal(a, b)

    def test_mean_near_zero(self):
        u = unit_rows(2, 20000, _Uniforms(0.0, stream=RngStream(3, 0)))
        assert np.abs(u.mean(axis=0)).max() < 0.02


class TestRadii:
    @pytest.mark.parametrize(
        "spec",
        [
            GeneratingVariateSpec.pareto(2.0),
            GeneratingVariateSpec.frechet(1.0),
            GeneratingVariateSpec.t_radial(3.0),
        ],
        ids=["pareto", "frechet", "t-radial"],
    )
    def test_positive_and_deterministic(self, spec):
        r1 = draw_radii(spec, RngStream(4, 2), 2000)
        r2 = draw_radii(spec, RngStream(4, 2), 2000)
        np.testing.assert_array_equal(r1, r2)
        assert np.all(r1 > 0)

    def test_pareto_respects_lower_endpoint(self):
        spec = GeneratingVariateSpec.pareto(2.0)
        r = draw_radii(spec, RngStream(0, 0), 5000)
        assert np.all(r >= 1.0)

    def test_median_matches_quantile(self):
        # the empirical median of many draws should sit near the Fréchet(2)
        # median, exp(-x**-2) = 1/2 at x = (ln 2)**(-1/2)
        spec = GeneratingVariateSpec.frechet(2.0)
        r = draw_radii(spec, RngStream(17, 0), 40000)
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
        sample, r = sample_elliptical(model, 50, stream)
        gen = stream.generator()
        r2 = plain_radii(model, gen, 50)
        u2 = row_major_sphere(3, gen, 50)
        np.testing.assert_array_equal(r, r2)
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
        rows, r = sample_elliptical(model, 4000, stream)
        gen = stream.generator()
        np.testing.assert_array_equal(r, plain_radii(model, gen, 4000))
        u = row_major_sphere(d, gen, 4000)
        reference = model.mu + r[:, None] * (u @ model.lambda_chol.T)
        tol = 4 * d * np.finfo(float).eps * np.max(np.abs(reference))
        assert np.max(np.abs(rows - reference)) <= tol

    def test_bit_identical_reruns(self):
        model = self._model()
        s1, r1 = sample_elliptical(model, 64, RngStream(0, 0))
        s2, r2 = sample_elliptical(model, 64, RngStream(0, 0))
        np.testing.assert_array_equal(s1, s2)
        np.testing.assert_array_equal(r1, r2)

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            sample_elliptical(self._model(), 0, RngStream(1, 0))

    @pytest.mark.parametrize("family", ["pareto", "frechet", "t-radial"])
    @pytest.mark.parametrize("d", [1, 3])
    def test_radii_are_the_first_draws(self, family, d):
        # the t-radial numerator has d degrees of freedom: the model's d
        model = random_model(d, family)
        _, r = sample_elliptical(model, 500, RngStream(12, d))
        np.testing.assert_array_equal(r, plain_radii(model, RngStream(12, d).generator(), 500))

    @pytest.mark.parametrize(
        "spec, setting",
        [
            (GeneratingVariateSpec.pareto(1e-300), "alpha=1e-300"),
            (GeneratingVariateSpec.pareto(5e-324), "alpha=5e-324"),
            (GeneratingVariateSpec.frechet(1e-300), "alpha=1e-300"),
        ],
        ids=["pareto", "pareto-exponent-beyond-float", "frechet"],
    )
    def test_overflowing_radius_is_a_domain_error(self, spec, setting):
        # a uniform of 1/2 puts 2**(1/alpha) or (1/ln 2)**(1/alpha) beyond
        # the float range; under the suite's filterwarnings = error an
        # overflow warning would fail this test as surely as inf rows would
        with pytest.raises(DomainError, match=f"{spec.family} draw with {setting} overflows"):
            draw_radii(spec, _Uniforms(0.5), 3)

    def test_overflowing_t_radial_radius_names_alpha(self):
        # alpha = 1e308 times a chi-square on 50 degrees of freedom, far
        # above 1.8, is beyond the float range
        spec = GeneratingVariateSpec.t_radial(1e308)
        match = re.escape("t-radial draw with alpha=1e+308 overflows")
        with pytest.raises(DomainError, match=match):
            draw_radii(spec, RngStream(3, 0), 3, dim=50)

    def test_overflowing_row_is_a_domain_error(self):
        # a radius of 0.1**-280 = 1e280 fits a float; times a factor of
        # 1e50 it does not
        model = EllipticalModel(
            mu=np.zeros(1), sigma=np.array([[1e100]]),
            variate=GeneratingVariateSpec.pareto(1 / 280),
        )
        with pytest.raises(DomainError, match="pareto draw with alpha=.* overflows"):
            sample_elliptical(model, 1, _Uniforms(0.9))


def plain_radii(model, gen, n):
    """The model's generating variate by plain numpy transforms of ``gen``'s
    draws: Pareto and Fréchet invert the distribution function at
    uniforms, t-radial takes a ratio of chi-squares, each clamped to the
    smallest normal float."""
    spec = model.variate
    if spec.family == "pareto":
        return (1.0 - gen.random(n)) ** (-1.0 / spec.alpha)
    if spec.family == "frechet":
        return (-np.log(np.maximum(gen.random(n), TINY))) ** (-1.0 / spec.alpha)
    num = np.maximum(gen.chisquare(model.dim, n), TINY)
    den = np.maximum(gen.chisquare(spec.alpha, n), TINY)
    return np.sqrt(num * spec.alpha / den)


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
    radii = plain_radii(model, gen, n)
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
    variate = {
        "pareto": GeneratingVariateSpec.pareto(2.5),
        "frechet": GeneratingVariateSpec.frechet(1.5),
        "t-radial": GeneratingVariateSpec.t_radial(3.0),
    }[family]
    return EllipticalModel(
        mu=rng.normal(size=d), sigma=a @ a.T + d * np.eye(d), variate=variate
    )


class _ZeroRowGenerator(_Uniforms):
    """A generator whose uniforms are 0 and whose standard normal draws
    have an all-zero row 1."""

    def __init__(self, stream):
        super().__init__(0.0, stream=stream)

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
        u = unit_rows(d, n, _Uniforms(0.0, stream=stream))
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
        u = unit_rows(d, 2000, _Uniforms(0.0, stream=stream))
        np.testing.assert_array_max_ulp(u, row_major_sphere(d, stream.generator(), 2000), maxulp=4)
        sample, radii = sample_elliptical(model, 2000, stream)
        ref, ref_radii = row_major_elliptical(model, 2000, stream)
        np.testing.assert_array_equal(radii, ref_radii)
        # coordinate j is r * sum_k L[j, k] * u[k] + mu[j] with |u[k]| <= 1;
        # bound the gap by a few eps of the summed magnitudes
        scale = radii[:, None] * np.abs(model.lambda_chol).sum(axis=1) + np.abs(model.mu)
        assert np.all(np.abs(sample - ref) <= 4 * (d + 2) * EPS * scale)
        assert sample.T.flags.c_contiguous

    def test_output_is_column_major(self):
        sample, _ = sample_elliptical(random_model(3, "pareto"), 5, RngStream(0, 0))
        assert sample.shape == (5, 3)
        assert sample.T.flags.c_contiguous

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_zero_vector_pinned_to_first_axis(self, d):
        u = unit_rows(d, 4, _ZeroRowGenerator(RngStream(8, 0)))
        expected = np.zeros(d)
        expected[0] = 1.0
        np.testing.assert_array_equal(u[1], expected)
        ref = row_major_sphere(d, _ZeroRowGenerator(RngStream(8, 0)), 4)
        np.testing.assert_array_equal(u, ref)
        np.testing.assert_allclose(np.linalg.norm(u, axis=1), 1.0, atol=1e-15)
