import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sephill.distributions import (
    EllipticalModel,
    GeneratingVariateSpec,
    RngStream,
    sample_elliptical,
)
from sephill.errors import (
    ConfigError,
    DegenerateSample,
    DimensionMismatch,
    DomainError,
    KOutOfRange,
    NonFinite,
    NonPositivePivot,
    NotConverged,
)
from sephill.linalg import spd_inverse
from sephill.estimators import (
    SAMPLE_MEAN_COV,
    SPATIAL_MEDIAN_TYLER,
    TRUE_PARAMS,
    estimate_location_scatter,
    hill_plot,
    mahalanobis_distances,
    order_desc,
    sample_covariance,
    sample_mean,
    separating_hill,
    spatial_median,
    tyler_shape,
    univariate_hill,
)

LOG2 = np.log(2.0)
EPS = np.finfo(float).eps


class TestUnivariateHill:
    def test_powers_of_two(self):
        est = univariate_hill([8.0, 4.0, 2.0, 1.0], k=2)
        assert est.gamma_hat == pytest.approx(1.5 * LOG2, rel=1e-12)
        assert est.k == 2 and est.n == 4

    def test_longer_ladder(self):
        ordered = [16.0, 8.0, 4.0, 2.0, 1.0]
        assert univariate_hill(ordered, k=3).gamma_hat == pytest.approx(
            2.0 * LOG2, rel=1e-12
        )
        assert univariate_hill(ordered, k=1).gamma_hat == pytest.approx(
            LOG2, rel=1e-12
        )

    def test_constant_distances_give_zero(self):
        assert univariate_hill([3.0, 3.0, 3.0, 3.0], k=2).gamma_hat == 0.0

    @pytest.mark.parametrize("k", [0, 4, 5, -1])
    def test_k_out_of_range(self, k):
        with pytest.raises(KOutOfRange):
            univariate_hill([8.0, 4.0, 2.0, 1.0], k=k)

    def test_zero_pivot(self):
        with pytest.raises(NonPositivePivot):
            univariate_hill([2.0, 1.0, 0.0, 0.0], k=2)

    def test_unsorted_rejected(self):
        with pytest.raises(DomainError):
            univariate_hill([1.0, 2.0, 4.0], k=1)

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFinite):
            univariate_hill([np.inf, 2.0, 1.0], k=1)

    def test_source_label(self):
        est = univariate_hill([4.0, 2.0, 1.0], k=1, source="direct")
        assert est.location_scatter_source == "direct"


@settings(max_examples=60, deadline=None)
@given(
    scale=st.floats(min_value=1e-6, max_value=1e6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_hill_is_scale_invariant(scale, seed):
    gen = np.random.default_rng(seed)
    ordered = order_desc(gen.pareto(2.0, size=40) + 1.0)
    k = 10
    base = univariate_hill(ordered, k).gamma_hat
    scaled = univariate_hill(order_desc(ordered * scale), k).gamma_hat
    assert scaled == pytest.approx(base, rel=1e-12, abs=1e-12)


class TestOrderDesc:
    def test_sorts_descending(self):
        np.testing.assert_array_equal(
            order_desc([1.0, 3.0, 2.0, 3.0]), [3.0, 3.0, 2.0, 1.0]
        )

    def test_rejects_2d(self):
        with pytest.raises(DimensionMismatch):
            order_desc(np.ones((2, 2)))

    def test_rejects_nan(self):
        with pytest.raises(NonFinite):
            order_desc([1.0, np.nan])

    @pytest.mark.parametrize("top", [1, 2, 7, 29, 30, 31, 100])
    def test_top_is_prefix_of_full_order(self, top):
        # few distinct values, so ties straddle every cut
        rng = np.random.default_rng(17)
        v = rng.integers(0, 6, size=30) * 0.25 + 1.0
        full = order_desc(v)
        part = order_desc(v, top=top)
        assert part.shape == (min(top, v.shape[0]),)
        assert part.tobytes() == full[:top].tobytes()

    def test_top_checks_every_value(self):
        # the non-finite entry is not among the top values, and is still seen
        with pytest.raises(NonFinite):
            order_desc([5.0, 4.0, -np.inf, 3.0], top=2)

    def test_top_below_one_rejected(self):
        with pytest.raises(DomainError):
            order_desc([1.0, 2.0], top=0)


class TestMahalanobis:
    def test_diagonal_oracle(self):
        d = mahalanobis_distances([[2.0, 3.0]], [0.0, 0.0], np.diag([0.25, 1.0 / 9.0]))
        assert d.shape == (1,)
        assert d[0] == pytest.approx(np.sqrt(2.0), rel=1e-14)

    def test_identity_is_euclidean(self):
        x = np.array([[3.0, 4.0]])
        assert mahalanobis_distances(x, np.zeros(2), np.eye(2))[0] == pytest.approx(5.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mahalanobis_distances(np.ones((4, 2)), np.zeros(3), np.eye(3))

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_many_rows_match_row_loop_in_every_layout(self, d):
        rng = np.random.default_rng(40 + d)
        n = 257
        a = rng.normal(size=(d, d))
        sigma_inv = a @ a.T + d * np.eye(d)
        mu = rng.normal(size=d)
        base = rng.normal(loc=2.0, size=(2 * n, 2 * d))
        x = np.ascontiguousarray(base[::2, ::2])
        layouts = {
            "c-order": x,
            "fortran": np.asfortranarray(x),
            "transposed-view": np.ascontiguousarray(x.T).T,
            "strided-slice": base[::2, ::2],
        }
        expected = np.array([
            math.sqrt(sum(
                (row[i] - mu[i]) * sigma_inv[i, j] * (row[j] - mu[j])
                for i in range(d) for j in range(d)
            ))
            for row in x.tolist()
        ])
        results = {
            name: mahalanobis_distances(sample, mu, sigma_inv)
            for name, sample in layouts.items()
        }
        for name, dist in results.items():
            assert dist.shape == (n,), name
            np.testing.assert_allclose(
                dist, expected, rtol=4 * d * EPS, atol=0, err_msg=name
            )
            # the layout of the input cannot change a single bit
            np.testing.assert_array_equal(dist, results["c-order"], err_msg=name)


class TestSeparatingHill:
    def test_matches_ordered_distances(self):
        # points on the first axis make the scatter distances explicit
        sample = np.array([[8.0, 0.0], [4.0, 0.0], [2.0, 0.0], [1.0, 0.0]])
        est = separating_hill(sample, np.zeros(2), np.eye(2), k=2)
        assert est.gamma_hat == pytest.approx(1.5 * LOG2, rel=1e-12)
        assert est.location_scatter_source == TRUE_PARAMS

    def test_affine_invariance(self):
        rng = np.random.default_rng(11)
        model = EllipticalModel(
            mu=np.array([1.0, -1.0]),
            sigma=np.array([[2.0, 0.3], [0.3, 0.5]]),
            variate=GeneratingVariateSpec.pareto(2.0),
        )
        sample, _ = sample_elliptical(model, 300, RngStream(2, 0))
        base = separating_hill(sample, model.mu, model.sigma, k=17).gamma_hat

        a = rng.normal(size=(2, 2)) + 2.0 * np.eye(2)
        b = rng.normal(size=2)
        mapped = sample @ a.T + b
        mapped_est = separating_hill(
            mapped, a @ model.mu + b, a @ model.sigma @ a.T, k=17
        ).gamma_hat
        assert mapped_est == pytest.approx(base, rel=1e-9)


class TestMoments:
    def test_mean_oracle(self):
        np.testing.assert_allclose(
            sample_mean([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]]), [1.0, 1.0]
        )

    def test_covariance_oracle(self):
        cov = sample_covariance([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]])
        np.testing.assert_allclose(cov, np.diag([4.0 / 3.0, 4.0 / 3.0]), atol=1e-15)

    def test_covariance_univariate(self):
        np.testing.assert_allclose(sample_covariance([[1.0], [3.0]]), [[2.0]])

    def test_too_few_rows(self):
        with pytest.raises(DegenerateSample):
            sample_covariance(np.ones((2, 2)))

    def test_collinear_rows(self):
        rows = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        with pytest.raises(DegenerateSample):
            sample_covariance(rows)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_match_numpy_on_noncontiguous_input(self, d):
        rng = np.random.default_rng(70 + d)
        base = rng.normal(loc=3.0, size=(3 * 401, 2 * d))
        x = base[::3, ::2]
        assert not x.flags.c_contiguous and not x.flags.f_contiguous
        np.testing.assert_allclose(sample_mean(x), np.mean(x, axis=0), rtol=1e-14)
        np.testing.assert_allclose(
            sample_covariance(x), np.atleast_2d(np.cov(x, rowvar=False)),
            rtol=1e-13, atol=1e-15,
        )


class TestSpatialMedian:
    def test_two_points_midpoint(self):
        m = spatial_median([[0.0, 0.0], [2.0, 0.0]])
        np.testing.assert_allclose(m, [1.0, 0.0], atol=1e-9)

    def test_square_center(self):
        pts = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
        np.testing.assert_allclose(spatial_median(pts), [0.5, 0.5], atol=1e-9)

    def test_majority_point_wins(self):
        pts = [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [5.0, 0.0]]
        np.testing.assert_allclose(spatial_median(pts), [0.0, 0.0], atol=1e-8)

    def test_moves_off_repeated_point_it_lands_on(self):
        # the start, the mean (0, 0), is a data point, and the pull of the
        # other rows there exceeds its multiplicity, so the iterate must move
        pts = [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [-3.0, 0.0]]
        np.testing.assert_allclose(spatial_median(pts), [1.0, 0.0], atol=1e-9)

    def test_gradient_small_at_solution(self):
        rng = np.random.default_rng(3)
        x = rng.standard_t(df=2.0, size=(200, 3))
        m = spatial_median(x, tol=1e-12)
        diff = x - m
        unit = diff / np.linalg.norm(diff, axis=1)[:, None]
        assert np.linalg.norm(unit.sum(axis=0)) < 1e-6

    @pytest.mark.parametrize("d", [2, 3, 4], ids=["d2", "d3", "d4"])
    def test_meets_gradient_criterion(self, d):
        # the stopping rule recomputed row by row from the data: the sum of
        # unit vectors toward the rows has norm at most d * tol * n
        rng = np.random.default_rng(40 + d)
        n, tol = 2000, 1e-10
        x = rng.standard_t(df=1.5, size=(n, d)) + np.linspace(-2.0, 3.0, d)

        def gradient_norm(m):
            unit_sum = np.zeros(d)
            for row in x:
                unit_sum += (row - m) / np.sqrt(np.sum((row - m) ** 2))
            return np.linalg.norm(unit_sum)

        assert gradient_norm(spatial_median(x, tol=tol)) <= d * tol * n
        # the starting point, the mean, is far from meeting it
        assert gradient_norm(x.mean(axis=0)) > 1e6 * d * tol * n

    def test_translation_equivariance(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(50, 2))
        shift = np.array([10.0, -3.0])
        np.testing.assert_allclose(
            spatial_median(x + shift), spatial_median(x) + shift, atol=1e-8
        )

    def test_not_converged_carries_last_iterate(self):
        rng = np.random.default_rng(9)
        x = rng.standard_t(df=1.5, size=(60, 2))
        with pytest.raises(NotConverged) as info:
            spatial_median(x, tol=1e-15, max_iter=1)
        err = info.value
        assert err.iterations == 1
        assert isinstance(err.last_iterate, np.ndarray)
        assert err.last_iterate.shape == (2,)


class TestTylerShape:
    def _heavy_sample(self, sigma, n, seed, mu=None):
        d = sigma.shape[0]
        model = EllipticalModel(
            mu=np.zeros(d) if mu is None else mu,
            sigma=sigma,
            variate=GeneratingVariateSpec.t_radial(1.0, d),
        )
        sample, _ = sample_elliptical(model, n, RngStream(seed, 0))
        return sample

    def test_trace_is_dimension(self):
        sample = self._heavy_sample(np.eye(3), 400, seed=21)
        v = tyler_shape(sample, np.zeros(3))
        assert np.trace(v) == pytest.approx(3.0, abs=1e-12)
        np.testing.assert_allclose(v, v.T)

    @pytest.mark.parametrize(
        "sigma",
        [
            np.array([[2.0, 0.7], [0.7, 1.0]]),
            np.array([[2.0, 0.7, -0.3], [0.7, 1.0, 0.2], [-0.3, 0.2, 0.5]]),
            np.array(
                [
                    [2.0, 0.7, -0.3, 0.1],
                    [0.7, 1.0, 0.2, 0.0],
                    [-0.3, 0.2, 0.5, -0.1],
                    [0.1, 0.0, -0.1, 3.0],
                ]
            ),
        ],
        ids=["d2", "d3", "d4"],
    )
    def test_fixed_point_residual(self, sigma):
        # the direct quadratic-form map, independent of the moment form
        d = sigma.shape[0]
        mu = np.linspace(-1.0, 2.0, d)
        sample = self._heavy_sample(sigma, 500, seed=5, mu=mu)
        tol = 1e-9
        v = tyler_shape(sample, mu, tol=tol)
        diff = sample - mu
        q = np.einsum("ni,ij,nj->n", diff, np.linalg.inv(v), diff)
        mapped = (d / diff.shape[0]) * np.einsum(
            "ni,nj->ij", diff / q[:, None], diff
        )
        mapped *= d / np.trace(mapped)
        assert np.max(np.abs(mapped - v)) < 10 * tol

    def test_recovers_shape_matrix(self):
        sigma = np.array([[3.0, 1.0], [1.0, 2.0]])
        sample = self._heavy_sample(sigma, 4000, seed=13)
        v = tyler_shape(sample, np.zeros(2))
        target = 2.0 * sigma / np.trace(sigma)
        assert np.max(np.abs(v - target)) < 0.12

    def test_rows_at_location_dropped_with_warning(self):
        rng = np.random.default_rng(2)
        x = np.vstack([rng.normal(size=(50, 2)), np.zeros((3, 2))])
        with pytest.warns(UserWarning, match="dropping 3 rows"):
            v = tyler_shape(x, np.zeros(2))
        assert np.trace(v) == pytest.approx(2.0, abs=1e-12)

    def test_too_few_rows(self):
        with pytest.raises(DegenerateSample):
            tyler_shape(np.eye(2), np.zeros(2))

    def test_location_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            tyler_shape(np.ones((10, 2)), np.zeros(3))


class TestEstimateLocationScatter:
    def test_mean_cov_method(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(100, 2))
        est = estimate_location_scatter(x, SAMPLE_MEAN_COV)
        np.testing.assert_array_equal(est.mu_hat, sample_mean(x))
        np.testing.assert_array_equal(est.sigma_hat, sample_covariance(x))
        np.testing.assert_allclose(
            est.sigma_hat_inv @ est.sigma_hat, np.eye(2), atol=1e-10
        )
        assert est.method == SAMPLE_MEAN_COV

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_mean_cov_inverse_is_spd_inverse_of_the_fit(self, d):
        # the inverse is built from the factorization that checks the fit,
        # and must be the same bits as inverting the fit afresh
        model = EllipticalModel(
            mu=np.arange(d, dtype=float),
            sigma=np.eye(d) + 0.3 * np.ones((d, d)),
            variate=GeneratingVariateSpec.pareto(5.0),
        )
        x, _ = sample_elliptical(model, 2000, RngStream(12, d))
        est = estimate_location_scatter(x, SAMPLE_MEAN_COV)
        np.testing.assert_array_equal(est.sigma_hat_inv, spd_inverse(est.sigma_hat))

    def test_median_tyler_method(self):
        rng = np.random.default_rng(7)
        x = rng.standard_t(df=2.0, size=(300, 2))
        est = estimate_location_scatter(x, SPATIAL_MEDIAN_TYLER)
        assert np.trace(est.sigma_hat) == pytest.approx(2.0, abs=1e-12)
        assert est.iterations > 0

    def test_unknown_method(self):
        with pytest.raises(ConfigError):
            estimate_location_scatter(np.ones((10, 2)), "mle")


class TestHillPlot:
    def test_ladder_oracle(self):
        sample = np.array(
            [[16.0, 0.0], [8.0, 0.0], [4.0, 0.0], [2.0, 0.0], [1.0, 0.0]]
        )
        from sephill.estimators import LocationScatterEstimate

        ls = LocationScatterEstimate(
            mu_hat=np.zeros(2),
            sigma_hat=np.eye(2),
            sigma_hat_inv=np.eye(2),
            method=TRUE_PARAMS,
        )
        rows = hill_plot(sample, ls, [1, 3])
        assert rows[0][0] == 1 and rows[0][1] == pytest.approx(LOG2, rel=1e-12)
        assert rows[1][0] == 3 and rows[1][1] == pytest.approx(2 * LOG2, rel=1e-12)

    def test_agrees_with_separating_hill(self):
        model = EllipticalModel(
            mu=np.array([0.5, 0.5]),
            sigma=np.array([[1.0, 0.2], [0.2, 1.0]]),
            variate=GeneratingVariateSpec.pareto(2.0),
        )
        sample, _ = sample_elliptical(model, 200, RngStream(3, 1))
        from sephill.estimators import LocationScatterEstimate
        from sephill.linalg import spd_inverse

        ls = LocationScatterEstimate(
            mu_hat=model.mu,
            sigma_hat=model.sigma,
            sigma_hat_inv=spd_inverse(model.sigma),
            method=TRUE_PARAMS,
        )
        rows = hill_plot(sample, ls, range(5, 50, 5))
        for k, gamma in rows:
            direct = separating_hill(sample, model.mu, model.sigma, k=k).gamma_hat
            assert gamma == pytest.approx(direct, rel=1e-12, abs=1e-13)
