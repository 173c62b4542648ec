import math
import re
import warnings

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
    SingularIterate,
)
from sephill import estimators
from sephill.linalg import spd_inverse
from sephill.estimators import (
    ESTIMATOR_METHODS,
    MAX_ITER,
    MEDIAN_TOL,
    SAMPLE_MEAN_COV,
    SHAPE_TOL,
    SPATIAL_MEDIAN_TYLER,
    check_ordered,
    estimate_location_scatter,
    hill_plot,
    mahalanobis_distances,
    order_desc,
    separating_hill,
    univariate_hill,
)
from sephill.montecarlo import ExperimentConfig, run_replication

LOG2 = np.log(2.0)
EPS = np.finfo(float).eps


# The robust fit's two solves, called directly so that a test can set
# their tolerance and budget.
def weiszfeld(x, tol=MEDIAN_TOL, max_iter=MAX_ITER):
    """The spatial median of the rows."""
    return estimators._spatial_median_iter(np.asarray(x, dtype=float), tol, max_iter)[0]


def centred(x, mu):
    """The ``(d, n)`` differences of the rows from ``mu``."""
    return np.subtract(np.asarray(x, dtype=float).T, np.asarray(mu, dtype=float)[:, None])


def tyler(x, mu, tol=SHAPE_TOL, max_iter=MAX_ITER):
    """Tyler's trace-d shape of the rows around ``mu``."""
    return estimators._tyler_iter(centred(x, mu), tol, max_iter)[0]


def mean_cov(x):
    """The mean/covariance fit's location and scatter."""
    fit = estimate_location_scatter(x, SAMPLE_MEAN_COV)
    return fit.mu_hat, fit.sigma_hat


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


class TestCheckOrdered:
    def test_returns_float_array_keeping_ties(self):
        v = check_ordered([3, 2, 2, 1], "x")
        assert v.dtype == np.float64
        np.testing.assert_array_equal(v, [3.0, 2.0, 2.0, 1.0])
        assert check_ordered([], "x").shape == (0,)
        assert check_ordered([5.0], "x").shape == (1,)

    @pytest.mark.parametrize(
        "values, error",
        [
            ([[2.0, 1.0]], DimensionMismatch),
            ([2.0, np.nan, 1.0], NonFinite),
            ([1.0, 2.0], DomainError),
        ],
        ids=["2-d", "nan", "ascending"],
    )
    def test_rejects_with_name(self, values, error):
        with pytest.raises(error, match="seq"):
            check_ordered(values, "seq")


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
        mu, _ = mean_cov([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]])
        np.testing.assert_allclose(mu, [1.0, 1.0])

    def test_covariance_oracle(self):
        _, cov = mean_cov([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]])
        np.testing.assert_allclose(cov, np.diag([4.0 / 3.0, 4.0 / 3.0]), atol=1e-15)

    def test_covariance_univariate(self):
        np.testing.assert_allclose(mean_cov([[1.0], [3.0]])[1], [[2.0]])

    def test_too_few_rows(self):
        with pytest.raises(DegenerateSample):
            estimate_location_scatter(np.ones((2, 2)), SAMPLE_MEAN_COV)

    def test_collinear_rows(self):
        rows = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        with pytest.raises(DegenerateSample):
            estimate_location_scatter(rows, SAMPLE_MEAN_COV)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_match_numpy_on_noncontiguous_input(self, d):
        rng = np.random.default_rng(70 + d)
        base = rng.normal(loc=3.0, size=(3 * 401, 2 * d))
        x = base[::3, ::2]
        assert not x.flags.c_contiguous and not x.flags.f_contiguous
        mu, cov = mean_cov(x)
        np.testing.assert_allclose(mu, np.mean(x, axis=0), rtol=1e-14)
        np.testing.assert_allclose(
            cov, np.atleast_2d(np.cov(x, rowvar=False)), rtol=1e-13, atol=1e-15
        )


class TestSpatialMedian:
    def test_two_points_midpoint(self):
        m = weiszfeld([[0.0, 0.0], [2.0, 0.0]])
        np.testing.assert_allclose(m, [1.0, 0.0], atol=1e-9)

    def test_square_center(self):
        pts = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
        np.testing.assert_allclose(weiszfeld(pts), [0.5, 0.5], atol=1e-9)

    def test_majority_point_wins(self):
        pts = [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [5.0, 0.0]]
        np.testing.assert_allclose(weiszfeld(pts), [0.0, 0.0], atol=1e-8)

    def test_moves_off_repeated_point_it_lands_on(self):
        # the start, the mean (0, 0), is a data point, and the pull of the
        # other rows there exceeds its multiplicity, so the iterate must move
        pts = [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [-3.0, 0.0]]
        np.testing.assert_allclose(weiszfeld(pts), [1.0, 0.0], atol=1e-9)

    def test_gradient_small_at_solution(self):
        rng = np.random.default_rng(3)
        x = rng.standard_t(df=2.0, size=(200, 3))
        m = weiszfeld(x, tol=1e-12)
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

        assert gradient_norm(weiszfeld(x, tol=tol)) <= d * tol * n
        # the starting point, the mean, is far from meeting it
        assert gradient_norm(x.mean(axis=0)) > 1e6 * d * tol * n

    def test_translation_equivariance(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(50, 2))
        shift = np.array([10.0, -3.0])
        np.testing.assert_allclose(
            weiszfeld(x + shift), weiszfeld(x) + shift, atol=1e-8
        )

    def test_not_converged_carries_last_iterate(self):
        rng = np.random.default_rng(9)
        x = rng.standard_t(df=1.5, size=(60, 2))
        with pytest.raises(NotConverged) as info:
            weiszfeld(x, tol=1e-15, max_iter=1)
        err = info.value
        assert err.iterations == 1
        assert isinstance(err.last_iterate, np.ndarray)
        assert err.last_iterate.shape == (2,)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_returns_the_differences_from_the_median(self, d):
        # Tyler's fit takes them in place of its own centring, so they
        # must be the rows minus the returned median, bit for bit, in
        # either layout
        rng = np.random.default_rng(70 + d)
        x = rng.standard_t(df=1.5, size=(300, d)) + np.linspace(-1.0, 2.0, d)
        for rows in (x, np.asfortranarray(x)):
            m, _, diff = estimators._spatial_median_iter(rows, MEDIAN_TOL, MAX_ITER)
            assert diff.shape == (d, 300)
            assert diff.tobytes() == centred(rows, m).tobytes()


class TestTylerShape:
    def _heavy_sample(self, sigma, n, seed, mu=None):
        d = sigma.shape[0]
        model = EllipticalModel(
            mu=np.zeros(d) if mu is None else mu,
            sigma=sigma,
            variate=GeneratingVariateSpec.t_radial(1.0),
        )
        sample, _ = sample_elliptical(model, n, RngStream(seed, 0))
        return sample

    def test_trace_is_dimension(self):
        sample = self._heavy_sample(np.eye(3), 400, seed=21)
        v = tyler(sample, np.zeros(3))
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
        v = tyler(sample, mu, tol=tol)
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
        v = tyler(sample, np.zeros(2))
        target = 2.0 * sigma / np.trace(sigma)
        assert np.max(np.abs(v - target)) < 0.12

    def test_rows_at_location_dropped_with_warning(self):
        rng = np.random.default_rng(2)
        x = np.vstack([rng.normal(size=(50, 2)), np.zeros((3, 2))])
        with pytest.warns(UserWarning, match="dropping 3 rows"):
            v = tyler(x, np.zeros(2))
        assert np.trace(v) == pytest.approx(2.0, abs=1e-12)

    def test_too_few_rows(self):
        with pytest.raises(DegenerateSample):
            tyler(np.eye(2), np.zeros(2))


class TestEstimateLocationScatter:
    def test_mean_cov_method(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(100, 2))
        est = estimate_location_scatter(x, SAMPLE_MEAN_COV)
        np.testing.assert_allclose(est.mu_hat, np.mean(x, axis=0), rtol=1e-14)
        np.testing.assert_allclose(est.sigma_hat, np.cov(x, rowvar=False), rtol=1e-13)
        np.testing.assert_allclose(
            est.sigma_hat_inv @ est.sigma_hat, np.eye(2), atol=1e-10
        )

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


class TestLayoutIndependence:
    """``estimate`` fits row-major CSV data and ``experiment`` fits
    column-major samples: the two layouts of one sample give the same
    bytes."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_fits_and_distances_do_not_depend_on_layout(self, d):
        model = EllipticalModel(
            mu=np.linspace(-1.0, 2.0, d),
            sigma=SHAPES.get(d, np.eye(d)),
            variate=GeneratingVariateSpec.pareto(2.0),
        )
        sample, _ = sample_elliptical(model, 3000, RngStream(70, d))
        col_major = np.asfortranarray(sample)
        row_major = np.ascontiguousarray(sample)
        assert col_major.T.flags.c_contiguous and row_major.flags.c_contiguous
        for method in ESTIMATOR_METHODS:
            f, c = (estimate_location_scatter(x, method) for x in (col_major, row_major))
            for field in ("mu_hat", "sigma_hat", "sigma_hat_inv"):
                assert getattr(f, field).tobytes() == getattr(c, field).tobytes()
            assert (f.median_iterations, f.shape_iterations) == (
                c.median_iterations,
                c.shape_iterations,
            )
            dist_f = mahalanobis_distances(col_major, f.mu_hat, f.sigma_hat_inv)
            dist_c = mahalanobis_distances(row_major, c.mu_hat, c.sigma_hat_inv)
            assert dist_f.tobytes() == dist_c.tobytes()
            hill_f = separating_hill(col_major, f.mu_hat, f.sigma_hat, k=60)
            hill_c = separating_hill(row_major, c.mu_hat, c.sigma_hat, k=60)
            assert hill_f == hill_c


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
        )
        rows = hill_plot(sample, ls, range(5, 50, 5))
        for k, gamma in rows:
            direct = separating_hill(sample, model.mu, model.sigma, k=k).gamma_hat
            assert gamma == pytest.approx(direct, rel=1e-12, abs=1e-13)


class TestTopOrdering:
    """hill_plot and separating_hill order only the max(k) + 1 largest
    distances, with the bytes of a full sort; k is checked against the
    sample's n first."""

    @staticmethod
    def _tied_sample():
        # rows on the axes at radii 1..6, each radius four times over
        radii = np.repeat(np.arange(6.0, 0.0, -1.0), 4)
        signs = np.tile([1.0, -1.0], 12)
        sample = np.zeros((24, 2))
        sample[0::2, 0] = radii[0::2] * signs[0::2]
        sample[1::2, 1] = radii[1::2] * signs[1::2]
        return sample

    @staticmethod
    def _fit():
        from sephill.estimators import LocationScatterEstimate

        return LocationScatterEstimate(
            mu_hat=np.zeros(2), sigma_hat=np.eye(2), sigma_hat_inv=np.eye(2)
        )

    def _full_sort_hill(self, k):
        ordered = order_desc(
            mahalanobis_distances(self._tied_sample(), np.zeros(2), np.eye(2))
        )
        return estimators._hill_from_ordered(ordered, k)

    def test_tied_distances_keep_the_full_sort_bytes(self, monkeypatch):
        tops = []
        real = estimators.order_desc

        def spy(values, top=None, **kwargs):
            tops.append(top)
            return real(values, top, **kwargs)

        monkeypatch.setattr(estimators, "order_desc", spy)
        sample, ks = self._tied_sample(), [3, 4, 9, 12]
        rows = hill_plot(sample, self._fit(), ks)
        hill = [separating_hill(sample, np.zeros(2), np.eye(2), k).gamma_hat for k in ks]
        monkeypatch.undo()
        assert tops == [13] + [k + 1 for k in ks]
        expected = [self._full_sort_hill(k) for k in ks]
        assert [g for _, g in rows] == hill == expected
        assert np.array(hill).tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize("k", [0, 24])
    def test_k_out_of_range_names_the_sample_size(self, k):
        message = f"k must satisfy 1 <= k <= n - 1, got k={k}, n=24"
        with pytest.raises(KOutOfRange, match=re.escape(message)):
            hill_plot(self._tied_sample(), self._fit(), [2, k])
        with pytest.raises(KOutOfRange, match=re.escape(message)):
            separating_hill(self._tied_sample(), np.zeros(2), np.eye(2), k)


# The Weiszfeld and Tyler loops without acceleration, one plain map step
# per iteration: the reference the Anderson-mixed solvers are held to.
def plain_spatial_median(x, tol=MEDIAN_TOL, max_iter=MAX_ITER):
    n, d = x.shape
    m = x.mean(axis=0)
    scale = float(np.max(np.abs(x - m)))
    collision_eps = 1e-12 * max(scale, 1e-300)
    grad_tol = d * tol * n
    cols = np.ascontiguousarray(x.T)
    buf = np.empty_like(cols)
    for it in range(1, max_iter + 1):
        np.subtract(cols, m[:, None], out=buf)
        dist = np.sqrt(np.einsum("in,in->n", buf, buf))
        coll = dist <= collision_eps
        eta = int(np.count_nonzero(coll))
        if eta == n:
            return m, it
        diff, rows = buf, cols
        if eta > 0:
            keep = ~coll
            dist, diff, rows = dist[keep], buf[:, keep], cols[:, keep]
        w = 1.0 / dist
        g = float(np.linalg.norm(np.einsum("in,n->i", diff, w)))
        if eta > 0 and g <= eta:
            return m, it
        if eta == 0 and g <= grad_tol:
            return m, it
        target = np.einsum("in,n->i", rows, w) / w.sum()
        if eta > 0:
            step_frac = min(1.0, eta / g)
            m = (1.0 - step_frac) * target + step_frac * m
        else:
            m = target
    raise NotConverged("plain Weiszfeld", last_iterate=m, iterations=max_iter)


def plain_tyler(x, mu_hat, tol=SHAPE_TOL, max_iter=MAX_ITER):
    n, d = x.shape
    diff = x - mu_hat
    assert not np.any(np.all(diff == 0.0, axis=1))
    iu, ju = np.triu_indices(d)
    moments = np.empty((iu.shape[0], n))
    for k in range(iu.shape[0]):
        np.multiply(diff[:, iu[k]], diff[:, ju[k]], out=moments[k])
    pair_weight = np.where(iu == ju, 1.0, 2.0)
    v = np.eye(d)
    for it in range(1, max_iter + 1):
        v_inv = spd_inverse(v)
        q = np.einsum("kn,k->n", moments, v_inv[iu, ju] * pair_weight)
        upper = np.einsum("kn,n->k", moments, 1.0 / q) * (d / n)
        nxt = np.empty((d, d))
        nxt[iu, ju] = upper
        nxt[ju, iu] = upper
        nxt *= d / float(np.trace(nxt))
        delta = float(np.max(np.abs(nxt - v)))
        v = nxt
        if delta < tol:
            return v, it
    raise NotConverged("plain Tyler", last_iterate=v, iterations=max_iter)


def weiszfeld_gradient(x, m):
    """Norm of the sum of unit vectors from m toward the rows."""
    diff = x - m
    return float(np.linalg.norm((diff / np.linalg.norm(diff, axis=1)[:, None]).sum(axis=0)))


def tyler_step(x, mu, v):
    """One Tyler step from v, from the quadratic forms row by row."""
    d = x.shape[1]
    diff = x - mu
    q = np.einsum("ni,ij,nj->n", diff, np.linalg.inv(v), diff)
    mapped = np.einsum("ni,nj->ij", diff / q[:, None], diff)
    return mapped * (d / np.trace(mapped))


SHAPES = {
    2: np.array([[2.0, 0.7], [0.7, 1.0]]),
    3: np.array([[2.0, 0.7, -0.3], [0.7, 1.0, 0.2], [-0.3, 0.2, 0.5]]),
    4: np.array(
        [[2.0, 0.7, -0.3, 0.1], [0.7, 1.0, 0.2, 0.0], [-0.3, 0.2, 0.5, -0.1], [0.1, 0.0, -0.1, 3.0]]
    ),
}


def pareto_sample(d, n, seed):
    model = EllipticalModel(
        mu=np.linspace(-1.0, 2.0, d),
        sigma=SHAPES[d],
        variate=GeneratingVariateSpec.pareto(2.0),
    )
    return sample_elliptical(model, n, RngStream(seed, d))[0]


def criterion_4_model():
    return EllipticalModel(
        mu=np.array([0.5, -1.0]),
        sigma=np.array([[1.5, 0.4], [0.4, 0.8]]),
        variate=GeneratingVariateSpec.pareto(2.0),
    )


def criterion_4_config():
    return ExperimentConfig(
        criterion_4_model(), (10**3, 10**4, 10**5), 4,
        base_seed=20260401, estimator_method=SPATIAL_MEDIAN_TYLER,
    )


class TestAndersonMixer:
    def test_mixed_point_solves_the_least_squares_problem(self):
        # against lstsq on the differences of the last memory + 1 pairs
        rng = np.random.default_rng(80)
        size, memory = 4, 3
        mixer = estimators._AndersonMixer(size, memory)
        pairs = []
        for _ in range(8):
            f, r = rng.normal(size=size), rng.normal(size=size)
            pairs.append((f, r))
            point = mixer.push(f, r)
            window = pairs[-(memory + 1):]
            assert mixer.held == len(window)
            if len(window) == 1:
                assert point is f
                continue
            d_out = np.diff([p[0] for p in window], axis=0)
            d_res = np.diff([p[1] for p in window], axis=0)
            g = np.linalg.lstsq(d_res.T, r, rcond=None)[0]
            np.testing.assert_allclose(point, f - g @ d_out, rtol=1e-10, atol=1e-12)

    def test_full_memory_finds_the_fixed_point_of_an_affine_map(self):
        # memory + 1 evaluations of an affine contraction on R^memory
        # determine its fixed point
        rng = np.random.default_rng(81)
        size = 5
        a = rng.normal(size=(size, size))
        a *= 0.9 / np.max(np.abs(np.linalg.eigvals(a)))
        b = rng.normal(size=size)
        fixed = np.linalg.solve(np.eye(size) - a, b)
        mixer = estimators._AndersonMixer(size, size)
        x = np.zeros(size)
        for _ in range(size + 1):
            f = a @ x + b
            x = mixer.push(f, f - x)
        np.testing.assert_allclose(x, fixed, rtol=0, atol=1e-9)

    def test_singular_problem_and_restart_give_the_plain_point(self):
        mixer = estimators._AndersonMixer(2, 2)
        f, g, r = np.array([1.0, 2.0]), np.array([3.0, 4.0]), np.array([0.5, -0.5])
        assert mixer.push(f, r) is f
        # a repeated pair has zero differences: the problem is singular
        assert mixer.push(f, r) is f
        mixer.restart()
        assert mixer.held == 0
        assert mixer.push(g, r) is g
        assert mixer.held == 1


class TestAndersonMixing:
    @pytest.mark.parametrize("n", [10**3, 10**4])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_plain_loops_in_fewer_steps(self, d, n):
        x = pareto_sample(d, n, seed=60)
        m_plain, med_plain = plain_spatial_median(x)
        v_plain, shape_plain = plain_tyler(x, m_plain)
        fit = estimate_location_scatter(x, SPATIAL_MEDIAN_TYLER)
        assert np.max(np.abs(fit.mu_hat - m_plain)) <= 1e-8
        assert np.max(np.abs(fit.sigma_hat - v_plain)) <= 1e-8
        # at d = 2 the plain loops contract by about 1/2 per step and the
        # mixed solves need at most half their steps; at higher d the plain
        # loops contract faster, and mixing saves less
        if d == 2:
            assert 2 * fit.median_iterations <= med_plain
            assert 2 * fit.shape_iterations <= shape_plain
        else:
            assert fit.median_iterations < med_plain
            assert fit.shape_iterations < shape_plain
        # both stopping rules hold at the returned fit
        assert weiszfeld_gradient(x, fit.mu_hat) <= d * MEDIAN_TOL * n
        step = tyler_step(x, fit.mu_hat, fit.sigma_hat)
        assert np.max(np.abs(step - fit.sigma_hat)) < SHAPE_TOL

    @staticmethod
    def _mix_to(monkeypatch, point):
        """Make every mixed point ``point(f)`` for the latest output ``f``;
        returns the list of the mixed points replaced."""
        calls = []
        push = estimators._AndersonMixer.push

        def patched(self, f, r):
            mixed = push(self, f, r)
            if self.held == 1:
                return mixed
            calls.append(mixed)
            return point(f)

        monkeypatch.setattr(estimators._AndersonMixer, "push", patched)
        return calls

    def test_weiszfeld_drops_mixed_point_that_raises_objective(self, monkeypatch):
        x = pareto_sample(2, 1000, seed=61)
        # far outside the data: the objective rises
        calls = self._mix_to(monkeypatch, lambda f: f + 100.0)
        m, evals, _ = estimators._spatial_median_iter(x, MEDIAN_TOL, MAX_ITER)
        m_plain, steps = plain_spatial_median(x)
        # every mixed point is dropped, so the accepted iterates are the
        # plain ones, and each plain step after the first two spends one
        # evaluation on a dropped point
        assert len(calls) == steps - 2 > 0
        assert evals == steps + len(calls)
        np.testing.assert_allclose(m, m_plain, rtol=0, atol=1e-12)
        assert weiszfeld_gradient(x, m) <= 2 * MEDIAN_TOL * x.shape[0]

    @pytest.mark.parametrize(
        "point, evaluated",
        [
            # trace 3 and one positive eigenvalue: its step raises
            (np.diag([5.0, -1.0, -1.0]), True),
            # trace -3: it cannot be rescaled, and no step is taken
            (np.diag([1.0, -2.0, -2.0]), False),
        ],
        ids=["indefinite", "negative-trace"],
    )
    def test_tyler_drops_mixed_point_that_is_not_spd(self, monkeypatch, point, evaluated):
        x = pareto_sample(3, 1000, seed=62)
        mu = weiszfeld(x)
        upper = point[np.triu_indices(3)]
        calls = self._mix_to(monkeypatch, lambda f: upper.copy())
        v, evals = estimators._tyler_iter(centred(x, mu), SHAPE_TOL, MAX_ITER)
        v_plain, steps = plain_tyler(x, mu)
        assert len(calls) == steps - 2 > 0
        assert evals == steps + (len(calls) if evaluated else 0)
        np.testing.assert_array_equal(v, v_plain)
        assert np.max(np.abs(tyler_step(x, mu, v) - v)) < SHAPE_TOL

    def test_tyler_raises_when_a_plain_step_is_singular(self):
        # rows on a line through the location: the first step is a rank-one
        # shape, and the step from it cannot invert it
        t = np.linspace(-3.0, 3.0, 40)
        x = np.column_stack([t, 2.0 * t]) + np.array([1.0, -1.0])
        with pytest.raises(SingularIterate):
            tyler(x[t != 0.0], np.array([1.0, -1.0]))

    @pytest.mark.parametrize("max_iter", [1, 2, 3])
    def test_budget_counts_every_map_evaluation(self, max_iter):
        # 1 and 2 stop within the first two plain steps, 3 on the first
        # mixed point
        x = pareto_sample(2, 500, seed=63)
        mu = np.array([-1.0, 2.0])
        with pytest.raises(NotConverged, match=f"in {max_iter} iterations") as med:
            weiszfeld(x, tol=0.0, max_iter=max_iter)
        with pytest.raises(NotConverged, match=f"in {max_iter} iterations") as shape:
            tyler(x, mu, tol=0.0, max_iter=max_iter)
        assert med.value.iterations == shape.value.iterations == max_iter
        last = shape.value.last_iterate
        assert np.trace(last) == pytest.approx(2.0, abs=1e-12)
        assert np.all(np.linalg.eigvalsh(last) > 0.0)
        if max_iter < 3:
            with pytest.raises(NotConverged) as ref:
                plain_spatial_median(x, tol=0.0, max_iter=max_iter)
            np.testing.assert_allclose(
                med.value.last_iterate, ref.value.last_iterate, rtol=0, atol=1e-12
            )
            with pytest.raises(NotConverged) as ref:
                plain_tyler(x, mu, tol=0.0, max_iter=max_iter)
            np.testing.assert_array_equal(last, ref.value.last_iterate)

    def test_hill_moves_little_on_criterion_4_seeds(self):
        # the replication's estimate against one from the plain loops' fit
        config = criterion_4_config()
        for n in config.n_values:
            for rep in range(config.replications):
                record = run_replication(config, n, rep)
                x, _ = sample_elliptical(config.model, n, RngStream(config.base_seed, rep))
                m, _ = plain_spatial_median(x)
                v, _ = plain_tyler(x, m)
                plain = separating_hill(x, m, v, config.k_for(n)).gamma_hat
                assert abs(record.gamma_hat_est - plain) <= 1e-8

    def test_evaluations_on_criterion_4_seeds(self):
        # 9.67 Weiszfeld and 9.17 Tyler evaluations per fit are the means
        # of SQUAREM cycles (two plain steps, an extrapolation and one
        # stabilizing step) on these 12 fits
        config = criterion_4_config()
        med, shape = [], []
        for n in config.n_values:
            for rep in range(config.replications):
                x, _ = sample_elliptical(config.model, n, RngStream(config.base_seed, rep))
                fit = estimate_location_scatter(x, SPATIAL_MEDIAN_TYLER)
                med.append(fit.median_iterations)
                shape.append(fit.shape_iterations)
        assert np.mean(med) <= 0.7 * 9.67
        assert np.mean(shape) <= 0.85 * 9.17


class TestOneDimensionalMedian:
    """At d = 1 the spatial median is the median of the column, and
    Tyler's trace-1 shape is [[1.0]]."""

    @pytest.mark.parametrize("n", [2000, 20000, 100000])
    def test_median_tyler_fit_on_pareto_streams(self, n):
        # the Weiszfeld rule can be met here only on the middle
        # observation, and the iteration does not converge on many of these
        # samples within MAX_ITER steps
        model = EllipticalModel(
            mu=np.zeros(1), sigma=np.eye(1), variate=GeneratingVariateSpec.pareto(5.0)
        )
        for seed in range(20):
            x, _ = sample_elliptical(model, n, RngStream(seed, 0))
            fit = estimate_location_scatter(x, SPATIAL_MEDIAN_TYLER)
            col = x[:, 0]
            assert fit.median_iterations == 0
            assert fit.mu_hat.tolist() == [np.median(col)]
            # subgradient rule: the rows on either side balance, up to the
            # rows at the median
            m = fit.mu_hat[0]
            above, below, at = ((col > m).sum(), (col < m).sum(), (col == m).sum())
            assert abs(int(above) - int(below)) <= at
            assert fit.sigma_hat[0, 0] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [1000, 1001])
    def test_shape_is_one_without_a_step_or_a_warning(self, n):
        # at odd n a row equals the median; the shape needs no rows dropped
        model = EllipticalModel(
            mu=np.array([0.5]), sigma=np.array([[2.0]]),
            variate=GeneratingVariateSpec.pareto(3.0),
        )
        for seed in range(5):
            x, _ = sample_elliptical(model, n, RngStream(seed, 0))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                fit = estimate_location_scatter(x, SPATIAL_MEDIAN_TYLER)
            assert caught == []
            assert fit.sigma_hat.tolist() == [[1.0]]
            assert fit.sigma_hat_inv.tolist() == [[1.0]]
            assert fit.shape_iterations == 0

    def test_shape_needs_two_rows_off_the_location(self):
        assert tyler([[1.0], [2.0], [3.0]], [2.0]).tolist() == [[1.0]]
        with pytest.raises(DegenerateSample, match="have 1"):
            tyler([[2.0], [2.0], [3.0]], [2.0])

    def test_odd_count_gives_the_middle_row(self):
        assert weiszfeld([[3.0], [-1.0], [2.0], [7.0], [0.5]]).tolist() == [2.0]

    def test_empty_sample(self):
        with pytest.raises(DegenerateSample):
            estimate_location_scatter(np.empty((0, 1)), SPATIAL_MEDIAN_TYLER)


class TestRobustFitBytes:
    """The criterion-4 fit at d = 2, n = 10^3 on streams (seed, 0): the
    Weiszfeld and Tyler iteration counts, mu_hat and the upper triangle of
    sigma_hat, pinned bit for bit (as float.hex); each pin is within 1e-8
    of the plain loops' fit."""

    PINNED = [
        (0, 6, 8, ("0x1.fac81eb2681cdp-2", "-0x1.e20df1ba8cf26p-1"),
         ("0x1.5eb9bb2355c63p+0", "0x1.578eb701660fep-2", "0x1.428c89b95473ap-1")),
        (1, 6, 7, ("0x1.102d0d901af52p-1", "-0x1.0cf3cc59f00cbp+0"),
         ("0x1.40b3829473622p+0", "0x1.6140491248ccdp-2", "0x1.7e98fad7193bcp-1")),
        (2, 6, 8, ("0x1.0891d6167b86dp-1", "-0x1.fee130270bcaap-1"),
         ("0x1.50583cd39dbe0p+0", "0x1.7c8d097ad9d9ap-2", "0x1.5f4f8658c4840p-1")),
        (3, 6, 7, ("0x1.0755329af1ba1p-1", "-0x1.11cdd2dea2353p+0"),
         ("0x1.4c1028cf22a4ep+0", "0x1.9691fa1db5c58p-2", "0x1.67dfae61bab63p-1")),
        (4, 5, 7, ("0x1.f428d11885844p-2", "-0x1.04103cb0019d1p+0"),
         ("0x1.5f30bf6adfd72p+0", "0x1.5c251c3dc9046p-2", "0x1.419e812a4051cp-1")),
        (5, 6, 7, ("0x1.06b80b1f52c4dp-1", "-0x1.050fb4dbac513p+0"),
         ("0x1.530a03b854ca8p+0", "0x1.5441d1e46dbbep-2", "0x1.59ebf88f566b3p-1")),
        (6, 6, 7, ("0x1.0885f600c87f0p-1", "-0x1.05e58502d2652p+0"),
         ("0x1.3b3fa072aa735p+0", "0x1.6461e7449afe9p-2", "0x1.8980bf1aab197p-1")),
        (7, 5, 7, ("0x1.e79fd01659ccfp-2", "-0x1.cce00591139e6p-1"),
         ("0x1.5294c29be5eddp+0", "0x1.40c77c932e301p-2", "0x1.5ad67ac834247p-1")),
        (8, 6, 7, ("0x1.15e0f47705176p-1", "-0x1.10e95aa371afbp+0"),
         ("0x1.3c39de2b0973cp+0", "0x1.65dfd105b07e5p-2", "0x1.878c43a9ed188p-1")),
        (9, 6, 7, ("0x1.0b5456888d11cp-1", "-0x1.12d8a90e6a04dp+0"),
         ("0x1.4ef4b6b6bfb7bp+0", "0x1.6897c56cadd09p-2", "0x1.621692928090cp-1")),
    ]

    @pytest.mark.parametrize("seed, it_med, it_shape, mu_hat, upper", PINNED)
    def test_criterion_4_fit_is_pinned(self, seed, it_med, it_shape, mu_hat, upper):
        x, _ = sample_elliptical(criterion_4_model(), 1000, RngStream(seed, 0))
        fit = estimate_location_scatter(x, SPATIAL_MEDIAN_TYLER)
        s = fit.sigma_hat
        assert (fit.median_iterations, fit.shape_iterations) == (it_med, it_shape)
        assert [v.hex() for v in fit.mu_hat.tolist()] == list(mu_hat)
        assert [v.hex() for v in (s[0, 0], s[0, 1], s[1, 1])] == list(upper)
        assert s[1, 0] == s[0, 1]
        m_plain, _ = plain_spatial_median(x)
        v_plain, _ = plain_tyler(x, m_plain)
        assert np.max(np.abs(fit.mu_hat - m_plain)) <= 1e-8
        assert np.max(np.abs(s - v_plain)) <= 1e-8
