import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sephill.bounds import (
    PerturbationBound,
    PerturbationCoefficients,
    check_envelopes,
    complete_bound,
    delta_poly,
    log_ratio_bound,
    perturbation_coefficients,
    pivot_threshold,
    verify_epsilon_lemma,
    verify_log_ratio_lemma,
)
from sephill.errors import (
    DimensionMismatch,
    DomainError,
    LengthMismatch,
    NonFinite,
    NonPositiveDistance,
    NonSymmetric,
)
from sephill.linalg import spd_inverse, spectral_norm


def coeffs(sigma_inv, sigma_hat_inv, location_error, lam):
    return perturbation_coefficients(
        np.asarray(sigma_inv, float),
        np.asarray(sigma_hat_inv, float),
        np.asarray(location_error, float),
        lam,
    )


class TestPerturbationCoefficients:
    def test_zero_perturbation(self):
        b = coeffs(np.eye(2), np.eye(2), [0.0, 0.0], 1.0)
        assert b.a_coef == 0.0
        assert b.b_coef == 0.0
        assert b.c_coef == 0.0
        assert b.m_n == 0.0

    def test_pure_location_shift(self):
        # identity scatter known exactly, location off by (0.1, 0)
        b = coeffs(np.eye(2), np.eye(2), [0.1, 0.0], 1.0)
        assert b.a_coef == 0.0
        assert b.b_coef == pytest.approx(0.2, rel=1e-14)
        assert b.c_coef == pytest.approx(0.01, rel=1e-14)
        assert b.m_n == pytest.approx(0.2, rel=1e-14)

    def test_pure_scatter_shrink(self):
        b = coeffs(np.eye(2), 0.9 * np.eye(2), [0.0, 0.0], 1.0)
        assert b.a_coef == pytest.approx(0.1, rel=1e-12)
        assert b.b_coef == 0.0
        assert b.c_coef == 0.0
        assert b.m_n == pytest.approx(0.1, rel=1e-12)

    def test_m_is_max_of_three_terms(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            d = int(rng.integers(1, 5))
            err = 0.1 * rng.normal(size=d)
            a = rng.normal(size=(d, d))
            sigma = a @ a.T + np.eye(d)
            e = 0.05 * rng.normal(size=(d, d))
            sigma_hat = sigma + e @ e.T + 0.05 * np.eye(d)
            si = spd_inverse(sigma)
            shi = spd_inverse(sigma_hat)
            lam = spectral_norm(sigma)
            b = coeffs(si, shi, err, lam)

            e = np.linalg.norm(err)
            a_n = spectral_norm(si - shi)
            b_n = e * a_n + (spectral_norm(shi) + spectral_norm(si)) * e
            c_n = e * spectral_norm(shi) * e
            m_n = max(lam * a_n, np.sqrt(lam) * b_n, c_n)
            assert b.a_coef == pytest.approx(a_n, rel=1e-10, abs=1e-14)
            assert b.b_coef == pytest.approx(b_n, rel=1e-10, abs=1e-14)
            assert b.c_coef == pytest.approx(c_n, rel=1e-10, abs=1e-14)
            assert b.m_n == pytest.approx(m_n, rel=1e-10, abs=1e-14)

    def test_monotone_in_perturbation_size(self):
        # scaling the same perturbation up never shrinks M_n
        rng = np.random.default_rng(42)
        for _ in range(200):
            d = int(rng.integers(1, 4))
            a = rng.normal(size=(d, d))
            sigma = a @ a.T + np.eye(d)
            si = spd_inverse(sigma)
            lam = spectral_norm(sigma)
            dm = rng.normal(size=d)
            w = rng.normal(size=(d, d))
            bump = w @ w.T / d
            small = coeffs(si, si + 0.01 * bump, 0.01 * dm, lam)
            large = coeffs(si, si + 0.1 * bump, 0.1 * dm, lam)
            assert small.m_n <= large.m_n + 1e-15

    def test_rejects_bad_lambda(self):
        with pytest.raises(DomainError):
            coeffs(np.eye(1), np.eye(1), [0.0], 0.0)

    def test_rejects_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            coeffs(np.eye(2), np.eye(1), [0.0, 0.0], 1.0)

    @pytest.mark.parametrize("err", [0.0, [[0.0, 0.0]]])
    def test_location_error_must_be_a_vector(self, err):
        with pytest.raises(DimensionMismatch, match="location_error must be a vector"):
            coeffs(np.eye(2), np.eye(2), err, 1.0)

    @pytest.mark.parametrize(
        "si, shi, error",
        [
            (np.eye(2), [[np.nan, 0.0], [0.0, 1.0]], NonFinite),
            ([[1.0, 0.0], [0.0, np.inf]], np.eye(2), NonFinite),
            (np.eye(2), [[1.0, 0.2], [0.3, 1.0]], NonSymmetric),
            ([[1.0, 0.2], [0.3, 1.0]], np.eye(2), NonSymmetric),
            # the difference is symmetric; each inverse is not
            ([[1.0, 0.2], [0.3, 1.0]], [[2.0, 0.2], [0.3, 2.0]], NonSymmetric),
            (np.zeros((0, 0)), np.zeros((0, 0)), NonSymmetric),
        ],
    )
    def test_rejects_what_the_spectral_norms_reject(self, si, shi, error):
        d = np.shape(si)[0]
        with pytest.raises(error):
            coeffs(si, shi, np.zeros(d), 1.0)


class TestDeltaPoly:
    def test_hand_values(self):
        assert delta_poly(0.1, 2.0) == pytest.approx(0.7, rel=1e-15)
        assert delta_poly(1.0, 1.0) == pytest.approx(3.0, rel=1e-15)
        assert delta_poly(0.0, 5.0) == 0.0

    def test_vectorized(self):
        np.testing.assert_allclose(
            delta_poly(0.1, np.array([1.0, 2.0])), [0.3, 0.7], rtol=1e-15
        )

    def test_negative_m_rejected(self):
        with pytest.raises(DomainError):
            delta_poly(-0.1, 1.0)


class TestPivotThreshold:
    def test_hand_values(self):
        assert pivot_threshold(0.1) == pytest.approx(0.1 / 1.8, rel=1e-15)
        assert pivot_threshold(0.0) == 0.0
        assert pivot_threshold(1.0) == np.inf
        assert pivot_threshold(2.0) == np.inf


class TestLogRatioBound:
    def test_hand_values(self):
        b = log_ratio_bound(0.1, 10.0)
        # a = 0.1 * (1 + 1/10 + 1/100)
        assert b.a_n == pytest.approx(0.111, rel=1e-12)
        assert b.b_n == pytest.approx(-np.log1p(-0.111), rel=1e-12)
        assert b.b_n == pytest.approx(0.11765804346823247, rel=1e-12)
        assert b.a_n <= 0.5
        assert b.r_pivot > pivot_threshold(b.m_n)

    def test_cap_when_a_large(self):
        b = log_ratio_bound(0.6, 1.0)
        assert b.a_n == pytest.approx(1.8, rel=1e-12)
        assert b.b_n == pytest.approx(np.log(2.0), rel=1e-15)
        assert not b.a_n < 1.0

    def test_cap_between_half_and_one(self):
        b = log_ratio_bound(0.3, 1.0)
        assert b.a_n == pytest.approx(0.9, rel=1e-12)
        assert 0.5 < b.a_n < 1.0
        assert b.b_n == pytest.approx(np.log(2.0), rel=1e-15)

    def test_zero_perturbation_any_pivot(self):
        b = log_ratio_bound(0.0, 1e-9)
        assert b.b_n == 0.0
        assert b.a_n == 0.0
        assert b.r_pivot > pivot_threshold(b.m_n)

    def test_pivot_must_clear_threshold(self):
        # threshold for m = 0.2 is 0.125; below it a_n is far above one
        ok = log_ratio_bound(0.2, 0.2)
        assert ok.r_pivot > pivot_threshold(ok.m_n)
        bad = log_ratio_bound(0.2, 0.1)
        assert not bad.r_pivot > pivot_threshold(bad.m_n)
        assert bad.a_n >= 1.0

    def test_m_at_least_one_never_applies(self):
        b = log_ratio_bound(1.0, 10.0)
        assert pivot_threshold(b.m_n) == np.inf
        assert not b.a_n < 1.0

    def test_a_decreases_in_pivot(self):
        pivots = np.linspace(0.5, 50.0, 40)
        a_vals = [log_ratio_bound(0.2, r).a_n for r in pivots]
        assert np.all(np.diff(a_vals) < 0)

    def test_bound_dominates_a_on_lower_half(self):
        # -log(1-a) >= a wherever the uncapped expression applies
        for a_target in np.linspace(0.01, 0.5, 25):
            b = log_ratio_bound(a_target / 3.0, 1.0)
            assert b.a_n == pytest.approx(a_target, rel=1e-12)
            assert b.b_n >= b.a_n


    @pytest.mark.parametrize(
        "m_n, r_pivot, message",
        [
            (0.1, 0.0, "r_pivot must be strictly positive"),
            (0.1, -1.0, "r_pivot must be strictly positive"),
            (-0.1, 1.0, "the envelope constant must be finite and nonnegative"),
            (np.inf, 1.0, "the envelope constant must be finite and nonnegative"),
        ],
        ids=["zero-pivot", "negative-pivot", "negative-m", "infinite-m"],
    )
    def test_rejects_bad_inputs(self, m_n, r_pivot, message):
        with pytest.raises(DomainError, match=message):
            log_ratio_bound(m_n, r_pivot)


class TestCompleteBound:
    def test_is_log_ratio_bound_of_m_n(self):
        c = coeffs(np.eye(2), np.eye(2), [0.1, 0.0], 1.0)
        assert complete_bound(c, 10.0) == log_ratio_bound(c.m_n, 10.0)


def collapse_grid():
    """(m_n, r) pairs on a log grid, plus pairs within 1e-15 relative of
    a_n = 1 and of a_n = 1/2 on either side."""
    m_grid = np.geomspace(1e-12, 1.6, 300)
    r_grid = np.geomspace(1e-6, 1e12, 300)
    pairs = [(float(m), float(r)) for m in m_grid for r in r_grid]
    for r in r_grid:
        r = float(r)
        for target in (1.0, 0.5):
            m_star = target / (1.0 + 1.0 / r + 1.0 / (r * r))
            for rel in (-1e-15, -3e-16, 0.0, 3e-16, 1e-15):
                pairs.append((m_star * (1.0 + rel), r))
                pairs.append((m_star, r * (1.0 + rel)))
    return pairs


def test_a_n_carries_every_applicability_condition():
    """``a_n < 1`` implies ``m_n < 1`` and the pivot test.

    ``a_n = m (1 + 1/r + 1/r**2) < 1`` means ``m < r**2 / (r**2 + r + 1)``.
    That is at most ``2r / (1 + 2r)``, since ``r**2 (1 + 2r) <= 2r (r**2 + r
    + 1)`` reads ``0 <= r**2 + 2r``; and ``m < 2r / (1 + 2r)`` is the pivot
    test ``r > m / (2 (1 - m))``, which already needs ``m < 1``.  So the
    log-ratio lemma applies iff ``a_n < 1``, and the harness's envelope
    (``a_n <= 1/2`` and the pivot test) iff ``a_n <= 1/2``.
    """
    applies = 0
    for m, r in collapse_grid():
        b = log_ratio_bound(m, r)
        if b.a_n < 1.0:
            applies += 1
            assert m < 1.0 and r > pivot_threshold(m), (m, r)
    assert applies > 10**4


@pytest.mark.parametrize("record", [PerturbationCoefficients, PerturbationBound])
def test_records_have_no_field_defaults(record):
    # every field is computed by the function that builds the record
    for field in dataclasses.fields(record):
        assert field.default is dataclasses.MISSING
        assert field.default_factory is dataclasses.MISSING
    with pytest.raises(TypeError):
        record()


def shrink_factor(m_n, x):
    """Worst-case multiplicative envelope for a squared distance at x."""
    return delta_poly(m_n, x)


class TestVerifyEpsilonLemma:
    def test_exact_match_has_slack(self):
        t = np.array([9.0, 4.0, 1.0])
        rep = verify_epsilon_lemma(t, t.copy(), m_n=0.05, l=2)
        assert rep.applicable
        assert rep.violations == 0
        assert rep.max_slack > 0

    def test_violation_detected(self):
        t = np.array([9.0, 4.0, 1.0])
        e = np.array([50.0, 40.0, 1.0])  # blows past the envelope at the checked index
        rep = verify_epsilon_lemma(t, e, m_n=0.01, l=2)
        assert rep.applicable
        assert rep.violations == 1

    def test_checks_only_the_threshold_index(self):
        t = np.array([9.0, 4.0, 1.0])
        e = t.copy()
        e[0] = 500.0  # index before l stays out of scope
        rep = verify_epsilon_lemma(t, e, m_n=0.01, l=2)
        assert rep.violations == 0

    def test_not_applicable_when_m_too_big(self):
        t = np.array([9.0, 4.0, 1.0])
        rep = verify_epsilon_lemma(t, t.copy(), m_n=1.0, l=1)
        assert not rep.applicable
        assert rep.violations == 0

    def test_not_applicable_when_pivot_small(self):
        # r_l = 0.1 while the threshold for m = 0.5 is 0.5
        t = np.array([1.0, 0.04, 0.01])
        rep = verify_epsilon_lemma(t, t.copy(), m_n=0.5, l=2)
        assert not rep.applicable

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            verify_epsilon_lemma(np.array([4.0, 1.0]), np.array([4.0]), 0.1, 1)

    def test_bad_l(self):
        t = np.array([4.0, 1.0])
        for l in (0, 3):
            with pytest.raises(DomainError):
                verify_epsilon_lemma(t, t.copy(), 0.1, l)

    def test_envelope_is_tight_at_boundary(self):
        # values just inside the envelope pass, just outside fail
        t = np.array([9.0, 4.0])
        m = 0.05
        delta = shrink_factor(m, np.sqrt(t[0]))
        inside = verify_epsilon_lemma(t, np.array([t[0] + 0.999 * delta, 4.0]), m, l=1)
        assert inside.violations == 0
        assert inside.max_slack == pytest.approx(0.001 * delta, rel=1e-9)
        outside = verify_epsilon_lemma(t, np.array([t[0] + 1.001 * delta, 4.0]), m, l=1)
        assert outside.violations == 1


class TestVerifyLogRatioLemma:
    def test_identical_inputs(self):
        t = np.array([16.0, 4.0, 1.0])
        rep = verify_log_ratio_lemma(t, t.copy(), m_n=0.05, l=3)
        assert rep.applicable
        assert rep.violations == 0
        assert rep.max_ratio_gap == 0.0

    def test_single_index_trivial(self):
        t = np.array([16.0, 4.0, 1.0])
        rep = verify_log_ratio_lemma(t, t * 1.3, m_n=0.05, l=1)
        assert rep.max_ratio_gap == 0.0
        assert rep.violations == 0

    def test_common_rescale_cancels(self):
        t = np.array([25.0, 16.0, 4.0, 1.0])
        rep = verify_log_ratio_lemma(t, t * 3.7, m_n=0.2, l=4)
        assert rep.violations == 0
        assert rep.max_ratio_gap < 1e-12

    def test_reports_uncapped_bound(self):
        # inputs are plain distances, so the pivot is t[l-1] itself
        t = np.array([16.0, 4.0, 1.0])
        rep = verify_log_ratio_lemma(t, t.copy(), m_n=0.1, l=2)
        r_l = 4.0
        a_n = 0.1 * (1 + 1 / r_l + 1 / r_l**2)
        assert rep.bound == pytest.approx(-np.log1p(-a_n), rel=1e-12)

    def test_gap_above_bound_counts(self):
        t = np.array([16.0, 4.0, 1.0])
        e = np.array([160.0, 4.0, 1.0])  # top ratio off by log(10)
        rep = verify_log_ratio_lemma(t, e, m_n=0.01, l=2)
        assert rep.applicable
        assert rep.violations == 1
        assert rep.max_ratio_gap == pytest.approx(np.log(10.0), rel=1e-12)

    def test_nonpositive_distance_rejected(self):
        t = np.array([4.0, 0.0])
        with pytest.raises(NonPositiveDistance):
            verify_log_ratio_lemma(t, np.array([4.0, 1.0]), 0.1, 2)

    def test_not_applicable_when_a_too_big(self):
        t = np.array([4.0, 1.0])
        rep = verify_log_ratio_lemma(t, t.copy(), m_n=0.4, l=2)
        # a_n = 0.4 * 3 = 1.2 at pivot 1
        assert not rep.applicable
        assert rep.violations == 0

    def test_unsorted_rejected(self):
        with pytest.raises(DomainError):
            verify_log_ratio_lemma(
                np.array([1.0, 4.0]), np.array([4.0, 1.0]), 0.1, 2
            )


@settings(max_examples=100, deadline=None)
@given(
    m=st.floats(min_value=0.0, max_value=0.45),
    r=st.floats(min_value=1.0, max_value=100.0),
)
def test_bound_shrinks_with_perturbation_and_pivot(m, r):
    b = log_ratio_bound(m, r)
    wider = log_ratio_bound(m, r * 2.0)
    assert wider.a_n <= b.a_n + 1e-15
    stronger = log_ratio_bound(m * 0.5, r)
    assert stronger.a_n <= b.a_n + 1e-15


class TestRandomizedLemmaTrials:
    """Small-scale version of the full sweep the acceptance suite runs."""

    def _trial(self, seed):
        gen = np.random.default_rng(seed)
        d = int(gen.integers(2, 5))
        n = 400
        mu = gen.normal(size=d)
        a = gen.normal(size=(d, d))
        sigma = a @ a.T / d + 0.5 * np.eye(d)
        sigma_inv = spd_inverse(sigma)
        x = mu + gen.standard_t(df=3.0, size=(n, d)) @ np.linalg.cholesky(sigma).T

        scale = 10.0 ** gen.uniform(-4.0, -2.0)
        w = gen.normal(size=(d, d))
        sigma_hat_inv = sigma_inv + scale * (w @ w.T) / d
        mu_hat = mu + scale * gen.normal(size=d)

        diff_t = x - mu
        t_sq = np.sort(np.einsum("ni,ij,nj->n", diff_t, sigma_inv, diff_t))[::-1]
        diff_e = x - mu_hat
        e_sq = np.sort(np.einsum("ni,ij,nj->n", diff_e, sigma_hat_inv, diff_e))[::-1]

        c = perturbation_coefficients(
            sigma_inv, sigma_hat_inv, mu_hat - mu, spectral_norm(sigma)
        )
        return t_sq, e_sq, c.m_n

    def test_no_violations_across_trials(self):
        total_applicable = 0
        for seed in range(40):
            t_sq, e_sq, m_n = self._trial(seed)
            n = t_sq.shape[0]
            for l in (1, int(np.ceil(np.sqrt(n))), n // 10):
                eps = verify_epsilon_lemma(t_sq, e_sq, m_n, l)
                assert eps.violations == 0
                lr = verify_log_ratio_lemma(
                    np.sqrt(t_sq), np.sqrt(e_sq), m_n, l
                )
                assert lr.violations == 0
                if eps.applicable:
                    total_applicable += 1
        # the perturbations are small, so most trials must actually bind
        assert total_applicable > 60


def test_scaled_bound_vanishes_along_root_k_schedule():
    # with perturbations shrinking like 1/sqrt(n) the capped log-ratio
    # bound times sqrt(k_n) must tend to zero along k_n = ceil(sqrt(n))
    prev = np.inf
    for n in (10**3, 10**4, 10**5, 10**6):
        m_n = 0.1 / np.sqrt(n)
        k_n = int(np.ceil(np.sqrt(n)))
        b = log_ratio_bound(m_n, r_pivot=1.0)
        scaled = np.sqrt(k_n) * b.b_n
        assert scaled < prev
        prev = scaled
    assert prev < 0.01


def summed_per_pivot(t, e, m_n, pivots):
    """What check_envelopes must equal: the verifiers' per-pivot reports,
    summed the way a sweep over ``pivots`` sums them."""
    applicable = violations = 0
    slacks, gaps, bounds = [], [], []
    for l in pivots:
        eps = verify_epsilon_lemma(t**2, e**2, m_n, l)
        lr = verify_log_ratio_lemma(t, e, m_n, l)
        applicable += int(eps.applicable) + int(lr.applicable)
        violations += eps.violations + lr.violations
        if eps.applicable:
            slacks.append(eps.max_slack)
        if lr.applicable:
            gaps.append(lr.max_ratio_gap)
            bounds.append(lr.bound)
    return applicable, violations, min(slacks, default=None), max(gaps, default=None), tuple(bounds)


def random_ordered_pair(gen, n, noise):
    t = np.sort(gen.pareto(3.0, n) + 0.05)[::-1]
    e = np.sort(t * np.exp(noise * gen.normal(size=n)))[::-1]
    return t, e


class TestCheckEnvelopes:
    def _sweep_tuple(self, t, e, m_n, pivots):
        s = check_envelopes(t, e, m_n, pivots)
        return s.applicable, s.violations, s.min_epsilon_slack, s.max_ratio_gap, s.ratio_bounds

    def test_matches_summed_verifiers_on_random_pairs(self):
        gen = np.random.default_rng(1313)
        seen_applicable = seen_violation = seen_mixed = 0
        for _ in range(300):
            n = int(gen.integers(1, 200))
            t, e = random_ordered_pair(gen, n, 10.0 ** gen.uniform(-6.0, 0.0))
            m_n = float(gen.choice([0.0, 10.0 ** gen.uniform(-6.0, 0.2)]))
            pivots = sorted(set(gen.integers(1, n + 1, size=int(gen.integers(1, 6)))) | {1, n})
            got = self._sweep_tuple(t, e, m_n, pivots)
            assert got == summed_per_pivot(t, e, m_n, pivots)
            seen_applicable += got[0] > 0
            seen_violation += got[1] > 0
            seen_mixed += 0 < got[0] < 2 * len(pivots)
        # the pairs must reach every branch of both lemmas
        assert seen_applicable and seen_violation and seen_mixed

    def test_pivot_order_kept(self):
        gen = np.random.default_rng(7)
        t, e = random_ordered_pair(gen, 300, 1e-4)
        forward = check_envelopes(t, e, 1e-3, [1, 18, 30, 300])
        backward = check_envelopes(t, e, 1e-3, [300, 30, 18, 1])
        assert len(forward.ratio_bounds) == 4
        assert forward.ratio_bounds == backward.ratio_bounds[::-1]
        assert forward.ratio_bounds == summed_per_pivot(t, e, 1e-3, [1, 18, 30, 300])[4]

    def test_zero_perturbation_binds_everywhere(self):
        t, _ = random_ordered_pair(np.random.default_rng(3), 50, 0.0)
        pivots = [1, 8, 50]
        sweep = check_envelopes(t, t.copy(), 0.0, pivots)
        assert sweep.applicable == 2 * len(pivots)
        assert sweep.violations == 0
        assert sweep.max_ratio_gap == 0.0
        assert sweep.min_epsilon_slack == 0.0
        assert sweep.ratio_bounds == (0.0, 0.0, 0.0)
        assert self._sweep_tuple(t, t.copy(), 0.0, pivots) == summed_per_pivot(t, t.copy(), 0.0, pivots)

    def test_huge_perturbation_never_applicable(self):
        t, e = random_ordered_pair(np.random.default_rng(4), 50, 1.0)
        sweep = check_envelopes(t, e, 5.0, [1, 8, 50])
        assert (sweep.applicable, sweep.violations) == (0, 0)
        assert sweep.min_epsilon_slack is None
        assert sweep.max_ratio_gap is None
        assert sweep.ratio_bounds == ()

    @pytest.mark.parametrize("n", [1, 2, 300])
    def test_first_and_last_pivot(self, n):
        t, e = random_ordered_pair(np.random.default_rng(n), n, 1e-3)
        for pivots in ([1], [n], [1, n]):
            assert self._sweep_tuple(t, e, 1e-3, pivots) == summed_per_pivot(t, e, 1e-3, pivots)

    @pytest.mark.parametrize(
        "t, e, pivots, error",
        [
            ([4.0, np.nan], [4.0, 1.0], [1], NonFinite),
            ([4.0, 1.0], [np.inf, 1.0], [1], NonFinite),
            ([1e200, 1.0], [1e200, 1.0], [1], NonFinite),  # squares overflow
            ([1.0, 4.0], [4.0, 1.0], [1], DomainError),
            ([4.0, 1.0], [1.0, 4.0], [1], DomainError),
            ([4.0, 1.0], [4.0], [1], LengthMismatch),
            ([4.0, 1.0], [4.0, 1.0], [0], DomainError),
            ([4.0, 1.0], [4.0, 1.0], [1, 3], DomainError),
            ([4.0, 0.0], [4.0, 1.0], [1], NonPositiveDistance),
            ([4.0, 1.0], [4.0, -1.0], [1], NonPositiveDistance),
            ([[4.0, 1.0]], [[4.0, 1.0]], [1], DimensionMismatch),
        ],
    )
    def test_raises_what_the_verifiers_raise(self, t, e, pivots, error):
        t, e = np.asarray(t), np.asarray(e)
        with np.errstate(over="ignore"), pytest.raises(error):
            check_envelopes(t, e, 0.1, pivots)
        with np.errstate(over="ignore"), pytest.raises(error):
            summed_per_pivot(t, e, 0.1, pivots)
