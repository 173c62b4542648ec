import dataclasses
import math
import os
import pickle
import re
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtr

from sephill.bounds import check_envelopes, log_ratio_bound
from sephill.distributions import (
    EllipticalModel,
    GeneratingVariateSpec,
    RngStream,
    sample_elliptical,
)
from sephill.errors import (
    BetaOutOfRange,
    ConfigError,
    DegenerateSample,
    DomainError,
    FailureCapExceeded,
    TooFewValues,
)
from sephill.estimators import (
    ESTIMATOR_METHODS,
    SAMPLE_MEAN_COV,
    SPATIAL_MEDIAN_TYLER,
    LocationScatterEstimate,
    estimate_location_scatter,
    mahalanobis_distances,
    order_desc,
    univariate_hill,
)
from sephill.linalg import spectral_norm
from sephill.montecarlo import (
    AggregateStats,
    ExperimentConfig,
    ReplicationFailure,
    ReplicationRecord,
    _normal_cdf,
    aggregate_records,
    k_schedule,
    ks_statistic,
    ks_threshold,
    run_experiment,
    run_replication,
)
from sephill.workspace import Workspace


def pareto_model(alpha=5.0, d=2, mu=None, sigma=None):
    return EllipticalModel(
        mu=np.zeros(d) if mu is None else np.asarray(mu, float),
        sigma=np.eye(d) if sigma is None else np.asarray(sigma, float),
        variate=GeneratingVariateSpec.pareto(alpha),
    )


class TestKSchedule:
    def test_square_root_rule(self):
        assert k_schedule(100, 0.5) == 10
        assert k_schedule(10**6, 0.5) == 1000

    def test_clamped_to_n_minus_two(self):
        assert k_schedule(10, 0.99) == 8

    def test_non_square(self):
        assert k_schedule(20000, 0.5) == 142

    def test_beta_out_of_range(self):
        for beta in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(BetaOutOfRange):
                k_schedule(100, beta)

    def test_tiny_n(self):
        with pytest.raises(ConfigError):
            k_schedule(3, 0.5)
        assert k_schedule(4, 0.5) == 2


class TestExperimentConfig:
    def test_defaults(self):
        cfg = ExperimentConfig(pareto_model(), (100, 1000), 10, base_seed=1)
        assert cfg.estimator_method == SAMPLE_MEAN_COV
        assert cfg.k_for(100) == 10
        assert cfg.k_for(1000) == 32  # ceil(sqrt(1000))

    def test_explicit_k_values(self):
        cfg = ExperimentConfig(
            pareto_model(), (2000, 20000), 5, base_seed=0, k_values=(45, 141)
        )
        assert cfg.k_for(2000) == 45
        assert cfg.k_for(20000) == 141
        with pytest.raises(ConfigError):
            cfg.k_for(500)

    def test_empty_n_values(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(pareto_model(), (), 5, base_seed=0)

    def test_zero_replications(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(pareto_model(), (100,), 0, base_seed=0)

    def test_unknown_method(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(
                pareto_model(), (100,), 5, base_seed=0, estimator_method="mle"
            )

    def test_true_params_is_no_method(self):
        # the true side runs in every experiment, as its true_aggregates
        with pytest.raises(ConfigError, match="true_aggregates"):
            ExperimentConfig(
                pareto_model(), (100,), 5, base_seed=0, estimator_method="true_params"
            )

    def test_base_seed_defaults_to_zero(self):
        assert ExperimentConfig(pareto_model(), (100,), 5).base_seed == 0

    def test_misaligned_k_values(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(
                pareto_model(), (100, 1000), 5, base_seed=0, k_values=(10,)
            )

    def test_k_must_be_below_n(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(pareto_model(), (100,), 5, base_seed=0, k_values=(100,))

    def test_neither_k_rule_means_k_beta_one_half(self):
        cfg = ExperimentConfig(pareto_model(), (100,), 5, base_seed=0, k_beta=None)
        assert cfg.k_beta == 0.5 and cfg.k_values is None
        assert cfg.k_for(100) == 10

    def test_k_values_alone_leave_k_beta_unset(self):
        cfg = ExperimentConfig(pareto_model(), (100,), 5, base_seed=0, k_values=(7,))
        assert cfg.k_beta is None
        assert cfg.k_for(100) == 7

    def test_both_k_rules_rejected(self):
        # k_values used to win silently over a given k_beta
        with pytest.raises(ConfigError, match="k_beta.*k_values"):
            ExperimentConfig(
                pareto_model(), (100,), 5, base_seed=0, k_beta=0.5, k_values=(7,)
            )

    SIGMA = [[2.0, 0.5, 0.1], [0.5, 1.0, -0.2], [0.1, -0.2, 3.0]]

    @pytest.mark.parametrize("method", ESTIMATOR_METHODS)
    def test_pickled_config_carries_the_models_lambda_max(self, method):
        # pool workers receive the config pickled before any replication
        # ran, so the model's factor, inverse and largest eigenvalue are in
        # the pickle, not recomputed from it; the config itself holds no
        # envelope state
        cfg = ExperimentConfig(
            pareto_model(d=3, sigma=self.SIGMA), (100,), 1, base_seed=0,
            estimator_method=method,
        )
        copy = pickle.loads(pickle.dumps(cfg))
        cached = vars(copy.model)
        assert cached["lambda_max"] == cfg.model.lambda_max
        assert cached["sigma_inv"].tobytes() == cfg.model.sigma_inv.tobytes()
        assert cached["lambda_chol"].tobytes() == cfg.model.lambda_chol.tobytes()
        assert set(vars(copy)) == {f.name for f in dataclasses.fields(cfg)}

    def test_lambda_max_is_the_spectral_norm_of_sigma(self):
        model = pareto_model(d=3, sigma=self.SIGMA)
        assert model.lambda_max == spectral_norm(model.sigma)
        assert model.lambda_max == pytest.approx(
            float(np.linalg.eigvalsh(model.sigma).max()), rel=1e-12
        )


class TestRunReplication:
    def _config(self, method=SAMPLE_MEAN_COV, n=400):
        return ExperimentConfig(
            pareto_model(alpha=4.0), (n,), 3, base_seed=7, estimator_method=method
        )

    def test_bit_exact_repeat(self):
        cfg = self._config()
        a = run_replication(cfg, 400, 1)
        b = run_replication(cfg, 400, 1)
        assert a.gamma_hat_true == b.gamma_hat_true
        assert a.gamma_hat_est == b.gamma_hat_est
        assert a.normalized_error == b.normalized_error
        assert a.bound_report.m_n == b.bound_report.m_n
        assert a.bound_report.b_n == b.bound_report.b_n

    def test_replications_differ(self):
        cfg = self._config()
        a = run_replication(cfg, 400, 0)
        b = run_replication(cfg, 400, 1)
        assert a.gamma_hat_true != b.gamma_hat_true

    @pytest.mark.parametrize("method", ESTIMATOR_METHODS)
    def test_true_side_gap_is_zero(self, method):
        # the true side summarizes gamma_hat_true with a gap of 0, whatever
        # the fit
        cfg = ExperimentConfig(
            pareto_model(alpha=5.0), (400, 900), 6, base_seed=7,
            estimator_method=method,
        )
        result = run_experiment(cfg)
        for i, agg in enumerate(result.true_aggregates):
            recs = result.records[i * 6 : (i + 1) * 6]
            err = [math.sqrt(r.k) * (r.gamma_hat_true - 0.2) for r in recs]
            assert agg.p95_scaled_gap == 0.0
            assert (agg.n, agg.k, agg.count) == (recs[0].n, recs[0].k, 6)
            assert agg.median_normalized_error == float(np.median(err))
            assert agg.median_abs_error == float(
                np.median([abs(r.gamma_hat_true - 0.2) for r in recs])
            )
            assert result.aggregates[i].p95_scaled_gap > 0.0

    def test_normalized_error_definition(self):
        cfg = self._config()
        rec = run_replication(cfg, 400, 0)
        gamma = 0.25
        assert rec.normalized_error == pytest.approx(
            math.sqrt(rec.k) * (rec.gamma_hat_est - gamma), rel=1e-15
        )

    def test_golden_range(self):
        # moderate-sample sanity: the estimate lands near the true index
        model = pareto_model(
            alpha=5.0,
            d=3,
            mu=[1.0, 2.0, 3.0],
            sigma=[[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 1.5]],
        )
        cfg = ExperimentConfig(model, (20000,), 1, base_seed=2024, k_values=(141,))
        rec = run_replication(cfg, 20000, 0)
        assert abs(rec.gamma_hat_est - 0.2) < 0.15
        assert abs(rec.gamma_hat_true - 0.2) < 0.15

    def test_gap_within_bound_when_preconditions_hold(self):
        # with the true location at the origin and a large sample the
        # envelope constant is small, a_n <= 1/2 holds, and the estimator
        # gap must respect the log-ratio bound
        cfg = ExperimentConfig(
            pareto_model(alpha=5.0), (20000,), 2, base_seed=11
        )
        checked = 0
        for rep in range(2):
            rec = run_replication(cfg, 20000, rep)
            if rec.bound_report.a_n <= 0.5:
                checked += 1
                assert abs(rec.estimator_gap) <= rec.bound_report.b_n + 1e-12
        assert checked == 2  # the setup is meant to make the envelope apply

    SIGMA = TestExperimentConfig.SIGMA

    @pytest.mark.parametrize("method", ESTIMATOR_METHODS)
    def test_envelope_measures_the_fit_in_its_own_frame(self, monkeypatch, method):
        # one formula for every fit: the truth translated to the origin and
        # scaled by c = tr(sigma_hat) / tr(sigma) to the fit's size
        import sephill.montecarlo as mc

        model = pareto_model(alpha=4.0, d=3, mu=[1.0, -2.0, 0.5], sigma=self.SIGMA)
        cfg = ExperimentConfig(model, (500,), 1, base_seed=5, estimator_method=method)
        seen = []
        real = mc.bounds_mod.perturbation_coefficients
        monkeypatch.setattr(
            mc.bounds_mod, "perturbation_coefficients",
            lambda *args: seen.append(args) or real(*args),
        )
        run_replication(cfg, 500, 2)
        sample, _ = sample_elliptical(model, 500, RngStream(5, 2))
        fit = estimate_location_scatter(sample, method)
        c = float(np.trace(fit.sigma_hat)) / float(np.trace(model.sigma))
        ((sigma_inv, sigma_hat_inv, location_error, lambda_max),) = seen
        assert sigma_inv.tobytes() == (model.sigma_inv / c).tobytes()
        assert sigma_hat_inv.tobytes() == fit.sigma_hat_inv.tobytes()
        assert location_error.tobytes() == (fit.mu_hat - model.mu).tobytes()
        assert lambda_max == c * model.lambda_max

    def test_truth_at_any_scale_gives_a_zero_envelope(self, monkeypatch):
        # a fit that returns the true location and four times the true
        # scatter perturbs nothing in its own frame; its pivot is R / 2
        import sephill.montecarlo as mc

        model = pareto_model(d=3, mu=[1.0, 2.0, 3.0], sigma=self.SIGMA)
        truth = LocationScatterEstimate(
            mu_hat=model.mu, sigma_hat=4.0 * model.sigma,
            sigma_hat_inv=model.sigma_inv / 4.0,
        )
        monkeypatch.setattr(mc, "estimate_location_scatter", lambda *a, **kw: truth)
        cfg = ExperimentConfig(model, (400,), 1, base_seed=0)
        rec = run_replication(cfg, 400, 0)
        _, radii = sample_elliptical(model, 400, RngStream(0, 0))
        report = rec.bound_report
        assert report.m_n == 0.0 and report.b_n == 0.0
        assert report.a_n == 0.0
        assert report.r_pivot == float(order_desc(radii, top=rec.k + 1)[rec.k]) / 2.0

    def test_mean_cov_report_does_not_move_with_the_scale(self):
        # scaling the scatter by 4 doubles the rows (mu = 0) and scales the
        # fitted scatter by 4: the fit's distances, c and so the whole
        # report stay where they were
        base = pareto_model(alpha=4.0, d=2, sigma=[[2.0, 0.5], [0.5, 1.0]])
        scaled = pareto_model(alpha=4.0, d=2, sigma=[[8.0, 2.0], [2.0, 4.0]])
        ra, rb = (
            run_replication(ExperimentConfig(m, (500,), 1, base_seed=3), 500, 0)
            for m in (base, scaled)
        )
        assert rb.bound_report.r_pivot == pytest.approx(ra.bound_report.r_pivot, rel=1e-12)
        assert rb.bound_report.m_n == pytest.approx(ra.bound_report.m_n, rel=1e-9)
        assert rb.bound_report.b_n == pytest.approx(ra.bound_report.b_n, rel=1e-9)

    def test_tyler_frame_is_the_trace_d_scatter(self):
        # Tyler's shape has trace d, so c is d / tr(sigma) up to rounding:
        # scaling the scatter by 4 doubles the distances of that frame,
        # and with them the pivot
        for sigma in ([[2.0, 0.5], [0.5, 1.0]], [[8.0, 2.0], [2.0, 4.0]]):
            model = pareto_model(alpha=4.0, d=2, sigma=sigma)
            cfg = ExperimentConfig(
                model, (500,), 1, base_seed=3, estimator_method=SPATIAL_MEDIAN_TYLER
            )
            rec = run_replication(cfg, 500, 0)
            _, radii = sample_elliptical(model, 500, RngStream(3, 0))
            pivot = float(order_desc(radii, top=rec.k + 1)[rec.k])
            assert rec.bound_report.r_pivot == pytest.approx(
                pivot * math.sqrt(np.trace(model.sigma) / 2), rel=1e-12
            )

    @pytest.mark.parametrize("method", ESTIMATOR_METHODS)
    def test_envelope_lemmas_hold_on_the_fits(self, method):
        # both lemmas behind b_n, checked on the pair the report stands
        # for: the radii in the fit's frame, R / sqrt(c), against the
        # fitted distances, with the report's own m_n
        if method == SAMPLE_MEAN_COV:  # the headline model
            model = pareto_model(
                alpha=5.0, d=3, mu=[1.0, 2.0, 3.0],
                sigma=[[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 1.5]],
            )
        else:  # the criterion-4 model
            model = pareto_model(
                alpha=2.0, d=2, mu=[0.5, -1.0], sigma=[[1.5, 0.4], [0.4, 0.8]]
            )
        n, reps = 2000, 20
        cfg = ExperimentConfig(model, (n,), reps, base_seed=31, estimator_method=method)
        applicable = 0
        for rep in range(reps):
            rec = run_replication(cfg, n, rep)
            sample, radii = sample_elliptical(model, n, RngStream(31, rep))
            fit = estimate_location_scatter(sample, method)
            c = float(np.trace(fit.sigma_hat)) / float(np.trace(model.sigma))
            true_d = order_desc(radii) / math.sqrt(c)
            est_d = order_desc(
                mahalanobis_distances(sample, fit.mu_hat, fit.sigma_hat_inv)
            )
            assert true_d[rec.k] == rec.bound_report.r_pivot
            sweep = check_envelopes(
                true_d, est_d, rec.bound_report.m_n, [1, rec.k + 1, n // 10]
            )
            assert sweep.violations == 0
            applicable += sweep.applicable
        # pilots on seeds 1-5, 100 replications each: 596-600 of 600 checks
        # applied, with no violation
        assert applicable >= 0.9 * 2 * 3 * reps


class TestRadiiRoute:
    """The true side of a replication is Hill on the generating radii."""

    FAMILIES = {
        "pareto": GeneratingVariateSpec.pareto(5.0),
        "frechet": GeneratingVariateSpec.frechet(5.0),
        "t-radial": GeneratingVariateSpec.t_radial(5.0),
    }

    @staticmethod
    def _model(variate, d):
        a = np.random.default_rng(d).normal(size=(d, d))
        return EllipticalModel(
            mu=np.linspace(-1.0, 2.0, d),
            sigma=a @ a.T + np.eye(d),
            variate=variate,
        )

    @pytest.mark.parametrize("method", ESTIMATOR_METHODS)
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_true_side_reads_the_radii(self, family, d, method):
        model = self._model(self.FAMILIES[family], d)
        n, rep = 400, 3
        cfg = ExperimentConfig(model, (n,), 1, base_seed=17, estimator_method=method)
        rec = run_replication(cfg, n, rep)
        k = rec.k
        sample, radii = sample_elliptical(model, n, RngStream(17, rep))
        ordered = order_desc(radii, top=k + 1)
        assert rec.gamma_hat_true == univariate_hill(ordered, k)
        recomputed = univariate_hill(
            order_desc(mahalanobis_distances(sample, model.mu, model.sigma_inv)), k
        )
        assert abs(rec.gamma_hat_true - recomputed) <= 1e-13
        fit = estimate_location_scatter(sample, method)
        c = float(np.trace(fit.sigma_hat)) / float(np.trace(model.sigma))
        assert rec.bound_report.r_pivot == float(ordered[k]) / math.sqrt(c)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_true_side_does_not_depend_on_the_fit(self, family, d):
        # true_aggregates summarize gamma_hat_true, so every fit must
        # report the same true side for one stream
        model = self._model(self.FAMILIES[family], d)
        true_sides = {
            run_replication(
                ExperimentConfig(model, (400,), 1, base_seed=17, estimator_method=m),
                400,
                3,
            ).gamma_hat_true
            for m in ESTIMATOR_METHODS
        }
        assert len(true_sides) == 1


class TestWorkspace:
    """A replication reuses its thread's workspace; what it returns never
    aliases the workspace, so a reused workspace changes no byte."""

    NS = (20000, 2000, 20000)  # grow, take a leading view, reuse

    @staticmethod
    def _config(family, d, method):
        model = TestRadiiRoute._model(TestRadiiRoute.FAMILIES[family], d)
        return ExperimentConfig(
            model, (2000, 20000), 1, base_seed=23, estimator_method=method
        )

    @pytest.mark.parametrize("method", ESTIMATOR_METHODS)
    @pytest.mark.parametrize("family", sorted(TestRadiiRoute.FAMILIES))
    def test_reused_workspace_matches_fresh_arrays(self, monkeypatch, family, method):
        import sephill.montecarlo as mc

        # the tagged form, so a replication that fails would compare too
        for d in range(1, 6):
            cfg = self._config(family, d, method)
            monkeypatch.setattr(mc, "_thread_workspace", lambda: None)
            fresh = [repr(mc._run_task(cfg, n, rep)[0])
                     for rep, n in enumerate(self.NS)]
            workspace = Workspace()
            monkeypatch.setattr(mc, "_thread_workspace", lambda: workspace)
            reused = [repr(mc._run_task(cfg, n, rep)[0])
                      for rep, n in enumerate(self.NS)]
            assert reused == fresh

    def test_mean_cov_holds_two_wide_and_four_narrow_slabs(self, monkeypatch):
        import sephill.montecarlo as mc

        workspace = Workspace()
        monkeypatch.setattr(mc, "_thread_workspace", lambda: workspace)
        cfg = ExperimentConfig(pareto_model(), (20000,), 1, base_seed=7)
        run_replication(cfg, 20000, 0)
        # (d, n) slabs "sample" and "columns"; n-float "radii", "rows",
        # "order" and "distances"
        d, n = 2, 20000
        assert workspace.nbytes() == (2 * d * n + 4 * n) * 8

    def test_fresh_sample_survives_later_replications(self):
        cfg = self._config("pareto", 3, SAMPLE_MEAN_COV)
        # a stream no replication draws, so a rewrite would change bytes
        sample, radii = sample_elliptical(cfg.model, 2000, RngStream(99, 0))
        kept = (sample.copy(), radii.copy())
        for rep in range(20):
            run_replication(cfg, (2000, 20000)[rep % 2], rep)
        np.testing.assert_array_equal(sample, kept[0])
        np.testing.assert_array_equal(radii, kept[1])

    @pytest.mark.parametrize("method", [SAMPLE_MEAN_COV, SPATIAL_MEDIAN_TYLER])
    def test_threads_running_at_once_match_a_serial_run(self, method):
        # more threads than cores and a short switch interval, so the
        # threads interleave inside the stages; a shared workspace would
        # mix their samples
        cfg = self._config("pareto", 2, method)
        tasks = [(n, rep) for rep in range(6) for n in (2000, 20000)]
        serial = [repr(run_replication(cfg, n, rep)) for n, rep in tasks]
        results = [[None] * len(tasks) for _ in range(4)]

        def work(slot):
            order = range(len(tasks)) if slot % 2 == 0 else reversed(range(len(tasks)))
            for i in order:
                results[slot][i] = repr(run_replication(cfg, *tasks[i]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(slot,)) for slot in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [serial] * 4

    @pytest.mark.parametrize("method", ESTIMATOR_METHODS)
    def test_pool_workers_match_in_process_records(self, method):
        cfg = ExperimentConfig(
            pareto_model(alpha=5.0, d=3), (2000, 300), 4, base_seed=29,
            estimator_method=method,
        )
        serial = run_experiment(cfg, workers=1)
        pooled = run_experiment(cfg, workers=2)
        assert repr(pooled.records) == repr(serial.records)
        assert pooled.aggregates == serial.aggregates
        assert pooled.true_aggregates == serial.true_aggregates


class TestAggregateRecords:
    def _record(self, rep_id, ne, est, gap):
        return ReplicationRecord(
            rep_id=rep_id,
            n=100,
            k=4,
            gamma_hat_true=est - gap,
            gamma_hat_est=est,
            normalized_error=ne,
            estimator_gap=gap,
            bound_report=log_ratio_bound(0.0, 1.0),
        )

    def test_hand_stats(self):
        recs = [
            self._record(0, 1.0, 0.3, 0.1),
            self._record(1, 3.0, 0.5, -0.3),
        ]
        agg = aggregate_records(recs, 100, 4, gamma=0.2, target_mean=0.0)
        assert agg.count == 2 and agg.failures == 0
        assert agg.mean_normalized_error == pytest.approx(2.0)
        assert agg.sd_normalized_error == pytest.approx(math.sqrt(2.0))
        assert agg.median_normalized_error == pytest.approx(2.0)
        assert agg.q05_normalized_error == pytest.approx(1.1)
        assert agg.q95_normalized_error == pytest.approx(2.9)
        assert agg.median_abs_error == pytest.approx(0.2)
        # gaps scaled by sqrt(k) = 2: [0.2, 0.6] -> 95th percentile 0.58
        assert agg.p95_scaled_gap == pytest.approx(0.58)
        assert agg.target_mean == 0.0
        assert agg.target_sd == 0.2
        assert 0.0 <= agg.ks_stat <= 1.0

    def test_failures_excluded(self):
        recs = [
            self._record(0, 1.0, 0.3, 0.1),
            self._record(1, 3.0, 0.5, -0.3),
            ReplicationFailure(rep_id=2, n=100, k=4, failure="x"),
        ]
        agg = aggregate_records(recs, 100, 4, gamma=0.2, target_mean=0.0)
        assert agg.count == 2 and agg.failures == 1
        assert agg.mean_normalized_error == pytest.approx(2.0)

    def test_singleton_sd_is_nan(self):
        agg = aggregate_records(
            [self._record(0, 1.0, 0.3, 0.1)], 100, 4, gamma=0.2, target_mean=0.0
        )
        assert agg.count == 1
        assert math.isnan(agg.sd_normalized_error)

    def test_no_target_mean_no_ks(self):
        agg = aggregate_records(
            [self._record(0, 1.0, 0.3, 0.1)], 100, 4, gamma=0.2, target_mean=None
        )
        assert agg.ks_stat is None
        assert agg.target_mean is None

    def test_ks_stat_matches_scipy_normal_cdf(self):
        # the harness's erfc-based normal CDF moves the statistic by at
        # most an ulp or so of 1 against scipy's ndtr on the same errors
        err = np.random.default_rng(5).normal(0.1, 0.2, size=400)
        recs = [self._record(i, e, 0.3, 0.1) for i, e in enumerate(err)]
        agg = aggregate_records(recs, 100, 4, gamma=0.2, target_mean=0.1)
        expected = ks_statistic(err, lambda x: ndtr((x - 0.1) / 0.2))
        assert abs(agg.ks_stat - expected) <= 2.3e-16


class TestRunExperiment:
    def _config(self, **kw):
        kw.setdefault("estimator_method", SAMPLE_MEAN_COV)
        return ExperimentConfig(
            pareto_model(alpha=5.0), kw.pop("n_values", (200,)),
            kw.pop("replications", 6), base_seed=kw.pop("base_seed", 5), **kw
        )

    def test_record_layout(self):
        cfg = self._config(n_values=(100, 200), replications=3)
        res = run_experiment(cfg)
        assert len(res.records) == 6
        assert [r.n for r in res.records] == [100, 100, 100, 200, 200, 200]
        assert [r.rep_id for r in res.records] == [0, 1, 2, 0, 1, 2]
        assert len(res.aggregates) == 2
        assert res.aggregates[0].n == 100

    def test_workers_do_not_change_results(self):
        cfg = ExperimentConfig(
            pareto_model(alpha=4.0),
            (200,),
            6,
            base_seed=5,
            estimator_method=SPATIAL_MEDIAN_TYLER,
        )
        serial = run_experiment(cfg, workers=1)
        pooled = run_experiment(cfg, workers=4)
        for a, b in zip(serial.records, pooled.records):
            assert a.gamma_hat_est == b.gamma_hat_est
            assert a.normalized_error == b.normalized_error
            assert a.bound_report.m_n == b.bound_report.m_n
        for a, b in zip(serial.aggregates, pooled.aggregates):
            assert a == b

    def test_pool_size_capped_at_usable_cpus(self, monkeypatch):
        import sephill.montecarlo as mc

        monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: {0, 1})
        assert [mc.pool_size(w) for w in (1, 2, 3, 8)] == [1, 2, 2, 2]
        monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: {5})
        assert mc.pool_size(8) == 1
        # platforms without sched_getaffinity count all CPUs
        monkeypatch.delattr(mc.os, "sched_getaffinity")
        monkeypatch.setattr(mc.os, "cpu_count", lambda: 3)
        assert [mc.pool_size(w) for w in (1, 2, 8)] == [1, 2, 3]
        monkeypatch.setattr(mc.os, "cpu_count", lambda: None)
        assert mc.pool_size(8) == 1

    def test_dead_worker_breaks_one_call(self, tmp_path):
        # a worker that dies fails its call with BrokenProcessPool; the pool
        # is dropped and the next call runs on a fresh one.  Run in a fresh
        # interpreter, so the patch is in place before the pool forks.
        root = Path(__file__).resolve().parent.parent
        script = (
            "import os, sys\n"
            "import numpy as np\n"
            "from concurrent.futures.process import BrokenProcessPool\n"
            "import sephill.montecarlo as mc\n"
            "from sephill.distributions import EllipticalModel, GeneratingVariateSpec\n"
            "real = mc.run_replication\n"
            "def dies_once(config, n, rep_id):\n"
            "    if rep_id == 3 and not os.path.exists(sys.argv[1]):\n"
            "        open(sys.argv[1], 'w').close()\n"
            "        os._exit(1)\n"
            "    return real(config, n, rep_id)\n"
            "mc.run_replication = dies_once\n"
            "mc.pool_size = lambda workers: workers\n"
            "model = EllipticalModel(np.zeros(2), np.eye(2), GeneratingVariateSpec.pareto(5.0))\n"
            "cfg = mc.ExperimentConfig(model, (200,), 6, base_seed=5)\n"
            "broken = 0\n"
            "try:\n"
            "    mc.run_experiment(cfg, workers=2)\n"
            "except BrokenProcessPool:\n"
            "    broken += 1\n"
            "assert mc._pool is None\n"
            "again = mc.run_experiment(cfg, workers=2)\n"
            "serial = mc.run_experiment(cfg, workers=1)\n"
            "assert again.records == serial.records\n"
            "print(broken)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "died")],
            env=dict(os.environ, PYTHONPATH=str(root / "src")),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "1"

    def test_no_fork_runs_in_process(self, monkeypatch):
        # platforms that cannot fork run every worker count in this process
        import multiprocessing

        import sephill.montecarlo as mc

        monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: {0, 1, 2})
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        assert mc.pool_size(8) == 1

        def no_pool(size):
            raise AssertionError("started a pool")

        monkeypatch.setattr(mc, "_process_pool", no_pool)
        cfg = self._config(replications=4)
        assert run_experiment(cfg, workers=4).records == run_experiment(cfg).records

    def test_fork_warning_does_not_reach_caller(self, tmp_path):
        # Python 3.12+ warns when a process that runs other threads forks;
        # os.fork is wrapped to give that warning on any version.  The
        # warnings run_experiment's caller sees must not depend on whether
        # a pool was started.
        root = Path(__file__).resolve().parent.parent
        script = (
            "import os, warnings\n"
            "import numpy as np\n"
            "import sephill.montecarlo as mc\n"
            "from sephill.distributions import EllipticalModel, GeneratingVariateSpec\n"
            "real_fork = os.fork\n"
            "def fork():\n"
            "    warnings.warn(f'This process (pid={os.getpid()}) is multi-threaded, '\n"
            "        'use of fork() may lead to deadlocks in the child.',\n"
            "        DeprecationWarning, stacklevel=2)\n"
            "    return real_fork()\n"
            "os.fork = fork\n"
            "mc.pool_size = lambda workers: workers\n"
            "model = EllipticalModel(np.zeros(2), np.eye(2), GeneratingVariateSpec.pareto(5.0))\n"
            "cfg = mc.ExperimentConfig(model, (200,), 4, base_seed=5)\n"
            "with warnings.catch_warnings(record=True) as caught:\n"
            "    warnings.simplefilter('always')\n"
            "    mc.run_experiment(cfg, workers=2)\n"
            "assert mc._pool is not None\n"
            "assert not caught, [str(w.message) for w in caught]\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONPATH=str(root / "src")),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr

    def test_replication_warnings_keep_their_module(self, monkeypatch):
        # re-emitted warnings carry the module they came from, so a filter
        # scoped to that module still applies to them.
        import sephill.montecarlo as mc

        real = mc.run_replication

        def noisy(config, n, rep_id):
            warnings.warn("noisy replication", RuntimeWarning)
            return real(config, n, rep_id)

        monkeypatch.setattr(mc, "run_replication", noisy)
        cfg = self._config(replications=2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_experiment(cfg)
        assert [str(w.message) for w in caught] == ["noisy replication"] * 2
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            warnings.filterwarnings(
                "ignore", category=RuntimeWarning, module=re.escape(__name__) + "$"
            )
            run_experiment(cfg)
        assert not caught

    def test_aggregates_match_direct_recomputation(self):
        cfg = self._config(replications=8)
        res = run_experiment(cfg)
        agg = res.aggregates[0]
        redone = aggregate_records(
            list(res.records), 200, cfg.k_for(200), 0.2, 0.0
        )
        assert agg == redone

    def test_moment_guard_warns_at_quarter(self):
        cfg = ExperimentConfig(
            pareto_model(alpha=4.0), (50,), 2, base_seed=1
        )
        with pytest.warns(UserWarning, match="fourth"):
            run_experiment(cfg)

    def test_no_warning_below_quarter(self):
        cfg = self._config(n_values=(50,), replications=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_experiment(cfg)

    def test_requires_config_instance(self):
        with pytest.raises(ConfigError):
            run_experiment({"n_values": [100]})

    def test_single_tolerated_failure_is_recorded(self, monkeypatch):
        import sephill.montecarlo as mc

        real = mc.run_replication

        def flaky(config, n, rep_id):
            if rep_id == 37:
                raise DegenerateSample("synthetic failure for testing")
            return real(config, n, rep_id)

        monkeypatch.setattr(mc, "run_replication", flaky)
        cfg = self._config(n_values=(100,), replications=150)
        res = run_experiment(cfg)
        agg = res.aggregates[0]
        assert agg.failures == 1
        assert agg.count == 149
        # a replication that raised has no true side either
        true_agg = res.true_aggregates[0]
        assert (true_agg.failures, true_agg.count) == (1, 149)
        bad = [r for r in res.records if isinstance(r, ReplicationFailure)]
        assert bad == [
            ReplicationFailure(
                rep_id=37,
                n=100,
                k=10,
                failure="DegenerateSample: synthetic failure for testing",
            )
        ]
        assert sum(isinstance(r, ReplicationRecord) for r in res.records) == 149

    def test_failure_cap_aborts(self, monkeypatch):
        import sephill.montecarlo as mc

        real = mc.run_replication

        def flaky(config, n, rep_id):
            if rep_id in (3, 4):
                raise DegenerateSample("synthetic failure for testing")
            return real(config, n, rep_id)

        monkeypatch.setattr(mc, "run_replication", flaky)
        cfg = self._config(n_values=(100,), replications=150)
        with pytest.raises(FailureCapExceeded, match="synthetic failure"):
            run_experiment(cfg)


class TestKolmogorovSmirnov:
    def test_hand_statistic(self):
        assert ks_statistic([0.25, 0.75], lambda x: x) == pytest.approx(0.25)
        assert ks_statistic([0.5], lambda x: x) == pytest.approx(0.5)

    def test_perfect_grid_is_small(self):
        n = 1000
        grid = (np.arange(n) + 0.5) / n
        assert ks_statistic(grid, lambda x: x) == pytest.approx(0.5 / n)

    def test_empty_rejected(self):
        with pytest.raises(TooFewValues):
            ks_statistic([], lambda x: x)

    def test_threshold_values(self):
        assert ks_threshold(10000, 0.01) == pytest.approx(0.016276, abs=2e-6)
        assert ks_threshold(100, 0.001) == pytest.approx(0.19495, abs=2e-5)
        with pytest.raises(DomainError):
            ks_threshold(100, 0.0)

    def test_seeded_normal_sample_passes(self):
        gen = np.random.default_rng(12)
        x = gen.normal(size=5000)
        assert ks_statistic(x, ndtr) < ks_threshold(5000, 0.01)

    def test_normal_cdf_matches_scipy_ndtr(self):
        z = np.concatenate([np.linspace(-40.0, 40.0, 80001), [np.inf, -np.inf]])
        np.testing.assert_allclose(_normal_cdf(z), ndtr(z), rtol=0, atol=2.3e-16)
        # the erfc form keeps relative precision in the lower tail, down to
        # where the CDF nears the smallest normal double
        tail = np.linspace(-37.0, 0.0, 3701)
        np.testing.assert_allclose(_normal_cdf(tail), ndtr(tail), rtol=1e-12)

