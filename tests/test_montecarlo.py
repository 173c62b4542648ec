import math
import warnings

import numpy as np
import pytest
from scipy.special import ndtr

from sephill.distributions import EllipticalModel, GeneratingVariateSpec
from sephill.errors import (
    BetaOutOfRange,
    ConfigError,
    DegenerateSample,
    DomainError,
    FailureCapExceeded,
    TooFewValues,
)
from sephill.estimators import SAMPLE_MEAN_COV, SPATIAL_MEDIAN_TYLER, TRUE_PARAMS
from sephill.montecarlo import (
    AggregateStats,
    ExperimentConfig,
    ReplicationRecord,
    aggregate_records,
    k_schedule,
    ks_statistic,
    ks_threshold,
    normality_diagnostics,
    run_experiment,
    run_replication,
)


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

    def test_true_params_is_a_valid_method(self):
        cfg = ExperimentConfig(
            pareto_model(), (100,), 5, base_seed=0, estimator_method=TRUE_PARAMS
        )
        assert cfg.estimator_method == TRUE_PARAMS

    def test_misaligned_k_values(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(
                pareto_model(), (100, 1000), 5, base_seed=0, k_values=(10,)
            )

    def test_k_must_be_below_n(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(pareto_model(), (100,), 5, base_seed=0, k_values=(100,))

    def test_need_some_k_rule(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(pareto_model(), (100,), 5, base_seed=0, k_beta=None)


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

    def test_true_params_gap_is_zero(self):
        cfg = self._config(method=TRUE_PARAMS)
        rec = run_replication(cfg, 400, 2)
        assert rec.estimator_gap == 0.0
        assert rec.gamma_hat_est == rec.gamma_hat_true
        assert rec.bound_report.m_n == 0.0
        assert rec.bound_report.b_n == 0.0
        assert rec.bound_report.preconds.pivot_ok

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
        # envelope constant is small, the four flags all hold, and the
        # estimator gap must respect the log-ratio bound
        cfg = ExperimentConfig(
            pareto_model(alpha=5.0), (20000,), 2, base_seed=11
        )
        checked = 0
        for rep in range(2):
            rec = run_replication(cfg, 20000, rep)
            p = rec.bound_report.preconds
            if p.m_lt_one and p.pivot_ok and p.a_lt_one and p.a_le_half:
                checked += 1
                assert abs(rec.estimator_gap) <= rec.bound_report.b_n + 1e-12
        assert checked == 2  # the setup is meant to make the flags hold

    def test_tyler_reference_normalization(self):
        # the Tyler report compares against the trace-normalized scatter, so
        # scaling the scatter leaves the shape coefficient and the reference
        # eigenvalue untouched; only the location terms move (the spatial
        # median scales with the data)
        base = pareto_model(alpha=4.0, d=2, sigma=[[2.0, 0.5], [0.5, 1.0]])
        scaled = pareto_model(alpha=4.0, d=2, sigma=[[8.0, 2.0], [2.0, 4.0]])
        cfg_a = ExperimentConfig(
            base, (500,), 1, base_seed=3, estimator_method=SPATIAL_MEDIAN_TYLER
        )
        cfg_b = ExperimentConfig(
            scaled, (500,), 1, base_seed=3, estimator_method=SPATIAL_MEDIAN_TYLER
        )
        ra = run_replication(cfg_a, 500, 0)
        rb = run_replication(cfg_b, 500, 0)
        assert ra.bound_report.a_coef == pytest.approx(
            rb.bound_report.a_coef, rel=1e-10
        )
        assert ra.bound_report.lambda_max == pytest.approx(
            rb.bound_report.lambda_max, rel=1e-12
        )
        # with mu = 0 the location estimate doubles, and with it the envelope
        assert rb.bound_report.m_n == pytest.approx(
            2.0 * ra.bound_report.m_n, rel=1e-9
        )


class TestAggregateRecords:
    def _record(self, rep_id, ne, est, gap, failed=False, failure=None):
        return ReplicationRecord(
            rep_id=rep_id,
            n=100,
            k=4,
            gamma_hat_true=est - gap,
            gamma_hat_est=est,
            normalized_error=ne,
            estimator_gap=gap,
            bound_report=None,
            failed=failed,
            failure=failure,
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
            self._record(2, math.nan, math.nan, math.nan, failed=True, failure="x"),
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
        threaded = run_experiment(cfg, workers=4)
        for a, b in zip(serial.records, threaded.records):
            assert a.gamma_hat_est == b.gamma_hat_est
            assert a.normalized_error == b.normalized_error
            assert a.bound_report.m_n == b.bound_report.m_n
        for a, b in zip(serial.aggregates, threaded.aggregates):
            assert a == b

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
        bad = [r for r in res.records if r.failed]
        assert len(bad) == 1
        assert bad[0].rep_id == 37
        assert bad[0].failure.startswith("DegenerateSample")
        assert math.isnan(bad[0].gamma_hat_est)

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


class TestNormalityDiagnostics:
    def test_constant_sample_oracle(self):
        m = 64
        tm, tsd = 0.5, 2.0
        diag = normality_diagnostics(np.full(m, tm + tsd), tm, tsd)
        assert diag.z_mean == pytest.approx(math.sqrt(m), rel=1e-12)
        assert diag.z_sd == pytest.approx(-math.sqrt(2 * m), rel=1e-12)

    def test_seeded_self_consistency(self):
        gen = np.random.default_rng(99)
        m = 4000
        x = gen.normal(loc=1.0, scale=2.0, size=m)
        diag = normality_diagnostics(x, 1.0, 2.0)
        assert abs(diag.z_mean) < 4.0
        assert abs(diag.z_sd) < 4.0
        assert diag.ks_stat * math.sqrt(m) < 1.95

    def test_too_few(self):
        with pytest.raises(TooFewValues):
            normality_diagnostics(np.ones(29), 0.0, 1.0)

    def test_bad_sd(self):
        with pytest.raises(DomainError):
            normality_diagnostics(np.ones(50), 0.0, 0.0)
