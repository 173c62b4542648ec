"""Acceptance suite: one test per headline guarantee of the package.

Each test is self-contained and seeded, so the whole suite is deterministic;
`pytest -v` shows one pass/fail line per criterion.  Statistical thresholds
were frozen after independent pilot runs at larger replication counts.
"""

import json
import math

import numpy as np
import pytest
from scipy import stats

from sephill import cli
from sephill.bounds import (
    perturbation_coefficients,
    verify_epsilon_lemma,
    verify_log_ratio_lemma,
)
from sephill.distributions import (
    EllipticalModel,
    GeneratingVariateSpec,
    RngStream,
    sample_elliptical,
)
from sephill.estimators import (
    SPATIAL_MEDIAN_TYLER,
    mahalanobis_distances,
    separating_hill,
    univariate_hill,
)
from sephill.linalg import spd_inverse, spectral_norm
from sephill.montecarlo import (
    ExperimentConfig,
    ks_statistic,
    ks_threshold,
    run_experiment,
)

LOG2 = math.log(2.0)


def test_criterion_1_hill_hand_oracle_through_all_routes(tmp_path):
    expected = 1.5 * LOG2

    direct = univariate_hill([8.0, 4.0, 2.0, 1.0], k=2)
    assert abs(direct - expected) <= 1e-12

    sample = np.array([[8.0, 0.0], [4.0, 0.0], [2.0, 0.0], [1.0, 0.0]])
    [via_separating] = separating_hill(sample, np.zeros(2), np.eye(2), [2])
    assert abs(via_separating - expected) <= 1e-12

    data = tmp_path / "ladder.csv"
    data.write_text("8.0,0.0\n4.0,0.0\n2.0,0.0\n1.0,0.0\n")
    out = tmp_path / "est.json"
    code = cli.main(
        ["estimate", "--data", str(data), "--k", "2", "--mu", "0,0",
         "--sigma", "identity", "--out", str(out)]
    )
    assert code == 0
    via_cli = json.loads(out.read_text())["estimates"][0]["gamma_hat"]
    assert abs(via_cli - expected) <= 1e-12


def test_criterion_2_scale_and_affine_invariance():
    worst_scale = 0.0
    worst_affine = 0.0
    for case in range(100):
        gen = np.random.default_rng(5000 + case)
        d = (2, 3, 5)[case % 3]
        if case % 3 == 0:
            variate = GeneratingVariateSpec.pareto(2.0)
        elif case % 3 == 1:
            variate = GeneratingVariateSpec.frechet(2.5)
        else:
            variate = GeneratingVariateSpec.t_radial(3.0)
        mu = gen.normal(size=d)
        g = gen.normal(size=(d, d))
        sigma = g @ g.T / d + 0.5 * np.eye(d)
        model = EllipticalModel(mu=mu, sigma=sigma, variate=variate)
        sample, _ = sample_elliptical(model, 500, RngStream(6000 + case, 0))
        k = 22
        [base] = separating_hill(sample, mu, sigma, [k])

        for c in (1e-3, 1e3):
            [scaled] = separating_hill(sample, mu, c * sigma, [k])
            worst_scale = max(worst_scale, abs(scaled - base))

        q1, _ = np.linalg.qr(gen.normal(size=(d, d)))
        q2, _ = np.linalg.qr(gen.normal(size=(d, d)))
        cond = 10.0 ** gen.uniform(0.0, 3.0)
        a = q1 @ np.diag(np.logspace(0.0, np.log10(cond), d)) @ q2.T
        b = gen.normal(size=d)
        [mapped] = separating_hill(
            sample @ a.T + b, a @ mu + b, a @ sigma @ a.T, [k]
        )
        worst_affine = max(worst_affine, abs(mapped - base))

    assert worst_scale <= 1e-9
    assert worst_affine <= 1e-7


def test_criterion_3_perturbation_lemmas_hold_on_random_trials():
    trials = 10**4
    n = 300
    violations = 0
    applicable = 0
    checks = 0
    for seed in range(trials):
        gen = np.random.default_rng(seed)
        d = int(gen.integers(2, 5))
        mu = gen.normal(size=d)
        g = gen.normal(size=(d, d))
        sigma = g @ g.T / d + 0.5 * np.eye(d)
        sigma_inv = spd_inverse(sigma)
        x = mu + gen.standard_t(df=3.0, size=(n, d)) @ np.linalg.cholesky(sigma).T

        scale = 10.0 ** gen.uniform(-4.0, -2.0)
        w = gen.normal(size=(d, d))
        sigma_hat_inv = sigma_inv + scale * (w @ w.T) / d
        mu_hat = mu + scale * gen.normal(size=d)

        dt = x - mu
        t_sq = np.sort(np.einsum("ni,ij,nj->n", dt, sigma_inv, dt))[::-1]
        de = x - mu_hat
        e_sq = np.sort(np.einsum("ni,ij,nj->n", de, sigma_hat_inv, de))[::-1]
        coeffs = perturbation_coefficients(
            sigma_inv, sigma_hat_inv, mu_hat - mu, spectral_norm(sigma)
        )

        for l in (1, math.ceil(math.sqrt(n)), math.ceil(n / 10)):
            eps_rep = verify_epsilon_lemma(t_sq, e_sq, coeffs.m_n, l)
            ratio_rep = verify_log_ratio_lemma(
                np.sqrt(t_sq), np.sqrt(e_sq), coeffs.m_n, l
            )
            violations += eps_rep.violations + ratio_rep.violations
            applicable += int(eps_rep.applicable) + int(ratio_rep.applicable)
            checks += 2

    assert violations == 0
    # the sweep has to actually exercise the bounds, not skip them
    assert applicable > 0.9 * checks


@pytest.fixture(scope="module")
def robust_experiment():
    model = EllipticalModel(
        mu=np.array([0.5, -1.0]),
        sigma=np.array([[1.5, 0.4], [0.4, 0.8]]),
        variate=GeneratingVariateSpec.pareto(2.0),  # extreme value index 0.5
    )
    config = ExperimentConfig(
        model,
        (10**3, 10**4, 10**5),
        100,
        base_seed=20260401,
        estimator_method=SPATIAL_MEDIAN_TYLER,
    )
    return run_experiment(config, workers=8)


def test_criterion_4_consistency_under_robust_estimation(robust_experiment):
    result = robust_experiment
    medians = [agg.median_abs_error for agg in result.aggregates]
    assert all(agg.failures == 0 for agg in result.aggregates)
    assert medians[0] > medians[1] > medians[2]
    assert medians[2] <= 0.10


@pytest.fixture(scope="module")
def normality_experiment():
    model = EllipticalModel(
        mu=np.array([1.0, 2.0, 3.0]),
        sigma=np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 1.5]]),
        variate=GeneratingVariateSpec.pareto(5.0),  # extreme value index 0.2
    )
    config = ExperimentConfig(
        model, (2000, 20000), 500, base_seed=20260402, k_values=(45, 141)
    )
    return run_experiment(config, workers=8)


def test_criterion_5_normal_limit_of_normalized_error(normality_experiment):
    agg = normality_experiment.aggregates[1]
    assert agg.n == 20000 and agg.k == 141 and agg.count == 500
    assert -0.04 <= agg.mean_normalized_error <= 0.04
    assert 0.17 <= agg.sd_normalized_error <= 0.23
    assert agg.ks_stat < ks_threshold(500, 0.001)


# Criterion 6 checks that sqrt(k) * |gamma_hat(estimated) - gamma_hat(true)|
# vanishes.  Along k ~ sqrt(n) its p95 follows about 0.6 * sqrt(k / n), the
# n^(-1/2) rate of the mean/covariance fit.  Pilots on the normality model:
#   n = 2*10^3, k = 45:  0.090
#   n = 2*10^4, k = 141: 0.0552 and 0.0499 (seeds 7 and 8, 3000 replications
#                        each); 0.0560 and 0.0498 (same seeds, 1000 each)
#   n = 10^5,   k = 316: 0.030-0.034 (seeds 1, 2, 3, 20260402; 200 each)
#   n = 2*10^5, k = 447: 0.026-0.029
# At n = 2*10^4 the population p95 sits on the 0.05 bar, so a check there
# passes or fails with the seed.  The bar is therefore checked at n = 10^5,
# where the gap has shrunk well below it, on the fixture's own seed.
@pytest.fixture(scope="module")
def large_n_gap_experiment(normality_experiment):
    config = ExperimentConfig(
        normality_experiment.config.model,
        (10**5,),
        200,
        base_seed=normality_experiment.config.base_seed,
        k_values=(316,),
    )
    return run_experiment(config, workers=8)


def test_criterion_6_estimated_vs_true_gap_negligible(
    normality_experiment, large_n_gap_experiment
):
    small, mid = normality_experiment.aggregates
    (large,) = large_n_gap_experiment.aggregates
    assert large.n == 10**5 and large.k == 316 and large.count == 200
    assert small.p95_scaled_gap > mid.p95_scaled_gap > large.p95_scaled_gap
    assert large.p95_scaled_gap < 0.05


# The envelope b_n bounds |gamma_hat(estimated) - gamma_hat(true)| where it
# applies: a_n <= 1/2, which implies the pivot test.  Pilots (seeds 1-5; 200
# replications of the headline model at n = 2*10^4, k = 141, and 100 of the
# criterion-4 model at n = 10^5, k = 317): every replication applied, none
# had |gap| > b_n, and the p95 of a_n read 0.122-0.134 and 0.079-0.086
# (largest single a_n 0.184 and 0.142).  Measured against the true scatter
# itself, which the mean/covariance fit does not estimate, the headline
# model applies in none of its replications, so the test tells the frames
# apart.
def test_envelope_applies_in_the_headline_and_robust_models(
    normality_experiment, robust_experiment
):
    for result, n, count in (
        (normality_experiment, 20000, 500),
        (robust_experiment, 10**5, 100),
    ):
        records = [rec for rec in result.records if rec.n == n]
        reports = [rec.bound_report for rec in records]
        assert len(reports) == count
        assert all(r.a_n <= 0.5 for r in reports)
        assert all(abs(rec.estimator_gap) <= rec.bound_report.b_n for rec in records)
        assert np.quantile([r.a_n for r in reports], 0.95) <= 0.25


def test_criterion_7_worker_count_invariant_output(tmp_path):
    def run(name, workers):
        out = tmp_path / name
        code = cli.main(
            ["experiment", "--family", "pareto", "--alpha", "5", "--dim", "2",
             "--n-values", "500,1000", "--replications", "20",
             "--method", "mean-cov", "--seed", "777",
             "--workers", workers, "--out", str(out)]
        )
        assert code == 0
        return out.read_bytes()

    assert run("serial.json", "1") == run("threaded.json", "8")


def test_criterion_7_worker_count_invariant_output_median_tyler(tmp_path):
    def run(workers):
        out = tmp_path / f"w{workers}.json"
        records = tmp_path / f"w{workers}.csv"
        code = cli.main(
            ["experiment", "--family", "pareto", "--alpha", "2", "--dim", "2",
             "--mu", "0.5,-1", "--n-values", "300,2000", "--replications", "6",
             "--method", "median-tyler", "--seed", "778",
             "--workers", workers, "--out", str(out),
             "--records-out", str(records)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["estimator_method"] == "spatial_median_tyler"
        assert payload["total_failures"] == 0
        return out.read_bytes(), records.read_bytes()

    assert run("1") == run("2")


def test_criterion_8_sampler_matches_analytic_law():
    # the oracle laws come from scipy.stats, not from this package: Pareto,
    # Fréchet (scipy's invweibull) and t-radial, whose r**2 / d is F(d, nu)
    n = 10**5
    threshold = ks_threshold(n, 0.01)
    for seed, spec, cdf in (
        (811, GeneratingVariateSpec.pareto(2.5), stats.pareto(b=2.5).cdf),
        (812, GeneratingVariateSpec.frechet(1.5), stats.invweibull(c=1.5).cdf),
        (
            813,
            GeneratingVariateSpec.t_radial(3.0),
            lambda r: stats.f(3, 3.0).cdf(r * r / 3),
        ),
    ):
        # the radii are the first draws of the stream, in a model of d = 3
        model = EllipticalModel(mu=np.zeros(3), sigma=np.eye(3), variate=spec)
        _, draws = sample_elliptical(model, n, RngStream(seed, 0))
        assert ks_statistic(draws, cdf) < threshold

    model = EllipticalModel(
        mu=np.array([1.0, -2.0, 0.5]),
        sigma=np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 1.5]]),
        variate=GeneratingVariateSpec.pareto(3.0),
    )
    sample, radii = sample_elliptical(model, n, RngStream(814, 0))
    dists = mahalanobis_distances(sample, model.mu, spd_inverse(model.sigma))
    assert np.max(np.abs(dists - radii)) < 1e-10
