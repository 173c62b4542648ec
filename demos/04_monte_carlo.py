"""Run a small Monte Carlo experiment and read off the two theorems.

Consistency shows up as the median absolute error shrinking with n;
limiting normality as sqrt(k) * (gamma_hat - gamma) matching a centred
normal with standard deviation gamma.  The harness is deterministic: the
same seed always reproduces the same records, whatever the worker count.
"""

import math

import numpy as np

from sephill import (
    EllipticalModel,
    GeneratingVariateSpec,
    ExperimentConfig,
    ks_threshold,
    run_experiment,
)

gamma = 0.2  # light enough that the sample covariance keeps fourth moments
model = EllipticalModel(
    mu=np.array([1.0, -1.0]),
    sigma=np.array([[1.0, 0.2], [0.2, 0.6]]),
    variate=GeneratingVariateSpec.pareto(1.0 / gamma),
)
config = ExperimentConfig(
    model, n_values=(500, 2000, 8000), replications=200, base_seed=314,
)
result = run_experiment(config, workers=4)

print(f"pareto radial, gamma = {gamma}; 200 replications per n\n")
print("     n    k   median|err|   mean(z)    sd(z)      KS")
for agg in result.aggregates:
    print(
        f"{agg.n:>6} {agg.k:>4}   {agg.median_abs_error:.4f}      "
        f"{agg.mean_normalized_error:+.4f}   {agg.sd_normalized_error:.4f}   "
        f"{agg.ks_stat:.4f}"
    )

# the z-scores standardize the last aggregate's mean and sd of the
# normalized errors against the limit law, by target_sd / sqrt(M) and
# target_sd / sqrt(2 M), with M the replications that succeeded
final = result.aggregates[-1]
m = final.count
z_mean = (final.mean_normalized_error - final.target_mean) / (
    final.target_sd / math.sqrt(m)
)
z_sd = (final.sd_normalized_error - final.target_sd) / (
    final.target_sd / math.sqrt(2.0 * m)
)
print(f"\nat n = {final.n}: z-scores for mean/sd = "
      f"{z_mean:+.2f} / {z_sd:+.2f}; "
      f"KS {final.ks_stat:.4f} vs 1% threshold {ks_threshold(200, 0.01):.4f}")
