"""Quantify how much an estimated location/scatter can move the estimate.

The envelope machinery turns the raw estimation errors (in spectral norm /
Euclidean norm) into a single coefficient m_n, then into a bound b_n on how
far any log distance ratio above the pivot can travel.  Averaging k such
ratios is exactly the Hill step, so |gamma_hat(estimated) -
gamma_hat(true)| <= b_n whenever the envelope applies.  Hill reads only
distance ratios, so the envelope is measured in the fit's own frame:
``assess_fit``, the experiment harness's own seam, translates the truth to
the origin, so only the location error mu_hat - mu enters, and scales its
scatter by c = tr(sigma_hat) / tr(sigma) to the fit's size, which puts the
true distances at R / sqrt(c).  Its record keeps c as ``scale``.  a_n alone
says whether the envelope applies: the bound b_n holds while a_n <= 1/2.
This demo assesses one fit of one sample and checks both envelope lemmas
on the same distances.
"""

import numpy as np

from sephill import (
    EllipticalModel,
    GeneratingVariateSpec,
    RngStream,
    assess_fit,
    check_envelopes,
    estimate_location_scatter,
    mahalanobis_distances,
    order_desc,
    sample_elliptical,
)

model = EllipticalModel(
    mu=np.array([0.5, -1.0]),
    sigma=np.array([[1.5, 0.4], [0.4, 0.8]]),
    variate=GeneratingVariateSpec.pareto(4.0),
)
n, k = 20000, 140
sample, radii = sample_elliptical(model, n, RngStream(seed=11, stream_id=0))
fit = estimate_location_scatter(sample, "sample_mean_cov")
record = assess_fit(model, sample, radii, fit, k, rep_id=0)
report = record.bound_report
print(f"scale of the fit c = tr(sigma_hat) / tr(sigma) = {record.scale:.3f}")
print(f"combined coefficient m_n = {report.m_n:.2e}")
print(f"pivot r = {report.r_pivot:.3f} -> a_n = {report.a_n:.2e}, b_n = {report.b_n:.2e}")
print(f"applies (a_n <= 1/2): {report.a_n <= 0.5}\n")

l = k + 1
true_d = order_desc(radii, top=l) / np.sqrt(record.scale)
est_d = order_desc(mahalanobis_distances(sample, fit.mu_hat, fit.sigma_hat_inv), top=l)
sweep = check_envelopes(true_d, est_d, report.m_n, [l])
print(f"squared-distance envelope at index {l}: slack={sweep.min_epsilon_slack:.2e}")
print(f"log-ratio envelope over top {l}: worst gap={sweep.max_ratio_gap:.2e} "
      f"vs bound {sweep.ratio_bounds[0]:.2e}")
print(f"violations of either envelope: {sweep.violations}")

print(f"\n|gamma_hat(est) - gamma_hat(true)| = {abs(record.estimator_gap):.2e} "
      f"<= b_n = {report.b_n:.2e}")
