"""Quantify how much an estimated location/scatter can move the estimate.

The envelope machinery turns the raw estimation errors (in spectral norm /
Euclidean norm) into a single coefficient m_n, then into a bound b_n on how
far any log distance ratio above the pivot can travel.  Averaging k such
ratios is exactly the Hill step, so |gamma_hat(estimated) -
gamma_hat(true)| <= b_n whenever the envelope applies.  Hill reads only
distance ratios, so the envelope is measured in the fit's own frame, as the
experiment harness measures it: the truth translated to the origin and its
scatter scaled by c = tr(sigma_hat) / tr(sigma) to the fit's size, which
puts the true distances at R / sqrt(c).  This demo computes everything on
one sample and checks the chain end to end.
"""

import numpy as np

from sephill import (
    EllipticalModel,
    GeneratingVariateSpec,
    RngStream,
    complete_bound,
    estimate_location_scatter,
    mahalanobis_distances,
    order_desc,
    perturbation_coefficients,
    sample_elliptical,
    separating_hill,
    verify_epsilon_lemma,
    verify_log_ratio_lemma,
)

model = EllipticalModel(
    mu=np.array([0.5, -1.0]),
    sigma=np.array([[1.5, 0.4], [0.4, 0.8]]),
    variate=GeneratingVariateSpec.pareto(4.0),
)
n, k = 20000, 140
sample, _ = sample_elliptical(model, n, RngStream(seed=11, stream_id=0))
fit = estimate_location_scatter(sample, "sample_mean_cov")

c = np.trace(fit.sigma_hat) / np.trace(model.sigma)
coeffs = perturbation_coefficients(
    np.zeros(2), model.sigma_inv / c, fit.mu_hat - model.mu, fit.sigma_hat_inv,
    c * model.lambda_max,
)
print(f"scale of the fit c = tr(sigma_hat) / tr(sigma) = {c:.3f}")
print(f"quadratic/linear/constant coefficients: "
      f"{coeffs.a_coef:.2e} / {coeffs.b_coef:.2e} / {coeffs.c_coef:.2e}")
print(f"combined coefficient m_n = {coeffs.m_n:.2e}")

true_d = order_desc(mahalanobis_distances(sample, model.mu, model.sigma_inv)) / np.sqrt(c)
est_d = order_desc(mahalanobis_distances(sample, fit.mu_hat, fit.sigma_hat_inv))
pivot = true_d[k]
bound = complete_bound(coeffs, pivot)
print(f"pivot r = {pivot:.3f} -> a_n = {bound.a_n:.2e}, b_n = {bound.b_n:.2e}")
print(f"applicability: {bound.preconds}\n")

l = k + 1
eps = verify_epsilon_lemma(true_d**2, est_d**2, coeffs.m_n, l)
ratio = verify_log_ratio_lemma(true_d, est_d, coeffs.m_n, l)
print(f"squared-distance envelope at index {l}: "
      f"violations={eps.violations}, slack={eps.max_slack:.2e}")
print(f"log-ratio envelope over top {l}: "
      f"violations={ratio.violations}, worst gap={ratio.max_ratio_gap:.2e} "
      f"vs bound {ratio.bound:.2e}")

g_true = separating_hill(sample, model.mu, model.sigma, k).gamma_hat
g_est = separating_hill(sample, fit.mu_hat, fit.sigma_hat, k).gamma_hat
print(f"\n|gamma_hat(est) - gamma_hat(true)| = {abs(g_est - g_true):.2e} "
      f"<= b_n = {bound.b_n:.2e}")
