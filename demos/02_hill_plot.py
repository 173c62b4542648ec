"""Trace the Hill estimate across the choice of tail fraction k.

The classical way to pick k is to look for the flat stretch of the Hill
plot: too-small k is noisy, too-large k drags in the bulk of the
distribution and biases the estimate.  The plot here is printed as a text
table with a crude bar so the demo has no plotting dependency.
"""

import numpy as np

from sephill import (
    EllipticalModel,
    GeneratingVariateSpec,
    RngStream,
    estimate_location_scatter,
    sample_elliptical,
    separating_hill,
)

model = EllipticalModel(
    mu=np.zeros(2),
    sigma=np.array([[1.0, 0.3], [0.3, 2.0]]),
    variate=GeneratingVariateSpec.frechet(2.0),  # gamma = 0.5
)
sample, _ = sample_elliptical(model, 5000, RngStream(seed=7, stream_id=0))
fit = estimate_location_scatter(sample, "sample_mean_cov")

k_values = range(10, 401, 30)
gammas = separating_hill(sample, fit.mu_hat, fit.sigma_hat, k_values)

print("  k   gamma_hat")
for k, gamma in zip(k_values, gammas):
    bar = "#" * int(round(gamma * 40))
    print(f"{k:>4}   {gamma:.4f}  {bar}")

stable = np.array(gammas[3:10])
print(f"\ntarget gamma = 0.5; plateau mean over k in [100, 280]: {stable.mean():.4f}")
