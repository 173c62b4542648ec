"""Simulate an elliptical sample and recover its extreme value index.

A three-dimensional Pareto-radial model with a deliberately skewed scatter
matrix: the tail heaviness lives entirely in the generating variate, so the
separating Hill estimator should recover gamma = 1/alpha no matter how the
mass is stretched across coordinates.
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

alpha = 3.0
model = EllipticalModel(
    mu=np.array([1.0, -2.0, 0.5]),
    sigma=np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 1.5]]),
    variate=GeneratingVariateSpec.pareto(alpha),
)
n, k = 20000, 1000
sample, _ = sample_elliptical(model, n, RngStream(seed=44, stream_id=0))

print(f"model: pareto radial, alpha={alpha} -> gamma = {1 / alpha:.4f}")
print(f"sample: n={n}, d={sample.shape[1]}, k={k}\n")

[known] = separating_hill(sample, model.mu, model.sigma, [k])
print(f"known mu/sigma:      gamma_hat = {known:.4f}")

for method in ("sample_mean_cov", "spatial_median_tyler"):
    fit = estimate_location_scatter(sample, method)
    [est] = separating_hill(sample, fit.mu_hat, fit.sigma_hat, [k])
    extra = (
        f"  ({fit.median_iterations} Weiszfeld + {fit.shape_iterations} Tyler steps)"
        if fit.median_iterations
        else ""
    )
    print(f"{method:<20} gamma_hat = {est:.4f}{extra}")

print("\nAll three agree to a couple of decimals: the plug-in step is")
print("asymptotically free for this estimator.")
