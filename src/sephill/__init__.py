"""Separating Hill estimation for heavy-tailed elliptical distributions.

The package bundles the estimator itself, samplers for elliptical models
with Pareto, Frechet and t-radial generating variates, perturbation
envelopes quantifying the effect of estimated location/scatter on the
ordered distances, and a deterministic Monte Carlo harness that checks the
consistency and limiting-normality behaviour of the estimator.
"""

__version__ = "0.1.0"

from .bounds import (
    PerturbationBound,
    PerturbationCoefficients,
    check_envelopes,
    complete_bound,
    delta_poly,
    log_ratio_bound,
    perturbation_coefficients,
    verify_epsilon_lemma,
    verify_log_ratio_lemma,
)
from .distributions import (
    EllipticalModel,
    GeneratingVariateSpec,
    RngStream,
    sample_elliptical,
)
from .estimators import (
    LocationScatterEstimate,
    estimate_location_scatter,
    mahalanobis_distances,
    order_desc,
    separating_hill,
    univariate_hill,
)
from .linalg import cholesky, spd_inverse, spectral_norm
from .montecarlo import (
    ExperimentConfig,
    ExperimentResult,
    ReplicationFailure,
    ReplicationRecord,
    k_schedule,
    ks_statistic,
    ks_threshold,
    run_experiment,
    run_replication,
)

__all__ = [
    "__version__",
    "PerturbationBound",
    "PerturbationCoefficients",
    "check_envelopes",
    "complete_bound",
    "delta_poly",
    "log_ratio_bound",
    "perturbation_coefficients",
    "verify_epsilon_lemma",
    "verify_log_ratio_lemma",
    "EllipticalModel",
    "GeneratingVariateSpec",
    "RngStream",
    "sample_elliptical",
    "LocationScatterEstimate",
    "estimate_location_scatter",
    "mahalanobis_distances",
    "order_desc",
    "separating_hill",
    "univariate_hill",
    "cholesky",
    "spd_inverse",
    "spectral_norm",
    "ExperimentConfig",
    "ExperimentResult",
    "ReplicationFailure",
    "ReplicationRecord",
    "k_schedule",
    "ks_statistic",
    "ks_threshold",
    "run_experiment",
    "run_replication",
]
