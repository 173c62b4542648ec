"""Deterministic Monte Carlo harness for the separating Hill estimator.

An experiment fixes an elliptical model, a set of sample sizes, a rule for
the tail fraction k, an estimation method and a replication count.  Each
replication is an independent task addressed by ``(base_seed, rep_id)``, so
results are bit-identical no matter how many workers execute them, and any
single record can be recomputed in isolation.

With more than one worker the tasks run on a process pool.  A replication
is numpy work that holds the interpreter lock, so threads would take turns
rather than run side by side.  The pool is forked the first time an
experiment needs it, kept at module level and reused by later calls; it is
replaced only when a call asks for a different pool size, or after a worker
died.  Where the platform cannot fork, experiments run in-process.  Forked
workers are copies of this process as it was when the pool started: a
function patched or a module changed after that first parallel call does
not reach them.  The replication path makes no BLAS call (the
sampler and every reduction are elementwise numpy or einsum), so no BLAS
thread competes with the workers for the cores.

Per replication the harness estimates the extreme value index twice — once
with the true location/scatter and once with the configured estimator —
and attaches the perturbation-envelope report comparing the two.  The
aggregates summarize the normalized errors ``sqrt(k) * (gamma_hat - gamma)``
whose limiting law the experiments are designed to check.
"""

from __future__ import annotations

import atexit
import functools
import itertools
import math
import numbers
import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from . import bounds as bounds_mod
from . import linalg
from .distributions import EllipticalModel, RngStream, sample_elliptical
from .errors import (
    BetaOutOfRange,
    ConfigError,
    DomainError,
    FailureCapExceeded,
    SepHillError,
    TooFewValues,
)
from .estimators import (
    SAMPLE_MEAN_COV,
    SPATIAL_MEDIAN_TYLER,
    TRUE_PARAMS,
    LocationScatterEstimate,
    estimate_location_scatter,
    mahalanobis_distances,
    order_desc,
    univariate_hill,
)

METHODS = (TRUE_PARAMS, SAMPLE_MEAN_COV, SPATIAL_MEDIAN_TYLER)

#: Fraction of replications per sample size allowed to fail before the
#: whole experiment aborts instead of reporting biased aggregates.
FAILURE_CAP_FRACTION = 0.01

#: ``(size, executor)`` of the process pool parallel experiments share;
#: None until the first one runs, and again after a worker died.
_pool = None

#: Registries, one per source file, for warnings re-emitted from the tasks,
#: so the "default" action shows each one once per location, as it would
#: have in-process.
_warning_registries: dict = {}


def k_schedule(n: int, beta: float) -> int:
    """Tail fraction ``k = max(1, ceil(n**beta))`` clamped to ``n - 2``.

    Any exponent strictly between 0 and 1 keeps ``k`` growing while
    ``k / n`` vanishes, which is what the limit theorems require.
    """
    if not 0.0 < beta < 1.0:
        raise BetaOutOfRange(f"beta must lie strictly between 0 and 1, got {beta}")
    n = int(n)
    if n < 4:
        raise ConfigError(f"need n >= 4 for a meaningful tail fraction, got {n}")
    k = max(1, math.ceil(n**beta))
    return min(k, n - 2)


def _integer(value, field: str) -> int:
    """``value`` as an int: an integer, or a float with no fractional part
    (JSON may spell 100000 as 100000.0); anything else is a ConfigError."""
    if not isinstance(value, bool) and (
        isinstance(value, numbers.Integral)
        or isinstance(value, numbers.Real) and float(value).is_integer()
    ):
        return int(value)
    raise ConfigError(f"{field} must be an integer, got {value!r}")


@dataclass(frozen=True, eq=False)
class EnvelopeReference:
    """The true scatter's inverse and largest eigenvalue, and the factor
    that maps true distances into the same normalization."""

    sigma_inv: np.ndarray
    lambda_max: float
    distance_scale: float


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Full description of one experiment.

    The tail fraction is either derived from ``k_beta`` through
    :func:`k_schedule` or given explicitly as ``k_values`` aligned with
    ``n_values``.
    """

    model: EllipticalModel
    n_values: tuple[int, ...]
    replications: int
    base_seed: int
    estimator_method: str = SAMPLE_MEAN_COV
    k_beta: float | None = 0.5
    k_values: tuple[int, ...] | None = None

    def __post_init__(self):
        object.__setattr__(
            self, "n_values", tuple(_integer(n, "n_values") for n in self.n_values)
        )
        if self.k_values is not None:
            object.__setattr__(
                self, "k_values", tuple(_integer(k, "k_values") for k in self.k_values)
            )
        if not self.n_values:
            raise ConfigError("n_values must not be empty")
        if len(set(self.n_values)) != len(self.n_values):
            # k_for looks a sample size up by value, so a repeated n would
            # lose its own k; and streams are keyed by (base_seed, rep_id)
            # alone, so it would only repeat the first entry's records
            raise ConfigError(f"n_values must be distinct, got {list(self.n_values)}")
        if self.estimator_method not in METHODS:
            raise ConfigError(
                f"unknown estimator_method {self.estimator_method!r}; "
                f"expected one of {METHODS}"
            )
        object.__setattr__(
            self, "replications", _integer(self.replications, "replications")
        )
        if self.replications < 1:
            raise ConfigError("replications must be at least 1")
        object.__setattr__(self, "base_seed", _integer(self.base_seed, "base_seed"))
        if self.k_values is not None:
            if len(self.k_values) != len(self.n_values):
                raise ConfigError(
                    "k_values must align with n_values "
                    f"({len(self.k_values)} vs {len(self.n_values)})"
                )
            for n, k in zip(self.n_values, self.k_values):
                if not 1 <= k < n:
                    raise ConfigError(f"need 1 <= k < n, got k={k} for n={n}")
        else:
            if self.k_beta is None:
                raise ConfigError("either k_beta or k_values must be given")
            if isinstance(self.k_beta, bool) or not isinstance(self.k_beta, numbers.Real):
                raise ConfigError(f"k_beta must be a number, got {self.k_beta!r}")
            for n in self.n_values:
                k_schedule(n, self.k_beta)

    @functools.cached_property
    def envelope_reference(self) -> EnvelopeReference:
        """The true scatter in the form the configured estimate targets,
        computed once per experiment rather than per replication."""
        model = self.model
        if self.estimator_method == SPATIAL_MEDIAN_TYLER:
            # Tyler's estimator targets the scatter normalized to trace d
            # (the estimator itself is scale-free), so the envelope must
            # compare it against the same normalization of the truth;
            # distances rescale accordingly.
            scale = float(np.trace(model.sigma)) / model.dim
            return EnvelopeReference(
                sigma_inv=model.sigma_inv * scale,
                lambda_max=linalg.spectral_norm(model.sigma / scale),
                distance_scale=math.sqrt(scale),
            )
        return EnvelopeReference(
            sigma_inv=model.sigma_inv,
            lambda_max=linalg.spectral_norm(model.sigma),
            distance_scale=1.0,
        )

    def k_for(self, n: int) -> int:
        """Tail fraction for sample size ``n`` under this configuration."""
        if self.k_values is not None:
            try:
                return self.k_values[self.n_values.index(int(n))]
            except ValueError:
                raise ConfigError(f"n={n} is not part of this experiment") from None
        return k_schedule(n, self.k_beta)


@dataclass(frozen=True)
class ReplicationRecord:
    """One replication's estimates and its perturbation-envelope report."""

    rep_id: int
    n: int
    k: int
    gamma_hat_true: float
    gamma_hat_est: float
    normalized_error: float
    estimator_gap: float
    bound_report: bounds_mod.PerturbationBound | None
    failed: bool = False
    failure: str | None = None


@dataclass(frozen=True)
class AggregateStats:
    """Summary of the successful replications at one sample size."""

    n: int
    k: int
    count: int
    failures: int
    mean_normalized_error: float
    sd_normalized_error: float
    median_normalized_error: float
    q05_normalized_error: float
    q95_normalized_error: float
    median_abs_error: float
    p95_scaled_gap: float
    target_mean: float | None
    target_sd: float
    ks_stat: float | None


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    """Records plus per-sample-size aggregates; aggregates are a pure
    function of the records, so they can always be recomputed."""

    config: ExperimentConfig
    records: tuple[ReplicationRecord, ...]
    aggregates: tuple[AggregateStats, ...]


def run_replication(config: ExperimentConfig, n: int, rep_id: int) -> ReplicationRecord:
    """Run a single replication.

    Samples ``n`` rows on the stream ``(base_seed, rep_id)``, estimates the
    index under the true parameters and under the configured method, and
    fills the perturbation report using the (k+1)-th largest true distance
    as pivot.  Only the k+1 largest distances are ordered, since Hill and
    the pivot read no others.  Estimator errors propagate to the caller.
    """
    model = config.model
    n = int(n)
    k = config.k_for(n)
    gamma = model.variate.gamma
    stream = RngStream(config.base_seed, rep_id)
    sample, _ = sample_elliptical(model, n, stream)

    sigma_inv = model.sigma_inv
    ordered_true = order_desc(
        mahalanobis_distances(sample, model.mu, sigma_inv), top=k + 1
    )
    gamma_true = univariate_hill(ordered_true, k, source=TRUE_PARAMS).gamma_hat

    method = config.estimator_method
    if method == TRUE_PARAMS:
        gamma_est = gamma_true
        loc = LocationScatterEstimate(
            mu_hat=model.mu,
            sigma_hat=model.sigma,
            sigma_hat_inv=sigma_inv,
            method=TRUE_PARAMS,
        )
    else:
        loc = estimate_location_scatter(sample, method)
        ordered_est = order_desc(
            mahalanobis_distances(sample, loc.mu_hat, loc.sigma_hat_inv),
            top=k + 1,
        )
        gamma_est = univariate_hill(
            ordered_est, k, source=f"estimated:{method}"
        ).gamma_hat

    ref = config.envelope_reference
    coeffs = bounds_mod.perturbation_coefficients(
        model.mu,
        ref.sigma_inv,
        loc.mu_hat,
        loc.sigma_hat_inv,
        ref.lambda_max,
    )
    report = bounds_mod.complete_bound(
        coeffs, float(ordered_true[k]) * ref.distance_scale
    )

    return ReplicationRecord(
        rep_id=int(rep_id),
        n=n,
        k=k,
        gamma_hat_true=gamma_true,
        gamma_hat_est=gamma_est,
        normalized_error=math.sqrt(k) * (gamma_est - gamma),
        estimator_gap=gamma_est - gamma_true,
        bound_report=report,
    )


def _run_replication_tagged(config: ExperimentConfig, n: int, rep_id: int) -> ReplicationRecord:
    try:
        return run_replication(config, n, rep_id)
    except SepHillError as exc:
        return ReplicationRecord(
            rep_id=int(rep_id),
            n=int(n),
            k=config.k_for(n),
            gamma_hat_true=math.nan,
            gamma_hat_est=math.nan,
            normalized_error=math.nan,
            estimator_gap=math.nan,
            bound_report=None,
            failed=True,
            failure=f"{type(exc).__name__}: {exc}",
        )


def _module_of(filename: str) -> str:
    """Name of the loaded module whose source is ``filename``; failing
    that, the name ``warnings.warn_explicit`` derives from the path."""
    for name, module in list(sys.modules.items()):
        if getattr(module, "__file__", None) == filename:
            return name
    return filename[:-3] if filename.lower().endswith(".py") else filename


def _run_task(config: ExperimentConfig, n: int, rep_id: int):
    """One replication and the warnings it raised, as
    ``(message, category, filename, lineno, module)`` tuples."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        record = _run_replication_tagged(config, n, rep_id)
    return record, [
        (w.message, w.category, w.filename, w.lineno, _module_of(w.filename))
        for w in caught
    ]


def pool_size(workers: int) -> int:
    """Processes a pool for ``workers`` gets: no more than the CPUs this
    process may run on, since a replication keeps one CPU busy, and 1 (run
    in-process) where the platform cannot fork."""
    if workers <= 1:
        return 1
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity is not None else os.cpu_count() or 1
    return min(int(workers), cpus)


def _process_pool(size: int):
    """The shared pool with ``size`` forked workers, started on first use
    or when the size changes.  Imported here, not at module level, so the
    commands that never run a pool do not pay for ``multiprocessing``."""
    global _pool
    if _pool is not None and _pool[0] == size:
        return _pool[1]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    _drop_pool()
    executor = ProcessPoolExecutor(size, mp_context=multiprocessing.get_context("fork"))
    # The fork context starts every worker at the first submit: start them
    # here, with the warning Python 3.12+ gives for forking a process that
    # runs other threads (BLAS's) kept out of the caller's warnings, which
    # must not depend on the worker count.
    with warnings.catch_warnings():
        warnings.filterwarnings(
            "ignore",
            message=r"This process .* is multi-threaded, use of fork\(\)",
            category=DeprecationWarning,
        )
        executor.submit(int).result()
    _pool = (size, executor)
    return executor


def _drop_pool() -> None:
    global _pool
    if _pool is not None:
        _pool[1].shutdown()
        _pool = None


# Shut the pool down while the interpreter is still whole; an executor left
# for module teardown to collect fails in its own clean-up.
atexit.register(_drop_pool)


def _run_tasks(config: ExperimentConfig, ns, reps, workers: int):
    """``_run_task`` over the ``(n, rep_id)`` pairs, results in task order:
    in-process for one worker or one task, else one task at a time on the
    shared pool, so task boundaries do not depend on ``workers``."""
    size = pool_size(workers) if len(ns) > 1 else 1
    if size <= 1:
        return list(map(_run_task, itertools.repeat(config), ns, reps))
    from concurrent.futures.process import BrokenProcessPool

    # computed once here rather than once per task in the workers
    config.envelope_reference
    try:
        return list(
            _process_pool(size).map(
                _run_task, itertools.repeat(config), ns, reps, chunksize=1
            )
        )
    except BrokenProcessPool:
        _drop_pool()
        raise


def aggregate_records(
    records,
    n: int,
    k: int,
    gamma: float,
    target_mean: float | None,
) -> AggregateStats:
    """Summary statistics for the successful records at one sample size.

    ``target_mean`` is the centre of the limiting normal law when it is
    known; the KS statistic is only reported in that case.
    """
    ok = [r for r in records if not r.failed]
    failures = len(records) - len(ok)
    err = np.array([r.normalized_error for r in ok], dtype=float)
    abs_err = np.abs(
        np.array([r.gamma_hat_est for r in ok], dtype=float) - gamma
    )
    scaled_gap = math.sqrt(k) * np.abs(
        np.array([r.estimator_gap for r in ok], dtype=float)
    )
    sd = float(np.std(err, ddof=1)) if err.shape[0] >= 2 else math.nan
    if target_mean is None:
        ks = None
    else:
        ks = ks_statistic(err, lambda x: ndtr((x - target_mean) / gamma))
    return AggregateStats(
        n=int(n),
        k=int(k),
        count=len(ok),
        failures=failures,
        mean_normalized_error=float(np.mean(err)),
        sd_normalized_error=sd,
        median_normalized_error=float(np.median(err)),
        q05_normalized_error=float(np.quantile(err, 0.05)),
        q95_normalized_error=float(np.quantile(err, 0.95)),
        median_abs_error=float(np.median(abs_err)),
        p95_scaled_gap=float(np.quantile(scaled_gap, 0.95)),
        target_mean=target_mean,
        target_sd=gamma,
        ks_stat=ks,
    )


def run_experiment(config: ExperimentConfig, workers: int = 1) -> ExperimentResult:
    """Run all replications and aggregate with a fixed-order reduction.

    With ``workers`` > 1 and more than one replication, the replications
    run on the module's shared process pool of
    ``pool_size(workers)`` forked workers, one task per replication;
    otherwise they run in this process.  Every task is a pure function of
    ``(base_seed, rep_id)``, and records are collected in task order
    (n-major, then rep_id), so the result does not depend on the
    scheduling or the worker count.  Where the platform cannot fork, every
    worker count runs in this process.  Each task records its warnings and
    they are re-emitted here in task order, with their source module, so
    the warnings a caller sees do not depend on the worker count either.
    The caller's warning filters apply at that re-emission, after all
    replications ran: a filter that turns a replication's warning into an
    error raises here, not inside the replication.

    The pool is forked on the first parallel call and reused: a function
    patched or state changed after that call does not reach its workers.
    If a worker dies, the call raises
    :class:`concurrent.futures.process.BrokenProcessPool` and drops the
    pool, and the next parallel call starts a fresh one.  Aborts with
    :class:`FailureCapExceeded` once more than 1% of the replications at
    any sample size fail.
    """
    if not isinstance(config, ExperimentConfig):
        raise ConfigError("run_experiment needs an ExperimentConfig")
    gamma = config.model.variate.gamma
    if config.estimator_method == SAMPLE_MEAN_COV and gamma >= 0.25:
        warnings.warn(
            "sample covariance needs finite fourth radial moments "
            f"(extreme value index {gamma:g} >= 1/4); consider the "
            "spatial_median_tyler method",
            stacklevel=2,
        )
    m = config.replications
    ns = [n for n in config.n_values for _ in range(m)]
    reps = list(range(m)) * len(config.n_values)
    results = _run_tasks(config, ns, reps, workers)
    records = tuple(record for record, _ in results)
    for _, caught in results:
        for message, category, filename, lineno, module in caught:
            warnings.warn_explicit(
                message,
                category,
                filename,
                lineno,
                module=module,
                registry=_warning_registries.setdefault(filename, {}),
            )

    target_mean = config.model.variate.limit_bias
    aggregates = []
    for i, n in enumerate(config.n_values):
        recs = records[i * m : (i + 1) * m]
        failures = sum(1 for r in recs if r.failed)
        if failures > FAILURE_CAP_FRACTION * m:
            tags = [r.failure for r in recs if r.failed][:5]
            raise FailureCapExceeded(
                f"{failures} of {m} replications failed at n={n} "
                f"(cap {FAILURE_CAP_FRACTION:.0%}); first failures: {tags}"
            )
        aggregates.append(
            aggregate_records(recs, n, config.k_for(n), gamma, target_mean)
        )
    return ExperimentResult(
        config=config, records=records, aggregates=tuple(aggregates)
    )


def ks_statistic(values, cdf) -> float:
    """Sup-distance between the empirical CDF of ``values`` and ``cdf``."""
    x = np.sort(np.asarray(values, dtype=float))
    n = x.shape[0]
    if n < 1:
        raise TooFewValues("need at least one value")
    f = np.asarray(cdf(x), dtype=float)
    steps = np.arange(1, n + 1, dtype=float) / n
    return float(max(np.max(steps - f), np.max(f - (steps - 1.0 / n))))


def ks_threshold(n: int, level: float) -> float:
    """Asymptotic Kolmogorov critical value ``c(level) / sqrt(n)``."""
    if not 0.0 < level < 1.0:
        raise DomainError("level must lie strictly between 0 and 1")
    return math.sqrt(-0.5 * math.log(level / 2.0)) / math.sqrt(n)


@dataclass(frozen=True)
class NormalityDiagnostics:
    """Standardized moment checks and KS distance against a target normal."""

    z_mean: float
    z_sd: float
    ks_stat: float


def normality_diagnostics(values, target_mean: float, target_sd: float) -> NormalityDiagnostics:
    """Compare a sample against the normal law N(target_mean, target_sd**2).

    ``z_mean`` standardizes the sample mean by ``target_sd / sqrt(M)``;
    ``z_sd`` standardizes the sample standard deviation by
    ``target_sd / sqrt(2 M)``.  Requires at least 30 values.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.shape[0] < 30:
        raise TooFewValues("normality diagnostics need at least 30 values")
    if not target_sd > 0:
        raise DomainError("target_sd must be positive")
    m = arr.shape[0]
    z_mean = (float(np.mean(arr)) - target_mean) / (target_sd / math.sqrt(m))
    z_sd = (float(np.std(arr, ddof=1)) - target_sd) / (
        target_sd / math.sqrt(2.0 * m)
    )
    ks = ks_statistic(arr, lambda x: ndtr((x - target_mean) / target_sd))
    return NormalityDiagnostics(z_mean=z_mean, z_sd=z_sd, ks_stat=ks)
