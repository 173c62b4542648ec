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
not reach them.  The replication path reduces n-length data only with
elementwise numpy and einsum.  What it hands to LAPACK/BLAS is
d×d-sized: Cholesky factors and their inverses, ``eigvalsh`` of the
scatter matrices, and the small products and solve of the robust fit's
Anderson mixing.  Calls that small run on the calling thread, so no
BLAS thread competes with the workers for the cores.

Each thread that runs replications (the caller's, or a pool worker's)
keeps one :class:`~sephill.workspace.Workspace`, made on its first
replication and kept for the thread's life.  The sampler, the fit, the
distances and the ordering write their (d, n) and n-float arrays into its
named slabs rather than into fresh memory: for the mean/covariance fit two
(d, n) slabs (the sample; the directions, then each centred copy) and
four n-float ones (the radii, per-row terms, the distances and the
ordering's partition), 1.6 MB at n = 2·10^4 and d = 3; the
median/Tyler fit adds its d(d+1)/2 rows of moments, for 8.8 MB at
n = 10^5 and d = 2.  A slab is reallocated only when a larger n needs it,
so once the largest n of an experiment has run, a replication maps no new
memory and takes no page faults for its arrays.  The stages run the same
numpy operations into that memory, so the bytes do not depend on it;
what a record keeps (the ordered top values, the fit's location and
scatter) is copied out of it.

Per replication the harness estimates the extreme value index twice — once
with the true location/scatter and once with the configured estimator —
and attaches the perturbation-envelope report on their gap.  Hill reads
only distance ratios, so the envelope measures every fit in its own frame:
the truth translated to the origin (the location error ``mu_hat - mu``)
and scaled to the fit's size by ``c = tr(sigma_hat) / tr(sigma)``
(``sigma_inv / c``, ``c * lambda_max``, pivot ``R_(k+1) / sqrt(c)``).
Its bound b_n shrinks like the fit's error, so ``sqrt(k) * b_n`` falls
only like ``sqrt(k / n)`` and does not by itself show the gap negligible
at the tested sizes.  Under the true parameters a row ``mu + R * L u``
lies at scatter-metric distance R, so the true side reads the generating
radii the sampler returns rather than recomputing them from the rows.  A
replication that raises a :class:`SepHillError` yields a
:class:`ReplicationFailure` in place of its :class:`ReplicationRecord`.
The aggregates summarize the normalized errors ``sqrt(k) * (gamma_hat -
gamma)`` whose limiting law the experiments are designed to check, per
sample size: ``aggregates`` for the fit, ``true_aggregates`` for the true
location and scatter (gap 0).  Their
Kolmogorov-Smirnov distance to the limiting normal law takes the normal
distribution function from :func:`math.erfc`, so the harness, like every
command of the CLI, runs without loading scipy.
"""

from __future__ import annotations

import atexit
import itertools
import math
import numbers
import os
import sys
import threading
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import bounds as bounds_mod
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
    ESTIMATOR_METHODS,
    SAMPLE_MEAN_COV,
    LocationScatterEstimate,
    estimate_location_scatter,
    mahalanobis_distances,
    order_desc,
    univariate_hill,
)
from .workspace import Workspace

#: Fraction of replications per sample size allowed to fail before the
#: whole experiment aborts instead of reporting biased aggregates.
FAILURE_CAP_FRACTION = 0.01

#: ``(size, executor)`` of the process pool parallel experiments share;
#: None until the first one runs, and again after a worker died.
_pool = None

#: Per-thread holder of the workspace the thread's replications reuse.
_thread_state = threading.local()

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
class ExperimentConfig:
    """Full description of one experiment.

    The tail fraction is either derived from ``k_beta`` through
    :func:`k_schedule` or given explicitly as ``k_values`` aligned with
    ``n_values``, not both; without ``k_values``, ``k_beta`` defaults to
    0.5.
    """

    model: EllipticalModel
    n_values: tuple[int, ...]
    replications: int
    base_seed: int = 0
    estimator_method: str = SAMPLE_MEAN_COV
    k_beta: float | None = None
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
            raise ConfigError(
                f"'n_values' (--n-values): must be distinct, got {list(self.n_values)}"
            )
        if self.estimator_method not in ESTIMATOR_METHODS:
            raise ConfigError(
                f"unknown estimator_method {self.estimator_method!r}; expected "
                f"one of {ESTIMATOR_METHODS}; the true-parameter side is in "
                "every experiment's true_aggregates"
            )
        object.__setattr__(
            self, "replications", _integer(self.replications, "replications")
        )
        if self.replications < 1:
            raise ConfigError(
                "'replications' (--replications): must be at least 1, "
                f"got {self.replications}"
            )
        object.__setattr__(self, "base_seed", _integer(self.base_seed, "base_seed"))
        if self.k_values is not None:
            if self.k_beta is not None:
                raise ConfigError(
                    "'k_beta' (--k-beta) and 'k_values' (--k-list) are both "
                    "given; give one"
                )
            if len(self.k_values) != len(self.n_values):
                raise ConfigError(
                    "'k_values' (--k-list): must align with n_values "
                    f"({len(self.k_values)} vs {len(self.n_values)})"
                )
            for n, k in zip(self.n_values, self.k_values):
                if not 1 <= k < n:
                    raise ConfigError(
                        f"'k_values' (--k-list): need 1 <= k < n, got k={k} for n={n}"
                    )
        else:
            if self.k_beta is None:
                object.__setattr__(self, "k_beta", 0.5)
            if isinstance(self.k_beta, bool) or not isinstance(self.k_beta, numbers.Real):
                raise ConfigError(f"k_beta must be a number, got {self.k_beta!r}")
            # k_schedule states both rules; the key at fault is named here
            try:
                for n in self.n_values:
                    k_schedule(n, self.k_beta)
            except BetaOutOfRange as exc:
                raise ConfigError(f"'k_beta' (--k-beta): {exc}") from None
            except ConfigError as exc:
                raise ConfigError(f"'n_values' (--n-values): {exc}") from None

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
    """One replication's estimates and its perturbation-envelope report,
    measured in the fit's frame of scale ``c = tr(sigma_hat) / tr(sigma)``."""

    rep_id: int
    n: int
    k: int
    gamma_hat_true: float
    gamma_hat_est: float
    normalized_error: float
    estimator_gap: float
    scale: float
    bound_report: bounds_mod.PerturbationBound


@dataclass(frozen=True)
class ReplicationFailure:
    """A replication that raised: its address and the error, tagged
    ``"<ExceptionType>: <message>"``."""

    rep_id: int
    n: int
    k: int
    failure: str


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
    """Records plus per-sample-size aggregates of the fit and of the true
    location and scatter; both are pure functions of the records, so they
    can always be recomputed."""

    config: ExperimentConfig
    records: tuple[ReplicationRecord | ReplicationFailure, ...]
    aggregates: tuple[AggregateStats, ...]
    true_aggregates: tuple[AggregateStats, ...]


def _thread_workspace() -> Workspace:
    """The workspace of the calling thread, made on its first use."""
    workspace = getattr(_thread_state, "workspace", None)
    if workspace is None:
        workspace = _thread_state.workspace = Workspace()
    return workspace


def assess_fit(
    model: EllipticalModel, sample, radii, fit: LocationScatterEstimate, k: int,
    rep_id: int,
) -> ReplicationRecord:
    """The record of one fit of one draw of ``n = len(radii)`` rows.

    Estimates the index twice.  Under the true parameters the distances
    are the generating ``radii``, so the true side orders those; under
    ``fit`` they are computed from its location/scatter.  The (k+1)-th
    largest radius, over ``sqrt(c)`` in the fit's frame, is the pivot of
    the perturbation report, whose location term is the fit's error
    ``mu_hat - mu``.  Only the k+1 largest values are ordered, since Hill
    and the pivot read no others.  Any fit can be assessed, a fixed one
    included; ``rep_id`` is the record's address, passed through.

    The distances and the orderings are built in the calling thread's
    workspace (see the module docstring), in slabs other than the
    ``"sample"`` and ``"radii"`` ones a draw into it occupies.
    """
    workspace = _thread_workspace()
    ordered_true = order_desc(radii, top=k + 1, workspace=workspace)
    gamma_true = univariate_hill(ordered_true, k)

    dists = mahalanobis_distances(
        sample, fit.mu_hat, fit.sigma_hat_inv, workspace=workspace
    )
    ordered_est = order_desc(dists, top=k + 1, workspace=workspace)
    gamma_est = univariate_hill(ordered_est, k)

    # the truth in the fit's frame: translated to the origin and scaled by
    # c to the fit's size, which moves no distance ratio Hill reads
    c = float(np.trace(fit.sigma_hat)) / float(np.trace(model.sigma))
    coeffs = bounds_mod.perturbation_coefficients(
        model.sigma_inv / c, fit.sigma_hat_inv, fit.mu_hat - model.mu,
        c * model.lambda_max,
    )
    report = bounds_mod.complete_bound(coeffs, float(ordered_true[k]) / math.sqrt(c))

    return ReplicationRecord(
        rep_id=int(rep_id),
        n=len(radii),
        k=k,
        gamma_hat_true=gamma_true,
        gamma_hat_est=gamma_est,
        normalized_error=math.sqrt(k) * (gamma_est - model.variate.gamma),
        estimator_gap=gamma_est - gamma_true,
        scale=c,
        bound_report=report,
    )


def run_replication(config: ExperimentConfig, n: int, rep_id: int) -> ReplicationRecord:
    """Run a single replication: draw ``n`` rows on the stream
    ``(base_seed, rep_id)``, fit them with the configured method, and
    :func:`assess_fit` the fit.  Estimator errors propagate to the caller.
    The sample, the radii and the fit's temporaries live in the calling
    thread's workspace.
    """
    n, k = int(n), config.k_for(n)
    stream = RngStream(config.base_seed, rep_id)
    workspace = _thread_workspace()
    sample, radii = sample_elliptical(config.model, n, stream, workspace=workspace)
    fit = estimate_location_scatter(sample, config.estimator_method, workspace=workspace)
    return assess_fit(config.model, sample, radii, fit, k, rep_id)


def _module_of(filename: str) -> str:
    """Name of the loaded module whose source is ``filename``; failing
    that, the name ``warnings.warn_explicit`` derives from the path."""
    for name, module in list(sys.modules.items()):
        if getattr(module, "__file__", None) == filename:
            return name
    return filename[:-3] if filename.lower().endswith(".py") else filename


def _run_task(config: ExperimentConfig, n: int, rep_id: int):
    """One replication, or its :class:`ReplicationFailure` if it raised a
    :class:`SepHillError`, and the warnings it raised, as
    ``(message, category, filename, lineno, module)`` tuples."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            record = run_replication(config, n, rep_id)
        except SepHillError as exc:
            record = ReplicationFailure(
                rep_id=int(rep_id),
                n=int(n),
                k=config.k_for(n),
                failure=f"{type(exc).__name__}: {exc}",
            )
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
    """Summary statistics for the records at one sample size: the
    :class:`ReplicationRecord` values are summarized and the
    :class:`ReplicationFailure` values counted.

    ``target_mean`` is the centre of the limiting normal law when it is
    known; the KS statistic is only reported in that case.  Raises
    :class:`TooFewValues` when no record succeeded.
    """
    ok = [r for r in records if isinstance(r, ReplicationRecord)]
    if not ok:
        raise TooFewValues(f"no replication succeeded at n={n}; nothing to summarize")
    failures = len(records) - len(ok)
    err = np.array([r.normalized_error for r in ok], dtype=float)
    abs_err = np.abs(
        np.array([r.gamma_hat_est for r in ok], dtype=float) - gamma
    )
    scaled_gap = math.sqrt(k) * np.abs(
        np.array([r.estimator_gap for r in ok], dtype=float)
    )
    sd = float(np.std(err, ddof=1)) if err.shape[0] >= 2 else math.nan
    # one partition for both; bitwise what two calls give, as no error is -0.0
    q05, q95 = np.quantile(err, [0.05, 0.95]).tolist()
    if target_mean is None:
        ks = None
    else:
        ks = ks_statistic(err, lambda x: _normal_cdf((x - target_mean) / gamma))
    return AggregateStats(
        n=int(n),
        k=int(k),
        count=len(ok),
        failures=failures,
        mean_normalized_error=float(np.mean(err)),
        sd_normalized_error=sd,
        median_normalized_error=float(np.median(err)),
        q05_normalized_error=q05,
        q95_normalized_error=q95,
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
    aggregates, true_aggregates = [], []
    for i, n in enumerate(config.n_values):
        recs = records[i * m : (i + 1) * m]
        tags = [r.failure for r in recs if isinstance(r, ReplicationFailure)]
        if len(tags) > FAILURE_CAP_FRACTION * m:
            raise FailureCapExceeded(
                f"{len(tags)} of {m} replications failed at n={n} "
                f"(cap {FAILURE_CAP_FRACTION:.0%}); first failures: {tags[:5]}"
            )
        k = config.k_for(n)
        # the true side: gamma_hat_true in place of the fitted estimate, so
        # a gap of 0; a failure has no true side either
        true_side = [
            r if isinstance(r, ReplicationFailure) else replace(
                r,
                gamma_hat_est=r.gamma_hat_true,
                normalized_error=math.sqrt(k) * (r.gamma_hat_true - gamma),
                estimator_gap=0.0,
            )
            for r in recs
        ]
        aggregates.append(aggregate_records(recs, n, k, gamma, target_mean))
        true_aggregates.append(aggregate_records(true_side, n, k, gamma, target_mean))
    return ExperimentResult(
        config, records, tuple(aggregates), tuple(true_aggregates)
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


def _normal_cdf(z):
    """Standard normal distribution function of a 1-D array,
    ``0.5 * erfc(-z / sqrt(2))`` per value; within 2.3e-16 of
    ``scipy.special.ndtr``.  A Python loop suffices: the KS statistic
    evaluates a few thousand values at most."""
    root2 = math.sqrt(2.0)
    return np.array([0.5 * math.erfc(-v / root2) for v in z.tolist()])


def ks_threshold(n: int, level: float) -> float:
    """Asymptotic Kolmogorov critical value ``c(level) / sqrt(n)``."""
    if not 0.0 < level < 1.0:
        raise DomainError("level must lie strictly between 0 and 1")
    return math.sqrt(-0.5 * math.log(level / 2.0)) / math.sqrt(n)

