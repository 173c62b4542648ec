"""Tail-index and location/scatter estimators.

The central object is the separating Hill estimator: order the rows of a
sample by their distance from a location in the metric of a scatter matrix,
then average the log-ratios of the k largest distances against the
(k+1)-th.  The location and scatter can be the true model parameters or
estimates; the robust pair used throughout is the spatial median together
with Tyler's fixed-point shape estimator.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    ConfigError,
    DegenerateSample,
    DimensionMismatch,
    DomainError,
    KOutOfRange,
    NonFinite,
    NonPositivePivot,
    NotConverged,
    NotPositiveDefinite,
    SingularIterate,
)

TRUE_PARAMS = "true_params"
SAMPLE_MEAN_COV = "sample_mean_cov"
SPATIAL_MEDIAN_TYLER = "spatial_median_tyler"
ESTIMATOR_METHODS = (SAMPLE_MEAN_COV, SPATIAL_MEDIAN_TYLER)

#: Solver settings of the robust pair: the Weiszfeld gradient tolerance
#: (see :func:`spatial_median`), the Tyler step tolerance (see
#: :func:`tyler_shape`) and the iteration budget of each.
MEDIAN_TOL = 1e-10
SHAPE_TOL = 1e-9
MAX_ITER = 500


@dataclass(frozen=True)
class HillEstimate:
    """A single Hill value together with the inputs that produced it."""

    gamma_hat: float
    k: int
    n: int
    location_scatter_source: str


@dataclass(frozen=True, eq=False)
class LocationScatterEstimate:
    """Estimated location and scatter, with the inverse precomputed."""

    mu_hat: np.ndarray
    sigma_hat: np.ndarray
    sigma_hat_inv: np.ndarray
    method: str
    iterations: int = 0


def as_sample(sample) -> np.ndarray:
    """Validate a sample matrix: 2-d, finite, float."""
    x = np.asarray(sample, dtype=float)
    if x.ndim != 2:
        raise DimensionMismatch(f"sample must be 2-d, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise NonFinite("sample entries must be finite")
    return x


def order_desc(values, top: int | None = None) -> np.ndarray:
    """Sort values into descending order, or only the ``top`` largest.

    With ``top`` given, returns the ``top`` largest values in descending
    order, the same bytes as ``order_desc(values)[:top]``: a partition
    finds them and only they are sorted.  Equal values are
    interchangeable (a zero's sign aside), so the order among ties cannot
    change the result.  Every value is checked for finiteness either way.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1:
        raise DimensionMismatch(f"expected a 1-d array, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise NonFinite("distances must be finite")
    if top is None or top >= v.shape[0]:
        return v[np.argsort(-v, kind="stable")]
    if top < 1:
        raise DomainError(f"top must be at least 1, got {top}")
    cut = v.shape[0] - top
    largest = np.partition(v, cut)[cut:]
    largest.sort()
    return largest[::-1]


def _hill_from_ordered(ordered: np.ndarray, k: int) -> float:
    n = ordered.shape[0]
    if not 1 <= k <= n - 1:
        raise KOutOfRange(f"k must satisfy 1 <= k <= n - 1, got k={k}, n={n}")
    pivot = ordered[k]
    if not pivot > 0.0:
        raise NonPositivePivot(
            f"order statistic {k + 1} of the distances is {pivot}, must be > 0"
        )
    value = float(np.mean(np.log(ordered[:k] / pivot)))
    # each log-ratio is >= 0 up to rounding; never report a signed zero
    return max(value, 0.0)


def univariate_hill(ordered, k: int, source: str = "direct") -> HillEstimate:
    """Hill estimator from distances already sorted in descending order.

    Averages ``log(ordered[i] / ordered[k])`` over the top ``k`` entries
    (0-based: entries ``0..k-1`` against pivot ``ordered[k]``).  The result
    is nonnegative and invariant to positive rescaling of all distances.
    """
    v = np.asarray(ordered, dtype=float)
    if v.ndim != 1:
        raise DimensionMismatch(f"expected 1-d ordered distances, got {v.shape}")
    if not np.all(np.isfinite(v)):
        raise NonFinite("distances must be finite")
    if v.shape[0] > 1 and np.any(np.diff(v) > 0):
        raise DomainError("distances must be sorted in descending order")
    gamma = _hill_from_ordered(v, int(k))
    return HillEstimate(gamma_hat=gamma, k=int(k), n=v.shape[0], location_scatter_source=source)


def mahalanobis_distances(sample, mu, sigma_inv) -> np.ndarray:
    """Row-wise distances of a sample from ``mu``; shape ``(n,)``.

    The rows are centred into one contiguous ``(d, n)`` copy, n·d floats
    that live only for the call, so every numpy call runs along the n rows
    rather than over rows of length d.  The quadratic forms
    ``c_n . (sigma_inv c_n)`` are accumulated one coordinate at a time,
    each row of ``sigma_inv c`` reduced with einsum into a single n-float
    buffer, in a fixed summation order, so the values do not depend on the
    BLAS build or thread count.
    """
    x = as_sample(sample)
    n, d = x.shape
    mv = np.asarray(mu, dtype=float)
    si = np.asarray(sigma_inv, dtype=float)
    if mv.ndim != 1 or mv.shape[0] != d:
        raise DimensionMismatch(
            f"location has shape {mv.shape}, sample rows have length {d}"
        )
    if si.shape != (d, d):
        raise DimensionMismatch(
            f"scatter inverse has shape {si.shape}, expected square of side {d}"
        )
    cols = np.subtract(x.T, mv[:, None], out=np.empty((d, n)))
    # the rows of sigma_inv @ cols pass through one n-float buffer rather
    # than a second (d, n) array: in a replication loop each call's
    # temporaries land on fresh pages, and those page faults cost more
    # than the arithmetic
    q = np.zeros(n)
    row = np.empty(n)
    for i in range(d):
        np.einsum("j,jn->n", si[i], cols, out=row)
        row *= cols[i]
        q += row
    np.maximum(q, 0.0, out=q)
    return np.sqrt(q, out=q)


def separating_hill(sample, mu, sigma, k: int, source: str = TRUE_PARAMS) -> HillEstimate:
    """Separating Hill estimator of the extreme value index.

    Inverts ``sigma`` once, computes the distance of every row from ``mu``
    in that metric, sorts the distances in descending order and applies the
    Hill average at level ``k``.
    """
    sigma_inv = linalg.spd_inverse(sigma)
    dists = mahalanobis_distances(sample, mu, sigma_inv)
    ordered = order_desc(dists)
    gamma = _hill_from_ordered(ordered, int(k))
    return HillEstimate(
        gamma_hat=gamma, k=int(k), n=ordered.shape[0], location_scatter_source=source
    )


def _centred_columns(sample) -> tuple[np.ndarray, np.ndarray]:
    """Validate a sample once; return its row mean and a centred copy.

    The copy is a contiguous ``(d, n)`` array, so the mean is taken along
    the contiguous axis and the centring runs in place along the n rows.
    """
    x = as_sample(sample)
    if x.shape[0] < 1:
        raise DegenerateSample("mean needs at least one row")
    cols = np.array(x.T, order="C")
    mean = cols.mean(axis=1)
    cols -= mean[:, None]
    return mean, cols


def _covariance(cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Covariance of centred ``(d, n)`` columns, and its inverse.

    The inverse comes from :func:`linalg.spd_inverse`, whose Cholesky
    factorization is also the positive-definiteness check, so the matrix
    is factored once.
    """
    d, n = cols.shape
    if n < d + 1:
        raise DegenerateSample(
            f"covariance of {n} rows in dimension {d} cannot be positive definite"
        )
    cov = np.einsum("in,jn->ij", cols, cols) / (n - 1)
    cov = 0.5 * (cov + cov.T)
    try:
        cov_inv = linalg.spd_inverse(cov)
    except NotPositiveDefinite as exc:
        raise DegenerateSample(f"sample covariance is degenerate: {exc}") from exc
    return cov, cov_inv


def sample_mean(sample) -> np.ndarray:
    """Coordinate-wise mean of the rows."""
    return _centred_columns(sample)[0]


def sample_covariance(sample) -> np.ndarray:
    """Sample covariance with the n-1 divisor.

    The rows are centred at :func:`sample_mean` in a ``(d, n)`` copy and
    the products are summed with einsum along the n rows, in a fixed
    order.  Raises :class:`DegenerateSample` when there are fewer than
    ``d + 1`` rows or the result is not positive definite.
    """
    return _covariance(_centred_columns(sample)[1])[0]


def _spatial_median_iter(x: np.ndarray, tol: float, max_iter: int):
    """Weiszfeld iteration with the standard adjustment at data points.

    Stops when the sum of unit vectors from the iterate toward the
    observations (the negative gradient of the objective) has norm at most
    ``d * tol * n``, a scale-free criterion.

    The loop runs on a ``(d, n)`` layout: the sample is copied once into
    contiguous columns, and each step writes the differences from the
    iterate into one preallocated buffer of the same shape, so every numpy
    call runs along the n rows rather than over rows of length d.  That is
    one n·d copy plus one n·d buffer, 3.2 MB at n = 10^5, d = 2.
    """
    n, d = x.shape
    m = x.mean(axis=0)
    scale = float(np.max(np.abs(x - m))) if n else 0.0
    collision_eps = 1e-12 * max(scale, 1e-300)
    grad_tol = d * tol * n
    cols = np.ascontiguousarray(x.T)
    buf = np.empty_like(cols)
    for it in range(1, max_iter + 1):
        np.subtract(cols, m[:, None], out=buf)
        dist = np.sqrt(np.einsum("in,in->n", buf, buf))
        coll = dist <= collision_eps
        eta = int(np.count_nonzero(coll))
        if eta == n:
            # every observation sits at the iterate; it is the minimizer
            return m, it
        diff, rows = buf, cols
        if eta > 0:
            # rarely taken: in practice no row sits at the iterate, so the
            # mask copies are made only when one does
            keep = ~coll
            dist, diff, rows = dist[keep], buf[:, keep], cols[:, keep]
        w = 1.0 / dist
        unit_sum = np.einsum("in,n->i", diff, w)
        g = float(np.linalg.norm(unit_sum))
        if eta > 0 and g <= eta:
            # subgradient optimality at a repeated data point
            return m, it
        if eta == 0 and g <= grad_tol:
            return m, it
        target = np.einsum("in,n->i", rows, w) / w.sum()
        if eta > 0:
            step_frac = min(1.0, eta / g)
            m = (1.0 - step_frac) * target + step_frac * m
        else:
            m = target
    raise NotConverged(
        f"spatial median did not converge in {max_iter} iterations",
        last_iterate=m,
        iterations=max_iter,
    )


def spatial_median(sample, tol: float = MEDIAN_TOL, max_iter: int = MAX_ITER) -> np.ndarray:
    """Geometric median of the rows by Weiszfeld iteration.

    Starts from the coordinate-wise mean.  Iterates that land exactly on a
    repeated observation are handled with the usual subgradient step
    instead of dividing by zero.  Raises :class:`NotConverged` (carrying
    the last iterate) if the gradient criterion is not met within
    ``max_iter`` iterations.
    """
    x = as_sample(sample)
    if x.shape[0] < 1:
        raise DegenerateSample("spatial median needs at least one row")
    m, _ = _spatial_median_iter(x, tol, max_iter)
    return m


def _tyler_iter(x: np.ndarray, mu_hat: np.ndarray, tol: float, max_iter: int):
    """Tyler's fixed-point iteration on precomputed row moments.

    The products ``diff_i * diff_j`` (``i <= j``) of the centered rows do
    not change across iterations, so they are built once as a
    ``(d(d+1)/2, n)`` array: n·d(d+1)/2 floats, 2.4 MB at n = 10^5, d = 2.
    Each step is then two einsums over that array: the squared distances
    ``q`` against the upper triangle of the inverse iterate (off-diagonal
    terms doubled), and the upper triangle of the next iterate from the
    weights ``1/q``.  Reductions stay in einsum, so the result does not
    depend on the BLAS build or thread count.
    """
    n, d = x.shape
    diff = x - mu_hat
    zero_rows = np.all(diff == 0.0, axis=1)
    if np.any(zero_rows):
        warnings.warn(
            f"dropping {int(np.count_nonzero(zero_rows))} rows equal to the "
            "location estimate",
            stacklevel=3,
        )
        diff = diff[~zero_rows]
    n_eff = diff.shape[0]
    if n_eff <= d:
        raise DegenerateSample(
            f"Tyler shape needs more than d={d} usable rows, have {n_eff}"
        )
    iu, ju = np.triu_indices(d)
    moments = np.empty((iu.shape[0], n_eff))
    for k in range(iu.shape[0]):
        np.multiply(diff[:, iu[k]], diff[:, ju[k]], out=moments[k])
    del diff
    pair_weight = np.where(iu == ju, 1.0, 2.0)
    v = np.eye(d)
    for it in range(1, max_iter + 1):
        try:
            v_inv = linalg.spd_inverse(v)
        except NotPositiveDefinite as exc:
            raise SingularIterate(f"shape iterate lost positive definiteness: {exc}") from exc
        q = np.einsum("kn,k->n", moments, v_inv[iu, ju] * pair_weight)
        if not np.all(q > 0.0):
            raise SingularIterate("a row has nonpositive squared distance under the iterate")
        upper = np.einsum("kn,n->k", moments, 1.0 / q) * (d / n_eff)
        nxt = np.empty((d, d))
        nxt[iu, ju] = upper
        nxt[ju, iu] = upper
        trace = float(np.trace(nxt))
        if not np.isfinite(trace) or trace <= 0.0:
            raise SingularIterate("shape iterate has nonpositive trace")
        nxt *= d / trace
        delta = float(np.max(np.abs(nxt - v)))
        v = nxt
        if delta < tol:
            return v, it
    raise NotConverged(
        f"Tyler shape iteration did not converge in {max_iter} iterations",
        last_iterate=v,
        iterations=max_iter,
    )


def tyler_shape(sample, mu_hat, tol: float = SHAPE_TOL, max_iter: int = MAX_ITER) -> np.ndarray:
    """Tyler's fixed-point shape estimator around a given location.

    Each step averages the outer products of the centered rows weighted by
    the inverse of their squared distance under the current iterate, then
    rescales to trace ``d``.  The outer products are held once as
    n·d(d+1)/2 row moments, so a step costs two passes over them.  Rows
    exactly equal to ``mu_hat`` carry no directional information and are
    dropped with a warning.  The result is symmetric positive definite with
    trace ``d``.
    """
    x = as_sample(sample)
    mv = np.asarray(mu_hat, dtype=float)
    if mv.ndim != 1 or mv.shape[0] != x.shape[1]:
        raise DimensionMismatch(
            f"location has shape {mv.shape}, sample rows have length {x.shape[1]}"
        )
    v, _ = _tyler_iter(x, mv, tol, max_iter)
    return v


def estimate_location_scatter(sample, method: str) -> LocationScatterEstimate:
    """Estimate location and scatter by the requested method.

    ``sample_mean_cov`` pairs the coordinate-wise mean with the sample
    covariance; ``spatial_median_tyler`` pairs the spatial median with
    Tyler's shape estimator, solved to :data:`MEDIAN_TOL` and
    :data:`SHAPE_TOL` within :data:`MAX_ITER` iterations each.
    """
    if method == SAMPLE_MEAN_COV:
        mu_hat, cols = _centred_columns(sample)
        sigma_hat, sigma_hat_inv = _covariance(cols)
        iterations = 0
    elif method == SPATIAL_MEDIAN_TYLER:
        x = as_sample(sample)
        mu_hat, it_med = _spatial_median_iter(x, MEDIAN_TOL, MAX_ITER)
        sigma_hat, it_shape = _tyler_iter(x, mu_hat, SHAPE_TOL, MAX_ITER)
        sigma_hat_inv = linalg.spd_inverse(sigma_hat)
        iterations = it_med + it_shape
    else:
        raise ConfigError(
            f"unknown method {method!r}; expected one of {ESTIMATOR_METHODS}"
        )
    return LocationScatterEstimate(
        mu_hat=mu_hat,
        sigma_hat=sigma_hat,
        sigma_hat_inv=sigma_hat_inv,
        method=method,
        iterations=iterations,
    )


def hill_plot(sample, loc_scatter: LocationScatterEstimate, k_values) -> list[tuple[int, float]]:
    """Hill values across a range of k, computing the distances once.

    Returns ``[(k, gamma_hat), ...]`` in the order the k values were given.
    """
    x = as_sample(sample)
    ks = [int(k) for k in k_values]
    dists = mahalanobis_distances(x, loc_scatter.mu_hat, loc_scatter.sigma_hat_inv)
    ordered = order_desc(dists)
    return [(k, _hill_from_ordered(ordered, k)) for k in ks]
