"""Tail-index and location/scatter estimators.

The central object is the separating Hill estimator: order the rows of a
sample by their distance from a location in the metric of a scatter matrix,
then average the log-ratios of the k largest distances against the
(k+1)-th.  The location and scatter can be the true model parameters or
estimates; the robust pair used throughout is the spatial median together
with Tyler's fixed-point shape estimator.
"""

from __future__ import annotations

import numbers
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
from .workspace import scratch

SAMPLE_MEAN_COV = "sample_mean_cov"
SPATIAL_MEDIAN_TYLER = "spatial_median_tyler"
ESTIMATOR_METHODS = (SAMPLE_MEAN_COV, SPATIAL_MEDIAN_TYLER)

#: Solver settings of the robust pair: the Weiszfeld gradient tolerance
#: (see :func:`_spatial_median_iter`), the Tyler step tolerance (see
#: :func:`_tyler_iter`) and the iteration budget of each.
MEDIAN_TOL = 1e-10
SHAPE_TOL = 1e-9
MAX_ITER = 500


@dataclass(frozen=True, eq=False)
class LocationScatterEstimate:
    """Estimated location and scatter, with the inverse precomputed.

    ``median_iterations`` and ``shape_iterations`` are the map evaluations
    of the Weiszfeld and Tyler solves; both are 0 for fits without one.
    """

    mu_hat: np.ndarray
    sigma_hat: np.ndarray
    sigma_hat_inv: np.ndarray
    median_iterations: int = 0
    shape_iterations: int = 0

    @property
    def iterations(self) -> int:
        """Map evaluations of both solves together."""
        return self.median_iterations + self.shape_iterations


def as_sample(sample) -> np.ndarray:
    """Validate a sample matrix: 2-d, finite, float."""
    x = np.asarray(sample, dtype=float)
    if x.ndim != 2:
        raise DimensionMismatch(f"sample must be 2-d, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise NonFinite("sample entries must be finite")
    return x


def check_ordered(values, name: str) -> np.ndarray:
    """Validate a sequence sorted in descending order: 1-d, finite, float.

    ``name`` names the sequence in error messages.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1:
        raise DimensionMismatch(f"{name} must be 1-d, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise NonFinite(f"{name} must be finite")
    if (v[1:] > v[:-1]).any():
        raise DomainError(f"{name} must be sorted in descending order")
    return v


def order_desc(values, top: int | None = None, *, workspace=None) -> np.ndarray:
    """Sort values into descending order, or only the ``top`` largest.

    With ``top`` given, returns the ``top`` largest values in descending
    order, the same bytes as ``order_desc(values)[:top]``: a partition
    finds them and only they are sorted.  Equal values are
    interchangeable (a zero's sign aside), so the order among ties cannot
    change the result.  Every value is checked for finiteness either way.
    The partition runs on a copy of the values, in the ``"order"`` slab
    of ``workspace`` when one is given; the result is always a fresh
    array of ``top`` values.
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
    part = scratch(workspace, "order", v.shape)
    np.copyto(part, v)
    part.partition(cut)
    largest = part[cut:]
    largest.sort()
    return largest[::-1].copy()


def _check_k(k, n: int) -> None:
    """A k is an integer (a bool is not one) with ``1 <= k <= n - 1``."""
    integral = isinstance(k, numbers.Integral) and not isinstance(k, bool)
    if not (integral and 1 <= k <= n - 1):
        raise KOutOfRange(
            f"k must be an integer with 1 <= k <= n - 1, got k={k}, n={n}"
        )


def _hill_from_ordered(ordered: np.ndarray, k: int) -> float:
    """Hill at a k already checked against ``ordered``'s length."""
    pivot = ordered[k]
    if not pivot > 0.0:
        raise NonPositivePivot(
            f"order statistic {k + 1} of the distances is {pivot}, must be > 0"
        )
    value = float(np.mean(np.log(ordered[:k] / pivot)))
    # each log-ratio is >= 0 up to rounding; never report a signed zero
    return max(value, 0.0)


def univariate_hill(ordered, k: int) -> float:
    """Hill estimator from distances already sorted in descending order.

    Averages ``log(ordered[i] / ordered[k])`` over the top ``k`` entries
    (0-based: entries ``0..k-1`` against pivot ``ordered[k]``).  The result
    is nonnegative and invariant to positive rescaling of all distances.
    """
    v = check_ordered(ordered, "distances")
    _check_k(k, v.shape[0])
    return _hill_from_ordered(v, k)


def mahalanobis_distances(sample, mu, sigma_inv, *, workspace=None) -> np.ndarray:
    """Row-wise distances of a sample from ``mu``; shape ``(n,)``.

    The rows are centred into one contiguous ``(d, n)`` copy, so every
    numpy call runs along the n rows rather than over rows of length d; a
    column-major sample is read along its contiguous columns.  The
    quadratic forms ``c_n . (sigma_inv c_n)`` are accumulated one
    coordinate at a time, each row of ``sigma_inv c`` reduced with einsum
    into a single n-float buffer, in a fixed summation order, so the
    values do not depend on the BLAS build or thread count.  With a
    ``workspace`` the centred copy, the buffer and the result are its
    ``"columns"``, ``"rows"`` and ``"distances"`` slabs, and the result is
    valid until the next call that takes them.
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
    cols = np.subtract(
        x.T, mv[:, None], out=scratch(workspace, "columns", (d, n))
    )
    # the rows of sigma_inv @ cols pass through one n-float buffer rather
    # than a second (d, n) array: without a workspace each call's
    # temporaries land on fresh pages, and those page faults cost more
    # than the arithmetic
    q = scratch(workspace, "distances", (n,))
    q.fill(0.0)
    row = scratch(workspace, "rows", (n,))
    for i in range(d):
        np.einsum("j,jn->n", si[i], cols, out=row)
        row *= cols[i]
        q += row
    np.maximum(q, 0.0, out=q)
    return np.sqrt(q, out=q)


def separating_hill(sample, mu, sigma, ks) -> list[float]:
    """Separating Hill estimator of the extreme value index at each k of ``ks``.

    Inverts ``sigma`` once and checks every k against the sample size;
    then computes the distance of every row from ``mu`` in that metric,
    orders only the ``max(ks) + 1`` largest distances in descending order
    and applies the Hill average at each k.  Returns one value per k, in
    the order given.
    """
    sigma_inv = linalg.spd_inverse(sigma)
    x = as_sample(sample)
    ks = list(ks)
    for k in ks:
        _check_k(k, x.shape[0])
    dists = mahalanobis_distances(x, mu, sigma_inv)
    ordered = order_desc(dists, top=max(ks, default=0) + 1)
    return [_hill_from_ordered(ordered, k) for k in ks]


def _centred_columns(sample, workspace=None) -> tuple[np.ndarray, np.ndarray]:
    """Validate a sample once; return its row mean and a centred copy.

    The copy is a contiguous ``(d, n)`` array, the ``"columns"`` slab of
    ``workspace`` when one is given, so the mean is taken along the
    contiguous axis and the centring runs in place along the n rows.
    """
    x = as_sample(sample)
    if x.shape[0] < 1:
        raise DegenerateSample("mean needs at least one row")
    cols = scratch(workspace, "columns", x.T.shape)
    np.copyto(cols, x.T)
    mean = cols.mean(axis=1)
    cols -= mean[:, None]
    return mean, cols


def _covariance(cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Covariance of centred ``(d, n)`` columns, and its inverse.

    The inverse comes from :func:`linalg.symmetric_spd_inverse` (the
    covariance is symmetrized, so it skips the symmetry comparison),
    whose Cholesky factorization is also the positive-definiteness check,
    so the matrix is factored once.
    """
    d, n = cols.shape
    if n < d + 1:
        raise DegenerateSample(
            f"covariance of {n} rows in dimension {d} cannot be positive definite"
        )
    cov = np.einsum("in,jn->ij", cols, cols) / (n - 1)
    cov = 0.5 * (cov + cov.T)
    try:
        cov_inv = linalg.symmetric_spd_inverse(cov)
    except NotPositiveDefinite as exc:
        raise DegenerateSample(f"sample covariance is degenerate: {exc}") from exc
    return cov, cov_inv


class _AndersonMixer:
    """Type-II Anderson mixing for a fixed-point map on vectors of one size.

    It keeps the map outputs ``f_i = F(x_i)`` and residuals
    ``r_i = f_i - x_i`` of the last ``memory + 1`` evaluations pushed
    since the last restart.  With ``dF`` and ``dR`` the differences of
    consecutive outputs and of consecutive residuals, the next iterate is
    ``f - dF g`` for the latest pair ``(f, r)``, where ``g`` minimizes
    ``|r - dR g|`` (Walker & Ni, "Anderson acceleration for fixed-point
    iterations", SIAM J. Numer. Anal. 49, 2011).  On an affine map whose
    residuals span ``memory`` dimensions that point is the fixed point,
    so the solvers set ``memory`` to the number of free parameters of
    their map.  The least-squares problem has at most ``memory`` unknowns
    and is solved from its normal equations by LAPACK; it never touches
    n-length data.
    """

    def __init__(self, size: int, memory: int):
        self._pairs = np.empty((2, memory + 1, size))
        #: Pairs held, from 0 after a restart up to ``memory + 1``.
        self.held = 0

    def restart(self) -> None:
        """Forget every pair pushed so far."""
        self.held = 0

    def push(self, f: np.ndarray, r: np.ndarray) -> np.ndarray:
        """Keep the output ``f`` and residual ``r`` of one evaluation,
        dropping the oldest pair once ``memory + 1`` are held, and return
        the mixed point: ``f`` itself while one pair is held or when the
        least-squares problem is singular."""
        pairs = self._pairs
        if self.held == pairs.shape[1]:
            pairs[:, :-1] = pairs[:, 1:]
        else:
            self.held += 1
        held = self.held
        pairs[0, held - 1] = f
        pairs[1, held - 1] = r
        if held == 1:
            return f
        d_out, d_res = pairs[:, 1:held] - pairs[:, : held - 1]
        try:
            g = np.linalg.solve(d_res @ d_res.T, d_res @ r)
        except np.linalg.LinAlgError:
            return f
        return f - g @ d_out


def _spatial_median_iter(x: np.ndarray, tol: float, max_iter: int, workspace=None):
    """Anderson-mixed Weiszfeld iteration from the coordinate-wise mean,
    with the standard adjustment at data points.

    The map F is one Weiszfeld step.  Evaluated at an iterate it also
    measures the stopping rule there: the sum of unit vectors from the
    iterate toward the observations (the negative gradient of the
    objective) must have norm at most ``d * tol * n``, a scale-free
    criterion, and the iterate that meets it is returned.

    Each evaluation goes to an :class:`_AndersonMixer` with memory d, the
    number of free parameters, and the next iterate is its mixed point.
    The objective, the sum of distances, comes from the distances each
    step computes anyway: a mixed point whose objective is above that of
    the last accepted iterate is dropped, and the memory restarts from
    that iterate's plain step.  Once a step finds the iterate on an
    observation it takes the usual subgradient step, and every later step
    is a plain Weiszfeld step.  The fixed point is the same as without
    mixing; only the path to it is shorter.  Every map evaluation counts
    as one iteration, the dropped ones included, and
    :class:`NotConverged` carries the last map output when ``max_iter``
    evaluations do not meet the rule.

    At d = 1 the spatial median is the median of the column, returned in
    closed form after 0 evaluations.  There the gradient is a nonzero
    whole number at every point outside the medians, so the rule is met
    only by an iterate that lands among them, and Weiszfeld steps can
    approach them from one side for the whole budget.

    Returns ``(median, evaluations, diff)``: ``diff`` holds the ``(d, n)``
    differences of the observations from the median, as the last
    evaluation left them, so Tyler's fit needs no pass of its own.

    Each step runs on a ``(d, n)`` layout: a column-major sample, as
    :func:`~sephill.distributions.sample_elliptical` returns it, is read in
    place as contiguous columns, and any other is copied into them once.
    Each step writes the differences from the iterate into one
    preallocated buffer of the same shape, so every numpy call runs along
    the n rows rather than over rows of length d, and the distances and
    their reciprocals into one n-float buffer.  That is one n·d buffer,
    1.6 MB at n = 10^5, d = 2, plus an n·d copy for a row-major sample;
    with a ``workspace`` the two buffers are its ``"columns"`` and
    ``"rows"`` slabs.
    """
    n, d = x.shape
    if n < 1:
        raise DegenerateSample("spatial median needs at least one row")
    buf = scratch(workspace, "columns", (d, n))
    if d == 1:
        median = np.array([np.median(x[:, 0])])
        return median, 0, np.subtract(x.T, median[:, None], out=buf)
    cols = np.ascontiguousarray(x.T)
    dist_buf = scratch(workspace, "rows", (n,))
    m = cols.mean(axis=1)
    np.subtract(cols, m[:, None], out=buf)
    scale = float(np.max(np.abs(buf, out=buf)))
    collision_eps = 1e-12 * max(scale, 1e-300)
    grad_tol = d * tol * n
    evals = 0
    last = m
    plain = False

    def step(u):
        """F(u) and the objective at u; ``None`` for F(u) when u meets
        the stopping rule."""
        nonlocal evals, last, plain
        if evals == max_iter:
            raise NotConverged(
                f"spatial median did not converge in {max_iter} iterations",
                last_iterate=last,
                iterations=max_iter,
            )
        evals += 1
        np.subtract(cols, u[:, None], out=buf)
        dist = np.sqrt(np.einsum("in,in->n", buf, buf, out=dist_buf), out=dist_buf)
        objective = float(dist.sum())
        diff, rows, eta = buf, cols, 0
        if dist.min() <= collision_eps:
            # rarely taken: in practice no row sits at the iterate, so the
            # mask and its copies are made only when one does
            coll = dist <= collision_eps
            eta = int(np.count_nonzero(coll))
            if eta == n:
                # every observation sits at the iterate; it is the minimizer
                return None, 0.0
            plain = True
            keep = ~coll
            dist, diff, rows = dist[keep], buf[:, keep], cols[:, keep]
        w = np.divide(1.0, dist, out=dist)
        unit_sum = np.einsum("in,n->i", diff, w)
        g = float(np.linalg.norm(unit_sum))
        if eta > 0 and g <= eta:
            # subgradient optimality at a repeated data point
            return None, objective
        if eta == 0 and g <= grad_tol:
            return None, objective
        target = np.einsum("in,n->i", rows, w) / w.sum()
        if eta > 0:
            step_frac = min(1.0, eta / g)
            target = (1.0 - step_frac) * target + step_frac * u
        last = target
        return target, objective

    mixer = _AndersonMixer(d, d)
    v, mixed = m, False
    while True:
        f, objective = step(v)
        if f is None:
            return v, evals, buf
        if mixed and not objective <= best:
            # drop the mixed point; restart from the last accepted plain step
            mixer.restart()
            v, mixed = mixer.push(*kept), False
            continue
        best, kept = objective, (f, f - v)
        if plain:
            v, mixed = f, False
        else:
            v = mixer.push(*kept)
            mixed = mixer.held > 1


def _tyler_iter(diff: np.ndarray, tol: float, max_iter: int, workspace=None):
    """Anderson-mixed Tyler fixed-point iteration on precomputed row
    moments of the ``(d, n)`` differences ``diff`` of the observations
    from the location.

    The map F is one Tyler step rescaled to trace d, on the upper
    triangle of the iterate; the solve returns ``F(v)`` as soon as
    ``max|F(v) - v| < tol``.  Each evaluation goes to an
    :class:`_AndersonMixer` with memory ``d(d+1)/2 - 1``, the number of
    free parameters of a trace-d shape, and the next iterate is its mixed
    point, rescaled to trace d.  When that point's trace is not positive,
    or its step raises :class:`SingularIterate`, it is dropped and the
    memory restarts from the plain step of the last accepted iterate; the
    same failure on a plain step is raised.  Every map evaluation counts
    as one iteration, a dropped one included, and :class:`NotConverged`
    carries the last map output when ``max_iter`` evaluations do not meet
    the rule.

    The products ``diff_i * diff_j`` (``i <= j``) of the differences do
    not change across iterations, so they are built once as a
    ``(d(d+1)/2, n)`` array: n·d(d+1)/2 floats, 2.4 MB at n = 10^5, d = 2.
    Each step is then two einsums over that array: the squared distances
    ``q`` against the upper triangle of the inverse iterate (off-diagonal
    terms doubled), and the upper triangle of the next iterate from the
    weights ``1/q``.  Reductions stay in einsum, so the result does not
    depend on the BLAS build or thread count.  With a ``workspace`` the
    moments and ``q`` are its ``"moments"`` and ``"rows"`` slabs.

    Rows exactly equal to the location (zero columns of ``diff``) carry
    no direction and are dropped with a warning.  Each iterate is
    symmetric by construction (filled from one triangle), so it is
    inverted through the pivot floor without the symmetry comparison.

    At d = 1 the only trace-1 shape is ``[[1.0]]``, returned after 0
    evaluations with no moments and no warning; only the usable rows
    are counted.
    """
    d, n = diff.shape
    zero_rows = ~np.any(diff, axis=0)
    n_eff = n - int(np.count_nonzero(zero_rows))
    if d > 1 and n_eff < n:
        warnings.warn(
            f"dropping {n - n_eff} rows equal to the location estimate",
            stacklevel=3,
        )
        diff = diff[:, ~zero_rows]
    if n_eff <= d:
        raise DegenerateSample(
            f"Tyler shape needs more than d={d} usable rows, have {n_eff}"
        )
    if d == 1:
        return np.ones((1, 1)), 0
    iu, ju = np.triu_indices(d)
    size = iu.shape[0]
    moments = scratch(workspace, "moments", (size, n_eff))
    q_buf = scratch(workspace, "rows", (n_eff,))
    for k in range(size):
        np.multiply(diff[iu[k]], diff[ju[k]], out=moments[k])
    del diff
    on_diag = iu == ju
    pair_weight = np.where(on_diag, 1.0, 2.0)

    def matrix(upper):
        """The symmetric matrix with this upper triangle."""
        out = np.empty((d, d))
        out[iu, ju] = upper
        out[ju, iu] = upper
        return out

    v = np.eye(d)[iu, ju]
    evals = 0
    last = v

    def trace_of(upper, what):
        trace = float(upper[on_diag].sum())
        if not 0.0 < trace < np.inf:
            raise SingularIterate(f"{what} has nonpositive trace")
        return trace

    def step(u):
        """F(u), and whether it ends the solve."""
        nonlocal evals, last
        if evals == max_iter:
            raise NotConverged(
                f"Tyler shape iteration did not converge in {max_iter} iterations",
                last_iterate=matrix(last),
                iterations=max_iter,
            )
        evals += 1
        try:
            u_inv = linalg.symmetric_spd_inverse(matrix(u))
        except NotPositiveDefinite as exc:
            raise SingularIterate(f"shape iterate lost positive definiteness: {exc}") from exc
        q = np.einsum("kn,k->n", moments, u_inv[iu, ju] * pair_weight, out=q_buf)
        if not q.min() > 0.0:
            raise SingularIterate("a row has nonpositive squared distance under the iterate")
        nxt = np.einsum("kn,n->k", moments, np.divide(1.0, q, out=q)) * (d / n_eff)
        nxt *= d / trace_of(nxt, "shape iterate")
        last = nxt
        return nxt, float(np.max(np.abs(nxt - u))) < tol

    mixer = _AndersonMixer(size, size - 1)
    mixed = False
    while True:
        try:
            if mixed:
                v = v * (d / trace_of(v, "mixed shape point"))
            f, done = step(v)
        except SingularIterate:
            if not mixed:
                raise
            mixer.restart()
            v, mixed = mixer.push(*kept), False
            continue
        if done:
            return matrix(f), evals
        kept = (f, f - v)
        v = mixer.push(*kept)
        mixed = mixer.held > 1


def estimate_location_scatter(
    sample, method: str, *, workspace=None
) -> LocationScatterEstimate:
    """Estimate location and scatter by the requested method.

    ``sample_mean_cov`` pairs the coordinate-wise mean with the sample
    covariance (n - 1 divisor; :class:`DegenerateSample` when there are
    fewer than d + 1 rows or it is not positive definite);
    ``spatial_median_tyler`` pairs the spatial median with Tyler's shape
    estimator, each solved by Anderson-mixed fixed-point steps to :data:`MEDIAN_TOL` and :data:`SHAPE_TOL` within
    :data:`MAX_ITER` steps (see :func:`_spatial_median_iter` and
    :func:`_tyler_iter`).  ``median_iterations`` and ``shape_iterations``
    count the Weiszfeld and Tyler map evaluations (both 0 for the
    closed-form mean/covariance; both are 0 at d = 1, where the median
    is the column's and the shape is ``[[1.0]]``).  With a ``workspace``
    the fits' (d, n) and n-float scratch arrays are its slabs; the
    returned estimate never refers to them.
    """
    if method == SAMPLE_MEAN_COV:
        mu_hat, cols = _centred_columns(sample, workspace)
        sigma_hat, sigma_hat_inv = _covariance(cols)
        it_med = it_shape = 0
    elif method == SPATIAL_MEDIAN_TYLER:
        x = as_sample(sample)
        mu_hat, it_med, diff = _spatial_median_iter(x, MEDIAN_TOL, MAX_ITER, workspace)
        sigma_hat, it_shape = _tyler_iter(diff, SHAPE_TOL, MAX_ITER, workspace)
        sigma_hat_inv = linalg.symmetric_spd_inverse(sigma_hat)
    else:
        raise ConfigError(
            f"unknown method {method!r}; expected one of {ESTIMATOR_METHODS}"
        )
    return LocationScatterEstimate(
        mu_hat=mu_hat,
        sigma_hat=sigma_hat,
        sigma_hat_inv=sigma_hat_inv,
        median_iterations=it_med,
        shape_iterations=it_shape,
    )
