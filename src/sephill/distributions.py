"""Synthetic heavy-tailed elliptical data.

A sample is built as ``x = mu + r * (L @ u)`` where ``L`` is the lower
Cholesky factor of the scatter matrix, ``u`` is uniform on the unit sphere
and ``r`` is a positive generating variate whose distribution fixes the
extreme value index of the model.  :func:`elliptical_rows` forms ``L @ u``
one output coordinate at a time as a sum over the lower triangle of ``L``,
with elementwise numpy operations and no BLAS call, so sampling starts no
BLAS thread: parallel replications run one per process without the BLAS
library's threads competing for the same cores.  Three families are
supported:

``pareto``
    exact power tail, survival ``x ** -alpha``;
``frechet``
    ``exp(-x ** -alpha)`` distribution function;
``t-radial``
    the radial part of a d-dimensional Student-t, i.e. ``r**2 / d`` follows
    an F(d, nu) distribution, drawn as a ratio of numpy ``chisquare`` draws.

Randomness is addressed by value: an :class:`RngStream` is a (seed,
stream_id) pair mapped onto a counter-based Philox generator, so the same
pair always reproduces the same draws regardless of what other streams were
consumed in between.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionMismatch, DomainError, NonFinite
from .workspace import scratch

PARETO = "pareto"
FRECHET = "frechet"
T_RADIAL = "t-radial"
FAMILIES = (PARETO, FRECHET, T_RADIAL)

_MASK64 = (1 << 64) - 1
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class RngStream:
    """Value-semantics handle for one reproducible stream of randomness.

    ``generator()`` builds a fresh Philox-backed generator keyed by
    ``(seed, stream_id)``; calling it twice on the same stream yields
    identical draws.
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array(
            [self.seed & _MASK64, self.stream_id & _MASK64], dtype=np.uint64
        )
        return np.random.Generator(np.random.Philox(key=key))


def _materialize(rng) -> np.random.Generator:
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError(f"expected RngStream or numpy Generator, got {type(rng)!r}")


def _positive_real(value, name: str) -> float:
    """``value`` as a float, if it is a finite positive real number (a bool
    is not); otherwise :class:`DomainError`."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:  # an integer beyond the float range
            x = math.inf
        if math.isfinite(x) and x > 0:
            return x
    raise DomainError(f"{name} must be a finite positive real, got {value!r}")


@dataclass(frozen=True)
class GeneratingVariateSpec:
    """Parameters of the positive variate driving the radius of the model.

    Use the class methods :meth:`pareto`, :meth:`frechet` and
    :meth:`t_radial` rather than the raw constructor.  ``alpha`` and
    ``nu`` must be finite positive reals and are stored as floats;
    anything else raises :class:`DomainError`.
    """

    family: str
    alpha: float | None = None
    nu: float | None = None
    dim: int | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DomainError(
                f"unknown family {self.family!r}; expected one of {FAMILIES}"
            )
        if self.family in (PARETO, FRECHET):
            object.__setattr__(self, "alpha", _positive_real(self.alpha, "alpha"))
        else:
            object.__setattr__(self, "nu", _positive_real(self.nu, "nu"))
            if self.dim is None or int(self.dim) < 1:
                raise DomainError("t-radial family needs the ambient dimension")

    @classmethod
    def pareto(cls, alpha: float) -> "GeneratingVariateSpec":
        return cls(family=PARETO, alpha=alpha)

    @classmethod
    def frechet(cls, alpha: float) -> "GeneratingVariateSpec":
        return cls(family=FRECHET, alpha=alpha)

    @classmethod
    def t_radial(cls, nu: float, dim: int) -> "GeneratingVariateSpec":
        return cls(family=T_RADIAL, nu=nu, dim=int(dim))

    @property
    def gamma(self) -> float:
        """Extreme value index of the family (always positive)."""
        if self.family == T_RADIAL:
            return 1.0 / self.nu
        return 1.0 / self.alpha

    @property
    def limit_bias(self) -> float | None:
        """Centre of the limiting normal law of ``sqrt(k) (gamma_hat -
        gamma)``, when it is certified: 0 for the exact power tail of
        Pareto, None for the other families."""
        if self.family == PARETO:
            return 0.0
        return None


@dataclass(frozen=True, eq=False)
class EllipticalModel:
    """Location ``mu``, scatter ``sigma`` and a generating variate family.

    The scatter is validated and factored once at construction: its lower
    Cholesky factor is cached as ``lambda_chol``, and the inverse of the
    scatter, formed from that factor, as ``sigma_inv``.
    """

    mu: np.ndarray
    sigma: np.ndarray
    variate: GeneratingVariateSpec

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        if mu.ndim != 1 or mu.shape[0] == 0:
            raise DimensionMismatch(
                f"mu must be a nonempty vector, got shape {mu.shape}"
            )
        if not np.all(np.isfinite(mu)):
            raise NonFinite("mu entries must be finite")
        # validates sigma (shape, finite, symmetric) and factors it once;
        # the inverse is formed from the same factor
        chol = linalg.cholesky(self.sigma)
        sigma = np.asarray(self.sigma, dtype=float)
        if sigma.shape[0] != mu.shape[0]:
            raise DimensionMismatch(
                f"mu has dimension {mu.shape[0]} but sigma is {sigma.shape[0]}x{sigma.shape[0]}"
            )
        if self.variate.family == T_RADIAL and self.variate.dim != mu.shape[0]:
            raise DimensionMismatch(
                "t-radial variate dimension must match the model dimension"
            )
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "lambda_chol", chol)
        object.__setattr__(self, "sigma_inv", linalg._inverse_from_factor(chol))

    @property
    def dim(self) -> int:
        return self.mu.shape[0]


def sample_sphere(dim: int, rng, size: int | None = None) -> np.ndarray:
    """Uniform draws on the unit sphere in ``dim`` dimensions.

    Standard normal vectors scaled to unit length.  Returns shape ``(dim,)``
    when ``size`` is None, else ``(size, dim)`` in column-major layout: the
    transpose of a contiguous ``(dim, size)`` array, so each coordinate is
    one contiguous column.  The normals are drawn row by row as ``(size,
    dim)``; the squared norms are summed one coordinate at a time, in
    increasing coordinate order, which for ``dim <= 7`` gives the same
    bytes as ``np.linalg.norm(g, axis=1)``.
    """
    if int(dim) < 1:
        raise DimensionMismatch("dimension must be at least 1")
    gen = _materialize(rng)
    n = 1 if size is None else int(size)
    d = int(dim)
    u = _sphere_columns(gen, np.empty((n, d)), np.empty(n), np.empty((d, n))).T
    if size is None:
        return u[0]
    return u


def _sphere_columns(gen, normals, norms, out) -> np.ndarray:
    """Unit directions as the ``(d, n)`` columns ``out``, from standard
    normals drawn row by row into the C-ordered ``(n, d)`` array
    ``normals``; ``norms`` takes the n row norms.  Each squared coordinate
    passes through row ``k`` of ``out`` before the division overwrites
    it."""
    normals = gen.standard_normal(normals.shape, out=normals)
    d = normals.shape[1]
    np.square(normals[:, 0], out=norms)
    for k in range(1, d):
        norms += np.square(normals[:, k], out=out[k])
    np.sqrt(norms, out=norms)
    # a zero vector has probability zero; pin it to the first axis anyway
    zero = norms == 0.0
    if np.any(zero):
        normals[zero, 0] = 1.0
        norms[zero] = 1.0
    return np.divide(normals.T, norms, out=out)


def sample_variate(spec: GeneratingVariateSpec, rng, size: int | None = None):
    """Draws of the generating variate by inverse transform (Pareto,
    Frechet) or as a ratio of chi-square draws (t-radial).

    Returns a float when ``size`` is None, else an array of shape
    ``(size,)``.  All draws are strictly positive.
    """
    gen = _materialize(rng)
    n = 1 if size is None else int(size)
    r = _fill_variate(spec, gen, np.empty(n))
    if size is None:
        return float(r[0])
    return r


def _fill_variate(spec: GeneratingVariateSpec, gen, out) -> np.ndarray:
    """Draws of the variate written into ``out``, one per entry.  Pareto
    and Fréchet transform uniforms in place; t-radial draws its
    chi-squares into fresh arrays, since numpy's ``chisquare`` takes no
    output buffer."""
    if spec.family == PARETO:
        gen.random(out=out)
        np.subtract(1.0, out, out=out)
        out **= -1.0 / spec.alpha
    elif spec.family == FRECHET:
        gen.random(out=out)
        np.maximum(out, _TINY, out=out)
        np.log(out, out=out)
        np.negative(out, out=out)
        out **= -1.0 / spec.alpha
    else:
        n = out.shape[0]
        num = np.maximum(gen.chisquare(spec.dim, n), _TINY)
        den = np.maximum(gen.chisquare(spec.nu, n), _TINY)
        np.divide(num * spec.nu, den, out=out)
        np.sqrt(out, out=out)
    return out


def elliptical_rows(model: EllipticalModel, radii, directions) -> np.ndarray:
    """Rows ``mu + r * (L @ u)`` for radii ``r`` and unit directions ``u``.

    ``directions`` has shape ``(n, d)`` and ``radii`` shape ``(n,)``.
    Output coordinate ``j`` is ``sum_{k <= j} L[j, k] * u[:, k]``, summed
    in increasing ``k``, times ``r``, plus ``mu[j]``: the lower triangle of
    the factor only, and no matrix product, so no BLAS thread is started.
    Each coordinate is built in place in row ``j`` of a contiguous
    ``(d, n)`` array, whose ``(n, d)`` transpose is returned, so the result
    is column-major.
    """
    n, d = directions.shape
    return _rows_into(model, radii, directions, np.empty((d, n)), np.empty(n)).T


def _rows_into(model, radii, directions, out, term) -> np.ndarray:
    """:func:`elliptical_rows` built into the ``(d, n)`` array ``out``,
    which it returns; ``term`` is an n-float buffer for the products."""
    lower = model.lambda_chol
    d = directions.shape[1]
    for j in range(d):
        col = np.multiply(lower[j, 0], directions[:, 0], out=out[j])
        for k in range(1, j + 1):
            col += np.multiply(lower[j, k], directions[:, k], out=term)
        col *= radii
        col += model.mu[j]
    return out


def sample_elliptical(model: EllipticalModel, n: int, rng, *, workspace=None):
    """Draw ``n`` rows from the elliptical model.

    Returns ``(sample, radii)`` where ``sample`` has shape ``(n, d)`` and
    ``radii`` holds the generating variates used for each row, in row
    order.  ``sample`` is column-major (see :func:`elliptical_rows`), so
    the fits and distances in :mod:`sephill.estimators` read each
    coordinate as one contiguous column.  The radii equal the
    scatter-metric distances of the rows from ``mu`` up to rounding, which
    the harness relies on.

    Draw order is fixed (all radii first, then the sphere directions), so a
    given stream always produces the same sample.

    With a :class:`~sephill.workspace.Workspace` the draws are built in
    its slabs and both returned arrays are views of them: ``"radii"``,
    ``"sample"`` (the normals, then the rows), ``"columns"`` (the
    directions) and ``"rows"`` (the row norms and products).  Without
    one, every array is fresh.
    """
    if int(n) < 1:
        raise DomainError("sample size must be at least 1")
    gen = _materialize(rng)
    n, d = int(n), model.dim
    radii = _fill_variate(model.variate, gen, scratch(workspace, "radii", (n,)))
    term = scratch(workspace, "rows", (n,))
    # the normals are dead once the directions exist, so the rows can
    # take their slab
    directions = _sphere_columns(
        gen,
        scratch(workspace, "sample", (n, d)),
        term,
        scratch(workspace, "columns", (d, n)),
    )
    sample = _rows_into(
        model, radii, directions.T, scratch(workspace, "sample", (d, n)), term
    )
    return sample.T, radii
