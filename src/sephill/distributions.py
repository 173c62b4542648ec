"""Synthetic heavy-tailed elliptical data.

A sample is built as ``x = mu + r * (L @ u)`` where ``L`` is the lower
Cholesky factor of the scatter matrix, ``u`` is uniform on the unit sphere
and ``r`` is a positive generating variate whose distribution fixes the
extreme value index of the model.  :func:`sample_elliptical`, the one
sampler, forms ``L @ u`` one output coordinate at a time as a sum over the
lower triangle of ``L``, with elementwise numpy operations and no BLAS
call, so sampling starts no BLAS thread: parallel replications run one per
process without the BLAS library's threads competing for the same cores.
Three families are supported:

``pareto``
    exact power tail, survival ``x ** -alpha``;
``frechet``
    ``exp(-x ** -alpha)`` distribution function;
``t-radial``
    the radial part of a d-dimensional Student-t, i.e. ``r**2 / d`` follows
    an F(d, alpha) distribution, drawn as a ratio of numpy ``chisquare``
    draws; d is the dimension of the model the variate drives, and alpha,
    the tail index, is the t's degrees of freedom.

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

    The class methods :meth:`pareto`, :meth:`frechet` and :meth:`t_radial`
    equal the raw constructor, whose ``__post_init__`` validates both
    fields.  ``alpha`` is the tail index of every family (for t-radial,
    the degrees of freedom); it must be a finite positive real and is
    stored as a float; anything else raises :class:`DomainError`.
    """

    family: str
    alpha: float

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DomainError(
                f"unknown family {self.family!r}; expected one of {FAMILIES}"
            )
        object.__setattr__(self, "alpha", _positive_real(self.alpha, "alpha"))

    @classmethod
    def pareto(cls, alpha: float) -> "GeneratingVariateSpec":
        return cls(family=PARETO, alpha=alpha)

    @classmethod
    def frechet(cls, alpha: float) -> "GeneratingVariateSpec":
        return cls(family=FRECHET, alpha=alpha)

    @classmethod
    def t_radial(cls, alpha: float) -> "GeneratingVariateSpec":
        return cls(family=T_RADIAL, alpha=alpha)

    @property
    def gamma(self) -> float:
        """Extreme value index of the family (always positive)."""
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
    Cholesky factor is cached as ``lambda_chol``, the inverse of the
    scatter, formed from that factor, as ``sigma_inv``, and its largest
    eigenvalue as ``lambda_max``; all three are pickled with the model.
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
        # the inverse is formed from the same factor, and the largest
        # eigenvalue is spectral_norm's without a second validation
        chol = linalg.cholesky(self.sigma)
        sigma = np.asarray(self.sigma, dtype=float)
        if sigma.shape[0] != mu.shape[0]:
            raise DimensionMismatch(
                f"mu has dimension {mu.shape[0]} but sigma is {sigma.shape[0]}x{sigma.shape[0]}"
            )
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "lambda_chol", chol)
        object.__setattr__(self, "sigma_inv", linalg._inverse_from_factor(chol))
        object.__setattr__(self, "lambda_max", float(linalg._largest_abs_eigenvalues(sigma)))

    @property
    def dim(self) -> int:
        return self.mu.shape[0]


def _fill_variate(model: EllipticalModel, gen, out) -> np.ndarray:
    """Draws of the model's generating variate written into ``out``, one
    per entry.  Pareto and Fréchet transform uniforms in place, with the
    exponent formed by numpy so that one beyond the float range raises
    under ``np.errstate`` as well; t-radial draws its chi-squares into
    fresh arrays, since numpy's ``chisquare`` takes no output buffer."""
    spec = model.variate
    if spec.family == PARETO:
        gen.random(out=out)
        np.subtract(1.0, out, out=out)
        out **= np.divide(-1.0, spec.alpha)
    elif spec.family == FRECHET:
        gen.random(out=out)
        np.maximum(out, _TINY, out=out)
        np.log(out, out=out)
        np.negative(out, out=out)
        out **= np.divide(-1.0, spec.alpha)
    else:
        n = out.shape[0]
        num = np.maximum(gen.chisquare(model.dim, n), _TINY)
        den = np.maximum(gen.chisquare(spec.alpha, n), _TINY)
        np.divide(num * spec.alpha, den, out=out)
        np.sqrt(out, out=out)
    return out


def sample_elliptical(model: EllipticalModel, n: int, rng, *, workspace=None):
    """Draw ``n`` rows from the elliptical model.

    Returns ``(sample, radii)`` where ``sample`` has shape ``(n, d)`` and
    ``radii`` holds the generating variates used for each row, in row
    order.  The radii equal the scatter-metric distances of the rows from
    ``mu`` up to rounding, which the harness relies on.  ``rng`` is an
    :class:`RngStream` or a numpy ``Generator``.

    Draw order is fixed (all radii first, then the standard normals, drawn
    row by row as ``(n, d)``), so a given stream always produces the same
    sample.  Each row of normals is divided by its norm, whose squares are
    summed one coordinate at a time in increasing order: for ``d <= 7``
    the same bytes as ``np.linalg.norm(g, axis=1)``.  Output coordinate
    ``j`` is ``sum_{k <= j} L[j, k] * u[:, k]``, summed in increasing
    ``k``, times ``r``, plus ``mu[j]``, built in row ``j`` of a contiguous
    ``(d, n)`` array whose transpose is returned: ``sample`` is
    column-major, so the fits and distances in :mod:`sephill.estimators`
    read each coordinate as one contiguous column.

    A draw that overflows the float range raises :class:`DomainError`
    naming the family and its parameter, rather than returning infinite
    rows.

    With a :class:`~sephill.workspace.Workspace` the draws are built in
    its slabs and both returned arrays are views of them: ``"radii"``,
    ``"sample"`` (the normals, then the rows), ``"columns"`` (the
    directions) and ``"rows"`` (the row norms and products).  Without
    one, every array is fresh.
    """
    if int(n) < 1:
        raise DomainError("sample size must be at least 1")
    if isinstance(rng, RngStream):
        rng = rng.generator()
    elif not isinstance(rng, np.random.Generator):
        raise TypeError(f"expected RngStream or numpy Generator, got {type(rng)!r}")
    n, d = int(n), model.dim
    try:
        with np.errstate(over="raise"):
            radii = _fill_variate(model, rng, scratch(workspace, "radii", (n,)))
            normals = rng.standard_normal(
                (n, d), out=scratch(workspace, "sample", (n, d))
            )
            # each squared coordinate passes through row k of the
            # directions before the division overwrites it
            norms = scratch(workspace, "rows", (n,))
            directions = scratch(workspace, "columns", (d, n))
            np.square(normals[:, 0], out=norms)
            for k in range(1, d):
                norms += np.square(normals[:, k], out=directions[k])
            np.sqrt(norms, out=norms)
            # a zero vector has probability zero; pin it to the first axis anyway
            zero = norms == 0.0
            if np.any(zero):
                normals[zero, 0] = 1.0
                norms[zero] = 1.0
            np.divide(normals.T, norms, out=directions)
            # the normals are dead once the directions exist, so the rows
            # take their slab, and the products the norms' buffer; the
            # lower triangle of the factor and no matrix product, so no
            # BLAS thread is started
            rows = scratch(workspace, "sample", (d, n))
            lower = model.lambda_chol
            for j in range(d):
                col = np.multiply(lower[j, 0], directions[0], out=rows[j])
                for k in range(1, j + 1):
                    col += np.multiply(lower[j, k], directions[k], out=norms)
                col *= radii
                col += model.mu[j]
    except FloatingPointError:
        spec = model.variate
        raise DomainError(
            f"the {spec.family} draw with alpha={spec.alpha!r} overflows the float range"
        ) from None
    return rows.T, radii
