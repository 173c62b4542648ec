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
    exact power tail, survival ``(x / x_m) ** -alpha``;
``frechet``
    ``exp(-x ** -alpha)`` distribution function;
``t-radial``
    the radial part of a d-dimensional Student-t, i.e. ``r**2 / d`` follows
    an F(d, nu) distribution; its survival function and tail quantile go
    through the F and inverse incomplete beta functions of
    :mod:`scipy.special`.

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
from scipy.special import betaincinv, fdtrc

from . import linalg
from .errors import DimensionMismatch, DomainError, NonFinite

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


@dataclass(frozen=True)
class SecondOrder:
    """Second-order tail regularity: exponent ``rho <= 0`` and the limit
    ``lambda_limit`` of the scaled bias along the tail-fraction schedule.
    An exact power tail is marked by ``rho = -inf`` and ``lambda_limit = 0``.
    """

    rho: float
    lambda_limit: float


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
    :meth:`t_radial` rather than the raw constructor.  ``alpha``, ``x_m``
    (Pareto) and ``nu`` must be finite positive reals and are stored as
    floats; anything else raises :class:`DomainError`.
    """

    family: str
    alpha: float | None = None
    x_m: float = 1.0
    nu: float | None = None
    dim: int | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DomainError(
                f"unknown family {self.family!r}; expected one of {FAMILIES}"
            )
        if self.family in (PARETO, FRECHET):
            object.__setattr__(self, "alpha", _positive_real(self.alpha, "alpha"))
            if self.family == PARETO:
                object.__setattr__(self, "x_m", _positive_real(self.x_m, "x_m"))
        else:
            object.__setattr__(self, "nu", _positive_real(self.nu, "nu"))
            if self.dim is None or int(self.dim) < 1:
                raise DomainError("t-radial family needs the ambient dimension")

    @classmethod
    def pareto(cls, alpha: float, x_m: float = 1.0) -> "GeneratingVariateSpec":
        return cls(family=PARETO, alpha=alpha, x_m=x_m)

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
    def second_order(self) -> SecondOrder | None:
        """Known second-order regularity, or None when we do not pin it down.

        Only the exact power tail is certified here; for the other families
        the harness treats the limiting bias as unknown.
        """
        if self.family == PARETO:
            return SecondOrder(rho=-np.inf, lambda_limit=0.0)
        return None

    @property
    def limit_bias(self) -> float | None:
        """Centre ``lambda / (1 - rho)`` of the limiting normal law, when the
        second-order behaviour is known; None otherwise."""
        so = self.second_order
        if so is None:
            return None
        if so.lambda_limit == 0.0:
            return 0.0
        return so.lambda_limit / (1.0 - so.rho)

    # -- distribution function -------------------------------------------

    def cdf(self, x):
        """Distribution function of the variate, vectorized."""
        return 1.0 - self.sf(x)

    def sf(self, x):
        """Survival function ``P(R > x)``, vectorized.

        Computed directly per family rather than as ``1 - cdf`` so the far
        tail keeps full relative precision.
        """
        x = np.asarray(x, dtype=float)
        if self.family == PARETO:
            with np.errstate(divide="ignore", invalid="ignore"):
                s = np.where(x > self.x_m, (x / self.x_m) ** -self.alpha, 1.0)
        elif self.family == FRECHET:
            with np.errstate(divide="ignore", invalid="ignore"):
                s = np.where(x > 0, -np.expm1(-(x ** -self.alpha)), 1.0)
        else:
            s = np.where(x > 0, fdtrc(self.dim, self.nu, x * x / self.dim), 1.0)
        if s.ndim == 0:
            return float(s)
        return s


def quantile_u(spec: GeneratingVariateSpec, y):
    """Tail quantile ``U(y)``: the value whose survival probability is 1/y.

    Defined for ``y >= 1``; smaller arguments raise :class:`DomainError`.
    The inverse is closed form for every family.  For the t-radial family
    ``w = nu / (nu + r**2)`` follows a Beta(nu/2, d/2) law, so ``U(y)`` comes
    from the inverse regularized incomplete beta function at ``1/y``.
    """
    arr = np.asarray(y, dtype=float)
    if np.any(arr < 1.0) or not np.all(np.isfinite(arr)):
        raise DomainError("tail quantile is defined for finite y >= 1")
    if spec.family == PARETO:
        out = spec.x_m * arr ** (1.0 / spec.alpha)
    elif spec.family == FRECHET:
        with np.errstate(divide="ignore"):
            # -log(1 - 1/y) written as log1p(1/(y-1)) keeps precision for
            # large y; y == 1 maps to the lower endpoint 0.
            inner = np.where(arr > 1.0, np.log1p(1.0 / (arr - 1.0)), np.inf)
        out = inner ** (-1.0 / spec.alpha)
    else:
        w = betaincinv(0.5 * spec.nu, 0.5 * spec.dim, 1.0 / arr)
        out = np.sqrt(spec.nu * (1.0 - w) / w)
    if out.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True, eq=False)
class EllipticalModel:
    """Location ``mu``, scatter ``sigma`` and a generating variate family.

    The lower Cholesky factor of the scatter and its inverse are computed
    once at construction and cached as ``lambda_chol`` and ``sigma_inv``.
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
        chol = linalg.cholesky(self.sigma)
        sigma = linalg.check_symmetric(self.sigma)
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
        object.__setattr__(self, "sigma_inv", linalg.spd_inverse(sigma))

    @property
    def dim(self) -> int:
        return self.mu.shape[0]


def sample_sphere(dim: int, rng, size: int | None = None) -> np.ndarray:
    """Uniform draws on the unit sphere in ``dim`` dimensions.

    Standard normal vectors scaled to unit length.  Returns shape ``(dim,)``
    when ``size`` is None, else ``(size, dim)``.
    """
    if int(dim) < 1:
        raise DimensionMismatch("dimension must be at least 1")
    gen = _materialize(rng)
    n = 1 if size is None else int(size)
    g = gen.standard_normal((n, int(dim)))
    norms = np.linalg.norm(g, axis=1)
    # a zero vector has probability zero; pin it to the first axis anyway
    zero = norms == 0.0
    if np.any(zero):
        g[zero, 0] = 1.0
        norms[zero] = 1.0
    u = g / norms[:, None]
    if size is None:
        return u[0]
    return u


def sample_variate(spec: GeneratingVariateSpec, rng, size: int | None = None):
    """Draws of the generating variate by inverse transform (Pareto,
    Frechet) or as a ratio of chi-square draws (t-radial).

    Returns a float when ``size`` is None, else an array of shape
    ``(size,)``.  All draws are strictly positive.
    """
    gen = _materialize(rng)
    n = 1 if size is None else int(size)
    if spec.family == PARETO:
        v = gen.random(n)
        r = spec.x_m * (1.0 - v) ** (-1.0 / spec.alpha)
    elif spec.family == FRECHET:
        v = np.maximum(gen.random(n), _TINY)
        r = (-np.log(v)) ** (-1.0 / spec.alpha)
    else:
        num = np.maximum(gen.chisquare(spec.dim, n), _TINY)
        den = np.maximum(gen.chisquare(spec.nu, n), _TINY)
        r = np.sqrt(num * spec.nu / den)
    if size is None:
        return float(r[0])
    return r


def elliptical_rows(model: EllipticalModel, radii, directions) -> np.ndarray:
    """Rows ``mu + r * (L @ u)`` for radii ``r`` and unit directions ``u``.

    ``directions`` has shape ``(n, d)`` and ``radii`` shape ``(n,)``.
    Output coordinate ``j`` is ``sum_{k <= j} L[j, k] * u[:, k]``, summed
    in increasing ``k``, times ``r``, plus ``mu[j]``: the lower triangle of
    the factor only, and no matrix product, so no BLAS thread is started.
    """
    lower = model.lambda_chol
    n, d = directions.shape
    out = np.empty((n, d))
    for j in range(d):
        col = lower[j, 0] * directions[:, 0]
        for k in range(1, j + 1):
            col += lower[j, k] * directions[:, k]
        col *= radii
        col += model.mu[j]
        out[:, j] = col
    return out


def sample_elliptical(model: EllipticalModel, n: int, rng):
    """Draw ``n`` rows from the elliptical model.

    Returns ``(sample, radii)`` where ``sample`` has shape ``(n, d)`` and
    ``radii`` holds the generating variates used for each row, in row
    order.  The radii equal the scatter-metric distances of the rows from
    ``mu`` up to rounding, which the tests rely on.

    Draw order is fixed (all radii first, then the sphere directions), so a
    given stream always produces the same sample.
    """
    if int(n) < 1:
        raise DomainError("sample size must be at least 1")
    gen = _materialize(rng)
    radii = sample_variate(model.variate, gen, size=int(n))
    u = sample_sphere(model.dim, gen, size=int(n))
    return elliptical_rows(model, radii, u), radii
