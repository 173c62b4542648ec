"""Perturbation bounds for distance order statistics under estimated
location and scatter.

When the true location/scatter pair ``(mu, sigma)`` is replaced by an
estimate, every ordered distance moves by a controlled amount.  The control
is expressed through three nonnegative coefficients combined into a single
envelope constant ``m_n``; from it follow a quadratic envelope for squared
distances and a uniform bound on the change of the log-ratios entering the
Hill average.  This module computes those quantities and provides empirical
verifiers that check the inequalities on concrete ordered samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatch,
    DomainError,
    LengthMismatch,
    NonFinite,
    NonPositiveDistance,
)
from .estimators import check_ordered


@dataclass(frozen=True)
class PerturbationCoefficients:
    """Envelope coefficients of one location/scatter estimate.

    ``a_coef``/``b_coef``/``c_coef`` bound the perturbation of the squared
    quadratic form in the quadratic, linear and constant term; ``m_n`` is
    their scale-adjusted maximum.
    """

    a_coef: float
    b_coef: float
    c_coef: float
    m_n: float


@dataclass(frozen=True)
class PerturbationBound:
    """Log-ratio envelope of an envelope constant at one pivot distance.

    ``a_n`` bounds the relative movement of distance ratios and ``b_n``
    the movement of their logarithms (capped at log 2 once ``a_n``
    exceeds one half).  ``a_n`` alone says whether the envelope applies
    (see :func:`log_ratio_bound`).
    """

    m_n: float
    r_pivot: float
    a_n: float
    b_n: float


def pivot_threshold(m_n: float) -> float:
    """Smallest admissible pivot, ``m_n / (2 (1 - m_n))``; inf for m_n >= 1."""
    if m_n >= 1.0:
        return math.inf
    return m_n / (2.0 * (1.0 - m_n))


def perturbation_coefficients(
    sigma_inv, sigma_hat_inv, location_error, lambda_max: float
) -> PerturbationCoefficients:
    """Envelope coefficients for a location/scatter estimate.

    The true location is the origin: Hill reads only distance ratios,
    which no translation moves, so the estimate enters through its
    location error ``mu_hat - mu`` alone.  With ``e`` its norm,
    ``a = ||sigma_inv - sigma_hat_inv||``, ``b = e a + (||sigma_hat_inv|| +
    ||sigma_inv||) e``, ``c = e ||sigma_hat_inv|| e`` and ``m_n =
    max(lambda_max a, sqrt(lambda_max) b, c)``.

    Parameters
    ----------
    sigma_inv, sigma_hat_inv : array_like
        Inverses of the true and estimated scatter (symmetric, d×d).
    location_error : array_like
        ``mu_hat - mu``, a vector of length d.
    lambda_max : float
        Largest eigenvalue of the true scatter; must be positive.

    Returns
    -------
    PerturbationCoefficients
        All matrix norms are spectral, vector norms Euclidean.

    Raises
    ------
    DimensionMismatch
        If ``location_error`` is not a vector, or either inverse is not
        d×d for its length d.
    DomainError
        If ``lambda_max`` is not a finite positive number.
    NonFinite, NonSymmetric
        As :func:`linalg.spectral_norm` would raise on ``sigma_inv -
        sigma_hat_inv``, ``sigma_hat_inv`` or ``sigma_inv``.
    """
    err = np.asarray(location_error, dtype=float)
    if err.ndim != 1:
        raise DimensionMismatch(f"location_error must be a vector, got shape {err.shape}")
    d = err.shape[0]
    si = np.asarray(sigma_inv, dtype=float)
    shi = np.asarray(sigma_hat_inv, dtype=float)
    if si.shape != (d, d) or shi.shape != (d, d):
        raise DimensionMismatch(
            f"scatter inverses must be {d}x{d}, got {si.shape} and {shi.shape}"
        )
    if not (np.isfinite(lambda_max) and lambda_max > 0):
        raise DomainError("lambda_max must be a positive real")
    e = float(np.linalg.norm(err))
    a_coef, norm_shi, norm_si = linalg.spectral_norms((si - shi, shi, si)).tolist()
    b_coef = e * a_coef + (norm_shi + norm_si) * e
    c_coef = e * norm_shi * e
    m_n = max(lambda_max * a_coef, math.sqrt(lambda_max) * b_coef, c_coef)
    return PerturbationCoefficients(
        a_coef=a_coef,
        b_coef=b_coef,
        c_coef=c_coef,
        m_n=m_n,
    )


def delta_poly(m_n: float, x: float) -> float:
    """Quadratic envelope ``m_n * (x**2 + x + 1)`` for squared-distance error."""
    if m_n < 0:
        raise DomainError("the envelope constant must be nonnegative")
    return m_n * (x * x + x + 1.0)


def log_ratio_bound(m_n: float, r_pivot: float) -> PerturbationBound:
    """Log-ratio envelope for a given pivot distance.

    Computes ``a_n = m_n * (1 + 1/r + 1/r**2)`` and the capped log bound
    ``b_n`` (``log(1/(1-a_n))`` while ``a_n <= 1/2``, ``log 2`` beyond).

    ``a_n`` carries every applicability condition.  ``a_n < 1`` means
    ``m_n < r**2 / (r**2 + r + 1)``, which is at most ``2r / (1 + 2r)``,
    that is the pivot test ``r > m_n / (2 (1 - m_n))``, and the pivot test
    already needs ``m_n < 1``.  So the log-ratio lemma applies iff ``a_n <
    1``, and the harness's envelope applies iff ``a_n <= 1/2``.
    """
    if not r_pivot > 0:
        raise DomainError("r_pivot must be strictly positive")
    if m_n < 0 or not math.isfinite(m_n):
        raise DomainError("the envelope constant must be finite and nonnegative")
    m_n, r_pivot = float(m_n), float(r_pivot)
    a_n = m_n + m_n / r_pivot + m_n / (r_pivot * r_pivot)
    if a_n <= 0.5:
        b_n = -math.log1p(-a_n)
    else:
        b_n = math.log(2.0)
    return PerturbationBound(m_n=m_n, r_pivot=r_pivot, a_n=a_n, b_n=b_n)


def complete_bound(coefficients: PerturbationCoefficients, r_pivot: float) -> PerturbationBound:
    """The log-ratio envelope of ``coefficients.m_n`` at ``r_pivot``."""
    return log_ratio_bound(coefficients.m_n, r_pivot)


@dataclass(frozen=True)
class EpsilonLemmaReport:
    """Outcome of checking the squared-distance envelope at one index."""

    applicable: bool
    violations: int
    max_slack: float


@dataclass(frozen=True)
class LogRatioReport:
    """Outcome of checking the log-ratio envelope at indices 1..l."""

    applicable: bool
    violations: int
    max_ratio_gap: float
    bound: float


@dataclass(frozen=True)
class EnvelopeSweep:
    """Both envelope lemmas checked at every pivot of one ordered pair.

    ``applicable`` and ``violations`` sum the per-pivot reports of both
    lemmas; ``min_epsilon_slack`` and ``max_ratio_gap`` are taken over the
    applicable checks only and are None when there is none;
    ``ratio_bounds`` holds the log-ratio bound of each applicable ratio
    check, in pivot order.
    """

    applicable: int
    violations: int
    min_epsilon_slack: float | None
    max_ratio_gap: float | None
    ratio_bounds: tuple[float, ...]


def _check_pair(true_values, est_values, kind: str, pivots) -> tuple[np.ndarray, np.ndarray]:
    """Validate two descending sequences of equal length and 1-based pivots."""
    t = check_ordered(true_values, f"true {kind}")
    e = check_ordered(est_values, f"estimated {kind}")
    if t.shape[0] != e.shape[0]:
        raise LengthMismatch(
            f"sequences have lengths {t.shape[0]} and {e.shape[0]}"
        )
    n = t.shape[0]
    for l in pivots:
        if not 1 <= l <= n:
            raise DomainError(f"l must satisfy 1 <= l <= {n}, got {l}")
    return t, e


def _check_positive(t: np.ndarray, e: np.ndarray) -> None:
    # both sequences are descending, so their last entries are their minima
    if not (t[-1] > 0.0 and e[-1] > 0.0):
        raise NonPositiveDistance("all distances must be strictly positive")


def _epsilon_at(t_sq: np.ndarray, e_sq: np.ndarray, m_n: float, l: int) -> EpsilonLemmaReport:
    r_l = math.sqrt(max(float(t_sq[l - 1]), 0.0))
    applicable = m_n < 1.0 and r_l > pivot_threshold(m_n)
    if not applicable:
        return EpsilonLemmaReport(applicable=False, violations=0, max_slack=math.nan)
    eps = abs(float(e_sq[l - 1]) - float(t_sq[l - 1]))
    envelope = delta_poly(m_n, r_l)
    return EpsilonLemmaReport(
        applicable=True,
        violations=int(eps > envelope),
        max_slack=envelope - eps,
    )


def _log_ratio_at(t: np.ndarray, e: np.ndarray, m_n: float, l: int) -> LogRatioReport:
    pivot_part = log_ratio_bound(m_n, float(t[l - 1]))
    if not pivot_part.a_n < 1.0:
        return LogRatioReport(
            applicable=False, violations=0, max_ratio_gap=math.nan, bound=math.nan
        )
    bound = -math.log1p(-pivot_part.a_n)
    gaps = np.abs(
        np.log(e[:l] / e[l - 1]) - np.log(t[:l] / t[l - 1])
    )
    return LogRatioReport(
        applicable=True,
        violations=int(np.count_nonzero(gaps > bound)),
        max_ratio_gap=float(np.max(gaps)),
        bound=bound,
    )


def verify_epsilon_lemma(true_sq_dists, est_sq_dists, m_n: float, l: int) -> EpsilonLemmaReport:
    """Check the squared-distance envelope at index ``l`` (1-based).

    ``applicable`` reflects whether the envelope's preconditions hold for
    the pivot ``sqrt(true_sq_dists[l-1])``; when they do, the inequality
    ``|est^2 - true^2| <= delta_poly(m_n, pivot)`` is evaluated there and
    ``max_slack`` reports the margin by which it holds.
    """
    t_sq, e_sq = _check_pair(true_sq_dists, est_sq_dists, "squared distances", (l,))
    return _epsilon_at(t_sq, e_sq, m_n, l)


def verify_log_ratio_lemma(true_dists, est_dists, m_n: float, l: int) -> LogRatioReport:
    """Check the log-ratio envelope for every index up to ``l`` (1-based).

    Compares ``log(est[i]/est[l])`` with ``log(true[i]/true[l])`` for
    ``i = 1..l`` against the bound from :func:`log_ratio_bound` at the true
    pivot.  All distances must be strictly positive.
    """
    t, e = _check_pair(true_dists, est_dists, "distances", (l,))
    _check_positive(t, e)
    return _log_ratio_at(t, e, m_n, l)


def check_envelopes(true_dists, est_dists, m_n: float, pivots) -> EnvelopeSweep:
    """Check both envelope lemmas at every pivot in one validated pass.

    Equivalent to calling :func:`verify_epsilon_lemma` on the squared
    distances and :func:`verify_log_ratio_lemma` on the distances at each
    pivot ``l`` in ``pivots`` (a non-empty sequence of 1-based indices) and
    summing the reports, and raises the same exceptions, but validates and
    squares each sequence once.
    """
    t, e = _check_pair(true_dists, est_dists, "distances", pivots)
    _check_positive(t, e)
    t_sq, e_sq = t**2, e**2
    for sq, name in ((t_sq, "true"), (e_sq, "estimated")):
        if not math.isfinite(sq[0]):
            raise NonFinite(f"{name} squared distances must be finite")
    applicable = violations = 0
    slack_min = gap_max = None
    ratio_bounds = []
    for l in pivots:
        eps_rep = _epsilon_at(t_sq, e_sq, m_n, l)
        if eps_rep.applicable:
            applicable += 1
            violations += eps_rep.violations
            if slack_min is None or eps_rep.max_slack < slack_min:
                slack_min = eps_rep.max_slack
        ratio_rep = _log_ratio_at(t, e, m_n, l)
        if ratio_rep.applicable:
            applicable += 1
            violations += ratio_rep.violations
            if gap_max is None or ratio_rep.max_ratio_gap > gap_max:
                gap_max = ratio_rep.max_ratio_gap
            ratio_bounds.append(ratio_rep.bound)
    return EnvelopeSweep(
        applicable=applicable,
        violations=violations,
        min_epsilon_slack=slack_min,
        max_ratio_gap=gap_max,
        ratio_bounds=tuple(ratio_bounds),
    )
