"""Dense symmetric-matrix helpers: Cholesky, SPD inverse, spectral norm.

The factor, the inverse and the eigenvalues come from LAPACK through numpy
alone; nothing here calls scipy, whose separately bundled BLAS keeps a
helper thread spinning after every call.  This module adds the validation
around them (finite, symmetric, a pivot floor relative to the diagonal) and
maps failures to this package's exceptions.  Results are deterministic for
a given machine and numpy/LAPACK build, which is what the experiment
harness relies on for byte-identical output at any worker count; the last
bits may differ between builds.
"""

from __future__ import annotations

import numpy as np

from .errors import NonFinite, NonSymmetric, NotPositiveDefinite

#: Relative tolerance for the symmetry check.
SYMMETRY_RTOL = 1e-12

#: A Cholesky pivot below this fraction of the largest diagonal entry is
#: treated as a failure of positive definiteness rather than folded into a
#: noisy factor.
PIVOT_RTOL = 1e-14


def check_symmetric(m) -> np.ndarray:
    """Validate that ``m`` is a finite symmetric square matrix.

    Returns the input as a float ndarray.  Raises :class:`NonSymmetric`
    when the shape is not square, when the matrix is empty (0 x 0: it has
    no largest entry to scale the tolerance by) or when the asymmetry
    exceeds :data:`SYMMETRY_RTOL` relative to the largest entry, and
    :class:`NonFinite` for NaN/inf entries.
    """
    return _check_symmetric(m, stacked=False)


def _check_symmetric(m, stacked: bool) -> np.ndarray:
    """:func:`check_symmetric` of one matrix or, when ``stacked``, of each
    matrix of a ``(count, d, d)`` stack, in one pass."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 + stacked or a.shape[-1] != a.shape[-2]:
        what = "a stack of square matrices" if stacked else "a square matrix"
        raise NonSymmetric(f"expected {what}, got shape {a.shape}")
    if a.shape[-1] == 0:
        what = "nonempty matrices" if stacked else "a nonempty matrix"
        raise NonSymmetric(f"expected {what}, got shape {a.shape}")
    # one value per matrix; a NaN or inf entry makes its matrix's largest NaN or inf
    largest = np.abs(a).max(axis=(-2, -1))
    if not all((largest < np.inf).flat):
        raise NonFinite("matrix entries must be finite")
    asym = np.abs(a - a.swapaxes(-1, -2)).max(axis=(-2, -1))
    if any((asym > SYMMETRY_RTOL * largest).flat):
        raise NonSymmetric(f"matrix is not symmetric within relative tolerance {SYMMETRY_RTOL:g}")
    return a


def cholesky(m) -> np.ndarray:
    """Lower-triangular Cholesky factor L with ``L @ L.T == m``.

    Parameters
    ----------
    m : array_like
        Symmetric positive definite matrix.

    Returns
    -------
    ndarray
        Lower triangular factor with strictly positive diagonal.

    Raises
    ------
    NotPositiveDefinite
        If LAPACK cannot factor ``m``, or if any pivot ``L[j, j]**2`` falls
        to ``PIVOT_RTOL`` times the largest diagonal entry of ``m`` or
        below.  The check is relative, so rescaling the input by a positive
        constant cannot change the verdict.
    """
    return _factor(check_symmetric(m))


def _factor(a: np.ndarray) -> np.ndarray:
    """:func:`cholesky` of a matrix already known to be finite and
    symmetric: the factor and the pivot floor, without the validation."""
    diag_scale = float(abs(a.diagonal()).max())
    if diag_scale == 0.0:
        raise NotPositiveDefinite("matrix has a zero diagonal")
    try:
        lower = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"factorization failed: {exc}") from None
    floor = PIVOT_RTOL * diag_scale
    pivots = lower.diagonal() ** 2
    j = int(pivots.argmin())
    if pivots[j] <= floor:
        raise NotPositiveDefinite(
            f"pivot {pivots[j]:.3e} at column {j} is not positive "
            f"(floor {floor:.3e})"
        )
    return lower


def spd_inverse(m) -> np.ndarray:
    """Inverse of a symmetric positive definite matrix.

    Factors ``m = L L^T``, inverts the factor and forms
    ``L^-T L^-1``, then symmetrizes the result so round-off cannot leave a
    lopsided inverse.
    """
    return _inverse_from_factor(cholesky(m))


def symmetric_spd_inverse(a: np.ndarray) -> np.ndarray:
    """:func:`spd_inverse` of a float matrix that is symmetric by
    construction, such as an iterate filled from one triangle: the same
    finiteness check, factor, pivot floor and exceptions, without the
    shape test and the symmetry comparison."""
    if not np.isfinite(a).all():
        raise NonFinite("matrix entries must be finite")
    return _inverse_from_factor(_factor(a))


def _inverse_from_factor(lower: np.ndarray) -> np.ndarray:
    """``L^-T L^-1``, symmetrized, from the lower Cholesky factor ``L`` of
    a validated matrix: the inverse of ``L L^T``."""
    li = np.linalg.inv(lower)
    inv = np.einsum("ki,kj->ij", li, li)
    return 0.5 * (inv + inv.T)


def spectral_norm(m) -> float:
    """Largest absolute eigenvalue of a symmetric matrix.

    For the symmetric operands used throughout this package this equals the
    operator 2-norm.  Inputs failing the symmetry check raise
    :class:`NonSymmetric` rather than being silently symmetrized.
    """
    return float(_largest_abs_eigenvalues(check_symmetric(m)))


def spectral_norms(matrices) -> np.ndarray:
    """:func:`spectral_norm` of each of several symmetric matrices of one
    size, from one stacked eigen-solve.

    ``matrices`` is a sequence of ``d x d`` matrices or a ``(count, d,
    d)`` array.  Each matrix is validated as :func:`check_symmetric`
    validates it, all of them in one pass.  LAPACK solves each matrix of
    the stack on its own, so every norm has the bytes of a separate
    :func:`spectral_norm` call.
    """
    return _largest_abs_eigenvalues(_check_symmetric(matrices, stacked=True))


def _largest_abs_eigenvalues(a: np.ndarray):
    """Of a validated matrix, or of each matrix of a validated stack."""
    return np.abs(np.linalg.eigvalsh(a)).max(axis=-1)
