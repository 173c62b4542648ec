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


def check_symmetric(m, rtol: float = SYMMETRY_RTOL) -> np.ndarray:
    """Validate that ``m`` is a finite symmetric square matrix.

    Returns the input as a float ndarray.  Raises :class:`NonSymmetric`
    when the shape is not square or the asymmetry exceeds ``rtol`` relative
    to the largest entry, and :class:`NonFinite` for NaN/inf entries.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NonSymmetric(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NonFinite("matrix entries must be finite")
    scale = float(np.max(np.abs(a)))
    if float(np.max(np.abs(a - a.T))) > rtol * scale:
        raise NonSymmetric(
            f"matrix is not symmetric within relative tolerance {rtol:g}"
        )
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
    a = check_symmetric(m)
    diag_scale = float(np.max(np.abs(np.diag(a))))
    if diag_scale == 0.0:
        raise NotPositiveDefinite("matrix has a zero diagonal")
    try:
        lower = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"factorization failed: {exc}") from None
    floor = PIVOT_RTOL * diag_scale
    pivots = np.diag(lower) ** 2
    j = int(np.argmin(pivots))
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
    li = np.linalg.inv(cholesky(m))
    inv = np.einsum("ki,kj->ij", li, li)
    return 0.5 * (inv + inv.T)


def spectral_norm(m) -> float:
    """Largest absolute eigenvalue of a symmetric matrix.

    For the symmetric operands used throughout this package this equals the
    operator 2-norm.  Inputs failing the symmetry check raise
    :class:`NonSymmetric` rather than being silently symmetrized.
    """
    a = check_symmetric(m)
    return float(np.max(np.abs(np.linalg.eigvalsh(a))))
