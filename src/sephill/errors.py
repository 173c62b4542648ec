"""Exception types shared across the library.

Everything raised on purpose derives from :class:`SepHillError`, so callers
(including the command-line layer) can distinguish it from genuine bugs.
The numerical failures, where valid input met a degenerate sample or
matrix, derive from :class:`NumericFailure`, on which the command line
exits 4.
"""


class SepHillError(Exception):
    """Base class for all errors raised by this package."""


class NumericFailure(SepHillError):
    """Valid input met a degenerate sample, matrix or iterate."""


class DimensionMismatch(SepHillError):
    """Operands have incompatible shapes or dimensions."""


class NonFinite(SepHillError):
    """Input contains NaN or infinite entries."""


class NonSymmetric(NumericFailure):
    """Matrix is not symmetric within tolerance."""


class NotPositiveDefinite(NumericFailure):
    """Matrix failed a positive-definiteness check."""


class DegenerateSample(NumericFailure):
    """Sample cannot support the requested estimate (too few rows, or a
    covariance that is not positive definite)."""


class KOutOfRange(SepHillError):
    """Tail index k not an integer, or outside the admissible range
    1 <= k <= n - 1."""


class NonPositivePivot(NumericFailure):
    """The (k+1)-th largest distance is not strictly positive, so tail
    log-ratios are undefined."""


class NonPositiveDistance(NumericFailure):
    """Distances must be strictly positive for log-ratio comparisons."""


class LengthMismatch(SepHillError):
    """Paired sequences differ in length."""


class DomainError(SepHillError):
    """Argument lies outside the mathematical domain of the function."""


class BetaOutOfRange(SepHillError):
    """Tail-fraction exponent must lie strictly between 0 and 1."""


class TooFewValues(SepHillError):
    """Not enough values to compute the requested diagnostic."""


class ConfigError(SepHillError):
    """Invalid experiment or command configuration."""


class FailureCapExceeded(SepHillError):
    """Experiment aborted because replication failures exceeded the cap."""


class NotConverged(NumericFailure):
    """Iterative procedure did not reach tolerance within the iteration
    budget.  Carries the last iterate for inspection."""

    def __init__(self, message, last_iterate=None, iterations=0):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.iterations = iterations


class SingularIterate(NumericFailure):
    """Fixed-point iteration produced a singular or indefinite matrix."""
