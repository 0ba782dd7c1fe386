"""Exception types raised across the package.

Everything derives from DrmeanError so callers can catch the package's
failures with a single except clause.  Fitting problems are split by
cause: a singular design is not the same failure as an iteration that
never settles, and calling code (the simulation harness in particular)
records them separately.
"""


class DrmeanError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgumentError(DrmeanError, ValueError):
    """An argument fails a documented precondition."""


class SingularDesignError(DrmeanError):
    """Design matrix is rank deficient on the rows that carry weight."""


class NonconvergenceError(DrmeanError):
    """Iterative fit hit its cap or diverged (separation included)."""


class InvalidWeightError(DrmeanError):
    """Unit weights or fitted probabilities violate a positivity requirement."""


class NoRootError(DrmeanError):
    """Scalar root search exhausted its bracket without a sign change."""


class UndefinedEstimatorError(DrmeanError):
    """Estimator is undefined on this input (e.g. zero respondents)."""


class DegenerateInputError(DrmeanError):
    """Input carries no usable variation (e.g. all values identical)."""


class ConfigError(DrmeanError):
    """Configuration file is malformed or fails validation."""


class DataError(DrmeanError):
    """Data file is malformed or inconsistent."""
