"""Exception and warning types shared across the package."""


class GapBootstrapError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(GapBootstrapError, ValueError):
    """Shape or length mismatch between related inputs."""


class DataError(GapBootstrapError, ValueError):
    """Invalid data values (non-finite entries, malformed records)."""


class BoundsError(GapBootstrapError, IndexError):
    """Index outside its valid range."""


class InsufficientDataError(GapBootstrapError, ValueError):
    """The operation needs more observations than were provided."""


class ConfigError(GapBootstrapError, ValueError):
    """Invalid configuration value or combination."""


class EvaluationError(GapBootstrapError, RuntimeError):
    """A user-supplied estimator failed or returned malformed output."""


class DegenerateCorrelationError(GapBootstrapError, ArithmeticError):
    """Sampling-window correlation undefined: a row's windows are round-off of its estimate."""


class RankError(GapBootstrapError, ValueError):
    """Normal-equation matrix is singular or too ill-conditioned to solve."""


class ConsistencyError(GapBootstrapError, ValueError):
    """An internal identity was violated (weights, symmetry)."""


class FewRowsWarning(UserWarning):
    """Gap bootstrap I applied with very few rows; the covariance of so few
    row estimates may be too noisy to stabilise the cross-covariance."""
