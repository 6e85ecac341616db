"""Exception types raised across the warpgrowth package.

``exit_code`` is each class's command-line exit code: 2 input error (the
default), 3 numerical failure, 4 configuration error.
"""


class WarpGrowthError(Exception):
    """Base class for all warpgrowth-specific errors."""
    exit_code = 2


class GridError(WarpGrowthError):
    """Time grid is malformed: non-consecutive months, empty window, too few points."""


class SchemaError(WarpGrowthError):
    """Input file violates the expected schema (header, cells, types, encoding)."""


class EmptyPanelError(WarpGrowthError):
    """An operation left the panel with no usable series."""


class MissingDataError(WarpGrowthError):
    """Missing values inside a window where complete data is required."""


class WindowError(WarpGrowthError):
    """Requested fit window is too short or no admissible window exists."""


class RateError(WarpGrowthError):
    """Growth rate is outside its valid domain (alpha must be positive)."""
    exit_code = 3


class EmptySampleError(WarpGrowthError):
    """A sample statistic was requested on an empty sample."""
    exit_code = 3


class SampleSizeError(WarpGrowthError):
    """Sample too small for the requested estimator (covariance needs n >= 2)."""
    exit_code = 3


class NumericalError(WarpGrowthError):
    """A numerical routine received input outside its tolerance or failed to converge."""
    exit_code = 3


class DegenerateRegressorError(WarpGrowthError):
    """Regressor has zero variance; the regression line is undefined."""
    exit_code = 3


class ConfigError(WarpGrowthError):
    """Configuration is inconsistent (e.g. simulation truth incompatible with cap)."""
    exit_code = 4
