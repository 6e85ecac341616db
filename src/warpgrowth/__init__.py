"""Time-warped growth modeling of boom-bust cycles in price index panels.

The pipeline decomposes each observed trajectory into a steady exponential
growth component (a per-market rate estimated on an automatically selected
undisturbed window) and a nonmonotone time-warping component recovered
from the rescaled log-ratio of the index to its window-start value.
Functional PCA of the warping sample yields interpretable boom and bust
modes, and a Monte Carlo module validates the whole estimation chain
against a known truth.
"""

from .errors import (
    ConfigError,
    DegenerateRegressorError,
    EmptyPanelError,
    EmptySampleError,
    GridError,
    MissingDataError,
    NumericalError,
    RateError,
    SampleSizeError,
    SchemaError,
    WarpGrowthError,
    WindowError,
)
from .fpca import (
    covariance_function,
    eigendecompose,
    fit_fpca,
    mean_function,
    modes_of_variation,
    project_scores,
    score_rate_regression,
)
from .growthfit import (
    ALPHA_FLOOR,
    WindowFits,
    estimate_alphas,
    search_interval,
)
from .simulate import (
    SimTruth,
    convergence_sweep,
    default_truth,
    generate_replicate,
    load_truth,
    run_study,
    save_truth,
)
from .timeseries import (
    Panel,
    TimeGrid,
    month_index,
    month_label,
    parse_panel,
    restrict,
    serialize_panel,
)
from .warping import (
    WarpSet,
    baseline_growth,
    compute_warp_set,
    warps_from_csv,
    warps_to_csv,
)

__version__ = "0.1.0"

__all__ = [
    "ALPHA_FLOOR",
    "ConfigError",
    "DegenerateRegressorError",
    "EmptyPanelError",
    "EmptySampleError",
    "GridError",
    "MissingDataError",
    "NumericalError",
    "Panel",
    "RateError",
    "SampleSizeError",
    "SchemaError",
    "SimTruth",
    "TimeGrid",
    "WarpGrowthError",
    "WarpSet",
    "WindowError",
    "WindowFits",
    "baseline_growth",
    "compute_warp_set",
    "convergence_sweep",
    "covariance_function",
    "default_truth",
    "eigendecompose",
    "estimate_alphas",
    "fit_fpca",
    "generate_replicate",
    "load_truth",
    "mean_function",
    "modes_of_variation",
    "month_index",
    "month_label",
    "parse_panel",
    "project_scores",
    "restrict",
    "run_study",
    "save_truth",
    "score_rate_regression",
    "search_interval",
    "serialize_panel",
    "warps_from_csv",
    "warps_to_csv",
]
