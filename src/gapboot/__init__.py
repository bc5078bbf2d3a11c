"""Variance estimation for regularly gapped time series.

Observations arriving in repeating daily/periodic blocks with a fixed
stretch of missing time between blocks form a p x m array whose rows are
nearly i.i.d. samples and whose columns are nearly independent.  This
package estimates the sampling variance of estimators computed on such
arrays: two gap bootstrap methods (per-row resampling with either a
between-row-covariance or a window-correlation cross-term), subsampling and
moving-block baselines, a simulation harness, and an origin-destination
split-proportion application.
"""
from .baselines import block_bootstrap_variance, naive_column_variance, subsampling_variance
from .core import (
    DataArray,
    EstimatorSpec,
    VarianceEstimate,
    apply_estimator,
    apply_estimator_batch,
    build_data_array,
    componentwise_mean_estimator,
    mean_estimator,
    median_estimator,
    pooled_variance_estimator,
    psd_project,
    verify_linearity,
)
from .errors import (
    BoundsError,
    ConfigError,
    ConsistencyError,
    DataError,
    DegenerateCorrelationError,
    DimensionError,
    EvaluationError,
    FewRowsWarning,
    GapBootstrapError,
    InsufficientDataError,
    RankError,
)
from .gb1 import RowEstimates, collect_row_estimates, gb1_variance
from .gb2 import (
    SubseriesEstimates,
    correlation_matrix,
    default_block_length,
    gb2_variance,
    subseries_estimates,
    sym_inverse_sqrt,
    sym_sqrt,
)
from .models import ModelSpec, generate_series, monte_carlo_true_se
from .od import (
    DEFAULT_SPLIT_THETA,
    ODDataset,
    ODFit,
    PARAM_NAMES,
    SplitProportions,
    od_standard_errors,
    read_od_csv,
    surrogate_od_dataset,
    write_od_csv,
)
from .resample import BootstrapConfig, bootstrap_replicates, iid_bootstrap_variance
from .study import METHODS, StudyConfig, StudyResult, run_study, write_study_csv, write_study_json

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
