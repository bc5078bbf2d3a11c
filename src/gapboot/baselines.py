"""Reference methods: subsampling, a column block bootstrap, and the
naive independent-column estimate.

All three operate on whole columns of the gapped array, treating each
period as one sampling unit, and serve as comparison points for the gap
bootstrap methods.  The block bootstrap runs on ``resample``'s loop.
"""
from __future__ import annotations

import numpy as np

from .core import (
    DataArray,
    EstimatorSpec,
    VarianceEstimate,
    _check_int,
    _check_window,
    apply_estimator,
    apply_estimator_batch,
)
from .errors import BoundsError, ConfigError
from .resample import BootstrapConfig, _block_estimates, _resample_estimates, _spread, _window_estimates

__all__ = [
    "block_bootstrap_variance",
    "naive_column_variance",
    "subsampling_variance",
]


def subsampling_variance(array: DataArray, estimator: EstimatorSpec, ell: int) -> VarianceEstimate:
    """Subsampling estimate from overlapping windows of ell whole columns.

    (ell * p / n) * I^{-1} sum_i (theta_i - theta_full)(theta_i - theta_full)'
    over the I = m - ell + 1 windows, theta_i evaluated on the window's
    ell*p observations in series order.  The leading factor rescales the
    window-level sampling variability to full-sample size.
    """
    _check_window(ell, array.m)
    theta = _window_estimates(array.values, estimator, ell, "subsampling windows")
    full = apply_estimator(estimator, array.series(), "full series")
    dev = theta - full
    cov = dev.T @ dev / len(theta)
    return VarianceEstimate(matrix=(ell * array.p / array.n) * cov)


def block_bootstrap_variance(
    array: DataArray,
    estimator: EstimatorSpec,
    ell: int,
    config: BootstrapConfig = BootstrapConfig(),
) -> VarianceEstimate:
    """Moving-block bootstrap over columns.

    Each replicate concatenates ceil(m / ell) uniformly chosen
    overlapping blocks of ell consecutive columns, truncated to m
    columns, and re-evaluates the estimator on the resulting series.
    The replicate spread (divisor B) is the variance estimate.  With
    ell = 1 this is the i.i.d. bootstrap over columns.  Only the
    "monte_carlo" mode is supported; another raises ConfigError, as does
    an ell that is not an integer.
    """
    if not 1 <= _check_int(ell, "block length") < array.m:
        raise BoundsError(f"block length {ell} outside 1..{array.m - 1}")
    if config.mode != "monte_carlo":
        raise ConfigError(f"the block bootstrap draws its resamples; mode {config.mode!r} is not supported")
    replicates = _resample_estimates if estimator.finish is None else _block_estimates
    theta = replicates(array.values, estimator, config, ("block_bootstrap",), ell)
    return VarianceEstimate(matrix=_spread(theta))


def naive_column_variance(
    array: DataArray, estimator: EstimatorSpec
) -> tuple[VarianceEstimate, np.ndarray]:
    """Treat per-column estimates as i.i.d. draws of the full estimator.

    Returns ``(estimate, discrepancy)`` where the estimate is
    m^{-1} * sample covariance (divisor m - 1) of the per-column
    estimates, and the discrepancy is theta_full minus the average
    column estimate -- zero for linear estimators, and a diagnostic of
    how far this shortcut is from consistent otherwise.
    """
    full = apply_estimator(estimator, array.series(), "full series")
    theta = apply_estimator_batch(estimator, array.values, "columns")
    centre = theta.mean(axis=0)
    dev = theta - centre
    cov = dev.T @ dev / (array.m - 1)
    estimate = VarianceEstimate(matrix=cov / array.m)
    return estimate, full - centre
