"""Reference methods: subsampling, a column block bootstrap, and the
naive independent-column estimate.

All three operate on whole columns of the gapped array, treating each
period as one sampling unit, and serve as comparison points for the gap
bootstrap methods.
"""
from __future__ import annotations

import numpy as np

from ._rand import derived_stream
from .core import (
    DataArray,
    EstimatorSpec,
    VarianceEstimate,
    _check_window,
    apply_estimator,
    apply_estimator_batch,
)
from .errors import BoundsError
from .resample import BootstrapConfig, _chunk_ranges

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
    m, p = array.m, array.p
    _check_window(ell, m)
    count = m - ell + 1
    series = array.series()
    full = apply_estimator(estimator, series, "full series")
    # Window i is series[(i-1)*p : (i-1+ell)*p]; sliding_window_view
    # appends the window axis last, batch wants (I, ell*p, d).
    windows = np.lib.stride_tricks.sliding_window_view(series, ell * p, axis=0)[::p]
    windows = np.moveaxis(windows, -1, 1)
    theta = np.empty((count, estimator.dim))
    for lo, hi in _chunk_ranges(count, ell * p * array.d * 8):
        theta[lo:hi] = apply_estimator_batch(
            estimator, windows[lo:hi], f"subsampling windows {lo + 1}..{hi}"
        )
    dev = theta - full
    cov = dev.T @ dev / count
    scaled = (ell * p / array.n) * cov
    return VarianceEstimate(matrix=scaled)


def block_bootstrap_variance(
    array: DataArray,
    estimator: EstimatorSpec,
    ell: int,
    config: BootstrapConfig = BootstrapConfig(),
    key: tuple = (),
) -> VarianceEstimate:
    """Moving-block bootstrap over columns.

    Each replicate concatenates ceil(m / ell) uniformly chosen
    overlapping blocks of ell consecutive columns, truncated to m
    columns, and re-evaluates the estimator on the resulting series.
    The replicate spread (divisor B) is the variance estimate.  With
    ell = 1 this is the i.i.d. bootstrap over columns.
    """
    m, p, d = array.m, array.p, array.d
    if not 1 <= ell < m:
        raise BoundsError(f"block length {ell} outside 1..{m - 1}")
    reps = config.replicates
    nblocks = -(-m // ell)  # ceil
    rng = derived_stream(config.seed, "block_bootstrap", *key)
    columns = array.values.reshape(m, p * d)
    offsets = np.arange(ell)
    theta = np.empty((reps, estimator.dim))
    for lo, hi in _chunk_ranges(reps, array.values.nbytes):
        # Consecutive draws concatenate to one (B, nblocks) draw of block
        # starts; each start expands to ell columns, truncated to m.
        starts = rng.integers(0, m - ell + 1, size=(hi - lo, nblocks), dtype=np.int64)
        cols = (starts[:, :, None] + offsets).reshape(hi - lo, nblocks * ell)[:, :m]
        stack = columns.take(cols, axis=0).reshape(hi - lo, m * p, d)
        theta[lo:hi] = apply_estimator_batch(
            estimator, stack, f"block resamples {lo + 1}..{hi}"
        )
    dev = theta - theta.mean(axis=0)
    cov = dev.T @ dev / reps
    return VarianceEstimate(matrix=cov)


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
