"""Gap bootstrap I.

Each row of the gapped array is bootstrapped on its own, which captures
the within-row variability but says nothing about dependence between
row estimators.  Under approximate exchangeability of rows, the spread
of the p row estimates identifies the common cross-row covariance, and
the variance of the equally weighted row combination is the average row
variance minus the between-row covariance of the p estimates.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ._rand import _thread_map
from .core import DataArray, EstimatorSpec, VarianceEstimate, apply_estimator, psd_project
from .errors import DimensionError, FewRowsWarning, InsufficientDataError
from .resample import BootstrapConfig, _row_workers, _spread, iid_bootstrap_variance

__all__ = [
    "RowEstimates",
    "collect_row_estimates",
    "gb1_variance",
]


@dataclass(frozen=True)
class RowEstimates:
    """Per-row estimates (p, r) and bootstrap variances (p, r, r)."""

    estimates: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.estimates, dtype=np.float64)
        v = np.asarray(self.variances, dtype=np.float64)
        if e.ndim != 2:
            raise DimensionError(f"estimates must be (p, r), got shape {e.shape}")
        p, r = e.shape
        if v.shape != (p, r, r):
            raise DimensionError(
                f"variances must be (p, r, r) = {(p, r, r)}, got shape {v.shape}"
            )
        object.__setattr__(self, "estimates", e)
        object.__setattr__(self, "variances", v)

    @property
    def p(self) -> int:
        return self.estimates.shape[0]


def collect_row_estimates(
    array: DataArray,
    estimator: EstimatorSpec,
    config: BootstrapConfig = BootstrapConfig(),
) -> RowEstimates:
    """Evaluate the estimator and its bootstrap variance on every row.

    Row j draws from a stream keyed by ("row", j) on top of the config
    seed, so the p bootstraps are mutually independent yet reproducible.
    Rows long enough for ``resample._row_workers`` run on
    ``_thread_map``'s threads, with the same result for any count.
    """
    def row(i: int) -> tuple[np.ndarray, np.ndarray]:
        values = array.row(i + 1)
        return (
            apply_estimator(estimator, values, f"row {i + 1}"),
            iid_bootstrap_variance(values, estimator, config, key=("row", i + 1)).matrix,
        )

    rows = _thread_map(row, array.p, _row_workers(array.m, config))
    estimates, variances = zip(*rows)
    return RowEstimates(estimates=np.stack(estimates), variances=np.stack(variances))


def gb1_variance(rows: RowEstimates) -> VarianceEstimate:
    """Combine row variances and cross covariances for the equal-weight mean.

    The paper's combination p^{-2} [ sum_j Sigma_j + sum_{j != k} cov(j, k) ],
    with each cov(j, k) moment-matched to the pooled pairwise differences
    of the row estimates, is in closed form

        mean_j Sigma_j - C0,

    where C0 = p^{-1} sum_j (theta_j - theta_bar)(theta_j - theta_bar)' is
    the between-row covariance of the p row estimates.  The result is
    projected onto the PSD cone (the combination goes negative when rows
    disagree more than their own variances allow).

    >>> rows = RowEstimates(estimates=[[1.0], [3.0]], variances=[[[4.0]], [[4.0]]])
    >>> with warnings.catch_warnings():  # two rows: FewRowsWarning
    ...     warnings.simplefilter("ignore", FewRowsWarning)
    ...     gb1_variance(rows).scalar
    3.0

    Raises InsufficientDataError for p < 2 and emits FewRowsWarning for
    p < 5, where the covariance of so few estimates is very noisy.
    """
    p = rows.p
    if p < 2:
        raise InsufficientDataError(f"gap bootstrap I needs at least 2 rows, got {p}")
    if p < 5:
        warnings.warn(
            f"gap bootstrap I with only {p} rows: cross-covariance rests on "
            f"{p * (p - 1)} pairwise differences",
            FewRowsWarning,
            stacklevel=2,
        )
    combined = rows.variances.mean(axis=0) - _spread(rows.estimates.copy())
    return VarianceEstimate(matrix=psd_project(combined))
