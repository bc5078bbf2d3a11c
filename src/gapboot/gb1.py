"""Gap bootstrap I.

Each row of the gapped array is bootstrapped on its own, which captures
the within-row variability but says nothing about dependence between
row estimators.  Under approximate exchangeability of rows, the average
squared pairwise difference of the row estimates identifies the common
cross-row covariance, and the two ingredients combine into a variance
estimate for the equally weighted row combination.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ._rand import _gated_workers, _thread_map
from .core import DataArray, EstimatorSpec, VarianceEstimate, apply_estimator, psd_project
from .errors import DimensionError, FewRowsWarning, InsufficientDataError
from .resample import BootstrapConfig, iid_bootstrap_variance

__all__ = [
    "RowEstimates",
    "collect_row_estimates",
    "gb1_variance",
    "pairwise_difference_variance",
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

    @property
    def r(self) -> int:
        return self.estimates.shape[1]


def collect_row_estimates(
    array: DataArray,
    estimator: EstimatorSpec,
    config: BootstrapConfig = BootstrapConfig(),
) -> RowEstimates:
    """Evaluate the estimator and its bootstrap variance on every row.

    Row j draws from a stream keyed by ("row", j) on top of the config
    seed, so the p bootstraps are mutually independent yet reproducible.
    Rows whose resamples hold at least ``_MIN_THREAD_DRAWS`` indices run
    on ``_thread_map``'s threads, with the same result for any count.
    """
    def row(i: int) -> tuple[np.ndarray, np.ndarray]:
        values = array.row(i + 1)
        return (
            apply_estimator(estimator, values, f"row {i + 1}"),
            iid_bootstrap_variance(values, estimator, config, key=("row", i + 1)).matrix,
        )

    m = array.m
    # m**m exhaustive resamples; past m = 7 every row refuses them anyway
    resamples = m ** min(m, 8) if config.mode == "exhaustive" else config.replicates
    rows = _thread_map(row, array.p, _gated_workers(m * resamples), split_chunks=True)
    estimates, variances = zip(*rows)
    return RowEstimates(estimates=np.stack(estimates), variances=np.stack(variances))


def pairwise_difference_variance(estimates: np.ndarray) -> np.ndarray:
    """Average outer product of row-estimate differences over ordered pairs.

    (1 / (p (p-1))) * sum_{j != k} (theta_j - theta_k)(theta_j - theta_k)'.
    Under row exchangeability this estimates Sigma_j + Sigma_k - 2*Cov,
    the variance of the difference of two row estimators.
    """
    e = np.asarray(estimates, dtype=np.float64)
    if e.ndim != 2:
        raise DimensionError(f"estimates must be (p, r), got shape {e.shape}")
    p = e.shape[0]
    if p < 2:
        raise InsufficientDataError(f"need at least 2 rows for pairwise differences, got {p}")
    diff = e[:, None, :] - e[None, :, :]
    return np.einsum("jka,jkb->ab", diff, diff) / (p * (p - 1))


def gb1_variance(rows: RowEstimates) -> VarianceEstimate:
    """Combine row variances and cross covariances for the equal-weight mean.

    p^{-2} [ sum_j Sigma_j + sum_{j != k} cov(j, k) ] with the closed form
    sum_{j != k} cov(j, k) = (p - 1) sum_j Sigma_j - p (p - 1) vtilde / 2,
    followed by projection onto the PSD cone (the combination can go
    negative when rows disagree more than their own variances allow).

    Raises InsufficientDataError for p < 2 and emits FewRowsWarning for
    p < 5, where the p (p - 1) pairwise differences are very noisy.
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
    vtilde = pairwise_difference_variance(rows.estimates)
    total = rows.variances.sum(axis=0)
    cross_total = (p - 1) * total - 0.5 * p * (p - 1) * vtilde
    combined = (total + cross_total) / p**2
    return VarianceEstimate(matrix=psd_project(combined))
