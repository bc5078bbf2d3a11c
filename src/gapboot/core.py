"""Gapped data arrays, the estimator contract, and variance-estimate plumbing.

A multivariate series X_1, ..., X_n recorded in repeating periods of p
consecutive slots is arranged on a p x m grid: entry (j, i) holds
X_{(i-1)p + j}, the j-th slot of period i.  Row j collects the
observations of one slot across all periods; column i is one complete
period.  When the underlying process mixes quickly relative to the
stretch of deleted time between periods, the entries within a row are
approximately i.i.d. and distinct columns are approximately independent,
which is the structure the variance methods in this package exploit.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    BoundsError,
    ConfigError,
    ConsistencyError,
    DataError,
    DimensionError,
    EvaluationError,
)

__all__ = [
    "DataArray",
    "EstimatorSpec",
    "VarianceEstimate",
    "apply_estimator",
    "apply_estimator_batch",
    "build_data_array",
    "componentwise_mean_estimator",
    "mean_estimator",
    "median_estimator",
    "pooled_variance_estimator",
    "psd_project",
    "verify_linearity",
]

# Relative tolerance for declaring a matrix "symmetric enough".
SYMMETRY_RTOL = 1e-10


@dataclass(frozen=True)
class DataArray:
    """A p x m grid of d-dimensional observations.

    Parameters
    ----------
    values : ndarray, shape (m, p, d)
        ``values[i, j]`` is the observation in slot ``j + 1`` of period
        ``i + 1``, i.e. the series element with 1-based index
        ``i*p + j + 1``.  Periods are stored contiguously because whole
        columns are the dominant access pattern of the window methods.
    """

    values: np.ndarray

    def __post_init__(self):
        v = self.values
        if not isinstance(v, np.ndarray) or v.ndim != 3:
            raise DimensionError(
                "values must be an ndarray of shape (m, p, d); "
                f"got {getattr(v, 'shape', None)}"
            )

    @property
    def m(self) -> int:
        """Number of columns (periods)."""
        return self.values.shape[0]

    @property
    def p(self) -> int:
        """Number of rows (slots per period)."""
        return self.values.shape[1]

    @property
    def d(self) -> int:
        """Dimension of each observation."""
        return self.values.shape[2]

    @property
    def n(self) -> int:
        """Total number of observations, m * p."""
        return self.values.shape[0] * self.values.shape[1]

    def row(self, j: int) -> np.ndarray:
        """Observations of slot ``j`` across periods, shape (m, d).

        ``j`` is 1-based; out-of-range values raise BoundsError.
        """
        if not 1 <= j <= self.p:
            raise BoundsError(f"row index {j} outside 1..{self.p}")
        return self.values[:, j - 1, :]

    def series(self) -> np.ndarray:
        """The observations in original time order, shape (n, d)."""
        return self.values.reshape(self.n, self.d)


def build_data_array(series, p: int) -> DataArray:
    """Fold a series of length m*p into its p x m grid, m = ``len(series) // p``.

    Parameters
    ----------
    series : array_like, shape (n,) or (n, d)
        Observations in time order.
    p : int
        Slots per period.

    Raises
    ------
    DimensionError
        If the length is not m * p (message reports expected vs actual)
        or fewer than two periods result.
    DataError
        If any entry is NaN or infinite.
    """
    arr = np.asarray(series, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise DimensionError(f"series must be 1- or 2-dimensional, got ndim={arr.ndim}")
    if p < 1:
        raise DimensionError(f"p must be >= 1, got {p}")
    n = arr.shape[0]
    m = n // p
    if m < 2:
        raise DimensionError(f"need at least 2 periods, got m={m}")
    if n != m * p:
        raise DimensionError(f"series length mismatch: expected m*p={m * p}, actual {n}")
    if not np.isfinite(arr).all():
        bad = int(np.flatnonzero(~np.isfinite(arr).all(axis=1))[0])
        raise DataError(f"non-finite value at series position {bad + 1}")
    return DataArray(values=arr.reshape(m, p, arr.shape[1]).copy())


@dataclass(frozen=True)
class EstimatorSpec:
    """The estimator contract every variance method consumes.

    ``evaluate`` maps a stack of B ordered collections of d-vectors,
    shape (B, k, d), to their B estimates, shape (B, r); for r = 1 the
    shape (B,) is accepted too.  It must be deterministic and treat the B
    collections independently: one sample is a stack of B = 1.  It may
    be called at the same time from several threads on different rows,
    so it must not mutate shared state.

    A custom estimator is one such callable, here a mean that drops the
    smallest and the largest pooled coordinate:

    >>> def trimmed_mean(stack):
    ...     flat = np.sort(stack.reshape(stack.shape[0], -1), axis=1)
    ...     return flat[:, 1:-1].mean(axis=1)
    >>> est = EstimatorSpec("trimmed_mean", 1, trimmed_mean)
    >>> apply_estimator(est, np.array([[1.0], [2.0], [3.0], [100.0]]))
    array([2.5])
    """

    name: str
    dim: int
    evaluate: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        if self.dim < 1:
            raise DimensionError(f"estimator dim must be >= 1, got {self.dim}")


def apply_estimator(estimator: EstimatorSpec, sample: np.ndarray, where: str = "sample") -> np.ndarray:
    """Evaluate the estimator on one collection, shape (k, d), returning
    shape (r,): ``apply_estimator_batch`` on a stack of one."""
    return apply_estimator_batch(estimator, np.asarray(sample)[None], where)[0]


def apply_estimator_batch(estimator: EstimatorSpec, stack: np.ndarray, where: str = "batch") -> np.ndarray:
    """Evaluate on a (B, k, d) stack, returning (B, r).

    Exceptions from the user function are wrapped in EvaluationError with
    ``where`` naming the offending input (row index, window, ...); so are
    outputs of the wrong shape or with non-finite values.
    """
    B = stack.shape[0]
    try:
        out = np.asarray(estimator.evaluate(stack), dtype=np.float64)
    except Exception as exc:  # noqa: BLE001 - wrapping is the contract
        raise EvaluationError(f"estimator '{estimator.name}' failed on {where}: {exc}") from exc
    if out.shape == (B,) and estimator.dim == 1:
        out = out[:, None]
    if out.shape != (B, estimator.dim):
        raise EvaluationError(
            f"estimator '{estimator.name}' returned shape {out.shape} on {where}, "
            f"expected {(B, estimator.dim)}"
        )
    if not np.isfinite(out).all():
        raise EvaluationError(f"estimator '{estimator.name}' returned non-finite values on {where}")
    return out


# ---------------------------------------------------------------------------
# Ready-made estimators
# ---------------------------------------------------------------------------

def mean_estimator() -> EstimatorSpec:
    """Grand mean of all coordinates of all observations (r = 1)."""
    return EstimatorSpec(
        name="mean",
        dim=1,
        evaluate=lambda s: s.reshape(s.shape[0], -1).mean(axis=1),
    )


def componentwise_mean_estimator(d: int) -> EstimatorSpec:
    """Mean vector of d-dimensional observations (r = d)."""
    return EstimatorSpec(name="componentwise_mean", dim=d, evaluate=lambda s: s.mean(axis=1))


def pooled_variance_estimator() -> EstimatorSpec:
    """Plug-in variance of the pooled coordinates (r = 1, divisor k)."""
    return EstimatorSpec(
        name="pooled_variance",
        dim=1,
        evaluate=lambda s: s.reshape(s.shape[0], -1).var(axis=1),
    )


def median_estimator() -> EstimatorSpec:
    """Median of the pooled coordinates (r = 1); deliberately non-linear."""
    return EstimatorSpec(
        name="median",
        dim=1,
        evaluate=lambda s: np.median(s.reshape(s.shape[0], -1), axis=1),
    )


# ---------------------------------------------------------------------------
# Checks shared by the variance methods
# ---------------------------------------------------------------------------

def _row_weights(weights, p: int) -> np.ndarray:
    """Row-combination weights of length p: 1/p each when ``weights`` is
    None, otherwise a (p,) vector in [0, 1] summing to one."""
    if weights is None:
        return np.full(p, 1.0 / p)
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (p,):
        raise DimensionError(f"expected {p} weights, got shape {w.shape}")
    if not np.all((w >= 0.0) & (w <= 1.0)):  # NaN fails both comparisons
        raise ConsistencyError("weights must lie in [0, 1]")
    if abs(float(w.sum()) - 1.0) > 1e-12:
        raise ConsistencyError(f"weights must sum to 1, got {float(w.sum())!r}")
    return w


def _check_symmetric(matrix, where: str) -> np.ndarray:
    """A square matrix, or a stack of them, as float64; each must be
    symmetric to SYMMETRY_RTOL of max(|entry|, 1)."""
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise DimensionError(f"{where}: expected a square matrix, got shape {m.shape}")
    scale = np.maximum(np.abs(m).max(axis=(-2, -1)), 1.0)
    asym = np.abs(m - m.swapaxes(-1, -2)).max(axis=(-2, -1))
    bad = np.flatnonzero(asym > SYMMETRY_RTOL * scale)
    if bad.size:
        raise ConsistencyError(
            f"{where} asymmetric: max|M - M'| = {np.ravel(asym)[bad[0]]:.3e} "
            f"(scale {np.ravel(scale)[bad[0]]:.3e})"
        )
    return m


def _check_int(value, name: str) -> int:
    """``value`` as an int if it is an int or numpy integer (a bool is
    not); otherwise ConfigError naming the field ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _check_degenerate_policy(degenerate: str) -> None:
    if degenerate not in ("error", "zero"):
        raise ConfigError(f"degenerate policy must be 'error' or 'zero', got {degenerate!r}")


def _check_window(ell: int, m: int) -> int:
    """The window length ell of a method with m columns, if 1 < ell < m."""
    if not 1 < ell < m:
        raise BoundsError(f"window length {ell} outside 2..{m - 1}")
    return ell


# ---------------------------------------------------------------------------
# Variance estimates
# ---------------------------------------------------------------------------

def psd_project(matrix: np.ndarray) -> np.ndarray:
    """Symmetrise and clip negative eigenvalues to zero.

    Already-PSD input is returned after exact symmetrisation only, so
    algebraic identities that produce PSD matrices survive bit-for-bit.
    """
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    sym = 0.5 * (m + m.T)
    return _clip_negative(sym, np.linalg.eigvalsh(sym))


def _clip_negative(sym: np.ndarray, eigvals: np.ndarray) -> np.ndarray:
    """The symmetric ``sym`` with its negative eigenvalues set to zero,
    given its ascending ``eigvals``; PSD input is returned as it is."""
    if eigvals[0] >= 0.0:
        return sym
    w, v = np.linalg.eigh(sym)
    w = np.clip(w, 0.0, None)
    out = (v * w) @ v.T
    return 0.5 * (out + out.T)


@dataclass(frozen=True)
class VarianceEstimate:
    """A PSD variance-covariance estimate for an r-dimensional estimator.

    The constructor validates shape and symmetry (relative tolerance
    1e-10), rejects matrices whose smallest eigenvalue is materially
    negative, and stores the PSD projection so downstream square roots
    never see a negative diagonal.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionError(f"variance matrix must be square, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise DataError("variance matrix contains non-finite entries")
        _check_symmetric(m, "variance matrix")
        sym = 0.5 * (m + m.T)
        eigvals = np.linalg.eigvalsh(sym)
        lam_max = max(float(eigvals[-1]), 0.0)
        if float(eigvals[0]) < -1e-10 * max(lam_max, 1e-300):
            raise ConsistencyError(
                f"variance matrix has eigenvalue {float(eigvals[0]):.3e}, "
                f"beyond roundoff of lambda_max = {lam_max:.3e}"
            )
        object.__setattr__(self, "matrix", _clip_negative(sym, eigvals))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def standard_errors(self) -> np.ndarray:
        """Square roots of the diagonal, shape (r,)."""
        return np.sqrt(np.clip(np.diag(self.matrix), 0.0, None))

    @property
    def scalar(self) -> float:
        """The single variance for r = 1 estimators."""
        if self.dim != 1:
            raise DimensionError(f"scalar requested from a {self.dim}-dimensional estimate")
        return float(self.matrix[0, 0])


def verify_linearity(array: DataArray, estimator: EstimatorSpec) -> float:
    """Euclidean norm of theta_hat(full) - p^{-1} sum_j theta_hat(row j).

    Zero (up to floating-point roundoff) exactly when the full-data
    estimator is the equal-weight combination of its row versions, which
    is the premise of the row-combination variance formulas.  Means
    satisfy this identically; medians generally do not.
    """
    full = apply_estimator(estimator, array.series(), "full series")
    rows = np.stack(
        [apply_estimator(estimator, array.row(j), f"row {j}") for j in range(1, array.p + 1)]
    )
    resid = full - _row_weights(None, array.p) @ rows
    return float(np.linalg.norm(resid))
