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
from typing import Callable, Sequence

import numpy as np

from .errors import (
    BoundsError,
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
    "combination_weights",
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
    """A p x m grid of d-dimensional observations plus gap metadata.

    Parameters
    ----------
    values : ndarray, shape (m, p, d)
        ``values[i, j]`` is the observation in slot ``j + 1`` of period
        ``i + 1``, i.e. the series element with 1-based index
        ``i*p + j + 1``.  Periods are stored contiguously because whole
        columns are the dominant access pattern of the window methods.
    gap_q : int
        Number of unobserved steps of the parent series between the end
        of one period and the start of the next.  Pure metadata: no
        computation reads it, but carrying it along keeps provenance of
        generated datasets inspectable.
    """

    values: np.ndarray
    gap_q: int = 0

    def __post_init__(self):
        v = self.values
        if not isinstance(v, np.ndarray) or v.ndim != 3:
            raise DimensionError(
                "values must be an ndarray of shape (m, p, d); "
                f"got {getattr(v, 'shape', None)}"
            )
        if self.gap_q < 0:
            raise DimensionError(f"gap_q must be >= 0, got {self.gap_q}")

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


def build_data_array(series, p: int, m: int | None = None, gap_q: int = 0) -> DataArray:
    """Fold a series of length m*p into its p x m grid.

    Parameters
    ----------
    series : array_like, shape (n,) or (n, d)
        Observations in time order.
    p : int
        Slots per period.
    m : int, optional
        Number of periods.  Defaults to ``len(series) // p``; the length
        must equal ``m * p`` either way.
    gap_q : int
        Deleted steps between periods, recorded as metadata.

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
    if m is None:
        m = n // p
    if m < 2:
        raise DimensionError(f"need at least 2 periods, got m={m}")
    if n != m * p:
        raise DimensionError(f"series length mismatch: expected m*p={m * p}, actual {n}")
    if not np.isfinite(arr).all():
        bad = int(np.flatnonzero(~np.isfinite(arr).all(axis=1))[0])
        raise DataError(f"non-finite value at series position {bad + 1}")
    return DataArray(values=arr.reshape(m, p, arr.shape[1]).copy(), gap_q=int(gap_q))


@dataclass(frozen=True)
class EstimatorSpec:
    """The estimator contract every variance method consumes.

    ``evaluate`` maps an ordered collection of d-vectors, shape (k, d),
    to an r-vector and must be deterministic.  ``evaluate_batch``, when
    provided, maps a stacked (B, k, d) input to (B, r) and must agree
    with looping ``evaluate`` over the first axis; the Monte Carlo paths
    use it to avoid Python-level loops.  ``weights`` are the linearity
    weights of the row combination (w_1..w_p); ``None`` means equal
    weights wherever a combination is formed.
    """

    name: str
    dim: int
    evaluate: Callable[[np.ndarray], np.ndarray]
    evaluate_batch: Callable[[np.ndarray], np.ndarray] | None = None
    weights: np.ndarray | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise DimensionError(f"estimator dim must be >= 1, got {self.dim}")
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=np.float64)
            _validate_weights(w)
            object.__setattr__(self, "weights", w)


def _validate_weights(w: np.ndarray) -> None:
    if w.ndim != 1:
        raise ConsistencyError("weights must be a 1-d vector")
    if np.any(w < 0.0) or np.any(w > 1.0):
        raise ConsistencyError("weights must lie in [0, 1]")
    if abs(float(w.sum()) - 1.0) > 1e-12:
        raise ConsistencyError(f"weights must sum to 1, got {float(w.sum())!r}")


def combination_weights(estimator: EstimatorSpec, p: int) -> np.ndarray:
    """Row-combination weights of length p (equal weights when unset)."""
    if estimator.weights is None:
        return np.full(p, 1.0 / p)
    w = np.asarray(estimator.weights, dtype=np.float64)
    if w.shape != (p,):
        raise DimensionError(f"expected {p} weights, got shape {w.shape}")
    _validate_weights(w)
    return w


def apply_estimator(estimator: EstimatorSpec, sample: np.ndarray, where: str = "sample") -> np.ndarray:
    """Evaluate the estimator on one collection, returning shape (r,).

    Exceptions from the user function are wrapped in EvaluationError with
    ``where`` naming the offending input (row index, window, ...).
    """
    try:
        out = np.asarray(estimator.evaluate(sample), dtype=np.float64)
    except Exception as exc:  # noqa: BLE001 - wrapping is the contract
        raise EvaluationError(f"estimator '{estimator.name}' failed on {where}: {exc}") from exc
    out = np.atleast_1d(np.squeeze(out))
    if out.ndim == 0:
        out = out[None]
    if out.shape != (estimator.dim,):
        raise EvaluationError(
            f"estimator '{estimator.name}' returned shape {out.shape} on {where}, "
            f"expected ({estimator.dim},)"
        )
    if not np.isfinite(out).all():
        raise EvaluationError(f"estimator '{estimator.name}' returned non-finite values on {where}")
    return out


def apply_estimator_batch(estimator: EstimatorSpec, stack: np.ndarray, where: str = "batch") -> np.ndarray:
    """Evaluate on a (B, k, d) stack, returning (B, r).

    Uses ``evaluate_batch`` when available, otherwise loops ``evaluate``.
    """
    B = stack.shape[0]
    if estimator.evaluate_batch is not None:
        try:
            out = np.asarray(estimator.evaluate_batch(stack), dtype=np.float64)
        except Exception as exc:  # noqa: BLE001
            raise EvaluationError(
                f"estimator '{estimator.name}' batch evaluation failed on {where}: {exc}"
            ) from exc
        if out.shape == (B,) and estimator.dim == 1:
            out = out[:, None]
        if out.shape != (B, estimator.dim):
            raise EvaluationError(
                f"estimator '{estimator.name}' batch returned shape {out.shape} on {where}, "
                f"expected ({B}, {estimator.dim})"
            )
        if not np.isfinite(out).all():
            raise EvaluationError(
                f"estimator '{estimator.name}' batch returned non-finite values on {where}"
            )
        return out
    out = np.empty((B, estimator.dim))
    for b in range(B):
        out[b] = apply_estimator(estimator, stack[b], f"{where}[{b + 1}]")
    return out


# ---------------------------------------------------------------------------
# Ready-made estimators
# ---------------------------------------------------------------------------

def mean_estimator(weights: Sequence[float] | None = None) -> EstimatorSpec:
    """Grand mean of all coordinates of all observations (r = 1)."""
    return EstimatorSpec(
        name="mean",
        dim=1,
        evaluate=lambda x: np.asarray(x, dtype=np.float64).mean(),
        evaluate_batch=lambda s: s.reshape(s.shape[0], -1).mean(axis=1)[:, None],
        weights=None if weights is None else np.asarray(weights, dtype=np.float64),
    )


def componentwise_mean_estimator(d: int, weights: Sequence[float] | None = None) -> EstimatorSpec:
    """Mean vector of d-dimensional observations (r = d)."""
    return EstimatorSpec(
        name="componentwise_mean",
        dim=d,
        evaluate=lambda x: np.asarray(x, dtype=np.float64).reshape(-1, d).mean(axis=0),
        evaluate_batch=lambda s: s.mean(axis=1),
        weights=None if weights is None else np.asarray(weights, dtype=np.float64),
    )


def pooled_variance_estimator() -> EstimatorSpec:
    """Plug-in variance of the pooled coordinates (r = 1, divisor k)."""

    def _ev(x):
        flat = np.asarray(x, dtype=np.float64).ravel()
        return flat.var()

    def _ev_batch(stack):
        flat = stack.reshape(stack.shape[0], -1)
        return flat.var(axis=1)[:, None]

    return EstimatorSpec(name="pooled_variance", dim=1, evaluate=_ev, evaluate_batch=_ev_batch)


def median_estimator() -> EstimatorSpec:
    """Median of the pooled coordinates (r = 1); deliberately non-linear."""
    return EstimatorSpec(
        name="median",
        dim=1,
        evaluate=lambda x: np.median(np.asarray(x, dtype=np.float64)),
        evaluate_batch=lambda s: np.median(s.reshape(s.shape[0], -1), axis=1)[:, None],
    )


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
    eigvals = np.linalg.eigvalsh(sym)
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
    method: str = ""

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionError(f"variance matrix must be square, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise DataError("variance matrix contains non-finite entries")
        scale = max(float(np.abs(m).max()), 1.0)
        asym = float(np.abs(m - m.T).max())
        if asym > SYMMETRY_RTOL * scale:
            raise ConsistencyError(
                f"variance matrix asymmetric: max|M - M'| = {asym:.3e} (scale {scale:.3e})"
            )
        sym = 0.5 * (m + m.T)
        eigvals = np.linalg.eigvalsh(sym)
        lam_max = max(float(eigvals[-1]), 0.0)
        if float(eigvals[0]) < -1e-10 * max(lam_max, 1e-300):
            raise ConsistencyError(
                f"variance matrix has eigenvalue {float(eigvals[0]):.3e}, "
                f"beyond roundoff of lambda_max = {lam_max:.3e}"
            )
        object.__setattr__(self, "matrix", psd_project(sym))

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
    """Euclidean norm of theta_hat(full) - sum_j w_j theta_hat(row j).

    Zero (up to floating-point roundoff) exactly when the full-data
    estimator is the weighted combination of its row versions, which is
    the premise of the row-combination variance formulas.  Means satisfy
    this identically; medians generally do not.
    """
    full = apply_estimator(estimator, array.series(), "full series")
    rows = np.stack(
        [apply_estimator(estimator, array.row(j), f"row {j}") for j in range(1, array.p + 1)]
    )
    w = combination_weights(estimator, array.p)
    resid = full - w @ rows
    return float(np.linalg.norm(resid))
