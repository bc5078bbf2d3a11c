"""Gap bootstrap II.

Row bootstraps capture each row estimator's own variance; what they miss
is the correlation between row estimators.  Sliding windows of whole
columns provide many (dependent) replicates of every row estimator, and
the correlation of those window series -- centred at the full-data
estimate -- estimates exactly the missing piece.  Combining per-row
bootstrap variances with window correlations yields a variance estimate
for any weighted row combination, without the exchangeability assumption
the pairwise-difference route needs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DataArray,
    EstimatorSpec,
    VarianceEstimate,
    _validate_weights,
    apply_estimator,
    apply_estimator_batch,
    psd_project,
)
from .errors import (
    BoundsError,
    ConfigError,
    ConsistencyError,
    DegenerateCorrelationError,
    DimensionError,
    InsufficientDataError,
)

__all__ = [
    "SubseriesEstimates",
    "correlation_matrix",
    "default_block_length",
    "gb2_variance",
    "sampling_window_correlation",
    "subseries_estimates",
    "sym_inverse_sqrt",
    "sym_sqrt",
]


def default_block_length(m: int, scale: float = 2.0) -> int:
    """Rule-of-thumb window length: round(scale * m**(1/3)), clamped to [2, m-1].

    Requires m >= 8 so that the clamped range is non-trivial.

    >>> default_block_length(575)
    17
    """
    if m < 8:
        raise InsufficientDataError(f"need at least 8 columns for an automatic window length, got {m}")
    if scale <= 0:
        raise ConfigError(f"scale must be positive, got {scale}")
    ell = int(np.floor(scale * float(m) ** (1.0 / 3.0) + 0.5))
    return int(min(max(ell, 2), m - 1))


@dataclass(frozen=True)
class SubseriesEstimates:
    """Row estimates on every window of ell consecutive columns.

    grid[i, j - 1] is the row-j estimate on columns i+1 .. i+ell, for
    i = 0 .. I-1 with I = m - ell + 1.  full_estimate is the row
    estimate on all m columns; window deviations are measured from it
    (not from the window average), which keeps the correlations honest
    when the window series drifts.
    """

    grid: np.ndarray
    full_estimates: np.ndarray
    ell: int

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=np.float64)
        f = np.asarray(self.full_estimates, dtype=np.float64)
        if g.ndim != 3:
            raise DimensionError(f"grid must be (I, p, r), got shape {g.shape}")
        if f.shape != g.shape[1:]:
            raise DimensionError(
                f"full_estimates must be (p, r) = {g.shape[1:]}, got shape {f.shape}"
            )
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "full_estimates", f)

    @property
    def count(self) -> int:
        """Number of windows I."""
        return self.grid.shape[0]

    @property
    def p(self) -> int:
        return self.grid.shape[1]

    @property
    def r(self) -> int:
        return self.grid.shape[2]

    def deviations(self, j: int) -> np.ndarray:
        """Window-estimate deviations from the full estimate for row j, (I, r)."""
        if not 1 <= j <= self.p:
            raise BoundsError(f"row index {j} outside 1..{self.p}")
        return self.grid[:, j - 1, :] - self.full_estimates[j - 1]


def subseries_estimates(array: DataArray, estimator: EstimatorSpec, ell: int) -> SubseriesEstimates:
    """Evaluate the estimator on each row restricted to sliding column windows.

    ell must satisfy 1 < ell < m (BoundsError otherwise); there are
    I = m - ell + 1 overlapping windows.
    """
    m = array.m
    if not 1 < ell < m:
        raise BoundsError(f"window length {ell} outside 2..{m - 1}")
    count = m - ell + 1
    grid = np.empty((count, array.p, estimator.dim))
    full = np.empty((array.p, estimator.dim))
    for j in range(1, array.p + 1):
        row = array.row(j)
        full[j - 1] = apply_estimator(estimator, row, f"row {j}")
        windows = np.lib.stride_tricks.sliding_window_view(row, ell, axis=0)
        # sliding_window_view appends the window axis last; batch wants (I, ell, d)
        grid[:, j - 1, :] = apply_estimator_batch(
            estimator, np.moveaxis(windows, -1, 1), f"row {j} windows"
        )
    return SubseriesEstimates(grid=grid, full_estimates=full, ell=int(ell))


def sampling_window_correlation(
    sub: SubseriesEstimates, j: int, k: int, comp_j: int = 1, comp_k: int = 1
) -> float:
    """Correlation of two rows' window-estimate series, centred at the full estimate.

    sum_i a_i b_i / sqrt(sum a_i^2 * sum b_i^2) with a_i, b_i the window
    deviations of the chosen components; clipped to [-1, 1].  Raises
    DegenerateCorrelationError when either series is identically at the
    full estimate (zero denominator).
    """
    r = sub.r
    if not (1 <= comp_j <= r and 1 <= comp_k <= r):
        raise BoundsError(f"component pair ({comp_j}, {comp_k}) outside 1..{r}")
    count = sub.count
    a = sub.deviations(j)[:, comp_j - 1]
    b = sub.deviations(k)[:, comp_k - 1]
    num = float(a @ b) / count
    da = float(a @ a) / count
    db = float(b @ b) / count
    if da == 0.0 or db == 0.0:
        raise DegenerateCorrelationError(
            f"window deviations identically zero for row {j if da == 0.0 else k}; "
            "correlation undefined"
        )
    return float(np.clip(num / np.sqrt(da * db), -1.0, 1.0))


def sym_sqrt(matrix: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition (negatives clipped).

    A stack of matrices, shape (..., r, r), is rooted matrix by matrix.
    """
    w, v = np.linalg.eigh(_check_symmetric(matrix, "sym_sqrt"))
    root = (v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ v.swapaxes(-1, -2)
    return 0.5 * (root + root.swapaxes(-1, -2))


def sym_inverse_sqrt(matrix: np.ndarray, eps: float | None = None) -> np.ndarray:
    """Symmetric inverse square root with an eigenvalue floor.

    Eigenvalues below ``eps`` are raised to it before inversion;
    ``eps`` defaults to 1e-12 * lambda_max, relative so that
    ``sym_inverse_sqrt(c**2 * M) == sym_inverse_sqrt(M) / c`` at any
    scale (1e-12 when that is not positive).  Asymmetric
    input (relative tolerance 1e-10) is rejected.  A stack of matrices,
    shape (..., r, r), is inverted matrix by matrix, each with its own
    default floor.

    >>> sym_inverse_sqrt(np.diag([4.0, 9.0]))
    array([[0.5       , 0.        ],
           [0.        , 0.33333333]])
    >>> sym_inverse_sqrt(np.diag([4e-20, 9e-20]))
    array([[5.00000000e+09, 0.00000000e+00],
           [0.00000000e+00, 3.33333333e+09]])
    """
    w, v = np.linalg.eigh(_check_symmetric(matrix, "sym_inverse_sqrt"))
    if eps is None:
        eps = 1e-12 * w[..., -1:]
        eps = np.where(eps > 0.0, eps, 1e-12)
    out = (v / np.sqrt(np.maximum(w, eps))[..., None, :]) @ v.swapaxes(-1, -2)
    return 0.5 * (out + out.swapaxes(-1, -2))


def _check_symmetric(matrix: np.ndarray, where: str) -> np.ndarray:
    """A square matrix, or a stack of them, as float64; each must be
    symmetric to 1e-10 of max(|entry|, 1)."""
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise DimensionError(f"{where}: expected a square matrix, got shape {m.shape}")
    scale = np.maximum(np.abs(m).max(axis=(-2, -1)), 1.0)
    if np.any(np.abs(m - m.swapaxes(-1, -2)).max(axis=(-2, -1)) > 1e-10 * scale):
        raise ConsistencyError(f"{where}: matrix is not symmetric")
    return m


def _window_correlations(
    sub: SubseriesEstimates, rows=slice(None), eps: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Window correlation matrices R(j, k) of the selected rows (0-based).

    Every row's window deviations form one (I, q r) array, so one GEMM
    gives each row's own moment A_j and every cross moment C_jk; each
    A_j is then inverted (square root) once.  Returns R, shape
    (q, q, r, r) with R[j, k] = A_j^{-1/2} C_jk A_k^{-1/2}, and the
    degenerate rows, shape (q,): those with trace(A_j) == 0, whose R
    rows and columns are zero.  ``eps`` is as for ``sym_inverse_sqrt``.
    """
    dev = sub.grid[:, rows, :] - sub.full_estimates[rows]  # (I, q, r)
    count, q, r = dev.shape
    flat = dev.reshape(count, q * r)
    moments = (flat.T @ flat / count).reshape(q, r, q, r).transpose(0, 2, 1, 3)
    own = moments[np.arange(q), np.arange(q)]  # (q, r, r)
    degenerate = np.trace(own, axis1=1, axis2=2) == 0.0
    whiten = np.zeros_like(own)
    whiten[~degenerate] = sym_inverse_sqrt(own[~degenerate], eps)
    return whiten[:, None] @ moments @ whiten[None, :], degenerate


def correlation_matrix(
    sub: SubseriesEstimates, j: int, k: int, eps: float | None = None
) -> np.ndarray:
    """Matrix generalisation of the window correlation for vector estimators.

    A_j^{-1/2} C_{jk} A_k^{-1/2}, where A_j is the window second-moment
    matrix of row j's deviations and C_{jk} the cross second moment.
    For r = 1 this reduces to sampling_window_correlation up to the
    [-1, 1] clip.  A block with trace(A_j) == 0 has no variability to
    normalise by and raises DegenerateCorrelationError.  ``eps`` is the
    eigenvalue floor of ``sym_inverse_sqrt``.  ``gb2_variance`` computes
    the same matrices for every pair at once.
    """
    for row in (j, k):
        if not 1 <= row <= sub.p:
            raise BoundsError(f"row index {row} outside 1..{sub.p}")
    corr, degenerate = _window_correlations(sub, [j - 1, k - 1], eps)
    if degenerate.any():
        raise DegenerateCorrelationError(
            f"window deviations identically zero for row {j if degenerate[0] else k}; "
            "correlation matrix undefined"
        )
    return corr[0, 1]


def gb2_variance(
    row_variances,
    sub: SubseriesEstimates,
    weights=None,
    degenerate: str = "error",
) -> VarianceEstimate:
    """Combine row bootstrap variances through window correlation matrices.

    sum_{j,k} w_j w_k Sigma_j^{1/2} R(j, k) Sigma_k^{1/2}, where the
    diagonal terms use Sigma_j itself (a series has correlation one with
    itself) and off-diagonal R(j, k) equals ``correlation_matrix``.
    The sum is symmetrised and PSD-projected.

    Cost: one GEMM of the (I, p r) window deviations gives every moment;
    p eigendecompositions of A_j and p of Sigma_j (each batched into one
    call) give the roots; the p^2 terms are summed by one more product.
    No work is done per row pair.

    Parameters
    ----------
    row_variances : array_like, shape (p, r, r)
        Per-row bootstrap variance matrices.
    sub : SubseriesEstimates
        Window estimates on the same array/estimator.
    weights : array_like, optional
        Combination weights (default equal).  Must lie in [0, 1] and sum
        to one.
    degenerate : {"error", "zero"}
        Whether a degenerate row (window deviations identically zero)
        aborts the computation, naming the first such row, or contributes
        zero cross terms to every pair it is in.

    Notes
    -----
    With a single row the result is exactly Sigma_1.

    >>> sub = SubseriesEstimates(grid=[[[1.0], [3.0]], [[3.0], [1.0]]],
    ...                          full_estimates=[[2.0], [2.0]], ell=2)
    >>> gb2_variance([[[4.0]], [[1.0]]], sub).scalar  # rho = -1
    0.25
    """
    if degenerate not in ("error", "zero"):
        raise ConfigError(f"degenerate policy must be 'error' or 'zero', got {degenerate!r}")
    v = np.asarray(row_variances, dtype=np.float64)
    p, r = sub.p, sub.r
    if v.shape != (p, r, r):
        raise DimensionError(
            f"row_variances must be (p, r, r) = {(p, r, r)}, got shape {v.shape}"
        )
    if weights is None:
        w = np.full(p, 1.0 / p)
    else:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (p,):
            raise DimensionError(f"expected {p} weights, got shape {w.shape}")
        _validate_weights(w)

    if p == 1:
        return VarianceEstimate(matrix=v[0].copy(), method="gb2")

    roots = sym_sqrt(v)
    corr, flat = _window_correlations(sub)
    if degenerate == "error" and flat.any():
        raise DegenerateCorrelationError(
            f"window deviations identically zero for row {int(np.argmax(flat)) + 1}; "
            "correlation matrix undefined"
        )
    rows = np.arange(p)
    corr[rows, rows] = 0.0  # diagonal terms use Sigma_j itself
    # scaled[a, (j, b)] = w_j Sigma_j^{1/2}[a, b], so the p^2 cross terms
    # w_j w_k Sigma_j^{1/2} R(j, k) Sigma_k^{1/2} sum to one matrix product
    scaled = (w[:, None, None] * roots).transpose(1, 0, 2).reshape(r, p * r)
    cross = scaled @ corr.transpose(0, 2, 1, 3).reshape(p * r, p * r) @ scaled.T
    acc = np.einsum("j,jab->ab", w * w, v) + cross
    return VarianceEstimate(matrix=psd_project(acc), method="gb2")
