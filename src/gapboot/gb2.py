"""Gap bootstrap II.

Row bootstraps capture each row estimator's own variance; what they miss
is the correlation between row estimators.  Sliding windows of whole
columns provide many (dependent) replicates of every row estimator, and
the correlation of those window series -- centred at the full-data
estimate -- estimates exactly the missing piece.  Combining per-row
bootstrap variances with window correlations yields a variance estimate
for a row combination without the exchangeability assumption gap
bootstrap I needs.  ``gb2_variance`` combines the rows with equal
weights; the kernel ``_gb2_combine`` takes the row weights and the
degeneracy policy, and ``od`` runs it with its slot weights W_k folded
into the window projections and with either policy.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DataArray,
    EstimatorSpec,
    VarianceEstimate,
    _check_int,
    _check_symmetric,
    _check_window,
    apply_estimator,
)
from .errors import (
    BoundsError,
    DegenerateCorrelationError,
    DimensionError,
    InsufficientDataError,
)
from .resample import _window_estimates

__all__ = [
    "SubseriesEstimates",
    "correlation_matrix",
    "default_block_length",
    "gb2_variance",
    "subseries_estimates",
    "sym_inverse_sqrt",
    "sym_sqrt",
]

DEGENERATE_RTOL = 1e-9  # the one degeneracy rule; see _window_correlations

def default_block_length(m: int) -> int:
    """Rule-of-thumb window length round(2 * m**(1/3)).

    Requires an integer m >= 8; from there the value lies in 2..m-1 (4 at m = 8).

    >>> default_block_length(575)
    17
    """
    if _check_int(m, "m") < 8:
        raise InsufficientDataError(f"need at least 8 columns for an automatic window length, got {m}")
    return int(np.floor(2.0 * float(m) ** (1.0 / 3.0) + 0.5))


@dataclass(frozen=True)
class SubseriesEstimates:
    """Row estimates on every window of ell consecutive columns.

    grid[i, j - 1] is the row-j estimate on columns i+1 .. i+ell, for
    i = 0 .. I-1 with I = m - ell + 1 (ell itself is not kept).
    full_estimates[j - 1] is the row-j estimate on all m columns; window
    deviations are measured from it (not from the window average), which
    keeps the correlations honest when the window series drifts.
    """

    grid: np.ndarray
    full_estimates: np.ndarray

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
    def p(self) -> int:
        return self.grid.shape[1]

    @property
    def r(self) -> int:
        return self.grid.shape[2]


def subseries_estimates(array: DataArray, estimator: EstimatorSpec, ell: int) -> SubseriesEstimates:
    """Evaluate the estimator on each row restricted to sliding column windows.

    ell must satisfy 1 < ell < m (BoundsError otherwise); there are
    I = m - ell + 1 overlapping windows.
    """
    _check_window(ell, array.m)
    grid = np.empty((array.m - ell + 1, array.p, estimator.dim))
    full = np.empty((array.p, estimator.dim))
    for j in range(1, array.p + 1):
        row = array.row(j)
        grid[:, j - 1, :] = _window_estimates(row, estimator, ell, f"row {j} windows")
        full[j - 1] = apply_estimator(estimator, row, f"row {j}")
    return SubseriesEstimates(grid=grid, full_estimates=full)


def sym_sqrt(matrix: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition (negatives clipped).

    A stack of matrices, shape (..., r, r), is rooted matrix by matrix.
    """
    w, v = np.linalg.eigh(_check_symmetric(matrix, "sym_sqrt"))
    root = (v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ v.swapaxes(-1, -2)
    return 0.5 * (root + root.swapaxes(-1, -2))


def sym_inverse_sqrt(matrix: np.ndarray) -> np.ndarray:
    """Symmetric inverse square root with an eigenvalue floor.

    Eigenvalues below 1e-12 * lambda_max are raised to it before
    inversion; the floor is relative so that
    ``sym_inverse_sqrt(c**2 * M) == sym_inverse_sqrt(M) / c`` at any
    scale (1e-12 when lambda_max is not positive).  Asymmetric
    input (relative tolerance 1e-10) is rejected.  A stack of matrices,
    shape (..., r, r), is inverted matrix by matrix, each with its own
    floor.

    >>> sym_inverse_sqrt(np.diag([4.0, 9.0]))
    array([[0.5       , 0.        ],
           [0.        , 0.33333333]])
    >>> sym_inverse_sqrt(np.diag([4e-20, 9e-20]))
    array([[5.00000000e+09, 0.00000000e+00],
           [0.00000000e+00, 3.33333333e+09]])
    """
    w, v = np.linalg.eigh(_check_symmetric(matrix, "sym_inverse_sqrt"))
    eps = 1e-12 * w[..., -1:]
    eps = np.where(eps > 0.0, eps, 1e-12)
    out = (v / np.sqrt(np.maximum(w, eps))[..., None, :]) @ v.swapaxes(-1, -2)
    return 0.5 * (out + out.swapaxes(-1, -2))


def _window_correlations(dev: np.ndarray, centre, degenerate: str, label) -> np.ndarray:
    """R[..., j, k] = A_j^{-1/2} C_jk A_k^{-1/2}, shape (..., q, q, r, r).

    One GEMM of the window deviations ``dev``, shape (..., I, q, r),
    gives each row's own moment A_j and every cross moment C_jk; each A_j
    is inverted (square root) once.  Row j is degenerate when
    trace(A_j) <= (DEGENERATE_RTOL ||centre_j||)**2, ``centre`` (broadcast
    to (..., q, r)) being the full-data estimate the windows deviate from:
    its RMS window deviation is round-off of that estimate.  Under
    ``degenerate="error"`` the first, in C order, raises
    DegenerateCorrelationError naming ``label(*its index)``; under
    ``"zero"`` its rows and columns of R are zero.
    """
    *batch, count, q, r = dev.shape
    flat = dev.reshape(*batch, count, q * r)
    moments = (flat.swapaxes(-1, -2) @ flat / count).reshape(*batch, q, r, q, r).swapaxes(-3, -2)
    own = moments[..., np.arange(q), np.arange(q), :, :]  # (..., q, r, r)
    scale = np.square(np.broadcast_to(centre, (*batch, q, r))).sum(axis=-1)
    flat_rows = np.trace(own, axis1=-2, axis2=-1) <= DEGENERATE_RTOL**2 * scale
    if degenerate == "error" and flat_rows.any():
        raise DegenerateCorrelationError(
            f"window deviations carry no variation for {label(*np.argwhere(flat_rows)[0])}; "
            "correlation undefined"
        )
    whiten = np.zeros_like(own)
    whiten[~flat_rows] = sym_inverse_sqrt(own[~flat_rows])
    return whiten[..., :, None, :, :] @ moments @ whiten[..., None, :, :, :]


def _gb2_combine(variances, dev, weights, centre, degenerate: str, label) -> np.ndarray:
    """sum_{j,k} w_j w_k Sigma_j^{1/2} R(j, k) Sigma_k^{1/2} of the (..., q, r, r)
    ``variances``, shape (..., r, r); the other arguments are as for
    ``_window_correlations``, and ``weights`` has shape (q,).  The sum is
    U M U', M a whitened Gram matrix with its diagonal blocks raised to I
    (the diagonal terms use Sigma_j itself), so it is PSD up to rounding.
    """
    *batch, q, r, _ = variances.shape
    corr = _window_correlations(dev, centre, degenerate, label)
    rows = np.arange(q)
    corr[..., rows, rows, :, :] = 0.0  # diagonal terms use Sigma_j itself
    # scaled[a, (j, b)] = w_j Sigma_j^{1/2}[a, b], so the q^2 cross terms
    # w_j w_k Sigma_j^{1/2} R(j, k) Sigma_k^{1/2} sum to one matrix product
    roots = weights[:, None, None] * sym_sqrt(variances)
    scaled = roots.swapaxes(-3, -2).reshape(*batch, r, q * r)
    cross = scaled @ corr.swapaxes(-3, -2).reshape(*batch, q * r, q * r) @ scaled.swapaxes(-1, -2)
    return np.einsum("j,...jab->...ab", weights * weights, variances) + cross


def correlation_matrix(sub: SubseriesEstimates, j: int, k: int) -> np.ndarray:
    """Matrix generalisation of the window correlation for vector estimators.

    A_j^{-1/2} C_{jk} A_k^{-1/2}, where A_j is the window second-moment
    matrix of row j's deviations and C_{jk} the cross second moment.
    For r = 1 this is sum_i a_i b_i / sqrt(sum a_i^2 * sum b_i^2), the
    correlation of the two rows' window deviations, unclipped.  A
    degenerate row (``_window_correlations``) raises
    DegenerateCorrelationError.  ``gb2_variance`` computes the same
    matrices for every pair at once.
    """
    for row in (j, k):
        if not 1 <= _check_int(row, "row index") <= sub.p:
            raise BoundsError(f"row index {row} outside 1..{sub.p}")
    rows = [j - 1, k - 1]
    full = sub.full_estimates[rows]
    label = lambda i: f"row {rows[i] + 1}"
    return _window_correlations(sub.grid[:, rows] - full, full, "error", label)[0, 1]


def gb2_variance(row_variances, sub: SubseriesEstimates) -> VarianceEstimate:
    """Combine row bootstrap variances through window correlation matrices.

    p^{-2} sum_{j,k} Sigma_j^{1/2} R(j, k) Sigma_k^{1/2}, the variance of
    the equal-weight row mean, where the diagonal terms use Sigma_j itself
    (a series has correlation one with itself) and off-diagonal R(j, k)
    equals ``correlation_matrix``.
    The sum is PSD by construction; ``VarianceEstimate`` clips rounding.

    Cost: one GEMM of the (I, p r) window deviations gives every moment;
    p eigendecompositions of A_j and p of Sigma_j (each batched into one
    call) give the roots; the p^2 terms are summed by one more product.
    No work is done per row pair.

    Parameters
    ----------
    row_variances : array_like, shape (p, r, r)
        Per-row bootstrap variance matrices.
    sub : SubseriesEstimates
        Window estimates on the same array/estimator.  A degenerate row
        (see ``_window_correlations``) raises DegenerateCorrelationError
        naming the first such row.

    Notes
    -----
    A single row takes the same path: the result is Sigma_1 bit for bit,
    and a degenerate row raises DegenerateCorrelationError naming row 1.

    >>> sub = SubseriesEstimates(grid=[[[1.0], [3.0]], [[3.0], [1.0]]],
    ...                          full_estimates=[[2.0], [2.0]])
    >>> gb2_variance([[[4.0]], [[1.0]]], sub).scalar  # rho = -1
    0.25

    A constant row of 0.1s is degenerate: its window means differ from
    its full mean only by round-off (1.4e-17 here).

    >>> from gapboot import build_data_array, mean_estimator
    >>> rows = np.array([np.arange(12.0) % 5, np.full(12, 0.1), np.arange(12.0) % 3])
    >>> sub = subseries_estimates(build_data_array(rows.T.ravel(), p=3), mean_estimator(), ell=4)
    >>> gb2_variance(np.ones((3, 1, 1)), sub)
    Traceback (most recent call last):
    gapboot.errors.DegenerateCorrelationError: window deviations carry no variation for row 2; correlation undefined
    """
    v = np.asarray(row_variances, dtype=np.float64)
    p, r = sub.p, sub.r
    if v.shape != (p, r, r):
        raise DimensionError(
            f"row_variances must be (p, r, r) = {(p, r, r)}, got shape {v.shape}"
        )
    dev = sub.grid - sub.full_estimates
    acc = _gb2_combine(
        v, dev, np.full(p, 1.0 / p), sub.full_estimates, "error", lambda j: f"row {j + 1}"
    )
    return VarianceEstimate(matrix=acc)
