"""Synthetic gapped-series generators and Monte Carlo truth.

Six model families, each producing a p x m gapped array by simulating a
longer parent series and deleting ``gap_q`` steps between consecutive
periods:

* ``ar2``        univariate AR(2) around a constant mean
* ``ma2``        univariate MA(2) around a constant mean
* ``periodic``   white noise around a slot-dependent trigonometric mean
* ``mar``        4-dimensional vector AR(1)
* ``mma``        4-dimensional vector MA(2)
* ``mperiodic``  4-dimensional noise around a slot-dependent mean

The univariate families draw innovations with standard deviation
``UNIVARIATE_SD`` = 0.2**2 = 0.04; the multivariate families draw
unit-scale innovations with covariance ``Sigma0`` equal to the identity
or the Toeplitz matrix (-0.55)^|i-j|.  These scales reproduce the
reference true-standard-error magnitudes the acceptance gates check.
Each family carries a default gap long enough that distinct columns of
the array are effectively independent; pass ``gap_q=0`` to keep the
parent contiguous instead.

All six families take one path through ``generate_series``: a (T, d)
innovation array (d = 1 for the univariate families), the family's
filter along axis 0, the mean, and the gap cut, returned as the
``DataArray`` of that (m, p, d) grid.  The periodic families skip the
filter and the cut and draw the grid itself.

``ma2`` is a finite filter, ``np.convolve([1, b1, b2], eps)`` cut to the
parent's length: the call ``scipy.signal.lfilter`` makes for a filter
with denominator ``[1]``, so the bits are lfilter's.  ``ar2`` and ``mar``
share one feedback recursion, run in numpy by blocks of steps
(``_recursion``).  It is the step-by-step map summed in another order, so
``ar2`` agrees with ``lfilter`` and ``mar`` with a per-step VAR(1) loop to
a few ulps of the series' largest value, not bit for bit.  No module of
gapboot imports scipy.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _rand
from ._rand import derived_stream
from .core import DataArray, EstimatorSpec, _check_int, apply_estimator
from .errors import ConfigError, DimensionError

__all__ = [
    "FAMILY_GAPS",
    "ModelSpec",
    "generate_series",
    "monte_carlo_true_se",
    "row_mean_spread",
]

#: Steps discarded before the retained stretch of every parent series.
DEFAULT_BURN_IN = 500

#: Component means of the multivariate families.
MULTIVARIATE_MEAN = (0.2, 0.3, 0.4, 0.5)

#: Vector-AR(1) transition matrix (lower triangular, spectral radius 0.6).
MAR_TRANSITION = (
    (0.5, 0.0, 0.0, 0.0),
    (0.1, 0.6, 0.0, 0.0),
    (0.0, 0.0, -0.2, 0.0),
    (0.0, 0.1, 0.0, 0.4),
)

#: ``ar2`` is x_t = a1 x_{t-1} + a2 x_{t-2} + e_t, ``ma2`` is
#: x_t = e_t + b1 e_{t-1} + b2 e_{t-2}, with (a1, a2) and (b1, b2) these.
AR_COEFFICIENTS = (0.8, 0.1)
MA_COEFFICIENTS = (0.3, 0.5)

#: Entries per block of ``_recursion``: ``_BLOCK // d`` steps of a d-vector.
_BLOCK = 64


def _recursion_kernels(phis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Toeplitz and carry matrices of y_t = sum_l Phi_l y_{t-l} + x_t,
    y_t in R^d, for ``phis`` = (Phi_1, ..., Phi_P) of shape (P, d, d), over
    blocks of ``_BLOCK // d`` steps flattened step-major.  With H_0 = I,
    H_k = sum_r H_{k-r} Phi_r and H_k = 0 for k < 0, Toeplitz block (i, j)
    is H_{i-j}, and carry block (i, l), step i's response to the y_{-l} its
    block starts from, is sum_{r >= l} H_{i+l-r} Phi_r."""
    p, d, _ = phis.shape
    steps = _BLOCK // d
    h = np.zeros((p + steps, d, d))  # h[p + k] is H_k
    h[p] = np.eye(d)
    for k in range(1, steps):
        h[p + k] = sum(h[p + k - r] @ phis[r - 1] for r in range(1, p + 1))
    lags = np.subtract.outer(np.arange(steps), np.arange(steps))
    toeplitz = h[p + np.maximum(lags, -1)].transpose(0, 2, 1, 3).reshape(_BLOCK, _BLOCK)
    carry = [sum(h[p + lag - r + np.arange(steps)] @ phis[r - 1] for r in range(lag, p + 1))
             for lag in range(1, p + 1)]
    return toeplitz, np.stack(carry, axis=2).reshape(_BLOCK, p * d)


def _recursion(x: np.ndarray, kernels: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """y_t = sum_l Phi_l y_{t-l} + x_t from a zero start, for x of shape
    (T, d), with ``kernels = _recursion_kernels(phis)``: the step-by-step
    recursion to a few ulps of max |y|.

    Each full block's response from a zero start is one GEMM against the
    Toeplitz matrix.  The blocks' end states (their last P steps, reversed)
    then follow from a prefix scan, doubling the reach with the squared
    block transition at each of about log2(blocks) steps, and GEMMs of at
    most ``_BLOCK`` blocks, whose temporaries fit in 32 KiB, add to each
    block the response to the state it carries in.  The tail of fewer
    than ``_BLOCK // d`` steps takes the same two terms on its own.
    """
    toeplitz, carry = kernels
    d = x.shape[1]
    p = carry.shape[1] // d
    y = np.empty_like(x)
    flat, x = y.reshape(-1), x.reshape(-1)
    blocks, rest = divmod(len(x), _BLOCK)
    cut = len(x) - rest
    full = flat[:cut].reshape(blocks, _BLOCK)
    np.matmul(x[:cut].reshape(blocks, _BLOCK), toeplitz.T, out=full)
    state = full.reshape(blocks, _BLOCK // d, d)[:, :-p - 1:-1].copy().reshape(blocks, p * d)
    step, reach = carry.reshape(-1, d, p * d)[:-p - 1:-1].reshape(p * d, p * d), 1
    while reach < blocks:
        state[reach:] += state[:-reach] @ step.T
        step, reach = step @ step, 2 * reach
    later, carried = full[1:], state[:-1]
    for start in range(0, blocks - 1, _BLOCK):
        later[start:start + _BLOCK] += carried[start:start + _BLOCK] @ carry.T
    flat[cut:] = toeplitz[:rest, :rest] @ x[cut:]
    if blocks:
        flat[cut:] += carry[:rest] @ state[-1]
    return y


#: The kernels of the recursive families: ``ar2`` (d = 1, P = 2) and ``mar`` (d = 4, P = 1).
_KERNELS = {"ar2": _recursion_kernels(np.reshape(AR_COEFFICIENTS, (2, 1, 1))),
            "mar": _recursion_kernels(np.reshape(MAR_TRANSITION, (1, 4, 4)))}


#: Innovation SD of the univariate families, the square of a nominal 0.2,
#: written 0.2**2 (0.04000000000000001) so the series keep their bits.
UNIVARIATE_SD = 0.2**2

#: rho of the multivariate families' Toeplitz innovation covariance
#: (-rho)^|i-j|, and the covariance's Cholesky factor.
TOEPLITZ_RHO = 0.55
_TOEPLITZ_CHOLESKY = np.linalg.cholesky(
    (-TOEPLITZ_RHO) ** np.abs(np.subtract.outer(np.arange(4), np.arange(4)))
)

#: Default deleted-gap lengths making columns effectively independent.
FAMILY_GAPS = {
    "ar2": 300,
    "ma2": 10,
    "periodic": 0,
    "mar": 60,
    "mma": 10,
    "mperiodic": 0,
}

_UNIVARIATE = ("ar2", "ma2", "periodic")
_MULTIVARIATE = ("mar", "mma", "mperiodic")
_INNOVATIONS = ("normal", "centered_exponential")


def _mma_coefficients(seed: int) -> tuple[tuple, tuple]:
    """The two 4x4 MA coefficient matrices with fixed random fill-ins.

    Phi_1 has diagonal (1, 2, 2, 2); Phi_2 is one eighth of a unit lower
    triangular matrix.  The strictly-lower entries are Uniform(0, 1)
    draws from ``seed``, generated row-major for Phi_1 then Phi_2.
    """
    rng = np.random.default_rng(seed)
    lower = [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)]
    phi1 = np.diag([1.0, 2.0, 2.0, 2.0])
    for i, j in lower:
        phi1[i, j] = rng.uniform()
    phi2 = np.eye(4)
    for i, j in lower:
        phi2[i, j] = rng.uniform()
    phi2 /= 8.0
    return tuple(map(tuple, phi1)), tuple(map(tuple, phi2))


#: The vector-MA matrices (Phi_1, Phi_2) of ``mma``, their fill-ins drawn from seed 212.
_MMA_MATRICES = tuple(np.asarray(phi) for phi in _mma_coefficients(212))


@dataclass(frozen=True)
class ModelSpec:
    """One synthetic-data configuration; ``gap_q`` defaults to the
    family's ``FAMILY_GAPS`` entry, and the rest of the model is fixed by
    the module constants.  Unknown families raise ConfigError."""

    family: str
    n: int
    p: int
    innovation: str = "normal"
    gap_q: int | None = None
    cov_kind: str = "toeplitz"

    def __post_init__(self):
        if self.family not in _UNIVARIATE + _MULTIVARIATE:
            raise ConfigError(f"unknown model family {self.family!r}")
        if self.innovation not in _INNOVATIONS:
            raise ConfigError(f"unknown innovation {self.innovation!r}")
        if self.cov_kind not in ("identity", "toeplitz"):
            raise ConfigError(f"unknown innovation covariance {self.cov_kind!r}")
        if _check_int(self.n, "n") < 1 or _check_int(self.p, "p") < 1 or self.n % self.p != 0:
            raise DimensionError(f"n = {self.n} must be a positive multiple of p = {self.p}")
        if self.n // self.p < 2:
            raise DimensionError(f"n = {self.n}, p = {self.p} gives fewer than 2 columns")
        if self.gap_q is None:
            object.__setattr__(self, "gap_q", FAMILY_GAPS[self.family])
        if _check_int(self.gap_q, "gap_q") < 0:
            raise ConfigError(f"gap_q must be >= 0, got {self.gap_q}")

    @property
    def mu(self) -> float:
        """Mean of the univariate families: 1.0 for ``periodic``, else 0.1."""
        return 1.0 if self.family == "periodic" else 0.1

    @property
    def m(self) -> int:
        return self.n // self.p

    @property
    def d(self) -> int:
        return 4 if self.family in _MULTIVARIATE else 1


def _key(seed) -> tuple:
    """A seed as a stream-key tuple: ``s`` and ``(s,)`` are the same key."""
    return seed if isinstance(seed, tuple) else (seed,)


def _innovations(rng: np.random.Generator, kind: str, size) -> np.ndarray:
    if kind == "normal":
        return rng.standard_normal(size)
    # Exponential(1) shifted to mean zero: same variance, skewness 2.
    x = rng.exponential(1.0, size)
    x -= 1.0
    return x


def _gap_cut(parent: np.ndarray, m: int, p: int, q: int) -> np.ndarray:
    """The retained observations of ``parent``, whose step t is
    ``parent[t]``: a read-only (m, p, ...) view, entry (i, j) at step
    i (p + q) + j.  The last is step (m - 1)(p + q) + p - 1, the parent's."""
    stride = parent.strides[0]
    return np.lib.stride_tricks.as_strided(
        parent, (m, p) + parent.shape[1:], ((p + q) * stride,) + parent.strides, writeable=False
    )


def _slot_phase(p: int) -> np.ndarray:
    t = 2.0 * np.pi * np.arange(1, p + 1) / p
    return np.cos(t) + np.sin(t)


def generate_series(spec: ModelSpec, seed) -> DataArray:
    """Simulate one gapped array.

    Parameters
    ----------
    spec : ModelSpec
    seed : int or tuple of int/str
        Stream key; it maps to a deterministic Philox stream, so equal
        keys reproduce equal arrays.
    """
    rng = derived_stream(*_key(seed), "series")
    m, p, q = spec.m, spec.p, spec.gap_q
    burn = DEFAULT_BURN_IN
    # The periodic families' slot-indexed mean needs no parent: the gap
    # only discards i.i.d. noise, so they draw the (m, p) grid directly.
    periodic = spec.family in ("periodic", "mperiodic")
    shape = (m, p) if periodic else (burn + (m - 1) * (p + q) + p,)
    if spec.d == 1:
        eta = UNIVARIATE_SD * _innovations(rng, spec.innovation, shape)[..., None]
        mean = np.asarray([spec.mu])
    else:
        chol = np.eye(4) if spec.cov_kind == "identity" else _TOEPLITZ_CHOLESKY
        eta = _innovations(rng, spec.innovation, shape + (4,)) @ chol.T
        mean = np.asarray(MULTIVARIATE_MEAN)
    if periodic:
        return DataArray(mean + _slot_phase(p)[:, None] + eta)

    if spec.family in _KERNELS:
        parent = _recursion(eta, _KERNELS[spec.family])
    elif spec.family == "ma2":
        parent = np.convolve([1.0, *MA_COEFFICIENTS], eta[:, 0])[: len(eta), None]
    else:
        phi1, phi2 = _MMA_MATRICES
        parent = eta.copy()
        parent[1:] += eta[:-1] @ phi1.T
        parent[2:] += eta[:-2] @ phi2.T
    return DataArray(mean + _gap_cut(parent[burn:], m, p, q))


def _check_truth_runs(runs: int) -> None:
    if _check_int(runs, "truth_runs") < 100:
        raise ConfigError(f"need at least 100 Monte Carlo runs for a usable truth, got {runs}")


def _truth_task(spec: ModelSpec, estimator: EstimatorSpec, seed):
    """``task(r)``, the estimate on truth run r, keyed ``(*seed, "truth", r)``.
    A task draws from its own keyed stream and returns only its own
    estimate, so the runs may go on any threads in any order."""
    key = _key(seed) + ("truth",)
    return lambda r: apply_estimator(
        estimator, generate_series(spec, key + (r,)).series(), f"truth run {r + 1}"
    )


def _true_se(estimates) -> np.ndarray:
    """The componentwise standard deviation (divisor runs - 1) of the truth
    runs' estimates, in run order."""
    return np.stack(estimates).std(axis=0, ddof=1)


def monte_carlo_true_se(spec: ModelSpec, estimator: EstimatorSpec, runs: int, seed) -> np.ndarray:
    """Monte Carlo standard error of the estimator under the model, shape (r,).

    Simulates ``runs`` independent arrays (runs >= 100), run r keyed
    ``(*seed, "truth", r)``, one per task on ``_thread_map``'s
    ``_rand._WORKERS`` threads, and reports the componentwise standard
    deviation (divisor runs - 1) of the estimates.
    """
    _check_truth_runs(runs)
    return _true_se(_rand._thread_map(_truth_task(spec, estimator, seed), runs, _rand._WORKERS))


def row_mean_spread(spec: ModelSpec, runs: int, seed) -> float:
    """Largest standardised spread between a row's mean, across repeated
    simulations, and the average row mean.

    A quick self-check of the gapped layout: families with a constant
    mean must show row means agreeing within Monte Carlo error, while the
    periodic families must not.  Simulates ``runs`` >= 2 arrays (an
    integer; ConfigError otherwise), run r keyed ``(*seed, "rowcheck", r)``,
    one per task on ``_thread_map``'s ``_rand._WORKERS`` threads.
    """
    if _check_int(runs, "runs") < 2:
        raise ConfigError(f"need at least 2 runs to compare row means, got {runs}")
    key = _key(seed) + ("rowcheck",)
    task = lambda r: generate_series(spec, key + (r,)).values.mean(axis=0)
    rows = np.stack(_rand._thread_map(task, runs, _rand._WORKERS))
    means = rows.mean(axis=0)
    ses = rows.std(axis=0, ddof=1) / np.sqrt(runs)
    centred = means - means.mean(axis=0, keepdims=True)
    return float(np.max(np.abs(centred) / np.maximum(ses, 1e-300)))
