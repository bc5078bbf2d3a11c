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

Univariate presets interpret ``sigma`` as a variance-like scale: the
innovation standard deviation is ``sigma ** 2`` (0.04 at the default
sigma = 0.2).  The multivariate families draw unit-scale innovations
with covariance ``Sigma0`` equal to the identity or the Toeplitz matrix
(-rho)^|i-j|.  Each family carries a default gap long enough that
distinct columns of the array are effectively independent; pass
``gap_q=0`` to keep the parent contiguous instead.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

from ._rand import derived_stream
from .core import DataArray, EstimatorSpec, _check_int, apply_estimator, build_data_array
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

#: Seed fixing the randomly drawn lower-triangular entries of the
#: vector-MA coefficient matrices; drawn once, stored with the package.
MMA_PRESET_SEED = 212

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


@dataclass(frozen=True)
class ModelSpec:
    """Fully resolved description of one synthetic-data configuration.

    ``ModelSpec(family, n, p, **fields)`` takes the family's defaults for
    every field not given: ``gap_q`` its ``FAMILY_GAPS`` entry and ``mu``
    1.0 for ``periodic``, 0.1 otherwise.  Unknown families raise
    ConfigError.
    """

    family: str
    n: int
    p: int
    innovation: str = "normal"
    gap_q: int | None = None
    sigma: float = 0.2
    mu: float | None = None
    ar: tuple[float, float] = (0.8, 0.1)
    ma: tuple[float, float] = (0.3, 0.5)
    mean: tuple[float, ...] = MULTIVARIATE_MEAN
    transition: tuple = MAR_TRANSITION
    ma_mats: tuple = ()
    cov_kind: str = "toeplitz"
    rho: float = 0.55
    burn_in: int = DEFAULT_BURN_IN

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
        if self.mu is None:
            object.__setattr__(self, "mu", 1.0 if self.family == "periodic" else 0.1)
        if _check_int(self.gap_q, "gap_q") < 0:
            raise ConfigError(f"gap_q must be >= 0, got {self.gap_q}")
        if not 0.0 <= self.rho < 1.0:
            raise ConfigError(f"rho must lie in [0, 1), got {self.rho}")
        if self.family == "ar2":
            a1, a2 = self.ar
            roots = np.roots([-a2, -a1, 1.0]) if a2 != 0.0 else np.roots([-a1, 1.0])
            if np.any(np.abs(roots) <= 1.0 + 1e-12):
                raise ConfigError(f"AR coefficients {self.ar} are not stationary")
        if self.family == "mar":
            psi = np.asarray(self.transition, dtype=np.float64)
            if psi.shape != (4, 4):
                raise DimensionError(f"transition must be 4x4, got {psi.shape}")
            radius = float(np.max(np.abs(np.linalg.eigvals(psi))))
            if radius >= 1.0 - 1e-12:
                raise ConfigError(f"transition spectral radius {radius:.3f} is not < 1")
        if self.family == "mma" and not self.ma_mats:
            object.__setattr__(self, "ma_mats", _mma_coefficients(MMA_PRESET_SEED))

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
    return rng.exponential(1.0, size) - 1.0


def _sigma0_cholesky(spec: ModelSpec) -> np.ndarray:
    if spec.cov_kind == "identity":
        return np.eye(4)
    cov = (-spec.rho) ** np.abs(np.subtract.outer(np.arange(4), np.arange(4)))
    return np.linalg.cholesky(cov)


def _gap_indices(m: int, p: int, q: int) -> np.ndarray:
    """Parent indices of the retained observations, shape (m, p)."""
    return np.arange(m)[:, None] * (p + q) + np.arange(p)[None, :]


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
    burn = spec.burn_in
    parent_len = (m - 1) * (p + q) + p
    idx = _gap_indices(m, p, q)
    scale = spec.sigma**2

    if spec.family in _UNIVARIATE:
        if spec.family == "periodic":
            # Slot-indexed mean; the gap only discards i.i.d. noise, so
            # draw the array directly.
            noise = scale * _innovations(rng, spec.innovation, (m, p))
            values = spec.mu + _slot_phase(p)[None, :] + noise
        else:
            eps = scale * _innovations(rng, spec.innovation, burn + parent_len)
            if spec.family == "ar2":
                a1, a2 = spec.ar
                parent = lfilter([1.0], [1.0, -a1, -a2], eps)[burn:]
            else:
                b1, b2 = spec.ma
                parent = lfilter([1.0, b1, b2], [1.0], eps)[burn:]
            values = spec.mu + parent[idx]
        return build_data_array(values.reshape(spec.n), p=p)

    chol = _sigma0_cholesky(spec)
    mean = np.asarray(spec.mean, dtype=np.float64)
    if spec.family == "mperiodic":
        eta = _innovations(rng, spec.innovation, (m, p, 4)) @ chol.T
        values = mean[None, None, :] + _slot_phase(p)[None, :, None] + eta
        return build_data_array(values.reshape(spec.n, 4), p=p)

    eta = _innovations(rng, spec.innovation, (burn + parent_len, 4)) @ chol.T
    if spec.family == "mar":
        psi = np.asarray(spec.transition, dtype=np.float64)
        parent = np.empty_like(eta)
        state = np.zeros(4)
        for t in range(eta.shape[0]):
            state = psi @ state + eta[t]
            parent[t] = state
        parent = parent[burn:]
    else:
        phi1 = np.asarray(spec.ma_mats[0], dtype=np.float64)
        phi2 = np.asarray(spec.ma_mats[1], dtype=np.float64)
        lagged1 = np.vstack([np.zeros((1, 4)), eta[:-1]])
        lagged2 = np.vstack([np.zeros((2, 4)), eta[:-2]])
        parent = (eta + lagged1 @ phi1.T + lagged2 @ phi2.T)[burn:]
    values = mean[None, None, :] + parent[idx]
    return build_data_array(values.reshape(spec.n, 4), p=p)


def _check_truth_runs(runs: int) -> None:
    if _check_int(runs, "truth_runs") < 100:
        raise ConfigError(f"need at least 100 Monte Carlo runs for a usable truth, got {runs}")


def monte_carlo_true_se(spec: ModelSpec, estimator: EstimatorSpec, runs: int, seed) -> np.ndarray:
    """Monte Carlo standard error of the estimator under the model, shape (r,).

    Simulates ``runs`` independent arrays (runs >= 100) and reports the
    componentwise standard deviation (divisor runs - 1) of the estimates.
    """
    _check_truth_runs(runs)
    base = _key(seed)
    estimates = np.empty((runs, estimator.dim))
    for r in range(runs):
        arr = generate_series(spec, base + ("truth", r))
        estimates[r] = apply_estimator(estimator, arr.series(), f"truth run {r + 1}")
    return estimates.std(axis=0, ddof=1)


def row_mean_spread(spec: ModelSpec, runs: int, seed) -> dict:
    """Per-row empirical means across repeated simulations, with their SEs.

    A quick self-check of the gapped layout: families with a constant
    mean must show row means agreeing within Monte Carlo error, while the
    periodic families must not.  Returns a dict with keys ``means``
    (p, d), ``ses`` (p, d) and ``max_z`` (largest standardised spread
    between any row mean and the average row mean).
    """
    base = _key(seed)
    rows = np.empty((runs, spec.p, spec.d))
    for r in range(runs):
        arr = generate_series(spec, base + ("rowcheck", r))
        rows[r] = arr.values.mean(axis=0)
    means = rows.mean(axis=0)
    ses = rows.std(axis=0, ddof=1) / np.sqrt(runs)
    centred = means - means.mean(axis=0, keepdims=True)
    max_z = float(np.max(np.abs(centred) / np.maximum(ses, 1e-300)))
    return {"means": means, "ses": ses, "max_z": max_z}
