"""Within-row i.i.d. bootstrap, and the resampler every bootstrap shares.

Rows of a gapped array are treated as i.i.d. samples; the bootstrap
resamples a row with replacement, evaluates the estimator on each
resample, and reports the spread of the replicates around their mean
(divisor B, the Monte Carlo population convention).  Small samples can
be enumerated exhaustively, which removes all Monte Carlo error.  The
moving-block bootstrap resamples columns in blocks of ell on the same
loop, the OD slot bootstrap draws its days with the same ``_draw``, and
both report the same ``_spread``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._rand import _chunk_share, derived_stream
from .core import EstimatorSpec, VarianceEstimate, _check_int, apply_estimator_batch
from .errors import ConfigError, InsufficientDataError

__all__ = [
    "BootstrapConfig",
    "bootstrap_replicates",
    "iid_bootstrap_variance",
]

#: Largest number of resamples the exhaustive mode will enumerate (m**m).
MAX_EXHAUSTIVE = 1_000_000

#: Resamples are drawn, gathered and evaluated in chunks whose gathered
#: sample takes about this many bytes, so memory does not grow with B.
_CHUNK_BYTES = 4 << 20

#: The k threads of a row pool (``gb1.collect_row_estimates``) share this
#: budget, a k-th each.  The caller is one of them; each of the k - 1
#: threads it starts frees its chunks into its own malloc arena, which
#: keeps them resident after the pool ends, so they add to the peak the
#: calling thread reaches on its own: about 3 MiB at this budget, 10 MiB
#: at ``_CHUNK_BYTES`` (study-long on 2 CPUs).
_POOL_CHUNK_BYTES = _CHUNK_BYTES // 4


@dataclass(frozen=True)
class BootstrapConfig:
    """Replicate count, seed, and sampling mode for bootstrap draws.

    mode "monte_carlo" draws ``replicates`` random resamples; mode
    "exhaustive" enumerates all m**m index tuples (allowed only while
    m**m <= 1e6, i.e. m <= 7) and ignores ``replicates`` and ``seed``.
    """

    replicates: int = 1000
    seed: int = 0
    mode: str = "monte_carlo"

    def __post_init__(self):
        if self.mode not in ("monte_carlo", "exhaustive"):
            raise ConfigError(f"unknown bootstrap mode {self.mode!r}")
        _check_int(self.seed, "seed")
        if self.mode == "monte_carlo" and _check_int(self.replicates, "replicates") < 2:
            raise ConfigError(f"need at least 2 replicates, got {self.replicates}")


def _chunk_ranges(total: int, row_bytes: int):
    """Closed-open ``(lo, hi)`` ranges covering ``range(total)`` in chunks
    of about ``_CHUNK_BYTES``, or this thread's share of
    ``_POOL_CHUNK_BYTES`` in a row pool, when each item takes ``row_bytes``."""
    share = _chunk_share()
    budget = _CHUNK_BYTES if share == 1 else _POOL_CHUNK_BYTES // share
    step = max(1, budget // max(1, row_bytes))
    for lo in range(0, total, step):
        yield lo, min(lo + step, total)


def _window_estimates(values: np.ndarray, estimator: EstimatorSpec, ell: int, label: str) -> np.ndarray:
    """Estimates on the m - ell + 1 windows of ell consecutive entries of
    ``values`` along axis 0, shape (m - ell + 1, r), each window's entries
    flattened in order to one (k, d) sample.  The windows stay views,
    evaluated in ``_chunk_ranges`` chunks labelled ``label lo+1..hi``."""
    windows = np.moveaxis(np.lib.stride_tricks.sliding_window_view(values, ell, axis=0), -1, 1)
    count, d = windows.shape[0], values.shape[-1]
    out = np.empty((count, estimator.dim))
    for lo, hi in _chunk_ranges(count, windows[0].nbytes):
        out[lo:hi] = apply_estimator_batch(
            estimator, windows[lo:hi].reshape(hi - lo, -1, d), f"{label} {lo + 1}..{hi}"
        )
    return out


def _as_sample(sample) -> np.ndarray:
    arr = np.asarray(sample, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise InsufficientDataError(f"sample must be (m,) or (m, d), got ndim={arr.ndim}")
    if arr.shape[0] < 2:
        raise InsufficientDataError(f"need at least 2 observations, got {arr.shape[0]}")
    return arr


def _draw(rng: np.random.Generator, n: int, m: int, ell: int = 1) -> np.ndarray:
    """Unit indices of n resamples, shape (n, m): ceil(m / ell) uniform block
    starts on 0..m - ell, each expanded to ell consecutive units, cut to m.
    At ell = 1 this is ``rng.integers(0, m, size=(n, m))`` itself."""
    starts = rng.integers(0, m - ell + 1, size=(n, -(-m // ell)), dtype=np.int64)
    if ell == 1:
        return starts
    return (starts[:, :, None] + np.arange(ell)).reshape(n, -1)[:, :m]


def _resample_estimates(units: np.ndarray, estimator, config, key: tuple, ell: int = 1) -> np.ndarray:
    """``bootstrap_replicates`` on units of any shape (m, ..., d), drawn in
    blocks of ell, each resample flattened in order to one (k, d) sample."""
    m, d = units.shape[0], units.shape[-1]
    if config.mode == "exhaustive":
        # 2**m > MAX_EXHAUSTIVE past its bit length: m**m is never formed there
        if m > MAX_EXHAUSTIVE.bit_length() or m**m > MAX_EXHAUSTIVE:
            raise ConfigError(
                f"exhaustive mode enumerates m**m resamples, above "
                f"MAX_EXHAUSTIVE = {MAX_EXHAUSTIVE} at m = {m}"
            )
        total = m**m
        # lexicographic order: resample b is the base-m digits of b
        draw = lambda lo, hi: np.stack(np.unravel_index(np.arange(lo, hi), (m,) * m), axis=1)
    else:
        total = config.replicates
        rng = derived_stream(config.seed, *key)
        draw = lambda lo, hi: _draw(rng, hi - lo, m, ell)
    label = " ".join(str(part) for part in (*key, "resamples"))
    out = np.empty((total, estimator.dim))
    for lo, hi in _chunk_ranges(total, units.nbytes):
        # idx stays bound until the next draw replaces it.  Freeing it with
        # the gathered chunk lets malloc return both to the OS, and the
        # page faults that follow double the cost of a chunk.
        idx = draw(lo, hi)
        out[lo:hi] = apply_estimator_batch(
            estimator, units.take(idx, axis=0).reshape(hi - lo, -1, d), f"{label} {lo + 1}..{hi}"
        )
    return out


def _spread(reps: np.ndarray) -> np.ndarray:
    """Divisor-B spread of (B, r) replicates about their mean, centred in place."""
    reps -= reps.mean(axis=0)
    return reps.T @ reps / reps.shape[0]


def bootstrap_replicates(
    sample,
    estimator: EstimatorSpec,
    config: BootstrapConfig = BootstrapConfig(),
    key: tuple = (),
) -> np.ndarray:
    """Estimator values on each bootstrap resample, shape (B, r).

    In exhaustive mode B = m**m and the rows enumerate every resample in
    lexicographic index order, each occurring exactly once.  In Monte
    Carlo mode replicate b resamples row b of one (B, m) index draw from
    the ``(seed, *key)`` stream.  Either way resamples are drawn and
    evaluated in chunks of about ``_CHUNK_BYTES``; no (B, m) table is held.
    """
    return _resample_estimates(np.ascontiguousarray(_as_sample(sample)), estimator, config, key)


def iid_bootstrap_variance(
    sample,
    estimator: EstimatorSpec,
    config: BootstrapConfig = BootstrapConfig(),
    key: tuple = (),
) -> VarianceEstimate:
    """Bootstrap variance of the estimator over one i.i.d. sample.

    Parameters
    ----------
    sample : array_like, shape (m,) or (m, d)
        Observations assumed i.i.d.; m >= 2.
    estimator : EstimatorSpec
    config : BootstrapConfig
        Replicate count B, seed and mode.
    key : tuple
        Extra stream-key components (e.g. the row index) so distinct
        rows driven by the same seed get independent draws.

    Returns
    -------
    VarianceEstimate
        (1/B) * sum_b (theta*_b - mean(theta*)) (theta*_b - mean(theta*))',
        an (r, r) PSD matrix.  In exhaustive mode the average runs over
        all m**m equally likely resamples and is exact.

    Notes
    -----
    For the sample mean the exhaustive value equals the plug-in variance
    divided by m; e.g. rows (0, 2) -> 0.5 and (1, 2, 3) -> 2/9.
    """
    return VarianceEstimate(matrix=_spread(bootstrap_replicates(sample, estimator, config, key)))
