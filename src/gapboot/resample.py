"""Within-row i.i.d. bootstrap.

Rows of a gapped array are treated as i.i.d. samples; the bootstrap
resamples a row with replacement, evaluates the estimator on each
resample, and reports the spread of the replicates around their mean
(divisor B, the Monte Carlo population convention).  Small samples can
be enumerated exhaustively, which removes all Monte Carlo error.
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
#: budget, a k-th each.  A worker thread frees its chunks into its own
#: malloc arena, which keeps them resident after the pool ends, so they
#: add to the peak the calling thread reaches on its own: about 3 MiB at
#: this budget, 10 MiB at ``_CHUNK_BYTES`` (study-long on 2 CPUs).
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


def _as_sample(sample) -> np.ndarray:
    arr = np.asarray(sample, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise InsufficientDataError(f"sample must be (m,) or (m, d), got ndim={arr.ndim}")
    if arr.shape[0] < 2:
        raise InsufficientDataError(f"need at least 2 observations, got {arr.shape[0]}")
    return arr


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
    arr = np.ascontiguousarray(_as_sample(sample))
    m = arr.shape[0]
    if config.mode == "exhaustive":
        if m**m > MAX_EXHAUSTIVE:
            raise ConfigError(
                f"exhaustive mode enumerates m**m = {m**m} resamples, "
                f"above the limit {MAX_EXHAUSTIVE}"
            )
        total = m**m
        # lexicographic order: resample b is the base-m digits of b
        draw = lambda lo, hi: np.stack(np.unravel_index(np.arange(lo, hi), (m,) * m), axis=1)
    else:
        total = config.replicates
        rng = derived_stream(config.seed, *key)
        draw = lambda lo, hi: rng.integers(0, m, size=(hi - lo, m), dtype=np.int64)
    label = " ".join(str(part) for part in (*key, "resamples"))
    out = np.empty((total, estimator.dim))
    for lo, hi in _chunk_ranges(total, arr.nbytes):
        # idx stays bound until the next draw replaces it.  Freeing it with
        # the gathered chunk lets malloc return both to the OS, and the
        # page faults that follow double the cost of a chunk.
        idx = draw(lo, hi)
        out[lo:hi] = apply_estimator_batch(
            estimator, arr.take(idx, axis=0), f"{label} {lo + 1}..{hi}"
        )
    return out


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
    reps = bootstrap_replicates(sample, estimator, config, key)
    dev = reps - reps.mean(axis=0)
    cov = dev.T @ dev / reps.shape[0]
    return VarianceEstimate(matrix=cov)
