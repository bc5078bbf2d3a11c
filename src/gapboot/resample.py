"""Within-row i.i.d. bootstrap, and the resampler every bootstrap shares.

Rows of a gapped array are treated as i.i.d. samples; the bootstrap
resamples a row with replacement, evaluates the estimator on each
resample, and reports the spread of the replicates around their mean
(divisor B, the Monte Carlo population convention).  Small samples can
be enumerated exhaustively, which removes all Monte Carlo error.

``_resamples`` is the one source of resamples: it alone derives a
bootstrap stream, draws or enumerates the indices and sizes their
chunks.  The row bootstrap gathers and evaluates its chunks; so does the
moving-block bootstrap (columns in blocks of ell), unless the estimator
has a ``statistic`` / ``finish`` pair, when it adds up ``_block_sums``.
The OD slot bootstrap turns the chunks into day counts.  All three
report the same ``_spread``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import _rand
from ._rand import derived_stream
from .core import EstimatorSpec, VarianceEstimate, _check_int, _checked, apply_estimator_batch
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

#: Indices a row's resamples must hold for its bootstrap to run on all CPUs
#: (``_row_workers``).  Shorter rows run inline: on the pool they cost CPU
#: time (+18% on 40 rows of 100 units, B = 1000, on 2 CPUs).
_MIN_THREAD_DRAWS = 1 << 19

#: A row long enough for the row pool (``_row_workers``) takes a k-th of
#: this budget per chunk on k > 1 CPUs, pooled or not.  The pool's caller is
#: one of its k threads; each of the k - 1 threads it starts frees its
#: chunks into its own malloc arena, which keeps them resident after the
#: pool ends, so they add to the peak the calling thread reaches on its
#: own: about 3 MiB at this budget, 10 MiB at ``_CHUNK_BYTES`` (study-long
#: on 2 CPUs).
_POOL_CHUNK_BYTES = _CHUNK_BYTES // 4


@dataclass(frozen=True)
class BootstrapConfig:
    """Replicate count, seed, and sampling mode for bootstrap draws.

    mode "monte_carlo" draws ``replicates`` random resamples; mode
    "exhaustive" enumerates all m**m index tuples (allowed only while
    m**m <= 1e6, i.e. m <= 7) and ignores the values of ``replicates``
    and ``seed``, which must still be integers in either mode.
    """

    replicates: int = 1000
    seed: int = 0
    mode: str = "monte_carlo"

    def __post_init__(self):
        if self.mode not in ("monte_carlo", "exhaustive"):
            raise ConfigError(f"unknown bootstrap mode {self.mode!r}")
        _check_int(self.seed, "seed")
        if _check_int(self.replicates, "replicates") < 2 and self.mode == "monte_carlo":
            raise ConfigError(f"need at least 2 replicates, got {self.replicates}")


def _resample_count(m: int, config: BootstrapConfig) -> int:
    """B, or the m**m resamples of exhaustive mode, read as MAX_EXHAUSTIVE + 1
    past its bit length, where 2**m exceeds it and m**m is not formed."""
    if config.mode != "exhaustive":
        return config.replicates
    return m**m if m <= MAX_EXHAUSTIVE.bit_length() else MAX_EXHAUSTIVE + 1


def _row_workers(m: int, config: BootstrapConfig) -> int:
    """Threads for the bootstraps of rows of ``m`` units: all of
    ``_rand._WORKERS`` when a row's resamples hold at least
    ``_MIN_THREAD_DRAWS`` indices, one (inline) below that."""
    return _rand._WORKERS if m * _resample_count(m, config) >= _MIN_THREAD_DRAWS else 1


def _chunk_ranges(total: int, row_bytes: int, budget: int):
    """Closed-open ``(lo, hi)`` ranges covering ``range(total)`` in chunks
    of about ``budget`` bytes when each item takes ``row_bytes``."""
    step = max(1, budget // max(1, row_bytes))
    for lo in range(0, total, step):
        yield lo, min(lo + step, total)


def _block_sums(units: np.ndarray, estimator: EstimatorSpec, ell: int, cut: int = 0):
    """Sums of the estimator's statistics over the blocks of ell consecutive
    units of ``units`` (m, ..., d), shape (m - ell + 1, q), one per start;
    with ``cut`` > 0, also the sums over the first ``cut`` units of each
    block.  Each is a sliding-window sum of the units' own sums, its terms
    added in order; differences of cumulative sums would cancel."""
    t = estimator.statistic(units)
    if t.ndim > 2:
        t = t.reshape(len(t), -1, t.shape[-1]).sum(axis=1)
    full = sliding_window_view(t, ell, axis=0).sum(axis=-1)
    if not cut:
        return full
    return full, sliding_window_view(t[: len(t) - ell + cut], cut, axis=0).sum(axis=-1)


def _window_estimates(values: np.ndarray, estimator: EstimatorSpec, ell: int, label: str) -> np.ndarray:
    """Estimates on the m - ell + 1 windows of ell consecutive entries of
    ``values`` along axis 0, shape (m - ell + 1, r), each window's entries
    flattened in order to one (k, d) sample.  The windows stay views,
    evaluated in ``_chunk_ranges`` chunks labelled ``label lo+1..hi``; an
    estimator with the ``statistic`` / ``finish`` pair finishes the same
    chunks of its ``_block_sums`` instead."""
    count, d = len(values) - ell + 1, values.shape[-1]
    shape = (ell * values[0].size // d, d)
    if estimator.finish is None:
        windows = np.moveaxis(sliding_window_view(values, ell, axis=0), -1, 1)
    else:
        sums = _block_sums(values, estimator, ell)
    out = np.empty((count, estimator.dim))
    for lo, hi in _chunk_ranges(count, ell * values[0].nbytes, _CHUNK_BYTES):
        where = f"{label} {lo + 1}..{hi}"
        if estimator.finish is None:
            out[lo:hi] = apply_estimator_batch(estimator, windows[lo:hi].reshape(hi - lo, *shape), where)
        else:
            out[lo:hi] = _checked(estimator, where, estimator.finish, sums[lo:hi], shape)
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
    """Block starts of n resamples of m units, shape (n, ceil(m / ell)),
    uniform on 0..m - ell; a resample is its blocks of ell consecutive
    units, cut to m.  At ell = 1 the starts are the unit indices,
    ``rng.integers(0, m, size=(n, m))`` itself."""
    return rng.integers(0, m - ell + 1, size=(n, -(-m // ell)), dtype=np.int64)


def _resamples(m: int, config: BootstrapConfig, key: tuple, row_bytes: int, budget: int, ell: int = 1):
    """Yield ``(lo, hi, idx)`` for the resamples of ``m`` units, each taking
    ``row_bytes``, in ``_chunk_ranges`` chunks of about ``budget`` bytes:
    ``idx`` holds the block starts of resamples lo..hi - 1, shape
    (hi - lo, ceil(m / ell)), which at ell = 1 are their unit indices.

    In Monte Carlo mode the chunks are consecutive ``_draw`` calls, in
    blocks of ell, on the ``(seed, *key)`` stream, which concatenate to
    one (B, ceil(m / ell)) draw.  In exhaustive mode resample b is the
    base-m digits of b, so the m**m resamples run in lexicographic order;
    past ``MAX_EXHAUSTIVE`` they are refused with ConfigError.
    """
    total = _resample_count(m, config)
    if config.mode == "exhaustive":
        if total > MAX_EXHAUSTIVE:
            raise ConfigError(
                f"exhaustive mode enumerates m**m resamples, above "
                f"MAX_EXHAUSTIVE = {MAX_EXHAUSTIVE} at m = {m}"
            )
        draw = lambda lo, hi: np.stack(np.unravel_index(np.arange(lo, hi), (m,) * m), axis=1)
    else:
        rng = derived_stream(config.seed, *key)
        draw = lambda lo, hi: _draw(rng, hi - lo, m, ell)
    for lo, hi in _chunk_ranges(total, row_bytes, budget):
        yield lo, hi, draw(lo, hi)


def _resample_estimates(
    units: np.ndarray, estimator, config, key: tuple, ell: int = 1, workers: int = 1
) -> np.ndarray:
    """``bootstrap_replicates`` on units of any shape (m, ..., d), drawn in
    blocks of ell, each resample flattened in order to one (k, d) sample,
    gathered and evaluated chunk by chunk of ``_resamples``: chunks of about
    ``_CHUNK_BYTES``, or of a ``workers``-th of ``_POOL_CHUNK_BYTES`` when
    ``workers`` > 1 (a long row on ``_row_workers`` threads)."""
    m, d = units.shape[0], units.shape[-1]
    budget = _CHUNK_BYTES if workers == 1 else _POOL_CHUNK_BYTES // workers
    label = " ".join(str(part) for part in (*key, "resamples"))
    out = np.empty((_resample_count(m, config), estimator.dim))
    # idx stays bound until the next draw replaces it.  Freeing it with the
    # gathered chunk lets malloc return both to the OS, and the page faults
    # that follow double the cost of a chunk.
    for lo, hi, idx in _resamples(m, config, key, units.nbytes, budget, ell):
        if ell > 1:
            idx = (idx[:, :, None] + np.arange(ell)).reshape(hi - lo, -1)[:, :m]
        out[lo:hi] = apply_estimator_batch(
            estimator, units.take(idx, axis=0).reshape(hi - lo, -1, d), f"{label} {lo + 1}..{hi}"
        )
    return out


def _block_estimates(units: np.ndarray, estimator: EstimatorSpec, config, key: tuple, ell: int) -> np.ndarray:
    """The moving-block bootstrap's replicates, as ``_resample_estimates``
    gives them, of an estimator with the ``statistic`` / ``finish`` pair.
    Each replicate finishes the sum of its k - 1 full blocks and its cut
    last block, read from ``_block_sums``, so it gathers k = ceil(m / ell)
    block sums instead of its m units.  It reads ``_resamples`` with the
    stream and chunks of the gather path."""
    m, d = units.shape[0], units.shape[-1]
    k = -(-m // ell)
    full, cut = _block_sums(units, estimator, ell, m - (k - 1) * ell)
    label = " ".join(str(part) for part in (*key, "resamples"))
    shape = (units.size // d, d)
    out = np.empty((config.replicates, estimator.dim))
    for lo, hi, starts in _resamples(m, config, key, units.nbytes, _CHUNK_BYTES, ell):
        sums = full[starts[:, :-1]].sum(axis=1) + cut[starts[:, -1]]
        out[lo:hi] = _checked(estimator, f"{label} {lo + 1}..{hi}", estimator.finish, sums, shape)
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
    evaluated in chunks of about ``_CHUNK_BYTES``, or of a row pool's
    smaller share when the row is long enough for one (``_row_workers``);
    no (B, m) table is held.
    """
    units = np.ascontiguousarray(_as_sample(sample))
    return _resample_estimates(units, estimator, config, key, workers=_row_workers(len(units), config))


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
