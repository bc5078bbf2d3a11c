"""Deterministic derivation of independent random streams.

Every stochastic component of the package draws from a counter-based
Philox generator seeded from the user seed plus a structured key (row
index, slot number, run index, purpose tag, ...).  Streams are therefore
a pure function of the key and never depend on call order, worker count
or how many other streams were consumed before them, so keyed tasks may
run on ``_thread_map``'s threads.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

_MASK64 = (1 << 64) - 1


def _entropy(part) -> int:
    if isinstance(part, (bool, int, np.integer)):
        return int(part) & _MASK64
    if isinstance(part, str):
        # Stable across processes, unlike the builtin hash().
        return int.from_bytes(part.encode("utf-8"), "little")
    raise TypeError(
        f"stream key parts must be int or str, got {type(part).__name__}"
    )


def derived_stream(*key) -> np.random.Generator:
    """Return a Generator seeded deterministically from ``key``."""
    entropy = [_entropy(part) for part in key]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def derived_seed(*key) -> int:
    """Collapse a key tuple to a stable 64-bit integer seed."""
    entropy = [_entropy(part) for part in key]
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def _thread_map(task, count: int, workers: int) -> list:
    """``[task(i) for i in range(count)]`` on ``min(workers, count)`` threads
    (none when that is 1); as in the loop, the lowest failing index's error is raised."""
    workers = min(workers, count)
    if workers <= 1:
        return [task(i) for i in range(count)]
    with ThreadPoolExecutor(workers) as pool:
        futures = [pool.submit(task, i) for i in range(count)]
        try:
            return [future.result() for future in futures]
        except BaseException:
            for future in futures:
                future.cancel()
            raise
