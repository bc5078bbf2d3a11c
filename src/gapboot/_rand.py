"""Deterministic derivation of independent random streams.

Every stochastic component of the package draws from a counter-based
Philox generator seeded from the user seed plus a structured key (row
index, slot number, run index, purpose tag, ...).  Streams are therefore
a pure function of the key and never depend on call order, worker count
or how many other streams were consumed before them, so keyed tasks may
run on ``_thread_map``'s threads.
"""
from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

_MASK64 = (1 << 64) - 1

#: Threads the keyed tasks run on: the CPUs this process may use.
_WORKERS = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)

#: Random values one task must draw to be worth a thread (``_gated_workers``).
_MIN_THREAD_DRAWS = 1 << 19

#: Set in each ``_thread_map`` worker thread: ``chunk_share`` is how many
#: tasks split the resampling chunk budget (see ``resample._chunk_ranges``).
_pool = threading.local()


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


def _chunk_share() -> int:
    """Tasks the current thread splits the chunk budget with; 1 when it
    has a whole one."""
    return getattr(_pool, "chunk_share", 1)


def _gated_workers(draws: int) -> int:
    """Workers for tasks that draw ``draws`` random values each: all of
    ``_WORKERS`` from ``_MIN_THREAD_DRAWS`` on, one (inline) below it."""
    return _WORKERS if draws >= _MIN_THREAD_DRAWS else 1


def _thread_map(task, count: int, workers: int, split_chunks: bool = False) -> list:
    """``[task(i) for i in range(count)]`` on ``min(workers, count)`` threads
    (none when that is 1); as in the loop, the lowest failing index's error is raised.

    With ``split_chunks`` the threads split one chunk budget between them.
    Called from one of its own workers it runs the loop inline, so pools
    never nest."""
    workers = min(workers, count)
    if workers <= 1 or hasattr(_pool, "chunk_share"):
        return [task(i) for i in range(count)]

    def join():
        _pool.chunk_share = workers if split_chunks else 1

    with ThreadPoolExecutor(workers, initializer=join) as pool:
        futures = [pool.submit(task, i) for i in range(count)]
        try:
            return [future.result() for future in futures]
        except BaseException:
            for future in futures:
                future.cancel()
            raise
