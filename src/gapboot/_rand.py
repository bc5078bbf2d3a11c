"""Deterministic derivation of independent random streams.

Every stochastic component of the package draws from a counter-based
Philox generator seeded from the user seed plus a structured key (row
index, slot number, run index, purpose tag, ...).  Streams are therefore
a pure function of the key and never depend on call order, worker count
or how many other streams were consumed before them, so keyed tasks may
run on ``_thread_map``'s threads, which keep no state of their own.
"""
from __future__ import annotations

import itertools
import os
import threading

import numpy as np

from .errors import ConfigError

_MASK64 = (1 << 64) - 1

#: Threads the keyed tasks run on: the CPUs this process may use.
_WORKERS = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)


def _entropy(part) -> int:
    if isinstance(part, (int, np.integer)) and not isinstance(part, bool):
        return int(part) & _MASK64
    if isinstance(part, str):
        # Stable across processes, unlike the builtin hash().
        return int.from_bytes(part.encode("utf-8"), "little")
    raise ConfigError(f"stream key parts must be int or str, got {part!r}")


def derived_stream(*key) -> np.random.Generator:
    """Return a Generator seeded deterministically from ``key``."""
    entropy = [_entropy(part) for part in key]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def derived_seed(*key) -> int:
    """Collapse a key tuple to a stable 64-bit integer seed."""
    entropy = [_entropy(part) for part in key]
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def _thread_map(task, count: int, workers: int) -> list:
    """``[task(i) for i in range(count)]`` on ``min(workers, count)`` threads,
    the caller one of them (no thread is started when that is 1).

    The caller runs index 0, so it always runs a task; after that, each
    thread takes the next index from one shared counter.  As in the loop,
    the lowest failing index's error is raised: once a failure is
    recorded no thread takes another index, and every lower one has been
    taken.
    """
    workers = min(workers, count)
    if workers <= 1:
        return [task(i) for i in range(count)]
    results = [None] * count
    failed = {}
    claim = itertools.count(1)  # index 0 is the caller's
    lock = threading.Lock()

    def take() -> int:
        with lock:
            return count if failed else next(claim)

    def work(i: int) -> None:
        while i < count:
            try:
                results[i] = task(i)
            except BaseException as exc:  # raised on the caller, below
                with lock:
                    failed[i] = exc
            i = take()

    threads = [threading.Thread(target=lambda: work(take())) for _ in range(workers - 1)]
    try:
        for thread in threads:
            thread.start()
        work(0)
        for thread in threads:
            thread.join()
    except BaseException as exc:  # an interrupt outside the tasks stops the others too
        failed[-1] = exc
        raise
    if failed:
        raise failed[min(failed)]
    return results
