"""A fixed reference computation that measures how fast the machine runs now.

The benchmark runs on a shared virtual machine whose speed changes for
minutes at a time: work on the other vCPU, or on the host, can slow a
single-threaded process by half while its own CPU time stays the same,
and CPU time itself drifts by a fifth.  Runs of the same code then
differ by more than the bounds allow, whatever their length.

``measure`` times ``kernel``, a fixed, seeded mix of the kinds of work
``gapboot`` does (Python loops, Philox draws, random gathers, small
solves) that calls no ``gapboot`` code, so no change to the program
changes it.  ``run.py`` runs it between the timed steps of a run and
scales their median times by ``REFERENCE`` over the kernel's median
time in the run: the time a step would have taken at the speed the
kernel had on the machine the benchmark was defined on.  The run's
median sets the scale, not the kernel runs next to each step: the
hypervisor takes the CPU away in bursts shorter than a kernel run, so
one kernel run is a noisy measure of the speed.
"""
from __future__ import annotations

import statistics
import time

#: Median (wall, CPU) seconds of ``kernel`` on a 2-vCPU Intel Xeon VM with
#: one BLAS thread, the machine the benchmark was defined on.
REFERENCE = (0.18, 0.18)


def kernel() -> float:
    # imported here, so that importing this module leaves numpy unloaded
    # until ``run.py`` has fixed the BLAS thread count
    import numpy as np

    # Small arrays, allocated once per call: page faults and cache misses
    # vary from process to process and would add their noise to the scale.
    total = 0
    table = {}
    for i in range(200_000):
        total += i * i % 7
        table[i & 1023] = total
    rng = np.random.Generator(np.random.Philox(20130111))
    x = np.empty(32_768)
    index = np.empty(32_768, dtype=np.int64)
    gathered = np.empty(32_768)
    for _ in range(60):
        rng.standard_normal(out=x)
        index[:] = rng.integers(0, x.size, size=x.size)
        np.take(x, index, out=gathered)
        total += gathered.sum()
    a = rng.standard_normal((30, 30))
    a = a @ a.T + 30.0 * np.eye(30)
    b = rng.standard_normal(30)
    for _ in range(1500):
        total += np.linalg.solve(a, b)[0] + np.outer(b, b).mean()
    return float(total)


def measure() -> tuple[float, float]:
    """Wall and CPU seconds of one ``kernel`` call."""
    start, cpu_start = time.perf_counter(), time.process_time()
    kernel()
    return time.perf_counter() - start, time.process_time() - cpu_start


def factors(kernel_times: list[tuple[float, float]]) -> tuple[float, float]:
    """Wall and CPU scale factors to the reference speed: ``REFERENCE``
    over the median wall and CPU seconds of the kernel runs."""
    return (REFERENCE[0] / statistics.median(wall for wall, _ in kernel_times),
            REFERENCE[1] / statistics.median(cpu for _, cpu in kernel_times))
