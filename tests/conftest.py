import sys
import tracemalloc

import pytest

from gapboot import od
from gapboot._rand import derived_stream


@pytest.fixture
def slot_draws(monkeypatch):
    """Slot numbers of the ("slot", k) bootstrap streams gapboot.od draws
    while the test runs, in drawing order."""
    drawn = []

    def counting(*key):
        if key[1:2] == ("slot",):
            drawn.append(key[2])
        return derived_stream(*key)

    monkeypatch.setattr(od, "derived_stream", counting)
    return drawn


@pytest.fixture
def traced_peak():
    """Peak of tracemalloc's traced memory, in bytes, while a call runs."""

    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak


@pytest.fixture
def fast_switching():
    """Threads switch as often as the interpreter allows while the test runs."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(interval)
