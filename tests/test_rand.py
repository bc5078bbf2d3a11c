import threading

import pytest

import gapboot._rand as rand_module
from gapboot._rand import _thread_map

pytestmark = pytest.mark.usefixtures("fast_switching")


def recording(threads: dict):
    """A task that returns ``i * i`` and notes, per index, the thread it ran
    on."""

    def task(i):
        threads[i] = threading.current_thread()
        return i * i

    return task


@pytest.mark.parametrize("count", [2, 3, 7])
def test_results_come_back_in_index_order(count):
    threads = {}
    assert _thread_map(recording(threads), count, 3) == [i * i for i in range(count)]
    assert sorted(threads) == list(range(count))


def test_every_index_runs_once_on_more_threads_than_cpus():
    ran = []

    def task(i):
        ran.append(i)
        return i

    assert _thread_map(task, 500, 8) == list(range(500))
    assert sorted(ran) == list(range(500))


@pytest.mark.parametrize("workers, count", [(1, 5), (4, 1), (3, 0)])
def test_no_thread_is_started_for_one_worker_or_task(monkeypatch, workers, count):
    def refuse(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(rand_module.threading, "Thread", refuse)
    threads = {}
    assert _thread_map(recording(threads), count, workers) == [i * i for i in range(count)]
    assert set(threads.values()) <= {threading.main_thread()}


def test_lowest_failing_index_is_raised():
    # index 2 fails first in time; index 1's error is still the one raised
    two_failed = threading.Event()

    def task(i):
        if i == 2:
            two_failed.set()
            raise ValueError("index 2")
        if i == 1:
            assert two_failed.wait(timeout=10)
            raise ValueError("index 1")

    with pytest.raises(ValueError, match="index 1"):
        _thread_map(task, 4, 3)


def test_no_index_above_a_recorded_failure_starts():
    # Index 1 fails while index 0 holds the other thread.  The thread that
    # recorded the failure must not take index 2; index 0 waits for it to.
    started = []
    high = threading.Event()

    def task(i):
        started.append(i)
        if i >= 2:
            high.set()
        elif i == 1:
            raise ValueError("index 1")
        else:
            high.wait(timeout=0.5)

    with pytest.raises(ValueError, match="index 1"):
        _thread_map(task, 20, 2)
    assert sorted(started) == [0, 1]


def test_keyboard_interrupt_propagates_and_no_thread_raises(monkeypatch):
    escaped = []
    monkeypatch.setattr(threading, "excepthook", escaped.append)

    def task(i):
        raise KeyboardInterrupt(f"index {i}")

    with pytest.raises(KeyboardInterrupt, match="index 0"):
        _thread_map(task, 6, 3)
    assert escaped == []
