import threading

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import gapboot._rand as rand_module
import gapboot.resample as resample_module
from gapboot import (
    BootstrapConfig,
    EstimatorSpec,
    EvaluationError,
    FewRowsWarning,
    InsufficientDataError,
    RowEstimates,
    build_data_array,
    collect_row_estimates,
    componentwise_mean_estimator,
    gb1_variance,
    mean_estimator,
    median_estimator,
    pairwise_difference_variance,
    psd_project,
)


def scalar_rows(estimates, variances):
    return RowEstimates(
        estimates=np.asarray(estimates, float)[:, None],
        variances=np.asarray(variances, float)[:, None, None],
    )


class TestPairwiseDifferenceVariance:
    def test_equal_estimates(self):
        assert pairwise_difference_variance(np.zeros((4, 2)))[0, 0] == 0.0

    def test_two_scalars(self):
        v = pairwise_difference_variance(np.array([[1.0], [3.0]]))
        assert v[0, 0] == 4.0

    def test_three_scalars(self):
        v = pairwise_difference_variance(np.array([[0.0], [1.0], [2.0]]))
        assert v[0, 0] == 2.0

    def test_single_row_rejected(self):
        with pytest.raises(InsufficientDataError):
            pairwise_difference_variance(np.array([[1.0]]))


def cross_covariance(rows, j, k):
    """Moment-matched covariance of the row-j and row-k estimators (j != k):
    [Sigma_j + Sigma_k - pairwise_difference_variance] / 2."""
    vtilde = pairwise_difference_variance(rows.estimates)
    return 0.5 * (rows.variances[j - 1] + rows.variances[k - 1] - vtilde)


def pairwise_gb1(rows):
    """GB-I as its defining sum p^{-2} [sum_j Sigma_j + sum_{j != k} cov(j, k)],
    the form the closed form in ``gb1_variance`` replaces."""
    p = rows.p
    acc = rows.variances.sum(axis=0)
    for j in range(1, p + 1):
        for k in range(1, p + 1):
            if j != k:
                acc = acc + cross_covariance(rows, j, k)
    return psd_project(acc / p**2)


class TestCrossCovariance:
    def test_hand_value(self):
        rows = scalar_rows([1.0, 3.0], [4.0, 4.0])
        assert cross_covariance(rows, 1, 2)[0, 0] == 2.0
        with pytest.warns(FewRowsWarning):
            assert gb1_variance(rows).scalar == pairwise_gb1(rows)[0, 0] == 3.0

    def test_identical_rows(self):
        rows = scalar_rows([2.0, 2.0], [1.0, 1.0])
        assert cross_covariance(rows, 1, 2)[0, 0] == 1.0
        with pytest.warns(FewRowsWarning):
            assert gb1_variance(rows).scalar == pairwise_gb1(rows)[0, 0] == 1.0

    def test_closed_form_matches_pairwise_sum(self):
        rng = np.random.default_rng(22)
        for p, r in ((5, 1), (6, 2), (9, 3)):
            est = 0.1 * rng.standard_normal((p, r))
            x = rng.standard_normal((p, r, r))
            rows = RowEstimates(est, x @ x.swapaxes(1, 2) + np.eye(r))
            got, ref = gb1_variance(rows).matrix, pairwise_gb1(rows)
            assert_allclose(got, ref, rtol=1e-12, atol=1e-14 * np.abs(ref).max())


class TestGb1Variance:
    def test_hand_value(self):
        # vtilde = 4, cross cov = 2, total = (4+4+2+2)/4 = 3.
        rows = scalar_rows([1.0, 3.0], [4.0, 4.0])
        with pytest.warns(FewRowsWarning):
            v = gb1_variance(rows)
        assert v.scalar == 3.0

    def test_identical_rows_reduce_to_common_variance(self):
        # Exhaustive mode makes the two row bootstraps identical, so the
        # combination telescopes back to the common matrix, bit for bit.
        base = np.array([4.0, 1.0, 7.0, 7.0, 2.0])
        arr = build_data_array(np.repeat(base, 2), p=2)
        cfg = BootstrapConfig(mode="exhaustive")
        rows = collect_row_estimates(arr, mean_estimator(), cfg)
        assert_array_equal(rows.variances[0], rows.variances[1])
        with pytest.warns(FewRowsWarning):
            v = gb1_variance(rows)
        assert_array_equal(v.matrix, rows.variances[0])

    def test_permutation_symmetry(self):
        rng = np.random.default_rng(21)
        est = rng.standard_normal((6, 2))
        var = np.stack([np.diag(rng.uniform(0.5, 2.0, 2)) for _ in range(6)])
        perm = rng.permutation(6)
        a = gb1_variance(RowEstimates(est, var)).matrix
        b = gb1_variance(RowEstimates(est[perm], var[perm])).matrix
        assert_allclose(a, b, rtol=1e-12, atol=1e-15)

    def test_negative_combination_clipped_to_psd(self):
        # Rows disagree far more than their own variances allow.
        rows = scalar_rows([0.0, 100.0], [0.01, 0.01])
        with pytest.warns(FewRowsWarning):
            v = gb1_variance(rows)
        assert v.scalar >= 0.0

    def test_single_row_rejected(self):
        with pytest.raises(InsufficientDataError):
            gb1_variance(scalar_rows([1.0], [1.0]))

    def test_warns_below_five_rows(self):
        rows = scalar_rows([0.0, 0.1, 0.2, 0.3], np.full(4, 0.5))
        with pytest.warns(FewRowsWarning):
            gb1_variance(rows)

    def test_no_warning_at_five_rows(self, recwarn):
        rows = scalar_rows(np.arange(5.0) / 10, np.full(5, 0.5))
        gb1_variance(rows)
        assert not [w for w in recwarn.list if issubclass(w.category, FewRowsWarning)]


def test_collect_row_estimates_shapes():
    rng = np.random.default_rng(3)
    arr = build_data_array(rng.standard_normal((24, 2)), p=3)
    rows = collect_row_estimates(
        arr, mean_estimator(), BootstrapConfig(replicates=100, seed=1)
    )
    assert rows.estimates.shape == (3, 1)
    assert rows.variances.shape == (3, 1, 1)
    # Row estimates are the plain row means.
    assert_allclose(rows.estimates[:, 0], arr.values.mean(axis=(0, 2)), rtol=1e-14)


def gate(monkeypatch, on: bool, workers: int = 3):
    """Force the row pool on (``workers`` threads) or off."""
    monkeypatch.setattr(rand_module, "_WORKERS", workers)
    monkeypatch.setattr(rand_module, "_MIN_THREAD_DRAWS", 0 if on else 1 << 62)


def recording(estimator: EstimatorSpec, threads: set) -> EstimatorSpec:
    """``estimator`` with the threads its batch evaluator runs on put in ``threads``."""

    def batch(stack):
        threads.add(threading.current_thread())
        return estimator.evaluate_batch(stack)

    return EstimatorSpec(estimator.name, estimator.dim, estimator.evaluate, batch)


class TestRowPool:
    @pytest.mark.parametrize(
        "estimator, mode, m",
        [
            (mean_estimator(), "monte_carlo", 60),
            (componentwise_mean_estimator(2), "monte_carlo", 60),
            (median_estimator(), "monte_carlo", 60),
            (componentwise_mean_estimator(2), "exhaustive", 5),
            (median_estimator(), "exhaustive", 5),
        ],
        ids=["mean", "componentwise", "median", "exhaustive-componentwise", "exhaustive-median"],
    )
    def test_threaded_rows_equal_serial_rows(self, monkeypatch, fast_switching, estimator, mode, m):
        values = np.random.default_rng(m).standard_normal((m * 7, estimator.dim))
        array = build_data_array(values.squeeze(), p=7)
        config = BootstrapConfig(replicates=300, seed=4, mode=mode)
        results = {}
        for on in (False, True):
            gate(monkeypatch, on)
            threads = set()
            results[on] = collect_row_estimates(array, recording(estimator, threads), config)
            assert (threading.main_thread() in threads) != on
        assert_array_equal(results[True].estimates, results[False].estimates)
        assert_array_equal(results[True].variances, results[False].variances)

    def test_lowest_failing_row_is_raised(self, monkeypatch):
        # Row 4 fails first in time; row 2's error is still the one raised.
        gate(monkeypatch, on=True, workers=2)
        grid = np.tile(np.arange(30.0)[:, None], (1, 5))
        grid[:, 1] += 200.0
        grid[:, 3] += 2000.0
        row_four_failed = threading.Event()

        def batch(stack):
            if stack.max() > 1000.0:
                row_four_failed.set()
                raise ValueError("row four")
            if stack.max() > 100.0:
                assert row_four_failed.wait(timeout=10)
                raise ValueError("row two")
            return stack.reshape(stack.shape[0], -1).mean(axis=1)

        est = EstimatorSpec(name="capped", dim=1, evaluate=np.mean, evaluate_batch=batch)
        with pytest.raises(EvaluationError, match=r"on row 2 resamples 1\.\.\d+: row two"):
            collect_row_estimates(build_data_array(grid.ravel(), p=5), est, BootstrapConfig(replicates=50, seed=2))

    @pytest.mark.parametrize("split", [False, True])
    def test_nested_thread_map_starts_no_thread(self, split):
        # the inner call asks for the other chunk split; running inline,
        # it keeps the outer pool's
        outer, inner, shares = {}, {}, set()

        def inner_task(i, k):
            inner.setdefault(i, set()).add(threading.current_thread())
            shares.add(rand_module._chunk_share())

        def outer_task(i):
            outer[i] = threading.current_thread()
            rand_module._thread_map(lambda k: inner_task(i, k), 3, 4, split_chunks=not split)

        rand_module._thread_map(outer_task, 2, 2, split_chunks=split)
        assert threading.main_thread() not in outer.values()
        assert inner == {i: {thread} for i, thread in outer.items()}
        assert shares == {2 if split else 1}

    def test_memory_does_not_grow_with_workers(self, monkeypatch, traced_peak):
        # Eight long rows (m * B = 4e6 indices each); eight threads with a
        # whole 4 MiB chunk each would hold eight times the serial peak.
        array = build_data_array(np.random.default_rng(5).standard_normal(160_000), p=8)
        config = BootstrapConfig(replicates=200, seed=3)
        peaks = []
        for on in (False, True):
            gate(monkeypatch, on, workers=8)
            peaks.append(traced_peak(lambda: collect_row_estimates(array, mean_estimator(), config)))
        assert peaks[1] <= peaks[0] + resample_module._CHUNK_BYTES
