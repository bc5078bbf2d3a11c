import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import gapboot.resample as resample_module
from gapboot import (
    BootstrapConfig,
    BoundsError,
    ConfigError,
    EstimatorSpec,
    EvaluationError,
    VarianceEstimate,
    apply_estimator,
    apply_estimator_batch,
    block_bootstrap_variance,
    build_data_array,
    componentwise_mean_estimator,
    iid_bootstrap_variance,
    mean_estimator,
    median_estimator,
    naive_column_variance,
    pooled_variance_estimator,
    subsampling_variance,
)
from gapboot._rand import derived_stream


def _estimators(d):
    return [mean_estimator(), median_estimator(), componentwise_mean_estimator(d)]


def _spread(theta):
    dev = theta - theta.mean(axis=0)
    return VarianceEstimate(dev.T @ dev / theta.shape[0]).matrix


def _block_table(m, ell, reps, seed):
    """The whole (B, m) column table of the moving-block bootstrap: one
    (B, ceil(m / ell)) draw of block starts, each expanded to ell columns
    and cut to m."""
    nblocks = -(-m // ell)
    rng = derived_stream(seed, "block_bootstrap")
    starts = rng.integers(0, m - ell + 1, size=(reps, nblocks), dtype=np.int64)
    return (starts[:, :, None] + np.arange(ell)).reshape(reps, nblocks * ell)[:, :m]


def _block_reference(array, estimator, ell, config):
    """The moving-block bootstrap with its whole (B, m) column table."""
    cols = _block_table(array.m, ell, config.replicates, config.seed)
    stack = array.values[cols].reshape(config.replicates, array.m * array.p, array.d)
    return _spread(apply_estimator_batch(estimator, stack))


class TestSubsampling:
    def test_hand_value(self):
        # Windows (0,2) and (2,4): deviations -1, 1; (lp/n) * 1 = 2/3.
        arr = build_data_array([0.0, 2.0, 4.0], p=1)
        v = subsampling_variance(arr, mean_estimator(), ell=2)
        assert v.scalar == pytest.approx(2.0 / 3.0, rel=1e-14)

    def test_constant_data(self):
        arr = build_data_array(np.full(20, 7.0), p=2)
        assert subsampling_variance(arr, mean_estimator(), ell=3).scalar == 0.0

    def test_bad_window(self):
        arr = build_data_array(np.arange(10.0), p=2)
        for ell in (1, 5, 9):
            with pytest.raises(BoundsError):
                subsampling_variance(arr, mean_estimator(), ell=ell)

    def test_iid_calibration(self):
        # For i.i.d. data the mean's variance is sigma^2/n; the median
        # over repeated draws should land within ~10%.
        rng = np.random.default_rng(42)
        n, p, ell = 4000, 4, 10
        vals = [
            subsampling_variance(
                build_data_array(rng.standard_normal(n), p=p), mean_estimator(), ell
            ).scalar
            for _ in range(30)
        ]
        assert np.median(vals) == pytest.approx(1.0 / n, rel=0.10)

    @pytest.mark.parametrize("m, d", [(7, 1), (101, 3)])
    def test_matches_stacked_column_blocks(self, monkeypatch, m, d):
        # Chunks of 3 windows split the I windows at odd counts.
        arr = build_data_array(np.random.default_rng(m).standard_normal((m * 4, d)), p=4)
        ell = 3
        monkeypatch.setattr(resample_module, "_CHUNK_BYTES", 3 * ell * 4 * d * 8)
        # window i is columns i..i+ell-1 of the grid in series order
        windows = np.stack([arr.values[i : i + ell].reshape(ell * 4, d) for i in range(m - ell + 1)])
        for est in _estimators(d):
            theta = apply_estimator_batch(est, windows)
            dev = theta - apply_estimator(est, arr.series())
            ref = (ell * 4 / arr.n) * (dev.T @ dev / windows.shape[0])
            assert_array_equal(
                subsampling_variance(arr, est, ell).matrix, VarianceEstimate(ref).matrix
            )


class TestBlockBootstrap:
    def test_psd_and_deterministic(self):
        rng = np.random.default_rng(1)
        arr = build_data_array(rng.standard_normal((60, 2)), p=3)
        cfg = BootstrapConfig(replicates=200, seed=9)
        est = mean_estimator()
        a = block_bootstrap_variance(arr, est, ell=4, config=cfg)
        b = block_bootstrap_variance(arr, est, ell=4, config=cfg)
        assert a.scalar == b.scalar
        assert a.scalar >= 0.0

    def test_block_length_one_matches_iid_over_columns(self):
        # With ell=1 the replicate distribution is the i.i.d. bootstrap of
        # the m column means; compare against its exhaustive value.
        rng = np.random.default_rng(4)
        arr = build_data_array(rng.standard_normal(12), p=2)
        col_means = arr.values.mean(axis=(1, 2))
        exact = iid_bootstrap_variance(
            col_means, mean_estimator(), BootstrapConfig(mode="exhaustive")
        ).scalar
        mc = block_bootstrap_variance(
            arr, mean_estimator(), ell=1, config=BootstrapConfig(replicates=40_000, seed=2)
        ).scalar
        assert_allclose(mc, exact, rtol=0.05)

    def test_bad_block_length(self):
        arr = build_data_array(np.arange(10.0), p=1)
        with pytest.raises(BoundsError):
            block_bootstrap_variance(arr, mean_estimator(), ell=0)
        with pytest.raises(BoundsError):
            block_bootstrap_variance(arr, mean_estimator(), ell=10)

    def test_exhaustive_mode_is_refused(self):
        # block starts are drawn; an exhaustive config is not silently run
        # as Monte Carlo with its default replicates and seed
        arr = build_data_array(np.random.default_rng(3).standard_normal(40), p=2)
        with pytest.raises(ConfigError, match="'exhaustive'"):
            block_bootstrap_variance(arr, mean_estimator(), 3, BootstrapConfig(mode="exhaustive"))

    def test_iid_calibration(self):
        rng = np.random.default_rng(7)
        n, p, ell = 4000, 4, 10
        vals = [
            block_bootstrap_variance(
                build_data_array(rng.standard_normal(n), p=p),
                mean_estimator(),
                ell,
                BootstrapConfig(replicates=400, seed=k),
            ).scalar
            for k in range(30)
        ]
        assert np.median(vals) == pytest.approx(1.0 / n, rel=0.10)

    @pytest.mark.parametrize("m, d, rows", [(7, 1, 3), (101, 3, 5), (101, 1, 41)])
    def test_chunked_matches_whole_column_table(self, monkeypatch, m, d, rows):
        arr = build_data_array(np.random.default_rng(m + d).standard_normal((m * 3, d)), p=3)
        monkeypatch.setattr(resample_module, "_CHUNK_BYTES", rows * arr.values.nbytes + 5)
        cfg = BootstrapConfig(replicates=250, seed=12)
        for est in _estimators(d):
            for ell in (1, 2, 4):
                got = block_bootstrap_variance(arr, est, ell, cfg)
                assert_array_equal(got.matrix, _block_reference(arr, est, ell, cfg))

    @pytest.mark.parametrize("m, ell", [(10, 3), (12, 4), (101, 7), (5, 4)])
    def test_chunked_draws_concatenate_to_the_column_table(self, m, ell):
        # the shared draw, called chunk by chunk on one stream, gives the
        # rows of the one-draw table, ragged last block included
        rng = derived_stream(12, "block_bootstrap")
        chunks = [resample_module._draw(rng, n, m, ell) for n in (3, 1, 50, 7)]
        assert_array_equal(np.concatenate(chunks), _block_table(m, ell, 61, 12))

    def test_evaluation_error_names_the_block_resamples(self, monkeypatch):
        # the block bootstrap evaluates nothing but its resamples, so the
        # first chunk fails, and the error names its closed range
        arr = build_data_array(np.arange(60.0), p=2)

        def batch(stack):
            raise ValueError("refused")

        est = EstimatorSpec(name="refuser", dim=1, evaluate=batch)
        monkeypatch.setattr(resample_module, "_CHUNK_BYTES", 20 * arr.values.nbytes)
        with pytest.raises(
            EvaluationError,
            match=r"'refuser' failed on block_bootstrap resamples 1\.\.20: refused$",
        ):
            block_bootstrap_variance(arr, est, 3, BootstrapConfig(replicates=50, seed=2))

    def test_memory_does_not_grow_with_replicates(self, traced_peak):
        arr = build_data_array(np.random.default_rng(5).standard_normal(50_000), p=5)
        peaks = [
            traced_peak(lambda: block_bootstrap_variance(
                arr, mean_estimator(), 43, BootstrapConfig(replicates=B, seed=1)))
            for B in (200, 2000)
        ]
        assert abs(peaks[1] - peaks[0]) <= resample_module._CHUNK_BYTES
        assert max(peaks) < 16 << 20


class TestNaiveColumn:
    def test_mean_discrepancy_exactly_zero(self):
        # Integer data, power-of-two sizes: grand mean == mean of column
        # means without roundoff.
        rng = np.random.default_rng(3)
        arr = build_data_array(rng.integers(0, 50, size=32).astype(float), p=4)
        _, disc = naive_column_variance(arr, mean_estimator())
        assert disc[0] == 0.0

    def test_constant_data(self):
        arr = build_data_array(np.full(24, 2.5), p=3)
        v, disc = naive_column_variance(arr, mean_estimator())
        assert v.scalar == 0.0
        assert disc[0] == 0.0

    def test_iid_calibration(self):
        rng = np.random.default_rng(11)
        n, p = 8000, 4
        arr = build_data_array(rng.standard_normal(n), p=p)
        v, _ = naive_column_variance(arr, mean_estimator())
        assert v.scalar == pytest.approx(1.0 / n, rel=0.2)

    def test_variance_estimator_discrepancy_positive(self):
        # Plug-in variance per short column is biased low by sigma^2/p;
        # the discrepancy diagnostic must expose roughly that amount.
        rng = np.random.default_rng(13)
        arr = build_data_array(rng.standard_normal(5 * 2000), p=5)
        _, disc = naive_column_variance(arr, pooled_variance_estimator())
        assert disc[0] == pytest.approx(0.2, rel=0.25)
