import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from gapboot import (
    BoundsError,
    ConsistencyError,
    DataError,
    DimensionError,
    EstimatorSpec,
    EvaluationError,
    VarianceEstimate,
    apply_estimator_batch,
    build_data_array,
    componentwise_mean_estimator,
    mean_estimator,
    median_estimator,
    pooled_variance_estimator,
    psd_project,
    verify_linearity,
)


class TestBuildDataArray:
    def test_row_layout(self):
        arr = build_data_array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], p=2)
        assert (arr.m, arr.p, arr.d, arr.n) == (3, 2, 1, 6)
        assert_array_equal(arr.row(1).ravel(), [1.0, 3.0, 5.0])
        assert_array_equal(arr.row(2).ravel(), [2.0, 4.0, 6.0])

    def test_column_layout(self):
        arr = build_data_array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], p=2)
        assert_array_equal(arr.values[1].ravel(), [3.0, 4.0])

    def test_row_out_of_bounds(self):
        arr = build_data_array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], p=2)
        with pytest.raises(BoundsError):
            arr.row(3)
        with pytest.raises(BoundsError):
            arr.row(0)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError, match="expected m\\*p=6, actual 5"):
            build_data_array([1.0, 2.0, 3.0, 4.0, 5.0], p=2, m=3)

    def test_non_divisible_length(self):
        with pytest.raises(DimensionError):
            build_data_array(np.arange(7.0), p=2, m=3)

    def test_non_finite_rejected(self):
        with pytest.raises(DataError, match="position 3"):
            build_data_array([1.0, 2.0, np.nan, 4.0], p=2)

    def test_layout_bijection(self):
        rng = np.random.default_rng(7)
        series = rng.standard_normal((12, 3))
        arr = build_data_array(series, p=4)
        rebuilt = np.concatenate([arr.values[i] for i in range(arr.m)])
        assert_array_equal(rebuilt, series)
        assert_array_equal(arr.series(), series)

    def test_column_block(self):
        # columns 2..3 of the grid are one contiguous run of the series
        arr = build_data_array(np.arange(12.0), p=3)
        assert_array_equal(arr.values[1:3].reshape(6, 1), arr.series()[3:9])
        assert_array_equal(arr.series()[3:9].ravel(), np.arange(3.0, 9.0))


class TestEstimators:
    def test_mean_batch_matches_loop(self):
        rng = np.random.default_rng(0)
        stack = rng.standard_normal((8, 5, 2))
        est = mean_estimator()
        batched = apply_estimator_batch(est, stack)
        looped = np.stack([est.evaluate(s) for s in stack]).reshape(8, 1)
        assert_allclose(batched, looped, rtol=1e-15)

    @pytest.mark.parametrize(
        "factory", [mean_estimator, pooled_variance_estimator, median_estimator]
    )
    def test_scalar_estimators_shape(self, factory):
        est = factory()
        rng = np.random.default_rng(3)
        out = apply_estimator_batch(est, rng.standard_normal((4, 6, 1)))
        assert out.shape == (4, 1)

    def test_componentwise_mean(self):
        est = componentwise_mean_estimator(2)
        x = np.array([[1.0, 10.0], [3.0, 20.0]])
        assert_array_equal(est.evaluate(x), [2.0, 15.0])

    def test_estimator_failure_wrapped(self):
        def boom(_):
            raise RuntimeError("boom")

        est = EstimatorSpec(name="bad", dim=1, evaluate=boom)
        arr = build_data_array(np.arange(6.0), p=2)
        with pytest.raises(EvaluationError, match="'bad' failed on full series"):
            verify_linearity(arr, est)

    def test_bad_output_shape(self):
        est = EstimatorSpec(name="two", dim=2, evaluate=lambda x: np.zeros(3))
        arr = build_data_array(np.arange(6.0), p=2)
        with pytest.raises(EvaluationError, match="returned shape"):
            verify_linearity(arr, est)

    def test_weight_validation(self):
        with pytest.raises(ConsistencyError):
            EstimatorSpec(name="w", dim=1, evaluate=np.mean, weights=[0.5, 0.6])
        with pytest.raises(ConsistencyError):
            EstimatorSpec(name="w", dim=1, evaluate=np.mean, weights=[-0.5, 1.5])


class TestLinearity:
    def test_mean_exact_zero_on_dyadic_data(self):
        # Integer data and a power-of-two m keep every intermediate exact.
        rng = np.random.default_rng(11)
        arr = build_data_array(rng.integers(0, 100, size=16).astype(float), p=4)
        assert verify_linearity(arr, mean_estimator()) == 0.0

    def test_mean_near_zero_on_float_data(self):
        rng = np.random.default_rng(12)
        arr = build_data_array(rng.standard_normal((30, 3)), p=5)
        assert verify_linearity(arr, componentwise_mean_estimator(3)) <= 1e-12

    def test_median_not_linear(self):
        arr = build_data_array([1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 10.0, 2.0], p=2)
        assert verify_linearity(arr, median_estimator()) == pytest.approx(0.5)


class TestVarianceEstimate:
    def test_psd_project_keeps_psd_input(self):
        m = np.array([[2.0, 0.5], [0.5, 1.0]])
        assert_array_equal(psd_project(m), m)

    def test_psd_project_clips(self):
        m = np.diag([1.0, -2.0])
        out = psd_project(m)
        assert_allclose(out, np.diag([1.0, 0.0]), atol=1e-12)
        assert np.linalg.eigvalsh(out)[0] >= 0.0

    def test_asymmetric_rejected(self):
        with pytest.raises(ConsistencyError, match="asymmetric"):
            VarianceEstimate(matrix=np.array([[1.0, 0.2], [0.1, 1.0]]))

    def test_materially_negative_rejected(self):
        with pytest.raises(ConsistencyError, match="eigenvalue"):
            VarianceEstimate(matrix=np.diag([1.0, -0.5]))

    def test_roundoff_negative_clipped(self):
        est = VarianceEstimate(matrix=np.diag([1.0, -1e-14]))
        assert est.matrix[1, 1] == 0.0
        assert_array_equal(est.standard_errors, [1.0, 0.0])

    def test_scalar_accessor(self):
        est = VarianceEstimate(matrix=np.array([[4.0]]))
        assert est.scalar == 4.0
        with pytest.raises(DimensionError):
            VarianceEstimate(matrix=np.eye(2)).scalar
