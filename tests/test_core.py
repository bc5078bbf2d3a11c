import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from gapboot import (
    BootstrapConfig,
    BoundsError,
    ConsistencyError,
    DataError,
    DimensionError,
    EstimatorSpec,
    EvaluationError,
    ModelSpec,
    SubseriesEstimates,
    VarianceEstimate,
    apply_estimator,
    apply_estimator_batch,
    build_data_array,
    collect_row_estimates,
    componentwise_mean_estimator,
    gb2_variance,
    generate_series,
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
        with pytest.raises(DimensionError, match="expected m\\*p=4, actual 5"):
            build_data_array([1.0, 2.0, 3.0, 4.0, 5.0], p=2)

    def test_non_divisible_length(self):
        with pytest.raises(DimensionError):
            build_data_array(np.arange(7.0), p=2)

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


#: Each built-in estimator, by factory of d, and its single-sample form.
BUILT_IN_REFERENCES = {
    "mean": (lambda d: mean_estimator(), lambda x: x.mean()),
    "componentwise_mean": (
        componentwise_mean_estimator, lambda x: x.reshape(-1, x.shape[-1]).mean(axis=0)
    ),
    "pooled_variance": (lambda d: pooled_variance_estimator(), lambda x: x.ravel().var()),
    "median": (lambda d: median_estimator(), lambda x: np.median(x)),
}


class TestEstimators:
    @pytest.mark.parametrize("name", BUILT_IN_REFERENCES)
    @pytest.mark.parametrize(
        "family, n, p", [("ar2", 200, 5), ("mar", 200, 5), ("mma", 500, 10)]
    )
    def test_built_ins_match_single_sample_reference(self, name, family, n, p):
        # a stack of one gives the single-sample form bit for bit, on the
        # whole series and on every strided row view
        factory, reference = BUILT_IN_REFERENCES[name]
        for seed in range(3):
            array = generate_series(ModelSpec(family, n, p), (seed, "estimator"))
            est = factory(array.d)
            for x in [array.series()] + [array.row(j) for j in range(1, p + 1)]:
                assert_array_equal(apply_estimator(est, x), np.atleast_1d(reference(x)))

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
        assert_array_equal(apply_estimator(est, x), [2.0, 15.0])

    def test_estimator_failure_wrapped(self):
        def boom(_):
            raise RuntimeError("boom")

        est = EstimatorSpec(name="bad", dim=1, evaluate=boom)
        arr = build_data_array(np.arange(6.0), p=2)
        with pytest.raises(EvaluationError, match="'bad' failed on full series"):
            verify_linearity(arr, est)

    def test_bad_output_shape(self):
        est = EstimatorSpec(name="two", dim=2, evaluate=lambda s: np.zeros((s.shape[0], 3)))
        arr = build_data_array(np.arange(6.0), p=2)
        with pytest.raises(EvaluationError, match="returned shape"):
            verify_linearity(arr, est)

    def test_non_finite_output_named(self):
        # NaN on any sample holding both a repeated value and one above
        # 100: row 3's resamples and the full series, not row 3 itself
        def evaluate(stack):
            flat = np.sort(stack.reshape(stack.shape[0], -1), axis=1)
            repeated = (np.diff(flat, axis=1) == 0.0).any(axis=1)
            return np.where(repeated & (flat[:, -1] > 100.0), np.nan, flat.mean(axis=1))

        est = EstimatorSpec(name="gappy", dim=1, evaluate=evaluate)
        grid = np.tile(np.arange(30.0)[:, None], (1, 4))
        grid[:, 2] += 1000.0
        array = build_data_array(grid.ravel(), p=4)
        with pytest.raises(
            EvaluationError, match=r"'gappy' returned non-finite values on row 3 resamples 1\.\.\d+$"
        ):
            collect_row_estimates(array, est, BootstrapConfig(replicates=50, seed=2))
        with pytest.raises(EvaluationError, match="'gappy' returned non-finite values on full series$"):
            verify_linearity(array, est)

    def test_weight_validation(self):
        # row weights are gb2_variance's argument; an estimator carries none
        sub = SubseriesEstimates(grid=[[[1.0], [3.0]], [[3.0], [1.0]]], full_estimates=[[2.0], [2.0]])
        for weights in ([0.5, 0.6], [-0.5, 1.5]):
            with pytest.raises(ConsistencyError):
                gb2_variance([[[4.0]], [[1.0]]], sub, weights=weights)
        # NaN fails every comparison: it is refused here, not later as a
        # non-finite variance matrix
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ConsistencyError, match=r"weights must lie in \[0, 1\]"):
                gb2_variance([[[4.0]], [[1.0]]], sub, weights=[bad, 0.5])
        with pytest.raises(DimensionError, match="expected 2 weights"):
            gb2_variance([[[4.0]], [[1.0]]], sub, weights=[1.0])


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
