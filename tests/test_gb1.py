import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from gapboot import (
    BootstrapConfig,
    FewRowsWarning,
    InsufficientDataError,
    RowEstimates,
    build_data_array,
    collect_row_estimates,
    gb1_variance,
    mean_estimator,
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
