import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from gapboot import (
    BoundsError,
    ConfigError,
    ConsistencyError,
    DegenerateCorrelationError,
    InsufficientDataError,
    SubseriesEstimates,
    build_data_array,
    componentwise_mean_estimator,
    correlation_matrix,
    default_block_length,
    gb2_variance,
    mean_estimator,
    psd_project,
    subseries_estimates,
    sym_inverse_sqrt,
    sym_sqrt,
)
from gapboot.gb2 import _gb2_combine, _window_correlations


class TestDefaultBlockLength:
    @pytest.mark.parametrize("m,expected", [(575, 17), (8, 4), (1000, 20), (40, 7)])
    def test_values(self, m, expected):
        assert default_block_length(m) == expected

    def test_in_valid_range(self):
        assert all(2 <= default_block_length(m) <= m - 1 for m in range(8, 20_001))

    def test_too_few_columns(self):
        with pytest.raises(InsufficientDataError):
            default_block_length(7)


class TestSubseriesEstimates:
    def test_window_count(self):
        arr = build_data_array(np.arange(10.0), p=2)
        sub = subseries_estimates(arr, mean_estimator(), ell=2)
        assert sub.count == 4

    def test_window_means(self):
        arr = build_data_array([1.0, 2.0, 3.0, 4.0], p=1)
        sub = subseries_estimates(arr, mean_estimator(), ell=2)
        assert_array_equal(sub.grid[:, 0, 0], [1.5, 2.5, 3.5])
        assert sub.full_estimates[0, 0] == 2.5

    def test_constant_data(self):
        arr = build_data_array(np.full(12, 3.0), p=3)
        sub = subseries_estimates(arr, mean_estimator(), ell=2)
        assert_array_equal(sub.grid, np.full_like(sub.grid, 3.0))

    @pytest.mark.parametrize("ell", [1, 5, 6])
    def test_bad_window_length(self, ell):
        arr = build_data_array(np.arange(10.0), p=2)
        with pytest.raises(BoundsError):
            subseries_estimates(arr, mean_estimator(), ell=ell)


def deviations(sub, j):
    """Row j's window estimates minus its full estimate, shape (I, r)."""
    return sub.grid[:, j - 1, :] - sub.full_estimates[j - 1]


def make_sub(rows, full):
    """Scalar SubseriesEstimates from per-row window sequences."""
    grid = np.asarray(rows, float).T[:, :, None]
    return SubseriesEstimates(grid=grid, full_estimates=np.asarray(full, float)[:, None])


def window_correlation(sub, j, k):
    """The scalar window correlation of rows j and k: the r = 1 case of
    ``correlation_matrix``, which does not clip it to [-1, 1]."""
    return correlation_matrix(sub, j, k)[0, 0]


class TestSamplingWindowCorrelation:
    def test_self_correlation_is_one(self):
        sub = make_sub([[1.0, 2.0, 3.0]], [2.0])
        assert window_correlation(sub, 1, 1) == pytest.approx(1.0, abs=1e-15)

    def test_identical_sequences(self):
        sub = make_sub([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]], [2.0, 2.0])
        assert window_correlation(sub, 1, 2) == pytest.approx(1.0, abs=1e-15)

    def test_hand_value(self):
        # Deviations (-1,0,1) and (0,-1,1): num 1/3, dens 2/3 -> 0.5.
        sub = make_sub([[1.0, 2.0, 3.0], [2.0, 1.0, 3.0]], [2.0, 2.0])
        assert window_correlation(sub, 1, 2) == pytest.approx(0.5, abs=1e-15)

    def test_degenerate(self):
        sub = make_sub([[2.0, 2.0, 2.0], [1.0, 2.0, 3.0]], [2.0, 2.0])
        with pytest.raises(DegenerateCorrelationError, match="row 1"):
            window_correlation(sub, 1, 2)

    def test_bounded_by_one(self):
        # Unclipped, so rounding may carry |rho| past 1: collinear windows
        # reach 1 + 4 ulp (of 1.0); the bound allows 8.
        bound = 1.0 + 8 * np.spacing(1.0)
        rng = np.random.default_rng(0)
        for _ in range(200):
            seqs = rng.standard_normal((2, 6))
            sub = make_sub(seqs, rng.standard_normal(2))
            assert abs(window_correlation(sub, 1, 2)) <= bound
            seqs[1] = rng.uniform(-3.0, 3.0) * seqs[0]
            sub = make_sub(seqs, [0.0, 0.0])
            assert abs(window_correlation(sub, 1, 2)) <= bound


class TestSymmetricRoots:
    def test_inverse_sqrt_identity(self):
        assert_allclose(sym_inverse_sqrt(np.eye(3)), np.eye(3), atol=1e-15)

    def test_inverse_sqrt_diagonal(self):
        out = sym_inverse_sqrt(np.diag([4.0, 9.0]))
        assert_allclose(out, np.diag([0.5, 1.0 / 3.0]), rtol=1e-14, atol=1e-16)

    def test_inverse_sqrt_dense(self):
        m = np.array([[2.0, 1.0], [1.0, 2.0]])  # eigenvalues 1 and 3
        out = sym_inverse_sqrt(m)
        assert_allclose(out @ out @ m, np.eye(2), atol=1e-12)

    def test_asymmetric_rejected(self):
        with pytest.raises(ConsistencyError):
            sym_inverse_sqrt(np.array([[1.0, 0.5], [0.1, 1.0]]))

    def test_eps_floor_handles_singular_input(self):
        out = sym_inverse_sqrt(np.ones((2, 2)))
        assert np.isfinite(out).all()

    def test_floor_is_relative(self):
        m = np.array([[2.0, 1.0], [1.0, 2.0]])
        for c in (1e-9, 1.0, 1e7):
            assert_allclose(sym_inverse_sqrt(c * c * m), sym_inverse_sqrt(m) / c, rtol=1e-12)
        assert_allclose(sym_inverse_sqrt(np.zeros((2, 2))), 1e6 * np.eye(2))

    def test_stacks_match_single_matrices(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((4, 3, 3))
        stack = x @ x.swapaxes(1, 2)
        for fn in (sym_sqrt, sym_inverse_sqrt):
            out = fn(stack)
            for m, expected in zip(stack, out):
                assert_allclose(fn(m), expected, rtol=1e-12)

    def test_sqrt_roundtrip(self):
        m = np.array([[3.0, 1.0], [1.0, 2.0]])
        root = sym_sqrt(m)
        assert_allclose(root @ root, m, rtol=1e-12, atol=1e-14)


class TestCorrelationMatrix:
    def setup_method(self):
        rng = np.random.default_rng(4)
        arr = build_data_array(rng.standard_normal((60, 2)) + [0.5, -1.0], p=3)
        self.sub = subseries_estimates(arr, componentwise_mean_estimator(2), ell=6)

    def test_self_is_identity(self):
        for j in (1, 2, 3):
            assert_allclose(correlation_matrix(self.sub, j, j), np.eye(2), atol=1e-8)

    def test_scalar_case_matches_window_correlation(self):
        rng = np.random.default_rng(5)
        arr = build_data_array(rng.standard_normal(40), p=2)
        sub = subseries_estimates(arr, mean_estimator(), ell=5)
        a, b = deviations(sub, 1)[:, 0], deviations(sub, 2)[:, 0]
        scalar = (a @ b) / np.sqrt((a @ a) * (b @ b))
        assert_allclose(correlation_matrix(sub, 1, 2)[0, 0], scalar, rtol=1e-10)

    def test_mirror_gives_minus_identity(self):
        rng = np.random.default_rng(6)
        dev = rng.standard_normal((9, 2))
        full = np.array([[0.3, -0.2], [0.3, -0.2]])
        grid = np.stack([full[0] + dev, full[1] - dev], axis=1)
        sub = SubseriesEstimates(grid=grid, full_estimates=full)
        assert_allclose(correlation_matrix(sub, 1, 2), -np.eye(2), atol=1e-8)

    def test_degenerate_row_propagates_index(self):
        grid = self.sub.grid.copy()
        grid[:, 1, :] = self.sub.full_estimates[1]
        sub = SubseriesEstimates(grid=grid, full_estimates=self.sub.full_estimates)
        with pytest.raises(DegenerateCorrelationError, match="row 2"):
            correlation_matrix(sub, 1, 2)


class TestGb2Variance:
    def test_single_row_returns_input(self):
        sub = make_sub([[1.0, 2.0, 3.0]], [2.0])
        v = gb2_variance(np.array([[[2.0]]]), sub, weights=[1.0])
        assert v.scalar == 2.0

    def test_perfect_correlation(self):
        # sigma_1 = sigma_2 = 2, rho = 1 -> four terms of 0.25*4 each.
        sub = make_sub([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]], [2.0, 2.0])
        v = gb2_variance(np.array([[[4.0]], [[4.0]]]), sub, weights=[0.5, 0.5])
        assert v.scalar == pytest.approx(4.0, rel=1e-12)

    def test_zero_correlation(self):
        # Deviations (-1,0,1) vs (1,-2,1) are orthogonal -> diagonal only.
        sub = make_sub([[1.0, 2.0, 3.0], [3.0, 0.0, 3.0]], [2.0, 2.0])
        v = gb2_variance(np.array([[[4.0]], [[4.0]]]), sub, weights=[0.5, 0.5])
        assert v.scalar == 2.0

    def test_degenerate_policies(self):
        sub = make_sub([[1.0, 2.0, 3.0], [2.0, 2.0, 2.0]], [2.0, 2.0])
        variances = np.array([[[4.0]], [[4.0]]])
        with pytest.raises(DegenerateCorrelationError):
            gb2_variance(variances, sub)
        v = gb2_variance(variances, sub, degenerate="zero")
        assert v.scalar == 2.0
        with pytest.raises(ConfigError):
            gb2_variance(variances, sub, degenerate="ignore")

    def test_weight_validation(self):
        sub = make_sub([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]], [2.0, 2.0])
        variances = np.array([[[4.0]], [[4.0]]])
        with pytest.raises(ConsistencyError):
            gb2_variance(variances, sub, weights=[0.2, 0.2])

    def test_output_symmetric_psd(self):
        rng = np.random.default_rng(8)
        arr = build_data_array(rng.standard_normal((72, 2)), p=4)
        est = componentwise_mean_estimator(2)
        sub = subseries_estimates(arr, est, ell=5)
        variances = np.stack(
            [np.cov(arr.row(j), rowvar=False) / arr.m for j in range(1, 5)]
        )
        v = gb2_variance(variances, sub)
        assert_allclose(v.matrix, v.matrix.T, atol=1e-15)
        assert np.linalg.eigvalsh(v.matrix)[0] >= -1e-12


def test_rho_scale_invariant_for_mean():
    rng = np.random.default_rng(10)
    series = rng.standard_normal(36)
    arr1 = build_data_array(series, p=2)
    arr2 = build_data_array(17.5 * series, p=2)
    sub1 = subseries_estimates(arr1, mean_estimator(), ell=4)
    sub2 = subseries_estimates(arr2, mean_estimator(), ell=4)
    r1 = window_correlation(sub1, 1, 2)
    r2 = window_correlation(sub2, 1, 2)
    assert_allclose(r1, r2, rtol=1e-12)


def _root(a, power):
    w, v = np.linalg.eigh(a)
    return (v * np.clip(w, 0.0, None) ** power) @ v.T


def reference_correlation(sub, j, k):
    """A_j^{-1/2} C_jk A_k^{-1/2} from row j's and row k's deviations alone."""
    dj, dk = deviations(sub, j), deviations(sub, k)
    count = sub.count
    return _root(dj.T @ dj / count, -0.5) @ (dj.T @ dk / count) @ _root(dk.T @ dk / count, -0.5)


def reference_gb2(row_variances, sub, weights=None, degenerate="error"):
    """GB-II as a loop over row pairs with two inverse roots per pair, the
    form the batched kernel replaced; returns the PSD-projected sum."""
    v = np.asarray(row_variances, dtype=np.float64)
    p = sub.p
    w = np.full(p, 1.0 / p) if weights is None else np.asarray(weights, dtype=np.float64)
    roots = [_root(v[j], 0.5) for j in range(p)]
    acc = np.einsum("j,jab->ab", w * w, v)
    for j in range(1, p + 1):
        for k in range(j + 1, p + 1):
            flat = [row for row in (j, k) if not deviations(sub, row).any()]
            if flat:
                if degenerate == "zero":
                    continue
                raise DegenerateCorrelationError(f"row {flat[0]}")
            term = (w[j - 1] * w[k - 1]) * (
                roots[j - 1] @ reference_correlation(sub, j, k) @ roots[k - 1]
            )
            acc += term + term.T
    return psd_project(acc)


def kernel_case(p, r, n, seed, ell=None):
    """Window estimates of a dependent series split into p rows, and row
    variances from each row's own sample covariance."""
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((n + 1, r))
    series = noise[1:] + 0.6 * noise[:-1] + np.linspace(0.0, 1.0, r)
    arr = build_data_array(series if r > 1 else series[:, 0], p=p)
    est = componentwise_mean_estimator(r) if r > 1 else mean_estimator()
    sub = subseries_estimates(arr, est, ell or default_block_length(arr.m))
    variances = np.stack(
        [np.atleast_2d(np.cov(arr.row(j), rowvar=False)) / arr.m for j in range(1, p + 1)]
    )
    return sub, variances


def assert_matches_reference(got, ref):
    assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())


class TestGb2Kernel:
    def test_scalar_forty_rows(self):
        sub, variances = kernel_case(p=40, r=1, n=4000, seed=1)
        assert_matches_reference(gb2_variance(variances, sub).matrix, reference_gb2(variances, sub))

    def test_componentwise_mean(self):
        sub, variances = kernel_case(p=6, r=3, n=900, seed=2)
        assert_matches_reference(gb2_variance(variances, sub).matrix, reference_gb2(variances, sub))

    def test_unequal_weights(self):
        sub, variances = kernel_case(p=7, r=2, n=700, seed=3)
        w = np.random.default_rng(3).uniform(0.1, 1.0, 7)
        w /= w.sum()
        assert_matches_reference(
            gb2_variance(variances, sub, weights=w).matrix, reference_gb2(variances, sub, w)
        )

    def test_correlations_match_correlation_matrix(self):
        sub, _ = kernel_case(p=5, r=3, n=600, seed=4)
        corr = _window_correlations(sub.grid - sub.full_estimates, 0.0, "error", str)
        for j in range(1, 6):
            for k in range(1, 6):
                expected = correlation_matrix(sub, j, k)
                assert_allclose(corr[j - 1, k - 1], expected, rtol=1e-12, atol=1e-12)
                assert_allclose(expected, reference_correlation(sub, j, k), rtol=1e-10, atol=1e-10)

    @pytest.mark.parametrize("r", [1, 2])
    def test_degenerate_rows(self, r):
        sub, variances = kernel_case(p=6, r=r, n=600, seed=5)
        grid = sub.grid.copy()
        for row in (5, 3):
            grid[:, row - 1] = sub.full_estimates[row - 1]
        sub = SubseriesEstimates(grid=grid, full_estimates=sub.full_estimates)
        with pytest.raises(DegenerateCorrelationError, match=r"row 3\b"):
            gb2_variance(variances, sub)
        with pytest.raises(DegenerateCorrelationError, match=r"row 3\b"):
            reference_gb2(variances, sub)
        assert_matches_reference(
            gb2_variance(variances, sub, degenerate="zero").matrix,
            reference_gb2(variances, sub, degenerate="zero"),
        )

    def test_row_permutation_invariance(self):
        sub, variances = kernel_case(p=9, r=2, n=900, seed=6)
        w = np.random.default_rng(6).uniform(0.1, 1.0, 9)
        w /= w.sum()
        perm = np.random.default_rng(7).permutation(9)
        shuffled = SubseriesEstimates(grid=sub.grid[:, perm], full_estimates=sub.full_estimates[perm])
        assert_allclose(
            gb2_variance(variances[perm], shuffled, weights=w[perm]).matrix,
            gb2_variance(variances, sub, weights=w).matrix,
            rtol=1e-12,
        )

    def test_no_eigendecomposition_per_pair(self, monkeypatch):
        sub, variances = kernel_case(p=40, r=1, n=4000, seed=8)
        calls = []
        eigh = np.linalg.eigh

        def counting_eigh(*args, **kwargs):
            calls.append(1)
            return eigh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        gb2_variance(variances, sub)
        assert 0 < len(calls) <= 2 * 40 + 2

    def test_combination_is_psd_before_projection(self):
        # 1000 cases, with near-collinear rows and, under "zero",
        # degenerate rows; the kernel's own output, before VarianceEstimate
        rng = np.random.default_rng(12)
        for case in range(1000):
            p, r, count = int(rng.integers(2, 10)), int(rng.integers(1, 4)), int(rng.integers(3, 30))
            dev = rng.standard_normal((count, p, r)) * rng.uniform(1e-3, 1e3)
            if case % 3 == 0:
                dev += rng.uniform(1.0, 30.0) * rng.standard_normal((count, 1, r))
            policy = "zero" if case % 4 == 0 else "error"
            if policy == "zero":
                dev[:, rng.integers(p)] = 0.0
            x = rng.standard_normal((p, r, r + int(rng.integers(0, 3))))
            w = rng.uniform(0.0, 1.0, p)
            out = _gb2_combine(x @ x.swapaxes(1, 2), dev, w / w.sum(), 0.0, policy, str)
            eig = np.linalg.eigvalsh(0.5 * (out + out.T))
            assert eig[0] >= -1e-12 * eig[-1], f"case {case}: {eig}"

    def test_batch_axes_match_single_calls(self):
        rng = np.random.default_rng(13)
        dev = rng.standard_normal((4, 3, 25, 6, 2))
        x = rng.standard_normal((4, 3, 6, 2, 2))
        variances = x @ x.swapaxes(-1, -2)
        w = np.full(6, 1.0 / 6.0)
        floor = rng.uniform(0.0, 1.0, (4, 3, 6))
        batched = _gb2_combine(variances, dev, w, floor, "zero", str)
        for b in np.ndindex(4, 3):
            assert_array_equal(batched[b], _gb2_combine(variances[b], dev[b], w, floor[b], "zero", str))

    def test_psd_combination_makes_one_eigvalsh(self, monkeypatch):
        sub, variances = kernel_case(p=6, r=2, n=600, seed=9)
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counting_eigvalsh(*args, **kwargs):
            calls.append(1)
            return eigvalsh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
        v = gb2_variance(variances, sub)
        assert len(calls) == 1
        assert np.linalg.eigvalsh(v.matrix)[0] >= 0.0

    @pytest.mark.parametrize("c", [1e-8, 1e-3, 1e4])
    def test_scale_equivariance(self, c):
        rng = np.random.default_rng(11)
        noise = rng.standard_normal(401)
        series = noise[1:] + 0.5 * noise[:-1]

        def gb2_at(scale):
            arr = build_data_array(scale * series, p=4)
            sub = subseries_estimates(arr, mean_estimator(), ell=8)
            variances = np.array([[[np.var(arr.row(j)) / arr.m]] for j in range(1, 5)])
            return gb2_variance(variances, sub).scalar, correlation_matrix(sub, 1, 2)

        (unit, rho), (scaled, rho_c) = gb2_at(1.0), gb2_at(c)
        assert_allclose(scaled / c**2, unit, rtol=1e-10)
        assert_allclose(rho_c, rho, rtol=1e-10)
