import re
import sys
import threading

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.linalg import cho_factor, cho_solve

from gapboot import (
    DEFAULT_SPLIT_THETA,
    PARAM_NAMES,
    BootstrapConfig,
    BoundsError,
    ConfigError,
    ConsistencyError,
    DataError,
    DegenerateCorrelationError,
    DimensionError,
    InsufficientDataError,
    ODDataset,
    ODFit,
    RankError,
    RowEstimates,
    SplitProportions,
    build_design,
    gb1_variance,
    od_standard_errors,
    read_od_csv,
    surrogate_od_dataset,
    write_od_csv,
)
from gapboot import gb2, od
from gapboot._rand import derived_stream
from gapboot.od import OD_CSV_COLUMNS

THETA = np.asarray(DEFAULT_SPLIT_THETA)

#: Relative bounds on how far theta, the GB-I and the GB-II standard
#: errors move when every count is scaled by 3, over the random corridors
#: of ``TestInvariants``; measured at most 6.6e-10, 2.3e-12 and 4.1e-8.
#: GB-II moves most at 6-day windows, whose 21x21 solves rest on only six
#: records each and amplify the rounding of the scaled counts.
SCALE3_RTOL = (5e-9, 1e-11, 2e-7)


def exact_dataset(days=5, slots=3, seed=0):
    """Noise-free dataset satisfying the split model exactly."""
    rng = np.random.default_rng(seed)
    origins = rng.uniform(20.0, 80.0, size=(days, slots, 7))
    destinations = origins @ SplitProportions(THETA).matrix
    return ODDataset(origins=origins, destinations=destinations)


def full_statistics(dataset):
    """Per-record normal equations as full matrices: O'O (D, S, 21, 21) and
    O'D' (D, S, 21), from build_design record by record."""
    designs = np.empty(dataset.origins.shape[:2] + (7, 21))
    responses = np.empty(dataset.origins.shape[:2] + (7,))
    for day in range(dataset.days):
        for slot in range(dataset.slots):
            designs[day, slot], responses[day, slot] = build_design(
                dataset.origins[day, slot], dataset.destinations[day, slot]
            )
    g = np.einsum("dsij,dsik->dsjk", designs, designs)
    h = np.einsum("dsij,dsi->dsj", designs, responses)
    return g, h


def reference_slot_bootstrap_covs(dataset, config, ridge):
    """The slot bootstrap on full 21x21 statistics: one 441-column GEMM per
    slot, counts taken replicate by replicate."""
    g, h = full_statistics(dataset)
    days, slots = g.shape[:2]
    reps = config.replicates
    covs = np.empty((slots, 21, 21))
    for k in range(slots):
        rng = derived_stream(config.seed, "slot", k + 1)
        idx = rng.integers(0, days, size=(reps, days), dtype=np.int64)
        counts = np.stack([np.bincount(row, minlength=days) for row in idx]).astype(np.float64)
        gb = (counts @ g[:, k].reshape(days, 441)).reshape(reps, 21, 21) + ridge * np.eye(21)
        thetas = np.linalg.solve(gb, (counts @ h[:, k])[..., None])[..., 0]
        dev = thetas - thetas.mean(axis=0)
        covs[k] = dev.T @ dev / reps
    return covs


def whole_stack_slot_covs(products, h, config, ridge):
    """The slot bootstrap with each slot in one piece: the whole (B, D)
    index table drawn at once and all B normal equations solved in one
    call."""
    days, slots = products.shape[:2]
    reps = config.replicates
    covs = np.empty((slots, 21, 21))
    for k in range(slots):
        rng = derived_stream(config.seed, "slot", k + 1)
        idx = rng.integers(0, days, size=(reps, days), dtype=np.int64)
        flat = idx + np.arange(reps)[:, None] * days
        counts = np.bincount(flat.ravel(), minlength=reps * days).reshape(reps, days)
        counts = counts.astype(np.float64)
        gb = od._gram(counts @ products[:, k])
        if ridge:
            gb += ridge * np.eye(21)
        thetas = np.linalg.solve(gb, (counts @ h[:, k])[..., None])[..., 0]
        dev = thetas - thetas.mean(axis=0)
        covs[k] = dev.T @ dev / reps
    return covs


def whole_stack_window_estimates(products, h, ell, ridge):
    """Every slot's window estimates from one solve call per slot."""
    out = []
    for k in range(products.shape[1]):
        gwin = od._gram(od._window_sums(products[:, k], ell))
        if ridge:
            gwin += ridge * np.eye(21)
        out.append(np.linalg.solve(gwin, od._window_sums(h[:, k], ell)[..., None])[..., 0])
    return np.stack(out)


def reference_od_gb2(fit, ell, degenerate="error"):
    """OD GB-II as it was written before it ran the gb2 kernel: per-parameter
    window moments, rho = num / sqrt(m_k m_l) clipped to [-1, 1], slot
    scales sqrt(w_ak' Cov_k w_ak), and its own degeneracy branch."""
    theta = fit.theta
    weights = fit.weights
    window = od._window_estimates(fit._products, fit._h, ell, fit.ridge)  # (S, I, 21)
    count = window.shape[1]
    proj = np.einsum("kab,kib->aki", weights, window - theta)  # (21, S, I)
    moment = np.einsum("aki,aki->ak", proj, proj) / count  # (21, S)
    num = np.einsum("aki,ali->akl", proj, proj) / count  # (21, S, S)
    floor = (1e-9 * (1.0 + np.abs(theta))) ** 2
    flat = moment <= floor[:, None]  # (21, S)
    if degenerate == "error" and flat.any():
        a, k = np.argwhere(flat)[0]
        raise DegenerateCorrelationError(f"parameter {PARAM_NAMES[a]} in slot {k + 1}")
    den = np.sqrt(moment[:, :, None] * moment[:, None, :])
    live = ~(flat[:, :, None] | flat[:, None, :])
    rho = np.divide(num, den, out=np.zeros_like(num), where=live & (den > 0.0))
    rho = np.clip(rho, -1.0, 1.0)
    ident = np.arange(fit.dataset.slots)
    rho[:, ident, ident] = 1.0
    quad = np.einsum("kab,kbc,kac->ak", weights, fit.slot_covariances, weights)
    sigma = np.sqrt(np.clip(quad, 0.0, None))
    var = np.einsum("ak,akl,al->a", sigma, rho, sigma)
    return np.sqrt(np.clip(var, 0.0, None))


def od_kernel_inputs(fit, ell):
    """The GB-II kernel inputs of a fit at r = 1: slot variances
    w_ak' Cov_k w_ak, shape (21, S, 1, 1), window projections
    w_ak' (window_k - theta), shape (21, I, S, 1), and the floor (21, 1)."""
    window = od._window_estimates(fit._products, fit._h, ell, fit.ridge)
    proj = np.einsum("kab,kib->aik", fit.weights, window - fit.theta)[..., None]
    quad = np.einsum("kab,kbc,kac->ak", fit.weights, fit.slot_covariances, fit.weights)
    return quad[..., None, None], proj, ((1e-9 * (1.0 + np.abs(fit.theta))) ** 2)[:, None]


def degenerate_name(call):
    """The parameter and slot a DegenerateCorrelationError names."""
    with pytest.raises(DegenerateCorrelationError) as info:
        call()
    return re.search(r"parameter (p\d\d) in slot (\d+)", str(info.value)).groups()


class TestDesign:
    def test_first_origin_block(self):
        design, response = build_design(np.eye(7)[0], np.arange(1.0, 8.0))
        expected = np.zeros((7, 21))
        expected[:6, :6] = np.eye(6)
        expected[6, :6] = -1.0
        assert_array_equal(design, expected)
        assert_array_equal(response, [1, 2, 3, 4, 5, 6, 7 - 1])

    def test_last_origin_enters_response_only(self):
        design, response = build_design(np.eye(7)[6] * 3.0, np.zeros(7))
        assert_array_equal(design, np.zeros((7, 21)))
        assert response[6] == -3.0

    def test_exact_model_identity(self):
        rng = np.random.default_rng(3)
        full = SplitProportions(THETA).matrix
        for _ in range(20):
            origins = rng.uniform(5.0, 100.0, size=7)
            design, response = build_design(origins, origins @ full)
            assert_allclose(design @ THETA, response, rtol=1e-12, atol=1e-10)

    def test_bad_inputs(self):
        with pytest.raises(DimensionError):
            build_design(np.ones(6), np.ones(7))
        with pytest.raises(DataError):
            build_design(np.ones(7) * np.nan, np.ones(7))


class TestSplitMatrix:
    def test_param_names(self):
        assert len(PARAM_NAMES) == 21
        assert PARAM_NAMES[0] == "p11"
        assert PARAM_NAMES[5] == "p16"
        assert PARAM_NAMES[6] == "p22"
        assert PARAM_NAMES[20] == "p66"

    def test_layout(self):
        full = SplitProportions(np.arange(21.0) / 100.0).matrix
        assert_array_equal(full[0, :6], [0.00, 0.01, 0.02, 0.03, 0.04, 0.05])
        assert_array_equal(full[1, 1:6], [0.06, 0.07, 0.08, 0.09, 0.10])
        assert full[5, 5] == 0.20
        assert_array_equal(np.tril(full, -1), np.zeros((7, 7)))
        assert full[6, 6] == 1.0

    def test_final_column_completes_rows(self):
        theta = THETA.copy()
        theta[:6] = [0.355, 0.104, 0.011, 0.064, 0.047, 0.022]
        full = SplitProportions(theta).matrix
        assert full[0, 6] == pytest.approx(0.397, abs=1e-12)

    def test_rows_sum_to_one(self):
        full = SplitProportions(theta=THETA).matrix
        assert_allclose(full.sum(axis=1), np.ones(7), rtol=0, atol=1e-14)

    def test_infeasible_entries(self):
        assert SplitProportions(theta=THETA).infeasible_entries() == []
        theta = THETA.copy()
        theta[0] = -0.1
        bad = SplitProportions(theta=theta).infeasible_entries()
        assert (1, 1, -0.1) in bad
        theta = THETA.copy()
        theta[20] = 1.2  # p66 > 1 also drives p67 below zero
        cells = {(i, j) for i, j, _ in SplitProportions(theta=theta).infeasible_entries()}
        assert cells == {(6, 6), (6, 7)}

    def test_wrong_length(self):
        with pytest.raises(DimensionError):
            SplitProportions(np.ones(20))


class TestCsv:
    def test_roundtrip_exact(self, tmp_path):
        dataset, _ = surrogate_od_dataset(3, slots=2, seed=7)
        path = tmp_path / "od.csv"
        write_od_csv(dataset, path)
        back = read_od_csv(path)
        assert_array_equal(back.origins, dataset.origins)
        assert_array_equal(back.destinations, dataset.destinations)

    @staticmethod
    def _write(path, rows):
        path.write_text("\n".join([",".join(OD_CSV_COLUMNS)] + rows) + "\n")

    @staticmethod
    def _record(day, slot, value="1.0"):
        return f"{day},{slot}," + ",".join([value] * 14)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("day,slot,o1\n1,1,2.0\n")
        with pytest.raises(DataError, match="header"):
            read_od_csv(path)

    def test_duplicate_record(self, tmp_path):
        path = tmp_path / "dup.csv"
        self._write(path, [self._record(1, 1), self._record(1, 1), self._record(2, 1)])
        with pytest.raises(DataError, match="duplicate"):
            read_od_csv(path)

    def test_missing_record(self, tmp_path):
        path = tmp_path / "gap.csv"
        self._write(
            path, [self._record(1, 1), self._record(1, 2), self._record(2, 1)]
        )
        with pytest.raises(DataError, match="missing record for day 2, slot 2"):
            read_od_csv(path)

    def test_noncontiguous_slots(self, tmp_path):
        path = tmp_path / "slots.csv"
        self._write(path, [self._record(1, 1), self._record(1, 3), self._record(2, 1), self._record(2, 3)])
        with pytest.raises(DataError, match="slots"):
            read_od_csv(path)

    def test_unparseable_field(self, tmp_path):
        path = tmp_path / "nan.csv"
        self._write(path, [self._record(1, 1, value="abc"), self._record(2, 1)])
        with pytest.raises(DataError, match="line 2"):
            read_od_csv(path)

    @pytest.mark.parametrize(
        "value, expected", [('"2.5"', 2.5), ("1_000", 1000.0), (" 3.0 ", 3.0), ("\t4.0", 4.0)]
    )
    def test_number_forms_load(self, tmp_path, value, expected):
        # quoted fields, digit separators and surrounding blanks load as float() reads them
        path = tmp_path / "forms.csv"
        self._write(path, [self._record(1, 1), self._record(2, 1, value=value)])
        dataset = read_od_csv(path)
        assert_array_equal(dataset.origins[1, 0], np.full(7, expected))
        assert_array_equal(dataset.destinations[1, 0], np.full(7, expected))
        assert_array_equal(dataset.origins[0, 0], np.ones(7))

    def test_blank_line_between_records_is_skipped(self, tmp_path):
        path = tmp_path / "blank.csv"
        self._write(path, [self._record(1, 1), "", self._record(2, 1, value="2.0")])
        dataset = read_od_csv(path)
        assert (dataset.days, dataset.slots) == (2, 1)
        assert_array_equal(dataset.origins[:, 0, 0], [1.0, 2.0])

    def test_blank_lines_do_not_count_as_records(self, tmp_path):
        # errors name the physical line: the blank line 3 counts, so the
        # duplicate of line 2 sits on line 5
        path = tmp_path / "blank_dup.csv"
        self._write(path, [self._record(1, 1), "", self._record(2, 1), self._record(1, 1)])
        with pytest.raises(DataError, match="duplicate record for day 1, slot 1 at line 5"):
            read_od_csv(path)

    def test_blank_line_before_bad_record_names_its_line(self, tmp_path):
        path = tmp_path / "blank_bad.csv"
        self._write(path, [self._record(1, 1), "", self._record(2, 1, value="x")])
        with pytest.raises(DataError, match="unparseable record at line 4:"):
            read_od_csv(path)

    def test_header_only_is_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        self._write(path, [])
        with pytest.raises(DataError, match="empty dataset"):
            read_od_csv(path)

    @pytest.mark.parametrize(
        "bad", ["1.5," + ",".join(["1.0"] * 15), "3,1," + ",".join(["1.0"] * 13)],
        ids=["fractional-day", "fifteen-fields"],
    )
    def test_unparseable_record_names_its_line(self, tmp_path, bad):
        path = tmp_path / "bad.csv"
        self._write(path, [self._record(1, 1), self._record(2, 1), bad])
        with pytest.raises(DataError, match="unparseable record at line 4:"):
            read_od_csv(path)

    def test_nan_count_is_non_finite(self, tmp_path):
        path = tmp_path / "nan.csv"
        self._write(path, [self._record(1, 1), self._record(2, 1, value="nan")])
        with pytest.raises(DataError, match="non-finite"):
            read_od_csv(path)

    def test_extra_fields_are_ignored(self, tmp_path):
        path = tmp_path / "extra.csv"
        self._write(path, [self._record(1, 1) + ",9", self._record(2, 1, value="2.0")])
        dataset = read_od_csv(path)
        assert_array_equal(dataset.destinations[:, 0, 6], [1.0, 2.0])

    def test_first_duplicate_and_first_missing_are_named(self, tmp_path):
        path = tmp_path / "dups.csv"
        rows = [self._record(2, 2), self._record(1, 1), self._record(1, 2),
                self._record(1, 1), self._record(2, 2)]
        self._write(path, rows)
        with pytest.raises(DataError, match="duplicate record for day 1, slot 1 at line 5"):
            read_od_csv(path)
        self._write(path, [self._record(3, 1), self._record(1, 2), self._record(1, 1),
                           self._record(2, 1)])
        with pytest.raises(DataError, match="missing record for day 2, slot 2$"):
            read_od_csv(path)
        # a duplicate that a missing record balances keeps the D x S count
        self._write(path, [self._record(1, 1), self._record(2, 1), self._record(1, 1),
                           self._record(1, 2)])
        with pytest.raises(DataError, match="duplicate record for day 1, slot 1 at line 4"):
            read_od_csv(path)

    def test_records_in_any_order(self, tmp_path):
        dataset, _ = surrogate_od_dataset(4, slots=3, seed=2)
        path = tmp_path / "od.csv"
        write_od_csv(dataset, path)
        lines = path.read_text().splitlines()
        order = np.random.default_rng(0).permutation(len(lines) - 1) + 1
        path.write_text("\n".join([lines[0]] + [lines[i] for i in order]) + "\n")
        back = read_od_csv(path)
        assert_array_equal(back.origins, dataset.origins)
        assert_array_equal(back.destinations, dataset.destinations)


class TestDataset:
    def test_validation(self):
        good = np.ones((2, 3, 7))
        with pytest.raises(DimensionError):
            ODDataset(origins=np.ones((2, 3, 6)), destinations=np.ones((2, 3, 6)))
        with pytest.raises(DimensionError):
            ODDataset(origins=good, destinations=np.ones((2, 4, 7)))
        with pytest.raises(InsufficientDataError):
            ODDataset(origins=np.ones((1, 3, 7)), destinations=np.ones((1, 3, 7)))
        with pytest.raises(DataError):
            ODDataset(origins=-good, destinations=good)
        bad = good.copy()
        bad[0, 0, 0] = np.inf
        with pytest.raises(DataError):
            ODDataset(origins=good, destinations=bad)


class TestLeastSquares:
    def test_noise_free_recovery(self):
        fit = ODFit(exact_dataset(days=20, slots=4, seed=1))
        theta, gamma = fit.theta, fit.gamma
        assert_allclose(theta, THETA, rtol=0, atol=1e-8)
        assert gamma.shape == (21, 21)
        slot_theta = fit.slot_estimate(2)
        assert_allclose(slot_theta, THETA, rtol=0, atol=1e-8)

    def test_slot_bounds(self):
        fit = ODFit(exact_dataset())
        with pytest.raises(BoundsError, match="slot 0 outside 1..3"):
            fit.slot_estimate(0)
        with pytest.raises(BoundsError, match="slot 4 outside 1..3"):
            fit.slot_estimate(4)

    def test_zero_volume_slot_is_rank_deficient(self):
        rng = np.random.default_rng(2)
        origins = rng.uniform(20.0, 80.0, size=(5, 3, 7))
        origins[:, 1, :] = 0.0
        destinations = origins @ SplitProportions(THETA).matrix
        dataset = ODDataset(origins=origins, destinations=destinations)
        with pytest.raises(RankError):
            ODFit(dataset).slot_estimate(2)


class TestWeights:
    def test_weights_sum_to_identity(self):
        fit = ODFit(exact_dataset(days=12, slots=4, seed=5))
        factor = cho_factor(fit.gamma)
        weights = np.stack([cho_solve(factor, gk) for gk in fit.slot_gammas])
        assert weights.shape == (4, 21, 21)
        assert_allclose(weights.sum(axis=0), np.eye(21), rtol=0, atol=1e-10)
        assert_array_equal(fit.weights, weights)

    def test_partition_violation(self):
        fit = ODFit(exact_dataset(days=12, slots=4, seed=5))
        fit.slot_gammas[0] *= 1.01
        with pytest.raises(ConsistencyError, match="sum"):
            fit.weights


class TestStandardErrors:
    def test_zero_noise_collapses(self):
        dataset, _ = surrogate_od_dataset(40, slots=6, seed=3, noise=0.0)
        config = BootstrapConfig(replicates=200, seed=5)
        se2 = ODFit(dataset, config).gb2_standard_errors(degenerate="zero")
        assert se2.shape == (21,)
        assert (se2 <= 1e-8).all()
        se1 = ODFit(dataset, config).gb1_standard_errors()
        assert (se1 <= 1e-8).all()

    def test_zero_noise_degenerate_error(self):
        dataset, _ = surrogate_od_dataset(40, slots=6, seed=3, noise=0.0)
        with pytest.raises(DegenerateCorrelationError, match="p\\d\\d"):
            ODFit(dataset, BootstrapConfig(replicates=200, seed=5)).gb2_standard_errors()

    def test_bad_policy_and_window(self):
        dataset, _ = surrogate_od_dataset(30, slots=4, seed=1)
        with pytest.raises(ConfigError):
            ODFit(dataset).gb2_standard_errors(degenerate="ignore")
        with pytest.raises(BoundsError):
            ODFit(dataset).gb2_standard_errors(ell=1)
        with pytest.raises(BoundsError):
            ODFit(dataset).gb2_standard_errors(ell=30)

    def test_deterministic(self):
        dataset, _ = surrogate_od_dataset(50, slots=5, seed=9)
        config = BootstrapConfig(replicates=150, seed=2)
        a = ODFit(dataset, config).gb2_standard_errors()
        b = ODFit(dataset, config).gb2_standard_errors()
        assert_array_equal(a, b)
        c = ODFit(dataset, BootstrapConfig(replicates=150, seed=3)).gb2_standard_errors()
        assert not np.array_equal(a, c)

    def test_gb1_gb2_agree_on_iid_days(self):
        # Independent days, interchangeable slots, and a dominant shared
        # day-to-day component: both constructions price in the same
        # cross-slot covariance and should agree closely per component.
        dataset, _ = surrogate_od_dataset(
            450, slots=36, seed=5, noise=0.05, split_drift=0.1, slot_spread=0.0
        )
        config = BootstrapConfig(replicates=200, seed=5)
        se1 = ODFit(dataset, config).gb1_standard_errors()
        se2 = ODFit(dataset, config).gb2_standard_errors(50)
        assert (se1 > 0).all() and (se2 > 0).all()
        agree = np.sum(np.abs(se1 - se2) <= 0.25 * np.maximum(se1, se2))
        assert agree >= 17

    def test_gb1_below_gb2_under_volume_coupled_drift(self):
        # Persistent day conditions hit busy slots harder; the pooled
        # estimator (and GB-II's weights) emphasise exactly those slots,
        # while GB-I weighs all slots equally and lands lower.
        dataset, _ = surrogate_od_dataset(
            450, slots=36, seed=5, day_ar=0.5, noise=0.05, split_drift=0.1,
            slot_spread=0.35,
        )
        config = BootstrapConfig(replicates=200, seed=5)
        se1 = ODFit(dataset, config).gb1_standard_errors()
        se2 = ODFit(dataset, config).gb2_standard_errors(50)
        assert np.sum(se1 < se2) >= 17

    def test_ridge_tolerates_rank_deficient_slot(self):
        rng = np.random.default_rng(4)
        origins = rng.uniform(20.0, 80.0, size=(12, 3, 7))
        origins[:, 1, :] = 0.0
        destinations = origins @ SplitProportions(THETA).matrix
        dataset = ODDataset(origins=origins, destinations=destinations)
        config = BootstrapConfig(replicates=100, seed=1)
        with pytest.raises(RankError):
            ODFit(dataset, config).gb1_standard_errors()
        se = ODFit(dataset, config, ridge=1e-6).gb2_standard_errors(ell=4, degenerate="zero")
        assert np.isfinite(se).all()
        assert (se >= 0).all()


class TestFit:
    def test_packed_statistics_match_full_products(self):
        dataset, _ = surrogate_od_dataset(30, slots=4, seed=6, split_drift=0.1)
        g, h = full_statistics(dataset)
        fit = ODFit(dataset)
        assert_array_equal(od._statistics(dataset)[1], h)
        # origin products are summed in the same order as the full O'O matrices
        assert_array_equal(fit.gamma, g.sum(axis=(0, 1)))
        assert_array_equal(fit.slot_gammas, g.sum(axis=0))
        pooled = cho_solve(cho_factor(g.sum(axis=(0, 1))), h.sum(axis=(0, 1)))
        assert_array_equal(fit.theta, pooled)
        slot = cho_solve(cho_factor(g[:, 2].sum(axis=0)), h[:, 2].sum(axis=0))
        assert_array_equal(fit.slot_estimate(3), slot)
        assert_array_equal(fit.slot_estimates[2], slot)

    @pytest.mark.parametrize("ridge", [0.0, 10.0])
    def test_packed_bootstrap_matches_full_reference(self, ridge):
        dataset, _ = surrogate_od_dataset(40, slots=5, seed=2, day_ar=0.5, split_drift=0.1)
        config = BootstrapConfig(replicates=200, seed=4)
        covs = ODFit(dataset, config, ridge=ridge).slot_covariances
        ref = reference_slot_bootstrap_covs(dataset, config, ridge)
        # the two differ only in the GEMM's summation order
        assert_allclose(covs, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())

    def test_bootstrap_is_lazy_and_drawn_once(self, slot_draws):
        dataset, _ = surrogate_od_dataset(40, slots=5, seed=2, split_drift=0.1)
        fit = ODFit(dataset, BootstrapConfig(replicates=50, seed=1))
        fit.theta
        fit.slot_estimate(2)
        assert fit.weights.shape == (5, 21, 21)
        assert fit.slot_estimates.shape == (5, 21)
        assert slot_draws == []
        fit.gb1_standard_errors()
        fit.gb2_standard_errors(10)
        fit.gb1_standard_errors()
        assert slot_draws == [1, 2, 3, 4, 5]

    def test_one_fit_serves_every_wrapper(self, slot_draws):
        dataset, _ = surrogate_od_dataset(50, slots=5, seed=9, day_ar=0.5, split_drift=0.1)
        config = BootstrapConfig(replicates=150, seed=2)
        theta, se1, se2 = od_standard_errors(dataset, 10, config, ridge=0.5)
        assert slot_draws == [1, 2, 3, 4, 5]
        assert_array_equal(theta, ODFit(dataset, config, ridge=0.5).theta)
        assert_array_equal(se1, ODFit(dataset, config, ridge=0.5).gb1_standard_errors())
        assert_array_equal(se2, ODFit(dataset, config, ridge=0.5).gb2_standard_errors(10))

    @pytest.mark.parametrize("ridge", [-0.5, np.nan, np.inf])
    def test_bad_ridge(self, ridge):
        dataset = exact_dataset(days=12, slots=3)
        calls = (
            lambda: ODFit(dataset, ridge=ridge).theta,
            lambda: ODFit(dataset, ridge=ridge).gb1_standard_errors(),
            lambda: ODFit(dataset, ridge=ridge).gb2_standard_errors(4),
            lambda: od_standard_errors(dataset, 4, ridge=ridge),
        )
        for call in calls:
            with pytest.raises(ConfigError, match="ridge"):
                call()

    def test_options_checked_before_any_draw(self, slot_draws):
        dataset, _ = surrogate_od_dataset(30, slots=4, seed=1)
        for ell in (1, 30):
            with pytest.raises(BoundsError, match="window length"):
                od_standard_errors(dataset, ell)
        with pytest.raises(ConfigError):
            od_standard_errors(dataset, degenerate="ignore")
        assert slot_draws == []


class TestSlotThreads:
    @pytest.mark.parametrize("batch", [7, 100])
    @pytest.mark.parametrize("ridge", [0.0, 10.0])
    def test_chunked_match_whole_stack(self, monkeypatch, batch, ridge):
        # batches of 7 split both the 250 replicates and the 52 windows unevenly
        monkeypatch.setattr(od, "_BATCH", batch)
        dataset, _ = surrogate_od_dataset(60, slots=4, seed=2, day_ar=0.5, split_drift=0.1)
        config = BootstrapConfig(replicates=250, seed=4)
        products, h = od._statistics(dataset)
        covs = ODFit(dataset, config, ridge=ridge).slot_covariances
        assert_array_equal(covs, whole_stack_slot_covs(products, h, config, ridge))
        assert_array_equal(
            od._window_estimates(products, h, 9, ridge),
            whole_stack_window_estimates(products, h, 9, ridge),
        )

    def test_any_worker_count_gives_the_same_bits(self, monkeypatch, slot_draws):
        dataset, _ = surrogate_od_dataset(80, slots=5, seed=9, day_ar=0.5, split_drift=0.1)
        config = BootstrapConfig(replicates=120, seed=3)
        solve, derive = od._solve_normal_equations, od.derived_stream
        threads, draw_threads = set(), set()

        def recording(*args):
            threads.add(threading.current_thread())
            return solve(*args)

        def deriving(*key):
            draw_threads.add(threading.current_thread())
            return derive(*key)

        monkeypatch.setattr(od, "_solve_normal_equations", recording)
        monkeypatch.setattr(od, "derived_stream", deriving)
        results = {}
        for workers in (1, 2, 3):
            monkeypatch.setattr(od, "_WORKERS", workers)
            slot_draws.clear()
            threads.clear()
            results[workers] = od_standard_errors(dataset, 12, config, ridge=0.5)
            # every stream is derived on the calling thread, in slot order
            assert slot_draws == [1, 2, 3, 4, 5]
            assert (threading.main_thread() in threads) == (workers == 1)
        # more workers than slots, switching threads as often as possible
        monkeypatch.setattr(od, "_WORKERS", 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results[8] = od_standard_errors(dataset, 12, config, ridge=0.5)
        finally:
            sys.setswitchinterval(interval)
        for workers in (2, 3, 8):
            for a, b in zip(results[1], results[workers]):
                assert_array_equal(a, b)
        assert draw_threads == {threading.main_thread()}

    def test_lowest_failing_slot_is_raised(self, monkeypatch):
        # slot 2 fails first in time; slot 1's error is still the one raised
        monkeypatch.setattr(od, "_WORKERS", 2)
        slot_two_failed = threading.Event()

        def task(k):
            if k == 1:
                slot_two_failed.set()
                raise RankError("slot 2")
            if k == 0:
                assert slot_two_failed.wait(timeout=10)
                raise RankError("slot 1")

        with pytest.raises(RankError, match="slot 1"):
            od._thread_map(task, 3, od._WORKERS)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_zero_volume_slots_name_the_first(self, monkeypatch, workers):
        monkeypatch.setattr(od, "_WORKERS", workers)
        rng = np.random.default_rng(2)
        origins = rng.uniform(20.0, 80.0, size=(12, 4, 7))
        origins[:, 1:3, :] = 0.0
        destinations = origins @ SplitProportions(THETA).matrix
        dataset = ODDataset(origins=origins, destinations=destinations)
        fit = ODFit(dataset, BootstrapConfig(replicates=50, seed=1))
        with pytest.raises(RankError, match="^singular bootstrap normal equations in slot 2: "):
            fit.slot_covariances
        with pytest.raises(RankError, match="^singular window normal equations in slot 2: "):
            fit.gb2_standard_errors(4)


class TestInvariants:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("scale", [4.0, 0.25])
    def test_power_of_two_scale_is_exact(self, seed, scale):
        # scaling every count by a power of two scales O'O and O'D' exactly
        dataset, _ = surrogate_od_dataset(120, slots=8, seed=seed, day_ar=0.5, split_drift=0.1)
        scaled = ODDataset(origins=scale * dataset.origins, destinations=scale * dataset.destinations)
        config = BootstrapConfig(replicates=200, seed=seed)
        for a, b in zip(od_standard_errors(dataset, config=config),
                        od_standard_errors(scaled, config=config)):
            assert_array_equal(a, b)

    @pytest.mark.filterwarnings("ignore::gapboot.FewRowsWarning")
    def test_random_corridors(self):
        # 200 small random corridors; one in ten is noise-free, where every
        # window projection is degenerate
        rng = np.random.default_rng(20)
        for case in range(200):
            days, slots = int(rng.integers(24, 49)), int(rng.integers(2, 7))
            noise_free = case % 10 == 9
            dataset, _ = surrogate_od_dataset(
                days, slots=slots, seed=case, design_seed=int(rng.integers(100)),
                day_ar=rng.uniform(0.0, 0.8), slot_spread=rng.uniform(0.0, 0.5),
                noise=0.0 if noise_free else rng.uniform(0.01, 0.1),
                split_drift=0.0 if noise_free else rng.uniform(0.0, 0.15),
            )
            ell = int(rng.integers(6, days // 2))
            config = BootstrapConfig(replicates=int(rng.integers(20, 61)), seed=case)
            fit = ODFit(dataset, config)
            msg = f"case {case}"
            if noise_free:
                assert degenerate_name(lambda: fit.gb2_standard_errors(ell)) == degenerate_name(
                    lambda: reference_od_gb2(fit, ell)), msg
                continue
            se2 = fit.gb2_standard_errors(ell)
            assert_allclose(se2, reference_od_gb2(fit, ell), rtol=1e-12, err_msg=msg)
            # count scaling: by a power of two exact, by 3 within rounding
            unit = (fit.theta, fit.gb1_standard_errors(), se2)
            for c in (4.0, 0.25, 3.0):
                scaled = ODFit(ODDataset(origins=c * dataset.origins,
                                         destinations=c * dataset.destinations), config)
                got = (scaled.theta, scaled.gb1_standard_errors(), scaled.gb2_standard_errors(ell))
                for a, b, rtol in zip(got, unit, SCALE3_RTOL):
                    if c == 3.0:
                        assert_allclose(a, b, rtol=rtol, err_msg=msg)
                    else:
                        assert_array_equal(a, b, err_msg=msg)
            # slot relabelling, given the permuted slot inputs
            quad, proj, floor = od_kernel_inputs(fit, ell)
            perm = rng.permutation(slots)
            ones = np.ones(slots)
            assert_allclose(
                gb2._gb2_combine(quad[:, perm], proj[:, :, perm], ones, floor, "error", str),
                gb2._gb2_combine(quad, proj, ones, floor, "error", str), rtol=1e-12, err_msg=msg,
            )
            gb1 = gb1_variance(RowEstimates(fit.slot_estimates, fit.slot_covariances)).matrix
            shuffled = RowEstimates(fit.slot_estimates[perm], fit.slot_covariances[perm])
            assert_allclose(gb1_variance(shuffled).matrix, gb1, rtol=1e-12,
                            atol=1e-12 * np.abs(gb1).max(), err_msg=msg)
            # the unclipped projection correlations
            rho = gb2._window_correlations(proj, floor, "error", str)
            assert np.abs(rho).max() <= 1.0 + 1e-12, msg

    @pytest.mark.parametrize("kind", ["zero-volume", "constant"])
    @pytest.mark.parametrize("degenerate", ["error", "zero"])
    def test_rank_deficient_slot_is_named(self, kind, degenerate):
        for seed, slots in ((0, 3), (1, 5), (2, 6)):
            dataset, _ = surrogate_od_dataset(30, slots=slots, seed=seed, split_drift=0.1)
            origins, destinations = dataset.origins.copy(), dataset.destinations.copy()
            k = seed + 1
            if kind == "zero-volume":
                origins[:, k] = destinations[:, k] = 0.0
            else:
                origins[:, k], destinations[:, k] = origins[0, k], destinations[0, k]
            bad = ODDataset(origins=origins, destinations=destinations)
            config = BootstrapConfig(replicates=20)
            for call in (
                lambda: od_standard_errors(bad, 6, config, degenerate=degenerate),
                lambda: ODFit(bad, config).gb2_standard_errors(6, degenerate),
            ):
                with pytest.raises(RankError, match=f"slot {k + 1}\\b"):
                    call()


class TestGb2Reference:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("ridge", [0.0, 1e-6])
    def test_kernel_matches_reference(self, seed, ridge):
        dataset, _ = surrogate_od_dataset(120, slots=8, seed=seed, day_ar=0.5, split_drift=0.1)
        fit = ODFit(dataset, BootstrapConfig(replicates=200, seed=seed), ridge=ridge)
        assert_allclose(fit.gb2_standard_errors(12), reference_od_gb2(fit, 12), rtol=1e-12)

    def test_zero_volume_slot_with_ridge(self):
        rng = np.random.default_rng(4)
        origins = rng.uniform(20.0, 80.0, size=(12, 3, 7))
        origins[:, 1, :] = 0.0
        destinations = origins @ SplitProportions(THETA).matrix + rng.normal(0.0, 3.0, (12, 3, 7))
        dataset = ODDataset(origins=origins, destinations=np.clip(destinations, 0.0, None))
        fit = ODFit(dataset, BootstrapConfig(replicates=100, seed=1), ridge=1e-6)
        se = fit.gb2_standard_errors(4, "zero")
        assert_allclose(se, reference_od_gb2(fit, 4, "zero"), rtol=1e-12)
        assert (se > 0).all()

    @pytest.mark.parametrize("seed", [3, 4])
    def test_noise_free_names_the_same_parameter_and_slot(self, seed):
        dataset, _ = surrogate_od_dataset(40, slots=6, seed=seed, noise=0.0)
        fit = ODFit(dataset, BootstrapConfig(replicates=200, seed=5))
        kernel = degenerate_name(lambda: fit.gb2_standard_errors(8))
        assert kernel == degenerate_name(lambda: reference_od_gb2(fit, 8))


class TestSurrogate:
    def test_reproducible(self):
        a, ta = surrogate_od_dataset(10, slots=3, seed=4, design_seed=2, day_ar=0.3)
        b, tb = surrogate_od_dataset(10, slots=3, seed=4, design_seed=2, day_ar=0.3)
        assert_array_equal(a.origins, b.origins)
        assert_array_equal(a.destinations, b.destinations)
        assert_array_equal(ta.theta, tb.theta)

    def test_seed_and_design_seed_are_separate(self):
        base, _ = surrogate_od_dataset(10, slots=3, seed=4, design_seed=2)
        other_seed, _ = surrogate_od_dataset(10, slots=3, seed=5, design_seed=2)
        other_design, _ = surrogate_od_dataset(10, slots=3, seed=4, design_seed=3)
        assert not np.array_equal(base.origins, other_seed.origins)
        assert not np.array_equal(base.origins, other_design.origins)

    def test_noise_free_counts_satisfy_model(self):
        dataset, truth = surrogate_od_dataset(6, slots=2, seed=8, noise=0.0)
        expected = np.einsum("dsk,kj->dsj", dataset.origins, truth.matrix)
        assert_allclose(dataset.destinations, expected, rtol=1e-12)

    def test_split_drift_is_mean_zero_around_model(self):
        # The drifted counts must stay centred on origins @ P: flow is
        # conserved exactly (the last column absorbs each row's drift).
        dataset, truth = surrogate_od_dataset(
            400, slots=4, seed=3, noise=0.0, split_drift=0.05
        )
        assert_allclose(
            dataset.destinations.sum(axis=2), dataset.origins.sum(axis=2), rtol=1e-12
        )
        resid = dataset.destinations - dataset.origins @ truth.matrix
        scale = np.abs(dataset.destinations).mean()
        assert np.abs(resid.mean(axis=(0, 1))).max() < 0.02 * scale
        assert np.abs(resid).max() > 1e-3 * scale

    def test_validation(self):
        with pytest.raises(InsufficientDataError):
            surrogate_od_dataset(1)
        with pytest.raises(ConfigError):
            surrogate_od_dataset(10, slots=0)
        with pytest.raises(ConfigError):
            surrogate_od_dataset(10, day_ar=1.0)
        with pytest.raises(ConfigError):
            surrogate_od_dataset(10, noise=-0.1)
        with pytest.raises(ConfigError):
            surrogate_od_dataset(10, split_drift=-0.01)
        with pytest.raises(ConfigError):
            surrogate_od_dataset(10, slot_spread=-0.2)
        bad = THETA.copy()
        bad[0] = 1.5
        with pytest.raises(ConfigError, match="outside"):
            surrogate_od_dataset(10, theta=bad)
