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
    SplitProportions,
    build_design,
    ls_estimate,
    od_gb1_standard_errors,
    od_gb2_standard_errors,
    od_standard_errors,
    od_weights,
    read_od_csv,
    recover_split_matrix,
    surrogate_od_dataset,
    write_od_csv,
)
from gapboot import od
from gapboot._rand import derived_stream
from gapboot.od import OD_CSV_COLUMNS

THETA = np.asarray(DEFAULT_SPLIT_THETA)


def exact_dataset(days=5, slots=3, seed=0):
    """Noise-free dataset satisfying the split model exactly."""
    rng = np.random.default_rng(seed)
    origins = rng.uniform(20.0, 80.0, size=(days, slots, 7))
    destinations = origins @ recover_split_matrix(THETA)
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
        full = recover_split_matrix(THETA)
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
        full = recover_split_matrix(np.arange(21.0) / 100.0)
        assert_array_equal(full[0, :6], [0.00, 0.01, 0.02, 0.03, 0.04, 0.05])
        assert_array_equal(full[1, 1:6], [0.06, 0.07, 0.08, 0.09, 0.10])
        assert full[5, 5] == 0.20
        assert_array_equal(np.tril(full, -1), np.zeros((7, 7)))
        assert full[6, 6] == 1.0

    def test_final_column_completes_rows(self):
        theta = THETA.copy()
        theta[:6] = [0.355, 0.104, 0.011, 0.064, 0.047, 0.022]
        full = recover_split_matrix(theta)
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
            recover_split_matrix(np.ones(20))


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
        # a record's line number counts the header and the records before it
        path = tmp_path / "blank_dup.csv"
        self._write(path, [self._record(1, 1), "", self._record(2, 1), self._record(1, 1)])
        with pytest.raises(DataError, match="duplicate record for day 1, slot 1 at line 4"):
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
        dataset = exact_dataset(days=20, slots=4, seed=1)
        theta, gamma = ls_estimate(dataset)
        assert_allclose(theta, THETA, rtol=0, atol=1e-8)
        assert gamma.shape == (21, 21)
        slot_theta, _ = ls_estimate(dataset, slot=2)
        assert_allclose(slot_theta, THETA, rtol=0, atol=1e-8)

    def test_slot_bounds(self):
        dataset = exact_dataset()
        with pytest.raises(BoundsError):
            ls_estimate(dataset, slot=0)
        with pytest.raises(BoundsError):
            ls_estimate(dataset, slot=4)

    def test_zero_volume_slot_is_rank_deficient(self):
        rng = np.random.default_rng(2)
        origins = rng.uniform(20.0, 80.0, size=(5, 3, 7))
        origins[:, 1, :] = 0.0
        destinations = origins @ recover_split_matrix(THETA)
        dataset = ODDataset(origins=origins, destinations=destinations)
        with pytest.raises(RankError):
            ls_estimate(dataset, slot=2)


class TestWeights:
    def test_weights_sum_to_identity(self):
        fit = ODFit(exact_dataset(days=12, slots=4, seed=5))
        weights = od_weights(fit.gamma, fit.slot_gammas)
        assert weights.shape == (4, 21, 21)
        assert_allclose(weights.sum(axis=0), np.eye(21), rtol=0, atol=1e-10)
        assert_array_equal(fit.weights, weights)

    def test_partition_violation(self):
        fit = ODFit(exact_dataset(days=12, slots=4, seed=5))
        slot_gammas = fit.slot_gammas.copy()
        slot_gammas[0] *= 1.01
        with pytest.raises(ConsistencyError, match="sum"):
            od_weights(fit.gamma, slot_gammas)

    def test_shape_errors(self):
        with pytest.raises(DimensionError):
            od_weights(np.ones((21, 20)), np.ones((4, 21, 21)))
        with pytest.raises(DimensionError):
            od_weights(np.eye(21), np.ones((4, 20, 20)))


class TestStandardErrors:
    def test_zero_noise_collapses(self):
        dataset, _ = surrogate_od_dataset(40, slots=6, seed=3, noise=0.0)
        config = BootstrapConfig(replicates=200, seed=5)
        se2 = od_gb2_standard_errors(dataset, config=config, degenerate="zero")
        assert se2.shape == (21,)
        assert (se2 <= 1e-8).all()
        se1 = od_gb1_standard_errors(dataset, config)
        assert (se1 <= 1e-8).all()

    def test_zero_noise_degenerate_error(self):
        dataset, _ = surrogate_od_dataset(40, slots=6, seed=3, noise=0.0)
        with pytest.raises(DegenerateCorrelationError, match="p\\d\\d"):
            od_gb2_standard_errors(dataset, config=BootstrapConfig(replicates=200, seed=5))

    def test_bad_policy_and_window(self):
        dataset, _ = surrogate_od_dataset(30, slots=4, seed=1)
        with pytest.raises(ConfigError):
            od_gb2_standard_errors(dataset, degenerate="ignore")
        with pytest.raises(BoundsError):
            od_gb2_standard_errors(dataset, ell=1)
        with pytest.raises(BoundsError):
            od_gb2_standard_errors(dataset, ell=30)

    def test_deterministic(self):
        dataset, _ = surrogate_od_dataset(50, slots=5, seed=9)
        config = BootstrapConfig(replicates=150, seed=2)
        a = od_gb2_standard_errors(dataset, config=config)
        b = od_gb2_standard_errors(dataset, config=config)
        assert_array_equal(a, b)
        c = od_gb2_standard_errors(dataset, config=BootstrapConfig(replicates=150, seed=3))
        assert not np.array_equal(a, c)

    def test_gb1_gb2_agree_on_iid_days(self):
        # Independent days, interchangeable slots, and a dominant shared
        # day-to-day component: both constructions price in the same
        # cross-slot covariance and should agree closely per component.
        dataset, _ = surrogate_od_dataset(
            450, slots=36, seed=5, noise=0.05, split_drift=0.1, slot_spread=0.0
        )
        config = BootstrapConfig(replicates=200, seed=5)
        se1 = od_gb1_standard_errors(dataset, config)
        se2 = od_gb2_standard_errors(dataset, 50, config=config)
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
        se1 = od_gb1_standard_errors(dataset, config)
        se2 = od_gb2_standard_errors(dataset, 50, config=config)
        assert np.sum(se1 < se2) >= 17

    def test_ridge_tolerates_rank_deficient_slot(self):
        rng = np.random.default_rng(4)
        origins = rng.uniform(20.0, 80.0, size=(12, 3, 7))
        origins[:, 1, :] = 0.0
        destinations = origins @ recover_split_matrix(THETA)
        dataset = ODDataset(origins=origins, destinations=destinations)
        config = BootstrapConfig(replicates=100, seed=1)
        with pytest.raises(RankError):
            od_gb1_standard_errors(dataset, config)
        se = od_gb2_standard_errors(
            dataset, ell=4, config=config, degenerate="zero", ridge=1e-6
        )
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
        assert_array_equal(ls_estimate(dataset)[0], pooled)
        assert_array_equal(fit.theta, pooled)
        slot = cho_solve(cho_factor(g[:, 2].sum(axis=0)), h[:, 2].sum(axis=0))
        assert_array_equal(ls_estimate(dataset, slot=3)[0], slot)
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
        ls_estimate(dataset)
        ls_estimate(dataset, slot=2)
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
        assert_array_equal(theta, ls_estimate(dataset, ridge=0.5)[0])
        assert_array_equal(se1, od_gb1_standard_errors(dataset, config, ridge=0.5))
        assert_array_equal(se2, od_gb2_standard_errors(dataset, 10, config, ridge=0.5))

    @pytest.mark.parametrize("ridge", [-0.5, np.nan, np.inf])
    def test_bad_ridge(self, ridge):
        dataset = exact_dataset(days=12, slots=3)
        calls = (
            lambda: ls_estimate(dataset, ridge=ridge),
            lambda: od_gb1_standard_errors(dataset, ridge=ridge),
            lambda: od_gb2_standard_errors(dataset, 4, ridge=ridge),
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
            od._per_slot(task, 3)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_zero_volume_slots_name_the_first(self, monkeypatch, workers):
        monkeypatch.setattr(od, "_WORKERS", workers)
        rng = np.random.default_rng(2)
        origins = rng.uniform(20.0, 80.0, size=(12, 4, 7))
        origins[:, 1:3, :] = 0.0
        destinations = origins @ recover_split_matrix(THETA)
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
        with pytest.raises(ConfigError):
            surrogate_od_dataset(10, jitter=-0.1)
        with pytest.raises(ConfigError):
            surrogate_od_dataset(10, day_scale=-0.5)
        bad = THETA.copy()
        bad[0] = 1.5
        with pytest.raises(ConfigError, match="outside"):
            surrogate_od_dataset(10, theta=bad)
