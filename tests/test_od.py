import csv
import itertools
import re
import threading
import warnings

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
    FewRowsWarning,
    GapBootstrapError,
    InsufficientDataError,
    ODDataset,
    ODFit,
    RankError,
    RowEstimates,
    SplitProportions,
    gb1_variance,
    od_standard_errors,
    read_od_csv,
    surrogate_od_dataset,
    write_od_csv,
)
from gapboot import gb2, od, resample
from gapboot._rand import derived_stream
from gapboot.cli import main
from gapboot.od import OD_CSV_COLUMNS

THETA = np.asarray(DEFAULT_SPLIT_THETA)

#: Relative bounds on how far theta, the GB-I and the GB-II standard
#: errors move when every count is scaled by 3, over the random corridors
#: of ``TestInvariants``; measured at most 6.6e-10, 2.3e-12 and 4.1e-8.
#: GB-II moves most at 6-day windows, whose 21x21 solves rest on only six
#: records each and amplify the rounding of the scaled counts.
SCALE3_RTOL = (5e-9, 1e-11, 2e-7)

#: Relative bound on how far the bootstrap covariances and window
#: projections, solved through the 6x6 origin Gram, lie from 21x21 LU
#: solves on the corridor of ``test_chunked_match_whole_stack``, with or
#: without a ridge; measured at most 7.0e-11 without one and 1.1e-10
#: with ridge 10.
GRAM_RTOL = 1e-7

#: O'O of the identity origin Gram, 1 + [e == e'] where both parameters
#: leave the same origin and 0 elsewhere: a ridge adds ridge * RIDGE_GRAM.
RIDGE_GRAM = od._gram(np.eye(6)[od._ORIGIN, od._DEST])


def exact_dataset(days=5, slots=3, seed=0):
    """Noise-free dataset satisfying the split model exactly."""
    rng = np.random.default_rng(seed)
    origins = rng.uniform(20.0, 80.0, size=(days, slots, 7))
    destinations = origins @ SplitProportions(THETA).matrix
    return ODDataset(origins=origins, destinations=destinations)


#: BASIS[k] is d(O)/d(o_{k+1}), shape (7, 21), for origins 1..6.
BASIS = od._zero_sum_rows(np.eye(21))[:, :6].transpose(1, 2, 0)


def build_design(origins, destinations):
    """Design matrix and response of one record, the reference for
    ``od._statistics``.

    Returns (O, D') with O of shape (7, 21) -- block k carrying o_k on
    the shifted diagonal of rows k..6 and -o_k across the last row --
    and D' = (d_1, ..., d_6, d_7 - sum_k o_k).
    """
    o = np.asarray(origins, dtype=np.float64)
    d = np.asarray(destinations, dtype=np.float64)
    if o.shape != (7,) or d.shape != (7,):
        raise DimensionError(f"expected 7 origins and 7 destinations, got {o.shape} and {d.shape}")
    if not (np.isfinite(o).all() and np.isfinite(d).all()):
        raise DataError("record contains non-finite counts")
    design = np.einsum("k,kij->ij", o[:6], BASIS)
    response = np.concatenate([d[:6], [d[6] - o.sum()]])
    return design, response


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
        gb = (counts @ g[:, k].reshape(days, 441)).reshape(reps, 21, 21) + ridge * RIDGE_GRAM
        thetas = np.linalg.solve(gb, (counts @ h[:, k])[..., None])[..., 0]
        dev = thetas - thetas.mean(axis=0)
        covs[k] = dev.T @ dev / reps
    return covs


def whole_stack_slot_covs(stats, config, ridge):
    """The slot bootstrap with each slot in one piece: the whole (B, D)
    index table drawn at once, one GEMM of the whole (B, D) count table,
    and all B normal equations solved in one call."""
    days, slots = stats.shape[:2]
    reps = config.replicates
    covs = np.empty((slots, 21, 21))
    for k in range(slots):
        rng = derived_stream(config.seed, "slot", k + 1)
        idx = rng.integers(0, days, size=(reps, days), dtype=np.int64)
        flat = idx + np.arange(reps)[:, None] * days
        counts = np.bincount(flat.ravel(), minlength=reps * days).reshape(reps, days)
        sums = counts.astype(np.float64) @ stats[:, k]
        gb = od._gram(sums[:, :21]) + ridge * RIDGE_GRAM
        thetas = np.linalg.solve(gb, sums[:, 21:, None])[..., 0]
        dev = thetas - thetas.mean(axis=0)
        covs[k] = dev.T @ dev / reps
    return covs


def window_estimates(stats, ell, ridge):
    """Every slot's window estimates, shape (S, I, 21), from the slot's
    window sums and ``od._solve_normal_equations``."""
    out = []
    for k in range(stats.shape[1]):
        sums = od._window_sums(stats[:, k], ell)
        out.append(od._solve_normal_equations(sums[:, :21], sums[:, 21:], ridge, str))
    return np.stack(out)


def whole_stack_window_projections(stats, theta, weights, ell, ridge):
    """The window projections w_ak' (window_k - theta), shape (21, I, S),
    formed at once from every slot's window estimates, each slot's solved
    by LU in one call."""
    out = []
    for k in range(stats.shape[1]):
        sums = od._window_sums(stats[:, k], ell)
        gwin = od._gram(sums[:, :21]) + ridge * RIDGE_GRAM
        out.append(np.linalg.solve(gwin, sums[:, 21:, None])[..., 0])
    return np.einsum("kab,kib->aik", weights, np.stack(out) - theta)


def lu_solve(products, rhs, ridge=0.0, label=None):
    """The reference for ``od._solve_normal_equations``: each O'O expanded
    from its origin products, ridged, and solved by 21x21 LU."""
    return np.linalg.solve(od._gram(products) + ridge * RIDGE_GRAM, rhs[..., None])[..., 0]


def bootstrap_sums(stats, seed, slot, reps):
    """One slot's bootstrap replicate sums of origin products and of h,
    drawn from the slot's stream as ``od._slot_bootstrap_covs`` draws them,
    and each replicate's number of distinct days."""
    days = stats.shape[0]
    idx = derived_stream(seed, "slot", slot).integers(0, days, size=(reps, days), dtype=np.int64)
    counts = np.stack([np.bincount(row, minlength=days) for row in idx]).astype(np.float64)
    distinct = np.array([np.unique(row).size for row in idx])
    sums = counts @ stats[:, slot - 1]
    return sums[:, :21], sums[:, 21:], distinct


def reference_od_gb2(fit, ell, degenerate="error"):
    """OD GB-II as it was written before it ran the gb2 kernel: per-parameter
    window moments, rho = num / sqrt(m_k m_l) clipped to [-1, 1], slot
    scales sqrt(w_ak' Cov_k w_ak), and its own degeneracy branch at the
    round-off scale ||theta|| ||w_ak|| of the projections."""
    theta = fit.theta
    weights = fit.weights
    window = window_estimates(fit._stats, ell, fit.ridge)  # (S, I, 21)
    count = window.shape[1]
    proj = np.einsum("kab,kib->aki", weights, window - theta)  # (21, S, I)
    moment = np.einsum("aki,aki->ak", proj, proj) / count  # (21, S)
    num = np.einsum("aki,ali->akl", proj, proj) / count  # (21, S, S)
    scale = np.linalg.norm(theta) * np.linalg.norm(weights, axis=2).T  # (21, S)
    flat = moment <= (1e-9 * scale) ** 2  # (21, S)
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
    w_ak' (window_k - theta), shape (21, I, S, 1), and their centre
    ||theta|| ||w_ak||, shape (21, S, 1)."""
    proj = od._window_projections(fit._stats, fit.theta, fit.weights, ell, fit.ridge)[..., None]
    quad = np.einsum("kab,kbc,kac->ak", fit.weights, fit.slot_covariances, fit.weights)
    centre = np.linalg.norm(fit.theta) * np.linalg.norm(fit.weights, axis=2).T
    return quad[..., None, None], proj, centre[..., None]


def random_corridors():
    """200 small random corridors, as ``(case, dataset, ell, config, perm)``;
    one in ten is noise-free, where every window projection is degenerate,
    and has ``perm`` None, the others a random slot permutation."""
    rng = np.random.default_rng(20)
    for case in range(200):
        days, slots = int(rng.integers(24, 49)), int(rng.integers(2, 7))
        noise_free = case % 10 == 9
        dataset, _ = surrogate_od_dataset(
            days, slots=slots, seed=case,
            day_ar=rng.uniform(0.0, 0.8), slot_spread=rng.uniform(0.0, 0.5),
            noise=0.0 if noise_free else rng.uniform(0.01, 0.1),
            split_drift=0.0 if noise_free else rng.uniform(0.0, 0.15),
        )
        ell = int(rng.integers(6, days // 2))
        config = BootstrapConfig(replicates=int(rng.integers(20, 61)), seed=case)
        yield case, dataset, ell, config, None if noise_free else rng.permutation(slots)


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


def write_od_csv_reference(dataset, path):
    """``write_od_csv`` value by value, the reference for its one-list form."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(OD_CSV_COLUMNS)
        for di in range(dataset.days):
            for si in range(dataset.slots):
                writer.writerow(
                    [di + 1, si + 1]
                    + [repr(float(v)) for v in dataset.origins[di, si]]
                    + [repr(float(v)) for v in dataset.destinations[di, si]]
                )


def read_od_csv_reference(path) -> ODDataset:
    """The two-reader ``read_od_csv``, the reference for its one-table
    form: load a dataset from ``day,slot,o1..o7,d1..d7`` records.

    Every (day, slot) pair must occur exactly once and the slot values
    must cover 1..S for each day; days are taken in sorted order.

    The records are parsed in one ``np.loadtxt`` pass.  Anything it
    refuses or warns about (a header-only file, ``1_000``, extra fields,
    a malformed record), and any table with a duplicate, a missing record
    or slots that do not cover 1..S, goes to ``read_records_reference``, the
    record-by-record reader, which accepts what ``int``/``float`` accept
    and otherwise raises the error naming the record and its line.
    """
    with open(path, newline="") as fh:
        fieldnames = next(csv.reader(fh), None)
    if fieldnames != OD_CSV_COLUMNS:
        got = fieldnames or []
        column, field, want = next(
            (i + 1, a, b) for i, (a, b) in enumerate(zip(got + [None], OD_CSV_COLUMNS + [None])) if a != b
        )
        raise DataError(
            f"bad header: expected {','.join(OD_CSV_COLUMNS)}, got {','.join(got)}"
            f" (field {column} is {field!r}, not {want!r})"
        )
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(
                path, dtype=od._RECORD, delimiter=",", quotechar='"', comments=None,
                skiprows=1, ndmin=1,
            )
    except (ValueError, Warning):
        return read_records_reference(path)
    day, slot = table["day"], table["slot"]
    order = np.lexsort((slot, day))
    day_sorted, slot_sorted = day[order], slot[order]
    repeat = (day_sorted[1:] == day_sorted[:-1]) & (slot_sorted[1:] == slot_sorted[:-1])
    days, slots = np.unique(day_sorted), np.unique(slot_sorted)
    if (
        repeat.any()
        or day.size != days.size * slots.size
        or not np.array_equal(slots, np.arange(1, slots.size + 1))
    ):
        return read_records_reference(path)
    values = table["v"][order].reshape(days.size, slots.size, 14)
    return ODDataset(origins=values[..., :7], destinations=values[..., 7:])


def read_records_reference(path) -> ODDataset:
    """``read_od_csv`` record by record, for a file with a valid header;
    errors name the physical line a record ends on."""
    records: dict[tuple[int, int], np.ndarray] = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            try:
                day = int(row["day"])
                slot = int(row["slot"])
                vals = np.array([float(row[c]) for c in OD_CSV_COLUMNS[2:]])
            except (TypeError, ValueError) as exc:
                raise DataError(f"unparseable record at line {reader.line_num}: {exc}") from exc
            if (day, slot) in records:
                raise DataError(
                    f"duplicate record for day {day}, slot {slot} at line {reader.line_num}"
                )
            records[(day, slot)] = vals
    if not records:
        raise DataError("empty dataset")
    days = sorted({k[0] for k in records})
    slots = sorted({k[1] for k in records})
    if slots != list(range(1, len(slots) + 1)):
        raise DataError(f"slots must cover 1..S, got {slots}")
    origins = np.empty((len(days), len(slots), 7))
    destinations = np.empty((len(days), len(slots), 7))
    for di, day in enumerate(days):
        for si, slot in enumerate(slots):
            try:
                vals = records[(day, slot)]
            except KeyError:
                raise DataError(f"missing record for day {day}, slot {slot}") from None
            origins[di, si] = vals[:7]
            destinations[di, si] = vals[7:]
    return ODDataset(origins=origins, destinations=destinations)


class TestCsv:
    @pytest.mark.parametrize("kind", ["surrogate", "edge_values"])
    def test_writer_matches_reference_bytes(self, tmp_path, kind):
        if kind == "surrogate":
            dataset, _ = surrogate_od_dataset(40, slots=5, seed=3, day_ar=0.4)
        else:
            edges = [0.0, -0.0, 1.0, 0.1, 5e-324, 1e-7, 1e16, 2.0**53 + 2, 1.7976931348623157e308]
            values = np.resize(edges, (3, 2, 14))
            dataset = ODDataset(origins=values[..., :7], destinations=values[..., 7:])
        fast, slow = tmp_path / "fast.csv", tmp_path / "slow.csv"
        write_od_csv(dataset, fast)
        write_od_csv_reference(dataset, slow)
        assert fast.read_bytes() == slow.read_bytes()

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
        # the message ends with the first field that differs
        path = tmp_path / "bad.csv"
        cases = (
            ("day,slot,o1", "field 4 is None, not 'o2'"),
            (",".join(OD_CSV_COLUMNS + ["x"]), "field 17 is 'x', not None"),
            ("Day," + ",".join(OD_CSV_COLUMNS[1:]), "field 1 is 'Day', not 'day'"),
            ("", "field 1 is None, not 'day'"),
        )
        for header, difference in cases:
            path.write_text(header + "\n1,1,2.0\n")
            for read in (read_od_csv, read_od_csv_reference):
                with pytest.raises(DataError, match=r"^bad header: expected ") as info:
                    read(path)
                assert str(info.value).endswith(f" ({difference})"), header

    def test_byte_order_mark_is_shown(self, tmp_path):
        # a BOM, as spreadsheet exports prepend, is refused, and the message
        # shows it: the two joined headers alone print identically
        dataset, _ = surrogate_od_dataset(4, slots=2, seed=1)
        path = tmp_path / "bom.csv"
        write_od_csv(dataset, path)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        for read in (read_od_csv, read_od_csv_reference):
            with pytest.raises(DataError) as info:
                read(path)
            assert str(info.value).endswith("(field 1 is '\\ufeffday', not 'day')")

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
        with pytest.raises(DataError, match="non-finite count at line 3$"):
            read_od_csv(path)

    @pytest.mark.parametrize("value", ["1.0", "1_000"], ids=["table", "records"])
    def test_negative_count_names_its_line(self, tmp_path, value):
        # the second file is parsed record by record, as loadtxt refuses 1_000
        path = tmp_path / "neg.csv"
        rows = [self._record(1, 1, value=value), "", self._record(2, 1), self._record(3, 1)]
        rows[2] = rows[2].replace(",1.0", ",-2.5", 1)
        self._write(path, rows)
        with pytest.raises(DataError, match="negative count at line 4$"):
            read_od_csv(path)

    @pytest.mark.parametrize("day", ["9223372036854775808", "-9223372036854775809"])
    @pytest.mark.parametrize("value", ["1.0", "1_000"], ids=["table", "records"])
    def test_day_outside_int64_is_unparseable(self, tmp_path, day, value):
        path = tmp_path / "big.csv"
        self._write(path, [self._record(1, 1, value=value), self._record(day, 1)])
        with pytest.raises(DataError, match="unparseable record at line 3:"):
            read_od_csv(path)

    def test_parse_errors_come_before_record_set_errors(self, tmp_path):
        # every record is parsed before the set of records is checked, so
        # the bad record on line 4 is named, not the duplicate on line 3
        path = tmp_path / "order.csv"
        self._write(path, [self._record(1, 1), self._record(1, 1), self._record(2, 1, value="x")])
        with pytest.raises(DataError, match="unparseable record at line 4:"):
            read_od_csv(path)

    def test_valid_file_is_not_read_record_by_record(self, tmp_path, monkeypatch):
        # a valid file costs one loadtxt pass: the per-record scan that
        # names lines runs only when a check fails
        def no_scan(path):
            raise AssertionError("a valid file was read record by record")

        dataset, _ = surrogate_od_dataset(6, slots=4, seed=5)
        path = tmp_path / "od.csv"
        write_od_csv(dataset, path)
        monkeypatch.setattr(od, "_records", no_scan)
        back = read_od_csv(path)
        assert_array_equal(back.origins, dataset.origins)
        assert_array_equal(back.destinations, dataset.destinations)

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


#: What the OD CSV fuzz writes in place of one field: numbers that load,
#: non-finite and negative counts, day and slot values that break the
#: record set, and fields neither reader accepts.
FUZZ_FIELDS = (
    "0", "7", "-1", "-2.5", "-0.0", "nan", "inf", "-inf", "1e400", "1_000", '"2.5"',
    " 3.0 ", "\t4.0", "abc", "", "0x10", '"1,5"', ' "2.0" ',
)


def fuzz_od_csv(rng, lines):
    """One single-fault copy of an OD CSV's ``lines`` (header first):
    returns the name of the fault, the file's text and the physical line
    of the record it picked, which is the faulted line of a field fault."""
    lines = list(lines)
    kind = rng.choice(["drop", "duplicate", "reorder", "key", "field", "short", "long",
                       "blank", "whitespace", "crlf"])
    r = int(rng.integers(1, len(lines)))
    q = int(rng.integers(1, len(lines) + 1))
    fields = lines[r].split(",")
    if kind == "drop":
        del lines[r]
    elif kind == "duplicate":
        lines.insert(q, lines[r])
    elif kind == "reorder":
        lines[1:] = [lines[i] for i in rng.permutation(range(1, len(lines)))]
    elif kind in ("key", "field"):
        # a mis-keyed record gets another day or slot number in 0..6
        column, value = int(rng.integers(2)), str(rng.integers(7))
        if kind == "field":
            column, value = int(rng.integers(16)), str(rng.choice(FUZZ_FIELDS))
        fields[column] = value
        lines[r] = ",".join(fields)
    elif kind == "short":
        lines[r] = ",".join(fields[: int(rng.integers(1, 16))])
    elif kind == "long":
        lines[r] = ",".join(fields + ["9", "x", ""][: int(rng.integers(1, 4))])
    elif kind in ("blank", "whitespace"):
        lines.insert(q, "" if kind == "blank" else str(rng.choice([" ", "\t", "  "])))
    end = "\r\n" if kind == "crlf" else "\n"
    return f"{kind} at line {r + 1}", end.join(lines) + end, r + 1


def read_outcome(read, path):
    """What a reader makes of a file: the bytes it loads, or its error."""
    try:
        dataset = read(path)
    except GapBootstrapError as exc:
        return type(exc).__name__, str(exc)
    return "ok", dataset.origins.tobytes() + dataset.destinations.tobytes()


class TestCsvFuzz:
    def test_single_fault_files_match_the_reference(self, tmp_path):
        # the one-table reader loads the same bytes or raises the same
        # error as the two-reader reference, except that a non-finite or
        # negative count now names the line of its record
        dataset, _ = surrogate_od_dataset(4, slots=3, seed=9)
        path = tmp_path / "od.csv"
        write_od_csv(dataset, path)
        lines = path.read_text().splitlines()
        rng = np.random.default_rng(20240)
        seen = set()
        for case in range(200):
            fault, text, line = fuzz_od_csv(rng, lines)
            path.write_bytes(text.encode())
            ref = read_outcome(read_od_csv_reference, path)
            new = read_outcome(read_od_csv, path)
            msg = f"case {case}: {fault}: {text!r}"
            kind = {"dataset contains non-finite counts": "non-finite",
                    "dataset contains negative counts": "negative"}.get(ref[1])
            if kind:
                assert new == ("DataError", f"{kind} count at line {line}"), msg
            else:
                assert new == ref, msg
            seen.add(new[0] if new[0] != "DataError" else new[1].split(" ")[0])
        # the faults reach every record check
        assert seen >= {"ok", "duplicate", "missing", "slots", "unparseable", "non-finite",
                        "negative"}, seen


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
        fit = ODFit(dataset)
        assert_allclose(fit.theta, THETA, rtol=0, atol=1e-8)
        assert_allclose(fit.slot_estimates[1], THETA, rtol=0, atol=1e-8)
        # the pooled estimate solves the pooled normal equations O'O theta = O'D'
        sums = od._statistics(dataset).sum(axis=(0, 1))
        assert_allclose(od._gram(sums[:21]) @ fit.theta, sums[21:], rtol=1e-10)

    def test_zero_volume_slot_is_rank_deficient(self):
        # 8 days, so that only the zero-volume slot is singular: a slot of
        # fewer than 6 days has a singular origin Gram whatever its counts
        rng = np.random.default_rng(2)
        origins = rng.uniform(20.0, 80.0, size=(8, 3, 7))
        origins[:, 1, :] = 0.0
        destinations = origins @ SplitProportions(THETA).matrix
        dataset = ODDataset(origins=origins, destinations=destinations)
        with pytest.raises(RankError, match="^singular normal equations for slot 2: "):
            ODFit(dataset).slot_estimates

    def test_lowest_singular_slot_is_named(self):
        # slot 3 (zero volume) fails at origin Gram pivot 1, slot 2 (one
        # repeated record, rank 1) only at pivot 2; the lower slot is named
        rng = np.random.default_rng(2)
        origins = rng.uniform(20.0, 80.0, size=(8, 4, 7))
        origins[:, 1, :] = origins[0, 1, :]
        origins[:, 2, :] = 0.0
        dataset = ODDataset(origins=origins, destinations=origins @ SplitProportions(THETA).matrix)
        with pytest.raises(RankError, match="^singular normal equations for slot 2: origin Gram pivot 2 "):
            ODFit(dataset).slot_estimates

    def test_ridge_under_the_pivot_bound_leaves_a_slot_singular(self):
        # slot 3 repeats one record of unit counts: a ridge of 1e-20 is lost
        # in its origin Gram's diagonal of 8, pivot 2 fails the one rank
        # rule, and the slot is named though it is not the first system of
        # the batch
        rng = np.random.default_rng(2)
        origins = rng.uniform(20.0, 80.0, size=(8, 4, 7))
        origins[:, 2, :] = 1.0
        dataset = ODDataset(origins=origins, destinations=origins @ SplitProportions(THETA).matrix)
        with pytest.raises(RankError, match="^singular normal equations for slot 3: origin Gram pivot 2 "):
            ODFit(dataset, ridge=1e-20).slot_estimates


class TestWeights:
    def test_weights_sum_to_identity(self):
        fit = ODFit(exact_dataset(days=12, slots=4, seed=5))
        assert fit.weights.shape == (4, 21, 21)
        assert_allclose(fit.weights.sum(axis=0), np.eye(21), rtol=0, atol=1e-10)

    def test_ill_conditioned_pooled_gram(self):
        # origin 2 tracks origin 1 to 1e-5: the pooled Gram passes the rank
        # rule, but its solves lose the weights' sum to the identity
        rng = np.random.default_rng(2)
        origins = rng.uniform(20.0, 80.0, size=(12, 3, 7))
        origins[..., 1] = origins[..., 0] * (1.0 + 1e-5 * rng.standard_normal((12, 3)))
        fit = ODFit(ODDataset(origins=origins, destinations=origins @ SplitProportions(THETA).matrix))
        with pytest.raises(ConsistencyError, match="^slot weights do not sum to the identity$"):
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
        assert_array_equal(od._statistics(dataset)[..., 21:], h)
        # origin products are summed in the same order as the full O'O matrices
        assert_array_equal(od._gram(fit._pooled[:21]), g.sum(axis=(0, 1)))
        assert_array_equal(od._gram(fit._slot_sums[:, :21]), g.sum(axis=0))

    def test_stacked_sums_match_separate_arrays(self):
        # one (D, S, 42) array gives the bits of separate C-contiguous
        # products and h arrays, each formed in one expression, in every
        # sum taken over days: pooled, per slot and windowed
        for seed, (days, slots) in enumerate(((30, 4), (57, 7), (575, 36))):
            dataset, _ = surrogate_od_dataset(days, slots, seed=seed, day_ar=0.5, split_drift=0.1)
            o, d = dataset.origins, dataset.destinations
            ok = np.take(o, od._ORIGIN, axis=-1)
            products = ok * np.take(o, od._DEST, axis=-1)
            h = ok * np.take(d, od._DEST, axis=-1) - ok * (d[..., 6] - o.sum(axis=-1))[..., None]
            stats = od._statistics(dataset)
            assert stats.flags.c_contiguous
            assert_array_equal(stats, np.concatenate([products, h], axis=-1))
            fit = ODFit(dataset)
            for got, axis in ((fit._pooled, (0, 1)), (fit._slot_sums, 0)):
                assert_array_equal(got, np.concatenate([products.sum(axis), h.sum(axis)], axis=-1))
            for k in range(slots):
                want = [od._window_sums(x[:, k], 9) for x in (products, h)]
                assert_array_equal(od._window_sums(stats[:, k], 9), np.concatenate(want, axis=-1))

    @pytest.mark.parametrize("ridge", [0.0, 0.5])
    def test_window_projections_match_one_einsum(self, ridge):
        # the slots' window estimates, projected one slot at a time, have
        # the bits of one einsum over every slot's stacked (S, I, 21) estimates
        dataset, _ = surrogate_od_dataset(80, slots=5, seed=3, day_ar=0.5, split_drift=0.1)
        fit = ODFit(dataset, ridge=ridge)
        window = window_estimates(fit._stats, 10, ridge)
        assert_array_equal(
            od._window_projections(fit._stats, fit.theta, fit.weights, 10, ridge),
            np.einsum("kab,kib->aik", fit.weights, window - fit.theta),
        )

    @pytest.mark.parametrize("ridge", [0.0, 0.5])
    def test_pooled_slot_and_weight_solves_match_cholesky(self, ridge):
        # theta, the slot estimates and each column of the weights solve one
        # normal-equation system each; against a Cholesky solve of the same
        # system the gap stays within eps * cond, as in TestGramSolve
        eps = np.finfo(np.float64).eps
        for seed in range(6):
            dataset, _ = surrogate_od_dataset(30 + 5 * seed, slots=4, seed=seed, split_drift=0.1)
            fit = ODFit(dataset, ridge=ridge)
            stats = od._statistics(dataset)
            products, h = stats[..., :21], stats[..., 21:]
            slot_grams = od._gram(products.sum(axis=0))
            gamma = od._gram(products.sum(axis=(0, 1))) + ridge * RIDGE_GRAM
            cases = (
                (fit.theta[None], [gamma], h.sum(axis=(0, 1))[None]),
                (fit.slot_estimates, slot_grams + ridge * RIDGE_GRAM, h.sum(axis=0)),
                (fit.weights.swapaxes(1, 2).reshape(-1, 21), [gamma] * 84,
                 slot_grams.reshape(-1, 21)),
            )
            for got, grams, rhs in cases:
                want = np.stack([cho_solve(cho_factor(g), b) for g, b in zip(grams, rhs)])
                gap = np.abs(got - want).max(axis=1) / np.abs(want).max(axis=1)
                assert (gap <= eps * np.linalg.cond(np.stack(grams))).all(), f"seed {seed}"

    @pytest.mark.parametrize("ridge", [0.0, 10.0])
    def test_packed_bootstrap_matches_full_reference(self, ridge):
        dataset, _ = surrogate_od_dataset(40, slots=5, seed=2, day_ar=0.5, split_drift=0.1)
        config = BootstrapConfig(replicates=200, seed=4)
        covs = ODFit(dataset, config, ridge=ridge).slot_covariances
        ref = reference_slot_bootstrap_covs(dataset, config, ridge)
        # the two differ in the GEMM's summation order and the solver
        assert_allclose(covs, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())

    def test_bootstrap_is_lazy_and_drawn_once(self, slot_draws):
        dataset, _ = surrogate_od_dataset(40, slots=5, seed=2, split_drift=0.1)
        fit = ODFit(dataset, BootstrapConfig(replicates=50, seed=1))
        fit.theta
        assert fit.weights.shape == (5, 21, 21)
        assert fit.slot_estimates.shape == (5, 21)
        assert slot_draws == []
        fit.gb1_standard_errors()
        fit.gb2_standard_errors(10)
        fit.gb1_standard_errors()
        assert sorted(slot_draws) == [1, 2, 3, 4, 5]

    def test_one_fit_serves_every_wrapper(self, slot_draws):
        dataset, _ = surrogate_od_dataset(50, slots=5, seed=9, day_ar=0.5, split_drift=0.1)
        config = BootstrapConfig(replicates=150, seed=2)
        theta, se1, se2 = od_standard_errors(dataset, 10, config, ridge=0.5)
        assert sorted(slot_draws) == [1, 2, 3, 4, 5]
        assert_array_equal(theta, ODFit(dataset, config, ridge=0.5).theta)
        assert_array_equal(se1, ODFit(dataset, config, ridge=0.5).gb1_standard_errors())
        assert_array_equal(se2, ODFit(dataset, config, ridge=0.5).gb2_standard_errors(10))

    def test_exhaustive_mode_is_refused(self, slot_draws):
        # slot replicates are drawn; an exhaustive config is not silently
        # run as Monte Carlo with its default replicates and seed
        dataset = exact_dataset(days=12, slots=3)
        for call in (
            lambda: ODFit(dataset, BootstrapConfig(mode="exhaustive")),
            lambda: od_standard_errors(dataset, 6, BootstrapConfig(mode="exhaustive")),
        ):
            with pytest.raises(ConfigError, match="'exhaustive'"):
                call()
        assert slot_draws == []

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

    def test_short_window_needs_a_ridge(self, slot_draws):
        # every window under 6 days has a singular origin Gram
        dataset, _ = surrogate_od_dataset(15, slots=3, seed=1)
        for call in (lambda: od_standard_errors(dataset), lambda: ODFit(dataset).gb2_standard_errors(5)):
            with pytest.raises(BoundsError, match="^window length 5 is below 6, the minimum without a ridge"):
                call()
        assert slot_draws == []
        config = BootstrapConfig(replicates=50, seed=1)
        with pytest.warns(FewRowsWarning):  # GB-I on 3 slots
            assert np.isfinite(od_standard_errors(dataset, 5, config, ridge=0.5)[2]).all()

    @pytest.mark.parametrize("ridge", [True, "1.5", "abc", None], ids=["bool", "numeric-str", "str", "none"])
    def test_ridge_must_be_a_real_number(self, ridge):
        # not read as 1.0 (True) or 1.5, nor a bare ValueError or TypeError
        dataset, _ = surrogate_od_dataset(15, slots=3, seed=1)
        with pytest.raises(ConfigError, match=f"^ridge must be a real number, got {re.escape(repr(ridge))}$"):
            ODFit(dataset, ridge=ridge)

    def test_automatic_window_needs_eight_days(self, slot_draws):
        dataset, _ = surrogate_od_dataset(7, slots=5, seed=1)
        for call in (lambda: od_standard_errors(dataset), lambda: ODFit(dataset).gb2_standard_errors()):
            with pytest.raises(InsufficientDataError, match="^need at least 8 days for an automatic window length, got 7; "):
                call()
        assert slot_draws == []

    def test_one_slot_is_refused_before_any_draw(self, slot_draws, tmp_path, capsys, monkeypatch):
        # GB-I needs 2 slots; the refusal comes before GB-II solves a window
        solve = od._solve_normal_equations
        windows = []

        def recording(products, rhs, ridge, label):
            windows.append(label(0).startswith("window"))
            return solve(products, rhs, ridge, label)

        monkeypatch.setattr(od, "_solve_normal_equations", recording)
        dataset, _ = surrogate_od_dataset(40, slots=1, seed=1)
        with pytest.raises(InsufficientDataError, match="^gap bootstrap I needs at least 2 slots, got 1$"):
            od_standard_errors(dataset, 10, BootstrapConfig(replicates=50, seed=1))
        out = tmp_path / "split.csv"
        code = main(["od", "--surrogate", "--days", "40", "--slots", "1", "--replicates", "50",
                     "--out", str(out)])
        assert code == 2 and not out.exists()
        assert "error: gap bootstrap I needs at least 2 slots, got 1" in capsys.readouterr().err
        assert slot_draws == [] and not any(windows)

    def test_too_small_ridge_fails_before_any_draw(self, slot_draws, tmp_path, capsys):
        # a ridge far below S[j, j] / 1e12 leaves a 5-day window singular;
        # GB-II solves the windows before the slot bootstrap is drawn
        dataset, _ = surrogate_od_dataset(30, slots=4, seed=0)
        config = BootstrapConfig(replicates=50, seed=0)
        with pytest.raises(RankError, match=r"^singular window normal equations in slot 1\b"):
            od_standard_errors(dataset, 5, config, ridge=1e-20)
        out = tmp_path / "split.csv"
        code = main([
            "od", "--surrogate", "--days", "30", "--slots", "4", "--replicates", "50",
            "--block-len", "5", "--ridge", "1e-20", "--out", str(out),
        ])
        assert code == 2 and not out.exists()
        assert "window normal equations in slot 1:" in capsys.readouterr().err
        assert slot_draws == []


class TestSlotThreads:
    @pytest.mark.parametrize("batch", [7, 100])
    @pytest.mark.parametrize("ridge", [0.0, 10.0])
    def test_chunked_match_whole_stack(self, monkeypatch, batch, ridge):
        # chunks and solve batches of 7 split both the 250 replicates and
        # the 52 windows unevenly; every solve is a 6x6 origin Gram solve,
        # within GRAM_RTOL of the whole stack's LU call, with or without a
        # ridge.  A slot chunk takes od's own budget of day indices.
        dataset, _ = surrogate_od_dataset(60, slots=4, seed=2, day_ar=0.5, split_drift=0.1)
        monkeypatch.setattr(od, "_SLOT_CHUNK_BYTES", batch * 8 * dataset.days)
        monkeypatch.setattr(od, "_GRAM_BATCH", batch)
        config = BootstrapConfig(replicates=250, seed=4)
        fit = ODFit(dataset, config, ridge=ridge)
        stats = od._statistics(dataset)
        covs = fit.slot_covariances
        proj = od._window_projections(stats, fit.theta, fit.weights, 9, ridge)
        want_covs = whole_stack_slot_covs(stats, config, ridge)
        want_proj = whole_stack_window_projections(stats, fit.theta, fit.weights, 9, ridge)
        assert_allclose(covs, want_covs, rtol=GRAM_RTOL)
        assert_allclose(proj, want_proj, rtol=GRAM_RTOL)

    def test_memory_does_not_grow_with_replicates(self, monkeypatch, traced_peak):
        # Each slot thread streams its replicates in chunks of
        # _SLOT_CHUNK_BYTES of day indices, so past a fixed working set only its
        # (B, 42) sums and (B, 21) estimates, 63 floats per replicate, grow
        # with B.  The bound allows each worker that growth plus one
        # chunk's indices, counts and float counts, which covers the
        # threads' timing; a (B, D) count table per slot would add
        # 2 x 3,500 x 200 x 8 bytes.
        workers = 2
        monkeypatch.setattr(od, "_WORKERS", workers)
        dataset, _ = surrogate_od_dataset(200, slots=4, seed=1, day_ar=0.5, split_drift=0.1)
        stats = od._statistics(dataset)
        peaks = [
            min(traced_peak(lambda: od._slot_bootstrap_covs(stats, BootstrapConfig(replicates=B, seed=1), 0.0))
                for _ in range(3))
            for B in (500, 4000)
        ]
        chunk = 3 * od._SLOT_CHUNK_BYTES
        assert peaks[1] - peaks[0] <= workers * ((4000 - 500) * 63 * 8 + chunk)

    @pytest.mark.parametrize("share", [1, 7, None, 120], ids=["one", "seven", "pool-share", "all"])
    def test_chunks_do_not_follow_the_worker_count(self, monkeypatch, share):
        # A slot's chunks hold `share` replicates (None: od's own budget),
        # whatever the worker count.  A GEMM row's bits depend on the
        # GEMM's row count, so chunks of a k-th of a budget (in the `seven`
        # case all 120 at 1 worker, 7 at 2, 4 at 3) would give other bits.
        dataset, _ = surrogate_od_dataset(60, slots=4, seed=2, day_ar=0.5, split_drift=0.1)
        config = BootstrapConfig(replicates=120, seed=4)
        if share is not None:
            monkeypatch.setattr(od, "_SLOT_CHUNK_BYTES", share * 8 * dataset.days)
        covs = {}
        for workers in (1, 2, 3):
            monkeypatch.setattr(od, "_WORKERS", workers)
            covs[workers] = ODFit(dataset, config, ridge=0.5).slot_covariances
        assert_array_equal(covs[2], covs[1])
        assert_array_equal(covs[3], covs[1])
        # across chunk sizes only the GEMM's summation order changes
        assert_allclose(covs[1], whole_stack_slot_covs(od._statistics(dataset), config, 0.5), rtol=GRAM_RTOL)

    def test_chunks_do_not_follow_the_row_budgets(self, monkeypatch):
        # the row bootstraps' chunk budgets, at one replicate per chunk or
        # at all 120 in one, leave od's chunks and so its bits alone
        dataset, _ = surrogate_od_dataset(60, slots=4, seed=2, day_ar=0.5, split_drift=0.1)
        config = BootstrapConfig(replicates=120, seed=4)
        want = ODFit(dataset, config, ridge=0.5).slot_covariances
        for rows in (1, 120):
            monkeypatch.setattr(resample, "_CHUNK_BYTES", rows * 8 * dataset.days)
            monkeypatch.setattr(resample, "_POOL_CHUNK_BYTES", 2 * rows * 8 * dataset.days)
            assert_array_equal(ODFit(dataset, config, ridge=0.5).slot_covariances, want)

    def test_any_worker_count_gives_the_same_bits(self, monkeypatch, fast_switching, slot_draws):
        dataset, _ = surrogate_od_dataset(80, slots=5, seed=9, day_ar=0.5, split_drift=0.1)
        config = BootstrapConfig(replicates=120, seed=3)
        solve, derive = od._solve_normal_equations, resample.derived_stream
        threads = {"bootstrap": set(), "window": set()}
        draw_threads = set()

        def recording(products, rhs, ridge, label):
            kind = label(0).split(" ")[0]
            if kind in threads:
                threads[kind].add(threading.current_thread())
            return solve(products, rhs, ridge, label)

        def deriving(*key):
            draw_threads.add(threading.current_thread())
            return derive(*key)

        monkeypatch.setattr(od, "_solve_normal_equations", recording)
        monkeypatch.setattr(resample, "derived_stream", deriving)
        results = {}
        for workers in (1, 2, 3):
            monkeypatch.setattr(od, "_WORKERS", workers)
            slot_draws.clear()
            draw_threads.clear()
            for seen in threads.values():
                seen.clear()
            results[workers] = od_standard_errors(dataset, 12, config, ridge=0.5)
            # every slot's stream is derived once, on the thread that
            # solves the slot's bootstrap; the window solves run only on
            # the caller; the bootstrap solves run on the caller and, when
            # workers > 1, on at least one more thread
            assert sorted(slot_draws) == [1, 2, 3, 4, 5]
            assert draw_threads == threads["bootstrap"]
            assert threads["window"] == {threading.main_thread()}
            assert threading.main_thread() in threads["bootstrap"]
            assert (len(threads["bootstrap"]) >= 2) == (workers > 1)
        # more workers than slots
        monkeypatch.setattr(od, "_WORKERS", 8)
        results[8] = od_standard_errors(dataset, 12, config, ridge=0.5)
        for workers in (2, 3, 8):
            for a, b in zip(results[1], results[workers]):
                assert_array_equal(a, b)

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
        origins = rng.uniform(20.0, 80.0, size=(30, 4, 7))
        origins[:, 1:3, :] = 0.0
        destinations = origins @ SplitProportions(THETA).matrix
        dataset = ODDataset(origins=origins, destinations=destinations)
        config = BootstrapConfig(replicates=50, seed=1)
        # slot 1 is well posed: every replicate and window spans >= 6 days
        stats = od._statistics(dataset)
        assert bootstrap_sums(stats, config.seed, 1, config.replicates)[2].min() >= 6
        fit = ODFit(dataset, config)
        with pytest.raises(RankError, match="^singular bootstrap normal equations in slot 2: "):
            fit.slot_covariances
        with pytest.raises(RankError, match="^singular window normal equations in slot 2: "):
            fit.gb2_standard_errors(6)


class TestGramSolve:
    """The solves through the 6x6 origin Gram against 21x21 LU solves of
    the same systems."""

    def test_matches_lu_within_condition_bound(self):
        # Both solvers are backward stable, so the gap between them scales
        # with cond(O'O): norm-wise it stays below eps * cond (measured at
        # most 0.19 eps cond).  6-day windows, the shortest with a
        # nonsingular Gram, carry the worst-conditioned systems.
        rng = np.random.default_rng(20)
        eps = np.finfo(np.float64).eps
        for case in range(30):
            days, slots = int(rng.integers(24, 49)), int(rng.integers(2, 7))
            dataset, _ = surrogate_od_dataset(
                days, slots=slots, seed=case, day_ar=rng.uniform(0.0, 0.8),
                slot_spread=rng.uniform(0.0, 0.5), noise=rng.uniform(0.01, 0.1),
                split_drift=rng.uniform(0.0, 0.15),
            )
            stats = od._statistics(dataset)
            ell = 6 if case % 3 == 0 else int(rng.integers(6, days // 2))
            for k in range(slots):
                boot = bootstrap_sums(stats, case, k + 1, 40)[:2]
                window = od._window_sums(stats[:, k], ell)
                for sums, rhs in (boot, (window[:, :21], window[:, 21:])):
                    got = od._solve_normal_equations(sums, rhs, 0.0, str)
                    want = lu_solve(sums, rhs)
                    gap = np.abs(got - want).max(axis=1) / np.abs(want).max(axis=1)
                    bound = eps * np.linalg.cond(od._gram(sums))
                    assert (gap <= bound).all(), f"case {case}, slot {k + 1}"

    def test_standard_errors_match_lu(self, monkeypatch):
        rng = np.random.default_rng(3)
        for case in range(8):
            days, slots = int(rng.integers(40, 90)), int(rng.integers(2, 7))
            dataset, _ = surrogate_od_dataset(
                days, slots=slots, seed=case, day_ar=rng.uniform(0.0, 0.8),
                split_drift=rng.uniform(0.0, 0.15), noise=rng.uniform(0.01, 0.1),
            )
            config = BootstrapConfig(replicates=100, seed=case)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", FewRowsWarning)
                got = od_standard_errors(dataset, config=config)
                with monkeypatch.context() as patch:
                    patch.setattr(od, "_solve_normal_equations", lu_solve)
                    want = od_standard_errors(dataset, config=config)
            assert_allclose(got, want, rtol=1e-10, err_msg=f"case {case}")

    @pytest.mark.parametrize("batch", [1, 7, 250])
    def test_batch_size_does_not_change_bits(self, monkeypatch, batch):
        dataset, _ = surrogate_od_dataset(60, slots=2, seed=2, day_ar=0.5, split_drift=0.1)
        stats = od._statistics(dataset)
        boot = bootstrap_sums(stats, 4, 2, 250)[:2]
        window = od._window_sums(stats[:, 0], 9)
        window = window[:, :21], window[:, 21:]
        for ridge in (0.0, 0.5):
            monkeypatch.setattr(od, "_GRAM_BATCH", 250)
            whole = [od._solve_normal_equations(sums, rhs, ridge, str) for sums, rhs in (boot, window)]
            monkeypatch.setattr(od, "_GRAM_BATCH", batch)
            for (sums, rhs), want in zip((boot, window), whole):
                assert_array_equal(od._solve_normal_equations(sums, rhs, ridge, str), want)

    @pytest.mark.parametrize("jitter, singular", [(1e-7, True), (1e-5, False)])
    def test_nearly_collinear_origins(self, jitter, singular):
        # origin 2 of slot 2 is twice origin 1 up to a relative jitter:
        # pivot 2 of the slot's origin Gram is about jitter**2 of its
        # diagonal, so 1e-7 falls under 1 / MAX_CONDITION and 1e-5 does not
        rng = np.random.default_rng(5)
        origins = rng.uniform(20.0, 80.0, size=(30, 3, 7))
        origins[:, 1, 1] = 2.0 * origins[:, 1, 0] * (1.0 + jitter * rng.standard_normal(30))
        dataset = ODDataset(origins=origins, destinations=origins @ SplitProportions(THETA).matrix)
        fit = ODFit(dataset, BootstrapConfig(replicates=40, seed=1))
        if singular:
            with pytest.raises(RankError, match="^singular bootstrap normal equations in slot 2: "):
                fit.slot_covariances
        else:
            assert np.isfinite(fit.slot_covariances).all()

    def test_ridge_solves_nearly_collinear_slot(self):
        # a ridge of 1e-6 keeps every pivot of S + ridge I at least 1e-6,
        # above 1 / MAX_CONDITION of its diagonal: the slot that fails the
        # pivot test at jitter 1e-7 solves
        rng = np.random.default_rng(5)
        origins = rng.uniform(20.0, 80.0, size=(30, 3, 7))
        origins[:, 1, 1] = 2.0 * origins[:, 1, 0] * (1.0 + 1e-7 * rng.standard_normal(30))
        dataset = ODDataset(origins=origins, destinations=origins @ SplitProportions(THETA).matrix)
        with pytest.raises(RankError, match="slot 2"):
            ODFit(dataset).slot_estimates
        assert np.isfinite(ODFit(dataset, ridge=1e-6).slot_estimates).all()

    def test_ridge_is_six_pseudo_records(self):
        # origin k sending sqrt(ridge) to destination 7, for k = 1..6, adds
        # ridge to the diagonal origin products and nothing else; the
        # ridged fits equal, bit for bit, ridge-free solves of the sums
        # with those six records added
        ridge = 0.25
        origins, destinations = np.zeros((6, 1, 7)), np.zeros((6, 1, 7))
        origins[range(6), 0, range(6)] = destinations[:, 0, 6] = np.sqrt(ridge)
        pseudo = od._statistics(ODDataset(origins, destinations)).sum(axis=(0, 1))
        assert_array_equal(pseudo, np.concatenate([ridge * np.eye(6)[od._ORIGIN, od._DEST], np.zeros(21)]))
        dataset, _ = surrogate_od_dataset(40, slots=5, seed=2, day_ar=0.5, split_drift=0.1)
        fit, ridged = ODFit(dataset), ODFit(dataset, ridge=ridge)
        for got, sums in ((ridged.theta[None], fit._pooled[None]), (ridged.slot_estimates, fit._slot_sums)):
            sums = sums + pseudo
            assert_array_equal(got, od._solve_normal_equations(sums[:, :21], sums[:, 21:], 0.0, str))

    def test_any_worker_count_gives_the_same_bits(self, monkeypatch):
        dataset, _ = surrogate_od_dataset(80, slots=5, seed=9, day_ar=0.5, split_drift=0.1)
        config = BootstrapConfig(replicates=120, seed=3)
        results = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(od, "_WORKERS", workers)
            results.append(od_standard_errors(dataset, 12, config))
        for other in results[1:]:
            for a, b in zip(results[0], other):
                assert_array_equal(a, b)

    def test_resample_with_fewer_than_six_days_names_its_slot(self):
        # at 12 days and seed 4, one of slot 2's replicates draws only 5
        # distinct days, so its origin Gram has rank 5
        dataset, _ = surrogate_od_dataset(12, slots=3, seed=0)
        config = BootstrapConfig(replicates=40, seed=4)
        stats = od._statistics(dataset)
        distinct = [bootstrap_sums(stats, 4, k, 40)[2].min() for k in (1, 2, 3)]
        assert distinct[0] >= 6 and distinct[1] < 6 and distinct[2] >= 6
        with pytest.raises(RankError, match="^singular bootstrap normal equations in slot 2: "):
            ODFit(dataset, config).slot_covariances


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
        for case, dataset, ell, config, perm in random_corridors():
            slots = dataset.slots
            fit = ODFit(dataset, config)
            msg = f"case {case}"
            if perm is None:
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
            quad, proj, centre = od_kernel_inputs(fit, ell)
            ones = np.ones(slots)
            assert_allclose(
                gb2._gb2_combine(quad[:, perm], proj[:, :, perm], ones, centre[:, perm], "error", str),
                gb2._gb2_combine(quad, proj, ones, centre, "error", str), rtol=1e-12, err_msg=msg,
            )
            gb1 = gb1_variance(RowEstimates(fit.slot_estimates, fit.slot_covariances)).matrix
            shuffled = RowEstimates(fit.slot_estimates[perm], fit.slot_covariances[perm])
            assert_allclose(gb1_variance(shuffled).matrix, gb1, rtol=1e-12,
                            atol=1e-12 * np.abs(gb1).max(), err_msg=msg)
            # the unclipped projection correlations
            rho = gb2._window_correlations(proj, centre, "error", str)
            assert np.abs(rho).max() <= 1.0 + 1e-12, msg

    def test_noise_free_corridor_flags_every_pair(self, monkeypatch):
        # noise-free case 179 (36 days, 4 slots, ell 6): the projections'
        # round-off reaches 4e-9 of |theta_a| for some parameters, but stays
        # below 1e-9 of ||theta|| ||w_ak|| for every (parameter, slot) pair
        _, dataset, ell, config, _ = next(itertools.islice(random_corridors(), 179, None))
        assert (dataset.days, dataset.slots, ell) == (36, 4, 6)
        correlations = []

        def spy(variances, dev, weights, centre, degenerate, label):
            correlations.append(gb2._window_correlations(dev, centre, "zero", label))
            return gb2._gb2_combine(variances, dev, weights, centre, degenerate, label)

        monkeypatch.setattr(od, "_gb2_combine", spy)
        ODFit(dataset, config).gb2_standard_errors(ell, "zero")
        # a flagged row's correlations are zeroed, an unflagged row's own is one
        assert not correlations[0].any()

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
        a, ta = surrogate_od_dataset(10, slots=3, seed=4, day_ar=0.3)
        b, tb = surrogate_od_dataset(10, slots=3, seed=4, day_ar=0.3)
        assert_array_equal(a.origins, b.origins)
        assert_array_equal(a.destinations, b.destinations)
        assert_array_equal(ta.theta, tb.theta)

    def test_seed_changes_the_counts(self):
        base, _ = surrogate_od_dataset(10, slots=3, seed=4)
        other_seed, _ = surrogate_od_dataset(10, slots=3, seed=5)
        assert not np.array_equal(base.origins, other_seed.origins)

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

    @pytest.mark.parametrize("days, shape", [(2, (7,)), (575, (7,)), (40, (21,))])
    def test_ar1_path_at_zero_is_the_iid_draw(self, days, shape):
        # the recursion at phi = 0 gives the bits of one i.i.d. draw of the
        # days after the first, and leaves the stream at the same position
        rng, reference = derived_stream(days, "ar1"), derived_stream(days, "ar1")
        path = od._ar1_path(rng, days, shape, 0.15, 0.0)
        iid = np.empty((days,) + shape)
        iid[0] = reference.normal(0.0, 0.15, size=shape)
        iid[1:] = reference.normal(0.0, 0.15, size=(days - 1,) + shape)
        assert path.tobytes() == iid.tobytes()
        assert rng.random(4).tobytes() == reference.random(4).tobytes()

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

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["noise", "split_drift", "slot_spread"])
    def test_non_finite_scale_is_rejected(self, name, value):
        with pytest.raises(ConfigError, match=f"^{name} must be finite and >= 0, got {value}"):
            surrogate_od_dataset(10, **{name: value})

    @pytest.mark.parametrize("value", [True, "0.1", "abc", None], ids=["bool", "numeric-str", "str", "none"])
    @pytest.mark.parametrize("name", ["day_ar", "noise", "split_drift", "slot_spread"])
    def test_scale_must_be_a_real_number(self, name, value):
        # not read as 1.0 (True), nor failing later with a bare TypeError
        with pytest.raises(ConfigError, match=f"^{name} must be a real number, got {re.escape(repr(value))}$"):
            surrogate_od_dataset(10, **{name: value})
