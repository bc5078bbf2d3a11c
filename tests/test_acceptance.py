"""Acceptance gates: one test per shipping criterion.

Each test pins an end-to-end behaviour of the library at a fixed seed
and a stated tolerance, so ``pytest tests/test_acceptance.py -v`` reads
as a pass/fail checklist.  Known-unreachable clauses are asserted
anyway (with the measured value in the failure message) rather than
weakened; the failure itself documents the gap.
"""
from __future__ import annotations

import time
import warnings

import numpy as np

from gapboot import (
    BootstrapConfig,
    FewRowsWarning,
    ModelSpec,
    ODFit,
    StudyConfig,
    bootstrap_replicates,
    build_data_array,
    collect_row_estimates,
    componentwise_mean_estimator,
    correlation_matrix,
    default_block_length,
    gb1_variance,
    gb2_variance,
    generate_series,
    iid_bootstrap_variance,
    mean_estimator,
    monte_carlo_true_se,
    naive_column_variance,
    pooled_variance_estimator,
    run_study,
    subseries_estimates,
    surrogate_od_dataset,
)
from gapboot._rand import derived_stream
from gapboot.cli import main


def test_criterion_1_exact_bootstrap_matches_monte_carlo():
    started = time.perf_counter()
    est = mean_estimator()
    exact = BootstrapConfig(mode="exhaustive")

    v = iid_bootstrap_variance(np.array([1.0, 2.0, 3.0]), est, exact).scalar
    assert abs(v - 2.0 / 9.0) <= 1e-15
    assert iid_bootstrap_variance(np.array([0.0, 2.0]), est, exact).scalar == 0.5

    mc = BootstrapConfig(replicates=100_000, seed=0)
    rng = derived_stream(20260814)
    hits = 0
    for i in range(100):
        m = int(rng.integers(2, 7))
        row = rng.normal(0.0, 1.0 + rng.random(), size=m)
        ex = iid_bootstrap_variance(row, est, exact).scalar
        reps = bootstrap_replicates(row, est, mc, key=("c1", i)).ravel()
        b = reps.size
        vmc = reps.var(ddof=1)
        mu4 = np.mean((reps - reps.mean()) ** 4)
        se = np.sqrt(max(mu4 - vmc**2 * (b - 3) / (b - 1), 0.0) / b)
        hits += abs(vmc - ex) <= 3.0 * se
    assert hits >= 95, f"only {hits}/100 rows within 3 Monte Carlo standard errors"
    assert time.perf_counter() - started < 60.0


def test_criterion_2_internal_check_command_passes():
    started = time.perf_counter()
    assert main(["check"]) == 0
    assert time.perf_counter() - started < 60.0


def test_criterion_3_ar2_reference_cell():
    started = time.perf_counter()
    cfg = StudyConfig(
        models=("ar2",), dists=("normal",), sizes=((200, 5),),
        methods=("gb1", "gb2"), runs=500, truth_runs=5000, replicates=1000, seed=0,
    )
    cell = run_study(cfg).cells[0]
    assert abs(cell.true_se - 0.013) <= 0.0013, f"true se {cell.true_se:.5f}"
    assert cell.bias("gb1") < 0.0, f"gb1 bias {cell.bias('gb1'):+.2e}"
    ratio = cell.mse("gb1") / cell.mse("gb2")
    assert time.perf_counter() - started < 600.0
    assert ratio > 5.0, (
        f"MSE(gb1)/MSE(gb2) = {ratio:.2f}, target > 5.  With the sample mean "
        "the pooled pairwise-difference cross-covariance makes the equal-weight "
        "combination nearly unbiased, so gb1 cannot lose by the tabulated margin "
        "on this model; see the 'Acceptance gates' section of README.md."
    )


def test_criterion_4_multivariate_mse_orderings():
    started = time.perf_counter()
    targets = {
        ("mar", 200, 5): 0.634e-4,
        ("mma", 500, 10): 1.190e-4,
    }
    for (family, n, p), reference in targets.items():
        cfg = StudyConfig(
            models=(family,), dists=("normal",), sizes=((n, p),),
            methods=("gb1", "gb2", "ss", "bb"), runs=500, truth_runs=2000,
            replicates=1000, cov_kind="toeplitz", seed=0,
        )
        cell = run_study(cfg).cells[0]
        tag = f"{family} (n={n}, p={p})"
        mse = {meth: cell.mse(meth) for meth in ("gb1", "gb2", "ss", "bb")}
        assert mse["gb2"] < mse["ss"], f"{tag}: {mse}"
        assert mse["gb2"] < mse["bb"], f"{tag}: {mse}"
        assert mse["gb1"] > 3.0 * mse["gb2"], f"{tag}: {mse}"
        assert reference / 2.0 <= mse["gb2"] <= reference * 2.0, (
            f"{tag}: gb2 MSE {mse['gb2']:.3e} vs reference {reference:.3e}"
        )
    assert time.perf_counter() - started < 1800.0


def test_criterion_5_relative_error_shrinks_with_n():
    est = mean_estimator()
    medians = {"gb1": [], "gb2": []}
    for si, n in enumerate((200, 1800, 10000)):
        spec = ModelSpec("ar2", n, 5)
        truth = float(monte_carlo_true_se(spec, est, 4000, (0, "truth", si))[0]) ** 2
        errs = {"gb1": [], "gb2": []}
        for r in range(100):
            arr = generate_series(spec, (0, "run", si, r))
            boot = BootstrapConfig(replicates=400, seed=si * 100 + r)
            rows = collect_row_estimates(arr, est, boot)
            sub = subseries_estimates(arr, est, ell=default_block_length(arr.m))
            errs["gb1"].append(abs(gb1_variance(rows).scalar - truth) / truth)
            errs["gb2"].append(abs(gb2_variance(rows.variances, sub).scalar - truth) / truth)
        for method, e in errs.items():
            medians[method].append(float(np.median(e)))
    g2 = medians["gb2"]
    assert g2[0] > g2[1] > g2[2], f"gb2 medians {g2}"
    g1 = medians["gb1"]
    assert g1[0] > g1[1] > g1[2], (
        f"gb1 medians {g1} are not strictly decreasing.  The cross-covariance "
        "term rests on p(p-1) squared row-estimate differences, whose relative "
        "noise does not shrink with the series length; past n ~ 2000 the gb1 "
        "error sits on that floor (~9% here) and the last two medians tie up "
        "to seed luck; see the 'Acceptance gates' section of README.md."
    )


def test_criterion_6_column_average_discrepancy():
    est = pooled_variance_estimator()
    vals = []
    for r in range(50):
        rng = derived_stream(6, "remark", r)
        arr = build_data_array(rng.standard_normal(5 * 20000), p=5)
        _, disc = naive_column_variance(arr, est)
        vals.append(disc[0])
    mean = float(np.mean(vals))
    assert abs(mean - 0.2) <= 0.01, f"mean discrepancy {mean:.4f}"


def test_criterion_7_od_pipeline(tmp_path):
    started = time.perf_counter()

    # (a) exact recovery without destination noise
    dataset, truth = surrogate_od_dataset(100, slots=12, seed=4, noise=0.0, split_drift=0.0)
    theta = ODFit(dataset).theta
    assert float(np.abs(theta - truth.theta).max()) <= 1e-8

    iid = dict(day_ar=0.0, noise=0.05, split_drift=0.10, slot_spread=0.0)
    serial = dict(day_ar=0.5, noise=0.05, split_drift=0.10, slot_spread=0.35)
    days, slots, ell = 450, 36, 50

    # (b) gb2 standard errors against a 200-replication oracle
    reps = np.empty((200, 21))
    for r in range(200):
        ds, _ = surrogate_od_dataset(days, slots=slots, seed=3000 + r, **iid)
        reps[r] = ODFit(ds).theta
    oracle = reps.std(axis=0, ddof=1)
    ds, _ = surrogate_od_dataset(days, slots=slots, seed=3000, **iid)
    se2 = ODFit(ds, BootstrapConfig(replicates=400, seed=0)).gb2_standard_errors(ell)
    ratio = se2 / oracle
    med = float(np.median(ratio))
    within = int(np.sum(np.abs(ratio - 1.0) <= 0.15))
    assert abs(med - 1.0) <= 0.15, f"median gb2/oracle ratio {med:.3f} ({within}/21 within 15%)"

    # (c) day-to-day drift coupled to slot volume: gb1 must undershoot gb2
    ds, _ = surrogate_od_dataset(days, slots=slots, seed=3000, **serial)
    fit = ODFit(ds, BootstrapConfig(replicates=200, seed=0))
    se1 = fit.gb1_standard_errors()
    se2s = fit.gb2_standard_errors(ell)
    flips = int(np.sum(se1 < se2s))
    assert flips >= 17, f"gb1 < gb2 on only {flips}/21 components"

    # (d) report schema: param name column plus three value columns
    out = tmp_path / "split.csv"
    code = main([
        "od", "--surrogate", "--days", "60", "--slots", "6",
        "--replicates", "100", "--seed", "5", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "param,estimate,std_gb1,std_gb2"
    assert len(lines) == 22
    assert time.perf_counter() - started < 900.0


def test_criterion_8_invariant_fuzz():
    exact = BootstrapConfig(mode="exhaustive")
    bad_rho = bad_psd = bad_perm = bad_scale = 0
    for i in range(1000):
        rng = derived_stream(9, "fuzz", i)

        m = int(rng.integers(8, 17))
        p = int(rng.integers(2, 5))
        d = int(rng.integers(1, 3))
        est = mean_estimator() if d == 1 else componentwise_mean_estimator(2)
        vals = rng.normal(rng.normal(0, 3), 0.5 + rng.random(), size=(m * p, d))
        arr = build_data_array(vals if d > 1 else vals[:, 0], p=p)
        sub = subseries_estimates(arr, est, ell=int(rng.integers(2, min(5, m - 1))))
        for j in range(1, p + 1):
            for k in range(1, p + 1):
                if np.abs(correlation_matrix(sub, j, k)).max() > 1.0 + 1e-12:
                    bad_rho += 1
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", FewRowsWarning)
            rows = collect_row_estimates(arr, est, BootstrapConfig(replicates=96, seed=i))
            for v in (gb1_variance(rows), gb2_variance(rows.variances, sub)):
                if np.linalg.eigvalsh(v.matrix).min() < -1e-12:
                    bad_psd += 1

        m2 = int(rng.integers(3, 6))
        p2 = int(rng.integers(2, 5))
        vals2 = rng.normal(rng.normal(0, 2), 1.0, size=m2 * p2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", FewRowsWarning)
            base = gb1_variance(
                collect_row_estimates(build_data_array(vals2, p=p2), mean_estimator(), exact)
            ).matrix
            grid = vals2.reshape(m2, p2)[:, rng.permutation(p2)]
            permuted = gb1_variance(
                collect_row_estimates(build_data_array(grid.reshape(-1), p=p2), mean_estimator(), exact)
            ).matrix
            scaled = gb1_variance(
                collect_row_estimates(build_data_array(4.0 * vals2, p=p2), mean_estimator(), exact)
            ).matrix
        if not np.allclose(permuted, base, rtol=1e-9, atol=1e-300):
            bad_perm += 1
        if not np.array_equal(scaled, 16.0 * base):
            bad_scale += 1

    assert (bad_rho, bad_psd, bad_perm, bad_scale) == (0, 0, 0, 0), (
        f"violations: rho {bad_rho}, psd {bad_psd}, permutation {bad_perm}, "
        f"scale {bad_scale}"
    )
