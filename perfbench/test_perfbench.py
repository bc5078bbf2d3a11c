"""Tests of the benchmark's own logic: the correctness gate, span
arithmetic, wrapper installation and the metric names it prints.

    python3 -m pytest perfbench/test_perfbench.py
"""
from __future__ import annotations

import json
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
# after any PYTHONPATH=src, so gapboot imports from one place in a test session
sys.path.append(os.path.normpath(os.path.join(HERE, os.pardir, "src")))

import calibrate  # noqa: E402
import check  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------

def od_text(values) -> str:
    lines = [",".join(check.OD_HEADER)]
    lines += [f"{name},{e!r},{s1!r},{s2!r}" for name, (e, s1, s2) in zip(check.OD_PARAMS, values)]
    return "\n".join(lines) + "\n"


def study_text(config, values) -> str:
    lines = [",".join(check.STUDY_HEADER)]
    cells = [(model, dist, n, p, method) for model in config["models"]
             for dist in config["dists"] for n, p in config["sizes"]
             for method in config["methods"]]
    for (model, dist, n, p, method), (true_se, bias, mse) in zip(cells, values):
        lines.append(f"{model},{dist},{n},{p},{method},{true_se!r},{bias!r},{mse!r},"
                     f"{config['runs']}")
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def reference():
    return check.load_reference()["workloads"]


def test_reference_covers_every_workload(reference):
    assert set(reference) == set(workloads.WORKLOADS)
    for entries in reference.values():
        assert "0" in entries


def test_od_reference_round_trip_and_perturbation(reference):
    ref = reference["od-corridor"]["0"]
    values = ref["values"]
    check.check_output("od-corridor", od_text(values), None, ref)
    # a reordered floating-point sum moves the last digits only
    nudged = [[v * (1.0 + 1e-12) for v in row] for row in values]
    check.check_output("od-corridor", od_text(nudged), None, ref)
    for row, col in ((0, 0), (20, 2), (7, 1)):
        bad = [list(r) for r in values]
        bad[row][col] *= 1.0 + 1e-4
        with pytest.raises(ValueError, match="reference"):
            check.check_output("od-corridor", od_text(bad), None, ref)


@pytest.mark.parametrize("workload", ["study-wide", "study-long"])
def test_study_reference_round_trip_and_perturbation(reference, workload):
    ref = reference[workload]["0"]
    config = workloads.study_config(workload, 0)
    check.check_output(workload, study_text(config, ref["values"]), config, ref)
    bad = [list(r) for r in ref["values"]]
    bad[-1][2] *= 1.0 + 1e-4
    with pytest.raises(ValueError, match="reference"):
        check.check_output(workload, study_text(config, bad), config, ref)


def test_od_invariants():
    good = [[0.5, 0.01, 0.02]] * 21
    check.od_values(od_text(good))
    with pytest.raises(ValueError, match="negative"):
        check.od_values(od_text([[0.5, -0.01, 0.02]] + good[1:]))
    with pytest.raises(ValueError, match="non-finite"):
        check.od_values(od_text([[math.nan, 0.01, 0.02]] + good[1:]))
    with pytest.raises(ValueError, match="parameters"):
        check.od_values(od_text(good[1:]))
    with pytest.raises(ValueError, match="header"):
        check.od_values(od_text(good).replace("std_gb2", "std_gb3"))
    truth = [0.5] * 21
    check.od_values(od_text(good), truth)
    far = [0.5 + 11 * 0.02] + [0.5] * 20
    with pytest.raises(ValueError, match="standard errors"):
        check.od_values(od_text(good), far)


def test_study_invariants():
    config = workloads.study_config("study-wide", 3)
    check.study_values(study_text(config, [[0.1, 0.01, 0.001], [0.1, -0.02, 0.0005]]), config)
    for values, message in (
        ([[0.1, 0.01, 0.00001], [0.1, 0.0, 0.0]], "bias\\*\\*2"),
        ([[0.1, -0.2, 0.05], [0.1, 0.0, 0.0]], "below -true_se"),
        ([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0]], "true_se"),
        ([[0.1, 0.0, 0.0]], "cells"),
    ):
        with pytest.raises(ValueError, match=message):
            check.study_values(study_text(config, values), config)


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def span(layer, parent, start, end, name=None, **counts):
    return spans.Span(name=name or f"{layer}.f", layer=layer, op=0, parent=parent,
                      start=start, end=end, counts=counts)


def test_covered_merges_and_clips():
    assert spans.covered([], 0.0, 5.0) == 0.0
    assert spans.covered([(1.0, 3.0), (2.0, 4.0)], 0.0, 10.0) == pytest.approx(3.0)
    assert spans.covered([(-2.0, 1.0), (4.0, 9.0), (5.0, 6.0)], 0.0, 5.0) == pytest.approx(2.0)


def test_self_time_with_nested_children():
    tree = {
        0: span("cli", -1, 0.0, 10.0),
        1: span("study", 0, 1.0, 4.0),
        2: span("models", 1, 2.0, 3.0),
        3: span("gb1", 0, 3.5, 6.0),   # overlaps its sibling: counted once
        4: span("core", 3, 4.0, 4.5),
        5: span("core", 4, 4.1, 4.2),
    }
    selfs = spans.self_times(tree)
    assert selfs[0] == pytest.approx(10.0 - 5.0)
    assert selfs[1] == pytest.approx(3.0 - 1.0)
    assert selfs[2] == pytest.approx(1.0)
    assert selfs[3] == pytest.approx(2.5 - 0.5)
    assert selfs[4] == pytest.approx(0.5 - 0.1)
    assert selfs[5] == pytest.approx(0.1)

    metrics = spans.op_metrics(tree, 0.0, 10.0)
    assert metrics["cli.self_s"] == pytest.approx(5.0)
    assert metrics["core.busy_s"] == pytest.approx(0.5)
    assert metrics["gb1.calls"] == 1
    assert metrics["trace.coverage"] == pytest.approx(5.0 / 10.0)


def test_op_metrics_counts():
    tree = {
        0: span("cli", -1, 0.0, 4.0, name="cli.main"),
        1: span("study", 0, 0.0, 4.0, name="study.run_study"),
        2: span("models", 1, 0.0, 1.0, name="models.generate_series"),
        3: span("models", 1, 1.0, 2.0, name="models.monte_carlo_true_se"),
        4: span("models", 3, 1.0, 1.5, name="models.generate_series"),
        5: span("resample", 1, 2.0, 3.0, name="resample.bootstrap_replicates",
                replicates=1000, index_mb=2.0),
        6: span("resample", 1, 3.0, 4.0, name="resample.bootstrap_replicates",
                replicates=500, index_mb=1.0),
        7: span("gb2", 1, 3.0, 3.1, name="gb2.correlation_matrix"),
    }
    tree[7].error = "DegenerateCorrelationError"
    metrics = spans.op_metrics(tree, 0.0, 4.0)
    assert metrics["models.series"] == 2
    assert metrics["study.runs"] == 1
    assert metrics["resample.calls"] == 2
    assert metrics["models.truth_s"] == pytest.approx(1.0)
    assert metrics["resample.replicates"] == 1500
    assert metrics["resample.index_mb"] == pytest.approx(3.0)
    assert metrics["gb2.pairs"] == 1 and metrics["gb2.degenerate_pairs"] == 1
    assert metrics["trace.coverage"] == pytest.approx(1.0)


def test_allocation_peaks_nest():
    import tracemalloc

    import numpy as np

    recorder = spans.Recorder()
    tracemalloc.start()
    try:
        outer = recorder.enter("a.outer", "a")
        kept = np.ones(1 << 17)             # 1 MiB, held to the end of outer
        inner = recorder.enter("b.inner", "b")
        np.ones(1 << 19).sum()              # 4 MiB, freed inside inner
        recorder.exit(inner)
        after = np.ones(1 << 18)            # 2 MiB after the inner peak
        recorder.exit(outer)
    finally:
        tracemalloc.stop()
    del kept, after
    assert recorder.spans[inner].alloc_peak == pytest.approx(4.0, abs=0.1)
    assert recorder.spans[outer].alloc_peak == pytest.approx(5.0, abs=0.1)


def test_wrappers_reach_from_import_names(tmp_path):
    gapboot = pytest.importorskip("gapboot")
    import gapboot.cli
    import gapboot.gb1
    import gapboot.study

    original = gapboot.study.collect_row_estimates
    recorder = spans.Recorder()
    replaced = spans.install(recorder)
    try:
        assert gapboot.study.collect_row_estimates is not original
        assert gapboot.cli.main(["simulate", "--model", "ar2", "--n", "60", "--p", "5",
                                 "--runs", "2", "--truth-runs", "100", "--replicates", "20",
                                 "--out", str(tmp_path / "r.csv")]) == 0
    finally:
        spans.uninstall(replaced)
    assert gapboot.study.collect_row_estimates is original
    assert gapboot.gb1.collect_row_estimates is original
    by_name = {}
    for s in recorder.spans:
        by_name.setdefault(s.name, []).append(s)
    rows = by_name["gb1.collect_row_estimates"]
    assert len(rows) == 2
    assert all(recorder.spans[s.parent].name == "study.run_study" for s in rows)
    assert recorder.spans[0].name == "cli.main"
    assert len(by_name["resample.bootstrap_replicates"]) == 10
    assert all(s.counts["replicates"] == 20 for s in by_name["resample.bootstrap_replicates"])


# ---------------------------------------------------------------------------
# scaling to the reference speed
# ---------------------------------------------------------------------------

def test_factors_use_the_median_kernel_time():
    wall_ref, cpu_ref = calibrate.REFERENCE
    # one kernel run hit a burst of stolen time; the median ignores it
    times = [(2 * wall_ref, cpu_ref), (2 * wall_ref, cpu_ref), (10 * wall_ref, 4 * cpu_ref)]
    assert calibrate.factors(times) == pytest.approx((0.5, 1.0))


def test_end_to_end_times_are_scaled():
    ops = [run.Operation(wall=w, cpu=w / 2, error=None, sha=None) for w in (2.0, 4.0, 8.0)]
    # the kernel took twice its reference time: the machine ran at half speed
    wall_ref, cpu_ref = calibrate.REFERENCE
    metrics = run.end_to_end_report(ops, [3.0], [(2 * wall_ref, 2 * cpu_ref)] * 4, 1.0)
    assert metrics["wall_s"] == pytest.approx(2.0)
    assert metrics["cpu_s"] == pytest.approx(1.0)
    assert metrics["setup_s"] == pytest.approx(1.5)


# ---------------------------------------------------------------------------
# printed metrics match BENCHMARK.json
# ---------------------------------------------------------------------------

def test_end_to_end_metrics_declared():
    op = run.Operation(wall=1.0, cpu=1.5, error=None, sha=None)
    printed = run.end_to_end_report([op, op], [0.5, 0.6, 0.7], [(0.3, 0.3)] * 5, 100.0)
    declared = {m["name"]: m for m in SPEC["end_to_end"]}
    assert set(printed) == set(declared)
    assert declared["setup_s"]["unit"] == "s" and declared["setup_s"]["better"] == "lower"
    assert declared["setup_s"]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for m in declared.values():
        assert m["unit"] and m["better"] in ("lower", "higher") and 0 < m["bound"] <= 0.25


def test_per_layer_metrics_declared():
    printed = set(spans.op_metrics({}, 0.0, 1.0)) | {"trace.overhead_s"}
    declared = {m["name"]: m for m in SPEC["per_layer"]}
    assert printed == set(declared) == set(workloads.LAYER_MAP)
    for m in declared.values():
        assert m["unit"] and m["better"] in ("lower", "higher")


def test_workloads_declared():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == workloads.WHY
    assert set(workloads.EXPECTED_LAYERS) == set(workloads.WORKLOADS)
