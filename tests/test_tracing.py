"""The benchmark's traced runs still see every layer they expect.

``perfbench/spans.py`` times the library by wrapping its public functions
by name.  A refactor that routes a workload's work around them leaves a
layer with no calls or a counter hook that no longer fits its function,
and ``perfbench/run.py --trace 1`` then fails that workload.  These are
tiny runs of the benchmark's commands under the same wrappers.
"""
from __future__ import annotations

import os
import sys

import pytest

import gapboot._rand as rand_module
import gapboot.resample as resample_module
from gapboot import cli

PERFBENCH = os.path.normpath(os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

import spans  # noqa: E402
import workloads  # noqa: E402


def traced(argv: list[str]) -> spans.Recorder:
    recorder = spans.Recorder()
    replaced = spans.install(recorder)
    try:
        assert cli.main(argv) == 0
    finally:
        spans.uninstall(replaced)
    return recorder


def missing_layers(recorder: spans.Recorder, workload: str) -> list[str]:
    calls = spans.layer_calls(dict(enumerate(recorder.spans)))
    return [layer for layer in workloads.EXPECTED_LAYERS[workload] if not calls.get(layer)]


def test_study_runs_reach_every_expected_layer(tmp_path, capsys):
    # study-long's shape (ar2, no gap, five methods) on a 600 x 5 cell;
    # study-wide expects a subset of its layers
    recorder = traced([
        "simulate", "--model", "ar2", "--dist", "normal", "--n", "600", "--p", "5",
        "--gap-q", "0", "--methods", "gb1,gb2,ss,bb,naive", "--runs", "1",
        "--truth-runs", "100", "--replicates", "50", "--seed", "3",
        "--out", str(tmp_path / "study.csv"),
    ])
    assert recorder.skipped == {}
    for workload in ("study-wide", "study-long"):
        assert missing_layers(recorder, workload) == [], workload


def test_rows_on_the_row_pool_record_their_bootstraps(tmp_path, capsys, monkeypatch):
    # Every row runs on the row pool; collect_row_estimates must still
    # reach iid_bootstrap_variance by name for its calls to be traced.
    monkeypatch.setattr(rand_module, "_WORKERS", 2)
    monkeypatch.setattr(resample_module, "_MIN_THREAD_DRAWS", 0)
    recorder = traced([
        "simulate", "--model", "ar2", "--dist", "normal", "--n", "100", "--p", "5",
        "--methods", "gb1", "--runs", "2", "--truth-runs", "100", "--replicates", "20",
        "--seed", "3", "--out", str(tmp_path / "study.csv"),
    ])
    names = [span.name for span in recorder.spans]
    assert names.count("resample.iid_bootstrap_variance") == 2 * 5  # runs x rows


@pytest.mark.filterwarnings("error")
def test_od_run_reaches_every_expected_layer(tmp_path, capsys):
    # 5 slots: fewer make GB-I warn that its cross-covariance is noisy
    recorder = traced([
        "od", "--surrogate", "--days", "60", "--slots", "5", "--day-ar", "0.5",
        "--replicates", "50", "--seed", "3", "--out", str(tmp_path / "od.csv"),
    ])
    assert recorder.skipped == {}
    assert missing_layers(recorder, "od-corridor") == []
