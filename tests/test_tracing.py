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


@pytest.mark.filterwarnings("error")
def test_od_run_reaches_every_expected_layer(tmp_path, capsys):
    # 5 slots: fewer make GB-I warn that its cross-covariance is noisy
    recorder = traced([
        "od", "--surrogate", "--days", "60", "--slots", "5", "--day-ar", "0.5",
        "--replicates", "50", "--seed", "3", "--out", str(tmp_path / "od.csv"),
    ])
    assert recorder.skipped == {}
    assert missing_layers(recorder, "od-corridor") == []
