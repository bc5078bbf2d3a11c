"""The benchmark's workloads: how each one's inputs are made from a seed,
which ``gapboot`` command lines an operation runs, and which layers it
is expected to exercise.

An operation is what ``wall_s`` and ``cpu_s`` time: one
``gapboot.cli.main`` call that writes one output file.

Per-layer metrics and the end-to-end metric each should move, with the
workload where it should move, are in ``LAYER_MAP``.
"""
from __future__ import annotations

import json
import os

#: Parameters of the corridor surrogate of ``od-corridor``, as in README.
OD_SURROGATE = {"days": 575, "slots": 36, "day_ar": 0.5, "split_drift": 0.1}
OD_REPLICATES = 1000

#: Study workloads: (family, n, p, methods, runs, gap_q or None).
#: ``runs`` makes one operation take 1-2 s on a 2-vCPU Xeon VM, so a
#: run of ``run_seconds`` holds 15 or more operations; ``truth_runs`` is
#: 100, the least ``gapboot`` accepts, so the truth simulation in
#: ``models`` stays a minor share (about 10%) of an operation.
STUDIES = {
    "study-wide": ("mma", 4000, 40, ("gb1", "gb2"), 4, None),
    "study-long": ("ar2", 50000, 5, ("gb1", "gb2", "ss", "bb", "naive"), 1, 0),
}
TRUTH_RUNS = 100

#: One line per workload: why it was chosen, and the layers' shares of a
#: traced operation's wall time (``<layer>.busy_s``, or the ``od.*_s``
#: durations) measured on a 2-vCPU Xeon VM.
WHY = {
    "od-corridor": "gapboot od on the README corridor (575 days x 36 slots): od.gb2_s ~50%, "
                   "od.gb1_s ~35%, od.read_s ~10%, od.ls_s ~5% of wall_s; study layers stay zero",
    "study-wide": "mma n=4000 p=40 (m=100), gb1,gb2: 40 short rows, 780 GB-II pairs; busy_s "
                  "shares: resample ~45%, gb2 ~34%, models ~10%, core ~8%",
    "study-long": "ar2 n=50000 p=5 gap_q=0 (m=10000), five methods: few long rows; busy_s "
                  "shares: resample ~53%, baselines ~22%, core ~12%, models ~12%",
}

WORKLOADS = tuple(WHY)

#: Layers (``gapboot`` module names, leading underscore dropped) that
#: must record at least one call in a workload's traced run.
EXPECTED_LAYERS = {
    "od-corridor": ("cli", "od", "gb1", "gb2", "core", "rand"),
    "study-wide": ("cli", "study", "models", "rand", "resample", "gb1", "gb2", "core"),
    "study-long": ("cli", "study", "models", "rand", "resample", "gb1", "gb2", "core",
                   "baselines"),
}

#: Per-layer metric -> the end-to-end metrics it should move, and where.
#: Written before any optimisation, so that a later change can cite its
#: claim by metric and workload name.
LAYER_MAP = {
    "od.read_s": "wall_s cpu_s on od-corridor; zero on study-*",
    "od.ls_s": "wall_s cpu_s on od-corridor; zero on study-*",
    "od.gb1_s": "wall_s cpu_s on od-corridor; zero on study-*",
    "od.gb2_s": "wall_s cpu_s on od-corridor; zero on study-*",
    "od.calls": "wall_s on od-corridor; zero on study-*",
    "od.peak_alloc_mb": "peak_rss_mb on od-corridor; zero on study-*",
    "models.busy_s": "wall_s on study-long and study-wide",
    "models.series": "wall_s on study-long and study-wide",
    "models.truth_s": "wall_s on study-long and study-wide",
    "rand.streams": "wall_s on study-wide and study-long",
    "rand.busy_s": "wall_s on study-wide and study-long",
    "resample.busy_s": "wall_s on study-wide and study-long",
    "resample.calls": "wall_s on study-wide",
    "resample.replicates": "wall_s on study-wide",
    "resample.index_mb": "wall_s on study-wide; peak_rss_mb on study-long",
    "resample.peak_alloc_mb": "peak_rss_mb on study-long",
    "gb1.busy_s": "wall_s on study-wide (small: GB-I's work is in resample.busy_s)",
    "gb1.calls": "wall_s on study-wide",
    "gb2.busy_s": "wall_s on study-wide; no change on study-long",
    "gb2.pairs": "wall_s on study-wide; no change on study-long",
    "gb2.windows": "wall_s on study-wide; no change on study-long",
    "gb2.degenerate_pairs": "wall_s on study-wide; no change on study-long",
    "core.busy_s": "wall_s on study-wide and study-long",
    "core.psd_calls": "wall_s on study-wide",
    "core.psd_clipped": "wall_s on study-wide",
    "baselines.busy_s": "wall_s on study-long",
    "baselines.bb_s": "wall_s on study-long",
    "baselines.ss_s": "wall_s on study-long",
    "baselines.gather_mb": "wall_s peak_rss_mb on study-long",
    "baselines.peak_alloc_mb": "peak_rss_mb on study-long",
    "study.self_s": "wall_s on study-wide and study-long",
    "study.runs": "wall_s on study-wide and study-long",
    "cli.self_s": "wall_s on od-corridor (output writing), study-wide and study-long",
    "trace.coverage": "none; gate, must be >= 0.9 on every workload",
    "trace.overhead_s": "none; traced minus untraced wall_s on every workload",
}


def study_config(workload: str, seed: int) -> dict:
    """The ``simulate --config`` file of a study workload."""
    family, n, p, methods, runs, gap_q = STUDIES[workload]
    config = {
        "models": [family], "dists": ["normal"], "sizes": [[n, p]], "methods": list(methods),
        "runs": runs, "truth_runs": TRUTH_RUNS, "seed": seed,
    }
    if gap_q is not None:
        config["gap_q"] = gap_q
    return config


def write_inputs(workload: str, seed: int, workdir: str) -> None:
    """Generate the workload's inputs from ``seed`` and write them to ``workdir``.

    Needs ``gapboot`` importable: the corridor surrogate is the package's own.
    """
    if workload == "od-corridor":
        from gapboot.od import surrogate_od_dataset, write_od_csv

        dataset, truth = surrogate_od_dataset(
            OD_SURROGATE["days"], OD_SURROGATE["slots"], seed=seed,
            day_ar=OD_SURROGATE["day_ar"], split_drift=OD_SURROGATE["split_drift"],
        )
        write_od_csv(dataset, os.path.join(workdir, "od.csv"))
        with open(os.path.join(workdir, "truth.json"), "w") as fh:
            json.dump([float(v) for v in truth.theta], fh)
        return
    with open(os.path.join(workdir, "study.json"), "w") as fh:
        json.dump(study_config(workload, seed), fh)


def output_path(workdir: str) -> str:
    return os.path.join(workdir, "out.csv")


def operation(workload: str, workdir: str, warmup: bool = False) -> list[str]:
    """The ``cli.main`` argument list of one operation.

    The warm-up operation runs the same code paths on the same inputs with
    less work: fewer bootstrap replicates (od) or one run (study).
    """
    if workload == "od-corridor":
        replicates = 50 if warmup else OD_REPLICATES
        return ["od", "--data", os.path.join(workdir, "od.csv"),
                "--replicates", str(replicates), "--out", output_path(workdir)]
    return (["simulate", "--config", os.path.join(workdir, "study.json"),
             "--out", output_path(workdir)] + (["--runs", "1"] if warmup else []))
