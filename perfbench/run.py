"""Run one workload of the gapboot benchmark and print its metrics.

    python3 perfbench/run.py --workload od-corridor --seed 1 --seconds 28 --trace 0

Run from the root of a gapboot checkout; the package is imported from
``src/`` there.  Load shape: one process, closed loop, one client: each
operation starts when the previous one has ended.  BLAS runs one thread
(see ``main``); the count in effect is printed with the machine facts.

A run sets up its inputs ``SETUPS`` times, each in a fresh process,
runs one warm-up operation, then runs operations through
``gapboot.cli.main`` until ``--seconds`` have passed (at least
``MIN_OPS``).  Every operation's output is checked by ``check.py`` and
must be byte-identical within the run; any failure counts in ``failed``.

``--trace 0`` prints the end-to-end metrics: medians over the set-ups
and the operations.  The speed of a shared machine drifts by a fifth or
more for minutes at a time, so the run also times the fixed kernel in
``calibrate.py`` before each set-up and after each operation, and scales
the medians to the kernel's speed on the reference machine (see there);
the unscaled medians are printed beside them.

``--trace 1`` rotates untraced operations, operations traced with spans,
and operations traced with spans and ``tracemalloc``.  It prints the
per-layer metrics (medians over operations; allocation peaks from the
``tracemalloc`` ones, all others from the span-only ones) and the
tracing overhead, and fails if the spans cover less than
``MIN_COVERAGE`` of an operation or a layer the workload must exercise
records no call.  All spans are written to
``.perfbench_work/spans-<workload>-<seed>.jsonl`` when the run ends.

The last line of standard output is the result as one JSON object.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
import traceback
from dataclasses import dataclass

import calibrate
import check
import machine
import spans
import workloads

SETUPS = 3
MIN_OPS = 3
MIN_TRACED_OPS = 2
MIN_COVERAGE = 0.9
WORK_DIR = ".perfbench_work"
HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass
class Operation:
    """Outcome of one operation."""

    wall: float
    cpu: float
    error: str | None
    sha: str | None
    start: float = 0.0
    end: float = 0.0
    index: int = -1  # the span recorder's operation id, for traced operations


def run_setup(workload: str, seed: int, workdir: str) -> float:
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_inputs.py"), workload, str(seed), workdir],
        check=True, timeout=120,
    )
    return time.perf_counter() - started


def run_operation(cli, workload: str, workdir: str, context, reference) -> Operation:
    captured = io.StringIO()
    error = None
    start = time.perf_counter()
    cpu_start = time.process_time()
    with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
        try:
            code = cli.main(workloads.operation(workload, workdir))
            if code != 0:
                error = f"exit code {code}: {captured.getvalue()[-2000:]}"
        except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
            error = traceback.format_exc()
    end = time.perf_counter()
    cpu = time.process_time() - cpu_start
    sha = None
    if error is None:
        with open(workloads.output_path(workdir)) as fh:
            text = fh.read()
        sha = check.sha256(text)
        try:
            check.check_output(workload, text, context, reference)
        except ValueError as exc:
            error = f"output check: {exc}"
    return Operation(end - start, cpu, error, sha, start, end)


def load_gapboot(root: str):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "gapboot", "__init__.py")):
        return None
    sys.path.insert(0, src)
    import gapboot
    import gapboot.cli

    if not os.path.abspath(gapboot.__file__).startswith(src + os.sep):
        return None
    return gapboot.cli


def context_for(workload: str, seed: int, workdir: str):
    """What ``check.check_output`` needs beside the output: the generating
    split (od) or the study config."""
    if workload == "od-corridor":
        with open(os.path.join(workdir, "truth.json")) as fh:
            return json.load(fh)
    return workloads.study_config(workload, seed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One BLAS thread, set before numpy loads and inherited by the set-up
    # processes.  A multi-threaded BLAS call waits for all its threads to be
    # scheduled: on a shared 2-vCPU virtual machine, two BLAS threads made
    # wall_s of od-corridor spread 37% over ten runs (interquartile range
    # over median), against 20% for cpu_s.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    root = os.getcwd()
    cli = load_gapboot(root)
    if cli is None:
        print(f"perfbench: no gapboot package under {os.path.join(root, 'src')}; "
              "run from the root of a gapboot checkout", file=sys.stderr)
        return 2

    os.makedirs(os.path.join(root, WORK_DIR), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-",
                               dir=os.path.join(root, WORK_DIR))
    try:
        return measure(cli, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(cli, args, workdir: str) -> int:
    workload, seed = args.workload, args.seed
    # (wall, CPU) seconds of the calibration kernel, run before each set-up
    # and after each plain operation (trace 0 only)
    kernel_times: list[tuple[float, float]] = []
    calibrated = not args.trace
    if calibrated:
        calibrate.measure()  # warm-up: first calls into numpy's random and linalg
    setup = []
    for _ in range(SETUPS if calibrated else 1):
        if calibrated:
            kernel_times.append(calibrate.measure())
        setup.append(run_setup(workload, seed, workdir))
    context = context_for(workload, seed, workdir)
    reference = check.load_reference()["workloads"][workload].get(str(seed))

    captured = io.StringIO()
    with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
        cli.main(workloads.operation(workload, workdir, warmup=True))

    # Untraced operations give the end-to-end times.  Traced runs add
    # operations with spans only (layer times, counts, coverage, overhead)
    # and operations with spans and tracemalloc (allocation peaks), so the
    # cost of tracing allocations does not distort the layer times.
    kinds = ("plain", "spans", "alloc") if args.trace else ("plain",)
    least = MIN_TRACED_OPS if args.trace else MIN_OPS
    recorder = spans.Recorder()
    ops: dict[str, list[Operation]] = {kind: [] for kind in kinds}
    deadline = time.perf_counter() + args.seconds
    i = 0
    while time.perf_counter() < deadline or min(len(v) for v in ops.values()) < least:
        # each cycle starts one kind later than the one before: P S A, S A P, ...
        kind = kinds[(i + i // len(kinds)) % len(kinds)]
        if kind == "plain":
            op = run_operation(cli, workload, workdir, context, reference)
            if calibrated:
                kernel_times.append(calibrate.measure())
        else:
            recorder.op = i
            replaced = spans.install(recorder)
            if kind == "alloc":
                tracemalloc.start()
            try:
                op = run_operation(cli, workload, workdir, context, reference)
            finally:
                tracemalloc.stop()
                spans.uninstall(replaced)
            op.index = i
        ops[kind].append(op)
        i += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    every = [op for kind_ops in ops.values() for op in kind_ops]
    good = [op for op in every if op.error is None]
    sha = good[0].sha if good else None
    for op in good:
        # deterministic by design: every operation must write the same bytes
        if op.sha != sha:
            op.error = f"output SHA-256 {op.sha} differs from {sha}"
    failures = [op for op in every if op.error is not None]
    for op in failures[:3]:
        print(f"failed operation: {op.error}", file=sys.stderr)

    info = {
        "workload": workload,
        "seed": seed,
        "why": workloads.WHY[workload],
        "load": {"processes": 1, "loop": "closed", "clients": 1},
        "machine": machine.facts(),
        "operations": {kind: len(kind_ops) for kind, kind_ops in ops.items()},
        "output_sha256": sha,
        "reference_seed": reference is not None,
        "reference_sha256_match": reference is not None and sha == reference["sha256"],
    }
    print(json.dumps(info, sort_keys=True))

    if args.trace:
        spans_path = os.path.join(os.path.dirname(workdir), f"spans-{workload}-{seed}.jsonl")
        spans.write(recorder, spans_path)
        print(f"spans: {len(recorder.spans)} written to {spans_path}")
        metrics, gate_errors = layer_report(workload, recorder, ops)
    else:
        metrics, gate_errors = end_to_end_report(ops["plain"], setup, kernel_times, peak_rss_mb), []
    for message in gate_errors:
        print(f"trace gate: {message}", file=sys.stderr)
    print(f"failed_frac {len(failures) / len(every):10.4f}      {len(failures)} of {len(every)} "
          "operations failed")

    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in benchmark_spec()[section]}
    correct = not failures and not gate_errors
    result = {
        "correct": correct,
        "attempted": len(every),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def end_to_end_report(plain: list[Operation], setup: list[float],
                      kernel_times: list[tuple[float, float]],
                      peak_rss_mb: float) -> dict[str, float]:
    """The end-to-end metrics: medians of the operation and set-up times,
    scaled to the reference speed by the run's median kernel time."""
    wall_factor, cpu_factor = calibrate.factors(kernel_times)
    q1, wall, q3 = (q * wall_factor for q in statistics.quantiles([op.wall for op in plain], n=4))
    c1, cpu, c3 = (q * cpu_factor for q in statistics.quantiles([op.cpu for op in plain], n=4))
    setup_s = statistics.median(setup) * wall_factor
    print(f"wall_s      {wall:10.4f} s    median of {len(plain)} operations "
          f"(quartiles {q1:.4f} .. {q3:.4f}; unscaled {wall / wall_factor:.4f})")
    print(f"cpu_s       {cpu:10.4f} s    median of {len(plain)} operations "
          f"(quartiles {c1:.4f} .. {c3:.4f}; unscaled {cpu / cpu_factor:.4f})")
    print(f"peak_rss_mb {peak_rss_mb:10.1f} MiB  peak resident set of this process")
    print(f"setup_s     {setup_s:10.4f} s    median of {len(setup)} set-ups "
          f"(unscaled {', '.join(f'{s:.3f}' for s in setup)})")
    print(f"times are scaled to the reference speed by {wall_factor:.4f} (wall) and "
          f"{cpu_factor:.4f} (CPU): median of {len(kernel_times)} kernel runs")
    return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak_rss_mb, "setup_s": setup_s}


def layer_report(workload: str, recorder: spans.Recorder,
                 ops: dict[str, list[Operation]]) -> tuple[dict[str, float], list[str]]:
    by_op: dict[int, dict] = {}
    for index, span in enumerate(recorder.spans):
        by_op.setdefault(span.op, {})[index] = span

    def medians(kind: str) -> dict[str, float]:
        return spans.median_metrics(
            [spans.op_metrics(by_op.get(op.index, {}), op.start, op.end) for op in ops[kind]])

    metrics = medians("spans")
    allocs = medians("alloc")
    for name in metrics:
        if name.endswith("peak_alloc_mb"):
            metrics[name] = allocs[name]
    untraced = statistics.median(op.wall for op in ops["plain"])
    metrics["trace.overhead_s"] = statistics.median(op.wall for op in ops["spans"]) - untraced

    units = {m["name"]: m["unit"] for m in benchmark_spec()["per_layer"]}
    for name, value in metrics.items():
        print(f"{name:24s} {value:14.6g} {units[name]:6s} ({workloads.LAYER_MAP[name]})")
    traced = statistics.median(op.wall for op in ops["spans"])
    # the layer self times and od's own phases as shares of a traced operation
    shares = {name: metrics[name] / traced for name in metrics
              if name.endswith(".busy_s") or name.startswith("od.") and name.endswith("_s")}
    print("shares of wall_s: " + ", ".join(
        f"{name} {share:.0%}" for name, share in sorted(shares.items(), key=lambda kv: -kv[1])
        if share >= 0.005))
    print(f"median wall per operation: untraced {untraced:.4f} s, "
          f"spans {traced:.4f} s, "
          f"spans+tracemalloc {statistics.median(op.wall for op in ops['alloc']):.4f} s "
          f"({', '.join(f'{k} {len(v)}' for k, v in ops.items())} operations)")

    for name, why in recorder.skipped.items():
        print(f"counters of {name} skipped: {why}", file=sys.stderr)
    errors = []
    for op in ops["spans"]:
        calls = spans.layer_calls(by_op.get(op.index, {}))
        missing = [layer for layer in workloads.EXPECTED_LAYERS[workload] if not calls.get(layer)]
        if missing:
            errors.append(f"no calls recorded in layers {missing}")
            break
    if metrics["trace.coverage"] < MIN_COVERAGE:
        errors.append(f"coverage {metrics['trace.coverage']:.3f} < {MIN_COVERAGE}")
    return metrics, errors


def benchmark_spec() -> dict:
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        return json.load(fh)


if __name__ == "__main__":
    sys.exit(main())
