"""Record the reference outputs ``check.py`` compares against.

    python3 perfbench/record_reference.py

Run from the root of a gapboot checkout.  For every workload and every
seed in ``SEEDS`` it makes the inputs, runs one operation, checks its
invariants and stores the values and SHA-256 of the output in
``perfbench/reference.json``, replacing the whole file.  Re-record only
for a change that is meant to alter results, and say so where it is
reviewed.
"""
import json
import os
import sys
import tempfile

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # as in run.py, before numpy loads
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import gapboot.cli  # noqa: E402

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SEEDS = range(16)


def record(workload: str, seed: int, workdir: str) -> dict:
    workloads.write_inputs(workload, seed, workdir)
    context = run.context_for(workload, seed, workdir)
    op = run.run_operation(gapboot.cli, workload, workdir, context, None)
    if op.error is not None:
        raise SystemExit(f"{workload} seed {seed}: {op.error}")
    with open(workloads.output_path(workdir)) as fh:
        text = fh.read()
    return {"sha256": op.sha, "values": check.check_output(workload, text, context, None)}


def main() -> None:
    reference = {"workloads": {}}
    for workload in workloads.WORKLOADS:
        entries = reference["workloads"][workload] = {}
        for seed in SEEDS:
            os.makedirs(run.WORK_DIR, exist_ok=True)
            with tempfile.TemporaryDirectory(dir=run.WORK_DIR) as workdir:
                entries[str(seed)] = record(workload, seed, workdir)
            print(f"{workload} seed {seed}: {entries[str(seed)]['sha256']}", file=sys.stderr)
    with open(check.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
