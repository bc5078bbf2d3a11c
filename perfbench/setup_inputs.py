"""Set-up step of one benchmark run, as its own process.

    python3 perfbench/setup_inputs.py <workload> <seed> <workdir>

Run from the root of a gapboot checkout.  Its wall time, measured by
``run.py`` from process start to exit, is ``setup_s``: interpreter start,
``import gapboot`` and writing the workload's inputs.
"""
import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import gapboot  # noqa: E402,F401  (the import is part of what is timed)

import workloads  # noqa: E402

if __name__ == "__main__":
    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    workloads.write_inputs(workload, seed, workdir)
