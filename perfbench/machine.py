"""Facts about the machine a benchmark result was measured on."""
from __future__ import annotations

import ctypes
import os
import platform


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas_libraries() -> list[dict]:
    """Every OpenBLAS loaded in this process, with its configuration and
    the thread count in effect."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return []
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas_", "64_"), ("scipy_openblas_", ""),
                               ("openblas_", "64_"), ("openblas_", "")):
            try:
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}")
                config = getattr(lib, f"{prefix}get_config{suffix}")
            except AttributeError:
                continue
            threads.restype = ctypes.c_int
            threads.argtypes = []
            config.restype = ctypes.c_char_p
            config.argtypes = []
            found.append({
                "library": os.path.basename(path),
                "config": config().decode(errors="replace").strip(),
                "threads": threads(),
            })
            break
    return found


def facts() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_libraries(),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                     if k in os.environ},
    }
