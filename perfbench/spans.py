"""Span tracing for the benchmark's traced run, kept out of the program.

``install`` wraps every public function defined in a ``gapboot`` module
and puts the wrapper under every name a ``gapboot`` module looks it up
by.  Modules call each other through names bound by ``from .gb1 import
collect_row_estimates``, so replacing the attribute on the defining
module alone would miss those calls.  ``uninstall`` puts the originals
back, so traced and untraced operations can alternate in one process.

Each call becomes a span: name ``<layer>.<function>``, where the layer is
the module name without a leading underscore, start, end, the index of
the enclosing span, and the operation it belongs to.  Spans stay in
memory until the run ends; ``write`` then saves them.  While
``tracemalloc`` traces, a span also records the peak of traced memory
above its starting level.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import statistics
import time
import tracemalloc
import types
from dataclasses import dataclass, field

MIB = float(1 << 20)
PACKAGE = "gapboot"

#: Library layers, i.e. the modules of ``gapboot`` that define functions.
LAYERS = ("cli", "study", "models", "rand", "resample", "gb1", "gb2", "core", "baselines", "od")


@dataclass
class Span:
    name: str
    layer: str
    op: int
    parent: int
    start: float
    end: float = 0.0
    error: str | None = None
    alloc_peak: float = 0.0
    counts: dict = field(default_factory=dict)
    # tracemalloc bookkeeping while the span is open
    _base: int = 0
    _peak_seen: int = 0


class Recorder:
    """Collects spans in memory; one instance per benchmark run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = 0
        self.skipped: dict[str, str] = {}  # function -> why its counters were skipped
        self._stack: list[int] = []

    def enter(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name=name, layer=layer, op=self.op, parent=parent, start=0.0)
        if tracemalloc.is_tracing():
            current, peak = tracemalloc.get_traced_memory()
            if parent >= 0:
                # the peak counter is reset below; keep what the parent has seen so far
                outer = self.spans[parent]
                outer._peak_seen = max(outer._peak_seen, peak)
            tracemalloc.reset_peak()
            span._base = span._peak_seen = current
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        span.start = time.perf_counter()
        return len(self.spans) - 1

    def exit(self, index: int, error: str | None = None) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        span.error = error
        self._stack.pop()
        if tracemalloc.is_tracing():
            span._peak_seen = max(span._peak_seen, tracemalloc.get_traced_memory()[1])
            span.alloc_peak = (span._peak_seen - span._base) / MIB
            if span.parent >= 0:
                outer = self.spans[span.parent]
                outer._peak_seen = max(outer._peak_seen, span._peak_seen)


# ---------------------------------------------------------------------------
# Counters computed from a call's arguments and result
# ---------------------------------------------------------------------------

def _replicates(args, result) -> dict:
    m = len(args["sample"])
    # the index table a Monte Carlo row bootstrap draws: B x m int64
    return {"replicates": result.shape[0], "index_mb": result.shape[0] * m * 8 / MIB}


def _windows(args, result) -> dict:
    return {"windows": result.grid.shape[0]}


def _psd_clipped(args, result) -> dict:
    import numpy as np  # not at module level: run.py sets BLAS threads before numpy loads

    m = np.asarray(args["matrix"], dtype=np.float64)
    return {"psd_clipped": int(not np.array_equal(result, 0.5 * (m + m.T)))}


def _block_gather(args, result) -> dict:
    values = args["array"].values
    return {"gather_mb": args["config"].replicates * values.nbytes / MIB}


def _window_gather(args, result) -> dict:
    array, ell = args["array"], args["ell"]
    return {"gather_mb": (array.m - ell + 1) * ell * array.values[0].nbytes / MIB}


HOOKS = {
    "resample.bootstrap_replicates": _replicates,
    "gb2.subseries_estimates": _windows,
    "core.psd_project": _psd_clipped,
    "baselines.block_bootstrap_variance": _block_gather,
    "baselines.subsampling_variance": _window_gather,
}


def layer_of(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1].lstrip("_")


def _wrap(recorder: Recorder, fn, layer: str):
    name = f"{layer}.{fn.__name__}"
    hook = HOOKS.get(name)
    signature = inspect.signature(fn) if hook else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = recorder.enter(name, layer)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            recorder.exit(index, error=type(exc).__name__)
            raise
        recorder.exit(index)
        if hook is not None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            try:
                recorder.spans[index].counts = hook(bound.arguments, result)
            except (KeyError, AttributeError, TypeError, IndexError) as exc:
                # the function's signature changed; its counters read zero
                recorder.skipped[name] = repr(exc)
        return result

    return wrapper


def _package_modules() -> list[types.ModuleType]:
    pkg = importlib.import_module(PACKAGE)
    return [pkg] + [
        importlib.import_module(f"{PACKAGE}.{info.name}")
        for info in pkgutil.iter_modules(pkg.__path__)
    ]


def install(recorder: Recorder) -> list[tuple]:
    """Wrap the package's public functions; returns what ``uninstall`` needs."""
    modules = _package_modules()
    wrappers = {}
    for module in modules[1:]:
        for name, value in vars(module).items():
            if (isinstance(value, types.FunctionType) and not name.startswith("_")
                    and value.__module__ == module.__name__):
                wrappers[value] = _wrap(recorder, value, layer_of(module.__name__))
    replaced = []
    for module in modules:
        for name, value in list(vars(module).items()):
            if isinstance(value, types.FunctionType) and value in wrappers:
                replaced.append((module, name, value))
                setattr(module, name, wrappers[value])
    return replaced


def uninstall(replaced: list[tuple]) -> None:
    for module, name, value in replaced:
        setattr(module, name, value)


def write(recorder: Recorder, path: str) -> None:
    """Write every span as one JSON object per line; times in seconds from
    the first span's start."""
    origin = recorder.spans[0].start if recorder.spans else 0.0
    with open(path, "w") as fh:
        for index, span in enumerate(recorder.spans):
            fh.write(json.dumps({
                "id": index, "op": span.op, "parent": span.parent, "name": span.name,
                "start": span.start - origin, "end": span.end - origin, "error": span.error,
                "alloc_peak_mb": span.alloc_peak, "counts": span.counts,
            }) + "\n")


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------

def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: dict[int, Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans.values():
        children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        index: (span.end - span.start) - covered(children.get(index, ()), span.start, span.end)
        for index, span in spans.items()
    }


def op_metrics(spans: dict[int, Span], op_start: float, op_end: float) -> dict[str, float]:
    """Per-layer metrics of one operation from its spans (keyed by index).

    ``<layer>.busy_s`` is the summed self time of the layer's spans;
    ``<layer>.calls`` counts entries into the layer from another layer;
    ``<name>_s`` of a function is the summed duration of its spans;
    ``*_peak_alloc_mb`` is the largest traced-memory rise in any span of
    the layer; ``trace.coverage`` is the share of the operation covered by
    library spans directly under the command-line entry point.
    """
    selfs = self_times(spans)
    busy = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    peak = dict.fromkeys(LAYERS, 0.0)
    counts: dict[str, float] = {}
    named: dict[str, list[Span]] = {}
    for index, span in spans.items():
        parent = spans.get(span.parent)
        busy[span.layer] = busy.get(span.layer, 0.0) + selfs[index]
        if parent is None or parent.layer != span.layer:
            calls[span.layer] = calls.get(span.layer, 0) + 1
        peak[span.layer] = max(peak.get(span.layer, 0.0), span.alloc_peak)
        for key, value in span.counts.items():
            counts[key] = counts.get(key, 0) + value
        named.setdefault(span.name, []).append(span)

    def total(name: str) -> float:
        return sum(s.end - s.start for s in named.get(name, ()))

    def number(name: str) -> int:
        return len(named.get(name, ()))

    study_series = sum(
        1 for s in named.get("models.generate_series", ())
        if s.parent in spans and spans[s.parent].layer == "study"
    )
    top = [
        (s.start, s.end) for s in spans.values()
        if s.layer != "cli" and (s.parent not in spans or spans[s.parent].layer == "cli")
    ]
    return {
        "od.read_s": total("od.read_od_csv"),
        "od.ls_s": total("od.ls_estimate"),
        "od.gb1_s": total("od.od_gb1_standard_errors"),
        "od.gb2_s": total("od.od_gb2_standard_errors"),
        "od.calls": calls["od"],
        "od.peak_alloc_mb": peak["od"],
        "models.busy_s": busy["models"],
        "models.series": number("models.generate_series"),
        "models.truth_s": total("models.monte_carlo_true_se"),
        "rand.streams": number("rand.derived_stream"),
        "rand.busy_s": busy["rand"],
        "resample.busy_s": busy["resample"],
        "resample.calls": calls["resample"],
        "resample.replicates": counts.get("replicates", 0),
        "resample.index_mb": counts.get("index_mb", 0.0),
        "resample.peak_alloc_mb": peak["resample"],
        "gb1.busy_s": busy["gb1"],
        "gb1.calls": calls["gb1"],
        "gb2.busy_s": busy["gb2"],
        "gb2.pairs": number("gb2.correlation_matrix"),
        "gb2.windows": counts.get("windows", 0),
        "gb2.degenerate_pairs": sum(
            1 for s in named.get("gb2.correlation_matrix", ())
            if s.error == "DegenerateCorrelationError"
        ),
        "core.busy_s": busy["core"],
        "core.psd_calls": number("core.psd_project"),
        "core.psd_clipped": counts.get("psd_clipped", 0),
        "baselines.busy_s": busy["baselines"],
        "baselines.bb_s": total("baselines.block_bootstrap_variance"),
        "baselines.ss_s": total("baselines.subsampling_variance"),
        "baselines.gather_mb": counts.get("gather_mb", 0.0),
        "baselines.peak_alloc_mb": peak["baselines"],
        "study.self_s": busy["study"],
        "study.runs": study_series,
        "cli.self_s": busy["cli"],
        "trace.coverage": covered(top, op_start, op_end) / (op_end - op_start),
    }


def layer_calls(spans: dict[int, Span]) -> dict[str, int]:
    """Number of spans per layer."""
    out: dict[str, int] = {}
    for span in spans.values():
        out[span.layer] = out.get(span.layer, 0) + 1
    return out


def median_metrics(per_op: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(m[key] for m in per_op) for key in per_op[0]}
