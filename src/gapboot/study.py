"""Simulation study driver.

Runs a grid of (model family, innovation, (n, p)) cells; in every cell
it simulates ``runs`` independent gapped arrays, applies the requested
variance methods to the grand-mean estimator, and scores each method's
standard-error estimates against a Monte Carlo truth simulated from the
same model.  All randomness is keyed by (seed, cell, run), so results
are identical for any number of the package's own worker threads and
any method subset; the BLAS thread count is outside that promise.

A cell's runs go one at a time.  Truth series, one per task, and the
bootstraps of rows whose resamples hold ``resample._MIN_THREAD_DRAWS``
indices or more run on all the CPUs the process may use, the calling
thread among them (``models.monte_carlo_true_se``, ``gb1``'s row pool).
"""
from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field, fields

import numpy as np

from ._rand import derived_seed
from .baselines import block_bootstrap_variance, naive_column_variance, subsampling_variance
from .core import _check_int, _check_window, mean_estimator
from .errors import ConfigError, GapBootstrapError, InsufficientDataError
from .gb1 import collect_row_estimates, gb1_variance
from .gb2 import default_block_length, gb2_variance, subseries_estimates
from .models import ModelSpec, _check_truth_runs, generate_series, monte_carlo_true_se
from .resample import BootstrapConfig

__all__ = [
    "METHODS",
    "StudyCellResult",
    "StudyConfig",
    "StudyResult",
    "run_study",
    "write_study_csv",
    "write_study_json",
]

METHODS = ("gb1", "gb2", "ss", "bb", "naive")

_DIST_ALIASES = {"exp": "centered_exponential"}


def _as_tuple(value, name: str, length: int | None = None) -> tuple:
    """A list field as a tuple.  Anything but a list or tuple, a string
    included, raises ConfigError, as do an empty list and a length other
    than ``length``."""
    if not isinstance(value, (list, tuple)) or length not in (None, len(value)):
        shape = "a list" if length is None else f"a list of {length} items"
        raise ConfigError(f"{name} must be {shape}, got {value!r}")
    if not value:
        raise ConfigError(f"{name} must not be empty")
    return tuple(value)


@dataclass(frozen=True)
class StudyConfig:
    """Grid definition plus sampling parameters for one study."""

    models: tuple[str, ...] = ("ar2",)
    dists: tuple[str, ...] = ("normal",)
    sizes: tuple[tuple[int, int], ...] = ((200, 5),)
    methods: tuple[str, ...] = ("gb1", "gb2")
    runs: int = 500
    truth_runs: int = 2000
    replicates: int = 1000
    block_length: int | None = None
    cov_kind: str = "toeplitz"
    gap_q: int | None = None
    seed: int = 0

    def __post_init__(self):
        for name in ("models", "dists", "methods"):
            names = _as_tuple(getattr(self, name), name)
            if not all(isinstance(item, str) for item in names):
                raise ConfigError(f"{name} must be a list of names, got {list(names)!r}")
            object.__setattr__(self, name, names)
        object.__setattr__(self, "dists", tuple(_DIST_ALIASES.get(d, d) for d in self.dists))
        pairs = (_as_tuple(pair, "each entry of sizes", 2) for pair in _as_tuple(self.sizes, "sizes"))
        object.__setattr__(
            self, "sizes", tuple((_check_int(n, "n"), _check_int(p, "p")) for n, p in pairs)
        )
        for name in ("models", "dists", "sizes", "methods"):
            items = getattr(self, name)
            for i, item in enumerate(items):
                if item in items[:i]:
                    raise ConfigError(f"{name} lists {item!r} twice")
        # ModelSpec and BootstrapConfig hold the rules for the family,
        # innovation, covariance, gap, replicate count and seed; a 2 x 1
        # spec checks them before any cell does work.
        for family in self.models:
            for dist in self.dists:
                _model_for_cell(self, family, dist, 2, 1)
        BootstrapConfig(replicates=self.replicates, seed=self.seed)
        for method in self.methods:
            if method not in METHODS:
                raise ConfigError(f"unknown method {method!r}; choose from {METHODS}")
        if _check_int(self.runs, "runs") < 1:
            raise ConfigError(f"runs must be >= 1, got {self.runs}")
        _check_truth_runs(self.truth_runs)
        if self.block_length is not None and _check_int(self.block_length, "block_length") < 2:
            raise ConfigError(f"block_length must be >= 2, got {self.block_length}")


@dataclass
class StudyCellResult:
    """Scores of every method in one grid cell."""

    family: str
    dist: str
    n: int
    p: int
    true_se: float
    runs: int
    estimates: dict[str, np.ndarray] = field(default_factory=dict)
    runtime_ms: float = 0.0
    error: str | None = None

    def bias(self, method: str) -> float:
        return float(self.estimates[method].mean() - self.true_se)

    def mse(self, method: str) -> float:
        return float(((self.estimates[method] - self.true_se) ** 2).mean())


@dataclass
class StudyResult:
    config: StudyConfig
    cells: list[StudyCellResult]


def _model_for_cell(config: StudyConfig, family: str, dist: str, n: int, p: int):
    return ModelSpec(family, n, p, innovation=dist, gap_q=config.gap_q, cov_kind=config.cov_kind)


def _one_run(spec, estimator, ell, config: StudyConfig, ci: int, ri: int) -> dict[str, float]:
    array = generate_series(spec, (config.seed, "cell", ci, "run", ri))
    boot = BootstrapConfig(
        replicates=config.replicates,
        seed=derived_seed(config.seed, "cell", ci, "run", ri, "boot"),
    )
    out: dict[str, float] = {}
    rows = None
    if "gb1" in config.methods or "gb2" in config.methods:
        rows = collect_row_estimates(array, estimator, boot)
    if "gb1" in config.methods:
        out["gb1"] = float(np.sqrt(gb1_variance(rows).scalar))
    if "gb2" in config.methods:
        sub = subseries_estimates(array, estimator, ell)
        out["gb2"] = float(np.sqrt(gb2_variance(rows.variances, sub).scalar))
    if "ss" in config.methods:
        out["ss"] = float(np.sqrt(subsampling_variance(array, estimator, ell).scalar))
    if "bb" in config.methods:
        out["bb"] = float(np.sqrt(block_bootstrap_variance(array, estimator, ell, boot).scalar))
    if "naive" in config.methods:
        est, _ = naive_column_variance(array, estimator)
        out["naive"] = float(np.sqrt(est.scalar))
    return out


def _run_cell(config: StudyConfig, ci: int, family: str, dist: str, n: int, p: int) -> StudyCellResult:
    start = time.perf_counter()
    estimator = mean_estimator()
    try:
        spec = _model_for_cell(config, family, dist, n, p)
        windowed = not {"gb2", "ss", "bb"}.isdisjoint(config.methods)
        ell = _check_window(config.block_length or default_block_length(spec.m), spec.m) if windowed else None
        if "gb1" in config.methods and p < 2:
            raise InsufficientDataError(f"gap bootstrap I needs at least 2 rows, got {p}")
        true_se = float(
            monte_carlo_true_se(spec, estimator, config.truth_runs, (config.seed, "truth", ci))[0]
        )
        per_run = [_one_run(spec, estimator, ell, config, ci, ri) for ri in range(config.runs)]
        estimates = {
            method: np.array([r[method] for r in per_run]) for method in config.methods
        }
        return StudyCellResult(
            family=family, dist=dist, n=n, p=p, true_se=true_se, runs=config.runs,
            estimates=estimates, runtime_ms=1e3 * (time.perf_counter() - start),
        )
    except GapBootstrapError as exc:
        return StudyCellResult(
            family=family, dist=dist, n=n, p=p, true_se=float("nan"), runs=config.runs,
            runtime_ms=1e3 * (time.perf_counter() - start), error=str(exc),
        )


def run_study(config: StudyConfig) -> StudyResult:
    """Execute every cell of the grid; a failed cell carries its error
    message and does not stop the remaining cells."""
    cells = []
    ci = 0
    for family in config.models:
        for dist in config.dists:
            for n, p in config.sizes:
                cells.append(_run_cell(config, ci, family, dist, n, p))
                ci += 1
    return StudyResult(config=config, cells=cells)


def write_study_csv(result: StudyResult, path) -> None:
    """One row per (cell, method): model,dist,n,p,method,true_se,bias,mse,runs.

    Failed cells are skipped here (their message travels in the JSON
    report and on stderr); output is a pure function of config+seed.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model", "dist", "n", "p", "method", "true_se", "bias", "mse", "runs"])
        for cell in result.cells:
            if cell.error is not None:
                continue
            for method in result.config.methods:
                writer.writerow(
                    [
                        cell.family, cell.dist, cell.n, cell.p, method,
                        repr(cell.true_se), repr(cell.bias(method)), repr(cell.mse(method)),
                        cell.runs,
                    ]
                )


def write_study_json(result: StudyResult, path, include_timing: bool = False) -> None:
    """Full per-run detail; with ``include_timing`` false (the default)
    the payload is a pure function of config+seed."""
    cfg = result.config
    config = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
    payload = {"config": config, "cells": []}
    for cell in result.cells:
        entry = {
            "model": cell.family,
            "dist": cell.dist,
            "n": cell.n,
            "p": cell.p,
            "runs": cell.runs,
            "error": cell.error,
            "true_se": None if cell.error else cell.true_se,
            "methods": {},
        }
        if cell.error is None:
            for method in cfg.methods:
                entry["methods"][method] = {
                    "bias": cell.bias(method),
                    "mse": cell.mse(method),
                    "estimates": [float(v) for v in cell.estimates[method]],
                }
        if include_timing:
            entry["runtime_ms"] = cell.runtime_ms
        payload["cells"].append(entry)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
