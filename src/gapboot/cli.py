"""Command-line interface.

Three subcommands:

* ``simulate`` -- run a study grid and write a CSV (optionally JSON) report
* ``od``       -- estimate split proportions and their standard errors
* ``check``    -- run fast internal consistency checks

Exit codes: 0 success, 1 configuration/usage error, 2 runtime failure.
Given the same arguments and seeds, output files are byte identical.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
import warnings

import numpy as np

from . import __version__
from .core import (
    build_data_array,
    componentwise_mean_estimator,
    mean_estimator,
    median_estimator,
    verify_linearity,
)
from .errors import ConfigError, FewRowsWarning, GapBootstrapError
from .gb1 import collect_row_estimates, gb1_variance
from .gb2 import correlation_matrix, subseries_estimates
from .models import FAMILY_GAPS, ModelSpec, row_mean_spread
from .od import (
    PARAM_NAMES,
    ODFit,
    SplitProportions,
    od_standard_errors,
    read_od_csv,
    surrogate_od_dataset,
    write_od_csv,
)
from .resample import BootstrapConfig
from .study import METHODS, StudyConfig, run_study, write_study_csv, write_study_json


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reports usage problems as exit code 1."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="gapboot", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"gapboot {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="{simulate,od,check}")

    sim = sub.add_parser("simulate", parents=[], help="run a simulation study grid")
    sim.add_argument("--config", help="JSON file with study fields; flags override it")
    # simulate's dests are StudyConfig's field names; see _study_config
    comma_list = lambda text: text.split(",")
    sim.add_argument("--model", dest="models", type=comma_list, help="comma list of families: " + ",".join(FAMILY_GAPS))
    sim.add_argument("--dist", dest="dists", type=comma_list, help="comma list: normal,exp")
    sim.add_argument("--n", type=int, default=None, help="series length (with --p)")
    sim.add_argument("--p", type=int, default=None, help="rows per period (with --n)")
    sim.add_argument("--methods", type=comma_list, help="comma list from " + ",".join(METHODS))
    sim.add_argument("--runs", type=int, default=None, help="simulation runs per cell (default 500)")
    sim.add_argument("--truth-runs", type=int, default=None, help="Monte Carlo truth runs (default 2000)")
    sim.add_argument("--replicates", type=int, default=None, help="bootstrap replicates (default 1000)")
    sim.add_argument("--block-len", dest="block_length", type=int, default=None, help="window/block length (default automatic)")
    sim.add_argument("--gap-q", type=int, default=None, help="deleted gap between periods (default per family)")
    sim.add_argument("--cov", dest="cov_kind", default=None, choices=["identity", "toeplitz"], help="innovation covariance (multivariate families)")
    sim.add_argument("--seed", type=int, default=None, help="master seed (default 0)")
    sim.add_argument("--threads", type=int, default=None, help="threads the runs of a cell share (default 1); long rows and truth series use the CPUs on their own")
    sim.add_argument("--out", required=True, help="CSV report path")
    sim.add_argument("--json", dest="json_out", default=None, help="optional detailed JSON report path")
    sim.add_argument("--timings", action="store_true", help="include per-cell runtimes in the JSON report")

    od = sub.add_parser("od", help="split-proportion estimation with GB-I/GB-II standard errors")
    src = od.add_mutually_exclusive_group(required=True)
    src.add_argument("--data", help="input CSV with day,slot,o1..o7,d1..d7 records")
    src.add_argument("--surrogate", action="store_true", help="generate a synthetic corridor dataset")
    od.add_argument("--days", type=int, default=575, help="surrogate days (default 575)")
    od.add_argument("--slots", type=int, default=36, help="surrogate slots per day (default 36)")
    od.add_argument("--day-ar", type=float, default=0.0, help="surrogate day-effect AR coefficient")
    od.add_argument("--noise", type=float, default=0.05, help="surrogate destination noise scale")
    od.add_argument(
        "--split-drift", type=float, default=0.0,
        help="surrogate day-to-day drift of the effective split proportions",
    )
    od.add_argument(
        "--slot-spread", type=float, default=0.35,
        help="surrogate log-scale spread of per-slot volume profiles",
    )
    od.add_argument("--block-len", type=int, default=None, help="window length in days (default automatic)")
    od.add_argument("--replicates", type=int, default=1000, help="slot bootstrap replicates")
    od.add_argument("--seed", type=int, default=0, help="seed for surrogate and bootstraps")
    od.add_argument("--degenerate-corr", default="error", choices=["error", "zero"],
                    help="policy for degenerate window correlations")
    od.add_argument("--ridge", type=float, default=0.0, help="ridge added to normal equations (default 0)")
    od.add_argument("--out", required=True, help="output CSV: param,estimate,std_gb1,std_gb2")
    od.add_argument("--dump-data", default=None, help="also write the (surrogate) dataset to this CSV")

    chk = sub.add_parser("check", help="fast internal consistency checks")
    chk.add_argument("--seed", type=int, default=0, help="seed for the randomised checks")
    return parser


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _study_config(args) -> StudyConfig:
    """StudyConfig from the --config file, with the flags given overriding it."""
    names = [f.name for f in dataclasses.fields(StudyConfig)]
    fields: dict = {}
    if args.config:
        with open(args.config) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ConfigError(f"config file {args.config} must hold a JSON object")
        unknown = set(raw) - set(names)
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        fields.update(raw)
    if (args.n is None) != (args.p is None):
        raise ConfigError("--n and --p must be given together")
    if args.n is not None:
        fields["sizes"] = [(args.n, args.p)]
    for name in names:
        if getattr(args, name, None) is not None:
            fields[name] = getattr(args, name)
    return StudyConfig(**fields)


def _cmd_simulate(args) -> int:
    config = _study_config(args)
    started = time.perf_counter()
    result = run_study(config)
    elapsed = time.perf_counter() - started
    failed = [c for c in result.cells if c.error is not None]
    for cell in failed:
        print(
            f"cell ({cell.family}, {cell.dist}, n={cell.n}, p={cell.p}) failed: {cell.error}",
            file=sys.stderr,
        )
    write_study_csv(result, args.out)
    if args.json_out:
        write_study_json(result, args.json_out, include_timing=args.timings)
    print(
        f"{len(result.cells) - len(failed)}/{len(result.cells)} cells in {elapsed:.1f}s "
        f"-> {args.out}",
        file=sys.stderr,
    )
    return 0 if not failed else 2


# ---------------------------------------------------------------------------
# od
# ---------------------------------------------------------------------------

def _cmd_od(args) -> int:
    if args.surrogate:
        dataset, truth = surrogate_od_dataset(
            args.days, args.slots, seed=args.seed, day_ar=args.day_ar,
            noise=args.noise, split_drift=args.split_drift, slot_spread=args.slot_spread,
        )
        print(
            f"surrogate dataset: {dataset.days} days x {dataset.slots} slots "
            f"(day_ar={args.day_ar}, noise={args.noise}, split_drift={args.split_drift})",
            file=sys.stderr,
        )
    else:
        dataset = read_od_csv(args.data)
    if args.dump_data:
        write_od_csv(dataset, args.dump_data)

    config = BootstrapConfig(replicates=args.replicates, seed=args.seed)
    theta, se1, se2 = od_standard_errors(
        dataset, args.block_len, config, degenerate=args.degenerate_corr, ridge=args.ridge,
    )
    split = SplitProportions(theta=theta)
    for origin, dest, value in split.infeasible_entries():
        print(
            f"warning: estimated p{origin}{dest} = {value:.4f} outside [0, 1]",
            file=sys.stderr,
        )
    with open(args.out, "w", newline="") as fh:
        fh.write("param,estimate,std_gb1,std_gb2\n")
        for i, name in enumerate(PARAM_NAMES):
            fh.write(f"{name},{float(theta[i])!r},{float(se1[i])!r},{float(se2[i])!r}\n")
    print(f"21 parameters -> {args.out}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def _check(label: str, ok: bool, detail: str = "") -> bool:
    tag = "ok" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{tag:4s} - {label}{suffix}")
    return ok


def _cmd_check(args) -> int:
    rng = np.random.default_rng(args.seed)
    ok = True

    # Identical rows: GB-I must return the common (exhaustive) row variance.
    base = rng.integers(0, 10, size=5).astype(float)
    values = np.tile(base[:, None], (1, 2)).reshape(-1)
    array = build_data_array(values, p=2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", FewRowsWarning)
        rows = collect_row_estimates(array, mean_estimator(), BootstrapConfig(mode="exhaustive"))
        combined = gb1_variance(rows)
    same = np.array_equal(combined.matrix, rows.variances[0]) and np.array_equal(
        rows.variances[0], rows.variances[1]
    )
    ok &= _check("identical rows: GB-I equals the common row bootstrap variance", same)

    # Self correlation matrix is the identity.
    series = rng.standard_normal(16 * 4 * 2).reshape(-1, 2) + [1.0, -2.0]
    arr2 = build_data_array(series, p=4)
    sub = subseries_estimates(arr2, componentwise_mean_estimator(2), ell=5)
    worst = max(
        float(np.abs(correlation_matrix(sub, j, j) - np.eye(2)).max()) for j in range(1, 5)
    )
    ok &= _check("self correlation matrix equals identity", worst <= 1e-8, f"max dev {worst:.2e}")

    # Slot weights sum to the identity.
    dataset, _ = surrogate_od_dataset(40, 6, seed=args.seed, noise=0.05)
    fit = ODFit(dataset)
    wdev = float(np.abs(fit.weights.sum(axis=0) - np.eye(21)).max())
    ok &= _check("slot weights sum to the identity", wdev <= 1e-8, f"max dev {wdev:.2e}")

    # Exact linearity of the mean on a dyadic-friendly array.
    ints = rng.integers(0, 10, size=(16,)).astype(float)
    arr3 = build_data_array(ints, p=4)
    resid = verify_linearity(arr3, mean_estimator())
    ok &= _check("mean linearity residual is exactly zero", resid == 0.0, f"residual {resid!r}")
    skewed = build_data_array([1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 10.0, 2.0], p=2)
    med = verify_linearity(skewed, median_estimator())
    ok &= _check("median is flagged as non-linear", med > 0.0, f"residual {med:.3f}")

    # Pooled OD estimate equals the weighted slot combination.
    recombined = np.einsum("kab,kb->a", fit.weights, fit.slot_estimates)
    lres = float(np.linalg.norm(fit.theta - recombined))
    ok &= _check("pooled OD estimate equals weighted slot combination", lres <= 1e-8, f"residual {lres:.2e}")

    # Row means are exchangeable for constant-mean families, not for periodic.
    max_z = row_mean_spread(ModelSpec("ar2", 120, 4), runs=200, seed=(args.seed, "chk"))
    ok &= _check(
        "constant-mean family has exchangeable row means", max_z <= 4.5, f"max |z| {max_z:.2f}"
    )
    return 0 if ok else 2


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "od":
            return _cmd_od(args)
        return _cmd_check(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except GapBootstrapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
