"""Correctness gate for the output files of one benchmark operation.

Every output is checked for its invariants: the schema, finite values,
non-negative standard errors, and for ``od`` estimates near the split
that generated the corridor.  For seeds recorded in ``reference.json``
every value must also match the recorded one within ``REL_TOL``
relative to the value (see ``compare`` for values near zero).  That
admits floating-point sums taken in another order and rejects any change
of method, stream or input.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os

REL_TOL = 1e-6
SCALE_FLOOR = 1e-3

#: An ``od`` estimate further than this many standard errors (the larger
#: of GB-I and GB-II) from the generating split fails the gate.
OD_Z_LIMIT = 10.0

OD_HEADER = ["param", "estimate", "std_gb1", "std_gb2"]
OD_PARAMS = [f"p{k}{j}" for k in range(1, 7) for j in range(k, 7)]
STUDY_HEADER = ["model", "dist", "n", "p", "method", "true_se", "bias", "mse", "runs"]

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_reference(path: str = REFERENCE_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _rows(text: str, header: list[str]) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != header:
        raise ValueError(f"header {rows[0] if rows else None} != {header}")
    return rows[1:]


def _number(field: str) -> float:
    value = float(field)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {field!r}")
    return value


def od_values(text: str, truth: list[float] | None = None) -> list[list[float]]:
    """Parse and check an ``od`` output; returns [estimate, std_gb1, std_gb2] rows."""
    rows = _rows(text, OD_HEADER)
    if [r[0] for r in rows] != OD_PARAMS:
        raise ValueError(f"parameters {[r[0] for r in rows]} != {OD_PARAMS}")
    values = [[_number(f) for f in r[1:]] for r in rows]
    for name, (estimate, se1, se2) in zip(OD_PARAMS, values):
        if se1 < 0.0 or se2 < 0.0:
            raise ValueError(f"{name}: negative standard error ({se1}, {se2})")
    if truth is not None:
        for name, (estimate, se1, se2), true in zip(OD_PARAMS, values, truth):
            if abs(estimate - true) > OD_Z_LIMIT * max(se1, se2):
                raise ValueError(
                    f"{name}: estimate {estimate} is more than {OD_Z_LIMIT} standard "
                    f"errors ({max(se1, se2)}) from the generating value {true}"
                )
    return values


def study_values(text: str, config: dict) -> list[list[float]]:
    """Parse and check a ``simulate`` output; returns [true_se, bias, mse] rows."""
    rows = _rows(text, STUDY_HEADER)
    expected = [
        [model, dist, str(n), str(p), method]
        for model in config["models"] for dist in config["dists"]
        for n, p in config["sizes"] for method in config["methods"]
    ]
    if [r[:5] for r in rows] != expected:
        raise ValueError(f"cells {[r[:5] for r in rows]} != {expected}")
    values = []
    for r in rows:
        true_se, bias, mse = (_number(f) for f in r[5:8])
        if int(r[8]) != config["runs"]:
            raise ValueError(f"{r[:5]}: runs {r[8]} != {config['runs']}")
        if true_se <= 0.0:
            raise ValueError(f"{r[:5]}: true_se {true_se} <= 0")
        # standard-error estimates are >= 0, so their mean is >= 0
        if bias < -true_se * (1.0 + REL_TOL):
            raise ValueError(f"{r[:5]}: bias {bias} below -true_se {-true_se}")
        # mean squared error >= squared mean error
        if mse < bias * bias * (1.0 - REL_TOL):
            raise ValueError(f"{r[:5]}: mse {mse} below bias**2 {bias * bias}")
        values.append([true_se, bias, mse])
    return values


def _scales(kind: str, values: list[list[float]]) -> list[list[float]]:
    """Natural magnitude of each value: its column's largest (od), or the
    cell's true SE for true_se and bias and its square for mse (study)."""
    if kind == "od":
        columns = [max(abs(row[c]) for row in values) for c in range(3)]
        return [columns for _ in values]
    return [[row[0], row[0], row[0] ** 2] for row in values]


def compare(kind: str, values: list[list[float]], reference: list[list[float]]) -> None:
    """Raise ValueError unless ``values`` match ``reference`` within REL_TOL
    of the reference value, or of SCALE_FLOOR times its natural magnitude
    for values close to zero."""
    if len(values) != len(reference):
        raise ValueError(f"{len(values)} rows, reference has {len(reference)}")
    scales = _scales(kind, reference)
    for i, (row, ref, scale) in enumerate(zip(values, reference, scales)):
        for c, (got, want, s) in enumerate(zip(row, ref, scale)):
            if abs(got - want) > REL_TOL * max(abs(want), SCALE_FLOOR * s):
                raise ValueError(f"row {i + 1} value {c + 1}: {got!r} != reference {want!r}")


def check_output(workload: str, text: str, context, reference: dict | None) -> list[list[float]]:
    """Check one operation's output and return its parsed values.

    ``context`` is the generating split (``od-corridor``) or the study
    config (``study-*``).  ``reference`` is the recorded entry for this
    workload and seed, or None.  Raises ValueError on the first problem.
    """
    kind = "od" if workload == "od-corridor" else "study"
    values = od_values(text, context) if kind == "od" else study_values(text, context)
    if reference is not None:
        compare(kind, values, reference["values"])
    return values
