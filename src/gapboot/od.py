"""Origin-destination split estimation on daily slot records.

Traffic entering a corridor at 7 origins leaves at 7 destinations; a
trip entering at origin k can only leave at destination j >= k, and the
last origin feeds only the last destination.  The 21 free split
proportions theta = (p_11..p_16, p_22..p_26, ..., p_66) are estimated by
least squares from daily records of origin and destination counts, one
record per (day, slot) pair.  Days play the role of periods and the S
slots within a day the role of rows of a gapped array, so the gap
bootstrap machinery applies with slot-specific weight matrices
W_k = Gamma_full^{-1} Gamma_slot.

``ODFit`` is the fit of one dataset, and GB-I and GB-II are two
combinations of one fit, so ``od_standard_errors`` -- what ``gapboot od``
runs -- draws each slot's bootstrap stream once for both.  GB-II runs
``gb2``'s kernel batched over the parameters.

Every normal-equation solve (pooled, slot, weight, bootstrap, window)
is one batched ``_solve_normal_equations`` call.  O'O is S[k, k'] (1 +
[e == e']) in the 6x6 origin Gram S, so every system is solved in closed
form through S's Cholesky factor, under one rank rule.  The opt-in ridge
is added to S's diagonal, as six pseudo-records would add it, so it
keeps that form.

The slots are independent subproblems.  Their bootstraps run on up to
nproc threads, each slot resampling under its own key, so the output is
byte-identical for any number of these threads, though not of BLAS
threads: the slot bootstrap's GEMM sums in a BLAS-thread-dependent
order.  Their window solves run one slot after another on the calling
thread.  Memory grows with the data, and with B only by the (B, 42) sums
and (B, 21) estimates of the slots in flight (``_slot_bootstrap_covs``).
"""
from __future__ import annotations

import csv
import itertools
import numbers
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._rand import _WORKERS, _thread_map, derived_stream
from .core import _check_int, _check_window
from .errors import (
    BoundsError,
    ConfigError,
    ConsistencyError,
    DataError,
    DimensionError,
    InsufficientDataError,
    RankError,
)
from .gb1 import RowEstimates, gb1_variance
from .gb2 import _gb2_combine, default_block_length
from .resample import BootstrapConfig, _resamples, _spread

__all__ = [
    "DEFAULT_SPLIT_THETA",
    "ODDataset",
    "ODFit",
    "PARAM_NAMES",
    "SplitProportions",
    "od_standard_errors",
    "read_od_csv",
    "surrogate_od_dataset",
    "write_od_csv",
]

#: Condition-number ceiling of every normal-equation solve, ridged or not.
MAX_CONDITION = 1e12

#: Origin and destination (0-based) of each free parameter, in theta
#: order: parameter c is p_{k+1,e+1} for k = _ORIGIN[c], e = _DEST[c].
_ORIGIN, _DEST = np.triu_indices(6)

PARAM_NAMES = tuple(f"p{k + 1}{e + 1}" for k, e in zip(_ORIGIN, _DEST))

#: The feasible split of the surrogate generator: mass decays with
#: distance and every row leaves something for the final destination.
DEFAULT_SPLIT_THETA = (
    0.55, 0.18, 0.10, 0.07, 0.05, 0.03,
    0.50, 0.20, 0.12, 0.08, 0.06,
    0.48, 0.22, 0.14, 0.09,
    0.52, 0.24, 0.15,
    0.55, 0.28,
    0.62,
)


def _zero_sum_rows(theta: np.ndarray) -> np.ndarray:
    """Place free parameters (..., 21) in a (..., 7, 7) matrix whose rows
    sum to zero: parameter c at (_ORIGIN[c], _DEST[c]), minus each row's
    sum in the last column, and a zero last row."""
    full = np.zeros(theta.shape[:-1] + (7, 7))
    full[..., _ORIGIN, _DEST] = theta
    full[..., :6, 6] = -full[..., :6, :6].sum(axis=-1)
    return full


@dataclass(frozen=True)
class ODDataset:
    """Daily origin/destination counts, shape (days, slots, 7) each."""

    origins: np.ndarray
    destinations: np.ndarray

    def __post_init__(self):
        o = np.asarray(self.origins, dtype=np.float64)
        d = np.asarray(self.destinations, dtype=np.float64)
        if o.ndim != 3 or o.shape[2] != 7:
            raise DimensionError(f"origins must be (days, slots, 7), got shape {o.shape}")
        if d.shape != o.shape:
            raise DimensionError(
                f"destinations shape {d.shape} does not match origins shape {o.shape}"
            )
        if o.shape[0] < 2:
            raise InsufficientDataError(f"need at least 2 days, got {o.shape[0]}")
        if not (np.isfinite(o).all() and np.isfinite(d).all()):
            raise DataError("dataset contains non-finite counts")
        if (o < 0).any() or (d < 0).any():
            raise DataError("dataset contains negative counts")
        object.__setattr__(self, "origins", o)
        object.__setattr__(self, "destinations", d)

    @property
    def days(self) -> int:
        return self.origins.shape[0]

    @property
    def slots(self) -> int:
        return self.origins.shape[1]


@dataclass(frozen=True)
class SplitProportions:
    """The 21 free parameters plus derived full-matrix views."""

    theta: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.theta, dtype=np.float64)
        if t.shape != (21,):
            raise DimensionError(f"theta must have 21 entries, got shape {t.shape}")
        object.__setattr__(self, "theta", t)

    @property
    def matrix(self) -> np.ndarray:
        """Upper-triangular 7x7 split matrix implied by the 21 free parameters.

        Row k holds p_kk..p_k6 from theta, then p_k7 = 1 - their sum; row 7
        is (0, ..., 0, 1).  Rows therefore sum to one by construction.
        """
        full = _zero_sum_rows(self.theta)
        full[:, 6] += 1.0
        return full

    def infeasible_entries(self) -> list[tuple[int, int, float]]:
        """Cells of the full split matrix outside [0, 1], as (origin, destination, value)."""
        full = self.matrix
        out = []
        for i in range(7):
            for j in range(i, 7):
                v = float(full[i, j])
                if not 0.0 <= v <= 1.0:
                    out.append((i + 1, j + 1, v))
        return out


# ---------------------------------------------------------------------------
# CSV interchange
# ---------------------------------------------------------------------------

OD_CSV_COLUMNS = (
    ["day", "slot"]
    + [f"o{i}" for i in range(1, 8)]
    + [f"d{i}" for i in range(1, 8)]
)


#: One CSV record as ``np.loadtxt`` parses it.
_RECORD = np.dtype([("day", "i8"), ("slot", "i8"), ("v", "f8", (14,))])


def read_od_csv(path) -> ODDataset:
    """Load a dataset from ``day,slot,o1..o7,d1..d7`` records.

    Every (day, slot) pair must occur exactly once and the slot values
    must cover 1..S for each day; days are taken in sorted order.

    The records are parsed into one table by one ``np.loadtxt`` pass, or
    by ``_records`` when ``loadtxt`` refuses the file (a header-only file,
    ``1_000``, extra fields, a malformed record).  The table is checked
    once, in this order: empty, the first duplicate in file order, slots
    not covering 1..S, the first missing record in day-major order, the
    first non-finite count, the first negative count.  Only a failed
    check reads the file again, through ``_records``, to name a line.
    """
    with open(path, newline="") as fh:
        fieldnames = next(csv.reader(fh), None)
    if fieldnames != OD_CSV_COLUMNS:
        column, got, want = next(
            (i + 1, a, b)
            for i, (a, b) in enumerate(itertools.zip_longest(fieldnames or [], OD_CSV_COLUMNS))
            if a != b
        )
        raise DataError(
            f"bad header: expected {','.join(OD_CSV_COLUMNS)}, got {','.join(fieldnames or [])}"
            f" (field {column} is {got!r}, not {want!r})"
        )
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(
                path, dtype=_RECORD, delimiter=",", quotechar='"', comments=None,
                skiprows=1, ndmin=1,
            )
    except (ValueError, Warning):
        table = np.array([record for _, record in _records(path)], dtype=_RECORD)
    line_of = lambda i: next(itertools.islice(_records(path), i, None))[0]
    day, slot, values = table["day"], table["slot"], table["v"]
    if not day.size:
        raise DataError("empty dataset")
    days, day_index = np.unique(day, return_inverse=True)
    slots, slot_index = np.unique(slot, return_inverse=True)
    cell = day_index * slots.size + slot_index  # the record's place in the day-major grid
    cells, first = np.unique(cell, return_index=True)
    if cells.size < cell.size:
        i = int(np.setdiff1d(np.arange(cell.size), first)[0])
        raise DataError(f"duplicate record for day {day[i]}, slot {slot[i]} at line {line_of(i)}")
    if not np.array_equal(slots, np.arange(1, slots.size + 1)):
        raise DataError(f"slots must cover 1..S, got {slots.tolist()}")
    if cells.size < days.size * slots.size:
        d, s = divmod(int(np.setdiff1d(np.arange(days.size * slots.size), cells)[0]), slots.size)
        raise DataError(f"missing record for day {days[d]}, slot {s + 1}")
    for what, bad in (("non-finite", ~np.isfinite(values)), ("negative", values < 0.0)):
        if bad.any():
            raise DataError(f"{what} count at line {line_of(int(np.argmax(bad.any(axis=1))))}")
    values = values[first].reshape(days.size, slots.size, 14)  # one record per cell, in order
    return ODDataset(origins=values[..., :7], destinations=values[..., 7:])


def _records(path):
    """Yield ``(line, record)`` for each non-blank row after the header of
    an OD CSV, ``line`` being the physical line the row ends on and
    ``record`` a ``_RECORD`` scalar; fields after the sixteenth are ignored."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        for row in filter(None, reader):  # a blank line is an empty row
            row += [None] * (16 - len(row))
            try:
                day, slot = int(row[0]), int(row[1])
                record = np.array((day, slot, [float(v) for v in row[2:16]]), dtype=_RECORD)
            except (TypeError, ValueError, OverflowError) as exc:
                raise DataError(f"unparseable record at line {reader.line_num}: {exc}") from exc
            yield reader.line_num, record


def write_od_csv(dataset: ODDataset, path) -> None:
    """Write ``read_od_csv``'s format, days and slots numbered from 1 and
    every count as its shortest round-trip ``repr``."""
    values = np.concatenate([dataset.origins, dataset.destinations], axis=-1).tolist()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(OD_CSV_COLUMNS)
        writer.writerows(
            [di + 1, si + 1, *record]
            for di, day in enumerate(values)
            for si, record in enumerate(day)
        )


# ---------------------------------------------------------------------------
# Normal equations from origin products
# ---------------------------------------------------------------------------

#: _PAIR_OF[a, b] is the index of o_a o_b (either order) among a record's
#: 21 origin products, which are ordered as theta: o_a o_b for a <= b is
#: product c with (a, b) = (_ORIGIN[c], _DEST[c]).  products[..., _PAIR_OF]
#: is the 6x6 origin Gram S = sum o o' over origins 1..6.
_PAIR_OF = np.empty((6, 6), dtype=np.intp)
_PAIR_OF[_ORIGIN, _DEST] = _PAIR_OF[_DEST, _ORIGIN] = np.arange(21)


def _gram(products: np.ndarray) -> np.ndarray:
    """O'O matrices, shape (..., 21, 21), from origin products (..., 21).

    Column c of O is o_k on row e and -o_k on the last row, for
    (k, e) = (_ORIGIN[c], _DEST[c]), so (O'O)[c, c'] = S[k, k'] (1 + [e == e']).
    Each entry is one product times 1 or 2, both exact, so a sum of
    records' products expands to the sum of their O'O matrices bit for
    bit when the records are added in the same order.
    """
    return products[..., _PAIR_OF[_ORIGIN[:, None], _ORIGIN]] * (1.0 + (_DEST[:, None] == _DEST))


def _statistics(dataset: ODDataset) -> np.ndarray:
    """Per-record normal-equation pieces, shape (D, S, 42): the 21 origin
    products o_a o_b (a <= b) that make up O'O (see ``_gram``), then the
    21 entries of h = O'D'.

    Column c of O is o_k on row e and -o_k on the last row, for origin
    k = _ORIGIN[c] and destination e = _DEST[c], so
    h[c] = o_k d_e - o_k (d_7 - sum(o)) is formed directly, the two
    products in the order O'D' adds them.  Both halves are written in
    place into one C-contiguous array, whose sums over days (and slots)
    add each column in the same order as sums of separate C-contiguous
    halves would.
    """
    o = dataset.origins
    d = dataset.destinations
    stats = np.empty(o.shape[:2] + (42,))
    products, h = stats[..., :21], stats[..., 21:]
    ok = o[..., _ORIGIN]
    np.multiply(ok, o[..., _DEST], out=products)
    np.multiply(ok, d[..., _DEST], out=h)
    ok *= (d[..., 6] - o.sum(axis=-1))[..., None]
    h -= ok
    return stats


# ---------------------------------------------------------------------------
# Solves, the bootstrap within slots and sliding windows
# ---------------------------------------------------------------------------

#: Systems per batch of normal-equation solves (a batch's working arrays
#: take about 0.5 MiB).
_GRAM_BATCH = 500

#: A slot bootstrap chunk's day indices take about this many bytes (113
#: replicates at D = 575), on any number of CPUs; see ``_slot_bootstrap_covs``.
_SLOT_CHUNK_BYTES = 1 << 19


def _solve_normal_equations(
    products: np.ndarray, rhs: np.ndarray, ridge: float, label
) -> np.ndarray:
    """Solve the ridged normal equations of n summed records at once:
    origin products (n, 21) and right-hand sides h (n, 21) give solutions
    (n, 21), ``_GRAM_BATCH`` systems at a time.

    The ridge is added to the diagonal of each system's 6x6 origin Gram
    (see ``_gram``), as six pseudo-records, origin k sending sqrt(ridge)
    to destination 7, would add it: ridge on S[k, k], nothing on O'D'.
    With that S = L L' and theta and h placed in upper-triangular 6x6
    matrices X and R (entry (k, e) = (_ORIGIN[c], _DEST[c]) for parameter
    c), the normal equations read triu(S (X + u 1')) = R for the row sums
    u of X, so with W = L^{-1} R and s_t the sum of row t of W,

        X = L'^{-1} triu(W - q 1'),  q_t = s_t / (7 - t)  (t = 0..5).

    S is singular exactly when O'O is.  One rank rule holds with or
    without a ridge: a system whose Cholesky pivot j is at most
    S[j, j] / MAX_CONDITION, which makes cond(S) at least MAX_CONDITION,
    is singular.  RankError names the lowest such system, as ``label(i)``
    of its index i, and its first such pivot.  Every step is an
    elementwise multiply-add in a fixed order, so each solution's bits do
    not depend on n or the batch.
    """
    out = np.empty(rhs.shape)
    for lo in range(0, len(rhs), _GRAM_BATCH):
        batch = slice(lo, lo + _GRAM_BATCH)
        s = products[batch].T[_PAIR_OF]  # (6, 6, n)
        low = np.zeros_like(s)
        x = np.zeros_like(s)
        x[_ORIGIN, _DEST] = rhs[batch].T
        weak = np.zeros((6, s.shape[2]), dtype=bool)
        for j in range(6):  # Cholesky factor of S + ridge I, column by column
            s[j, j] += ridge
            pivot = s[j, j].copy()
            col = s[j + 1 :, j].copy()
            for i in range(j):
                pivot -= low[j, i] * low[j, i]
                col -= low[j + 1 :, i] * low[j, i]
            weak[j] = pivot <= s[j, j] / MAX_CONDITION
            low[j, j] = np.sqrt(np.where(weak[j], 1.0, pivot))  # weak systems are raised below
            low[j + 1 :, j] = col / low[j, j]
        if weak.any():
            i = int(np.argmax(weak.any(axis=0)))
            raise RankError(
                f"singular {label(lo + i)}: origin Gram pivot {int(np.argmax(weak[:, i])) + 1} "
                f"is at most 1/{MAX_CONDITION:.0e} of its diagonal"
            )
        for t in range(6):  # W = L^{-1} R, upper triangle only
            for j in range(t):
                x[t, t:] -= low[t, j] * x[j, t:]
            x[t, t:] /= low[t, t]
        for t in range(6):
            total = x[t, t].copy()
            for e in range(t + 1, 6):
                total += x[t, e]
            x[t, t:] -= total / (7 - t)
        for t in range(5, -1, -1):  # X = L'^{-1} Z
            for j in range(t + 1, 6):
                x[t, j:] -= low[j, t] * x[j, j:]
            x[t, t:] /= low[t, t]
        out[batch] = x[_ORIGIN, _DEST].T
    return out


def _slot_bootstrap_covs(stats: np.ndarray, config: BootstrapConfig, ridge: float) -> np.ndarray:
    """Pairs-bootstrap covariance of each slot estimate, shape (S, 21, 21).

    Within slot k whole day-records are resampled with replacement;
    replicate b re-solves the normal equations built from its day
    multiplicities.  The slots run on ``_WORKERS`` threads, slot k taking
    its day indices from ``resample._resamples`` under the key ("slot",
    k + 1).  A chunk's day multiplicities, from one ``bincount``, go
    through one GEMM against the slot's (D, 42) view of ``stats`` into
    (B, 42) replicate sums, whose B systems are solved in one
    ``_solve_normal_equations`` call.  Without a ridge, a replicate that
    draws fewer than 6 distinct days has a singular origin Gram and
    raises RankError naming the slot.

    Chunks take ``_SLOT_CHUNK_BYTES`` of day indices whatever
    ``_WORKERS`` is, and whatever budgets the row bootstraps use: a GEMM
    row's bits depend on the GEMM's row count (OpenBLAS, for one,
    switches to a small-matrix kernel at about 10**6 multiply-adds), so
    chunks that followed the thread count or the rows' budget would make
    the output follow it too.  A slot thread thus holds one chunk, not a
    (B, D) table, and its memory grows with B only by the (B, 42) sums
    and (B, 21) estimates.
    """
    days, slots = stats.shape[:2]
    reps = config.replicates
    covs = np.empty((slots, 21, 21))

    def bootstrap(k: int) -> None:
        sums = np.empty((reps, 42))
        for lo, hi, idx in _resamples(days, config, ("slot", k + 1), 8 * days, _SLOT_CHUNK_BYTES):
            idx += np.arange(hi - lo)[:, None] * days
            counts = np.bincount(idx.ravel(), minlength=idx.size).reshape(idx.shape)
            np.matmul(counts.astype(np.float64), stats[:, k], out=sums[lo:hi])
        thetas = _solve_normal_equations(
            sums[:, :21], sums[:, 21:], ridge, lambda _: f"bootstrap normal equations in slot {k + 1}"
        )
        covs[k] = _spread(thetas)

    _thread_map(bootstrap, slots, _WORKERS)
    return covs


def _window_sums(x: np.ndarray, ell: int) -> np.ndarray:
    """Sums of ``x`` over every run of ell consecutive days (axis 0)."""
    total = np.cumsum(x, axis=0)
    out = total[ell - 1 :].copy()
    out[1:] -= total[: x.shape[0] - ell]
    return out


def _window_projections(
    stats: np.ndarray, theta: np.ndarray, weights: np.ndarray, ell: int, ridge: float
) -> np.ndarray:
    """GB-II window projections w_ak' (window_k - theta), shape (21, I, S),
    for the slot estimates window_k on sliding windows of ell whole days
    and the rows w_ak of the slot weights W_k.

    The slots run in turn on the calling thread, so a failing slot raises
    before any later one is solved: one cumsum over a slot's 42 columns of
    ``stats`` gives its window sums, and its (I, 21) window estimates are
    solved, centred and projected before the next slot's, so no (S, I, 21)
    array of estimates is formed.  The result is a transposed view of the
    (S, I, 21) array the slots fill: the values and memory layout that
    one einsum over every slot's estimates gives.
    """
    days, slots = stats.shape[:2]
    out = np.empty((slots, days - ell + 1, 21))
    for k in range(slots):
        sums = _window_sums(stats[:, k], ell)
        estimates = _solve_normal_equations(
            sums[:, :21], sums[:, 21:], ridge,
            lambda _: f"window normal equations in slot {k + 1}",
        )
        estimates -= theta
        np.einsum("ab,ib->ia", weights[k], estimates, out=out[k])
    return out.transpose(2, 1, 0)


def _check_nonnegative(name: str, value: float) -> float:
    """``value`` as a float, if a real number (a bool or a string is not),
    finite and >= 0; ConfigError names ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a real number, got {value!r}")
    value = float(value)
    if not (np.isfinite(value) and value >= 0.0):
        raise ConfigError(f"{name} must be finite and >= 0, got {value}")
    return value


# ---------------------------------------------------------------------------
# The fit and its two gap bootstrap combinations
# ---------------------------------------------------------------------------

class ODFit:
    """Least-squares fit of one dataset, shared by every estimate made from it.

    Construction computes the per-record normal equations once, as one
    (D, S, 42) array of each record's 21 origin products (its O'O, see
    ``_gram``) and 21 entries of O'D', and takes their pooled sums and
    their per-slot sums in one pass each.  The pooled and per-slot
    estimates, the slot weights W_k and the slot bootstrap covariances,
    each from batched ``_solve_normal_equations`` calls, are computed on
    first use and kept, so least squares alone never pays for the
    bootstrap, and GB-I and GB-II on one fit share one slot bootstrap.

    ``config`` sets the slot bootstrap's replicates and seed; its mode
    must be "monte_carlo" (ConfigError otherwise).  ``ridge``,
    for nearly collinear volumes, zero-volume slots and windows under 6
    days, is added to the diagonal of every system's 6x6 origin Gram S
    (see ``_solve_normal_equations``); it must be a real number, finite
    and >= 0.  A ridge below about S[j, j] / MAX_CONDITION leaves a
    singular system singular.  When positive, the weights' sum-to-identity
    check is skipped (the ridge perturbs it by design).
    """

    def __init__(
        self,
        dataset: ODDataset,
        config: BootstrapConfig = BootstrapConfig(),
        *,
        ridge: float = 0.0,
    ):
        self.dataset = dataset
        self.config = config
        self.ridge = _check_nonnegative("ridge", ridge)
        if config.mode != "monte_carlo":
            raise ConfigError(f"the slot bootstrap draws its resamples; mode {config.mode!r} is not supported")
        self._stats = _statistics(dataset)
        self._pooled = self._stats.sum(axis=(0, 1))
        self._slot_sums = self._stats.sum(axis=0)

    @cached_property
    def theta(self) -> np.ndarray:
        """Pooled estimate from every record, shape (21,)."""
        return _solve_normal_equations(
            self._pooled[None, :21], self._pooled[None, 21:], self.ridge,
            lambda _: "normal equations for all slots",
        )[0]

    @cached_property
    def slot_estimates(self) -> np.ndarray:
        """Every slot's estimate, shape (S, 21)."""
        return _solve_normal_equations(
            self._slot_sums[:, :21], self._slot_sums[:, 21:], self.ridge,
            lambda k: f"normal equations for slot {k + 1}",
        )

    @cached_property
    def weights(self) -> np.ndarray:
        """Slot weights W_k = Gamma_full^{-1} Gamma_k, shape (S, 21, 21):
        the 21 S columns of the Gamma_k solved as one batch against
        Gamma_full (its origin Gram ridged).

        Without a ridge, checks that the weights sum to the identity to
        within 1e-8, which an ill-conditioned pooled Gram can break.
        """
        columns = _gram(self._slot_sums[:, :21]).swapaxes(1, 2).reshape(-1, 21)
        weights = _solve_normal_equations(
            np.broadcast_to(self._pooled[:21], columns.shape), columns, self.ridge,
            lambda _: "normal equations for all slots",
        ).reshape(-1, 21, 21).swapaxes(1, 2)
        if not self.ridge and float(np.abs(weights.sum(axis=0) - np.eye(21)).max()) > 1e-8:
            raise ConsistencyError("slot weights do not sum to the identity")
        return weights

    @cached_property
    def slot_covariances(self) -> np.ndarray:
        """Pairs-bootstrap covariance of each slot estimate, shape (S, 21, 21)."""
        return _slot_bootstrap_covs(self._stats, self.config, self.ridge)

    def gb1_standard_errors(self) -> np.ndarray:
        """Gap bootstrap I standard errors from the per-slot split estimates.

        Treats the S slot estimates as exchangeable rows: the variance of
        the pooled estimate is the mean of the per-slot pairs-bootstrap
        covariances minus the between-slot covariance of the S slot
        estimates (``gb1_variance``).  Shares the slot bootstrap with the
        GB-II path, so both report consistent slot scales.
        """
        rows = RowEstimates(estimates=self.slot_estimates, variances=self.slot_covariances)
        return gb1_variance(rows).standard_errors

    def gb2_standard_errors(self, ell: int | None = None, degenerate: str = "error") -> np.ndarray:
        """Gap bootstrap II standard errors of the 21 pooled split estimates.

        Combines, for each parameter a, the slot-level bootstrap scales
        sigma_ak = sqrt(w_ak' Cov_k w_ak) (w_ak the a-th row of the slot
        weight W_k) through the correlation of the slot window-estimate
        projections, centred at the full-data estimate:

            Var(theta_n[a]) = sum_{k,l} sigma_ak sigma_al rho_a(k, l).

        This scalar form is the r = 1 case of ``gb2_variance``'s matrix form
        A_j^{-1/2} C_jk A_k^{-1/2}, computed by the same kernel with the 21
        parameters as a batch axis and unit slot weights (W_k enters through
        the projections).  A projection mixes all 21 parameters, so its
        round-off scales with ||theta|| ||w_ak||, the kernel's centre: slot
        k is degenerate for parameter a when the projections' RMS is at
        most DEGENERATE_RTOL times that product.  ``degenerate``, ``"error"``
        or ``"zero"``, is the policy for such slots.  ``ell`` is the window
        length in days (default ``default_block_length(days)``).  A slot
        whose normal equations are rank deficient raises RankError naming
        it, as GB-I does.  Returns the standard errors ordered as
        PARAM_NAMES, shape (21,).
        """
        days, slots = self.dataset.days, self.dataset.slots
        if degenerate not in ("error", "zero"):
            raise ConfigError(f"degenerate policy must be 'error' or 'zero', got {degenerate!r}")
        if ell is None and days < 8:
            raise InsufficientDataError(
                f"need at least 8 days for an automatic window length, got {days}; give a window length"
            )
        ell = _check_window(default_block_length(days) if ell is None else ell, days)
        if ell < 6 and not self.ridge:
            # a window under 6 days has a singular origin Gram
            raise BoundsError(f"window length {ell} is below 6, the minimum without a ridge")
        theta = self.theta
        weights = self.weights
        # kernel rows of size r = 1, batched over parameters a: projections
        # w_ak' (window_k - theta), (21, I, S, 1); variances w_ak' Cov_k w_ak;
        # centres ||theta|| ||w_ak||, (21, S, 1)
        proj = _window_projections(self._stats, theta, weights, ell, self.ridge)[..., None]
        quad = np.einsum("kab,kbc,kac->ak", weights, self.slot_covariances, weights)
        centre = np.sqrt(theta @ theta * np.einsum("kab,kab->ak", weights, weights))[..., None]
        var = _gb2_combine(
            quad[..., None, None], proj, np.ones(slots), centre, degenerate,
            lambda a, k: f"parameter {PARAM_NAMES[a]} in slot {k + 1}",
        )[:, 0, 0]
        return np.sqrt(np.clip(var, 0.0, None))


def od_standard_errors(
    dataset: ODDataset,
    ell: int | None = None,
    config: BootstrapConfig = BootstrapConfig(),
    *,
    degenerate: str = "error",
    ridge: float = 0.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pooled split estimate with its GB-I and GB-II standard errors.

    Returns ``(theta, se_gb1, se_gb2)``, each of shape (21,) and ordered as
    PARAM_NAMES, from one ``ODFit``: the statistics are computed and the
    slot bootstrap is run once for both standard errors.  A dataset of
    fewer than 2 slots, which GB-I cannot combine, is refused first.
    GB-II runs next: it checks the window length and the degeneracy
    policy, and solves the windows, before it reads the slot covariances,
    so a bad option or a window the ridge leaves singular raises before
    any slot bootstrap is drawn.  ``config`` and ``ridge`` are as for
    ``ODFit``; ``ell``, ``degenerate`` and the per-parameter scalar form
    of GB-II are described at ``ODFit.gb2_standard_errors``.
    """
    fit = ODFit(dataset, config, ridge=ridge)
    if dataset.slots < 2:
        raise InsufficientDataError(f"gap bootstrap I needs at least 2 slots, got {dataset.slots}")
    se2 = fit.gb2_standard_errors(ell, degenerate)
    return fit.theta, fit.gb1_standard_errors(), se2


# ---------------------------------------------------------------------------
# Surrogate generator
# ---------------------------------------------------------------------------

def _ar1_path(rng, days: int, shape: tuple, sd: float, phi: float) -> np.ndarray:
    """Stationary AR(1) sample path over days, i.i.d. across ``shape``."""
    path = np.empty((days,) + shape)
    path[0] = rng.normal(0.0, sd, size=shape)
    innov = sd * np.sqrt(1.0 - phi * phi)
    for t in range(1, days):
        path[t] = phi * path[t - 1] + rng.normal(0.0, innov, size=shape)
    return path


def surrogate_od_dataset(
    days: int,
    slots: int = 36,
    *,
    seed: int = 0,
    day_ar: float = 0.0,
    noise: float = 0.05,
    split_drift: float = 0.0,
    slot_spread: float = 0.35,
) -> tuple[ODDataset, SplitProportions]:
    """Generate a synthetic corridor dataset split by DEFAULT_SPLIT_THETA.

    Origin volumes are 60 times a lognormal: a fixed per-origin level and
    a per-(slot, origin) profile with log-scale ``slot_spread``, both from
    one fixed stream so every ``seed`` gives the same corridor; an AR(1)
    day effect with coefficient ``day_ar`` and standard deviation 0.15
    shared by all slots of a day; and log-scale jitter 0.1 per record.
    ``slot_spread=0`` makes the slots statistically interchangeable.

    Destination counts are ``origins @ P`` plus mean-zero noise with two
    parts.  The first is i.i.d. N(0, (noise * 60)^2) per count.  The
    second, scaled by ``split_drift``, perturbs the day's effective split
    pattern: destinations gain ``origins @ dP_d``, where dP_d spreads an
    AR(1) path (coefficient ``day_ar``, per-entry standard deviation
    ``split_drift``) over the 21 free proportions, the last column
    absorbing the row sums.  By linearity of the design this is a
    mean-zero shift of the fitted coefficients shared by all slots of the
    day, so with ``day_ar > 0`` the slot estimates are serially dependent
    in a way i.i.d. within-slot resampling cannot see, while
    ``E[destinations]`` still follows DEFAULT_SPLIT_THETA.  Counts are
    truncated at zero; with ``noise = split_drift = 0`` the split model
    holds exactly and least squares recovers theta to solver precision.

    Returns the dataset together with the generating SplitProportions.
    """
    if _check_int(days, "days") < 2:
        raise InsufficientDataError(f"need at least 2 days, got {days}")
    if _check_int(slots, "slots") < 1:
        raise ConfigError(f"need at least 1 slot, got {slots}")
    for name, value in (
        ("day_ar", day_ar), ("noise", noise), ("split_drift", split_drift), ("slot_spread", slot_spread)
    ):
        _check_nonnegative(name, value)
    if day_ar >= 1.0:
        raise ConfigError(f"day_ar must lie in [0, 1), got {day_ar}")
    truth = SplitProportions(DEFAULT_SPLIT_THETA)

    design_rng = derived_stream(0, "od-profile")
    level = design_rng.normal(0.0, 0.35, size=7)
    scale = design_rng.normal(0.0, slot_spread, size=slots)
    profile = np.exp(level[None, :] + scale[:, None])

    rng = derived_stream(seed, "od-surrogate")
    delta = _ar1_path(rng, days, (7,), 0.15, day_ar)
    wobble = rng.normal(0.0, 0.1, size=(days, slots, 7))
    origins = 60.0 * profile[None, :, :] * np.exp(delta[:, None, :] + wobble)
    destinations = np.einsum("dsk,kj->dsj", origins, truth.matrix)
    if split_drift > 0.0:
        dp = _zero_sum_rows(_ar1_path(rng, days, (21,), split_drift, day_ar))
        exposure = np.exp(scale)
        exposure = exposure / exposure.mean()
        drifted = np.einsum("dsk,dkj->dsj", origins, dp)
        destinations = destinations + exposure[None, :, None] * drifted
    if noise > 0.0:
        destinations = destinations + rng.normal(0.0, noise * 60.0, size=(days, slots, 7))
    if noise > 0.0 or split_drift > 0.0:
        destinations = np.clip(destinations, 0.0, None)
    return ODDataset(origins=origins, destinations=destinations), truth
