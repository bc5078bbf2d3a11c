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

``ODFit`` is the fit of one dataset.  It computes each record's normal
equations once, storing O'O as the 21 origin products its entries are
made of, and keeps the pooled and per-slot estimates, the weights W_k
and the per-slot pairs-bootstrap covariances, each computed on first
use.  GB-I and GB-II are two combinations of one fit, so
``od_standard_errors`` -- what ``gapboot od`` runs -- draws each slot's
bootstrap stream once for both; least squares alone never runs the
bootstrap.  GB-II runs ``gb2``'s kernel batched over the parameters.

The slots are independent subproblems: each slot's bootstrap and window
solves run on one of up to nproc threads, each slot draws from its own
keyed stream, and each writes only its own results, so the output is
byte-identical for any thread count.
"""
from __future__ import annotations

import csv
import itertools
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._rand import _WORKERS, _thread_map, derived_stream
from .core import _check_degenerate_policy, _check_window
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
from .resample import BootstrapConfig

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

#: Condition-number ceiling for the normal-equation solves.
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


#: _BASIS[k] is d(O)/d(o_{k+1}), shape (7, 21), for origins 1..6.
_BASIS = _zero_sum_rows(np.eye(21))[:, :6].transpose(1, 2, 0)


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
        raise DataError(
            f"bad header: expected {','.join(OD_CSV_COLUMNS)}, got {','.join(fieldnames or [])}"
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

def _gram_terms() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """How each entry of a record's O'O follows from its origin counts.

    O = sum_a o_a B_a, so (O'O)[j, k] = sum_{a,b} o_a o_b (B_a' B_b)[j, k].
    Only the pair of blocks holding columns j and k contributes, with
    coefficient 1 (the last row) or 2 (the last row plus a shared row).
    Returns the 21 origin pairs (a, b), a <= b, as two index arrays, then
    the pair and the coefficient of each entry, both shape (21, 21).
    """
    rows, cols = np.triu_indices(21)
    terms = np.einsum("aij,bik->jkab", _BASIS, _BASIS)[rows, cols]  # (231, 6, 6)
    entry, a, b = np.nonzero(terms)
    assert np.array_equal(entry, np.arange(rows.size)), "one origin pair per entry"
    pairs, pair_of = np.unique(a * 6 + b, return_inverse=True)
    unpack = np.empty((21, 21), dtype=np.intp)
    unpack[rows, cols] = unpack[cols, rows] = entry
    return pairs // 6, pairs % 6, pair_of[unpack], terms[entry, a, b][unpack]


_PAIR_A, _PAIR_B, _GRAM_PAIR, _GRAM_COEF = _gram_terms()


def _gram(products: np.ndarray) -> np.ndarray:
    """O'O matrices, shape (..., 21, 21), from origin products (..., 21).

    Each entry is one product times 1 or 2, both exact, so a sum of
    records' products expands to the sum of their O'O matrices bit for
    bit when the records are added in the same order.
    """
    return np.take(products, _GRAM_PAIR, axis=-1) * _GRAM_COEF


def _statistics(dataset: ODDataset) -> tuple[np.ndarray, np.ndarray]:
    """Per-record normal-equation pieces: the 21 origin products o_a o_b
    (a <= b) that make up O'O (see ``_gram``), shape (D, S, 21), and
    h = O'D', shape (D, S, 21).

    Column c of O is o_k on row e and -o_k on the last row, for origin
    k = _ORIGIN[c] and destination e = _DEST[c], so
    h[c] = o_k d_e - o_k (d_7 - sum(o)) is formed directly, the two
    products in the order O'D' adds them, and C-contiguous, so that the
    pooled and per-slot sums of h add its entries in the same order.
    """
    o = dataset.origins
    d = dataset.destinations
    ok = np.take(o, _ORIGIN, axis=-1)
    h = ok * np.take(d, _DEST, axis=-1) - ok * (d[..., 6] - o.sum(axis=-1))[..., None]
    return np.take(o, _PAIR_A, axis=-1) * np.take(o, _PAIR_B, axis=-1), h


# ---------------------------------------------------------------------------
# Least squares
# ---------------------------------------------------------------------------

def _check_condition(gamma: np.ndarray, what: str) -> None:
    eig = np.linalg.eigvalsh(0.5 * (gamma + gamma.T))
    if eig[0] <= 0.0 or eig[-1] / eig[0] > MAX_CONDITION:
        cond = np.inf if eig[0] <= 0.0 else eig[-1] / eig[0]
        raise RankError(f"normal equations for {what} are rank deficient (condition {cond:.2e})")


def _solve(gamma: np.ndarray, rhs: np.ndarray, what: str, ridge: float = 0.0) -> np.ndarray:
    from scipy.linalg import cho_factor, cho_solve

    g = gamma + ridge * np.eye(gamma.shape[0]) if ridge else gamma
    _check_condition(g, what)
    try:
        return cho_solve(cho_factor(g), rhs)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - guarded by cond check
        raise RankError(f"normal equations for {what} could not be factorised: {exc}") from exc


# ---------------------------------------------------------------------------
# Bootstrap within slots and sliding windows
# ---------------------------------------------------------------------------

#: Replicates per chunk of index draws, and replicates or windows per
#: batch of 21x21 solves: a batch's O'O matrices take about 350 KiB.
_BATCH = 100


def _solve_normal_equations(
    products: np.ndarray, rhs: np.ndarray, ridge: float, what: str
) -> np.ndarray:
    """Solutions of the normal equations given by summed origin products
    (n, 21) and right-hand sides (n, 21), shape (n, 21).

    The O'O matrices are expanded and solved ``_BATCH`` at a time; each
    21x21 solve is the same LAPACK call whatever batch it is in.
    """
    out = np.empty(rhs.shape)
    for lo in range(0, len(rhs), _BATCH):
        gram = _gram(products[lo : lo + _BATCH])
        if ridge:
            gram += ridge * np.eye(21)
        try:
            out[lo : lo + _BATCH] = np.linalg.solve(gram, rhs[lo : lo + _BATCH, :, None])[..., 0]
        except np.linalg.LinAlgError as exc:
            raise RankError(f"singular {what}: {exc}") from exc
    return out


def _slot_bootstrap_covs(
    products: np.ndarray, h: np.ndarray, config: BootstrapConfig, ridge: float
) -> np.ndarray:
    """Pairs-bootstrap covariance of each slot estimate, shape (S, 21, 21).

    Within slot k whole day-records are resampled with replacement;
    replicate b re-solves the normal equations built from its day
    multiplicities.  Streams are keyed by slot, so slot draws are
    independent of each other and of the slot count.  The replicates'
    sums are formed on the 21 origin products and expanded to O'O only
    for the solves.

    Every stream is derived here, in slot order, before the slots run on
    ``_WORKERS`` threads.  Each slot draws its indices ``_BATCH``
    replicates at a time into one (B, D) table of day multiplicities;
    consecutive draws from a stream concatenate, so the table is the
    one-draw table.  The GEMM ``counts @ products`` stays whole: BLAS
    picks its kernel, and with it the order of each day sum, by the
    matrix shape, so splitting the GEMM by replicates changes the bits.
    """
    days, slots = products.shape[0], products.shape[1]
    reps = config.replicates
    streams = [derived_stream(config.seed, "slot", k + 1) for k in range(slots)]
    covs = np.empty((slots, 21, 21))

    def bootstrap(k: int) -> None:
        counts = np.empty((reps, days))
        for lo in range(0, reps, _BATCH):
            n = min(_BATCH, reps - lo)
            idx = streams[k].integers(0, days, size=(n, days), dtype=np.int64)
            idx += np.arange(n)[:, None] * days
            counts[lo : lo + n] = np.bincount(idx.ravel(), minlength=n * days).reshape(n, days)
        thetas = _solve_normal_equations(
            counts @ products[:, k], counts @ h[:, k], ridge,
            f"bootstrap normal equations in slot {k + 1}",
        )
        dev = thetas - thetas.mean(axis=0)
        covs[k] = dev.T @ dev / reps

    _thread_map(bootstrap, slots, _WORKERS)
    return covs


def _window_sums(x: np.ndarray, ell: int) -> np.ndarray:
    """Sums of ``x`` over every run of ell consecutive days (axis 0)."""
    total = np.cumsum(x, axis=0)
    out = total[ell - 1 :].copy()
    out[1:] -= total[: x.shape[0] - ell]
    return out


def _window_estimates(
    products: np.ndarray, h: np.ndarray, ell: int, ridge: float
) -> np.ndarray:
    """Slot estimates on sliding windows of ell whole days, shape (S, I, 21),
    each slot on one of ``_WORKERS`` threads."""
    days, slots = products.shape[0], products.shape[1]
    out = np.empty((slots, days - ell + 1, 21))

    def windows(k: int) -> None:
        out[k] = _solve_normal_equations(
            _window_sums(products[:, k], ell), _window_sums(h[:, k], ell), ridge,
            f"window normal equations in slot {k + 1}",
        )

    _thread_map(windows, slots, _WORKERS)
    return out


def _check_gb2_options(ell: int | None, days: int, degenerate: str) -> int:
    """Check the GB-II degeneracy policy and window length; returns the
    length (default ``default_block_length(days)``)."""
    _check_degenerate_policy(degenerate)
    return _check_window(default_block_length(days) if ell is None else ell, days)


# ---------------------------------------------------------------------------
# The fit and its two gap bootstrap combinations
# ---------------------------------------------------------------------------

class ODFit:
    """Least-squares fit of one dataset, shared by every estimate made from it.

    Construction computes the per-record normal equations once, with each
    record's O'O stored as its 21 origin products, and their pooled and
    per-slot sums.  The pooled and per-slot estimates, the
    slot weights W_k and the slot bootstrap covariances are computed on
    first use and kept, so least squares alone never pays for the
    bootstrap, and GB-I and GB-II on one fit share one slot bootstrap.

    ``config`` sets the slot bootstrap's replicates and seed.  ``ridge``,
    for nearly collinear volumes, is added to every normal-equation solve;
    it must be finite and >= 0.  When positive, the weight/partition
    identity checks are skipped (the ridge perturbs them by design).
    """

    def __init__(
        self,
        dataset: ODDataset,
        config: BootstrapConfig = BootstrapConfig(),
        *,
        ridge: float = 0.0,
    ):
        ridge = float(ridge)
        if not (np.isfinite(ridge) and ridge >= 0.0):
            raise ConfigError(f"ridge must be finite and >= 0, got {ridge}")
        self.dataset = dataset
        self.config = config
        self.ridge = ridge
        self._products, self._h = _statistics(dataset)
        #: Pooled O'O, shape (21, 21), and per-slot O'O, shape (S, 21, 21),
        #: both without the ridge.
        self.gamma = _gram(self._products.sum(axis=(0, 1)))
        self.slot_gammas = _gram(self._products.sum(axis=0))
        self._slot_rhs = self._h.sum(axis=0)

    @cached_property
    def theta(self) -> np.ndarray:
        """Pooled estimate from every record, shape (21,)."""
        return _solve(self.gamma, self._h.sum(axis=(0, 1)), "all slots", self.ridge)

    def slot_estimate(self, slot: int) -> np.ndarray:
        """Estimate from the records of one slot (1-based), shape (21,)."""
        if not 1 <= slot <= self.dataset.slots:
            raise BoundsError(f"slot {slot} outside 1..{self.dataset.slots}")
        return _solve(
            self.slot_gammas[slot - 1], self._slot_rhs[slot - 1], f"slot {slot}", self.ridge
        )

    @cached_property
    def slot_estimates(self) -> np.ndarray:
        """Every slot's estimate, shape (S, 21)."""
        return np.stack([self.slot_estimate(k) for k in range(1, self.dataset.slots + 1)])

    @cached_property
    def weights(self) -> np.ndarray:
        """Slot weights W_k = Gamma_full^{-1} Gamma_k, shape (S, 21, 21), from
        one Cholesky factor of Gamma_full (plus the ridge).

        Without a ridge, checks that the slot matrices sum to the full
        matrix (the slots partition the records) and that the weights sum
        to the identity, both to within 1e-8 relative tolerance.
        """
        from scipy.linalg import cho_factor, cho_solve

        gamma = self.gamma
        if self.ridge:
            gamma = gamma + self.ridge * np.eye(21)
        else:
            scale = max(float(np.abs(gamma).max()), 1.0)
            if float(np.abs(self.slot_gammas.sum(axis=0) - gamma).max()) > 1e-8 * scale:
                raise ConsistencyError("slot matrices do not sum to the full matrix")
            _check_condition(gamma, "all slots")
        factor = cho_factor(gamma)
        weights = np.stack([cho_solve(factor, gk) for gk in self.slot_gammas])
        if not self.ridge and float(np.abs(weights.sum(axis=0) - np.eye(21)).max()) > 1e-8:
            raise ConsistencyError("slot weights do not sum to the identity")
        return weights

    @cached_property
    def slot_covariances(self) -> np.ndarray:
        """Pairs-bootstrap covariance of each slot estimate, shape (S, 21, 21)."""
        return _slot_bootstrap_covs(self._products, self._h, self.config, self.ridge)

    def gb1_standard_errors(self) -> np.ndarray:
        """Gap bootstrap I standard errors from the per-slot split estimates.

        Treats the S slot estimates as exchangeable rows: per-slot pairs
        bootstraps give the slot variances, pairwise differences the common
        cross-slot covariance, and the equally weighted combination formula
        the variance of the pooled estimate.  Shares the slot bootstrap
        with the GB-II path, so both report consistent slot scales.
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
        the projections).  Only the degeneracy floor on a window moment
        differs: ``gb2_variance`` tests for exact zero, which keeps it
        ``c**2``-equivariant; here noise-free window solves leave round-off of
        ~1e-13 of the estimate, so the floor is (1e-9 (1 + |theta_a|))**2.

        ``ell`` is the window length in days (default
        ``default_block_length(days)``) and ``degenerate`` the policy,
        ``"error"`` or ``"zero"``, when a window-projection series has zero
        variability.  A slot whose normal equations are rank deficient
        raises RankError naming it, as GB-I does.  Returns the standard
        errors ordered as PARAM_NAMES, shape (21,).
        """
        days, slots = self.dataset.days, self.dataset.slots
        ell = _check_gb2_options(ell, days, degenerate)
        theta = self.theta
        weights = self.weights
        window = _window_estimates(self._products, self._h, ell, self.ridge)  # (S, I, 21)
        self.slot_estimates  # names a rank-deficient slot the window solves let through
        # kernel rows of size r = 1, batched over parameters a: projections
        # w_ak' (window_k - theta), (21, I, S, 1); variances w_ak' Cov_k w_ak
        proj = np.einsum("kab,kib->aik", weights, window - theta)[..., None]
        quad = np.einsum("kab,kbc,kac->ak", weights, self.slot_covariances, weights)
        floor = (1e-9 * (1.0 + np.abs(theta))) ** 2
        var = _gb2_combine(
            quad[..., None, None], proj, np.ones(slots), floor[:, None], degenerate,
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
    slot bootstrap is run once for both standard errors.  The window
    length, the degeneracy policy and the ridge are checked before any of
    that work.  ``config`` and ``ridge`` are as for ``ODFit``; ``ell``,
    ``degenerate`` and the per-parameter scalar form of GB-II are described
    at ``ODFit.gb2_standard_errors``.
    """
    _check_gb2_options(ell, dataset.days, degenerate)
    fit = ODFit(dataset, config, ridge=ridge)
    return fit.theta, fit.gb1_standard_errors(), fit.gb2_standard_errors(ell, degenerate)


# ---------------------------------------------------------------------------
# Surrogate generator
# ---------------------------------------------------------------------------

def _ar1_path(rng, days: int, shape: tuple, sd: float, phi: float) -> np.ndarray:
    """Stationary AR(1) sample path over days, i.i.d. across ``shape``."""
    path = np.empty((days,) + shape)
    path[0] = rng.normal(0.0, sd, size=shape)
    if phi > 0.0:
        innov = sd * np.sqrt(1.0 - phi * phi)
        for t in range(1, days):
            path[t] = phi * path[t - 1] + rng.normal(0.0, innov, size=shape)
    else:
        path[1:] = rng.normal(0.0, sd, size=(days - 1,) + shape)
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
    if days < 2:
        raise InsufficientDataError(f"need at least 2 days, got {days}")
    if slots < 1:
        raise ConfigError(f"need at least 1 slot, got {slots}")
    if not 0.0 <= day_ar < 1.0:
        raise ConfigError(f"day_ar must lie in [0, 1), got {day_ar}")
    if noise < 0.0:
        raise ConfigError(f"noise must be >= 0, got {noise}")
    if split_drift < 0.0:
        raise ConfigError(f"split_drift must be >= 0, got {split_drift}")
    if slot_spread < 0.0:
        raise ConfigError(f"slot_spread must be >= 0, got {slot_spread}")
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
