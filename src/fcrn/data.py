"""Dataset representation, time discretization and person-period augmentation.

Covers both model families: multinomial targets for the cause-specific
model (CSM) and binary targets with inverse-probability-of-censoring
weights for the sub-distribution model (SDM).
"""
from __future__ import annotations

import contextlib
import csv
import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

# floor for the censoring-survival estimate, avoids division by zero in weights
G_FLOOR = 1e-4
# how far a time may lie past a grid time and still count as on it
GRID_TOL = 1e-9
# CSV lines parsed per block. A reader turns a block's cells into arrays,
# and read_curves_csv its ids and signal names into codes, before it reads
# the next block, so a block's strings are all the text it holds at once
# and peak memory grows with the block. On a 122k-line curves file (2-vCPU
# host) 512-line blocks parse as fast as 2048-line ones with a third of
# their peak memory; 128-line blocks take a third longer and 8192-line
# blocks twice as long.
CSV_CHUNK_ROWS = 512
# cells (rows x columns) formatted per write of a subjects or curves file:
# 1260 subjects of 10 covariates or 26 of three 51-point signals, traced at
# 1.1 and 0.7 MB (each cell of a block is a Python object at once). On such
# files (10000, 800 subjects; 2-vCPU host) the subjects write takes 0.050 s
# at any budget from 2^10 cells, near its 0.045 s %-format; the curves write
# takes 0.13 s at 2^10, 0.080 at 2^12, 0.073 at 2^14, 0.068 at 2^16 (2.8 MB).
WRITE_CELLS = 2 ** 14


class DataError(ValueError):
    """Raised on malformed or inconsistent survival data."""


class Signal(NamedTuple):
    """One functional signal of every subject, sampled on [0, 1].

    Subject i's sample points are taus[offsets[i]:offsets[i + 1]], sorted
    and strictly increasing, with their values alongside.
    """

    taus: np.ndarray
    values: np.ndarray
    offsets: np.ndarray


@dataclass
class Dataset:
    """Subjects as columns: tabular covariates, functional signals, outcome.

    cause = 0 encodes censoring; cause >= 1 is the observed event type.
    A missing covariate cell holds NaN in X and every other cell a finite
    number; missing cells must be imputed before any feature assembly
    reads them. signals maps each signal name to its Signal.
    """

    ids: np.ndarray
    time: np.ndarray
    cause: np.ndarray
    X: np.ndarray
    signals: dict = field(default_factory=dict)

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=object)
        self.time = np.asarray(self.time, dtype=np.float64)
        self.cause = np.asarray(self.cause, dtype=np.int64)
        self.X = np.asarray(self.X, dtype=np.float64)

    @property
    def mask(self):
        """The missing cells of X: True where X is NaN."""
        return np.isnan(self.X)

    def __len__(self):
        return len(self.time)

    def take(self, rows):
        """The subjects at the given row indices, in that order."""
        rows = np.asarray(rows, dtype=np.intp)
        signals = {}
        for name, sig in self.signals.items():
            counts = np.diff(sig.offsets)[rows]
            offsets = np.concatenate([[0], np.cumsum(counts)])
            points = (np.arange(offsets[-1])
                      + np.repeat(sig.offsets[rows] - offsets[:-1], counts))
            signals[name] = Signal(sig.taus[points], sig.values[points], offsets)
        return Dataset(self.ids[rows], self.time[rows], self.cause[rows],
                       self.X[rows], signals)


def signal_matrix(ds, name, taus):
    """Every subject's curve of one signal resampled onto taus: an (n, J)
    matrix whose row i is np.interp of taus on subject i's own sample
    points and values, linear between them and held at the end values
    outside them. DataError when the dataset has no such signal."""
    if name not in ds.signals:
        raise DataError("the dataset has no signal %r" % name)
    sig = ds.signals[name]
    taus = np.asarray(taus, dtype=np.float64)
    out = np.empty((len(sig.offsets) - 1, len(taus)))
    bounds = sig.offsets.tolist()
    for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        out[i] = np.interp(taus, sig.taus[lo:hi], sig.values[lo:hi])
    return out


@dataclass
class TimeGrid:
    """Discrete interval cut points 0 = t_0 < t_1 < ... < t_L, equal width."""

    cuts: np.ndarray

    @property
    def n_intervals(self):
        return len(self.cuts) - 1

    @property
    def max_time(self):
        return float(self.cuts[-1])


def build_time_grid(max_time, width):
    """Equal-width grid covering [0, max_time] with L = ceil(max_time/width)."""
    if max_time <= 0 or width <= 0:
        raise ValueError("max_time and width must be positive")
    n = int(np.ceil(max_time / width - 1e-12))
    cuts = width * np.arange(n + 1, dtype=np.float64)
    return TimeGrid(cuts)


def assign_intervals(times, grid):
    """Map times to interval indices under half-open (t_{l-1}, t_l] bins.

    Time 0 maps to interval 1 by convention. The error for times outside
    the grid names the first of them.
    """
    times = np.asarray(times, dtype=np.float64)
    outside = (times < 0) | (times > grid.max_time + GRID_TOL)
    if outside.any():
        raise ValueError("time %g outside grid [0, %g]"
                         % (times[outside][0], grid.max_time))
    # smallest l with time <= t_l, clamped against fp spill past t_L
    iv = np.minimum(np.searchsorted(grid.cuts, times, side="left"), grid.n_intervals)
    return np.where(times <= grid.cuts[1], 1, iv)


@dataclass
class PersonPeriodTable:
    """Long-format augmented rows shared by both model families.

    subject_idx : row's subject index into the originating dataset
    interval    : interval index t in 1..L
    target      : CSM category in {0..M} or SDM binary indicator
    weight      : 1 for CSM rows; w_it >= 0 for SDM rows
    """

    subject_idx: np.ndarray
    interval: np.ndarray
    target: np.ndarray
    weight: np.ndarray

    def __len__(self):
        return len(self.subject_idx)


@dataclass
class CensoringSurvival:
    """Kaplan-Meier censoring survival G(t) at interval endpoints t = 0..L."""

    g: np.ndarray

    def at_intervals(self, t):
        """G at an integer array of interval indices; t <= 0 gives 1 and
        t past L gives G(L)."""
        t = np.asarray(t)
        return np.where(t <= 0, 1.0, self.g[np.clip(t, 0, len(self.g) - 1)])


def augment_cause_specific(ds, grid, n_causes):
    """Person-period rows for the cause-specific model.

    A subject reaching interval l* contributes rows t = 1..l*; only the
    final row carries its event category (0 for censored subjects).
    Rows are in subject, then interval order.
    """
    over = np.flatnonzero(ds.cause > n_causes)
    if len(over):
        k = over[0]
        raise DataError("subject %s: cause %d > M=%d"
                        % (ds.ids[k], ds.cause[k], n_causes))
    l_star = assign_intervals(ds.time, grid)
    ends = np.cumsum(l_star)
    subj_idx = np.repeat(np.arange(len(ds), dtype=np.intp), l_star)
    interval = (np.arange(1, len(subj_idx) + 1, dtype=np.intp)
                - np.repeat(ends - l_star, l_star))
    target = np.zeros(len(subj_idx), dtype=np.intp)
    target[ends - 1] = ds.cause
    return PersonPeriodTable(subject_idx=subj_idx, interval=interval, target=target,
                             weight=np.ones(len(subj_idx), dtype=np.float64))


def censoring_survival(ds, grid):
    """Kaplan-Meier for the censoring distribution at interval endpoints.

    Censorings (cause = 0) are the "events" here; true events enter the
    risk sets but leave without a censoring jump. Within a tied interval,
    events take precedence, so censored subjects still sit in the risk set
    of their own interval.
    """
    if not len(ds):
        raise DataError("censoring_survival needs a nonempty dataset")
    L = grid.n_intervals
    iv = assign_intervals(ds.time, grid)
    left_before = np.cumsum(np.bincount(iv, minlength=L + 1))[:L]
    at_risk = len(ds) - left_before  # subjects with iv >= t, t = 1..L
    n_cens = np.bincount(iv[ds.cause == 0], minlength=L + 1)[1:]
    # an empty risk set has no censorings, so its factor is exactly 1
    factor = 1.0 - n_cens / np.maximum(at_risk, 1)
    g = np.ones(L + 1, dtype=np.float64)
    g[1:] = np.maximum(np.cumprod(factor), G_FLOOR)
    return CensoringSurvival(g=g)


def augment_subdistribution(ds, grid, target_cause, g):
    """Person-period rows for the sub-distribution model of one target cause.

    Each subject contributes rows t = 1..L-1 in interval order, with binary
    targets and IPCW weights (Fine & Gray): a subject at risk (t <= l*), or
    past a competing event (l* <= t - 1), weighs G(t-1) / G(min(l*, t) - 1);
    any other row weighs 0 and is dropped, since it carries no loss
    contribution.
    """
    if target_cause < 1:
        raise ValueError("target cause must be >= 1")
    t = np.arange(1, grid.n_intervals)
    l_star = assign_intervals(ds.time, grid)[:, None]
    competing = ((ds.cause != 0) & (ds.cause != target_cause))[:, None]
    weighted = (t <= l_star) | ((l_star <= t - 1) & competing)
    ratio = g.at_intervals(t - 1) / g.at_intervals(np.minimum(l_star, t) - 1)
    weight = np.where(weighted, ratio, 0.0)
    target = (t == l_star) & (ds.cause == target_cause)[:, None]
    keep = weight != 0.0
    subj_idx, col = np.nonzero(keep)
    return PersonPeriodTable(subject_idx=subj_idx, interval=col + 1,
                             target=target[keep].astype(np.intp),
                             weight=weight[keep])


# ---------------------------------------------------------------------------
# CSV interfaces
# ---------------------------------------------------------------------------

def csv_fields(texts):
    """texts as csv.writer's fields (minimal quoting), checked one by one if need be."""
    if any(c in "".join(texts) for c in ',"\r\n'):
        return ['"%s"' % t.replace('"', '""') if any(c in t for c in ',"\r\n') else t
                for t in texts]
    return texts


# the binary64 1e-3, 1e-2 and 0.1, which part fraction_digits' decimal
# exponents -4..-1; then 10^(16 - k) at k = -1..-4, exact in binary64, which
# scales a value of [10^k, 10^(k+1)) to 17 integer digits
FRACTION_EDGES = np.array([1e-3, 1e-2, 0.1])
FRACTION_SCALES = np.array([1e17, 1e18, 1e19, 1e20])
# Veltkamp's splitter: x * VELTKAMP - (x * VELTKAMP - x) is x's high 26 bits
VELTKAMP = 2.0 ** 27 + 1


def fraction_digits(values):
    """The "%.17g" text of each value in [1e-4, 1) as two integers.

    Returns (k, digits), int64 arrays of values' shape. For v in [1e-4, 1),
    "%.17g" % v is "0.", then -k - 1 zeros, then "%d" % digits: k in -4..-1
    is v's decimal exponent and digits its 17 significant digits, rounded
    half to even, without trailing zeros. k is 0 for every other value (0,
    1, below 1e-4, above 1, negative or not finite), whose text it leaves
    to "%.17g".

    k counts the binary64 powers 1e-3, 1e-2, 0.1 at or below v; each lies
    above the real power, as 1e-4 does, so the count is exact. v * 10^(16
    - k) is hi + lo exactly (Dekker's product of Veltkamp halves), and hi
    >= 10^16 > 2^53 is an even integer, so the rounded digits are hi +
    rint(lo). They never round up to 10^17: they grow with v, and the
    largest double below each power of ten gives at most 99999999999999992.
    """
    v = np.asarray(values, dtype=np.float64)
    inside = (v >= 1e-4) & (v < 1.0)
    x = np.where(inside, v, 0.5)
    k = np.searchsorted(FRACTION_EDGES, x, side="right") - 4
    scale = FRACTION_SCALES[-1 - k]
    hi = x * scale
    xh = x * VELTKAMP - (x * VELTKAMP - x)
    sh = scale * VELTKAMP - (scale * VELTKAMP - scale)
    xl, sl = x - xh, scale - sh
    lo = ((xh * sh - hi) + xh * sl + xl * sh) + xl * sl
    digits = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    flat = digits.reshape(-1)
    tens = np.flatnonzero(flat % 10 == 0)
    while len(tens):
        flat[tens] //= 10
        tens = tens[flat[tens] % 10 == 0]
    return np.where(inside, k, 0), digits


def write_subjects_csv(path, ds):
    """Subject CSV: id, time, cause, then covariates x1..xP.

    Missing cells are written empty. The file is what csv.writer writes
    for the rows [id, "%.17g" % time, cause, "%.17g" % x or "", ...]: 17
    significant digits, so each number reads back as the same binary64.
    It is formatted about WRITE_CELLS cells at a time, by one %-format of
    every row of the block: the complete rows share one template, and a
    row with a missing cell gets its own.
    """
    p = ds.X.shape[1]
    complete = "%s,%.17g,%d" + ",%.17g" * p + "\r\n"
    step = max(1, WRITE_CELLS // (3 + p))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(["id", "time", "cause"]
                                + ["x%d" % (j + 1) for j in range(p)])
        for lo in range(0, len(ds), step):
            hi = min(lo + step, len(ds))
            missing = np.isnan(ds.X[lo:hi])
            cells = np.empty((hi - lo, 3 + p), dtype=object)
            cells[:, 0] = csv_fields(ds.ids[lo:hi])
            cells[:, 1] = ds.time[lo:hi]
            cells[:, 2] = ds.cause[lo:hi]
            cells[:, 3:] = ds.X[lo:hi]
            rows = [complete] * (hi - lo)
            gaps = np.flatnonzero(missing.any(axis=1))
            for i, xs in zip(gaps.tolist(), np.where(missing[gaps], ",", ",%.17g").tolist()):
                rows[i] = "%s,%.17g,%d" + "".join(xs) + "\r\n"
            if len(gaps):
                cells = cells[np.hstack([np.ones((hi - lo, 3), dtype=bool), ~missing])]
            fh.write("".join(rows) % tuple(cells.ravel().tolist()))


@contextlib.contextmanager
def open_csv(path):
    """(fh, header) for the csv file at path: the file open for reading as
    UTF-8 text and its first row (None for an empty file). A byte that is
    not UTF-8, wherever the with block reads it, raises a DataError naming
    the file."""
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            header = csv_rows(path, csv.reader(fh), 1, 1)
            yield fh, header[0] if header else None
        except UnicodeDecodeError as e:
            raise DataError("%s: byte 0x%02x is not UTF-8 text"
                            % (path, e.object[e.start])) from None


def csv_rows(path, reader, n, line):
    """The next (up to n) rows of a csv.reader, the first of them row number
    line; a DataError names the row where the reader fails, as csv does on
    a cell longer than its field size limit."""
    rows = []
    try:
        rows.extend(itertools.islice(reader, n))  # rows read before a failure stay
    except csv.Error as e:
        raise DataError("%s row %d: %s" % (path, line + len(rows), e)) from None
    return rows


# the csv_columns kind of a covariate column, whose missing cells are NaN
OPTIONAL_FLOAT = "optional float"


# np.loadtxt's dtype for each csv_columns kind: a str or OPTIONAL_FLOAT
# column loads as its cells' text
LOAD_DTYPES = {str: object, int: np.int64, float: np.float64, OPTIONAL_FLOAT: object}
# ASCII separators that np.loadtxt strips from numbers as whitespace and
# Python's float and int reject
NUMPY_ONLY_SPACES = "\x1c\x1d\x1e\x1f"


def csv_columns(path, fh, header, kinds, chunk_rows=CSV_CHUNK_ROWS):
    """(row number of the first row, columns) for consecutive blocks of up
    to chunk_rows rows of the open csv file fh, whose header (row 1) was read.

    Column k is parsed by kinds[k]: str gives an object array of the cells,
    int an int64 array, float a float64 array of finite numbers, and
    OPTIONAL_FLOAT a float64 array that is NaN at empty or nan cells and
    finite elsewhere. Each block of chunk_rows lines is parsed by
    np.loadtxt. From the first block that it rejects (see _load_block),
    csv.reader parses the rest of the file, chunk_rows rows at a time, so
    every file gives what csv.reader and the kinds give: when a block fails
    there, a row scan raises a DataError naming its first row with the
    wrong cell count or a cell that its kind rejects, and where csv.reader
    itself fails, a DataError names that row (see csv_rows).
    """
    dtype = np.dtype([("", LOAD_DTYPES[kind]) for kind in kinds])
    line = 2
    while block := list(itertools.islice(fh, chunk_rows)):
        columns = _load_block(block, dtype, kinds)
        if columns is None:
            yield from _read_blocks(path, csv.reader(itertools.chain(block, fh)),
                                    header, kinds, chunk_rows, line)
            return
        yield line, columns
        line += len(block)


def _load_block(lines, dtype, kinds):
    """The columns of a block of csv lines as np.loadtxt parses them, or
    None where csv.reader could read the block otherwise or a cell is bad.

    Each line must be one row: np.loadtxt skips a blank line, which
    csv.reader reads as a row of no cells, and the block's last line must
    not leave a quoted cell open, so a row of zeros is parsed along for
    such a cell to swallow. Nor may the block hold NUMPY_ONLY_SPACES, or a
    line longer than csv's field size limit, on which csv.reader raises.
    """
    text = "".join(lines)
    limit = csv.field_size_limit()
    if (any(c in text for c in NUMPY_ONLY_SPACES)
            or (len(text) > limit and max(map(len, lines)) > limit)):
        return None
    try:
        rows = np.loadtxt(lines + [",".join(["0"] * len(kinds)) + "\n"], dtype=dtype,
                          delimiter=",", comments=None, quotechar='"', ndmin=1)
        if len(rows) != len(lines) + 1:
            return None
        return [_parse_column(kind, rows[name][:-1])
                for kind, name in zip(kinds, dtype.names)]
    except (ValueError, OverflowError):
        return None


def _read_blocks(path, reader, header, kinds, chunk_rows, line):
    """csv_columns's blocks of csv.reader rows, from row number line on."""
    while rows := csv_rows(path, reader, chunk_rows, line):
        try:
            if set(map(len, rows)) != {len(header)}:
                raise ValueError("ragged rows")
            columns = [_parse_column(kind, cells)
                       for kind, cells in zip(kinds, zip(*rows))]
        except (ValueError, OverflowError):
            raise _row_error(path, header, kinds, rows, line) from None
        yield line, columns
        line += len(rows)


def _parse_column(kind, cells):
    """The column of cells as kind gives it (see csv_columns); ValueError
    or OverflowError when a cell does not fit its kind."""
    if kind is str:
        return np.array(cells, dtype=object)
    if kind is int:
        return np.array(cells, dtype=np.int64)
    if kind is OPTIONAL_FLOAT:
        cells = np.array(cells, dtype=object)
        cells[cells == ""] = "nan"
    values = np.array(cells, dtype=np.float64)
    if (np.isinf(values) if kind is OPTIONAL_FLOAT else ~np.isfinite(values)).any():
        raise ValueError("non-finite number")
    return values


def _row_error(path, header, kinds, rows, line):
    """The DataError of the first malformed row of a block that failed to
    parse: each cell is parsed alone, as its column was."""
    for ln, row in enumerate(rows, start=line):
        if len(row) != len(header):
            return DataError("%s row %d: expected %d cells, got %d"
                             % (path, ln, len(header), len(row)))
        for name, kind, cell in zip(header, kinds, row):
            try:
                _parse_column(kind, [cell])
            except (ValueError, OverflowError):
                return DataError("%s row %d column %s: bad numeric cell %r"
                                 % (path, ln, name, cell))


def read_subjects_csv(path):
    """Parse the subject CSV into a Dataset; empty and nan covariate cells
    are missing (NaN).

    Malformed rows fail first (see csv_columns); then the first subject
    with a negative time or cause, then the first repeated id.
    """
    with open_csv(path) as (fh, header):
        if header is None or header[:3] != ["id", "time", "cause"]:
            raise DataError("%s: expected header id,time,cause,..." % path)
        p = len(header) - 3
        parts = [(np.zeros(0, dtype=object), np.zeros(0), np.zeros(0, dtype=np.int64),
                  np.zeros((0, p)))]
        kinds = [str, float, int] + [OPTIONAL_FLOAT] * p
        for _, (ids, time, cause, *cells) in csv_columns(path, fh, header, kinds):
            parts.append((ids, time, cause, np.reshape(cells, (p, len(ids))).T))
    ds = Dataset(*map(np.concatenate, zip(*parts)))
    negative = np.flatnonzero((ds.time < 0) | (ds.cause < 0))
    if len(negative):
        k = negative[0]
        raise DataError("subject %s: negative %s" % (
            ds.ids[k], "observed time" if ds.time[k] < 0 else "cause"))
    first = {}  # id -> index of its first row
    for k, sid in enumerate(ds.ids.tolist()):
        if sid in first:
            raise DataError("%s rows %d and %d: repeated subject id %r"
                            % (path, first[sid] + 2, k + 2, sid))
        first[sid] = k
    return ds


def write_curves_csv(path, ds):
    """Curve CSV (long format): id, signal_name, tau, value; rows in subject,
    then signal, then sample point order.

    The file is what csv.writer writes for the rows [id, name, repr(tau),
    "%.17g" % value]: 17 significant digits, so each value reads back as
    the same binary64. It is formatted about WRITE_CELLS cells at a time,
    by one %-format of every row of the block, with one repr per distinct
    tau of the block. Each run of rows of one subject and signal shares a
    template that holds their id and name, each % doubled.
    """
    names = [name.replace("%", "%%") for name in csv_fields(list(ds.signals))]
    signals = list(ds.signals.values())
    step = max(1, WRITE_CELLS * len(ds) // max(1, 4 * sum(len(s.taus) for s in signals)))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(["id", "signal_name", "tau", "value"])
        for lo in range(0, len(ds) if signals else 0, step):
            hi = min(lo + step, len(ds))
            # counts[i, k] points of subject lo + i's curve of signal k, whose
            # first row is starts[i, k] in file order
            counts = np.column_stack([np.diff(sig.offsets[lo:hi + 1]) for sig in signals])
            starts = np.cumsum(counts).reshape(counts.shape) - counts
            cells = np.empty((counts.sum(), 2), dtype=object)
            taus = np.empty(len(cells))
            for k, sig in enumerate(signals):
                points = np.arange(sig.offsets[lo], sig.offsets[hi])
                rows = points + np.repeat(starts[:, k] - sig.offsets[lo:hi], counts[:, k])
                cells[rows, 1] = sig.values[points]
                taus[rows] = sig.taus[points]
            # one repr per distinct bit pattern, so -0.0 keeps its own text
            bits, inverse = np.unique(taus.view(np.int64), return_inverse=True)
            text = np.array([repr(t) for t in bits.view(np.float64).tolist()], dtype=object)
            cells[:, 0] = text[inverse]
            ids = csv_fields(ds.ids[lo:hi])
            template = "".join(("%s,%s,%%s,%%.17g\r\n" % (sid.replace("%", "%%"), name)) * c
                               for sid, row in zip(ids, counts.tolist())
                               for name, c in zip(names, row))
            fh.write(template % tuple(cells.ravel().tolist()))


def read_curves_csv(path, ds):
    """ds with the signals of the long-format curve CSV attached.

    Signals are sorted by name and each subject's points by tau.
    Malformed rows fail first (see csv_columns), then the first row of a
    subject ds lacks. Every subject needs every signal the file has, and
    each curve at least 2 strictly increasing sample points in [0, 1];
    the first failing curve in file order names the error.
    """
    position = {sid: k for k, sid in enumerate(ds.ids.tolist())}
    code = {}  # signal name -> code, in order of first appearance
    unknown = None  # (row, id) of the first row of an unknown subject
    columns = [[np.zeros(0, dtype=np.int64)], [np.zeros(0)], [np.zeros(0)]]
    with open_csv(path) as (fh, header):
        if header != ["id", "signal_name", "tau", "value"]:
            raise DataError("%s: expected header id,signal_name,tau,value" % path)
        for line, (ids, names, taus, vals) in csv_columns(path, fh, header,
                                                          [str, str, float, float]):
            subj = run_codes(ids, lambda sid: position.get(sid, -1))
            if unknown is None and (subj < 0).any():
                k = int(np.argmax(subj < 0))
                unknown = (line + k, ids[k])
            signal = run_codes(names, lambda name: code.setdefault(name, len(code)))
            for k, column in enumerate((signal * len(ds.ids) + subj, taus, vals)):
                columns[k].append(column)
    if unknown:
        raise DataError("%s row %d: unknown subject id %r" % (path, *unknown))
    signals = _check_curves(path, ds.ids, list(code), columns)
    return Dataset(ds.ids, ds.time, ds.cause, ds.X, signals)


def run_codes(cells, lookup):
    """An intp array of lookup(cell) for an object array of cells, calling
    lookup once per run of equal neighbouring cells."""
    starts = np.flatnonzero(np.append(True, cells[1:] != cells[:-1]))
    codes = np.fromiter(map(lookup, cells[starts]), dtype=np.intp, count=len(starts))
    return np.repeat(codes, np.diff(np.append(starts, len(cells))))


CURVE_ERRORS = (None, "curve %r needs at least 2 sample points",
                "curve %r: sample points must be strictly increasing",
                "curve %r: sample points must lie in [0, 1]")


def _check_curves(path, ids, names, columns):
    """One Signal per name, in name order, from the lists of per-block curve
    keys, taus and values in columns, after the per-curve and per-subject checks."""
    for k in range(3):  # a column at a time, its blocks dropped before the next
        columns[k] = np.concatenate(columns[k])
    order = np.lexsort(columns[1::-1])  # by key, then by tau
    for k in range(3):  # a column at a time, its unsorted copy dropped
        columns[k] = columns[k][order]
    key, taus, vals = columns
    same = key[1:] == key[:-1]  # point j + 1 is on point j's curve
    starts = np.flatnonzero(np.append(len(key) > 0, ~same))
    counts = np.diff(np.append(starts, len(key)))
    step = np.logical_or.reduceat(np.append(False, same & (taus[1:] <= taus[:-1])), starts)
    outside = (taus[starts] < 0.0) | (taus[starts + counts - 1] > 1.0)  # sorted taus
    problem = np.select([counts < 2, step, outside], [1, 2, 3])
    failing = np.flatnonzero(problem)
    if len(failing):
        k = failing[np.argmin(np.minimum.reduceat(order, starts)[failing])]
        raise DataError(CURVE_ERRORS[problem[k]] % names[key[starts[k]] // len(ids)])
    lacking = np.setdiff1d(np.arange(len(names) * len(ids)), key[starts])
    if len(lacking):
        k, i = divmod(lacking[0], len(ids))
        raise DataError("%s: subject %s lacks signal %r" % (path, ids[i], names[k]))
    # one curve per signal and subject, signal-major
    counts = counts.reshape(len(names), len(ids))
    bounds = np.append(0, np.cumsum(counts.sum(axis=1)))
    return {name: Signal(taus[lo:hi], vals[lo:hi], np.append(0, np.cumsum(c)))
            for name, lo, hi, c in sorted(zip(names, bounds[:-1], bounds[1:], counts))}
