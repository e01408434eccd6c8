"""Dataset representation, time discretization and person-period augmentation.

Covers both model families: multinomial targets for the cause-specific
model (CSM) and binary targets with inverse-probability-of-censoring
weights for the sub-distribution model (SDM).
"""
from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass, field

import numpy as np

# floor for the censoring-survival estimate, avoids division by zero in weights
G_FLOOR = 1e-4
# CSV rows parsed per chunk: a chunk's cells become arrays a column at a
# time. Small chunks let csv's row lists die young; chunks of thousands of
# rows outlive the young GC generations and set off full collections,
# which cost more the more objects the process holds.
CSV_CHUNK_ROWS = 512


class DataError(ValueError):
    """Raised on malformed or inconsistent survival data."""


@dataclass
class FunctionalCurve:
    """One sampled functional signal on [0, 1]."""

    name: str
    taus: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.taus = np.asarray(self.taus, dtype=np.float64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.taus.size < 2:
            raise DataError("curve %r needs at least 2 sample points" % self.name)
        if self.taus.size != self.values.size:
            raise DataError("curve %r: taus/values length mismatch" % self.name)
        if np.any(np.diff(self.taus) <= 0):
            raise DataError("curve %r: sample points must be strictly increasing" % self.name)
        if self.taus[0] < 0.0 or self.taus[-1] > 1.0:
            raise DataError("curve %r: sample points must lie in [0, 1]" % self.name)


@dataclass
class SubjectRecord:
    """One subject: tabular covariates with missingness mask, curves, outcome.

    cause = 0 encodes censoring; cause >= 1 is the observed event type.
    Missing covariate entries hold NaN as a sentinel and must be imputed
    before any feature assembly reads them.
    """

    id: str
    x: np.ndarray
    missing_mask: np.ndarray
    time: float
    cause: int
    curves: list = field(default_factory=list)

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        self.missing_mask = np.asarray(self.missing_mask, dtype=bool)
        if self.missing_mask.shape != self.x.shape:
            raise DataError("subject %s: mask length != covariate length" % self.id)
        if self.time < 0:
            raise DataError("subject %s: negative observed time" % self.id)
        if self.cause < 0:
            raise DataError("subject %s: negative cause" % self.id)


@dataclass
class TimeGrid:
    """Discrete interval cut points 0 = t_0 < t_1 < ... < t_L, equal width."""

    width: float
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
    return TimeGrid(width=float(width), cuts=cuts)


def assign_interval(time, grid):
    """Map a time to its interval index under half-open (t_{l-1}, t_l] bins.

    time = 0 maps to interval 1 by convention.
    """
    if time < 0 or time > grid.max_time + 1e-9:
        raise ValueError("time %g outside grid [0, %g]" % (time, grid.max_time))
    if time <= grid.cuts[1]:
        return 1
    # smallest l with time <= t_l (clamped against fp spill past t_L)
    return min(int(np.searchsorted(grid.cuts, time, side="left")), grid.n_intervals)


def assign_intervals(times, grid):
    """assign_interval over an array of times, with the same range check
    (the error names the first time outside the grid)."""
    times = np.asarray(times, dtype=np.float64)
    outside = (times < 0) | (times > grid.max_time + 1e-9)
    if outside.any():
        raise ValueError("time %g outside grid [0, %g]"
                         % (times[outside][0], grid.max_time))
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

    def at(self, t):
        """G(t) for integer interval index t; t <= 0 returns 1."""
        t = int(t)
        if t <= 0:
            return 1.0
        return float(self.g[min(t, len(self.g) - 1)])

    def at_intervals(self, t):
        """at() over an integer array of interval indices."""
        t = np.asarray(t)
        return np.where(t <= 0, 1.0, self.g[np.clip(t, 0, len(self.g) - 1)])


def augment_cause_specific(subjects, grid, n_causes):
    """Person-period rows for the cause-specific model.

    A subject reaching interval l* contributes rows t = 1..l*; only the
    final row carries its event category (0 for censored subjects).
    """
    subj_idx, intervals, targets = [], [], []
    for i, s in enumerate(subjects):
        if s.cause > n_causes:
            raise ValueError("subject %s: cause %d > M=%d" % (s.id, s.cause, n_causes))
        l_star = assign_interval(s.time, grid)
        for t in range(1, l_star + 1):
            subj_idx.append(i)
            intervals.append(t)
            targets.append(s.cause if t == l_star else 0)
    return PersonPeriodTable(
        subject_idx=np.asarray(subj_idx, dtype=np.intp),
        interval=np.asarray(intervals, dtype=np.intp),
        target=np.asarray(targets, dtype=np.intp),
        weight=np.ones(len(subj_idx), dtype=np.float64),
    )


def censoring_survival(subjects, grid):
    """Kaplan-Meier for the censoring distribution at interval endpoints.

    Censorings (cause = 0) are the "events" here; true events enter the
    risk sets but leave without a censoring jump. Within a tied interval,
    events take precedence, so censored subjects still sit in the risk set
    of their own interval.
    """
    if not subjects:
        raise DataError("censoring_survival needs a nonempty dataset")
    L = grid.n_intervals
    iv = assign_intervals([s.time for s in subjects], grid)
    censored = np.array([s.cause == 0 for s in subjects])
    left_before = np.cumsum(np.bincount(iv, minlength=L + 1))[:L]
    at_risk = len(subjects) - left_before  # subjects with iv >= t, t = 1..L
    n_cens = np.bincount(iv[censored], minlength=L + 1)[1:]
    # an empty risk set has no censorings, so its factor is exactly 1
    factor = 1.0 - n_cens / np.maximum(at_risk, 1)
    g = np.ones(L + 1, dtype=np.float64)
    g[1:] = np.maximum(np.cumprod(factor), G_FLOOR)
    return CensoringSurvival(g=g)


def sd_weight(t, t_interval, cause, target_cause, g):
    """IPCW weight w_it of the sub-distribution model at interval t.

    t_interval is the subject's event/censoring interval; g is the
    censoring survival evaluated at integer interval endpoints.
    """
    at_risk = 1.0 if t <= t_interval else 0.0
    past_competing = 1.0 if (t_interval <= t - 1 and cause not in (0, target_cause)) else 0.0
    if at_risk == 0.0 and past_competing == 0.0:
        return 0.0
    return g.at(t - 1) / g.at(min(t_interval, t) - 1) * (at_risk + past_competing)


def augment_subdistribution(subjects, grid, target_cause, g, drop_zero_weight=True):
    """Person-period rows for the sub-distribution model of one target cause.

    Each subject contributes rows t = 1..L-1 with binary targets and IPCW
    weights; zero-weight rows are dropped by default since they carry no
    loss contribution.
    """
    if target_cause < 1:
        raise ValueError("target cause must be >= 1")
    L = grid.n_intervals
    subj_idx, intervals, targets, weights = [], [], [], []
    for i, s in enumerate(subjects):
        l_star = assign_interval(s.time, grid)
        for t in range(1, L):
            w = sd_weight(t, l_star, s.cause, target_cause, g)
            if drop_zero_weight and w == 0.0:
                continue
            y = 1 if (t == l_star and s.cause == target_cause) else 0
            subj_idx.append(i)
            intervals.append(t)
            targets.append(y)
            weights.append(w)
    return PersonPeriodTable(
        subject_idx=np.asarray(subj_idx, dtype=np.intp),
        interval=np.asarray(intervals, dtype=np.intp),
        target=np.asarray(targets, dtype=np.intp),
        weight=np.asarray(weights, dtype=np.float64),
    )


# ---------------------------------------------------------------------------
# CSV interfaces
# ---------------------------------------------------------------------------

def covariate_matrix(subjects):
    """Stack subject covariates into (X, mask) with NaN at missing cells."""
    X = np.vstack([s.x for s in subjects])
    mask = np.vstack([s.missing_mask for s in subjects])
    return X, mask


def write_subjects_csv(path, subjects, covariate_names=None):
    """Subject CSV: id, time, cause, then one column per covariate.

    Missing cells are written empty.
    """
    p = len(subjects[0].x) if subjects else 0
    if covariate_names is None:
        covariate_names = ["x%d" % (j + 1) for j in range(p)]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "time", "cause"] + list(covariate_names))
        for s in subjects:
            row = [s.id, repr(float(s.time)), s.cause]
            for v, m in zip(s.x, s.missing_mask):
                row.append("" if m else repr(float(v)))
            w.writerow(row)


def csv_chunks(reader, chunk_rows=CSV_CHUNK_ROWS):
    """(row number of the first row, rows) for consecutive blocks of up to
    chunk_rows rows of a csv.reader whose header (row 1) was read."""
    line = 2
    while rows := list(itertools.islice(reader, chunk_rows)):
        yield line, rows
        line += len(rows)


def read_subjects_csv(path):
    """Parse the subject CSV; empty covariate cells become masked NaNs.

    Cells are parsed a column at a time; when that fails, a row scan names
    the first malformed row.
    """
    subjects = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[:3] != ["id", "time", "cause"]:
            raise DataError("%s: expected header id,time,cause,..." % path)
        names = header[3:]
        for line, rows in csv_chunks(reader):
            try:
                if set(map(len, rows)) != {len(header)}:
                    raise ValueError("ragged rows")
                ids, times, causes, *cells = zip(*rows)
                times = np.array(times, dtype=np.float64).tolist()
                causes = np.array(causes, dtype=np.int64).tolist()
                cells = np.array(cells, dtype=object).T.reshape(len(rows), len(names))
                mask = cells == ""
                cells[mask] = "nan"
                X = cells.astype(np.float64)
            except (ValueError, OverflowError):
                raise _subject_row_error(path, header, rows, line)
            subjects += [SubjectRecord(id=sid, x=x, missing_mask=m, time=t, cause=c)
                         for sid, x, m, t, c in zip(ids, X, mask, times, causes)]
    return subjects, names


def _subject_row_error(path, header, rows, line):
    """The DataError of the first malformed row of a subject CSV chunk."""
    names = header[3:]
    for ln, row in enumerate(rows, start=line):
        if len(row) != len(header):
            return DataError("%s row %d: expected %d cells, got %d"
                             % (path, ln, len(header), len(row)))
        try:
            time = float(row[1])
            cause = int(row[2])
        except ValueError as e:
            return DataError("%s row %d: bad time/cause: %s" % (path, ln, e))
        for name, cell in zip(names, row[3:]):
            try:
                float(cell or "nan")
            except ValueError:
                return DataError("%s row %d column %s: bad numeric cell %r"
                                 % (path, ln, name, cell))
        # a negative time or cause in an earlier row fails before a bad cell
        SubjectRecord(id=row[0], x=np.zeros(0), missing_mask=np.zeros(0),
                      time=time, cause=cause)
    return DataError("%s rows %d-%d: a number is out of range"
                     % (path, line, line + len(rows) - 1))


def write_curves_csv(path, subjects):
    """Curve CSV (long format): id, signal_name, tau, value."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "signal_name", "tau", "value"])
        for s in subjects:
            for c in s.curves:
                for tau, val in zip(c.taus, c.values):
                    w.writerow([s.id, c.name, repr(float(tau)), repr(float(val))])


def read_curves_csv(path, subjects):
    """Attach curves from the long-format CSV onto matching subjects.

    Each (subject, signal) curve holds its points sorted by (tau, value);
    a subject's curves are sorted by signal name.
    """
    position = {s.id: k for k, s in enumerate(subjects)}
    code = {}  # signal name -> code, in order of first appearance
    parts = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["id", "signal_name", "tau", "value"]:
            raise DataError("%s: expected header id,signal_name,tau,value" % path)
        for line, rows in csv_chunks(reader):
            try:
                if set(map(len, rows)) != {4}:
                    raise ValueError("ragged rows")
                ids, names, taus, vals = zip(*rows)
                subj = np.fromiter(map(position.get, ids, itertools.repeat(-1)),
                                   dtype=np.intp, count=len(rows))
                if (subj < 0).any():
                    raise ValueError("unknown subject")
                taus = np.array(taus, dtype=np.float64)
                vals = np.array(vals, dtype=np.float64)
            except ValueError:
                raise _curve_row_error(path, rows, position, line)
            for name in dict.fromkeys(names):
                code.setdefault(name, len(code))
            signal = np.fromiter(map(code.__getitem__, names), dtype=np.intp,
                                 count=len(rows))
            parts.append((subj, signal, taus, vals))
    if parts:
        _attach_curves(subjects, list(code),
                       *(np.concatenate(column) for column in zip(*parts)))
    for s in subjects:
        s.curves.sort(key=lambda c: c.name)
    return subjects


def _attach_curves(subjects, signal_names, subj, signal, taus, vals):
    """Group the points by (subject, signal), sort each group by (tau,
    value) and append the curves in the order they first appear in the
    file, as a row-by-row read would."""
    order = np.lexsort((vals, taus, signal, subj))
    subj, signal, taus, vals = subj[order], signal[order], taus[order], vals[order]
    starts = np.flatnonzero(np.diff(subj, prepend=-1) | np.diff(signal, prepend=-1))
    ends = np.append(starts[1:], len(order))
    by_appearance = np.argsort(np.minimum.reduceat(order, starts), kind="stable")
    for lo, hi in zip(starts[by_appearance].tolist(), ends[by_appearance].tolist()):
        subjects[subj[lo]].curves.append(FunctionalCurve(
            name=signal_names[signal[lo]], taus=taus[lo:hi], values=vals[lo:hi]))


def _curve_row_error(path, rows, position, line):
    """The DataError of the first malformed row of a curve CSV chunk."""
    for ln, row in enumerate(rows, start=line):
        if len(row) != 4:
            return DataError("%s row %d: expected 4 cells" % (path, ln))
        if row[0] not in position:
            return DataError("%s row %d: unknown subject id %r" % (path, ln, row[0]))
        try:
            float(row[2]), float(row[3])
        except ValueError as e:
            return DataError("%s row %d: bad numeric cell: %s" % (path, ln, e))
    return DataError("%s rows %d-%d: malformed" % (path, line, line + len(rows) - 1))
