"""The array-shaped scoring pass against the row-by-row code it replaced.

The reference functions below are the loop implementations of interval
assignment, censoring Kaplan-Meier, (IPCW) Brier scores, the subject and
curve CSV readers and writers and the predictions writer, over per-subject
Records. The vectorized code must give the same bits and bytes.
"""
import csv
import functools
import os
import re
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from conftest import (Record, brier_at, brier_ipcw_at, dataset, g_at, records,
                      ref_assign_interval)
from hypothesis import strategies as st

import fcrn.data
import fcrn.metrics
from fcrn.cli import read_predictions, write_predictions
from fcrn.data import (G_FLOOR, CensoringSurvival, DataError, Signal, assign_intervals,
                       build_time_grid, censoring_survival, csv_columns, read_curves_csv,
                       read_subjects_csv, write_curves_csv, write_subjects_csv)
from fcrn.metrics import ScoreCurve, ibs, score_cif

PROPERTY = settings(derandomize=True, max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


# ---------------------------------------------------------------------------
# reference loops
# ---------------------------------------------------------------------------

def ref_censoring_survival(subjects, grid):
    L = grid.n_intervals
    iv = np.array([ref_assign_interval(s.time, grid) for s in subjects])
    censored = np.array([s.cause == 0 for s in subjects])
    g = np.ones(L + 1, dtype=np.float64)
    surv = 1.0
    for t in range(1, L + 1):
        at_risk = int(np.sum(iv >= t))
        n_cens = int(np.sum(censored & (iv == t)))
        if at_risk > 0:
            surv *= 1.0 - n_cens / at_risk
        g[t] = max(surv, G_FLOOR)
    return CensoringSurvival(g=g)


def ref_brier(t, preds, subjects, cause):
    preds = np.asarray(preds, dtype=np.float64)
    label = np.array([1.0 if (s.time <= t and s.cause == cause) else 0.0
                      for s in subjects])
    return float(np.mean((label - preds) ** 2))


def ref_brier_ipcw(t, preds, subjects, cause, g, grid):
    preds = np.asarray(preds, dtype=np.float64)
    l_t = ref_assign_interval(t, grid) if t > 0 else 0
    total = 0.0
    for s, f in zip(subjects, preds):
        if s.time > t:
            total += f * f / max(g_at(g, l_t), G_FLOOR)
        elif s.cause != 0:
            label = 1.0 if s.cause == cause else 0.0
            total += (label - f) ** 2 / max(
                g_at(g, ref_assign_interval(s.time, grid) - 1), G_FLOOR)
    return total / len(subjects)


def ref_score_cif(F, subjects, cause, grid, g=None, t0=0.0, t_max=None):
    if t_max is None:
        t_max = grid.max_time
    cols = [l for l in range(grid.n_intervals + 1)
            if t0 - 1e-9 <= grid.cuts[l] <= t_max + 1e-9]
    times, values = [], []
    for l in cols:
        t = float(grid.cuts[l])
        preds = F[:, l]
        if g is None:
            bs = ref_brier(t, preds, subjects, cause)
        else:
            bs = ref_brier_ipcw(t, preds, subjects, cause, g, grid)
        times.append(t)
        values.append(bs)
    return ScoreCurve(times=np.asarray(times), values=np.asarray(values),
                      ibs=ibs(times, values))


def ref_float(cell):
    """float(cell) for a cell that holds a finite number, else ValueError."""
    value = float(cell)
    if not np.isfinite(value):
        raise ValueError("non-finite number %r" % cell)
    return value


def ref_read_subjects_csv(path):
    subjects = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[:3] != ["id", "time", "cause"]:
            raise DataError("%s: expected header id,time,cause,..." % path)
        names = header[3:]
        for ln, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise DataError("%s row %d: expected %d cells, got %d"
                                % (path, ln, len(header), len(row)))
            try:
                time = ref_float(row[1])
            except ValueError:
                raise DataError("%s row %d column time: bad numeric cell %r"
                                % (path, ln, row[1]))
            try:
                cause = int(row[2])
            except ValueError:
                raise DataError("%s row %d column cause: bad numeric cell %r"
                                % (path, ln, row[2]))
            x = np.empty(len(names))
            for j, cell in enumerate(row[3:]):
                try:  # an empty or nan cell is missing, an infinite one bad
                    x[j] = np.nan if cell == "" else float(cell)
                    if np.isinf(x[j]):
                        raise ValueError("infinite number %r" % cell)
                except ValueError:
                    raise DataError("%s row %d column %s: bad numeric cell %r"
                                    % (path, ln, names[j], cell))
            subjects.append(Record(id=row[0], x=x, missing_mask=np.isnan(x),
                                   time=time, cause=cause))
    # meaning checks follow the parse of the whole file
    for s in subjects:
        if s.time < 0:
            raise DataError("subject %s: negative observed time" % s.id)
        if s.cause < 0:
            raise DataError("subject %s: negative cause" % s.id)
    rows = {}
    for ln, s in enumerate(subjects, start=2):
        if s.id in rows:
            raise DataError("%s rows %d and %d: repeated subject id %r"
                            % (path, rows[s.id], ln, s.id))
        rows[s.id] = ln
    return subjects


def ref_read_curves_csv(path, subjects):
    by_id = {s.id: s for s in subjects}
    buf = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["id", "signal_name", "tau", "value"]:
            raise DataError("%s: expected header id,signal_name,tau,value" % path)
        rows = []
        for ln, row in enumerate(reader, start=2):
            if len(row) != 4:
                raise DataError("%s row %d: expected 4 cells, got %d"
                                % (path, ln, len(row)))
            for column, cell in zip(["tau", "value"], row[2:]):
                try:
                    ref_float(cell)
                except ValueError:
                    raise DataError("%s row %d column %s: bad numeric cell %r"
                                    % (path, ln, column, cell))
            rows.append(row)
    # meaning checks follow the parse of the whole file
    for ln, (sid, name, tau, val) in enumerate(rows, start=2):
        if sid not in by_id:
            raise DataError("%s row %d: unknown subject id %r" % (path, ln, sid))
        buf.setdefault((sid, name), []).append((float(tau), float(val)))
    for (sid, name), pts in buf.items():
        pts.sort()
        taus = np.array([p[0] for p in pts])
        vals = np.array([p[1] for p in pts])
        if taus.size < 2:
            raise DataError("curve %r needs at least 2 sample points" % name)
        if np.any(np.diff(taus) <= 0):
            raise DataError("curve %r: sample points must be strictly increasing"
                            % name)
        if taus[0] < 0.0 or taus[-1] > 1.0:
            raise DataError("curve %r: sample points must lie in [0, 1]" % name)
        by_id[sid].curves.append((name, taus, vals))
    for name in dict.fromkeys(name for _, name in buf):  # in order of appearance
        for s in subjects:
            if (s.id, name) not in buf:
                raise DataError("%s: subject %s lacks signal %r" % (path, s.id, name))
    for s in subjects:
        s.curves.sort(key=lambda c: c[0])
    return subjects


def ref_prediction_row_error(path):
    """The DataError of the first malformed row of a predictions CSV, read
    row by row: a row of the wrong length, or an interval cell that is not
    an integer or a time, cif_ or survival cell that is not a finite number."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        for ln, row in enumerate(reader, start=2):
            if len(row) != len(header):
                return DataError("%s row %d: expected %d cells, got %d"
                                 % (path, ln, len(header), len(row)))
            for name, cell in zip(header, row):
                try:
                    if name == "interval":
                        int(cell)
                    elif name in ("time", "survival") or name.startswith("cif_"):
                        ref_float(cell)
                except ValueError:
                    return DataError("%s row %d column %s: bad numeric cell %r"
                                     % (path, ln, name, cell))
    return None


def ref_write_subjects_csv(path, ds):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "time", "cause"]
                   + ["x%d" % (j + 1) for j in range(ds.X.shape[1])])
        for s in records(ds):
            w.writerow([s.id, "%.17g" % s.time, s.cause]
                       + ["" if m else "%.17g" % v for v, m in zip(s.x, s.missing_mask)])


def ref_write_curves_csv(path, ds):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "signal_name", "tau", "value"])
        for s in records(ds):
            for name, taus, values in s.curves:
                for t, v in zip(taus, values):
                    w.writerow([s.id, name, repr(float(t)), "%.17g" % v])


def ref_write_predictions(path, ids, grid, names, columns):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "interval", "time"] + list(names))
        for i, sid in enumerate(ids):
            for t in range(1, grid.n_intervals + 1):
                w.writerow([sid, t, repr(float(grid.cuts[t]))]
                           + ["%.17g" % col[i, t] for col in columns])


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

@st.composite
def grids(draw):
    width = draw(st.sampled_from([0.5, 1.0, 2.5, 5.0, 0.1]))
    return build_time_grid(width * draw(st.integers(1, 10)), width)


@st.composite
def cohorts(draw, grid, min_size=1):
    """Subjects with times in the grid, many of them on interval edges."""
    n = draw(st.integers(min_size, 25))
    edge = st.sampled_from(grid.cuts.tolist())
    near_edge = st.tuples(edge, st.sampled_from([-1e-10, 1e-10, -1e-12])).map(
        lambda p: min(max(p[0] + p[1], 0.0), grid.max_time))
    inside = st.floats(0.0, grid.max_time, allow_nan=False)
    times = draw(st.lists(st.one_of(edge, near_edge, inside),
                          min_size=n, max_size=n))
    causes = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    return dataset(times, causes)


def cif_matrix(draw, n, L):
    """(n, L+1) predictions with exact 0s and 1s among uniform draws."""
    seed = draw(st.integers(0, 2 ** 31 - 1))
    rng = np.random.RandomState(seed)
    F = rng.uniform(0.0, 1.0, size=(n, L + 1))
    F[rng.uniform(size=F.shape) < 0.1] = 0.0
    F[rng.uniform(size=F.shape) < 0.05] = 1.0
    return F


def censoring(draw, subjects, grid):
    """None, the cohort's own KM, or an arbitrary nonincreasing G that
    dips below the floor."""
    kind = draw(st.sampled_from(["none", "km", "random"]))
    if kind == "none":
        return None
    if kind == "km":
        return censoring_survival(subjects, grid)
    steps = draw(st.lists(st.floats(0.0, 1.0), min_size=grid.n_intervals,
                          max_size=grid.n_intervals))
    return CensoringSurvival(g=np.concatenate([[1.0], np.cumprod(steps)]))


def same_bits(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# intervals and Kaplan-Meier
# ---------------------------------------------------------------------------

class TestIntervalsAndKm:
    @PROPERTY
    @given(st.data())
    def test_assign_intervals_matches_loop(self, data):
        grid = data.draw(grids())
        times = data.draw(cohorts(grid)).time.tolist()
        assert assign_intervals(times, grid).tolist() == [
            ref_assign_interval(t, grid) for t in times]

    @PROPERTY
    @given(st.data())
    def test_out_of_range_error_names_the_first_time(self, data):
        grid = data.draw(grids())
        times = data.draw(st.lists(
            st.floats(-5.0, grid.max_time + 5.0, allow_nan=False), min_size=1,
            max_size=10))
        try:
            expected = [ref_assign_interval(t, grid) for t in times]
        except ValueError as e:
            with pytest.raises(ValueError) as got:
                assign_intervals(times, grid)
            assert str(got.value) == str(e)
        else:
            assert assign_intervals(times, grid).tolist() == expected

    @PROPERTY
    @given(st.data())
    def test_censoring_survival_matches_loop(self, data):
        grid = data.draw(grids())
        ds = data.draw(cohorts(grid))
        assert same_bits(censoring_survival(ds, grid).g,
                         ref_censoring_survival(records(ds), grid).g)

    def test_at_intervals_matches_at(self):
        g = CensoringSurvival(g=np.array([1.0, 0.9, 0.7, 0.4]))
        t = np.array([-2, 0, 1, 2, 3, 4, 9])
        assert g.at_intervals(t).tolist() == [g_at(g, k) for k in t]


# ---------------------------------------------------------------------------
# Brier scores
# ---------------------------------------------------------------------------

class TestBrierMatchesLoop:
    @PROPERTY
    @given(st.data())
    def test_score_cif(self, data):
        grid = data.draw(grids())
        ds = data.draw(cohorts(grid))
        subjects = records(ds)
        F = cif_matrix(data.draw, len(ds), grid.n_intervals)
        g = censoring(data.draw, ds, grid)
        cause = data.draw(st.integers(1, 2))
        edge = st.sampled_from(grid.cuts.tolist())
        t0 = data.draw(st.one_of(edge, st.floats(0.0, grid.max_time)))
        t_max = data.draw(st.one_of(st.none(), edge,
                                    st.floats(0.0, grid.max_time)))
        try:
            expected = ref_score_cif(F, subjects, cause, grid, g=g, t0=t0,
                                     t_max=t_max)
        except ValueError as e:  # fewer than two evaluation times
            with pytest.raises(ValueError, match=re.escape(str(e))):
                score_cif(F, ds, cause, grid, g=g, t0=t0, t_max=t_max)
            return
        got = score_cif(F, ds, cause, grid, g=g, t0=t0, t_max=t_max)
        assert same_bits(got.times, expected.times)
        assert same_bits(got.values, expected.values)
        assert same_bits(got.ibs, expected.ibs)

    @PROPERTY
    @given(st.data())
    def test_score_cif_in_blocks(self, data):
        # budgets of one subject a block, two (a cell short of three) and
        # seven, over cohorts whose first subjects are censored (so whole
        # blocks hold no event) or that are all at risk at every time
        grid = data.draw(grids())
        L = grid.n_intervals
        ds = data.draw(cohorts(grid))
        first = data.draw(st.integers(0, L - 1))
        last = data.draw(st.integers(first + 1, L))
        kind = data.draw(st.sampled_from(["drawn", "censored first", "at risk"]))
        if kind == "censored first":
            cause = ds.cause.copy()
            cause[:data.draw(st.integers(1, len(ds)))] = 0
            ds = dataset(ds.time, cause)
        elif kind == "at risk":
            assume(last < L)
            ds = dataset(data.draw(st.lists(
                st.floats(grid.cuts[last], grid.max_time, exclude_min=True),
                min_size=len(ds), max_size=len(ds))), ds.cause)
        F = cif_matrix(data.draw, len(ds), L)
        g = censoring(data.draw, ds, grid) or censoring_survival(ds, grid)
        cause = data.draw(st.integers(1, 2))
        t0, t_max = grid.cuts[first], grid.cuts[last]
        expected = ref_score_cif(F, records(ds), cause, grid, g=g, t0=t0, t_max=t_max)
        T = last - first + 1
        for cells in (T, 2 * T + 1, 7 * T):
            with mock.patch.object(fcrn.metrics, "SCORE_CELLS", cells):
                got = score_cif(F, ds, cause, grid, g=g, t0=t0, t_max=t_max)
            assert same_bits(got.values, expected.values)
            assert same_bits(got.ibs, expected.ibs)

    def test_large_cohort(self):
        # past 128 subjects np.mean's pairwise sum splits into blocks
        rng = np.random.RandomState(4)
        grid = build_time_grid(100, 5)
        outcomes = [(float(rng.choice([rng.uniform(0, 100), 35.0])),
                     int(rng.randint(0, 3))) for _ in range(3000)]
        ds = dataset(*zip(*outcomes))
        F = rng.uniform(size=(3000, grid.n_intervals + 1))
        for g in (None, censoring_survival(ds, grid)):
            for cause in (1, 2):
                got = score_cif(F, ds, cause, grid, g=g, t0=10.0, t_max=90.0)
                expected = ref_score_cif(F, records(ds), cause, grid, g=g, t0=10.0,
                                         t_max=90.0)
                assert same_bits(got.values, expected.values)
                assert same_bits(got.ibs, expected.ibs)

    @PROPERTY
    @given(st.data())
    def test_single_time_scores(self, data):
        grid = data.draw(grids())
        ds = data.draw(cohorts(grid))
        preds = cif_matrix(data.draw, len(ds), 0)[:, 0]
        g = censoring(data.draw, ds, grid) or censoring_survival(ds, grid)
        t = data.draw(st.one_of(st.sampled_from(grid.cuts.tolist()),
                                st.floats(0.0, grid.max_time)))
        assert same_bits(brier_at(t, preds, ds, 1), ref_brier(t, preds, records(ds), 1))
        assert same_bits(brier_ipcw_at(t, preds, ds, 1, g, grid),
                         ref_brier_ipcw(t, preds, records(ds), 1, g, grid))

    def test_squares_like_the_loop_where_x_times_x_differs(self):
        # the loop squares with C pow(), which rounds some squares
        # differently from x * x
        fs = np.random.RandomState(0).uniform(0, 1, 20000).tolist()
        f = next(f for f in fs if (1.0 - f) ** 2 != (1.0 - f) * (1.0 - f))
        grid = build_time_grid(2.0, 1.0)
        ds = dataset([1.0], [1])
        g = CensoringSurvival(g=np.ones(3))
        assert same_bits(brier_ipcw_at(1.0, [f], ds, 1, g, grid),
                         ref_brier_ipcw(1.0, [f], records(ds), 1, g, grid))


# ---------------------------------------------------------------------------
# CSV readers
# ---------------------------------------------------------------------------

CELL = st.one_of(st.floats(allow_nan=False).map(repr), st.just(""),
                 st.integers(-5, 5).map(str),
                 st.sampled_from(["1e-3", " 2 ", "inf", "nan", "-nan", "1e400"]))


def assert_same_subjects(ds, expected):
    """A Dataset holds the same subjects, bit for bit, as reference Records."""
    assert len(ds) == len(expected)
    assert ds.time.dtype == np.float64 and ds.cause.dtype == np.int64
    for x, y in zip(records(ds), expected):
        assert (x.id, x.time, x.cause) == (y.id, y.time, y.cause)
        assert x.missing_mask.tolist() == y.missing_mask.tolist()
        assert same_bits(x.x, y.x)
        assert [c[0] for c in x.curves] == [c[0] for c in y.curves]
        for c, d in zip(x.curves, y.curves):
            assert same_bits(c[1], d[1]) and same_bits(c[2], d[2])


def outcome(read, *args):
    """A reader's result, or its DataError message."""
    try:
        return read(*args)
    except DataError as e:
        return str(e)


class TestReadersMatchLoop:
    @PROPERTY
    @given(n=st.integers(0, 12), p=st.integers(0, 3), data=st.data())
    def test_subjects(self, n, p, data):
        rows = [["s%d" % i,
                 data.draw(st.one_of(st.floats(0, 50).map(repr),
                                     st.sampled_from(["-1.0", "x", "3", "nan", "inf",
                                                      "1e400"]))),
                 data.draw(st.sampled_from(["0", "1", "2", "-1", "1.0"]))]
                + data.draw(st.lists(CELL | st.just("bad"), min_size=p, max_size=p))
                for i in range(n)]
        if rows and data.draw(st.booleans()):
            rows[data.draw(st.integers(0, n - 1))].append("extra")
        if n > 1 and data.draw(st.booleans()):  # a repeated id
            rows[data.draw(st.integers(1, n - 1))][0] = rows[0][0]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "subjects.csv")
            with open(path, "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(["id", "time", "cause"] + ["x%d" % j for j in range(p)])
                w.writerows(rows)
            got = outcome(read_subjects_csv, path)
            expected = outcome(ref_read_subjects_csv, path)
        if isinstance(expected, str):
            assert got == expected
        else:
            assert not isinstance(got, str), got
            assert_same_subjects(got, expected)

    @PROPERTY
    @given(data=st.data())
    def test_curves(self, data):
        n = data.draw(st.integers(1, 5))
        tau = st.one_of(st.sampled_from(["0.0", "1.0", "0.5"]), st.floats(0, 1).map(repr))
        if data.draw(st.booleans()):
            # 2-4 numeric points of every drawn signal per subject, shuffled
            names = data.draw(st.lists(st.sampled_from(["b", "a", "c"]), min_size=1,
                                       unique=True))
            value = st.one_of(st.floats(allow_nan=False).map(repr), st.just("0.25"))
            spread = st.one_of(st.floats(0, 1).map(repr), st.floats(0, 1).map(repr), tau)
            rows = [["s%d" % i, name, data.draw(spread), data.draw(value)]
                    for i in range(n) for name in names
                    for _ in range(data.draw(st.integers(2, 4)))]
            if data.draw(st.booleans()):  # one subject lacks one signal
                gone = ["s%d" % data.draw(st.integers(0, n - 1)),
                        data.draw(st.sampled_from(names))]
                rows = [row for row in rows if row[:2] != gone]
            rows = data.draw(st.permutations(rows))
        else:
            value = st.one_of(CELL, st.just("0.25"))
            rows = [[data.draw(st.sampled_from(["s%d" % i for i in range(n + 1)])),
                     data.draw(st.sampled_from(["b", "a", "c"])), data.draw(tau),
                     data.draw(value)]
                    for _ in range(data.draw(st.integers(0, 30)))]
            if rows and data.draw(st.booleans()):
                rows[data.draw(st.integers(0, len(rows) - 1))].pop()

        def cohort():
            return dataset([1.0] * n, [0] * n)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "curves.csv")
            with open(path, "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(["id", "signal_name", "tau", "value"])
                w.writerows(rows)
            expected = outcome(ref_read_curves_csv, path, records(cohort()))
            for chunk_rows in (1, 3, fcrn.data.CSV_CHUNK_ROWS):
                with mock.patch.object(fcrn.data, "csv_columns", functools.partial(
                        csv_columns, chunk_rows=chunk_rows)):
                    got = outcome(read_curves_csv, path, cohort())
                if isinstance(expected, str):
                    assert got == expected, chunk_rows
                else:
                    assert not isinstance(got, str), (chunk_rows, got)
                    assert_same_subjects(got, expected)

    def test_simulated_files(self, tmp_path):
        from fcrn.simulate import SimConfig, simulate
        train, _, _ = simulate(SimConfig(n=40, n_train=30, n_test=10, seed=3,
                                         missing_rate=0.2))
        write_subjects_csv(tmp_path / "s.csv", train)
        write_curves_csv(tmp_path / "c.csv", train)
        got = read_subjects_csv(tmp_path / "s.csv")
        expected = ref_read_subjects_csv(tmp_path / "s.csv")
        got = read_curves_csv(tmp_path / "c.csv", got)
        ref_read_curves_csv(tmp_path / "c.csv", expected)
        assert_same_subjects(got, expected)


# ---------------------------------------------------------------------------
# predictions writer and streaming reader
# ---------------------------------------------------------------------------

IDS = st.text(alphabet=st.sampled_from('ab1 ,"\r\n;\'x%'), max_size=6)


@st.composite
def prediction_sets(draw):
    grid = draw(grids())
    ids = draw(st.lists(IDS, max_size=8, unique=True))
    head = draw(st.sampled_from(["csm", "sdm"]))
    if head == "csm":
        M = draw(st.integers(1, 3))
        names = ["cif_%d" % m for m in range(1, M + 1)] + ["survival"]
    else:
        names = ["cif_%d" % draw(st.integers(1, 3))]
    columns = [cif_matrix(draw, len(ids), grid.n_intervals) for _ in names]
    for col in columns:
        col[col == 1.0] = draw(st.sampled_from([-0.0, 1e-300, 1.0 / 3.0]))
    return grid, ids, names, columns


class TestPredictionsFile:
    @PROPERTY
    @given(prediction_sets(), st.data())
    def test_writer_matches_csv_writer(self, case, data):
        # the subjects split into consecutive blocks, empty ones too
        grid, ids, names, columns = case
        cuts = [0, *sorted(data.draw(st.lists(st.integers(0, len(ids)), max_size=3))),
                len(ids)]
        blocks = [(ids[lo:hi], [col[lo:hi] for col in columns])
                  for lo, hi in zip(cuts, cuts[1:])]
        with tempfile.TemporaryDirectory() as tmp:
            got, expected = os.path.join(tmp, "a.csv"), os.path.join(tmp, "b.csv")
            write_predictions(got, grid, names, blocks)
            ref_write_predictions(expected, ids, grid, names, columns)
            with open(got, "rb") as a, open(expected, "rb") as b:
                assert a.read() == b.read()

    def test_empty_dataset_is_header_only(self, tmp_path):
        grid = build_time_grid(10, 5)
        empty = [np.zeros((0, 3))] * 3
        write_predictions(tmp_path / "a.csv", grid, ["cif_1", "cif_2", "survival"],
                          [([], empty)])
        assert (tmp_path / "a.csv").read_bytes() == \
            b"id,interval,time,cif_1,cif_2,survival\r\n"

    @PROPERTY
    @given(prediction_sets(), st.integers(1, 7))
    def test_streaming_reader_round_trips(self, case, chunk_rows):
        grid, ids, names, columns = case
        if not ids:
            return
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "p.csv")
            write_predictions(path, grid, names, [(ids, columns)])
            causes, F = read_predictions(path, ids, grid, chunk_rows=chunk_rows)
        cifs = [k for k, name in enumerate(names) if name.startswith("cif_")]
        assert causes == [int(names[k][4:]) for k in cifs]
        assert F.shape == (len(cifs), len(ids), grid.n_intervals + 1)
        for F_m, k in zip(F, cifs):
            assert not F_m[:, 0].any()
            assert same_bits(F_m[:, 1:], columns[k][:, 1:])

    def test_reader_reports_the_row_of_a_bad_cell(self, tmp_path):
        grid = build_time_grid(10, 5)
        columns = [np.full((3, 3), 0.25)]
        write_predictions(tmp_path / "p.csv", grid, ["cif_1"],
                          [(["a", "b", "c"], columns)])
        lines = (tmp_path / "p.csv").read_text().splitlines()
        lines[5] = lines[5].replace("0.25", "oops")
        (tmp_path / "p.csv").write_text("\n".join(lines) + "\n")
        for chunk_rows in (1, 4, 100):
            with pytest.raises(DataError) as e:
                read_predictions(tmp_path / "p.csv", ["a", "b", "c"], grid,
                                 chunk_rows=chunk_rows)
            assert "row 6 column cif_1: bad numeric cell 'oops'" in str(e.value)

    @PROPERTY
    @given(prediction_sets(), st.data())
    def test_malformed_rows_match_the_row_loop(self, case, data):
        # only cells that fail to parse, so no per-block grid check (exit 5)
        # can fire first, and every block size must give the same message
        grid, ids, names, columns = case
        if not ids:
            return
        bad = st.sampled_from(["", "x", "1,5", "0x10", "--1", "nan", "inf", "-inf",
                               "1e400"])
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "p.csv")
            write_predictions(path, grid, names, [(ids, columns)])
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
            for _ in range(data.draw(st.integers(1, 3))):
                row = rows[data.draw(st.integers(1, len(rows) - 1))]
                kind = data.draw(st.sampled_from(["ragged", "interval", "time", "value"]))
                if len(row) != len(rows[0]):
                    continue  # already ragged
                if kind == "ragged":  # cells added or cut at the end
                    if data.draw(st.booleans()):
                        row.extend(["0.5"] * data.draw(st.integers(1, 2)))
                    else:
                        del row[data.draw(st.integers(0, 3)):]
                elif kind == "interval":
                    row[1] = data.draw(bad | st.just("1.5"))
                elif kind == "time":
                    row[2] = data.draw(bad)
                else:  # a cif_ or the survival cell
                    row[data.draw(st.integers(3, len(row) - 1))] = data.draw(bad)
            with open(path, "w", newline="") as fh:
                csv.writer(fh).writerows(rows)
            expected = str(ref_prediction_row_error(path))
            for chunk_rows in range(1, 8):
                assert outcome(read_predictions, path, ids, grid, chunk_rows) == expected


# ---------------------------------------------------------------------------
# subjects and curves writers
# ---------------------------------------------------------------------------

NUMBER = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from([-0.0, 0.0, 1e-300, 1.0 / 3.0]))
TAU = st.one_of(st.floats(0.0, 1.0), st.sampled_from([-0.0, 0.0, 0.5, 1.0]))


@st.composite
def written_datasets(draw, readable=False):
    """Datasets for the writers: ids and names that need quoting, hold % or
    are empty, missing (NaN) covariate cells, signed zeros among times,
    covariates, taus and values, and signals whose point counts differ by
    subject. A readable one is what the readers give back: every curve has
    2 or more strictly increasing taus in [0, 1], and the signals are in
    name order; one of no subjects has no signal, as a curves file of no
    rows holds none."""
    n = draw(st.integers(0, 6))
    p = draw(st.integers(0, 3))
    ids = draw(st.lists(IDS, min_size=n, max_size=n, unique=True))
    time = st.one_of(st.floats(0.0, 100.0), st.sampled_from([-0.0, 0.0]))
    cells = st.lists(st.one_of(NUMBER, st.just(np.nan)), min_size=p, max_size=p)
    X = np.array(draw(st.lists(cells, min_size=n, max_size=n)), dtype=np.float64)
    names = draw(st.lists(st.sampled_from(["hr", "b,p", 'q"t', "", "x\ny", "%s %%"]),
                          max_size=3 if n or not readable else 0, unique=True))
    signals = {}
    for name in sorted(names) if readable else names:
        if readable:
            curves = [sorted(draw(st.lists(TAU, min_size=2, max_size=5, unique=True)))
                      for _ in range(n)]
        else:
            curves = draw(st.lists(st.lists(TAU | NUMBER, max_size=5), min_size=n,
                                   max_size=n))
        counts = [len(c) for c in curves]
        values = draw(st.lists(NUMBER, min_size=sum(counts), max_size=sum(counts)))
        signals[name] = Signal(np.array(sum(curves, []), dtype=np.float64),
                               np.array(values, dtype=np.float64),
                               np.concatenate([[0], np.cumsum(counts)]).astype(np.intp))
    return dataset(draw(st.lists(time, min_size=n, max_size=n)),
                   draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)),
                   X.reshape(n, p), ids, signals)


class TestSubjectAndCurveFiles:
    WRITERS = [(write_subjects_csv, ref_write_subjects_csv),
               (write_curves_csv, ref_write_curves_csv)]

    @PROPERTY
    @given(written_datasets())
    @example(dataset([], [], np.zeros((0, 2)), signals={
        "hr": Signal(np.zeros(0), np.zeros(0), np.zeros(1, dtype=np.intp))}))
    @example(dataset([2.5, -0.0], [1, 0], np.zeros((2, 0))))
    def test_writers_match_csv_writer_at_every_block_size(self, ds):
        with tempfile.TemporaryDirectory() as tmp:
            expected, got = os.path.join(tmp, "a.csv"), os.path.join(tmp, "b.csv")
            for write, ref_write in self.WRITERS:
                ref_write(expected, ds)
                with open(expected, "rb") as fh:
                    text = fh.read()
                # one subject per block, 2-4 per subjects block, the default
                for cells in (1, 12, fcrn.data.WRITE_CELLS):
                    with mock.patch.object(fcrn.data, "WRITE_CELLS", cells):
                        write(got, ds)
                    with open(got, "rb") as fh:
                        assert fh.read() == text, (write.__name__, cells)

    @PROPERTY
    @given(written_datasets(readable=True))
    def test_written_files_read_back_as_the_dataset(self, ds):
        with tempfile.TemporaryDirectory() as tmp:
            subjects, curves = os.path.join(tmp, "s.csv"), os.path.join(tmp, "c.csv")
            write_subjects_csv(subjects, ds)
            write_curves_csv(curves, ds)
            got = read_curves_csv(curves, read_subjects_csv(subjects))
        assert_same_subjects(got, records(ds))
        assert list(got.signals) == list(ds.signals)
        for name, sig in ds.signals.items():
            assert all(same_bits(a, b) for a, b in zip(got.signals[name], sig))


# ---------------------------------------------------------------------------
# the writers' float format
# ---------------------------------------------------------------------------

# signed zero, the least subnormal, the least normal, the greatest finite,
# the float below 1, and a decimal that no binary64 holds exactly
EDGES = [-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
         float(np.nextafter(1.0, 0.0)), 0.1]
FINITE = st.one_of(st.sampled_from(EDGES + [-v for v in EDGES]),
                   st.floats(allow_nan=False, allow_infinity=False))


class TestLosslessFloatFormat:
    """Every finite binary64 that a writer formats reads back as the same
    bits: a value cell holds 17 significant digits (%.17g), which round-trip
    every binary64 (IEEE 754-2008 5.12.2; Steele & White, PLDI 1990)."""

    @PROPERTY
    @given(st.data())
    def test_every_writer_reads_back_every_value_bit_for_bit(self, data):
        n = data.draw(st.integers(1, 5))
        p = data.draw(st.integers(1, 3))

        def draw_values(shape, strategy=FINITE):
            size = int(np.prod(shape))
            return np.array(data.draw(st.lists(strategy, min_size=size, max_size=size)),
                            dtype=np.float64).reshape(shape)

        time = draw_values(n, st.one_of(st.sampled_from(EDGES), st.floats(
            min_value=0.0, allow_infinity=False)))
        X = draw_values((n, p), FINITE | st.just(np.nan))
        counts = data.draw(st.lists(st.integers(2, 4), min_size=n, max_size=n))
        taus = np.concatenate([np.linspace(0.0, 1.0, c) for c in counts])
        signals = {"hr": Signal(taus, draw_values(len(taus)),
                                np.concatenate([[0], np.cumsum(counts)]).astype(np.intp))}
        ds = dataset(time, [0] * n, X, signals=signals)
        grid = data.draw(grids())
        names = ["cif_%d" % m for m in range(1, data.draw(st.integers(1, 3)) + 1)]
        columns = [draw_values((n, grid.n_intervals + 1)) for _ in names]
        with tempfile.TemporaryDirectory() as tmp:
            subjects, curves, preds = (os.path.join(tmp, name)
                                       for name in ("s.csv", "c.csv", "p.csv"))
            write_subjects_csv(subjects, ds)
            write_curves_csv(curves, ds)
            write_predictions(preds, grid, names, [(ds.ids, columns)])
            got = read_curves_csv(curves, read_subjects_csv(subjects))
            causes, F = read_predictions(preds, ds.ids, grid)
        assert same_bits(got.time, time)
        assert (got.mask == ds.mask).all()
        assert same_bits(got.X[~ds.mask], X[~ds.mask])
        assert same_bits(got.signals["hr"].values, signals["hr"].values)
        assert causes == list(range(1, len(names) + 1))
        for F_m, col in zip(F, columns):
            assert same_bits(F_m[:, 1:], col[:, 1:])
