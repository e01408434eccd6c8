"""The CSV readers where np.loadtxt and csv.reader read a text differently.

csv_columns parses each block of lines with np.loadtxt, and csv.reader
parses the rest of the file from the first block that loadtxt rejects.
Each case below is a text on which the two parsers disagree; every reader
must give what its csv.reader loop (test_scoring_properties) gives: the
same result or the same DataError text, at every block size.
"""
import csv
import functools
import itertools
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from conftest import dataset, records
from test_scoring_properties import (assert_same_subjects, outcome,
                                     ref_prediction_row_error, ref_read_curves_csv,
                                     ref_read_subjects_csv, same_bits)

import fcrn.data
from fcrn.cli import CliError, read_predictions
from fcrn.data import (OPTIONAL_FLOAT, DataError, build_time_grid, csv_columns,
                       read_curves_csv, read_subjects_csv)

BLOCK_SIZES = range(1, 8)

SUBJECTS = ["id,time,cause,x1,x2", "s0,1.5,1,0.25,", "s1,2.0,0,nan,-3",
            "s2,0.5,2,1e-3,7", "s3,3.25,1,,0.5", "s4,4.0,0,2,2"]
CURVES = ["id,signal_name,tau,value"] + ["s%d,a,%s,%s" % (i, tau, value)
                                         for i in range(3)
                                         for tau, value in [("0.0", "0.5"),
                                                            ("0.5", "-1.25"),
                                                            ("1.0", "2")]]
# ten intervals of width 5, so an interval of 10 and a time of 50 are on it
GRID = build_time_grid(50.0, 5.0)
PREDICTIONS = ["id,interval,time,cif_1,survival"] + [
    "s%d,%d,%r,%r,%r" % (i, t, 5.0 * t, 0.01 * t + i / 10, 0.5 - 0.01 * t)
    for i in range(3) for t in range(1, 11)]


def write(tmp_path, lines, end="\r\n", last_end=True):
    """The file of lines, each ended by end (the last one only if last_end)."""
    path = tmp_path / "f.csv"
    with open(path, "w", newline="") as fh:
        fh.write(end.join(lines) + (end if last_end else ""))
    return path


def replaced(lines, row, column, text):
    """lines with the cell of a row (the header is row 1) set to text."""
    cells = lines[row - 1].split(",")
    cells[column] = text
    return lines[:row - 1] + [",".join(cells)] + lines[row:]


def block_sizes(monkeypatch):
    """Each block size in turn, with csv_columns reading blocks of that
    many lines."""
    for k in BLOCK_SIZES:
        monkeypatch.setattr(fcrn.data, "csv_columns",
                            functools.partial(csv_columns, chunk_rows=k))
        yield k


def assert_subjects_match(monkeypatch, path):
    """read_subjects_csv gives the loop's subjects or DataError at every
    block size."""
    expected = outcome(ref_read_subjects_csv, path)
    for k in block_sizes(monkeypatch):
        got = outcome(read_subjects_csv, path)
        if isinstance(expected, str):
            assert got == expected, k
        else:
            assert not isinstance(got, str), (k, got)
            assert_same_subjects(got, expected)
    return expected


def assert_curves_match(monkeypatch, path, ids):
    """read_curves_csv gives the loop's curves or DataError at every block
    size, for a cohort of the given ids."""
    def cohort():
        return dataset([1.0] * len(ids), [0] * len(ids), ids=ids)
    expected = outcome(ref_read_curves_csv, path, records(cohort()))
    for k in block_sizes(monkeypatch):
        got = outcome(read_curves_csv, path, cohort())
        if isinstance(expected, str):
            assert got == expected, k
        else:
            assert not isinstance(got, str), (k, got)
            assert_same_subjects(got, expected)
    return expected


def ref_read_predictions(path, ids):
    """The CIF matrices of a predictions CSV read row by row with
    csv.reader, or the DataError text of its first malformed row."""
    error = ref_prediction_row_error(path)
    if error:
        return str(error)
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    cifs = [k for k, name in enumerate(header) if name.startswith("cif_")]
    F = np.zeros((len(cifs), len(ids), GRID.n_intervals + 1))
    for row in rows:
        for F_m, k in zip(F, cifs):
            F_m[ids.index(row[0]), int(row[1])] = float(row[k])
    return F


def assert_predictions_match(path, ids):
    expected = ref_read_predictions(path, ids)
    for k in BLOCK_SIZES:
        got = outcome(read_predictions, path, ids, GRID, k)
        if isinstance(expected, str):
            assert got == expected, k
        else:
            assert not isinstance(got, str), (k, got)
            assert same_bits(got[1], expected)
    return expected


class TestLineShapes:
    """Blank and whitespace lines, line ends, and files of a header only."""

    @pytest.mark.parametrize("at", [3, None])
    @pytest.mark.parametrize("blank", ["", "  ", "\t"])
    def test_blank_or_whitespace_line(self, tmp_path, monkeypatch, at, blank):
        # np.loadtxt skips a blank line; csv.reader reads a row of no cells
        def insert(lines):
            return lines[:at] + [blank] + lines[at:] if at else lines + [blank]
        expected = assert_subjects_match(monkeypatch, write(tmp_path, insert(SUBJECTS)))
        assert "expected 5 cells, got %d" % (1 if blank else 0) in expected
        expected = assert_curves_match(monkeypatch, write(tmp_path, insert(CURVES)),
                                       ["s0", "s1", "s2"])
        assert "expected 4 cells, got" in expected
        expected = assert_predictions_match(write(tmp_path, insert(PREDICTIONS)),
                                            ["s0", "s1", "s2"])
        assert "expected 5 cells, got" in expected

    @pytest.mark.parametrize("end", ["\r", "\n", "\r\n"])
    def test_line_ends(self, tmp_path, monkeypatch, end):
        ds = assert_subjects_match(monkeypatch, write(tmp_path, SUBJECTS, end))
        assert len(ds) == 5
        ds = assert_curves_match(monkeypatch, write(tmp_path, CURVES, end),
                                 ["s0", "s1", "s2"])
        assert len(ds[0].curves) == 1
        assert_predictions_match(write(tmp_path, PREDICTIONS, end), ["s0", "s1", "s2"])

    def test_last_line_without_its_end(self, tmp_path, monkeypatch):
        path = write(tmp_path, SUBJECTS, last_end=False)
        assert len(assert_subjects_match(monkeypatch, path)) == 5

    def test_header_only_file_warns_nothing(self, tmp_path, monkeypatch):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert assert_subjects_match(monkeypatch, write(tmp_path, SUBJECTS[:1])) == []
            cohort = assert_curves_match(monkeypatch, write(tmp_path, CURVES[:1]), ["s0"])
            assert cohort[0].curves == []
            with pytest.raises(CliError, match="no predictions for 1 subject"):
                read_predictions(write(tmp_path, PREDICTIONS[:1]), ["s0"], GRID)


class TestNumbers:
    """Cells that Python's float and int read otherwise than np.loadtxt."""

    @pytest.mark.parametrize("text", ["1_0", "\u0661", " 2 ", "1\x1c", "\x1f1",
                                      "nan", "-nan", "inf", "-inf", "1e400", "0x10"])
    def test_float_cells(self, tmp_path, monkeypatch, text):
        for row, column in [(2, 1), (3, 3), (4, 4)]:
            assert_subjects_match(monkeypatch,
                                  write(tmp_path, replaced(SUBJECTS, row, column, text)))
        for row, column in [(2, 2), (6, 3)]:
            assert_curves_match(monkeypatch,
                                write(tmp_path, replaced(CURVES, row, column, text)),
                                ["s0", "s1", "s2"])
        for row, column in [(5, 3), (12, 4)]:
            assert_predictions_match(write(tmp_path, replaced(PREDICTIONS, row, column,
                                                              text)),
                                     ["s0", "s1", "s2"])

    def test_python_only_floats_parse(self, tmp_path, monkeypatch):
        # Python's float reads 1_0 as 10 and the Arabic-Indic one as 1
        lines = replaced(replaced(SUBJECTS, 2, 1, "1_0"), 4, 3, "\u0661")
        ds = assert_subjects_match(monkeypatch, write(tmp_path, lines))
        assert ds[0].time == 10.0 and ds[2].x[0] == 1.0

    @pytest.mark.parametrize("text, value", [("1_0", 10), ("\u0661", 1), ("+1", 1),
                                             (" 1", 1), (str(2 ** 63 - 1), 2 ** 63 - 1)])
    def test_python_only_ints_parse(self, tmp_path, monkeypatch, text, value):
        ds = assert_subjects_match(monkeypatch,
                                   write(tmp_path, replaced(SUBJECTS, 3, 2, text)))
        assert ds[1].cause == value
        if value == 10:  # interval 10 is on the grid
            F = assert_predictions_match(
                write(tmp_path, replaced(PREDICTIONS, 11, 1, text)), ["s0", "s1", "s2"])
            assert F[0, 0, 10] == 0.01 * 10

    @pytest.mark.parametrize("text", ["1.0", "1\x1e", str(2 ** 63), str(-2 ** 63 - 1),
                                      "99999999999999999999"])
    def test_bad_int_cells(self, tmp_path, monkeypatch, text):
        # an integer past 64 bits is bad, though Python's int reads it
        path = write(tmp_path, replaced(SUBJECTS, 3, 2, text))
        for _ in block_sizes(monkeypatch):
            assert outcome(read_subjects_csv, path) == \
                "%s row 3 column cause: bad numeric cell %r" % (path, text)
        path = write(tmp_path, replaced(PREDICTIONS, 11, 1, text))
        for k in BLOCK_SIZES:
            assert outcome(read_predictions, path, ["s0", "s1", "s2"], GRID, k) == \
                "%s row 11 column interval: bad numeric cell %r" % (path, text)


class TestQuotes:
    """Quoted cells: commas, doubled quotes and line breaks inside them."""

    IDS = ['"a,b"', '"a""b"', '"a\r\nb"', '"a\nb"', '"\r\n"', '"x"y', 'x"y', '" s"']

    @pytest.mark.parametrize("quoted", IDS)
    def test_quoted_ids(self, tmp_path, monkeypatch, quoted):
        # the id sits in the middle of each file, so with blocks of 1 to 7
        # lines a quoted line break spans a block's end
        sid = next(csv.reader([quoted]))[0]
        subjects = replaced(SUBJECTS, 4, 0, quoted)
        ds = assert_subjects_match(monkeypatch, write(tmp_path, subjects))
        assert ds[2].id == sid
        ids = ["s0", sid, "s2"]
        curves = [line.replace("s1,", quoted + ",") for line in CURVES]
        ds = assert_curves_match(monkeypatch, write(tmp_path, curves), ids)
        assert [len(s.curves) for s in ds] == [1, 1, 1]
        predictions = [line.replace("s1,", quoted + ",") for line in PREDICTIONS]
        F = assert_predictions_match(write(tmp_path, predictions), ids)
        assert F[0, 1, 1] == 0.01 + 1 / 10

    @pytest.mark.parametrize("end", ["\r\n", "\n"])
    def test_quoted_last_cell_spanning_lines(self, tmp_path, monkeypatch, end):
        # a quoted cell open at a line's end takes the next line in: 0.5 and a
        # line break is a number to Python's float, and 0.5 and 1 is not
        for text, good in [('"0.5' + end + '"', True), ('"0.5' + end + '1"', False)]:
            ds = assert_curves_match(monkeypatch,
                                     write(tmp_path, replaced(CURVES, 5, 3, text)),
                                     ["s0", "s1", "s2"])
            assert isinstance(ds, str) != good
            ds = assert_subjects_match(monkeypatch,
                                       write(tmp_path, replaced(SUBJECTS, 3, 4, text)))
            assert isinstance(ds, str) != good

    def test_open_quote_at_the_end_of_the_file(self, tmp_path, monkeypatch):
        path = write(tmp_path, SUBJECTS[:-1] + ['s4,4.0,0,2,"2'], last_end=False)
        assert assert_subjects_match(monkeypatch, path)[-1].x[1] == 2.0

    def test_line_longer_than_the_csv_field_limit(self, tmp_path, monkeypatch):
        # csv.reader raises csv.Error for a longer cell; the readers raise a
        # DataError that names the file and the row
        limit = csv.field_size_limit()
        path = write(tmp_path, replaced(SUBJECTS, 4, 0, "s" * (limit + 1)))
        with pytest.raises(csv.Error):
            ref_read_subjects_csv(path)
        for k in block_sizes(monkeypatch):
            with pytest.raises(DataError) as e:
                read_subjects_csv(path)
            assert str(e.value) == ("%s row 4: field larger than field limit (%d)"
                                    % (path, limit)), k

    def test_header_longer_than_the_csv_field_limit(self, tmp_path):
        limit = csv.field_size_limit()
        path = write(tmp_path, replaced(SUBJECTS, 1, 3, "x" * (limit + 1)))
        with pytest.raises(DataError) as e:
            read_subjects_csv(path)
        assert str(e.value) == ("%s row 1: field larger than field limit (%d)"
                                % (path, limit))


KINDS = [str, int, float, OPTIONAL_FLOAT]
PIECES = st.sampled_from(['"', '""', ",", ",", "a", "1", "0.5", "-", "e", " ", "\t",
                          "\r", "\n", "\r\n", "nan", "inf", "1e400", "_", "\u0661",
                          "\x1c", "\x0c", "\u2003", "\u2028", "\x00"])
ROW = st.lists(st.lists(PIECES, max_size=4).map("".join), min_size=3,
               max_size=5).map(",".join)


def blocks_or_error(read):
    """The (row, columns) blocks that read() yields, or its error's text."""
    try:
        return list(read())
    except (DataError, csv.Error) as e:
        return "%s: %s" % (type(e).__name__, e)


def csv_reader_blocks(path, chunk_rows):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        yield from fcrn.data._read_blocks(path, reader, header, KINDS, chunk_rows, 2)


def loadtxt_blocks(path, chunk_rows):
    with open(path, newline="") as fh:
        header = next(csv.reader(fh))
        yield from csv_columns(path, fh, header, KINDS, chunk_rows)


def rows_of(blocks):
    """The rows of csv_columns blocks, whatever the block size."""
    return [tuple(cells) for _, columns in blocks
            for cells in zip(*[col.tolist() for col in columns])]


@settings(derandomize=True, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(rows=st.lists(ROW | st.sampled_from(["s,1,0.5,", "s,-2,1e-3,nan", "s,0,1,2"]),
                     max_size=12),
       end=st.sampled_from(["\r\n", "\n", "\r"]), last_end=st.booleans())
def test_csv_columns_reads_what_csv_reader_reads(tmp_path, rows, end, last_end):
    # random texts of quotes, separators, line breaks and numbers: the
    # np.loadtxt path must give the csv.reader path's rows, row numbers and
    # errors at every block size (NaN compares equal through repr)
    path = tmp_path / "f.csv"
    with open(path, "w", newline="") as fh:
        fh.write("id,n,x,y" + end + end.join(rows) + (end if last_end else ""))
    for k in (1, 3, 512):
        expected = blocks_or_error(lambda: csv_reader_blocks(path, k))
        got = blocks_or_error(lambda: loadtxt_blocks(path, k))
        if isinstance(expected, str):
            assert got == expected
        else:
            assert [line for line, _ in got] == [line for line, _ in expected]
            assert repr(rows_of(got)) == repr(rows_of(expected))
            for g, e in zip(itertools.chain(*(c for _, c in got)),
                            itertools.chain(*(c for _, c in expected))):
                assert g.dtype == e.dtype
                if g.dtype == np.float64:
                    assert same_bits(g, e)
