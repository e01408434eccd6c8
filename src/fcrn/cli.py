"""Command-line entry point: simulate / train / predict / evaluate.

Exit codes: 0 ok, 2 I/O or memory failure, 3 schema violation, 4 numeric
failure, 5 grid/horizon incompatibility. Every run writes its resolved config
beside its outputs so artifacts are reproducible from config + seed.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import os
import sys

import numpy as np

from .config import ConfigError, dump_config, load_config
from .data import (CSV_CHUNK_ROWS, GRID_TOL, DataError, build_time_grid,
                   csv_columns, csv_fields, fraction_digits, open_csv,
                   read_curves_csv, read_subjects_csv, run_codes,
                   write_curves_csv, write_subjects_csv, censoring_survival)
from .impute import iro_train
from .metrics import evaluation_columns, ibs, score_cif
from .model import (FCRNModel, NormalizationError, NumericError, TrainSettings,
                    train_model)
from .simulate import SimConfig, simulate

EXIT_IO = 2
EXIT_SCHEMA = 3
EXIT_NUMERIC = 4
EXIT_COMPAT = 5


class CliError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def _ensure_outdir(cfg):
    out = cfg["out_dir"]
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as e:
        raise CliError(EXIT_IO, "cannot create output directory %s: %s" % (out, e))
    return out


def _load_dataset(cfg, need_curves):
    """The subjects file as a Dataset, with the curves file's signals when
    need_curves and data.curves are set. main maps a DataError to exit 3."""
    path = cfg["data"]["subjects"]
    if not path:
        raise CliError(EXIT_IO, "config data.subjects is required")
    ds = read_subjects_csv(path)
    curves_path = cfg["data"]["curves"]
    if curves_path and need_curves:
        ds = read_curves_csv(curves_path, ds)
    return ds


def _check_times(ds, max_time, code, message):
    """Exit with code, naming the first subject observed past max_time + GRID_TOL."""
    beyond = np.flatnonzero(ds.time > max_time + GRID_TOL)
    if len(beyond):
        k = beyond[0]
        raise CliError(code, "subject %s time %g %s" % (ds.ids[k], ds.time[k], message))


def _settings(cls, section, **given):
    """A settings dataclass from the config section's keys that name its
    fields (lists as tuples), the given fields overriding."""
    names = {f.name for f in dataclasses.fields(cls)}
    values = {k: tuple(v) if isinstance(v, list) else v
              for k, v in section.items() if k in names}
    return cls(**{**values, **given})


def cmd_simulate(cfg):
    sim = cfg["simulate"]
    if sim["n"] != sim["n_train"] + sim["n_test"]:
        raise CliError(EXIT_SCHEMA, "config key 'simulate.n' is %d but simulate."
                       "n_train + simulate.n_test is %d"
                       % (sim["n"], sim["n_train"] + sim["n_test"]))
    out = _ensure_outdir(cfg)
    sc = _settings(SimConfig, sim, seed=cfg["seed"])
    train, test, manifest = simulate(sc)
    write_subjects_csv(os.path.join(out, "train_subjects.csv"), train)
    write_subjects_csv(os.path.join(out, "test_subjects.csv"), test)
    if sc.functional:
        write_curves_csv(os.path.join(out, "train_curves.csv"), train)
        write_curves_csv(os.path.join(out, "test_curves.csv"), test)
    dump_config(os.path.join(out, "manifest.json"), manifest)
    dump_config(os.path.join(out, "config.resolved.json"), cfg)
    print("wrote %d train / %d test subjects to %s" % (len(train), len(test), out))
    return 0


def _fit_one(cfg, ds, grid, n_basis, n_causes):
    """An imputing fit when ds has missing cells, else a complete-data fit."""
    settings = _settings(TrainSettings, cfg["train"], seed=cfg["seed"],
                         n_basis=n_basis)
    head = cfg["train"]["head"]
    kwargs = dict(n_causes=n_causes, target_cause=cfg["train"]["cause"])
    if ds.mask.any():
        return iro_train(ds, grid, head, settings, **kwargs)
    return train_model(ds, grid, head, settings, **kwargs), None


@np.errstate(over="ignore", invalid="ignore")  # a diverging fit exits 4
def cmd_train(cfg):
    out = _ensure_outdir(cfg)
    ds = _load_dataset(cfg, need_curves=cfg["train"]["use_functional"])
    if not len(ds):
        raise CliError(EXIT_SCHEMA, "%s: no subjects to train on"
                       % cfg["data"]["subjects"])
    grid = build_time_grid(cfg["grid"]["max_time"], cfg["grid"]["width"])
    _check_times(ds, grid.max_time, EXIT_SCHEMA, "exceeds grid max %g" % grid.max_time)
    mask = ds.mask
    unobserved = np.flatnonzero(mask.all(axis=0))
    if len(unobserved):
        raise CliError(EXIT_SCHEMA, "%s: covariate %d of %d is missing for every "
                       "subject" % (cfg["data"]["subjects"], unobserved[0] + 1,
                                    ds.X.shape[1]))
    # each cause a head learns needs a training event: train.cause for the sdm
    # head, 1..the largest (at least 1) for the csm head
    cause, n_causes = cfg["train"]["cause"], max(int(ds.cause.max()), 1)
    sdm = cfg["train"]["head"] == "sdm"
    absent = np.setdiff1d([cause] if sdm else np.arange(1, n_causes + 1), ds.cause)
    if len(absent):
        raise CliError(EXIT_SCHEMA, "%s: no subject has %s" % (
            cfg["data"]["subjects"], "the sdm target cause train.cause=%d" % cause
            if sdm else "cause %d of the csm head's causes 1..%d" % (absent[0], n_causes)))

    if not mask.any():
        print("no missing values; MVI skipped")

    # each basis count of the grid when there are signals to fit it to; the
    # lowest validation loss wins, the first count on a tie
    counts = cfg["train"]["basis_grid"] if ds.signals else cfg["train"]["basis_grid"][:1]
    best = None
    try:
        for d in counts:
            model, imputed = _fit_one(cfg, ds, grid, d, n_causes)
            val = min(h[2] for h in model.history)
            if len(counts) > 1:
                print("basis count %d: validation loss %.6f" % (d, val))
            if best is None or val < best[0]:
                best = (val, d, model, imputed)
    except NumericError as e:
        raise CliError(EXIT_NUMERIC, str(e))
    except NormalizationError as e:
        source, column = e.args
        raise CliError(EXIT_SCHEMA, "%s column %s: its mean or standard deviation "
                       "is not finite" % (cfg["data"][source], column))
    _, d, model, imputed = best
    if len(counts) > 1:
        print("selected basis count %d" % d)

    try:
        model.save(os.path.join(out, "model.json"))
    except ValueError as e:
        raise CliError(EXIT_NUMERIC, "cannot write %s: %s"
                       % (os.path.join(out, "model.json"), e))
    with open(os.path.join(out, "training_log.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["epoch", "train_loss", "val_loss"])
        w.writerows(model.history)
    if imputed is not None:
        np.savetxt(os.path.join(out, "imputed.csv"), imputed, delimiter=",")
        np.savetxt(os.path.join(out, "imputed_mask.csv"), mask.astype(int),
                   delimiter=",", fmt="%d")
    else:  # no earlier run's imputation stays beside this run's model
        for name in ("imputed.csv", "imputed_mask.csv"):
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(out, name))
    dump_config(os.path.join(out, "config.resolved.json"), cfg)
    print("model written to %s" % os.path.join(out, "model.json"))
    return 0


def cmd_predict(cfg, model_path):
    out = _ensure_outdir(cfg)
    model = FCRNModel.load(model_path)
    ds = _load_dataset(cfg, need_curves=bool(model.signal_specs))
    if ds.X.shape[1] != model.n_tabular:
        raise CliError(EXIT_SCHEMA, "%s has %d covariates; model %s was fitted "
                       "on %d" % (cfg["data"]["subjects"], ds.X.shape[1],
                                  model_path, model.n_tabular))
    grid = model.grid
    _check_times(ds, grid.max_time, EXIT_COMPAT,
                 "outside model grid (max %g)" % grid.max_time)
    if model.head == "csm":
        names = ["cif_%d" % m for m in range(1, model.n_causes + 1)] + ["survival"]
    else:
        names = ["cif_%d" % model.target_cause]

    def blocks():
        """Each block of subjects' ids and CIF columns: the subjects of one
        of the model's row blocks. No subjects make one empty block, so
        predict_cif still rejects a dataset that lacks a model signal."""
        L = grid.n_intervals
        for lo, hi in model.row_blocks(len(ds) * L) or [(0, 0)]:
            block = ds.take(np.arange(lo // L, hi // L))
            with np.errstate(over="ignore", invalid="ignore"):  # non-finite CIFs exit 4
                cif = model.predict_cif(block)
            columns = [*cif[1].swapaxes(0, 1), cif[0]] if model.head == "csm" else [cif]
            finite = np.logical_and.reduce([np.isfinite(col).all(axis=1)
                                            for col in columns])
            if not finite.all():
                raise CliError(EXIT_NUMERIC, "model %s gives non-finite predictions, "
                               "first for subject %r"
                               % (model_path, block.ids[np.argmin(finite)]))
            yield block.ids, columns

    path = os.path.join(out, "predictions.csv")
    write_predictions(path, grid, names, blocks())
    dump_config(os.path.join(out, "config.resolved.json"), cfg)
    print("predictions written to %s" % path)
    return 0


@contextlib.contextmanager
def _replacing(path):
    """A text file opened at path + ".tmp", which replaces path when the
    block exits; an exception, from the block or from the write, removes it
    instead, so any earlier file at path stays as it was."""
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


# a predictions cell's %-format by fraction_digits' -k: "%.17g" of the value
# at k = 0, else "0.", -k - 1 zeros and its digits; 5 more ending its row
CELL_FORMATS = np.array([cell + end for end in ("", "\r\n") for cell in
                         (",%.17g", ",0.%d", ",0.0%d", ",0.00%d", ",0.000%d")], dtype=object)


def write_predictions(path, grid, names, blocks):
    """predictions.csv: a row id,interval,time,<names> per subject and interval.

    blocks yields (ids, columns) for consecutive blocks of subjects, columns
    one (len(ids), L+1) matrix per name, column t for interval t. The file
    is what csv.writer writes for the rows [id, t, repr(time), "%.17g" %
    value, ...]: 17 significant digits, so each value reads back as the
    same binary64. Each block is formatted by one %-format of all its rows
    (see _rows_template), in which a value in [1e-4, 1), as nearly every
    CIF and survival is, is written as "0.", its zeros and its significant
    digits as one integer (fraction_digits), the very text "%.17g" gives;
    any other value is written by "%.17g" itself.
    The rows go to path + ".tmp", which replaces path after the last block
    (see _replacing); an exception, from blocks or from the write, removes
    it instead, so any earlier file at path stays as it was.
    """
    heads = np.array(["%s," + "%d,%r" % (t, float(grid.cuts[t]))
                      for t in range(1, grid.n_intervals + 1)], dtype=object)
    with _replacing(path) as fh:
        csv.writer(fh).writerow(["id", "interval", "time"] + list(names))
        for ids, columns in blocks:
            template, cells = _rows_template(heads, ids, columns)
            fh.write(template % cells)


def _rows_template(heads, ids, columns):
    """A block's rows as one %-template, heads[t - 1] then each cell's
    CELL_FORMATS entry per row, and the tuple of its arguments. The
    block's arrays are freed when it returns, before the text is made."""
    values = np.stack([col[:, 1:] for col in columns], axis=-1)
    k, digits = fraction_digits(values)
    codes = -k
    codes[:, :, -1] += 5
    formats = np.empty((len(ids), len(heads), len(columns) + 1), dtype=object)
    formats[:, :, 0] = heads
    formats[:, :, 1:] = CELL_FORMATS[codes]
    cells = np.empty_like(formats)
    cells[:, :, 0] = np.asarray(csv_fields(ids), dtype=object)[:, None]
    cells[:, :, 1:] = digits
    cells[:, :, 1:][k == 0] = values[k == 0]
    return "".join(formats.ravel().tolist()), tuple(cells.ravel().tolist())


def read_predictions(path, ids, grid, chunk_rows=CSV_CHUNK_ROWS, subjects=None):
    """Stream predictions.csv into one (n, L+1) CIF matrix per cause.

    Returns (causes, F): F[k][i, t] is column cif_<causes[k]> of subject
    ids[i] at interval t, and column 0 stays 0 (no event by time 0). Rows
    are parsed chunk_rows at a time. Exit 3 for a file that is not a
    predictions CSV or whose cif_ columns do not name distinct causes of 1
    or more, DataError for a malformed row (see csv_columns; the interval,
    time, cif_ and survival cells are numbers); exit 5 for a row of an
    unknown subject, an interval outside 1..L, a time that is not its
    interval's endpoint, or a subject whose rows do not cover 1..L exactly
    once. subjects, when given, is (subjects file, its subjects' causes):
    then exit 3 for a csm-form file, one with a survival column, that has
    no cif_ column for one of those causes.
    """
    L = grid.n_intervals
    order = {sid: i for i, sid in enumerate(ids)}
    with open_csv(path) as (fh, header):
        if not header or header[:3] != ["id", "interval", "time"]:
            raise CliError(EXIT_SCHEMA, "%s: not a predictions CSV" % path)
        cif_cols = [k for k, h in enumerate(header) if h.startswith("cif_")]
        try:
            causes = [int(header[k][4:]) for k in cif_cols]
        except ValueError:
            raise CliError(EXIT_SCHEMA, "%s: bad cause column in header %r"
                           % (path, header))
        for j, m in enumerate(causes):
            if m < 1 or m in causes[:j]:
                raise CliError(EXIT_SCHEMA, "%s: column %s %s" % (
                    path, header[cif_cols[j]],
                    "names no cause (causes count from 1)" if m < 1 else
                    "names cause %d, as an earlier column does" % m))
        kinds = [str, int, float] + [float if h.startswith("cif_") or h == "survival"
                                     else str for h in header[3:]]
        F = np.zeros((len(causes), len(ids), L + 1))
        # a subject's L rows cover 1..L once each when they cover them all
        covered = np.zeros((len(ids), L + 1), dtype=bool)
        rows = np.zeros(len(ids), dtype=np.int64)
        for _, cols in csv_columns(path, fh, header, kinds, chunk_rows):
            interval, time = cols[1], cols[2]
            subj = run_codes(cols[0], lambda sid: order.get(sid, -1))
            in_grid = (interval >= 1) & (interval <= L)
            endpoint = grid.cuts[np.where(in_grid, interval, 0)]
            misfit = (subj < 0) | ~in_grid | ~(np.abs(time - endpoint) <= GRID_TOL)
            if misfit.any():
                k = int(np.argmax(misfit))
                if subj[k] < 0:
                    message = "prediction for unknown subject %r" % cols[0][k]
                elif not in_grid[k]:
                    message = ("prediction interval %d outside the grid's 1..%d"
                               % (interval[k], L))
                else:
                    message = ("subject %r interval %d: time %r is not the grid's "
                               "endpoint %r" % (cols[0][k], interval[k], float(time[k]),
                                                float(endpoint[k])))
                raise CliError(EXIT_COMPAT, message)
            for F_m, k in zip(F, cif_cols):
                F_m[subj, interval] = cols[k]
            covered[subj, interval] = True
            np.add.at(rows, subj, 1)
    unpredicted = np.flatnonzero(rows == 0)
    if len(unpredicted):
        raise CliError(EXIT_COMPAT, "no predictions for %d subject(s), first %r"
                       % (len(unpredicted), ids[unpredicted[0]]))
    uncovered = np.flatnonzero((rows != L) | ~covered[:, 1:].all(axis=1))
    if len(uncovered):
        raise CliError(EXIT_COMPAT, "prediction rows of %d subject(s) do not cover "
                       "intervals 1..%d exactly once, first %r"
                       % (len(uncovered), L, ids[uncovered[0]]))
    if subjects is not None and "survival" in header:
        source, subject_causes = subjects
        unpredicted = sorted(set(subject_causes) - set(causes))
        if unpredicted:
            raise CliError(EXIT_SCHEMA, "%s: no column cif_%d, though a subject of %s "
                           "has cause %d" % (path, unpredicted[0], source, unpredicted[0]))
    return causes, F


def cmd_evaluate(cfg, predictions_path):
    out = _ensure_outdir(cfg)
    ds = _load_dataset(cfg, need_curves=False)
    if not len(ds):
        raise CliError(EXIT_SCHEMA, "%s: no subjects to score"
                       % cfg["data"]["subjects"])
    grid = build_time_grid(cfg["grid"]["max_time"], cfg["grid"]["width"])
    _check_times(ds, grid.max_time, EXIT_COMPAT,
                 "outside evaluation grid (max %g)" % grid.max_time)
    t0 = cfg["evaluate"]["t0"]
    for horizon in cfg["evaluate"]["horizons"]:
        if horizon > grid.max_time + GRID_TOL:
            raise CliError(EXIT_COMPAT, "horizon %g beyond predictions (max %g)"
                           % (horizon, grid.max_time))
        if len(evaluation_columns(grid, t0, horizon)) < 2:
            raise CliError(EXIT_COMPAT, "evaluate.t0 %g leaves fewer than 2 grid "
                           "times up to horizon %g" % (t0, horizon))
    # the csm form predicts every cause, so each one the subjects have is scored
    causes, F = read_predictions(predictions_path, ds.ids, grid, subjects=(
        cfg["data"]["subjects"], ds.cause[ds.cause > 0].tolist()))

    g = censoring_survival(ds, grid)
    with _replacing(os.path.join(out, "scores.csv")) as fh:
        w = csv.writer(fh)
        w.writerow(["horizon", "cause", "time", "bs", "cum_ibs"])
        for horizon in cfg["evaluate"]["horizons"]:
            for m, F_m in zip(causes, F):
                curve = score_cif(F_m, ds, m, grid, g=g, t0=t0, t_max=horizon)
                for k, t in enumerate(curve.times):
                    cum = ibs(curve.times[:k + 1], curve.values[:k + 1]) if k else 0.0
                    w.writerow([horizon, m, repr(float(t)),
                                repr(float(curve.values[k])), repr(float(cum))])
                print("horizon %g cause %d: IBS %.6f" % (horizon, m, curve.ibs))
    dump_config(os.path.join(out, "config.resolved.json"), cfg)
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="fcrn", description=__doc__)
    p.add_argument("--config", help="JSON run configuration")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="dotted-path config override, e.g. train.batch_size=32")
    sub = p.add_subparsers(dest="command", required=True)
    sub.add_parser("simulate", help="generate a synthetic dataset")
    sub.add_parser("train", help="fit an FCRN model")
    pp = sub.add_parser("predict", help="emit CIF predictions")
    pp.add_argument("--model", required=True)
    pe = sub.add_parser("evaluate", help="score CIF predictions")
    pe.add_argument("--predictions", required=True)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.set)
        if args.command == "simulate":
            return cmd_simulate(cfg)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "predict":
            return cmd_predict(cfg, args.model)
        if args.command == "evaluate":
            return cmd_evaluate(cfg, args.predictions)
    except CliError as e:
        print("error: %s" % e, file=sys.stderr)
        return e.code
    except (ConfigError, DataError) as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_SCHEMA
    except OSError as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_IO
    except MemoryError as e:
        print("error: out of memory%s" % (": %s" % e if str(e) else ""), file=sys.stderr)
        return EXIT_IO
    return 0


if __name__ == "__main__":
    sys.exit(main())
