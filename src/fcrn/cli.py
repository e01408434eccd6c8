"""Command-line entry point: simulate / train / predict / evaluate.

Exit codes: 0 ok, 2 IO failure, 3 schema violation, 4 numeric failure,
5 grid/horizon incompatibility. Every run writes its resolved config
beside its outputs so artifacts are reproducible from config + seed.
"""
from __future__ import annotations

import argparse
import csv
import os
import sys

import numpy as np

from .config import ConfigError, dump_config, load_config
from .data import (DataError, build_time_grid, read_curves_csv,
                   read_subjects_csv, write_curves_csv, write_subjects_csv,
                   censoring_survival)
from .impute import ImputeSettings, iro_train
from .metrics import score_cif
from .model import FCRNModel, NumericError, TrainSettings, train_model
from .simulate import SimConfig, simulate, write_manifest

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
    path = cfg["data"]["subjects"]
    if not path:
        raise CliError(EXIT_IO, "config data.subjects is required")
    try:
        subjects, names = read_subjects_csv(path)
    except OSError as e:
        raise CliError(EXIT_IO, str(e))
    except DataError as e:
        raise CliError(EXIT_SCHEMA, str(e))
    curves_path = cfg["data"]["curves"]
    if curves_path and need_curves:
        try:
            read_curves_csv(curves_path, subjects)
        except OSError as e:
            raise CliError(EXIT_IO, str(e))
        except DataError as e:
            raise CliError(EXIT_SCHEMA, str(e))
    return subjects, names


def cmd_simulate(cfg):
    out = _ensure_outdir(cfg)
    sim = cfg["simulate"]
    sc = SimConfig(seed=cfg["seed"],
                   **{k: v for k, v in sim.items() if hasattr(SimConfig, k)})
    train, test, manifest = simulate(sc)
    write_subjects_csv(os.path.join(out, "train_subjects.csv"), train)
    write_subjects_csv(os.path.join(out, "test_subjects.csv"), test)
    if sc.functional:
        write_curves_csv(os.path.join(out, "train_curves.csv"), train)
        write_curves_csv(os.path.join(out, "test_curves.csv"), test)
    write_manifest(os.path.join(out, "manifest.json"), manifest)
    dump_config(os.path.join(out, "config.resolved.json"), cfg)
    print("wrote %d train / %d test subjects to %s" % (len(train), len(test), out))
    return 0


def _train_settings(cfg, n_basis=None):
    t = cfg["train"]
    return TrainSettings(
        lr=t["lr"], batch_size=t["batch_size"], max_epochs=t["max_epochs"],
        patience=t["patience"], val_fraction=t["val_fraction"],
        hidden=tuple(t["hidden"]), n_basis=n_basis or t["n_basis"],
        time_encoding=t["time_encoding"], normalize_curves=t["normalize_curves"],
        seed=cfg["seed"])


def _impute_settings(cfg):
    m = cfg["mvi"]
    return ImputeSettings(
        eta=m["eta"], decay=m["decay"], milestones=tuple(m["milestones"]),
        noise=m["noise"], pred_weight=m["pred_weight"], i_repeats=m["i_repeats"],
        corr_threshold=m["corr_threshold"], k_max=m["k_max"], ridge=m["ridge"],
        max_epochs=m["max_epochs"])


def _fit_one(cfg, subjects, grid, signal_names, n_basis):
    settings = _train_settings(cfg, n_basis=n_basis)
    head = cfg["train"]["head"]
    kwargs = dict(n_causes=cfg["train"]["n_causes"],
                  target_cause=cfg["train"]["cause"],
                  signal_names=signal_names)
    has_missing = any(s.missing_mask.any() for s in subjects)
    if has_missing and cfg["mvi"]["enabled"]:
        model, imputed = iro_train(subjects, grid, head, settings,
                                   impute_settings=_impute_settings(cfg), **kwargs)
    else:
        if has_missing:
            raise CliError(EXIT_SCHEMA,
                           "dataset has missing values but mvi.enabled is false")
        model, imputed = train_model(subjects, grid, head, settings, **kwargs), None
    return model, imputed, settings


def cmd_train(cfg):
    out = _ensure_outdir(cfg)
    subjects, _ = _load_dataset(cfg, need_curves=cfg["train"]["use_functional"])
    if not subjects:
        raise CliError(EXIT_SCHEMA, "%s: no subjects to train on"
                       % cfg["data"]["subjects"])
    grid = build_time_grid(cfg["grid"]["max_time"], cfg["grid"]["width"])
    for s in subjects:
        if s.time > grid.max_time:
            raise CliError(EXIT_SCHEMA,
                           "subject %s time %g exceeds grid max %g"
                           % (s.id, s.time, grid.max_time))
    signal_names = ()
    if cfg["train"]["use_functional"] and subjects and subjects[0].curves:
        signal_names = tuple(sorted(c.name for c in subjects[0].curves))

    has_missing = any(s.missing_mask.any() for s in subjects)
    if not has_missing:
        print("no missing values; MVI skipped")

    try:
        if cfg["train"]["basis_grid_search"] and signal_names:
            best = None
            search_log = []
            for d in cfg["train"]["basis_grid"]:
                model, imputed, settings = _fit_one(cfg, subjects, grid,
                                                    signal_names, d)
                val = min(h[2] for h in settings.log)
                search_log.append((d, val))
                print("basis count %d: validation loss %.6f" % (d, val))
                if best is None or val < best[0]:
                    best = (val, d, model, imputed, settings)
            _, d, model, imputed, settings = best
            print("selected basis count %d" % d)
        else:
            model, imputed, settings = _fit_one(cfg, subjects, grid, signal_names,
                                                None)
    except NumericError as e:
        raise CliError(EXIT_NUMERIC, str(e))

    model.save(os.path.join(out, "model.json"))
    with open(os.path.join(out, "training_log.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["epoch", "train_loss", "val_loss"])
        for row in settings.log:
            w.writerow(row)
    if imputed is not None:
        np.savetxt(os.path.join(out, "imputed.csv"), imputed, delimiter=",")
        mask = np.vstack([s.missing_mask for s in subjects]).astype(int)
        np.savetxt(os.path.join(out, "imputed_mask.csv"), mask,
                   delimiter=",", fmt="%d")
    dump_config(os.path.join(out, "config.resolved.json"), cfg)
    print("model written to %s" % os.path.join(out, "model.json"))
    return 0


def cmd_predict(cfg, model_path):
    out = _ensure_outdir(cfg)
    try:
        model = FCRNModel.load(model_path)
    except OSError as e:
        raise CliError(EXIT_IO, str(e))
    subjects, _ = _load_dataset(cfg, need_curves=bool(model.signal_specs))
    grid = model.grid
    for s in subjects:
        if s.time > grid.max_time + 1e-9:
            raise CliError(EXIT_COMPAT,
                           "subject %s time %g outside model grid (max %g)"
                           % (s.id, s.time, grid.max_time))
    path = os.path.join(out, "predictions.csv")
    L = grid.n_intervals
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        if model.head == "csm":
            causes = list(range(1, model.n_causes + 1))
            w.writerow(["id", "interval", "time"]
                       + ["cif_%d" % m for m in causes] + ["survival"])
            if subjects:
                S, F = model.predict_cif(subjects)
                for i, s in enumerate(subjects):
                    for t in range(1, L + 1):
                        w.writerow([s.id, t, repr(float(grid.cuts[t]))]
                                   + [repr(float(F[i, m - 1, t])) for m in causes]
                                   + [repr(float(S[i, t]))])
        else:
            w.writerow(["id", "interval", "time", "cif_%d" % model.target_cause])
            if subjects:
                F = model.predict_cif(subjects)
                for i, s in enumerate(subjects):
                    for t in range(1, L + 1):
                        w.writerow([s.id, t, repr(float(grid.cuts[t])),
                                    repr(float(F[i, t]))])
    dump_config(os.path.join(out, "config.resolved.json"), cfg)
    print("predictions written to %s" % path)
    return 0


def _read_predictions(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[:3] != ["id", "interval", "time"]:
            raise CliError(EXIT_SCHEMA, "%s: not a predictions CSV" % path)
        causes = [int(h.split("_")[1]) for h in header[3:] if h.startswith("cif_")]
        rows = list(reader)
    return header, causes, rows


def cmd_evaluate(cfg, predictions_path):
    out = _ensure_outdir(cfg)
    subjects, _ = _load_dataset(cfg, need_curves=False)
    if not subjects:
        raise CliError(EXIT_SCHEMA, "%s: no subjects to score"
                       % cfg["data"]["subjects"])
    grid = build_time_grid(cfg["grid"]["max_time"], cfg["grid"]["width"])
    header, causes, rows = _read_predictions(predictions_path)
    L = grid.n_intervals
    order = {s.id: i for i, s in enumerate(subjects)}
    # F[cause][i, t]; column 0 stays 0 (no event by time 0)
    F = {m: np.zeros((len(subjects), L + 1)) for m in causes}
    n_rows = [0] * len(subjects)
    for r in rows:
        if r[0] not in order:
            raise CliError(EXIT_COMPAT, "prediction for unknown subject %r" % r[0])
        i, t = order[r[0]], int(r[1])
        if t > L:
            raise CliError(EXIT_COMPAT, "prediction interval %d beyond grid" % t)
        n_rows[i] += 1
        for k, m in enumerate(causes):
            F[m][i, t] = float(r[3 + k])
    unpredicted = [s.id for s, k in zip(subjects, n_rows) if k == 0]
    if unpredicted:
        raise CliError(EXIT_COMPAT, "no predictions for %d subject(s), first %r"
                       % (len(unpredicted), unpredicted[0]))

    g = censoring_survival(subjects, grid)
    t0 = cfg["evaluate"]["t0"]
    path = os.path.join(out, "scores.csv")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["horizon", "cause", "time", "bs", "cum_ibs"])
        for horizon in cfg["evaluate"]["horizons"]:
            if horizon > grid.max_time + 1e-9:
                raise CliError(EXIT_COMPAT,
                               "horizon %g beyond predictions (max %g)"
                               % (horizon, grid.max_time))
            for m in causes:
                curve = score_cif(F[m], subjects, m, grid, g=g,
                                  t0=t0, t_max=horizon)
                cum = np.zeros(len(curve.times))
                for k in range(1, len(curve.times)):
                    span = curve.times[k] - curve.times[0]
                    cum[k] = np.trapezoid(curve.values[:k + 1], curve.times[:k + 1]) / span
                for k in range(len(curve.times)):
                    w.writerow([horizon, m, repr(float(curve.times[k])),
                                repr(float(curve.values[k])),
                                repr(float(cum[k]))])
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
    except ConfigError as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_SCHEMA
    except OSError as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_IO
    return 0


if __name__ == "__main__":
    sys.exit(main())
