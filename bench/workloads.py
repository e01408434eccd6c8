"""The benchmark's workloads: inputs from a seed, one closed-loop iteration.

Every call into fcrn goes through a module attribute (``fcrn.cli.main``,
``fcrn.impute.iro_train``, ...) at call time, so the tracer's wrappers see
it. An iteration returns its timed regions, as measured and at reference
host speed (hostspeed.py), its IPCW IBS and the outcome of every
operation; output checks run outside the timed regions.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import shutil
import statistics

import numpy as np

import fcrn.baseline
import fcrn.cli
import fcrn.data
import fcrn.impute
import fcrn.metrics
import fcrn.model
import fcrn.simulate
import hostspeed

CAUSES = (1, 2)
SUM_TOL = 1e-9


class Ops:
    """Attempted and failed operations of one phase, with failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def fail(self, message):
        self.failed += 1
        self.errors.append(message)

    def call(self, label, fn, *args, **kwargs):
        """Run one library operation; an exception counts as its failure."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as e:  # the benchmark counts every crash and goes on
            self.fail("%s raised %r" % (label, e))
            return None

    def check(self, label, errors):
        """Count a failed output check against the operation just made."""
        if errors:
            self.fail("%s: %s" % (label, "; ".join(errors)))


def cif_errors(F, S=None):
    """Invariant violations of CIFs F (n, M, T) and survival S (n, T)."""
    errors = []
    if not np.all(np.isfinite(F)):
        return ["non-finite CIF"]
    if F.min() < 0.0 or F.max() > 1.0:
        errors.append("CIF outside [0, 1]")
    if np.any(np.diff(F, axis=-1) < 0.0):
        errors.append("CIF decreases over time")
    if S is not None:
        gap = float(np.max(np.abs(F.sum(axis=1) + S - 1.0)))
        if not gap <= SUM_TOL:
            errors.append("sum_m F_m + S differs from 1 by %.3g" % gap)
    return errors


def ibs_errors(values):
    return ["IBS %r outside (0, 0.5)" % v for v in values if not 0.0 < v < 0.5]


def region_times(seconds):
    """wall_s, train_s and score_s of an iteration's region seconds.

    Regions named "score.<k>" are repeated scoring passes over the same
    fits; score_s is their mean, one pass. wall_s is every other region
    plus score_s.
    """
    passes = [t for name, t in seconds.items() if name.startswith("score.")]
    score_s = statistics.mean(passes) if passes else 0.0
    other = sum(t for name, t in seconds.items() if not name.startswith("score."))
    return {"wall_s": other + score_s, "train_s": seconds.get("train", 0.0),
            "score_s": score_s}


def iteration_result(clock, ibs, ops):
    """The iteration's times as measured, and at reference speed under
    "scaled" when the host was sampled."""
    result = region_times(clock.seconds)
    result.update(ibs=ibs, ops=ops,
                  scaled=region_times(clock.scaled) if clock.scaled else None)
    return result


class CliWorkload:
    """simulate once, then train -> predict -> evaluate through fcrn.cli.main.

    predict -> evaluate runs score_passes times on the trained model and
    score_s is the mean pass: a single pass of a small test set takes a
    fifth of a second and holds two host samples (hostspeed.py), too few
    to measure it steadily. Every pass must give the same IBS.
    """

    def __init__(self, seed, workdir, n_train, n_test, functional, epochs,
                 score_passes):
        self.seed = seed
        self.score_passes = score_passes
        self.dir = workdir
        self.n_test = n_test
        self.functional = functional
        self.epochs = epochs
        self.n_intervals = fcrn.data.build_time_grid(100.0, 5.0).n_intervals
        self.sim = {"n": n_train + n_test, "n_train": n_train, "n_test": n_test,
                    "functional": functional}

    def _path(self, *parts):
        return os.path.join(self.dir, *parts)

    def _sets(self, overrides):
        args = ["--set", "seed=%d" % self.seed]
        for key, value in overrides.items():
            args += ["--set", "%s=%s" % (key, json.dumps(value))]
        return args

    def _cli(self, ops, command, args):
        """One CLI command in-process; a non-zero exit or a crash fails it."""
        ops.attempted += 1
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                code = fcrn.cli.main(args)
        except Exception as e:  # a traceback is a failed command, not a stop
            code = repr(e)
        if code != 0:
            ops.fail("%s exited %s: %s" % (command, code, out.getvalue()[-400:]))
        return code == 0

    def setup(self, ops):
        sim = {"simulate." + k: v for k, v in self.sim.items()}
        self._cli(ops, "simulate",
                  self._sets({"out_dir": self._path("sim"), **sim}) + ["simulate"])

    def iterate(self):
        ops = Ops()
        for sub in ("run", "pred", "eval"):
            shutil.rmtree(self._path(sub), ignore_errors=True)
        data = {"data.subjects": self._path("sim", "train_subjects.csv")}
        test = {"data.subjects": self._path("sim", "test_subjects.csv")}
        if self.functional:
            data["data.curves"] = self._path("sim", "train_curves.csv")
            test["data.curves"] = self._path("sim", "test_curves.csv")
        train = self._sets({"out_dir": self._path("run"),
                            "train.max_epochs": self.epochs,
                            "train.patience": self.epochs,
                            "train.use_functional": self.functional, **data})
        predict = self._sets({"out_dir": self._path("pred"), **test})
        evaluate = self._sets({"out_dir": self._path("eval"),
                               "data.subjects": test["data.subjects"]})
        train.append("train")
        predict += ["predict", "--model", self._path("run", "model.json")]
        evaluate += ["evaluate", "--predictions", self._path("pred", "predictions.csv")]

        clock = hostspeed.Clock()
        with clock.region("train"):
            ok = self._cli(ops, "train", train)
        passes = []
        for k in range(self.score_passes if ok else 0):
            with clock.region("score.%d" % k):
                ok = (self._cli(ops, "predict", predict)
                      and self._cli(ops, "evaluate", evaluate))
            if not ok:
                break
            passes.append(self._read_ibs())

        ibs = float("nan")
        if ok:
            ops.check("predictions.csv", self._check_predictions())
            errors = ibs_errors(passes[0])
            if any(p != passes[0] for p in passes):
                errors.append("IBS differs between scoring passes: %r" % passes)
            ops.check("scores.csv", errors)
            ibs = float(np.mean(passes[0]))
        return iteration_result(clock, ibs, ops)

    def _check_predictions(self):
        """Row count, layout and CIF invariants of predictions.csv, streamed
        into preallocated arrays so the check adds little to peak memory."""
        L = self.n_intervals
        expected = self.n_test * L
        intervals = np.empty(expected, dtype=np.int64)
        vals = np.empty((expected, 3))
        with open(self._path("pred", "predictions.csv"), newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != ["id", "interval", "time", "cif_1", "cif_2", "survival"]:
                return ["unexpected header %r" % header]
            k = 0
            for row in reader:
                if k < expected:
                    intervals[k] = int(row[1])
                    vals[k] = row[3:]
                k += 1
        if k != expected:
            return ["%d prediction rows, expected n_test x L = %d" % (k, expected)]
        if np.any(intervals.reshape(self.n_test, L) != np.arange(1, L + 1)):
            return ["rows are not intervals 1..L per subject"]
        vals = vals.reshape(self.n_test, L, 3)
        return cif_errors(vals[:, :, :2].transpose(0, 2, 1), vals[:, :, 2])

    def _read_ibs(self):
        """The cumulative IBS at the last evaluation time, per cause."""
        last = {}
        with open(self._path("eval", "scores.csv"), newline="") as fh:
            for row in csv.DictReader(fh):
                last[int(row["cause"])] = float(row["cum_ibs"])
        return [last.get(c, float("nan")) for c in CAUSES]


class MarSweep:
    """One replicate of the acceptance comparative experiment (rep = seed).

    Its scoring (censoring KM, predict_cif and score_cif per arm) takes
    about 1% of the replicate in many short calls, so it runs
    SCORE_PASSES times over the same fits and score_s is the mean pass;
    every pass must give the same IBS.
    """

    RATES = (0.0, 0.25, 0.5)
    EPOCHS = 20
    SCORE_PASSES = 5

    def __init__(self, seed):
        self.seed = seed
        self.grid = fcrn.data.build_time_grid(100.0, 5.0)
        self.data = {}

    def setup(self, ops):
        for rate in self.RATES:
            cfg = fcrn.simulate.SimConfig(n=1000, seed=self.seed, functional=False,
                                          missing_rate=rate)
            out = ops.call("simulate rate %g" % rate, fcrn.simulate.simulate, cfg)
            if out is not None:
                self.data[rate] = out[:2]

    def _fit(self, ops, label, rate, head, cause, train):
        s = fcrn.model.TrainSettings(max_epochs=self.EPOCHS, patience=self.EPOCHS,
                                     seed=self.seed, hidden=(16, 16),
                                     val_fraction=0.0)
        if rate == 0.0:
            return ops.call(label + " fit", fcrn.model.train_model, train, self.grid,
                            head, s, n_causes=2, target_cause=cause)
        imp = fcrn.impute.ImputeSettings(noise=False, i_repeats=2,
                                         max_epochs=self.EPOCHS, rel_tol=0.0)
        out = ops.call(label + " fit", fcrn.impute.iro_train, train, self.grid, head,
                       s, impute_settings=imp, n_causes=2, target_cause=cause)
        return None if out is None else out[0]

    def _score(self, ops, label, out, causes, test, g):
        """IBS per cause of a csm (S, F) or sdm F prediction."""
        F = out[1] if isinstance(out, tuple) else out[:, None, :]
        vals = []
        for k, cause in enumerate(causes):
            curve = ops.call(label + " score", fcrn.metrics.score_cif, F[:, k], test,
                             cause, self.grid, g=g)
            vals.append(float("nan") if curve is None else curve.ibs)
        return vals

    @staticmethod
    def _errors(out, vals):
        """Checks of a prediction and its IBS values."""
        S, F = out if isinstance(out, tuple) else (None, out[:, None, :])
        return cif_errors(F, S) + ibs_errors(vals)

    def iterate(self):
        """Per rate, in the acceptance test's order: csm, baseline (rate 0),
        then sdm for causes 1 and 2."""
        ops = Ops()
        clock = hostspeed.Clock()
        arm_ibs = []
        for rate in self.RATES:
            if rate not in self.data:
                ops.fail("no data for rate %g" % rate)
                continue
            train, test = self.data[rate]
            for k in range(self.SCORE_PASSES):
                with clock.region("score.%d" % k):
                    g = ops.call("censoring KM", fcrn.data.censoring_survival, test,
                                 self.grid)
            if g is None:
                continue
            arms = [("csm", None, CAUSES)] + [("sdm", c, (c,)) for c in CAUSES]
            for head, cause, causes in arms:
                label = "%s rate %g cause %s" % (head, rate, cause)
                with clock.region("train"):
                    model = self._fit(ops, label, rate, head, cause, train)
                if model is None:
                    continue
                passes = []
                for k in range(self.SCORE_PASSES):
                    with clock.region("score.%d" % k):
                        out = ops.call(label + " predict", model.predict_cif, test)
                        vals = out is not None and self._score(ops, label, out, causes,
                                                               test, g)
                    if out is None:
                        break
                    passes.append(vals)
                    ops.check(label, self._errors(out, vals))
                if len(passes) < self.SCORE_PASSES:
                    continue
                if any(v != passes[0] for v in passes):
                    ops.fail("%s: IBS differs between scoring passes: %r"
                             % (label, passes))
                arm_ibs += passes[0]
                if rate == 0.0 and head == "csm":
                    with clock.region("baseline"):
                        out = ops.call("baseline fit", fcrn.baseline.intercept_only_cif,
                                       train, self.grid, 2, n_eval=len(test))
                        vals = out is not None and self._score(ops, "baseline", out,
                                                               CAUSES, test, g)
                    if out is not None:
                        ops.check("baseline", self._errors(out, vals))
        ibs = float(np.mean(arm_ibs)) if len(arm_ibs) == 12 else float("nan")
        return iteration_result(clock, ibs, ops)


def make(name, seed, workdir):
    """The named workload; BENCHMARK.json gives why each one exists."""
    if name == "cli-functional":
        return CliWorkload(seed, workdir, n_train=800, n_test=200,
                           functional=True, epochs=5, score_passes=4)
    if name == "cli-cohort":
        return CliWorkload(seed, workdir, n_train=10000, n_test=10000,
                           functional=False, epochs=3, score_passes=1)
    if name == "mar-sweep":
        return MarSweep(seed)
    raise ValueError("unknown workload %r" % name)


WORKLOADS = ("cli-functional", "mar-sweep", "cli-cohort")
