"""Span tracing of the fcrn package from outside it.

The tracer replaces public callables with timing wrappers at the places
their callers look them up (a module global or a class attribute), so the
package itself carries no tracing code. Spans live in memory as
``[name, start, end, parent, iteration]`` lists and are written out once,
when the run ends. Counters are recorded at the same boundaries.
"""
from __future__ import annotations

import json
import re
import time
import warnings
from collections import defaultdict

import numpy as np

import fcrn.autodiff
import fcrn.baseline
import fcrn.basis
import fcrn.cli
import fcrn.data
import fcrn.impute
import fcrn.metrics
import fcrn.model
import fcrn.simulate

_REJECTED = re.compile(r"rejected (\d+) non-finite imputation updates")


def _count_rows(counts, args, kwargs, result):
    counts["data.rows"] += len(result)


def _count_epoch(counts, args, kwargs, result):
    if kwargs.get("adam") is not None:
        counts["model.epochs"] += 1


def _count_batch(counts, args, kwargs, result):
    counts["model.batches"] += 1


def _count_projected(counts, args, kwargs, result):
    counts["basis.subjects_projected"] += np.atleast_2d(args[1]).shape[0]


def _count_needed(counts, args, kwargs, result):
    model, subj_idx = args[0], args[3]
    if model.signal_specs:
        counts["basis.subjects_needed"] += (len(np.unique(subj_idx))
                                            * len(model.signal_specs))


# (owner, attribute, span name, counter or None). Every lookup site of a
# traced callable is listed, because `from x import f` copies the binding.
TRACE_POINTS = [
    (fcrn.cli, "cmd_simulate", "cli.simulate", None),
    (fcrn.cli, "cmd_train", "cli.train", None),
    (fcrn.cli, "cmd_predict", "cli.predict", None),
    (fcrn.cli, "cmd_evaluate", "cli.evaluate", None),
    (fcrn.cli, "read_subjects_csv", "data.read_subjects", None),
    (fcrn.cli, "read_curves_csv", "data.read_curves", None),
    (fcrn.cli, "write_subjects_csv", "data.write_csv", None),
    (fcrn.cli, "write_curves_csv", "data.write_csv", None),
    (fcrn.cli, "simulate", "simulate.generate", None),
    (fcrn.cli, "censoring_survival", "data.km", None),
    (fcrn.cli, "score_cif", "metrics.score", None),
    (fcrn.cli, "train_model", "model.train", None),
    (fcrn.cli, "iro_train", "impute.iro_train", None),
    (fcrn.simulate, "simulate", "simulate.generate", None),
    (fcrn.data, "censoring_survival", "data.km", None),
    (fcrn.model, "augment_cause_specific", "data.augment", _count_rows),
    (fcrn.model, "augment_subdistribution", "data.augment", _count_rows),
    (fcrn.model, "censoring_survival", "data.km", None),
    (fcrn.model, "train_model", "model.train", None),
    (fcrn.model, "_epoch_loss", "model.epoch", _count_epoch),
    (fcrn.model.FCRNModel, "curve_matrices", "basis.resample", None),
    (fcrn.model.FCRNModel, "forward_logits", "model.forward", _count_needed),
    (fcrn.model.FCRNModel, "batch_loss", "model.loss", None),
    (fcrn.model.FCRNModel, "predict_cif", "model.predict", None),
    (fcrn.basis.BasisLayer, "project", "basis.project", _count_projected),
    (fcrn.autodiff, "backward", "autodiff.backward", None),
    (fcrn.autodiff, "adam_step", "autodiff.adam", _count_batch),
    (fcrn.impute, "censoring_survival", "data.km", None),
    (fcrn.impute, "iro_train", "impute.iro_train", None),
    (fcrn.impute, "grad_log_pred", "impute.pred_grad", None),
    (fcrn.impute, "grad_log_prior", "impute.prior_grad", None),
    (fcrn.impute, "fit_ggm", "impute.ggm_fit", None),
    (fcrn.metrics, "score_cif", "metrics.score", None),
    (fcrn.baseline, "intercept_only_cif", "baseline.fit", None),
]

SPAN_NAMES = sorted({p[2] for p in TRACE_POINTS} | {"impute.i_step"})
COUNTER_NAMES = ("model.epochs", "model.batches", "data.rows",
                 "basis.subjects_projected", "basis.subjects_needed",
                 "impute.cells_updated", "impute.rejected")


class Tracer:
    """In-memory spans and counters, grouped by benchmark iteration."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(lambda: dict.fromkeys(COUNTER_NAMES, 0))
        self.iteration = "setup"
        self._stack = []
        self._saved = []

    # -- installing the wrappers ---------------------------------------------

    def install(self):
        for owner, attr, name, counter in TRACE_POINTS:
            self._patch(owner, attr, self._wrap(getattr(owner, attr), name, counter))
        self._patch(fcrn.impute, "i_step", self._wrap_i_step(fcrn.impute.i_step))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _open(self, name):
        span = [name, time.perf_counter(), None,
                self._stack[-1] if self._stack else -1, self.iteration]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, counter):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                counter(self.counts[self.iteration], args, kwargs, result)
            return result
        return traced

    def _wrap_i_step(self, fn):
        """i_step reports rejected cells only through a warning; read it."""
        def traced(X, mask, ggm, eta, rng, *args, **kwargs):
            span = self._open("impute.i_step")
            try:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    result = fn(X, mask, ggm, eta, rng, *args, **kwargs)
            finally:
                self._close(span)
            rejected = 0
            for w in caught:
                m = _REJECTED.search(str(w.message))
                rejected += int(m.group(1)) if m else 0
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
            counts = self.counts[self.iteration]
            counts["impute.rejected"] += rejected
            if eta != 0.0:
                counts["impute.cells_updated"] += int(mask.sum()) - rejected
            return result
        return traced

    # -- reading the spans ---------------------------------------------------

    def layer_times(self, iteration):
        """Inclusive and self seconds per span name within one iteration."""
        child_time = defaultdict(float)
        for name, start, end, parent, it in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        incl = dict.fromkeys(SPAN_NAMES, 0.0)
        self_t = dict.fromkeys(SPAN_NAMES, 0.0)
        for k, (name, start, end, parent, it) in enumerate(self.spans):
            if it != iteration or name not in incl:
                continue
            incl[name] += end - start
            self_t[name] += end - start - child_time[k]
        return incl, self_t

    def batch_ms(self, iteration):
        """Wall time of each training step, from the gaps between Adam steps.

        A step runs from the end of the previous Adam update in its epoch
        (or the epoch start) to the end of its own Adam update, so it
        covers projection, forward, loss, backward and update.
        """
        last_end = {}
        out = []
        for name, start, end, parent, it in self.spans:
            if it != iteration or name != "autodiff.adam" or parent < 0:
                continue
            epoch = self.spans[parent]
            if epoch[0] != "model.epoch":
                continue
            out.append(1e3 * (end - last_end.get(parent, epoch[1])))
            last_end[parent] = end
        return out

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "iteration"],
                       "spans": self.spans}, fh)
