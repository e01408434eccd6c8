"""The full FCRN: feature assembly, hazard heads, losses, training, CIFs.

Two head families share the same trunk. The cause-specific model (CSM)
ends in a softmax over M+1 categories (category 0 = survive the interval);
the sub-distribution model (SDM) ends in a single sigmoid hazard for one
target cause. The interval index enters as a scalar t/L feature by default
(one-hot encoding available behind a flag).
"""
from __future__ import annotations

import contextlib
import json
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .basis import MICRO_DEPTH, MICRO_WIDTH, BasisLayer, trapezoid_weights
from .data import (DataError, TimeGrid, augment_cause_specific,
                   augment_subdistribution, censoring_survival, signal_matrix)

# person-period rows times the widest sum of two adjacent layer widths per
# head_probs block (prediction, validation loss; see FCRNModel.row_blocks)
PREDICT_CELLS = 2 ** 18
# input cells (rows x first-layer width) of a block of whole Adam batches,
# unless one batch has more
BATCH_BLOCK_CELLS = 16384
# most points of a signal's canonical sample grid
CANONICAL_GRID_CAP = 101

# the model.json version to_dict writes and from_dict reads
SCHEMA_VERSION = 2
# the fields of a signal record that model.json stores
SIGNAL_FIELDS = ("name", "taus", "n_basis", "mean", "std", "micro_width", "micro_depth")
# the types of model.json's leaves other than bool
JSON_SCALARS = {int, float, str, type(None)}


class NumericError(RuntimeError):
    """Raised when training hits non-finite losses."""


class NormalizationError(DataError):
    """A normalization mean or std that is not finite. Its args are the
    input it comes from, "subjects" or "curves", and the column: x<j> or
    the signal's name."""


@dataclass
class TrainSettings:
    """Optimizer and architecture knobs with the published defaults."""

    lr: float = 0.001
    batch_size: int = 64
    max_epochs: int = 500
    patience: int = 20
    val_fraction: float = 0.1
    hidden: tuple = (32, 64, 32)
    n_basis: int = 3
    time_encoding: str = "scalar"  # or "onehot"
    seed: int = 0


class FCRNModel:
    """Basis layers + main MLP + hazard head over a fixed time grid."""

    def __init__(self, head, grid, n_tabular, n_causes=None, target_cause=None,
                 signal_specs=(), hidden=TrainSettings.hidden,
                 time_encoding=TrainSettings.time_encoding, rng=None):
        if head not in ("csm", "sdm"):
            raise ValueError("head must be 'csm' or 'sdm'")
        if head == "csm" and not (isinstance(n_causes, int) and n_causes > 0):
            raise ValueError("CSM head needs the cause count")
        if head == "sdm" and not (isinstance(target_cause, int) and target_cause > 0):
            raise ValueError("SDM head needs the target cause")
        if head == "sdm" and isinstance(n_causes, int) and target_cause > n_causes:
            raise ValueError("SDM target cause %d exceeds n_causes %d" % (target_cause, n_causes))
        if time_encoding not in ("scalar", "onehot"):
            raise ValueError("time_encoding must be 'scalar' or 'onehot'")
        rng = rng or np.random.RandomState(0)
        self.head = head
        self.grid = grid
        self.n_tabular = n_tabular
        self.n_causes = n_causes
        self.target_cause = target_cause
        self.time_encoding = time_encoding
        self.hidden = tuple(hidden)
        self.history = []  # fit's (epoch, train_loss, monitored_loss) rows
        # z-normalization statistics, filled by fit_normalization
        self.norm_mean = np.zeros(n_tabular)
        self.norm_std = np.ones(n_tabular)
        # per-covariate fill for missing cells seen at prediction time
        self.fill_values = np.zeros(n_tabular)

        # one record per signal, filled here once with its defaults
        self.signal_specs = [{"micro_width": MICRO_WIDTH, "micro_depth": MICRO_DEPTH,
                              "mean": 0.0, "std": 1.0, **given,
                              "taus": np.asarray(given["taus"], dtype=np.float64)}
                             for given in signal_specs]
        for spec in self.signal_specs:
            spec["int_weights"] = trapezoid_weights(spec["taus"])
            if spec["n_basis"] < 1:
                raise ValueError("signal %r needs at least one basis node" % spec["name"])

        self.params = ad.Params(*_param_shapes(head, grid, time_encoding, n_tabular,
                                               n_causes, self.hidden, self.signal_specs))
        # initialization draws: each signal's micro-networks node by node,
        # sublayer by sublayer (biases stay 0), then the MLP
        for spec, (weights, _) in zip(self.signal_specs, self.params.basis):
            for d in range(spec["n_basis"]):
                for w in weights:
                    w[d] = ad.glorot_uniform(w.shape[1], w.shape[2], rng)
        for w in self.params.weights:
            w[...] = ad.glorot_uniform(w.shape[0], w.shape[1], rng)
        self.basis_layers = {spec["name"]: BasisLayer(spec, views)
                             for spec, views in zip(self.signal_specs, self.params.basis)}
        # (signal, first column, end column) of each micro_forward's signals:
        # those of one taus and network size, each one-node signal alone
        # (numpy sums its lone gradient column in another order)
        groups = {}
        for s, spec in enumerate(self.signal_specs):
            key = ((spec["taus"].tobytes(), spec["micro_width"], spec["micro_depth"])
                   if spec["n_basis"] > 1 else s)
            members = groups.setdefault(key, [])
            lo = members[-1][2] if members else 0
            members.append((s, lo, lo + spec["n_basis"]))
        self.basis_groups = list(groups.values())

    # -- feature assembly ----------------------------------------------------

    def fit_normalization(self, X):
        """Set tabular z-normalization statistics from a filled matrix;
        NormalizationError when a column's mean or std is not finite."""
        with np.errstate(over="ignore", invalid="ignore"):
            self.norm_mean, std = X.mean(axis=0), X.std(axis=0)
        unusable = np.flatnonzero(~np.isfinite(self.norm_mean) | ~np.isfinite(std))
        if len(unusable):
            raise NormalizationError("subjects", "x%d" % (unusable[0] + 1))
        self.norm_std = np.where(std > 1e-12, std, 1.0)
        self.fill_values = np.median(X, axis=0)

    def normalize(self, X):
        return (X - self.norm_mean) / self.norm_std

    def denormalize(self, Xn):
        return Xn * self.norm_std + self.norm_mean

    def curve_matrices(self, ds):
        """Resample and normalize each signal into an (n, J) value matrix."""
        return {spec["name"]: (signal_matrix(ds, spec["name"], spec["taus"])
                               - spec["mean"]) / spec["std"]
                for spec in self.signal_specs}

    def fit_curve_normalization(self, ds):
        for spec in self.signal_specs:
            vals = signal_matrix(ds, spec["name"], spec["taus"])
            with np.errstate(over="ignore", invalid="ignore"):
                mean, sd = float(vals.mean()), float(vals.std())
            if not (math.isfinite(mean) and math.isfinite(sd)):
                raise NormalizationError("curves", spec["name"])
            spec["mean"], spec["std"] = mean, sd if sd > 1e-12 else 1.0

    def _time_feature(self, intervals):
        L = self.grid.n_intervals
        if self.time_encoding == "onehot":
            f = np.zeros((len(intervals), L))
            f[np.arange(len(intervals)), np.asarray(intervals) - 1] = 1.0
            return f
        return (np.asarray(intervals, dtype=np.float64) / L).reshape(-1, 1)

    def project_signals(self, curve_mats, subj_idx):
        """Basis coefficients of the subjects subj_idx names, each projected
        once, with one micro_forward per basis group; None without signals."""
        if not self.signal_specs:
            return None
        subjects, rows = np.unique(subj_idx, return_inverse=True)
        parts, groups = [None] * len(self.signal_specs), []
        for members in self.basis_groups:
            views = [self.params.basis[s] for s, _, _ in members]
            weights = [np.concatenate(stack) for stack in zip(*(w for w, _ in views))]
            biases = [np.concatenate(stack) for stack in zip(*(b for _, b in views))]
            basis, acts = ad.micro_forward(weights, biases,
                                           self.signal_specs[members[0][0]]["taus"])
            groups.append((members, weights, acts))
            for s, lo, hi in members:
                name = self.signal_specs[s]["name"]
                parts[s] = self.basis_layers[name].project(curve_mats[name][subjects],
                                                           basis[:, lo:hi])
        return ad.Projections(rows, parts, groups)

    def input_rows(self, xn, subj_idx, intervals):
        """First-layer inputs of person-period rows: their subjects' rows of
        xn, the full (n_subjects, P) normalized matrix, and their time
        feature; forward_logits fills the basis-coefficient columns."""
        n_coef = sum(spec["n_basis"] for spec in self.signal_specs)
        return np.concatenate([xn[subj_idx], np.empty((len(subj_idx), n_coef)),
                               self._time_feature(intervals)], axis=1)

    def forward_logits(self, inputs, curve_mats, subj_idx, keep=True):
        """Logits for person-period rows of subjects subj_idx. inputs() gives
        their input_rows, whose coefficient columns get the subjects' curve_mats
        projections; only the forward pass holds them, so keep=False (no
        backward cache) frees them after the first layer."""
        return ad.forward(self.params, self.head, inputs(), self.n_tabular,
                          self.project_signals(curve_mats, subj_idx), keep)

    # -- heads and losses ----------------------------------------------------

    def batch_loss(self, fwd, target, weight):
        """(value, d_logits): the rows' mean NLL (weighted for SDM) and its gradient."""
        return ad.head_loss(fwd, target, weight)

    def loss_and_grads(self, xn, curve_mats, table, rows, want_input_grad=False,
                       want_param_grad=True):
        """Mean loss of table rows `rows`, its parameter gradient, and on request
        d loss / d xn; xn and curve_mats hold every subject's rows.

        Returns (loss, flat gradient or None, input gradient or None); the
        gradient is a copy, the caller's to keep, and the input gradient has
        one row per entry of rows (see autodiff.backward).
        """
        subj_idx = table.subject_idx[rows]
        fwd = self.forward_logits(
            lambda: self.input_rows(xn, subj_idx, table.interval[rows]), curve_mats,
            subj_idx)
        value, d_logits = self.batch_loss(fwd, table.target[rows], table.weight[rows])
        grad, d_xn = ad.backward(fwd, d_logits, want_param_grad, want_input_grad)
        return value, (None if grad is None else grad.copy()), d_xn

    # -- prediction ----------------------------------------------------------

    def row_blocks(self, n_rows):
        """The (lo, hi) ranges of n_rows person-period rows that head_probs
        runs the network over: L * max(1, PREDICT_CELLS // (L * w)) rows
        each, where w is the largest sum of two adjacent layer widths, since a
        cache-free forward pass holds at most two adjacent activations. The
        last block also takes a remainder shorter than one block, so n_rows
        a multiple of L gives blocks of whole subjects."""
        L = self.grid.n_intervals
        weights = self.params.weights
        widths = [weights[0].shape[1]] + [w.shape[0] for w in weights]
        w = max(a + b for a, b in zip(widths, widths[1:]))
        step = L * max(1, PREDICT_CELLS // (L * w))
        cuts = list(range(0, n_rows, step))[:max(1, n_rows // step)] + [n_rows]
        return list(zip(cuts, cuts[1:]))

    def head_probs(self, xn, curve_mats, n_rows, rows):
        """Head probabilities of person-period rows, (n_rows, M+1) CSM or
        (n_rows, 1) SDM, by cache-free forward passes over row_blocks(n_rows);
        rows(lo, hi) gives the subjects and intervals of rows lo..hi-1."""
        probs = np.empty((n_rows, self.n_causes + 1 if self.head == "csm" else 1))
        for lo, hi in self.row_blocks(n_rows):
            subj_idx, intervals = rows(lo, hi)
            fwd = self.forward_logits(lambda: self.input_rows(xn, subj_idx, intervals),
                                      curve_mats, subj_idx, keep=False)
            probs[lo:hi] = ad.hazards(fwd)
        return probs

    def predict_hazards(self, ds):
        """Per-interval hazards for each subject at t = 1..L.

        CSM: (n, L, M+1) head probabilities. SDM: (n, L) hazards.
        """
        n = len(ds)
        L = self.grid.n_intervals
        xn = self.normalize(np.where(ds.mask, self.fill_values, ds.X))
        probs = self.head_probs(xn, self.curve_matrices(ds), n * L, lambda lo, hi: (
            np.arange(lo, hi) // L, np.arange(lo, hi) % L + 1))
        probs = probs.reshape(n, L, probs.shape[1])
        return probs if self.head == "csm" else probs[:, :, 0]

    def predict_cif(self, ds):
        """Survival and cumulative incidence curves per subject.

        CSM: (S, F) with S shape (n, L+1) starting at 1 and F shape
        (n, M, L+1) starting at 0. SDM: F1 with shape (n, L+1).
        """
        hz = self.predict_hazards(ds)
        if self.head == "csm":
            return cif_from_cause_specific(hz)
        return cif_from_subdistribution(hz)

    # -- serialization -------------------------------------------------------

    def to_dict(self):
        return {
            "schema_version": SCHEMA_VERSION,
            "head": self.head,
            "n_causes": self.n_causes,
            "target_cause": self.target_cause,
            "n_tabular": self.n_tabular,
            "hidden": list(self.hidden),
            "time_encoding": self.time_encoding,
            "grid": {"width": float(self.grid.cuts[1] - self.grid.cuts[0]),
                     "cuts": self.grid.cuts.tolist()},
            "norm_mean": self.norm_mean.tolist(),
            "norm_std": self.norm_std.tolist(),
            "fill_values": self.fill_values.tolist(),
            "params": self.params.flat.tolist(),
            "basis_layers": [{**{key: spec[key] for key in SIGNAL_FIELDS},
                              "taus": spec["taus"].tolist()}
                             for spec in self.signal_specs],
        }

    @classmethod
    def from_dict(cls, d):
        """The model that to_dict gave as d. A KeyError names a missing field
        and a ValueError a malformed one: no field may hold a bool, the size
        fields must be integers in [0, len(params)] that give len(params)
        parameters before the model is built, which must save d back
        unchanged, with no field left over, and hold finite numbers and
        positive std's."""
        if not isinstance(d, dict):
            raise ValueError("a model file holds a JSON object")
        for key, value in d.items():
            if _holds_bool(value):
                raise ValueError("field %s: a bool where a number belongs" % key)
        if type(d["schema_version"]) is not int or d["schema_version"] != SCHEMA_VERSION:
            raise ValueError("field schema_version: not %d" % SCHEMA_VERSION)
        if not isinstance(d["params"], list):
            raise ValueError("field params: not a list")
        n = len(d["params"])
        with _field("grid"):
            grid = TimeGrid(np.asarray(d["grid"]["cuts"], dtype=np.float64))
            if grid.cuts.ndim != 1 or len(grid.cuts) < 2 or np.any(np.diff(grid.cuts) <= 0):
                raise ValueError("cuts must be at least 2 increasing times")
        with _field("basis_layers"):
            specs = [{**{key: b[key] for key in SIGNAL_FIELDS},
                      "mean": float(b["mean"]), "std": float(b["std"])}
                     for b in d["basis_layers"]]
            if len({s["name"] for s in specs}) < len(specs):
                raise ValueError("two signals share a name")
        sizes = [("n_tabular", [d["n_tabular"]]), ("hidden", d["hidden"])]
        if d["head"] == "csm" or d["n_causes"] is not None:  # sdm: None from the library
            sizes.append(("n_causes", [d["n_causes"]]))
        sizes += [(key, [s[key]]) for s in specs
                  for key in ("n_basis", "micro_width", "micro_depth")]
        for key, values in sizes:
            with _field(key):
                if not all(type(v) is int and 0 <= v <= n for v in values):
                    raise ValueError("sizes must be integers in [0, %d], params' length" % n)
        mlp, basis = _param_shapes(d["head"], grid, d["time_encoding"], d["n_tabular"],
                                   d["n_causes"], d["hidden"], specs)
        with _field("params"):
            count = sum(math.prod(s) for layer in mlp + sum(basis, []) for s in layer)
            if count != n:
                raise ValueError("the sizes give %d parameters, the file %d" % (count, n))
        model = cls(head=d["head"], grid=grid, n_tabular=d["n_tabular"],
                    n_causes=d["n_causes"], target_cause=d["target_cause"],
                    signal_specs=specs, hidden=d["hidden"],
                    time_encoding=d["time_encoding"])
        for key in ("params", "norm_mean", "norm_std", "fill_values"):
            with _field(key):
                (model.params.flat if key == "params" else getattr(model, key))[...] = d[key]
        saved = model.to_dict()
        unknown = sorted(d.keys() - saved.keys())
        if unknown:
            raise ValueError("field %s: not a field of a model file" % unknown[0])
        for key, value in saved.items():
            if value != d[key]:
                raise ValueError("field %s does not fit the model it describes" % key)
        stds = np.append(model.norm_std, [s["std"] for s in model.signal_specs])
        numbers = [model.params.flat, grid.cuts, model.norm_mean, model.fill_values, stds]
        numbers += [np.append(s["taus"], s["mean"]) for s in model.signal_specs]
        if not all(np.isfinite(a).all() for a in numbers) or np.any(stds <= 0):
            raise ValueError("a number is not finite, or a std is not positive")
        return model

    def save(self, path):
        """Write the model file; ValueError, before path is opened, when a
        number is not finite, which JSON cannot hold."""
        text = json.dumps(self.to_dict(), sort_keys=True, allow_nan=False)
        with open(path, "w") as fh:
            fh.write(text + "\n")

    @classmethod
    def load(cls, path):
        """The model saved at path; DataError names a file that is not
        JSON or lacks or misshapes a field."""
        with open(path) as fh:
            try:
                return cls.from_dict(json.load(fh))
            except json.JSONDecodeError as e:
                raise DataError("%s: invalid JSON: %s" % (path, e))
            except RecursionError:
                raise DataError("%s: model file nested too deeply" % path)
            except KeyError as e:
                raise DataError("%s: model file lacks field %s" % (path, e))
            except (ArithmeticError, TypeError, ValueError) as e:
                raise DataError("%s: malformed model file: %s" % (path, e))


def _param_shapes(head, grid, time_encoding, n_tabular, n_causes, hidden, signal_specs):
    """The ad.Params shapes: the MLP from the tabular, basis and time
    columns through hidden to the head, then each signal's micro-networks."""
    widths = [n_tabular + sum(s["n_basis"] for s in signal_specs)
              + (grid.n_intervals if time_encoding == "onehot" else 1),
              *hidden, n_causes + 1 if head == "csm" else 1]
    return ([((w_out, w_in), (w_out,)) for w_in, w_out in zip(widths, widths[1:])],
            [ad.micro_shapes(s["n_basis"], s["micro_width"], s["micro_depth"])
             for s in signal_specs])


def _holds_bool(value):
    """Whether a JSON value is or holds a bool, which numpy reads as 0 or 1.
    A list's or dict's element types are read in one pass, and its elements
    are visited one by one only when one of them is a list or a dict."""
    if not isinstance(value, (dict, list)):
        return type(value) is bool
    items = value.values() if isinstance(value, dict) else value
    types = set(map(type, items))
    if bool in types:
        return True
    return not types <= JSON_SCALARS and any(map(_holds_bool, items))


@contextlib.contextmanager
def _field(name):
    """Name the model-file field in an ArithmeticError, IndexError,
    TypeError or ValueError raised while reading it."""
    try:
        yield
    except (ArithmeticError, IndexError, TypeError, ValueError) as e:
        raise ValueError("field %s: %s" % (name, e)) from None


# ---------------------------------------------------------------------------
# CIF recursions
# ---------------------------------------------------------------------------

def cif_from_cause_specific(hazards):
    """CIFs and survival from (n, L, M+1) cause-specific head probabilities.

    S(t) = prod_{s<=t} (1 - lambda(s)),  F_m(t) = sum_{s<=t} lambda_m(s) S(s-1).
    """
    n, L, mp1 = hazards.shape
    lam = hazards[:, :, 1:]               # (n, L, M)
    total = lam.sum(axis=2)               # overall hazard per interval
    S = np.ones((n, L + 1))
    S[:, 1:] = np.cumprod(1.0 - total, axis=1)
    F = np.zeros((n, mp1 - 1, L + 1))
    F[:, :, 1:] = np.cumsum(lam * S[:, :-1, None], axis=1).transpose(0, 2, 1)
    return S, F


def cif_from_subdistribution(hazards):
    """F1(t) = 1 - prod_{s<=t} (1 - xi_1(s)) from (n, L) hazards."""
    n, L = hazards.shape
    F = np.zeros((n, L + 1))
    F[:, 1:] = 1.0 - np.cumprod(1.0 - hazards, axis=1)
    return F


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def build_table(ds, grid, model, g=None):
    """Augmented person-period table for the model's head."""
    if model.head == "csm":
        return augment_cause_specific(ds, grid, model.n_causes)
    if g is None:
        g = censoring_survival(ds, grid)
    return augment_subdistribution(ds, grid, model.target_cause, g)


def _epoch_loss(model, xn, curve_mats, table, rows, batch_size,
                adam=None, lr=None, shuffle_rng=None, input_grad=None):
    """One pass over the rows: fit's Adam pass, or grad_log_pred's without adam.

    The shuffled rows go in blocks of whole batches (see BATCH_BLOCK_CELLS),
    each block's table columns gathered and input_rows built once.
    input_grad, when given, is a (len(rows), P) buffer: row k receives the
    gradient of table row rows[k]'s own loss term with respect to its
    subject's xn row, at the parameters its batch saw before their update.
    """
    order = np.arange(len(rows))
    if shuffle_rng is not None:
        shuffle_rng.shuffle(order)
    width = model.params.weights[0].shape[1]
    block = batch_size * max(1, BATCH_BLOCK_CELLS // (batch_size * width))
    total = 0.0
    for start in range(0, len(order), batch_size):
        at = order[start:start + batch_size]
        b = slice(start % block, start % block + len(at))
        if b.start == 0:
            sel = rows[order[start:start + block]]
            subj_idx, target, weight = (table.subject_idx[sel], table.target[sel],
                                        table.weight[sel])
            inputs = model.input_rows(xn, subj_idx, table.interval[sel])
        fwd = model.forward_logits(lambda: inputs[b], curve_mats, subj_idx[b])
        loss, d_logits = model.batch_loss(fwd, target[b], weight[b])
        if not math.isfinite(loss):
            raise NumericError("non-finite loss (lr=%s, batch %d of %d)" % (
                lr, start // batch_size + 1, -(-len(order) // batch_size)))
        grad, d_rows = ad.backward(fwd, d_logits, adam is not None, input_grad is not None)
        if input_grad is not None:
            input_grad[at] = d_rows * len(at)
        if adam is not None:
            ad.adam_step(model.params.flat, grad, adam, lr)
        total += float(loss) * len(at)
    return total / max(len(rows), 1)


def train_model(ds, grid, head, settings, n_causes=None, target_cause=None):
    """Fit an FCRN, a basis layer per signal of ds, on complete data.

    Returns the model with the best validation loss under early stopping.
    """
    rng = np.random.RandomState(settings.seed)
    model = init_model(ds, grid, head, settings, n_causes, target_cause, rng)
    if ds.mask.any():
        raise ValueError("dataset has missing values; use the imputation loop")
    model.fit_normalization(ds.X)
    return fit(model, ds, model.normalize(ds.X), settings, rng)


def init_model(ds, grid, head, settings, n_causes, target_cause, rng):
    """An initialized model, a basis layer per signal of ds, with its curve
    normalization fitted; DataError when ds has no subjects."""
    if not len(ds):
        raise DataError("no subjects to train on")
    signal_specs = [{"name": name, "taus": _canonical_grid(ds, name),
                     "n_basis": settings.n_basis} for name in ds.signals]
    model = FCRNModel(head=head, grid=grid, n_tabular=ds.X.shape[1],
                      n_causes=n_causes, target_cause=target_cause,
                      signal_specs=signal_specs, hidden=settings.hidden,
                      time_encoding=settings.time_encoding, rng=rng)
    model.fit_curve_normalization(ds)
    return model


def _canonical_grid(ds, name):
    """Union of observed tau grids for one signal, capped at CANONICAL_GRID_CAP."""
    taus = np.unique(ds.signals[name].taus)
    if len(taus) > CANONICAL_GRID_CAP:
        taus = np.linspace(taus[0], taus[-1], CANONICAL_GRID_CAP)
    return taus


def fit(model, ds, xn, settings, rng, i_step=None, rel_tol=0.0):
    """Adam mini-batch epochs with a validation holdout and early stopping.

    The round(val_fraction * n) validation subjects, at most n - 1, are
    drawn from rng. The monitored loss is the validation loss, or the
    train loss when no subject is held out.
    Training stops after settings.patience epochs without a better
    monitored loss, after settings.max_epochs epochs, or when the last six
    monitored losses each moved by less than rel_tol relative; the best
    epoch's parameters and xn are restored. When i_step is given, every
    epoch starts with i_step(epoch, curve_mats, table, train_rows,
    pred_grad), which may update xn in place. pred_grad is None at epoch 0.
    Otherwise it is the (n, P) gradient of the summed log-likelihood of the
    training rows with respect to xn, gathered from the previous epoch's
    Adam pass: each row's gradient is taken at the parameters its batch
    saw, and validation subjects get zero rows.
    model.history gets one (epoch, train_loss, monitored_loss) row per
    epoch. DataError when no training subject has a person-period row.
    """
    n = len(ds)
    perm = rng.permutation(n)
    n_val = min(int(round(settings.val_fraction * n)), n - 1)
    table = build_table(ds, model.grid, model)
    in_val = np.isin(table.subject_idx, perm[:n_val])
    train_rows = np.where(~in_val)[0]
    val_rows = np.where(in_val)[0]
    if not len(train_rows):  # an sdm table has rows for intervals 1..L-1 only
        raise DataError("no person-period rows to train on: the sdm head needs a "
                        "grid of at least 2 intervals (this one has %d)"
                        % model.grid.n_intervals)

    curve_mats = model.curve_matrices(ds)
    adam = ad.AdamState(model.params.flat.size)
    shuffle_rng = np.random.RandomState(rng.randint(2 ** 31))
    best_loss, best_values, since_best = np.inf, model.params.flat.copy(), 0
    best_xn, input_grad = xn.copy(), None
    history = model.history = []
    for epoch in range(settings.max_epochs):
        if i_step is not None:
            i_step(epoch, curve_mats, table, train_rows, None if input_grad is None
                   else -ad.scatter_rows(table.subject_idx[train_rows], input_grad, n))
            input_grad = np.empty((len(train_rows), xn.shape[1]))
        tr_loss = _epoch_loss(model, xn, curve_mats, table, train_rows,
                              settings.batch_size, adam=adam, lr=settings.lr,
                              shuffle_rng=shuffle_rng, input_grad=input_grad)
        if len(val_rows):
            probs = model.head_probs(xn, curve_mats, len(val_rows), lambda lo, hi: (
                table.subject_idx[val_rows[lo:hi]], table.interval[val_rows[lo:hi]]))
            monitored = float(ad.nll(model.head, probs, table.target[val_rows],
                                     table.weight[val_rows]))
            if not math.isfinite(monitored):
                raise NumericError("non-finite validation loss at epoch %d" % epoch)
        else:
            monitored = tr_loss
        history.append((epoch, tr_loss, monitored))
        if monitored < best_loss - 1e-12:
            best_loss = monitored
            best_values[:] = model.params.flat
            best_xn[:] = xn
            since_best = 0
        else:
            since_best += 1
            if since_best >= settings.patience:
                break
        recent = np.array([h[2] for h in history[-6:]])
        moves = np.abs(np.diff(recent)) / np.maximum(np.abs(recent[:-1]), 1e-12)
        if len(recent) == 6 and moves.max() < rel_tol:
            break
    model.params.flat[:] = best_values
    xn[:] = best_xn
    return model
