"""The full FCRN: feature assembly, hazard heads, losses, training, CIFs.

Two head families share the same trunk. The cause-specific model (CSM)
ends in a softmax over M+1 categories (category 0 = survive the interval);
the sub-distribution model (SDM) ends in a single sigmoid hazard for one
target cause. The interval index enters as a scalar t/L feature by default
(one-hot encoding available behind a flag).
"""
from __future__ import annotations

import json
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .basis import MICRO_DEPTH, MICRO_WIDTH, BasisLayer, resample_curve
from .data import (TimeGrid, augment_cause_specific, augment_subdistribution,
                   censoring_survival, covariate_matrix)

# person-period rows predicted per forward pass; bounds prediction memory
PREDICT_ROWS = 16384

# Person-period rows of one step: the full normalized covariate matrix xn,
# the normalized curve matrices by signal name, and the rows' subject
# indices, intervals, targets and weights.
Batch = namedtuple("Batch", "xn curves subj_idx interval target weight")


def table_batch(xn, curve_mats, table, rows):
    """The Batch of the given person-period table rows."""
    return Batch(xn, curve_mats, table.subject_idx[rows], table.interval[rows],
                 table.target[rows], table.weight[rows])


class NumericError(RuntimeError):
    """Raised when training hits non-finite losses."""


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
    normalize_curves: bool = True
    seed: int = 0
    log: list = field(default_factory=list)


class FCRNModel:
    """Basis layers + main MLP + hazard head over a fixed time grid."""

    def __init__(self, head, grid, n_tabular, n_causes=None, target_cause=None,
                 signal_specs=(), hidden=(32, 64, 32), time_encoding="scalar",
                 rng=None):
        if head not in ("csm", "sdm"):
            raise ValueError("head must be 'csm' or 'sdm'")
        if head == "csm" and not n_causes:
            raise ValueError("CSM head needs the cause count")
        if head == "sdm" and not target_cause:
            raise ValueError("SDM head needs the target cause")
        rng = rng or np.random.RandomState(0)
        self.head = head
        self.grid = grid
        self.n_tabular = n_tabular
        self.n_causes = n_causes
        self.target_cause = target_cause
        self.time_encoding = time_encoding
        self.hidden = tuple(hidden)
        # z-normalization statistics, filled by fit_normalization
        self.norm_mean = np.zeros(n_tabular)
        self.norm_std = np.ones(n_tabular)
        # per-covariate fill for missing cells seen at prediction time
        self.fill_values = np.zeros(n_tabular)

        self.signal_specs = [dict(s) for s in signal_specs]
        for spec in self.signal_specs:
            spec.setdefault("micro_width", MICRO_WIDTH)
            spec.setdefault("micro_depth", MICRO_DEPTH)

        time_width = grid.n_intervals if time_encoding == "onehot" else 1
        width_in = (n_tabular
                    + sum(s["n_basis"] for s in self.signal_specs)
                    + time_width)
        n_out = (n_causes + 1) if head == "csm" else 1
        mlp_shapes, fan_in = [], width_in
        for w_out in list(self.hidden) + [n_out]:
            mlp_shapes.append(((w_out, fan_in), (w_out,)))
            fan_in = w_out
        self.params = ad.Params(mlp_shapes, [
            ad.micro_shapes(s["n_basis"], s["micro_width"], s["micro_depth"])
            for s in self.signal_specs])
        # initialization draws: basis layers first, then the MLP
        self.basis_layers = {}
        for spec, views in zip(self.signal_specs, self.params.basis):
            layer = BasisLayer(spec["n_basis"], spec["taus"], spec["micro_width"],
                               spec["micro_depth"], params=views)
            layer.init(rng)
            self.basis_layers[spec["name"]] = layer
        for w in self.mlp_w:
            w[...] = ad.glorot_uniform(w.shape[0], w.shape[1], rng)

    # -- parameters --------------------------------------------------------

    @property
    def theta(self):
        """The flat float64 vector holding every parameter."""
        return self.params.flat

    @property
    def mlp_w(self):
        return self.params.mlp_w

    @property
    def mlp_b(self):
        return self.params.mlp_b

    # -- feature assembly ----------------------------------------------------

    def fit_normalization(self, X):
        """Set tabular z-normalization statistics from a filled matrix."""
        self.norm_mean = X.mean(axis=0)
        std = X.std(axis=0)
        self.norm_std = np.where(std > 1e-12, std, 1.0)
        self.fill_values = np.median(X, axis=0)

    def normalize(self, X):
        return (X - self.norm_mean) / self.norm_std

    def denormalize(self, Xn):
        return Xn * self.norm_std + self.norm_mean

    def curve_matrices(self, subjects):
        """Resample and normalize each signal into an (n, J) value matrix."""
        out = {}
        for spec in self.signal_specs:
            name = spec["name"]
            taus = np.asarray(spec["taus"])
            rows = []
            for s in subjects:
                match = [c for c in s.curves if c.name == name]
                if not match:
                    raise ValueError("subject %s lacks signal %r" % (s.id, name))
                rows.append(resample_curve(match[0], taus))
            vals = np.vstack(rows)
            out[name] = (vals - spec.get("mean", 0.0)) / spec.get("std", 1.0)
        return out

    def fit_curve_normalization(self, subjects, enabled=True):
        for spec in self.signal_specs:
            spec["mean"], spec["std"] = 0.0, 1.0
        if not enabled or not self.signal_specs:
            return
        raw = self.curve_matrices(subjects)
        for spec in self.signal_specs:
            vals = raw[spec["name"]]
            spec["mean"] = float(vals.mean())
            sd = float(vals.std())
            spec["std"] = sd if sd > 1e-12 else 1.0

    def _time_feature(self, intervals):
        L = self.grid.n_intervals
        if self.time_encoding == "onehot":
            f = np.zeros((len(intervals), L))
            f[np.arange(len(intervals)), np.asarray(intervals) - 1] = 1.0
            return f
        return (np.asarray(intervals, dtype=np.float64) / L).reshape(-1, 1)

    def project_signals(self, curve_mats, subj_idx):
        """Basis coefficients of the subjects subj_idx names, each projected
        once; None without signals."""
        if not self.signal_specs:
            return None
        subjects, rows = np.unique(subj_idx, return_inverse=True)
        return ad.Projections(rows, [
            self.basis_layers[spec["name"]].project(curve_mats[spec["name"]][subjects])
            for spec in self.signal_specs])

    def forward_logits(self, xn, projections, subj_idx, intervals, keep=True):
        """Logits for person-period rows.

        xn is the full (n_subjects, P) normalized matrix and projections
        come from project_signals(curve_mats, subj_idx); keep=False skips
        the backward cache.
        """
        return ad.forward(self.params, self.head, xn, projections, subj_idx,
                          self._time_feature(intervals), keep)

    # -- heads and losses ----------------------------------------------------

    def batch_loss(self, fwd, target, weight):
        """Mean NLL of the forward pass's rows (weighted for SDM)."""
        return ad.head_loss(fwd, target, weight)

    def loss_and_grads(self, batch, want_input_grad=False, want_param_grad=True):
        """Batch loss, its gradient over theta, and d loss / d xn on request.

        Returns (loss, flat gradient or None, (n, P) input gradient or None);
        the I-step asks for the input gradient alone.
        """
        projections = self.project_signals(batch.curves, batch.subj_idx)
        want = want_param_grad or want_input_grad
        fwd = self.forward_logits(batch.xn, projections, batch.subj_idx,
                                  batch.interval, keep=want)
        loss = self.batch_loss(fwd, batch.target, batch.weight)
        grad = d_xn = None
        if want:
            grad, d_xn = ad.backward(loss, want_param_grad, want_input_grad)
        return loss.value, grad, d_xn

    # -- prediction ----------------------------------------------------------

    def predict_hazards(self, subjects, xn=None):
        """Per-interval hazards for each subject at t = 1..L.

        CSM: (n, L, M+1) head probabilities. SDM: (n, L) hazards.
        Accepts a pre-normalized covariate matrix to support audit paths.
        """
        n = len(subjects)
        L = self.grid.n_intervals
        if xn is None:
            X, mask = covariate_matrix(subjects)
            if mask.any():
                X = np.where(mask, self.fill_values, X)
            if np.any(~np.isfinite(X)):
                raise ValueError("unimputed missing covariates reached prediction")
            xn = self.normalize(X)
        curve_mats = self.curve_matrices(subjects) if self.signal_specs else {}
        n_out = self.n_causes + 1 if self.head == "csm" else 1
        probs = np.empty((n, L, n_out))
        step = max(1, PREDICT_ROWS // L)
        for lo in range(0, n, step):
            hi = min(lo + step, n)
            subj_idx = np.repeat(np.arange(lo, hi), L)
            intervals = np.tile(np.arange(1, L + 1), hi - lo)
            fwd = self.forward_logits(xn, self.project_signals(curve_mats, subj_idx),
                                      subj_idx, intervals, keep=False)
            probs[lo:hi] = ad.hazards(fwd).reshape(hi - lo, L, n_out)
        return probs if self.head == "csm" else probs[:, :, 0]

    def predict_cif(self, subjects, xn=None):
        """Survival and cumulative incidence curves per subject.

        CSM: (S, F) with S shape (n, L+1) starting at 1 and F shape
        (n, M, L+1) starting at 0. SDM: F1 with shape (n, L+1).
        """
        hz = self.predict_hazards(subjects, xn=xn)
        if self.head == "csm":
            return cif_from_cause_specific(hz)
        return cif_from_subdistribution(hz)

    # -- serialization -------------------------------------------------------

    def to_dict(self):
        basis = []
        for spec in self.signal_specs:
            layer = self.basis_layers[spec["name"]]
            basis.append({
                "name": spec["name"],
                "taus": list(map(float, spec["taus"])),
                "n_basis": spec["n_basis"],
                "mean": spec.get("mean", 0.0),
                "std": spec.get("std", 1.0),
                "micro_width": layer.width,
                "micro_depth": layer.depth,
                "weights": [[w[d].tolist() for w in layer.weights]
                            for d in range(layer.n_basis)],
                "biases": [[b[d].tolist() for b in layer.biases]
                           for d in range(layer.n_basis)],
            })
        return {
            "head": self.head,
            "n_causes": self.n_causes,
            "target_cause": self.target_cause,
            "n_tabular": self.n_tabular,
            "hidden": list(self.hidden),
            "time_encoding": self.time_encoding,
            "grid": {"width": self.grid.width, "cuts": self.grid.cuts.tolist()},
            "norm_mean": self.norm_mean.tolist(),
            "norm_std": self.norm_std.tolist(),
            "fill_values": self.fill_values.tolist(),
            "mlp_w": [w.tolist() for w in self.mlp_w],
            "mlp_b": [b.tolist() for b in self.mlp_b],
            "basis_layers": basis,
        }

    @classmethod
    def from_dict(cls, d):
        grid = TimeGrid(width=d["grid"]["width"],
                        cuts=np.asarray(d["grid"]["cuts"], dtype=np.float64))
        specs = [{"name": b["name"], "taus": b["taus"], "n_basis": b["n_basis"],
                  "mean": b["mean"], "std": b["std"],
                  "micro_width": b.get("micro_width", MICRO_WIDTH),
                  "micro_depth": b.get("micro_depth", MICRO_DEPTH)}
                 for b in d["basis_layers"]]
        model = cls(head=d["head"], grid=grid, n_tabular=d["n_tabular"],
                    n_causes=d["n_causes"], target_cause=d["target_cause"],
                    signal_specs=specs, hidden=d["hidden"],
                    time_encoding=d["time_encoding"])
        model.norm_mean = np.asarray(d["norm_mean"], dtype=np.float64)
        model.norm_std = np.asarray(d["norm_std"], dtype=np.float64)
        model.fill_values = np.asarray(d["fill_values"], dtype=np.float64)
        for view, v in zip(model.mlp_w + model.mlp_b, d["mlp_w"] + d["mlp_b"]):
            view[...] = v
        for bdict in d["basis_layers"]:
            layer = model.basis_layers[bdict["name"]]
            for k, (ws, bs) in enumerate(zip(bdict["weights"], bdict["biases"])):
                for view, v in zip(layer.weights + layer.biases, ws + bs):
                    view[k] = v
        return model

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


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
    for t in range(1, L + 1):
        F[:, :, t] = F[:, :, t - 1] + lam[:, t - 1, :] * S[:, t - 1][:, None]
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

def build_table(subjects, grid, model, g=None):
    """Augmented person-period table for the model's head."""
    if model.head == "csm":
        return augment_cause_specific(subjects, grid, model.n_causes)
    if g is None:
        g = censoring_survival(subjects, grid)
    return augment_subdistribution(subjects, grid, model.target_cause, g)


def _epoch_loss(model, xn, curve_mats, table, rows, batch_size,
                adam=None, lr=None, shuffle_rng=None):
    """One pass over the table; updates parameters when adam is given."""
    order = np.arange(len(rows))
    if shuffle_rng is not None:
        shuffle_rng.shuffle(order)
    total, count = 0.0, 0
    for start in range(0, len(order), batch_size):
        sel = rows[order[start:start + batch_size]]
        loss, grad, _ = model.loss_and_grads(table_batch(xn, curve_mats, table, sel),
                                             want_param_grad=adam is not None)
        if not np.isfinite(loss):
            raise NumericError("non-finite loss (lr=%s, batch starting at row %d)"
                               % (lr, start))
        if adam is not None:
            ad.adam_step(model.theta, grad, adam, lr)
        total += float(loss) * len(sel)
        count += len(sel)
    return total / max(count, 1)


def train_model(subjects, grid, head, settings, n_causes=None, target_cause=None,
                signal_names=()):
    """Fit an FCRN on complete-data subjects (no missingness path).

    Returns the model with the best validation loss under early stopping.
    """
    rng = np.random.RandomState(settings.seed)
    model = init_model(subjects, grid, head, settings, n_causes, target_cause,
                       signal_names, rng)
    X, mask = covariate_matrix(subjects)
    if mask.any():
        raise ValueError("dataset has missing values; use the imputation loop")
    model.fit_normalization(X)
    return fit(model, subjects, model.normalize(X), settings, rng)


def init_model(subjects, grid, head, settings, n_causes, target_cause,
               signal_names, rng):
    """An initialized model with its curve normalization fitted."""
    signal_specs = []
    if signal_names and subjects and subjects[0].curves:
        for name in signal_names:
            taus = _canonical_grid(subjects, name)
            signal_specs.append({"name": name, "taus": taus,
                                 "n_basis": settings.n_basis})
    model = FCRNModel(head=head, grid=grid, n_tabular=len(subjects[0].x),
                      n_causes=n_causes, target_cause=target_cause,
                      signal_specs=signal_specs, hidden=settings.hidden,
                      time_encoding=settings.time_encoding, rng=rng)
    model.fit_curve_normalization(subjects, enabled=settings.normalize_curves)
    return model


def _canonical_grid(subjects, name, cap=101):
    """Union of observed tau grids for one signal, capped at `cap` points."""
    taus = np.unique(np.concatenate(
        [c.taus for s in subjects for c in s.curves if c.name == name]))
    if len(taus) > cap:
        taus = np.linspace(taus[0], taus[-1], cap)
    return taus


def fit(model, subjects, xn, settings, rng, i_step=None, max_epochs=None,
        rel_tol=0.0):
    """Adam mini-batch epochs with a validation holdout and early stopping.

    The validation subjects are drawn from rng. The monitored loss is the
    validation loss, or the train loss when no subject is held out.
    Training stops after settings.patience epochs without a better
    monitored loss, after max_epochs (default settings.max_epochs) epochs,
    or when the last six monitored losses each moved by less than rel_tol
    relative; the best epoch's parameters are restored. i_step, when
    given, runs as i_step(epoch, curve_mats, table, train_rows) at the
    start of every epoch and may update xn in place. settings.log gets
    one (epoch, train_loss, monitored_loss) row per epoch.
    """
    n = len(subjects)
    perm = rng.permutation(n)
    n_val = int(round(settings.val_fraction * n))
    g = censoring_survival(subjects, model.grid) if model.head == "sdm" else None
    table = build_table(subjects, model.grid, model, g=g)
    in_val = np.isin(table.subject_idx, perm[:n_val])
    train_rows = np.where(~in_val)[0]
    val_rows = np.where(in_val)[0]

    curve_mats = model.curve_matrices(subjects) if model.signal_specs else {}
    adam = ad.AdamState(model.theta.size)
    shuffle_rng = np.random.RandomState(rng.randint(2 ** 31))
    best_loss, best_values, since_best = np.inf, model.theta.copy(), 0
    history = []
    for epoch in range(settings.max_epochs if max_epochs is None else max_epochs):
        if i_step is not None:
            i_step(epoch, curve_mats, table, train_rows)
        tr_loss = _epoch_loss(model, xn, curve_mats, table, train_rows,
                              settings.batch_size, adam=adam, lr=settings.lr,
                              shuffle_rng=shuffle_rng)
        if len(val_rows):
            monitored = _epoch_loss(model, xn, curve_mats, table,
                                    val_rows, settings.batch_size)
        else:
            monitored = tr_loss
        history.append((epoch, tr_loss, monitored))
        if monitored < best_loss - 1e-12:
            best_loss = monitored
            best_values = model.theta.copy()
            since_best = 0
        else:
            since_best += 1
            if since_best >= settings.patience:
                break
        recent = np.array([h[2] for h in history[-6:]])
        moves = np.abs(np.diff(recent)) / np.maximum(np.abs(recent[:-1]), 1e-12)
        if len(recent) == 6 and moves.max() < rel_tol:
            break
    model.theta[:] = best_values
    settings.log = history
    return model
