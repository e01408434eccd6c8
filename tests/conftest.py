"""Shared oracles: finite-difference gradients and direct likelihood forms,
plus helpers that make Datasets and the per-subject records the loop
references read."""
from dataclasses import dataclass, field

import numpy as np

from fcrn.data import Dataset, assign_intervals
from fcrn.metrics import brier_curve, brier_ipcw_curve


def dataset(time, cause, X=None, ids=None, signals=None):
    """A Dataset from columns: X (NaN at missing cells) defaults to one zero
    covariate per subject, ids to s0, s1, ..."""
    n = len(time)
    X = np.zeros((n, 1)) if X is None else X
    return Dataset(["s%d" % i for i in range(n)] if ids is None else ids, time, cause,
                   X, signals or {})


@dataclass
class Record:
    """One subject as the row-by-row reference code reads it; curves holds
    (name, taus, values) triples."""

    id: str
    x: np.ndarray
    missing_mask: np.ndarray
    time: float
    cause: int
    curves: list = field(default_factory=list)


def records(ds):
    """The subjects of ds as Records, curves in the dataset's signal order."""
    out, mask = [], ds.mask
    for i in range(len(ds)):
        curves = [(name, sig.taus[sig.offsets[i]:sig.offsets[i + 1]],
                   sig.values[sig.offsets[i]:sig.offsets[i + 1]])
                  for name, sig in ds.signals.items()]
        out.append(Record(ds.ids[i], ds.X[i], mask[i], float(ds.time[i]),
                          int(ds.cause[i]), curves))
    return out


def ref_assign_interval(time, grid):
    """The interval of one time, by the scalar rule assign_intervals vectorizes."""
    if time < 0 or time > grid.max_time + 1e-9:
        raise ValueError("time %g outside grid [0, %g]" % (time, grid.max_time))
    if time <= grid.cuts[1]:
        return 1
    return min(int(np.searchsorted(grid.cuts, time, side="left")), grid.n_intervals)


def g_at(g, t):
    """Censoring survival G(t) at one integer interval index t; t <= 0 is 1."""
    return 1.0 if t <= 0 else float(g.g[min(t, len(g.g) - 1)])


def brier_at(t, preds, ds, cause):
    """metrics.brier_curve at the one time t, one prediction per subject."""
    preds = np.asarray(preds, dtype=np.float64).reshape(-1, 1)
    return float(brier_curve(np.array([t], dtype=np.float64), preds, ds, cause)[0])


def brier_ipcw_at(t, preds, ds, cause, g, grid):
    """metrics.brier_ipcw_curve at the one time t, one prediction per subject."""
    preds = np.asarray(preds, dtype=np.float64).reshape(-1, 1)
    return float(brier_ipcw_curve(np.array([t], dtype=np.float64), preds, ds, cause,
                                  g, grid)[0])


def finite_diff(loss_fn, flat, step=1e-5):
    """Central finite-difference gradient of a scalar loss_fn() over a flat
    float64 vector, perturbed in place entry by entry and restored."""
    grad = np.zeros_like(flat)
    for k in range(flat.size):
        orig = flat[k]
        flat[k] = orig + step
        up = float(loss_fn())
        flat[k] = orig - step
        down = float(loss_fn())
        flat[k] = orig
        grad[k] = (up - down) / (2.0 * step)
    return grad


def max_rel_err(analytic, numeric, floor=1e-3):
    """Max |a - n| / max(|n|, floor) over all entries."""
    analytic, numeric = np.asarray(analytic), np.asarray(numeric)
    return float(np.max(np.abs(analytic - numeric) / np.maximum(np.abs(numeric), floor)))


def collect_grads(model, batch):
    """Analytic gradient over the model's flat theta of the loss of batch,
    loss_and_grads' (xn, curve_mats, table, rows)."""
    return model.loss_and_grads(*batch)[1]


def batch_loss_fn(model, batch):
    """The loss of batch, (xn, curve_mats, table, rows), as a function of the
    model's current theta and of xn, both read at call time."""
    return lambda: model.loss_and_grads(*batch, want_param_grad=False)[0]


def direct_nll_cs(hazards, ds, grid):
    """The cause-specific log-likelihood evaluated straight from its sum form.

    hazards: (n, L, M+1) head probabilities; returns the negative
    log-likelihood summed over subjects and intervals.
    """
    nll = 0.0
    for i, (l_star, cause) in enumerate(zip(assign_intervals(ds.time, grid), ds.cause)):
        for t in range(1, l_star + 1):
            lam_all = hazards[i, t - 1, 1:].sum()
            if t == l_star and cause >= 1:
                nll -= np.log(hazards[i, t - 1, cause])
            else:
                nll -= np.log(1.0 - lam_all)
    return nll


def direct_nll_sd(hazards, ds, grid, target_cause, g):
    """The weighted sub-distribution log-likelihood from its sum form."""
    L = grid.n_intervals
    nll = 0.0
    for i, (l_star, cause) in enumerate(zip(assign_intervals(ds.time, grid), ds.cause)):
        for t in range(1, L):
            at_risk = 1.0 if t <= l_star else 0.0
            past_comp = 1.0 if (l_star <= t - 1 and cause not in (0, target_cause)) else 0.0
            if at_risk == 0.0 and past_comp == 0.0:
                continue
            w = g_at(g, t - 1) / g_at(g, min(l_star, t) - 1) * (at_risk + past_comp)
            y = 1.0 if (t == l_star and cause == target_cause) else 0.0
            xi = hazards[i, t - 1]
            nll -= w * (y * np.log(xi) + (1.0 - y) * np.log(1.0 - xi))
    return nll
