"""Shared oracles: finite-difference gradients and direct likelihood forms."""
import numpy as np

from fcrn.data import assign_interval


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
    """Analytic gradient of the batch loss over the model's flat theta."""
    return model.loss_and_grads(batch)[1]


def batch_loss_fn(model, batch):
    """The batch loss as a function of the model's current theta and the
    batch's xn, both read at call time."""
    return lambda: model.loss_and_grads(batch, want_param_grad=False)[0]


def direct_nll_cs(hazards, subjects, grid):
    """The cause-specific log-likelihood evaluated straight from its sum form.

    hazards: (n, L, M+1) head probabilities; returns the negative
    log-likelihood summed over subjects and intervals.
    """
    nll = 0.0
    for i, s in enumerate(subjects):
        l_star = assign_interval(s.time, grid)
        for t in range(1, l_star + 1):
            lam_all = hazards[i, t - 1, 1:].sum()
            if t == l_star and s.cause >= 1:
                nll -= np.log(hazards[i, t - 1, s.cause])
            else:
                nll -= np.log(1.0 - lam_all)
    return nll


def direct_nll_sd(hazards, subjects, grid, target_cause, g):
    """The weighted sub-distribution log-likelihood from its sum form."""
    L = grid.n_intervals
    nll = 0.0
    for i, s in enumerate(subjects):
        l_star = assign_interval(s.time, grid)
        for t in range(1, L):
            at_risk = 1.0 if t <= l_star else 0.0
            past_comp = 1.0 if (l_star <= t - 1 and s.cause not in (0, target_cause)) else 0.0
            if at_risk == 0.0 and past_comp == 0.0:
                continue
            w = g.at(t - 1) / g.at(min(l_star, t) - 1) * (at_risk + past_comp)
            y = 1.0 if (t == l_star and s.cause == target_cause) else 0.0
            xi = hazards[i, t - 1]
            nll -= w * (y * np.log(xi) + (1.0 - y) * np.log(1.0 - xi))
    return nll
