"""Gradient-based missing-value imputation (IRO algorithm).

Median initialization, then model.fit's training loop with an I-step at
the start of every epoch: a Gaussian-graphical-model refit on the imputed
matrix and SGLD updates combining its prior gradient with the
prediction-loss gradient. The epoch's Adam pass over the network
parameters is the RO-step. Its backward passes also return each training
row's input gradient, so the next I-step's prediction gradient costs no
extra pass; only epoch 0 runs grad_log_pred. Only tabular covariates
participate; curves are assumed complete.
"""
from __future__ import annotations

import warnings
from collections import namedtuple
from dataclasses import dataclass, replace

import numpy as np

from .autodiff import scatter_rows
# censoring_survival stays in this namespace: the benchmark's tracer wraps
# it here (tests/test_bench_contract.py)
from .data import censoring_survival  # noqa: F401
from .model import _epoch_loss, fit, init_model, train_model

COND_VAR_FLOOR = 1e-8
# sgld_impute's epochs between graphical-model refits
GGM_REFIT_EVERY = 10


@dataclass
class ImputeSettings:
    eta: float = 0.003
    decay: float = 0.1
    milestones: tuple = (50, 100)
    noise: bool = True
    pred_weight: float = 1.0
    i_repeats: int = 1
    corr_threshold: float = 0.2
    k_max: int = 5
    ridge: float = 1e-3
    max_epochs: int = 150
    rel_tol: float = 1e-4


# The graphical-model prior: x_j given the other covariates is Gaussian
# with mean mu_j + coef[j] @ (x - mu) and variance cond_vars[j]. Row j of
# coef is x_j's ridge regression on its neighbourhood, zero elsewhere.
GGM = namedtuple("GGM", "mu coef cond_vars")


def median_init(X, mask):
    """Fill each missing entry with its column's observed median; ValueError
    for a column that has missing cells and no observed cell."""
    X = np.asarray(X, dtype=np.float64)
    if not mask.any():
        return X.copy()
    empty = np.flatnonzero(mask.all(axis=0))
    if len(empty):
        raise ValueError("column %d is fully missing; cannot initialize" % empty[0])
    with np.errstate(over="ignore"):  # an odd count of values past 8.9e307 fills inf
        medians = np.nanmedian(np.where(mask, np.nan, X), axis=0)
    return np.where(mask, medians, X)


def fit_ggm(X, corr_threshold=ImputeSettings.corr_threshold,
            k_max=ImputeSettings.k_max, ridge=ImputeSettings.ridge):
    """Learn the graph by correlation thresholding and fit its conditionals.

    x_j's neighbourhood is the k_max strongest other covariates whose
    absolute correlation with it reaches corr_threshold.
    """
    X = np.asarray(X, dtype=np.float64)
    p = X.shape[1]
    mu = X.mean(axis=0)
    cov = np.atleast_2d(np.cov(X.T, bias=False))
    sd = np.sqrt(np.maximum(np.diag(cov), 1e-12))
    strength = np.abs(cov / np.outer(sd, sd))
    coef = np.zeros((p, p))
    cond_vars = np.diag(cov).copy()
    for j in range(p):
        candidates = np.flatnonzero(strength[j] >= corr_threshold)
        # a covariate is never its own neighbour, even at threshold 0
        candidates = candidates[candidates != j]
        if len(candidates) > k_max:
            candidates = candidates[np.argsort(strength[j, candidates])[::-1][:k_max]]
        omega = np.sort(candidates)
        if len(omega) == 0:
            continue
        block = cov[np.ix_(omega, omega)] + ridge * np.eye(len(omega))
        try:
            coef[j, omega] = np.linalg.solve(block, cov[j, omega])
        except np.linalg.LinAlgError:
            warnings.warn("singular neighborhood block for covariate %d; "
                          "raising ridge" % j)
            coef[j, omega] = np.linalg.solve(
                block + 10 * ridge * np.eye(len(omega)), cov[j, omega])
        cond_vars[j] -= coef[j, omega] @ cov[j, omega]
    return GGM(mu, coef, np.maximum(cond_vars, COND_VAR_FLOOR))


def grad_log_prior(X, mask, ggm):
    """Gradient of the conditional Gaussian log-density at every missing cell,
    an (n, P) array that is zero at observed cells. X must be finite, so
    that a zero coefficient on a cell contributes exactly nothing."""
    mean = ggm.mu + (X - ggm.mu) @ ggm.coef.T
    return np.where(mask, -(X - mean) / ggm.cond_vars, 0.0)


def grad_log_pred(model, xn, curve_mats, table, rows, batch_size=4096):
    """Gradient of the summed log-likelihood w.r.t. the covariate matrix.

    -d(sum loss)/d(xn) over the given person-period rows, from one pass
    without Adam updates, summed per subject as fit sums the RO-step's; one
    entry per covariate cell (callers mask out observed cells).
    """
    per_row = np.empty((len(rows), xn.shape[1]))
    _epoch_loss(model, xn, curve_mats, table, rows, batch_size, input_grad=per_row)
    return -scatter_rows(table.subject_idx[rows], per_row, len(xn))


def eta_at(epoch, settings):
    """SGLD learning rate after multiplicative decay at schedule milestones."""
    eta = settings.eta
    for m in settings.milestones:
        if epoch >= m:
            eta *= settings.decay
    return eta


def i_step(X, mask, ggm, eta, rng, pred_grad=None, noise=True):
    """One SGLD update of every missing entry, in place.

    x_mis <- x_mis + eta (grad_prior + grad_pred) + sqrt(2 eta) e.
    Non-finite proposals are rejected cell by cell.
    """
    if eta == 0.0:
        return X
    grad = grad_log_prior(X, mask, ggm)
    if pred_grad is not None:
        grad = grad + np.where(mask, pred_grad, 0.0)
    step = eta * grad
    if noise:
        step = step + np.sqrt(2.0 * eta) * rng.standard_normal(X.shape)
    proposal = X + np.where(mask, step, 0.0)
    bad = mask & ~np.isfinite(proposal)
    if bad.any():
        warnings.warn("rejected %d non-finite imputation updates" % bad.sum())
        proposal[bad] = X[bad]
    X[mask] = proposal[mask]
    return X


def sgld_impute(X, mask, settings, rng):
    """Prior-only SGLD imputation loop of settings.max_epochs epochs.

    Returns the filled matrix; observed cells are never touched.
    """
    X = median_init(X, mask)
    ggm = fit_ggm(X, settings.corr_threshold, settings.k_max, settings.ridge)
    for epoch in range(settings.max_epochs):
        eta = eta_at(epoch, settings)
        for _ in range(settings.i_repeats):
            i_step(X, mask, ggm, eta, rng, noise=settings.noise)
        if (epoch + 1) % GGM_REFIT_EVERY == 0:
            ggm = fit_ggm(X, settings.corr_threshold, settings.k_max, settings.ridge)
    return X


def iro_train(ds, grid, head, settings, impute_settings=None,
              n_causes=None, target_cause=None):
    """Train an FCRN, a basis layer per signal of ds, while imputing
    missing tabular covariates.

    The training loop is model.fit's, with an I-step at the start of every
    epoch: a graphical-model refit on the current imputed matrix, then
    i_repeats SGLD passes over all missing entries. The epoch's Adam pass
    is the RO-step. The prediction gradient reads the training subjects'
    rows only, and all i_repeats passes of an epoch share it. From epoch 1
    on it is the sum fit gathers from the previous RO-step, each row's
    term taken at the parameters of its batch; epoch 0 takes it from
    grad_log_pred at the initial parameters. At pred_weight 0 there is no
    prediction gradient, and the RO-step forms no input gradients. fit
    gets a copy of settings whose max_epochs is min(settings.max_epochs,
    impute_settings.max_epochs), and also stops on a six-epoch plateau of
    the monitored loss (rel_tol). Falls through to the plain trainer when
    nothing is missing.

    Returns (model, imputed covariate matrix on the original scale); the
    matrix is the best epoch's, the one fit restores with the parameters.
    """
    mask = ds.mask
    if not mask.any():
        model = train_model(ds, grid, head, settings, n_causes=n_causes,
                            target_cause=target_cause)
        return model, ds.X.copy()

    imp = impute_settings or ImputeSettings()
    rng = np.random.RandomState(settings.seed)
    model = init_model(ds, grid, head, settings, n_causes, target_cause, rng)
    sgld_rng = np.random.RandomState(rng.randint(2 ** 31))
    X_filled = median_init(ds.X, mask)
    model.fit_normalization(X_filled)
    Xn = model.normalize(X_filled)

    def impute_epoch(epoch, curve_mats, table, train_rows, pred_grad):
        ggm = fit_ggm(Xn, imp.corr_threshold, imp.k_max, imp.ridge)
        eta = eta_at(epoch, imp)
        if pred_grad is None and imp.pred_weight != 0.0:
            pred_grad = grad_log_pred(model, Xn, curve_mats, table, train_rows)
        pred_grad = None if imp.pred_weight == 0.0 else imp.pred_weight * pred_grad
        for _ in range(imp.i_repeats):
            i_step(Xn, mask, ggm, eta, sgld_rng,
                   pred_grad=pred_grad, noise=imp.noise)
        return imp.pred_weight != 0.0

    capped = replace(settings, max_epochs=min(settings.max_epochs, imp.max_epochs))
    fit(model, ds, Xn, capped, rng, i_step=impute_epoch, rel_tol=imp.rel_tol)

    X_out = np.where(mask, model.denormalize(Xn), ds.X)
    model.fill_values = np.median(X_out, axis=0)
    return model, X_out
