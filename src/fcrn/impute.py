"""Gradient-based missing-value imputation (IRO algorithm).

Median initialization, then model.fit's training loop with an I-step at
the start of every epoch: a Gaussian-graphical-model refit on the imputed
matrix and SGLD updates combining its prior gradient with the
prediction-loss gradient. The epoch's Adam pass over the network
parameters is the RO-step. Only tabular covariates participate; curves
are assumed complete.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

# censoring_survival stays in this namespace: the benchmark's tracer wraps
# it here (tests/test_bench_contract.py)
from .data import censoring_survival, covariate_matrix  # noqa: F401
from .model import fit, init_model, table_batch, train_model

COND_VAR_FLOOR = 1e-8


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


class GaussianGraphicalModel:
    """Thresholded-correlation neighborhoods with Gaussian conditionals.

    For covariate j with neighborhood w(j), the conditional of x_j given
    x_w(j) is Gaussian with mean mu_j + coef_j (x_w - mu_w) and variance
    sigma_j^2 - coef_j Sigma_wj, ridge-regularized.
    """

    def __init__(self, mu, neighborhoods, coefs, cond_vars):
        self.mu = mu
        self.neighborhoods = neighborhoods
        self.coefs = coefs
        self.cond_vars = cond_vars

    @property
    def n_covariates(self):
        return len(self.mu)

    def conditional_mean(self, j, rows_x):
        """Conditional means of column j for an (n, P) slice of current values."""
        omega = self.neighborhoods[j]
        if len(omega) == 0:
            return np.full(len(rows_x), self.mu[j])
        return self.mu[j] + (rows_x[:, omega] - self.mu[omega]) @ self.coefs[j]


def median_init(X, mask):
    """Fill each missing entry with its column's observed median."""
    X = np.array(X, dtype=np.float64, copy=True)
    for j in range(X.shape[1]):
        col_missing = mask[:, j]
        if not col_missing.any():
            continue
        observed = X[~col_missing, j]
        if observed.size == 0:
            raise ValueError("column %d is fully missing; cannot initialize" % j)
        X[col_missing, j] = np.median(observed)
    return X


def fit_ggm(X, corr_threshold=0.2, k_max=5, ridge=1e-3):
    """Learn the graph by correlation thresholding and fit its conditionals."""
    X = np.asarray(X, dtype=np.float64)
    n, p = X.shape
    if p < 2:
        raise ValueError("need at least 2 covariates for a graphical model")
    mu = X.mean(axis=0)
    cov = np.cov(X.T, bias=False)
    sd = np.sqrt(np.maximum(np.diag(cov), 1e-12))
    corr = cov / np.outer(sd, sd)
    neighborhoods, coefs, cond_vars = [], [], []
    for j in range(p):
        strength = np.abs(corr[j])
        strength[j] = 0.0
        candidates = np.where(strength >= corr_threshold)[0]
        if len(candidates) > k_max:
            candidates = candidates[np.argsort(strength[candidates])[::-1][:k_max]]
        omega = np.sort(candidates)
        neighborhoods.append(omega)
        if len(omega) == 0:
            coefs.append(np.zeros(0))
            cond_vars.append(max(cov[j, j], COND_VAR_FLOOR))
            continue
        block = cov[np.ix_(omega, omega)] + ridge * np.eye(len(omega))
        cross = cov[j, omega]
        try:
            coef = np.linalg.solve(block, cross)
        except np.linalg.LinAlgError:
            warnings.warn("singular neighborhood block for covariate %d; "
                          "raising ridge" % j)
            coef = np.linalg.solve(block + 10 * ridge * np.eye(len(omega)), cross)
        v = cov[j, j] - coef @ cross
        if v <= COND_VAR_FLOOR:
            v = max(v, COND_VAR_FLOOR)
        coefs.append(coef)
        cond_vars.append(v)
    return GaussianGraphicalModel(mu=mu, neighborhoods=neighborhoods,
                                  coefs=coefs, cond_vars=np.asarray(cond_vars))


def grad_log_prior(X, mask, ggm):
    """Gradient of the conditional Gaussian log-density at every missing cell.

    Returns an (n, P) array, zero at observed cells.
    """
    grad = np.zeros_like(X)
    for j in range(X.shape[1]):
        rows = np.where(mask[:, j])[0]
        if len(rows) == 0:
            continue
        m = ggm.conditional_mean(j, X[rows])
        grad[rows, j] = -(X[rows, j] - m) / ggm.cond_vars[j]
    return grad


def grad_log_pred(model, xn, curve_mats, table, rows, batch_size=4096):
    """Gradient of the summed log-likelihood w.r.t. the covariate matrix.

    Accumulates -d(sum loss)/d(xn) over the given person-period rows; the
    returned array has one entry per covariate cell (observed cells get
    gradients too, callers mask them out). No parameter gradient is formed.
    """
    g = np.zeros_like(xn)
    for start in range(0, len(rows), batch_size):
        sel = rows[start:start + batch_size]
        _, _, d_xn = model.loss_and_grads(table_batch(xn, curve_mats, table, sel),
                                          want_input_grad=True, want_param_grad=False)
        g += len(sel) * d_xn
    return -g


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


def sgld_impute(X, mask, settings, rng, epochs=None, ggm_refit_every=10):
    """Prior-only SGLD imputation loop (prediction gradient disabled).

    Returns the filled matrix; observed cells are never touched.
    """
    X = median_init(X, mask)
    epochs = epochs if epochs is not None else settings.max_epochs
    ggm = fit_ggm(X, settings.corr_threshold, settings.k_max, settings.ridge)
    for epoch in range(epochs):
        eta = eta_at(epoch, settings)
        for _ in range(settings.i_repeats):
            i_step(X, mask, ggm, eta, rng, noise=settings.noise)
        if ggm_refit_every and (epoch + 1) % ggm_refit_every == 0:
            ggm = fit_ggm(X, settings.corr_threshold, settings.k_max, settings.ridge)
    return X


def iro_train(subjects, grid, head, settings, impute_settings=None,
              n_causes=None, target_cause=None, signal_names=()):
    """Train an FCRN while imputing missing tabular covariates.

    The training loop is model.fit's, with an I-step at the start of every
    epoch: a graphical-model refit on the current imputed matrix, then
    i_repeats SGLD passes over all missing entries whose prediction
    gradient reads the training subjects' rows only. The epoch's Adam pass
    is the RO-step. An imputing fit runs at most
    min(settings.max_epochs, impute_settings.max_epochs) epochs and also
    stops on a six-epoch plateau of the monitored loss (rel_tol). Falls
    through to the plain trainer when nothing is missing.

    Returns (model, imputed covariate matrix on the original scale).
    """
    X_raw, mask = covariate_matrix(subjects)
    if not mask.any():
        model = train_model(subjects, grid, head, settings, n_causes=n_causes,
                            target_cause=target_cause, signal_names=signal_names)
        return model, X_raw

    imp = impute_settings or ImputeSettings()
    rng = np.random.RandomState(settings.seed)
    model = init_model(subjects, grid, head, settings, n_causes, target_cause,
                       signal_names, rng)
    sgld_rng = np.random.RandomState(rng.randint(2 ** 31))
    X_filled = median_init(X_raw, mask)
    model.fit_normalization(X_filled)
    Xn = model.normalize(X_filled)

    def impute_epoch(epoch, curve_mats, table, train_rows):
        ggm = fit_ggm(Xn, imp.corr_threshold, imp.k_max, imp.ridge)
        eta = eta_at(epoch, imp)
        for _ in range(imp.i_repeats):
            pred_grad = None
            if imp.pred_weight != 0.0:
                pred_grad = imp.pred_weight * grad_log_pred(
                    model, Xn, curve_mats, table, train_rows)
            i_step(Xn, mask, ggm, eta, sgld_rng,
                   pred_grad=pred_grad, noise=imp.noise)

    fit(model, subjects, Xn, settings, rng, i_step=impute_epoch,
        max_epochs=min(settings.max_epochs, imp.max_epochs), rel_tol=imp.rel_tol)

    X_out = np.array(X_raw, copy=True)
    denorm = model.denormalize(Xn)
    X_out[mask] = denorm[mask]
    model.fill_values = np.median(X_out, axis=0)
    return model, X_out
