"""Covariate-free discrete-hazard baseline for comparative experiments."""
from __future__ import annotations

import numpy as np

from .data import assign_intervals
from .model import cif_from_cause_specific


def intercept_only_cif(train, grid, n_causes, n_eval=1):
    """Empirical per-interval multinomial hazards and the implied CIFs.

    lambda_m(t) = (# cause-m events in interval t) / (# at risk at t).
    Returns (S, F) shaped like the CSM predictor for n_eval subjects, all
    rows identical since no covariates enter.
    """
    L = grid.n_intervals
    M = n_causes
    iv = assign_intervals(train.time, grid)
    at_risk = len(train) - np.cumsum(np.bincount(iv, minlength=L + 1))[:L]
    counted = train.cause <= M
    events = np.bincount(iv[counted] * (M + 1) + train.cause[counted],
                         minlength=(L + 1) * (M + 1)).reshape(L + 1, M + 1)
    # an empty risk set has no events, so its hazards are 0
    lam = events[1:, 1:] / np.maximum(at_risk, 1)[:, None]
    head = np.empty((1, L, M + 1))
    head[0, :, 1:] = lam
    head[0, :, 0] = 1.0 - lam.sum(axis=1)
    S, F = cif_from_cause_specific(head)
    return (np.repeat(S, n_eval, axis=0), np.repeat(F, n_eval, axis=0))
