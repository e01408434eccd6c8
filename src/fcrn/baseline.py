"""Covariate-free discrete-hazard baseline for comparative experiments."""
from __future__ import annotations

import numpy as np

from .data import assign_intervals
from .model import cif_from_cause_specific


def intercept_only_cif(train_subjects, grid, n_causes, n_eval=1):
    """Empirical per-interval multinomial hazards and the implied CIFs.

    lambda_m(t) = (# cause-m events in interval t) / (# at risk at t).
    Returns (S, F) shaped like the CSM predictor for n_eval subjects, all
    rows identical since no covariates enter.
    """
    L = grid.n_intervals
    iv = assign_intervals([s.time for s in train_subjects], grid)
    cause = np.array([s.cause for s in train_subjects])
    lam = np.zeros((L, n_causes))
    for t in range(1, L + 1):
        at_risk = np.sum(iv >= t)
        if at_risk == 0:
            continue
        for m in range(1, n_causes + 1):
            lam[t - 1, m - 1] = np.sum((iv == t) & (cause == m)) / at_risk
    head = np.empty((1, L, n_causes + 1))
    head[0, :, 1:] = lam
    head[0, :, 0] = 1.0 - lam.sum(axis=1)
    S, F = cif_from_cause_specific(head)
    return (np.repeat(S, n_eval, axis=0), np.repeat(F, n_eval, axis=0))
