"""IPCW-censored Brier score and Integrated Brier Score.

Competing-risks CIF predictions are scored with the Graf-style IPCW
decomposition: still-at-risk subjects are weighted by 1/G(t), observed
events by 1/G(T-1), and censored-before-t subjects drop out.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .data import G_FLOOR, GRID_TOL, assign_intervals

# the most cells (subjects x evaluation times) brier_ipcw_curve scores in one
# block: 2^14, 128 KB of float64, beside the CIF matrices it reads
SCORE_CELLS = 1 << 14


@dataclass
class ScoreCurve:
    """BS(t) over evaluation times plus its trapezoidal time average."""

    times: np.ndarray
    values: np.ndarray
    ibs: float


def brier_ipcw_curve(times, P, ds, cause, g, grid):
    """IPCW Brier score at each of times; P is (n_subjects, n_times).

    At time t, subjects still at risk past t contribute (0 - F)^2 / G(t);
    subjects with an observed event by t contribute (1{R=m} - F)^2 /
    G(T-1); subjects censored by t contribute nothing. Normalized by N.
    Each time's terms are summed in subject order, as a running total over
    the subjects gives. The subjects are taken in blocks of whole rows of at
    most SCORE_CELLS cells, so no (subjects, times) temporary is larger than
    a block; each block's running sum starts from the total of the blocks
    before it, which adds the rows in the same order as one sum over every
    subject.
    """
    l_t = np.where(times > 0, assign_intervals(np.maximum(times, 0.0), grid), 0)
    g_t = np.maximum(g.at_intervals(l_t), G_FLOOR)
    # a subject past the grid is at risk at every time, so its clamped
    # interval is never read
    l_event = assign_intervals(np.minimum(ds.time, grid.max_time), grid)
    g_event = np.maximum(g.at_intervals(l_event - 1), G_FLOOR)
    label = (ds.cause == cause).astype(np.float64)[:, None]
    rows = max(1, SCORE_CELLS // max(len(times), 1))
    total = np.zeros(len(times))
    for lo in range(0, len(ds), rows):
        block = slice(lo, lo + rows)
        P_b = P[block]
        at_risk = ds.time[block, None] > times
        event = ~at_risk & (ds.cause[block] != 0)[:, None]
        terms = np.zeros(P_b.shape)
        terms[at_risk] = (P_b * P_b / g_t)[at_risk]
        # the per-subject form squares with C pow(), which rounds about one
        # square in 1000 differently from x * x (what ndarray ** 2 computes);
        # math.pow is C pow() too. np.power takes the x * x path for a
        # scalar 2 and rounds apart from pow() with an array of 2s, so no
        # numpy call stands in for it
        residual = (label[block] - P_b)[event].tolist()
        terms[event] = (np.fromiter(map(math.pow, residual, itertools.repeat(2.0)), float,
                                    len(residual))
                        / np.broadcast_to(g_event[block, None], P_b.shape)[event])
        # terms are >= 0, so 0.0 + the first row is that row, bit for bit
        total = np.cumsum(np.vstack([total, terms]), axis=0)[-1]
    return total / len(ds)


def ibs(times, values):
    """Trapezoidal average of a score curve over its time range."""
    times = np.asarray(times, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if len(times) < 2:
        raise ValueError("IBS needs at least 2 evaluation times")
    if times[-1] <= times[0]:
        raise ValueError("t_max must exceed t_0")
    return float(np.trapezoid(values, times) / (times[-1] - times[0]))


def evaluation_columns(grid, t0=0.0, t_max=None):
    """Grid columns scored between t0 and t_max (default the grid's end): the
    interval endpoints in [t0, t_max], within GRID_TOL."""
    if t_max is None:
        t_max = grid.max_time
    return np.flatnonzero((t0 - GRID_TOL <= grid.cuts) & (grid.cuts <= t_max + GRID_TOL))


def score_cif(F, ds, cause, grid, g, t0=0.0, t_max=None):
    """Score one cause's CIF matrix (n, L+1, column t = endpoint t) as a curve.

    The IPCW Brier score under the censoring survival g, at the interval
    endpoints intersected with [t0, t_max].
    """
    cols = evaluation_columns(grid, t0, t_max)
    times = grid.cuts[cols]
    # the scored columns are consecutive, so P is a view of F, not a copy
    P = F[:, cols[0]:cols[-1] + 1] if len(cols) else F[:, cols]
    values = brier_ipcw_curve(times, P, ds, cause, g, grid)
    return ScoreCurve(times=times, values=values, ibs=ibs(times, values))
