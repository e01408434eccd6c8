"""Adaptive basis layer: micro-networks acting as learnable basis functions.

Each basis node is a tiny tau -> B_d(tau) network; curve projections are
trapezoid-weighted inner products between the sampled curve and the basis
values. Gradients into the micro-networks come from autodiff.backward.
"""
from __future__ import annotations

import numpy as np

from . import autodiff as ad

MICRO_WIDTH = 16
MICRO_DEPTH = 2  # hidden tanh sublayers


def trapezoid_weights(taus):
    """Composite trapezoid weights for strictly increasing sample points."""
    taus = np.asarray(taus, dtype=np.float64)
    if taus.size < 2:
        raise ValueError("trapezoid rule needs at least 2 points")
    if np.any(np.diff(taus) <= 0):
        raise ValueError("sample points must be strictly increasing")
    w = np.empty_like(taus)
    w[0] = (taus[1] - taus[0]) / 2.0
    w[-1] = (taus[-1] - taus[-2]) / 2.0
    w[1:-1] = (taus[2:] - taus[:-2]) / 2.0
    return w


class BasisLayer:
    """The projection of one functional signal onto its D micro-networks.

    spec is the signal's record in model.signal_specs; weights[k] (D,
    fan_out, fan_in) and biases[k] (D, fan_out) are its views of the
    model's parameters, the tanh sublayers first and the linear output last.
    """

    def __init__(self, spec, views):
        self.spec = spec
        self.weights, self.biases = views

    def project(self, curve_values, basis):
        """Project curves sampled on the canonical grid onto the learned basis.

        curve_values: (n, J) array of x(tau_j), one row per subject to
        project; basis: the (J, D) values B_d(tau_j) of this signal's
        micro-networks (ad.micro_forward). Returns a Projection whose (n, D)
        coef holds a_d = sum_j w_j B_d(tau_j) x(tau_j).
        """
        vals = np.atleast_2d(np.asarray(curve_values, dtype=np.float64))
        taus = self.spec["taus"]
        if vals.shape[1] != taus.size:
            raise ValueError("curve sampled on %d points, layer expects %d"
                             % (vals.shape[1], taus.size))
        weighted = vals * self.spec["int_weights"]
        return ad.Projection(weighted @ basis, weighted)
