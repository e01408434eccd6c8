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
    """D micro-networks tau -> B_d(tau) over one functional signal, plus its
    integration rule.

    The micro-networks are stacked: weights[k] is (D, fan_out, fan_in) and
    biases[k] is (D, fan_out), for the tanh sublayers and then the linear
    output. Inside a model they are views into its flat parameter vector;
    a layer built alone owns zero-filled arrays.
    """

    def __init__(self, n_basis, taus, width=MICRO_WIDTH, depth=MICRO_DEPTH,
                 params=None):
        if n_basis < 1:
            raise ValueError("need at least one basis node")
        self.taus = np.asarray(taus, dtype=np.float64)
        self.int_weights = trapezoid_weights(self.taus)
        self.n_basis = n_basis
        self.width = width
        self.depth = depth
        if params is None:
            shapes = ad.micro_shapes(n_basis, width, depth)
            params = ([np.zeros(w) for w, _ in shapes], [np.zeros(b) for _, b in shapes])
        self.weights, self.biases = params

    def init(self, rng):
        """Glorot weights and zero biases, drawn net by net, sublayer by sublayer."""
        for d in range(self.n_basis):
            for w in self.weights:
                w[d] = ad.glorot_uniform(w.shape[1], w.shape[2], rng)
        for b in self.biases:
            b[...] = 0.0

    def basis_matrix(self):
        """(J, D) basis values on the canonical tau grid."""
        return ad.micro_forward(self.weights, self.biases, self.taus)[0]

    def project(self, curve_values):
        """Project curves sampled on the canonical grid onto the learned basis.

        curve_values: (n, J) array of x(tau_j), one row per subject to
        project. Returns a Projection whose (n, D) coef holds
        a_d = sum_j w_j B_d(tau_j) x(tau_j).
        """
        vals = np.atleast_2d(np.asarray(curve_values, dtype=np.float64))
        if vals.shape[1] != self.taus.size:
            raise ValueError("curve sampled on %d points, layer expects %d"
                             % (vals.shape[1], self.taus.size))
        return ad.project(vals * self.int_weights, self.weights, self.biases, self.taus)
