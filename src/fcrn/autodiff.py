"""Hand-derived forward and backward of the FCRN graph, and Adam.

The graph is fixed: the batch rows' normalized covariates, each signal's
basis coefficients and the time feature go through a ReLU MLP that ends
in a softmax (csm) or sigmoid (sdm) head and a weighted negative
log-likelihood. All parameters live in one flat float64 vector; `Params`
hands out named views of it (and, with the same layout, of a gradient).
Each signal's D micro-networks are stacked as (D, fan_out, fan_in)
tensors, so its (J, D) basis matrix B(theta) is one evaluation. All
arithmetic is 64-bit for reproducibility.
"""
from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

PROB_FLOOR = 1e-12
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def glorot_uniform(fan_out, fan_in, rng):
    """Uniform init in [-sqrt(6/(fan_in+fan_out)), +sqrt(6/(fan_in+fan_out))]."""
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_out, fan_in))


def dense(x, w, b):
    """Affine map x @ w.T + b for a batch (or single row) of inputs."""
    z = x @ w.T
    z += b
    return z


def sigmoid(u):
    """Logistic function, stable for large |u|."""
    e = np.exp(-np.abs(u))
    return np.where(u >= 0, 1.0, e) / (1.0 + e)


def softmax(u):
    """Row-wise softmax over the last axis."""
    e = np.exp(u - np.maximum.reduce(u, axis=-1, keepdims=True))
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


# ---------------------------------------------------------------------------
# the flat parameter vector
# ---------------------------------------------------------------------------

def micro_shapes(n_basis, width, depth):
    """(weight, bias) shapes of a signal's stacked micro-network sublayers."""
    shapes, fan_in = [], 1
    for _ in range(depth):
        shapes.append(((n_basis, width, fan_in), (n_basis, width)))
        fan_in = width
    shapes.append(((n_basis, 1, fan_in), (n_basis, 1)))
    return shapes


class Params:
    """Named views of one flat float64 vector.

    The vector holds, in order, (W, b) per MLP layer, then for each signal
    (W, b) per micro-network sublayer. `weights[k]` and `biases[k]` are
    MLP layer k's, W of shape (fan_out, fan_in); a signal's
    `basis[s] = (weights, biases)` holds (D, fan_out, fan_in) and
    (D, fan_out) stacks.
    """

    def __init__(self, mlp_shapes, basis_shapes, flat=None):
        self.mlp_shapes = mlp_shapes
        self.basis_shapes = basis_shapes
        blocks = [s for layer in mlp_shapes for s in layer]
        blocks += [s for signal in basis_shapes for layer in signal for s in layer]
        self.flat = np.zeros(sum(math.prod(s) for s in blocks)) if flat is None else flat
        views, offset = [], 0
        for shape in blocks:
            n = math.prod(shape)
            views.append(self.flat[offset:offset + n].reshape(shape))
            offset += n
        k = 2 * len(mlp_shapes)
        self.weights, self.biases = views[0:k:2], views[1:k:2]
        self.basis = []
        for signal in basis_shapes:
            layer = views[k:k + 2 * len(signal)]
            self.basis.append((layer[0::2], layer[1::2]))
            k += len(layer)
        self._grad = None

    def like(self, flat):
        """The same views over another vector of this size."""
        return Params(self.mlp_shapes, self.basis_shapes, flat)

    def grad_buffer(self):
        """Views of one gradient vector kept for this parameter vector; every
        backward pass overwrites all of it."""
        if self._grad is None:
            self._grad = self.like(np.zeros(self.flat.size))
        return self._grad


# ---------------------------------------------------------------------------
# basis layer: stacked micro-networks tau -> B_d(tau)
# ---------------------------------------------------------------------------

def micro_forward(weights, biases, taus):
    """(J, D) basis matrix from stacked tanh micro-networks, and the input of
    every sublayer, which the backward pass needs."""
    h = np.asarray(taus, dtype=np.float64).reshape(1, -1, 1)
    acts = [h]
    for w, b in zip(weights[:-1], biases[:-1]):
        h = np.tanh(h @ w.transpose(0, 2, 1) + b[:, None, :])
        acts.append(h)
    out = h @ weights[-1].transpose(0, 2, 1) + biases[-1][:, None, :]
    return out[:, :, 0].T, acts


def micro_backward(weights, acts, d_basis, g_weights, g_biases):
    """Write the micro-network gradients of d loss / d B (J, D) in place."""
    d = d_basis.T[:, :, None]
    for k in range(len(weights) - 1, -1, -1):
        np.matmul(d.transpose(0, 2, 1), acts[k], out=g_weights[k])
        d.sum(axis=1, out=g_biases[k])
        if k:
            h = acts[k]
            d = (d @ weights[k]) * (1.0 - h * h)


# Basis coefficients of some subjects' curves for one signal,
# coef[i, d] = sum_j w_j B_d(tau_j) x_i(tau_j), with the trapezoid-weighted
# curves and sublayer inputs the backward pass reads.
Projection = namedtuple("Projection", "coef weighted acts")

# Per-signal projections of a set of subjects; rows maps each person-period
# row to its subject's row in every coefficient matrix.
Projections = namedtuple("Projections", "rows parts")

# Logits of a batch and, when kept, what the backward pass reads.
Forward = namedtuple("Forward", "logits params head n_tab projections inputs")


# ---------------------------------------------------------------------------
# trunk, heads, loss
# ---------------------------------------------------------------------------

def forward(params, head, h, n_tab, projections, keep=True):
    """Run the ReLU MLP on first-layer inputs h, [n_tab xn columns |
    coefficients | time], after writing each signal's coefficient rows
    into their columns of h.

    keep=False drops every intermediate as soon as it is used, so the
    result cannot be differentiated (prediction).
    """
    col = n_tab
    for part in [] if projections is None else projections.parts:
        h[:, col:col + part.coef.shape[1]] = part.coef[projections.rows]
        col += part.coef.shape[1]
    inputs = [] if keep else None
    z = None
    for w, b in zip(params.weights, params.biases):
        if z is not None:
            h = np.maximum(z, 0.0, out=z)  # in place: backward reads only h
        if keep:
            inputs.append(h)
        z = dense(h, w, b)
    return Forward(z, params, head, n_tab, projections, inputs)


def hazards(fwd):
    """Head probabilities: softmax rows (csm) or sigmoid hazards (sdm)."""
    return softmax(fwd.logits) if fwd.head == "csm" else sigmoid(fwd.logits)


def pick(head, probs, target):
    """(picked, key): each row's head probability of its target, and the
    key that picks it. csm: the target's column, key np.arange(n). sdm:
    xi where key = (target == 1) holds, 1 - xi elsewhere."""
    if head == "csm":
        key = np.arange(len(target))
        return probs[key, target], key
    key = np.asarray(target) == 1
    return np.where(key, probs[:, 0], 1.0 - probs[:, 0]), key


def nll(head, probs, target, weight=None, picked=None):
    """Mean multinomial NLL (csm) or weighted binary cross-entropy averaged
    over the rows (sdm; binary targets) of head probabilities, each
    probability floored at PROB_FLOOR; picked, when given, is
    pick(head, probs, target)[0]."""
    picked = pick(head, probs, target)[0] if picked is None else picked
    ll = np.log(np.maximum(picked, PROB_FLOOR))
    if head == "sdm":
        ll *= weight
    return -np.add.reduce(ll) / len(target)


def head_loss(fwd, target, weight):
    """(value, d_logits): the batch's nll and d loss / d logits."""
    probs = hazards(fwd)
    picked, key = pick(fwd.head, probs, target)
    value = nll(fwd.head, probs, target, weight, picked)
    n = len(target)
    live = picked > PROB_FLOOR  # the floor does not clamp these rows
    if fwd.head == "csm":
        scale = live / n
        d = probs
        d[key, target] -= 1.0
    else:
        d = probs - key[:, None]  # xi - y
        scale = live * (np.asarray(weight, dtype=np.float64) / n)
    d *= scale[:, None]
    return value, d


def backward(fwd, d_logits, want_param_grad=True, want_input_grad=False):
    """Reverse pass of the graph from d loss / d logits of a kept forward pass.

    Returns (flat parameter gradient or None, input gradient or None); the
    input gradient has one row per batch row, d loss / d xn[subj_idx],
    before the sum over each subject's rows (scatter_rows forms that sum).
    """
    if fwd.inputs is None:
        raise ValueError("the forward pass kept no backward cache")
    params = fwd.params
    grad = params.grad_buffer() if want_param_grad else None
    into_basis = grad is not None and fwd.projections is not None
    d = d_logits
    for k in range(len(params.weights) - 1, -1, -1):
        h = fwd.inputs[k]
        if grad is not None:
            np.matmul(d.T, h, out=grad.weights[k])
            np.add.reduce(d, axis=0, out=grad.biases[k])
        if (k == 0 or grad is None) and not (want_input_grad or into_basis):
            break
        d = d @ params.weights[k]
        if k:
            d *= h > 0.0
    d_xn = d[:, :fwd.n_tab] if want_input_grad else None
    if into_basis:
        col = fwd.n_tab
        for part, (weights, _), (g_w, g_b) in zip(fwd.projections.parts, params.basis,
                                                   grad.basis):
            n_basis = part.coef.shape[1]
            d_coef = scatter_rows(fwd.projections.rows, d[:, col:col + n_basis],
                                  part.coef.shape[0])
            micro_backward(weights, part.acts, part.weighted.T @ d_coef, g_w, g_b)
            col += n_basis
    return (None if grad is None else grad.flat.copy()), d_xn


def scatter_rows(idx, values, n):
    """(n, k) sums of the rows of values by target row idx (a gather's
    backward), accumulated in row order."""
    out = np.empty((n, values.shape[1]))
    for j in range(values.shape[1]):
        out[:, j] = np.bincount(idx, weights=values[:, j], minlength=n)
    return out


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

class AdamState:
    """First/second moment accumulators over the flat vector, step counter,
    and adam_step's two scratch vectors."""

    def __init__(self, size):
        self.step = 0
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.scratch = np.empty((2, size))


def adam_step(theta, grad, state, lr):
    """Standard bias-corrected Adam update of the flat vector, in place:
    theta -= lr * (m / c1) / (sqrt(v / c2) + eps), with no new array."""
    state.step += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1 = 1.0 - b1 ** state.step
    c2 = 1.0 - b2 ** state.step
    a, b = state.scratch
    state.m *= b1
    state.m += np.multiply(grad, 1.0 - b1, out=a)
    state.v *= b2
    state.v += np.multiply(np.multiply(grad, 1.0 - b2, out=a), grad, out=a)
    np.add(np.sqrt(np.divide(state.v, c2, out=a), out=a), ADAM_EPS, out=a)
    np.multiply(np.divide(state.m, c1, out=b), lr, out=b)
    theta -= np.divide(b, a, out=b)
