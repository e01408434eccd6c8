"""Stacked micro-networks against the per-signal path they replaced.

FCRNModel.project_signals evaluates the micro-networks of the signals that
share a tau grid and a network size in one micro_forward, and
autodiff.backward runs one micro_backward per such group. The reference
below projects and differentiates one signal at a time, with a bincount
per coefficient column, as the code did before the stacking. Coefficients,
gradients and head probabilities must keep every bit.
"""
from collections import Counter, namedtuple

import numpy as np
from conftest import dataset
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fcrn.simulate
from fcrn import autodiff as ad
from fcrn.data import Signal, build_time_grid, censoring_survival
from fcrn.model import FCRNModel, TrainSettings, build_table, train_model

RefPart = namedtuple("RefPart", "coef weighted acts")
RefProjections = namedtuple("RefProjections", "rows parts")

GRIDS = {"A": np.linspace(0.0, 1.0, 7), "B": np.array([0.0, 0.1, 0.35, 0.5, 0.9])}
N_SUBJECTS = 6


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def per_signal_projections(model, curve_mats, subj_idx):
    """Each signal's coefficients on a micro_forward of its own."""
    subjects, rows = np.unique(subj_idx, return_inverse=True)
    parts = []
    for spec, (weights, biases) in zip(model.signal_specs, model.params.basis):
        basis, acts = ad.micro_forward(weights, biases, spec["taus"])
        weighted = curve_mats[spec["name"]][subjects] * spec["int_weights"]
        parts.append(RefPart(weighted @ basis, weighted, acts))
    return RefProjections(rows, parts)


def per_signal_loss_and_grads(model, xn, curve_mats, table, rows):
    """(loss, flat gradient, input gradient) of loss_and_grads(...,
    want_input_grad=True), one signal at a time."""
    subj_idx = table.subject_idx[rows]
    fwd = ad.forward(model.params, model.head,
                     model.input_rows(xn, subj_idx, table.interval[rows]), model.n_tabular,
                     per_signal_projections(model, curve_mats, subj_idx))
    value, d = ad.head_loss(fwd, table.target[rows], table.weight[rows])
    params = model.params
    grad = params.like(np.zeros(params.flat.size))
    for k in range(len(params.weights) - 1, -1, -1):
        np.matmul(d.T, fwd.inputs[k], out=grad.weights[k])
        np.add.reduce(d, axis=0, out=grad.biases[k])
        d = d @ params.weights[k]
        if k:
            d *= fwd.inputs[k] > 0.0
    col = model.n_tabular
    for part, (weights, _), (g_w, g_b) in zip(fwd.projections.parts, params.basis,
                                               grad.basis):
        n_subjects, n_basis = part.coef.shape
        d_coef = np.empty((n_subjects, n_basis))
        for j in range(n_basis):
            d_coef[:, j] = np.bincount(fwd.projections.rows, weights=d[:, col + j],
                                       minlength=n_subjects)
        ad.micro_backward(weights, part.acts, part.weighted.T @ d_coef, g_w, g_b)
        col += n_basis
    return value, grad.flat, d[:, :model.n_tabular]


def build(head, signals, seed):
    """A model over signals [(n_basis, grid, (micro_width, micro_depth))],
    with random parameters, and loss_and_grads' (xn, curve_mats, table,
    rows) of all its person-period rows."""
    rng = np.random.RandomState(seed)
    grid = build_time_grid(3.0, 1.0)
    n = N_SUBJECTS
    curves = {"sig%d" % k: Signal(np.tile(GRIDS[g], n), rng.randn(n * len(GRIDS[g])),
                                  len(GRIDS[g]) * np.arange(n + 1))
              for k, (_, g, _) in enumerate(signals)}
    subjects = dataset(rng.uniform(0.0, 3.0, n), rng.randint(0, 3, n),
                       X=rng.randn(n, 2), signals=curves)
    subjects.time[0], subjects.cause[0] = 3.0, 1  # a nonempty sdm table
    specs = [{"name": "sig%d" % k, "taus": GRIDS[g], "n_basis": n_basis,
              "micro_width": width, "micro_depth": depth}
             for k, (n_basis, g, (width, depth)) in enumerate(signals)]
    model = FCRNModel(head=head, grid=grid, n_tabular=2, n_causes=2, target_cause=1,
                      signal_specs=specs, hidden=(5, 4), rng=rng)
    model.params.flat[:] = rng.randn(model.params.flat.size) * 0.5
    model.fit_normalization(subjects.X)
    model.fit_curve_normalization(subjects)
    table = build_table(subjects, grid, model,
                        g=censoring_survival(subjects, grid) if head == "sdm" else None)
    rows = rng.permutation(len(table))
    return model, (model.normalize(subjects.X), model.curve_matrices(subjects), table, rows)


SIGNALS = st.lists(st.tuples(st.integers(1, 4), st.sampled_from(sorted(GRIDS)),
                             st.sampled_from([(16, 2), (3, 1)])), min_size=1, max_size=4)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.sampled_from(["csm", "sdm"]), SIGNALS, st.integers(0, 2 ** 31 - 1))
@example("csm", [(3, "A", (16, 2))] * 3, 0)
@example("sdm", [(2, "A", (16, 2)), (4, "B", (16, 2)), (3, "A", (16, 2)), (1, "A", (16, 2))], 1)
def test_stacked_groups_keep_every_bit_of_the_per_signal_path(head, signals, seed):
    model, (xn, curve_mats, table, rows) = build(head, signals, seed)
    keys = [(g, net) if n_basis > 1 else k for k, (n_basis, g, net) in enumerate(signals)]
    assert len(model.basis_groups) == len(set(keys))

    subj_idx = table.subject_idx[rows]
    got = model.project_signals(curve_mats, subj_idx)
    expected = per_signal_projections(model, curve_mats, subj_idx)
    assert same_bits(got.rows, expected.rows)
    for part, ref in zip(got.parts, expected.parts):
        assert same_bits(part.coef, ref.coef)

    value, grad, d_xn = per_signal_loss_and_grads(model, xn, curve_mats, table, rows)
    got = model.loss_and_grads(xn, curve_mats, table, rows, want_input_grad=True)
    assert same_bits(got[0], value)
    assert same_bits(got[1], grad)
    assert same_bits(got[2], d_xn)
    assert same_bits(model.loss_and_grads(xn, curve_mats, table, rows)[1], grad)

    probs = model.head_probs(xn, curve_mats, len(rows), lambda lo, hi: (
        table.subject_idx[rows[lo:hi]], table.interval[rows[lo:hi]]))
    ref = ad.forward(model.params, model.head,
                     model.input_rows(xn, subj_idx, table.interval[rows]), model.n_tabular,
                     per_signal_projections(model, curve_mats, subj_idx), keep=False)
    assert same_bits(probs, ad.hazards(ref))


def test_a_shared_grid_adam_batch_evaluates_the_basis_once(monkeypatch):
    calls = Counter()
    for name in ("micro_forward", "micro_backward"):
        def counted(*args, _real=getattr(ad, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(ad, name, counted)
    train, _, _ = fcrn.simulate.simulate(fcrn.simulate.SimConfig(
        n=40, n_train=30, n_test=10, n_signals=3, n_sample_points=11))
    settings_ = TrainSettings(max_epochs=1, patience=1, hidden=(4,), val_fraction=0.0,
                              batch_size=10 ** 6)
    model = train_model(train, build_time_grid(100.0, 10.0), "csm", settings_, n_causes=2)
    assert len(model.history) == 1 and len(model.signal_specs) == 3
    assert calls == {"micro_forward": 1, "micro_backward": 1}
