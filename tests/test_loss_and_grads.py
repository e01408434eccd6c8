"""Property tests of the fused loss_and_grads against central finite
differences, over random FCRN graphs: csm or sdm head, scalar or one-hot
time, 0-2 functional signals, random hidden and micro-network widths."""
import numpy as np
from conftest import batch_loss_fn, dataset, finite_diff, max_rel_err
from hypothesis import given, settings
from hypothesis import strategies as st

from fcrn import autodiff as ad
from fcrn.data import Signal, build_time_grid, censoring_survival
from fcrn.model import FCRNModel, build_table


@st.composite
def graphs(draw):
    return {
        "head": draw(st.sampled_from(["csm", "sdm"])),
        "time_encoding": draw(st.sampled_from(["scalar", "onehot"])),
        "n_signals": draw(st.integers(0, 2)),
        "hidden": tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=2))),
        "n_basis": draw(st.integers(1, 3)),
        "micro_width": draw(st.integers(1, 4)),
        "micro_depth": draw(st.integers(1, 2)),
        "seed": draw(st.integers(0, 2 ** 31 - 1)),
    }


def build(g):
    """A model and loss_and_grads' (xn, curve_mats, table, rows) of all its
    person-period rows."""
    rng = np.random.RandomState(g["seed"])
    L = int(rng.randint(2, 5))
    grid = build_time_grid(float(L), 1.0)
    taus = np.linspace(0.0, 1.0, int(rng.randint(3, 7)))
    names = ["sig%d" % k for k in range(g["n_signals"])]
    # each subject draws covariates, time, cause, then one curve per signal
    draws = [(rng.randn(2), rng.uniform(0.0, L), rng.randint(0, 3),
              [rng.randn(len(taus)) for _ in names]) for _ in range(4)]
    X, time, cause, curves = zip(*draws)
    signals = {n: Signal(np.tile(taus, 4), np.concatenate([c[k] for c in curves]),
                         len(taus) * np.arange(5)) for k, n in enumerate(names)}
    subjects = dataset(time, cause, X=X, signals=signals)
    subjects.time[0], subjects.cause[0] = float(L), 1  # a nonempty sdm table
    specs = [{"name": n, "taus": taus, "n_basis": g["n_basis"],
              "micro_width": g["micro_width"], "micro_depth": g["micro_depth"]}
             for n in names]
    model = FCRNModel(head=g["head"], grid=grid, n_tabular=2, n_causes=2,
                      target_cause=1, signal_specs=specs, hidden=g["hidden"],
                      time_encoding=g["time_encoding"], rng=rng)
    # random biases too: with zero biases a dead ReLU unit puts the next
    # layer's pre-activation exactly on the kink, where differences fail
    model.params.flat[:] = rng.randn(model.params.flat.size) * 0.5
    X = subjects.X
    model.fit_normalization(X)
    model.fit_curve_normalization(subjects)
    cg = censoring_survival(subjects, grid) if g["head"] == "sdm" else None
    table = build_table(subjects, grid, model, g=cg)
    curve_mats = model.curve_matrices(subjects) if names else {}
    rows = rng.permutation(len(table))
    return model, (model.normalize(X), curve_mats, table, rows)


# Derandomized: central differences with step 1e-5 are wrong wherever a
# ReLU pre-activation lies within about 1e-5 of its kink, which a few random
# graphs in a thousand hit; a fixed example set keeps the suite repeatable.
@settings(max_examples=100, deadline=None, derandomize=True)
@given(graphs())
def test_parameter_gradient_matches_finite_differences(g):
    model, batch = build(g)
    _, grad, d_xn = model.loss_and_grads(*batch)
    assert d_xn is None
    model.loss_and_grads(*batch[:3], batch[3][:1])  # leaves grad, a copy, as it is
    expected = finite_diff(batch_loss_fn(model, batch), model.params.flat)
    assert max_rel_err(grad, expected) < 1e-5


@settings(max_examples=100, deadline=None, derandomize=True)
@given(graphs())
def test_input_gradient_matches_finite_differences(g):
    model, batch = build(g)
    xn, _, table, rows = batch
    _, grad, d_rows = model.loss_and_grads(*batch, want_input_grad=True,
                                           want_param_grad=False)
    assert grad is None
    d_xn = ad.scatter_rows(table.subject_idx[rows], d_rows, len(xn))
    numeric = finite_diff(batch_loss_fn(model, batch), xn.reshape(-1))
    assert max_rel_err(d_xn, numeric.reshape(xn.shape)) < 1e-5


@settings(max_examples=100, deadline=None, derandomize=True)
@given(graphs(), st.integers(1, 12))
def test_batch_projection_equals_project_all_then_gather(g, n_rows):
    model, (_, curve_mats, table, rows) = build(dict(g, n_signals=max(g["n_signals"], 1)))
    subj_idx = table.subject_idx[rows][:n_rows]
    projections = model.project_signals(curve_mats, subj_idx)
    for spec, part in zip(model.signal_specs, projections.parts):
        layer = model.basis_layers[spec["name"]]
        everyone = layer.project(curve_mats[spec["name"]], ad.micro_forward(
            layer.weights, layer.biases, spec["taus"])[0])
        gathered = everyone.coef[subj_idx]
        assert np.max(np.abs(part.coef[projections.rows] - gathered)) <= 1e-12
        assert part.coef.shape[0] == len(np.unique(subj_idx))
