import numpy as np
import pytest
from conftest import finite_diff, max_rel_err

from fcrn import autodiff as ad
from fcrn.basis import MICRO_DEPTH, MICRO_WIDTH, BasisLayer, trapezoid_weights
from fcrn.data import PersonPeriodTable, build_time_grid
from fcrn.model import FCRNModel


def initialized_layer(n_basis, taus, rng, width=MICRO_WIDTH, depth=MICRO_DEPTH):
    """The basis layer of a one-signal model initialized from rng."""
    model = FCRNModel(head="csm", grid=build_time_grid(4, 2), n_tabular=1,
                      n_causes=1, hidden=(), rng=rng,
                      signal_specs=[{"name": "s", "n_basis": n_basis, "taus": taus,
                                     "micro_width": width, "micro_depth": depth}])
    return model.basis_layers["s"]


def zero_layer(n_basis, taus):
    """A basis layer over a record of its own and zero-filled views."""
    taus = np.asarray(taus, dtype=np.float64)
    spec = {"taus": taus, "int_weights": trapezoid_weights(taus)}
    params = ad.Params([], [ad.micro_shapes(n_basis, MICRO_WIDTH, MICRO_DEPTH)])
    return BasisLayer(spec, params.basis[0])


def frozen_constant_layer(n_basis, taus, value=1.0):
    """Basis layer with every micro-network pinned to a constant output."""
    layer = zero_layer(n_basis, taus)
    layer.biases[-1][:] = value
    return layer


class TestTrapezoidWeights:
    def test_uniform_51_points(self):
        w = trapezoid_weights(np.linspace(0, 1, 51))
        assert w[0] == pytest.approx(0.01)
        assert w[-1] == pytest.approx(0.01)
        assert np.allclose(w[1:-1], 0.02)

    def test_two_points(self):
        assert trapezoid_weights(np.array([0.0, 1.0])).tolist() == [0.5, 0.5]

    def test_telescoping_sum(self):
        rng = np.random.RandomState(1)
        for _ in range(10):
            taus = np.sort(rng.uniform(0, 1, size=rng.randint(2, 40)))
            taus = np.unique(taus)
            if len(taus) < 2:
                continue
            w = trapezoid_weights(taus)
            assert w.sum() == pytest.approx(taus[-1] - taus[0])

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            trapezoid_weights(np.array([0.5]))


class TestMicroNetwork:
    def test_zero_network_outputs_zero(self):
        taus = np.linspace(0, 1, 11)
        layer = initialized_layer(1, taus, np.random.RandomState(0))
        for w in layer.weights:
            w[...] = 0.0
        assert np.all(ad.micro_forward(layer.weights, layer.biases, taus)[0] == 0.0)

    def test_gradient_matches_finite_differences(self):
        # loss = mean of the (J, D) basis matrix, every stacked net at once
        rng = np.random.RandomState(3)
        taus = np.linspace(0, 1, 7)
        layer = initialized_layer(2, taus, rng, width=4, depth=2)
        arrays = layer.weights + layer.biases
        grads = [np.zeros_like(a) for a in arrays]
        _, acts = ad.micro_forward(layer.weights, layer.biases, taus)
        d_basis = np.full((len(taus), 2), 1.0 / (2 * len(taus)))
        ad.micro_backward(layer.weights, acts, d_basis, grads[:3], grads[3:])
        for a, g in zip(arrays, grads):
            numeric = finite_diff(
                lambda: ad.micro_forward(layer.weights, layer.biases, taus)[0].mean(),
                a.reshape(-1))
            assert max_rel_err(g.reshape(-1), numeric) < 1e-5


class TestProjection:
    def test_constant_basis_recovers_curve_mean(self):
        taus = np.linspace(0, 1, 51)
        layer = frozen_constant_layer(2, taus)
        c = 3.7
        out = layer.project(np.full((1, 51), c),
                            ad.micro_forward(layer.weights, layer.biases, taus)[0])
        assert np.allclose(out.coef, c, atol=1e-12)

    def test_zero_curve_projects_to_zero(self):
        taus = np.linspace(0, 1, 21)
        layer = initialized_layer(3, taus, np.random.RandomState(4))
        out = layer.project(np.zeros((2, 21)),
                            ad.micro_forward(layer.weights, layer.biases, taus)[0])
        assert np.all(out.coef == 0.0)

    def test_linear_basis_against_exact_integral(self):
        # B(tau) = tau, curve = 1: integral is 1/2; trapezoid exact for linears
        taus = np.linspace(0, 1, 51)
        layer = frozen_constant_layer(1, taus, value=0.0)
        basis_vals = taus.reshape(-1, 1)
        weighted = np.ones((1, 51)) * layer.spec["int_weights"]
        assert float((weighted @ basis_vals)[0, 0]) == pytest.approx(0.5, abs=1e-12)

    def test_linearity_in_the_curve(self):
        rng = np.random.RandomState(5)
        taus = np.linspace(0, 1, 31)
        layer = initialized_layer(3, taus, rng)
        x1, x2 = rng.randn(31), rng.randn(31)
        a, b = 1.7, -0.4
        basis = ad.micro_forward(layer.weights, layer.biases, taus)[0]
        combo = layer.project((a * x1 + b * x2).reshape(1, -1), basis).coef
        parts = (a * layer.project(x1.reshape(1, -1), basis).coef
                 + b * layer.project(x2.reshape(1, -1), basis).coef)
        assert np.allclose(combo, parts, atol=1e-10)

    def test_gradient_flows_to_micro_weights(self):
        # through the whole model: the loss gradient reaches every sublayer
        rng = np.random.RandomState(6)
        taus = np.linspace(0, 1, 21)
        model = FCRNModel(head="csm", grid=build_time_grid(4, 2), n_tabular=1,
                          n_causes=1, hidden=(3,), rng=rng,
                          signal_specs=[{"name": "s", "n_basis": 2, "taus": taus}])
        table = PersonPeriodTable(subject_idx=np.array([0, 0, 1]),
                                  interval=np.array([1, 2, 1]),
                                  target=np.array([0, 1, 1]), weight=np.ones(3))
        grad = model.params.like(model.loss_and_grads(
            rng.randn(2, 1), {"s": rng.randn(2, 21)}, table, np.arange(3))[1])
        weights, biases = grad.basis[0]
        assert all(np.any(g != 0) for g in weights + biases)

    def test_grid_mismatch_rejected(self):
        taus = np.linspace(0, 1, 21)
        layer = zero_layer(2, taus)
        with pytest.raises(ValueError):
            layer.project(np.zeros((1, 20)),
                          ad.micro_forward(layer.weights, layer.biases, taus)[0])
