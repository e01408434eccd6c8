"""The fused FCRN graph's building blocks: dense, activations, the reverse
pass over the flat parameter vector, and Adam."""
import numpy as np
import pytest
from conftest import finite_diff, max_rel_err

from fcrn import autodiff as ad


def mlp_params(widths, rng=None, scale=0.7):
    """Params of an MLP with the given layer widths (input first)."""
    shapes = [((o, i), (o,)) for i, o in zip(widths[:-1], widths[1:])]
    params = ad.Params(shapes, [])
    if rng is not None:
        params.flat[:] = rng.randn(params.flat.size) * scale
    return params


def run(params, head, xn, subj_idx, target, weight=None):
    """Forward, loss and reverse pass; returns (loss, theta grad, xn grad)."""
    fwd = ad.forward(params, head, xn[np.asarray(subj_idx)], xn.shape[1], None)
    value, d_logits = ad.head_loss(fwd, np.asarray(target),
                                   np.ones(len(target)) if weight is None else weight)
    grad, d_rows = ad.backward(fwd, d_logits, want_input_grad=True)
    return value, grad, ad.scatter_rows(np.asarray(subj_idx), d_rows, len(xn))


def unit_backward(params, xn, subj_idx):
    """Reverse pass with d loss / d logits = 1 on every row; returns (theta
    grad, xn grad)."""
    fwd = ad.forward(params, "sdm", xn[np.asarray(subj_idx)], xn.shape[1], None)
    grad, d_rows = ad.backward(fwd, np.ones_like(fwd.logits), want_input_grad=True)
    return grad, ad.scatter_rows(np.asarray(subj_idx), d_rows, len(xn))


class TestDense:
    def test_identity(self):
        x = np.array([[1.0, 2.0, 3.0]])
        assert np.allclose(ad.dense(x, np.eye(3), np.zeros(3)), x)

    def test_constant_map(self):
        out = ad.dense(np.array([[5.0, -2.0]]), np.zeros((2, 2)), np.array([3.0, 4.0]))
        assert np.allclose(out, [[3.0, 4.0]])

    def test_hand_matvec(self):
        out = ad.dense(np.array([[1.0, 1.0]]), np.array([[1.0, 2.0], [3.0, 4.0]]),
                       np.zeros(2))
        assert np.allclose(out, [[3.0, 7.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ad.dense(np.ones((1, 3)), np.ones((2, 4)), np.zeros(2))


class TestActivations:
    def test_relu_gradient_branches(self):
        # logit = relu(x + b0): d logit / d b0 is 1 above the kink, 0 at or below
        params = mlp_params([1, 1, 1])
        params.weights[0][:] = 1.0
        params.weights[1][:] = 1.0
        for x0, expected in ((2.0, 1.0), (-3.0, 0.0), (0.0, 0.0)):
            grad, _ = unit_backward(params, np.array([[x0]]), [0])
            assert params.like(grad).biases[0][0] == expected

    def test_softmax_uniform(self):
        assert np.allclose(ad.softmax(np.zeros((1, 3))), 1.0 / 3.0)

    def test_softmax_stability(self):
        out = ad.softmax(np.array([[1000.0, 0.0]]))
        assert np.isfinite(out).all()
        assert out[0, 0] == pytest.approx(1.0)

    def test_softmax_closed_form(self):
        out = ad.softmax(np.array([[np.log(2.0), 0.0]]))
        assert np.allclose(out, [[2.0 / 3.0, 1.0 / 3.0]], atol=1e-14)

    def test_softmax_sums_to_one(self):
        rng = np.random.RandomState(0)
        for _ in range(20):
            out = ad.softmax(rng.uniform(-30, 30, size=(4, 5)))
            assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)

    def test_sigmoid(self):
        assert ad.sigmoid(np.array(0.0)) == pytest.approx(0.5)
        assert ad.sigmoid(np.array(50.0)) == pytest.approx(1.0, abs=1e-15)
        assert ad.sigmoid(np.array(np.log(3.0))) == pytest.approx(0.75)

    def test_sigmoid_no_overflow(self):
        assert np.isfinite(ad.sigmoid(np.array([-800.0, 800.0]))).all()


class TestBackward:
    def test_square(self):
        # logit = w1 w0 x with w0 = w1 = 3, x = 1: each factor's gradient is
        # 3, and d(w^2)/dw = 6 is their sum
        params = mlp_params([1, 1, 1])
        params.weights[0][:] = 3.0
        params.weights[1][:] = 3.0
        grad, _ = unit_backward(params, np.array([[1.0]]), [0])
        g = params.like(grad)
        assert g.weights[0][0, 0] == pytest.approx(3.0)
        assert g.weights[1][0, 0] == pytest.approx(3.0)
        assert g.weights[0][0, 0] + g.weights[1][0, 0] == pytest.approx(6.0)

    def test_constant_has_no_grad(self):
        # what is not asked for is not formed
        params = mlp_params([2, 3, 2], np.random.RandomState(1))
        fwd = ad.forward(params, "csm", np.ones((2, 2)), 2, None)
        _, d_logits = ad.head_loss(fwd, np.array([0, 1]), np.ones(2))
        grad, d_xn = ad.backward(fwd, d_logits)
        assert grad is not None and d_xn is None
        grad, d_xn = ad.backward(fwd, d_logits, want_param_grad=False, want_input_grad=True)
        assert grad is None and d_xn.shape == (2, 2)

    def test_backward_requires_scalar(self):
        # the reverse pass needs the batch loss of a forward pass that kept
        # its cache; prediction passes keep none
        params = mlp_params([2, 2], np.random.RandomState(2))
        fwd = ad.forward(params, "csm", np.ones((1, 2)), 2, None, keep=False)
        _, d_logits = ad.head_loss(fwd, np.array([1]), np.ones(1))
        with pytest.raises(ValueError):
            ad.backward(fwd, d_logits)

    def test_gather_ops(self):
        # rows [1, 1, 3] of xn: the input gradient scatter-adds into them
        params = mlp_params([3, 1])
        params.weights[0][:] = 1.0
        _, d_xn = unit_backward(params, np.arange(12.0).reshape(4, 3), [1, 1, 3])
        expected = np.zeros((4, 3))
        expected[1] = 2.0
        expected[3] = 1.0
        assert np.array_equal(d_xn, expected)

    def test_random_graphs_match_finite_differences(self):
        # random small MLPs, both heads, parameter and input gradients
        rng = np.random.RandomState(42)
        for trial in range(30):
            head = "csm" if trial % 2 == 0 else "sdm"
            n_in, n_hidden = rng.randint(2, 5, size=2)
            n_out = rng.randint(2, 5) if head == "csm" else 1
            params = mlp_params([n_in, n_hidden, n_out], rng)
            xn = rng.randn(3, n_in)
            subj = rng.randint(0, 3, size=4)
            target = rng.randint(0, n_out if head == "csm" else 2, size=4)
            weight = rng.uniform(0.5, 2.0, size=4)
            _, grad, d_xn = run(params, head, xn, subj, target, weight)

            def loss_fn():
                return run(params, head, xn, subj, target, weight)[0]

            assert max_rel_err(grad, finite_diff(loss_fn, params.flat)) < 1e-5
            assert max_rel_err(d_xn, finite_diff(loss_fn, xn.reshape(-1)).reshape(xn.shape)) < 1e-5

    def test_determinism(self):
        def once():
            rng = np.random.RandomState(7)
            params = mlp_params([2, 4, 3], rng)
            return run(params, "csm", rng.randn(3, 2), [0, 2, 1], [0, 1, 2])
        (l1, g1, x1), (l2, g2, x2) = once(), once()
        assert l1 == l2 and np.array_equal(g1, g2) and np.array_equal(x1, x2)


class TestAdam:
    def test_first_step_magnitude(self):
        theta = np.array([1.0, -2.0])
        grad = np.array([0.3, -0.8])
        before = theta.copy()
        ad.adam_step(theta, grad, ad.AdamState(2), lr=0.01)
        # bias-corrected first step moves by ~lr in the gradient direction
        assert np.allclose(np.abs(theta - before), 0.01, rtol=1e-6)
        assert np.all(np.sign(before - theta) == np.sign(grad))

    def test_zero_gradient_fixed_point(self):
        theta = np.array([1.0])
        state = ad.AdamState(1)
        for _ in range(10):
            ad.adam_step(theta, np.zeros(1), state, lr=0.01)
        assert theta[0] == 1.0

    def test_zero_lr_noop(self):
        theta = np.array([1.0])
        ad.adam_step(theta, np.array([5.0]), ad.AdamState(1), lr=0.0)
        assert theta[0] == 1.0
