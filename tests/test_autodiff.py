"""Differentiation rules of the encoder's hand-written backward.

The training step's gradient is closed-form (``objectives.loss_and_gradients``);
its last stage is ``encoder.backward_batch``.  These tests pin the rules that
stage relies on: the affine layer's matmul gradient, the ReLU subgradient at
the kink, and gradient accumulation over the two views that share the weights.
The whole objective is checked against finite differences in
``test_objectives`` and the acceptance criterion 1.
"""
import numpy as np

from micpq.encoder import EncoderParams, backward_batch, forward_batch


def _fd_check(scalar, arrays, grads, step=1e-6, rtol=1e-6):
    """Compare ``grads`` with central finite differences of ``scalar()``
    on every coordinate of ``arrays`` (perturbed in place)."""
    for arr, grad in zip(arrays, grads):
        flat = arr.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = scalar()
            flat[i] = orig - step
            dn = scalar()
            flat[i] = orig
            fd = (up - dn) / (2 * step)
            g = grad.ravel()[i]
            assert abs(fd - g) <= rtol * max(abs(fd), abs(g), 1.0)


class TestElementwise:
    def test_relu_subgradient_zero_at_kink(self):
        # pre-activations 0 (the kink), -1 and 2
        params = EncoderParams(np.eye(3), np.zeros(3))
        z = np.array([[0.0, -1.0, 2.0]])
        refined = forward_batch(params, z)
        grad_w, grad_b = backward_batch(z, refined, np.ones((1, 3)))
        assert grad_b.tolist() == [0.0, 0.0, 1.0]
        assert grad_w.tolist() == [[0.0] * 3, [0.0] * 3, [0.0, -1.0, 2.0]]


class TestLinearAlgebra:
    def test_matmul(self):
        # a large bias keeps every unit active, so only the affine map's
        # matmul gradient is checked
        rng = np.random.default_rng(3)
        weight = rng.normal(size=(2, 4))
        bias = np.full(2, 50.0)
        z = rng.normal(size=(3, 4))
        probe = rng.normal(size=(3, 2))
        params = EncoderParams(weight, bias)
        refined = forward_batch(params, z)
        assert np.all(refined > 0)
        grad_w, grad_b = backward_batch(z, refined, probe)
        _fd_check(
            lambda: float((forward_batch(params, z) * probe).sum()),
            [weight, bias],
            [grad_w, grad_b],
        )


class TestGraph:
    def test_reused_node_accumulates(self):
        # both dropout views go through the same weights: the stacked
        # backward is the sum of the two views' gradients
        rng = np.random.default_rng(7)
        params = EncoderParams(rng.normal(size=(5, 4)), rng.normal(size=5))
        views = [rng.normal(size=(3, 4)), rng.normal(size=(3, 4))]
        probes = [rng.normal(size=(3, 5)), rng.normal(size=(3, 5))]
        stacked = np.concatenate(views)
        grad_w, grad_b = backward_batch(
            stacked, forward_batch(params, stacked), np.concatenate(probes)
        )
        parts = [backward_batch(v, forward_batch(params, v), p) for v, p in zip(views, probes)]
        np.testing.assert_allclose(grad_w, parts[0][0] + parts[1][0], rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(grad_b, parts[0][1] + parts[1][1], rtol=1e-12, atol=1e-12)
