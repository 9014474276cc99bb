import numpy as np
import pytest

from micpq.encoder import (
    DropoutConfig,
    EncoderParams,
    backward_batch,
    dropout_view,
    forward,
    forward_batch,
    init_encoder,
)
from micpq.errors import DimMismatchError, InvalidConfigError


class TestForward:
    def test_identity_weight_applies_relu(self):
        params = EncoderParams(np.eye(3), np.zeros(3))
        out = forward(params, np.array([1.0, -2.0, 3.0]))
        assert np.array_equal(out.values, [1.0, 0.0, 3.0])

    def test_zero_weight_constant_bias(self):
        params = EncoderParams(np.zeros((4, 3)), np.full(4, 5.0))
        for z in (np.zeros(3), np.array([9.0, -9.0, 2.0])):
            assert np.array_equal(forward(params, z).values, np.full(4, 5.0))

    def test_hand_computed_matrix(self):
        params = EncoderParams(np.array([[1.0, 1.0], [1.0, -1.0]]), np.zeros(2))
        out = forward(params, np.array([2.0, 3.0]))
        assert np.array_equal(out.values, [5.0, 0.0])

    def test_output_nonnegative(self):
        rng = np.random.default_rng(0)
        params = EncoderParams(rng.normal(size=(8, 5)), rng.normal(size=8))
        for _ in range(20):
            out = forward(params, rng.normal(size=5))
            assert np.all(out.values >= 0)

    def test_positively_homogeneous_in_params(self):
        rng = np.random.default_rng(1)
        weight = rng.normal(size=(6, 4))
        bias = rng.normal(size=6)
        z = rng.normal(size=4)
        base = forward(EncoderParams(weight, bias), z).values
        for c in (0.5, 2.0, 7.25):
            scaled = forward(EncoderParams(c * weight, c * bias), z).values
            np.testing.assert_allclose(scaled, c * base, rtol=1e-12)

    def test_dim_mismatch(self):
        params = EncoderParams(np.eye(3), np.zeros(3))
        with pytest.raises(DimMismatchError):
            forward(params, np.zeros(4))

    def test_gradient_matches_finite_differences(self):
        """d/dW and d/db of a scalar read-out of the forward pass, away
        from the ReLU kink."""
        rng = np.random.default_rng(2)
        weight = rng.normal(size=(5, 3))
        bias = rng.normal(size=5)
        z = rng.normal(size=(2, 3))
        probe = rng.normal(size=(2, 5))

        def scalar(w_arr, b_arr):
            return float((forward_batch(EncoderParams(w_arr, b_arr), z) * probe).sum())

        pre = z @ weight.T + bias
        assert np.all(np.abs(pre) > 1e-3)  # non-degenerate point
        refined = forward_batch(EncoderParams(weight, bias), z)
        grad_w, grad_b = backward_batch(z, refined, probe)
        step = 1e-4
        for arr, grad in ((weight, grad_w), (bias, grad_b)):
            flat = arr.ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + step
                up = scalar(weight, bias)
                flat[i] = orig - step
                dn = scalar(weight, bias)
                flat[i] = orig
                fd = (up - dn) / (2 * step)
                assert abs(fd - grad.ravel()[i]) <= 1e-4 * max(abs(fd), 1e-8)


class TestForwardBatch:
    def test_batch_of_one_equals_forward(self):
        rng = np.random.default_rng(3)
        params = EncoderParams(rng.normal(size=(4, 4)), rng.normal(size=4))
        z = rng.normal(size=4)
        np.testing.assert_array_equal(
            forward_batch(params, z[None, :])[0], forward(params, z).values
        )

    def test_rows_independent_under_permutation(self):
        rng = np.random.default_rng(4)
        params = EncoderParams(rng.normal(size=(6, 5)), rng.normal(size=6))
        batch = rng.normal(size=(7, 5))
        perm = rng.permutation(7)
        np.testing.assert_array_equal(
            forward_batch(params, batch)[perm], forward_batch(params, batch[perm])
        )

    def test_identity_passthrough(self):
        params = EncoderParams(np.eye(2), np.zeros(2))
        batch = np.array([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_array_equal(forward_batch(params, batch), batch)


class TestDropout:
    def test_p_zero_is_identity(self):
        z = np.arange(10, dtype=float)
        out = dropout_view(z, DropoutConfig(0.0, seed=1))
        assert np.array_equal(out, z)

    def test_inverted_dropout_is_unbiased(self):
        """Mean of the masked all-ones vector stays near 1 within 3 sigma
        of the binomial estimate."""
        n, p = 200_000, 0.5
        out = dropout_view(np.ones(n), DropoutConfig(p, seed=6))
        # each kept coordinate contributes 1/(1-p); mean estimate has
        # std = sqrt(p/(1-p)/n)
        sigma = np.sqrt(p / (1 - p) / n)
        assert abs(out.mean() - 1.0) < 3 * sigma

    def test_deterministic_mask(self):
        z = np.random.default_rng(7).normal(size=100)
        cfg = DropoutConfig(0.3, seed=42)
        assert np.array_equal(dropout_view(z, cfg), dropout_view(z, cfg))

    def test_survivors_scaled(self):
        z = np.ones(1000)
        out = dropout_view(z, DropoutConfig(0.25, seed=9))
        kept = out[out != 0]
        np.testing.assert_allclose(kept, 1.0 / 0.75)

    def test_p_one_rejected(self):
        with pytest.raises(InvalidConfigError):
            DropoutConfig(1.0, seed=0)


class TestInit:
    def test_fan_scaled_bounds_and_zero_bias(self):
        params = init_encoder(32, 96, seed=0)
        scale = np.sqrt(6.0 / (32 + 96))
        assert params.weight.shape == (96, 32)
        assert np.all(np.abs(params.weight) <= scale)
        assert np.array_equal(params.bias, np.zeros(96))

    def test_deterministic(self):
        a = init_encoder(8, 16, seed=5)
        b = init_encoder(8, 16, seed=5)
        assert np.array_equal(a.weight, b.weight)


# Differentiation rules of the encoder's hand-written backward.  The
# training step's gradient is closed-form (``objectives.loss_and_gradients``);
# its last stage is ``backward_batch``.  These tests pin the rules that stage
# relies on: the affine layer's matmul gradient, the ReLU subgradient at the
# kink, and gradient accumulation over the two views that share the weights.
# The whole objective is checked against finite differences in
# ``test_objectives`` and the acceptance criterion 1.
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
