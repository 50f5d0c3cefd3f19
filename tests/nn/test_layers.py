"""Gradient and behaviour tests for every layer type."""

import numpy as np
import pytest

from repro.nn import (
    AvgPool2D,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    MaxPool2D,
    Parameter,
    ReLU,
    Sigmoid,
    Tanh,
)

from . import conv_reference
from ..conftest import numeric_gradient


def check_input_gradient(layer, x, atol=1e-5):
    """Backward's input gradient must match the numeric gradient."""
    rng = np.random.default_rng(99)
    out = layer.forward(x)
    g = rng.normal(size=out.shape)
    layer.zero_grad()
    grad_in = layer.backward(g)

    def loss():
        return float(np.sum(layer.forward(x) * g))

    num = numeric_gradient(loss, x)
    np.testing.assert_allclose(grad_in, num, atol=atol)


def check_param_gradient(layer, x, param: Parameter, atol=1e-5):
    rng = np.random.default_rng(98)
    out = layer.forward(x)
    g = rng.normal(size=out.shape)
    layer.zero_grad()
    layer.backward(g)

    def loss():
        return float(np.sum(layer.forward(x) * g))

    num = numeric_gradient(loss, param.data)
    np.testing.assert_allclose(param.grad, num, atol=atol)


class TestConv2D:
    def test_output_shape(self, rng):
        conv = Conv2D(3, 8, 5, padding=2, rng=rng)
        assert conv.forward(rng.normal(size=(2, 3, 10, 10))).shape == (2, 8, 10, 10)
        assert conv.output_shape((3, 10, 10)) == (8, 10, 10)

    def test_stride(self, rng):
        conv = Conv2D(1, 2, 3, stride=2, rng=rng)
        assert conv.forward(rng.normal(size=(1, 1, 9, 9))).shape == (1, 2, 4, 4)

    def test_input_gradient(self, rng):
        conv = Conv2D(2, 3, 3, padding=1, rng=rng)
        check_input_gradient(conv, rng.normal(size=(2, 2, 4, 4)))

    def test_weight_gradient(self, rng):
        conv = Conv2D(2, 3, 3, rng=rng)
        x = rng.normal(size=(2, 2, 4, 4))
        check_param_gradient(conv, x, conv.weight)


class TestConv2DCacheLifecycle:
    """The im2col buffers are training's largest allocations; eval-mode
    forwards must not retain them and backward must release them."""

    def test_eval_forward_caches_nothing(self, rng):
        conv = Conv2D(2, 4, 3, rng=rng)
        conv.eval()
        conv.forward(rng.normal(size=(2, 2, 6, 6)))
        assert conv._cache is None

    def test_eval_and_train_forward_agree(self, rng):
        conv = Conv2D(2, 4, 3, padding=1, rng=rng)
        x = rng.normal(size=(2, 2, 6, 6))
        out_train = conv.forward(x)
        conv.eval()
        out_eval = conv.forward(x)
        np.testing.assert_array_equal(out_train, out_eval)

    def test_backward_releases_cache(self, rng):
        conv = Conv2D(2, 4, 3, rng=rng)
        out = conv.forward(rng.normal(size=(2, 2, 6, 6)))
        conv.zero_grad()
        conv.backward(np.ones_like(out))
        assert conv._cache is None
        with pytest.raises(RuntimeError, match="training-mode forward"):
            conv.backward(np.ones_like(out))

    def test_backward_after_eval_forward_raises(self, rng):
        conv = Conv2D(2, 4, 3, rng=rng)
        conv.eval()
        out = conv.forward(rng.normal(size=(2, 2, 6, 6)))
        with pytest.raises(RuntimeError, match="training-mode forward"):
            conv.backward(np.ones_like(out))

    def test_bias_gradient(self, rng):
        conv = Conv2D(2, 3, 3, rng=rng)
        x = rng.normal(size=(2, 2, 4, 4))
        check_param_gradient(conv, x, conv.bias)

    def test_strided_input_gradient(self, rng):
        """stride > 1 exercises the col2im fallback path in backward."""
        conv = Conv2D(2, 3, 3, stride=2, rng=rng)
        check_input_gradient(conv, rng.normal(size=(2, 2, 7, 7)))

    def test_strided_weight_gradient(self, rng):
        conv = Conv2D(2, 3, 3, stride=2, rng=rng)
        x = rng.normal(size=(2, 2, 7, 7))
        check_param_gradient(conv, x, conv.weight)

    def test_transposed_conv_path_matches_col2im(self, rng):
        """The stride-1 fast path and the generic col2im path must agree."""
        from repro.nn.functional import col2im

        conv = Conv2D(3, 4, 3, padding=1, rng=rng)
        x = rng.normal(size=(2, 3, 6, 6))
        out = conv.forward(x)
        g = rng.normal(size=out.shape)
        conv.zero_grad()
        fast = conv.backward(g)
        # Generic path: grad_cols @ col2im.
        go_mat = g.transpose(0, 2, 3, 1).reshape(-1, 4)
        w = conv.weight.data.reshape(4, -1)
        grad_cols = go_mat @ w
        generic = col2im(grad_cols, x.shape, 3, 3, 1, 1)
        np.testing.assert_allclose(fast, generic, atol=1e-10)

    def test_grouped_gradient(self, rng):
        conv = Conv2D(4, 6, 3, padding=1, groups=2, rng=rng)
        x = rng.normal(size=(1, 4, 4, 4))
        check_input_gradient(conv, x)
        check_param_gradient(conv, x, conv.weight)


class TestConv2DFastPathEquivalence:
    """``Conv2D`` (channel-major columns, kn2row backward, scratch reuse) and
    the seed's row-major im2col path in ``conv_reference`` must compute the
    same convolution; only summation order differs, so allclose not
    bit-equal."""

    CASES = [
        dict(cin=3, cout=8, k=5, stride=1, padding=2, groups=1, hw=10),
        dict(cin=4, cout=6, k=3, stride=1, padding=1, groups=2, hw=6),
        dict(cin=2, cout=3, k=3, stride=2, padding=0, groups=1, hw=7),
        dict(cin=2, cout=4, k=3, stride=1, padding=0, groups=1, hw=6),
    ]

    @pytest.mark.parametrize("case", CASES)
    def test_forward_backward_agree(self, case, rng):
        x = rng.normal(size=(2, case["cin"], case["hw"], case["hw"]))
        conv = Conv2D(
            case["cin"], case["cout"], case["k"], stride=case["stride"],
            padding=case["padding"], groups=case["groups"],
            rng=np.random.default_rng(7),
        )
        ref_out, ref_cols = conv_reference.conv_forward(conv, x)
        out = conv.forward(x)
        g = np.random.default_rng(8).normal(size=out.shape)
        conv.zero_grad()
        grad_in = conv.backward(g)
        reference = (ref_out, *conv_reference.conv_backward(conv, x.shape, ref_cols, g))
        fast = (out, grad_in, conv.weight.grad, conv.bias.grad)
        for got, want in zip(fast, reference):
            np.testing.assert_allclose(got, want, atol=1e-10)

    def test_fast_path_repeated_steps_are_stable(self, rng):
        """Scratch buffers must not leak state between steps: two identical
        forward/backward rounds produce identical results."""
        conv = Conv2D(3, 4, 5, padding=2, rng=np.random.default_rng(3))
        x = rng.normal(size=(2, 3, 8, 8))
        g = rng.normal(size=(2, 4, 8, 8))
        rounds = []
        for _ in range(2):
            out = conv.forward(x)
            conv.zero_grad()
            grad_in = conv.backward(g)
            rounds.append((out.copy(), grad_in.copy(), conv.weight.grad.copy()))
        for a, b in zip(rounds[0], rounds[1]):
            np.testing.assert_array_equal(a, b)

    def test_groups_block_independence(self, rng):
        """Group 0's output must not depend on group 1's input channels."""
        conv = Conv2D(4, 4, 3, padding=1, groups=2, bias=False, rng=rng)
        x = rng.normal(size=(1, 4, 5, 5))
        base = conv.forward(x)
        x2 = x.copy()
        x2[:, 2:] += 10.0  # perturb group 1's inputs
        out2 = conv.forward(x2)
        np.testing.assert_array_equal(base[:, :2], out2[:, :2])
        assert not np.allclose(base[:, 2:], out2[:, 2:])

    def test_grouped_equals_blockdiag_dense(self, rng):
        """groups=2 equals a dense conv whose cross-group weights are zero."""
        g = Conv2D(4, 4, 3, groups=2, bias=False, rng=np.random.default_rng(3))
        d = Conv2D(4, 4, 3, groups=1, bias=False, rng=np.random.default_rng(4))
        d.weight.data[...] = 0.0
        d.weight.data[:2, :2] = g.weight.data[:2]
        d.weight.data[2:, 2:] = g.weight.data[2:]
        x = rng.normal(size=(2, 4, 6, 6))
        np.testing.assert_allclose(g.forward(x), d.forward(x), atol=1e-12)

    def test_macs(self, rng):
        conv = Conv2D(16, 32, 3, padding=1, rng=rng)
        # 32 out * 8*8 spatial * 16 in * 9 window
        assert conv.macs((16, 8, 8)) == 32 * 64 * 16 * 9

    def test_macs_grouped(self, rng):
        conv = Conv2D(16, 32, 3, padding=1, groups=4, rng=rng)
        assert conv.macs((16, 8, 8)) == 32 * 64 * 4 * 9

    def test_channel_mismatch(self, rng):
        conv = Conv2D(3, 8, 3, rng=rng)
        with pytest.raises(ValueError):
            conv.forward(rng.normal(size=(1, 4, 8, 8)))

    def test_indivisible_groups(self):
        with pytest.raises(ValueError):
            Conv2D(3, 8, 3, groups=2)

    def test_backward_before_forward(self, rng):
        conv = Conv2D(2, 2, 3, rng=rng)
        with pytest.raises(RuntimeError):
            conv.backward(np.zeros((1, 2, 2, 2)))


class TestDense:
    def test_forward(self, rng):
        d = Dense(4, 3, rng=rng)
        x = rng.normal(size=(5, 4))
        np.testing.assert_allclose(
            d.forward(x), x @ d.weight.data + d.bias.data
        )

    def test_gradients(self, rng):
        d = Dense(4, 3, rng=rng)
        x = rng.normal(size=(3, 4))
        check_input_gradient(d, x)
        check_param_gradient(d, x, d.weight)
        check_param_gradient(d, x, d.bias)

    def test_no_bias(self, rng):
        d = Dense(4, 3, bias=False, rng=rng)
        assert d.bias is None
        assert d.num_parameters == 12

    def test_macs(self, rng):
        assert Dense(100, 50, rng=rng).macs((100,)) == 5000

    def test_rejects_3d_input(self, rng):
        with pytest.raises(ValueError):
            Dense(4, 3, rng=rng).forward(rng.normal(size=(2, 2, 2)))

    def test_output_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            Dense(4, 3, rng=rng).output_shape((5,))


class TestPooling:
    def test_maxpool_values(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        out = MaxPool2D(2, 2).forward(x)
        np.testing.assert_array_equal(out[0, 0], [[5, 7], [13, 15]])

    def test_avgpool_values(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        out = AvgPool2D(2, 2).forward(x)
        np.testing.assert_array_equal(out[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_maxpool_gradient_routes_to_max(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        pool = MaxPool2D(2, 2)
        pool.forward(x)
        grad = pool.backward(np.ones((1, 1, 2, 2)))
        expected = np.zeros((4, 4))
        expected[1, 1] = expected[1, 3] = expected[3, 1] = expected[3, 3] = 1.0
        np.testing.assert_array_equal(grad[0, 0], expected)

    def test_maxpool_input_gradient(self, rng):
        # Distinct values so argmax is stable under epsilon perturbation.
        x = rng.permutation(36).astype(np.float64).reshape(1, 1, 6, 6)
        check_input_gradient(MaxPool2D(2, 2), x, atol=1e-4)

    def test_avgpool_input_gradient(self, rng):
        check_input_gradient(AvgPool2D(3, 2), rng.normal(size=(2, 2, 7, 7)))

    def test_output_shape(self):
        assert MaxPool2D(3, 2).output_shape((16, 32, 32)) == (16, 15, 15)

    def test_default_stride_equals_kernel(self):
        assert MaxPool2D(2).stride == 2


class TestActivationsAndShape:
    def test_relu_gradient(self, rng):
        check_input_gradient(ReLU(), rng.normal(size=(3, 5)) + 0.1)

    def test_sigmoid_gradient(self, rng):
        check_input_gradient(Sigmoid(), rng.normal(size=(3, 5)))

    def test_tanh_gradient(self, rng):
        check_input_gradient(Tanh(), rng.normal(size=(3, 5)))

    def test_flatten_roundtrip(self, rng):
        f = Flatten()
        x = rng.normal(size=(2, 3, 4, 4))
        out = f.forward(x)
        assert out.shape == (2, 48)
        np.testing.assert_array_equal(f.backward(out), x)

    def test_flatten_output_shape(self):
        assert Flatten().output_shape((3, 4, 4)) == (48,)


class TestDropout:
    def test_eval_mode_is_identity(self, rng):
        d = Dropout(0.5)
        d.eval()
        x = rng.normal(size=(4, 4))
        np.testing.assert_array_equal(d.forward(x), x)

    def test_training_preserves_expectation(self):
        d = Dropout(0.5, seed=0)
        d.train()
        x = np.ones((200, 200))
        out = d.forward(x)
        assert abs(out.mean() - 1.0) < 0.05

    def test_backward_uses_same_mask(self, rng):
        d = Dropout(0.5, seed=1)
        d.train()
        x = rng.normal(size=(10, 10))
        out = d.forward(x)
        grad = d.backward(np.ones_like(x))
        # Grad is zero exactly where output is zero.
        np.testing.assert_array_equal(grad == 0, out == 0)

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            Dropout(1.0)
