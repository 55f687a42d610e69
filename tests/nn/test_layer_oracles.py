"""Bit-for-bit checks of the max-pool and col2im kernels against oracles.

The oracles are the direct formulations: ``argmax``/``max`` over a
reshaped copy of the sliding windows, an ``np.add.at`` scatter of each
upstream gradient onto its window's argmax, and a col2im that adds 6-D
transposed, strided slabs into an NCHW buffer.  The fast kernels must reproduce them to the byte — NaN and
the sign of zero included (for a zero maximum of mixed-sign zeros, in
windows of up to 8 cells: see ``MaxPool2D``) — except the backward of
overlapping pools, where the summation order legitimately differs and
only the values must agree.
"""

import numpy as np
import pytest

from repro.models import make_mlp_model, make_paper_cnn_model
from repro.nn import Conv2D, Dense, Flatten, MaxPool2D, ReLU, Sequential
from repro.nn.im2col import col2im, sliding_windows
from repro.utils.parameter_vector import flatten_arrays


def oracle_pool_forward(x, pool, stride):
    windows = sliding_windows(x, pool, stride)
    N, C, oh, ow, ph, pw = windows.shape
    flat = windows.reshape(N, C, oh, ow, ph * pw)
    return flat.max(axis=-1), np.argmax(flat, axis=-1)


def oracle_pool_backward(argmax, grad_output, x_shape, pool, stride):
    N, C, H, W = x_shape
    _, pw = pool
    oh, ow = argmax.shape[2], argmax.shape[3]
    grad_input = np.zeros(x_shape, dtype=np.float64)
    local_r, local_c = np.divmod(argmax, pw)
    rows = (np.arange(oh)[None, None, :, None] * stride + local_r).ravel()
    cols = (np.arange(ow)[None, None, None, :] * stride + local_c).ravel()
    n_idx = np.repeat(np.arange(N), C * oh * ow)
    c_idx = np.tile(np.repeat(np.arange(C), oh * ow), N)
    np.add.at(grad_input, (n_idx, c_idx, rows, cols), grad_output.ravel())
    return grad_input


def oracle_col2im(cols, x_shape, kernel, stride, padding):
    N, C, H, W = x_shape
    kh, kw = kernel
    oh = (H + 2 * padding - kh) // stride + 1
    ow = (W + 2 * padding - kw) // stride + 1
    padded = np.zeros((N, C, H + 2 * padding, W + 2 * padding), dtype=np.float64)
    patches = cols.reshape(C, kh, kw, N, oh, ow).transpose(3, 0, 4, 5, 1, 2)
    for i in range(kh):
        for j in range(kw):
            padded[
                :, :, i : i + stride * oh : stride, j : j + stride * ow : stride
            ] += patches[:, :, :, :, i, j]
    if padding > 0:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


def relu_like(rng, shape):
    """ReLU outputs: about half exact ``+0.0`` ties (``np.maximum(x, 0.0)``
    never yields ``-0.0``)."""
    return np.maximum(rng.standard_normal(shape), 0.0)


def signed_zero_grad(rng, shape):
    g = rng.standard_normal(shape)
    g[rng.random(shape) < 0.3] = -0.0
    g[rng.random(shape) < 0.2] = 0.0
    return g


def run_pool(x, pool, stride, grad_output):
    layer = MaxPool2D(pool, stride=stride)
    out = layer.forward(x, train=True)
    offset = layer._cache_offset.copy()
    return out, offset, layer.backward(grad_output)


# (N, C, H, W), pool, stride: the fig3 shapes, odd H/W whose last row or
# column no window covers, a rectangular pool, and a pool-1 identity.
NON_OVERLAPPING = [
    ((9, 8, 28, 28), (2, 2), 2),
    ((36, 16, 14, 14), (2, 2), 2),
    ((3, 2, 7, 9), (2, 2), 2),
    ((2, 3, 11, 10), (3, 3), 3),
    ((2, 2, 9, 8), (3, 2), 3),
    ((2, 2, 5, 5), (1, 1), 1),
    ((2, 2, 9, 9), (2, 2), 3),
]


class TestMaxPoolMatchesOracle:
    @pytest.mark.parametrize("shape,pool,stride", NON_OVERLAPPING)
    def test_forward_and_backward_bitwise(self, shape, pool, stride):
        rng = np.random.default_rng(sum(shape))
        x = relu_like(rng, shape)
        want_out, want_arg = oracle_pool_forward(x, pool, stride)
        g = signed_zero_grad(rng, want_out.shape)
        out, offset, grad_input = run_pool(x, pool, stride, g)
        assert out.tobytes() == want_out.tobytes()
        assert offset.tobytes() == want_arg.astype(np.intp).tobytes()
        want_grad = oracle_pool_backward(want_arg, g, shape, pool, stride)
        assert grad_input.tobytes() == want_grad.tobytes()

    @pytest.mark.parametrize("pool", [(2, 2), (2, 3), (1, 8)])
    def test_mixed_sign_zero_windows_bitwise(self, pool):
        # Windows of up to 8 cells, where numpy's own max reduction is the
        # same row-major fold, so even the sign of a zero maximum agrees.
        rng = np.random.default_rng(pool[1])
        stride = max(pool)
        x = rng.choice([0.0, -0.0, 0.5], p=[0.45, 0.45, 0.1], size=(4, 3, 10, 16))
        want_out, want_arg = oracle_pool_forward(x, pool, stride)
        g = signed_zero_grad(rng, want_out.shape)
        out, offset, grad_input = run_pool(x, pool, stride, g)
        zero_signs = np.signbit(out[out == 0.0])
        assert zero_signs.any() and not zero_signs.all()
        assert out.tobytes() == want_out.tobytes()
        assert offset.tobytes() == want_arg.astype(np.intp).tobytes()
        want_grad = oracle_pool_backward(want_arg, g, x.shape, pool, stride)
        assert grad_input.tobytes() == want_grad.tobytes()

    def test_all_zero_windows_route_to_first_offset(self):
        x = np.zeros((2, 3, 6, 6))
        x[0, 0, 0, 1] = -0.0
        _, offset, _ = run_pool(x, 2, None, np.ones((2, 3, 3, 3)))
        assert not offset.any()

    def test_negative_zero_upstream_keeps_oracle_sign(self):
        rng = np.random.default_rng(5)
        x = relu_like(rng, (2, 2, 6, 6))
        x[0, 0, :2, :2] = [[-0.0, 0.0], [0.0, -0.0]]
        g = np.full((2, 2, 3, 3), -0.0)
        _, want_arg = oracle_pool_forward(x, (2, 2), 2)
        _, _, grad_input = run_pool(x, 2, None, g)
        want = oracle_pool_backward(want_arg, g, x.shape, (2, 2), 2)
        assert grad_input.tobytes() == want.tobytes()
        assert not np.signbit(grad_input).any()

    def test_nan_windows_match_argmax_and_max(self):
        rng = np.random.default_rng(8)
        x = relu_like(rng, (3, 2, 8, 8))
        for n, c, r, col in [(0, 0, 0, 0), (0, 1, 3, 2), (1, 0, 5, 5), (2, 1, 4, 7)]:
            x[n, c, r, col] = np.nan
        x[2, 0, 0, 0] = x[2, 0, 1, 1] = np.nan  # two NaNs: first one wins
        want_out, want_arg = oracle_pool_forward(x, (2, 2), 2)
        g = signed_zero_grad(rng, want_out.shape)
        out, offset, grad_input = run_pool(x, 2, None, g)
        assert np.isnan(out).sum() == 5
        assert out.tobytes() == want_out.tobytes()
        assert offset.tobytes() == want_arg.astype(np.intp).tobytes()
        want_grad = oracle_pool_backward(want_arg, g, x.shape, (2, 2), 2)
        assert grad_input.tobytes() == want_grad.tobytes()

    @pytest.mark.parametrize(
        "shape,pool,stride",
        [((2, 3, 9, 9), (3, 3), 1), ((2, 2, 10, 11), (3, 3), 2), ((3, 2, 8, 8), (2, 2), 1)],
    )
    def test_overlapping_stride_matches_in_value(self, shape, pool, stride):
        rng = np.random.default_rng(sum(shape) + stride)
        x = relu_like(rng, shape)
        want_out, want_arg = oracle_pool_forward(x, pool, stride)
        g = rng.standard_normal(want_out.shape)
        out, offset, grad_input = run_pool(x, pool, stride, g)
        assert out.tobytes() == want_out.tobytes()
        assert offset.tobytes() == want_arg.astype(np.intp).tobytes()
        want_grad = oracle_pool_backward(want_arg, g, shape, pool, stride)
        np.testing.assert_allclose(grad_input, want_grad, rtol=1e-13, atol=1e-15)

    def test_eval_forward_caches_nothing(self):
        layer = MaxPool2D(2)
        layer.forward(np.ones((1, 1, 4, 4)), train=False)
        with pytest.raises(RuntimeError):
            layer.backward(np.ones((1, 1, 2, 2)))


class TestCol2ImMatchesOracle:
    @pytest.mark.parametrize(
        "x_shape,kernel,stride,padding",
        [
            ((9, 8, 14, 14), (5, 5), 1, 2),
            ((36, 1, 28, 28), (5, 5), 1, 2),
            ((2, 3, 7, 9), (3, 3), 1, 1),
            ((2, 3, 8, 7), (3, 2), 2, 0),
            ((1, 2, 6, 6), (2, 2), 2, 0),
            ((3, 1, 5, 5), (1, 1), 1, 0),
            ((2, 2, 9, 9), (3, 3), 3, 1),
        ],
    )
    def test_bitwise(self, x_shape, kernel, stride, padding):
        N, C, H, W = x_shape
        kh, kw = kernel
        oh = (H + 2 * padding - kh) // stride + 1
        ow = (W + 2 * padding - kw) // stride + 1
        rng = np.random.default_rng(N * C + H)
        cols = signed_zero_grad(rng, (C * kh * kw, N * oh * ow))
        got = col2im(cols, x_shape, kernel, stride, padding)
        want = oracle_col2im(cols, x_shape, kernel, stride, padding)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def _full_backward_gradient(model, w, X, y):
    """Parameter gradients through ``Sequential.backward`` with dL/dx on."""
    model._load(w)
    scores = model.network.forward(model._shape_batch(X), train=True)
    _, grad_scores = model.loss_head.value_and_grad(scores, y)
    grad_x = model.network.backward(grad_scores)
    return flatten_arrays(model.network.gradients()), grad_x


class TestFirstLayerInputGradient:
    @pytest.mark.parametrize("kind", ["cnn", "mlp"])
    def test_nn_model_gradient_equals_full_backward(self, kind):
        rng = np.random.default_rng(4)
        if kind == "cnn":
            model = make_paper_cnn_model((1, 12, 12), 4, channel_scale=0.25, seed=1)
        else:
            model = make_mlp_model(20, 4, (16, 8), seed=1)
        X = rng.standard_normal((7, 144 if kind == "cnn" else 20))
        y = rng.integers(0, 4, size=7)
        w = model.init_parameters(2)
        _, grad = model.loss_and_gradient(w, X, y)
        full, grad_x = _full_backward_gradient(model, w, X, y)
        assert grad.tobytes() == full.tobytes()
        assert grad_x.shape == model._shape_batch(X).shape

    def test_sequential_backward_returns_input_gradient(self):
        rng = np.random.default_rng(6)
        net = Sequential(
            [Conv2D(2, 3, 3, padding=1, seed=0), ReLU(), MaxPool2D(2), Flatten(),
             Dense(3 * 4 * 4, 5, seed=1)]
        )
        x = rng.standard_normal((4, 2, 8, 8))
        net.forward(x, train=True)
        g = rng.standard_normal((4, 5))
        grad_x = net.backward(g)
        assert grad_x.shape == x.shape
        params = [p.copy() for p in net.gradients()]
        # Skipping only the first layer's input gradient leaves every
        # parameter gradient, and the first layer's output, untouched.
        assert net.backward(g, input_grad=False) is None
        for before, after in zip(params, net.gradients()):
            assert before.tobytes() == after.tobytes()
        # Directional check of dL/dx for L = <g, net(x)>.
        v = rng.standard_normal(x.shape)
        eps = 1e-6
        fd = (
            np.sum(g * net.forward(x + eps * v, train=False))
            - np.sum(g * net.forward(x - eps * v, train=False))
        ) / (2 * eps)
        assert np.sum(grad_x * v) == pytest.approx(fd, rel=1e-5)
