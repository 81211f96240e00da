"""Forward-value checks for the tensor op set.

Expected values here are either worked out by hand, checked against a
closed form, or computed with an independent numpy expression written
directly in the test.  The fused ``linear`` and ``attention`` ops are
checked, values and gradients, against the graph of small ops they replace.
"""

import platform
import sys
import types

import numpy as np
import pytest

from hgtnet import data
from hgtnet import tensor as T
from hgtnet import training as tr
from hgtnet.checkpoint import FORMAT_VERSION, load_checkpoint
from hgtnet.errors import ConfigError, ContractError, ShapeError
from hgtnet.model import param_shapes, tiny_config
from hgtnet.rng import RngStream


class TestElementwise:
    def test_add_broadcasts(self):
        a = T.Tensor(np.ones((2, 3)))
        b = T.Tensor(np.array([1.0, 2.0, 3.0]))
        assert np.array_equal(T.add(a, b).data, np.array([[2, 3, 4], [2, 3, 4]], dtype=float))

    def test_mul_scalar(self):
        a = T.Tensor(np.array([1.0, -2.0]))
        assert np.array_equal((a * 3.0).data, np.array([3.0, -6.0]))


class TestMatmul:
    def test_plain(self):
        a = T.Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        b = T.Tensor(np.array([[5.0, 6.0], [7.0, 8.0]]))
        assert np.array_equal(T.matmul(a, b).data, np.array([[19.0, 22.0], [43.0, 50.0]]))

    def test_batched(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 4, 2, 5))
        b = rng.normal(size=(3, 4, 5, 6))
        out = T.matmul(T.Tensor(a), T.Tensor(b)).data
        assert np.allclose(out, a @ b)

    def test_inner_mismatch_raises(self):
        with pytest.raises(ShapeError):
            T.matmul(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((4, 2))))

    def test_rank_one_rejected(self):
        with pytest.raises(ShapeError):
            T.matmul(T.Tensor(np.ones(3)), T.Tensor(np.ones((3, 2))))


def unfused_linear(x, w, b):
    return T.matmul(x, w) + b


def unfused_attention(q, k, v, heads):
    """Multi-head attention as the graph of small ops the fused op replaces:
    split heads, Q.K^T, scale, softmax, P.V, merge heads; returns (out, P)."""
    B, Nq, d = q.shape
    Nk, hd = k.shape[1], d // heads

    def split(t, n):
        return T.transpose(T.reshape(t, (B, n, heads, hd)), (0, 2, 1, 3))

    scores = T.matmul(split(q, Nq), T.transpose(split(k, Nk), (0, 1, 3, 2)))
    p = T.softmax(scores * (1.0 / np.sqrt(hd)))
    out = T.reshape(T.transpose(T.matmul(p, split(v, Nk)), (0, 2, 1, 3)), (B, Nq, d))
    return out, p.data


def _leaves(seed, *shapes):
    rng = RngStream(seed=seed)
    return [T.Tensor(rng.derive(i).normal(int(np.prod(s))).reshape(s), requires_grad=True)
            for i, s in enumerate(shapes)]


def _value_and_grads(op, inputs, g):
    for t in inputs:
        t.zero_grad()
    out = op(*inputs)
    T.backward(T.tsum(out * g))
    return out.data, [t.grad for t in inputs]


class TestLinear:
    @pytest.mark.parametrize("x_shape", [(5, 4), (2, 3, 4)])
    def test_matches_matmul_plus_add(self, x_shape):
        x, w, b = _leaves(1, x_shape, (4, 6), (6,))
        g = T.Tensor(RngStream(seed=2).normal(int(np.prod(x_shape[:-1])) * 6)
                     .reshape(x_shape[:-1] + (6,)))
        fused, fused_grads = _value_and_grads(T.linear, [x, w, b], g)
        ref, ref_grads = _value_and_grads(unfused_linear, [x, w, b], g)
        assert fused.shape == x_shape[:-1] + (6,)
        assert np.allclose(fused, ref, rtol=0, atol=1e-12)
        for got, want in zip(fused_grads, ref_grads):
            assert got.shape == want.shape and np.allclose(got, want, rtol=0, atol=1e-12)

    def test_untracked_input_gets_no_gradient(self):
        w, b = _leaves(3, (4, 2), (2,))
        out = T.linear(T.Tensor(np.ones((3, 4))), w, b)
        gx, gw, gb = out.op_record.backward(np.ones((3, 2)))
        assert gx is None
        assert np.array_equal(gw, np.full((4, 2), 3.0)) and np.array_equal(gb, [3.0, 3.0])

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            T.linear(T.Tensor(np.ones((3, 4))), T.Tensor(np.ones((5, 2))), T.Tensor(np.ones(2)))
        with pytest.raises(ShapeError):
            T.linear(T.Tensor(np.ones((3, 4))), T.Tensor(np.ones((4, 2))), T.Tensor(np.ones(3)))


class TestAttention:
    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_matches_the_unfused_graph(self, heads):
        q, k, v = _leaves(10 + heads, (2, 3, 8), (2, 5, 8), (2, 5, 8))
        g = T.Tensor(RngStream(seed=4).normal(2 * 3 * 8).reshape(2, 3, 8))
        fused, fused_grads = _value_and_grads(
            lambda *a: T.attention(*a, heads)[0], [q, k, v], g)
        ref, ref_grads = _value_and_grads(
            lambda *a: unfused_attention(*a, heads)[0], [q, k, v], g)
        assert fused.shape == (2, 3, 8)
        assert np.allclose(fused, ref, rtol=0, atol=1e-12)
        for got, want in zip(fused_grads, ref_grads):
            assert got.shape == want.shape and np.allclose(got, want, rtol=0, atol=1e-12)

    def test_returns_output_and_probabilities(self):
        q, k, v = _leaves(20, (1, 2, 4), (1, 3, 4), (1, 3, 4))
        out, probs = T.attention(q, k, v, 2)
        ref, ref_probs = unfused_attention(q, k, v, 2)
        assert isinstance(out, T.Tensor) and isinstance(probs, np.ndarray)
        assert np.allclose(out.data, ref.data, rtol=0, atol=1e-12)
        assert probs.shape == (1, 2, 2, 3)
        assert np.allclose(probs, ref_probs, rtol=0, atol=1e-12)
        assert np.allclose(probs.sum(axis=-1), 1.0, rtol=0, atol=1e-12)

    def test_bad_shapes_and_heads_raise(self):
        q, k = T.Tensor(np.ones((1, 2, 4))), T.Tensor(np.ones((1, 3, 4)))
        with pytest.raises(ShapeError):
            T.attention(q, k, T.Tensor(np.ones((1, 2, 4))), 2)
        with pytest.raises(ShapeError):
            T.attention(q, T.Tensor(np.ones((1, 3, 6))), T.Tensor(np.ones((1, 3, 6))), 2)
        with pytest.raises(ConfigError):
            T.attention(q, k, k, 3)


class TestFusedRecords:
    def test_one_record_per_fused_call(self, monkeypatch):
        built = []
        record = T.OpRecord
        monkeypatch.setattr(T, "OpRecord", lambda *args: built.append(args[0]) or record(*args))
        q, k, v, w, b = _leaves(30, (1, 2, 4), (1, 3, 4), (1, 3, 4), (4, 4), (4,))
        T.attention(q, k, v, 2)
        assert built == ["attention"]
        T.linear(q, w, b)
        assert built == ["attention", "linear"]

    def test_checkpoint_evaluates_like_the_unfused_graph(self, tmp_path, monkeypatch):
        samples = data.synth_dataset(2, 32, RngStream(seed=5))
        stats = data.compute_stats(samples)
        cfg = tiny_config(32)
        state = tr.init_state(cfg, tr.TrainConfig(seed=3), stats,
                              [f"class{c}" for c in range(5)])
        noise = RngStream(seed=6)
        for name, p in state.params.items():  # non-zero biases and embeddings
            p.data = p.data + 0.3 * noise.derive(name).normal(p.size).reshape(p.shape)
        path = tmp_path / "state.ckpt"
        tr.save_state(state, path)
        # the format and the parameter names are the ones earlier versions wrote
        assert path.read_bytes()[4:8] == FORMAT_VERSION.to_bytes(4, "little") == b"\1\0\0\0"
        assert set(load_checkpoint(path).params) == set(param_shapes(cfg))

        loaded = tr.load_state(path)
        _, _, fused = tr.evaluate(loaded.params, cfg, samples, stats)
        monkeypatch.setattr(T, "linear", unfused_linear)
        monkeypatch.setattr(T, "attention", unfused_attention)
        _, _, unfused = tr.evaluate(loaded.params, cfg, samples, stats)
        scores = np.array([r.scores for r in fused])
        assert np.allclose(scores, [r.scores for r in unfused], rtol=0, atol=1e-12)
        assert scores.std(axis=0).max() > 1e-3  # the samples are told apart


class TestStructural:
    def test_reshape_round_trip(self):
        x = T.Tensor(np.arange(12.0))
        y = T.reshape(x, (3, 4))
        assert y.shape == (3, 4)
        assert np.array_equal(y.data.reshape(-1), x.data)

    def test_transpose(self):
        x = T.Tensor(np.arange(24.0).reshape(2, 3, 4))
        y = T.transpose(x, (2, 0, 1))
        assert y.shape == (4, 2, 3)
        assert np.array_equal(y.data, x.data.transpose(2, 0, 1))

    def test_concat(self):
        a = T.Tensor(np.ones((2, 2)))
        b = T.Tensor(np.zeros((2, 3)))
        out = T.concat([a, b], axis=1)
        assert out.shape == (2, 5)
        assert np.array_equal(out.data, np.concatenate([a.data, b.data], axis=1))

    def test_take_rows(self):
        x = T.Tensor(np.arange(20.0).reshape(5, 4))
        y = T.take_rows(x, 1, 3)
        assert np.array_equal(y.data, x.data[1:3])

    def test_sum_and_mean(self):
        x = T.Tensor(np.arange(6.0).reshape(2, 3))
        assert T.tsum(x).item() == 15.0
        assert np.array_equal(T.tmean(x, axis=1).data, np.array([1.0, 4.0]))


class TestSoftmax:
    def test_known_values(self):
        # softmax([1,2,3]) via direct exp ratio
        x = np.array([1.0, 2.0, 3.0])
        expected = np.exp(x) / np.exp(x).sum()
        out = T.softmax(T.Tensor(x)).data
        assert np.allclose(out, expected, rtol=0, atol=1e-15)

    def test_rows_sum_to_one(self):
        x = RngStream(seed=2).normal(5 * 7).reshape(5, 7)
        out = T.softmax(T.Tensor(x)).data
        assert np.allclose(out.sum(axis=-1), 1.0, atol=1e-12)

    def test_shift_invariance_and_overflow_safety(self):
        x = np.array([1000.0, 1001.0, 1002.0])
        small = np.array([0.0, 1.0, 2.0])
        a = T.softmax(T.Tensor(x)).data
        b = T.softmax(T.Tensor(small)).data
        assert np.allclose(a, b, atol=1e-15)
        assert np.isfinite(a).all()

    def test_mask_zeroes_excluded_entries(self):
        x = T.Tensor(np.array([[1.0, 2.0, 3.0, 4.0]]))
        mask = np.array([[True, False, True, False]])
        out = T.softmax(x, mask=mask).data
        assert out[0, 1] == 0.0 and out[0, 3] == 0.0
        assert abs(out[0].sum() - 1.0) < 1e-15
        # surviving entries renormalize among themselves
        e = np.exp(np.array([1.0, 3.0]) - 3.0)
        assert np.allclose(out[0, [0, 2]], e / e.sum())


class TestLayerNorm:
    def test_two_point_slice(self):
        # [-1, 1] has mean 0, population var 1 -> output +-1/sqrt(1+eps)
        eps = 1e-5
        x = T.Tensor(np.array([-1.0, 1.0]))
        g = T.Tensor(np.ones(2))
        b = T.Tensor(np.zeros(2))
        out = T.layer_norm(x, g, b).data
        expected = 1.0 / np.sqrt(1.0 + eps)
        assert np.allclose(out, [-expected, expected], atol=1e-15)

    def test_normalizes_each_row(self):
        x = RngStream(seed=5).normal(4 * 9).reshape(4, 9) * 3.0 + 2.0
        out = T.layer_norm(T.Tensor(x), T.Tensor(np.ones(9)), T.Tensor(np.zeros(9))).data
        assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-12)
        assert np.allclose(out.var(axis=-1), 1.0, atol=1e-4)

    def test_affine_applied(self):
        x = T.Tensor(np.array([[-1.0, 1.0]]))
        out = T.layer_norm(x, T.Tensor(np.array([2.0, 2.0])), T.Tensor(np.array([1.0, 1.0]))).data
        base = 1.0 / np.sqrt(1.0 + 1e-5)
        assert np.allclose(out, [[1.0 - 2 * base, 1.0 + 2 * base]])


class TestActivations:
    def test_relu(self):
        x = T.Tensor(np.array([-2.0, 0.0, 3.0]))
        assert np.array_equal(T.relu(x).data, np.array([0.0, 0.0, 3.0]))

    def test_gelu_fixed_points(self):
        # gelu(0) = 0; tanh form is odd-symmetric around 0 up to the linear factor
        x = T.Tensor(np.array([0.0]))
        assert T.gelu(x).data[0] == 0.0
        v = 1.3
        u = np.sqrt(2 / np.pi) * (v + 0.044715 * v**3)
        expected = 0.5 * v * (1 + np.tanh(u))
        assert abs(T.gelu(T.Tensor(np.array([v]))).data[0] - expected) < 1e-15

    def test_leaky_relu_slope(self):
        x = T.Tensor(np.array([-4.0, 4.0]))
        out = T.leaky_relu(x, 0.2).data
        assert np.allclose(out, [-0.8, 4.0])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            T.activation(T.Tensor(np.ones(2)), "swish")


class TestDropout:
    def test_eval_mode_is_identity(self):
        x = T.Tensor(np.arange(10.0))
        # no streams means eval mode
        assert T.dropout(x, 0.5, None) is x

    def test_zero_rate_is_identity(self):
        x = T.Tensor(np.arange(10.0))
        assert T.dropout(x, 0.0, [RngStream(seed=1)] * 10) is x

    def test_survivors_scaled(self):
        x = T.Tensor(np.ones((100, 100)))
        rngs = [RngStream(seed=3).derive(i) for i in range(100)]
        out = T.dropout(x, 0.25, rngs).data
        kept = out != 0.0
        assert np.allclose(out[kept], 1.0 / 0.75)
        assert abs(kept.mean() - 0.75) < 0.02
        assert abs(out.mean() - 1.0) < 0.03  # inverted scaling keeps expectation

    def test_invalid_rate(self):
        x = T.Tensor(np.ones(3))
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(ConfigError):
                T.dropout(x, bad, [RngStream(seed=1)] * 3)


class TestConv2d:
    def test_hand_worked_3x3(self):
        # single channel, 3x3 input, 2x2 kernel of ones => windowed sums
        x = T.Tensor(np.arange(9.0).reshape(1, 1, 3, 3))
        w = T.Tensor(np.ones((1, 1, 2, 2)))
        b = T.Tensor(np.zeros(1))
        out = T.conv2d(x, w, b).data
        assert np.array_equal(out[0, 0], np.array([[8.0, 12.0], [20.0, 24.0]]))

    def test_bias_added(self):
        x = T.Tensor(np.zeros((1, 1, 2, 2)))
        w = T.Tensor(np.zeros((3, 1, 1, 1)))
        b = T.Tensor(np.array([1.0, 2.0, 3.0]))
        out = T.conv2d(x, w, b).data
        assert np.allclose(out[0, :, 0, 0], [1.0, 2.0, 3.0])

    def test_stride_and_padding_geometry(self):
        # (7 + 2 - 3) / 2 + 1 = 4, an exact integer
        x = T.Tensor(np.ones((2, 3, 7, 7)))
        w = T.Tensor(np.ones((4, 3, 3, 3)))
        b = T.Tensor(np.zeros(4))
        out = T.conv2d(x, w, b, stride=2, padding=1)
        assert out.shape == (2, 4, 4, 4)
        # interior outputs see the full 3x3x3 window of ones
        assert out.data[0, 0, 1, 1] == 27.0

    def test_identity_kernel(self):
        rng = RngStream(seed=8)
        x = rng.normal(2 * 1 * 4 * 4).reshape(2, 1, 4, 4)
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0
        out = T.conv2d(T.Tensor(x), T.Tensor(w), T.Tensor(np.zeros(1)), padding=1).data
        assert np.allclose(out, x)

    def test_invalid_geometry_raises(self):
        x = T.Tensor(np.ones((1, 1, 5, 5)))
        w = T.Tensor(np.ones((1, 1, 2, 2)))
        b = T.Tensor(np.zeros(1))
        with pytest.raises(ShapeError):
            T.conv2d(x, w, b, stride=2)  # (5-2)/2 not integral

    def test_channel_mismatch_raises(self):
        with pytest.raises(ShapeError):
            T.conv2d(T.Tensor(np.ones((1, 2, 4, 4))), T.Tensor(np.ones((1, 3, 3, 3))),
                     T.Tensor(np.zeros(1)))

    @pytest.mark.parametrize("hw,k,stride,padding", [(6, 3, 1, 1), (8, 4, 4, 0)],
                             ids=["3x3-pad1", "patch-embed-4"])
    def test_forward_and_backward_match_direct_loop(self, hw, k, stride, padding):
        rng = RngStream(seed=31)
        B, C, F = 2, 3, 4
        x = rng.derive("x").normal(B * C * hw * hw).reshape(B, C, hw, hw)
        w = rng.derive("w").normal(F * C * k * k).reshape(F, C, k, k)
        b = rng.derive("b").normal(F)
        xt, wt, bt = (T.Tensor(a, requires_grad=True) for a in (x, w, b))
        out = T.conv2d(xt, wt, bt, stride=stride, padding=padding)
        Ho = (hw + 2 * padding - k) // stride + 1
        g = rng.derive("g").normal(B * F * Ho * Ho).reshape(B, F, Ho, Ho)
        gx, gw, gb = out.op_record.backward(g)

        xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
        ref = np.zeros((B, F, Ho, Ho))
        ref_gxp = np.zeros_like(xp)
        ref_gw = np.zeros_like(w)
        for i in range(Ho):
            for j in range(Ho):
                rows = slice(i * stride, i * stride + k)
                cols = slice(j * stride, j * stride + k)
                patch = xp[:, :, rows, cols]
                ref[:, :, i, j] = np.einsum("bcuv,fcuv->bf", patch, w) + b
                ref_gxp[:, :, rows, cols] += np.einsum("bf,fcuv->bcuv", g[:, :, i, j], w)
                ref_gw += np.einsum("bf,bcuv->fcuv", g[:, :, i, j], patch)
        ref_gx = ref_gxp[:, :, padding:padding + hw, padding:padding + hw]
        # the column layout sums in another order than the loop: float64 slack
        for got, want in ((out.data, ref), (gx, ref_gx), (gw, ref_gw),
                          (gb, g.sum(axis=(0, 2, 3)))):
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_untracked_input_gets_no_gradient(self):
        rng = RngStream(seed=32)
        x = rng.derive("x").normal(2 * 3 * 6 * 6).reshape(2, 3, 6, 6)
        w = T.Tensor(rng.derive("w").normal(4 * 3 * 3 * 3).reshape(4, 3, 3, 3),
                     requires_grad=True)
        b = T.Tensor(rng.derive("b").normal(4), requires_grad=True)
        g = rng.derive("g").normal(2 * 4 * 6 * 6).reshape(2, 4, 6, 6)
        tracked = T.conv2d(T.Tensor(x, requires_grad=True), w, b, padding=1)
        untracked = T.conv2d(T.Tensor(x), w, b, padding=1)
        _, gw, gb = tracked.op_record.backward(g)
        gx_u, gw_u, gb_u = untracked.op_record.backward(g)
        assert gx_u is None
        assert np.array_equal(gw, gw_u) and np.array_equal(gb, gb_u)


def _check_pool_against_loop(h, w):
    # ReLU output: about half the entries are tied zeros
    rng = RngStream(seed=33)
    x = np.maximum(rng.derive("x").normal(2 * 3 * h * w).reshape(2, 3, h, w), 0.0)
    x[0, 0] = 0.0  # whole windows of ties
    xt = T.Tensor(x, requires_grad=True)
    out = T.max_pool2d(xt)
    Ho, Wo = h // 2, w // 2
    g = rng.derive("g").normal(2 * 3 * Ho * Wo).reshape(2, 3, Ho, Wo)
    (gx,) = out.op_record.backward(g)

    ref = np.zeros((2, 3, Ho, Wo))
    ref_gx = np.zeros_like(x)
    for b in range(2):
        for c in range(3):
            for i in range(Ho):
                for j in range(Wo):
                    window = x[b, c, 2 * i:2 * i + 2, 2 * j:2 * j + 2]
                    first = int(np.argmax(window.reshape(-1)))  # first maximum
                    ref[b, c, i, j] = window.max()
                    ref_gx[b, c, 2 * i + first // 2, 2 * j + first % 2] = g[b, c, i, j]
    assert np.array_equal(out.data, ref)
    # the backward writes g * 0 off the maxima, which is -0.0 where g < 0, so
    # zeros are compared by value, not by sign
    assert np.array_equal(gx, ref_gx)


class TestMaxPool:
    def test_basic_2x2(self):
        x = T.Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
        out = T.max_pool2d(x)
        assert out.shape == (1, 1, 1, 1)
        assert out.item() == 4.0

    def test_matches_reference_loop(self):
        x = RngStream(seed=4).normal(2 * 3 * 6 * 6).reshape(2, 3, 6, 6)
        out = T.max_pool2d(T.Tensor(x)).data
        ref = np.zeros((2, 3, 3, 3))
        for i in range(3):
            for j in range(3):
                ref[:, :, i, j] = x[:, :, 2 * i:2 * i + 2, 2 * j:2 * j + 2].max(axis=(2, 3))
        assert np.array_equal(out, ref)

    def test_window_too_large(self):
        with pytest.raises(ShapeError):
            T.max_pool2d(T.Tensor(np.ones((1, 1, 1, 2))))

    @pytest.mark.parametrize("shape", [(1, 1, 3, 4), (1, 1, 4, 7), (2, 3, 4), (1, 1, 0, 2)])
    def test_odd_or_empty_extents_rejected(self, shape):
        with pytest.raises(ShapeError):
            T.max_pool2d(T.Tensor(np.ones(shape)))

    # parametrized by the input extents (H, W)
    @pytest.mark.parametrize("h,w", [(2, 2), (6, 6), (4, 8), (8, 2)])
    def test_ties_forward_and_backward_match_loop(self, h, w):
        _check_pool_against_loop(h, w)


class TestKeepFreedMemory:
    @pytest.mark.skipif(not sys.platform.startswith("linux")
                        or platform.libc_ver()[0] != "glibc", reason="needs glibc")
    def test_takes_effect_on_glibc_and_is_idempotent(self):
        assert T.keep_freed_memory()
        assert T.keep_freed_memory()

    def test_no_op_without_mallopt(self):
        assert T.keep_freed_memory(libc=types.SimpleNamespace()) is False

    def test_caps_the_heap_at_one_arena(self):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        assert T.keep_freed_memory(libc=types.SimpleNamespace(mallopt=mallopt))
        assert (-8, 1) in calls  # M_ARENA_MAX = 1


class TestPinBlasThreads:
    def test_sets_and_restores_the_count_of_numpys_openblas(self):
        previous = T.pin_blas_threads(1)
        if previous is None:
            pytest.skip("numpy's BLAS has no thread-count symbols")
        assert T.pin_blas_threads(previous) == 1

    def test_no_op_without_the_symbols(self):
        assert T.pin_blas_threads(1, lib=types.SimpleNamespace()) is None


class TestBackwardContract:
    def test_nonscalar_loss_rejected(self):
        x = T.Tensor(np.ones(3), requires_grad=True)
        y = x * 2.0
        with pytest.raises(ContractError):
            T.backward(y)

    def test_grad_accumulates_across_uses(self):
        x = T.Tensor(np.array([3.0]), requires_grad=True)
        y = T.tsum(x * x + x)  # dy/dx = 2x + 1 = 7
        T.backward(y)
        assert np.allclose(x.grad, [7.0])

    def test_repeated_backward_accumulates_into_grad(self):
        x = T.Tensor(np.array([2.0]), requires_grad=True)
        for _ in range(2):
            T.backward(T.tsum(x * 3.0))
        assert np.allclose(x.grad, [6.0])
        x.zero_grad()
        assert x.grad is None

    def test_grad_kept_on_leaves_only(self):
        x = T.Tensor(np.array([1.0, 2.0]), requires_grad=True)
        w = T.Tensor(np.array([3.0, -1.0]), requires_grad=True)
        h = x * w
        y = T.relu(h)
        loss = T.tsum(y)
        T.backward(loss)
        assert np.array_equal(x.grad, [3.0, 0.0])
        assert np.array_equal(w.grad, [1.0, 0.0])
        assert h.grad is None and y.grad is None and loss.grad is None

    def test_mul_gives_no_gradient_to_untracked_operand(self):
        x = T.Tensor(np.array([1.0, 2.0]), requires_grad=True)
        gx, gscale = (x * 0.5).op_record.backward(np.ones(2))
        assert np.array_equal(gx, [0.5, 0.5]) and gscale is None

    def test_untracked_graph_has_no_records(self):
        a = T.Tensor(np.ones(4))
        b = a * 2.0 + 1.0
        assert b.op_record is None and not b.requires_grad
