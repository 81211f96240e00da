"""Forward-value checks for the tensor op set.

Expected values here are either worked out by hand, checked against a
closed form, or computed with an independent numpy expression written
directly in the test.  The fused ``linear`` and ``attention`` ops are
checked, values and gradients, against the graph of small ops they replace.
"""

import platform
import sys
import tracemalloc
import types
import weakref

import numpy as np
import pytest

from haswell_kernels import run_on_haswell_kernels
from hgtnet import data
from hgtnet import tensor as T
from hgtnet import training as tr
from hgtnet.checkpoint import FORMAT_VERSION, load_checkpoint
from hgtnet.errors import ConfigError, ContractError, ShapeError
from hgtnet.model import ModelConfig, init_params, param_shapes, tiny_config
from hgtnet.model import attention as model_attention
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


def unfused_linear(x, w, b=None):
    y = T.matmul(x, w)
    return y if b is None else y + b


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
    @pytest.mark.parametrize("biased", [True, False], ids=["bias", "no-bias"])
    @pytest.mark.parametrize("x_shape", [(5, 4), (2, 3, 4)])
    def test_matches_matmul_plus_add(self, x_shape, biased):
        x, w, b = _leaves(1, x_shape, (4, 6), (6,))
        inputs = [x, w, b] if biased else [x, w]
        g = T.Tensor(RngStream(seed=2).normal(int(np.prod(x_shape[:-1])) * 6)
                     .reshape(x_shape[:-1] + (6,)))
        fused, fused_grads = _value_and_grads(T.linear, inputs, g)
        ref, ref_grads = _value_and_grads(unfused_linear, inputs, g)
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

    def test_without_a_bias_the_record_has_no_bias_parent_or_gradient(self):
        x, w = _leaves(4, (3, 4), (4, 2))
        out = T.linear(x, w)
        assert out.op_record.parents == (x, w)
        assert len(out.op_record.backward(np.ones((3, 2)))) == 2

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
            lambda *a: T.attention(*a, heads), [q, k, v], g)
        ref, ref_grads = _value_and_grads(
            lambda *a: unfused_attention(*a, heads)[0], [q, k, v], g)
        assert fused.shape == (2, 3, 8)
        assert np.allclose(fused, ref, rtol=0, atol=1e-12)
        for got, want in zip(fused_grads, ref_grads):
            assert got.shape == want.shape and np.allclose(got, want, rtol=0, atol=1e-12)

    def test_probabilities_match_the_unfused_graph(self):
        q, k, v = _leaves(20, (1, 2, 4), (1, 3, 4), (1, 3, 4))
        out, probs = T.attention(q, k, v, 2), T.attention_probs(q, k, 2)
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
        cfg = tiny_config()
        state = tr.init_state(cfg, tr.TrainConfig(seed=3), stats,
                              [f"class{c}" for c in range(5)])
        noise = RngStream(seed=6)
        for name, p in state.params.items():  # non-zero biases and embeddings
            p.data = p.data + 0.3 * noise.derive(name).normal(p.size).reshape(p.shape)
        path = tmp_path / "state.ckpt"
        tr.save_state(state, path)
        # format version 2, and the parameter names that earlier versions wrote
        assert path.read_bytes()[4:8] == FORMAT_VERSION.to_bytes(4, "little") == b"\2\0\0\0"
        assert {n for n in load_checkpoint(path)[1] if not n.startswith(("m.", "v."))} \
            == set(param_shapes(cfg))

        loaded = tr.load_state(path)
        _, _, fused = tr.evaluate(loaded.params, cfg, samples, stats)
        monkeypatch.setattr(T, "linear", unfused_linear)
        monkeypatch.setattr(T, "attention", lambda *a: unfused_attention(*a)[0])
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
        assert np.array_equal(T.tmean(x).data, np.array([1.0, 4.0]))


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
        out = T.leaky_relu(x).data
        assert np.allclose(out, [-0.8, 4.0])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            T.activation(T.Tensor(np.ones(2)), "swish")

    def test_leaky_relu_record_keeps_a_bool_sign_mask_not_its_input(self):
        x = T.Tensor(RngStream(seed=7).normal(3 * 5).reshape(3, 5), requires_grad=True)
        held = _closure_arrays(T.leaky_relu(x).op_record.backward)
        assert not any(a.dtype != bool and a.size == x.size for a in held)
        assert [a.shape for a in held if a.dtype == bool] == [(3, 5)]


class TestGeluLinear:
    """``gelu_linear`` is ``linear(gelu(x))`` as one record, bit for bit."""

    @pytest.mark.parametrize("x_tracked", [True, False], ids=["tracked", "untracked"])
    @pytest.mark.parametrize("x_shape", [(5, 4), (2, 3, 4)])
    def test_bits_match_linear_of_gelu(self, x_shape, x_tracked):
        x, w, b = _leaves(31, x_shape, (4, 6), (6,))
        x.data[0, 0] = 0.0   # gelu's fixed point
        x.requires_grad = x_tracked
        g = T.Tensor(RngStream(seed=32).normal(int(np.prod(x_shape[:-1])) * 6)
                     .reshape(x_shape[:-1] + (6,)))
        fused, fused_grads = _value_and_grads(T.gelu_linear, [x, w, b], g)
        ref, ref_grads = _value_and_grads(lambda x, w, b: T.linear(T.gelu(x), w, b),
                                          [x, w, b], g)
        assert fused.shape == ref.shape and fused.tobytes() == ref.tobytes()
        assert (fused_grads[0] is None) == (not x_tracked)
        for got, want in zip(fused_grads, ref_grads):
            assert (got is None and want is None) or got.tobytes() == want.tobytes()

    def test_one_record_that_keeps_the_input_not_its_gelu(self):
        x, w, b = _leaves(33, (2, 3, 4), (4, 5), (5,))
        out = T.gelu_linear(x, w, b)
        assert out.op_record.name == "gelu_linear"
        assert out.op_record.parents == (x, w, b)
        held = _closure_arrays(out.op_record.backward)
        assert any(a is x.data for a in held) and any(a is w.data for a in held)
        # gelu(x) has x's size; only x itself may
        assert not any(a.size == x.size for a in held if a is not x.data)

    def test_shape_mismatch_raises(self):
        x, w = T.Tensor(np.ones((3, 4))), T.Tensor(np.ones((4, 2)))
        with pytest.raises(ShapeError):
            T.gelu_linear(x, T.Tensor(np.ones((5, 2))), T.Tensor(np.ones(2)))
        with pytest.raises(ShapeError):
            T.gelu_linear(x, w, T.Tensor(np.ones(3)))


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

    def test_equals_the_float_mask_product_bit_for_bit(self):
        x = T.Tensor(np.random.default_rng(4).normal(size=(8, 50)), requires_grad=True)
        g = np.random.default_rng(5).normal(size=(8, 50))
        p = 0.3
        out = T.dropout(x, p, [RngStream(seed=6).derive(i) for i in range(8)])
        keep = np.concatenate([RngStream(seed=6).derive(i).keep_mask(50, p)
                               for i in range(8)]).reshape(8, 50)
        mask = keep / (1.0 - p)
        (gx,) = out.op_record.backward(g)
        assert out.data.tobytes() == (x.data * mask).tobytes()  # -0.0 where x < 0 is dropped
        assert gx.tobytes() == (g * mask).tobytes()

    def test_special_values_equal_the_float_mask_product_bytes(self):
        tiny = np.nextafter(0.0, 1.0)  # the smallest subnormal
        special = np.array([-0.0, 0.0, tiny, -tiny, 1e300, -1e300, np.finfo(float).max,
                            np.inf, -np.inf, np.nan])
        x = np.tile(special, (8, 4))
        g = np.tile(special[::-1], (8, 4))
        p = 0.3
        keep = np.concatenate([RngStream(seed=7).derive(i).keep_mask(40, p)
                               for i in range(8)]).reshape(8, 40)
        for j in range(len(special)):  # each value is kept somewhere and dropped somewhere
            assert keep[:, j::len(special)].any() and not keep[:, j::len(special)].all()
        with np.errstate(over="ignore", invalid="ignore"):  # max * scale, inf * 0
            out = T.dropout(T.Tensor(x, requires_grad=True), p,
                            [RngStream(seed=7).derive(i) for i in range(8)])
            (gx,) = out.op_record.backward(g)
            assert out.data.tobytes() == (x * (keep / (1 - p))).tobytes()
            assert gx.tobytes() == (g * (keep / (1 - p))).tobytes()

    def test_invalid_rate(self):
        x = T.Tensor(np.ones(3))
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(ConfigError):
                T.dropout(x, bad, [RngStream(seed=1)] * 3)


class TestConv2d:
    def test_hand_worked_4x4(self):
        # single channel, 3x3 kernel of ones over a zero-padded 4x4 input:
        # windowed sums, then the maximum of each 2x2 block of them
        x = T.Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
        w = T.Tensor(np.ones((1, 1, 3, 3)))
        b = T.Tensor(np.zeros(1))
        out = T.conv2d(x, w, b).data
        assert np.array_equal(out[0, 0], np.array([[45.0, 54.0], [81.0, 90.0]]))

    def test_bias_added(self):
        x = T.Tensor(np.zeros((1, 1, 2, 2)))
        w = T.Tensor(np.zeros((3, 1, 1, 1)))
        b = T.Tensor(np.array([1.0, 2.0, 3.0]))
        out = T.conv2d(x, w, b).data
        assert np.allclose(out[0, :, 0, 0], [1.0, 2.0, 3.0])

    def test_identity_kernel(self):
        rng = RngStream(seed=8)
        x = rng.normal(2 * 1 * 4 * 4).reshape(2, 1, 4, 4)
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0
        out = T.conv2d(T.Tensor(x), T.Tensor(w), T.Tensor(np.zeros(1))).data
        assert np.array_equal(out, _pool_loop(x, np.zeros((2, 1, 2, 2)))[0])

    @pytest.mark.parametrize("w_shape", [(1, 1, 2, 2), (1, 1, 3, 1), (1, 1, 4, 4)])
    def test_even_or_non_square_kernel_raises(self, w_shape):
        with pytest.raises(ShapeError, match="odd k"):
            T.conv2d(T.Tensor(np.ones((1, 1, 6, 6))), T.Tensor(np.ones(w_shape)),
                     T.Tensor(np.zeros(1)))

    def test_channel_mismatch_raises(self):
        with pytest.raises(ShapeError):
            T.conv2d(T.Tensor(np.ones((1, 2, 4, 4))), T.Tensor(np.ones((1, 3, 3, 3))),
                     T.Tensor(np.zeros(1)))

    def test_forward_and_backward_match_direct_loop(self):
        rng = RngStream(seed=31)
        B, C, F, hw = 2, 3, 4, 6
        x = rng.derive("x").normal(B * C * hw * hw).reshape(B, C, hw, hw)
        w = rng.derive("w").normal(F * C * 3 * 3).reshape(F, C, 3, 3)
        b = rng.derive("b").normal(F)
        xt, wt, bt = (T.Tensor(a, requires_grad=True) for a in (x, w, b))
        out = T.conv2d(xt, wt, bt)
        g = rng.derive("g").normal(B * F * 3 * 3).reshape(B, F, 3, 3)
        gx, gw, gb = out.op_record.backward(g)

        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        conv = np.zeros((B, F, hw, hw))
        for i in range(hw):
            for j in range(hw):
                conv[:, :, i, j] = np.einsum("bcuv,fcuv->bf", xp[:, :, i:i + 3, j:j + 3], w) + b
        ref, g_conv = _pool_loop(conv, g)
        ref_gxp = np.zeros_like(xp)
        ref_gw = np.zeros_like(w)
        for i in range(hw):
            for j in range(hw):
                ref_gxp[:, :, i:i + 3, j:j + 3] += np.einsum("bf,fcuv->bcuv", g_conv[:, :, i, j], w)
                ref_gw += np.einsum("bf,bcuv->fcuv", g_conv[:, :, i, j], xp[:, :, i:i + 3, j:j + 3])
        # the column layout sums in another order than the loop: float64 slack
        for got, want in ((out.data, ref), (gx, ref_gxp[:, :, 1:-1, 1:-1]), (gw, ref_gw),
                          (gb, g_conv.sum(axis=(0, 2, 3)))):
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_untracked_input_gets_no_gradient(self):
        rng = RngStream(seed=32)
        x = rng.derive("x").normal(2 * 3 * 6 * 6).reshape(2, 3, 6, 6)
        w = T.Tensor(rng.derive("w").normal(4 * 3 * 3 * 3).reshape(4, 3, 3, 3),
                     requires_grad=True)
        b = T.Tensor(rng.derive("b").normal(4), requires_grad=True)
        g = rng.derive("g").normal(2 * 4 * 3 * 3).reshape(2, 4, 3, 3)
        tracked = T.conv2d(T.Tensor(x, requires_grad=True), w, b)
        untracked = T.conv2d(T.Tensor(x), w, b)
        _, gw, gb = tracked.op_record.backward(g)
        gx_u, gw_u, gb_u = untracked.op_record.backward(g)
        assert gx_u is None
        assert np.array_equal(gw, gw_u) and np.array_equal(gb, gb_u)


def _pool_loop(x, g):
    """The floored 2 x 2 maxima of x and the gradient of sum(out * g), one
    window at a time: g goes to the window's first maximum when that maximum
    is > 0, and every other entry gets g * 0, which is -0.0 where g < 0."""
    B, C, Ho, Wo = g.shape
    ref, ref_gx = np.zeros(g.shape), np.zeros_like(x)
    for b in range(B):
        for c in range(C):
            for i in range(Ho):
                for j in range(Wo):
                    window = x[b, c, 2 * i:2 * i + 2, 2 * j:2 * j + 2]
                    top = np.maximum(window.max(), 0.0)  # NaN stays NaN
                    ref[b, c, i, j] = top
                    ref_gx[b, c, 2 * i:2 * i + 2, 2 * j:2 * j + 2] = g[b, c, i, j] * 0.0
                    if top > 0.0:
                        first = int(np.argmax(window.reshape(-1)))  # first maximum
                        ref_gx[b, c, 2 * i + first // 2, 2 * j + first % 2] = g[b, c, i, j]
    return ref, ref_gx


def _check_pool_against_loop(h, w):
    rng = RngStream(seed=33)
    x = rng.derive("x").normal(2 * 3 * h * w).reshape(2, 3, h, w)
    x[0, 0] = 0.0               # whole windows tied at the floor
    x[0, 1] = 0.5               # whole windows tied above it
    x[0, 2, ::2, ::2] = 0.5     # positive ties that start each window
    x[0, 2, 1::2, 1::2] = 0.5
    x[1, 0] = -np.abs(x[1, 0])  # windows below the floor
    x[1, 1, 0, 0] = np.nan      # a NaN window, first and last offset
    x[1, 1, -1, -1] = np.nan
    xt = T.Tensor(x, requires_grad=True)
    out = T.max_pool2d(xt)
    g = rng.derive("g").normal(2 * 3 * (h // 2) * (w // 2)).reshape(2, 3, h // 2, w // 2)
    (gx,) = out.op_record.backward(g)
    ref, ref_gx = _pool_loop(x, g)
    assert np.array_equal(out.data, ref, equal_nan=True)
    # bytes, so a -0.0 where g < 0 is told apart from 0.0
    assert gx.tobytes() == ref_gx.tobytes()


class TestMaxPool:
    def test_routing_on_a_large_map_matches_the_loop(self):
        # planted ties, signed zeros, windows below the floor and NaNs
        # over 6144 windows
        rng = RngStream(seed=98)
        x = rng.derive("x").normal(2 * 4 * 48 * 64).reshape(2, 4, 48, 64)
        picks = rng.derive("picks")
        flat = x.reshape(-1)
        for value in (0.0, -0.0, np.nan):
            flat[[picks.randint(flat.size) for _ in range(200)]] = value
        windows = x.reshape(2, 4, 24, 2, 32, 2)
        windows[0, 0, :8, 1] = windows[0, 0, :8, 0]            # ties across rows
        windows[0, 1, :8, :, :, 1] = windows[0, 1, :8, :, :, 0]  # ties across columns
        windows[0, 2, :8] = 0.75                               # four-way ties
        windows[0, 3, :8] = -0.0                               # windows of -0.0
        windows[1, 0, :8] = -np.abs(windows[1, 0, :8])          # windows below the floor
        xt = T.Tensor(x, requires_grad=True)
        out = T.max_pool2d(xt)
        g = rng.derive("g").normal(out.size).reshape(out.shape)
        (gx,) = out.op_record.backward(g)
        ref, ref_gx = _pool_loop(x, g)
        assert np.array_equal(out.data, ref, equal_nan=True)
        assert gx.tobytes() == ref_gx.tobytes()

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

    def test_maxima_are_floored_at_zero(self):
        x = T.Tensor(np.array([[[[-2.0, -1.0, 0.0, -3.0, 1.0, 3.0],
                                 [-4.0, -5.0, -0.0, -1.0, 2.0, -1.0]]]]))
        assert np.array_equal(T.max_pool2d(x).data, [[[[0.0, 0.0, 3.0]]]])

    def test_windows_at_or_below_the_floor_route_no_gradient(self):
        tiny = np.nextafter(0.0, 1.0)  # the smallest subnormal
        tops = np.array([-0.0, 0.0, tiny, -tiny, np.nan, 2.0, -3.0])
        # each window holds its maximum at a different offset, over three
        # smaller values
        x = np.repeat(np.repeat(tops - 1.0, 2)[None, :], 2, axis=0)
        for k, top in enumerate(tops):
            x[k % 2, 2 * k + (k // 2) % 2] = top
        x = x[None, None]
        g = np.array([-1.0, 2.0, -3.0, 4.0, 5.0, -6.0, 7.0]).reshape(1, 1, 1, 7)
        out = T.max_pool2d(T.Tensor(x, requires_grad=True))
        (gx,) = out.op_record.backward(g)
        ref, ref_gx = _pool_loop(x, g)
        assert np.array_equal(out.data, ref, equal_nan=True)
        assert gx.tobytes() == ref_gx.tobytes()
        # only the windows whose maximum is > 0 route: tiny and 2.0
        assert np.flatnonzero(gx).tolist() == [5, 24]

    def test_window_too_large(self):
        with pytest.raises(ShapeError):
            T.max_pool2d(T.Tensor(np.ones((1, 1, 1, 2))))

    def test_untracked_input_records_nothing_and_pools_like_a_tracked_one(self):
        x = RngStream(seed=6).normal(2 * 3 * 4 * 6).reshape(2, 3, 4, 6)
        x[0, 0] = 0.0  # ties
        untracked = T.max_pool2d(T.Tensor(x))
        tracked = T.max_pool2d(T.Tensor(x, requires_grad=True))
        assert untracked.op_record is None and not untracked.requires_grad
        assert tracked.op_record is not None
        assert untracked.data.tobytes() == tracked.data.tobytes()

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

    def test_no_op_without_mallopt(self, monkeypatch):
        monkeypatch.setattr(T.sys, "platform", "linux")
        monkeypatch.setattr(T.ctypes, "CDLL", lambda name: types.SimpleNamespace())
        assert T.keep_freed_memory() is False

    def test_caps_the_heap_at_one_arena(self, monkeypatch):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        monkeypatch.setattr(T.sys, "platform", "linux")
        monkeypatch.setattr(T.ctypes, "CDLL",
                            lambda name: types.SimpleNamespace(mallopt=mallopt))
        assert T.keep_freed_memory()
        assert (-8, 1) in calls  # M_ARENA_MAX = 1


class TestPinBlasThreads:
    def test_sets_and_restores_the_count_of_numpys_openblas(self):
        previous = T.pin_blas_threads(1)
        if previous is None:
            pytest.skip("numpy's BLAS has no thread-count symbols")
        assert T.pin_blas_threads(previous) == 1

    def test_no_op_without_the_symbols(self, monkeypatch):
        monkeypatch.setattr(T, "_numpy_openblas", lambda: types.SimpleNamespace())
        assert T.pin_blas_threads(1) is None


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

    def test_repeat_backward_raises_naming_the_op_and_keeps_leaf_grads(self):
        x = T.Tensor(np.array([1.0, 2.0]), requires_grad=True)
        w = T.Tensor(np.array([3.0, -1.0]), requires_grad=True)
        loss = T.tsum(T.leaky_relu(x * w))
        T.backward(loss)
        grads = x.grad.copy(), w.grad.copy()
        with pytest.raises(ContractError, match="'sum'"):
            T.backward(loss)
        # a fresh loss on a walked interior tensor fails before any leaf changes
        h = x * w
        T.backward(T.tsum(h))
        with pytest.raises(ContractError, match="'mul'"):
            T.backward(T.tsum(T.leaky_relu(h) + x))
        assert np.array_equal(x.grad, grads[0] + w.data)
        assert np.array_equal(w.grad, grads[1] + x.data)

    def test_interior_values_are_freed_by_the_walk(self):
        x = T.Tensor(np.linspace(-1.0, 1.0, 6), requires_grad=True)
        h = T.leaky_relu(x)
        interior = weakref.ref(h.data)
        loss = T.tsum(h * h)
        del h
        assert interior() is not None  # the loss's graph holds it
        T.backward(loss)
        assert interior() is None
        assert loss.item() == pytest.approx(1.456)  # 1.4 + 0.2² · (0.2² + 0.6² + 1²)
        assert np.allclose(x.grad, 2.0 * x.data * np.where(x.data > 0.0, 1.0, 0.04))

    def test_grad_kept_on_leaves_only(self):
        x = T.Tensor(np.array([1.0, 2.0]), requires_grad=True)
        w = T.Tensor(np.array([3.0, -1.0]), requires_grad=True)
        h = x * w
        y = T.leaky_relu(h)
        loss = T.tsum(y)
        T.backward(loss)
        assert np.array_equal(x.grad, [3.0, -0.2])
        assert np.array_equal(w.grad, [1.0, 0.4])
        assert h.grad is None and y.grad is None and loss.grad is None

    def test_mul_gives_no_gradient_to_untracked_operand(self):
        x = T.Tensor(np.array([1.0, 2.0]), requires_grad=True)
        gx, gscale = (x * 0.5).op_record.backward(np.ones(2))
        assert np.array_equal(gx, [0.5, 0.5]) and gscale is None

    def test_untracked_graph_has_no_records(self):
        a = T.Tensor(np.ones(4))
        b = a * 2.0 + 1.0
        assert b.op_record is None and not b.requires_grad


def _reachable_records(loss):
    records, seen, stack = [], set(), [loss.op_record]
    while stack:
        node = stack.pop()
        if isinstance(node, T.OpRecord) and id(node) not in seen:
            seen.add(id(node))
            records.append(node)
            stack.extend(node.parents)
    return records


class TestGraphHoldsRecords:
    def test_a_training_pass_graph_keeps_no_derived_tensor(self, monkeypatch):
        cfg = ModelConfig(image_size=64)
        assert cfg.dropout_p > 0
        samples = data.synth_dataset(1, 64, RngStream(seed=3))[:2]
        stats = data.compute_stats(samples)
        params = init_params(cfg, RngStream(seed=5))
        walked = []
        real_backward = T.backward

        def inspect_then_backward(loss):  # one walk per loss term
            records = _reachable_records(loss)
            walked.extend(records)
            for record in records:
                for parent in record.parents:
                    assert parent is None or isinstance(parent, T.OpRecord) or (
                        isinstance(parent, T.Tensor) and parent.requires_grad
                        and parent.op_record is None), (record.name, parent)
                for cell in record.backward.__closure__ or ():
                    held = cell.cell_contents
                    assert not (isinstance(held, T.Tensor) and held.op_record is not None), \
                        record.name
            real_backward(loss)

        monkeypatch.setattr(T, "backward", inspect_then_backward)
        tr._shard_step(params, cfg, samples, 2, stats, data.train_policy(64),
                       RngStream(seed=5), 0)
        assert {"patch_linear", "conv2d", "dropout", "add", "layer_norm", "linear",
                "attention", "gelu_linear", "matmul", "cross_entropy"} <= \
            {record.name for record in walked}
        # the walk released every record it reached
        assert all(r.parents == () and r.backward is None for r in walked)

    def test_an_interior_value_no_closure_reads_is_freed_before_backward(self):
        x, gamma, beta = _leaves(40, (3, 5), (5,), (5,))
        h = T.add(x, x)
        y = T.layer_norm(h, gamma, beta)
        interior = weakref.ref(h.data)
        del h
        assert interior() is None
        T.backward(T.tsum(y))
        assert x.grad.shape == x.shape and gamma.grad.shape == beta.grad.shape == (5,)


def _closure_arrays(fn):
    """Every ndarray a closure reaches through its cells, including the
    cells of the functions it calls from its enclosing scope."""
    arrays, stack = [], [fn]
    while stack:
        for cell in stack.pop().__closure__ or ():
            held = cell.cell_contents
            if isinstance(held, np.ndarray):
                arrays.append(held)
            elif isinstance(held, types.FunctionType):
                stack.append(held)
    return arrays


def conv2d_keeping_cols(x, w, b, stride, padding, g):
    """Output and (input, weight, bias) gradients of a conv whose backward
    reads the im2col columns kept from the forward, as the record kept them
    before it rebuilt them from its input; the input gradient scatters the
    columns' gradient back onto the padded input (col2im)."""
    B, C, H, W = x.shape
    F, _, kh, kw = w.shape
    Hh, Ww = (H + 2 * padding - kh) // stride + 1, (W + 2 * padding - kw) // stride + 1
    K, N = kh * kw * C, B * Hh * Ww
    if padding:
        xp = np.zeros((C, B, H + 2 * padding, W + 2 * padding))
        xp[:, :, padding:padding + H, padding:padding + W] = x.transpose(1, 0, 2, 3)
    else:
        xp = x.transpose(1, 0, 2, 3)
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride]
    cols = np.ascontiguousarray(windows.transpose(4, 5, 0, 1, 2, 3)).reshape(K, N)
    wmat = w.transpose(0, 2, 3, 1).reshape(F, K)
    out = wmat @ cols
    out += b[:, None]
    g2 = g.transpose(1, 0, 2, 3).reshape(F, N)
    gw = (g2 @ cols.T).reshape(F, kh, kw, C).transpose(0, 3, 1, 2)
    gcols = (wmat.T @ g2).reshape(kh, kw, C, B, Hh, Ww)
    gxp = np.zeros((C, B, H + 2 * padding, W + 2 * padding))
    for u in range(kh):
        for v in range(kw):
            gxp[:, :, u:u + stride * Hh:stride, v:v + stride * Ww:stride] += gcols[u, v]
    gx = gxp[:, :, padding:padding + H, padding:padding + W].transpose(1, 0, 2, 3)
    return out.reshape(F, B, Hh, Ww).transpose(1, 0, 2, 3), gx, gw, g2.sum(axis=1)


def pooled_conv2d_keeping_cols(x, w, b, g):
    """``conv2d``'s output and (input, weight, bias) gradients of sum(out *
    g), from ``conv2d_keeping_cols``'s stride-1 conv, zero-padded to keep
    its extents, and ``max_pool2d`` over its output.  The output keeps the
    conv map's F x B memory order."""
    pad = w.shape[2] // 2
    map_shape = x.shape[:1] + b.shape + x.shape[2:]
    conv_map = conv2d_keeping_cols(x, w, b, 1, pad, np.zeros(map_shape))[0]
    pooled = T.max_pool2d(T.Tensor(conv_map, requires_grad=True))
    (g_map,) = pooled.op_record.backward(g)
    return (pooled.data, *conv2d_keeping_cols(x, w, b, 1, pad, g_map)[1:])


def attention_keeping_p(q, k, v, heads, g):
    """Output, probabilities and (q, k, v) gradients of the attention core
    with P kept from the forward, as the record kept it before it rebuilt
    P in the backward."""
    B, Nq, d = q.shape
    Nk, hd = k.shape[1], d // heads
    scale = 1.0 / np.sqrt(hd)

    def split(a, n):
        return a.reshape(B, n, heads, hd).transpose(0, 2, 1, 3)

    def merge(a, n):
        return a.transpose(0, 2, 1, 3).reshape(B, n, d)

    qh, kh, vh = split(q * scale, Nq), split(k, Nk), split(v, Nk)
    p = qh @ kh.transpose(0, 1, 3, 2)
    T.softmax_in_place(p)
    out = merge(p @ vh, Nq)
    gh = split(g, Nq)
    gv = merge(p.transpose(0, 1, 3, 2) @ gh, Nk)
    gs = gh @ vh.transpose(0, 1, 3, 2)
    gs -= np.einsum("...k,...k->...", gs, p)[..., None]
    gs *= p
    gq = merge(gs @ kh, Nq)
    gq *= scale
    gk = merge(gs.transpose(0, 1, 3, 2) @ qh, Nk)
    return out, p, (gq, gk, gv)


def gelu_keeping_t(v, g):
    """Output, tanh and input gradient of GELU with ``t`` kept from the
    forward, as the record kept it before it rebuilt ``t``."""
    c, a = np.sqrt(2.0 / np.pi), 0.044715
    t = np.tanh(c * (v + a * (v * v * v)))
    du = c * (1.0 + 3.0 * a * (v * v))
    return 0.5 * v * (1.0 + t), t, g * (0.5 * (1.0 + t) + 0.5 * v * (1.0 - t * t) * du)


@pytest.fixture
def one_blas_thread():
    """BLAS on one thread, as the model's forwards run it: the thread count
    at which a band of a GEMM is held to the whole product's bits."""
    previous = T.pin_blas_threads(1)
    yield
    if previous is not None:
        T.pin_blas_threads(previous)


# (H, W, B, output rows a band's budget holds): output widths that are not
# multiples of 8, each cut into at least 3 bands, the last one shorter than
# the others; most budgets' rows span no multiple of 8 columns, or are odd,
# so the band rounds them up
_BAND_CASES = {
    "w10-b1": (20, 10, 1, 6),
    "w14-b2": (20, 14, 2, 7),
    "w22-b3": (40, 22, 3, 11),
    "w14-b2-odd-rows": (28, 14, 2, 5),
}


class TestRebuiltInBackward:
    """Arrays that a record rebuilds in its backward instead of keeping:
    the gradients equal, bit for bit, those of a backward that reads the
    arrays the forward made, and the closure holds no such array."""

    def test_conv2d_of_an_untracked_input_keeps_the_image_not_its_columns(self):
        rng = RngStream(seed=61)
        x = rng.derive("x").normal(2 * 3 * 10 * 10).reshape(2, 3, 10, 10)
        w, b = _leaves(62, (5, 3, 3, 3), (5,))
        out = T.conv2d(T.Tensor(x), w, b)
        g = rng.derive("g").normal(out.size).reshape(out.shape)
        ref, _, ref_gw, ref_gb = pooled_conv2d_keeping_cols(x, w.data, b.data, g)
        gx, gw, gb = out.op_record.backward(g)
        assert gx is None
        assert np.array_equal(out.data, ref)
        assert np.array_equal(gw, ref_gw) and np.array_equal(gb, ref_gb)
        held = _closure_arrays(out.op_record.backward)
        assert not any(a.shape == (27, 2 * 10 * 10) for a in held)
        assert any(a is x for a in held)

    def test_conv2d_of_a_tracked_input_keeps_its_input_not_its_columns(self):
        x, w, b = _leaves(63, (2, 3, 10, 10), (4, 3, 3, 3), (4,))
        out = T.conv2d(x, w, b)
        g = RngStream(seed=68).normal(out.size).reshape(out.shape)
        ref, *ref_grads = pooled_conv2d_keeping_cols(x.data, w.data, b.data, g)
        assert np.array_equal(out.data, ref)
        for got, want in zip(out.op_record.backward(g), ref_grads):
            assert np.array_equal(got, want)
        held = _closure_arrays(out.op_record.backward)
        assert not any(a.shape == (27, 2 * 10 * 10) for a in held)
        assert any(a is x.data for a in held)

    @pytest.mark.parametrize("tracked", [True, False], ids=["tracked", "untracked"])
    @pytest.mark.parametrize("case", _BAND_CASES.values(), ids=_BAND_CASES.keys())
    def test_conv2d_in_bands_matches_the_kept_columns_bytes(
            self, case, tracked, monkeypatch, one_blas_thread):
        H, W, B, rows = case
        x, w, b = _leaves(71, (B, 3, H, W), (4, 3, 3, 3), (4,))
        x.requires_grad = tracked
        # a budget of ``rows`` output rows a band, and no floor on a band's
        # GEMM: the whole product here is small-matrix work as well
        monkeypatch.setattr(T, "CONV_BAND_BYTES", 8 * 27 * W * rows)
        monkeypatch.setattr(T, "_SMALL_GEMM_MACS", 0)
        bands = T._conv_bands(B, H, W, 4, 27)
        assert len(bands) >= 3 and bands[-1][1] - bands[-1][0] < bands[0][1] - bands[0][0]
        assert all((i1 - i0) * B * W % 8 == 0 and i0 % 2 == 0 for i0, i1 in bands)
        out = T.conv2d(x, w, b)
        g = RngStream(seed=72).normal(out.size).reshape(out.shape)
        ref, ref_gx, ref_gw, ref_gb = pooled_conv2d_keeping_cols(x.data, w.data, b.data, g)
        gx, gw, gb = out.op_record.backward(g)
        assert out.data.tobytes() == ref.tobytes()
        assert gw.tobytes() == ref_gw.tobytes() and gb.tobytes() == ref_gb.tobytes()
        assert gx is None if not tracked else gx.tobytes() == ref_gx.tobytes()
        held = _closure_arrays(out.op_record.backward)
        assert any(a is x.data for a in held)
        assert not any(a.ndim == 2 and a.shape[0] == 27 for a in held)

    @pytest.mark.parametrize("batch", [1, 2])
    @pytest.mark.parametrize("c_in,c_out,size", [(3, 16, 224), (16, 32, 112), (32, 64, 56)],
                             ids=["cnn0-224", "cnn1-112", "cnn2-56"])
    def test_conv2d_bands_at_the_paper_shapes_match_one_band(
            self, c_in, c_out, size, batch, monkeypatch, one_blas_thread):
        x, w, b = _leaves(73, (batch, c_in, size, size), (c_out, c_in, 3, 3), (c_out,))
        g = RngStream(seed=74).normal(batch * c_out * size * size // 4)
        g = g.reshape(batch, c_out, size // 2, size // 2)

        def output_and_gradient_bytes():
            out = T.conv2d(x, w, b)
            return [a.tobytes() for a in (out.data, *out.op_record.backward(g))]

        assert len(T._conv_bands(batch, size, size, c_out, 9 * c_in)) >= 3
        banded = output_and_gradient_bytes()
        monkeypatch.setattr(T, "CONV_BAND_BYTES", 1 << 62)
        assert len(T._conv_bands(batch, size, size, c_out, 9 * c_in)) == 1
        assert output_and_gradient_bytes() == banded

    # Budgets of one byte, where only the kernel rules cut the bands.  52px:
    # 4 filters over 64 channels, a product deep enough that OpenBLAS's
    # AVX-512 blocked kernels sum each 576-term dot product in slices, where
    # its small-matrix kernel, which a band of a few rows would take, sums
    # it in one pass; the bands hold 10 rows (9 rounded up to span a
    # multiple of 8 columns).  22px: 484 columns, whose last four the whole
    # product computes with a tail kernel, so one band
    @pytest.mark.parametrize("size,c_in,c_out,count", [(52, 64, 4, 5), (22, 32, 64, 1)],
                             ids=["52px-deep", "22px-tail"])
    def test_conv2d_bands_cut_by_the_kernel_rules_match_the_kept_columns_bytes(
            self, size, c_in, c_out, count, monkeypatch, one_blas_thread):
        x, w, b = _leaves(75, (1, c_in, size, size), (c_out, c_in, 3, 3), (c_out,))
        monkeypatch.setattr(T, "CONV_BAND_BYTES", 1)
        bands = T._conv_bands(1, size, size, c_out, 9 * c_in)
        assert len(bands) == count
        assert all(c_out * 9 * c_in * size * (i1 - i0) > T._SMALL_GEMM_MACS for i0, i1 in bands)
        out = T.conv2d(x, w, b)
        g = RngStream(seed=76).normal(out.size).reshape(out.shape)
        ref, *ref_grads = pooled_conv2d_keeping_cols(x.data, w.data, b.data, g)
        assert out.data.tobytes() == ref.tobytes()
        for got, want in zip(out.op_record.backward(g), ref_grads):
            assert got.tobytes() == want.tobytes()

    def test_attention_rebuilds_p_on_tied_and_underflowing_rows(self):
        q, k, v = _leaves(69, (2, 3, 4), (2, 5, 4), (2, 5, 4))
        q.data[0] = 0.0          # every score of sample 0 ties
        k.data[1, 1] = k.data[1, 0]
        q.data[1] *= 1e3         # score gaps of hundreds: exp underflows to 0
        out, probs = T.attention(q, k, v, 2), T.attention_probs(q, k, 2)
        assert (probs[0] == 0.2).all()
        assert np.array_equal(probs[1, ..., 0], probs[1, ..., 1])
        assert (probs[1] == 0.0).any() and (probs[1] == 1.0).any()
        g = RngStream(seed=70).normal(out.size).reshape(out.shape)
        # gradients from the rebuilt P have the bits of those from the forward's P
        _, ref_p, ref_grads = attention_keeping_p(q.data, k.data, v.data, 2, g)
        assert probs.tobytes() == ref_p.tobytes()
        for got, want in zip(out.op_record.backward(g), ref_grads):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("nq,nk,heads,d", [(5, 7, 2, 6), (6, 6, 3, 6), (5, 9, 4, 8)],
                             ids=["cross", "self", "cross-4-heads"])
    def test_attention_keeps_no_probabilities(self, nq, nk, heads, d):
        q, k, v = _leaves(64, (2, nq, d), (2, nk, d), (2, nk, d))
        out, probs = T.attention(q, k, v, heads), T.attention_probs(q, k, heads)
        g = RngStream(seed=65).normal(out.size).reshape(out.shape)
        ref, ref_p, ref_grads = attention_keeping_p(q.data, k.data, v.data, heads, g)
        assert out.data.tobytes() == ref.tobytes() and probs.tobytes() == ref_p.tobytes()
        for got, want in zip(out.op_record.backward(g), ref_grads):
            assert got.tobytes() == want.tobytes()
        held = _closure_arrays(out.op_record.backward)
        assert not any(a.shape == (2, heads, nq, nk) for a in held)

    def test_no_array_holds_every_heads_probabilities(self):
        # P of all 4 heads takes 1 MiB; one head's P and its gradient 0.5
        B, heads, n, d = 2, 4, 128, 8
        q, k, v = _leaves(77, (B, n, d), (B, n, d), (B, n, d))
        g = RngStream(seed=78).normal(B * n * d).reshape(B, n, d)
        whole_p = B * heads * n * n * 8
        if tracemalloc.is_tracing():
            pytest.skip("tracemalloc already traces this session")
        tracemalloc.start()
        try:
            out = T.attention(q, k, v, heads)
            forward = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            out.op_record.backward(g)
            backward = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert forward < whole_p / 2 and backward < whole_p, (forward, backward)

    @pytest.mark.parametrize("heads", [2, 4])
    def test_model_captures_the_probabilities_the_forward_built(self, heads):
        params = dict(zip(("attn.wq", "attn.wk", "attn.wv", "attn.wo"),
                          _leaves(79, *[(8, 8)] * 4)))
        params.update(zip(("attn.bq", "attn.bv", "attn.bo"), _leaves(80, *[(8,)] * 3)))
        q_tokens, kv_tokens = _leaves(92, (2, 5, 8), (2, 7, 8))
        capture = {}
        model_attention(q_tokens, kv_tokens, heads, params, "attn.", capture)
        q, k, v = (T.linear(t, params[f"attn.w{n}"], params.get(f"attn.b{n}")).data
                   for t, n in ((q_tokens, "q"), (kv_tokens, "k"), (kv_tokens, "v")))
        _, ref_p, _ = attention_keeping_p(q, k, v, heads, np.zeros((2, 5, 8)))
        assert capture["attn"].tobytes() == ref_p.tobytes()

    def test_gelu_keeps_its_input_not_its_tanh(self):
        (x,) = _leaves(66, (4, 9))
        out = T.gelu(x)
        g = RngStream(seed=67).normal(out.size).reshape(out.shape)
        ref, t, ref_gx = gelu_keeping_t(x.data, g)
        (gx,) = out.op_record.backward(g)
        assert np.array_equal(out.data, ref) and np.array_equal(gx, ref_gx)
        held = _closure_arrays(out.op_record.backward)
        assert held and all(a is x.data for a in held)
        assert not any(np.array_equal(a, t) for a in held)

    def test_gelu_matches_the_kept_tanh_bytes_at_zeros_subnormals_and_saturation(self):
        tiny = np.nextafter(0.0, 1.0)  # the smallest subnormal
        v = np.array([-0.0, 0.0, tiny, -tiny, -1e-308, 1e-160, 40.0, -40.0, 0.5])
        g = np.array([1.0, -1.0, 2.0, -0.5, 3.0, 1.0, -1.0, 2.0, -2.0])
        out = T.gelu(T.Tensor(v, requires_grad=True))
        ref, _, ref_gx = gelu_keeping_t(v, g)
        (gx,) = out.op_record.backward(g)
        assert out.data.tobytes() == ref.tobytes()
        assert gx.tobytes() == ref_gx.tobytes()


def _pooled_conv_matches_the_kept_columns(x, w, b, seed):
    """Run ``conv2d`` and ``pooled_conv2d_keeping_cols`` on the same leaves;
    assert byte-equal outputs, in the same memory order, and input, weight
    and bias gradients.  Returns the output."""
    pooled = T.conv2d(x, w, b)
    g = RngStream(seed=seed).normal(pooled.size).reshape(pooled.shape)
    ref, *ref_grads = pooled_conv2d_keeping_cols(x.data, w.data, b.data, g)
    assert pooled.data.tobytes() == ref.tobytes()
    assert [s for s, n in zip(pooled.data.strides, pooled.shape) if n > 1] == \
        [s for s, n in zip(ref.strides, ref.shape) if n > 1]
    for got, want in zip(pooled.op_record.backward(g), ref_grads):
        assert got.tobytes() == want.tobytes()
    return pooled


class TestPooledConv:
    """``conv2d`` pools each band of its output as the band is made, with
    ``max_pool2d``'s kernel; it gives the bytes of ``max_pool2d`` over the
    conv of the kept columns, forward and backward."""

    # the paper's three CNN convs at 224 px; a band of the first one holds
    # 44 output rows (a 2 MiB budget gives 43, which the even-row rule
    # rounds up), so no band cut splits a pooling window
    @pytest.mark.parametrize("batch", [1, 2])
    @pytest.mark.parametrize("c_in,c_out,size", [(3, 16, 224), (16, 32, 112), (32, 64, 56)],
                             ids=["cnn0-224", "cnn1-112", "cnn2-56"])
    def test_paper_shapes_match_conv_then_pool(self, c_in, c_out, size, batch,
                                               one_blas_thread):
        bands = T._conv_bands(batch, size, size, c_out, 9 * c_in)
        assert len(bands) >= 3 and all(i0 % 2 == 0 for i0, _ in bands)
        if c_in == 3:
            assert bands[1][0] == 44
        x, w, b = _leaves(81, (batch, c_in, size, size), (c_out, c_in, 3, 3), (c_out,))
        _pooled_conv_matches_the_kept_columns(x, w, b, 82)

    @pytest.mark.parametrize("batch,c_out,size", [(16, 4, 32), (4, 16, 64)],
                             ids=["tiny-32px-b16", "paper-64px-b4"])
    def test_tiny_and_64px_convs_match_conv_then_pool(self, batch, c_out, size,
                                                      one_blas_thread):
        x, w, b = _leaves(83, (batch, 3, size, size), (c_out, 3, 3, 3), (c_out,))
        _pooled_conv_matches_the_kept_columns(x, w, b, 84)

    def test_tied_floored_and_nan_windows_match_conv_then_pool_across_bands(
            self, monkeypatch):
        # a 1 x 1 conv of weight 1 and bias 0 gives back its input (-0.0 as
        # 0.0), in bands of two output rows
        x = RngStream(seed=85).normal(2 * 8 * 8).reshape(2, 1, 8, 8)
        x[0, 0, :2] = 0.0                              # windows tied at the floor
        x[0, 0, 2:4] = 0.5                             # windows tied above it
        x[0, 0, 4:6, ::2] = x[0, 0, 4:6, 1::2] = 0.25  # ties between the columns
        x[0, 0, 6:] = -np.abs(x[0, 0, 6:])             # windows below the floor
        x[1, 0, 0, 0] = x[1, 0, 3, 3] = x[1, 0, 7, 6] = np.nan
        monkeypatch.setattr(T, "CONV_BAND_BYTES", 8 * 8 * 2)
        monkeypatch.setattr(T, "_SMALL_GEMM_MACS", 0)
        assert T._conv_bands(2, 8, 8, 1, 1) == [(0, 2), (2, 4), (4, 6), (6, 8)]
        x, w, b = T.Tensor(x, requires_grad=True), *_leaves(86, (1, 1, 1, 1), (1,))
        w.data[...], b.data[...] = 1.0, 0.0
        pooled = _pooled_conv_matches_the_kept_columns(x, w, b, 87)
        ref, _ = _pool_loop(x.data, np.zeros(pooled.shape))
        assert np.array_equal(pooled.data, ref, equal_nan=True)
        assert np.isnan(pooled.data[1, 0]).sum() == 3 and (pooled.data[0, 0, ::3] == 0).all()

    def test_untracked_conv_builds_no_masks(self, monkeypatch):
        x = RngStream(seed=88).normal(2 * 3 * 8 * 8).reshape(2, 3, 8, 8)
        w, b = _leaves(89, (4, 3, 3, 3), (4,))
        tracked = T.conv2d(T.Tensor(x), w, b)
        calls, pool_into = [], T._pool_into
        monkeypatch.setattr(T, "_pool_into", lambda v, out, masks: calls.append(masks)
                            or pool_into(v, out, masks))
        untracked = T.conv2d(T.Tensor(x), T.Tensor(w.data), T.Tensor(b.data))
        assert calls == [None] and untracked.op_record is None
        assert untracked.data.tobytes() == tracked.data.tobytes()

    def test_record_keeps_input_weights_and_one_routing_array_not_the_conv_map(self):
        x, w, b = _leaves(90, (2, 3, 8, 8), (4, 3, 3, 3), (4,))
        out = T.conv2d(x, w, b)
        held = _closure_arrays(out.op_record.backward)
        assert any(a is x.data for a in held)
        # the conv map would be 4 x 2 x 8 x 8; the largest other array is
        # the 4 x 27 weight matrix
        assert not any(a.size >= 4 * 2 * 8 * 8 for a in held if a is not x.data)
        # one byte per pooled output, not four bool masks
        (route,) = [a for a in held if a.dtype != np.float64]
        assert route.dtype == np.uint8 and route.shape == (4, 2, 4, 4)
        assert set(np.unique(route)) <= {0, 1, 2, 3, T._NO_WINNER}

    def test_max_pool2d_record_keeps_one_routing_array(self):
        x = T.Tensor(RngStream(seed=92).normal(2 * 3 * 4 * 6).reshape(2, 3, 4, 6),
                     requires_grad=True)
        (route,) = _closure_arrays(T.max_pool2d(x).op_record.backward)
        assert route.dtype == np.uint8 and route.shape == (2, 3, 2, 3)

    @pytest.mark.parametrize("hw", [(5, 8), (8, 7), (0, 4)])
    def test_odd_output_extents_rejected(self, hw):
        x, w, b = _leaves(91, (1, 3) + hw, (4, 3, 3, 3), (4,))
        with pytest.raises(ShapeError, match="pool needs even"):
            T.conv2d(x, w, b)


def _whole_width_builds(monkeypatch, x, w, b):
    """How many whole-width im2col column arrays (every kernel offset's
    rows, one column per conv map position) a conv's backward builds for
    its weight gradient."""
    out = T.conv2d(x, w, b)
    g = RngStream(seed=95).normal(out.size).reshape(out.shape)
    shapes, im2col = [], T._im2col

    def spy(view):
        cols = im2col(view)
        shapes.append(cols.shape)
        return cols

    monkeypatch.setattr(T, "_im2col", spy)
    out.op_record.backward(g)
    return shapes.count((w.size // w.shape[0], x.size // x.shape[1]))


# the paper's 224 px CNN convs, at one BLAS thread as the model runs them
_HASWELL_CONVS = """
from test_tensor_ops import _leaves, _pooled_conv_matches_the_kept_columns
T.pin_blas_threads(1)
for batch in (1, 2):
    for c_in, c_out, size in ((3, 16, 224), (16, 32, 112), (32, 64, 56)):
        x, w, b = _leaves(98, (batch, c_in, size, size), (c_out, c_in, 3, 3), (c_out,))
        _pooled_conv_matches_the_kept_columns(x, w, b, 99)
"""


class TestBackwardByKernelRow:
    """A conv's backward takes one kernel row at a time: one product for
    the row's weight gradient (above the small-matrix size) and one for
    its input-gradient columns (where a row's kw*C weight columns are a
    multiple of 4), with the whole-width products' bytes."""

    # the 64 px cnn1 and cnn2 convs of a one-sample task, and the paper's
    # three 224 px CNN convs at batch 1 and 2
    @pytest.mark.parametrize("x_shape,w_shape", [
        ((1, 16, 32, 32), (32, 16, 3, 3)),
        ((1, 32, 16, 16), (64, 32, 3, 3)),
        ((1, 3, 224, 224), (16, 3, 3, 3)),
        ((1, 16, 112, 112), (32, 16, 3, 3)),
        ((1, 32, 56, 56), (64, 32, 3, 3)),
        ((2, 3, 224, 224), (16, 3, 3, 3)),
        ((2, 16, 112, 112), (32, 16, 3, 3)),
        ((2, 32, 56, 56), (64, 32, 3, 3)),
    ], ids=["cnn1-32", "cnn2-16", "cnn0-224-b1", "cnn1-112-b1", "cnn2-56-b1", "cnn0-224-b2",
            "cnn1-112-b2", "cnn2-56-b2"])
    def test_row_products_match_the_kept_columns_bytes(self, x_shape, w_shape,
                                                       one_blas_thread):
        x, w, b = _leaves(93, x_shape, w_shape, w_shape[:1])
        F, C, _, kw = w_shape
        assert F * kw * C * (x.size // C) > T._SMALL_GEMM_MACS  # one row's product
        _pooled_conv_matches_the_kept_columns(x, w, b, 94)

    # the --tiny conv over an inline batch and the first 64 px CNN conv of a
    # one-sample task keep the whole-width product, and with it their bits;
    # every other conv the model runs builds no whole-width columns
    @pytest.mark.parametrize("x_shape,w_shape,whole", [
        ((16, 3, 32, 32), (4, 3, 3, 3), 1),
        ((1, 3, 64, 64), (16, 3, 3, 3), 1),
        ((1, 16, 32, 32), (32, 16, 3, 3), 0),
        ((1, 32, 16, 16), (64, 32, 3, 3), 0),
        ((1, 3, 224, 224), (16, 3, 3, 3), 0),
        ((1, 16, 112, 112), (32, 16, 3, 3), 0),
        ((1, 32, 56, 56), (64, 32, 3, 3), 0),
    ], ids=["tiny-32px-b16", "cnn0-64", "cnn1-32", "cnn2-16", "cnn0-224", "cnn1-112",
            "cnn2-56"])
    def test_only_products_above_the_small_matrix_size_go_by_row(
            self, monkeypatch, x_shape, w_shape, whole):
        x, w, b = _leaves(94, x_shape, w_shape, w_shape[:1])
        assert _whole_width_builds(monkeypatch, x, w, b) == whole

    def test_row_products_match_the_kept_columns_bytes_on_haswell_kernels(self):
        run_on_haswell_kernels(_HASWELL_CONVS)

    # 9.4 MiB: the conv map's gradient, a padded input or its gradient, and
    # one row's 48 x 12544 columns, against 13.8 MiB of whole-width columns
    def test_traced_peak_of_the_second_224px_cnn_conv_backward(self):
        x, w, b = _leaves(96, (1, 16, 112, 112), (32, 16, 3, 3), (32,))
        out = T.conv2d(x, w, b)
        g = RngStream(seed=97).normal(out.size).reshape(out.shape)
        columns = 9 * 16 * 112 * 112 * 8 / 2**20  # 13.8 MiB
        if tracemalloc.is_tracing():
            pytest.skip("tracemalloc already traces this session")
        tracemalloc.start()
        try:
            out.op_record.backward(g)
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert peak <= 9.9 and peak < columns, f"{peak:.1f} MiB"


def _patch_linear_matches_the_kept_columns(batch, size, d):
    """Assert that ``patch_linear`` gives, as tokens, the bytes of
    ``conv2d_keeping_cols`` at stride 16 without padding, forward and
    backward, and that its record keeps the image, not its columns."""
    x, w, b = _leaves(35, (batch, 3, size, size), (d, 3, 16, 16), (d,))
    out = T.patch_linear(x, w, b)
    g = RngStream(seed=36).normal(out.size).reshape(out.shape)
    grid = size // 16
    g_map = g.transpose(0, 2, 1).reshape(batch, d, grid, grid)
    ref, *ref_grads = conv2d_keeping_cols(x.data, w.data, b.data, 16, 0, g_map)
    assert out.data.tobytes() == ref.reshape(batch, d, -1).transpose(0, 2, 1).tobytes()
    for got, want in zip(out.op_record.backward(g), ref_grads):
        assert got.tobytes() == want.tobytes()
    held = _closure_arrays(out.op_record.backward)
    assert any(a is x.data for a in held)
    assert not any(a.shape == (768, batch * grid * grid) for a in held)


# the paper's 224 px patch embedding, at one BLAS thread as the model runs it
_HASWELL_PATCHES = """
from test_tensor_ops import _patch_linear_matches_the_kept_columns
T.pin_blas_threads(1)
for batch in (1, 2):
    _patch_linear_matches_the_kept_columns(batch, 224, 128)
"""


class TestPatchLinear:
    """``patch_linear`` is the conv at stride P without padding, read as
    tokens: a loop over the patches gives its values, and the conv's kept
    columns its bytes."""

    def test_matches_a_loop_over_the_patches(self):
        # a non-square image, so patches taken column by column fail
        rng = RngStream(seed=37)
        B, C, H, W, P, d = 2, 3, 8, 12, 4, 5
        x = rng.derive("x").normal(B * C * H * W).reshape(B, C, H, W)
        w = rng.derive("w").normal(d * C * P * P).reshape(d, C, P, P)
        b = rng.derive("b").normal(d)
        out = T.patch_linear(*(T.Tensor(a, requires_grad=True) for a in (x, w, b)))
        g = rng.derive("g").normal(out.size).reshape(out.shape)
        gx, gw, gb = out.op_record.backward(g)
        ref, ref_gx, ref_gw = np.zeros((B, 6, d)), np.zeros_like(x), np.zeros_like(w)
        for n, (i, j) in enumerate(np.ndindex(H // P, W // P)):
            patch = (Ellipsis, slice(i * P, i * P + P), slice(j * P, j * P + P))
            ref[:, n] = np.einsum("bcuv,fcuv->bf", x[patch], w) + b
            ref_gx[patch] = np.einsum("bf,fcuv->bcuv", g[:, n], w)
            ref_gw += np.einsum("bf,bcuv->fcuv", g[:, n], x[patch])
        for got, want in ((out.data, ref), (gx, ref_gx), (gw, ref_gw), (gb, g.sum(axis=(0, 1)))):
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("batch,size,d", [(1, 224, 128), (2, 224, 128), (16, 32, 8)],
                             ids=["224px-b1", "224px-b2", "tiny-32px-b16"])
    def test_matches_the_kept_columns_bytes(self, batch, size, d, one_blas_thread):
        _patch_linear_matches_the_kept_columns(batch, size, d)

    def test_matches_the_kept_columns_bytes_on_haswell_kernels(self):
        run_on_haswell_kernels(_HASWELL_PATCHES)

    @pytest.mark.parametrize("hw", [(30, 32), (32, 40), (8, 16)])
    def test_extents_not_a_multiple_of_the_patch_size_raise(self, hw):
        with pytest.raises(ShapeError, match="multiples of P"):
            T.patch_linear(T.Tensor(np.ones((1, 3) + hw)), *_leaves(38, (4, 3, 16, 16), (4,)))


def _held_bytes_by_op(records, skip):
    """Bytes of the distinct ndarray buffers that the records' closures
    hold, per op name.  Views count as their base buffer; a buffer held by
    several records counts once, for the first; buffers whose ids are in
    ``skip`` do not count."""
    totals, seen = {}, set(skip)
    for record in records:
        for a in _closure_arrays(record.backward):
            while isinstance(a.base, np.ndarray):
                a = a.base
            if id(a) not in seen:
                seen.add(id(a))
                totals[record.name] = totals.get(record.name, 0) + a.nbytes
    return totals


class TestHeldArrays:
    def test_records_of_a_64px_shard_hold_no_conv_columns_and_a_bounded_total(
            self, monkeypatch):
        cfg = ModelConfig(image_size=64)
        samples = data.synth_dataset(1, 64, RngStream(seed=3))[:2]
        stats = data.compute_stats(samples)
        params = init_params(cfg, RngStream(seed=5))
        B = len(samples)  # a forward takes the images, or their rotated copies
        # the K x N im2col columns of the patch embedding (as many entries
        # as the image) and of every CNN conv
        g = cfg.image_size // cfg.patch_size
        cols_shapes = {(3 * cfg.patch_size ** 2, B * g * g)}
        for j, c_in in enumerate((3,) + cfg.cnn_channels[:-1]):
            cols_shapes.add((9 * c_in, B * (cfg.image_size >> j) ** 2))
        walks, real_backward = [], T.backward

        def count_then_backward(loss):
            records = _reachable_records(loss)
            # the CNN's ReLU is max_pool2d's floor, not a record of its own
            assert "relu" not in {record.name for record in records}
            for record in records:
                if record.name in ("conv2d", "patch_linear"):
                    shapes = {a.shape for a in _closure_arrays(record.backward)}
                    assert not shapes & cols_shapes, f"a {record.name} record holds columns"
            # the parameters live on without the graph, so they do not count
            walks.append(_held_bytes_by_op(records, {id(p.data) for p in params.values()}))
            real_backward(loss)

        monkeypatch.setattr(T, "backward", count_then_backward)
        tr._shard_step(params, cfg, samples, 2, stats, data.train_policy(64),
                       RngStream(seed=5), 0)
        held = max(walks, key=lambda h: sum(h.values()))  # the larger walk
        assert "conv2d" in held
        # 3.06 MiB: conv2d 0.80 (inputs, weight matrices and pool routing),
        # linear 0.69, attention 0.67, gelu_linear 0.50, layer_norm 0.25;
        # 3.81 MiB when the patch embedding's record kept its 0.75 MiB
        # weight matrix, 4.48 MiB when the MLP's second linear map also kept
        # its GELU output and each pool four bool masks, 7.65 MiB when one
        # walk took the images and their copies
        total = sum(held.values()) / 2**20
        top = ", ".join(f"{name} {n / 2**20:.2f}" for name, n in
                        sorted(held.items(), key=lambda kv: -kv[1])[:3])
        assert total <= 3.4, f"records hold {total:.2f} MiB; most: {top} MiB"
