"""Gradient correctness: every differentiable op against central differences.

The finite-difference probe is the independent oracle here — each case
builds a scalar loss through the op under test and compares the analytic
gradient of every input with the numeric estimate.
"""

import numpy as np
import pytest

from hgtnet import tensor as T
from hgtnet.gradcheck import check_gradients, finite_difference_gradient, max_relative_error
from hgtnet.rng import RngStream

TOL = 1e-4


def _params(*shapes, seed=0, scale=1.0):
    rng = RngStream(seed=seed)
    out = []
    for i, shape in enumerate(shapes):
        n = int(np.prod(shape))
        t = T.Tensor(rng.derive("p", i).normal(n).reshape(shape) * scale, requires_grad=True)
        out.append(t)
    return out


def _assert_grads(build, params, tol=TOL):
    err = check_gradients(build, params)
    assert err < tol, f"worst relative gradient error {err:.3e} >= {tol}"


class TestElementwiseGrads:
    def test_add(self):
        a, b = _params((3, 4), (3, 4), seed=1)
        _assert_grads(lambda ps: T.tsum(T.add(ps[0], ps[1]) * T.add(ps[0], ps[1])), [a, b])

    def test_add_broadcast(self):
        a, b = _params((2, 5), (5,), seed=2)
        _assert_grads(lambda ps: T.tsum(T.add(ps[0], ps[1]) * 1.5), [a, b])

    def test_mul(self):
        a, b = _params((4, 3), (4, 3), seed=3)
        _assert_grads(lambda ps: T.tsum(T.mul(ps[0], ps[1])), [a, b])

    def test_mul_broadcast_scalar_tensor(self):
        a, b = _params((3, 3), (1,), seed=4)
        _assert_grads(lambda ps: T.tsum(T.mul(ps[0], ps[1]) * T.mul(ps[0], ps[1])), [a, b])


class TestMatmulGrads:
    def test_plain(self):
        a, b = _params((3, 4), (4, 2), seed=5)
        _assert_grads(lambda ps: T.tsum(T.matmul(ps[0], ps[1])), [a, b])

    def test_batched(self):
        a, b = _params((2, 3, 4), (2, 4, 5), seed=6)
        _assert_grads(lambda ps: T.tsum(T.matmul(ps[0], ps[1]) * T.matmul(ps[0], ps[1])), [a, b])

    def test_broadcast_weight(self):
        a, b = _params((2, 3, 4), (4, 5), seed=7)
        _assert_grads(lambda ps: T.tsum(T.matmul(ps[0], ps[1])), [a, b])


class TestStructuralGrads:
    def test_reshape(self):
        (a,) = _params((2, 6), seed=8)
        _assert_grads(lambda ps: T.tsum(T.reshape(ps[0], (3, 4)) * T.Tensor(np.arange(12.0).reshape(3, 4))), [a])

    def test_transpose(self):
        (a,) = _params((2, 3, 4), seed=9)
        w = T.Tensor(np.arange(24.0).reshape(4, 2, 3))
        _assert_grads(lambda ps: T.tsum(T.transpose(ps[0], (2, 0, 1)) * w), [a])

    def test_concat(self):
        a, b = _params((2, 3), (2, 2), seed=10)
        w = T.Tensor(np.arange(10.0).reshape(2, 5))
        _assert_grads(lambda ps: T.tsum(T.concat([ps[0], ps[1]], axis=1) * w), [a, b])

    def test_take_rows(self):
        (a,) = _params((5, 3), seed=11)
        _assert_grads(lambda ps: T.tsum(T.take_rows(ps[0], 1, 4) * T.take_rows(ps[0], 1, 4)), [a])

    def test_mean_axis(self):
        (a,) = _params((3, 4), seed=13)
        w = T.Tensor(np.arange(3.0))
        _assert_grads(lambda ps: T.tsum(T.tmean(ps[0]) * w), [a])


class TestNnOpGrads:
    def test_softmax(self):
        (a,) = _params((4, 6), seed=14)
        w = T.Tensor(RngStream(seed=100).normal(24).reshape(4, 6))
        _assert_grads(lambda ps: T.tsum(T.softmax(ps[0]) * w), [a])

    def test_softmax_masked(self):
        (a,) = _params((3, 5), seed=15)
        mask = RngStream(seed=101).uniform(15).reshape(3, 5) > 0.3
        mask[:, 0] = True  # every row keeps at least one entry
        w = T.Tensor(RngStream(seed=102).normal(15).reshape(3, 5))
        _assert_grads(lambda ps: T.tsum(T.softmax(ps[0], mask=mask) * w), [a])

    def test_layer_norm(self):
        x, g, b = _params((4, 7), (7,), (7,), seed=16)
        w = T.Tensor(RngStream(seed=103).normal(28).reshape(4, 7))
        _assert_grads(lambda ps: T.tsum(T.layer_norm(ps[0], ps[1], ps[2]) * w), [x, g, b])

    def test_gelu(self):
        (a,) = _params((4, 4), seed=18)
        _assert_grads(lambda ps: T.tsum(T.gelu(ps[0]) * T.gelu(ps[0])), [a])

    def test_leaky_relu(self):
        (a,) = _params((5, 5), seed=19)
        a.data[np.abs(a.data) < 0.05] += 0.1
        _assert_grads(lambda ps: T.tsum(T.leaky_relu(ps[0])), [a])

    def test_dropout_fixed_mask(self):
        (a,) = _params((6, 6), seed=20)

        def build(ps):
            # same derived streams every call -> identical mask, valid probe
            rngs = [RngStream(seed=55).derive(i) for i in range(6)]
            return T.tsum(T.dropout(ps[0], 0.4, rngs) * 2.0)

        _assert_grads(build, [a])


class TestConvPoolGrads:
    def test_conv2d_basic(self):
        x, w, b = _params((2, 2, 5, 5), (3, 2, 3, 3), (3,), seed=21, scale=0.5)
        _assert_grads(lambda ps: T.tsum(T.conv2d(ps[0], ps[1], ps[2]) * T.conv2d(ps[0], ps[1], ps[2])), [x, w, b])

    def test_conv2d_stride_padding(self):
        x, w, b = _params((1, 3, 7, 7), (2, 3, 3, 3), (2,), seed=22, scale=0.5)
        _assert_grads(lambda ps: T.tsum(T.conv2d(ps[0], ps[1], ps[2], stride=2, padding=1)), [x, w, b])

    def test_conv2d_through_three_bands(self, monkeypatch):
        # 4 output rows a band over a 12 x 10 output: bands of rows 0-4, 4-8, 8-12
        monkeypatch.setattr(T, "CONV_BAND_BYTES", 8 * 18 * 10 * 4)
        monkeypatch.setattr(T, "_SMALL_GEMM_MACS", 0)
        assert T._conv_bands(1, 12, 10, 3, 18) == [(0, 4), (4, 8), (8, 12)]
        x, w, b = _params((1, 2, 12, 10), (3, 2, 3, 3), (3,), seed=24, scale=0.5)
        _assert_grads(lambda ps: T.tsum(T.conv2d(ps[0], ps[1], ps[2], padding=1)
                                        * T.conv2d(ps[0], ps[1], ps[2], padding=1)), [x, w, b])

    @pytest.mark.parametrize("size,stride,out", [(8, 1, 8), (9, 2, 5)], ids=["pad1", "stride2"])
    def test_conv2d_backward_by_kernel_row(self, monkeypatch, size, stride, out):
        # every product takes the per-row path, as a 224 px CNN conv's does:
        # no small-matrix floor, and 4 channels, so a row's 12 columns of the
        # weight matrix fill whole 4-row tiles
        monkeypatch.setattr(T, "_SMALL_GEMM_MACS", 0)
        calls, by_row = [], T._conv_weight_grad
        monkeypatch.setattr(T, "_conv_weight_grad",
                            lambda g2, view: calls.append(view.shape) or by_row(g2, view))
        x, w, b = _params((2, 4, size, size), (3, 4, 3, 3), (3,), seed=25, scale=0.5)
        weight = _params((2, 3, out, out), seed=26)[0].data
        _assert_grads(lambda ps: T.tsum(T.conv2d(ps[0], ps[1], ps[2], stride=stride, padding=1)
                                        * weight), [x, w, b])
        assert calls == [(4, 2, out, out, 3, 3)]

    def test_max_pool(self):
        (x,) = _params((2, 2, 6, 6), seed=23)
        # well-separated values so the argmax never flips under the probe
        x.data = np.argsort(np.argsort(x.data.reshape(-1))).astype(float).reshape(x.shape)
        w = T.Tensor(RngStream(seed=104).normal(2 * 2 * 3 * 3).reshape(2, 2, 3, 3))
        _assert_grads(lambda ps: T.tsum(T.max_pool2d(ps[0]) * w), [x])

    def test_max_pool_floor_away_from_kink(self):
        (x,) = _params((2, 2, 6, 6), seed=17)
        # ranks shifted to half-integers: well separated and none at the 0
        # floor; one channel lies wholly below it
        ranks = np.argsort(np.argsort(x.data.reshape(-1))).astype(float)
        x.data = (ranks - 71.5).reshape(x.shape)
        x.data[0, 0] -= 144.0
        w = T.Tensor(RngStream(seed=105).normal(2 * 2 * 3 * 3).reshape(2, 2, 3, 3))
        _assert_grads(lambda ps: T.tsum(T.max_pool2d(ps[0]) * w), [x])

    def test_max_pool_tie_routes_to_first(self):
        x = T.Tensor(np.ones((1, 1, 2, 2)), requires_grad=True)
        out = T.max_pool2d(x)
        T.backward(T.tsum(out))
        expected = np.zeros((1, 1, 2, 2))
        expected[0, 0, 0, 0] = 1.0  # first cell in row-major window order
        assert np.array_equal(x.grad, expected)


class TestGraphMechanics:
    def test_diamond_graph_accumulates(self):
        # loss = sum((x*2) * (x*3)) = 6*sum(x^2); grad = 12x
        (x,) = _params((3,), seed=24)
        left = x * 2.0
        right = x * 3.0
        T.backward(T.tsum(left * right))
        assert np.allclose(x.grad, 12.0 * x.data, atol=1e-12)

    def test_two_walks_into_the_same_leaves_sum_their_gradients(self):
        # a training step back-propagates its views, then their rotated
        # copies, into the same parameter leaves
        w, b = _params((4, 3), (3,), seed=26)
        x1, x2 = (T.Tensor(a.data) for a in _params((5, 4), (5, 4), seed=27))

        def walk(x, leaves):
            T.backward(T.tsum(T.gelu(T.linear(x, *leaves))))

        alone = []
        for x in (x1, x2):
            leaves = [T.Tensor(p.data, requires_grad=True) for p in (w, b)]
            walk(x, leaves)
            alone.append([p.grad for p in leaves])
        walk(x1, (w, b))
        walk(x2, (w, b))
        for p, c1, c2 in zip((w, b), *alone):
            assert p.grad.tobytes() == (c1 + c2).tobytes()

    def test_a_leaf_reached_twice_adds_each_gradient_in_turn(self):
        # the grad of sum(x * x) reaches x twice, as x and x; each is added
        # into the existing grad as the closure returns it
        x, old = _params((64,), (64,), seed=28)
        x.grad = old.data.copy()
        T.backward(T.tsum(x * x))
        expected = (old.data + x.data) + x.data
        assert (expected != old.data + (x.data + x.data)).any()  # the order shows
        assert x.grad.tobytes() == expected.tobytes()

    def test_deep_chain_no_recursion_blowup(self):
        x = T.Tensor(np.array([1.0]), requires_grad=True)
        y = x
        for _ in range(3000):
            y = y + 0.001
        T.backward(T.tsum(y))
        assert np.allclose(x.grad, [1.0])

    def test_finite_difference_probe_itself(self):
        # sanity: probe recovers the derivative of a pure quadratic exactly
        p = T.Tensor(np.array([2.0, -1.0]), requires_grad=True)
        fd = finite_difference_gradient(lambda: T.tsum(p * p), p)
        assert np.allclose(fd, 2.0 * p.data, atol=1e-9)

    def test_relative_error_metric(self):
        assert max_relative_error(np.array([1.0]), np.array([1.0])) == 0.0
        assert max_relative_error(np.array([1e-9]), np.array([0.0])) < 1e-6  # absolute floor
        assert max_relative_error(np.array([2.0]), np.array([1.0])) == pytest.approx(0.5)
