"""Finite-difference verification of the autodiff engine.

Central differences with step ``STEP`` give an independent estimate of each
partial derivative; ``max_relative_error`` then compares the analytic
gradient against that estimate elementwise, falling back to absolute
error where the true gradient is tiny.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import tensor as T
from .rng import RngStream

# the central-difference step, and the magnitude below which two gradient
# values are compared by absolute rather than relative difference
STEP = 1e-5
ABSOLUTE_FLOOR = 1e-6


def _probe(fn: Callable[[], T.Tensor], param: T.Tensor, flat_index: int,
           h: float) -> tuple[float, float]:
    """Loss at ``param[flat_index] +- h``, restoring the original value."""
    flat = param.data.reshape(-1)
    keep = flat[flat_index]
    flat[flat_index] = keep + h
    up = fn().item()
    flat[flat_index] = keep - h
    down = fn().item()
    flat[flat_index] = keep
    return up, down


def finite_difference_gradient(fn: Callable[[], T.Tensor], param: T.Tensor) -> np.ndarray:
    """Estimate d fn / d param by central differences at every coordinate.

    ``fn`` must rebuild the scalar loss from current parameter values on
    every call.
    """
    grad = np.zeros(param.data.size)
    for i in range(param.data.size):
        up, down = _probe(fn, param, i, STEP)
        grad[i] = (up - down) / (2.0 * STEP)
    return grad.reshape(param.data.shape)


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Worst-case elementwise discrepancy between two gradient estimates.

    Elements where both values sit below ``ABSOLUTE_FLOOR`` are compared by
    absolute difference; everywhere else the difference is scaled by the
    larger magnitude.
    """
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    diff = np.abs(analytic - numeric)
    scale = np.maximum(np.abs(analytic), np.abs(numeric))
    small = scale < ABSOLUTE_FLOOR
    rel = np.where(small, diff, diff / np.where(small, 1.0, scale))
    return float(rel.max()) if rel.size else 0.0


# One-sided slopes computed from the same probe evaluations must agree for
# the central difference to be a derivative estimate at all; this is the
# acceptance gate (relative to the larger slope).
_KINK_GAP = 1e-4


def _sample_coordinates(fn: Callable[[], T.Tensor], param: T.Tensor,
                        base: float, count: int, rng: RngStream) -> dict[int, float]:
    """Central-difference estimates at ``count`` trustworthy coordinates.

    Central differences only estimate a derivative where the loss is smooth
    across ``[x-h, x+h]``; straddling a max-pool kink silently reports
    the average of two different slopes.  A straddle is visible without
    consulting the analytic gradient: the forward and backward one-sided
    slopes, computed from the same two evaluations plus the unperturbed
    loss, disagree.  Flagged coordinates are re-probed with a smaller step
    (valid when the kink lies further than the shrunken step) and, failing
    that, replaced by a fresh draw, so a wrong backward pass is still
    caught at the smooth coordinates that remain.
    """
    chosen: dict[int, float] = {}
    attempts = 0
    while len(chosen) < count and attempts < 8 * count:
        attempts += 1
        i = rng.randint(param.data.size)
        if i in chosen:
            continue
        for step in (STEP, STEP / 10.0):
            up, down = _probe(fn, param, i, step)
            fwd = (up - base) / step
            bwd = (base - down) / step
            scale = max(abs(fwd), abs(bwd), 1e-6)
            if abs(fwd - bwd) <= _KINK_GAP * scale:
                chosen[i] = (up - down) / (2.0 * step)
                break
    if not chosen:
        # every draw straddled a kink (pathological surface): keep one
        # unfiltered probe rather than skipping the parameter silently
        i = rng.randint(param.data.size)
        up, down = _probe(fn, param, i, STEP)
        chosen[i] = (up - down) / (2.0 * STEP)
    return chosen


def check_gradients(build: Callable[[list[T.Tensor]], T.Tensor],
                    params: list[T.Tensor],
                    sample_per_param: int | None = None,
                    rng: RngStream | None = None) -> float:
    """Run one backward pass and compare every parameter's gradient against
    finite differences; returns the worst relative error seen.

    ``build`` maps the parameter list to a scalar loss tensor.  With
    ``sample_per_param`` set, at most that many coordinates per parameter
    are probed (chosen by ``rng``), exercising the same backward pass while
    bounding the 2-evaluations-per-coordinate cost; coordinates where the
    finite-difference interval straddles a kink are replaced (see
    ``_sample_coordinates``).
    """
    for p in params:
        p.zero_grad()
    loss = build(params)
    T.backward(loss)
    base = loss.item()

    worst = 0.0
    for p in params:
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        if sample_per_param is not None and p.data.size > sample_per_param:
            if rng is None:
                raise ValueError("sampled gradient check needs an rng")
            flat_analytic = analytic.reshape(-1)
            samples = _sample_coordinates(lambda: build(params), p, base,
                                          sample_per_param, rng)
            for i, numeric in samples.items():
                worst = max(worst, max_relative_error(flat_analytic[i], numeric))
        else:
            numeric = finite_difference_gradient(lambda: build(params), p)
            worst = max(worst, max_relative_error(analytic, numeric))
    return worst


def op_battery(seed: int) -> list[tuple[str, Callable[[list[T.Tensor]], T.Tensor],
                                        list[T.Tensor]]]:
    """One seeded instance of every differentiable op, as (name, build,
    params): ``build`` weights the op's output by fixed random numbers and
    sums it, so each entry records its op plus ``mul`` and ``sum``."""
    rng = RngStream(seed=seed)

    def randn(*shape, key):
        return rng.derive(key).normal(int(np.prod(shape))).reshape(shape)

    def t(*shape, key):
        return T.Tensor(randn(*shape, key=key), requires_grad=True)

    def w(*shape, key):
        return T.Tensor(randn(*shape, key=key))

    a, b = t(3, 4, key="add-a"), t(3, 4, key="add-b")
    c, d = t(2, 5, key="mul-a"), t(2, 5, key="mul-b")
    m1, m2 = t(3, 4, key="mm-a"), t(4, 2, key="mm-b")
    bm1, bm2 = t(2, 3, 4, key="bmm-a"), t(2, 4, 2, key="bmm-b")
    lx3, lw, lbias = t(2, 3, 4, key="lin-x"), t(4, 5, key="lin-w"), t(5, key="lin-b")
    aq, ak, av = t(2, 3, 4, key="att-q"), t(2, 5, 4, key="att-k"), t(2, 5, 4, key="att-v")
    sx = t(3, 6, key="softmax")
    mask = np.ones((3, 6), dtype=bool)
    mask[0, 3:] = False
    mask[1, :2] = False
    lx, lg, lb = t(4, 5, key="ln-x"), t(5, key="ln-g"), t(5, key="ln-b")
    gx = t(3, 7, key="gelu")
    glx, glw, glb = t(2, 3, 4, key="gl-x"), t(4, 5, key="gl-w"), t(5, key="gl-b")
    kx = t(2, 6, key="leaky")
    cx, cw, cb = t(1, 2, 6, 6, key="conv-x"), t(3, 2, 3, 3, key="conv-w"), t(3, key="conv-b")
    px = T.Tensor(3.0 * randn(1, 2, 4, 4, key="pool"), requires_grad=True)
    tx = t(2, 3, 4, key="struct")
    ca, cc = t(2, 3, key="cat-a"), t(2, 4, key="cat-b")
    dx = t(4, 6, key="drop")
    drop_rng = rng.derive("drop-stream")

    return [
        ("add", lambda ps: T.tsum((a + b) * w(3, 4, key="add-w")), [a, b]),
        ("mul", lambda ps: T.tsum((c * d) * w(2, 5, key="mul-w")), [c, d]),
        ("matmul", lambda ps: T.tsum(T.matmul(m1, m2) * w(3, 2, key="mm-w")), [m1, m2]),
        ("batch_matmul", lambda ps: T.tsum(T.matmul(bm1, bm2) * w(2, 3, 2, key="bmm-w")),
         [bm1, bm2]),
        ("linear", lambda ps: T.tsum(T.linear(lx3, lw, lbias) * w(2, 3, 5, key="lin-o")),
         [lx3, lw, lbias]),
        ("attention", lambda ps: T.tsum(T.attention(aq, ak, av, 2) * w(2, 3, 4, key="att-o")),
         [aq, ak, av]),
        ("softmax", lambda ps: T.tsum(T.softmax(sx) * w(3, 6, key="sm-w")), [sx]),
        ("masked_softmax",
         lambda ps: T.tsum(T.softmax(sx, mask=mask) * w(3, 6, key="msm-w")), [sx]),
        ("layer_norm",
         lambda ps: T.tsum(T.layer_norm(lx, lg, lb) * w(4, 5, key="ln-w")),
         [lx, lg, lb]),
        ("gelu", lambda ps: T.tsum(T.gelu(gx) * w(3, 7, key="g-w")), [gx]),
        ("gelu_linear",
         lambda ps: T.tsum(T.gelu_linear(glx, glw, glb) * w(2, 3, 5, key="gl-o")),
         [glx, glw, glb]),
        ("leaky_relu",
         lambda ps: T.tsum(T.leaky_relu(kx) * w(2, 6, key="k-w")), [kx]),
        ("dropout",
         lambda ps: T.tsum(T.dropout(dx, 0.4, [drop_rng.derive(i) for i in range(4)])
                           * w(4, 6, key="d-w")), [dx]),
        ("conv2d",
         lambda ps: T.tsum(T.conv2d(cx, cw, cb, stride=1, padding=1)
                           * w(1, 3, 6, 6, key="c-w")), [cx, cw, cb]),
        ("conv2d_pool",
         lambda ps: T.tsum(T.conv2d(cx, cw, cb, stride=1, padding=1, pool=True)
                           * w(1, 3, 3, 3, key="cp-w")), [cx, cw, cb]),
        ("max_pool2d",
         lambda ps: T.tsum(T.max_pool2d(px) * w(1, 2, 2, 2, key="p-w")), [px]),
        ("structure",
         lambda ps: T.tsum(T.take_rows(T.reshape(T.transpose(tx, (1, 0, 2)), (3, 8)), 0, 2)
                           * w(2, 8, key="s-w")), [tx]),
        ("concat",
         lambda ps: T.tsum(T.concat([ca, cc], axis=1) * w(2, 7, key="cat-w")), [ca, cc]),
        ("mean", lambda ps: T.tsum(T.tmean(tx * tx) * w(2, 4, key="mean-w")), [tx]),
    ]
