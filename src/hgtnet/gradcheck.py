"""Finite-difference verification of the autodiff engine.

Central differences with step h give an independent estimate of each
partial derivative; ``max_relative_error`` then compares the analytic
gradient against that estimate elementwise, falling back to absolute
error where the true gradient is tiny.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from . import tensor as T
from .rng import RngStream


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


def finite_difference_gradient(fn: Callable[[], T.Tensor], param: T.Tensor,
                               h: float = 1e-5,
                               indices: Sequence[tuple] | None = None) -> np.ndarray:
    """Estimate d fn / d param by central differences.

    ``fn`` must rebuild the scalar loss from current parameter values on
    every call.  When ``indices`` is given only those coordinates are
    probed (others return 0), which keeps whole-model checks affordable.
    """
    grad = np.zeros(param.data.size)
    if indices is None:
        probe = range(param.data.size)
    else:
        probe = [int(np.ravel_multi_index(ix, param.data.shape)) for ix in indices]
    for i in probe:
        up, down = _probe(fn, param, i, h)
        grad[i] = (up - down) / (2.0 * h)
    return grad.reshape(param.data.shape)


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray,
                       absolute_floor: float = 1e-6) -> float:
    """Worst-case elementwise discrepancy between two gradient estimates.

    Elements where both values sit below ``absolute_floor`` are compared by
    absolute difference; everywhere else the difference is scaled by the
    larger magnitude.
    """
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    diff = np.abs(analytic - numeric)
    scale = np.maximum(np.abs(analytic), np.abs(numeric))
    small = scale < absolute_floor
    rel = np.where(small, diff, diff / np.where(small, 1.0, scale))
    return float(rel.max()) if rel.size else 0.0


# One-sided slopes computed from the same probe evaluations must agree for
# the central difference to be a derivative estimate at all; this is the
# acceptance gate (relative to the larger slope).
_KINK_GAP = 1e-4


def _sample_coordinates(fn: Callable[[], T.Tensor], param: T.Tensor,
                        base: float, h: float, count: int,
                        rng: RngStream) -> dict[int, float]:
    """Central-difference estimates at ``count`` trustworthy coordinates.

    Central differences only estimate a derivative where the loss is smooth
    across ``[x-h, x+h]``; straddling a relu/max-pool kink silently reports
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
        for step in (h, h / 10.0):
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
        up, down = _probe(fn, param, i, h)
        chosen[i] = (up - down) / (2.0 * h)
    return chosen


def check_gradients(build: Callable[[list[T.Tensor]], T.Tensor],
                    params: list[T.Tensor],
                    h: float = 1e-5,
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
            samples = _sample_coordinates(lambda: build(params), p, base, h,
                                          sample_per_param, rng)
            for i, numeric in samples.items():
                worst = max(worst, max_relative_error(flat_analytic[i], numeric))
        else:
            numeric = finite_difference_gradient(lambda: build(params), p, h=h)
            worst = max(worst, max_relative_error(analytic, numeric))
    return worst
