"""Dense float64 tensors with reverse-mode automatic differentiation.

Every operation below builds the value eagerly with numpy and, when any
input participates in gradient tracking, attaches an ``OpRecord`` holding
the parent tensors and a closure that maps the output gradient to parent
gradients (``None`` for a parent that is not tracked).  ``backward`` walks
the records in reverse topological order and accumulates into the
``Tensor.grad`` of the leaves only; interior gradients are dropped as soon
as their parents have them.  Grads share the value's shape.

The op set is intentionally small: exactly what the model needs, with
numpy-style broadcasting supported for add/mul and matmul batch dims.
"""

from __future__ import annotations

import ctypes
import sys
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, ContractError, ShapeError
from .rng import RngStream


# glibc mallopt parameters; the values are C ints, so keep them below 2**31
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_HEAP_RETAIN_BYTES = 1 << 30


def keep_freed_memory(libc=None) -> bool:
    """Have glibc serve arrays of up to 1 GB from the heap and keep freed
    heap memory in the process.

    By default glibc gives every block above 32 MB its own ``mmap`` and
    unmaps it on free, so each 224 px training step has the kernel fault in
    and zero the same pages again.  With both thresholds raised, freed
    blocks are reused by the next step and resident memory stays near its
    peak.  The settings are process-wide and idempotent.  Returns whether
    both took effect; off Linux, or when ``libc`` (default: the C library
    of this process) has no ``mallopt``, it does nothing and returns False.
    """
    if libc is None:
        if not sys.platform.startswith("linux"):
            return False
        try:
            libc = ctypes.CDLL(None)
        except OSError:
            return False
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is None:
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mmap_ok = mallopt(_M_MMAP_THRESHOLD, _HEAP_RETAIN_BYTES)
    trim_ok = mallopt(_M_TRIM_THRESHOLD, _HEAP_RETAIN_BYTES)
    return bool(mmap_ok and trim_ok)


class OpRecord:
    """Provenance of a derived tensor: parents and the gradient closure."""

    __slots__ = ("name", "parents", "backward")

    def __init__(self, name: str, parents: tuple["Tensor", ...],
                 backward: Callable[[np.ndarray], tuple]):
        self.name = name
        self.parents = parents
        self.backward = backward


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "op_record")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.op_record: OpRecord | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # Operator sugar used throughout the model code.
    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _needs_grad(t: Tensor) -> bool:
    return t.requires_grad or t.op_record is not None


def _tracked(parents: Sequence[Tensor]) -> bool:
    return any(_needs_grad(p) for p in parents)


def _make(data: np.ndarray, name: str, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor(data)
    if _tracked(parents):
        out.requires_grad = True
        out.op_record = OpRecord(name, parents, backward)
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the parent's shape."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise / structural ops
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data + b.data

    def backward(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _make(data, "add", (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data * b.data

    def backward(g):
        ga = _unbroadcast(g * b.data, a.shape) if _needs_grad(a) else None
        gb = _unbroadcast(g * a.data, b.shape) if _needs_grad(b) else None
        return ga, gb

    return _make(data, "mul", (a, b), backward)


def matmul(a, b) -> Tensor:
    """Matrix product with numpy batch semantics on the leading dims."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs rank >= 2 operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner extents differ: {a.shape} @ {b.shape}")
    data = a.data @ b.data

    def backward(g):
        ga = g @ np.swapaxes(b.data, -1, -2)
        gb = np.swapaxes(a.data, -1, -2) @ g
        return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)

    return _make(data, "matmul", (a, b), backward)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    x = _as_tensor(x)
    data = x.data.reshape(shape)

    def backward(g):
        return (g.reshape(x.shape),)

    return _make(data, "reshape", (x,), backward)


def transpose(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    x = _as_tensor(x)
    data = np.ascontiguousarray(x.data.transpose(axes))
    inverse = np.argsort(axes)

    def backward(g):
        return (g.transpose(inverse),)

    return _make(data, "transpose", (x,), backward)


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    ts = [_as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.shape[axis] for t in ts]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        return tuple(np.ascontiguousarray(p) for p in np.split(g, splits, axis=axis))

    return _make(data, "concat", tuple(ts), backward)


def take_rows(x: Tensor, start: int, stop: int) -> Tensor:
    """Contiguous slice along axis 0; gradient scatters back with zero fill."""
    x = _as_tensor(x)
    data = x.data[start:stop].copy()

    def backward(g):
        gx = np.zeros_like(x.data)
        gx[start:stop] = g
        return (gx,)

    return _make(data, "take_rows", (x,), backward)


def tsum(x: Tensor, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> Tensor:
    x = _as_tensor(x)
    data = x.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is None:
            return (np.broadcast_to(g, x.shape).copy(),)
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, x.shape).copy(),)

    return _make(data, "sum", (x,), backward)


def tmean(x: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    x = _as_tensor(x)
    count = x.size if axis is None else x.shape[axis]
    data = x.data.mean(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is None:
            return (np.broadcast_to(g / count, x.shape).copy(),)
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g / count, x.shape).copy(),)

    return _make(data, "mean", (x,), backward)


# ---------------------------------------------------------------------------
# neural-net ops
# ---------------------------------------------------------------------------

def softmax(x: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Stable softmax over the last axis.

    ``mask`` (broadcastable bool array) restricts normalization to True
    entries; masked positions get weight exactly 0.  Each unmasked row must
    contain at least one True entry.
    """
    x = _as_tensor(x)
    if mask is None:
        e = x.data - x.data.max(axis=-1, keepdims=True)
        np.exp(e, out=e)
    else:
        mask = np.broadcast_to(np.asarray(mask, dtype=bool), x.shape)
        m = np.where(mask, x.data, -np.inf).max(axis=-1, keepdims=True)
        # clamp masked entries before exp so no overflow leaks through
        e = np.where(mask, np.exp(np.where(mask, x.data, m) - m), 0.0)
    e /= e.sum(axis=-1, keepdims=True)
    y = e

    def backward(g):
        gx = g - (g * y).sum(axis=-1, keepdims=True)
        gx *= y
        return (gx,)

    return _make(y, "softmax", (x,), backward)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize each slice along the last axis to zero mean / unit variance
    (population variance), then apply the learned affine."""
    if eps <= 0:
        raise ConfigError(f"layer_norm eps must be positive, got {eps}")
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    d = x.shape[-1]
    mean = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mean) * inv
    data = gamma.data * xhat + beta.data

    def backward(g):
        reduce_axes = tuple(range(g.ndim - 1))
        gbeta = g.sum(axis=reduce_axes) if reduce_axes else g.copy()
        ggamma = (g * xhat).sum(axis=reduce_axes) if reduce_axes else g * xhat
        gxhat = g * gamma.data
        gx = inv * (gxhat
                    - gxhat.mean(axis=-1, keepdims=True)
                    - xhat * (gxhat * xhat).sum(axis=-1, keepdims=True) / d)
        return gx, ggamma.reshape(gamma.shape), gbeta.reshape(beta.shape)

    return _make(data, "layer_norm", (x, gamma, beta), backward)


_GELU_C = np.sqrt(2.0 / np.pi)
_GELU_A = 0.044715


def activation(x: Tensor, kind: str, slope: float = 0.01) -> Tensor:
    """Elementwise nonlinearity: relu, gelu (tanh form), or leaky_relu(slope)."""
    x = _as_tensor(x)
    v = x.data
    if kind == "relu":
        data = np.maximum(v, 0.0)

        def backward(g):
            return (g * (v > 0.0),)
    elif kind == "gelu":
        # products, not ``**``: numpy routes v**3 through the slow libm pow
        t = np.tanh(_GELU_C * (v + _GELU_A * (v * v * v)))
        data = 0.5 * v * (1.0 + t)

        def backward(g):
            du = _GELU_C * (1.0 + 3.0 * _GELU_A * (v * v))
            return (g * (0.5 * (1.0 + t) + 0.5 * v * (1.0 - t * t) * du),)
    elif kind == "leaky_relu":
        data = np.where(v > 0.0, v, slope * v)

        def backward(g):
            return (g * np.where(v > 0.0, 1.0, slope),)
    else:
        raise ConfigError(f"unknown activation kind {kind!r}")
    return _make(data, kind, (x,), backward)


def relu(x: Tensor) -> Tensor:
    return activation(x, "relu")


def gelu(x: Tensor) -> Tensor:
    return activation(x, "gelu")


def leaky_relu(x: Tensor, slope: float) -> Tensor:
    return activation(x, "leaky_relu", slope=slope)


def dropout(x: Tensor, p: float, training: bool, rng: RngStream) -> Tensor:
    """Inverted dropout: zero with probability p, scale survivors by 1/(1-p).

    Eval mode (or p == 0) is exactly the identity.
    """
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {p}")
    x = _as_tensor(x)
    if not training or p == 0.0:
        return x
    mask = rng.keep_mask(x.size, p).reshape(x.shape) / (1.0 - p)
    data = x.data * mask

    def backward(g):
        return (g * mask,)

    return _make(data, "dropout", (x,), backward)


def conv2d(x: Tensor, w: Tensor, bias: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """2D cross-correlation (no kernel flip) with bias.

    x: (B, C, H, W), w: (F, C, kH, kW), bias: (F,).  Output extents must be
    exact integers: H' = (H + 2*padding - kH)/stride + 1.
    """
    x, w, bias = _as_tensor(x), _as_tensor(w), _as_tensor(bias)
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError(f"conv2d expects 4-d input/weight, got {x.shape} and {w.shape}")
    B, C, H, W = x.shape
    F, Cw, kh, kw = w.shape
    if C != Cw:
        raise ShapeError(f"conv2d channel mismatch: input {x.shape} vs weight {w.shape}")
    if bias.shape != (F,):
        raise ShapeError(f"conv2d bias must have shape ({F},), got {bias.shape}")
    if stride < 1:
        raise ShapeError(f"conv2d stride must be >= 1, got {stride}")
    num_h = H + 2 * padding - kh
    num_w = W + 2 * padding - kw
    if num_h < 0 or num_w < 0 or num_h % stride or num_w % stride:
        raise ShapeError(
            f"conv2d geometry invalid: input {H}x{W}, kernel {kh}x{kw}, "
            f"stride {stride}, padding {padding} gives non-integer output extent")
    Hh, Ww = num_h // stride + 1, num_w // stride + 1
    Hp, Wp = H + 2 * padding, W + 2 * padding
    K, N = kh * kw * C, B * Hh * Ww

    # im2col (Chellapilla et al. 2006) in an offset-major layout: row
    # (u, v, c) of ``cols`` holds input channel c at window offset (u, v) for
    # every output position (b, i, j), so each offset is one contiguous slab
    # and the copy below runs along the output width, not along the kernel
    if padding:
        xp = np.zeros((C, B, Hp, Wp))
        xp[:, :, padding:padding + H, padding:padding + W] = x.data.transpose(1, 0, 2, 3)
    else:
        xp = x.data.transpose(1, 0, 2, 3)
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride]  # (C, B, H', W', kh, kw)
    cols = np.ascontiguousarray(windows.transpose(4, 5, 0, 1, 2, 3)).reshape(K, N)
    wmat = w.data.transpose(0, 2, 3, 1).reshape(F, K)
    out = wmat @ cols
    out += bias.data[:, None]
    # (F, B, H', W') in memory; the next conv reads it without a copy
    out = out.reshape(F, B, Hh, Ww).transpose(1, 0, 2, 3)
    x_tracked = _needs_grad(x)

    def backward(g):
        g2 = g.transpose(1, 0, 2, 3).reshape(F, N)
        gb = g2.sum(axis=1)
        gw = (g2 @ cols.T).reshape(F, kh, kw, C).transpose(0, 3, 1, 2)
        if not x_tracked:
            return None, gw, gb
        gcols = (wmat.T @ g2).reshape(kh, kw, C, B, Hh, Ww)
        gxp = np.zeros((C, B, Hp, Wp))
        for u in range(kh):
            for v in range(kw):
                gxp[:, :, u:u + stride * Hh:stride, v:v + stride * Ww:stride] += gcols[u, v]
        gx = gxp[:, :, padding:padding + H, padding:padding + W].transpose(1, 0, 2, 3)
        return gx, gw, gb

    return _make(out, "conv2d", (x, w, bias), backward)


def max_pool2d(x: Tensor, k: int, stride: int) -> Tensor:
    """Window maxima; the gradient routes to the first maximum in row-major
    window order when values tie."""
    x = _as_tensor(x)
    if x.ndim != 4:
        raise ShapeError(f"max_pool2d expects 4-d input, got {x.shape}")
    H, W = x.shape[2:]
    if k < 1 or stride < 1:
        raise ShapeError(f"max_pool2d window/stride must be >= 1, got k={k}, stride={stride}")
    if k > H or k > W:
        raise ShapeError(f"max_pool2d window {k} larger than input {H}x{W}")
    Hh = (H - k) // stride + 1
    Ww = (W - k) // stride + 1
    v = x.data
    # one strided view per window offset, in row-major window order
    windows = [(slice(None), slice(None), slice(u, u + stride * Hh, stride),
                slice(w, w + stride * Ww, stride)) for u in range(k) for w in range(k)]
    out = v[windows[0]].copy(order="K")
    for win in windows[1:]:
        np.maximum(out, v[win], out=out)

    # when the windows tile the input, each input entry lies in exactly one
    # window, so the backward writes every entry once and needs no zero fill
    tiled = k == stride and H == k * Hh and W == k * Ww

    def backward(g):
        gx = np.empty_like(v) if tiled else np.zeros_like(v)
        pending = np.ones(out.shape, dtype=bool)  # outputs whose max is not yet found
        hit = np.empty(out.shape, dtype=bool)
        for win in windows:
            np.equal(v[win], out, out=hit)
            hit &= pending
            pending ^= hit
            if tiled:
                np.multiply(g, hit, out=gx[win])
            else:
                gx[win] += g * hit
        return (gx,)

    return _make(out, "max_pool2d", (x,), backward)


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------

def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every leaf ancestor (a tensor created with
    ``requires_grad=True``) of a scalar loss.

    Gradients from multiple uses of the same tensor accumulate by summation.
    Interior tensors keep ``grad`` as ``None``: their gradients live only
    until the walk has passed them on to their parents.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")

    # Iterative post-order topo sort (graphs are deep enough to overflow
    # Python's recursion limit on big images).
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        if node.op_record is not None:
            for parent in node.op_record.parents:
                if id(parent) not in seen and _needs_grad(parent):
                    stack.append((parent, False))

    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node.op_record is None:
            if node.requires_grad:
                # leaf parameter/input: accumulate into the public slot
                node.grad = g if node.grad is None else node.grad + g
            continue
        parent_grads = node.op_record.backward(g)
        for parent, pg in zip(node.op_record.parents, parent_grads):
            if not _needs_grad(parent):
                continue
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + pg
            else:
                grads[key] = pg
