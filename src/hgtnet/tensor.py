"""Dense float64 tensors with reverse-mode automatic differentiation.

Every operation below builds the value eagerly with numpy and, when any
input participates in gradient tracking, attaches an ``OpRecord`` holding
one entry per parent (the parent's own record, the parent itself when it
is a leaf, ``None`` when it is not tracked) and a closure that maps the
output gradient to parent gradients (``None`` for a parent that is not
tracked).  The graph holds records, never derived tensors, and each
closure keeps only the shapes, flags and arrays its backward reads, so an
interior tensor's ``data`` lives only as long as the caller or a closure
needs it.  ``backward`` walks the records in reverse topological order and
accumulates into the ``Tensor.grad`` of the leaves only; interior
gradients are dropped as soon as their parents have them.  Grads share the
value's shape.  The walk releases each record once its closure has run, so
a graph's saved arrays are freed while its backward runs and a graph can be
walked only once.  Where a saved array would be large and is cheap to
make again (a convolution's im2col columns, the attention probabilities,
GELU's tanh), the record keeps the smaller inputs and the backward
rebuilds the array with the forward's own steps, bit for bit
(recomputation, Chen et al. 2016).  A convolution builds its columns, and
their gradient, one band of output rows at a time, where each band keeps
the whole-width product's bits (``_conv_bands``); a pooled convolution
pools each band of its output as the band is made, so its full-resolution
output never exists.  The attention forward builds the probabilities one
head at a time, and its backward rebuilds them the same way.

The op set is intentionally small: exactly what the model needs, with
numpy-style broadcasting supported for add/mul and matmul batch dims.
Ops take ``Tensor`` inputs; only ``add`` and ``mul`` (and so ``+`` and
``*``) also take a plain number, such as a loss weight.
"""

from __future__ import annotations

import ctypes
import functools
import math
import sys
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, ContractError, ShapeError
from .rng import RngStream


# glibc mallopt parameters; the values are C ints, so keep them below 2**31
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8
_HEAP_RETAIN_BYTES = 1 << 30

# bytes of im2col columns per image that one band of a convolution's
# output rows builds at a time
CONV_BAND_BYTES = 2 << 20
# the most multiply-adds that OpenBLAS's AVX-512 build hands to its
# small-matrix GEMM kernel instead of its blocked ones
_SMALL_GEMM_MACS = 100 ** 3


def keep_freed_memory() -> bool:
    """Have glibc serve arrays of up to 1 GB from the heap, keep freed heap
    memory in the process, and keep one heap for every thread.

    By default glibc gives every block above 32 MB its own ``mmap`` and
    unmaps it on free, so each 224 px training step has the kernel fault in
    and zero the same pages again.  With both thresholds raised, freed
    blocks are reused by the next step and resident memory stays near its
    peak.  Capping glibc at one arena makes the training tasks' worker
    threads reuse that same retained heap instead of each growing its own.
    The settings are process-wide and idempotent.  Returns whether all
    three took effect; off Linux, or when the C library of this process has
    no ``mallopt``, it does nothing and returns False.
    """
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
    arena_ok = mallopt(_M_ARENA_MAX, 1)
    return bool(mmap_ok and trim_ok and arena_ok)


@functools.cache
def _numpy_openblas():
    """ctypes handle of the OpenBLAS that a numpy wheel bundles, or None."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*.so*")):
        return ctypes.CDLL(str(lib))
    return None


def pin_blas_threads(n: int) -> int | None:
    """Set the number of threads BLAS runs each call on to ``n`` and return
    the previous number, so the caller can restore it.

    The count is process-wide.  At one thread a GEMM gives the same bits on
    every host, whatever ``OPENBLAS_NUM_THREADS`` says, and it runs on the
    calling thread, so the training tasks' worker threads can use the
    cores instead.  The BLAS is numpy's bundled scipy-openblas; without its
    ``scipy_openblas_{get,set}_num_threads64_`` symbols (another BLAS, or
    none found) it does nothing and returns None.
    """
    lib = _numpy_openblas()
    get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
    set_ = getattr(lib, "scipy_openblas_set_num_threads64_", None)
    if get is None or set_ is None:
        return None
    get.argtypes = ()
    get.restype = ctypes.c_int
    set_.argtypes = (ctypes.c_int,)
    set_.restype = None
    previous = get()
    set_(n)
    return previous


class OpRecord:
    """Provenance of a derived tensor: the op's name, one entry per parent
    (its ``OpRecord``, the leaf ``Tensor`` itself, or ``None`` when the
    parent is not tracked) and the gradient closure.  ``backward`` releases
    the record in place once its closure has run: the name stays, the
    parents become ``()`` and the closure ``None``."""

    __slots__ = ("name", "parents", "backward")

    def __init__(self, name: str, parents: tuple["OpRecord | Tensor | None", ...],
                 backward: Callable[[np.ndarray], tuple] | None):
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


def _node(t: Tensor) -> OpRecord | Tensor | None:
    """What a record keeps of a parent: its record, the leaf itself, or None."""
    if t.op_record is not None:
        return t.op_record
    return t if t.requires_grad else None


def _make(data: np.ndarray, name: str, parents: tuple[Tensor, ...], backward) -> Tensor:
    """Attach the op record, and tracking, when any parent is tracked.  The
    record keeps the parents' records and leaves, never a derived tensor."""
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out.op_record = OpRecord(name, tuple(_node(p) for p in parents), backward)
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
    a_shape, b_shape = a.shape, b.shape

    def backward(g):
        return _unbroadcast(g, a_shape), _unbroadcast(g, b_shape)

    return _make(data, "add", (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data * b.data
    a_shape, b_shape = a.shape, b.shape
    # each side's gradient reads the other side's values
    a_for_b = a.data if b.requires_grad else None
    b_for_a = b.data if a.requires_grad else None

    def backward(g):
        ga = None if b_for_a is None else _unbroadcast(g * b_for_a, a_shape)
        gb = None if a_for_b is None else _unbroadcast(g * a_for_b, b_shape)
        return ga, gb

    return _make(data, "mul", (a, b), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with numpy batch semantics on the leading dims."""
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs rank >= 2 operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner extents differ: {a.shape} @ {b.shape}")
    ad, bd = a.data, b.data
    data = ad @ bd

    def backward(g):
        ga = g @ np.swapaxes(bd, -1, -2)
        gb = np.swapaxes(ad, -1, -2) @ g
        return _unbroadcast(ga, ad.shape), _unbroadcast(gb, bd.shape)

    return _make(data, "matmul", (a, b), backward)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map ``x @ w + b`` over the last axis of x (..., din), with w
    (din, dout) and b (dout,), as one record.  The weight gradient is one
    2-D product on the (rows, din) view and the bias gradient one row sum."""
    if x.ndim < 1 or w.ndim != 2 or x.shape[-1] != w.shape[0] or b.shape != w.shape[1:]:
        raise ShapeError(f"linear needs (..., din) @ (din, dout) + (dout,), "
                         f"got {x.shape}, {w.shape}, {b.shape}")
    din, dout = w.shape
    rows = x.data.reshape(-1, din)
    wd, x_shape, x_tracked = w.data, x.shape, x.requires_grad
    out = rows @ wd
    out += b.data

    def backward(g):
        g2 = g.reshape(-1, dout)
        gx = (g2 @ wd.T).reshape(x_shape) if x_tracked else None
        return gx, rows.T @ g2, g2.sum(axis=0)

    return _make(out.reshape(x_shape[:-1] + (dout,)), "linear", (x, w, b), backward)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    data = x.data.reshape(shape)
    x_shape = x.shape

    def backward(g):
        return (g.reshape(x_shape),)

    return _make(data, "reshape", (x,), backward)


def transpose(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    data = np.ascontiguousarray(x.data.transpose(axes))
    inverse = np.argsort(axes)

    def backward(g):
        return (g.transpose(inverse),)

    return _make(data, "transpose", (x,), backward)


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        return tuple(np.ascontiguousarray(p) for p in np.split(g, splits, axis=axis))

    return _make(data, "concat", tuple(tensors), backward)


def take_rows(x: Tensor, start: int, stop: int) -> Tensor:
    """Contiguous slice along axis 0; gradient scatters back with zero fill."""
    data = x.data[start:stop].copy()
    x_shape = x.shape

    def backward(g):
        gx = np.zeros(x_shape)
        gx[start:stop] = g
        return (gx,)

    return _make(data, "take_rows", (x,), backward)


def tsum(x: Tensor) -> Tensor:
    """Sum of every entry, as a scalar."""
    x_shape = x.shape

    def backward(g):
        return (np.broadcast_to(g, x_shape).copy(),)

    return _make(x.data.sum(), "sum", (x,), backward)


def tmean(x: Tensor, axis: int) -> Tensor:
    """Mean along one axis, which the output drops."""
    x_shape = x.shape
    count = x_shape[axis]

    def backward(g):
        return (np.broadcast_to(np.expand_dims(g, axis) / count, x_shape).copy(),)

    return _make(x.data.mean(axis=axis), "mean", (x,), backward)


# ---------------------------------------------------------------------------
# neural-net ops
# ---------------------------------------------------------------------------

def softmax_in_place(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Overwrite ``y`` with its softmax over the last axis: subtract the row
    maximum, exponentiate, divide by the row sum.  Returns the row maxima
    and the row sums of the shifted exponentials, both with keepdims, from
    which a caller builds the log-sum-exp."""
    top = y.max(axis=-1, keepdims=True)
    y -= top
    np.exp(y, out=y)
    total = y.sum(axis=-1, keepdims=True)
    y /= total
    return top, total


def softmax(x: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Stable softmax over the last axis, through ``softmax_in_place`` on a
    fresh buffer.

    ``mask`` (bool, broadcastable to x) restricts normalization to its True
    entries: a -inf bias on the False ones, added before the row maximum,
    makes their weight exactly 0.  Every row needs a True entry.
    """
    y = x.data + (0.0 if mask is None else np.where(mask, 0.0, -np.inf))
    softmax_in_place(y)

    def backward(g):
        gx = g - (g * y).sum(axis=-1, keepdims=True)
        gx *= y
        return (gx,)

    return _make(y, "softmax", (x,), backward)


def _split_heads(a: np.ndarray, heads: int) -> np.ndarray:
    """(B, n, d) -> strided (B, heads, n, d/heads) view."""
    B, n, d = a.shape
    return a.reshape(B, n, heads, d // heads).transpose(0, 2, 1, 3)


def _head_probs(qh: np.ndarray, kh: np.ndarray,
                h: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Head ``h``'s probabilities (B x Nq x Nk) from the split scaled
    queries and keys, built by ``softmax_in_place``, and its row maxima and
    sums.  numpy issues one GEMM per (image, head) for a batched product
    over every head as well, so each head runs the same GEMMs."""
    p = qh[:, h] @ kh[:, h].transpose(0, 2, 1)
    top, total = softmax_in_place(p)
    return p, top, total


def _scaled_heads(q: Tensor, k: Tensor,
                  heads: int) -> tuple[float, np.ndarray, np.ndarray]:
    """The scale 1/sqrt(d/heads), and the scaled queries and the keys split
    into heads."""
    scale = 1.0 / np.sqrt(q.shape[2] // heads)
    return scale, _split_heads(q.data * scale, heads), _split_heads(k.data, heads)


def attention_probs(q: Tensor, k: Tensor, heads: int) -> np.ndarray:
    """The probabilities P (B x heads x Nq x Nk) of ``attention(q, k, v,
    heads)``, built with its own steps one head at a time and then stacked,
    for a caller that inspects them; ``attention`` itself never holds them
    all."""
    _, qh, kh = _scaled_heads(q, k, heads)
    return np.stack([_head_probs(qh, kh, h)[0] for h in range(heads)], axis=1)


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """Multi-head scaled dot-product attention core as one record.

    q is B x Nq x d, k and v are B x Nk x d; each head attends over its
    d/heads slice of the features and the heads are merged back into
    B x Nq x d.  The 1/sqrt(d/heads) scale is folded into q.  The forward
    builds one head's probabilities P (B x Nq x Nk, batched over the
    images) at a time with ``_head_probs``, so only one head's P exists at
    once.  The record keeps the scaled queries, the keys, the values and
    the softmax's row maxima and sums, not P: the closed-form backward
    rebuilds each head's P from them with the forward's own steps, less
    its two reductions, so it gets the same bits (Vaswani et al. 2017;
    recomputation from row statistics as in FlashAttention, Dao et al.
    2022, tiled by head).  ``attention_probs`` gives a caller the whole P.
    """
    if q.ndim != 3 or k.shape != v.shape or k.ndim != 3 or \
            q.shape[0] != k.shape[0] or q.shape[2] != k.shape[2]:
        raise ShapeError(f"attention needs B x Nq x d queries and B x Nk x d keys/values, "
                         f"got {q.shape}, {k.shape}, {v.shape}")
    B, Nq, d = q.shape
    Nk = k.shape[1]
    if heads < 1 or d % heads:
        raise ConfigError(f"token width {d} not divisible by {heads} heads")
    hd = d // heads
    scale, qh, kh = _scaled_heads(q, k, heads)
    vh = _split_heads(v.data, heads)

    out = np.empty((B, Nq, d))
    top, total = np.empty((B, heads, Nq, 1)), np.empty((B, heads, Nq, 1))
    for h in range(heads):
        p, top[:, h], total[:, h] = _head_probs(qh, kh, h)
        out[:, :, h * hd:(h + 1) * hd] = p @ vh[:, h]
        del p  # before the next head's P is made

    def backward(g):
        gh = _split_heads(g, heads)
        gq, gk, gv = np.empty((B, Nq, d)), np.empty((B, Nk, d)), np.empty((B, Nk, d))
        for h in range(heads):
            cols = slice(h * hd, (h + 1) * hd)
            # _head_probs' steps on this head's scores, with its row statistics
            p = qh[:, h] @ kh[:, h].transpose(0, 2, 1)
            p -= top[:, h]
            np.exp(p, out=p)
            p /= total[:, h]
            gv[:, :, cols] = p.transpose(0, 2, 1) @ gh[:, h]
            gs = gh[:, h] @ vh[:, h].transpose(0, 2, 1)           # gradient of P
            gs -= np.einsum("...k,...k->...", gs, p)[..., None]   # row sums, no temporary
            gs *= p                                               # gradient of Q.K^T
            gq[:, :, cols] = gs @ kh[:, h]
            gk[:, :, cols] = gs.transpose(0, 2, 1) @ qh[:, h]
            del p, gs  # before the next head's are made
        gq *= scale
        return gq, gk, gv

    return _make(out, "attention", (q, k, v), backward)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize each slice along the last axis to zero mean / unit variance
    (population variance + 1e-5), then apply the learned affine."""
    d = x.shape[-1]
    mean = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat = (x.data - mean) * inv
    gd, beta_shape = gamma.data, beta.shape
    data = gd * xhat + beta.data

    def backward(g):
        reduce_axes = tuple(range(g.ndim - 1))  # () for a 1-d x: the sums copy g
        gbeta = g.sum(axis=reduce_axes)
        ggamma = (g * xhat).sum(axis=reduce_axes)
        gxhat = g * gd
        gx = inv * (gxhat
                    - gxhat.mean(axis=-1, keepdims=True)
                    - xhat * (gxhat * xhat).sum(axis=-1, keepdims=True) / d)
        return gx, ggamma.reshape(gd.shape), gbeta.reshape(beta_shape)

    return _make(data, "layer_norm", (x, gamma, beta), backward)


_GELU_C = np.sqrt(2.0 / np.pi)
_GELU_A = 0.044715


def activation(x: Tensor, kind: str, slope: float | None = None) -> Tensor:
    """Elementwise nonlinearity: gelu (tanh form), or leaky_relu with its
    negative-side ``slope``, which only that kind reads."""
    v = x.data
    if kind == "gelu":
        # tanh(C * (v + A * v^3)) in one buffer, each step the product or
        # sum that the plain expression takes, so the bits are the same;
        # products, not ``**``: numpy routes v**3 through the slow libm pow
        def tanh_part():
            t = v * v
            t *= v
            t *= _GELU_A
            t += v
            t *= _GELU_C
            return np.tanh(t, out=t)

        t = tanh_part()
        t += 1.0
        data = 0.5 * v
        data *= t  # 0.5 v (1 + t)

        # the record keeps v only; the backward rebuilds t bit for bit and
        # builds g (0.5 (1 + t) + 0.5 v (1 - t^2) du) in three buffers
        def backward(g):
            t = tanh_part()
            s = t * t
            np.subtract(1.0, s, out=s)
            second = 0.5 * v
            second *= s                    # 0.5 v (1 - t^2)
            du = np.multiply(v, v, out=s)
            du *= 3.0 * _GELU_A
            du += 1.0
            du *= _GELU_C                  # d/dv of the tanh argument
            second *= du
            t += 1.0
            t *= 0.5                       # 0.5 (1 + t)
            t += second
            t *= g
            return (t,)
    elif kind == "leaky_relu":
        data = np.where(v > 0.0, v, slope * v)

        def backward(g):
            return (g * np.where(v > 0.0, 1.0, slope),)
    else:
        raise ConfigError(f"unknown activation kind {kind!r}")
    return _make(data, kind, (x,), backward)


def gelu(x: Tensor) -> Tensor:
    return activation(x, "gelu")


def leaky_relu(x: Tensor, slope: float) -> Tensor:
    return activation(x, "leaky_relu", slope=slope)


def dropout(x: Tensor, p: float, rngs: Sequence[RngStream] | None) -> Tensor:
    """Inverted dropout: zero with probability p, scale survivors by 1/(1-p).

    Passing ``rngs``, one stream per row of x (axis 0, the sample axis),
    means training mode: each row's mask is the next draws of its own
    stream, so a sample's masks do not depend on the other rows of its
    batch, and the same stream object given for every row draws the rows
    one after another.  Without streams, or at p == 0, the op is exactly
    the identity and reads no stream.
    """
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {p}")
    if rngs is None or p == 0.0:
        return x
    if x.ndim < 1 or len(rngs) != x.shape[0]:
        raise ContractError(f"dropout needs one rng stream per row of its "
                            f"{x.shape} input")
    row = x.size // x.shape[0]
    # the record keeps the bool mask, an eighth of the memory of a float
    # mask.  Multiplying by the mask, then by the scale, gives the bits of
    # x * (keep * scale), -0.0, inf and NaN included: x * 1 is x, and x * 0
    # is the same signed zero (or NaN) either way
    keep = np.concatenate([r.keep_mask(row, p) for r in rngs]).reshape(x.shape)
    scale = 1.0 / (1.0 - p)
    data = x.data * keep
    data *= scale

    def backward(g):
        gx = g * keep
        gx *= scale
        return (gx,)

    return _make(data, "dropout", (x,), backward)


def _conv_bands(images: int, height: int, width: int, filters: int,
                depth: int) -> list[tuple[int, int]]:
    """(start, stop) output rows of each band of a convolution whose GEMMs
    take ``filters`` x ``depth`` weights over ``images`` x ``height`` x
    ``width`` output columns.  A band builds about ``CONV_BAND_BYTES`` of
    columns per image and starts at an even row, so a pooled conv pools
    each band's 2 x 2 windows on their own.  It is cut only where its
    output keeps the bits of the whole-width product under OpenBLAS's
    AVX-512 kernels:
    - those compute a product's last (columns mod 8) columns with narrower
      kernels, so every band, and the whole product, spans a multiple of 8
      columns, or there is one band;
    - a product of at most ``_SMALL_GEMM_MACS`` multiply-adds takes the
      small-matrix kernel, which sums a deep dot product in one pass where
      the blocked kernels sum it in slices, so every band does more, and a
      last band that would not joins the one before it."""
    per_row = images * width  # GEMM columns per output row
    if per_row * height % 8:
        return [(0, height)]
    rows = max(CONV_BAND_BYTES // (8 * depth * width),
               _SMALL_GEMM_MACS // (filters * depth * per_row) + 1)
    # even rows that span a multiple of 8 columns
    unit = math.lcm(2, 8 // math.gcd(8, per_row))
    rows = -(-rows // unit) * unit
    starts = list(range(0, height, rows))
    if len(starts) > 1 and filters * depth * per_row * (height - starts[-1]) <= _SMALL_GEMM_MACS:
        starts.pop()
    return list(zip(starts, starts[1:] + [height]))


# one strided view per 2 x 2 window offset, in row-major window order
_POOL_WINDOWS = tuple((Ellipsis, slice(u, None, 2), slice(v, None, 2))
                      for u in range(2) for v in range(2))


def _pool_into(v: np.ndarray, out: np.ndarray, masks: list[np.ndarray] | None) -> None:
    """Write the maxima of the 2 x 2 windows at stride 2 over the last two
    axes of ``v``, floored at 0, into ``out``.  With ``masks`` (four bool
    arrays shaped like ``out``, one per window offset), mark in each the
    outputs whose first positive maximum, in row-major window order, sits
    at that offset; an output whose maximum is <= 0 or NaN is marked in
    none."""
    np.copyto(out, v[_POOL_WINDOWS[0]])
    for win in _POOL_WINDOWS[1:]:
        np.maximum(out, v[win], out=out)
    np.maximum(out, 0.0, out=out)
    if masks is None:
        return
    pending = out > 0.0  # outputs whose positive max is not yet found
    for win, hit in zip(_POOL_WINDOWS, masks):
        np.equal(v[win], out, out=hit)
        hit &= pending
        pending ^= hit


def _unpool_into(g: np.ndarray, masks: list[np.ndarray], gx: np.ndarray) -> None:
    """Route the pool's output gradient ``g`` into ``gx``, shaped like the
    pool's input: each output's to its marked window offset, zero
    elsewhere.  The windows tile ``gx``, so every entry is written once."""
    for win, hit in zip(_POOL_WINDOWS, masks):
        np.multiply(g, hit, out=gx[win])


def conv2d(x: Tensor, w: Tensor, bias: Tensor, stride: int = 1, padding: int = 0,
           pool: bool = False) -> Tensor:
    """2D cross-correlation (no kernel flip) with bias.

    x: (B, C, H, W), w: (F, C, kH, kW), bias: (F,).  Output extents must be
    exact integers: H' = (H + 2*padding - kH)/stride + 1.

    The forward GEMM, and the input gradient's GEMM and col2im, run in
    bands of output rows over every image (``_conv_bands``), so only one
    band's im2col columns or their gradient exist at a time.  Every band
    spans a multiple of 8 GEMM columns (B x rows x W'), since OpenBLAS's
    AVX-512 kernels compute a product's last (columns mod 8) columns with
    other kernels.  The weight gradient is one whole-width product: banding
    its sum over the output positions would change that sum's order.

    ``pool=True`` (even H' and W') returns ``max_pool2d`` of the conv
    output, bit for bit, forward and backward, without ever building that
    output: each band's GEMM output gets its bias and is pooled, with
    ``max_pool2d``'s kernel, before the next band is made.  When the output
    is tracked, each band also gets its share of the pool's four
    first-maximum masks, which the record keeps; the backward routes the
    gradient through them onto the conv map, then runs the conv's own
    backward.
    """
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
    if padding < 0:
        raise ShapeError(f"conv2d padding must be >= 0, got {padding}")
    num_h = H + 2 * padding - kh
    num_w = W + 2 * padding - kw
    if num_h < 0 or num_w < 0 or num_h % stride or num_w % stride:
        raise ShapeError(
            f"conv2d geometry invalid: input {H}x{W}, kernel {kh}x{kw}, "
            f"stride {stride}, padding {padding} gives non-integer output extent")
    Hh, Ww = num_h // stride + 1, num_w // stride + 1
    if pool and (Hh % 2 or Ww % 2):
        raise ShapeError(f"conv2d pool needs even output extents, got {Hh}x{Ww}")
    Hp, Wp = H + 2 * padding, W + 2 * padding
    xd, x_tracked = x.data, x.requires_grad
    K, N = kh * kw * C, B * Hh * Ww
    bands = _conv_bands(B, Hh, Ww, F, K)

    def windows():
        # (C, B, H', W', kh, kw) view of the padded input
        if padding:
            xp = np.zeros((C, B, Hp, Wp))
            xp[:, :, padding:padding + H, padding:padding + W] = xd.transpose(1, 0, 2, 3)
        else:
            xp = xd.transpose(1, 0, 2, 3)
        view = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
        return view[:, :, ::stride, ::stride]

    def im2col(view, i0, i1):
        # im2col (Chellapilla et al. 2006) of output rows i0:i1 in an
        # offset-major layout: row (u, v, c) holds input channel c at window
        # offset (u, v) for every output position (b, i, j), so each offset
        # is one contiguous slab and the copy runs along the output width
        cols = np.ascontiguousarray(view[:, :, i0:i1].transpose(4, 5, 0, 1, 2, 3))
        return cols.reshape(K, -1)

    wmat = w.data.transpose(0, 2, 3, 1).reshape(F, K)
    bias4 = bias.data[:, None, None, None]
    # (F, B, H', W') in memory, or the pooled (F, B, H'/2, W'/2); the next
    # conv reads it without a copy
    view = windows()
    masks = None
    if pool:
        out = np.empty((F, B, Hh // 2, Ww // 2))
        if x.requires_grad or w.requires_grad or bias.requires_grad:
            masks = [np.empty(out.shape, dtype=bool) for _ in _POOL_WINDOWS]
    else:
        out = np.empty((F, B, Hh, Ww))
    for i0, i1 in bands:
        y = (wmat @ im2col(view, i0, i1)).reshape(F, B, i1 - i0, Ww)
        if pool:
            y += bias4
            rows = (Ellipsis, slice(i0 // 2, i1 // 2), slice(None))
            _pool_into(y, out[rows], None if masks is None else [m[rows] for m in masks])
            del y  # before the next band's columns and product are made
        else:
            np.add(y, bias4, out=out[:, :, i0:i1])
    out = out.transpose(1, 0, 2, 3)

    # the record keeps the input, not its columns (kh*kw/stride^2 times its
    # size); the backward rebuilds them with the same im2col, bit for bit,
    # and they are freed once gw has them, before any gcols band is made
    def backward(g):
        if pool:
            # max_pool2d's backward onto the (F, B, H', W') conv map
            gmap = np.empty((F, B, Hh, Ww))
            _unpool_into(g.transpose(1, 0, 2, 3), masks, gmap)
            g = gmap.transpose(1, 0, 2, 3)
        g2 = g.transpose(1, 0, 2, 3).reshape(F, N)
        gb = g2.sum(axis=1)
        gw = (g2 @ im2col(windows(), 0, Hh).T).reshape(F, kh, kw, C).transpose(0, 3, 1, 2)
        if not x_tracked:
            return None, gw, gb
        g4 = g2.reshape(F, B, Hh, Ww)
        gxp = np.zeros((C, B, Hp, Wp))
        # col2im, last band first: every padded entry then takes its (u, v)
        # terms in the order of one whole-width pass
        for i0, i1 in reversed(bands):
            gcols = (wmat.T @ g4[:, :, i0:i1].reshape(F, -1)).reshape(kh, kw, C, B, i1 - i0, Ww)
            for u in range(kh):
                top = u + stride * i0
                for v in range(kw):
                    gxp[:, :, top:top + stride * (i1 - i0):stride,
                        v:v + stride * Ww:stride] += gcols[u, v]
        gx = gxp[:, :, padding:padding + H, padding:padding + W].transpose(1, 0, 2, 3)
        return gx, gw, gb

    return _make(out, "conv2d", (x, w, bias), backward)


def max_pool2d(x: Tensor) -> Tensor:
    """Maxima of 2 x 2 windows at stride 2 over a B x C x H x W input with
    even H and W, floored at 0: a ReLU folded into the pool.  The gradient
    routes to the first maximum in row-major window order when values tie;
    a window whose maximum is <= 0 or NaN routes none, as the ReLU's zero
    slope there would.  ``conv2d(..., pool=True)`` runs the same kernel on
    each band of a conv's output.

    A tracked input gets four bool masks, one per window offset, built in
    the forward: each marks the outputs whose first maximum sits at that
    offset.  The record keeps them (an eighth of the input's bytes) instead
    of the input and output, and the backward is four multiplies.  An
    untracked input builds no masks."""
    if x.ndim != 4 or x.shape[2] < 2 or x.shape[3] < 2 or x.shape[2] % 2 or x.shape[3] % 2:
        raise ShapeError(f"max_pool2d expects a B x C x H x W input with even H, W >= 2, "
                         f"got {x.shape}")
    v = x.data
    out = np.empty_like(v[_POOL_WINDOWS[0]])
    masks = [np.empty_like(out, dtype=bool) for _ in _POOL_WINDOWS] if x.requires_grad else None
    _pool_into(v, out, masks)
    if masks is None:
        return _make(out, "max_pool2d", (x,), None)
    # gx takes the input's memory order, as np.empty_like(v) would, so a
    # conv2d output's gradient reaches that conv's backward without a copy
    order = sorted(range(4), key=lambda axis: -v.strides[axis])
    shape = v.shape

    def backward(g):
        gx = np.empty([shape[axis] for axis in order]).transpose(np.argsort(order))
        _unpool_into(g, masks, gx)
        return (gx,)

    return _make(out, "max_pool2d", (x,), backward)


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------

def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every leaf ancestor (a tensor created with
    ``requires_grad=True``) of a scalar loss, and release the graph.

    The walk visits records and leaves, never interior tensors.  Gradients
    from multiple uses of the same tensor accumulate by summation.
    Interior tensors keep ``grad`` as ``None``: their gradients live only
    until the walk has passed them on to their parents.  Each record's
    ``backward`` attribute is read and called when the walk reaches it, and
    the record is then released in place (``parents = ()``, ``backward =
    None``), so the arrays its closure saved are freed during the walk.  A
    second ``backward`` through a released record raises ``ContractError``
    before any leaf gradient changes.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    root = _node(loss)
    if root is None:
        return

    # Iterative post-order topo sort (graphs are deep enough to overflow
    # Python's recursion limit on big images).
    order: list[OpRecord | Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[OpRecord | Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        if isinstance(node, OpRecord):
            if node.backward is None:
                raise ContractError(f"backward through a '{node.name}' record that an "
                                    f"earlier backward released; build the graph again")
            for parent in node.parents:
                if parent is not None and id(parent) not in seen:
                    stack.append((parent, False))

    # popping drops the walk's last reference to each node as it is passed
    grads: dict[int, np.ndarray] = {id(root): np.ones_like(loss.data)}
    while order:
        node = order.pop()
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if isinstance(node, Tensor):
            # leaf parameter/input: accumulate into the public slot
            node.grad = g if node.grad is None else node.grad + g
            continue
        parents, closure = node.parents, node.backward
        node.parents, node.backward = (), None
        for parent, pg in zip(parents, closure(g)):
            if parent is None:
                continue
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + pg
            else:
                grads[key] = pg
