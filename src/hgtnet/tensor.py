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
GELU's tanh, and in ``gelu_linear`` the GELU output itself), the record
keeps the smaller inputs and the backward rebuilds the array with the
forward's own steps, bit for bit (recomputation, Chen et al. 2016); where
the backward needs only a sign or a pool window's winner, the record keeps
that, in one byte per entry.  ``conv2d`` (a CNN stage: conv, then pool)
builds its columns and pools its output in bands of output rows that
keep the whole-width product's bits (``_conv_bands``), and its backward
takes one kernel row at a time, whose products keep them too
(``_conv_weight_grad``).  ``patch_linear``'s patches do not overlap, so it
is one product over a reshape of the image.  The attention forward builds
the probabilities one head at a time, and its backward rebuilds them the
same way.

The op set is small: the ops a model pass records, plus ``take_rows`` and
``max_pool2d``, which none records and which stay because the benchmark's
tracer binds them by name, and the plain ``gelu``, the bit reference that
the tests hold ``gelu_linear`` to.  add/mul broadcast as numpy does, and
matmul over batch dims.  Ops take ``Tensor`` inputs; only add and mul (and
so ``+`` and ``*``) also take a plain number.
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


def _check_affine(op: str, x: Tensor, w: Tensor, bias_shape: tuple[int, ...]) -> None:
    if x.ndim < 1 or w.ndim != 2 or x.shape[-1] != w.shape[0] or bias_shape != w.shape[1:]:
        raise ShapeError(f"{op} needs (..., din) @ (din, dout) + (dout,), "
                         f"got {x.shape}, {w.shape}, {bias_shape}")


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Affine map ``x @ w + b``, or ``x @ w`` without b, over the last axis of
    x (..., din), with w (din, dout) and b (dout,), as one record.  The weight
    gradient is one 2-D product on the (rows, din) view, the bias gradient one row sum."""
    _check_affine("linear", x, w, w.shape[1:] if b is None else b.shape)
    din, dout = w.shape
    rows = x.data.reshape(-1, din)
    wd, x_shape, x_tracked = w.data, x.shape, x.requires_grad
    out = rows @ wd
    if b is not None:
        out += b.data

    def backward(g):
        g2 = g.reshape(-1, dout)
        gx = (g2 @ wd.T).reshape(x_shape) if x_tracked else None
        return (gx, rows.T @ g2) if b is None else (gx, rows.T @ g2, g2.sum(axis=0))

    return _make(out.reshape(x_shape[:-1] + (dout,)), "linear",
                 (x, w) if b is None else (x, w, b), backward)


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


def tmean(x: Tensor) -> Tensor:
    """Mean along axis 1, which the output drops."""
    x_shape = x.shape
    count = x_shape[1]

    def backward(g):
        return (np.broadcast_to(np.expand_dims(g, 1) / count, x_shape).copy(),)

    return _make(x.data.mean(axis=1), "mean", (x,), backward)


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
# leaky_relu's negative-side slope: graph attention's, as in GAT (arXiv:1710.10903)
LEAKY_SLOPE = 0.2


def _gelu(v: np.ndarray, slope: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
    """GELU (tanh form) of ``v``, 0.5 v (1 + t) with t = tanh(C (v + A v^3)),
    and with ``slope`` its derivative 0.5 (1 + t) + 0.5 v (1 - t^2) du, where
    du is the derivative of the tanh argument.  t is built once, in one
    buffer; each step is the product or sum that the plain expression takes,
    so every caller gets the same bits.  Products, not ``**``: numpy routes
    v**3 through the slow libm pow."""
    t = v * v
    t *= v
    t *= _GELU_A
    t += v
    t *= _GELU_C
    np.tanh(t, out=t)
    if slope:
        s = t * t
        np.subtract(1.0, s, out=s)
        second = 0.5 * v
        second *= s                    # 0.5 v (1 - t^2)
        du = np.multiply(v, v, out=s)
        du *= 3.0 * _GELU_A
        du += 1.0
        du *= _GELU_C
        second *= du
        del s, du
    t += 1.0
    value = 0.5 * v
    value *= t                         # 0.5 v (1 + t)
    if not slope:
        return value, None
    t *= 0.5
    t += second                        # 0.5 (1 + t) + 0.5 v (1 - t^2) du
    return value, t


def activation(x: Tensor, kind: str) -> Tensor:
    """Elementwise nonlinearity: gelu (tanh form), or leaky_relu with
    negative-side slope LEAKY_SLOPE."""
    v = x.data
    if kind == "gelu":
        data, _ = _gelu(v)

        # the record keeps v only; the backward rebuilds t bit for bit
        def backward(g):
            _, slope = _gelu(v, slope=True)
            slope *= g
            return (slope,)
    elif kind == "leaky_relu":
        # the record keeps the bool sign mask, an eighth of v's bytes
        positive = v > 0.0
        data = np.where(positive, v, LEAKY_SLOPE * v)

        def backward(g):
            return (g * np.where(positive, 1.0, LEAKY_SLOPE),)
    else:
        raise ConfigError(f"unknown activation kind {kind!r}")
    return _make(data, kind, (x,), backward)


def gelu(x: Tensor) -> Tensor:
    return activation(x, "gelu")


def gelu_linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``linear(gelu(x), w, b)`` as one record, with the bits of the two.

    The record keeps x and w, not gelu(x): the backward builds GELU's tanh
    once, as ``gelu``'s backward does, forms gelu(x) from it with the
    forward's own steps for the weight gradient, and its derivative from the
    same tanh for the input gradient."""
    _check_affine("gelu_linear", x, w, b.shape)
    din, dout = w.shape
    v, wd, x_tracked = x.data, w.data, x.requires_grad
    hidden, _ = _gelu(v)
    out = hidden.reshape(-1, din) @ wd
    out += b.data

    def backward(g):
        g2 = g.reshape(-1, dout)
        hidden, slope = _gelu(v, slope=x_tracked)
        gw = hidden.reshape(-1, din).T @ g2
        del hidden
        gx = None
        if x_tracked:
            gx = slope
            gx *= (g2 @ wd.T).reshape(v.shape)
        return gx, gw, g2.sum(axis=0)

    return _make(out.reshape(v.shape[:-1] + (dout,)), "gelu_linear", (x, w, b), backward)


def leaky_relu(x: Tensor) -> Tensor:
    return activation(x, "leaky_relu")


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
    """(start, stop) output rows of each band of a convolution's forward,
    whose GEMMs take ``filters`` x ``depth`` weights over ``images`` x
    ``height`` x ``width`` output columns.  A band builds about
    ``CONV_BAND_BYTES`` of columns per image and starts at an even row, so
    each band's 2 x 2 pooling windows are its own.  It is cut
    only where its output keeps the bits of the whole-width product under
    OpenBLAS's AVX-512 kernels:
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


# the pool routing's mark for an output that routes no gradient
_NO_WINNER = len(_POOL_WINDOWS)


def _pool_into(v: np.ndarray, out: np.ndarray, route: np.ndarray | None) -> None:
    """Write the maxima of the 2 x 2 windows at stride 2 over the last two
    axes of ``v``, floored at 0, into ``out``.  With ``route`` (a uint8
    array shaped like ``out``), write for each output the window offset
    (0-3, in row-major window order) of its first positive maximum, or
    ``_NO_WINNER`` when its maximum is <= 0 or NaN."""
    np.copyto(out, v[_POOL_WINDOWS[0]])
    for win in _POOL_WINDOWS[1:]:
        np.maximum(out, v[win], out=out)
    np.maximum(out, 0.0, out=out)
    if route is None:
        return
    route.fill(_NO_WINNER)
    pending = out > 0.0  # outputs whose positive max is not yet found
    hit = np.empty_like(pending)
    for k, win in enumerate(_POOL_WINDOWS):
        np.equal(v[win], out, out=hit)
        hit &= pending
        # the hits of the offsets are disjoint, so this takes each hit
        # output from _NO_WINNER to k, faster than a masked copy
        route -= hit.view(np.uint8) * np.uint8(_NO_WINNER - k)
        pending ^= hit


def _unpool_into(g: np.ndarray, route: np.ndarray, gx: np.ndarray) -> None:
    """Route the pool's output gradient ``g`` into ``gx``, shaped like the
    pool's input: each output's to its routed window offset, zero
    elsewhere.  The windows tile ``gx``, so every entry is written once."""
    for k, win in enumerate(_POOL_WINDOWS):
        np.multiply(g, route == k, out=gx[win])


def _im2col(view: np.ndarray) -> np.ndarray:
    """im2col (Chellapilla et al. 2006) of a convolution's (C, B, rows, W',
    kh, kw) window view, as (kh*kw*C, B*rows*W') columns in an offset-major
    layout: row (u, v, c) holds input channel c at window offset (u, v) for
    every output position (b, i, j), so each offset is one contiguous slab
    and the copy runs along the output width."""
    C, _, _, _, kh, kw = view.shape
    return np.ascontiguousarray(view.transpose(4, 5, 0, 1, 2, 3)).reshape(kh * kw * C, -1)


def _conv_weight_grad(g2: np.ndarray, view: np.ndarray) -> np.ndarray:
    """The (F, kh, kw, C) weight gradient of a convolution from its (F, N)
    output gradient and its (C, B, H', W', kh, kw) window view.

    Where one kernel row's product takes OpenBLAS's blocked kernels (more
    than ``_SMALL_GEMM_MACS`` multiply-adds), it is kh products
    ``g2 @ slabᵀ``, one per kernel row u, each over a copy of that row's
    kw*C x N slab of the columns (MEC's slice-wise lowering, Cho & Brand
    2017), so only one slab exists at a time.  Each sums over the same N
    output positions in the same kernels as the whole-width product, so
    the bits are that product's.  At or below that size a row's product
    would take the small-matrix kernel, which sums in another order than
    the whole-width product's blocked kernels, so the weight gradient is
    that one whole-width product."""
    F, N = g2.shape
    C, _, _, _, kh, kw = view.shape
    rows = kh if F * kw * C * N <= _SMALL_GEMM_MACS else 1
    gw = np.empty((F, kh, kw, C))
    for u in range(0, kh, rows):
        gw[:, u:u + rows] = (g2 @ _im2col(view[..., u:u + rows, :]).T).reshape(F, rows, kw, C)
    return gw


def patch_linear(x: Tensor, w: Tensor, bias: Tensor) -> Tensor:
    """ViT's linear patch projection (Dosovitskiy et al. 2020) as one
    record: each non-overlapping P x P patch of the (B, C, H, W) image is
    mapped by the (d, C, P, P) weight and the (d,) bias to one of the
    (B, N, d) tokens, the patches in row-major order.  This is a conv at
    stride P whose im2col columns are a reshape of the image, and the
    product runs in the conv's orientation, ``wmat @ cols``, whose bits
    ``linear``'s transposed product would not keep.  The record keeps the
    image; its backward rebuilds the columns for the weight gradient
    ``g2 @ colsᵀ``, and the input gradient is the inverse reshape of
    ``wmatᵀ @ g2``."""
    if x.ndim != 4 or w.ndim != 4 or x.shape[1] != w.shape[1] or w.shape[2] != w.shape[3] \
            or bias.shape != w.shape[:1] or x.shape[2] % w.shape[2] or x.shape[3] % w.shape[2]:
        raise ShapeError(f"patch_linear needs a (B, C, H, W) image with H and W multiples of "
                         f"P, a (d, C, P, P) weight and a (d,) bias, got {x.shape}, "
                         f"{w.shape}, {bias.shape}")
    B, C, H, W = x.shape
    F, _, P, _ = w.shape
    xd, wd, x_tracked = x.data, w.data, x.requires_grad

    def columns():  # _im2col of the (C, B, H/P, W/P, P, P) patch view
        return _im2col(xd.reshape(B, C, H // P, P, W // P, P).transpose(1, 0, 2, 4, 3, 5))

    def wmat():  # (d, P*P*C), columns in the same (u, v, c) order
        return wd.transpose(0, 2, 3, 1).reshape(F, -1)

    out = wmat() @ columns()
    out += bias.data[:, None]
    tokens = np.ascontiguousarray(out.reshape(F, B, -1).transpose(1, 2, 0))

    def backward(g):
        g2 = g.transpose(2, 0, 1).reshape(F, -1)
        gw = (g2 @ columns().T).reshape(F, P, P, C).transpose(0, 3, 1, 2)
        gx = None
        if x_tracked:
            gx = (wmat().T @ g2).reshape(P, P, C, B, H // P, W // P)
            gx = gx.transpose(3, 2, 4, 0, 5, 1).reshape(B, C, H, W)
        return gx, gw, g2.sum(axis=1)

    return _make(tokens, "patch_linear", (x, w, bias), backward)


def conv2d(x: Tensor, w: Tensor, bias: Tensor) -> Tensor:
    """One CNN stage as one record: a 2D cross-correlation (no kernel flip)
    with bias, stride 1 and zero padding (k - 1)/2, then the maxima of the
    conv map's 2 x 2 windows at stride 2, floored at 0 (``max_pool2d``'s
    kernel; a ReLU folded into the pool).  x: (B, C, H, W) with even H and
    W, w: (F, C, k, k) with odd k (3 in the model), bias: (F,); the output
    is (B, F, H/2, W/2), F x B x H/2 x W/2 in memory, as the next conv
    reads it.

    The forward GEMM runs in bands of output rows over every image
    (``_conv_bands``), each spanning a multiple of 8 GEMM columns, since
    OpenBLAS's AVX-512 kernels compute a product's last (columns mod 8)
    columns with other kernels.  Each band pads only the input rows it
    reads, gets its bias and is pooled, with its share of the pool's
    one-byte routing when the output is tracked (each output's winning
    window offset), before the next band is made, so the conv map never
    exists.  The backward routes the gradient onto the conv map, then
    walks the kernel's k rows: for row u, one product over a copy of the
    row's k*C x N columns gives ``gw[:, u]`` (``_conv_weight_grad``), and
    one product of the row's k*C weight columns, transposed, with the
    map's gradient gives the row's input-gradient columns, which col2im
    adds into the padded input's gradient in (u, v) order.  Each row's dot
    products are the whole-width products' own, so no bit moves.
    """
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError(f"conv2d expects 4-d input/weight, got {x.shape} and {w.shape}")
    B, C, H, W = x.shape
    F, Cw, k, kw = w.shape
    if C != Cw or k != kw or k % 2 == 0 or bias.shape != (F,):
        raise ShapeError(f"conv2d needs an (F, {C}, k, k) weight of odd k and an (F,) bias "
                         f"for input {x.shape}, got {w.shape} and {bias.shape}")
    if H < 2 or W < 2 or H % 2 or W % 2:
        raise ShapeError(f"conv2d pool needs even output extents >= 2, got {H}x{W}")
    pad = k // 2
    xd, x_tracked = x.data, x.requires_grad
    K = k * k * C

    def windows(i0, i1):
        # (C, B, i1 - i0, W, k, k) view of the windows of output rows i0:i1,
        # over a zero-padded copy of only the input rows they read
        xp = np.zeros((C, B, i1 - i0 + 2 * pad, W + 2 * pad))
        r0, r1 = max(i0 - pad, 0), min(i1 + pad, H)
        xp[:, :, r0 + pad - i0:r1 + pad - i0, pad:pad + W] = xd[:, :, r0:r1].transpose(1, 0, 2, 3)
        return np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))

    wmat = w.data.transpose(0, 2, 3, 1).reshape(F, K)
    bias4 = bias.data[:, None, None, None]
    out = np.empty((F, B, H // 2, W // 2))
    tracked = x.requires_grad or w.requires_grad or bias.requires_grad
    route = np.empty(out.shape, dtype=np.uint8) if tracked else None
    for i0, i1 in _conv_bands(B, H, W, F, K):
        y = (wmat @ _im2col(windows(i0, i1))).reshape(F, B, i1 - i0, W)
        y += bias4
        rows = (Ellipsis, slice(i0 // 2, i1 // 2), slice(None))
        _pool_into(y, out[rows], None if route is None else route[rows])
        del y  # before the next band's columns and product are made
    out = out.transpose(1, 0, 2, 3)

    # the record keeps the input, not its columns (k*k times its size); the
    # backward rebuilds one kernel row's slab of them at a time (or all of
    # them, for a small conv) with the same copies, bit for bit, and the
    # padded input they read is freed before gxp is made
    def backward(g):
        gmap = np.empty((F, B, H, W))
        _unpool_into(g.transpose(1, 0, 2, 3), route, gmap)
        g2 = gmap.reshape(F, -1)
        gb = g2.sum(axis=1)
        gw = _conv_weight_grad(g2, windows(0, H)).transpose(0, 3, 1, 2)
        if not x_tracked:
            return None, gw, gb
        gxp = np.zeros((C, B, H + 2 * pad, W + 2 * pad))
        # col2im by kernel row, in a whole-width pass's (u, v) order, where
        # a row's k*C columns fill whole 4-row tiles of OpenBLAS's AVX2
        # kernels (a one-row tail there sums in another order), else at once
        rows = 1 if k * C % 4 == 0 else k
        for u0 in range(0, k, rows):
            gcols = (wmat[:, u0 * k * C:(u0 + rows) * k * C].T @ g2).reshape(-1, C, B, H, W)
            for (u, v), cols in zip(np.ndindex(rows, k), gcols):
                gxp[:, :, u0 + u:u0 + u + H, v:v + W] += cols
            del gcols, cols  # before the next row's are made
        gx = gxp[:, :, pad:pad + H, pad:pad + W].transpose(1, 0, 2, 3)
        return gx, gw, gb

    return _make(out, "conv2d", (x, w, bias), backward)


def max_pool2d(x: Tensor) -> Tensor:
    """Maxima of 2 x 2 windows at stride 2 over a B x C x H x W input with
    even H and W, floored at 0: a ReLU folded into the pool.  The gradient
    routes to the first maximum in row-major window order when values tie;
    a window whose maximum is <= 0 or NaN routes none, as the ReLU's zero
    slope there would.  ``conv2d`` runs the same kernel on each band of its
    conv map; no model pass records this op, which stays because the
    benchmark binds it.

    A tracked input gets a uint8 routing array shaped like the output,
    built in the forward (the window offset of each output's first positive
    maximum, or ``_NO_WINNER``), which the record keeps instead of the
    input and output; the backward is four multiplies."""
    if x.ndim != 4 or x.shape[2] < 2 or x.shape[3] < 2 or x.shape[2] % 2 or x.shape[3] % 2:
        raise ShapeError(f"max_pool2d expects a B x C x H x W input with even H, W >= 2, "
                         f"got {x.shape}")
    v = x.data
    out = np.empty_like(v[_POOL_WINDOWS[0]])
    route = np.empty_like(out, dtype=np.uint8) if x.requires_grad else None
    _pool_into(v, out, route)
    if route is None:
        return _make(out, "max_pool2d", (x,), None)
    shape = v.shape

    def backward(g):
        gx = np.empty(shape)
        _unpool_into(g, route, gx)
        return (gx,)

    return _make(out, "max_pool2d", (x,), backward)


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------

def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every leaf ancestor (a tensor created with
    ``requires_grad=True``) of a scalar loss, and release the graph.

    The walk visits records, never interior tensors.  Gradients from
    multiple uses of the same tensor accumulate by summation, into a leaf's
    ``grad`` as soon as a closure returns each: a leaf reached k times gets
    ((old + c1) + ...) + ck in the walk's order, and a walk into leaves
    that already hold gradients holds no second set.
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
            for parent in node.parents:  # a leaf is reached by its closures, not ordered
                if isinstance(parent, OpRecord) and id(parent) not in seen:
                    stack.append((parent, False))

    # popping drops the walk's last reference to each node as it is passed
    grads: dict[int, np.ndarray] = {id(root): np.ones_like(loss.data)}
    while order:
        node = order.pop()
        g = grads.pop(id(node))
        if isinstance(node, Tensor):  # a leaf loss
            node.grad = g if node.grad is None else node.grad + g
            continue
        parents, closure = node.parents, node.backward
        node.parents, node.backward = (), None
        for parent, pg in zip(parents, closure(g)):
            if isinstance(parent, Tensor):
                parent.grad = pg if parent.grad is None else parent.grad + pg
            elif parent is not None:
                key = id(parent)
                grads[key] = grads[key] + pg if key in grads else pg
