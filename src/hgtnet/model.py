"""The hybrid network: patch tokens through a transformer encoder in
parallel with a small CNN, fused by cross-attention, refined by graph
attention over the token grid, then pooled into classification and
rotation-prediction heads.

Parameters live in a flat ``dict[str, Tensor]`` so the optimizer and
checkpoint code can treat them uniformly.  Attention probability maps can
be captured through an optional ``capture`` dict for invariant checks; the
attention op itself never holds every head's map, so a capture rebuilds
them with ``tensor.attention_probs``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from decimal import Decimal

import numpy as np

from . import tensor as T
from .data import NUM_ROTATIONS
from .errors import ConfigError, ShapeError
from .rng import RngStream
from .tensor import Tensor

# the paper default has 1,065,513 parameters; with Adam's two moments each
# one costs 24 bytes, so the cap keeps a model near 3 GB
MAX_PARAMS = 2 ** 27


def check_cap(count: int, claim: str) -> None:
    """Raise ConfigError when ``count`` is above ``MAX_PARAMS``; ``claim``
    says what the count is, with ``{}`` where the count goes."""
    if count > MAX_PARAMS:
        raise ConfigError(f"{claim.format(f'{Decimal(count):.3e}')}; "
                          f"the limit is {Decimal(MAX_PARAMS):.3e}")


@dataclass
class ModelConfig:
    image_size: int = 224
    patch_size: int = 16
    embed_dim: int = 128
    num_heads: int = 4
    num_encoder_layers: int = 4
    mlp_ratio: float = 4.0
    cnn_channels: tuple[int, ...] = (16, 32, 64)
    dropout_p: float = 0.1
    num_classes: int = 5

    def __post_init__(self):
        self.cnn_channels = tuple(self.cnn_channels)
        for name in ("image_size", "patch_size", "embed_dim", "num_heads"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.image_size % self.patch_size:
            raise ConfigError(
                f"image_size {self.image_size} not divisible by patch_size {self.patch_size}")
        if self.embed_dim % self.num_heads:
            raise ConfigError(
                f"embed_dim {self.embed_dim} not divisible by num_heads {self.num_heads}")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ConfigError(f"dropout_p must be in [0, 1), got {self.dropout_p}")
        if self.num_encoder_layers < 1:
            raise ConfigError("num_encoder_layers must be >= 1")
        if not 0.0 < self.embed_dim * self.mlp_ratio < math.inf or self.mlp_hidden < 1:
            raise ConfigError(f"mlp_ratio must be finite and give at least one MLP "
                              f"hidden unit, got {self.mlp_ratio}")
        if not self.cnn_channels or min(self.cnn_channels) < 1:
            raise ConfigError(f"cnn_channels must be non-empty and each >= 1, "
                              f"got {self.cnn_channels}")
        if self.num_classes < 2:
            raise ConfigError("num_classes must be >= 2")
        # the pooling chain halves the spatial extent per CNN block
        extent = self.image_size
        for _ in self.cnn_channels:
            if extent < 2 or extent % 2:
                raise ConfigError(
                    f"image_size {self.image_size} cannot be halved "
                    f"{len(self.cnn_channels)} times by the CNN pooling chain")
            extent //= 2
        check_cap(param_count(self), "the model would have {} parameters")
        # per-image maps that grow with the token counts, not with the weights:
        # the probabilities each encoder layer and the cross-attention build
        # in the forward and again in the backward, plus the graph adjacency
        # and its attention map
        n = self.num_tokens
        check_cap(self.num_heads * n * (n * self.num_encoder_layers + extent * extent)
                  + 2 * n * n,
                  "the attention maps and graph adjacency would hold {} entries per image")
        # the first conv's forward builds its im2col columns and pools its
        # output in bands, but its backward builds the output's gradient at
        # once, and its columns one kernel row's 9 per pixel at a time
        # wherever the cap binds (all 27 only for an image small enough to
        # take the whole-width product); the cap counts one row's 9
        check_cap((3 + self.cnn_channels[0] + 3 * 3) * self.image_size ** 2,
                  "the input, first conv output and its im2col columns would hold "
                  "{} entries per image")

    @property
    def grid_size(self) -> int:
        return self.image_size // self.patch_size

    @property
    def num_tokens(self) -> int:
        return self.grid_size ** 2

    @property
    def mlp_hidden(self) -> int:
        return int(round(self.embed_dim * self.mlp_ratio))


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

def _uniform_init(rng: RngStream, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    bound = 1.0 / math.sqrt(fan_in)
    return (rng.uniform(int(np.prod(shape))) * 2.0 - 1.0).reshape(shape) * bound


def _param_spec(cfg: ModelConfig, encoder_layers: int | None = None
                ) -> dict[str, tuple[tuple[int, ...], int | str | None]]:
    """Name -> (shape, init) for every parameter, in creation order; init is
    a fan-in for a uniform weight, "ones", or None for zeros.
    ``encoder_layers`` overrides the config's depth."""
    d = cfg.embed_dim
    spec: dict[str, tuple[tuple[int, ...], int | str | None]] = {}

    spec["patch_embed.weight"] = ((d, 3, cfg.patch_size, cfg.patch_size),
                                  3 * cfg.patch_size ** 2)
    spec["patch_embed.bias"] = ((d,), None)
    spec["pos_embed"] = ((1, cfg.num_tokens, d), None)

    if encoder_layers is None:
        encoder_layers = cfg.num_encoder_layers
    for i in range(encoder_layers):
        p = f"enc{i}."
        spec[p + "ln1.gamma"] = ((d,), "ones")
        spec[p + "ln1.beta"] = ((d,), None)
        for name in ("wq", "wk", "wv", "wo"):
            spec[p + "attn." + name] = ((d, d), d)
        for name in ("bq", "bk", "bv", "bo"):
            spec[p + "attn." + name] = ((d,), None)
        spec[p + "ln2.gamma"] = ((d,), "ones")
        spec[p + "ln2.beta"] = ((d,), None)
        spec[p + "mlp.w1"] = ((d, cfg.mlp_hidden), d)
        spec[p + "mlp.b1"] = ((cfg.mlp_hidden,), None)
        spec[p + "mlp.w2"] = ((cfg.mlp_hidden, d), cfg.mlp_hidden)
        spec[p + "mlp.b2"] = ((d,), None)

    in_ch = 3
    for j, out_ch in enumerate(cfg.cnn_channels):
        spec[f"cnn{j}.weight"] = ((out_ch, in_ch, 3, 3), in_ch * 9)
        spec[f"cnn{j}.bias"] = ((out_ch,), None)
        in_ch = out_ch

    spec["cross.proj.w"] = ((cfg.cnn_channels[-1], d), cfg.cnn_channels[-1])
    spec["cross.proj.b"] = ((d,), None)
    for name in ("wq", "wk", "wv", "wo"):
        spec["cross.attn." + name] = ((d, d), d)
    for name in ("bq", "bk", "bv", "bo"):
        spec["cross.attn." + name] = ((d,), None)
    spec["cross.fuse.w"] = ((2 * d, d), 2 * d)
    spec["cross.fuse.b"] = ((d,), None)

    spec["gat.w"] = ((d, d), d)
    spec["gat.a_src"] = ((d, 1), d)
    spec["gat.a_dst"] = ((d, 1), d)

    spec["head.ln.gamma"] = ((d,), "ones")
    spec["head.ln.beta"] = ((d,), None)
    spec["head.w"] = ((d, cfg.num_classes), d)
    spec["head.b"] = ((cfg.num_classes,), None)
    spec["rot.w"] = ((d, NUM_ROTATIONS), d)
    spec["rot.b"] = ((NUM_ROTATIONS,), None)
    return spec


def param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """The name and shape of every parameter ``init_params`` creates, without
    drawing any random numbers."""
    return {name: shape for name, (shape, _) in _param_spec(cfg).items()}


def param_count(cfg: ModelConfig) -> int:
    """Number of scalar parameters, from one encoder layer's shapes so that
    the cost does not grow with the depth."""
    sizes = {name: math.prod(shape)
             for name, (shape, _) in _param_spec(cfg, encoder_layers=1).items()}
    per_layer = sum(n for name, n in sizes.items() if name.startswith("enc0."))
    return sum(sizes.values()) + (cfg.num_encoder_layers - 1) * per_layer


def init_params(cfg: ModelConfig, rng: RngStream) -> dict[str, Tensor]:
    """Seeded parameter dictionary: uniform +-1/sqrt(fan_in) weights, zero
    biases, zero positional embedding, unit layer-norm gains."""
    params: dict[str, Tensor] = {}
    for name, (shape, fan_in) in _param_spec(cfg).items():
        if fan_in == "ones":
            data = np.ones(shape)
        elif fan_in is None:
            data = np.zeros(shape)
        else:
            data = _uniform_init(rng.derive("init", name), shape, fan_in)
            if name in ("head.w", "rot.w"):
                # small readout: layer-normed features have unit second
                # moment, so 1/sqrt(fan_in) output weights would start the
                # classifier at CE well above ln K; shrinking only the two
                # output heads keeps the initial loss near the uninformed
                # baseline while gradients still flow end to end
                data = data * 0.1
        params[name] = Tensor(data, requires_grad=True)
    return params


# ---------------------------------------------------------------------------
# blocks
# ---------------------------------------------------------------------------

def patch_embed(x: Tensor, cfg: ModelConfig, params: dict[str, Tensor]) -> Tensor:
    """Non-overlapping patches via a strided convolution, flattened row-major
    into B x N x d tokens, plus the learned positional embedding."""
    if x.ndim != 4 or x.shape[1] != 3:
        raise ShapeError(f"expected B x 3 x H x W input, got {x.shape}")
    B, _, H, W = x.shape
    if H != cfg.image_size or W != cfg.image_size:
        raise ShapeError(f"input {H}x{W} does not match configured image size {cfg.image_size}")
    g = cfg.grid_size
    out = T.conv2d(x, params["patch_embed.weight"], params["patch_embed.bias"],
                   stride=cfg.patch_size, padding=0)       # B x d x g x g
    tokens = T.transpose(T.reshape(out, (B, cfg.embed_dim, g * g)), (0, 2, 1))
    return tokens + params["pos_embed"]


def attention(q_tokens: Tensor, kv_tokens: Tensor, heads: int,
              params: dict[str, Tensor], prefix: str,
              capture: dict | None = None) -> Tensor:
    """Scaled dot-product attention with separate query and key/value token
    sets; ``q_tokens is kv_tokens`` gives self-attention.  ``capture`` keeps
    P, rebuilt with the forward's steps, under the prefix without its
    trailing dot (``enc0.attn``)."""
    q = T.linear(q_tokens, params[prefix + "wq"], params[prefix + "bq"])
    k = T.linear(kv_tokens, params[prefix + "wk"], params[prefix + "bk"])
    v = T.linear(kv_tokens, params[prefix + "wv"], params[prefix + "bv"])
    ctx = T.attention(q, k, v, heads)
    if capture is not None:
        capture[prefix[:-1]] = T.attention_probs(q, k, heads)   # B x h x Nq x Nk
    return T.linear(ctx, params[prefix + "wo"], params[prefix + "bo"])


def transformer_encoder(tokens: Tensor, cfg: ModelConfig, params: dict[str, Tensor],
                        rngs: list[RngStream] | None = None,
                        capture: dict | None = None) -> Tensor:
    """Stack of pre-norm blocks: x += drop(attn(ln(x))); x += drop(mlp(ln(x)))."""
    x = tokens
    for i in range(cfg.num_encoder_layers):
        p = f"enc{i}."
        h = T.layer_norm(x, params[p + "ln1.gamma"], params[p + "ln1.beta"])
        a = attention(h, h, cfg.num_heads, params, p + "attn.", capture)
        x = x + T.dropout(a, cfg.dropout_p, rngs)
        h = T.layer_norm(x, params[p + "ln2.gamma"], params[p + "ln2.beta"])
        m = T.linear(h, params[p + "mlp.w1"], params[p + "mlp.b1"])
        m = T.gelu_linear(m, params[p + "mlp.w2"], params[p + "mlp.b2"])
        x = x + T.dropout(m, cfg.dropout_p, rngs)
    return x


def cnn_branch(x: Tensor, cfg: ModelConfig, params: dict[str, Tensor],
               rngs: list[RngStream] | None = None) -> Tensor:
    """conv(3x3, pad 1) -> max_pool(2,2) -> dropout per channel stage.

    The conv and the pool are one ``conv2d(..., pool=True)`` record, which
    pools each band of the conv's output as it is made, so no stage builds
    its full-resolution conv map.  The pool floors its maxima at 0, which
    gives the same outputs and parameter gradients as the usual conv ->
    relu -> pool order (ReLU is monotone, and a window whose maximum is
    <= 0 passes no gradient either way) without a ReLU record or output of
    its own."""
    if x.shape[-1] != cfg.image_size or x.shape[-2] != cfg.image_size:
        raise ShapeError(f"input {x.shape} does not match image size {cfg.image_size}")
    out = x
    for j in range(len(cfg.cnn_channels)):
        out = T.conv2d(out, params[f"cnn{j}.weight"], params[f"cnn{j}.bias"], padding=1,
                       pool=True)
        out = T.dropout(out, cfg.dropout_p, rngs)
    return out


def cross_attention_fuse(cnn_feat: Tensor, enc_tokens: Tensor, cfg: ModelConfig,
                         params: dict[str, Tensor], capture: dict | None = None) -> Tensor:
    """Flatten the CNN map into tokens, project to the embed width, attend
    with encoder tokens as queries, then fuse the attended context with the
    encoder tokens through the concatenation + linear layer."""
    B, C, h, w = cnn_feat.shape
    cnn_tokens = T.transpose(T.reshape(cnn_feat, (B, C, h * w)), (0, 2, 1))
    cnn_tokens = T.linear(cnn_tokens, params["cross.proj.w"], params["cross.proj.b"])
    ctx = attention(enc_tokens, cnn_tokens, cfg.num_heads, params, "cross.attn.", capture)
    both = T.concat([enc_tokens, ctx], axis=2)
    return T.linear(both, params["cross.fuse.w"], params["cross.fuse.b"])


@functools.lru_cache(maxsize=None)
def build_graph(grid: int) -> np.ndarray:
    """The N x N adjacency of the ``grid`` x ``grid`` token grid, tokens in
    row-major order: tokens whose rows and whose columns each differ by at
    most 1 are adjacent, so it is the 8-neighborhood plus self-loops
    (cached per grid: read-only)."""
    row, col = np.divmod(np.arange(grid * grid), grid)
    adj = (np.abs(row[:, None] - row) <= 1) & (np.abs(col[:, None] - col) <= 1)
    adj.flags.writeable = False
    return adj


def graph_attention(nodes: Tensor, adjacency: np.ndarray, params: dict[str, Tensor],
                    capture: dict | None = None) -> Tensor:
    """Additive-score attention over the neighborhood structure:
    score(i,j) = leaky_relu(a_src . Wh_i + a_dst . Wh_j) for adjacent pairs,
    normalized per neighborhood; non-edges get weight exactly zero.  The
    N x N boolean adjacency is symmetric with every self-loop, as
    ``build_graph``'s is."""
    h = T.matmul(nodes, params["gat.w"])                             # B x N x d
    src = T.matmul(h, params["gat.a_src"])                           # B x N x 1
    dst = T.transpose(T.matmul(h, params["gat.a_dst"]), (0, 2, 1))   # B x 1 x N
    scores = T.leaky_relu(src + dst)                                 # B x N x N
    alpha = T.softmax(scores, mask=adjacency[None, :, :])
    if capture is not None:
        capture["gat.attn"] = alpha.data.copy()
    out = T.matmul(alpha, h)
    return T.leaky_relu(out)


def global_average_pool(nodes: Tensor) -> Tensor:
    if nodes.shape[1] < 1:
        raise ShapeError("cannot pool over zero tokens")
    return T.tmean(nodes)


def classify_head(pooled: Tensor, cfg: ModelConfig, params: dict[str, Tensor],
                  rngs: list[RngStream] | None = None) -> Tensor:
    h = T.layer_norm(pooled, params["head.ln.gamma"], params["head.ln.beta"])
    h = T.dropout(h, cfg.dropout_p, rngs)
    return T.linear(h, params["head.w"], params["head.b"])


def rotation_head(pooled: Tensor, params: dict[str, Tensor]) -> Tensor:
    return T.linear(pooled, params["rot.w"], params["rot.b"])


def model_forward(x: Tensor, cfg: ModelConfig, params: dict[str, Tensor],
                  rngs: list[RngStream] | None = None,
                  capture: dict | None = None,
                  head: str | None = None) -> tuple[Tensor | None, Tensor | None]:
    """Full pass: returns (class logits B x K, rotation logits B x 4).

    A pass given ``rngs``, one stream per image (row of x) that all of that
    image's dropout masks are drawn from, is a training pass.  Without them
    dropout is the identity, and the pass is a pure function of (x, params).
    ``head`` "class" or "rotation" builds only that head, for a loss that
    reads only its logits, and gives None in the other's place.  The class
    head's dropout is the last draw of each image's stream, so leaving it
    out moves no other mask.
    """
    tokens = patch_embed(x, cfg, params)
    enc = transformer_encoder(tokens, cfg, params, rngs, capture)
    feat = cnn_branch(x, cfg, params, rngs)
    fused = cross_attention_fuse(feat, enc, cfg, params, capture)
    nodes = graph_attention(fused, build_graph(cfg.grid_size), params, capture)
    pooled = global_average_pool(nodes)
    return (None if head == "rotation" else classify_head(pooled, cfg, params, rngs),
            None if head == "class" else rotation_head(pooled, params))


# the desk-scale fields of the --tiny preset; the rest keep their defaults
TINY_PRESET = dict(patch_size=16, embed_dim=8, num_heads=2, num_encoder_layers=1,
                   mlp_ratio=2.0, cnn_channels=(4,), dropout_p=0.0)


def tiny_config(**overrides) -> ModelConfig:
    """Small 32 px configuration for gradient checks and fast tests."""
    return ModelConfig(**{**TINY_PRESET, "image_size": 32, **overrides})
