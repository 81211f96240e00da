"""A plain-numpy forward of the whole hybrid model, from its parameter
arrays alone: the oracle that ``hgtnet.model.model_forward`` is held to at
the scales where the engine's fast paths run (the patch embedding's one
product, the banded and pooled convs, the attention built head by head),
in eval mode and, given one dropout stream per image, in training mode.

Each block is written the plain way from the parameter layout: every patch
is its own product, every 3 x 3 conv sums nine shifted products, ReLU
comes before the 2 x 2 max pool, attention builds each head's dense
softmax, graph attention takes a dense softmax masked by
``graph_reference``'s grid adjacency, and layer norm and GELU are their
formulas.  Each dropout mask is the next ``keep_mask`` draws of its
image's stream, in the model's order: the encoder's masks, layer by layer
(attention, then MLP), the CNN stages' and last the class head's.  From
the package it takes only the config.

Nothing in ``src/`` imports this module.
"""

from __future__ import annotations

import numpy as np

from graph_reference import grid_adjacency
from hgtnet.model import ModelConfig

LAYER_NORM_EPS = 1e-5
GAT_SLOPE = 0.2  # graph attention's leaky ReLU, as in GAT


def layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray) -> np.ndarray:
    mean = x.mean(axis=-1, keepdims=True)
    var = ((x - mean) ** 2).mean(axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + LAYER_NORM_EPS) * gamma + beta


def gelu(v: np.ndarray) -> np.ndarray:
    """The tanh form."""
    return 0.5 * v * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (v + 0.044715 * v ** 3)))


def leaky_relu(v: np.ndarray) -> np.ndarray:
    return np.where(v > 0.0, v, GAT_SLOPE * v)


def softmax(s: np.ndarray) -> np.ndarray:
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def patch_tokens(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(B, N, d): one token per P x P patch, the patches in row-major order."""
    _, _, H, W = x.shape
    P = w.shape[2]
    return np.stack([np.einsum("bcuv,dcuv->bd", x[:, :, i:i + P, j:j + P], w) + b
                     for i in range(0, H, P) for j in range(0, W, P)], axis=1)


def attention(q_tokens: np.ndarray, kv_tokens: np.ndarray, heads: int,
              p: dict[str, np.ndarray], prefix: str) -> np.ndarray:
    q = q_tokens @ p[prefix + "wq"] + p[prefix + "bq"]
    k = kv_tokens @ p[prefix + "wk"]
    v = kv_tokens @ p[prefix + "wv"] + p[prefix + "bv"]
    hd = q.shape[2] // heads
    out = np.empty_like(q)
    for h in range(heads):
        cols = slice(h * hd, (h + 1) * hd)
        probs = softmax(q[:, :, cols] @ k[:, :, cols].transpose(0, 2, 1) / np.sqrt(hd))
        out[:, :, cols] = probs @ v[:, :, cols]
    return out @ p[prefix + "wo"] + p[prefix + "bo"]


def dropout(v: np.ndarray, rate: float, rngs: list | None) -> np.ndarray:
    """Inverted dropout of the (B, ...) array ``v``: image b keeps the
    entries where the next ``keep_mask`` draws of ``rngs[b]`` say so,
    scaled by 1 / (1 - rate); the identity without streams."""
    if rngs is None or rate == 0.0:
        return v
    keep = np.stack([r.keep_mask(v[0].size, rate).reshape(v.shape[1:]) for r in rngs])
    return v * keep / (1.0 - rate)


def conv_relu_pool(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A 3 x 3 conv at stride 1 over a zero padding of 1, as nine shifted
    products, then ReLU, then the maxima of 2 x 2 windows at stride 2."""
    B, _, H, W = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    out = np.zeros((B, w.shape[0], H, W)) + b[:, None, None]
    for u in range(3):
        for v in range(3):
            out += np.einsum("bchw,fc->bfhw", xp[:, :, u:u + H, v:v + W], w[:, :, u, v])
    out = np.maximum(out, 0.0)
    return out.reshape(B, -1, H // 2, 2, W // 2, 2).max(axis=(3, 5))


def reference_forward(x: np.ndarray, cfg: ModelConfig, p: dict[str, np.ndarray],
                      rngs: list | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(class logits B x K, rotation logits B x 4) of the forward of the
    (B, 3, H, W) images ``x`` under the parameter arrays ``p``: with
    ``rngs``, one dropout stream per image, a training forward, else an eval
    forward."""
    tokens = patch_tokens(x, p["patch_embed.weight"], p["patch_embed.bias"]) + p["pos_embed"]
    for i in range(cfg.num_encoder_layers):
        e = f"enc{i}."
        h = layer_norm(tokens, p[e + "ln1.gamma"], p[e + "ln1.beta"])
        tokens = tokens + dropout(attention(h, h, cfg.num_heads, p, e + "attn."),
                                  cfg.dropout_p, rngs)
        h = layer_norm(tokens, p[e + "ln2.gamma"], p[e + "ln2.beta"])
        hidden = gelu(h @ p[e + "mlp.w1"] + p[e + "mlp.b1"])
        tokens = tokens + dropout(hidden @ p[e + "mlp.w2"] + p[e + "mlp.b2"],
                                  cfg.dropout_p, rngs)

    feat = x
    for j in range(len(cfg.cnn_channels)):
        feat = dropout(conv_relu_pool(feat, p[f"cnn{j}.weight"], p[f"cnn{j}.bias"]),
                       cfg.dropout_p, rngs)
    B, C = feat.shape[:2]
    cnn_tokens = feat.reshape(B, C, -1).transpose(0, 2, 1) @ p["cross.proj.w"] + p["cross.proj.b"]
    ctx = attention(tokens, cnn_tokens, cfg.num_heads, p, "cross.attn.")
    fused = np.concatenate([tokens, ctx], axis=2) @ p["cross.fuse.w"] + p["cross.fuse.b"]

    h = fused @ p["gat.w"]
    scores = leaky_relu(h @ p["gat.a_src"] + (h @ p["gat.a_dst"]).transpose(0, 2, 1))
    adjacency = grid_adjacency(cfg.grid_size, cfg.grid_size)
    nodes = leaky_relu(softmax(np.where(adjacency, scores, -np.inf)) @ h)

    pooled = nodes.mean(axis=1)
    h = dropout(layer_norm(pooled, p["head.ln.gamma"], p["head.ln.beta"]), cfg.dropout_p, rngs)
    logits = h @ p["head.w"] + p["head.b"]
    return logits, pooled @ p["rot.w"] + p["rot.b"]
