import tracemalloc

import numpy as np
import pytest

from graph_reference import grid_adjacency
from hgtnet import model
from hgtnet import tensor as T
from hgtnet.data import NUM_ROTATIONS
from hgtnet.errors import ConfigError, ShapeError
from hgtnet.gradcheck import check_gradients
from hgtnet.model import (MAX_PARAMS, ModelConfig, attention, build_graph,
                          classify_head, cnn_branch, cross_attention_fuse, global_average_pool,
                          graph_attention, init_params,
                          model_forward, param_count, param_shapes, patch_embed,
                          rotation_head, tiny_config, transformer_encoder)
from hgtnet.rng import RngStream
from hgtnet.tensor import Tensor
from hgtnet.training import combined_loss
from model_reference import reference_forward
from test_tensor_ops import conv2d_keeping_cols


def _moved_off_init(cfg):
    """Seeded parameters, each moved 0.05 of a normal draw off its init, so
    that no zero bias, positional embedding or unit gain hides a slip."""
    params = init_params(cfg, RngStream(seed=41))
    moves = RngStream(seed=42)
    for name, t in params.items():
        t.data += 0.05 * moves.derive(name).normal(t.size).reshape(t.shape)
    return params


def _zero_params(params, keep_gamma=True):
    for name, t in params.items():
        if keep_gamma and name.endswith("gamma"):
            continue
        t.data[...] = 0.0
    return params


# a 64 x 64 token grid whose CNN map is 64 x 64 as well, just under the
# token-map cap with 2 heads and 1 encoder layer
_AT_THE_CAP = dict(image_size=1024, patch_size=16, embed_dim=8, num_heads=2,
                   num_encoder_layers=1, cnn_channels=(4,) * 4)


class TestModelConfig:
    def test_defaults(self):
        cfg = ModelConfig()
        assert cfg.image_size == 224 and cfg.patch_size == 16
        assert cfg.embed_dim == 128 and cfg.num_heads == 4
        assert cfg.num_encoder_layers == 4 and cfg.mlp_ratio == 4.0
        assert cfg.cnn_channels == (16, 32, 64)
        assert cfg.dropout_p == 0.1 and cfg.num_classes == 5
        assert cfg.num_tokens == 196 and cfg.grid_size == 14

    def test_divisibility_enforced(self):
        with pytest.raises(ConfigError):
            ModelConfig(image_size=225)
        with pytest.raises(ConfigError):
            ModelConfig(embed_dim=130)

    def test_pool_chain_guard(self):
        # 24 halves to 12 then 6 then 3: a fourth block cannot pool
        with pytest.raises(ConfigError):
            ModelConfig(image_size=24, patch_size=8, cnn_channels=(4, 4, 4, 4))

    def test_rotation_head_has_one_logit_per_quarter_turn(self):
        shapes = param_shapes(ModelConfig())
        assert NUM_ROTATIONS == 4
        assert shapes["rot.w"] == (128, NUM_ROTATIONS) and shapes["rot.b"] == (NUM_ROTATIONS,)

    @pytest.mark.parametrize("layers", [1, 2, 5])
    def test_param_count_matches_shapes(self, layers):
        for cfg in (ModelConfig(num_encoder_layers=layers), tiny_config(num_encoder_layers=layers)):
            sizes = [int(np.prod(shape)) for shape in param_shapes(cfg).values()]
            assert param_count(cfg) == sum(sizes)
        assert param_count(ModelConfig()) == 1_064_873
        assert not [n for n in param_shapes(ModelConfig()) if n.endswith("attn.bk")]

    @pytest.mark.parametrize("kwargs", [
        # 8.4 M parameters, but a 1024^2 x 1024^2 adjacency
        dict(image_size=16384, patch_size=16, embed_dim=8, num_heads=2),
        # 4096 encoder tokens attend over 2048^2 CNN tokens
        dict(image_size=4096, patch_size=64, embed_dim=8, num_heads=2, cnn_channels=(4,)),
        # a 108 x 108 token grid: 11664^2 > 2^27 adjacency entries
        dict(image_size=1728, patch_size=16, embed_dim=8, num_heads=2,
             cnn_channels=(4,) * 6),
        # the config accepted below, with twice the heads
        dict(_AT_THE_CAP, num_heads=4),
        # ... or with four encoder layers
        dict(_AT_THE_CAP, num_encoder_layers=4)])
    def test_token_maps_above_the_cap_rejected(self, kwargs):
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="attention maps and graph adjacency"):
                ModelConfig(**kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_token_maps_at_the_cap_accepted(self):
        cfg = ModelConfig(**_AT_THE_CAP)
        n, e2 = cfg.num_tokens, 64 ** 2
        # 2 heads x 4096 queries over 4096 encoder + 4096 CNN keys, plus
        # the adjacency and the graph attention map
        assert 2 * n * (n + e2) + 2 * n * n <= MAX_PARAMS < 4 * n * (n + e2) + 2 * n * n

    def test_image_arrays_at_the_cap_accepted(self):
        # one CNN stage of 5 channels: 17 entries per pixel, and a single
        # token, so only the image arrays come near the cap
        def config(size):
            return ModelConfig(image_size=size, patch_size=size, embed_dim=1, num_heads=1,
                               cnn_channels=(5,))
        assert 17 * 2808 ** 2 <= MAX_PARAMS < 17 * 2810 ** 2
        assert config(2808).image_size == 2808
        with pytest.raises(ConfigError, match="im2col columns"):
            config(2810)

    @pytest.mark.parametrize("name", ["image_size", "patch_size", "embed_dim", "num_heads"])
    def test_zero_extent_rejected(self, name):
        with pytest.raises(ConfigError, match=name):
            ModelConfig(**{name: 0})


class TestPatchEmbed:
    def test_default_token_count(self):
        cfg = ModelConfig()
        params = init_params(cfg, RngStream(seed=1))
        x = Tensor(RngStream(seed=2).normal(1 * 3 * 224 * 224).reshape(1, 3, 224, 224))
        assert patch_embed(x, cfg, params).shape == (1, 196, 128)

    def test_32_with_patch_16_gives_2x2(self):
        cfg = tiny_config()
        params = init_params(cfg, RngStream(seed=3))
        x = Tensor(np.zeros((2, 3, 32, 32)))
        assert patch_embed(x, cfg, params).shape == (2, 4, 8)
        assert cfg.grid_size == 2

    def test_zero_input_gives_bias_tokens(self):
        cfg = tiny_config()
        params = init_params(cfg, RngStream(seed=4))
        params["pos_embed"].data[...] = 0.0
        bias = RngStream(seed=5).normal(cfg.embed_dim)
        params["patch_embed.bias"].data[...] = bias
        tokens = patch_embed(Tensor(np.zeros((1, 3, 32, 32))), cfg, params)
        assert np.allclose(tokens.data, bias[None, None, :])

    def test_positional_embedding_added(self):
        cfg = tiny_config()
        params = init_params(cfg, RngStream(seed=6))
        x = Tensor(RngStream(seed=7).normal(1 * 3 * 32 * 32).reshape(1, 3, 32, 32))
        base = patch_embed(x, cfg, params).data
        params["pos_embed"].data[...] = 1.0
        shifted = patch_embed(x, cfg, params).data
        assert np.allclose(shifted, base + 1.0)

    def test_wrong_size_rejected(self):
        cfg = tiny_config()
        params = init_params(cfg, RngStream(seed=8))
        with pytest.raises(ShapeError):
            patch_embed(Tensor(np.zeros((1, 3, 16, 16))), cfg, params)


def _attn_params(d, seed, zero_bias=True):
    rng = RngStream(seed=seed)
    params = {}
    for i, name in enumerate(("wq", "wk", "wv", "wo")):
        params["attn." + name] = Tensor(rng.derive(name).normal(d * d).reshape(d, d) / np.sqrt(d),
                                        requires_grad=True)
    for name in ("bq", "bv", "bo"):
        params["attn." + name] = Tensor(np.zeros(d), requires_grad=True)
    if not zero_bias:
        for name in ("bq", "bv", "bo"):
            params["attn." + name].data[...] = rng.derive(name).normal(d) * 0.1
    return params


class TestSelfAttention:
    def test_single_token_passthrough(self):
        d = 6
        params = _attn_params(d, seed=10)
        tokens = Tensor(RngStream(seed=11).normal(d).reshape(1, 1, d))
        out = attention(tokens, tokens, 2, params, "attn.")
        v = tokens.data @ params["attn.wv"].data
        expected = v @ params["attn.wo"].data
        assert np.allclose(out.data, expected, atol=1e-12)

    def test_identical_tokens_uniform_rows(self):
        d, n = 8, 5
        params = _attn_params(d, seed=12, zero_bias=False)
        one = RngStream(seed=13).normal(d)
        tokens = Tensor(np.tile(one, (1, n, 1)))
        capture = {}
        attention(tokens, tokens, 2, params, "attn.", capture)
        assert np.allclose(capture["attn"], 1.0 / n, atol=1e-12)

    def test_rows_sum_to_one(self):
        d, n = 8, 7
        params = _attn_params(d, seed=14)
        tokens = Tensor(RngStream(seed=15).normal(3 * n * d).reshape(3, n, d))
        capture = {}
        attention(tokens, tokens, 4, params, "attn.", capture)
        assert np.allclose(capture["attn"].sum(axis=-1), 1.0, atol=1e-12)

    def test_single_head_dense_oracle(self):
        # B=1, N=3, d=4: every intermediate written out with plain numpy
        d, n = 4, 3
        params = _attn_params(d, seed=16, zero_bias=False)
        x = RngStream(seed=17).normal(n * d).reshape(1, n, d)
        tokens = Tensor(x)
        out = attention(tokens, tokens, 1, params, "attn.").data

        q = x @ params["attn.wq"].data + params["attn.bq"].data
        k = x @ params["attn.wk"].data
        v = x @ params["attn.wv"].data + params["attn.bv"].data
        scores = q[0] @ k[0].T / np.sqrt(d)
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        alpha = e / e.sum(axis=-1, keepdims=True)
        expected = (alpha @ v[0]) @ params["attn.wo"].data + params["attn.bo"].data
        assert np.allclose(out[0], expected, atol=1e-10)

    def test_indivisible_heads_rejected(self):
        params = _attn_params(6, seed=18)
        tokens = Tensor(np.zeros((1, 2, 6)))
        with pytest.raises(ConfigError):
            attention(tokens, tokens, 4, params, "attn.")


class TestTransformerEncoder:
    def test_zero_weights_pass_through(self):
        cfg = tiny_config()
        params = _zero_params(init_params(cfg, RngStream(seed=20)))
        x = Tensor(RngStream(seed=21).normal(2 * 4 * 8).reshape(2, 4, 8))
        out = transformer_encoder(x, cfg, params)
        assert np.array_equal(out.data, x.data)

    def test_shape_contract(self):
        cfg = tiny_config()
        params = init_params(cfg, RngStream(seed=22))
        for b, n in ((1, 4), (3, 4)):
            x = Tensor(np.zeros((b, n, cfg.embed_dim)))
            assert transformer_encoder(x, cfg, params).shape == (b, n, cfg.embed_dim)

    def test_gradcheck_one_block(self):
        cfg = ModelConfig(image_size=32, patch_size=16, embed_dim=8, num_heads=2,
                          num_encoder_layers=1, mlp_ratio=2.0, cnn_channels=(4,),
                          dropout_p=0.0)
        params = init_params(cfg, RngStream(seed=23))
        enc_names = [n for n in params if n.startswith("enc0.")]
        tensors = [params[n] for n in enc_names]
        x = Tensor(RngStream(seed=24).normal(1 * 4 * 8).reshape(1, 4, 8))
        w = Tensor(RngStream(seed=25).normal(1 * 4 * 8).reshape(1, 4, 8))

        def build(_):
            return T.tsum(transformer_encoder(x, cfg, params) * w)

        assert check_gradients(build, tensors) < 1e-4


class TestCnnBranch:
    def test_default_geometry(self):
        cfg = ModelConfig()
        params = init_params(cfg, RngStream(seed=30))
        x = Tensor(RngStream(seed=31).normal(1 * 3 * 224 * 224).reshape(1, 3, 224, 224))
        out = cnn_branch(x, cfg, params)
        assert out.shape == (1, 64, 28, 28)

    def test_zero_weights_zero_output(self):
        cfg = tiny_config()
        params = _zero_params(init_params(cfg, RngStream(seed=32)))
        x = Tensor(RngStream(seed=33).normal(1 * 3 * 32 * 32).reshape(1, 3, 32, 32))
        assert np.array_equal(cnn_branch(x, cfg, params).data, np.zeros((1, 4, 16, 16)))

    def test_single_block_matches_loop_oracle(self):
        cfg = ModelConfig(image_size=8, patch_size=8, embed_dim=8, num_heads=2,
                          num_encoder_layers=1, cnn_channels=(2,), dropout_p=0.0)
        params = init_params(cfg, RngStream(seed=34))
        ramp = np.arange(3 * 8 * 8, dtype=np.float64).reshape(1, 3, 8, 8) / 100.0
        out = cnn_branch(Tensor(ramp), cfg, params).data

        w = params["cnn0.weight"].data
        b = params["cnn0.bias"].data
        padded = np.pad(ramp, ((0, 0), (0, 0), (1, 1), (1, 1)))
        conv = np.zeros((1, 2, 8, 8))
        for f in range(2):
            for r in range(8):
                for c in range(8):
                    conv[0, f, r, c] = (padded[0, :, r:r + 3, c:c + 3] * w[f]).sum() + b[f]
        conv = np.maximum(conv, 0.0)
        pooled = np.zeros((1, 2, 4, 4))
        for r in range(4):
            for c in range(4):
                pooled[:, :, r, c] = conv[:, :, 2 * r:2 * r + 2, 2 * c:2 * c + 2].max(axis=(2, 3))
        assert np.allclose(out, pooled, atol=1e-12)

    def test_odd_extent_rejected(self):
        cfg = tiny_config()
        params = init_params(cfg, RngStream(seed=35))
        with pytest.raises(ShapeError):
            cnn_branch(Tensor(np.zeros((1, 3, 30, 30))), cfg, params)

    @pytest.mark.parametrize("training", [False, True])
    def test_pool_before_relu_matches_relu_before_pool_bitwise(self, training):
        cfg = tiny_config(image_size=16, cnn_channels=(4, 6), dropout_p=0.25)
        params = init_params(cfg, RngStream(seed=36))
        # negative biases and flat image regions: many windows tie at 0 after
        # the ReLU, and many have a maximum <= 0
        params["cnn0.bias"].data[:] = [-0.4, -0.1, 0.0, 0.2]
        params["cnn1.bias"].data[:] = [-0.3, -0.2, -0.1, 0.0, 0.1, 0.2]
        rng = RngStream(seed=37)
        x = rng.derive("x").normal(3 * 3 * 16 * 16).reshape(3, 3, 16, 16)
        x[0] = 0.0
        x[1, :, 4:12, 2:10] = 0.5
        g = rng.derive("g").normal(3 * 6 * 4 * 4).reshape(3, 6, 4, 4)

        def run(branch):
            for p in params.values():
                p.zero_grad()
            # streams make it a training pass, with dropout
            rngs = [RngStream(seed=38).derive(i) for i in range(3)] if training else None
            out = branch(Tensor(x), cfg, params, rngs)
            T.backward(T.tsum(out * g))
            return out.data, {n: p.grad for n, p in params.items() if n.startswith("cnn")}

        def relu(x):  # max(x, 0), with gradient g where x > 0
            data = np.maximum(x.data, 0.0)
            return T._make(data, "relu", (x,), lambda g: (g * (data > 0.0),))

        def conv(x, w, b):  # the unpooled 3 x 3 conv, from the kept columns
            args = (x.data, w.data, b.data, 1, 1)
            data = conv2d_keeping_cols(*args, np.zeros(x.shape[:1] + b.shape + x.shape[2:]))[0]
            return T._make(data, "conv", (x, w, b), lambda g: conv2d_keeping_cols(*args, g)[1:])

        def relu_first(x, cfg, params, rngs):
            out = x
            for j in range(len(cfg.cnn_channels)):
                out = conv(out, params[f"cnn{j}.weight"], params[f"cnn{j}.bias"])
                out = T.max_pool2d(relu(out))
                out = T.dropout(out, cfg.dropout_p, rngs)
            return out

        out, grads = run(cnn_branch)
        ref_out, ref_grads = run(relu_first)
        assert (out == 0.0).mean() > 0.2
        assert out.tobytes() == ref_out.tobytes()
        assert grads.keys() == ref_grads.keys()
        for name in grads:
            assert grads[name].tobytes() == ref_grads[name].tobytes(), name


class TestCrossAttentionFuse:
    def test_zero_queries_attend_uniformly(self):
        cfg = tiny_config(num_heads=1)
        params = init_params(cfg, RngStream(seed=40))
        # identity value/output paths make the attended rows easy to predict
        params["cross.attn.wv"].data[...] = np.eye(cfg.embed_dim)
        params["cross.attn.wo"].data[...] = np.eye(cfg.embed_dim)
        cnn_feat = Tensor(RngStream(seed=41).normal(1 * 4 * 4 * 4).reshape(1, 4, 4, 4))
        enc = Tensor(np.zeros((1, 4, cfg.embed_dim)))
        capture = {}
        out = cross_attention_fuse(cnn_feat, enc, cfg, params, capture=capture)
        assert np.allclose(capture["cross.attn"], 1.0 / 16, atol=1e-12)
        proj = (cnn_feat.data.reshape(1, 4, 16).transpose(0, 2, 1)
                @ params["cross.proj.w"].data + params["cross.proj.b"].data)
        ctx = proj.mean(axis=1, keepdims=True)  # uniform attention over 16 tokens
        both = np.concatenate([enc.data, np.tile(ctx, (1, 4, 1))], axis=2)
        expected = both @ params["cross.fuse.w"].data + params["cross.fuse.b"].data
        assert np.allclose(out.data, expected, atol=1e-10)

    def test_zero_value_path_reduces_to_fusion_of_enc_only(self):
        cfg = tiny_config()
        params = init_params(cfg, RngStream(seed=42))
        params["cross.attn.wv"].data[...] = 0.0
        params["cross.attn.wo"].data[...] = 0.0
        cnn_feat = Tensor(np.zeros((2, 4, 4, 4)))
        enc = Tensor(RngStream(seed=43).normal(2 * 4 * 8).reshape(2, 4, 8))
        out = cross_attention_fuse(cnn_feat, enc, cfg, params)
        both = np.concatenate([enc.data, np.zeros_like(enc.data)], axis=2)
        expected = both @ params["cross.fuse.w"].data + params["cross.fuse.b"].data
        assert np.allclose(out.data, expected, atol=1e-12)

    def test_tiny_instance_dense_oracle(self):
        # N=2 encoder tokens, 2 CNN tokens (1x2 map), d=4, single head
        cfg = ModelConfig(image_size=32, patch_size=16, embed_dim=4, num_heads=1,
                          num_encoder_layers=1, cnn_channels=(3,), dropout_p=0.0)
        params = init_params(cfg, RngStream(seed=44))
        cnn_feat = Tensor(RngStream(seed=45).normal(1 * 3 * 1 * 2).reshape(1, 3, 1, 2))
        enc = Tensor(RngStream(seed=46).normal(1 * 2 * 4).reshape(1, 2, 4))
        out = cross_attention_fuse(cnn_feat, enc, cfg, params).data

        kv = (cnn_feat.data.reshape(1, 3, 2).transpose(0, 2, 1)
              @ params["cross.proj.w"].data + params["cross.proj.b"].data)[0]
        q = enc.data[0] @ params["cross.attn.wq"].data + params["cross.attn.bq"].data
        k = kv @ params["cross.attn.wk"].data
        v = kv @ params["cross.attn.wv"].data + params["cross.attn.bv"].data
        scores = q @ k.T / 2.0  # sqrt(d) = 2
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        alpha = e / e.sum(axis=-1, keepdims=True)
        ctx = alpha @ v @ params["cross.attn.wo"].data + params["cross.attn.bo"].data
        both = np.concatenate([enc.data[0], ctx], axis=1)
        expected = both @ params["cross.fuse.w"].data + params["cross.fuse.b"].data
        assert np.allclose(out[0], expected, atol=1e-10)

    def test_token_count_preserved(self):
        cfg = tiny_config()
        params = init_params(cfg, RngStream(seed=47))
        cnn_feat = Tensor(np.zeros((2, 4, 16, 16)))
        enc = Tensor(np.zeros((2, 4, 8)))
        assert cross_attention_fuse(cnn_feat, enc, cfg, params).shape == (2, 4, 8)


class TestGraph:
    def test_1x1_self_loop(self):
        adj = build_graph(1)
        assert adj.shape == (1, 1) and adj[0, 0]

    def test_2x2_complete(self):
        adj = build_graph(2)
        assert adj.all()

    def test_3x3_center_degree(self):
        adj = build_graph(3)
        assert adj[4].sum() == 9  # 8 neighbors + self
        assert adj[0].sum() == 4  # corner: 3 neighbors + self

    def test_symmetric_with_self_loops(self):
        adj = build_graph(5)
        assert np.array_equal(adj, adj.T)
        assert adj.diagonal().all()

    def test_adjacency_is_built_once_per_grid_and_read_only(self):
        adj = build_graph(3)
        assert build_graph(3) is adj
        assert build_graph(4) is not adj
        with pytest.raises(ValueError):
            adj[0, 0] = False
        assert adj[0, 0]

    def test_build_graph_is_the_token_grid(self):
        for grid in (1, 2, 3, 4, 14):
            adj = build_graph(grid)
            assert adj.dtype == bool
            assert np.array_equal(adj, grid_adjacency(grid, grid)), grid

    def test_model_attends_over_its_token_grid(self, monkeypatch):
        cfg = tiny_config(image_size=48)
        grids = []

        def spy(grid):
            grids.append(grid)
            return build_graph(grid)

        monkeypatch.setattr(model, "build_graph", spy)
        model_forward(Tensor(np.zeros((1, 3, 48, 48))), cfg,
                      init_params(cfg, RngStream(seed=49)))
        assert grids == [cfg.grid_size] == [3]


def _gat_params(d, seed):
    rng = RngStream(seed=seed)
    return {
        "gat.w": Tensor(rng.derive("w").normal(d * d).reshape(d, d) / np.sqrt(d),
                        requires_grad=True),
        "gat.a_src": Tensor(rng.derive("src").normal(d).reshape(d, 1), requires_grad=True),
        "gat.a_dst": Tensor(rng.derive("dst").normal(d).reshape(d, 1), requires_grad=True),
    }


class TestGraphAttention:
    def test_single_node(self):
        params = _gat_params(8, seed=50)
        nodes = Tensor(RngStream(seed=51).normal(8).reshape(1, 1, 8))
        out = graph_attention(nodes, np.ones((1, 1), dtype=bool), params)
        h = nodes.data @ params["gat.w"].data
        expected = np.where(h > 0, h, T.LEAKY_SLOPE * h)
        assert np.allclose(out.data, expected, atol=1e-12)

    def test_rows_sum_to_one_and_nonedges_zero(self):
        params = _gat_params(8, seed=52)
        nodes = Tensor(RngStream(seed=53).normal(2 * 12 * 8).reshape(2, 12, 8))
        adj = grid_adjacency(3, 4)
        capture = {}
        graph_attention(nodes, adj, params, capture=capture)
        alpha = capture["gat.attn"]
        assert np.allclose(alpha.sum(axis=-1), 1.0, atol=1e-12)
        assert (alpha[:, ~adj] == 0.0).all()

    def test_path_graph_masked_dense_oracle(self):
        d = 8
        params = _gat_params(d, seed=54)
        nodes = Tensor(RngStream(seed=55).normal(3 * d).reshape(1, 3, d))
        adj = grid_adjacency(1, 3)  # path: 0-1-2 with self loops
        out = graph_attention(nodes, adj, params).data

        slope = T.LEAKY_SLOPE
        h = nodes.data[0] @ params["gat.w"].data
        src = h @ params["gat.a_src"].data[:, 0]
        dst = h @ params["gat.a_dst"].data[:, 0]
        raw = src[:, None] + dst[None, :]
        raw = np.where(raw > 0, raw, slope * raw)
        alpha = np.zeros((3, 3))
        for i in range(3):
            nb = np.where(adj[i])[0]
            e = np.exp(raw[i, nb] - raw[i, nb].max())
            alpha[i, nb] = e / e.sum()
        expected = alpha @ h
        expected = np.where(expected > 0, expected, slope * expected)
        assert np.allclose(out[0], expected, atol=1e-10)

    def test_permutation_equivariance(self):
        d = 8
        params = _gat_params(d, seed=56)
        nodes = RngStream(seed=57).normal(2 * 6 * d).reshape(2, 6, d)
        adj = grid_adjacency(2, 3)
        base = graph_attention(Tensor(nodes), adj, params).data
        perm = np.array(RngStream(seed=58).shuffle(list(range(6))))
        permuted = graph_attention(Tensor(nodes[:, perm]), adj[np.ix_(perm, perm)],
                                   params).data
        assert np.allclose(permuted, base[:, perm], atol=1e-10)


class TestPoolAndHeads:
    def test_pool_identical_tokens(self):
        v = RngStream(seed=70).normal(6)
        nodes = Tensor(np.tile(v, (2, 5, 1)))
        assert np.allclose(global_average_pool(nodes).data, np.tile(v, (2, 1)), atol=1e-12)

    def test_pool_antisymmetric_tokens(self):
        v = RngStream(seed=71).normal(6)
        nodes = Tensor(np.stack([v, -v])[None])
        assert np.allclose(global_average_pool(nodes).data, 0.0, atol=1e-15)

    def test_pool_matches_direct_mean(self):
        nodes = RngStream(seed=72).normal(3 * 5 * 7).reshape(3, 5, 7)
        out = global_average_pool(Tensor(nodes)).data
        assert np.allclose(out, nodes.mean(axis=1), atol=1e-12)

    def test_classify_head_zero_weights_bias_logits(self):
        cfg = tiny_config()
        params = init_params(cfg, RngStream(seed=73))
        params["head.w"].data[...] = 0.0
        params["head.b"].data[...] = np.arange(5.0)
        out = classify_head(Tensor(RngStream(seed=74).normal(3 * 8).reshape(3, 8)), cfg, params)
        assert np.allclose(out.data, np.tile(np.arange(5.0), (3, 1)))

    def test_head_shapes(self):
        cfg = tiny_config()
        params = init_params(cfg, RngStream(seed=75))
        pooled = Tensor(np.zeros((4, 8)))
        assert classify_head(pooled, cfg, params).shape == (4, 5)
        assert rotation_head(pooled, params).shape == (4, 4)

    def test_classify_head_gradcheck(self):
        cfg = tiny_config()
        params = init_params(cfg, RngStream(seed=76))
        names = ["head.ln.gamma", "head.ln.beta", "head.w", "head.b"]
        pooled = Tensor(RngStream(seed=77).normal(2 * 8).reshape(2, 8))
        w = Tensor(RngStream(seed=78).normal(2 * 5).reshape(2, 5))

        def build(_):
            return T.tsum(classify_head(pooled, cfg, params) * w)

        assert check_gradients(build, [params[n] for n in names]) < 1e-4

    def test_rotation_head_reaches_backbone(self):
        cfg = tiny_config()
        params = init_params(cfg, RngStream(seed=79))
        x = Tensor(RngStream(seed=80).normal(1 * 3 * 32 * 32).reshape(1, 3, 32, 32))
        _, rot_logits = model_forward(x, cfg, params)
        T.backward(T.tsum(rot_logits * rot_logits))
        g = params["enc0.attn.wq"].grad
        assert g is not None and np.abs(g).max() > 0.0


class TestModelForward:
    def test_default_config_shapes(self):
        cfg = ModelConfig()
        params = init_params(cfg, RngStream(seed=90))
        x = Tensor(RngStream(seed=91).normal(2 * 3 * 224 * 224).reshape(2, 3, 224, 224))
        cls, rot = model_forward(x, cfg, params)
        assert cls.shape == (2, 5) and rot.shape == (2, 4)

    def test_eval_deterministic_bitwise(self):
        cfg = tiny_config()
        params = init_params(cfg, RngStream(seed=92))
        x = Tensor(RngStream(seed=93).normal(2 * 3 * 32 * 32).reshape(2, 3, 32, 32))
        a = model_forward(x, cfg, params)
        b = model_forward(x, cfg, params)
        assert a[0].data.tobytes() == b[0].data.tobytes()
        assert a[1].data.tobytes() == b[1].data.tobytes()

    def test_forward_without_rngs_runs_no_dropout(self):
        params = init_params(tiny_config(), RngStream(seed=94))
        x = Tensor(RngStream(seed=94).derive("x").normal(2 * 3 * 32 * 32).reshape(2, 3, 32, 32))
        plain = model_forward(x, tiny_config(dropout_p=0.0), params)
        no_rngs = model_forward(x, tiny_config(dropout_p=0.5), params)
        rngs = [RngStream(seed=94).derive("drop", i) for i in range(2)]
        dropped = model_forward(x, tiny_config(dropout_p=0.5), params, rngs=rngs)
        assert no_rngs[0].data.tobytes() == plain[0].data.tobytes()
        assert no_rngs[1].data.tobytes() == plain[1].data.tobytes()
        assert dropped[0].data.tobytes() != plain[0].data.tobytes()

    @pytest.mark.parametrize("head", ["class", "rotation"])
    def test_one_head_builds_only_records_its_logits_reach(self, monkeypatch, head):
        cfg = tiny_config(dropout_p=0.5)
        params = init_params(cfg, RngStream(seed=102))
        x = Tensor(RngStream(seed=103).normal(2 * 3 * 32 * 32).reshape(2, 3, 32, 32))

        def rngs():
            return [RngStream(seed=104).derive("drop", i) for i in range(2)]

        both = model_forward(x, cfg, params, rngs=rngs())
        built, make = [], T._make
        monkeypatch.setattr(T, "_make", lambda *args: built.append(make(*args)) or built[-1])
        logits = model_forward(x, cfg, params, rngs=rngs(), head=head)
        kept = 0 if head == "class" else 1
        assert logits[1 - kept] is None
        assert logits[kept].data.tobytes() == both[kept].data.tobytes()
        reached, stack = set(), [logits[kept].op_record]
        while stack:
            record = stack.pop()
            if isinstance(record, T.OpRecord) and id(record) not in reached:
                reached.add(id(record))
                stack.extend(record.parents)
        assert {id(t.op_record) for t in built} == reached

    def test_attention_capture_covers_all_three_families(self):
        cfg = tiny_config()
        params = init_params(cfg, RngStream(seed=95))
        x = Tensor(RngStream(seed=96).normal(1 * 3 * 32 * 32).reshape(1, 3, 32, 32))
        capture = {}
        model_forward(x, cfg, params, capture=capture)
        assert set(capture) == {"enc0.attn", "cross.attn", "gat.attn"}
        for key, alpha in capture.items():
            assert np.allclose(alpha.sum(axis=-1), 1.0, atol=1e-12), key

    def test_tiny_model_gradcheck_sampled(self):
        cfg = tiny_config()
        params = init_params(cfg, RngStream(seed=97))
        x = Tensor(RngStream(seed=98).normal(1 * 3 * 32 * 32).reshape(1, 3, 32, 32) * 0.5)
        wc = Tensor(RngStream(seed=99).normal(1 * 5).reshape(1, 5))
        wr = Tensor(RngStream(seed=100).normal(1 * 4).reshape(1, 4))

        def build(_):
            cls, rot = model_forward(x, cfg, params)
            return T.tsum(cls * wc) + T.tsum(rot * wr)

        err = check_gradients(build, list(params.values()), sample_per_param=3,
                              rng=RngStream(seed=101))
        assert err < 1e-3


class TestWholeModelReference:
    """``model_forward``'s logits against ``model_reference``'s plain numpy
    forward, at the scales where the engine's fast paths run, in eval mode
    and in training mode."""

    @staticmethod
    def check(cfg, batch, seed, drop_seed=None):
        """Both heads' logits of ``batch`` seeded images to 1e-12 of the
        largest; with ``drop_seed``, in training mode, each side given its
        own copies of the same dropout streams, of which both must draw
        every mask."""
        params = _moved_off_init(cfg)
        size = cfg.image_size
        x = RngStream(seed=seed).normal(batch * 3 * size * size).reshape(batch, 3, size, size)

        def streams():
            return None if drop_seed is None else \
                [RngStream(seed=drop_seed).derive("drop", i) for i in range(batch)]

        rngs, ref_rngs = streams(), streams()
        logits = model_forward(Tensor(x), cfg, params, rngs=rngs)
        ref = reference_forward(x, cfg, {name: t.data for name, t in params.items()}, ref_rngs)
        if rngs is not None:
            assert [r.counter for r in rngs] == [r.counter for r in ref_rngs]
            assert min(r.counter for r in rngs) > 0
        for got, want in zip(logits, ref):
            assert got.shape == want.shape
            assert np.abs(got.data - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("cfg,batch", [(tiny_config(), 2), (ModelConfig(image_size=64), 2),
                                           (ModelConfig(), 1)],
                             ids=["tiny-32px", "default-64px", "default-224px"])
    def test_eval_logits_match_the_reference(self, cfg, batch):
        self.check(cfg, batch, 43)

    # the --tiny preset has no dropout, so its training case sets some
    @pytest.mark.parametrize("cfg,batch", [(tiny_config(dropout_p=0.3), 2),
                                           (ModelConfig(image_size=64), 2), (ModelConfig(), 1)],
                             ids=["tiny-32px", "default-64px", "default-224px"])
    def test_training_logits_match_the_reference(self, cfg, batch):
        self.check(cfg, batch, 44, drop_seed=45)


def test_no_parameter_block_is_dead():
    # a block that no output reads, or whose contribution a softmax cancels
    # (a key bias adds the same q.bk to a query's every score), gets only
    # rounding noise as its gradient, which Adam would still step on
    cfg = ModelConfig(image_size=64)
    params = _moved_off_init(cfg)
    x = RngStream(seed=46).normal(2 * 3 * 64 * 64).reshape(2, 3, 64, 64)
    cls, rot = model_forward(Tensor(x), cfg, params)
    T.backward(combined_loss(cls, [1, 3], rot, [0, 2]))
    largest = {name: float(np.abs(t.grad).max()) for name, t in params.items()}
    top = max(largest.values())
    dead = {name: g / top for name, g in largest.items() if not g > 1e-12 * top}
    assert not dead, f"blocks whose largest |gradient| is at most 1e-12 of the largest: {dead}"
