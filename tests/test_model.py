from collections import Counter

import numpy as np
import pytest

from ynetr import nn
from ynetr.autograd import Tensor
from ynetr.losses import dice_ce_loss
from ynetr.model import (
    MLP_RATIO,
    PATCH,
    ModelConfig,
    YNetr,
    fuse_add,
    patchify,
    tokens_to_grid,
)


def unpatchify(tokens, dims, p):
    """Inverse of :func:`patchify`: (N, P^3*C) tokens back to a (C, X, Y, Z)
    tensor of spatial ``dims``."""
    gx, gy, gz = (d // p for d in dims)
    c = tokens.shape[1] // p**3
    return (
        tokens.reshape(gx, gy, gz, p, p, p, c)
        .permute(6, 0, 3, 1, 4, 2, 5)
        .reshape(c, gx * p, gy * p, gz * p)
    )


def attention_weights(attn, x):
    """The (heads, N, N) softmax weights that ``attn`` applies to ``x``."""
    n, h, dh = x.shape[0], attn.num_heads, attn.head_dim
    qkv = attn.qkv(x).data.reshape(n, 3, h, dh).transpose(1, 2, 0, 3)
    scores = qkv[0] @ qkv[1].transpose(0, 2, 1) * dh**-0.5
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def zero_branch_projections(model, which):
    """Silence one branch: zero every parameter feeding its pyramid, i.e.
    all but the transformer encoder. With additive fusion this makes the
    output exactly independent of that branch's input."""
    branch = {"lf": model.lf_branch, "hf": model.hf_branch}[which]
    for name, p in branch.named_parameters():
        if not name.startswith("encoder."):
            p.data[...] = 0.0


def tiny_config(**overrides):
    base = dict(
        input_dims=(32, 32, 32),
        embed_dim=64,
        num_heads=4,
        depth=12,
        decoder_channels=(64, 64, 32, 16, 8),
        init_seed=0,
    )
    base.update(overrides)
    return ModelConfig(**base)


class TestPatchify:
    def test_token_count_32(self):
        x = Tensor(np.zeros((1, 32, 32, 32), dtype=np.float32))
        assert patchify(x, 16).shape == (8, 4096)

    def test_token_count_16(self):
        x = Tensor(np.zeros((1, 16, 16, 16), dtype=np.float32))
        assert patchify(x, 16).shape == (1, 4096)

    def test_roundtrip_bitwise(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 32, 32, 32)).astype(np.float32)
        back = unpatchify(patchify(Tensor(x), 16), x.shape[1:], 16)
        assert back.data.tobytes() == x.tobytes()

    def test_indivisible_dims(self):
        with pytest.raises(ValueError):
            patchify(Tensor(np.zeros((1, 30, 32, 32), dtype=np.float32)), 16)

    def test_token_count_law(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            p = int(rng.choice([16, 32]))
            dims = tuple(int(rng.integers(1, 4)) * p for _ in range(3))
            c = int(rng.integers(1, 3))
            x = Tensor(np.zeros((c, *dims), dtype=np.float32))
            n = (dims[0] * dims[1] * dims[2]) // p**3
            assert patchify(x, p).shape == (n, p**3 * c)


class TestConfigValidation:
    def test_defaults_valid(self):
        cfg = ModelConfig(input_dims=(128, 128, 128))
        assert cfg.num_tokens == 512

    def test_rejects_indivisible(self):
        with pytest.raises(ValueError):
            tiny_config(input_dims=(40, 32, 32))

    def test_rejects_bad_depth(self):
        with pytest.raises(ValueError):
            tiny_config(depth=10)

    def test_rejects_bad_heads(self):
        with pytest.raises(ValueError):
            tiny_config(embed_dim=64, num_heads=5)


class TestEncoder:
    def test_tap_layers_and_grid(self):
        model = YNetr(tiny_config())
        enc = model.lf_branch.encoder
        x = Tensor(np.random.default_rng(2).standard_normal((1, 32, 32, 32)).astype(np.float32))
        taps = enc(x)
        h = enc.embed(patchify(x, 16)) + enc.pos
        want = []
        for layer, block in enumerate(enc.blocks, start=1):
            h = block(h)
            if layer in (3, 6, 9, 12):
                want.append(h.data)
        assert len(taps) == 4
        for t, w in zip(taps, want):
            assert t.shape == (8, 64)
            assert t.data.tobytes() == w.tobytes()
        grid = tokens_to_grid(taps[0], model.cfg.grid)
        assert grid.shape == (64, 2, 2, 2)

    def test_zero_embeddings_give_uniform_attention(self):
        model = YNetr(tiny_config())
        enc = model.lf_branch.encoder
        enc.embed.weight.data[...] = 0.0
        enc.embed.bias.data[...] = 0.0
        enc.pos.data[...] = 0.0
        x = Tensor(np.zeros((1, 32, 32, 32), dtype=np.float32))
        h = enc.embed(patchify(x, 16)) + enc.pos
        block = enc.blocks[0]
        weights = attention_weights(block.attn, block.ln1(h))
        np.testing.assert_allclose(weights, 1.0 / 8.0, atol=1e-6)


class TestPyramid:
    def test_spatial_dims_and_channels(self):
        cfg = tiny_config(input_dims=(64, 64, 64))
        model = YNetr(cfg)
        x = Tensor(np.random.default_rng(3).standard_normal((1, 64, 64, 64)).astype(np.float32))
        pyr = model.lf_branch(x)
        dims = [lvl.shape for lvl in pyr]
        assert dims == [
            (64, 4, 4, 4),
            (64, 8, 8, 8),
            (32, 16, 16, 16),
            (16, 32, 32, 32),
            (8, 64, 64, 64),
        ]
        assert tuple(l.shape[0] for l in pyr) == cfg.decoder_channels

    def test_zeroed_projections_give_zero_pyramid(self):
        model = YNetr(tiny_config())
        zero_branch_projections(model, "hf")
        x = Tensor(np.random.default_rng(5).standard_normal((1, 32, 32, 32)).astype(np.float32))
        pyr = model.hf_branch(x)
        for lvl in pyr:
            np.testing.assert_array_equal(lvl.data, 0.0)


class TestFuseAdd:
    def _pyramids(self):
        rng = np.random.default_rng(6)
        model = YNetr(tiny_config())
        x = Tensor(rng.standard_normal((1, 32, 32, 32)).astype(np.float32))
        y = Tensor(rng.standard_normal((1, 32, 32, 32)).astype(np.float32))
        return model.lf_branch(x), model.hf_branch(y)

    def test_zero_is_identity(self):
        a, b = self._pyramids()
        for lvl in b:
            lvl.data[...] = 0.0
        fused = fuse_add(a, b)
        for fa, la in zip(fused, a):
            np.testing.assert_array_equal(fa.data, la.data)

    def test_commutative(self):
        a, b = self._pyramids()
        ab = fuse_add(a, b)
        ba = fuse_add(b, a)
        for x, y in zip(ab, ba):
            np.testing.assert_array_equal(x.data, y.data)

    def test_self_doubles(self):
        a, _ = self._pyramids()
        out = fuse_add(a, a)
        for x, y in zip(out, a):
            np.testing.assert_allclose(x.data, 2 * y.data, rtol=1e-6)


class TestForward:
    def test_output_shape_and_zero_head(self):
        model = YNetr(tiny_config())
        rng = np.random.default_rng(7)
        lf = rng.standard_normal((1, 32, 32, 32)).astype(np.float32)
        hf = rng.standard_normal((1, 32, 32, 32)).astype(np.float32)
        logits = model(Tensor(lf), Tensor(hf))
        assert logits.shape == (2, 32, 32, 32)
        np.testing.assert_array_equal(logits.data, 0.0)
        probs = logits.softmax(axis=0).data
        np.testing.assert_allclose(probs, 0.5, atol=1e-7)

    def test_deterministic_construction_and_forward(self):
        rng = np.random.default_rng(8)
        lf = rng.standard_normal((32, 32, 32)).astype(np.float32)
        hf = rng.standard_normal((32, 32, 32)).astype(np.float32)
        a = YNetr(tiny_config(zero_init_head=False)).predict(lf, hf)
        b = YNetr(tiny_config(zero_init_head=False)).predict(lf, hf)
        assert a.tobytes() == b.tobytes()

    def test_hf_branch_neutralized(self):
        model = YNetr(tiny_config(zero_init_head=False))
        zero_branch_projections(model, "hf")
        rng = np.random.default_rng(9)
        lf = rng.standard_normal((32, 32, 32)).astype(np.float32)
        outs = [
            model.predict(lf, rng.standard_normal((32, 32, 32)).astype(np.float32))
            for _ in range(3)
        ]
        assert outs[0].tobytes() == outs[1].tobytes() == outs[2].tobytes()

    def test_shape_mismatch_between_branches(self):
        model = YNetr(tiny_config())
        with pytest.raises(ValueError):
            model(
                Tensor(np.zeros((1, 32, 32, 32), dtype=np.float32)),
                Tensor(np.zeros((1, 32, 32, 16), dtype=np.float32)),
            )

    def test_gradients_reach_every_parameter(self):
        model = YNetr(tiny_config(zero_init_head=False, embed_dim=32,
                                  decoder_channels=(16, 16, 8, 8, 4)))
        rng = np.random.default_rng(12)
        lf = Tensor(rng.standard_normal((1, 32, 32, 32)).astype(np.float32))
        hf = Tensor(rng.standard_normal((1, 32, 32, 32)).astype(np.float32))
        labels = (rng.random((32, 32, 32)) < 0.2).astype(np.float32)
        total, _, _ = dice_ce_loss(labels, model(lf, hf), alpha=0.5)
        total.backward()
        silent = [
            name
            for name, p in model.named_parameters()
            if p.grad is None or not np.abs(p.grad).max() > 0
        ]
        assert silent == [], f"parameters with zero gradient: {silent[:10]}"

    def test_one_kernel_call_per_conv_pass(self, monkeypatch):
        # the benchmark attributes each public kernel call to the module that
        # owns ``w``; a kernel calling another public kernel would count twice
        import ynetr._convkernels as ck

        calls = Counter()

        def counted(fn, direction):
            def call(x, w, *rest):
                calls[id(w), direction] += 1
                return fn(x, w, *rest)

            return call

        for name in ("conv3d_forward", "convt3d_forward", "conv3d_backward", "convt3d_backward"):
            monkeypatch.setattr(ck, name, counted(getattr(ck, name), name.rsplit("_", 1)[1]))
        model = YNetr(tiny_config(zero_init_head=False, embed_dim=32,
                                  decoder_channels=(16, 16, 8, 8, 4)))
        rng = np.random.default_rng(13)
        lf = Tensor(rng.standard_normal((1, 32, 32, 32)).astype(np.float32))
        hf = Tensor(rng.standard_normal((1, 32, 32, 32)).astype(np.float32))
        labels = (rng.random((32, 32, 32)) < 0.2).astype(np.float32)
        dice_ce_loss(labels, model(lf, hf), alpha=0.5)[0].backward()
        weights = [p.data for p in model.parameters() if p.data.ndim == 5]
        assert len(weights) > 0
        want = {(id(w), d): 1 for w in weights for d in ("forward", "backward")}
        assert dict(calls) == want


class TestParameterCount:
    def test_closed_form(self):
        cfg = tiny_config()
        model = YNetr(cfg)
        e, p, c = cfg.embed_dim, PATCH, 1  # one-channel branch inputs
        n, r, depth = cfg.num_tokens, MLP_RATIO, cfg.depth
        ch = cfg.decoder_channels
        k3, k1, up = 27, 1, 8  # conv kernel volumes: 3^3, 1^3, 2^3

        def conv(cin, cout, k):
            return cin * cout * k + cout

        block = (
            2 * e  # ln1
            + (e * 3 * e + 3 * e)  # qkv
            + (e * e + e)  # attn out
            + 2 * e  # ln2
            + (e * r * e + r * e)  # mlp in
            + (r * e * e + e)  # mlp out
        )
        encoder = (p**3 * c * e + e) + n * e + depth * block
        stem = conv(c, ch[4], k3) + conv(ch[4], ch[4], k3)
        projections = (
            conv(e, ch[0], k3)
            + conv(e, ch[1], up)
            + conv(e, ch[2], up) + conv(ch[2], ch[2], up)
            + conv(e, ch[3], up) + 2 * conv(ch[3], ch[3], up)
        )
        branch = encoder + projections + stem
        decoder = sum(
            conv(ch[i - 1], ch[i], up) + conv(ch[i], ch[i], k3) for i in range(1, 4)
        )
        decoder += conv(ch[3], ch[4], up) + conv(ch[4], ch[4], k3)
        decoder += conv(ch[4], 2, k1)  # background and tumour logits
        expected = 2 * branch + decoder
        assert model.num_parameters() == expected


def trunc_normal_full_rescan(rng, shape):
    """The plain resampling loop: redraw every entry outside two standard
    deviations, then check the whole array again."""
    std = 0.02
    vals = rng.normal(0.0, std, size=shape)
    bad = np.abs(vals) > 2 * std
    while bad.any():
        vals[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(vals) > 2 * std
    return vals.astype(np.float32)


class TestTruncNormal:
    @pytest.mark.parametrize("shape", [(1,), (7,), (5, 3), (4, 3, 2), (384, 1536)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_full_rescan(self, seed, shape):
        # the same random stream in the same order gives the same values
        got = nn.trunc_normal(np.random.default_rng(seed), shape)
        want = trunc_normal_full_rescan(np.random.default_rng(seed), shape)
        assert got.dtype == np.float32 and got.shape == shape
        assert got.tobytes() == want.tobytes()
        assert np.abs(got).max() <= 0.04

