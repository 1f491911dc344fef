"""Dual-encoder segmentation network with additive skip fusion.

Two independent encoder branches (one per frequency image) each produce
a five-level feature pyramid; the pyramids are merged by elementwise
addition and a single convolutional decoder restores full resolution.

Each branch flattens non-overlapping 16^3 patches into a token sequence,
runs an L-layer pre-norm transformer encoder (L = 12 by default), taps
the running sequence at depth L/4, L/2, 3L/4 and L, and projects each
tap to its pyramid scale with transposed-conv upsampling stacks. The
pyramid carries scales 1/16, 1/8, 1/4 and 1/2 of the input plus a
full-resolution stem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .autograd import Tensor, no_grad

PATCH = 16  # patch edge in voxels; the decoder's four 2x up-steps return to full size
MLP_RATIO = 4  # hidden width of each block's MLP over the embed dim, as in UNETR


@dataclass(frozen=True)
class ModelConfig:
    input_dims: tuple[int, int, int] = (128, 128, 128)
    embed_dim: int = 768
    depth: int = 12
    num_heads: int = 12
    decoder_channels: tuple[int, int, int, int, int] = (512, 512, 256, 128, 64)
    zero_init_head: bool = True
    init_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "input_dims", tuple(int(d) for d in self.input_dims))
        object.__setattr__(self, "decoder_channels", tuple(int(c) for c in self.decoder_channels))
        if any(d % PATCH for d in self.input_dims):
            raise ValueError(f"input dims {self.input_dims} must be divisible by {PATCH}")
        if min(*self.input_dims, self.embed_dim, self.num_heads, *self.decoder_channels) < 1:
            raise ValueError("dims, channels, embed dim and heads must be >= 1")
        if self.depth % 4 != 0:
            raise ValueError(f"encoder depth must be divisible by 4, got {self.depth}")
        if self.embed_dim % self.num_heads != 0:
            raise ValueError(
                f"embed dim {self.embed_dim} not divisible by {self.num_heads} heads"
            )
        if len(self.decoder_channels) != 5:
            raise ValueError("decoder_channels must list 4 pyramid scales plus the stem")

    @property
    def grid(self):
        return tuple(d // PATCH for d in self.input_dims)

    @property
    def num_tokens(self):
        gx, gy, gz = self.grid
        return gx * gy * gz


def patchify(x: Tensor, patch: int) -> Tensor:
    """(C, X, Y, Z) -> (N, P^3*C) tokens, one per P^3 block in (gx, gy, gz) order."""
    c, X, Y, Z = x.shape
    p = patch
    if X % p or Y % p or Z % p:
        raise ValueError(f"dims {(X, Y, Z)} not divisible by patch {p}")
    gx, gy, gz = X // p, Y // p, Z // p
    return (
        x.reshape(c, gx, p, gy, p, gz, p)
        .permute(1, 3, 5, 2, 4, 6, 0)
        .reshape(gx * gy * gz, p**3 * c)
    )


def tokens_to_grid(tokens: Tensor, grid) -> Tensor:
    """Unfold an (N, E) sequence into an (E, gx, gy, gz) feature map."""
    gx, gy, gz = grid
    e = tokens.shape[-1]
    return tokens.reshape(gx, gy, gz, e).permute(3, 0, 1, 2)


class MultiHeadSelfAttention(nn.Module):
    def __init__(self, rng, embed_dim, num_heads):
        self.num_heads = num_heads
        self.head_dim = embed_dim // num_heads
        self.embed_dim = embed_dim
        self.qkv = nn.Linear(rng, embed_dim, 3 * embed_dim)
        self.proj = nn.Linear(rng, embed_dim, embed_dim)

    def forward(self, x):
        n = x.shape[0]
        h, dh = self.num_heads, self.head_dim
        qkv = self.qkv(x).reshape(n, 3, h, dh).permute(1, 2, 0, 3)
        q, k, v = qkv[0], qkv[1], qkv[2]
        scores = (q @ k.permute(0, 2, 1)) * float(dh**-0.5)
        attn = scores.softmax(axis=-1)
        out = (attn @ v).permute(1, 0, 2).reshape(n, self.embed_dim)
        return self.proj(out)


class TransformerBlock(nn.Module):
    """Pre-norm block: x + MHSA(LN(x)), then x + MLP(LN(x))."""

    def __init__(self, rng, embed_dim, num_heads):
        self.ln1 = nn.LayerNorm(embed_dim)
        self.attn = MultiHeadSelfAttention(rng, embed_dim, num_heads)
        self.ln2 = nn.LayerNorm(embed_dim)
        self.fc1 = nn.Linear(rng, embed_dim, MLP_RATIO * embed_dim)
        self.fc2 = nn.Linear(rng, MLP_RATIO * embed_dim, embed_dim)

    def forward(self, x):
        x = x + self.attn(self.ln1(x))
        return x + self.fc2(self.fc1(self.ln2(x)).gelu())


class TransformerEncoder(nn.Module):
    """Patch embedding plus ``depth`` blocks, tapped every ``depth // 4`` layers."""

    def __init__(self, rng, cfg: ModelConfig):
        self.cfg = cfg
        self.embed = nn.Linear(rng, PATCH**3, cfg.embed_dim)
        self.pos = Tensor.param(nn.trunc_normal(rng, (cfg.num_tokens, cfg.embed_dim)))
        self.blocks = nn.ModuleList(
            TransformerBlock(rng, cfg.embed_dim, cfg.num_heads)
            for _ in range(cfg.depth)
        )

    def forward(self, x):
        h = self.embed(patchify(x, PATCH)) + self.pos
        every = self.cfg.depth // 4
        taps = []
        for layer, block in enumerate(self.blocks, start=1):
            h = block(h)
            if layer % every == 0:
                taps.append(h)
        return taps


class UpProjection(nn.Module):
    """Chain of stride-2 transposed convs lifting a tap to its scale."""

    def __init__(self, rng, cin, cout, n_up):
        ups = [nn.ConvTranspose3d(rng, cin, cout)]
        ups += [nn.ConvTranspose3d(rng, cout, cout) for _ in range(n_up - 1)]
        self.ups = nn.ModuleList(ups)

    def forward(self, x):
        for up in self.ups:
            x = up(x)
        return x


class Stem(nn.Module):
    """Two full-resolution convs on the one-channel branch input."""

    def __init__(self, rng, cout):
        self.conv1 = nn.Conv3d(rng, 1, cout, 3)
        self.conv2 = nn.Conv3d(rng, cout, cout, 3)

    def forward(self, x):
        return self.conv2(self.conv1(x).relu())


class TransformerBranch(nn.Module):
    def __init__(self, rng, cfg: ModelConfig):
        self.cfg = cfg
        ch = cfg.decoder_channels
        e = cfg.embed_dim
        self.encoder = TransformerEncoder(rng, cfg)
        self.proj_deep = nn.Conv3d(rng, e, ch[0], 3)
        self.proj_mid = UpProjection(rng, e, ch[1], 1)
        self.proj_shallow = UpProjection(rng, e, ch[2], 2)
        self.proj_top = UpProjection(rng, e, ch[3], 3)
        self.stem = Stem(rng, ch[4])

    def forward(self, x):
        """The pyramid levels, deepest first, full-resolution stem last."""
        z_q, z_half, z_3q, z_full = self.encoder(x)
        grid = self.cfg.grid
        levels = [
            self.proj_deep(tokens_to_grid(z_full, grid)),
            self.proj_mid(tokens_to_grid(z_3q, grid)),
            self.proj_shallow(tokens_to_grid(z_half, grid)),
            self.proj_top(tokens_to_grid(z_q, grid)),
            self.stem(x),
        ]
        return levels


def fuse_add(a: list, b: list) -> list:
    """Merge two pyramids (lists of levels) by elementwise addition, scale by scale."""
    if len(a) != len(b):
        raise ValueError("pyramids have different level counts")
    for la, lb in zip(a, b):
        if la.shape != lb.shape:
            raise ValueError(f"pyramid level shapes differ: {la.shape} vs {lb.shape}")
    return [la + lb for la, lb in zip(a, b)]


class Decoder(nn.Module):
    """Transposed-conv upsampling with an added skip at every scale."""

    def __init__(self, rng, cfg: ModelConfig):
        self.cfg = cfg
        ch = cfg.decoder_channels
        self.ups = nn.ModuleList(
            nn.ConvTranspose3d(rng, ch[i - 1], ch[i]) for i in range(1, 4)
        )
        self.convs = nn.ModuleList(
            nn.Conv3d(rng, ch[i], ch[i], 3) for i in range(1, 4)
        )
        self.final_up = nn.ConvTranspose3d(rng, ch[3], ch[4])
        self.final_conv = nn.Conv3d(rng, ch[4], ch[4], 3)
        # background and tumour logits
        self.head = nn.Conv3d(rng, ch[4], 2, 1, zero_init=cfg.zero_init_head)

    def forward(self, levels):
        d = levels[0]
        for up, conv, skip in zip(self.ups, self.convs, levels[1:4]):
            d = up(d) + skip
            d = conv(d).relu()
        d = self.final_up(d) + levels[4]
        d = self.final_conv(d).relu()
        return self.head(d)


class YNetr(nn.Module):
    """The full dual-encoder network.

    Built with ``_draw=False``, its drawn weights are read-only placeholders
    without storage (see :func:`nn.placeholder`), which the caller must
    replace; only checkpoint restore builds it that way.
    """

    def __init__(self, cfg: ModelConfig, *, _draw=True):
        self.cfg = cfg
        rng = np.random.default_rng(cfg.init_seed) if _draw else None
        self.lf_branch = TransformerBranch(rng, cfg)
        self.hf_branch = TransformerBranch(rng, cfg)
        self.decoder = Decoder(rng, cfg)

    def forward(self, lf: Tensor, hf: Tensor) -> Tensor:
        if lf.shape != hf.shape:
            raise ValueError(f"branch inputs differ in shape: {lf.shape} vs {hf.shape}")
        return self.decoder(fuse_add(self.lf_branch(lf), self.hf_branch(hf)))

    def predict(self, lf: np.ndarray, hf: np.ndarray) -> np.ndarray:
        """Forward pass without tape recording on bare (X, Y, Z) crops (the
        sliding-window contract); numpy in, (2, X, Y, Z) numpy logits out."""
        with no_grad():
            out = self.forward(Tensor(lf[None]), Tensor(hf[None]))
        return out.data
