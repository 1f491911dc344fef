"""Minimal layer library on top of the autograd tensor.

A :class:`Module` registers child modules and parameters through plain
attribute assignment and can enumerate its parameters with hierarchical
names, which is what checkpointing keys on.
"""

from __future__ import annotations

import numpy as np

from .autograd import Tensor, conv3d, conv_transpose3d, layer_norm


def placeholder(shape):
    """Read-only float32 zeros of ``shape`` that own no storage.

    The draw helpers return it when they get no generator, for a model whose
    caller replaces every drawn array (checkpoint restore): nothing is drawn
    or allocated for values that are about to be overwritten. Writing to it
    raises ValueError.
    """
    return np.broadcast_to(np.float32(0.0), shape)


def trunc_normal(rng, shape):
    """Normal(0, std) with std = 0.02, resampled until inside two standard
    deviations; a :func:`placeholder` the caller must replace when ``rng``
    is None."""
    if rng is None:
        return placeholder(shape)
    std = 0.02
    vals = rng.normal(0.0, std, size=shape)
    flat = vals.reshape(-1)
    # only the redrawn entries are checked again, in the order a full rescan
    # would redraw them, so the random stream is consumed the same way
    bad = np.flatnonzero(np.abs(flat) > 2 * std)
    while bad.size:
        flat[bad] = rng.normal(0.0, std, size=bad.size)
        bad = bad[np.abs(flat[bad]) > 2 * std]
    return vals.astype(np.float32)


def fanin_uniform(rng, shape, fan_in):
    """Uniform on +-1/sqrt(fan_in); a :func:`placeholder` the caller must
    replace when ``rng`` is None."""
    if rng is None:
        return placeholder(shape)
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


class Module:
    def __setattr__(self, name, value):
        if isinstance(value, (Module, Tensor, ModuleList)):
            self.__dict__.setdefault("_children", {})[name] = value
        object.__setattr__(self, name, value)

    def named_parameters(self, prefix=""):
        for name, child in self.__dict__.get("_children", {}).items():
            full = f"{prefix}{name}"
            if isinstance(child, Tensor):
                if child.requires_grad:
                    yield full, child
            else:
                yield from child.named_parameters(prefix=full + ".")

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def num_parameters(self):
        return sum(p.size for p in self.parameters())

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class ModuleList(Module):
    def __init__(self, modules=()):
        self.items = list(modules)

    def __iter__(self):
        return iter(self.items)

    def named_parameters(self, prefix=""):
        for i, m in enumerate(self.items):
            yield from m.named_parameters(prefix=f"{prefix}{i}.")


class Linear(Module):
    def __init__(self, rng, in_dim, out_dim):
        self.weight = Tensor.param(trunc_normal(rng, (in_dim, out_dim)))
        self.bias = Tensor.param(np.zeros(out_dim, dtype=np.float32))

    def forward(self, x):
        return x @ self.weight + self.bias


class LayerNorm(Module):
    def __init__(self, dim):
        self.weight = Tensor.param(np.ones(dim, dtype=np.float32))
        self.bias = Tensor.param(np.zeros(dim, dtype=np.float32))

    def forward(self, x):
        return layer_norm(x, self.weight, self.bias)


class Conv3d(Module):
    """Same-size conv: odd ``kernel``, stride 1, padding kernel // 2."""

    def __init__(self, rng, cin, cout, kernel, zero_init=False):
        shape = (cout, cin, kernel, kernel, kernel)
        if zero_init:
            w = np.zeros(shape, dtype=np.float32)
        else:
            w = fanin_uniform(rng, shape, cin * kernel**3)
        self.weight = Tensor.param(w)
        self.bias = Tensor.param(np.zeros(cout, dtype=np.float32))

    def forward(self, x, relu=False):
        """The conv plus bias, then the ReLU if ``relu``."""
        return conv3d(x, self.weight, self.bias, relu)


class ConvTranspose3d(Module):
    """The 2x up-step: a 2x2x2 transposed conv with stride 2."""

    def __init__(self, rng, cin, cout):
        w = fanin_uniform(rng, (cin, cout, 2, 2, 2), cin * 8)
        self.weight = Tensor.param(w)
        self.bias = Tensor.param(np.zeros(cout, dtype=np.float32))

    def forward(self, x):
        return conv_transpose3d(x, self.weight, self.bias)
