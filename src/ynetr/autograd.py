"""Dense float32 tensors with reverse-mode automatic differentiation.

Every operation that touches a gradient-requiring tensor records itself
on an implicit tape: the output keeps references to its parents and a
closure that pushes gradients backward. ``Tensor.backward()`` replays
the tape once in reverse topological order.

All math is numpy under the hood; values stay float32 throughout so
test tolerances are meaningful for the precision actually used.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np
from scipy.special import erf

from . import _convkernels as _ck

_GRAD_ENABLED = True


@contextmanager
def no_grad():
    """Disable tape recording inside the block (inference, init, updates)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def _unbroadcast(grad, shape):
    """Sum ``grad`` down to ``shape`` (reverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    """n-dimensional float32 value, optionally tracked for gradients."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float32)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    # -- construction helpers -------------------------------------------

    @staticmethod
    def param(data):
        return Tensor(data, requires_grad=True)

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    @property
    def ndim(self):
        return self.data.ndim

    def item(self):
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- tape ------------------------------------------------------------

    def _record(self, parents, backward):
        if _GRAD_ENABLED and any(p.requires_grad for p in parents):
            self.requires_grad = True
            self._parents = tuple(parents)
            self._backward = backward
        return self

    def backward(self):
        """Reverse-mode pass from a scalar; accumulates into ``.grad``."""
        if self.data.size != 1:
            raise ValueError(f"backward() needs a scalar loss, got shape {self.data.shape}")
        if not self.requires_grad:
            raise ValueError("backward() on a tensor detached from the tape")
        tape = _build_tape(self)
        self.grad = np.ones_like(self.data)
        for node in reversed(tape):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def _accum(self, g, owned=False):
        """Add ``g`` into ``.grad``. ``owned`` says the caller just
        allocated ``g`` as float32 and keeps no other reference to it, so
        the first accumulation may adopt it instead of copying."""
        if self.grad is None:
            self.grad = g if owned else g.astype(np.float32, copy=True)
        else:
            self.grad += g

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        other = _wrap(other)
        out = Tensor(self.data + other.data)

        def bw(g):
            if self.requires_grad:
                self._accum(_unbroadcast(g, self.data.shape))
            if other.requires_grad:
                other._accum(_unbroadcast(g, other.data.shape))

        return out._record((self, other), bw)

    __radd__ = __add__

    def __sub__(self, other):
        other = _wrap(other)
        out = Tensor(self.data - other.data)

        def bw(g):
            if self.requires_grad:
                self._accum(_unbroadcast(g, self.data.shape))
            if other.requires_grad:
                other._accum(_unbroadcast(-g, other.data.shape))

        return out._record((self, other), bw)

    def __rsub__(self, other):
        return _wrap(other) - self

    def __neg__(self):
        out = Tensor(-self.data)

        def bw(g):
            self._accum(-g, owned=True)

        return out._record((self,), bw)

    def __mul__(self, other):
        other = _wrap(other)
        out = Tensor(self.data * other.data)

        def bw(g):
            if self.requires_grad:
                self._accum(_unbroadcast(g * other.data, self.data.shape), owned=True)
            if other.requires_grad:
                other._accum(_unbroadcast(g * self.data, other.data.shape), owned=True)

        return out._record((self, other), bw)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _wrap(other)
        out = Tensor(self.data / other.data)

        def bw(g):
            if self.requires_grad:
                self._accum(_unbroadcast(g / other.data, self.data.shape), owned=True)
            if other.requires_grad:
                other._accum(
                    _unbroadcast(-g * self.data / (other.data * other.data), other.data.shape),
                    owned=True,
                )

        return out._record((self, other), bw)

    def __rtruediv__(self, other):
        return _wrap(other) / self

    def __pow__(self, exponent):
        e = float(exponent)
        out = Tensor(self.data**np.float32(e))

        def bw(g):
            self._accum(g * np.float32(e) * self.data ** np.float32(e - 1.0), owned=True)

        return out._record((self,), bw)

    def __matmul__(self, other):
        other = _wrap(other)
        if self.ndim < 2 or other.ndim < 2:
            raise ValueError("matmul operands must be at least 2-D")
        out = Tensor(self.data @ other.data)

        def bw(g):
            if self.requires_grad:
                ga = g @ other.data.swapaxes(-1, -2)
                self._accum(_unbroadcast(ga, self.data.shape), owned=True)
            if other.requires_grad:
                gb = self.data.swapaxes(-1, -2) @ g
                other._accum(_unbroadcast(gb, other.data.shape), owned=True)

        return out._record((self, other), bw)

    # -- shape ops ---------------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        src = self.data.shape
        out = Tensor(self.data.reshape(shape))

        def bw(g):
            self._accum(g.reshape(src))

        return out._record((self,), bw)

    def permute(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inv = np.argsort(axes)
        out = Tensor(self.data.transpose(axes))

        def bw(g):
            self._accum(g.transpose(inv))

        return out._record((self,), bw)

    def __getitem__(self, idx):
        out = Tensor(self.data[idx])
        src_shape = self.data.shape

        def bw(g):
            full = np.zeros(src_shape, dtype=np.float32)
            full[idx] = g
            self._accum(full, owned=True)

        return out._record((self,), bw)

    # -- reductions ----------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        out = Tensor(self.data.sum(axis=axis, keepdims=keepdims, dtype=np.float32))
        src_shape = self.data.shape

        def bw(g):
            self._accum(_spread(g, src_shape, axis, keepdims), owned=True)

        return out._record((self,), bw)

    def mean(self, axis=None, keepdims=False):
        out = Tensor(self.data.mean(axis=axis, keepdims=keepdims, dtype=np.float32))
        src_shape = self.data.shape
        n = self.data.size if axis is None else _axis_count(src_shape, axis)

        def bw(g):
            self._accum(_spread(g, src_shape, axis, keepdims) / np.float32(n), owned=True)

        return out._record((self,), bw)

    # -- elementwise nonlinearities -------------------------------------------

    def exp(self):
        val = np.exp(self.data)
        out = Tensor(val)

        def bw(g):
            self._accum(g * val, owned=True)

        return out._record((self,), bw)

    def log(self):
        out = Tensor(np.log(self.data))

        def bw(g):
            self._accum(g / self.data, owned=True)

        return out._record((self,), bw)

    def sqrt(self):
        val = np.sqrt(self.data)
        out = Tensor(val)

        def bw(g):
            self._accum(g * np.float32(0.5) / val, owned=True)

        return out._record((self,), bw)

    def relu(self):
        mask = self.data > 0
        out = Tensor(np.where(mask, self.data, np.float32(0.0)))

        def bw(g):
            self._accum(g * mask, owned=True)

        return out._record((self,), bw)

    def gelu(self):
        """Exact Gaussian-error-linear unit: x * Phi(x)."""
        x = self.data
        cdf = np.float32(0.5) * (np.float32(1.0) + erf(x * np.float32(1.0 / math.sqrt(2.0))))
        out = Tensor(x * cdf)

        def bw(g):
            pdf = np.exp(np.float32(-0.5) * x * x) * np.float32(1.0 / math.sqrt(2.0 * math.pi))
            self._accum(g * (cdf + x * pdf), owned=True)

        return out._record((self,), bw)

    def softmax(self, axis=-1):
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        e = np.exp(shifted)
        val = e / e.sum(axis=axis, keepdims=True)
        out = Tensor(val)

        def bw(g):
            dot = (g * val).sum(axis=axis, keepdims=True)
            self._accum(val * (g - dot), owned=True)

        return out._record((self,), bw)

    def log_softmax(self, axis=-1):
        m = self.data.max(axis=axis, keepdims=True)
        shifted = self.data - m
        lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        val = shifted - lse
        out = Tensor(val)

        def bw(g):
            soft = np.exp(val)
            self._accum(g - soft * g.sum(axis=axis, keepdims=True), owned=True)

        return out._record((self,), bw)


def _wrap(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _axis_count(shape, axis):
    if isinstance(axis, int):
        axis = (axis,)
    return int(np.prod([shape[a] for a in axis]))


def _spread(g, shape, axis, keepdims):
    """Broadcast a reduction gradient back to the source shape."""
    if axis is None:
        return np.broadcast_to(g, shape).astype(np.float32, copy=True)
    if not keepdims:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        axes = tuple(a % len(shape) for a in axes)
        g = np.expand_dims(g, axes)
    return np.broadcast_to(g, shape).astype(np.float32, copy=True)


def _build_tape(root):
    """Topologically ordered list of tape nodes reachable from ``root``."""
    order, visited = [], set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    return order


# -- multi-tensor and structured ops -------------------------------------


def concat(tensors, axis=0):
    tensors = [_wrap(t) for t in tensors]
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bw(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            if t.requires_grad:
                t._accum(piece)

    return out._record(tuple(tensors), bw)


def layer_norm(x, weight, bias, axis=-1, eps=1e-5):
    """Normalize ``x`` along ``axis`` to zero mean / unit variance, then
    apply the learned affine map. Built from primitives so the gradient
    comes from the tape."""
    mu = x.mean(axis=axis, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=axis, keepdims=True)
    xhat = centered / (var + eps).sqrt()
    return xhat * weight + bias


def conv3d(x, w, stride=1, padding=0):
    """3-D convolution; ``x`` is (Cin, X, Y, Z), ``w`` is (Cout, Cin, k, k, k)."""
    x, w = _wrap(x), _wrap(w)
    out = Tensor(_ck.conv3d_forward(x.data, w.data, stride, padding))

    def bw(g):
        gx, gw = _ck.conv3d_backward(x.data, w.data, g, stride, padding)
        if x.requires_grad:
            x._accum(gx, owned=True)
        if w.requires_grad:
            w._accum(gw, owned=True)

    return out._record((x, w), bw)


def conv_transpose3d(x, w, stride=1, padding=0):
    """Transposed 3-D convolution; ``w`` is (Cin, Cout, k, k, k).

    With conv3d's weight reinterpreted this way, this is conv3d's exact
    adjoint: <conv3d(x, w), y> == <x, conv_transpose3d(y, w)>.
    """
    x, w = _wrap(x), _wrap(w)
    out = Tensor(_ck.convt3d_forward(x.data, w.data, stride, padding))

    def bw(g):
        gx, gw = _ck.convt3d_backward(x.data, w.data, g, stride, padding)
        if x.requires_grad:
            x._accum(gx, owned=True)
        if w.requires_grad:
            w._accum(gw, owned=True)

    return out._record((x, w), bw)
