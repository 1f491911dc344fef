"""Dense float32 tensors with reverse-mode automatic differentiation.

The graph is kept apart from the values. Every operation whose inputs
need a gradient gives its output a small graph node holding the sinks of
those inputs, a closure that maps the node's gradient to theirs, and the
node's gradient. A sink is where a gradient accumulates: the node of an
op output, or, for a leaf (a parameter or an input that needs a
gradient), the tensor itself. No node or closure holds a tensor, so a
value lives only as long as its tensor or a closure that reads it. The
closures save:

* add, sub, neg, reshape, permute, indexing, sum and mean: shapes or
  indices only;
* mul, div and matmul: the operand that the other side's gradient reads,
  and only when that side needs a gradient;
* sqrt, softmax, log_softmax and relu their output (relu's mask is
  ``out > 0``, which a following conv keeps anyway); gelu its input and
  Phi(x);
* conv3d (same-size: odd k, stride 1, padding k // 2) and
  conv_transpose3d (an up-step: kernel == stride, no padding) the input
  and the weight, whose shape fixes the stride and the padding.

So a value that no closure reads, such as a conv output before its bias
is added, is freed as soon as the caller drops its tensor.

``Tensor.backward()`` sorts the nodes reachable from the loss once and
runs their closures in reverse topological order, adding each returned
gradient into its parent sink. No gradient array is ever written in
place, so a sink adopts the first gradient it receives as it comes, even
a view of another sink's gradient (add, sub, reshape and permute pass on
views of their own), and adds each later one into a new array laid out
like the old one (see ``_accum``). Once a node's closure has run, the
node's gradient, closure and parent links are released, so the saved
values and every intermediate gradient are freed during the pass, and a
second ``backward()`` through the same graph raises ``ValueError``. The
loss and the leaves keep their gradients, which may be views of one
another or of a released node's gradient.

All math is numpy under the hood; values stay float32 throughout so
test tolerances are meaningful for the precision actually used.
"""

from __future__ import annotations

import ctypes
import math
import platform
from contextlib import contextmanager

import numpy as np
from scipy.special import erf

from . import _convkernels as _ck

_GRAD_ENABLED = True


@contextmanager
def no_grad():
    """Disable graph recording inside the block (inference, init, updates)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


# glibc mallopt parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def keep_freed_heap():
    """Have glibc keep the memory that tensor ops free for the next
    training step or prediction window instead of returning it to the OS;
    elsewhere this does nothing. ``train`` and ``infer_volume`` call it on
    entry; the settings last for the process.

    ``backward()`` frees saved values and intermediate gradients as it
    goes, and a forward frees each intermediate array once the ops that
    read it have run. By default glibc unmaps freed blocks above its mmap
    threshold and trims a free heap top above its trim threshold, and the
    next step or window faults the pages in again. Measured on a 2-core host:

    * ``train_encoder`` (medians of steps 3-12, seed 1) without these
      settings: 65k-72k minor page faults per step, backward 0.215 s and
      the step 0.507 s. With them: median 18 faults, backward 0.123 s and
      the step 0.402 s, the same as before backward released anything
      (8 faults, 0.120 s, 0.407 s).
    * A 64 MiB trim threshold still left 52k faults per step.
    * The trim threshold alone left ``train_mid`` at 12k faults per step:
      its 16 MiB activations came from mmap until the mmap threshold was
      raised above them.
    * ``infer_volume`` of the bench's ``infer_mid`` (18 windows of the
      mid model, three volumes in one process) without these settings:
      54k-59k minor page faults and 0.47-0.55 s of system time per volume,
      7.6-8.7 s wall. With them: 7.5k faults and 0.09 s on the first
      volume, under 10 faults and 0.02 s on each later one, 7.5-7.7 s.
    """
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)


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


class _Node:
    """Graph node of one op output: the sinks of its inputs (None for an
    input that needs no gradient), the closure mapping this node's
    gradient to one gradient per input, and this node's gradient."""

    __slots__ = ("parents", "backward", "grad")

    def __init__(self, parents, backward):
        self.parents = parents
        self.backward = backward
        self.grad = None


class Tensor:
    """n-dimensional float32 value, optionally tracked for gradients."""

    __slots__ = ("data", "grad", "requires_grad", "_node")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float32)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._node = None

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

    # -- graph -----------------------------------------------------------

    def _record(self, inputs, backward):
        """Give this op output a graph node when an input needs a gradient.
        ``backward(g)`` returns one gradient per input, None for an input
        that needs none."""
        if _GRAD_ENABLED:
            parents = tuple(_sink(t) for t in inputs)
            if any(p is not None for p in parents):
                self.requires_grad = True
                self._node = _Node(parents, backward)
        return self

    def backward(self):
        """Reverse-mode pass from a scalar; accumulates into the leaves'
        ``.grad`` and releases the graph as it goes."""
        if self.data.size != 1:
            raise ValueError(f"backward() needs a scalar loss, got shape {self.data.shape}")
        if not self.requires_grad:
            raise ValueError("backward() on a tensor detached from the graph")
        root = _sink(self)
        tape = _build_tape(root)
        self.grad = root.grad = np.ones_like(self.data)
        for node in reversed(tape):
            if isinstance(node, _Node):
                for parent, g in zip(node.parents, node.backward(node.grad)):
                    if parent is not None:
                        _accum(parent, g)
                _release(node)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        other = _wrap(other)
        out = Tensor(self.data + other.data)
        a_shape, b_shape = self.data.shape, other.data.shape
        need_a, need_b = self.requires_grad, other.requires_grad

        def bw(g):
            return (_unbroadcast(g, a_shape) if need_a else None,
                    _unbroadcast(g, b_shape) if need_b else None)

        return out._record((self, other), bw)

    def __sub__(self, other):
        other = _wrap(other)
        out = Tensor(self.data - other.data)
        a_shape, b_shape = self.data.shape, other.data.shape
        need_a, need_b = self.requires_grad, other.requires_grad

        def bw(g):
            return (_unbroadcast(g, a_shape) if need_a else None,
                    _unbroadcast(-g, b_shape) if need_b else None)

        return out._record((self, other), bw)

    def __rsub__(self, other):
        return _wrap(other) - self

    def __neg__(self):
        return Tensor(-self.data)._record((self,), lambda g: (-g,))

    def __mul__(self, other):
        other = _wrap(other)
        out = Tensor(self.data * other.data)
        a_shape, b_shape = self.data.shape, other.data.shape
        a = self.data if other.requires_grad else None
        b = other.data if self.requires_grad else None

        def bw(g):
            return (None if b is None else _unbroadcast(g * b, a_shape),
                    None if a is None else _unbroadcast(g * a, b_shape))

        return out._record((self, other), bw)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _wrap(other)
        out = Tensor(self.data / other.data)
        a_shape, b_shape = self.data.shape, other.data.shape
        need_a = self.requires_grad
        a = self.data if other.requires_grad else None
        b = other.data  # read by both sides' gradients

        def bw(g):
            return (_unbroadcast(g / b, a_shape) if need_a else None,
                    None if a is None else _unbroadcast(-g * a / (b * b), b_shape))

        return out._record((self, other), bw)

    def __matmul__(self, other):
        other = _wrap(other)
        if self.ndim < 2 or other.ndim < 2:
            raise ValueError("matmul operands must be at least 2-D")
        out = Tensor(self.data @ other.data)
        a_shape, b_shape = self.data.shape, other.data.shape
        a = self.data if other.requires_grad else None
        b = other.data if self.requires_grad else None

        def bw(g):
            return (None if b is None else _unbroadcast(g @ b.swapaxes(-1, -2), a_shape),
                    None if a is None else _unbroadcast(a.swapaxes(-1, -2) @ g, b_shape))

        return out._record((self, other), bw)

    # -- shape ops ---------------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        src = self.data.shape
        out = Tensor(self.data.reshape(shape))
        return out._record((self,), lambda g: (g.reshape(src),))

    def permute(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inv = np.argsort(axes)
        out = Tensor(self.data.transpose(axes))
        return out._record((self,), lambda g: (g.transpose(inv),))

    def __getitem__(self, idx):
        out = Tensor(self.data[idx])
        src_shape = self.data.shape

        def bw(g):
            full = np.zeros(src_shape, dtype=np.float32)
            full[idx] = g
            return (full,)

        return out._record((self,), bw)

    # -- reductions ----------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        out = Tensor(self.data.sum(axis=axis, keepdims=keepdims, dtype=np.float32))
        src_shape = self.data.shape
        return out._record((self,), lambda g: (_spread(g, src_shape, axis, keepdims),))

    def mean(self, axis=None, keepdims=False):
        out = Tensor(self.data.mean(axis=axis, keepdims=keepdims, dtype=np.float32))
        src_shape = self.data.shape
        n = self.data.size if axis is None else _axis_count(src_shape, axis)
        return out._record(
            (self,), lambda g: (_spread(g, src_shape, axis, keepdims) / np.float32(n),)
        )

    # -- elementwise nonlinearities -------------------------------------------

    def sqrt(self):
        val = np.sqrt(self.data)
        return Tensor(val)._record((self,), lambda g: (g * np.float32(0.5) / val,))

    def relu(self):
        # bitwise np.where(x > 0, x, 0) on every float32, without its branch
        # on the data: fmax(NaN, 0) is 0, and adding 0.0 turns the -0.0 that
        # fmax may return for x = -0.0 into 0.0
        val = np.fmax(self.data, np.float32(0.0))
        val += np.float32(0.0)
        return Tensor(val)._record((self,), lambda g: (g * (val > 0),))

    def gelu(self):
        """Exact Gaussian-error-linear unit: x * Phi(x)."""
        x = self.data
        cdf = np.float32(0.5) * (np.float32(1.0) + erf(x * np.float32(1.0 / math.sqrt(2.0))))
        out = Tensor(x * cdf)

        def bw(g):
            pdf = np.exp(np.float32(-0.5) * x * x) * np.float32(1.0 / math.sqrt(2.0 * math.pi))
            return (g * (cdf + x * pdf),)

        return out._record((self,), bw)

    def softmax(self, axis=-1):
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        e = np.exp(shifted)
        val = e / e.sum(axis=axis, keepdims=True)

        def bw(g):
            dot = (g * val).sum(axis=axis, keepdims=True)
            return (val * (g - dot),)

        return Tensor(val)._record((self,), bw)

    def log_softmax(self, axis=-1):
        m = self.data.max(axis=axis, keepdims=True)
        shifted = self.data - m
        lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        val = shifted - lse

        def bw(g):
            soft = np.exp(val)
            return (g - soft * g.sum(axis=axis, keepdims=True),)

        return Tensor(val)._record((self,), bw)


def _wrap(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _sink(t):
    """Where the gradient of ``t`` accumulates: its graph node, the tensor
    itself for a leaf that needs a gradient, else None."""
    if t._node is not None:
        return t._node
    return t if t.requires_grad else None


def _accum(sink, g):
    """Add ``g`` into ``sink.grad`` without writing into either array.

    The first gradient is adopted as it comes, views included. A later one
    is added into a new array laid out like the old one. Plain ``old + g``
    is not enough: it may lay the sum out differently from ``old`` (a
    transposed ``old`` plus a C-ordered ``g`` comes out C-ordered), and
    numpy reductions further down, such as the bias sums of
    ``_unbroadcast``, add in an order that follows the layout, so the last
    bits of those gradients would change."""
    if sink.grad is None:
        sink.grad = g
    else:
        sink.grad = np.add(sink.grad, g, out=np.empty_like(sink.grad))


def _release(node):
    """Drop what a node holds once its closure has run: its gradient, the
    values its closure saved, and its links to its parents."""
    node.grad = node.backward = None
    node.parents = ()


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
    """Topologically ordered list of the sinks reachable from ``root``."""
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
        if isinstance(node, _Node):
            if node.backward is None:
                raise ValueError(
                    "backward() through a graph that an earlier backward() already "
                    "ran and released; build the graph again with a new forward pass"
                )
            for p in node.parents:
                if p is not None and id(p) not in visited:
                    stack.append((p, False))
    return order


# -- multi-tensor and structured ops -------------------------------------


def layer_norm(x, weight, bias, axis=-1, eps=1e-5):
    """Normalize ``x`` along ``axis`` to zero mean / unit variance, then
    apply the learned affine map. Built from primitives so the gradient
    comes from the graph."""
    mu = x.mean(axis=axis, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=axis, keepdims=True)
    xhat = centered / (var + eps).sqrt()
    return xhat * weight + bias


def conv3d(x, w):
    """Same-size 3-D convolution; ``x`` is (Cin, X, Y, Z), ``w`` is
    (Cout, Cin, k, k, k) with odd k, so stride 1 and padding k // 2."""
    x, w = _wrap(x), _wrap(w)
    xd, wd = x.data, w.data
    pad = wd.shape[2] // 2
    out = Tensor(_ck.conv3d_forward(xd, wd, 1, pad))
    return out._record((x, w), lambda g: _ck.conv3d_backward(xd, wd, g, 1, pad))


def conv_transpose3d(x, w):
    """Transposed 3-D convolution with kernel == stride s and no padding,
    an s-fold up-step; ``w`` is (Cin, Cout, s, s, s).

    With conv3d's weight reinterpreted this way, this is the exact adjoint
    of the stride-s conv3d without padding:
    <conv(x, w), y> == <x, conv_transpose3d(y, w)>.
    """
    x, w = _wrap(x), _wrap(w)
    xd, wd = x.data, w.data
    s = wd.shape[2]
    out = Tensor(_ck.convt3d_forward(xd, wd, s, 0))
    return out._record((x, w), lambda g: _ck.convt3d_backward(xd, wd, g, s, 0))
