"""Dense float32 tensors with reverse-mode automatic differentiation.

The graph is kept apart from the values. Every operation whose inputs
need a gradient gives its output a small graph node holding the sinks of
those inputs, a closure that maps the node's gradient to theirs, and the
node's gradient. A sink is where a gradient accumulates: the node of an
op output, or, for a leaf (a parameter or an input that needs a
gradient), the tensor itself. No node or closure holds a tensor, so a
value lives only as long as its tensor or a closure that reads it. The
closures save:

* add, sub, neg, reshape, permute, indexing, sum (over every element)
  and mean (over the last axis): shapes or indices only;
* mul, div and matmul: the operands that the gradients of the sides
  that need one read; each side's reads the other operand, and div's
  right side its own as well;
* sqrt, softmax and log_softmax their output; gelu its input and Phi(x);
* conv3d (same-size: odd k, stride 1, padding k // 2) and
  conv_transpose3d (an up-step: kernel == stride, no padding) the input,
  the weight, whose shape fixes the stride and the padding, and the bias
  for its shape; a conv3d that applies the ReLU also its output (the
  ReLU's mask is ``out > 0``, and a following conv keeps that output as
  its input anyway);
* stem, two conv3d ops with a ReLU between them: its input, both weights
  and both biases; the backward recomputes the middle map from them.

So a value that no closure reads, such as the hf stem's output once it
is added into the lf pyramid, is freed as soon as the caller drops its
tensor.

The backward frees each full-size array at its last read. conv3d and
stem keep their saved input, and a ReLU conv its output, in a list that
their backward pops. A ReLU conv builds its mask from the popped output,
so the output goes before ``g * mask`` is formed; the stem takes its mask
from the recomputed map before conv2's backward. Each kernel call
``_convkernels.conv3d_backward(x, w, g, ...)`` gets its x and g as call
temporaries: the saved input or the stem's recomputed map, and the
gradient, masked after a ReLU, each popped from a one-element list into
the call. The kernel drops each once it has padded it. ``backward()``
likewise clears a node's gradient before it calls the closure with it.
This rests on CPython 3.11 and later, where a Python function takes over
its call arguments and the caller keeps no reference, so the callee's is
the pass's only one. A wrapper around a kernel that keeps its arguments
until the call returns (such as the bench's tracer) keeps them alive,
and there only the ReLU output goes early. No value depends on when an
array is freed.

These ops write a value in place, each into an array that no closure
reads and that only the op's caller holds:

* each conv adds its bias into the kernel's new output, and conv3d runs
  its ReLU there too (``_convkernels.conv``);
* stem runs conv2 over conv1's new output (``_convkernels.stem``);
* ``Tensor.add_`` adds into one of its operands (``_convkernels.add_``):
  ``model.fuse_add`` adds the hf pyramid into the lf pyramid's levels,
  and the decoder adds each of its three lower skips into its up-step's
  new output, and the fused stem level into final_up's.

Each is the same IEEE operation on the same operands as the op it
replaces, so values and gradients are bitwise those of separate ops, in
the recorded and the ``no_grad`` pass alike.

``Tensor.backward()`` sorts the nodes reachable from the loss once and
runs their closures in reverse topological order, adding each returned
gradient into its parent sink. No gradient array is written in place
once a closure has returned it (the stem writes its ReLU mask into the
kernel's new gradient of its middle map, which it alone holds), so a
sink adopts the first gradient it receives as it comes, even a view of
another sink's gradient (add, sub, reshape and permute pass on views of
their own), and adds each later one into a new array laid out like the
old one (see ``_accum``). A node's gradient is cleared as its closure
is called, and once the closure has run, its closure and parent links
are released, so the saved values and every intermediate gradient are
freed during the pass, and a second ``backward()`` through the same
graph raises ``ValueError``. The loss and the leaves keep their
gradients, which may be views of one another or of a released node's
gradient.

All math is numpy alone; values stay float32 throughout so test
tolerances are meaningful for the precision actually used. GELU is the
exact one, x * Phi(x) (Hendrycks & Gimpel, arXiv 1606.08415), and its
``erf`` is local: Cephes's rational functions in float64, rounded to
float32, which equal ``scipy.special.erf`` bitwise on every float32.
"""

from __future__ import annotations

import ctypes
import math
import platform
from contextlib import contextmanager

import numpy as np

from . import _convkernels as _ck

_GRAD_ENABLED = True
_LN_EPS = 1e-5  # added to layer_norm's variance


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

    So the heap keeps what each step frees, and a run's RSS high-water
    mark follows the heap's size, not the live peak. glibc's ``mallinfo2``
    between steps 10 and 20 of the bench's ``train_mid`` (seed 1), whose
    parameters, gradients and AdamW moments take 58.0 MiB each:

    * with the stems' backward run last, the arena was 347.2 MiB: 257.5
      in use and 89.8 freed but kept;
    * with it run first (see ``model.Decoder.forward``), 339.1 MiB: 257.5
      and 81.6;
    * with ``train``'s optimizer also built after the first backward,
      333.0 MiB: 257.5 and 75.5.

    A step's live peak is about 199.5 MiB in use before its forward (no
    gradients) plus tracemalloc's peak of the step, 114.9 and 102.4 MiB
    in the first two cases. The arena exceeds it by 31-37 MiB of freed
    blocks that the peak's arrays did not fit into, so a live peak lower
    by 12.5 MiB gave an arena lower by 8.1 MiB.
    """
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)


# Cephes's erf (ndtr.c, S. L. Moshier): x*T(x^2)/U(x^2) for |x| <= 1, and
# 1 - erfc(x) above, with erfc(x) = exp(-x^2)*P(x)/Q(x). U and Q are monic;
# Cephes leaves their 1 out (p1evl), and 1*x is x exactly
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERF_CHUNK = 32768  # float64 elements: each temporary (256 KiB) stays in L2


def _polevl(x, coef):
    """Cephes's Horner order, (c0*x + c1)*x + c2 ..., in float64."""
    ans = x * coef[0]
    ans += coef[1]
    for c in coef[2:]:
        ans *= x
        ans += c
    return ans


def erf(x):
    """The error function of a float32 array, bitwise equal to Cephes's
    float64 erf (the one ``scipy.special.erf`` runs) rounded to float32.

    erf is odd and rounding is symmetric, so it is evaluated on |x| and
    given the sign of x; Cephes forms the negative half as 1 - (2 - erfc),
    which rounds to the same float32 on every input. |x| is clamped at 6,
    where the float64 result is already 1.0, so that the polynomials stay
    finite for inf. NaN stays NaN. Each chunk evaluates the |x| <= 1 form
    on all of its elements and the erfc form only where |x| > 1.
    """
    flat = x.ravel()
    out = np.empty(flat.shape, np.float32)
    for i in range(0, flat.size, _ERF_CHUNK):
        a = np.abs(flat[i : i + _ERF_CHUNK], dtype=np.float64)
        np.minimum(a, 6.0, out=a)
        z = a * a
        r = _polevl(z, _ERF_T)
        r *= a
        r /= _polevl(z, _ERF_U)
        big = np.flatnonzero(a > 1.0)
        b = a[big]
        erfc = np.exp(-z[big])
        erfc *= _polevl(b, _ERFC_P)
        erfc /= _polevl(b, _ERFC_Q)
        r[big] = 1.0 - erfc
        out[i : i + _ERF_CHUNK] = r
    return np.copysign(out, flat, out=out).reshape(x.shape)


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
                for parent, g in zip(node.parents, node.backward(_take_grad(node))):
                    if parent is not None:
                        _accum(parent, g)
                del g  # the last gradient returned goes now, unless a sink adopted it
                _release(node)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        return self._add(other, np.add)

    def add_(self, other):
        """``self + other``, written into the array of one operand, which no
        closure may read (say, an up-step's new output) and which takes the
        sum's shape (see ``_convkernels.add_``); ``self`` stays the left
        operand. Returns a new tensor over that array."""
        return self._add(other, _ck.add_)

    def _add(self, other, add):
        other = _wrap(other)
        return _binary(self, other, add(self.data, other.data), lambda g: g, lambda g: g)

    def __sub__(self, other):
        other = _wrap(other)
        return _binary(self, other, self.data - other.data, lambda g: g, lambda g: -g)

    def __rsub__(self, other):
        return _wrap(other) - self

    def __neg__(self):
        return Tensor(-self.data)._record((self,), lambda g: (-g,))

    def __mul__(self, other):
        other = _wrap(other)
        a, b = self.data, other.data
        return _binary(self, other, a * b, lambda g: g * b, lambda g: g * a)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _wrap(other)
        a, b = self.data, other.data
        return _binary(self, other, a / b, lambda g: g / b, lambda g: -g * a / (b * b))

    def __matmul__(self, other):
        other = _wrap(other)
        if self.ndim < 2 or other.ndim < 2:
            raise ValueError("matmul operands must be at least 2-D")
        a, b = self.data, other.data
        return _binary(self, other, a @ b, lambda g: g @ b.swapaxes(-1, -2),
                       lambda g: a.swapaxes(-1, -2) @ g)

    # -- shape ops ---------------------------------------------------------

    def reshape(self, *shape):
        src = self.data.shape
        out = Tensor(self.data.reshape(shape))
        return out._record((self,), lambda g: (g.reshape(src),))

    def permute(self, *axes):
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

    def sum(self):
        """The sum of every element."""
        out = Tensor(self.data.sum(dtype=np.float32))
        src_shape = self.data.shape
        return out._record((self,), lambda g: (_spread(g, src_shape),))

    def mean(self):
        """The mean over the last axis, kept with length 1."""
        out = Tensor(self.data.mean(axis=-1, keepdims=True, dtype=np.float32))
        src_shape = self.data.shape
        n = np.float32(src_shape[-1])
        return out._record((self,), lambda g: (_spread(g, src_shape) / n,))

    # -- elementwise nonlinearities -------------------------------------------

    def sqrt(self):
        val = np.sqrt(self.data)
        return Tensor(val)._record((self,), lambda g: (g * np.float32(0.5) / val,))

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


def _binary(a, b, value, grad_a, grad_b):
    """``value``, the output of an op on tensors ``a`` and ``b``, recorded:
    ``grad_a(g)`` and ``grad_b(g)`` map its gradient to each side's, which
    is then summed down to that side's shape. Each is kept only when its
    side needs a gradient, so the closure keeps only the operands that the
    needed sides read."""
    a_shape, b_shape = a.data.shape, b.data.shape
    grad_a = grad_a if a.requires_grad else None
    grad_b = grad_b if b.requires_grad else None

    def bw(g):
        return (None if grad_a is None else _unbroadcast(grad_a(g), a_shape),
                None if grad_b is None else _unbroadcast(grad_b(g), b_shape))

    return Tensor(value)._record((a, b), bw)


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


def _take_grad(node):
    """The node's gradient, cleared on the node first, so that the closure
    it is passed to as a call argument holds the only reference the pass
    keeps (see the module docstring)."""
    g, node.grad = node.grad, None
    return g


def _release(node):
    """Drop what a node holds once its closure has run: the values its
    closure saved and its links to its parents (its gradient went to the
    closure, see ``_take_grad``)."""
    node.backward = None
    node.parents = ()


def _spread(g, shape):
    """Broadcast a reduction gradient back to the source shape, as a new array."""
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


def layer_norm(x, weight, bias):
    """Normalize ``x`` along its last axis to zero mean / unit variance,
    then apply the learned affine map. Built from primitives so the
    gradient comes from the graph."""
    mu = x.mean()
    centered = x - mu
    var = (centered * centered).mean()
    xhat = centered / (var + _LN_EPS).sqrt()
    return xhat * weight + bias


def _bias_grad(g, b, need):
    """The bias gradient of ``out + b.reshape(cout, 1, 1, 1)``, by the same
    sums as the add's and the reshape's gradients."""
    return _unbroadcast(g, (len(b), 1, 1, 1)).reshape(b.shape) if need else None


def _conv_grads(xs, w, gs, b, need_b):
    """(gx, gw, gb) of ``conv3d`` with weight ``w`` and bias ``b``, from its
    input and its output's gradient, each the one element of its list,
    popped into the kernel call (see the module docstring); gb is None
    unless ``need_b``."""
    gb = _bias_grad(gs[0], b, need_b)
    return (*_ck.conv3d_backward(xs.pop(), w, gs.pop(), 1, w.shape[2] // 2), gb)


def conv3d(x, w, b, relu=False):
    """Same-size 3-D convolution plus the bias ``b`` (Cout,), then the ReLU
    if ``relu``; ``x`` is (Cin, X, Y, Z), ``w`` is (Cout, Cin, k, k, k) with
    odd k, so stride 1 and padding k // 2.

    The bias add and the ReLU run in place in the kernel's new output
    (``_convkernels.conv``); each value equals that of ``conv + b`` and
    ``.relu()`` as separate ops, and so does each gradient.
    """
    x, w, b = _wrap(x), _wrap(w), _wrap(b)
    xd, wd, bd = x.data, w.data, b.data
    y = _ck.conv(xd, wd, bd, relu)
    need_b = b.requires_grad
    saved = [xd, y] if relu else [xd]  # popped by the backward, the output first

    def bw(g):
        if relu:  # the mask is out > 0; the output goes before g * mask is formed
            g = g * (saved.pop() > 0)
        g = [g]  # popped into the kernel call, which then holds the only reference
        return _conv_grads(saved, wd, g, bd, need_b)

    return Tensor(y)._record((x, w, b), bw)


def stem(x, w1, b1, w2, b2):
    """``conv3d(conv3d(x, w1, b1, relu=True), w2, b2)`` as one op that keeps
    only its inputs: the backward recomputes the middle map
    h = relu(conv(x, w1) + b1) with the same kernel call instead of holding
    it from the forward (gradient checkpointing, Chen et al., arXiv
    1604.06174), then runs the composed ops' backward steps in their order.
    Values and gradients are bitwise those of the two ops. The forward
    holds one full-resolution map (``_convkernels.stem``).
    """
    x, w1, b1, w2, b2 = (_wrap(t) for t in (x, w1, b1, w2, b2))
    xd, w1d, b1d, w2d, b2d = (t.data for t in (x, w1, b1, w2, b2))
    y = _ck.stem(xd, w1d, b1d, w2d, b2d)
    need_b1, need_b2 = b1.requires_grad, b2.requires_grad
    saved = [xd]  # popped by conv1's backward

    def bw(g):
        h = [_ck.conv(saved[0], w1d, b1d, True)]
        mask = h[0] > 0  # the ReLU's, taken before h goes to conv2's backward
        g = [g]
        gh, gw2, gb2 = _conv_grads(h, w2d, g, b2d, need_b2)
        gh *= mask  # written into the kernel's new gh
        del mask
        gh = [gh]
        return (*_conv_grads(saved, w1d, gh, b1d, need_b1), gw2, gb2)

    return Tensor(y)._record((x, w1, b1, w2, b2), bw)


def conv_transpose3d(x, w, b):
    """Transposed 3-D convolution with kernel == stride s and no padding,
    an s-fold up-step, plus the bias ``b`` (Cout,), added in place into the
    kernel's new output; ``w`` is (Cin, Cout, s, s, s).

    With conv3d's weight reinterpreted this way and a zero bias, this is
    the exact adjoint of the stride-s conv3d without padding:
    <conv(x, w), y> == <x, conv_transpose3d(y, w, 0)>.
    """
    x, w, b = _wrap(x), _wrap(w), _wrap(b)
    xd, wd, bd = x.data, w.data, b.data
    s = wd.shape[2]
    y = _ck.convt3d_forward(xd, wd, s, 0)
    y += bd.reshape(-1, 1, 1, 1)
    need_b = b.requires_grad

    def bw(g):
        gb = _bias_grad(g, bd, need_b)
        return (*_ck.convt3d_backward(xd, wd, g, s, 0), gb)

    return Tensor(y)._record((x, w, b), bw)
