"""Raw numpy kernels for the two convolutions the model uses.

Layout conventions (no batch axis; the pipeline trains one window at a
time):

* conv3d input  (Cin, X, Y, Z), weight (Cout, Cin, k, k, k)
* conv_transpose3d input (Cin, X, Y, Z), weight (Cin, Cout, s, s, s)

Both serve only the shapes of the model (UNETR, Hatamizadeh et al.,
arXiv 2103.10497). conv3d is same-size: odd k, stride 1, padding k // 2
(the 3x3x3 convs and the 1x1x1 head). conv_transpose3d is a
non-overlapping up-step: kernel == stride s, padding 0 (the 2x2x2,
stride-2 up-steps). Each kernel keeps its ``stride`` and ``pad``
arguments and rejects any other value.

conv3d. No kernel unrolls its input into an im2col matrix or scatters
through a col2im loop. Every pass, forward and backward, is a valid
stride-1 correlation or its weight gradient, read as shifted contiguous
slices of a flat padded volume in cache-sized blocks (implicit GEMM,
after Chetlur et al., arXiv 1410.0759, and MEC, Cho & Brand, arXiv
1706.06873), so the time goes to threaded BLAS rather than to
single-threaded copies.

Flat padded layout. The input is zero-padded once by p = k // 2 to the
grid (C, Xp, Yp, Zp) and viewed as the matrix ``flat`` of shape
(C, Xp*Yp*Zp), followed by a zero tail. Output voxel (a, b, c) of the
valid correlation is computed at column q = (a*Yp + b)*Zp + c, and its
input under kernel offset (dx, dy, dz) sits at column q + d with the
constant shift

    d = (dx*Yp + dy)*Zp + dz.

So offset (dx, dy, dz) contributes ``W[:, :, dx, dy, dz] @ flat[:, d:d + n]``
to every output at once, where ``flat[:, d:d + n]`` is a contiguous slice
of each row. The n = X*Yp*Zp columns cover whole rows of the padded
grid, including junk columns with b >= Y or c >= Z whose windows wrap
around into the next row. They are computed and left out of the result:
the forward returns the (Cout, X, Y, Z) crop as a view, without a copy,
and the bias add that follows it in ``nn.Conv3d`` writes a new
contiguous array anyway. The zero tail of (k-1)*(Zp+1) columns
keeps the last shifted slice inside the buffer.

Backward. The input gradient of a same-size conv is the same-size conv
of ``g`` with the flipped, channel-swapped weight:

    gx = corr(pad(g, p), flip(w).swapaxes(0, 1)).

The weight gradient of offset d is ``g_full @ flat[:, d:d + n].T``, where
``g_full`` is ``g`` written into the padded-grid layout with zeros in
the wrap-around columns. Those zeros keep the junk windows out of
``gw``; without them ``gw`` is silently wrong. The padded ``g`` lies on
the grid of ``x``, so ``g_full`` is a view of it, shifted by the pad.

Accumulation order follows from the shapes. The k**3 kernel offsets
are split between the copied block and the GEMM output. Split a sends
the offsets of the trailing a kernel axes (dz; dy and dz; all three) to
the output side. For a block of m output columns the block of columns
holds the k**(3-a) shifted slices of the other offsets, each m + halo
columns wide, where the halo is the largest output-side shift: a block
(k**(3-a)*cin, m + halo), bounded so that the copy and the GEMM that
reads it stay in cache, and at least 8*halo columns wide so that the
halo adds at most 1/8. With the weight laid out as
(k**a*cout, k**(3-a)*cin), one GEMM per block gives k**a partial
outputs, one per output-side shift, and they are added into the output
at their shifts (kn2row, Vasudevan et al., arXiv 1704.04428). The
weight gradient runs one GEMM per output-side shift d,
``block[:, d:d + m] @ g[:, q0:q0 + m].T``, into the part of ``gw`` of
that shift. The split is the largest a with
k**a*cout <= 4*k**(3-a)*cin. At k = 3 the 1 -> 16 stem conv keeps
a = 0 (one GEMM per block, K = 27), the 16 -> 16 and 32 -> 32 convs
take a = 2 (M = 144, K = 48), and the 16 -> 1 input gradient of the
stem takes a = 3, whose block is a view of the input: nothing is copied.
The reason is measured. On a 2-core Xeon with OpenBLAS 0.3.31, a
(16, 432) @ (432, 8192) GEMM, the 16 -> 16 conv at a = 0, runs at
115-125 GFLOP/s with 2 threads (65-70 with one), a (144, 48) or
(48, 144) times 8326 columns at 230-270 (125-130), and the copy falls
from 27 times the input to 9 times (a = 1) or 3 times (a = 2). A GEMM
per offset instead, with K = cin, would stream a full-size output
through memory 27 times. With a single offset (k = 1) the block is a
view of all n columns and nothing is copied.

conv_transpose3d. With kernel == stride s and no padding, input voxel
(a, b, c) alone writes the output block of s**3 voxels from
(a*s, b*s, c*s) on. So the forward is one GEMM,
``w.reshape(Cin, -1).T @ x.reshape(Cin, -1)``, whose rows are
(o, rx, ry, rz), and a depth-to-space copy that puts row (o, r) of
column (a, b, c) at voxel (a*s + rx, b*s + ry, c*s + rz) of channel o.
The copy runs one offset r at a time: the rows of offset r, a
contiguous (Cout, X, Y, Z) block of every channel, go to the strided
slice ``out[:, :, rx, :, ry, :, rz]`` of the output viewed as
(Cout, X, s, Y, s, Z, s). A single 7-D transposed copy reads the GEMM
result X*Y*Z elements apart along the output's fastest axis: at
32 -> 16 channels on a 32^3 grid the whole call took 14-26 ms that way
against 8-14 ms per offset, with about 2 ms in the GEMM. The backward
is the space-to-depth copy ``gs`` of ``g`` into the GEMM's
(Cout*s**3, X*Y*Z) layout and two GEMMs: gx = w.reshape(Cin, -1) @ gs
and gw = x.reshape(Cin, -1) @ gs.T.

Every loop runs in a fixed order, so results are bitwise deterministic.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# bounds of one block of shifted columns, set so that the copy and the
# GEMM that reads it back stay in cache
_BLOCK_COLS = 8192
_BLOCK_BYTES = 8 * 2**20


def _same_size(w, stride, pad):
    """Kernel size k of a same-size conv3d: odd k, stride 1, padding k // 2."""
    k = w.shape[2]
    if k % 2 == 0:
        raise ValueError(f"conv3d needs an odd kernel, got {k}")
    if (stride, pad) != (1, k // 2):
        raise ValueError(f"conv3d is same-size only (stride 1, padding {k // 2} for kernel {k}), "
                         f"got stride {stride}, padding {pad}")
    return k


def _up_step(w, stride, pad):
    """Stride s of a non-overlapping transposed conv: kernel == stride s,
    padding 0."""
    s = w.shape[2]
    if (stride, pad) != (s, 0):
        raise ValueError(f"conv_transpose3d takes stride == kernel {s} and padding 0, "
                         f"got stride {stride}, padding {pad}")
    return s


def _offsets(k):
    return list(itertools.product(range(k), repeat=3))


def _flip(w):
    """Flipped, channel-swapped weight: the kernel of the adjoint."""
    return w[:, :, ::-1, ::-1, ::-1].swapaxes(0, 1)


def _flat_padded(x, pad, k):
    """``x`` (C, X, Y, Z) zero-padded by ``pad`` voxels per side, as the
    flat array (C, Xp*Yp*Zp) with the zero tail of a k-kernel; returns
    (flat, grid) with grid = (Xp, Yp, Zp). See the module docstring."""
    c = x.shape[0]
    grid = tuple(n + 2 * pad for n in x.shape[1:])
    if k == 1:
        return np.ascontiguousarray(x).reshape(c, -1), grid
    n = math.prod(grid)
    flat = np.zeros((c, n + (k - 1) * (grid[2] + 1)), dtype=np.float32)
    inner = tuple(slice(pad, pad + m) for m in x.shape[1:])
    flat[:, :n].reshape(c, *grid)[(slice(None), *inner)] = x
    return flat, grid


# -- shifted GEMMs over the flat padded volume ------------------------------


def _split(k, cout, cin):
    """Kernel axes whose offsets go to the GEMM output: the largest a with
    k**a*cout <= 4*k**(3-a)*cin (see the module docstring)."""
    return next((a for a in (3, 2, 1) if k**a * cout <= 4 * k ** (3 - a) * cin), 0)


def _shifts(grid, k, a):
    """(copied, output-side) shifts of split ``a``: the offsets of the
    leading 3-a and of the trailing a kernel axes, in the order of
    ``_offsets``, whose sums are the shifts of every offset."""
    _, yp, zp = grid
    d = [(dx * yp + dy) * zp + dz for dx, dy, dz in _offsets(k)]
    return d[:: k**a], d[: k**a]


def _column_blocks(flat, shifts, halo, n):
    """Yield (q0, m, block) with block[(i, c), j] = flat[c, q0 + j + shifts[i]]
    for the m output columns q0 <= q0 + j < n plus ``halo`` more, at most
    _BLOCK_COLS columns and _BLOCK_BYTES per block but at least 8*halo
    columns, so that the halo adds at most 1/8. A single shift yields views
    of ``flat``: nothing is copied, and without a halo (k = 1) all n columns
    are one block."""
    rows = len(shifts) * flat.shape[0]
    step = max(8 * halo, min(_BLOCK_COLS, _BLOCK_BYTES // (4 * rows)))
    if len(shifts) == 1:
        step = step if halo else n
        for q0 in range(0, n, step):
            m = min(step, n - q0)
            yield q0, m, flat[:, q0 : q0 + m + halo]
        return
    buf = np.empty(rows * (min(step, n) + halo), dtype=np.float32)
    for q0 in range(0, n, step):
        m = min(step, n - q0)
        block = buf[: rows * (m + halo)].reshape(len(shifts), -1, m + halo)
        for i, d in enumerate(shifts):
            block[i] = flat[:, q0 + d : q0 + d + m + halo]
        yield q0, m, block.reshape(rows, -1)


def _corr1(flat, grid, w):
    """Valid stride-1 correlation of the flat padded volume with ``w``
    (Cout, Cin, k, k, k); returns (Cout, Xp-k+1, Yp-k+1, Zp-k+1), a view
    that drops the wrap-around columns."""
    cout, cin, k = w.shape[:3]
    xp, yp, zp = grid
    ox, oy, oz = xp - k + 1, yp - k + 1, zp - k + 1
    n = ox * yp * zp
    a = _split(k, cout, cin)
    shifts, outs = _shifts(grid, k, a)
    halo = outs[-1]
    # rows (output-side offset, o), columns (copied offset, c)
    wm = w.reshape(cout, cin, -1, k**a).transpose(3, 0, 2, 1).reshape(k**a * cout, -1)
    y = np.empty((cout, n), dtype=np.float32)
    buf = None
    for q0, m, block in _column_blocks(flat, shifts, halo, n):
        yb = y[:, q0 : q0 + m]
        if not halo:  # the GEMM gives the output block itself
            np.matmul(wm, block, out=yb)
            continue
        if buf is None:  # sized by the first block, the widest
            buf = np.empty((len(wm), m + halo), dtype=np.float32)
        p = np.matmul(wm, block, out=buf[:, : m + halo]).reshape(len(outs), cout, -1)
        np.add(p[0, :, :m], p[1, :, outs[1] : outs[1] + m], out=yb)
        for i, d in enumerate(outs[2:], 2):
            yb += p[i, :, d : d + m]
    return y.reshape(cout, ox, yp, zp)[:, :, :oy, :oz]


def _weight_grad1(g_full, flat, grid, k):
    """gw[o, c, off] = sum_q g_full[o, q] * flat[c, q + shift(off)], the
    weight gradient of the valid stride-1 correlation, as a
    (Co, C, k, k, k) view; ``g_full`` is ``g`` in the padded-grid layout,
    zero at the wrap-around columns."""
    co, n = g_full.shape
    c = flat.shape[0]
    if k == 1:  # one GEMM, straight into the (Co, C) layout of the result
        return (g_full @ flat[:, :n].T).reshape(co, c, 1, 1, 1)
    a = _split(k, co, c)
    shifts, outs = _shifts(grid, k, a)
    gw = np.zeros((len(outs), len(shifts) * c, co), dtype=np.float32)
    for q0, m, block in _column_blocks(flat, shifts, outs[-1], n):
        gb = g_full[:, q0 : q0 + m].T
        for i, d in enumerate(outs):
            gw[i] += block[:, d : d + m] @ gb
    # (output-side offset, copied offset, c, o) -> (o, c, k, k, k)
    return gw.reshape(k**a, -1, c, co).transpose(3, 2, 1, 0).reshape(co, c, k, k, k)


# -- public kernels ---------------------------------------------------------


def conv3d_forward(x, w, stride, pad):
    cin = w.shape[1]
    if x.shape[0] != cin:
        raise ValueError(f"conv3d expects {cin} input channels, got {x.shape[0]}")
    return _corr1(*_flat_padded(x, pad, _same_size(w, stride, pad)), w)


def conv3d_backward(x, w, g, stride, pad):
    """Gradients (gx, gw) of conv3d given upstream gradient ``g``."""
    k = _same_size(w, stride, pad)
    gflat, grid = _flat_padded(g, pad, k)
    # contiguous: gradient layouts set the order of _unbroadcast's sums (see _accum)
    gx = np.ascontiguousarray(_corr1(gflat, grid, _flip(w)))
    flat, _ = _flat_padded(x, pad, k)
    _, yp, zp = grid
    q = (pad * yp + pad) * zp + pad  # g_full: the padded g, shifted by the pad
    g_full = gflat[:, q : q + g.shape[1] * yp * zp]
    return gx, np.ascontiguousarray(_weight_grad1(g_full, flat, grid, k))


def convt3d_forward(x, w, stride, pad):
    cin, cout = w.shape[:2]
    if x.shape[0] != cin:
        raise ValueError(f"conv_transpose3d expects {cin} input channels, got {x.shape[0]}")
    s = _up_step(w, stride, pad)
    _, X, Y, Z = x.shape
    y = w.reshape(cin, -1).T @ x.reshape(cin, -1)  # rows (o, rx, ry, rz)
    y = y.reshape(cout, s, s, s, X, Y, Z)
    out = np.empty((cout, X, s, Y, s, Z, s), dtype=np.float32)
    for rx, ry, rz in _offsets(s):
        out[:, :, rx, :, ry, :, rz] = y[:, rx, ry, rz]
    return out.reshape(cout, X * s, Y * s, Z * s)


def convt3d_backward(x, w, g, stride, pad):
    """Gradients (gx, gw) of conv_transpose3d given upstream gradient ``g``."""
    cin, cout = w.shape[:2]
    s = _up_step(w, stride, pad)
    _, X, Y, Z = x.shape
    gs = g.reshape(cout, X, s, Y, s, Z, s).transpose(0, 2, 4, 6, 1, 3, 5)
    gs = gs.reshape(cout * s**3, -1)  # the forward's row layout
    gx = (w.reshape(cin, -1) @ gs).reshape(x.shape)
    return gx, (x.reshape(cin, -1) @ gs.T).reshape(w.shape)
