"""Raw numpy kernels for 3-D convolution and transposed convolution.

Layout conventions (no batch axis; the pipeline trains one window at a
time):

* conv3d input  (Cin, X, Y, Z), weight (Cout, Cin, k, k, k)
* conv_transpose3d input (Cin, X, Y, Z), weight (Cin, Cout, k, k, k)

No kernel unrolls its input into a full strided im2col matrix or
scatters through a col2im loop. Every pass of both ops, forward and
backward, is a valid stride-1 correlation or its weight gradient, read
as shifted contiguous slices of a flat padded volume in cache-sized
blocks (implicit GEMM, after Chetlur et al., arXiv 1410.0759, and MEC,
Cho & Brand, arXiv 1706.06873), so the time goes to threaded BLAS rather
than to single-threaded copies.

Flat padded layout. The input is zero-padded once to the grid
(C, Xp, Yp, Zp) and viewed as the matrix ``flat`` of shape
(C, Xp*Yp*Zp), followed by a zero tail. Output voxel (a, b, c) of the
valid correlation is computed at column q = (a*Yp + b)*Zp + c, and its
input under kernel offset (dx, dy, dz) sits at column q + d with the
constant shift

    d = (dx*Yp + dy)*Zp + dz.

So offset (dx, dy, dz) contributes ``W[:, :, dx, dy, dz] @ flat[:, d:d + n]``
to every output at once, where ``flat[:, d:d + n]`` is a contiguous slice
of each row. The n = ox*Yp*Zp columns cover whole rows of the padded
grid, including junk columns with b >= oy or c >= oz whose windows wrap
around into the next row. They are computed and dropped when the result
is cropped to (Cout, ox, oy, oz). The zero tail of (k-1)*(Zp+1) columns
keeps the last shifted slice inside the buffer.

Space-to-depth (stride s). Write a kernel offset as dx = u*s + r with
0 <= r < s. Output a of a stride-s conv reads padded voxel
a*s + dx = (a + u)*s + r: residue r of cell a + u, when the padded input
is cut into cells of s voxels per axis. With the s**3 residues of a cell
moved into the channels, (C, Xc*s, Yc*s, Zc*s) -> (C*s**3, Xc, Yc, Zc),
the conv is a valid stride-1 correlation with kernel size kk = ceil(k/s)
(the sub-pixel equivalence of Shi et al., arXiv 1609.05158). Its weight
is rearranged the same way, with zero taps where u*s + r >= k. The input
is padded or cropped at the far end to Xc = ox + kk - 1 cells, the cells
the outputs read. At s = 1 this is the padded input itself.

Backward. The input gradient of a valid correlation is the valid
correlation of ``g`` zero-padded by kk-1 with the flipped,
channel-swapped weight:

    gx = corr(pad(g, kk-1), flip(w).swapaxes(0, 1)).

Only the cells from pad // s on are computed (``g`` is padded by
kk-1-pad//s in front; a negative pad crops). They are put back from
depth to space and cropped to the input, which starts at voxel pad % s.
At s = 1 that is ``g`` padded by k-1-pad, with nothing to crop. The
weight gradient of offset d is ``g_full @ flat[:, d:d + n].T``, where
``g_full`` is ``g`` written into the padded-grid layout with zeros in
the wrap-around columns. Those zeros keep the junk windows out of
``gw``; without them ``gw`` is silently wrong. When the padded ``g``
lies on the same grid as ``x`` (at s = 1, a same-size conv,
2*pad == k-1), ``g_full`` is a view of it, shifted by the pad. The
gradient of the rearranged weight is gathered back and its zero taps
dropped.

Transposed conv. conv_transpose3d with weight (Cin, Cout, k, k, k) is
the adjoint of conv3d that reads the same array as its (Cout, Cin)
weight (Dumoulin & Visin, arXiv 1603.07285). So its forward is conv3d's
input gradient with ``x`` as the upstream gradient. Its backward is
conv3d's forward of ``g`` (the input gradient) and conv3d's weight
gradient with ``g`` as the input and ``x`` as the upstream gradient,
both on one space-to-depth copy of ``g``. At k == stride and pad 0
(every up-step of the model) kk = 1: the forward is one GEMM on a view
of ``x`` and a depth-to-space reshape, the backward one space-to-depth
copy and two GEMMs.

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


def _out_dim(n, k, stride, pad):
    return (n + 2 * pad - k) // stride + 1


def _check_conv_args(shape, k, stride, pad):
    if stride <= 0:
        raise ValueError(f"stride must be positive, got {stride}")
    if pad < 0:
        raise ValueError(f"padding must be nonnegative, got {pad}")
    for n in shape:
        if n + 2 * pad < k:
            raise ValueError(
                f"kernel {k} larger than padded input extent {n + 2 * pad}"
            )


def _offsets(k):
    return list(itertools.product(range(k), repeat=3))


def _flip(w):
    """Flipped, channel-swapped weight: the kernel of the adjoint."""
    return w[:, :, ::-1, ::-1, ::-1].swapaxes(0, 1)


# -- space-to-depth ---------------------------------------------------------


def _s2d_weight(w, s):
    """(A, B, k, k, k) -> (A, B*s**3, kk, kk, kk), kk = ceil(k/s): tap
    u*s + r of input channel b becomes tap u of channel (b, r); taps past
    k are zero."""
    a, b, k = w.shape[:3]
    kk = -(-k // s)
    if kk * s > k:
        e = kk * s - k
        w = np.pad(w, ((0, 0), (0, 0), (0, e), (0, e), (0, e)))
    w = w.reshape(a, b, kk, s, kk, s, kk, s).transpose(0, 1, 3, 5, 7, 2, 4, 6)
    return w.reshape(a, b * s**3, kk, kk, kk)


def _s2d_weight_grad(gw, s, k):
    """Gradient of the (A, B, k, k, k) weight from the gradient ``gw`` of
    its :func:`_s2d_weight` rearrangement."""
    a, bs, kk = gw.shape[:3]
    gw = gw.reshape(a, bs // s**3, s, s, s, kk, kk, kk).transpose(0, 1, 5, 2, 6, 3, 7, 4)
    gw = gw.reshape(a, -1, kk * s, kk * s, kk * s)
    return np.ascontiguousarray(gw[:, :, :k, :k, :k])


def _span(lo, s, r, n, cells):
    """(cell slice, voxel slice) along one axis: the cells a < ``cells``
    whose residue-r voxel a*s + r holds voxel a*s + r - lo of an axis of
    n voxels."""
    a0 = max(0, -((r - lo) // s))
    a1 = max(a0, min(cells, -((r - lo - n) // s)))
    v0 = a0 * s + r - lo
    return slice(a0, a1), slice(v0, v0 + (a1 - a0) * s, s)


def _flat_padded(x, lo, cells, k, s=1):
    """``x`` (C, X, Y, Z) at voxel offset ``lo`` (a negative offset crops)
    in a zero volume of ``cells[i]*s`` voxels per axis, in the
    space-to-depth layout (C*s**3, *cells) with channel (c, rx, ry, rz),
    as a flat array with the zero tail of a k-kernel; returns
    (flat, cells). See the module docstring."""
    c = x.shape[0]
    if lo == 0 and s == 1 and k == 1 and cells == x.shape[1:]:
        return np.ascontiguousarray(x).reshape(c, -1), cells
    n = math.prod(cells)
    shape = (c * s**3, n + (k - 1) * (cells[2] + 1))
    if lo == 0 and x.shape[1:] == tuple(m * s for m in cells):  # x fills every cell
        flat = np.empty(shape, dtype=np.float32)
        flat[:, n:] = 0
        cx, cy, cz = cells
        flat[:, :n].reshape(c, s, s, s, *cells)[...] = (
            x.reshape(c, cx, s, cy, s, cz, s).transpose(0, 2, 4, 6, 1, 3, 5)
        )
        return flat, cells
    flat = np.zeros(shape, dtype=np.float32)
    vol = flat[:, :n].reshape(c, s, s, s, *cells)
    for r in _offsets(s):
        dst, src = zip(*(_span(lo, s, *a) for a in zip(r, x.shape[1:], cells)))
        vol[(slice(None), *r, *dst)] = x[(slice(None), *src)]
    return flat, cells


def _depth_to_space(a, s, off, shape):
    """(C*s**3, *cells) -> (C, *shape): the inverse of the space-to-depth
    layout, cropped to the voxels from ``off`` on."""
    c, (cx, cy, cz) = a.shape[0] // s**3, a.shape[1:]
    a = a.reshape(c, s, s, s, cx, cy, cz).transpose(0, 4, 1, 5, 2, 6, 3)
    a = a.reshape(c, cx * s, cy * s, cz * s)
    x, y, z = shape
    return np.ascontiguousarray(a[:, off : off + x, off : off + y, off : off + z])


# -- stride 1: shifted GEMMs over the flat padded volume -------------------


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
    (Cout, Cin, k, k, k); returns (Cout, Xp-k+1, Yp-k+1, Zp-k+1)."""
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
        yb[...] = p[0, :, :m]
        for i, d in enumerate(outs[1:], 1):
            yb += p[i, :, d : d + m]
    return np.ascontiguousarray(y.reshape(cout, ox, yp, zp)[:, :, :oy, :oz])


def _on_grid(g, grid, k):
    """``g`` (Co, ox, oy, oz), the outputs of a valid k-kernel correlation
    on ``grid``, in their layout on the padded grid: (Co, ox*Yp*Zp), zero
    at the wrap-around columns. For k = 1 there are none."""
    co = g.shape[0]
    if k == 1:
        return g.reshape(co, -1)
    xp, yp, zp = grid
    g_full = np.zeros((co, xp - k + 1, yp, zp), dtype=np.float32)
    g_full[:, :, : g.shape[2], : g.shape[3]] = g
    return g_full.reshape(co, -1)


def _weight_grad1(g_full, flat, grid, k):
    """gw[o, c, off] = sum_q g_full[o, q] * flat[c, q + shift(off)], the
    weight gradient of the valid stride-1 correlation, as a
    (Co, C, k, k, k) view; ``g_full`` comes from :func:`_on_grid`."""
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


def _input_grad(g, ws, stride, pad, shape):
    """Input gradient (C, *shape) of the stride-``stride`` conv whose
    :func:`_s2d_weight` is ``ws``, given ``g``; also returns the flat
    padded ``g`` it was computed on and the offset of ``g`` in it."""
    kk = ws.shape[2]
    lo = kk - 1 - pad // stride
    cells = tuple(-(-(pad % stride + n) // stride) + kk - 1 for n in shape)
    gflat, ggrid = _flat_padded(g, lo, cells, kk)
    gx = _depth_to_space(_corr1(gflat, ggrid, _flip(ws)), stride, pad % stride, shape)
    return gx, gflat, ggrid, lo


# -- public kernels ---------------------------------------------------------


def conv3d_forward(x, w, stride, pad):
    cin, k = w.shape[1], w.shape[2]
    if x.shape[0] != cin:
        raise ValueError(f"conv3d expects {cin} input channels, got {x.shape[0]}")
    _check_conv_args(x.shape[1:], k, stride, pad)
    ws = _s2d_weight(w, stride)
    kk = ws.shape[2]
    cells = tuple(_out_dim(n, k, stride, pad) + kk - 1 for n in x.shape[1:])
    return _corr1(*_flat_padded(x, pad, cells, kk, stride), ws)


def conv3d_backward(x, w, g, stride, pad):
    """Gradients (gx, gw) of conv3d given upstream gradient ``g``."""
    ws = _s2d_weight(w, stride)
    kk = ws.shape[2]
    gx, gflat, ggrid, lo = _input_grad(g, ws, stride, pad, x.shape[1:])
    flat, grid = _flat_padded(x, pad, tuple(n + kk - 1 for n in g.shape[1:]), kk, stride)
    if ggrid == grid:  # the padded g lies on the grid of x (a same-size conv)
        _, yp, zp = grid
        q = (lo * yp + lo) * zp + lo
        g_full = gflat[:, q : q + g.shape[1] * yp * zp]
    else:
        g_full = _on_grid(g, grid, kk)
    return gx, _s2d_weight_grad(_weight_grad1(g_full, flat, grid, kk), stride, w.shape[2])


def convt3d_forward(x, w, stride, pad):
    cin, k = w.shape[0], w.shape[2]
    if x.shape[0] != cin:
        raise ValueError(f"conv_transpose3d expects {cin} input channels, got {x.shape[0]}")
    if stride <= 0:
        raise ValueError(f"stride must be positive, got {stride}")
    shape = tuple((n - 1) * stride + k - 2 * pad for n in x.shape[1:])
    if min(shape) < 1:
        raise ValueError("transposed conv output would be empty; padding too large")
    return _input_grad(x, _s2d_weight(w, stride), stride, pad, shape)[0]


def convt3d_backward(x, w, g, stride, pad):
    """Gradients (gx, gw) of conv_transpose3d given upstream gradient ``g``."""
    ws = _s2d_weight(w, stride)
    kk = ws.shape[2]
    flat, grid = _flat_padded(g, pad, tuple(n + kk - 1 for n in x.shape[1:]), kk, stride)
    gw = _weight_grad1(_on_grid(x, grid, kk), flat, grid, kk)
    return _corr1(flat, grid, ws), _s2d_weight_grad(gw, stride, w.shape[2])
