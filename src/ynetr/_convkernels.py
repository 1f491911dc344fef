"""Raw numpy kernels for the two convolutions the model uses, and the
layer ops over them that write in place: ``conv`` (conv3d, bias, ReLU),
``stem`` (two of them on one buffer) and ``add_``. This is the one module
that knows the padded-row layout of a conv3d output; its callers get
plain (C, X, Y, Z) maps.

Layout conventions (no batch axis; the pipeline trains one window at a
time):

* conv3d input  (Cin, X, Y, Z), weight (Cout, Cin, k, k, k)
* conv_transpose3d input (Cin, X, Y, Z), weight (Cin, Cout, s, s, s)

Both serve only the shapes of the model (UNETR, Hatamizadeh et al.,
arXiv 2103.10497). conv3d is same-size: odd k, stride 1, padding k // 2
(the 3x3x3 convs and the 1x1x1 head). conv_transpose3d is a
non-overlapping up-step: kernel == stride s, padding 0 (the 2x2x2,
stride-2 up-steps). Each kernel keeps its ``stride`` and ``pad``
arguments and rejects any other value, but for one: conv3d's forward
also takes padding 0 with odd k > 1, for an input that is padded
already (see "Padded input" below).

conv3d. No kernel unrolls its input into an im2col matrix or scatters
through a col2im loop. Every pass, forward and backward, is a valid
stride-1 correlation or its weight gradient, read as shifted contiguous
slices of a flat padded volume in cache-sized blocks (implicit GEMM,
after Chetlur et al., arXiv 1410.0759, and MEC, Cho & Brand, arXiv
1706.06873), so the time goes to threaded BLAS rather than to
single-threaded copies.

Flat padded layout. The input is zero-padded once by p = k // 2 to the
grid (C, Xp, Yp, Zp) and viewed as the matrix ``flat`` of shape
(C, Xp*Yp*Zp), followed by a zero tail of (k-1)*(Zp+1) columns
(``_cols`` gives the layout's column count). Output voxel (a, b, c) of
the valid correlation is computed at column q = (a*Yp + b)*Zp + c, and
its input under kernel offset (dx, dy, dz) sits at column q + d with the
constant shift

    d = (dx*Yp + dy)*Zp + dz.

So offset (dx, dy, dz) contributes ``W[:, :, dx, dy, dz] @ flat[:, d:d + n]``
to every output at once, where ``flat[:, d:d + n]`` is a contiguous slice
of each row. The n = X*Yp*Zp columns cover whole rows of the padded
grid, including junk columns with b >= Y or c >= Z whose windows wrap
around into the next row. They are computed and left out of the result:
the forward returns the (Cout, X, Y, Z) crop of its (Cout, X, Yp, Zp)
rows as a view, without a copy. The zero tail keeps the last shifted
slice inside the buffer.

Where the output lives. When k > 1, ``flat`` is the pass's own (its
padded copy, or a padded input that the call consumes, see below), and
the output rows, (Cout, n), are written over its first Cout rows when it
has that many. Overwriting is safe because every shift is >= 0 and the
blocks of output columns run in increasing order: block q0 reads only
the columns >= q0 of ``flat``, and writes only the columns [q0, q0 + m),
after its GEMM has read the whole block into its own result. So a
same-size conv holds one buffer per full-size map: a 16 -> 16 forward at
64^3 peaked at 24.9 MB by tracemalloc, against 42.7 MB with a separate
output buffer. Otherwise the rows get a buffer of their own, laid out as
the flat padded input of a next same-size k-conv on the same grid: a
zero head of (p*Yp + p)*Zp + p columns, the n output columns, and a zero
tail as long as the head, which ends where the flat layout's tail does.
Output voxel (a, b, c) then sits at padded voxel (a + p, b + p, c + p),
and each wrap-around column at a padding voxel.

The k = 1 head, whose ``flat`` is a view of its input, keeps its own
output. Its input is a crop, final_conv's output, so its GEMM runs over
the whole rows under that crop (``_whole_rows``), junk columns included,
and only its small (2, X, Y, Z) crop is copied out, into a contiguous
buffer: the layout of the logits sets the order of the loss's sums. A
MID head call peaked at 4.3 MB by tracemalloc, against 18.9 MB with a
contiguous copy of its 16.8 MB input. Its backward still copies the
input, so that the weight gradient sums over the real columns alone.

Padded input. ``conv3d_forward(x, w, 1, 0)`` runs the valid correlation
of an input padded already, and its k = 1 form is the head. When ``x``
lies in whole rows of its contiguous array, each followed by the zero
tail, ``flat`` is a view of them, and for k > 1 the output is written
over them as above: the call consumes ``x``. Any other ``x`` is copied
first. The call keeps the kernel's arguments, whose (x, w, stride, pad)
fix its FLOPs, (Xp-k+1)*(Yp-k+1)*(Zp-k+1) outputs at padding 0.
``stem`` runs a branch stem's two convs this way: conv1 (1 -> 16) gets a
buffer of its own, laid out as conv2's padded input; ``_padded_input``
zeroes its wrap-around columns, after the bias and the ReLU have run
over them, and returns the buffer's (C, Xp, Yp, Zp) grid, and conv2
reads it in place and writes its output over it. So the stem holds one
full-resolution buffer for both convs, and conv2 pads no copy of conv1's
map. The backward serves the same-size form alone.

Epilogues. ``conv`` adds the bias into a conv3d output and runs the ReLU
there, and ``add_`` adds two maps into one of them, each in place over
the whole rows under the output (``_whole_rows``), wrap-around columns
included: numpy 2.4 runs an in-place ufunc whose ``out`` crops a 2-D
buffer viewed as 4-D through a temporary of the whole map (16.0 MiB for
a 16 x 64^3 crop by tracemalloc, against 0.1 MiB on a crop of a plain
4-D array). At 16 channels on a 64^3 grid (medians of 41 calls, 2-core
host) the bias add took 0.8-0.9 ms over the whole rows, against 3.5-3.9
ms in place on the cropped view and 2.0-2.2 ms into a new array; the
ReLU 2.0-2.5 ms, against 7.3-8.6 and 3.2-3.5 ms. The junk columns these
ops write hold no value, and ``_padded_input`` zeroes them where they are
padding. Any new in-place op on a conv output belongs here and must run
over ``_whole_rows`` as well. ``add_`` writes into the left operand,
over its rows when both lie in rows of one grid, as two conv outputs of
one shape do; otherwise into the operand that is C-contiguous, so that
a crop plus a contiguous map (the fused stem level plus final_up's
output) lands in the contiguous one. Each is the same IEEE operation on
the same operands as the separate op, so values are bitwise those of
``conv + b``, ``.relu()`` and ``a + b``.

Backward. The input gradient of a same-size conv is the same-size conv
of ``g`` with the flipped, channel-swapped weight:

    gx = corr(pad(g, p), flip(w).swapaxes(0, 1)).

The weight gradient of offset d is ``g_full @ flat[:, d:d + n].T``, where
``g_full`` is ``g`` written into the padded-grid layout with zeros in
the wrap-around columns. Those zeros keep the junk windows out of
``gw``; without them ``gw`` is silently wrong. The padded ``g`` lies on
the grid of ``x``, so ``g_full`` is a view of it, shifted by the pad.
The backward computes ``gw`` first, so that ``gx`` can then overwrite
the padded ``g``, which holds Cout rows for gx's Cin. It pads ``x`` and
drops it, then pads ``g`` and drops it, and drops the padded ``x`` before
gx's pass. Where the call holds the only reference to ``x`` or ``g``, as
autograd's conv closures arrange, each is freed there, and at most one
of them lives next to the two padded copies.

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
The reason is measured. On a 2-core AVX-512 Xeon with OpenBLAS
0.3.31 (medians of 200 float32 calls), a (16, 432) @ (432, 8192) GEMM,
the 16 -> 16 conv at a = 0, runs at 74-75 GFLOP/s with 2 threads (42-45
with one), and a (144, 48) or (48, 144) times 8326 columns at 134-140
(78-96; 0.83 ms per call with 2 threads). Inside ``_corr1`` the GEMMs
of a 16 -> 16 forward at 64^3 ran at 106-130 GFLOP/s (77-85). The copy
falls from 27 times the input to 9 times (a = 1) or 3 times (a = 2). A GEMM
per offset instead, with K = cin, would stream a full-size output
through memory 27 times. With a single offset (k = 1) the block is a
view of all n columns and nothing is copied.

conv_transpose3d. With kernel == stride s and no padding, input voxel
(a, b, c) alone writes the output block of s**3 voxels from
(a*s, b*s, c*s) on. So the forward is, per offset r = (rx, ry, rz), one
GEMM ``w[:, :, rx, ry, rz].T @ x.reshape(Cin, -1)`` into a (Cout, X*Y*Z)
buffer that the offsets share, and a copy of it to the strided slice
``out[:, :, rx, :, ry, :, rz]`` of the output viewed as
(Cout, X, s, Y, s, Z, s). Next to the output lies one offset's product,
1/s**3 of it, not the (Cout*s**3, X*Y*Z) product of all offsets at
once, ``w.reshape(Cin, -1).T @ x.reshape(Cin, -1)``. The GEMMs read an
offset-major contiguous copy of the weight, (s**3, Cin, Cout), so each
is a transposed product, as the single GEMM was. On every up-step of the
tiny, MID, ENCODER and paper-default models, a one-voxel grid (N = 1,
the 16^3 window) included, the output equals the single GEMM's and its
depth-to-space copy bitwise. With a (Cout, Cin) copy instead, a
non-transposed product, up-steps of the tiny model (N = 1) and of the
ENCODER model differed in the last bits (by up to 1.1e-6). Other shapes
may differ even with the transposed copy, where BLAS picks another
kernel for the smaller product: Cout = 1, or 768 -> 16 channels on a
4^3 grid. A single 7-D transposed copy reads the product X*Y*Z elements
apart along the output's fastest axis: at 32 -> 16 channels on a 32^3
grid the whole call took 14-26 ms that way against 8-14 ms per offset,
with about 2 ms in the GEMM. The backward
is the space-to-depth copy ``gs`` of ``g`` into the single GEMM's
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


def _cols(grid, k):
    """Columns of the flat padded layout of ``grid`` (Xp, Yp, Zp) for a
    k-kernel: its voxels and the zero tail (see the module docstring)."""
    return math.prod(grid) + (k - 1) * (grid[2] + 1)


def _flat_padded(x, pad, k):
    """``x`` (C, X, Y, Z) zero-padded by ``pad`` voxels per side, as the
    flat array (C, Xp*Yp*Zp) with the zero tail of a k-kernel; returns
    (flat, grid) with grid = (Xp, Yp, Zp). See the module docstring."""
    c = x.shape[0]
    grid = tuple(n + 2 * pad for n in x.shape[1:])
    if k == 1:
        return np.ascontiguousarray(x).reshape(c, -1), grid
    flat = np.zeros((c, _cols(grid, k)), dtype=np.float32)
    inner = tuple(slice(pad, pad + m) for m in x.shape[1:])
    flat[:, : math.prod(grid)].reshape(c, *grid)[(slice(None), *inner)] = x
    return flat, grid


def _rows(x, k):
    """The whole rows under ``x`` (C, X, Y, Z) followed by the zero tail of
    a k-kernel, as a view (flat, grid) with grid = (X, Yr, Zr), when ``x``
    crops a grid (C, X, Yr, Zr) whose rows and tails lie whole inside the
    contiguous array it views; otherwise None. The view is built on that
    array, so a crop of it is checked against the array's bounds."""
    c, X, Y, Z = x.shape
    s0, s1, s2, s3 = x.strides
    base = x.base
    if (x.size and isinstance(base, np.ndarray) and base.flags.c_contiguous
            and s3 == x.itemsize and s2 >= Z * s3 and s2 % s3 == 0
            and s1 >= Y * s2 and s1 % s2 == 0):
        grid = (X, s1 // s2, s2 // s3)
        cols = _cols(grid, k)
        start = x.ctypes.data - base.ctypes.data
        if s0 >= cols * s3 and start >= 0 and start + (c - 1) * s0 + cols * s3 <= base.nbytes:
            return np.ndarray((c, cols), x.dtype, buffer=base, offset=start, strides=(s0, s3)), grid
    return None


def _whole_rows(x):
    """The whole rows under ``x`` as (flat, grid), without a copy where it
    can be had: when ``x`` (C, X, Y, Z) crops a grid (C, X, Yr, Zr) whose
    rows lie whole inside the contiguous array it views, as a
    ``conv3d_forward`` output does, a (C, X*Yr*Zr) view of those rows and
    (X, Yr, Zr); otherwise ``_flat_padded(x, 0, 1)``."""
    return _rows(x, 1) or _flat_padded(x, 0, 1)


def _padded_input(y, k):
    """``y`` (C, X, Y, Z) zero-padded by k // 2 voxels per side, as the
    (C, Xp, Yp, Zp) view of a flat padded layout, zero tail included, that
    ``conv3d_forward(.., w, 1, 0)`` reads and overwrites in place. Where a
    same-size k-conv gave ``y`` a buffer of its own, that buffer is already
    laid out so (see the module docstring): y's wrap-around columns are
    zeroed and the buffer is returned. Otherwise ``y`` is copied into a new
    one."""
    c, X, Y, Z = y.shape
    p = k // 2
    grid = (X + 2 * p, Y + 2 * p, Z + 2 * p)
    _, yp, zp = grid
    head = (p * yp + p) * zp + p
    buf = y.base
    if (isinstance(buf, np.ndarray) and buf.flags.c_contiguous
            and buf.shape == (c, _cols(grid, k))
            and y.strides == (buf.strides[0], 4 * yp * zp, 4 * zp, 4)
            and y.ctypes.data == buf.ctypes.data + 4 * head):
        rows = buf[:, head : head + X * yp * zp].reshape(c, X, yp, zp)
        rows[:, :, Y:] = 0
        rows[:, :, :Y, Z:] = 0
    else:
        buf, _ = _flat_padded(y, p, k)
    return buf[:, : math.prod(grid)].reshape(c, *grid)


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
    that drops the wrap-around columns. For k > 1, ``flat`` is the caller's
    own and no longer read: the output is written over its first Cout rows
    when it has that many. Otherwise it gets a buffer of its own, laid out
    as the padded input of a next same-size conv (see the module
    docstring)."""
    cout, cin, k = w.shape[:3]
    xp, yp, zp = grid
    ox, oy, oz = xp - k + 1, yp - k + 1, zp - k + 1
    n = ox * yp * zp
    a = _split(k, cout, cin)
    shifts, outs = _shifts(grid, k, a)
    halo = outs[-1]
    # rows (output-side offset, o), columns (copied offset, c)
    wm = w.reshape(cout, cin, -1, k**a).transpose(3, 0, 2, 1).reshape(k**a * cout, -1)
    if k > 1 and cout <= len(flat):
        y = flat[:cout, :n]
    else:  # laid out as the padded input of a next same-size conv
        p = k // 2
        head = (p * yp + p) * zp + p
        y = np.empty((cout, _cols(grid, k)), dtype=np.float32)
        y[:, :head] = 0
        y[:, head + n :] = 0
        y = y[:, head : head + n]
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
    k = w.shape[2]
    if (stride, pad) == (1, 0) and k % 2:  # x is padded already, or the k = 1 head
        _, X, Y, Z = x.shape
        y = _corr1(*(_rows(x, k) or _flat_padded(x, 0, k)), w)[:, :, : Y - k + 1, : Z - k + 1]
        return y if k > 1 else np.ascontiguousarray(y)  # the logits' layout orders the loss's sums
    return _corr1(*_flat_padded(x, pad, _same_size(w, stride, pad)), w)


def conv3d_backward(x, w, g, stride, pad):
    """Gradients (gx, gw) of conv3d given upstream gradient ``g``."""
    k = _same_size(w, stride, pad)
    flat, grid = _flat_padded(x, pad, k)
    del x  # each input is dropped once padded (see the module docstring)
    gflat, _ = _flat_padded(g, pad, k)
    _, yp, zp = grid
    q = (pad * yp + pad) * zp + pad  # g_full: the padded g, shifted by the pad
    g_full = gflat[:, q : q + g.shape[1] * yp * zp]
    del g
    gw = np.ascontiguousarray(_weight_grad1(g_full, flat, grid, k))
    del flat, g_full  # the padded x goes before gx's pass, which may overwrite gflat
    # contiguous: gradient layouts set the order of _unbroadcast's sums (see autograd._accum)
    return np.ascontiguousarray(_corr1(gflat, grid, _flip(w))), gw


# -- layer ops: a kernel call and its in-place epilogue --------------------


def _bias_relu(y, b, relu):
    """``y``, a conv3d output, with the bias ``b`` (Cout,) added and the
    ReLU run if ``relu``, in place over its whole rows (see "Epilogues" in
    the module docstring)."""
    r = _whole_rows(y)[0]
    r += b[:, None]
    if relu:
        # bitwise np.where(r > 0, r, 0) on every float32, without its branch
        # on the data: fmax(NaN, 0) is 0, and adding 0.0 turns the -0.0 that
        # fmax may return for r = -0.0 into 0.0
        np.fmax(r, np.float32(0.0), out=r)
        r += np.float32(0.0)
    return y


def conv(x, w, b, relu):
    """The same-size conv3d of ``x`` with ``w``, plus the bias ``b``
    (Cout,), then the ReLU if ``relu``, as a new array."""
    return _bias_relu(conv3d_forward(x, w, 1, w.shape[2] // 2), b, relu)


def stem(x, w1, b1, w2, b2):
    """``conv(conv(x, w1, b1, True), w2, b2, False)``, holding one
    full-resolution buffer: conv1's output is conv2's padded input, and
    conv2 writes its output over it (see "Padded input" in the module
    docstring)."""
    h = _padded_input(conv(x, w1, b1, True), w2.shape[2])
    return _bias_relu(conv3d_forward(h, w2, 1, 0), b2, False)


def add_(a, b):
    """``a + b``, written into the array of ``a`` or of ``b``, which no one
    else may read, and returned: into ``a``'s, over the whole rows of both
    when they lie in rows of one grid, unless ``b`` alone is C-contiguous
    and of ``a``'s shape (see "Epilogues" in the module docstring)."""
    if a.ndim == 4 and a.shape == b.shape:
        (ra, ga), (rb, gb) = _whole_rows(a), _whole_rows(b)
        if ga == gb and np.may_share_memory(ra, a) and np.may_share_memory(rb, b):
            np.add(ra, rb, out=ra)
            return a
        if b.flags.c_contiguous and not a.flags.c_contiguous:
            return np.add(a, b, out=b)
    return np.add(a, b, out=a)


def convt3d_forward(x, w, stride, pad):
    cin, cout = w.shape[:2]
    if x.shape[0] != cin:
        raise ValueError(f"conv_transpose3d expects {cin} input channels, got {x.shape[0]}")
    s = _up_step(w, stride, pad)
    _, X, Y, Z = x.shape
    x = x.reshape(cin, -1)
    # offset-major: wr[r] is (Cin, Cout), contiguous (see the module docstring)
    wr = np.ascontiguousarray(w.reshape(cin, cout, -1).transpose(2, 0, 1))
    y = np.empty((cout, X * Y * Z), dtype=np.float32)
    out = np.empty((cout, X, s, Y, s, Z, s), dtype=np.float32)
    for wo, (rx, ry, rz) in zip(wr, _offsets(s)):
        np.matmul(wo.T, x, out=y)
        out[:, :, rx, :, ry, :, rz] = y.reshape(cout, X, Y, Z)
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
