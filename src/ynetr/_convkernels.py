"""Raw numpy kernels for 3-D convolution and transposed convolution.

Layout conventions (no batch axis; the pipeline trains one window at a
time):

* conv3d input  (Cin, X, Y, Z), weight (Cout, Cin, k, k, k)
* conv_transpose3d input (Cin, X, Y, Z), weight (Cin, Cout, k, k, k)

No kernel unrolls its input into a full strided im2col matrix or
scatters through a col2im loop. Stride-1 convolutions read shifted
contiguous slices of a flat padded volume in cache-sized blocks
(implicit GEMM, after Chetlur et al., arXiv 1410.0759, and MEC, Cho &
Brand, arXiv 1706.06873), so the time goes to threaded BLAS rather than
to single-threaded copies.

Flat padded layout (stride 1). The input is zero-padded once to the grid
(C, Xp, Yp, Zp) and viewed as the matrix ``flat`` of shape (C, Xp*Yp*Zp),
followed by a zero tail. Output voxel (a, b, c) of the valid correlation
is computed at column q = (a*Yp + b)*Zp + c, and its input under kernel
offset (dx, dy, dz) sits at column q + d with the constant shift

    d = (dx*Yp + dy)*Zp + dz.

So offset (dx, dy, dz) contributes ``W[:, :, dx, dy, dz] @ flat[:, d:d + n]``
to every output at once, where ``flat[:, d:d + n]`` is a contiguous slice
of each row. The n = ox*Yp*Zp columns cover whole rows of the padded
grid, including junk columns with b >= oy or c >= oz whose windows wrap
around into the next row. They are computed and dropped when the result
is cropped to (Cout, ox, oy, oz). The zero tail of (k-1)*(Zp+1) columns
keeps the last shifted slice inside the buffer.

Backward (stride 1). conv_transpose3d with the same weight array is the
adjoint of conv3d, and at stride 1 it is itself a valid correlation: the
one of ``g`` zero-padded by k-1-pad (a negative pad crops) with the
flipped, channel-swapped weight, so the input gradient is the forward
routine again:

    gx = corr(pad(g, k-1-pad), flip(w).swapaxes(0, 1)).

The weight gradient of offset d is ``g_full @ flat[:, d:d + n].T``,
where ``g_full`` is ``g`` written into the padded-grid layout with zeros
in the wrap-around columns. Those zeros keep the junk windows out of
``gw``; without them ``gw`` is silently wrong. For a same-size conv
(2*pad == k-1) the padded ``g`` of the input gradient lies on the same
grid as ``x``, and ``g_full`` is a view of it, shifted by the pad.

Accumulation order follows from the shapes. The k**3 shifted slices of
a block of m output columns are copied into a block of columns
(k**3*cin, m), bounded so that the copy and the GEMM that reads it stay
in cache, and each block is one GEMM with K = k**3*cin (forward and
input gradient) or with N = k**3*cin (weight gradient). A GEMM per
offset instead, with K = cin, would stream a full-size output through
memory 27 times. For k = 1 the block is a view and nothing is copied.
When k**3*cout <= 4*cin (the 16 -> 1 input gradient of the one-channel
stem conv) the block of columns would be 27 times the input for a
handful of output rows, so instead one GEMM per block gives the products
of every offset at once, and they are added into the output at their
shifts.

Transposed conv with k == stride and pad 0 (every up-step of the model)
has non-overlapping outputs: one GEMM to (Cout, k, k, k, X, Y, Z) and a
depth-to-space reshape. Its backward is a space-to-depth reshape and two
GEMMs.

Every other case (conv with stride > 1, transposed conv other than
k == stride with pad 0; in the model only the CNN ablation branch) is a
loop over the k**3 offsets, one GEMM each, with a strided gather of the
window of the offset (conv forward, weight gradients, transposed-conv
input gradient) or a strided slice-add into the output (conv input
gradient, transposed-conv forward).

Every loop runs in a fixed order, so results are bitwise deterministic.
"""

from __future__ import annotations

import itertools

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


def _pad3(x, pad):
    """Zero-pad the three spatial axes by ``pad``; a negative pad crops."""
    if pad > 0:
        return np.pad(x, ((0, 0), (pad, pad), (pad, pad), (pad, pad)))
    if pad < 0:
        return x[:, -pad:pad, -pad:pad, -pad:pad]
    return x


def _offsets(k):
    return list(itertools.product(range(k), repeat=3))


def _per_offset(w):
    """(A, B, k, k, k) -> contiguous (k**3, A, B): one matrix per offset."""
    a, b, k = w.shape[:3]
    return np.ascontiguousarray(w.transpose(2, 3, 4, 0, 1)).reshape(k**3, a, b)


def _flip(w):
    """Flipped, channel-swapped weight: the kernel of the adjoint."""
    return w[:, :, ::-1, ::-1, ::-1].swapaxes(0, 1)


# -- stride 1: shifted GEMMs over the flat padded volume -------------------


def _flat_padded(x, pad, k):
    """``x`` padded by ``pad`` as a flat (C, Xp*Yp*Zp + tail) array, and
    the padded grid (Xp, Yp, Zp); see the module docstring."""
    c = x.shape[0]
    grid = tuple(n + 2 * pad for n in x.shape[1:])
    xp, yp, zp = grid
    if pad == 0 and k == 1:
        return np.ascontiguousarray(x).reshape(c, -1), grid
    flat = np.zeros((c, xp * yp * zp + (k - 1) * (zp + 1)), dtype=np.float32)
    lo = max(pad, 0)
    vol = flat[:, : xp * yp * zp].reshape(c, xp, yp, zp)
    vol[:, lo : xp - lo, lo : yp - lo, lo : zp - lo] = _pad3(x, min(pad, 0))
    return flat, grid


def _shifts(grid, k):
    _, yp, zp = grid
    return [(dx * yp + dy) * zp + dz for dx, dy, dz in _offsets(k)]


def _column_blocks(flat, shifts, n):
    """Yield (q0, block) with block[(i, c), j] = flat[c, q0 + j + shifts[i]]
    for the columns q0 <= q0 + j < n, at most _BLOCK_COLS columns and
    _BLOCK_BYTES per block. With a single shift the block is a view."""
    rows = len(shifts) * flat.shape[0]
    step = max(1, min(n, _BLOCK_COLS, _BLOCK_BYTES // (4 * rows)))
    if len(shifts) == 1:
        for q0 in range(0, n, step):
            yield q0, flat[:, q0 + shifts[0] : q0 + shifts[0] + min(step, n - q0)]
        return
    buf = np.empty(rows * step, dtype=np.float32)
    for q0 in range(0, n, step):
        m = min(step, n - q0)
        block = buf[: rows * m].reshape(len(shifts), -1, m)
        for i, d in enumerate(shifts):
            block[i] = flat[:, q0 + d : q0 + d + m]
        yield q0, block.reshape(rows, m)


def _corr1(flat, grid, w):
    """Valid stride-1 correlation of the flat padded volume with ``w``
    (Cout, Cin, k, k, k); returns (Cout, Xp-k+1, Yp-k+1, Zp-k+1)."""
    cout, cin, k = w.shape[:3]
    xp, yp, zp = grid
    ox, oy, oz = xp - k + 1, yp - k + 1, zp - k + 1
    n = ox * yp * zp
    shifts = _shifts(grid, k)
    y = np.empty((cout, n), dtype=np.float32)
    if k > 1 and k**3 * cout <= 4 * cin:
        ws = _per_offset(w).reshape(-1, cin)
        halo = shifts[-1]
        step = 8 * halo  # the halo columns, computed twice, stay under 1/8
        buf = np.empty((len(ws), min(step, n) + halo), dtype=np.float32)
        for q0 in range(0, n, step):
            m = min(step, n - q0)
            p = np.matmul(ws, flat[:, q0 : q0 + m + halo], out=buf[:, : m + halo])
            p = p.reshape(len(shifts), cout, -1)
            yb = y[:, q0 : q0 + m]
            yb[...] = p[0, :, :m]
            for i, d in enumerate(shifts[1:], 1):
                yb += p[i, :, d : d + m]
    else:
        wm = np.ascontiguousarray(w.transpose(0, 2, 3, 4, 1)).reshape(cout, -1)
        for q0, block in _column_blocks(flat, shifts, n):
            np.matmul(wm, block, out=y[:, q0 : q0 + block.shape[1]])
    return np.ascontiguousarray(y.reshape(cout, ox, yp, zp)[:, :, :oy, :oz])


def _on_grid(g, gflat, ggrid, grid, k):
    """``g`` (Co, ox, oy, oz) in the layout of the outputs on the padded
    ``grid``: (Co, ox*Yp*Zp), zero at the wrap-around columns.

    ``gflat, ggrid`` is ``_flat_padded(g, k-1-pad, k)``. For a same-size
    conv (2*pad == k-1) ``ggrid`` is ``grid`` itself, and the layout is a
    view of ``gflat``, shifted by the offset of the pad."""
    co = g.shape[0]
    xp, yp, zp = grid
    n = (xp - k + 1) * yp * zp
    if ggrid == grid:
        q = (k - 1) // 2
        s = (q * yp + q) * zp + q
        return gflat[:, s : s + n]
    g_full = np.zeros((co, xp - k + 1, yp, zp), dtype=np.float32)
    g_full[:, :, : g.shape[2], : g.shape[3]] = g
    return g_full.reshape(co, n)


def _weight_grad1(g_full, flat, grid, k):
    """gw[o, c, off] = sum_q g_full[o, q] * flat[c, q + shift(off)], the
    weight gradient of the valid stride-1 correlation; ``g_full`` comes
    from :func:`_on_grid`."""
    co, n = g_full.shape
    c = flat.shape[0]
    gw = np.zeros((k**3 * c, co), dtype=np.float32)
    for q0, block in _column_blocks(flat, _shifts(grid, k), n):
        gw += block @ g_full[:, q0 : q0 + block.shape[1]].T
    return gw.reshape(k, k, k, c, co).transpose(4, 3, 0, 1, 2).copy()


# -- other strides: per-offset strided gathers and slice-adds --------------


def _window(a, off, stride, shape):
    """View of ``a`` seen by kernel offset ``off`` at every output voxel."""
    return a[(slice(None),) + tuple(
        slice(o, o + (m - 1) * stride + 1, stride) for o, m in zip(off, shape)
    )]


def _strided_corr(ap, wo, k, stride, shape):
    """sum over offsets of wo[i] @ window_i(ap): (A, prod(shape))."""
    y = None
    for i, off in enumerate(_offsets(k)):
        part = wo[i] @ _window(ap, off, stride, shape).reshape(ap.shape[0], -1)
        if y is None:
            y = part
        else:
            y += part
    return y


def _strided_weight_grad(b, ap, k, stride, shape):
    """gw[:, :, off] = b @ window_off(ap).T; ``b`` is (B, prod(shape))."""
    gw = np.empty((k**3, b.shape[0], ap.shape[0]), dtype=np.float32)
    for i, off in enumerate(_offsets(k)):
        np.matmul(b, _window(ap, off, stride, shape).reshape(ap.shape[0], -1).T, out=gw[i])
    return gw.reshape(k, k, k, *gw.shape[1:]).transpose(3, 4, 0, 1, 2).copy()


def _strided_scatter(a, wo, k, stride, shape, grid):
    """Zero (B, *grid) volume with wo[i].T @ a added at every offset's window."""
    out = np.zeros((wo.shape[2], *grid), dtype=np.float32)
    for i, off in enumerate(_offsets(k)):
        _window(out, off, stride, shape)[...] += (wo[i].T @ a).reshape(-1, *shape)
    return out


# -- public kernels ---------------------------------------------------------


def conv3d_forward(x, w, stride, pad):
    cout, cin, k = w.shape[0], w.shape[1], w.shape[2]
    if x.shape[0] != cin:
        raise ValueError(f"conv3d expects {cin} input channels, got {x.shape[0]}")
    _check_conv_args(x.shape[1:], k, stride, pad)
    if stride == 1:
        return _corr1(*_flat_padded(x, pad, k), w)
    out = tuple(_out_dim(n, k, stride, pad) for n in x.shape[1:])
    y = _strided_corr(_pad3(x, pad), _per_offset(w), k, stride, out)
    return y.reshape(cout, *out)


def conv3d_backward(x, w, g, stride, pad):
    """Gradients (gx, gw) of conv3d given upstream gradient ``g``."""
    cout, k = w.shape[0], w.shape[2]
    if stride == 1:
        gflat, ggrid = _flat_padded(g, k - 1 - pad, k)
        flat, grid = _flat_padded(x, pad, k)
        gx = _corr1(gflat, ggrid, _flip(w))
        gw = _weight_grad1(_on_grid(g, gflat, ggrid, grid, k), flat, grid, k)
        return gx, gw
    xp = _pad3(x, pad)
    gm = g.reshape(cout, -1)
    gw = _strided_weight_grad(gm, xp, k, stride, g.shape[1:])
    gxp = _strided_scatter(gm, _per_offset(w), k, stride, g.shape[1:], xp.shape[1:])
    return np.ascontiguousarray(_pad3(gxp, -pad)), gw


def convt3d_forward(x, w, stride, pad):
    cin, cout, k = w.shape[0], w.shape[1], w.shape[2]
    if x.shape[0] != cin:
        raise ValueError(f"conv_transpose3d expects {cin} input channels, got {x.shape[0]}")
    if stride <= 0:
        raise ValueError(f"stride must be positive, got {stride}")
    ox, oy, oz = ((n - 1) * stride + k - 2 * pad for n in x.shape[1:])
    if min(ox, oy, oz) < 1:
        raise ValueError("transposed conv output would be empty; padding too large")
    ix, iy, iz = x.shape[1:]
    if k == stride and pad == 0:
        y = w.reshape(cin, -1).T @ x.reshape(cin, -1)
        y = y.reshape(cout, k, k, k, ix, iy, iz).transpose(0, 4, 1, 5, 2, 6, 3)
        return np.ascontiguousarray(y).reshape(cout, ox, oy, oz)
    grid = tuple(n + 2 * pad for n in (ox, oy, oz))
    yp = _strided_scatter(x.reshape(cin, -1), _per_offset(w), k, stride, x.shape[1:], grid)
    return np.ascontiguousarray(_pad3(yp, -pad))


def convt3d_backward(x, w, g, stride, pad):
    """Gradients (gx, gw) of conv_transpose3d given upstream gradient ``g``."""
    cin, cout, k = w.shape[0], w.shape[1], w.shape[2]
    xm = x.reshape(cin, -1)
    if k == stride and pad == 0:
        ix, iy, iz = x.shape[1:]
        gs = g.reshape(cout, ix, k, iy, k, iz, k).transpose(0, 2, 4, 6, 1, 3, 5)
        gs = np.ascontiguousarray(gs).reshape(cout * k**3, -1)
        wm = w.reshape(cin, -1)
        return (wm @ gs).reshape(x.shape), (xm @ gs.T).reshape(w.shape)
    gp = _pad3(g, pad)
    gx = _strided_corr(gp, _per_offset(w), k, stride, x.shape[1:])
    gw = _strided_weight_grad(xm, gp, k, stride, x.shape[1:])
    return gx.reshape(x.shape), gw
