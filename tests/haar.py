"""Single-level orthonormal Haar transform: the oracle for the frequency split.

Each (x, y) plane is analyzed into an approximation subband and three
detail subbands; synthesizing from the approximation alone gives the
low-frequency image and from the details alone the high-frequency image.
``ynetr.wavelet.split_frequency`` computes the same pair in closed form
and is checked against :func:`haar_split`.

Subband naming convention: the first letter is the filter applied along
x, the second along y (L = low-pass, H = high-pass). Odd plane dims are
reflect-padded to even before analysis and cropped back after synthesis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_INV_SQRT2 = np.float32(1.0 / np.sqrt(2.0))


@dataclass
class SubbandSet2D:
    """Haar coefficient planes of one analysis pass.

    ``ll`` is the approximation; ``lh``, ``hl``, ``hh`` are the detail
    planes. ``src_shape`` is the unpadded source plane shape, kept so
    synthesis can undo the reflect padding.
    """

    ll: np.ndarray
    lh: np.ndarray
    hl: np.ndarray
    hh: np.ndarray
    src_shape: tuple[int, int]

    def planes(self):
        return self.ll, self.lh, self.hl, self.hh


def _analyze_axis(x, axis):
    """One orthonormal Haar step along ``axis`` (length must be even)."""
    x = np.moveaxis(x, axis, 0)
    a = (x[0::2] + x[1::2]) * _INV_SQRT2
    d = (x[0::2] - x[1::2]) * _INV_SQRT2
    return np.moveaxis(a, 0, axis), np.moveaxis(d, 0, axis)


def _synthesize_axis(a, d, axis):
    """Inverse of :func:`_analyze_axis`."""
    a = np.moveaxis(a, axis, 0)
    d = np.moveaxis(d, axis, 0)
    out = np.empty((2 * a.shape[0],) + a.shape[1:], dtype=np.float32)
    out[0::2] = (a + d) * _INV_SQRT2
    out[1::2] = (a - d) * _INV_SQRT2
    return np.moveaxis(out, 0, axis)


def _pad_even(plane):
    nx, ny = plane.shape[0], plane.shape[1]
    px, py = nx % 2, ny % 2
    if px or py:
        pad = [(0, px), (0, py)] + [(0, 0)] * (plane.ndim - 2)
        plane = np.pad(plane, pad, mode="reflect")
    return plane


def dwt2_haar(plane: np.ndarray) -> SubbandSet2D:
    """Single-level 2-D orthonormal Haar analysis of a plane.

    Accepts an (nx, ny) plane or an (nx, ny, ...) stack, transforming the
    first two axes. Odd dims are reflect-padded to even first.
    """
    plane = np.asarray(plane, dtype=np.float32)
    if plane.ndim < 2 or plane.shape[0] < 2 or plane.shape[1] < 2:
        raise ValueError(f"plane dims must be >= 2, got {plane.shape}")
    src_shape = (plane.shape[0], plane.shape[1])
    work = _pad_even(plane)
    lo_x, hi_x = _analyze_axis(work, 0)
    ll, lh = _analyze_axis(lo_x, 1)
    hl, hh = _analyze_axis(hi_x, 1)
    return SubbandSet2D(ll, lh, hl, hh, src_shape)


def idwt2_haar(s: SubbandSet2D) -> np.ndarray:
    """Synthesis counterpart of :func:`dwt2_haar`; crops reflect padding."""
    shapes = {p.shape for p in s.planes()}
    if len(shapes) != 1:
        raise ValueError(f"inconsistent subband shapes: {sorted(shapes)}")
    lo_x = _synthesize_axis(s.ll, s.lh, 1)
    hi_x = _synthesize_axis(s.hl, s.hh, 1)
    out = _synthesize_axis(lo_x, hi_x, 0)
    return out[: s.src_shape[0], : s.src_shape[1]]


def _band_limited(s: SubbandSet2D, keep_ll: bool) -> np.ndarray:
    zero = np.zeros_like(s.ll)
    if keep_ll:
        parts = SubbandSet2D(s.ll, zero, zero, zero, s.src_shape)
    else:
        parts = SubbandSet2D(zero, s.lh, s.hl, s.hh, s.src_shape)
    return idwt2_haar(parts)


def haar_split(voxels: np.ndarray):
    """(LF, HF) of an (nx, ny, nz) volume by full analysis and synthesis."""
    bands = dwt2_haar(voxels)
    return _band_limited(bands, keep_ll=True), _band_limited(bands, keep_ll=False)
