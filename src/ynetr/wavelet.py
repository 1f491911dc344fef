"""Low/high frequency split of a volume: single-level Haar, in closed form.

The split runs per axial slice (z fixed). One orthonormal Haar analysis
step maps each in-plane 2x2 block (a, b; c, d) to the approximation
coefficient (a + b + c + d) / 2 plus three detail coefficients.
Synthesizing from the approximation alone puts (a + b + c + d) / 4 on
all four voxels of the block, so the low-frequency image (LF) is the
2x2 block mean repeated back to full resolution. By linearity the three
detail subbands synthesize the rest, so the high-frequency image is
HF = x - LF: LF + HF reconstructs the input and a constant block has
zero HF. Odd in-plane dims are reflect-padded to even and cropped back.

Crop form: ``block_mean(x)`` is the quarter-size float32 array of block
means, and ``split_crop(x, mean, crop)`` gives the (LF, HF) pair of
``x[crop]`` from it: the mean rows under the crop, repeated x2 in-plane
and sliced by the parity of the crop's in-plane start, and ``x[crop]``
minus that. The blocks stay those of the whole volume, so a crop that
starts at an odd index gets the same bits as the same crop of the
whole-volume images; splitting the crop on its own would pair other
voxels. ``split_frequency`` is the crop that covers the whole volume.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .volume import Volume3D


@dataclass
class FrequencyPair:
    """Band-limited reconstructions of a volume: lf + hf equals the source."""

    lf: Volume3D
    hf: Volume3D


def block_mean(x: np.ndarray) -> np.ndarray:
    """The in-plane 2x2 block means of an (X, Y, Z) array, as float32."""
    nx, ny, nz = x.shape
    if nx < 2 or ny < 2:
        raise ValueError(f"in-plane dims must be >= 2 for the split, got {x.shape}")
    if nx % 2 or ny % 2:
        x = np.pad(x, [(0, nx % 2), (0, ny % 2), (0, 0)], mode="reflect")
    px, py = x.shape[0] // 2, x.shape[1] // 2
    return x.reshape(px, 2, py, 2, nz).mean(axis=(1, 3), dtype=np.float32)


def split_crop(x: np.ndarray, mean: np.ndarray, crop) -> tuple[np.ndarray, np.ndarray]:
    """LF and HF of ``x[crop]``, a crop of three unit-step slices with
    explicit bounds, cut from ``mean = block_mean(x)``."""
    cx, cy, cz = crop
    rows = mean[cx.start // 2 : (cx.stop + 1) // 2, cy.start // 2 : (cy.stop + 1) // 2, cz]
    lf = rows.repeat(2, axis=0).repeat(2, axis=1)[
        cx.start % 2 : cx.start % 2 + cx.stop - cx.start,
        cy.start % 2 : cy.start % 2 + cy.stop - cy.start,
    ]
    return lf, x[crop] - lf


def split_frequency(v: Volume3D) -> FrequencyPair:
    """Split a volume into its low- and high-frequency images."""
    x = v.voxels
    lf, hf = split_crop(x, block_mean(x), tuple(slice(0, n) for n in x.shape))
    return FrequencyPair(lf=Volume3D(lf, v.spacing_mm), hf=Volume3D(hf, v.spacing_mm))
