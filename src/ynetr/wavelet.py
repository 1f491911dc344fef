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


def split_frequency(v: Volume3D) -> FrequencyPair:
    """Split a volume into its low- and high-frequency images."""
    x = v.voxels
    nx, ny, nz = x.shape
    if nx < 2 or ny < 2:
        raise ValueError(f"in-plane dims must be >= 2 for the split, got {x.shape}")
    if nx % 2 or ny % 2:
        x = np.pad(x, [(0, nx % 2), (0, ny % 2), (0, 0)], mode="reflect")
    px, py = x.shape[0] // 2, x.shape[1] // 2
    mean = x.reshape(px, 2, py, 2, nz).mean(axis=(1, 3), dtype=np.float32)
    lf = mean.repeat(2, axis=0).repeat(2, axis=1)[:nx, :ny]
    return FrequencyPair(
        lf=Volume3D(lf, v.spacing_mm),
        hf=Volume3D(v.voxels - lf, v.spacing_mm),
    )
