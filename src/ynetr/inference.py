"""Whole-volume prediction by tiling overlapping windows.

Windows are placed at stride window*(1-overlap) per axis with the final
start clamped so coverage is complete; per-window softmax probabilities
are blended into a running uniform average and thresholded at 0.5 with
ties to background.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autograd import keep_freed_heap
from .sampling import pad_to_window
from .volume import LabelVolume, Volume3D, check_finite
from .wavelet import split_frequency


@dataclass(frozen=True)
class InferenceConfig:
    overlap: float = 0.5
    threshold: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.overlap < 1.0:
            raise ValueError(f"overlap must be in [0, 1), got {self.overlap}")
        if not 0.0 <= self.threshold < 1.0:
            raise ValueError(f"threshold must be in [0, 1), got {self.threshold}")


@dataclass
class TilingPlan:
    window: tuple[int, int, int]
    starts: tuple[list, list, list]


def tile_positions(dim: int, window: int, overlap: float):
    """Sorted window starts covering [0, dim) with the requested overlap."""
    if window > dim:
        raise ValueError(f"window {window} exceeds dim {dim}; pad the volume first")
    if not 0.0 <= overlap < 1.0:
        raise ValueError(f"overlap must be in [0, 1), got {overlap}")
    stride = max(1, round(window * (1.0 - overlap)))
    starts = list(range(0, dim - window + 1, stride))
    if starts[-1] != dim - window:
        starts.append(dim - window)
    return starts


def build_tiling_plan(dims, window, overlap) -> TilingPlan:
    starts = tuple(tile_positions(d, w, overlap) for d, w in zip(dims, window))
    return TilingPlan(window=tuple(window), starts=starts)


def _softmax_fg(logits):
    shifted = logits - logits.max(axis=0, keepdims=True)
    e = np.exp(shifted)
    return (e / e.sum(axis=0, keepdims=True))[1]


def infer_volume(predict_fn, volume: Volume3D, window, cfg: InferenceConfig | None = None):
    """Predict a whole (normalized) volume with sliding windows.

    ``predict_fn(lf_crop, hf_crop) -> logits`` takes (X, Y, Z) crops and
    returns (2, X, Y, Z) logits; any callable with that contract works,
    which keeps the blending logic testable with stubs. Returns
    (probability Volume3D, mask LabelVolume) at the input shape; a
    volume with NaN or inf voxels raises ValueError.
    """
    keep_freed_heap()
    cfg = cfg or InferenceConfig()
    check_finite(volume.voxels, "inference volume")
    orig = volume.voxels.shape
    padded = pad_to_window(volume.voxels, window)
    pair = split_frequency(Volume3D(padded, volume.spacing_mm))
    lf, hf = pair.lf.voxels, pair.hf.voxels

    plan = build_tiling_plan(padded.shape, window, cfg.overlap)
    wx, wy, wz = plan.window
    acc = np.zeros(padded.shape, dtype=np.float64)
    weight = np.zeros(padded.shape, dtype=np.float64)
    for ox in plan.starts[0]:
        for oy in plan.starts[1]:
            for oz in plan.starts[2]:
                sl = (slice(ox, ox + wx), slice(oy, oy + wy), slice(oz, oz + wz))
                logits = predict_fn(lf[sl], hf[sl])
                acc[sl] += _softmax_fg(logits)
                weight[sl] += 1.0
    prob = (acc / weight).astype(np.float32)[: orig[0], : orig[1], : orig[2]]
    mask = (prob > cfg.threshold).astype(np.uint8)
    return (
        Volume3D(prob, volume.spacing_mm),
        LabelVolume(mask, volume.spacing_mm),
    )
