"""Balanced window sampling for training.

Draws alternate between positive windows (at least one tumor voxel) and
negative windows (none), which pins the positive:negative ratio at
exactly 1:1. A positive candidate is found by centering on a randomly
chosen tumor voxel; a negative candidate by rejection sampling origins.
Either candidate is then translated by a uniform integer jitter of up to
``jitter_max`` voxels per axis (clamped to bounds) to fight central
bias, and the polarity of the crop is re-checked after the jitter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class NoForegroundError(Exception):
    """A positive window was requested but the label has no tumor voxels."""


class NoBackgroundError(Exception):
    """A negative window was requested but no tumor-free window exists."""


@dataclass(frozen=True)
class SamplerConfig:
    window: tuple[int, int, int] = (128, 128, 128)
    jitter_max: int = 48

    def __post_init__(self):
        object.__setattr__(self, "window", tuple(int(w) for w in self.window))
        if any(w < 1 for w in self.window):
            raise ValueError(f"window dims must be positive, got {self.window}")
        if self.jitter_max < 0:
            raise ValueError("jitter_max must be nonnegative")


@dataclass
class WindowSample:
    lf: np.ndarray
    hf: np.ndarray
    label: np.ndarray
    origin: tuple[int, int, int]
    jitter: tuple[int, int, int]
    positive: bool


def pad_to_window(arr: np.ndarray, window) -> np.ndarray:
    """Reflect-pad the trailing side of each axis up to the window size."""
    pads = [(0, max(0, w - n)) for n, w in zip(arr.shape, window)]
    if any(p[1] for p in pads):
        return np.pad(arr, pads, mode="reflect")
    return arr


def _crop(arr, origin, window):
    ox, oy, oz = origin
    wx, wy, wz = window
    return arr[ox : ox + wx, oy : oy + wy, oz : oz + wz]


def _clamp_origin(origin, dims, window):
    return tuple(
        int(np.clip(o, 0, d - w)) for o, d, w in zip(origin, dims, window)
    )


def sample_window(lf, hf, label, want_positive, rng, cfg: SamplerConfig, fg_coords=None):
    """Draw one training window; see the module docstring for the policy."""
    dims = label.shape
    window = cfg.window
    if any(d < w for d, w in zip(dims, window)):
        raise ValueError(f"volume {dims} smaller than window {window}; pad first")

    if want_positive:
        if fg_coords is None:
            fg_coords = np.argwhere(label > 0)
        if len(fg_coords) == 0:
            raise NoForegroundError("label volume contains no tumor voxels")
        voxel = fg_coords[int(rng.integers(len(fg_coords)))]
        candidate = _clamp_origin(
            tuple(int(v) - w // 2 for v, w in zip(voxel, window)), dims, window
        )
        crop_ok = lambda lab: bool(lab.any())
    else:
        if label.all():
            raise NoBackgroundError("every voxel is tumor; no negative window exists")
        candidate = None
        for _ in range(200):
            origin = tuple(int(rng.integers(0, d - w + 1)) for d, w in zip(dims, window))
            if not _crop(label, origin, window).any():
                candidate = origin
                break
        if candidate is None:
            raise NoBackgroundError("no tumor-free window found after 200 attempts")
        crop_ok = lambda lab: not lab.any()

    j = cfg.jitter_max
    jitter = (0, 0, 0)
    origin = candidate
    for _ in range(16):
        trial_jitter = tuple(int(rng.integers(-j, j + 1)) for _ in range(3))
        trial = _clamp_origin(
            tuple(c + t for c, t in zip(candidate, trial_jitter)), dims, window
        )
        if crop_ok(_crop(label, trial, window)):
            origin, jitter = trial, trial_jitter
            break

    return WindowSample(
        lf=_crop(lf, origin, window),
        hf=_crop(hf, origin, window),
        label=_crop(label, origin, window),
        origin=origin,
        jitter=jitter,
        positive=bool(want_positive),
    )


def sample_any_window(lf, hf, label, rng, cfg: SamplerConfig):
    """Unconstrained jittered window; the fallback when polarity is impossible."""
    dims = label.shape
    window = cfg.window
    origin = tuple(int(rng.integers(0, d - w + 1)) for d, w in zip(dims, window))
    return WindowSample(
        lf=_crop(lf, origin, window),
        hf=_crop(hf, origin, window),
        label=_crop(label, origin, window),
        origin=origin,
        jitter=(0, 0, 0),
        positive=bool(_crop(label, origin, window).any()),
    )
