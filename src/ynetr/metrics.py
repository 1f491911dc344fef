"""Overlap metrics for binary segmentation masks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class ConfusionCounts:
    tp: int
    fp: int
    fn: int
    tn: int

    def __add__(self, other):
        return ConfusionCounts(
            self.tp + other.tp, self.fp + other.fp, self.fn + other.fn, self.tn + other.tn
        )


def confusion(pred, gt) -> ConfusionCounts:
    """Voxelwise four-way classification of a predicted mask array against
    a truth array."""
    p, g = np.asarray(pred), np.asarray(gt)
    if p.dtype == object or g.dtype == object:  # a volume object would count as one voxel
        raise TypeError(f"masks must be arrays, got {type(pred).__name__} and "
                        f"{type(gt).__name__}")
    if p.shape != g.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {g.shape}")
    p, g = p.astype(bool), g.astype(bool)
    tp = int(np.count_nonzero(p & g))
    fp = int(np.count_nonzero(p & ~g))
    fn = int(np.count_nonzero(~p & g))
    tn = p.size - tp - fp - fn
    return ConfusionCounts(tp, fp, fn, tn)


def dice_coefficient(c: ConfusionCounts) -> float:
    """2*TP / (2*TP + FP + FN); two empty masks score 1.0 by convention."""
    denom = 2 * c.tp + c.fp + c.fn
    if denom == 0:
        return 1.0
    return 2.0 * c.tp / denom


def evaluate(pairs):
    """Per-volume Dice scores, their mean, pooled confusion totals, and the
    per-volume confusion counts, over an iterable of (pred, gt) mask pairs;
    pairs are scored as they are drawn, so a generator need not hold them
    all at once."""
    counts = [confusion(p, g) for p, g in pairs]
    dices = [dice_coefficient(c) for c in counts]
    totals = sum(counts, ConfusionCounts(0, 0, 0, 0))
    mean = float(np.mean(dices)) if dices else 0.0
    return dices, mean, totals, counts
