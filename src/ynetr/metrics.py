"""Overlap metrics for binary segmentation masks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .volume import LabelVolume


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


def _mask(x):
    if isinstance(x, LabelVolume):
        return x.labels.astype(bool)
    return np.asarray(x).astype(bool)


def confusion(pred, gt) -> ConfusionCounts:
    """Voxelwise four-way classification of a predicted mask against truth."""
    p, g = _mask(pred), _mask(gt)
    if p.shape != g.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {g.shape}")
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


def evaluate(preds, gts):
    """Per-volume Dice scores, their mean, pooled confusion totals, and the
    per-volume confusion counts."""
    if len(preds) != len(gts):
        raise ValueError(f"got {len(preds)} predictions for {len(gts)} ground truths")
    counts = [confusion(p, g) for p, g in zip(preds, gts)]
    dices = [dice_coefficient(c) for c in counts]
    totals = sum(counts, ConfusionCounts(0, 0, 0, 0))
    mean = float(np.mean(dices)) if dices else 0.0
    return dices, mean, totals, counts
