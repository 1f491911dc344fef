"""Dice loss, cross-entropy loss, and their alpha-weighted blend.

Dice runs on the foreground-channel probability of the binary task; the
cross entropy is computed from logits through log-softmax for stability
and mean-reduced over voxels so the blend weight keeps the same balance
at any window size. ``segmentation_loss`` is the blend; it takes its
weight from a ``LossConfig``, which holds the weight's only default and
range check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autograd import Tensor, _wrap

DICE_EPS = 1e-5


@dataclass(frozen=True)
class LossConfig:
    """``alpha`` 1.0 trains on Dice alone, 0.0 on cross entropy alone."""

    alpha: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")


def dice_loss(target, fg_prob):
    """1 - 2*sum(G*Y) / (sum(G) + sum(Y) + DICE_EPS), differentiable in Y."""
    target, fg_prob = _wrap(target), _wrap(fg_prob)
    if target.shape != fg_prob.shape:
        raise ValueError(f"shape mismatch: {target.shape} vs {fg_prob.shape}")
    overlap = (target * fg_prob).sum()
    denom = target.sum() + fg_prob.sum() + DICE_EPS
    return 1.0 - (2.0 * overlap) / denom


def cross_entropy_loss(onehot, logits):
    """Mean over voxels of -sum_c G_c * log softmax(logits)_c.

    ``logits`` has the class axis first; ``onehot`` matches its shape.
    To score ready-made probabilities, pass their elementwise log as the
    logits (log-softmax of log p is log p when p sums to one).
    """
    onehot, logits = _wrap(onehot), _wrap(logits)
    if onehot.shape != logits.shape:
        raise ValueError(f"shape mismatch: {onehot.shape} vs {logits.shape}")
    logp = logits.log_softmax(axis=0)
    n_vox = logits.size // logits.shape[0]
    return -(onehot * logp).sum() / float(n_vox)


def label_onehot(labels) -> Tensor:
    """Binary (X, Y, Z) labels -> (2, X, Y, Z) one-hot float tensor."""
    fg = _wrap(labels).data
    return Tensor(np.stack([1.0 - fg, fg]))


def segmentation_loss(cfg: LossConfig, labels, logits):
    """Blend ``cfg.alpha * dice + (1 - cfg.alpha) * ce`` on logits for binary labels.

    Returns (total, dice_term, ce_term); the endpoints alpha=1 and
    alpha=0 reproduce the component losses exactly.
    """
    labels, logits = _wrap(labels), _wrap(logits)
    onehot = label_onehot(labels)
    d = dice_loss(onehot[1], logits.softmax(axis=0)[1])
    c = cross_entropy_loss(onehot, logits)
    if cfg.alpha == 1.0:
        total = d
    elif cfg.alpha == 0.0:
        total = c
    else:
        total = cfg.alpha * d + (1.0 - cfg.alpha) * c
    return total, d, c
