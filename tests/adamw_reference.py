"""Per-tensor AdamW update: the oracle for the chunked ``AdamW.step``.

Each line is a whole-tensor float32 operation, evaluated left to right
with a fresh temporary per operation. ``ynetr.optim.AdamW.step`` runs the
same operations in place on chunks across threads and must give bitwise
the same parameters and moments.
"""

from __future__ import annotations

import numpy as np


# AdamW's published defaults (Loshchilov & Hutter, arXiv 1711.05101), written
# out here rather than read from ynetr.optim
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class ReferenceAdamW:
    def __init__(self, params, lr, weight_decay):
        self.params = list(params)
        self.lr = float(lr)
        self.weight_decay = float(weight_decay)
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        self.t += 1
        b1, b2 = np.float32(BETA1), np.float32(BETA2)
        c1 = np.float32(1.0 - BETA1**self.t)
        c2 = np.float32(1.0 - BETA2**self.t)
        lr = np.float32(self.lr)
        eps = np.float32(EPS)
        wd = np.float32(self.weight_decay)
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            m *= b1
            m += (np.float32(1.0) - b1) * g
            v *= b2
            v += (np.float32(1.0) - b2) * (g * g)
            m_hat = m / c1
            v_hat = v / c2
            p.data -= lr * m_hat / (np.sqrt(v_hat) + eps)
            if wd != 0.0:
                p.data -= lr * wd * p.data
