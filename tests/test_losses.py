import math

import numpy as np
import pytest

from ynetr.autograd import Tensor
from ynetr.losses import (
    LossConfig,
    cross_entropy_loss,
    dice_ce_loss,
    dice_loss,
    label_onehot,
)

EPS = 1e-5


class TestDiceLoss:
    def test_perfect_binary(self):
        rng = np.random.default_rng(0)
        g = (rng.random(400) < 0.4).astype(np.float32)
        assert g.sum() >= 100
        assert dice_loss(g, g).item() <= 1e-4

    def test_disjoint(self):
        g = np.array([1, 1, 0, 0], dtype=np.float32)
        y = np.array([0, 0, 1, 1], dtype=np.float32)
        np.testing.assert_allclose(dice_loss(g, y).item(), 1.0, atol=1e-5)

    def test_worked_example(self):
        g = np.array([1.0, 0.0], dtype=np.float32)
        y = np.array([0.5, 0.5], dtype=np.float32)
        want = 1.0 - (2 * 0.5) / (1.0 + 1.0 + EPS)
        np.testing.assert_allclose(dice_loss(g, y).item(), want, atol=1e-6)
        np.testing.assert_allclose(dice_loss(g, y).item(), 0.5, atol=1e-4)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            dice_loss(np.zeros(3, dtype=np.float32), np.zeros(4, dtype=np.float32))

    def test_range(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            g = (rng.random(50) < 0.5).astype(np.float32)
            y = rng.random(50).astype(np.float32)
            val = dice_loss(g, y).item()
            assert -1e-6 <= val <= 1.0 + 1e-4


class TestCrossEntropy:
    def test_confident_correct_is_zero(self):
        g = np.zeros((2, 8), dtype=np.float32)
        g[1] = 1.0
        big = np.zeros((2, 8), dtype=np.float32)
        big[1] = 60.0  # softmax saturates to the true class
        assert cross_entropy_loss(g, big).item() <= 1e-6

    def test_uniform_is_log2(self):
        g = np.zeros((2, 5), dtype=np.float32)
        g[0] = 1.0
        logits = np.zeros((2, 5), dtype=np.float32)
        np.testing.assert_allclose(
            cross_entropy_loss(g, logits).item(), math.log(2.0), rtol=1e-6
        )

    def test_worked_example(self):
        # probabilities scored by passing their log as logits
        g = np.array([[1.0], [0.0]], dtype=np.float32)
        probs = np.array([[0.25], [0.75]], dtype=np.float32)
        got = cross_entropy_loss(g, np.log(probs)).item()
        np.testing.assert_allclose(got, -math.log(0.25), rtol=1e-5)
        np.testing.assert_allclose(got, 1.3863, atol=1e-4)

    def test_mean_reduction(self):
        g = np.zeros((2, 4), dtype=np.float32)
        g[0] = 1.0
        logits = np.zeros((2, 4), dtype=np.float32)
        single = cross_entropy_loss(g[:, :1], logits[:, :1]).item()
        all_four = cross_entropy_loss(g, logits).item()
        np.testing.assert_allclose(single, all_four, rtol=1e-6)


class TestBlend:
    def _setup(self):
        rng = np.random.default_rng(2)
        labels = (rng.random((4, 4, 4)) < 0.3).astype(np.float32)
        logits = rng.standard_normal((2, 4, 4, 4)).astype(np.float32)
        return labels, logits

    def test_alpha_one_is_dice(self):
        labels, logits = self._setup()
        total, d, c = dice_ce_loss(labels, logits, alpha=1.0)
        assert total.item() == d.item()

    def test_alpha_zero_is_ce(self):
        labels, logits = self._setup()
        total, d, c = dice_ce_loss(labels, logits, alpha=0.0)
        assert total.item() == c.item()

    def test_alpha_half_is_mean(self):
        labels, logits = self._setup()
        total, d, c = dice_ce_loss(labels, logits, alpha=0.5)
        np.testing.assert_allclose(total.item(), 0.5 * (d.item() + c.item()), atol=1e-7)

    def test_monotone_in_alpha(self):
        labels, logits = self._setup()
        vals = [dice_ce_loss(labels, logits, alpha=a)[0].item() for a in np.linspace(0, 1, 7)]
        diffs = np.diff(vals)
        assert (diffs >= -1e-7).all() or (diffs <= 1e-7).all()

    def test_alpha_out_of_range(self):
        labels, logits = self._setup()
        with pytest.raises(ValueError):
            dice_ce_loss(labels, logits, alpha=1.5)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        labels = (rng.random((2, 2, 4)) < 0.5).astype(np.float32)
        logits = rng.standard_normal((2, 2, 2, 4)).astype(np.float32)
        t = Tensor(logits, requires_grad=True)
        total, _, _ = dice_ce_loss(labels, t, alpha=0.5)
        total.backward()
        h = 1e-3
        fd = np.zeros_like(logits)
        for idx in np.ndindex(*logits.shape):
            lo, hi = logits.copy(), logits.copy()
            hi[idx] += h
            lo[idx] -= h
            fd[idx] = (
                dice_ce_loss(labels, hi, alpha=0.5)[0].item()
                - dice_ce_loss(labels, lo, alpha=0.5)[0].item()
            ) / (2 * h)
        scale = max(np.abs(fd).max(), np.abs(t.grad).max())
        assert np.abs(fd - t.grad).max() <= 1e-2 * scale


class TestLossConfig:
    def test_validate(self):
        with pytest.raises(ValueError):
            LossConfig(alpha=-0.1)

    def test_onehot(self):
        lbl = np.array([[[0.0, 1.0]]], dtype=np.float32)
        hot = label_onehot(lbl).data
        np.testing.assert_array_equal(hot[0], 1.0 - lbl)
        np.testing.assert_array_equal(hot[1], lbl)
