import numpy as np
import pytest

from ynetr.metrics import ConfusionCounts, confusion, dice_coefficient, evaluate
from ynetr.volume import LabelVolume


def brute_force_confusion(pred, gt):
    tp = fp = fn = tn = 0
    for p, g in zip(pred.ravel(), gt.ravel()):
        if p and g:
            tp += 1
        elif p and not g:
            fp += 1
        elif not p and g:
            fn += 1
        else:
            tn += 1
    return tp, fp, fn, tn


class TestConfusion:
    def test_perfect_prediction(self):
        gt = np.zeros(10, dtype=np.uint8)
        gt[:5] = 1
        c = confusion(gt.reshape(1, 2, 5), gt.reshape(1, 2, 5))
        assert (c.tp, c.fp, c.fn, c.tn) == (5, 0, 0, 5)

    def test_all_false_positive(self):
        pred = np.ones((2, 2, 2), dtype=np.uint8)
        gt = np.zeros((2, 2, 2), dtype=np.uint8)
        c = confusion(pred, gt)
        assert (c.tp, c.fp, c.fn, c.tn) == (0, 8, 0, 0)

    def test_random_matches_brute_force(self):
        rng = np.random.default_rng(7)
        pred = (rng.random((4, 4, 4)) < 0.5).astype(np.uint8)
        gt = (rng.random((4, 4, 4)) < 0.5).astype(np.uint8)
        c = confusion(pred, gt)
        assert (c.tp, c.fp, c.fn, c.tn) == brute_force_confusion(pred, gt)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            confusion(np.zeros((2, 2, 2)), np.zeros((2, 2, 3)))

    def test_accepts_label_volumes(self):
        lbl = LabelVolume(np.ones((2, 2, 2), dtype=np.uint8), (1, 1, 1))
        c = confusion(lbl, lbl)
        assert c.tp == 8


class TestDiceCoefficient:
    def test_worked_example(self):
        np.testing.assert_allclose(
            dice_coefficient(ConfusionCounts(2, 1, 1, 0)), 4.0 / 6.0, rtol=1e-12
        )

    def test_identical_nonempty(self):
        assert dice_coefficient(ConfusionCounts(10, 0, 0, 5)) == 1.0

    def test_empty_empty_convention(self):
        assert dice_coefficient(ConfusionCounts(0, 0, 0, 12)) == 1.0

    def test_symmetry_under_swap(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            pred = (rng.random((3, 3, 3)) < 0.5).astype(np.uint8)
            gt = (rng.random((3, 3, 3)) < 0.5).astype(np.uint8)
            a, b = confusion(pred, gt), confusion(gt, pred)
            assert (a.fp, a.fn) == (b.fn, b.fp)
            assert dice_coefficient(a) == dice_coefficient(b)

    def test_bounds(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            c = ConfusionCounts(*rng.integers(0, 30, 4))
            assert 0.0 <= dice_coefficient(c) <= 1.0


class TestEvaluate:
    def test_single_perfect(self):
        gt = (np.arange(8).reshape(2, 2, 2) % 2).astype(np.uint8)
        dices, mean, totals, _ = evaluate([gt], [gt])
        assert dices == [1.0]
        assert mean == 1.0
        assert totals.fp == 0 and totals.fn == 0

    def test_mean_of_extremes(self):
        ones = np.ones((2, 2, 2), dtype=np.uint8)
        zeros = np.zeros((2, 2, 2), dtype=np.uint8)
        dices, mean, _, _ = evaluate([ones, ones], [ones, zeros])
        assert dices == [1.0, 0.0]
        assert mean == 0.5

    def test_three_random_pairs_match_oracle(self):
        rng = np.random.default_rng(10)
        preds = [(rng.random((3, 2, 2)) < 0.5).astype(np.uint8) for _ in range(3)]
        gts = [(rng.random((3, 2, 2)) < 0.5).astype(np.uint8) for _ in range(3)]
        dices, mean, _, counts = evaluate(preds, gts)
        expected, expected_counts = [], []
        for p, g in zip(preds, gts):
            tp, fp, fn, _ = brute_force_confusion(p, g)
            expected_counts.append((tp, fp, fn))
            expected.append(1.0 if 2 * tp + fp + fn == 0 else 2 * tp / (2 * tp + fp + fn))
        np.testing.assert_allclose(dices, expected, rtol=1e-12)
        np.testing.assert_allclose(mean, np.mean(expected), rtol=1e-12)
        assert [(c.tp, c.fp, c.fn) for c in counts] == expected_counts

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            evaluate([np.zeros((2, 2, 2))], [])
