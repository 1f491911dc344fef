import numpy as np
import pytest

from ynetr.inference import InferenceConfig, build_tiling_plan, infer_volume, tile_positions
from ynetr.volume import Volume3D
from ynetr.wavelet import split_frequency


def stable_softmax_fg(logits):
    shifted = logits - logits.max(axis=0, keepdims=True)
    e = np.exp(shifted)
    return (e / e.sum(axis=0, keepdims=True))[1]


class TestTilePositions:
    def test_single_window(self):
        assert tile_positions(128, 128, 0.5) == [0]

    def test_192(self):
        assert tile_positions(192, 128, 0.5) == [0, 64]

    def test_160_clamped(self):
        assert tile_positions(160, 128, 0.5) == [0, 32]

    def test_window_too_big(self):
        with pytest.raises(ValueError):
            tile_positions(100, 128, 0.5)

    def test_bad_overlap(self):
        with pytest.raises(ValueError):
            tile_positions(128, 64, 1.0)

    def test_coverage_property(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            window = int(rng.integers(4, 64))
            dim = window + int(rng.integers(0, 128))
            overlap = float(rng.choice([0.0, 0.25, 0.5, 0.75]))
            starts = tile_positions(dim, window, overlap)
            covered = np.zeros(dim, dtype=int)
            for s in starts:
                covered[s : s + window] += 1
            assert (covered >= 1).all()
            assert starts == sorted(set(starts))
            assert starts[-1] == dim - window

    def test_interior_double_coverage_at_half_overlap(self):
        starts = tile_positions(256, 128, 0.5)
        covered = np.zeros(256, dtype=int)
        for s in starts:
            covered[s : s + 128] += 1
        assert (covered[64:192] >= 2).all()


def brute_force_blend(volume, window, overlap, predict_fn):
    """Oracle: average the probabilities of every covering window per voxel."""
    pair = split_frequency(volume)
    lf, hf = pair.lf.voxels, pair.hf.voxels
    dims = volume.voxels.shape
    acc = np.zeros(dims, dtype=np.float64)
    cnt = np.zeros(dims, dtype=np.float64)
    plan = build_tiling_plan(dims, window, overlap)
    for ox in plan.starts[0]:
        for oy in plan.starts[1]:
            for oz in plan.starts[2]:
                sl = (
                    slice(ox, ox + window[0]),
                    slice(oy, oy + window[1]),
                    slice(oz, oz + window[2]),
                )
                acc[sl] += stable_softmax_fg(predict_fn(lf[sl], hf[sl]))
                cnt[sl] += 1.0
    return (acc / cnt).astype(np.float32)


def value_dependent_stub(lf, hf):
    """Deterministic stub whose logits depend on the input values."""
    fg = lf * 0.7 + hf * 0.3 + lf.mean()
    return np.stack([np.zeros_like(fg), fg.astype(np.float32)])


class TestInferVolume:
    def _volume(self, shape, seed=0):
        rng = np.random.default_rng(seed)
        return Volume3D(rng.random(shape).astype(np.float32), (1.0, 1.0, 1.0))

    def test_constant_logit_stub(self):
        def stub(lf, hf):
            out = np.zeros((2,) + lf.shape, dtype=np.float32)
            out[1] = 1.25
            return out

        vol = self._volume((48, 40, 32))
        prob, mask = infer_volume(stub, vol, (16, 16, 16), InferenceConfig(overlap=0.5))
        expected = 1.0 / (1.0 + np.exp(-1.25))
        np.testing.assert_allclose(prob.voxels, expected, atol=1e-6)
        assert mask.labels.all()

    def test_single_window_matches_direct_forward(self):
        vol = self._volume((16, 16, 16), seed=1)
        prob, _ = infer_volume(
            value_dependent_stub, vol, (16, 16, 16), InferenceConfig(overlap=0.5)
        )
        pair = split_frequency(vol)
        direct = stable_softmax_fg(value_dependent_stub(pair.lf.voxels, pair.hf.voxels))
        assert prob.voxels.tobytes() == direct.tobytes()

    def test_blend_matches_brute_force(self):
        vol = self._volume((48, 32, 24), seed=2)
        window = (16, 16, 16)
        prob, _ = infer_volume(
            value_dependent_stub, vol, window, InferenceConfig(overlap=0.5)
        )
        want = brute_force_blend(vol, window, 0.5, value_dependent_stub)
        assert np.abs(prob.voxels - want).max() <= 1e-6

    def test_probabilities_bounded_and_mask_threshold(self):
        vol = self._volume((24, 24, 24), seed=3)
        prob, mask = infer_volume(
            value_dependent_stub, vol, (16, 16, 16), InferenceConfig(overlap=0.5)
        )
        assert prob.voxels.min() >= 0.0 and prob.voxels.max() <= 1.0
        np.testing.assert_array_equal(mask.labels, (prob.voxels > 0.5).astype(np.uint8))

    def test_small_volume_gets_padded(self):
        vol = self._volume((10, 12, 8), seed=4)
        prob, mask = infer_volume(
            value_dependent_stub, vol, (16, 16, 16), InferenceConfig(overlap=0.5)
        )
        assert prob.voxels.shape == (10, 12, 8)
        assert mask.labels.shape == (10, 12, 8)

    def test_deterministic(self):
        vol = self._volume((24, 20, 18), seed=5)
        a, _ = infer_volume(value_dependent_stub, vol, (16, 16, 16))
        b, _ = infer_volume(value_dependent_stub, vol, (16, 16, 16))
        assert a.voxels.tobytes() == b.voxels.tobytes()

    def test_rejects_nonfinite_volume(self):
        vol = self._volume((16, 16, 16), seed=7)
        vol.voxels[1, 2, 3] = np.nan
        vol.voxels[4, 5, 6] = -np.inf
        with pytest.raises(ValueError, match="2 non-finite voxels"):
            infer_volume(value_dependent_stub, vol, (16, 16, 16))

    def test_bad_config(self):
        with pytest.raises(ValueError):
            InferenceConfig(overlap=1.5)

    @pytest.mark.parametrize("threshold", [1.0, 1.5, -0.1])
    def test_threshold_outside_unit_interval_is_rejected(self, threshold):
        # prob > threshold would give an all-empty (>= 1) or all-full (< 0) mask
        with pytest.raises(ValueError, match="threshold must be in"):
            InferenceConfig(threshold=threshold)
