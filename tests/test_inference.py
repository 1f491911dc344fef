import tracemalloc

import numpy as np
import pytest

from ynetr.inference import InferenceConfig, build_tiling_plan, infer_volume, tile_positions
from ynetr.sampling import pad_to_window
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
        # tile_positions trusts its caller; the overlap bound is checked
        # once, where a run's tiling overlap is configured
        with pytest.raises(ValueError, match="overlap must be in"):
            InferenceConfig(overlap=1.0)

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

    @pytest.mark.parametrize("overlap", [-3.0, -1.0, -0.5, -0.01, 0.0, 0.3, 0.5, 0.9, 0.99])
    def test_every_overlap_covers_every_voxel(self, overlap):
        # the stride is capped at the window: tile_positions(64, 16, -1.0)
        # used to step by 32 and skip voxels 16-31
        for window in (1, 3, 16, 17):
            for dim in range(window, window + 70):
                starts = tile_positions(dim, window, overlap)
                covered = np.zeros(dim, dtype=int)
                for s in starts:
                    covered[s : s + window] += 1
                assert (covered >= 1).all(), (dim, window, overlap)
                assert starts == sorted(set(starts)) and starts[-1] == dim - window
                if overlap >= 0.0:  # a valid overlap's stride needs no cap
                    stride = max(1, round(window * (1.0 - overlap)))
                    uncapped = list(range(0, dim - window + 1, stride))
                    assert starts == sorted({*uncapped, dim - window})

    def test_negative_overlap_steps_by_the_window(self):
        assert tile_positions(64, 16, -1.0) == [0, 16, 32, 48]

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

    # (37, 29, 41) clamps the last window start on every axis at every overlap
    @pytest.mark.parametrize("overlap", [0.0, 0.25, 0.5, 0.75])
    @pytest.mark.parametrize("shape", [(48, 32, 24), (37, 29, 41)], ids=["48x32x24", "37x29x41"])
    def test_blend_matches_brute_force(self, shape, overlap):
        vol = self._volume(shape, seed=2)
        window = (16, 16, 16)
        prob, _ = infer_volume(
            value_dependent_stub, vol, window, InferenceConfig(overlap=overlap)
        )
        want = brute_force_blend(vol, window, overlap, value_dependent_stub)
        assert prob.voxels.tobytes() == want.tobytes()

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


def _zero_stub(lf, hf):
    return np.zeros((2,) + lf.shape, dtype=np.float32)


class TestWindowInputs:
    # (37, 29, 41): odd in-plane dims and an odd clamped start on every axis;
    # (10, 12, 8): smaller than the window, so reflect-padded first
    @pytest.mark.parametrize("shape", [(37, 29, 41), (10, 12, 8), (48, 32, 24)],
                             ids=["37x29x41", "10x12x8", "48x32x24"])
    def test_windows_get_the_crops_of_the_whole_volume_split(self, shape):
        vol = Volume3D(np.random.default_rng(11).random(shape, dtype=np.float32), (1.0, 1.0, 1.0))
        window = (16, 16, 16)
        seen = []

        def record(lf, hf):
            seen.append((lf.copy(), hf.copy()))
            return _zero_stub(lf, hf)

        infer_volume(record, vol, window, InferenceConfig(overlap=0.5))
        padded = pad_to_window(vol.voxels, window)
        pair = split_frequency(Volume3D(padded, vol.spacing_mm))
        plan = build_tiling_plan(padded.shape, window, 0.5)
        crops = [
            (slice(ox, ox + 16), slice(oy, oy + 16), slice(oz, oz + 16))
            for ox in plan.starts[0] for oy in plan.starts[1] for oz in plan.starts[2]
        ]
        assert len(seen) == len(crops)
        for (lf, hf), sl in zip(seen, crops):
            for got, want in ((lf, pair.lf.voxels[sl]), (hf, pair.hf.voxels[sl])):
                assert got.dtype == np.float32 and got.shape == window
                assert got.tobytes() == np.ascontiguousarray(want).tobytes()


class TestInferenceMemory:
    # tracemalloc peak of a second infer_volume call with a zero-logit stub,
    # 16^3 windows at overlap 0.5, in bytes per voxel: with full-size LF and
    # HF images beside the float64 blend sum it read 26.0 and 24.7; with
    # each window's pair cut from the quarter-size block mean, 19.0 and 17.7
    FULL_SPLIT = {(65, 47, 33): 26.0, (96, 80, 48): 24.7}
    CROP_SPLIT = {(65, 47, 33): 19.0, (96, 80, 48): 17.7}

    @pytest.mark.parametrize("shape", [(65, 47, 33), (96, 80, 48)], ids=["65x47x33", "96x80x48"])
    def test_no_whole_volume_frequency_images(self, shape):
        vol = Volume3D(np.random.default_rng(0).random(shape, dtype=np.float32), (1.0, 1.0, 1.0))
        infer_volume(_zero_stub, vol, (16, 16, 16))
        tracemalloc.start()
        try:
            infer_volume(_zero_stub, vol, (16, 16, 16))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = (self.FULL_SPLIT[shape] + self.CROP_SPLIT[shape]) / 2
        assert peak / np.prod(shape) <= bound
