import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haar import SubbandSet2D, dwt2_haar, haar_split, idwt2_haar
from ynetr.volume import Volume3D
from ynetr.wavelet import split_frequency

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def haar2_oracle(plane):
    """Hand-applied 2x2 orthonormal Haar analysis on an even-dim plane."""
    nx, ny = plane.shape
    ll = np.zeros((nx // 2, ny // 2), dtype=np.float64)
    lh = np.zeros_like(ll)
    hl = np.zeros_like(ll)
    hh = np.zeros_like(ll)
    for i in range(nx // 2):
        for j in range(ny // 2):
            a = plane[2 * i, 2 * j]
            b = plane[2 * i, 2 * j + 1]
            c = plane[2 * i + 1, 2 * j]
            d = plane[2 * i + 1, 2 * j + 1]
            ll[i, j] = (a + b + c + d) / 2.0
            lh[i, j] = (a - b + c - d) / 2.0  # high along y
            hl[i, j] = (a + b - c - d) / 2.0  # high along x
            hh[i, j] = (a - b - c + d) / 2.0
    return ll, lh, hl, hh


class TestAnalysis:
    def test_constant_plane(self):
        c = 3.25
        s = dwt2_haar(np.full((4, 4), c, dtype=np.float32))
        np.testing.assert_allclose(s.ll, 2 * c, atol=1e-6)
        for d in (s.lh, s.hl, s.hh):
            np.testing.assert_array_equal(d, 0.0)

    def test_single_block(self):
        s = dwt2_haar(np.ones((2, 2), dtype=np.float32))
        np.testing.assert_allclose(s.ll, [[2.0]], atol=1e-6)
        for d in (s.lh, s.hl, s.hh):
            np.testing.assert_allclose(d, [[0.0]], atol=1e-6)

    def test_alternating_x_matches_oracle(self):
        # +1,-1 alternation along x: no approximation energy, all detail
        plane = np.ones((8, 6), dtype=np.float32)
        plane[1::2] = -1.0
        s = dwt2_haar(plane)
        ll, lh, hl, hh = haar2_oracle(plane.astype(np.float64))
        np.testing.assert_allclose(s.ll, ll, atol=1e-5)
        np.testing.assert_allclose(s.lh, lh, atol=1e-5)
        np.testing.assert_allclose(s.hl, hl, atol=1e-5)
        np.testing.assert_allclose(s.hh, hh, atol=1e-5)
        np.testing.assert_array_equal(s.ll, 0.0)
        assert np.abs(s.hl).min() > 0  # x-detail carries all the energy

    def test_random_matches_oracle(self):
        rng = np.random.default_rng(5)
        plane = rng.standard_normal((6, 8)).astype(np.float32)
        s = dwt2_haar(plane)
        for got, want in zip(s.planes(), haar2_oracle(plane.astype(np.float64))):
            np.testing.assert_allclose(got, want, atol=1e-5)

    def test_too_small(self):
        with pytest.raises(ValueError):
            dwt2_haar(np.ones((1, 4), dtype=np.float32))

    def test_energy_conservation_even_dims(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            plane = rng.standard_normal((10, 14)).astype(np.float32)
            s = dwt2_haar(plane)
            coeff = sum(float((p**2).sum()) for p in s.planes())
            src = float((plane**2).sum())
            assert abs(coeff - src) <= 1e-4 * src


class TestSynthesis:
    def test_roundtrip_random(self):
        rng = np.random.default_rng(1)
        plane = rng.standard_normal((8, 8)).astype(np.float32)
        out = idwt2_haar(dwt2_haar(plane))
        assert np.abs(out - plane).max() <= 1e-5

    def test_roundtrip_odd_dims(self):
        rng = np.random.default_rng(2)
        plane = rng.standard_normal((7, 9)).astype(np.float32)
        out = idwt2_haar(dwt2_haar(plane))
        assert out.shape == plane.shape
        assert np.abs(out - plane).max() <= 1e-5

    def test_zero_subbands(self):
        z = np.zeros((3, 3), dtype=np.float32)
        out = idwt2_haar(SubbandSet2D(z, z, z, z, (6, 6)))
        np.testing.assert_array_equal(out, 0.0)

    def test_ll_only_of_constant(self):
        plane = np.full((6, 6), 1.5, dtype=np.float32)
        s = dwt2_haar(plane)
        zero = np.zeros_like(s.ll)
        out = idwt2_haar(SubbandSet2D(s.ll, zero, zero, zero, s.src_shape))
        np.testing.assert_allclose(out, plane, atol=1e-5)

    def test_inconsistent_shapes(self):
        z = np.zeros((3, 3), dtype=np.float32)
        bad = np.zeros((3, 4), dtype=np.float32)
        with pytest.raises(ValueError, match="inconsistent"):
            idwt2_haar(SubbandSet2D(z, z, bad, z, (6, 6)))


class TestSplitFrequency:
    def _vol(self, arr):
        return Volume3D(np.asarray(arr, dtype=np.float32), (1.0, 1.0, 1.0))

    def test_constant_volume(self):
        v = self._vol(np.full((8, 8, 3), 7.0))
        pair = split_frequency(v)
        np.testing.assert_allclose(pair.lf.voxels, v.voxels, atol=1e-5)
        np.testing.assert_array_equal(pair.hf.voxels, 0.0)

    def test_complementarity_random(self):
        rng = np.random.default_rng(4)
        v = self._vol(rng.standard_normal((16, 16, 4)))
        pair = split_frequency(v)
        assert np.abs(pair.lf.voxels + pair.hf.voxels - v.voxels).max() <= 1e-4

    def test_alternating_volume_all_detail(self):
        # oracle: full analysis/synthesis with the approximation zeroed
        vox = np.ones((8, 8, 2), dtype=np.float32)
        vox[1::2] = -1.0
        pair = split_frequency(self._vol(vox))
        bands = dwt2_haar(vox)
        zero = np.zeros_like(bands.ll)
        hf_oracle = idwt2_haar(SubbandSet2D(zero, bands.lh, bands.hl, bands.hh, bands.src_shape))
        np.testing.assert_allclose(pair.hf.voxels, hf_oracle, atol=1e-6)
        assert np.abs(pair.lf.voxels).max() <= 1e-6
        np.testing.assert_allclose(pair.hf.voxels, vox, atol=1e-5)

    def test_additivity(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((12, 10, 3)).astype(np.float32)
        y = rng.standard_normal((12, 10, 3)).astype(np.float32)
        a, b = 0.75, -1.5
        mix = split_frequency(self._vol(a * x + b * y))
        px, py = split_frequency(self._vol(x)), split_frequency(self._vol(y))
        np.testing.assert_allclose(
            mix.lf.voxels, a * px.lf.voxels + b * py.lf.voxels, atol=1e-4
        )
        np.testing.assert_allclose(
            mix.hf.voxels, a * px.hf.voxels + b * py.hf.voxels, atol=1e-4
        )

    def test_degenerate_dims(self):
        with pytest.raises(ValueError):
            split_frequency(self._vol(np.ones((1, 8, 4))))

    def test_spacing_preserved(self):
        v = Volume3D(np.ones((4, 4, 2), dtype=np.float32), (0.5, 0.7, 2.0))
        pair = split_frequency(v)
        assert pair.lf.spacing_mm == v.spacing_mm
        assert pair.hf.spacing_mm == v.spacing_mm


class TestClosedFormMatchesHaar:
    @pytest.mark.parametrize(
        "shape",
        [(8, 8, 3), (16, 12, 2), (7, 9, 4), (9, 5, 1), (2, 2, 1), (2, 6, 3), (5, 2, 2), (3, 2, 5)],
    )
    def test_matches_ll_only_synthesis(self, shape):
        rng = np.random.default_rng(sum(shape))
        x = (3.0 * rng.standard_normal(shape)).astype(np.float32)
        pair = split_frequency(self._vol(x))
        lf, hf = haar_split(x)
        tol = 1e-6 * float(np.abs(x).max())
        assert np.abs(pair.lf.voxels - lf).max() <= tol
        assert np.abs(pair.hf.voxels - hf).max() <= tol

    @pytest.mark.parametrize("c", [7.0, 0.1, -1.0 / 3.0, 1e-30, 3.0e7])
    @pytest.mark.parametrize("shape", [(8, 8, 3), (7, 9, 4), (2, 3, 1)])
    def test_constant_volume_has_exactly_zero_hf(self, shape, c):
        x = np.full(shape, c, dtype=np.float32)
        pair = split_frequency(self._vol(x))
        np.testing.assert_array_equal(pair.lf.voxels, x)
        np.testing.assert_array_equal(pair.hf.voxels, 0.0)

    @staticmethod
    def _vol(arr):
        return Volume3D(arr, (1.0, 1.0, 1.0))


@settings(max_examples=25, deadline=None)
@given(
    nx=st.integers(2, 24),
    ny=st.integers(2, 24),
    nz=st.integers(1, 6),
    seed=st.integers(0, 2**31),
)
def test_reconstruction_property(nx, ny, nz, seed):
    rng = np.random.default_rng(seed)
    vox = rng.standard_normal((nx, ny, nz)).astype(np.float32)
    pair = split_frequency(Volume3D(vox, (1, 1, 1)))
    assert np.abs(pair.lf.voxels + pair.hf.voxels - vox).max() <= 1e-4
