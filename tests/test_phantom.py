import math
from collections import deque
from dataclasses import replace

import numpy as np
import pytest
from scipy import ndimage

from ynetr.phantom import (
    BACKGROUND_HU,
    BOUNDARY_NOISE,
    LIVER_HU,
    TEXTURE_SIGMA_HU,
    TUMOR_OFFSET_HU,
    PhantomError,
    PhantomSpec,
    _dilate6,
    _radial_field,
    _smooth_field,
    generate_phantom,
)
from ynetr.volume import LabelVolume


def component_volumes_cm3(label: LabelVolume):
    """Connected components (6-neighborhood) with physical volumes.

    Returns a list of (component id, volume in cm^3), ids starting at 1.
    """
    structure = ndimage.generate_binary_structure(3, 1)
    comp, n = ndimage.label(label.labels, structure=structure)
    if n == 0:
        return []
    counts = np.bincount(comp.ravel(), minlength=n + 1)
    vox = math.prod(label.spacing_mm) / 1000.0
    return [(i, float(counts[i]) * vox) for i in range(1, n + 1)]


def flood_fill_components(labels):
    """Oracle: BFS connected components under 6-connectivity."""
    visited = np.zeros(labels.shape, dtype=bool)
    sizes = []
    offsets = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    for start in zip(*np.nonzero(labels)):
        if visited[start]:
            continue
        queue = deque([start])
        visited[start] = True
        size = 0
        while queue:
            x, y, z = queue.popleft()
            size += 1
            for dx, dy, dz in offsets:
                n = (x + dx, y + dy, z + dz)
                if all(0 <= c < s for c, s in zip(n, labels.shape)):
                    if labels[n] and not visited[n]:
                        visited[n] = True
                        queue.append(n)
        sizes.append(size)
    return sorted(sizes)


class TestComponentVolumes:
    def test_empty_label(self):
        lbl = LabelVolume(np.zeros((4, 4, 4), dtype=np.uint8), (1, 1, 1))
        assert component_volumes_cm3(lbl) == []

    def test_single_component_formula(self):
        arr = np.zeros((5, 5, 5), dtype=np.uint8)
        arr[1:3, 1:3, 1] = 1
        arr[1:3, 1, 2] = 1
        arr[1, 1, 3] = 1  # 4 + 2 + 1 = 7... use exactly 10 voxels
        arr[3, 1, 1] = 1
        arr[3, 2, 1] = 1
        arr[3, 3, 1] = 1
        comps = component_volumes_cm3(LabelVolume(arr, (1.0, 1.0, 1.0)))
        assert len(comps) == 1
        assert comps[0][1] == pytest.approx(0.010, rel=1e-9)

    def test_two_cubes(self):
        arr = np.zeros((10, 10, 10), dtype=np.uint8)
        arr[0:3, 0:3, 0:3] = 1
        arr[6:9, 6:9, 6:9] = 1
        comps = component_volumes_cm3(LabelVolume(arr, (1.0, 1.0, 1.0)))
        assert sorted(v for _, v in comps) == pytest.approx([0.027, 0.027])

    def test_random_label_matches_flood_fill(self):
        rng = np.random.default_rng(3)
        arr = (rng.random((8, 8, 8)) < 0.2).astype(np.uint8)
        comps = component_volumes_cm3(LabelVolume(arr, (1.0, 1.0, 1.0)))
        got = sorted(round(v * 1000) for _, v in comps)
        assert got == flood_fill_components(arr)

    def test_spacing_scales_volume(self):
        arr = np.zeros((4, 4, 4), dtype=np.uint8)
        arr[0, 0, 0] = 1
        comps = component_volumes_cm3(LabelVolume(arr, (2.0, 2.0, 2.5)))
        assert comps[0][1] == pytest.approx(0.01, rel=1e-9)


class TestGeneratePhantom:
    def test_zero_tumors(self):
        spec = PhantomSpec(shape=(24, 24, 24), tumor_count=(0, 0), seed=5)
        _, lbl = generate_phantom(spec)
        assert not lbl.labels.any()

    def test_deterministic(self):
        spec = lambda: PhantomSpec(
            shape=(32, 32, 32), tumor_count=(1, 2), tumor_volume_cm3=(0.3, 1.0), seed=42
        )
        v1, l1 = generate_phantom(spec())
        v2, l2 = generate_phantom(spec())
        assert v1.voxels.tobytes() == v2.voxels.tobytes()
        assert l1.labels.tobytes() == l2.labels.tobytes()

    def test_eight_cm3_target(self):
        spec = PhantomSpec(
            shape=(64, 64, 64),
            tumor_count=(1, 1),
            tumor_volume_cm3=(8.0, 8.0),
            seed=7,
        )
        _, lbl = generate_phantom(spec)
        count = int(lbl.labels.sum())
        assert 7200 <= count <= 8800

    def test_components_match_targets(self):
        # a one-value range fixes every tumor's target volume
        spec = PhantomSpec(
            shape=(72, 72, 56),
            tumor_count=(2, 2),
            tumor_volume_cm3=(3.0, 3.0),
            seed=11,
        )
        _, lbl = generate_phantom(spec)
        comps = component_volumes_cm3(lbl)
        assert len(comps) == 2
        for _, got in comps:
            assert abs(got - 3.0) <= 0.10 * 3.0

    def test_tumors_inside_liver(self):
        spec = PhantomSpec(
            shape=(48, 48, 48), tumor_count=(2, 3), tumor_volume_cm3=(0.3, 2.0), seed=13
        )
        _, lbl = generate_phantom(spec)
        coords = np.argwhere(lbl.labels > 0)
        lc = np.asarray(spec.liver_center)
        ls = np.asarray(spec.liver_semi_axes)
        inside = (((coords - lc) / ls) ** 2).sum(axis=1) <= 1.0
        assert inside.all()

    def test_intensity_contrast(self):
        spec = PhantomSpec(
            shape=(48, 48, 48),
            tumor_count=(1, 1),
            tumor_volume_cm3=(2.0, 2.0),
            seed=17,
        )
        vol, lbl = generate_phantom(spec)
        coords = np.indices(spec.shape).reshape(3, -1).T
        lc, ls = np.asarray(spec.liver_center), np.asarray(spec.liver_semi_axes)
        liver = ((((coords - lc) / ls) ** 2).sum(axis=1) <= 1.0).reshape(spec.shape)
        tumor = lbl.labels > 0
        contrast = vol.voxels[tumor].mean() - vol.voxels[liver & ~tumor].mean()
        assert contrast == pytest.approx(TUMOR_OFFSET_HU, abs=1.0)

    def test_unachievable_tumor(self):
        spec = PhantomSpec(
            shape=(20, 20, 20),
            tumor_count=(1, 1),
            tumor_volume_cm3=(30.0, 30.0),  # bigger than the whole liver
            seed=19,
        )
        with pytest.raises(PhantomError):
            generate_phantom(spec)

    def test_liver_follows_a_replaced_shape(self):
        # the liver is derived from the shape, so replace() cannot leave it stale
        spec = replace(PhantomSpec(tumor_volume_cm3=(0.3, 1.0)), shape=(32, 32, 32))
        assert spec.liver_center == (15.5, 15.5, 15.5)
        _, lbl = generate_phantom(spec)
        assert lbl.labels.shape == (32, 32, 32)
        assert 1 <= len(component_volumes_cm3(lbl)) <= 3

    def test_validate_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            PhantomSpec(tumor_volume_cm3=(0.0, 1.0))
        with pytest.raises(ValueError):
            PhantomSpec(tumor_count=(3, 1))


class TestScipyOracles:
    """The numpy interpolation and dilation against scipy.ndimage, bitwise."""

    @staticmethod
    def box_shapes(n, seed):
        rng = np.random.default_rng(seed)
        edges = [1, 2] + list(range(3, 50))
        return [tuple(int(e) for e in rng.choice(edges, size=3)) for _ in range(n)]

    def test_smooth_field_matches_map_coordinates(self):
        shapes = self.box_shapes(40, seed=0) + [(1, 1, 1), (2, 2, 2), (1, 2, 37), (2, 45, 1)]
        for i, shape in enumerate(shapes):
            got = _smooth_field(np.random.default_rng(i), shape, BOUNDARY_NOISE)
            coarse = np.random.default_rng(i).uniform(-1.0, 1.0, size=(4, 4, 4))
            coords = np.stack(np.meshgrid(*[np.linspace(0, 3, n) for n in shape], indexing="ij"))
            want = BOUNDARY_NOISE * ndimage.map_coordinates(coarse, coords, order=1)
            assert got.dtype == want.dtype and got.shape == shape
            assert got.tobytes() == want.tobytes(), shape

    def test_dilate6_matches_binary_dilation(self):
        cross = ndimage.generate_binary_structure(3, 1)
        rng = np.random.default_rng(1)
        for shape in self.box_shapes(30, seed=2):
            for density in (0.01, 0.2, 0.7):
                mask = rng.random(shape) < density
                want = ndimage.binary_dilation(mask, cross)
                np.testing.assert_array_equal(_dilate6(mask), want)

    def test_dilate6_on_every_face(self):
        cross = ndimage.generate_binary_structure(3, 1)
        mask = np.zeros((6, 7, 5), bool)
        mask[0, 3, 2] = mask[-1, 1, 1] = mask[2, 0, 4] = True
        mask[4, -1, 0] = mask[1, 5, 0] = mask[3, 2, -1] = True
        np.testing.assert_array_equal(_dilate6(mask), ndimage.binary_dilation(mask, cross))
        for shape in [(1, 1, 1), (1, 4, 1), (2, 1, 3)]:
            full = np.ones(shape, bool)
            np.testing.assert_array_equal(_dilate6(full), full)
            one = np.zeros(shape, bool)
            one[(0,) * 3] = True
            np.testing.assert_array_equal(_dilate6(one), ndimage.binary_dilation(one, cross))


class TestDenseGridOracles:
    """The open-grid geometry against dense ``meshgrid`` coordinate volumes,
    bitwise."""

    def test_tumorless_phantom_matches_dense_liver(self):
        for seed, shape in enumerate([(33, 47, 29), (17, 9, 40), (1, 5, 2), (7, 1, 3)]):
            spec = PhantomSpec(shape=shape, tumor_count=(0, 0), seed=seed)
            vol, lbl = generate_phantom(spec)
            xs, ys, zs = np.meshgrid(*(np.arange(n, dtype=np.float64) for n in shape),
                                     indexing="ij")
            lc, ls = spec.liver_center, spec.liver_semi_axes
            liver = (((xs - lc[0]) / ls[0]) ** 2 + ((ys - lc[1]) / ls[1]) ** 2
                     + ((zs - lc[2]) / ls[2]) ** 2) <= 1.0
            want = np.full(shape, BACKGROUND_HU, dtype=np.float32)
            want[liver] = LIVER_HU
            rng = np.random.default_rng(seed)
            want += rng.normal(0.0, TEXTURE_SIGMA_HU, size=shape).astype(np.float32)
            assert vol.voxels.tobytes() == want.tobytes(), shape
            assert lbl.labels.tobytes() == bytes(math.prod(shape)), shape

    def test_radial_field_matches_dense_form(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            b0 = rng.integers(0, 60, size=3)
            b1 = b0 + rng.integers(1, 30, size=3)
            center = b0 + rng.uniform(0.0, 1.0, size=3) * (b1 - b0)
            semi_vox = rng.uniform(1.0, 15.0, size=3)
            p = float(rng.uniform(1.6, 3.0))
            bbox = list(zip(b0, b1))
            xs, ys, zs = np.meshgrid(*(np.arange(a, b, dtype=np.float64) for a, b in bbox),
                                     indexing="ij")
            coords = (xs - center[0], ys - center[1], zs - center[2])
            want = sum(np.abs(c / s) ** p for c, s in zip(coords, semi_vox)) ** (1.0 / p)
            got = _radial_field(center, semi_vox, p, bbox)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), bbox
