from collections import deque
from dataclasses import replace

import numpy as np
import pytest
from scipy import ndimage

from ynetr.phantom import TUMOR_OFFSET_HU, PhantomError, PhantomSpec, generate_phantom
from ynetr.volume import LabelVolume, voxel_volume_cm3


def component_volumes_cm3(label: LabelVolume):
    """Connected components (6-neighborhood) with physical volumes.

    Returns a list of (component id, volume in cm^3), ids starting at 1.
    """
    structure = ndimage.generate_binary_structure(3, 1)
    comp, n = ndimage.label(label.labels, structure=structure)
    if n == 0:
        return []
    counts = np.bincount(comp.ravel(), minlength=n + 1)
    vox = voxel_volume_cm3(label.spacing_mm)
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
