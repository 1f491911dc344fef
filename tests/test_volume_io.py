import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ynetr.volume import (
    IntensityConfig,
    LabelVolume,
    Volume3D,
    VvolError,
    normalize_intensity,
    read_vvol,
    write_vvol,
)


def test_roundtrip_zeros(tmp_path):
    v = Volume3D(np.zeros((2, 2, 2), dtype=np.float32), (1.0, 1.0, 1.0))
    path = tmp_path / "z.vvol"
    write_vvol(v, path)
    back = read_vvol(path)
    assert isinstance(back, Volume3D)
    assert back.voxels.tobytes() == v.voxels.tobytes()
    assert back.spacing_mm == v.spacing_mm


def test_roundtrip_random_bytes(tmp_path):
    rng = np.random.default_rng(7)
    v = Volume3D(rng.standard_normal((16, 16, 16)).astype(np.float32), (0.7, 1.0, 2.5))
    p1, p2 = tmp_path / "a.vvol", tmp_path / "b.vvol"
    write_vvol(v, p1)
    back = read_vvol(p1)
    write_vvol(back, p2)
    # byte-compare oracle: rewriting the parsed volume reproduces the file
    assert p1.read_bytes() == p2.read_bytes()
    assert back.voxels.tobytes() == v.voxels.tobytes()


def test_label_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    lbl = LabelVolume((rng.random((5, 4, 3)) < 0.4).astype(np.uint8), (1.0, 1.5, 2.0))
    path = tmp_path / "l.vvol"
    write_vvol(lbl, path)
    back = read_vvol(path)
    assert isinstance(back, LabelVolume)
    np.testing.assert_array_equal(back.labels, lbl.labels)


def test_payload_length_mismatch(tmp_path):
    path = tmp_path / "bad.vvol"
    header = (
        "vvol 1\nkind volume\nshape 2 2 2\nspacing 1.0 1.0 1.0\n"
        "elem f32\nbyteorder little\nend\n"
    )
    payload = np.zeros(7, dtype="<f4").tobytes()  # 7 elements for an 8-voxel shape
    path.write_bytes(header.encode() + payload)
    with pytest.raises(VvolError, match="length mismatch"):
        read_vvol(path)


def test_unknown_element_kind(tmp_path):
    path = tmp_path / "bad.vvol"
    header = (
        "vvol 1\nkind volume\nshape 1 1 1\nspacing 1.0 1.0 1.0\n"
        "elem f64\nbyteorder little\nend\n"
    )
    path.write_bytes(header.encode() + b"\x00" * 8)
    with pytest.raises(VvolError, match="unknown element kind"):
        read_vvol(path)


def test_nonfinite_voxels_rejected(tmp_path):
    vox = np.zeros((3, 4, 5), dtype=np.float32)
    vox[0, 1, 2] = np.nan
    vox[2, 3, 4] = np.inf
    vox[1, 0, 0] = -np.inf
    path = tmp_path / "nan.vvol"
    write_vvol(Volume3D(vox, (1.0, 1.0, 1.0)), path)
    with pytest.raises(VvolError, match="3 non-finite voxels"):
        read_vvol(path)


def test_malformed_header(tmp_path):
    path = tmp_path / "bad.vvol"
    path.write_bytes(b"vvol 1\nshape\nend\n")
    with pytest.raises(VvolError):
        read_vvol(path)

    path.write_bytes(b"not a vvol\n")
    with pytest.raises(VvolError, match="not a vvol"):
        read_vvol(path)


@settings(max_examples=30, deadline=None)
@given(
    nx=st.integers(1, 32),
    ny=st.integers(1, 32),
    nz=st.integers(1, 32),
    seed=st.integers(0, 2**31),
    as_label=st.booleans(),
)
def test_roundtrip_property(nx, ny, nz, seed, as_label):
    rng = np.random.default_rng(seed)
    spacing = tuple(float(s) for s in rng.uniform(0.3, 3.0, 3))
    if as_label:
        v = LabelVolume((rng.random((nx, ny, nz)) < 0.5).astype(np.uint8), spacing)
        data = v.labels
    else:
        v = Volume3D(rng.standard_normal((nx, ny, nz)).astype(np.float32), spacing)
        data = v.voxels
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "prop.vvol")
        write_vvol(v, path)
        back = read_vvol(path)
    other = back.labels if as_label else back.voxels
    assert other.tobytes() == data.tobytes()
    assert back.spacing_mm == v.spacing_mm


WINDOW = IntensityConfig(-175.0, 250.0)


class TestNormalizeIntensity:
    def _vol(self, value):
        return Volume3D(np.full((2, 2, 2), value, dtype=np.float32), (1, 1, 1))

    def test_clamp_low(self):
        out = normalize_intensity(self._vol(-1000.0), WINDOW)
        np.testing.assert_array_equal(out.voxels, 0.0)

    def test_clamp_high(self):
        out = normalize_intensity(self._vol(250.0), WINDOW)
        np.testing.assert_array_equal(out.voxels, 1.0)

    def test_midpoint(self):
        out = normalize_intensity(self._vol(37.5), WINDOW)
        np.testing.assert_allclose(out.voxels, 0.5, atol=1e-7)

    def test_monotone_and_bounded(self):
        rng = np.random.default_rng(11)
        vals = np.sort(rng.uniform(-2000, 2000, 64)).astype(np.float32)
        out = normalize_intensity(
            Volume3D(vals.reshape(4, 4, 4), (1, 1, 1)), WINDOW
        ).voxels.ravel()
        assert (np.diff(out) >= 0).all()
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_bad_window(self):
        with pytest.raises(ValueError, match="lo < hi"):
            IntensityConfig(100.0, 100.0)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "0.0"])
def test_non_finite_or_zero_spacing_in_header_rejected(tmp_path, bad):
    path = tmp_path / "bad.vvol"
    header = (
        f"vvol 1\nkind volume\nshape 1 1 1\nspacing {bad} 1.0 1.0\n"
        "elem f32\nbyteorder little\nend\n"
    )
    path.write_bytes(header.encode() + b"\x00" * 4)
    with pytest.raises(VvolError, match="spacing"):
        read_vvol(path)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_spacing_rejected_in_memory(bad):
    with pytest.raises(ValueError, match="finite and positive"):
        Volume3D(np.zeros((2, 2, 2), dtype=np.float32), (bad, 1.0, 1.0))
    with pytest.raises(ValueError, match="finite and positive"):
        LabelVolume(np.zeros((2, 2, 2), dtype=np.uint8), (1.0, 1.0, bad))
