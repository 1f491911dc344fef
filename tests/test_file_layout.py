"""The layout that ``.vvol`` and checkpoint files share: the bytes of both
formats are pinned, a file of another kind is refused after a few bytes,
a header with no end after 512 KiB, and a volume or a label is read
without a copy of the whole file."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from ynetr.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from ynetr.model import ModelConfig, YNetr
from ynetr.optim import AdamW
from ynetr.volume import LabelVolume, Volume3D, VvolError, read_vvol, write_vvol


def write_seeded_files(out):
    """A seeded volume, label and checkpoint (with optimizer state) under ``out``."""
    rng = np.random.default_rng(25)
    spacing = (0.7, 1.0, 2.5)
    write_vvol(Volume3D(rng.standard_normal((5, 4, 3)) * 100, spacing), out / "case.vvol")
    write_vvol(LabelVolume(rng.random((5, 4, 3)) < 0.3, spacing), out / "case.label.vvol")
    model = YNetr(ModelConfig(input_dims=(16, 16, 16), embed_dim=16, num_heads=2, depth=4,
                              decoder_channels=(4, 4, 4, 4, 2)))
    for p in model.parameters():
        p.data = rng.standard_normal(p.data.shape).astype(np.float32)
    opt = AdamW(model.parameters(), lr=1e-3, weight_decay=0.01)
    opt.m = [rng.standard_normal(m.shape).astype(np.float32) for m in opt.m]
    opt.v = [rng.random(v.shape).astype(np.float32) for v in opt.v]
    opt.t = 3
    save_checkpoint(out / "model.ynck", model, opt, extra={"inference": {"overlap": 0.5}})


# SHA-256 of each file, as written before the two formats shared a writer
GOLDEN = {
    "case.vvol": "a72353697b50192af25ee412364c35c932ffaaa4c099c92cc6844d11d76c2c79",
    "case.label.vvol": "220cdeed260c494e882261a6f57124c8b06711a2ee981a4bd78a401ebface205",
    "model.ynck": "2b56b0dbf62200904af38b1a29e00bd957e1c2747b41cddfe0c57f9f0ca58366",
}


def test_written_bytes_are_pinned(tmp_path):
    write_seeded_files(tmp_path)
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in GOLDEN}
    assert got == GOLDEN


def _peak(fn, *args):
    """(result or exception, tracemalloc peak in bytes) of ``fn(*args)``."""
    tracemalloc.start()
    try:
        result = fn(*args)
    except (VvolError, CheckpointError) as exc:
        result = exc
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return result, peak


@pytest.mark.parametrize("load, error, message", [
    (read_vvol, VvolError, "not a vvol file"),
    (load_checkpoint, CheckpointError, "not a ynetr-checkpoint file"),
], ids=["vvol", "checkpoint"])
def test_large_file_of_another_kind_is_refused_after_a_few_bytes(tmp_path, load, error,
                                                                 message):
    path = tmp_path / "junk"
    with open(path, "wb") as fh:
        fh.truncate(32 << 20)  # 32 MiB of zeros, with no newline
    exc, peak = _peak(load, path)
    assert isinstance(exc, error) and str(exc) == f"{path}: {message}"
    assert peak < 1 << 20, f"peak {peak} B"


@pytest.mark.parametrize("load, error, magic", [
    (read_vvol, VvolError, b"vvol 1\n"),
    (load_checkpoint, CheckpointError, b"ynetr-checkpoint 1\n"),
], ids=["vvol", "checkpoint"])
def test_header_without_a_newline_is_refused_at_the_cap(tmp_path, load, error, magic):
    path = tmp_path / "endless"
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.truncate(len(magic) + (32 << 20))  # then 32 MiB of zeros, with no newline
    exc, peak = _peak(load, path)
    assert isinstance(exc, error) and str(exc) == f"{path}: header not terminated by 'end'"
    assert peak < 2 << 20, f"peak {peak} B"


def test_read_label_holds_little_more_than_its_payload(tmp_path):
    # the i32 payload, its uint8 cast and the check of that cast: a
    # 128 x 128 x 96 label peaked at 34.5 MiB with an isin check on an
    # int32 copy, 5.75 times its 6 MiB payload
    labels = np.random.default_rng(4).random((128, 128, 96)) < 0.1
    path = tmp_path / "case.label.vvol"
    write_vvol(LabelVolume(labels, (1, 1, 1)), path)
    back, peak = _peak(read_vvol, path)
    assert back.labels.tobytes() == labels.astype(np.uint8).tobytes()
    payload = 4 * labels.size
    assert peak <= 1.6 * payload, f"peak {peak / payload:.2f}x the payload"


@pytest.mark.parametrize("value", [256, -1, 0.5, np.nan])
def test_label_values_other_than_0_and_1_are_refused(value):
    labels = np.zeros((3, 4, 5), np.float64)
    labels[1, 2, 3] = value
    with pytest.raises(ValueError, match="label volume may only contain 0 and 1"):
        LabelVolume(labels, (1, 1, 1))
    with pytest.raises(ValueError, match="label volume may only contain 0 and 1"):
        LabelVolume(labels.T, (1, 1, 1))


def test_read_vvol_holds_the_volume_at_most_twice(tmp_path):
    # the payload array and the C-order volume made from its transpose
    vox = np.random.default_rng(3).standard_normal((64, 48, 80), dtype=np.float32)
    path = tmp_path / "v.vvol"
    write_vvol(Volume3D(vox, (1, 1, 1)), path)
    back, peak = _peak(read_vvol, path)
    assert back.voxels.tobytes() == vox.tobytes()
    assert peak <= 2.1 * vox.nbytes, f"peak {peak / vox.nbytes:.2f}x the volume"


def test_payload_length_is_checked_before_allocating(tmp_path):
    path = tmp_path / "huge.vvol"
    path.write_bytes(b"vvol 1\nkind volume\nshape 100000 100000 100000\nspacing 1.0 1.0 1.0\n"
                     b"elem f32\nbyteorder little\nend\n" + b"\0" * 16)
    exc, peak = _peak(read_vvol, path)
    assert str(exc) == (f"{path}: payload length mismatch, expected 4000000000000000 bytes "
                        "got 16")
    assert peak < 1 << 20
