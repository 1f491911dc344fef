"""3D scalar volumes, binary label volumes, the file layout that ``.vvol``
and checkpoint files share, the ``.vvol`` format, and the HU intensity
window that maps a CT volume onto [0, 1].

Both file formats (checkpoints in ``checkpoint.py``) are laid out alike:

* a magic line, the format's name and version (``vvol 1``,
  ``ynetr-checkpoint 1``);
* ASCII header lines, each ended by ``\n`` alone, up to a line ``end``;
* a raw little-endian payload: the buffers of the arrays the header
  lists, in order, with nothing between them.

``write_layout`` writes it and ``read_header`` reads it up to the
payload. Every line is read with a bounded ``readline``: the magic line,
so that a file of another kind is refused after a few bytes, however
large it is, and the lines after it under one bound of 512 KiB in all,
so that a header is refused once it has read that much without an
``end``. Each reader then checks the payload length that the header
implies against the file's size before it allocates, and reads the
payload straight into the arrays that keep it; so a file read must be a
regular file.

A ``.vvol`` header holds ``kind`` (``volume`` or ``label``), ``shape nx
ny nz``, ``spacing`` (three floats in mm), ``elem`` (``f32`` or ``i32``)
and ``byteorder little``. Its payload is the voxels in x-fastest order:
the (nz, ny, nx) C-order array whose transpose is the (nx, ny, nz)
volume. The format is deliberately minimal so that write/read
roundtrips are bitwise exact and testable without any clinical-imaging
dependency.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

VVOL_MAGIC = "vvol 1"

# bound on the header lines after the magic line, over 10 times the
# largest header written (a checkpoint manifest, under 45 KiB); a bounded
# readline holds up to twice the bound, its read chunks and their join
_HEADER_BYTES = 512 << 10

# element kinds understood by the reader; payload is always 32-bit
_ELEM_KINDS = {"f32": np.dtype("<f4"), "i32": np.dtype("<i4")}


class VvolError(Exception):
    """Malformed header, payload length mismatch, unknown element kind,
    non-finite voxels in a volume payload, invalid geometry, or label
    values other than 0 and 1."""


@dataclass
class Volume3D:
    """Scalar voxel grid with physical spacing.

    ``voxels`` has shape (nx, ny, nz) and dtype float32; ``spacing_mm``
    gives the physical size of a voxel along each axis.
    """

    voxels: np.ndarray
    spacing_mm: tuple[float, float, float]

    def __post_init__(self):
        self.voxels = np.ascontiguousarray(self.voxels, dtype=np.float32)
        self.spacing_mm = tuple(float(s) for s in self.spacing_mm)
        _check_geometry(self.voxels.shape, self.spacing_mm)

    @property
    def shape(self):
        return self.voxels.shape


@dataclass
class LabelVolume:
    """Per-voxel class mask: 0 background, 1 foreground.

    Shape and spacing mirror the paired :class:`Volume3D`.
    """

    labels: np.ndarray
    spacing_mm: tuple[float, float, float]

    def __post_init__(self):
        arr = np.asarray(self.labels)
        with np.errstate(invalid="ignore"):  # NaN casts to some integer, refused below
            labels = arr.astype(np.uint8, order="C")
        # one cast, checked against its input: a value other than 0 and 1
        # casts to a different one (256, -1, 0.5, NaN) or stays above 1
        if not (np.array_equal(labels, arr) and labels.max(initial=0) <= 1):
            raise ValueError("label volume may only contain 0 and 1")
        self.labels = labels
        self.spacing_mm = tuple(float(s) for s in self.spacing_mm)
        _check_geometry(self.labels.shape, self.spacing_mm)

    @property
    def shape(self):
        return self.labels.shape


def _check_geometry(shape, spacing):
    if len(shape) != 3 or any(n < 1 for n in shape):
        raise ValueError(f"volume shape must be 3-D with positive dims, got {shape}")
    if len(spacing) != 3 or not all(0 < s < math.inf for s in spacing):
        raise ValueError(f"spacing must be finite and positive along every axis, got {spacing}")


def write_layout(path, magic, lines, buffers):
    """Write ``magic``, the header ``lines`` and ``end``, each as one line,
    then each of ``buffers`` (C-contiguous arrays) as it lies in memory."""
    with open(path, "wb") as fh:
        fh.write("".join(f"{line}\n" for line in (magic, *lines, "end")).encode("ascii"))
        for buf in buffers:
            fh.write(buf)


def read_header(fh, magic, error):
    """The header lines between the ``magic`` line and ``end`` of the open
    binary file ``fh``, without their ``\n``, leaving ``fh`` at the
    payload. A file that does not start with ``magic``, a header line
    that is not ASCII, or a header with no ``end`` within _HEADER_BYTES
    raises ``error``."""
    if fh.readline(len(magic) + 1) != f"{magic}\n".encode():
        raise error(f"{fh.name}: not a {magic.split()[0]} file")
    lines, left = [], _HEADER_BYTES
    while (line := fh.readline(left)).endswith(b"\n"):
        if line == b"end\n":
            return lines
        if not line.isascii():
            raise error(f"{fh.name}: header is not ASCII text")
        lines.append(line[:-1].decode())
        left -= len(line)
    raise error(f"{fh.name}: header not terminated by 'end'")


def write_vvol(volume, path):
    """Write a Volume3D or LabelVolume to ``path`` in .vvol format."""
    if isinstance(volume, Volume3D):
        kind, elem, data = "volume", "f32", volume.voxels
    elif isinstance(volume, LabelVolume):
        kind, elem, data = "label", "i32", volume.labels
    else:
        raise TypeError(f"cannot serialize {type(volume).__name__}")
    sx, sy, sz = volume.spacing_mm
    header = [f"kind {kind}", "shape {} {} {}".format(*data.shape),
              f"spacing {sx!r} {sy!r} {sz!r}", f"elem {elem}", "byteorder little"]
    # x-fastest: the C-order transpose of the (nx, ny, nz) array, one copy
    write_layout(path, VVOL_MAGIC, header, [np.ascontiguousarray(data.T, _ELEM_KINDS[elem])])


def read_vvol(path):
    """Read a .vvol file, returning Volume3D or LabelVolume per its header."""
    with open(path, "rb") as fh:
        fields = {}
        for line in read_header(fh, VVOL_MAGIC, VvolError):
            parts = line.split(None, 1)
            if len(parts) != 2:
                raise VvolError(f"{path}: malformed header line {line!r}")
            fields[parts[0]] = parts[1]
        try:
            kind = fields["kind"]
            nx, ny, nz = (int(t) for t in fields["shape"].split())
            spacing = tuple(float(t) for t in fields["spacing"].split())
            elem = fields["elem"]
            order = fields["byteorder"]
        except (KeyError, ValueError) as exc:
            raise VvolError(f"{path}: malformed header ({exc})") from exc
        if min(nx, ny, nz) < 1:
            raise VvolError(f"{path}: shape dims must be positive, got {(nx, ny, nz)}")
        if elem not in _ELEM_KINDS:
            raise VvolError(f"{path}: unknown element kind {elem!r}")
        if order != "little":
            raise VvolError(f"{path}: unsupported byte order {order!r}")
        if kind not in ("volume", "label"):
            raise VvolError(f"{path}: unknown kind {kind!r}")
        if kind == "volume" and elem != "f32":
            raise VvolError(f"{path}: volume payload must be f32, got {elem}")
        dtype = _ELEM_KINDS[elem]
        expected = nx * ny * nz * dtype.itemsize
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        if size != expected:
            raise VvolError(
                f"{path}: payload length mismatch, expected {expected} bytes got {size}"
            )
        arr = np.empty((nz, ny, nx), dtype)
        if fh.readinto(arr) != expected:
            raise VvolError(f"{path}: file shrank while reading the payload")
    try:
        if kind == "volume":
            check_finite(arr)
            return Volume3D(arr.T, spacing)
        return LabelVolume(arr.T, spacing)
    except ValueError as exc:  # non-finite voxels, bad spacing or label values
        raise VvolError(f"{path}: {exc}") from exc


def check_finite(voxels: np.ndarray, where: str | None = None):
    """Raise ValueError naming how many voxels are NaN or inf, after
    ``where`` if given."""
    bad = voxels.size - int(np.isfinite(voxels).sum())
    if bad:
        msg = f"{bad} non-finite voxels (NaN or inf)"
        raise ValueError(f"{where}: {msg}" if where else msg)


@dataclass(frozen=True)
class IntensityConfig:
    """The HU window ``[lo, hi]`` that ``normalize_intensity`` maps onto
    [0, 1]; the default is a common abdominal soft-tissue preset."""

    lo: float = -175.0
    hi: float = 250.0

    def __post_init__(self):
        if self.lo >= self.hi:
            raise ValueError(f"intensity window needs lo < hi, got [{self.lo}, {self.hi}]")


def normalize_intensity(v: Volume3D, window: IntensityConfig = IntensityConfig()) -> Volume3D:
    """Clip voxel values to the window's [lo, hi] and map them affinely onto [0, 1]."""
    lo32 = np.float32(window.lo)
    span = np.float32(window.hi) - lo32
    out = (np.clip(v.voxels, window.lo, window.hi) - lo32) / span
    return Volume3D(out, v.spacing_mm)
