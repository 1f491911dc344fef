"""3D scalar volumes, binary label volumes, and the ``.vvol`` file format.

A ``.vvol`` file is a plain-text header followed by a raw little-endian
32-bit payload in x-fastest order. The format is deliberately minimal so
that write/read roundtrips are bitwise exact and testable without any
clinical-imaging dependency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

VVOL_MAGIC = "vvol 1"

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
        arr = np.ascontiguousarray(self.labels)
        if not np.isin(arr, (0, 1)).all():
            raise ValueError("label volume may only contain 0 and 1")
        self.labels = arr.astype(np.uint8)
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


def write_vvol(volume, path):
    """Write a Volume3D or LabelVolume to ``path`` in .vvol format."""
    if isinstance(volume, Volume3D):
        kind, elem, data = "volume", "f32", volume.voxels
        payload = data.astype("<f4", copy=False)
    elif isinstance(volume, LabelVolume):
        kind, elem = "label", "i32"
        payload = volume.labels.astype("<i4")
    else:
        raise TypeError(f"cannot serialize {type(volume).__name__}")
    nx, ny, nz = payload.shape
    sx, sy, sz = volume.spacing_mm
    header = (
        f"{VVOL_MAGIC}\n"
        f"kind {kind}\n"
        f"shape {nx} {ny} {nz}\n"
        f"spacing {sx!r} {sy!r} {sz!r}\n"
        f"elem {elem}\n"
        f"byteorder little\n"
        f"end\n"
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        # x-fastest: Fortran raveling of the (nx, ny, nz) array
        fh.write(payload.ravel(order="F").tobytes())


def read_vvol(path):
    """Read a .vvol file, returning Volume3D or LabelVolume per its header."""
    with open(path, "rb") as fh:
        raw = fh.read()
    nl = raw.find(b"\n")
    if nl < 0 or raw[:nl].decode("ascii", "replace") != VVOL_MAGIC:
        raise VvolError(f"{path}: not a vvol file")
    fields = {}
    pos = nl + 1
    while True:
        nl = raw.find(b"\n", pos)
        if nl < 0:
            raise VvolError(f"{path}: header not terminated by 'end'")
        line = raw[pos:nl].decode("ascii", "replace")
        pos = nl + 1
        if line == "end":
            break
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
    dtype = _ELEM_KINDS[elem]
    expected = nx * ny * nz * dtype.itemsize
    body = raw[pos:]
    if len(body) != expected:
        raise VvolError(
            f"{path}: payload length mismatch, expected {expected} bytes got {len(body)}"
        )
    arr = np.frombuffer(body, dtype=dtype).reshape((nx, ny, nz), order="F")
    if kind == "volume":
        if elem != "f32":
            raise VvolError(f"{path}: volume payload must be f32, got {elem}")
        cls = Volume3D
    elif kind == "label":
        cls = LabelVolume
    else:
        raise VvolError(f"{path}: unknown kind {kind!r}")
    try:
        if cls is Volume3D:
            check_finite(arr)
        return cls(arr, spacing)
    except ValueError as exc:  # non-finite voxels, bad spacing or label values
        raise VvolError(f"{path}: {exc}") from exc


def check_finite(voxels: np.ndarray, where: str | None = None):
    """Raise ValueError naming how many voxels are NaN or inf, after
    ``where`` if given."""
    bad = voxels.size - int(np.isfinite(voxels).sum())
    if bad:
        msg = f"{bad} non-finite voxels (NaN or inf)"
        raise ValueError(f"{where}: {msg}" if where else msg)


def normalize_intensity(v: Volume3D, lo: float = -175.0, hi: float = 250.0) -> Volume3D:
    """Clip voxel values to [lo, hi] and map them affinely onto [0, 1].

    The default window is a common abdominal soft-tissue preset in HU.
    """
    if lo >= hi:
        raise ValueError(f"intensity window requires lo < hi, got [{lo}, {hi}]")
    lo32 = np.float32(lo)
    span = np.float32(hi) - lo32
    out = (np.clip(v.voxels, lo, hi) - lo32) / span
    return Volume3D(out.astype(np.float32), v.spacing_mm)


def voxel_volume_cm3(spacing_mm) -> float:
    """Physical volume of a single voxel in cubic centimeters."""
    sx, sy, sz = spacing_mm
    return sx * sy * sz / 1000.0
