"""Synthetic abdominal CT phantoms with exact-volume tumor labels.

A phantom is a noisy background, one axis-aligned liver ellipsoid, and a
configurable number of hypodense tumors. Tumors are randomized
superellipsoids with a smooth boundary-noise field so their edges carry
high-frequency content; a radial binary search calibrates each voxelized
tumor to its sampled target volume, which makes the size distribution a
testable contract rather than a statistical accident.

A spec sets only the shape, the tumor count and volume ranges and the
seed. Appearance and geometry are constants: voxels are 1 mm cubes
(``SPACING_MM``); the background reads ``BACKGROUND_HU`` (-70), the liver
``LIVER_HU`` (60) and each tumor ``TUMOR_OFFSET_HU`` (-35) more, all
under Gaussian texture of ``TEXTURE_SIGMA_HU`` (8); tumor edges wobble
by up to ``BOUNDARY_NOISE`` (8%) of the radius. The liver ellipsoid is
derived from the shape: centred in the volume with semi-axes 0.42 times
each edge, so it always fits.

The geometry is evaluated on open grids (``np.ogrid``, ``np.ix_``): each
axis's coordinates stay one-dimensional and broadcast against the
others, so no dense coordinate volume is ever built.

Defaults put half the tumor mass below ~8 cm^3 on a 3-25 cm^3 range
(log-uniform sampling), mimicking the size statistics of small-lesion
liver CT cohorts.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .volume import LabelVolume, Volume3D

SPACING_MM = (1.0, 1.0, 1.0)
_VOXEL_CM3 = math.prod(SPACING_MM) / 1000.0
BACKGROUND_HU = -70.0
LIVER_HU = 60.0
TUMOR_OFFSET_HU = -35.0
TEXTURE_SIGMA_HU = 8.0
BOUNDARY_NOISE = 0.08  # amplitude of the tumor radius wobble, as a fraction

# binary-search bracket for the radial multiplier; the analytic semi-axis
# solve lands the voxelized volume near u=1, so a narrow bracket suffices
_RADIAL_LO, _RADIAL_HI = 0.85, 1.15
_PLACE_ATTEMPTS = 200  # tumor centres drawn before placement gives up
_VOLUME_TOL = 0.03  # largest relative miss of a calibrated tumor volume


class PhantomError(Exception):
    """Requested tumor configuration cannot be realized inside the liver."""


@dataclass(frozen=True)
class PhantomSpec:
    shape: tuple[int, int, int] = (128, 128, 128)
    tumor_count: tuple[int, int] = (1, 3)
    tumor_volume_cm3: tuple[float, float] = (3.0, 25.0)
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "shape", tuple(int(n) for n in self.shape))
        lo, hi = self.tumor_volume_cm3
        if not (0 < lo <= hi):
            raise ValueError(f"tumor volume range must be positive, got {self.tumor_volume_cm3}")
        cmin, cmax = self.tumor_count
        if cmin < 0 or cmax < cmin:
            raise ValueError(f"bad tumor count range {self.tumor_count}")
        if any(n < 1 for n in self.shape):
            raise ValueError(f"phantom shape must be positive, got {self.shape}")

    @property
    def liver_center(self):
        return tuple((n - 1) / 2.0 for n in self.shape)

    @property
    def liver_semi_axes(self):
        return tuple(0.42 * n for n in self.shape)


def _superellipsoid_volume_mm3(semi_axes, p):
    """Closed-form volume of {sum |x_i/a_i|^p <= 1}."""
    a, b, c = semi_axes
    g = math.gamma(1.0 + 1.0 / p)
    return 8.0 * a * b * c * g**3 / math.gamma(1.0 + 3.0 / p)


def _smooth_field(rng, shape, amplitude):
    """Low-frequency noise in [-amplitude, amplitude]: a 4^3 grid of
    uniform draws, trilinearly interpolated at linspace(0, 3, n) per axis.

    The arithmetic is that of ``scipy.ndimage.map_coordinates(order=1)``,
    which this equals bitwise: per axis, cell i = floor(c), w0 = 1 - (c - i)
    and w1 = 1 - w0; a zero plane after the grid serves the points at 3.0
    (with weight 0); the eight corners are added in C order, each as
    v*wx*wy*wz, to a sum that starts at 0.0.
    """
    coarse = np.zeros((5, 5, 5))
    coarse[:4, :4, :4] = rng.uniform(-1.0, 1.0, size=(4, 4, 4))
    coords = [np.linspace(0, 3, n) for n in shape]
    cells = [np.floor(c) for c in coords]
    ix, iy, iz = np.ix_(*(i.astype(np.intp) for i in cells))
    w0s = np.ix_(*(1.0 - (c - i) for c, i in zip(coords, cells)))
    wx, wy, wz = ((w0, 1.0 - w0) for w0 in w0s)
    field = 0.0
    for dx, dy, dz in itertools.product((0, 1), repeat=3):
        v = coarse[ix + dx, iy + dy, iz + dz]
        field = field + v * wx[dx] * wy[dy] * wz[dz]
    return amplitude * field


def _dilate6(mask):
    """Binary dilation by the 6-neighbour cross, zero outside the box:
    the mask OR-ed with its six one-voxel shifts."""
    grown = mask.copy()
    for axis in range(3):
        head = tuple(slice(1, None) if a == axis else slice(None) for a in range(3))
        tail = tuple(slice(None, -1) if a == axis else slice(None) for a in range(3))
        grown[head] |= mask[tail]
        grown[tail] |= mask[head]
    return grown


def _radial_field(center, semi_vox, p, bbox):
    """Superellipsoid radial distance over a bounding box of voxel coords."""
    grid = np.ogrid[tuple(slice(b0, b1) for b0, b1 in bbox)]
    return sum(np.abs((g - c) / s) ** p for g, c, s in zip(grid, center, semi_vox)) ** (1.0 / p)


def generate_phantom(spec: PhantomSpec):
    """Build (Volume3D, LabelVolume) from a spec; bitwise-deterministic."""
    rng = np.random.default_rng(spec.seed)
    nx, ny, nz = spec.shape

    lc, ls = spec.liver_center, spec.liver_semi_axes
    grid = np.ogrid[:nx, :ny, :nz]
    liver = sum(((g - c) / s) ** 2 for g, c, s in zip(grid, lc, ls)) <= 1.0

    volume = np.full(spec.shape, BACKGROUND_HU, dtype=np.float32)
    volume[liver] = LIVER_HU
    volume += rng.normal(0.0, TEXTURE_SIGMA_HU, size=spec.shape).astype(np.float32)

    labels = np.zeros(spec.shape, dtype=np.uint8)
    cmin, cmax = spec.tumor_count
    count = int(rng.integers(cmin, cmax + 1))
    for _ in range(count):
        _place_tumor(spec, rng, labels, volume)
    return Volume3D(volume, SPACING_MM), LabelVolume(labels, SPACING_MM)


def _place_tumor(spec, rng, labels, volume):
    lo, hi = spec.tumor_volume_cm3
    target_cm3 = float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
    p = float(rng.uniform(1.6, 3.0))
    ratios = rng.uniform(0.7, 1.3, size=3)
    ratios /= ratios.prod() ** (1.0 / 3.0)
    # base semi-axes (mm) hitting the analytic target exactly
    unit_vol = _superellipsoid_volume_mm3(ratios, p)
    t_mm = (target_cm3 * 1000.0 / unit_vol) ** (1.0 / 3.0)
    semi_mm = ratios * t_mm
    semi_vox = semi_mm / np.asarray(SPACING_MM)

    lc = np.asarray(spec.liver_center)
    ls = np.asarray(spec.liver_semi_axes)
    # worst-case footprint of the voxelized tumor: largest search radius,
    # full boundary noise, and the p > 2 diagonal bulge past the 2-ball
    bulge = max(1.0, 3.0 ** (0.5 - 1.0 / p))
    rho = semi_vox * _RADIAL_HI * (1.0 + BOUNDARY_NOISE) * bulge
    reach = rho + 1.0
    if float((semi_vox / ls).max()) >= 1.0:
        raise PhantomError(
            f"a {target_cm3:.2f} cm^3 tumor cannot fit inside the liver region"
        )
    # per-axis center-sampling bounds from the nominal extent; containment
    # and disjointness of the stamped mask are verified exactly afterwards
    span = ls * np.maximum(0.95 - 1.05 * semi_vox / ls, 0.1)

    for _ in range(_PLACE_ATTEMPTS):
        center = lc + rng.uniform(-span, span)
        # cheap necessary condition: the six axis-extreme points fit
        extremes = (np.abs(center - lc) + semi_vox) / ls
        rest = ((center - lc) / ls) ** 2
        if any(e * e + rest.sum() - r > 1.0 for e, r in zip(extremes, rest)):
            continue
        b0 = np.maximum(np.floor(center - reach).astype(int), 0)
        b1 = np.minimum(np.ceil(center + reach).astype(int) + 1, np.asarray(spec.shape))
        bbox = list(zip(b0, b1))
        noise = _smooth_field(rng, tuple(b1 - b0), BOUNDARY_NOISE)
        rho_field = _radial_field(center, semi_vox, p, bbox)
        mask = _calibrate(rho_field, noise, target_cm3)
        if mask is None:
            continue
        if not _inside_liver(mask, bbox, lc, ls):
            continue
        region = tuple(slice(a, b) for a, b in bbox)
        # keep tumors 6-disconnected so components map 1:1 to tumors
        grown = _dilate6(mask)
        if labels[region][grown].any():
            continue
        labels[region][mask] = 1
        volume[region][mask] += np.float32(TUMOR_OFFSET_HU)
        return
    raise PhantomError(
        f"could not place a {target_cm3:.2f} cm^3 tumor inside the liver region"
    )


def _inside_liver(mask, bbox, lc, ls):
    coords = np.argwhere(mask) + np.asarray([b[0] for b in bbox])
    return bool((((coords - lc) / ls) ** 2).sum(axis=1).max() <= 1.0)


def _calibrate(rho, noise, target_cm3):
    """Binary-search the radial multiplier so the voxel count hits target;
    the closest mask, or None when none lands within tolerance."""
    thresh = 1.0 + noise

    def measure(u):
        m = rho <= u * thresh
        return m, float(np.count_nonzero(m)) * _VOXEL_CM3

    _, lo_vol = measure(_RADIAL_LO)
    hi_mask, hi_vol = measure(_RADIAL_HI)
    if lo_vol > target_cm3 or hi_vol < target_cm3:
        return None
    lo, hi = _RADIAL_LO, _RADIAL_HI
    best_mask, best_vol = hi_mask, hi_vol
    for _ in range(48):
        mid = 0.5 * (lo + hi)
        mask, vol = measure(mid)
        if abs(vol - target_cm3) < abs(best_vol - target_cm3):
            best_mask, best_vol = mask, vol
        if vol < target_cm3:
            lo = mid
        else:
            hi = mid
    # voxel quantization floor: tiny tumors cannot land closer than one voxel
    limit = max(_VOLUME_TOL * target_cm3, 1.1 * _VOXEL_CM3)
    if abs(best_vol - target_cm3) > limit:
        return None
    return best_mask
