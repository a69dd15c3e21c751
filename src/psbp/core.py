"""Shared grid types, validation and the input mask.

All image-like data is stored row-major as (height, width) float64 arrays.
Pixel (col, row) maps to array element [row, col]; boolean masks mark valid
pixels with True.  Objects are treated as immutable once constructed.

The masked types, GradientField, DepthMap, NormalField and AlbedoMap, own
the rule for their pixels off the mask: each stores a new float64 frame that
holds its input on the mask and a fixed fill off it, 0, or (0, 0, 1) for
normals, whatever the input held there.  The frame and the mask are copies,
never aliases of the caller's arrays, and the input is not changed.  Each
type validates its frame as a whole, which the fill keeps valid, so no
pixels are gathered to check them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class ConfigError(ValueError):
    """Invalid configuration or input naming the offending field."""


class NumericalError(RuntimeError):
    """A solver or integrator failed to produce a usable result."""


def _all_finite(values):
    """True when every number in values (a scalar, sequence or array) is finite."""
    return bool(np.all(np.isfinite(np.asarray(values, dtype=np.float64))))


def _as_grid(data, name):
    """data as a 2-d float64 array."""
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be a 2-d grid, got shape {arr.shape}")
    return arr


def _masked_frame(data, mask, fill, name):
    """The frame and mask of a masked type: a new float64 array holding
    data on the mask and fill off it, and the mask as a new boolean grid
    (all True when None).  data is a grid, or a grid of vectors as long as
    fill.  The frame is checked finite by its min and max, which carry any
    NaN or inf, so no pixels are gathered; the fill is finite, and
    initial=0 lets an empty frame pass."""
    data = np.asarray(data)
    fill = np.asarray(fill, dtype=np.float64)
    shape = data.shape[:2]
    if data.ndim != 2 + fill.ndim or data.shape[2:] != fill.shape:
        dims = "h, w" + "".join(f", {k}" for k in fill.shape)
        raise ValueError(f"{name} must have shape ({dims}), got {data.shape}")
    off = np.zeros(shape, dtype=bool) if mask is None else np.logical_not(mask)
    if off.shape != shape:
        raise ValueError(f"{name} mask shape {off.shape} does not match grid {shape}")
    # astype widens without a cast buffer, and the mask's copy is made
    # from its complement in place, so the peak is the frame and one mask
    frame = data.astype(np.float64)
    np.copyto(frame, fill, where=off.reshape(shape + (1,) * fill.ndim))
    if not _all_finite((frame.min(initial=0.0), frame.max(initial=0.0))):
        raise ValueError(f"{name} must be finite on unmasked pixels")
    return frame, np.logical_not(off, out=off)


@dataclass
class Image:
    """Single-channel intensity grid."""

    data: np.ndarray

    def __post_init__(self):
        self.data = _as_grid(self.data, "image")
        if not _all_finite(self.data):
            raise ValueError("image intensities must be finite")
        if np.any(self.data < 0):
            raise ValueError("image intensities must be non-negative")

    @property
    def width(self):
        return self.data.shape[1]

    @property
    def height(self):
        return self.data.shape[0]


@dataclass
class LightSource:
    """Distant light: direction (alpha, beta, gamma) plus per-channel intensities.

    Directions need not be unit length; the shading equations divide by the
    norm.  gamma > 0 (light in front of the scene) is required by renderers
    and solvers but not at construction, so that degenerate rigs can still be
    fed to the conditioning diagnostics.
    """

    direction: np.ndarray
    diffuse_intensity: float = 1.0
    specular_intensity: float = 1.0
    # |direction| and direction / |direction|, computed once at construction
    norm: float = field(init=False, repr=False, compare=False)
    unit: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.direction = np.asarray(self.direction, dtype=np.float64).reshape(3)
        self.norm = float(np.linalg.norm(self.direction))
        if not _all_finite(self.direction) or self.norm == 0:
            raise ValueError("light direction must be a finite nonzero 3-vector")
        if not _all_finite((self.diffuse_intensity, self.specular_intensity)):
            raise ValueError("light intensities must be finite")
        if self.diffuse_intensity < 0 or self.specular_intensity < 0:
            raise ValueError("light intensities must be non-negative")
        self.unit = self.direction / self.norm

    def require_frontal(self):
        if self.direction[2] <= 0:
            raise ValueError(
                "light direction must have positive third component "
                "(frontal lighting convention)"
            )


@dataclass
class Material:
    """Blinn-Phong material: diffuse and specular albedo plus shininess."""

    k_d: float = 1.0
    k_s: float = 0.0
    shininess: float = 1.0

    def __post_init__(self):
        if not _all_finite((self.k_d, self.k_s, self.shininess)):
            raise ValueError("material coefficients must be finite")
        if not (0.0 <= self.k_d <= 1.0) or not (0.0 <= self.k_s <= 1.0):
            raise ValueError("albedo coefficients must lie in [0, 1]")
        if self.k_d + self.k_s > 1.0 + 1e-9:
            raise ValueError("k_d + k_s must not exceed 1")
        if self.shininess < 1.0:
            raise ValueError("shininess must be >= 1")


@dataclass
class CameraIntrinsics:
    """Pinhole camera with CCD pixel pitch and principal point.

    focal_length and pixel pitch share one metric unit; delta_x/delta_y are
    the principal point in pixel coordinates.  The pixel axes are
    orthogonal (zero skew).
    """

    focal_length: float
    h_x: float = 1.0
    h_y: float = 1.0
    delta_x: float = 0.0
    delta_y: float = 0.0

    def __post_init__(self):
        if not _all_finite((self.focal_length, self.h_x, self.h_y, self.delta_x, self.delta_y)):
            raise ValueError("camera intrinsics must be finite")
        if self.focal_length <= 0:
            raise ValueError("focal_length must be positive")
        if self.h_x <= 0 or self.h_y <= 0:
            raise ValueError("pixel pitch must be positive")


@dataclass
class GradientField:
    """Per-pixel gradient (gx, gy) of the log depth ln z with a validity
    mask.  Off the mask both are 0.
    """

    gx: np.ndarray
    gy: np.ndarray
    mask: np.ndarray = None

    def __post_init__(self):
        if np.shape(self.gx) != np.shape(self.gy):
            raise ValueError("gx and gy must have identical shapes")
        self.gx, mask = _masked_frame(self.gx, self.mask, 0.0, "gradients")
        self.gy, self.mask = _masked_frame(self.gy, mask, 0.0, "gradients")


@dataclass
class DepthMap:
    """Scene depth per pixel (distance along the optical axis), non-negative
    on the mask and 0 off it."""

    z: np.ndarray
    mask: np.ndarray = None

    def __post_init__(self):
        self.z, self.mask = _masked_frame(self.z, self.mask, 0.0, "depth")
        # Only negative depths are rejected here; log-domain consumers
        # check strict positivity themselves.
        if self.z.min(initial=0.0) < 0:
            raise ValueError("depth must be non-negative on unmasked pixels")


@dataclass
class NormalField:
    """Unit surface normals per pixel, (height, width, 3), with nonzero
    third component on the mask and (0, 0, 1) off it."""

    n: np.ndarray
    mask: np.ndarray = None

    def __post_init__(self):
        self.n, self.mask = _masked_frame(self.n, self.mask, (0.0, 0.0, 1.0), "normals")
        if np.any(np.abs(np.linalg.norm(self.n, axis=2) - 1.0) > 1e-6):
            raise ValueError("normals must be unit length on unmasked pixels")
        if np.any(self.n[..., 2] == 0.0):
            raise ValueError("normals must have nonzero third component")


@dataclass
class AlbedoMap:
    """Per-pixel diffuse albedo estimate, 0 off the mask."""

    values: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        self.values, self.mask = _masked_frame(self.values, self.mask, 0.0, "albedo")


def _grids(images):
    """The grids of a stack of images, each an Image's data or an array as
    a 2-d float64 grid, checked to share one shape: the one conversion of
    the input images for the mask, the solvers and the reprojection check."""
    grids = [img.data if isinstance(img, Image) else _as_grid(img, "image") for img in images]
    if any(g.shape != grids[0].shape for g in grids):
        raise ValueError("input images must share one shape")
    return grids


def input_mask(images, low=1e-4, high=None):
    """Joint validity mask for a stack of input images.

    Pixels where any image falls below `low` (shadow / out of scene) are
    masked out.  `high` masks saturated pixels and should be set to 0.999
    for data loaded from clipped integer files; float renders have no full
    scale, so it defaults to None.
    """
    grids = _grids(images)
    mask = np.ones(grids[0].shape, dtype=bool)
    for g in grids:
        mask &= g > low
        if high is not None:
            mask &= g < high
    return mask
