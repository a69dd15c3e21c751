"""Shared grid types, validation and error metrics.

All image-like data is stored row-major as (height, width) float64 arrays.
Pixel (col, row) maps to array element [row, col]; boolean masks mark valid
pixels with True.  Objects are treated as immutable once constructed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ConfigError(ValueError):
    """Invalid configuration or input naming the offending field."""


class NumericalError(RuntimeError):
    """A solver or integrator failed to produce a usable result."""


def _all_finite(values):
    """True when every number in values (a scalar, sequence or array) is finite."""
    return bool(np.all(np.isfinite(np.asarray(values, dtype=np.float64))))


def _as_grid(data, name):
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be a 2-d grid, got shape {arr.shape}")
    return arr


def _default_mask(arr):
    return np.ones(arr.shape[:2], dtype=bool)


def _check_mask(mask, shape, name):
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != shape:
        raise ValueError(f"{name} mask shape {mask.shape} does not match grid {shape}")
    return mask


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

    def __post_init__(self):
        self.direction = np.asarray(self.direction, dtype=np.float64).reshape(3)
        if not _all_finite(self.direction) or np.linalg.norm(self.direction) == 0:
            raise ValueError("light direction must be a finite nonzero 3-vector")
        if not _all_finite((self.diffuse_intensity, self.specular_intensity)):
            raise ValueError("light intensities must be finite")
        if self.diffuse_intensity < 0 or self.specular_intensity < 0:
            raise ValueError("light intensities must be non-negative")

    @property
    def norm(self):
        return float(np.linalg.norm(self.direction))

    @property
    def unit(self):
        return self.direction / self.norm

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
    mask.  Masked entries are stored as zero.
    """

    gx: np.ndarray
    gy: np.ndarray
    mask: np.ndarray = None

    def __post_init__(self):
        self.gx = _as_grid(self.gx, "gx")
        self.gy = _as_grid(self.gy, "gy")
        if self.gx.shape != self.gy.shape:
            raise ValueError("gx and gy must have identical shapes")
        if self.mask is None:
            self.mask = _default_mask(self.gx)
        self.mask = _check_mask(self.mask, self.gx.shape, "gradient")
        self.gx = np.where(self.mask, self.gx, 0.0)
        self.gy = np.where(self.mask, self.gy, 0.0)
        if not _all_finite(self.gx[self.mask]) or not _all_finite(self.gy[self.mask]):
            raise ValueError("gradients must be finite on unmasked pixels")

    @property
    def width(self):
        return self.gx.shape[1]

    @property
    def height(self):
        return self.gx.shape[0]


@dataclass
class DepthMap:
    """Scene depth per pixel (distance along the optical axis)."""

    z: np.ndarray
    mask: np.ndarray = None

    def __post_init__(self):
        self.z = _as_grid(self.z, "depth")
        if self.mask is None:
            self.mask = _default_mask(self.z)
        self.mask = _check_mask(self.mask, self.z.shape, "depth")
        valid = self.z[self.mask]
        if not _all_finite(valid):
            raise ValueError("depth must be finite on unmasked pixels")
        # Unit-range normalization legitimately produces zeros, so only
        # negative depths are rejected here; log-domain consumers check
        # strict positivity themselves.
        if valid.size and np.min(valid) < 0:
            raise ValueError("depth must be non-negative on unmasked pixels")

    @property
    def width(self):
        return self.z.shape[1]

    @property
    def height(self):
        return self.z.shape[0]


@dataclass
class NormalField:
    """Unit surface normals per pixel, (height, width, 3)."""

    n: np.ndarray
    mask: np.ndarray = None

    def __post_init__(self):
        self.n = np.asarray(self.n, dtype=np.float64)
        if self.n.ndim != 3 or self.n.shape[2] != 3:
            raise ValueError(f"normals must have shape (h, w, 3), got {self.n.shape}")
        if self.mask is None:
            self.mask = _default_mask(self.n)
        self.mask = _check_mask(self.mask, self.n.shape[:2], "normal")
        valid = self.n[self.mask]
        if valid.size:
            if not _all_finite(valid):
                raise ValueError("normals must be finite on unmasked pixels")
            norms = np.linalg.norm(valid, axis=1)
            if np.any(np.abs(norms - 1.0) > 1e-6):
                raise ValueError("normals must be unit length on unmasked pixels")
            if np.any(valid[:, 2] == 0.0):
                raise ValueError("normals must have nonzero third component")

    @property
    def width(self):
        return self.n.shape[1]

    @property
    def height(self):
        return self.n.shape[0]


def mse(a, b, mask=None):
    """Mean squared error between two grids over an optional mask."""
    a = _as_grid(a, "first grid")
    b = _as_grid(b, "second grid")
    if a.shape != b.shape:
        raise ValueError(f"grid shapes {a.shape} and {b.shape} do not match")
    if mask is None:
        mask = _default_mask(a)
    mask = _check_mask(mask, a.shape, "mse")
    if not mask.any():
        raise ValueError("mse mask is empty")
    d = a[mask] - b[mask]
    return float(np.mean(d * d))


def normalize_unit_range(depth: DepthMap) -> DepthMap:
    """Affinely map unmasked depths onto [0, 1]."""
    valid = depth.z[depth.mask]
    if not valid.size:
        raise ValueError("cannot normalize an empty depth map")
    lo = float(np.min(valid))
    hi = float(np.max(valid))
    if hi - lo == 0.0:
        raise ValueError("cannot normalize a depth map with zero range")
    z = np.where(depth.mask, (depth.z - lo) / (hi - lo), 0.0)
    return DepthMap(z=z, mask=depth.mask.copy())


def input_mask(images, low=1e-4, high=None):
    """Joint validity mask for a stack of input images.

    Pixels where any image falls below `low` (shadow / out of scene) are
    masked out.  `high` masks saturated pixels and should be set to 0.999
    for data loaded from clipped integer files; float renders have no full
    scale, so it defaults to None.
    """
    grids = [img.data if isinstance(img, Image) else _as_grid(img, "image") for img in images]
    shape = grids[0].shape
    for g in grids:
        if g.shape != shape:
            raise ValueError("input images must share one shape")
    mask = np.ones(shape, dtype=bool)
    for g in grids:
        mask &= g > low
        if high is not None:
            mask &= g < high
    return mask
