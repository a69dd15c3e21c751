"""Camera geometry: CCD centerizing, perspective normals, halfway vectors.

Coordinates: a pixel (col, row) is mapped to metric image coordinates
x = h_x * (col - delta_x), y = h_y * (row - delta_y); the viewing ray of a
pixel is t * (x, y, f).  Surface normals follow the frontal convention in
which a fronto-parallel plane has normal (0, 0, 1) and lights have positive
third component.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CameraIntrinsics, GradientField, KIND_DEPTH, LightSource, NormalField


@dataclass(frozen=True)
class ImagePoint:
    """Metric image-plane coordinates relative to the principal point."""

    x: float
    y: float


def pixel_grid(width, height, intr: CameraIntrinsics, centerized=True):
    """Per-pixel coordinate grids (X, Y), metric if centerized else raw indices."""
    cols = np.arange(width, dtype=np.float64)
    rows = np.arange(height, dtype=np.float64)
    if centerized:
        xs = intr.h_x * (cols - intr.delta_x)
        ys = intr.h_y * (rows - intr.delta_y)
    else:
        xs, ys = cols, rows
    return np.meshgrid(xs, ys)


def grid_spacing(intr: CameraIntrinsics, centerized=True):
    """Step between adjacent pixels in the coordinate system of pixel_grid."""
    if centerized:
        return intr.h_x, intr.h_y
    return 1.0, 1.0


def perspective_normal(point: ImagePoint, gx, gy, focal_length):
    """Unit surface normal at an image point from log-depth gradients.

    The unnormalized direction is (f*gx, f*gy, w) with w = x*gx + y*gy + 1;
    the positive depth-dependent prefactor of the underlying tangent cross
    product is dropped.
    """
    w = point.x * gx + point.y * gy + 1.0
    n = np.array([focal_length * gx, focal_length * gy, w], dtype=np.float64)
    norm = np.linalg.norm(n)
    if norm == 0.0:
        raise ValueError("degenerate normal: zero direction vector")
    return n / norm


def view_direction(point: ImagePoint, focal_length):
    """Unit view vector used by the specular term, (x, y, f)/||(x, y, f)||."""
    v = np.array([point.x, point.y, focal_length], dtype=np.float64)
    return v / np.linalg.norm(v)


def halfway_vector(point: ImagePoint, focal_length, light: LightSource):
    """Unit halfway vector between the light and the per-pixel view vector."""
    h = light.unit + view_direction(point, focal_length)
    norm = np.linalg.norm(h)
    if norm < 1e-12:
        raise ValueError("degenerate halfway vector: light opposes the view direction")
    return h / norm


def halfway_vector_grid(X, Y, focal_length, light: LightSource):
    """Vectorized halfway_vector over coordinate grids; shape (h, w, 3)."""
    p = np.sqrt(X * X + Y * Y + focal_length * focal_length)
    h = np.stack(
        [
            light.unit[0] + X / p,
            light.unit[1] + Y / p,
            light.unit[2] + focal_length / p,
        ],
        axis=-1,
    )
    norm = np.linalg.norm(h, axis=-1)
    if np.any(norm < 1e-12):
        raise ValueError("degenerate halfway vector: light opposes the view direction")
    return h / norm[..., None]


def normals_to_perspective_gradient(
    normals: NormalField, intr: CameraIntrinsics, centerized=True
) -> GradientField:
    """Convert a normal field to per-pixel perspective depth gradients.

    At image point (x, y) a normal (n1, n2, n3) yields
        p = n1 / d,  q = n2 / d,  d = f*n3 - x*n1 - y*n2,
    the orientation for which rendering normals round-trip exactly to their
    generating log-depth gradients.  Pixels with |d| < 1e-8 (normal nearly
    orthogonal to the viewing ray) are masked out.
    """
    X, Y = pixel_grid(normals.width, normals.height, intr, centerized)
    n1 = normals.n[..., 0]
    n2 = normals.n[..., 1]
    n3 = normals.n[..., 2]
    d = intr.focal_length * n3 - X * n1 - Y * n2
    ok = normals.mask & (np.abs(d) >= 1e-8)
    safe = np.where(ok, d, 1.0)
    p = np.where(ok, n1 / safe, 0.0)
    q = np.where(ok, n2 / safe, 0.0)
    return GradientField(gx=p, gy=q, kind=KIND_DEPTH, mask=ok)
