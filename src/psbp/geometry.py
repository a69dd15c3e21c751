"""Camera geometry: pixel to image coordinates, halfway vectors, normals to
gradients.

Coordinates: a pixel (col, row) is mapped to metric image coordinates
x = h_x * (col - delta_x), y = h_y * (row - delta_y); the viewing ray of a
pixel is t * (x, y, f).  A camera in raw pixel units is the special case
h_x = h_y = 1, delta_x = delta_y = 0 with f in pixels.  Surface normals
follow the frontal convention in which a fronto-parallel plane has normal
(0, 0, 1) and lights have positive third component.
"""

from __future__ import annotations

import numpy as np

from .core import CameraIntrinsics, GradientField, LightSource, NormalField


def pixel_grid(width, height, intr: CameraIntrinsics):
    """Per-pixel image coordinate grids (X, Y); adjacent pixels are h_x and
    h_y apart."""
    xs = intr.h_x * (np.arange(width, dtype=np.float64) - intr.delta_x)
    ys = intr.h_y * (np.arange(height, dtype=np.float64) - intr.delta_y)
    return np.meshgrid(xs, ys)


def halfway_vector_grid(X, Y, focal_length, light: LightSource):
    """Unit halfway vectors between the light and the per-pixel view vector
    (x, y, f)/||(x, y, f)|| over coordinate grids; shape (h, w, 3)."""
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


def normals_to_perspective_gradient(normals: NormalField,
                                    intr: CameraIntrinsics) -> GradientField:
    """Convert a normal field to per-pixel log-depth gradients.

    At image point (x, y) a normal (n1, n2, n3) yields the gradient of ln z
        p = n1 / d,  q = n2 / d,  d = f*n3 - x*n1 - y*n2,
    so rendering normals round-trip exactly to their generating log-depth
    gradients.  Pixels with |d| < 1e-8 (normal nearly orthogonal to the
    viewing ray) are masked out.
    """
    X, Y = pixel_grid(normals.width, normals.height, intr)
    n1 = normals.n[..., 0]
    n2 = normals.n[..., 1]
    n3 = normals.n[..., 2]
    d = intr.focal_length * n3 - X * n1 - Y * n2
    ok = normals.mask & (np.abs(d) >= 1e-8)
    safe = np.where(ok, d, 1.0)
    p = np.where(ok, n1 / safe, 0.0)
    q = np.where(ok, n2 / safe, 0.0)
    return GradientField(gx=p, gy=q, mask=ok)
