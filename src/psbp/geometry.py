"""Camera geometry: pixel to image coordinates, halfway vectors, normals to
gradients.

Coordinates: a pixel (col, row) is mapped to metric image coordinates
x = h_x * (col - delta_x), y = h_y * (row - delta_y); the viewing ray of a
pixel is t * (x, y, f).  A camera in raw pixel units is the special case
h_x = h_y = 1, delta_x = delta_y = 0 with f in pixels.  Surface normals
follow the frontal convention in which a fronto-parallel plane has normal
(0, 0, 1) and lights have positive third component.  Halfway vectors are
laid out components first, (3, ...), so that the shading reads each
component as one contiguous array.
"""

from __future__ import annotations

import numpy as np

from .core import CameraIntrinsics, GradientField, NormalField


def pixel_axes(width, height, intr: CameraIntrinsics):
    """The image coordinates of the pixel columns as one row (1, width), and
    of the pixel rows as one column (height, 1): adjacent pixels are h_x and
    h_y apart, and the two broadcast to the per-pixel coordinates of the
    frame without forming its grids."""
    xs = intr.h_x * (np.arange(width, dtype=np.float64) - intr.delta_x)
    ys = intr.h_y * (np.arange(height, dtype=np.float64) - intr.delta_y)
    return xs[None, :], ys[:, None]


def halfway_vectors(x, y, focal_length, lights):
    """Unit halfway vectors between each light and the view vector
    (x, y, f)/||(x, y, f)|| at image points x, y (arrays or scalars).

    Yields one array per light, components first, (3, ...), formed when it
    is asked for; the view vector is computed once.  Each halfway is
    normalized by sqrt((h0^2 + h1^2) + h2^2), the order in which
    np.linalg.norm adds a vector's three squares, so it keeps that norm's
    bits.  A light opposing the view direction raises ValueError.
    """
    p = np.sqrt(x * x + y * y + focal_length * focal_length)
    view = np.stack(np.broadcast_arrays(x, y, focal_length))
    view /= p
    column = (3,) + (1,) * np.ndim(p)
    for light in lights:
        h = light.unit.reshape(column) + view
        norm = h[0] * h[0]
        norm += h[1] * h[1]
        norm += h[2] * h[2]
        norm = np.sqrt(norm)
        if np.any(norm < 1e-12):
            raise ValueError("degenerate halfway vector: light opposes the view direction")
        h /= norm
        yield h


def normals_to_perspective_gradient(normals: NormalField,
                                    intr: CameraIntrinsics) -> GradientField:
    """Convert a normal field to per-pixel log-depth gradients.

    At image point (x, y) a normal (n1, n2, n3) yields the gradient of ln z
        p = n1 / d,  q = n2 / d,  d = f*n3 - x*n1 - y*n2,
    so rendering normals round-trip exactly to their generating log-depth
    gradients.  Pixels with |d| < 1e-8 (normal nearly orthogonal to the
    viewing ray) are masked out.
    """
    X, Y = pixel_axes(normals.width, normals.height, intr)
    n1 = normals.n[..., 0]
    n2 = normals.n[..., 1]
    n3 = normals.n[..., 2]
    d = intr.focal_length * n3 - X * n1 - Y * n2
    ok = normals.mask & (np.abs(d) >= 1e-8)
    safe = np.where(ok, d, 1.0)
    p = np.where(ok, n1 / safe, 0.0)
    q = np.where(ok, n2 / safe, 0.0)
    return GradientField(gx=p, gy=q, mask=ok)
