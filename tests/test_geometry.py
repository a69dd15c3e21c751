"""Camera geometry: centerizing, perspective normals, halfway vectors."""

import numpy as np
import pytest

from psbp.core import CameraIntrinsics, KIND_DEPTH, LightSource, NormalField
from psbp.geometry import (
    ImagePoint,
    grid_spacing,
    halfway_vector,
    halfway_vector_grid,
    normals_to_perspective_gradient,
    perspective_normal,
    pixel_grid,
    view_direction,
)


def test_pixel_grid_centerized_and_raw():
    intr = CameraIntrinsics(focal_length=1.0, h_x=0.5, h_y=0.25, delta_x=1.0, delta_y=2.0)
    X, Y = pixel_grid(3, 4, intr)
    assert X.shape == (4, 3)
    assert np.allclose(X[0], [-0.5, 0.0, 0.5])
    assert np.allclose(Y[:, 0], [-0.5, -0.25, 0.0, 0.25])
    Xr, Yr = pixel_grid(3, 4, intr, centerized=False)
    assert np.allclose(Xr[0], [0.0, 1.0, 2.0])
    assert np.allclose(Yr[:, 0], [0.0, 1.0, 2.0, 3.0])


def test_grid_spacing():
    intr = CameraIntrinsics(focal_length=1.0, h_x=0.5, h_y=0.25)
    assert grid_spacing(intr) == (0.5, 0.25)
    assert grid_spacing(intr, centerized=False) == (1.0, 1.0)


def test_perspective_normal_flat_surface():
    # constant depth => zero log-depth gradient => frontal normal everywhere
    n = perspective_normal(ImagePoint(0.2, -0.1), 0.0, 0.0, 1.0)
    assert np.allclose(n, [0.0, 0.0, 1.0])


def test_perspective_normal_components():
    pt = ImagePoint(x=0.1, y=0.2)
    gx, gy, f = 0.3, -0.4, 2.0
    n = perspective_normal(pt, gx, gy, f)
    w = pt.x * gx + pt.y * gy + 1.0
    expected = np.array([f * gx, f * gy, w])
    expected /= np.linalg.norm(expected)
    assert np.allclose(n, expected, atol=1e-15)
    assert np.linalg.norm(n) == pytest.approx(1.0)


def test_view_direction_and_halfway_vector():
    pt = ImagePoint(x=0.3, y=-0.4)
    v = view_direction(pt, 1.2)
    assert np.linalg.norm(v) == pytest.approx(1.0)
    assert np.allclose(v, np.array([0.3, -0.4, 1.2]) / np.linalg.norm([0.3, -0.4, 1.2]))

    light = LightSource(np.array([1.0, 0.0, 2.0]))
    h = halfway_vector(pt, 1.2, light)
    expected = light.unit + v
    expected /= np.linalg.norm(expected)
    assert np.allclose(h, expected, atol=1e-15)


def test_halfway_vector_grid_matches_scalar():
    intr = CameraIntrinsics(focal_length=1.0, h_x=0.01, h_y=0.01, delta_x=2.0, delta_y=2.0)
    light = LightSource(np.array([0.0, 1.0, 2.0]))
    X, Y = pixel_grid(5, 5, intr)
    h = halfway_vector_grid(X, Y, 1.0, light)
    for i in range(5):
        for j in range(5):
            hs = halfway_vector(ImagePoint(X[i, j], Y[i, j]), 1.0, light)
            assert np.allclose(h[i, j], hs, atol=1e-14)


def test_halfway_vector_degenerate_light():
    # light exactly opposing the view direction has no halfway vector
    with pytest.raises(ValueError):
        halfway_vector(ImagePoint(0.0, 0.0), 1.0, LightSource(np.array([0.0, 0.0, -1.0])))


def test_normals_to_perspective_gradient_round_trip():
    """The per-pixel normal of a log-depth gradient converts back to that
    exact gradient: p = n1/d, q = n2/d with d = f*n3 - x*n1 - y*n2."""
    intr = CameraIntrinsics(focal_length=1.3, h_x=0.02, h_y=0.03, delta_x=7.5, delta_y=5.5)
    rng = np.random.default_rng(11)
    gx = rng.uniform(-1.5, 1.5, size=(12, 16))
    gy = rng.uniform(-1.5, 1.5, size=(12, 16))
    X, Y = pixel_grid(16, 12, intr)
    n = np.stack([intr.focal_length * gx, intr.focal_length * gy, X * gx + Y * gy + 1.0],
                 axis=-1)
    n /= np.linalg.norm(n, axis=-1, keepdims=True)
    flip = n[..., 2] < 0  # frontal convention before constructing the field
    n[flip] *= -1.0
    grad = normals_to_perspective_gradient(NormalField(n), intr)
    assert grad.kind == KIND_DEPTH
    assert grad.mask.all()
    assert np.allclose(grad.gx, gx, atol=1e-12)
    assert np.allclose(grad.gy, gy, atol=1e-12)


def test_normals_to_perspective_gradient_masks_grazing_normals():
    # a normal orthogonal to the viewing ray makes the denominator vanish
    intr = CameraIntrinsics(focal_length=1.0)
    n = np.zeros((1, 2, 3))
    n[0, 0] = (0.0, 0.0, 1.0)
    X, _ = pixel_grid(2, 1, intr)  # x = 1 => d = f*n3 - x*n1 vanishes for n=(1,0,eps)/||.||
    v = np.array([1.0, 0.0, 1.0 / X[0, 1] * 1.0])  # choose n1/n3 = f/x exactly
    n[0, 1] = v / np.linalg.norm(v)
    grad = normals_to_perspective_gradient(NormalField(n), intr)
    assert grad.mask[0, 0]
    assert not grad.mask[0, 1]
    assert grad.gx[0, 1] == 0.0
