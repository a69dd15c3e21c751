"""Camera geometry: pixel to image coordinates, halfway vectors, normal-to-gradient
conversion."""

import numpy as np
import pytest

from psbp.core import CameraIntrinsics, LightSource, NormalField
from psbp.geometry import (
    halfway_vectors,
    normals_to_perspective_gradient,
    pixel_axes,
)


def test_pixel_axes_metric_and_raw():
    intr = CameraIntrinsics(focal_length=1.0, h_x=0.5, h_y=0.25, delta_x=1.0, delta_y=2.0)
    x, y = pixel_axes(3, 4, intr)
    assert x.shape == (1, 3) and y.shape == (4, 1)
    assert np.allclose(x[0], [-0.5, 0.0, 0.5])
    assert np.allclose(y[:, 0], [-0.5, -0.25, 0.0, 0.25])
    # a raw-pixel camera: pitch 1 and principal point 0 give the pixel
    # indices, and the axes broadcast to the meshgrid of the frame
    raw = np.broadcast_arrays(*pixel_axes(3, 4, CameraIntrinsics(1.0, 1.0, 1.0, 0.0, 0.0)))
    expected = np.meshgrid(np.arange(3, dtype=float), np.arange(4, dtype=float))
    for got, want in zip(raw, expected):
        assert np.array_equal(got, want)


def test_halfway_vectors_match_scalar():
    intr = CameraIntrinsics(focal_length=1.0, h_x=0.01, h_y=0.01, delta_x=2.0, delta_y=2.0)
    light = LightSource(np.array([0.0, 1.0, 2.0]))
    X, Y = np.broadcast_arrays(*pixel_axes(5, 5, intr))
    [h] = halfway_vectors(X, Y, 1.0, [light])
    assert h.shape == (3, 5, 5)
    for i in range(5):
        for j in range(5):
            view = np.array([X[i, j], Y[i, j], 1.0])
            hs = light.unit + view / np.linalg.norm(view)
            hs /= np.linalg.norm(hs)
            assert np.allclose(h[:, i, j], hs, atol=1e-14)


def stacked_halfway(x, y, f, light):
    """The halfway vectors as an interleaved (..., 3) stack normalized by
    np.linalg.norm: the reference whose bits halfway_vectors keeps."""
    p = np.sqrt(x * x + y * y + f * f)
    h = np.stack([light.unit[0] + x / p, light.unit[1] + y / p, light.unit[2] + f / p],
                 axis=-1)
    return h / np.linalg.norm(h, axis=-1)[..., None]


def test_halfway_vectors_keep_the_bits_of_np_linalg_norm():
    rng = np.random.default_rng(3)
    x, y = rng.uniform(-2.0, 2.0, size=(2, 200_000))
    f = 1.7
    lights = [LightSource(d) for d in rng.uniform(-1.0, 1.0, size=(3, 3)) + (0.0, 0.0, 1.5)]
    got = list(halfway_vectors(x, y, f, lights))
    assert len(got) == 3
    for light, h in zip(lights, got):
        assert h.shape == (3, x.size)
        want = np.moveaxis(stacked_halfway(x, y, f, light), -1, 0)
        assert np.array_equal(h.view(np.int64), want.view(np.int64))
    # scalar image points, as render_scene passes them for an orthographic scene
    [h] = halfway_vectors(0.0, 0.0, 1.0, lights[:1])
    want = stacked_halfway(0.0, 0.0, 1.0, lights[0])
    assert np.array_equal(h.view(np.int64), want.view(np.int64))


def test_halfway_vector_degenerate_light():
    # light exactly opposing the view direction has no halfway vector
    with pytest.raises(ValueError, match="degenerate halfway vector"):
        list(halfway_vectors(np.zeros((1, 1)), np.zeros((1, 1)), 1.0,
                             [LightSource(np.array([0.0, 0.0, -1.0]))]))


def test_normals_to_perspective_gradient_round_trip():
    """The per-pixel normal of a log-depth gradient converts back to that
    exact gradient: p = n1/d, q = n2/d with d = f*n3 - x*n1 - y*n2."""
    intr = CameraIntrinsics(focal_length=1.3, h_x=0.02, h_y=0.03, delta_x=7.5, delta_y=5.5)
    rng = np.random.default_rng(11)
    gx = rng.uniform(-1.5, 1.5, size=(12, 16))
    gy = rng.uniform(-1.5, 1.5, size=(12, 16))
    X, Y = np.broadcast_arrays(*pixel_axes(16, 12, intr))
    n = np.stack([intr.focal_length * gx, intr.focal_length * gy, X * gx + Y * gy + 1.0],
                 axis=-1)
    n /= np.linalg.norm(n, axis=-1, keepdims=True)
    flip = n[..., 2] < 0  # frontal convention before constructing the field
    n[flip] *= -1.0
    grad = normals_to_perspective_gradient(NormalField(n), intr)
    assert grad.mask.all()
    assert np.allclose(grad.gx, gx, atol=1e-12)
    assert np.allclose(grad.gy, gy, atol=1e-12)


def test_normals_to_perspective_gradient_masks_grazing_normals():
    # a normal orthogonal to the viewing ray makes the denominator vanish
    intr = CameraIntrinsics(focal_length=1.0)
    n = np.zeros((1, 2, 3))
    n[0, 0] = (0.0, 0.0, 1.0)
    # x = 1 => d = f*n3 - x*n1 vanishes for n=(1,0,eps)/||.||
    X, _ = np.broadcast_arrays(*pixel_axes(2, 1, intr))
    v = np.array([1.0, 0.0, 1.0 / X[0, 1] * 1.0])  # choose n1/n3 = f/x exactly
    n[0, 1] = v / np.linalg.norm(v)
    grad = normals_to_perspective_gradient(NormalField(n), intr)
    assert grad.mask[0, 0]
    assert not grad.mask[0, 1]
    assert grad.gx[0, 1] == 0.0
