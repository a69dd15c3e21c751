"""Unit tests for the core data types and grid helpers."""

import numpy as np
import pytest

from psbp.core import (
    CameraIntrinsics,
    DepthMap,
    GradientField,
    Image,
    LightSource,
    Material,
    NormalField,
    input_mask,
    mse,
    normalize_unit_range,
)


def test_image_basic():
    img = Image(np.ones((4, 6)))
    assert img.width == 6
    assert img.height == 4


def test_image_rejects_negative_and_nonfinite():
    with pytest.raises(ValueError):
        Image(np.array([[0.5, -0.1]]))
    with pytest.raises(ValueError):
        Image(np.array([[np.nan, 0.0]]))


def test_light_source_unit_and_norm():
    light = LightSource(np.array([1.0, 0.0, 2.0]), diffuse_intensity=1.2)
    assert light.norm == pytest.approx(np.sqrt(5.0))
    assert np.allclose(light.unit, np.array([1.0, 0.0, 2.0]) / np.sqrt(5.0))
    assert light.diffuse_intensity == 1.2
    assert light.specular_intensity == 1.0


def test_light_source_validation():
    with pytest.raises(ValueError):
        LightSource(np.zeros(3))
    with pytest.raises(ValueError):
        LightSource(np.array([1.0, np.inf, 1.0]))
    with pytest.raises(ValueError):
        LightSource(np.array([0.0, 0.0, 1.0]), diffuse_intensity=-1.0)


def test_light_source_frontal_check_is_deferred():
    # Degenerate rigs are constructible (the conditioning diagnostics need
    # them); only require_frontal() enforces gamma > 0.
    side = LightSource(np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        side.require_frontal()
    behind = LightSource(np.array([0.0, 1.0, -1.0]))
    with pytest.raises(ValueError):
        behind.require_frontal()
    LightSource(np.array([0.0, 0.0, 1.0])).require_frontal()


def test_material_defaults_and_energy_budget():
    mat = Material()
    assert mat.k_d == 1.0 and mat.k_s == 0.0 and mat.shininess == 1.0
    Material(k_d=0.5, k_s=0.5, shininess=150.0)
    with pytest.raises(ValueError):
        Material(k_d=0.7, k_s=0.4)
    with pytest.raises(ValueError):
        Material(k_d=-0.1)
    with pytest.raises(ValueError):
        Material(k_d=0.5, shininess=0.5)


def test_camera_intrinsics_validation():
    CameraIntrinsics(focal_length=1.0, h_x=0.01, h_y=0.02, delta_x=3.0, delta_y=4.0)
    with pytest.raises(ValueError):
        CameraIntrinsics(focal_length=0.0)
    with pytest.raises(ValueError):
        CameraIntrinsics(focal_length=1.0, h_x=-1.0)
    # the camera model has no skew parameter
    with pytest.raises(TypeError):
        CameraIntrinsics(focal_length=1.0, skew=0.1)


NAN = float("nan")
INF = float("inf")
FRONTAL = np.array([0.0, 0.0, 1.0])


@pytest.mark.parametrize("make", [
    lambda: CameraIntrinsics(NAN),
    lambda: CameraIntrinsics(1.0, 1.0, 1.0, INF),
    lambda: CameraIntrinsics(1.0, NAN),
    lambda: Material(0.5, 0.5, NAN),
    lambda: Material(0.5, 0.5, INF),
    lambda: LightSource(FRONTAL, NAN),
    lambda: LightSource(FRONTAL, 1.0, INF),
], ids=["focal-nan", "delta-x-inf", "pitch-nan", "shininess-nan", "shininess-inf",
        "diffuse-intensity-nan", "specular-intensity-inf"])
def test_value_types_reject_non_finite_numbers(make):
    with pytest.raises(ValueError, match="finite"):
        make()


def test_gradient_field_zeroes_masked_entries():
    gx = np.array([[1.0, 2.0], [3.0, 4.0]])
    gy = -gx
    mask = np.array([[True, False], [False, True]])
    grad = GradientField(gx=gx, gy=gy, mask=mask)
    assert grad.gx[0, 1] == 0.0 and grad.gy[1, 0] == 0.0
    assert grad.gx[0, 0] == 1.0 and grad.gy[1, 1] == -4.0


def test_gradient_field_mask_validation():
    g = np.zeros((2, 2))
    with pytest.raises(ValueError):
        GradientField(gx=g, gy=np.zeros((3, 2)))
    with pytest.raises(ValueError):
        GradientField(gx=g, gy=g, mask=np.ones((3, 3), dtype=bool))
    # non-finite values allowed only under the mask
    gx = np.array([[np.nan, 0.0]])
    GradientField(gx=gx, gy=np.zeros((1, 2)), mask=np.array([[False, True]]))
    with pytest.raises(ValueError):
        GradientField(gx=gx, gy=np.zeros((1, 2)))


def test_depth_map_validation():
    DepthMap(np.full((2, 2), 3.0))
    # zero is legal (unit-range normalized maps hit it), negatives are not
    DepthMap(np.array([[0.0, 1.0]]))
    with pytest.raises(ValueError):
        DepthMap(np.array([[-0.5, 1.0]]))
    # masked pixels may carry anything
    DepthMap(np.array([[-0.5, 1.0]]), mask=np.array([[False, True]]))


def test_normal_field_validation():
    n = np.zeros((2, 2, 3))
    n[..., 2] = 1.0
    NormalField(n)
    bad = n.copy()
    bad[0, 0] = (0.5, 0.0, 0.0)
    with pytest.raises(ValueError):
        NormalField(bad)
    NormalField(bad, mask=np.array([[False, True], [True, True]]))
    flat = n.copy()
    flat[1, 1] = (1.0, 0.0, 0.0)  # unit but orthogonal to the view
    with pytest.raises(ValueError):
        NormalField(flat)


def test_mse_values_and_mask():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[1.0, 0.0], [3.0, 1.0]])
    assert mse(a, b) == pytest.approx((4.0 + 9.0) / 4.0)
    m = np.array([[True, False], [True, False]])
    assert mse(a, b, m) == 0.0
    with pytest.raises(ValueError):
        mse(a, b, np.zeros((2, 2), dtype=bool))
    with pytest.raises(ValueError):
        mse(a, np.zeros((3, 3)))


def test_normalize_unit_range():
    d = DepthMap(np.array([[2.0, 4.0], [6.0, 8.0]]))
    nd = normalize_unit_range(d)
    assert nd.z.min() == 0.0 and nd.z.max() == 1.0
    assert np.allclose(nd.z, (d.z - 2.0) / 6.0)
    with pytest.raises(ValueError):
        normalize_unit_range(DepthMap(np.full((2, 2), 5.0)))


def test_normalize_unit_range_ignores_masked_pixels():
    z = np.array([[1.0, 100.0], [2.0, 3.0]])
    mask = np.array([[True, False], [True, True]])
    nd = normalize_unit_range(DepthMap(z, mask=mask))
    assert nd.z[0, 1] == 0.0
    assert nd.z[1, 1] == 1.0


def test_input_mask_thresholds():
    a = np.array([[0.5, 0.0], [0.2, 0.9999]])
    b = np.array([[0.5, 0.5], [0.3, 0.5]])
    m = input_mask([a, b])
    assert m.tolist() == [[True, False], [True, True]]
    m2 = input_mask([a, b], high=0.999)
    assert m2.tolist() == [[True, False], [True, False]]
    m3 = input_mask([Image(a), Image(b)], low=0.25)
    assert m3.tolist() == [[True, False], [False, True]]
    with pytest.raises(ValueError):
        input_mask([a, np.zeros((3, 3))])
