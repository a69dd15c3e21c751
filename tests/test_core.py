"""Unit tests for the core data types and grid helpers."""

import tracemalloc

import numpy as np
import pytest

from psbp.core import (
    AlbedoMap,
    CameraIntrinsics,
    DepthMap,
    GradientField,
    Image,
    LightSource,
    Material,
    NormalField,
    input_mask,
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


# Each masked type: its constructor from one frame and a mask, the frame's
# attribute, and its fill off the mask.
MASKED_TYPES = {
    "gradient": (lambda a, mask: GradientField(gx=a, gy=a, mask=mask), "gx", 0.0),
    "depth": (lambda a, mask: DepthMap(z=a, mask=mask), "z", 0.0),
    "normals": (lambda a, mask: NormalField(n=a, mask=mask), "n", (0.0, 0.0, 1.0)),
    "albedo": (lambda a, mask: AlbedoMap(values=a, mask=mask), "values", 0.0),
}


def valid_frame(kind, dtype=np.float64, shape=(4, 5)):
    """A frame every masked type of this kind accepts on every pixel."""
    rng = np.random.default_rng(3)
    if kind != "normals":
        return rng.uniform(0.5, 2.0, size=shape).astype(dtype)
    n = np.concatenate([rng.uniform(-0.5, 0.5, size=shape + (2,)), np.ones(shape + (1,))],
                       axis=-1)
    n /= np.linalg.norm(n, axis=-1, keepdims=True)
    # the float32 normals are unit length to about 1e-7
    return n.astype(dtype)


MASK = np.array([[True, False, True, True, False]] * 4)


@pytest.mark.parametrize("kind", MASKED_TYPES)
def test_masked_types_read_back_the_fill_off_the_mask(kind):
    make, attr, fill = MASKED_TYPES[kind]
    data = valid_frame(kind)
    garbage = (np.nan, np.inf, -np.inf, -5.0, 1e300)
    off = np.argwhere(~MASK)
    for (r, c), value in zip(off, garbage * len(off)):
        data[r, c] = value
    if kind == "normals":
        # off the mask: not unit, n3 = 0
        data[0, 1] = (1.0, 0.0, 0.0)
        data[1, 4] = (2.0, 2.0, 2.0)
    frame = getattr(make(data, MASK), attr)
    assert np.array_equal(frame[~MASK], np.broadcast_to(fill, frame[~MASK].shape))
    assert np.array_equal(frame[MASK], data[MASK])


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("kind", MASKED_TYPES)
def test_masked_types_copy_their_input(kind, dtype):
    # the frame and the mask are new float64 and bool arrays, the input is
    # left as it was, and float32 is widened bit for bit on the mask
    make, attr, _ = MASKED_TYPES[kind]
    data = valid_frame(kind, dtype)
    data[~MASK] = np.nan
    mask = MASK.copy()
    before = data.copy()
    obj = make(data, mask)
    frame = getattr(obj, attr)
    assert frame.dtype == np.float64 and obj.mask.dtype == bool
    assert not np.shares_memory(frame, data) and not np.shares_memory(obj.mask, mask)
    assert np.array_equal(data, before, equal_nan=True) and np.array_equal(mask, MASK)
    assert np.array_equal(frame[MASK], data[MASK].astype(np.float64))
    frame[...] = 7.0
    obj.mask[...] = False
    assert np.array_equal(data, before, equal_nan=True) and np.array_equal(mask, MASK)


@pytest.mark.parametrize("kind, value, says", [
    ("gradient", np.nan, "gradients must be finite on unmasked pixels"),
    ("gradient", -np.inf, "gradients must be finite on unmasked pixels"),
    ("depth", np.nan, "depth must be finite on unmasked pixels"),
    ("depth", np.inf, "depth must be finite on unmasked pixels"),
    ("depth", -0.5, "depth must be non-negative on unmasked pixels"),
    ("normals", (np.nan, 0.0, 1.0), "normals must be finite on unmasked pixels"),
    ("normals", (0.0, 0.0, 0.5), "normals must be unit length on unmasked pixels"),
    ("normals", (1.0, 0.0, 0.0), "normals must have nonzero third component"),
    ("albedo", np.inf, "albedo must be finite on unmasked pixels"),
], ids=["gradient-nan", "gradient-inf", "depth-nan", "depth-inf", "depth-negative",
        "normals-nan", "normals-short", "normals-n3-zero", "albedo-inf"])
def test_masked_types_refuse_a_bad_value_on_the_mask(kind, value, says):
    make, _, _ = MASKED_TYPES[kind]
    data = valid_frame(kind)
    data[3, 3] = value
    with pytest.raises(ValueError, match=says):
        make(data, MASK)
    # the same value off the mask is read as the fill
    off = MASK.copy()
    off[3, 3] = False
    make(data, off)
    with pytest.raises(ValueError, match="mask shape"):
        make(valid_frame(kind), MASK[:, :3])


def test_depth_map_from_float32_peaks_at_one_frame():
    # A DepthMap of a float32 256x192 frame builds its float64 frame in one
    # pass and checks it without gathering its pixels: the frame and the
    # mask's copy, 1.125 float64 frames (2.07 when the frame was widened
    # and then its pixels gathered and tested).
    z = valid_frame("depth", np.float32, (192, 256))
    mask = z > 1.0
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        DepthMap(z=z, mask=mask)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak / (z.size * 8) <= 1.25


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
