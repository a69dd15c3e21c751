"""Forward renderer: analytic sphere, perspective and orthographic shading."""

import numpy as np
import pytest

from psbp.core import (
    CameraIntrinsics,
    DepthMap,
    GradientField,
    LightSource,
    Material,
    NormalField,
)
from psbp.geometry import pixel_grid
from psbp.render import (
    MODEL_LAMBERTIAN,
    PROJECTION_ORTHOGRAPHIC,
    SceneSpec,
    log_depth_gradients,
    make_sphere_depth,
    perspective_shading,
    render_blinn_phong_orthographic,
    render_blinn_phong_perspective,
    render_lambertian_perspective,
    render_scene,
)

INTR = CameraIntrinsics(focal_length=1.0, h_x=0.0046875, h_y=0.0046875,
                        delta_x=63.5, delta_y=63.5)
SPHERE_CENTER = (0.0, 0.0, 4.0)


def ray_march_sphere_depth(x, y, f, center, radius):
    """Depth of the near sphere intersection along the pixel's view ray,
    found by bisection on the signed distance to the sphere surface."""
    c = np.asarray(center, dtype=np.float64)

    def dist(z):
        s = (z / f) * np.array([-x, -y, f])
        return np.linalg.norm(s - c) - radius

    d = np.array([-x, -y, f]) / f
    lo = 1e-6
    hi = float(d @ c) / float(d @ d)  # depth of the ray's closest approach
    if dist(lo) <= 0 or dist(hi) >= 0:
        return None
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if dist(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_sphere_depth_matches_ray_march():
    depth = make_sphere_depth(128, 128, INTR, SPHERE_CENTER, 1.0)
    X, Y = pixel_grid(128, 128, INTR)
    rng = np.random.default_rng(8)
    rows, cols = np.nonzero(depth.mask)
    pick = rng.choice(rows.size, size=25, replace=False)
    for i in pick:
        r, c = rows[i], cols[i]
        z = ray_march_sphere_depth(X[r, c], Y[r, c], 1.0, SPHERE_CENTER, 1.0)
        assert z is not None
        assert depth.z[r, c] == pytest.approx(z, abs=1e-9)
    # spot value: image point (0.1, 0) intersects the unit sphere at z=...
    z_ref = ray_march_sphere_depth(0.1, 0.0, 1.0, SPHERE_CENTER, 1.0)
    assert z_ref == pytest.approx(3.0475698, abs=1e-6)


def test_sphere_depth_mask_and_branch():
    depth = make_sphere_depth(128, 128, INTR, SPHERE_CENTER, 1.0)
    assert depth.mask[63, 63]
    assert not depth.mask[0, 0]
    assert depth.z[~depth.mask].max() == 0.0
    # near branch: all depths in front of the sphere center
    assert depth.z[depth.mask].max() < SPHERE_CENTER[2]
    assert depth.z[depth.mask].min() >= SPHERE_CENTER[2] - 1.0
    # the silhouette has the expected area within a couple of percent
    GAP = np.pi * (1.0 / (np.sqrt(15.0) * 0.0046875)) ** 2  # pi*(r_img/h)^2, r_img = r*f/sqrt(z0^2-r^2)
    assert abs(depth.mask.sum() - GAP) / GAP < 0.02


def test_log_depth_gradients_match_analytic_sphere():
    depth = make_sphere_depth(128, 128, INTR, SPHERE_CENTER, 1.0)
    grad = log_depth_gradients(depth, INTR)
    X, Y = pixel_grid(128, 128, INTR)
    # analytic gradient by implicit differentiation of q z^2 - 8 z + 15 = 0
    q = X**2 + Y**2 + 1.0
    z = depth.z
    interior = grad.mask & (np.hypot(X, Y) < 0.2)  # stay away from the rim
    zx = -(z**2) * (2 * X) / (2 * q * z - 8.0)
    zy = -(z**2) * (2 * Y) / (2 * q * z - 8.0)
    # central differences of the discrete depth carry an O(h^2) bias
    err_x = np.abs(grad.gx - zx / np.where(interior, z, 1.0))[interior]
    err_y = np.abs(grad.gy - zy / np.where(interior, z, 1.0))[interior]
    assert err_x.max() < 2.5e-3
    assert err_y.max() < 2.5e-3


def test_flat_wall_lambertian_intensity():
    # constant depth: frontal normals, so I = k_d * l_d * gamma/||L|| everywhere
    grad = GradientField(gx=np.zeros((8, 8)), gy=np.zeros((8, 8)))
    light = LightSource(np.array([1.0, 0.0, 2.0]), diffuse_intensity=1.2)
    mat = Material(k_d=0.5)
    img = render_lambertian_perspective(grad, light, mat, INTR)
    expected = 0.5 * 1.2 * 2.0 / np.sqrt(5.0)
    assert np.allclose(img.data, expected, atol=1e-14)


def test_perspective_blinn_phong_reduces_to_lambertian_when_ks_zero():
    depth = make_sphere_depth(64, 64, CameraIntrinsics(1.0, 0.009375, 0.009375, 31.5, 31.5),
                              SPHERE_CENTER, 1.0)
    intr = CameraIntrinsics(1.0, 0.009375, 0.009375, 31.5, 31.5)
    grad = log_depth_gradients(depth, intr)
    light = LightSource(np.array([1.0, 0.0, 2.0]), 1.2, 1.2)
    a = render_lambertian_perspective(grad, light, Material(k_d=0.5), intr)
    b = render_blinn_phong_perspective(grad, light, Material(k_d=0.5, k_s=0.0), intr)
    assert np.array_equal(a.data, b.data)


def test_specular_term_value_at_known_pixel():
    # single off-center pixel, hand-evaluated halfway-vector shading
    intr = CameraIntrinsics(focal_length=2.0, h_x=0.1, h_y=0.1, delta_x=1.0, delta_y=1.0)
    gx, gy = 0.2, -0.1
    grad = GradientField(gx=np.full((3, 3), gx), gy=np.full((3, 3), gy))
    light = LightSource(np.array([0.5, 0.5, 1.5]), diffuse_intensity=0.9,
                        specular_intensity=1.1)
    mat = Material(k_d=0.3, k_s=0.6, shininess=25.0)
    img = render_blinn_phong_perspective(grad, light, mat, intr)

    x, y, f = 0.1, 0.0, 2.0  # pixel (col=2, row=1)
    w = x * gx + y * gy + 1.0
    n = np.array([f * gx, f * gy, w])
    n_hat = n / np.linalg.norm(n)
    v = np.array([x, y, f]) / np.linalg.norm([x, y, f])
    h = light.unit + v
    h /= np.linalg.norm(h)
    expected = (mat.k_d * light.diffuse_intensity * max(np.dot(light.unit, n_hat), 0.0)
                + mat.k_s * light.specular_intensity * max(np.dot(h, n_hat), 0.0) ** 25.0)
    assert img.data[1, 2] == pytest.approx(expected, abs=1e-14)


def test_higher_shininess_dims_off_peak_specular():
    depth = make_sphere_depth(128, 128, INTR, SPHERE_CENTER, 1.0)
    grad = log_depth_gradients(depth, INTR)
    light = LightSource(np.array([1.0, 0.0, 2.0]), 1.0, 1.0)
    lo = render_blinn_phong_perspective(grad, light, Material(k_d=0.0, k_s=0.5, shininess=50.0), INTR)
    hi = render_blinn_phong_perspective(grad, light, Material(k_d=0.0, k_s=0.5, shininess=200.0), INTR)
    lit = grad.mask & (lo.data > 1e-6) & (lo.data < 0.5 * lo.data.max())
    assert lit.any()
    assert np.all(hi.data[lit] <= lo.data[lit])
    assert np.all(hi.data[grad.mask] <= lo.data[grad.mask] + 1e-12)


def test_lambertian_render_linear_in_diffuse_intensity():
    depth = make_sphere_depth(64, 64, CameraIntrinsics(1.0, 0.009375, 0.009375, 31.5, 31.5),
                              SPHERE_CENTER, 1.0)
    intr = CameraIntrinsics(1.0, 0.009375, 0.009375, 31.5, 31.5)
    grad = log_depth_gradients(depth, intr)
    one = render_lambertian_perspective(
        grad, LightSource(np.array([0.0, 1.0, 2.0]), diffuse_intensity=1.0),
        Material(k_d=0.5), intr)
    two = render_lambertian_perspective(
        grad, LightSource(np.array([0.0, 1.0, 2.0]), diffuse_intensity=2.0),
        Material(k_d=0.5), intr)
    assert np.allclose(two.data, 2.0 * one.data, atol=1e-14)


def test_renders_require_frontal_light():
    grad = GradientField(gx=np.zeros((2, 2)), gy=np.zeros((2, 2)))
    with pytest.raises(ValueError):
        render_lambertian_perspective(grad, LightSource(np.array([1.0, 0.0, 0.0])),
                                      Material(k_d=0.5), INTR)


def test_orthographic_lambertian_flat_normals():
    n = np.zeros((4, 4, 3))
    n[..., 2] = 1.0
    normals = NormalField(n)
    light = LightSource(np.array([0.0, 0.0, 2.0]), diffuse_intensity=1.2)
    img = render_blinn_phong_orthographic(normals, light, Material(k_d=0.5))
    assert np.allclose(img.data, 0.6)


def test_orthographic_blinn_phong_peak_at_mirror_normal():
    # normal equal to the halfway vector gets the full specular contribution
    light = LightSource(np.array([1.0, 0.0, 1.0]), 1.0, 1.0)
    h = light.unit + np.array([0.0, 0.0, 1.0])
    h /= np.linalg.norm(h)
    n = np.zeros((1, 2, 3))
    n[0, 0] = h
    n[0, 1] = (0.0, 0.0, 1.0)
    img = render_blinn_phong_orthographic(NormalField(n), light,
                                          Material(k_d=0.0, k_s=1.0, shininess=80.0))
    assert img.data[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert img.data[0, 1] < img.data[0, 0]


@pytest.mark.parametrize("f", [1.0, 2.5])
def test_projections_shade_alike_at_the_principal_point(f):
    # At x = y = 0 the perspective view ray is (0, 0, 1), the orthographic
    # view, so the perspective shading of a gradient must match the
    # orthographic Blinn-Phong formula at its unit normal, written out here.
    rng = np.random.default_rng(12)
    g = rng.uniform(-0.8, 0.8, size=(200, 2))
    n = np.column_stack([f * g, np.ones(200)])
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    lights = [LightSource(np.array(d), 1.2, 0.9)
              for d in ((0.0, 0.0, 1.0), (1.0, 0.0, 2.0), (0.0, 1.0, 2.0), (-2.0, 0.5, 1.0))]
    worst = 0.0
    for shininess in (1.0, 30.0, 150.0):
        mat = Material(k_d=0.5, k_s=0.5, shininess=shininess)
        for li in lights:
            unit = li.direction / np.linalg.norm(li.direction)
            h = unit + np.array([0.0, 0.0, 1.0])
            h /= np.linalg.norm(h)
            reference = (mat.k_d * li.diffuse_intensity * np.maximum(n @ unit, 0.0)
                         + mat.k_s * li.specular_intensity
                         * np.maximum(n @ h, 0.0) ** mat.shininess)
            [persp] = perspective_shading(g[:, 0], g[:, 1], 0.0, 0.0, [li], mat, f)
            worst = max(worst, np.abs(persp - reference).max())
    assert worst < 1e-12


@pytest.mark.parametrize("clamp", [False, True])
def test_lights_shaded_together_match_lights_shaded_alone(clamp):
    # One call shares the pixels' geometry across its lights; each light's
    # shading and slopes must keep the bits of a call with that light alone.
    rng = np.random.default_rng(8)
    g = rng.uniform(-2.0, 2.0, size=(2, 500))
    x, y = rng.uniform(-0.3, 0.3, size=(2, 500))
    lights = [LightSource(np.array(d), 1.2, 0.9)
              for d in ((0.0, 0.0, 1.0), (1.0, 0.0, 2.0), (0.0, 1.0, 2.0))]
    for mat in (Material(k_d=0.5, k_s=0.5, shininess=150.0), Material(k_d=0.7)):
        for derivatives in (False, True):
            together = list(perspective_shading(g[0], g[1], x, y, lights, mat, 2.5,
                                                clamp=clamp, derivatives=derivatives))
            assert len(together) == 3
            for li, shaded in zip(lights, together):
                [alone] = perspective_shading(g[0], g[1], x, y, [li], mat, 2.5,
                                              clamp=clamp, derivatives=derivatives)
                assert np.array_equal(np.asarray(shaded), np.asarray(alone))


def test_orthographic_render_rejects_a_back_facing_normal():
    # The renderer shades the slope (n1/n3, n2/n3), which would flip a
    # normal with n3 < 0, so such a normal is refused, not shaded.
    n = np.zeros((1, 2, 3))
    n[0, 0] = (0.0, 0.0, 1.0)
    n[0, 1] = (0.6, 0.0, -0.8)
    light = LightSource(np.array([0.0, 0.0, 1.0]), 1.0, 1.0)
    with pytest.raises(ValueError, match="n3 > 0"):
        render_blinn_phong_orthographic(NormalField(n), light,
                                        Material(k_d=0.5, k_s=0.5, shininess=10.0))


def test_render_scene_returns_consistent_stack():
    depth = make_sphere_depth(64, 64, CameraIntrinsics(1.0, 0.009375, 0.009375, 31.5, 31.5),
                              SPHERE_CENTER, 1.0)
    intr = CameraIntrinsics(1.0, 0.009375, 0.009375, 31.5, 31.5)
    lights = [LightSource(np.array(d, dtype=float), 1.2, 1.2)
              for d in [(0, 0, 1), (1, 0, 2), (0, 1, 2)]]
    scene = SceneSpec(depth=depth, material=Material(k_d=0.5, k_s=0.5, shininess=150.0),
                      lights=lights, intrinsics=intr)
    images, geom, mask = render_scene(scene)
    assert len(images) == 3
    assert isinstance(geom, GradientField)
    assert np.array_equal(mask, geom.mask)
    for img in images:
        assert img.data.shape == (64, 64)
        assert np.all(img.data[~mask] == 0.0)
        assert img.data[mask].min() >= 0.0


def test_render_scene_orthographic_path():
    z = np.full((16, 16), 3.0)
    z += np.linspace(0, 0.1, 16)[None, :]
    depth = DepthMap(z)
    intr = CameraIntrinsics(focal_length=1.0)
    lights = [LightSource(np.array(d, dtype=float))
              for d in [(0, 0, 1), (0.3, 0, 1), (0, 0.3, 1)]]
    scene = SceneSpec(depth=depth, material=Material(k_d=0.8), lights=lights,
                      intrinsics=intr, projection=PROJECTION_ORTHOGRAPHIC,
                      model=MODEL_LAMBERTIAN)
    images, geom, mask = render_scene(scene)
    assert isinstance(geom, NormalField)
    ref = render_blinn_phong_orthographic(geom, lights[1], Material(k_d=0.8))
    assert np.allclose(images[1].data[mask], ref.data[mask])


def test_scene_spec_validation():
    depth = DepthMap(np.full((4, 4), 2.0))
    lights = [LightSource(np.array([0.0, 0.0, 1.0]))] * 3
    with pytest.raises(ValueError):
        SceneSpec(depth=depth, material=Material(), lights=lights[:2], intrinsics=INTR)
    with pytest.raises(ValueError):
        SceneSpec(depth=depth, material=Material(), lights=lights, intrinsics=INTR,
                  projection="fisheye")
    with pytest.raises(ValueError):
        SceneSpec(depth=depth, material=Material(), lights=lights, intrinsics=INTR,
                  model="phong")
