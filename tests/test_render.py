"""Forward renderer: analytic sphere, perspective and orthographic shading."""

from dataclasses import replace

import numpy as np
import pytest

from psbp import render
from psbp.core import (
    CameraIntrinsics,
    DepthMap,
    GradientField,
    LightSource,
    Material,
    NormalField,
)
from psbp.geometry import halfway_vectors, pixel_axes
from psbp.render import (
    MODEL_BLINN_PHONG,
    MODEL_LAMBERTIAN,
    PROJECTION_ORTHOGRAPHIC,
    PROJECTION_PERSPECTIVE,
    SceneSpec,
    _masked_difference,
    log_depth_gradients,
    make_sphere_depth,
    perspective_shading,
    render_scene,
    shade_from_coefficients,
    shade_pixels,
    shading_coefficients,
)

INTR = CameraIntrinsics(focal_length=1.0, h_x=0.0046875, h_y=0.0046875,
                        delta_x=63.5, delta_y=63.5)
SPHERE_CENTER = (0.0, 0.0, 4.0)


def shade_frame(grad, lights, material, intr):
    """shade_pixels over the whole frame of a gradient field, at its pixels'
    image points."""
    h, w = grad.mask.shape
    return shade_pixels(grad.gx, grad.gy, *pixel_axes(w, h, intr), ..., lights, material,
                        intr.focal_length)


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
    X, Y = np.broadcast_arrays(*pixel_axes(128, 128, INTR))
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
    X, Y = np.broadcast_arrays(*pixel_axes(128, 128, INTR))
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
    [img] = shade_frame(grad, [light], mat, INTR)
    expected = 0.5 * 1.2 * 2.0 / np.sqrt(5.0)
    assert np.allclose(img, expected, atol=1e-14)


def test_perspective_blinn_phong_reduces_to_lambertian_when_ks_zero():
    # the Lambertian model drops k_s, so it renders Blinn-Phong at k_s = 0,
    # in either projection
    intr = CameraIntrinsics(1.0, 0.009375, 0.009375, 31.5, 31.5)
    depth = make_sphere_depth(64, 64, intr, SPHERE_CENTER, 1.0)
    lights = [LightSource(np.array(d, dtype=float), 1.2, 1.2)
              for d in [(0, 0, 1), (1, 0, 2), (0, 1, 2)]]
    for projection in (PROJECTION_PERSPECTIVE, PROJECTION_ORTHOGRAPHIC):
        a, _, _ = render_scene(SceneSpec(depth, Material(k_d=0.5, k_s=0.5, shininess=30.0),
                                         lights, intr, projection=projection,
                                         model=MODEL_LAMBERTIAN))
        b, _, _ = render_scene(SceneSpec(depth, Material(k_d=0.5, k_s=0.0), lights, intr,
                                         projection=projection))
        for one, two in zip(a, b):
            assert np.array_equal(one.data, two.data)


def test_specular_term_value_at_known_pixel():
    # single off-center pixel, hand-evaluated halfway-vector shading
    intr = CameraIntrinsics(focal_length=2.0, h_x=0.1, h_y=0.1, delta_x=1.0, delta_y=1.0)
    gx, gy = 0.2, -0.1
    grad = GradientField(gx=np.full((3, 3), gx), gy=np.full((3, 3), gy))
    light = LightSource(np.array([0.5, 0.5, 1.5]), diffuse_intensity=0.9,
                        specular_intensity=1.1)
    mat = Material(k_d=0.3, k_s=0.6, shininess=25.0)
    [img] = shade_frame(grad, [light], mat, intr)

    x, y, f = 0.1, 0.0, 2.0  # pixel (col=2, row=1)
    w = x * gx + y * gy + 1.0
    n = np.array([f * gx, f * gy, w])
    n_hat = n / np.linalg.norm(n)
    v = np.array([x, y, f]) / np.linalg.norm([x, y, f])
    h = light.unit + v
    h /= np.linalg.norm(h)
    expected = (mat.k_d * light.diffuse_intensity * max(np.dot(light.unit, n_hat), 0.0)
                + mat.k_s * light.specular_intensity * max(np.dot(h, n_hat), 0.0) ** 25.0)
    assert img[1, 2] == pytest.approx(expected, abs=1e-14)


def test_higher_shininess_dims_off_peak_specular():
    depth = make_sphere_depth(128, 128, INTR, SPHERE_CENTER, 1.0)
    grad = log_depth_gradients(depth, INTR)
    light = LightSource(np.array([1.0, 0.0, 2.0]), 1.0, 1.0)
    [lo] = shade_frame(grad, [light], Material(k_d=0.0, k_s=0.5, shininess=50.0), INTR)
    [hi] = shade_frame(grad, [light], Material(k_d=0.0, k_s=0.5, shininess=200.0), INTR)
    lit = grad.mask & (lo > 1e-6) & (lo < 0.5 * lo.max())
    assert lit.any()
    assert np.all(hi[lit] <= lo[lit])
    assert np.all(hi[grad.mask] <= lo[grad.mask] + 1e-12)


def test_lambertian_render_linear_in_diffuse_intensity():
    depth = make_sphere_depth(64, 64, CameraIntrinsics(1.0, 0.009375, 0.009375, 31.5, 31.5),
                              SPHERE_CENTER, 1.0)
    intr = CameraIntrinsics(1.0, 0.009375, 0.009375, 31.5, 31.5)
    grad = log_depth_gradients(depth, intr)
    lights = [LightSource(np.array([0.0, 1.0, 2.0]), diffuse_intensity=d) for d in (1.0, 2.0)]
    one, two = shade_frame(grad, lights, Material(k_d=0.5), intr)
    assert np.allclose(two, 2.0 * one, atol=1e-14)


def test_renders_require_frontal_light():
    grad = GradientField(gx=np.zeros((2, 2)), gy=np.zeros((2, 2)))
    lights = [LightSource(np.array(d)) for d in ((0.0, 0.0, 1.0), (0.0, 1.0, 1.0),
                                                 (1.0, 0.0, 0.0))]
    with pytest.raises(ValueError, match="positive third component"):
        shade_frame(grad, lights, Material(k_d=0.5), INTR)
    for projection in (PROJECTION_PERSPECTIVE, PROJECTION_ORTHOGRAPHIC):
        with pytest.raises(ValueError, match="positive third component"):
            render_scene(SceneSpec(DepthMap(np.full((2, 2), 3.0)), Material(k_d=0.5), lights,
                                   INTR, projection=projection))


def test_orthographic_lambertian_flat_normals():
    light = LightSource(np.array([0.0, 0.0, 2.0]), diffuse_intensity=1.2)
    images, normals, _ = render_scene(SceneSpec(DepthMap(np.full((4, 4), 3.0)), Material(k_d=0.5),
                                                [light] * 3, INTR,
                                                projection=PROJECTION_ORTHOGRAPHIC))
    assert np.array_equal(normals.n[..., 2], np.ones((4, 4)))
    assert np.allclose(images[0].data, 0.6)


def test_orthographic_blinn_phong_peak_at_mirror_normal():
    # normal equal to the halfway vector gets the full specular contribution
    light = LightSource(np.array([1.0, 0.0, 1.0]), 1.0, 1.0)
    h = light.unit + np.array([0.0, 0.0, 1.0])
    h /= np.linalg.norm(h)
    # render_scene's orthographic shading: the slope (n1/n3, n2/n3) of the
    # normals h and (0, 0, 1) at the principal point with f = 1
    slopes = np.array([[h[0] / h[2], 0.0], [h[1] / h[2], 0.0]])
    [img] = perspective_shading(*slopes, 0.0, 0.0, [light],
                                Material(k_d=0.0, k_s=1.0, shininess=80.0), 1.0)
    assert img[0] == pytest.approx(1.0, abs=1e-12)
    assert img[1] < img[0]


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
    # Slopes are given of the unclamped shading only.
    rng = np.random.default_rng(8)
    g = rng.uniform(-2.0, 2.0, size=(2, 500))
    x, y = rng.uniform(-0.3, 0.3, size=(2, 500))
    lights = [LightSource(np.array(d), 1.2, 0.9)
              for d in ((0.0, 0.0, 1.0), (1.0, 0.0, 2.0), (0.0, 1.0, 2.0))]
    for mat in (Material(k_d=0.5, k_s=0.5, shininess=150.0), Material(k_d=0.7)):
        for derivatives in (False,) if clamp else (False, True):
            together = list(shade_from_coefficients(
                g[0], g[1], x, y, shading_coefficients(x, y, lights, mat, 2.5), mat.shininess,
                2.5, clamp=clamp, derivatives=derivatives))
            assert len(together) == 3
            for li, shaded in zip(lights, together):
                [alone] = shade_from_coefficients(
                    g[0], g[1], x, y, shading_coefficients(x, y, [li], mat, 2.5), mat.shininess,
                    2.5, clamp=clamp, derivatives=derivatives)
                assert np.array_equal(np.asarray(shaded), np.asarray(alone))
                if not derivatives:
                    # the kernel's two steps in one call
                    [one] = perspective_shading(g[0], g[1], x, y, [li], mat, 2.5, clamp=clamp)
                    assert np.array_equal(shaded, one)


def test_clamped_shading_has_no_derivatives():
    # Nothing asks for the slopes of the renderer's clamped shading, so the
    # kernel does not form them.
    light = LightSource(np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError, match="clamped shading has no derivatives"):
        list(shade_from_coefficients(np.zeros(4), np.zeros(4), 0.0, 0.0,
                                     shading_coefficients(0.0, 0.0, [light], Material(), 1.0),
                                     1.0, 1.0, clamp=True, derivatives=True))


def test_shading_coefficients_are_arrays_over_all_lights():
    # The coefficient step returns (diffuse (lights, 3), halfway
    # (lights, 3, ...) or None, scale (lights,)): light k's constants, its
    # halfway rows (a_h, b_h, h_2) = (f*h_0 + x*h_2, f*h_1 + y*h_2, h_2)
    # and its k_s*l_s, with no pixel axis at scalar points.
    rng = np.random.default_rng(9)
    x, y = rng.uniform(-0.3, 0.3, size=(2, 50))
    f = 2.5
    lights = [LightSource(np.array(d), 1.2, 0.9)
              for d in ((0.0, 0.0, 1.0), (1.0, 0.0, 2.0), (0.0, 1.0, 2.0))]
    mat = Material(k_d=0.5, k_s=0.5, shininess=150.0)
    for px, py, shape in ((x, y, (3, 3, 50)), (0.0, 0.0, (3, 3))):
        diffuse, halfway, scale = shading_coefficients(px, py, lights, mat, f)
        assert diffuse.shape == (3, 3) and halfway.shape == shape and scale.shape == (3,)
        for k, li in enumerate(lights):
            d = li.direction * (mat.k_d * li.diffuse_intensity / li.norm)
            assert np.array_equal(diffuse[k], [f * d[0], f * d[1], d[2]])
            h = halfway_vectors(px, py, f, [li])[0]
            assert np.array_equal(halfway[k], [f * h[0] + px * h[2], f * h[1] + py * h[2], h[2]])
            assert scale[k] == mat.k_s * li.specular_intensity
    # a diffuse material has no halfway rows
    assert shading_coefficients(x, y, lights, Material(k_d=0.7), f)[1] is None


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


def render_cases(test):
    """Both projections, with a partial and a full mask, under both models."""
    test = pytest.mark.parametrize("projection, full", [
        (PROJECTION_PERSPECTIVE, False), (PROJECTION_PERSPECTIVE, True),
        (PROJECTION_ORTHOGRAPHIC, False), (PROJECTION_ORTHOGRAPHIC, True),
    ], ids=["partial-mask", "full-mask", "orthographic-partial-mask",
            "orthographic-full-mask"])(test)
    return pytest.mark.parametrize("model", [MODEL_BLINN_PHONG, MODEL_LAMBERTIAN])(test)


@render_cases
def test_render_scene_matches_per_light_renders_bit_for_bit(projection, full, model):
    # render_scene shades only the mask's pixels, all lights in one call; its
    # images must keep the bits of the kernel run one light at a time over
    # the whole frame, zeroed off the mask: at the log-depth gradients and
    # the pixels' image points (perspective), or at the normals' slopes
    # (n1/n3, n2/n3) at the principal point with f = 1 (orthographic).  A
    # full mask takes the path that gathers nothing.
    intr = CameraIntrinsics(1.0, 0.009375, 0.009375, 31.5, 31.5)
    if full:
        X, Y = pixel_axes(64, 64, intr)
        depth = DepthMap(4.0 + 0.3 * np.sin(6.0 * X) * np.cos(5.0 * Y))
    else:
        # the orthographic sphere of radius 1 would cover the frame
        radius = 1.0 if projection == PROJECTION_PERSPECTIVE else 0.25
        depth = make_sphere_depth(64, 64, intr, SPHERE_CENTER, radius, projection=projection)
    lights = [LightSource(np.array(d, dtype=float), 1.2, 1.1)
              for d in [(0, 0, 1), (1, 0, 2), (0, 1, 2)]]
    material = Material(k_d=0.5, k_s=0.5, shininess=150.0)
    images, geom, mask = render_scene(SceneSpec(depth=depth, material=material, lights=lights,
                                                intrinsics=intr, projection=projection,
                                                model=model))
    assert mask.all() == full and mask.any()
    if model == MODEL_LAMBERTIAN:
        material = replace(material, k_s=0.0)
    if projection == PROJECTION_PERSPECTIVE:
        assert isinstance(geom, GradientField)
        gx, gy, f = geom.gx, geom.gy, intr.focal_length
        x, y = pixel_axes(64, 64, intr)
    else:
        assert isinstance(geom, NormalField)
        n = geom.n
        gx, gy, x, y, f = n[..., 0] / n[..., 2], n[..., 1] / n[..., 2], 0.0, 0.0, 1.0
    for img, light in zip(images, lights):
        [frame] = perspective_shading(gx, gy, x, y, [light], material, f)
        want = np.where(mask, frame, 0.0)
        assert np.array_equal(img.data.view(np.int64), want.view(np.int64))


@render_cases
def test_render_scene_blocks_keep_every_bit(projection, full, model, monkeypatch):
    # The scenes above fit one default pixel block.  Blocks of 37 pixels,
    # which divide no width or mask count here, split a full frame into
    # single rows and a mask's pixels into runs with a ragged last one, and
    # keep the same bits.
    monkeypatch.setattr(render, "PIXEL_BLOCK", 37)
    test_render_scene_matches_per_light_renders_bit_for_bit(projection, full, model)


@pytest.mark.parametrize("block", [None, 37], ids=["default-blocks", "blocks-of-37"])
@pytest.mark.parametrize("full", [False, True], ids=["partial-mask", "full-mask"])
def test_shade_pixels_matches_one_unblocked_call_bit_for_bit(full, block, monkeypatch):
    # The reprojection check's path: every light at the mask's pixels, in
    # pixel_blocks, keeps the bits of one perspective_shading call over all
    # the gathered pixels at once.
    if block is not None:
        monkeypatch.setattr(render, "PIXEL_BLOCK", block)
    intr = CameraIntrinsics(1.0, 0.009375, 0.008, 30.5, 33.0)
    depth = make_sphere_depth(61, 67, intr, SPHERE_CENTER, 1.0)
    grad = log_depth_gradients(depth, intr)
    pix = ... if full else grad.mask
    lights = [LightSource(np.array(d, dtype=float), 1.2, 1.1)
              for d in [(0, 0, 1), (1, 0, 2), (0, 1, 2)]]
    material = Material(k_d=0.5, k_s=0.5, shininess=150.0)
    x, y = np.broadcast_arrays(*pixel_axes(61, 67, intr))
    want = list(perspective_shading(grad.gx[pix], grad.gy[pix], x[pix], y[pix], lights,
                                    material, intr.focal_length))
    got = shade_pixels(grad.gx, grad.gy, *pixel_axes(61, 67, intr), pix, lights, material,
                       intr.focal_length)
    assert len(got) == 3
    for g, w in zip(got, want):
        assert np.array_equal(g.view(np.int64), w.view(np.int64))


def masked_difference_by_roll(values, mask, step, axis):
    """The masked difference by np.roll and boolean writes: the reference
    whose bits _masked_difference keeps."""
    v = np.moveaxis(values, axis, 0)
    m = np.moveaxis(mask, axis, 0)
    vp, vm = np.roll(v, -1, axis=0), np.roll(v, 1, axis=0)
    mp, mm = np.roll(m, -1, axis=0), np.roll(m, 1, axis=0)
    mp[-1] = False
    mm[0] = False
    out = np.zeros_like(v)
    central, fwd, bwd = m & mp & mm, m & mp & ~mm, m & ~mp & mm
    out[central] = (vp[central] - vm[central]) / (2.0 * step)
    out[fwd] = (vp[fwd] - v[fwd]) / step
    out[bwd] = (v[bwd] - vm[bwd]) / step
    return np.moveaxis(out, 0, axis), np.moveaxis(central | fwd | bwd, 0, axis)


@pytest.mark.parametrize("axis", [0, 1])
def test_masked_difference_keeps_the_bits_of_the_roll_form(axis):
    # a 20%-dropout mask gives central, one-sided and isolated pixels, and
    # mask pixels on every edge of the frame
    rng = np.random.default_rng(5)
    values = rng.uniform(0.5, 2.0, size=(37, 29))
    mask = rng.uniform(size=values.shape) > 0.2
    values[~mask] = 0.0
    got, ok = _masked_difference(values, mask, 0.03, axis)
    want, want_ok = masked_difference_by_roll(values, mask, 0.03, axis)
    assert np.array_equal(ok, want_ok) and not ok[mask].all() and ok.any()
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


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
