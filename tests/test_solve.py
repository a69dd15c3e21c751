"""Per-pixel reconstruction solvers: orthographic and perspective paths."""

import re
import tracemalloc

import numpy as np
import pytest

from psbp.core import (
    CameraIntrinsics,
    DepthMap,
    GradientField,
    Image,
    LightSource,
    Material,
    input_mask,
)
from psbp.fileio import load_image, save_image
from psbp.geometry import halfway_vectors, pixel_axes
from psbp.optim import finite_difference_jacobian
from psbp import optim, render, solve
from psbp.render import (
    PROJECTION_ORTHOGRAPHIC,
    SceneSpec,
    make_sphere_depth,
    perspective_shading,
    render_scene,
    shade_from_coefficients,
    shade_pixels,
    shading_coefficients,
)
from psbp.solve import (
    _closed_form_system,
    _light_arrays,
    _ShadingModel,
    blinn_phong_ortho_solve,
    blinn_phong_pps_solve,
    lambertian_pps_closed_form,
    sensitivity_indicator,
    woodham_normals,
)

INTR = CameraIntrinsics(focal_length=1.0, h_x=0.05, h_y=0.05, delta_x=15.5, delta_y=15.5)
FRONTAL_RIG = [
    LightSource(np.array([0.0, 0.0, 1.0])),
    LightSource(np.array([0.5, 0.0, 1.0])),
    LightSource(np.array([0.0, 0.5, 1.0])),
]


def shade_frame(grad, lights, material, intr):
    """shade_pixels over the whole frame of a gradient field, at its pixels'
    image points."""
    h, w = grad.mask.shape
    return shade_pixels(grad.gx, grad.gy, *pixel_axes(w, h, intr), ..., lights, material,
                        intr.focal_length)


def unclamped_shading(gx, gy, x, y, lights, material, focal_length):
    """Per light (R, dR/dgx, dR/dgy) of the unclamped shading, as bp-pps
    fits it."""
    return list(shade_from_coefficients(
        gx, gy, x, y, shading_coefficients(x, y, lights, material, focal_length),
        material.shininess, focal_length, clamp=False, derivatives=True))


def chord_angle(a, b):
    """Angle between unit vectors via the chord, stable near zero."""
    return 2.0 * np.arcsin(0.5 * np.linalg.norm(a - b, axis=-1))


def bump_depth(size=32, spacing=0.05):
    c = (size - 1) / 2.0
    cols, rows = np.meshgrid(np.arange(size, dtype=float), np.arange(size, dtype=float))
    x = (cols - c) * spacing
    y = (rows - c) * spacing
    return DepthMap(3.0 - 0.8 * np.exp(-(x**2 + y**2) / 0.8))


def render_orthographic(depth, lights, material):
    """render_scene's orthographic images of a depth map seen by INTR, and
    the normal field they were shaded from."""
    images, normals, _ = render_scene(SceneSpec(depth, material, lights, INTR,
                                                projection=PROJECTION_ORTHOGRAPHIC))
    return images, normals


# ---------------------------------------------------------------- woodham

def test_woodham_flat_surface_known_albedo():
    shape = (6, 6)
    k_d = 0.55
    images = []
    for li in FRONTAL_RIG:
        value = k_d * li.direction[2] / li.norm
        images.append(Image(np.full(shape, value)))
    normals, albedo = woodham_normals(images, FRONTAL_RIG)
    assert normals.mask.all()
    assert np.allclose(normals.n[..., 2], 1.0, atol=1e-12)
    assert np.allclose(albedo.values, k_d, atol=1e-12)


def test_woodham_recovers_rendered_normals():
    images, normals = render_orthographic(bump_depth(), FRONTAL_RIG, Material(k_d=0.7))
    est, albedo = woodham_normals(images, FRONTAL_RIG)
    joint = est.mask & normals.mask
    assert joint.sum() > 0.9 * normals.mask.sum()
    ang = chord_angle(est.n[joint], normals.n[joint])
    assert ang.max() < 1e-9
    assert np.abs(albedo.values[joint] - 0.7).max() < 1e-9


def test_woodham_coplanar_lights_raise():
    rig = [
        LightSource(np.array([1.0, 0.0, 1.0])),
        LightSource(np.array([0.0, 0.0, 1.0])),
        LightSource(np.array([-1.0, 0.0, 1.0])),  # all in the y=0 plane
    ]
    images = [Image(np.full((2, 2), 0.5))] * 3
    with pytest.raises(ValueError):
        woodham_normals(images, rig)


def test_woodham_requires_frontal_lights():
    rig = [
        LightSource(np.array([1.0, 0.0, 0.0])),
        LightSource(np.array([0.0, 1.0, 1.0])),
        LightSource(np.array([0.0, 0.0, 1.0])),
    ]
    images = [Image(np.full((2, 2), 0.5))] * 3
    with pytest.raises(ValueError):
        woodham_normals(images, rig)


def test_woodham_masks_dark_pixels():
    images = [Image(np.full((3, 3), 0.4)) for _ in range(3)]
    images[1].data[1, 1] = 0.0  # shadowed in one image
    normals, albedo = woodham_normals(images, FRONTAL_RIG)
    assert not normals.mask[1, 1]
    assert tuple(normals.n[1, 1]) == (0.0, 0.0, 1.0)
    assert albedo.values[1, 1] == 0.0


def test_woodham_masks_grazing_normals_with_normal_up():
    # Lit by the side light alone, the normal (1, 0, 0) has n3 = 0.  A
    # caller's mask keeps the pixel; woodham masks it as (0, 0, 1), so
    # bp-ppn's start, the slope (n1, n2)/|n3|, stays finite.
    images = [Image(np.full((2, 2), v)) for v in (0.0, 0.4, 0.0)]
    mask = np.ones((2, 2), dtype=bool)
    normals, _ = woodham_normals(images, FRONTAL_RIG, mask=mask)
    assert not normals.mask.any()
    assert np.array_equal(normals.n, np.broadcast_to([0.0, 0.0, 1.0], (2, 2, 3)))
    blinn_phong_ortho_solve(images, FRONTAL_RIG, Material(k_d=0.5, k_s=0.5, shininess=10.0),
                            mask=mask)


def test_lambertian_solvers_zero_albedo_off_its_mask():
    # run_reconstruct writes albedo.values as they are, so both Lambertian
    # solvers must leave 0 wherever the albedo mask is off: the scene's
    # background, the pixels outside the caller's mask and the rejected ones.
    images, lights, _, intr, mask = acceptance_sphere()
    mask = mask & input_mask(images)
    mask[:, :40] = False
    for _, albedo in (woodham_normals(images, lights, mask=mask),
                      lambertian_pps_closed_form(images, lights, intr, mask=mask)):
        assert albedo.mask.any() and (~albedo.mask).any()
        assert not (albedo.mask & ~mask).any()
        assert (albedo.values[~albedo.mask] == 0.0).all()


def test_woodham_respects_intensity_scaling():
    rig = [
        LightSource(np.array([0.0, 0.0, 1.0]), diffuse_intensity=2.0),
        LightSource(np.array([0.5, 0.0, 1.0]), diffuse_intensity=0.5),
        LightSource(np.array([0.0, 0.5, 1.0]), diffuse_intensity=1.0),
    ]
    images, normals = render_orthographic(bump_depth(), rig, Material(k_d=0.6))
    est, _ = woodham_normals(images, rig)
    joint = est.mask & normals.mask
    assert chord_angle(est.n[joint], normals.n[joint]).max() < 1e-9


# ------------------------------------------------- closed-form perspective

def smooth_log_depth_scene(size=32, seed=0, k_d=0.6):
    """Random smooth perspective Lambertian scene with its generating field."""
    rng = np.random.default_rng(seed)
    c = (size - 1) / 2.0
    intr = CameraIntrinsics(focal_length=1.0, h_x=0.01, h_y=0.01, delta_x=c, delta_y=c)
    cols, rows = np.meshgrid(np.arange(size, dtype=float), np.arange(size, dtype=float))
    x = (cols - c) * intr.h_x
    y = (rows - c) * intr.h_y
    a, b, cc, dd = rng.uniform(-0.3, 0.3, size=4)
    gx = a + cc * np.cos(4 * x) + dd * y
    gy = b + dd * x
    grad = GradientField(gx=gx, gy=gy)
    mat = Material(k_d=k_d)
    lights = [
        LightSource(np.array([0.0, 0.0, 1.0]), 1.2),
        LightSource(np.array([1.0, 0.0, 2.0]), 1.2),
        LightSource(np.array([0.0, 1.0, 2.0]), 1.2),
    ]
    images = [Image(shading) for shading in shade_frame(grad, lights, mat, intr)]
    assert min(img.data.min() for img in images) > 1e-3  # nothing in shadow
    return images, lights, intr, grad, mat


def test_closed_form_recovers_generating_gradients():
    images, lights, intr, grad, _ = smooth_log_depth_scene(seed=1)
    est, albedo = lambertian_pps_closed_form(images, lights, intr)
    m = est.mask
    assert m.sum() > 0.95 * m.size
    assert np.abs(est.gx - grad.gx)[m].max() < 1e-8
    assert np.abs(est.gy - grad.gy)[m].max() < 1e-8
    assert np.abs(albedo.values - 0.6)[albedo.mask].max() < 1e-8


def test_closed_form_system_single_pixel_by_hand():
    images, lights, intr, grad, _ = smooth_log_depth_scene(seed=2)
    r, c = 10, 20
    X, Y = np.broadcast_arrays(*pixel_axes(32, 32, intr))
    x, y = X[r, c], Y[r, c]
    f = intr.focal_length
    dirs, norms, ld = _light_arrays(lights)
    scaled = [img.data * norms[k] / ld[k] for k, img in enumerate(images)]
    m1, m2, m3, m4, h1, h2 = _closed_form_system(scaled, dirs, X, Y, f)
    ri = []
    for img, li in zip(images, lights):
        ri.append(img.data[r, c] * li.norm / li.diffuse_intensity)
    a = [f * li.direction[0] + x * li.direction[2] for li in lights]
    b = [f * li.direction[1] + y * li.direction[2] for li in lights]
    g = [li.direction[2] for li in lights]
    assert m1[r, c] == pytest.approx(ri[1] * a[0] - ri[0] * a[1], abs=1e-14)
    assert m2[r, c] == pytest.approx(ri[1] * b[0] - ri[0] * b[1], abs=1e-14)
    assert m3[r, c] == pytest.approx(ri[2] * a[0] - ri[0] * a[2], abs=1e-14)
    assert m4[r, c] == pytest.approx(ri[2] * b[0] - ri[0] * b[2], abs=1e-14)
    assert h1[r, c] == pytest.approx(-ri[1] * g[0] + ri[0] * g[1], abs=1e-14)
    assert h2[r, c] == pytest.approx(-ri[2] * g[0] + ri[0] * g[2], abs=1e-14)
    # ... and the 2x2 solution of those hand terms matches the solver
    est, _ = lambertian_pps_closed_form(images, lights, intr)
    det = (m1 * m4 - m2 * m3)[r, c]
    gx = (h1[r, c] * m4[r, c] - m2[r, c] * h2[r, c]) / det
    gy = (m1[r, c] * h2[r, c] - h1[r, c] * m3[r, c]) / det
    assert est.gx[r, c] == pytest.approx(gx, abs=1e-12)
    assert est.gy[r, c] == pytest.approx(gy, abs=1e-12)


def test_closed_form_degenerate_rig_is_fully_masked():
    # identical lights and identical images zero every system coefficient
    light = LightSource(np.array([0.0, 0.0, 1.0]), 1.0)
    images = [Image(np.full((8, 8), 0.5))] * 3
    est, _ = lambertian_pps_closed_form(images, [light, light, light], INTR)
    assert not est.mask.any()
    assert np.all(est.gx == 0.0)


def test_closed_form_requires_frontal_lights():
    images = [Image(np.full((4, 4), 0.5))] * 3
    rig = [
        LightSource(np.array([1.0, 0.0, -1.0])),
        LightSource(np.array([0.0, 0.0, 1.0])),
        LightSource(np.array([0.0, 1.0, 1.0])),
    ]
    with pytest.raises(ValueError):
        lambertian_pps_closed_form(images, rig, INTR)


@pytest.mark.parametrize("block", [None, 37], ids=["default-blocks", "blocks-of-37"])
def test_closed_form_blocks_keep_every_bit(block, monkeypatch):
    # lambertian_pps_closed_form solves, and shades its albedo, in
    # pixel_blocks of frame rows.  On a 130x130 frame the default blocks are
    # 126 rows and 4; blocks of 37 pixels are single rows.  Either way the
    # gradients, the albedo and both masks keep the bits of the whole-frame
    # formula, written here as it stood before the blocks, on a mask with
    # holes.
    if block is not None:
        monkeypatch.setattr(render, "PIXEL_BLOCK", block)
    images, lights, intr, _, _ = smooth_log_depth_scene(size=130, seed=2)
    grids = [img.data for img in images]
    mask = np.random.default_rng(3).random((130, 130)) < 0.8
    grad, albedo = lambertian_pps_closed_form(images, lights, intr, mask=mask)

    X, Y = pixel_axes(130, 130, intr)
    dirs, norms, ld = _light_arrays(lights)
    scaled = [grids[k] * norms[k] / ld[k] for k in range(3)]
    m1, m2, m3, m4, h1, h2 = _closed_form_system(scaled, dirs, X, Y, intr.focal_length)
    det = m1 * m4 - m2 * m3
    ok = mask & (np.abs(det) >= solve.SINGULAR_DET_THRESHOLD)
    safe = np.where(ok, det, 1.0)
    gx = np.where(ok, (h1 * m4 - m2 * h2) / safe, 0.0)
    gy = np.where(ok, (m1 * h2 - h1 * m3) / safe, 0.0)
    [shading] = perspective_shading(gx, gy, X, Y, lights[:1], Material(), intr.focal_length,
                                    clamp=False)
    ok_alb = ok & (np.abs(shading) > 1e-12)
    values = np.where(ok_alb, grids[0] / np.where(ok_alb, shading, 1.0), 0.0)

    assert 0.75 * mask.size < ok.sum() < mask.size
    for got, want in ((grad.gx, gx), (grad.gy, gy), (albedo.values, values)):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert np.array_equal(grad.mask, ok)
    assert np.array_equal(albedo.mask, ok_alb)


def test_closed_form_memory_follows_the_block():
    # The closed form with its albedo on a full 256x192 Lambertian relief,
    # three default blocks of 64 rows, peaks at no more than 8.5 float64
    # frames of traced heap above its inputs (7.81 measured; 11.27 when each
    # of its stages ran over whole frames).
    width, height = 256, 192
    pitch = 0.6 / width
    intr = CameraIntrinsics(1.0, pitch, pitch, (width - 1) / 2.0, (height - 1) / 2.0)
    X, Y = pixel_axes(width, height, intr)
    z = (3.5 - 0.35 * np.exp(-((X - 0.08) ** 2 + (Y + 0.05) ** 2) / 0.030)
         - 0.18 * np.exp(-(X**2 + Y**2) / 0.12))
    lights = [LightSource(np.array(d), 1.2, 1.2)
              for d in ((0.0, 0.0, 1.0), (1.0, 0.0, 2.0), (0.0, 1.0, 2.0))]
    images, _, _ = render_scene(SceneSpec(depth=DepthMap(z), material=Material(k_d=0.7),
                                          lights=lights, intrinsics=intr))
    result = []
    peak = traced_peak(lambda: result.append(lambertian_pps_closed_form(images, lights, intr)))
    assert result[0][0].mask.all()
    frames = peak / (width * height * 8)
    print(f"closed form peak: {frames:.2f} float64 frames")
    assert frames <= 8.5


# ------------------------------------------------------------ conditioning

def test_indicator_rig_level_expressions():
    rig = [
        LightSource(np.array([1.0, 1.0, 1.0])),
        LightSource(np.array([-1.0, 1.0, 1.0])),
        LightSource(np.array([0.0, -1.0, 1.0])),
    ]
    report = sensitivity_indicator(rig, 8, 8, INTR)
    assert report.non_coplanar
    # first three expressions depend only on the rig: values 1, 2, 1 here
    assert np.allclose(report.expressions[0], 1.0)
    assert np.allclose(report.expressions[1], 2.0)
    assert np.allclose(report.expressions[2], 1.0)
    counts = report.flags.sum(axis=(1, 2))
    assert counts[0] == counts[1] == counts[2] == 0


def test_indicator_flags_duplicate_lights():
    a = LightSource(np.array([0.3, 0.4, 1.0]))
    b = LightSource(np.array([0.0, 0.5, 1.0]))
    # first expression pairs lights 1 and 3
    report = sensitivity_indicator([a, b, a], 4, 4, INTR)
    assert report.flags[0].sum() == 16
    # second expression pairs lights 1 and 2
    report2 = sensitivity_indicator([a, a, b], 4, 4, INTR)
    assert report2.flags[1].sum() == 16


def test_indicator_in_plane_rig_flags_pixel_expressions():
    rig = [
        LightSource(np.array([1.0, 0.0, 0.0])),
        LightSource(np.array([0.0, 1.0, 0.0])),
        LightSource(np.array([1.0, 1.0, 0.0])),
    ]
    report = sensitivity_indicator(rig, 16, 16, INTR)
    counts = report.flags.sum(axis=(1, 2))
    for i in range(3, 11):
        assert counts[i] == 256
    assert not report.non_coplanar


def test_indicator_diagonal_flag_geometry():
    # expression 4 vanishes where y*alpha1 = x*beta1; for light (1,1,1) that
    # is the pixel diagonal x = y
    rig = [
        LightSource(np.array([1.0, 1.0, 1.0])),
        LightSource(np.array([-1.0, 1.0, 1.0])),
        LightSource(np.array([0.0, -1.0, 1.0])),
    ]
    report = sensitivity_indicator(rig, 8, 8, INTR)
    X, Y = np.broadcast_arrays(*pixel_axes(8, 8, INTR))
    assert np.array_equal(report.flags[3], np.abs(Y - X) < 1e-12 / INTR.h_x)


def test_indicator_det_proxy_positive_for_good_rig():
    report = sensitivity_indicator(FRONTAL_RIG, 8, 8, INTR)
    assert report.det_proxy.shape == (8, 8)
    assert report.det_proxy.min() > 0.0


# ------------------------------------------- perspective Blinn-Phong solve

def specular_plane_scene(size=16, gx=0.4, gy=-0.25, seed=None):
    """Constant log-depth gradient plane under the full reflectance model."""
    c = (size - 1) / 2.0
    intr = CameraIntrinsics(focal_length=1.0, h_x=0.02, h_y=0.02, delta_x=c, delta_y=c)
    grad = GradientField(gx=np.full((size, size), gx), gy=np.full((size, size), gy))
    mat = Material(k_d=0.5, k_s=0.5, shininess=30.0)
    lights = [
        LightSource(np.array([0.0, 0.0, 1.0]), 1.2, 1.2),
        LightSource(np.array([1.0, 0.0, 2.0]), 1.2, 1.2),
        LightSource(np.array([0.0, 1.0, 2.0]), 1.2, 1.2),
    ]
    images = [Image(shading) for shading in shade_frame(grad, lights, mat, intr)]
    return images, lights, intr, grad, mat


def _shading_model(x, y, lights, mat, intr):
    """Per-light shading and its derivatives, unclamped as bp-pps fits it."""
    residual = lambda v: np.array(list(perspective_shading(v[0], v[1], x, y, lights, mat,
                                                           intr.focal_length, clamp=False)))
    jacobian = lambda v: np.array([d[1:] for d in unclamped_shading(v[0], v[1], x, y, lights,
                                                                    mat, intr.focal_length)])
    return residual, jacobian


def test_residual_jacobian_matches_finite_differences():
    _, lights, intr, _, mat = specular_plane_scene()
    X, Y = np.broadcast_arrays(*pixel_axes(16, 16, intr))
    f = intr.focal_length
    halfway = list(halfway_vectors(X, Y, f, lights))
    rng = np.random.default_rng(4)
    # Random states near the surface, plus steep ones that turn the normal
    # away from some light's halfway vector (u <= 0: that lobe is off; at
    # shininess 1 its slope jumps there) and away from some light (the
    # unclamped diffuse term goes negative).
    states = [*rng.uniform(-1.0, 1.0, size=(10, 2)), (-6.0, 0.0), (0.0, -6.0), (-4.0, -4.0)]
    lobe_off = 0
    diffuse_off = 0
    for state in states:
        r, c = rng.integers(0, 16, size=2)
        x, y = X[r, c], Y[r, c]
        n = np.array([f * state[0], f * state[1], x * state[0] + y * state[1] + 1.0])
        lobe_off += any(n @ h[:, r, c] <= 0.0 for h in halfway)
        diffuse_off += any(n @ li.direction <= 0.0 for li in lights)
        at = np.asarray(state)
        for shininess in (mat.shininess, 1.0):
            material = Material(k_d=mat.k_d, k_s=mat.k_s, shininess=shininess)
            residual, jacobian = _shading_model(x, y, lights, material, intr)
            jac = jacobian(at)
            fd = finite_difference_jacobian(residual, at)
            assert jac.shape == (3, 2)
            assert np.abs(jac - fd).max() / max(np.abs(fd).max(), 1.0) < 1e-6
    assert lobe_off >= 3
    assert diffuse_off >= 3


def test_fused_residuals_equal_residuals_bit_for_bit():
    # The LM engine takes a problem's first cost from cost and every later
    # one from normal_equations, the fused callback that shades each step
    # once, so the two costs must agree to the bit.  normal_equations hands
    # the engine |f|^2, J^T f and J^T J, J = -dR, summed light by light; they
    # must keep the bits of numpy's einsum over the row-major residuals
    # (k, 3) and Jacobians (k, 3, 2) of perspective_shading, also at states
    # where some light's specular lobe is off (u <= 0).  Both
    # models are checked: bp-pps's at the pixels' image points, and bp-ppn's
    # at the principal point x = y = 0 with f = 1.
    images, lights, intr, _, mat = specular_plane_scene()
    X, Y = np.broadcast_arrays(*pixel_axes(16, 16, intr))
    f = intr.focal_length
    intensities = np.stack([img.data.ravel() for img in images])
    rng = np.random.default_rng(6)
    idx = rng.integers(0, 256, size=64)

    grads = np.concatenate([rng.uniform(-1.0, 1.0, (58, 2)),
                            [(-20.0, 0.0), (0.0, -20.0), (-6.0, 0.0),
                             (0.0, -6.0), (-4.0, -4.0), (4.0, 4.0)]])
    zeros = np.zeros(256)
    for x, y, focal in ((X.ravel(), Y.ravel(), f), (zeros, zeros, 1.0)):
        xi, yi = x[idx], y[idx]
        n = np.stack([focal * grads[:, 0], focal * grads[:, 1],
                      xi * grads[:, 0] + yi * grads[:, 1] + 1.0], axis=1)
        halfway = halfway_vectors(xi, yi, focal, lights)
        lobe_off = np.any([np.einsum("kc,ck->k", n, h) <= 0.0 for h in halfway], axis=0)
        assert lobe_off.sum() >= 3

        shaded = unclamped_shading(grads[:, 0], grads[:, 1], xi, yi, lights, mat, focal)
        res = intensities[:, idx].T - np.stack([s[0] for s in shaded], axis=1)
        jac = -np.stack([np.stack(s[1:], axis=1) for s in shaded], axis=1)
        hess = np.einsum("nmp,nmq->npq", jac, jac)

        model = _ShadingModel(x, y, intensities, lights, mat, focal)
        cost, grad, packed = model.normal_equations(grads.T, idx)
        assert np.array_equal(cost, np.einsum("nm,nm->n", res, res))
        assert np.array_equal(grad, np.einsum("nmp,nm->np", jac, res).T)
        assert np.array_equal(packed, np.stack([hess[:, 0, 0], hess[:, 0, 1], hess[:, 1, 1]]))
        assert np.array_equal(cost, model.cost(grads.T, idx))


def test_normal_equations_keep_the_sign_of_an_exact_zero():
    # With the intensities set to the model's own shading at the states,
    # every residual is +0 exactly and J^T f, J = -dR, is a sum of signed
    # zeros: -0 where all three lights' products are -0.  It must keep the
    # sign of the ordered sum (J_0 f_0 + J_1 f_1) + J_2 f_2, which
    # np.array_equal does not see; a sum started from zero, or a negated
    # finished sum, flips it.
    _, lights, intr, _, mat = specular_plane_scene()
    f = intr.focal_length
    rng = np.random.default_rng(1)
    k = 1000
    x, y = rng.uniform(-0.15, 0.15, size=(2, k))
    states = rng.uniform(-1.0, 1.0, size=(2, k))
    idx = np.arange(k)
    shaded = [tuple(a.copy() for a in s) for s in
              _ShadingModel(x, y, np.zeros((3, k)), lights, mat, f).shading(states, idx, True)]
    intensities = np.stack([s[0] for s in shaded])
    cost, grad, _ = _ShadingModel(x, y, intensities, lights, mat, f).normal_equations(states, idx)
    res = intensities - intensities
    ref = [(-shaded[0][a] * res[0] + -shaded[1][a] * res[1]) + -shaded[2][a] * res[2]
           for a in (1, 2)]
    assert np.all(cost == 0.0) and np.all(grad == 0.0)
    assert np.array_equal(np.signbit(grad), np.signbit(ref))
    assert 100 < np.count_nonzero(np.signbit(grad)) < grad.size - 100


def test_model_blocks_shade_as_the_renderer():
    # One kernel for the renderer and the solver: at the same pixels and
    # states, the shading _ShadingModel forms from a block's coefficient
    # rows (a run of pixels, as a first attempt takes them, or scattered
    # ones, as the retry does; used whole or gathered by idx) keeps the bits
    # of render.shade_pixels wherever the diffuse cosine is positive, since
    # the renderer clamps it and the model does not.  The shading that comes
    # with the derivatives keeps them too.
    _, lights, material, intr, mask = acceptance_sphere()
    depth = make_sphere_depth(128, 128, intr, (0.0, 0.0, 4.0), 1.0)
    _, grad, _ = render_scene(SceneSpec(depth=depth, material=material, lights=lights,
                                        intrinsics=intr))
    rng = np.random.default_rng(9)
    states = GradientField(gx=grad.gx + rng.uniform(-0.3, 0.3, grad.gx.shape),
                           gy=grad.gy + rng.uniform(-0.3, 0.3, grad.gy.shape), mask=grad.mask)
    rendered = shade_pixels(states.gx, states.gy, *pixel_axes(128, 128, intr), mask, lights,
                            material, intr.focal_length)
    X, Y = np.broadcast_arrays(*pixel_axes(128, 128, intr))
    x, y = X[mask], Y[mask]
    nu = np.stack([states.gx[mask], states.gy[mask]])
    f = intr.focal_length
    m = np.stack([f * nu[0], f * nu[1], x * nu[0] + y * nu[1] + 1.0])
    lit = np.stack([li.unit @ m for li in lights]) > 1e-9 * np.linalg.norm(m, axis=0)
    assert lit.mean() > 0.9 and (~lit).sum() > 100
    n = x.size
    model = _ShadingModel(x, y, np.zeros((3, n)), lights, material, f)
    for part in (np.arange(1000, 4000), np.sort(rng.choice(n, 3000, replace=False))):
        block = model.block(part)
        for idx in (np.arange(part.size), np.sort(rng.choice(part.size, 1500, replace=False))):
            pixels = part[idx]
            shaded = np.stack(list(block.shading(nu[:, pixels], idx, False)))
            fused = np.stack([s[0] for s in block.shading(nu[:, pixels], idx, True)])
            on = lit[:, pixels]
            assert np.array_equal(shaded[on], rendered[:, pixels][on])
            assert np.array_equal(fused, shaded)


def acceptance_sphere():
    """The 128x128 acceptance sphere: (images, lights, material, intr, render mask)."""
    intr = CameraIntrinsics(focal_length=1.0, h_x=0.0046875, h_y=0.0046875,
                            delta_x=63.5, delta_y=63.5)
    lights = [LightSource(np.array(d), 1.2, 1.2)
              for d in ((0.0, 0.0, 1.0), (1.0, 0.0, 2.0), (0.0, 1.0, 2.0))]
    material = Material(k_d=0.5, k_s=0.5, shininess=150.0)
    depth = make_sphere_depth(128, 128, intr, (0.0, 0.0, 4.0), 1.0)
    images, _, mask = render_scene(SceneSpec(depth=depth, material=material, lights=lights,
                                             intrinsics=intr))
    return images, lights, material, intr, mask


def count_lm_rows(monkeypatch):
    """Route the solver's LM calls through a counter; returns the list that
    gets one {"problems", "cost", "normal"} row count per call: the rows of
    its cost and normal_equations callbacks."""
    calls = []
    engine = solve.levenberg_marquardt_batch

    def counted(cost, normal_equations, x0, *args, **kwargs):
        rows = {"problems": len(x0), "cost": 0, "normal": 0}
        calls.append(rows)

        def counted_cost(x, idx):
            rows["cost"] += len(idx)
            return cost(x, idx)

        def counted_normal_equations(x, idx):
            rows["normal"] += len(idx)
            return normal_equations(x, idx)

        return engine(counted_cost, counted_normal_equations, x0, *args, **kwargs)

    monkeypatch.setattr(solve, "levenberg_marquardt_batch", counted)
    return calls


def test_pps_solve_evaluates_the_model_once_per_lm_step(monkeypatch):
    # The 128x128 acceptance sphere.  Each LM call shades all its problems
    # once with cost, then once per step with normal_equations; a second
    # shading pass per step would add about 50k rows.  The 2,616 pixels
    # whose closed-form start already fits exactly get no normal equations.
    images, lights, material, intr, mask = acceptance_sphere()
    calls = count_lm_rows(monkeypatch)
    blinn_phong_pps_solve(images, lights, material, intr, mask=mask & input_mask(images))
    assert [c["problems"] for c in calls] == [9388, 288]
    assert all(c["cost"] == c["problems"] for c in calls)
    assert sum(c["normal"] for c in calls) == 56869


def test_ortho_solve_fits_with_the_zero_start_retry(monkeypatch):
    # bp-ppn fits each pixel from the Woodham slope, then again from zero at
    # the pixels that did not converge or keep a residual norm above
    # ACCEPT_TOL, as bp-pps does: two LM calls on the acceptance sphere.  It
    # keeps every converged pixel.
    images, lights, material, intr, mask = acceptance_sphere()
    calls = count_lm_rows(monkeypatch)
    est = blinn_phong_ortho_solve(images, lights, material, mask=mask & input_mask(images))
    assert calls == [{"problems": 9388, "cost": 9388, "normal": 62372},
                     {"problems": 2900, "cost": 2900, "normal": 52657}]
    assert est.mask.sum() == 9352


@pytest.mark.parametrize("method", ["bp-pps", "bp-ppn"])
def test_batch_composition_does_not_change_a_pixels_fit(method):
    # Every problem of an LM batch follows its own path: fitting a seeded,
    # shuffled fifth of the acceptance sphere's pixels gives those pixels
    # the bits of the fit of all of them, for bp-pps's model at the pixels'
    # points and bp-ppn's at the principal point with f = 1.
    images, lights, material, intr, mask = acceptance_sphere()
    mask &= input_mask(images)
    intensities = solve._intensities([img.data for img in images], mask)
    if method == "bp-pps":
        init, _ = lambertian_pps_closed_form(images, lights, intr, mask=mask)
        X, Y = np.broadcast_arrays(*pixel_axes(128, 128, intr))
        model = _ShadingModel(X[mask], Y[mask], intensities, lights, material,
                              intr.focal_length)
        x0 = np.stack([init.gx[mask], init.gy[mask]], axis=1)
    else:
        n0 = woodham_normals(images, lights, mask=mask)[0].n[mask]
        model = _ShadingModel(0.0, 0.0, intensities, lights, material, 1.0)
        x0 = n0[:, :2] / np.abs(n0[:, 2:])
    sub = np.random.default_rng(21).permutation(len(x0))[:len(x0) // 5]

    full = optim.levenberg_marquardt_batch(model.cost, model.normal_equations, x0)
    part = optim.levenberg_marquardt_batch(
        lambda x, idx: model.cost(x, sub[idx]),
        lambda x, idx: model.normal_equations(x, sub[idx]), x0[sub])
    assert full[2][sub].sum() > 1000
    for whole, alone in zip(full, part):
        assert np.array_equal(whole[sub], alone)


def test_blocks_keep_every_bit(monkeypatch):
    # Both solvers fit in the fewest equal blocks of at most LM_BLOCK
    # problems, one LM call each.  With blocks of at most 1,000 the
    # acceptance sphere's first attempt runs in 10 equal parts of its 9,388
    # pixels, the retry in its own blocks, and every output keeps the bits
    # of one call per attempt, with the same model rows.
    images, lights, material, intr, mask = acceptance_sphere()
    mask &= input_mask(images)
    solvers = {"bp-pps": lambda: blinn_phong_pps_solve(images, lights, material, intr, mask=mask),
               "bp-ppn": lambda: blinn_phong_ortho_solve(images, lights, material, mask=mask)}
    whole = {method: solver() for method, solver in solvers.items()}
    monkeypatch.setattr(solve, "LM_BLOCK", 1000)
    calls = count_lm_rows(monkeypatch)
    normal = {}
    for method, solver in solvers.items():
        calls.clear()
        blocked = solver()
        for name, value in vars(whole[method]).items():
            assert np.array_equal(getattr(blocked, name), value), (method, name)
        first = [c["problems"] for c in calls[:10]]
        assert sum(first) == 9388 and max(first) - min(first) <= 1
        assert max(c["problems"] for c in calls) <= 1000
        assert all(c["cost"] == c["problems"] for c in calls)
        normal[method] = (sum(c["normal"] for c in calls[:10]),
                          sum(c["normal"] for c in calls[10:]))
    assert sum(normal["bp-pps"]) == 56869
    assert normal["bp-ppn"] == (62372, 52657)


def traced_peak(call):
    """The largest heap tracemalloc sees during call(), above the heap at its
    start; numpy reports its buffers to tracemalloc, so this is exact."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_fit_memory_follows_the_block(monkeypatch):
    # Four blocks' worth of problems, the same 1,500 pixels from the middle
    # of the acceptance sphere four times over, fit in at most 1.5x the
    # traced heap of one block's worth (1.28x measured); a single LM call
    # over all of them would need about 4x.
    images, lights, material, intr, mask = acceptance_sphere()
    mask &= input_mask(images)
    intensities = solve._intensities([img.data for img in images], mask)
    init, _ = lambertian_pps_closed_form(images, lights, intr, mask=mask)
    X, Y = np.broadcast_arrays(*pixel_axes(128, 128, intr))
    block = 1500
    monkeypatch.setattr(solve, "LM_BLOCK", block)
    peaks = []
    for copies in (1, 4):
        def tiled(a):
            return np.tile(a[..., 4000:4000 + block], copies)
        model = _ShadingModel(tiled(X[mask]), tiled(Y[mask]), tiled(intensities), lights,
                              material, intr.focal_length)
        x0 = np.stack([tiled(init.gx[mask]), tiled(init.gy[mask])], axis=1)
        peaks.append(traced_peak(lambda: model.fit(x0)))
    assert peaks[1] <= 1.5 * peaks[0]


def test_pps_solve_cost_stop_keeps_pixels_on_quantized_noise(monkeypatch, tmp_path):
    # The acceptance sphere with seeded noise of 1e-3, through 16-bit PGM as
    # the CLI reads it.  Most fits keep a nonzero residual, where LM
    # converges only linearly; the relative cost-decrease stop ends that
    # tail.  It must solve the same pixels to within 1e-6 with at most 0.7x
    # the model evaluations of a run that goes on until the step is tiny.
    images, lights, material, intr, mask = acceptance_sphere()
    rng = np.random.default_rng(5)
    loaded = []
    for k, image in enumerate(images):
        path = tmp_path / f"image_{k}.pgm"
        save_image(path, image.data + 1e-3 * rng.standard_normal(image.data.shape))
        loaded.append(Image(load_image(path)))
    mask = mask & input_mask(loaded, high=0.999)

    calls = count_lm_rows(monkeypatch)
    est = blinn_phong_pps_solve(loaded, lights, material, intr, mask=mask)
    rows = sum(c["normal"] for c in calls)
    monkeypatch.setattr(optim, "COST_TOL", 0.0)
    calls.clear()
    full = blinn_phong_pps_solve(loaded, lights, material, intr, mask=mask)
    rows_full = sum(c["normal"] for c in calls)

    assert est.mask.sum() > 0.5 * mask.sum()
    assert np.array_equal(est.mask, full.mask)
    assert np.abs(est.gx - full.gx)[est.mask].max() < 1e-6
    assert np.abs(est.gy - full.gy)[est.mask].max() < 1e-6
    assert rows <= 0.7 * rows_full


def test_pps_solve_recovers_specular_plane():
    images, lights, intr, grad, mat = specular_plane_scene()
    est = blinn_phong_pps_solve(images, lights, mat, intr)
    assert est.mask.all()
    assert np.abs(est.gx - grad.gx).max() < 1e-8
    assert np.abs(est.gy - grad.gy).max() < 1e-8


def test_pps_solve_reduces_to_closed_form_without_specular():
    images, lights, intr, grad, _ = smooth_log_depth_scene(seed=3)
    mat = Material(k_d=0.6, k_s=0.0, shininess=50.0)
    bp = blinn_phong_pps_solve(images, lights, mat, intr)
    cf, _ = lambertian_pps_closed_form(images, lights, intr)
    joint = bp.mask & cf.mask
    assert joint.sum() > 0.95 * joint.size
    assert np.array_equal(bp.gx[joint], cf.gx[joint])
    assert np.array_equal(bp.gy[joint], cf.gy[joint])


@pytest.mark.parametrize("method", ["bp-pps", "bp-ppn"])
def test_pps_solve_empty_input_returns_empty_mask(method):
    # All-dark images leave no pixel to fit: the one gather/fit/scatter path
    # runs on zero pixels, without a warning.
    images = [Image(np.zeros((4, 4)))] * 3
    material = Material(k_d=0.5, k_s=0.5, shininess=10.0)
    if method == "bp-pps":
        est = blinn_phong_pps_solve(images, FRONTAL_RIG, material, INTR)
    else:
        est = blinn_phong_ortho_solve(images, FRONTAL_RIG, material)
        assert np.array_equal(est.n, np.broadcast_to([0.0, 0.0, 1.0], (4, 4, 3)))
    assert not est.mask.any()


@pytest.mark.parametrize("shape", [(2, 2), (4, 5)], ids=["2x2", "4x5"])
@pytest.mark.parametrize("solver", ["woodham", "lambert-pps", "bp-pps", "bp-ppn"])
def test_solvers_reject_a_mask_of_another_shape(solver, shape):
    images = [Image(np.full((4, 4), 0.5))] * 3
    material = Material(k_d=0.5, k_s=0.5, shininess=10.0)
    mask = np.ones(shape, dtype=bool)
    run = {
        "woodham": lambda: woodham_normals(images, FRONTAL_RIG, mask=mask),
        "lambert-pps": lambda: lambertian_pps_closed_form(images, FRONTAL_RIG, INTR, mask=mask),
        "bp-pps": lambda: blinn_phong_pps_solve(images, FRONTAL_RIG, material, INTR, mask=mask),
        "bp-ppn": lambda: blinn_phong_ortho_solve(images, FRONTAL_RIG, material, mask=mask),
    }[solver]
    with pytest.raises(ValueError, match=re.escape(f"{shape}") + ".*" + re.escape("(4, 4)")):
        run()


@pytest.mark.parametrize("solver", ["woodham", "lambert-pps", "bp-pps", "bp-ppn"])
def test_solvers_reject_a_zero_diffuse_intensity_before_any_arithmetic(solver):
    # every solver divides by l_d; a divide warning would fail this test
    intr = CameraIntrinsics(focal_length=1.0, h_x=0.009375, h_y=0.009375,
                            delta_x=31.5, delta_y=31.5)
    lights = [LightSource(np.array(d), l_d, 1.2)
              for d, l_d in (((0.0, 0.0, 1.0), 1.2), ((1.0, 0.0, 2.0), 0.0),
                             ((0.0, 1.0, 2.0), 1.2))]
    material = Material(k_d=0.5, k_s=0.5, shininess=150.0)
    depth = make_sphere_depth(64, 64, intr, (0.0, 0.0, 4.0), 1.0)
    images, _, _ = render_scene(SceneSpec(depth=depth, material=material, lights=lights,
                                          intrinsics=intr))
    run = {
        "woodham": lambda: woodham_normals(images, lights),
        "lambert-pps": lambda: lambertian_pps_closed_form(images, lights, intr),
        "bp-pps": lambda: blinn_phong_pps_solve(images, lights, material, intr),
        "bp-ppn": lambda: blinn_phong_ortho_solve(images, lights, material),
    }[solver]
    with pytest.raises(ValueError, match="diffuse light intensities must be positive"):
        run()


def test_pps_solve_one_dark_image_masks_pixels():
    images, lights, intr, grad, mat = specular_plane_scene()
    data = images[0].data.copy()
    data[2, 2] = 0.0
    images = [Image(data)] + images[1:]
    est = blinn_phong_pps_solve(images, lights, mat, intr)
    assert not est.mask[2, 2]
    assert est.mask.sum() == 255


# ------------------------------------------- orthographic Blinn-Phong solve

def test_ortho_solve_flat_scene():
    lights = [
        LightSource(np.array([0.0, 0.0, 1.0]), 1.0, 1.0),
        LightSource(np.array([0.5, 0.0, 1.0]), 1.0, 1.0),
        LightSource(np.array([0.0, 0.5, 1.0]), 1.0, 1.0),
    ]
    mat = Material(k_d=0.5, k_s=0.4, shininess=20.0)
    n_flat = np.array([0.0, 0.0, 1.0])
    images = []
    for li in lights:
        h = li.unit + np.array([0.0, 0.0, 1.0])
        h /= np.linalg.norm(h)
        val = (mat.k_d * li.diffuse_intensity * li.unit[2]
               + mat.k_s * li.specular_intensity * h[2] ** mat.shininess)
        images.append(Image(np.full((6, 6), val)))
    est = blinn_phong_ortho_solve(images, lights, mat)
    assert est.mask.all()
    assert np.abs(est.n - n_flat).max() < 1e-8


def test_ortho_solve_matches_woodham_when_ks_zero():
    mat = Material(k_d=0.7, k_s=0.0, shininess=10.0)
    images, _ = render_orthographic(bump_depth(), FRONTAL_RIG, mat)
    bp = blinn_phong_ortho_solve(images, FRONTAL_RIG, mat)
    wn, _ = woodham_normals(images, FRONTAL_RIG)
    joint = bp.mask & wn.mask
    assert joint.sum() > 0.9 * joint.size
    assert np.abs(bp.n[joint] - wn.n[joint]).max() < 1e-6


def test_ortho_solve_recovers_specular_bump():
    mat = Material(k_d=0.5, k_s=0.3, shininess=25.0)
    images, normals = render_orthographic(bump_depth(), FRONTAL_RIG, mat)
    est = blinn_phong_ortho_solve(images, FRONTAL_RIG, mat)
    joint = est.mask & normals.mask
    assert joint.sum() > 0.9 * normals.mask.sum()
    ang = chord_angle(est.n[joint], normals.n[joint])
    assert ang.max() < 1e-6
