"""Per-pixel reconstruction solvers: orthographic and perspective paths."""

import functools
import re

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
from psbp.geometry import halfway_vector_grid, pixel_grid
from psbp.optim import finite_difference_jacobian
from psbp import optim, solve
from psbp.render import (
    SceneSpec,
    depth_to_normals_orthographic,
    make_sphere_depth,
    perspective_shading,
    render_blinn_phong_orthographic,
    render_blinn_phong_perspective,
    render_lambertian_perspective,
    render_scene,
)
from psbp.solve import (
    _closed_form_system,
    _light_arrays,
    _perspective_model,
    _scaled_intensities,
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


def chord_angle(a, b):
    """Angle between unit vectors via the chord, stable near zero."""
    return 2.0 * np.arcsin(0.5 * np.linalg.norm(a - b, axis=-1))


def bump_depth(size=32, spacing=0.05):
    c = (size - 1) / 2.0
    cols, rows = np.meshgrid(np.arange(size, dtype=float), np.arange(size, dtype=float))
    x = (cols - c) * spacing
    y = (rows - c) * spacing
    return DepthMap(3.0 - 0.8 * np.exp(-(x**2 + y**2) / 0.8))


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
    depth = bump_depth()
    intr = CameraIntrinsics(focal_length=1.0, h_x=0.05, h_y=0.05, delta_x=15.5, delta_y=15.5)
    normals = depth_to_normals_orthographic(depth, intr)
    mat = Material(k_d=0.7)
    images = [render_blinn_phong_orthographic(normals, li, mat) for li in FRONTAL_RIG]
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
    depth = bump_depth()
    normals = depth_to_normals_orthographic(depth, INTR)
    mat = Material(k_d=0.6)
    images = [render_blinn_phong_orthographic(normals, li, mat) for li in rig]
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
    images = [render_lambertian_perspective(grad, li, mat, intr) for li in lights]
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
    X, Y = pixel_grid(32, 32, intr)
    x, y = X[r, c], Y[r, c]
    f = intr.focal_length
    dirs, norms, ld = _light_arrays(lights)
    scaled = _scaled_intensities([img.data for img in images], norms, ld)
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
    counts = report.flagged_counts()
    assert counts[0] == counts[1] == counts[2] == 0


def test_indicator_flags_duplicate_lights():
    a = LightSource(np.array([0.3, 0.4, 1.0]))
    b = LightSource(np.array([0.0, 0.5, 1.0]))
    # first expression pairs lights 1 and 3
    report = sensitivity_indicator([a, b, a], 4, 4, INTR)
    assert report.flagged_counts()[0] == 16
    # second expression pairs lights 1 and 2
    report2 = sensitivity_indicator([a, a, b], 4, 4, INTR)
    assert report2.flagged_counts()[1] == 16


def test_indicator_in_plane_rig_flags_pixel_expressions():
    rig = [
        LightSource(np.array([1.0, 0.0, 0.0])),
        LightSource(np.array([0.0, 1.0, 0.0])),
        LightSource(np.array([1.0, 1.0, 0.0])),
    ]
    report = sensitivity_indicator(rig, 16, 16, INTR)
    counts = report.flagged_counts()
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
    X, Y = pixel_grid(8, 8, INTR)
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
    images = [render_blinn_phong_perspective(grad, li, mat, intr) for li in lights]
    return images, lights, intr, grad, mat


def _shading_model(x, y, lights, mat, intr, clamp=False):
    """Per-light shading and its derivatives: unclamped as bp-pps fits it,
    clamped as the renderer draws it."""
    def shade(v, derivatives=False):
        return [perspective_shading(v[0], v[1], x, y, li, mat, intr.focal_length,
                                    clamp=clamp, derivatives=derivatives) for li in lights]

    residual = lambda v: np.array(shade(v))
    jacobian = lambda v: np.array([d[1:] for d in shade(v, derivatives=True)])
    return residual, jacobian


def test_residual_jacobian_matches_finite_differences():
    _, lights, intr, _, mat = specular_plane_scene()
    X, Y = pixel_grid(16, 16, intr)
    f = intr.focal_length
    halfway = [halfway_vector_grid(X, Y, f, li) for li in lights]
    models = (_shading_model, functools.partial(_shading_model, clamp=True))
    rng = np.random.default_rng(4)
    # Random states near the surface, plus steep ones that turn the normal
    # away from some light's halfway vector (u <= 0: that lobe is off; at
    # shininess 1 its slope jumps there) and away from some light (the
    # clamped model's diffuse term is off, and so is its slope).
    states = [*rng.uniform(-1.0, 1.0, size=(10, 2)), (-6.0, 0.0), (0.0, -6.0), (-4.0, -4.0)]
    lobe_off = 0
    diffuse_off = 0
    for state in states:
        r, c = rng.integers(0, 16, size=2)
        x, y = X[r, c], Y[r, c]
        n = np.array([f * state[0], f * state[1], x * state[0] + y * state[1] + 1.0])
        lobe_off += any(n @ h[r, c] <= 0.0 for h in halfway)
        diffuse_off += any(n @ li.direction <= 0.0 for li in lights)
        at = np.asarray(state)
        for shininess in (mat.shininess, 1.0):
            material = Material(k_d=mat.k_d, k_s=mat.k_s, shininess=shininess)
            for model in models:
                residual, jacobian = model(x, y, lights, material, intr)
                jac = jacobian(at)
                fd = finite_difference_jacobian(residual, at)
                assert jac.shape == (3, 2)
                assert np.abs(jac - fd).max() / max(np.abs(fd).max(), 1.0) < 1e-6
    assert lobe_off >= 3
    assert diffuse_off >= 3


def test_fused_residuals_equal_residuals_bit_for_bit():
    # The LM engine takes a problem's first residuals from residuals and every
    # later one from residuals_and_jacobian, so the two must agree to the bit,
    # also at states where some light's specular lobe is off (u <= 0).  Both
    # models are checked: bp-pps's at the pixels' image points, and bp-ppn's
    # at the principal point x = y = 0 with f = 1.
    images, lights, intr, _, mat = specular_plane_scene()
    X, Y = pixel_grid(16, 16, intr)
    f = intr.focal_length
    intensities = np.stack([img.data.ravel() for img in images], axis=1)
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
        halfway = [halfway_vector_grid(xi, yi, focal, li) for li in lights]
        lobe_off = np.any([np.einsum("kc,kc->k", n, h) <= 0.0 for h in halfway], axis=0)
        assert lobe_off.sum() >= 3

        model = _perspective_model(x, y, intensities, lights, mat, focal)
        res, jac = model.residuals_and_jacobian(grads, idx)
        assert jac.shape == (64, 3, 2)
        assert np.array_equal(res, model.residuals(grads, idx))


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
    gets one {"problems", "residual", "fused"} row count per call."""
    calls = []
    engine = solve.levenberg_marquardt_batch

    def counted(residual, residual_and_jacobian, x0, *args, **kwargs):
        rows = {"problems": len(x0), "residual": 0, "fused": 0}
        calls.append(rows)

        def res(x, idx):
            rows["residual"] += len(idx)
            return residual(x, idx)

        def fused(x, idx):
            rows["fused"] += len(idx)
            return residual_and_jacobian(x, idx)

        return engine(res, fused, x0, *args, **kwargs)

    monkeypatch.setattr(solve, "levenberg_marquardt_batch", counted)
    return calls


def test_pps_solve_evaluates_the_model_once_per_lm_step(monkeypatch):
    # The 128x128 acceptance sphere.  Each LM call shades all its problems
    # once with residuals, then once per step with residuals_and_jacobian;
    # a second shading pass per step would add about 50k rows.  The 2,616
    # pixels whose closed-form start already fits exactly get no Jacobian.
    images, lights, material, intr, mask = acceptance_sphere()
    calls = count_lm_rows(monkeypatch)
    blinn_phong_pps_solve(images, lights, material, intr, mask=mask & input_mask(images))
    assert [c["problems"] for c in calls] == [9388, 288]
    assert all(c["residual"] == c["problems"] for c in calls)
    assert sum(c["fused"] for c in calls) == 56869


def test_ortho_solve_fits_with_the_zero_start_retry(monkeypatch):
    # bp-ppn fits each pixel from the Woodham slope, then again from zero at
    # the pixels that did not converge or keep a residual norm above
    # ACCEPT_TOL, as bp-pps does: two LM calls on the acceptance sphere.  It
    # keeps every converged pixel.
    images, lights, material, intr, mask = acceptance_sphere()
    calls = count_lm_rows(monkeypatch)
    est = blinn_phong_ortho_solve(images, lights, material, mask=mask & input_mask(images))
    assert calls == [{"problems": 9388, "residual": 9388, "fused": 62380},
                     {"problems": 2900, "residual": 2900, "fused": 52655}]
    assert est.mask.sum() == 9352


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
    rows = sum(c["fused"] for c in calls)
    monkeypatch.setattr(optim, "COST_TOL", 0.0)
    calls.clear()
    full = blinn_phong_pps_solve(loaded, lights, material, intr, mask=mask)
    rows_full = sum(c["fused"] for c in calls)

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
    depth = bump_depth()
    normals = depth_to_normals_orthographic(depth, INTR)
    mat = Material(k_d=0.7, k_s=0.0, shininess=10.0)
    images = [render_blinn_phong_orthographic(normals, li, mat) for li in FRONTAL_RIG]
    bp = blinn_phong_ortho_solve(images, FRONTAL_RIG, mat)
    wn, _ = woodham_normals(images, FRONTAL_RIG)
    joint = bp.mask & wn.mask
    assert joint.sum() > 0.9 * joint.size
    assert np.abs(bp.n[joint] - wn.n[joint]).max() < 1e-6


def test_ortho_solve_recovers_specular_bump():
    depth = bump_depth()
    normals = depth_to_normals_orthographic(depth, INTR)
    mat = Material(k_d=0.5, k_s=0.3, shininess=25.0)
    images = [render_blinn_phong_orthographic(normals, li, mat) for li in FRONTAL_RIG]
    est = blinn_phong_ortho_solve(images, FRONTAL_RIG, mat)
    joint = est.mask & normals.mask
    assert joint.sum() > 0.9 * normals.mask.sum()
    ang = chord_angle(est.n[joint], normals.n[joint])
    assert ang.max() < 1e-6
