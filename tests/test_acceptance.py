"""Acceptance gate: one test per headline guarantee of the toolkit.

Each test measures its figure of merit against the released tolerance and
prints a single ``[PASS]``/``[FAIL]`` line (visible in the report summary)
before asserting, so a full run reads as a checklist of the guarantees:

* exact closed-form recovery on noiseless diffuse renders,
* closed-loop depth reconstruction through the CLI pipeline and file formats,
* reduction / failure behavior of the reflectance models,
* coverage and exactness of the per-pixel solver on the specular sphere,
  and its agreement with an exhaustive grid search,
* exactness properties of the integrator, Jacobians, and conditioning
  diagnostics, and placement of rendered specular highlights.
"""

import time

import numpy as np
import pytest

from psbp.cli import main
from psbp.core import (
    CameraIntrinsics,
    GradientField,
    LightSource,
    Material,
    input_mask,
)
from psbp.fileio import read_json, write_json, write_pfm
from psbp.geometry import pixel_axes
from psbp.integrate import _integrate_edges
from psbp.optim import finite_difference_jacobian
from psbp.render import (
    MODEL_LAMBERTIAN,
    PROJECTION_ORTHOGRAPHIC,
    SceneSpec,
    make_sphere_depth,
    render_scene,
    shade_pixels,
)
from psbp.solve import (
    _ShadingModel,
    blinn_phong_pps_solve,
    lambertian_pps_closed_form,
    sensitivity_indicator,
    woodham_normals,
)

SPHERE_INTR = CameraIntrinsics(
    focal_length=1.0, h_x=0.0046875, h_y=0.0046875, delta_x=63.5, delta_y=63.5
)
RIG_DIRECTIONS = ((0.0, 0.0, 1.0), (1.0, 0.0, 2.0), (0.0, 1.0, 2.0))


def rig(diffuse=1.0, specular=1.0):
    return [LightSource(np.array(d), diffuse, specular) for d in RIG_DIRECTIONS]


def chord_angle(a, b):
    return 2.0 * np.arcsin(0.5 * np.linalg.norm(a - b, axis=-1))


def verdict(label, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def specular_sphere(material):
    """The 128x128 reference sphere under the three-light rig."""
    depth = make_sphere_depth(128, 128, SPHERE_INTR, (0.0, 0.0, 4.0), 1.0)
    scene = SceneSpec(depth=depth, material=material,
                      lights=rig(1.2, 1.2), intrinsics=SPHERE_INTR)
    images, grad, mask = render_scene(scene)
    return images, grad, mask & input_mask(images)


# ------------------------------------------------------- pipeline fixtures

def _sphere_render_cfg(out):
    return {
        "mode": "render",
        "out": str(out),
        "intrinsics": {"focal_length": 1.0, "pixel_pitch": 0.0046875,
                       "principal_point": [63.5, 63.5]},
        "lights": [{"direction": list(d), "diffuse_intensity": 1.2,
                    "specular_intensity": 1.2} for d in RIG_DIRECTIONS],
        "material": {"diffuse": 0.5, "specular": 0.5, "shininess": 150.0},
        "scene": {"type": "sphere", "size": [128, 128],
                  "center": [0, 0, 4], "radius": 1.0},
    }


def _closed_loop(root, render_dir, tag, method, principal_point):
    """Reconstruct + evaluate against the rendered ground truth.

    Returns (mse_normalized, seconds spent reconstructing and evaluating).
    """
    base = _sphere_render_cfg(root)
    base["intrinsics"]["principal_point"] = list(principal_point)
    base["images"] = [str(render_dir / f"image_{i}.pgm") for i in (1, 2, 3)]
    del base["scene"]

    recon = dict(base, mode="reconstruct", method=method,
                 out=str(root / f"recon_{tag}"))
    ev = dict(base, mode="evaluate", out=str(root / f"eval_{tag}"),
              estimate_dir=str(root / f"recon_{tag}"),
              ground_truth=str(render_dir / "depth_gt.pfm"))
    started = time.perf_counter()
    for payload in (recon, ev):
        path = root / f"cfg_{tag}_{payload['mode']}.json"
        write_json(path, payload)
        assert main([payload["mode"], "--config", str(path)]) == 0
    elapsed = time.perf_counter() - started
    report = read_json(root / f"eval_{tag}" / "evaluation.json")
    return report["mse_normalized"], elapsed


@pytest.fixture(scope="module")
def sphere_loop(tmp_path_factory):
    """File-based closed loops on the specular sphere, one per method."""
    root = tmp_path_factory.mktemp("sphere_loop")
    render_dir = root / "render"
    cfg = root / "cfg_render.json"
    write_json(cfg, _sphere_render_cfg(render_dir))
    assert main(["render", "--config", str(cfg)]) == 0

    centered = (63.5, 63.5)
    results = {}
    for tag, method, pp in (
        ("pps", "bp-pps", centered),
        ("ppn", "bp-ppn", centered),
        ("lambert", "lambert-pps", centered),
        ("ppn_offset", "bp-ppn", (63.5 + 16.0, 63.5 + 16.0)),
    ):
        results[tag] = _closed_loop(root, render_dir, tag, method, pp)
    return results


@pytest.fixture(scope="module")
def relief_loop(tmp_path_factory):
    """Closed loops on a smooth 150x120 depth map loaded from a file."""
    root = tmp_path_factory.mktemp("relief_loop")
    width, height = 150, 120
    cols, rows = np.meshgrid(np.arange(width, dtype=float),
                             np.arange(height, dtype=float))
    x = (cols - (width - 1) / 2.0) * 0.004
    y = (rows - (height - 1) / 2.0) * 0.004
    z = (3.5
         - 0.35 * np.exp(-((x - 0.08) ** 2 + (y + 0.05) ** 2) / 0.030)
         - 0.25 * np.exp(-((x + 0.15) ** 2 + (y - 0.10) ** 2) / 0.018)
         - 0.18 * np.exp(-(x**2 + y**2) / 0.12)
         + 0.10 * np.sin(6.0 * x) * np.cos(5.0 * y) * np.exp(-(x**2 + y**2) / 0.25))
    write_pfm(root / "relief.pfm", z.astype(np.float32))

    render_dir = root / "render"
    cfg_payload = _sphere_render_cfg(render_dir)
    cfg_payload["intrinsics"] = {"focal_length": 1.0, "pixel_pitch": 0.004,
                                 "principal_point": [74.5, 59.5]}
    cfg_payload["material"] = {"diffuse": 0.6, "specular": 0.4, "shininess": 50.0}
    cfg_payload["scene"] = {"type": "depth-map", "path": str(root / "relief.pfm")}
    cfg = root / "cfg_render.json"
    write_json(cfg, cfg_payload)
    assert main(["render", "--config", str(cfg)]) == 0

    def loop(tag, method):
        base = dict(cfg_payload)
        del base["scene"]
        base["images"] = [str(render_dir / f"image_{i}.pgm") for i in (1, 2, 3)]
        recon = dict(base, mode="reconstruct", method=method,
                     out=str(root / f"recon_{tag}"))
        ev = dict(base, mode="evaluate", out=str(root / f"eval_{tag}"),
                  estimate_dir=str(root / f"recon_{tag}"),
                  ground_truth=str(render_dir / "depth_gt.pfm"))
        for payload in (recon, ev):
            path = root / f"cfg_{tag}_{payload['mode']}.json"
            write_json(path, payload)
            assert main([payload["mode"], "--config", str(path)]) == 0
        return read_json(root / f"eval_{tag}" / "evaluation.json")["mse_normalized"]

    return {"bp-pps": loop("pps", "bp-pps"), "bp-ppn": loop("ppn", "bp-ppn")}


# ------------------------------------------------------------ the criteria

def test_closed_form_is_exact_on_diffuse_renders():
    material = Material(k_d=0.5)
    depth = make_sphere_depth(128, 128, SPHERE_INTR, (0.0, 0.0, 4.0), 1.0)
    scene = SceneSpec(depth=depth, material=material, lights=rig(),
                      intrinsics=SPHERE_INTR, model=MODEL_LAMBERTIAN)
    images, grad_true, mask = render_scene(scene)
    usable = mask & input_mask(images)

    started = time.perf_counter()
    grad_est, _ = lambertian_pps_closed_form(images, rig(), SPHERE_INTR, mask=usable)
    elapsed = time.perf_counter() - started

    joint = grad_est.mask & grad_true.mask
    assert joint.sum() > 9000
    err = max(np.abs(grad_est.gx - grad_true.gx)[joint].max(),
              np.abs(grad_est.gy - grad_true.gy)[joint].max())
    verdict("diffuse closed-form exactness", err < 1e-8 and elapsed < 5.0,
            f"max gradient error {err:.3e} < 1e-08 on {joint.sum()} px; "
            f"{elapsed:.2f} s < 5 s")


def test_orthographic_normal_recovery_is_exact():
    intr = CameraIntrinsics(focal_length=1.0, h_x=0.0171875, h_y=0.0171875,
                            delta_x=63.5, delta_y=63.5)
    depth = make_sphere_depth(128, 128, intr, (0.0, 0.0, 4.0), 1.0,
                              projection=PROJECTION_ORTHOGRAPHIC)
    images, normals, _ = render_scene(SceneSpec(depth, Material(k_d=0.7), rig(), intr,
                                                projection=PROJECTION_ORTHOGRAPHIC))
    lit = input_mask(images) & normals.mask  # drop shadow-clamped pixels

    started = time.perf_counter()
    est, _ = woodham_normals(images, rig(), mask=lit)
    elapsed = time.perf_counter() - started

    joint = est.mask & normals.mask
    assert joint.sum() > 9000
    worst = chord_angle(est.n[joint], normals.n[joint]).max()
    verdict("orthographic normal recovery", worst < 1e-8 and elapsed < 2.0,
            f"max angular error {worst:.3e} rad < 1e-08 on {joint.sum()} px; "
            f"{elapsed:.2f} s < 2 s")


def test_specular_sphere_loop_perspective_solver(sphere_loop):
    err, elapsed = sphere_loop["pps"]
    verdict("specular sphere loop (perspective solver)",
            err < 0.01 and elapsed < 60.0,
            f"mse_normalized {err:.3e} < 1e-02; {elapsed:.1f} s < 60 s")


def test_specular_sphere_loop_normal_field_route(sphere_loop):
    err, _ = sphere_loop["ppn"]
    verdict("specular sphere loop (normal-field route)", err < 2e-4,
            f"mse_normalized {err:.3e} < 2e-04")


def test_loaded_depth_map_loop_both_methods(relief_loop):
    pps, ppn = relief_loop["bp-pps"], relief_loop["bp-ppn"]
    verdict("loaded depth-map loop", pps < 0.02 and ppn < 0.02,
            f"mse_normalized bp-pps {pps:.3e}, bp-ppn {ppn:.3e}, both < 2e-02")


def test_zero_specular_solver_reduces_to_closed_form():
    material = Material(k_d=0.5, k_s=0.0, shininess=150.0)
    images, _, usable = specular_sphere(material)
    solved = blinn_phong_pps_solve(images, rig(1.2, 1.2), material,
                                   SPHERE_INTR, mask=usable)
    closed, _ = lambertian_pps_closed_form(images, rig(1.2, 1.2),
                                           SPHERE_INTR, mask=usable)
    agree = (solved.mask & closed.mask
             & (np.abs(solved.gx - closed.gx) < 1e-6)
             & (np.abs(solved.gy - closed.gy) < 1e-6))
    fraction = agree.sum() / usable.sum()
    verdict("zero-specular reduction", fraction >= 0.99,
            f"{fraction:.4f} of {usable.sum()} px agree within 1e-06 "
            f"per component (need >= 0.99)")


def test_specular_sphere_solve_coverage_and_accuracy():
    material = Material(k_d=0.5, k_s=0.5, shininess=150.0)
    images, grad_true, usable = specular_sphere(material)
    solved = blinn_phong_pps_solve(images, rig(1.2, 1.2), material,
                                   SPHERE_INTR, mask=usable)
    fraction = solved.mask.sum() / usable.sum()
    joint = solved.mask & grad_true.mask
    err = max(np.abs(solved.gx - grad_true.gx)[joint].max(),
              np.abs(solved.gy - grad_true.gy)[joint].max())
    verdict("specular sphere per-pixel solve", fraction >= 0.98 and err < 1e-8,
            f"{solved.mask.sum()}/{usable.sum()} = {fraction:.4f} of usable px "
            f"solved (need >= 0.98); max gradient error {err:.3e} < 1e-08")


def test_diffuse_only_model_degrades_on_specular_data(sphere_loop):
    specular_err, _ = sphere_loop["pps"]
    diffuse_err, _ = sphere_loop["lambert"]
    ratio = diffuse_err / specular_err
    verdict("diffuse-only model on specular data", ratio >= 3.0,
            f"mse_normalized ratio {ratio:.1f}x (diffuse {diffuse_err:.3e} "
            f"vs full model {specular_err:.3e}, need >= 3x)")


def test_solver_matches_dense_grid_search():
    material = Material(k_d=0.5, k_s=0.5, shininess=150.0)
    images, _, usable = specular_sphere(material)
    lights = rig(1.2, 1.2)
    crop = np.zeros_like(usable)
    crop[55:58, 40:43] = True
    assert (usable & crop).sum() == 9
    solved = blinn_phong_pps_solve(images, lights, material, SPHERE_INTR,
                                   mask=usable & crop)
    assert solved.mask[crop].all()

    f = SPHERE_INTR.focal_length
    dirs = np.stack([li.direction for li in lights])
    norms = np.linalg.norm(dirs, axis=1)
    unit = dirs / norms[:, None]
    candidates = np.arange(-2.0, 2.0 + 1e-9, 1e-3)

    started = time.perf_counter()
    worst = 0.0
    for r, c in zip(*np.nonzero(crop)):
        x = (c - SPHERE_INTR.delta_x) * SPHERE_INTR.h_x
        y = (r - SPHERE_INTR.delta_y) * SPHERE_INTR.h_y
        I = np.array([img.data[r, c] for img in images])
        view = np.array([x, y, f])
        view /= np.linalg.norm(view)
        half = unit + view
        half /= np.linalg.norm(half, axis=1)[:, None]
        best_val, best_xy = np.inf, None
        for lo in range(0, candidates.size, 400):
            gx = candidates[lo:lo + 400][:, None]
            gy = candidates[None, :]
            w = x * gx + y * gy + 1.0
            n1, n2 = f * gx + 0.0 * gy, f * gy + 0.0 * gx
            nn = np.sqrt(n1 * n1 + n2 * n2 + w * w)
            objective = 0.0
            for k in range(3):
                cosine = (dirs[k, 0] * n1 + dirs[k, 1] * n2 + dirs[k, 2] * w) / nn
                diffuse = material.k_d * (lights[k].diffuse_intensity / norms[k]) * cosine
                u = (half[k, 0] * n1 + half[k, 1] * n2 + half[k, 2] * w) / nn
                glint = (material.k_s * lights[k].specular_intensity
                         * np.where(u > 0.0, u, 0.0) ** material.shininess)
                residual = I[k] - (diffuse + glint)
                objective = objective + residual * residual
            i, j = np.unravel_index(np.argmin(objective), objective.shape)
            if objective[i, j] < best_val:
                best_val, best_xy = objective[i, j], (gx[i, 0], gy[0, j])
        worst = max(worst,
                    abs(best_xy[0] - solved.gx[r, c]),
                    abs(best_xy[1] - solved.gy[r, c]))
    elapsed = time.perf_counter() - started
    verdict("solver vs dense grid search", worst < 2e-3,
            f"max component gap {worst:.3e} < 2e-03 over a 3x3 crop "
            f"(step 1e-03 on [-2,2]^2, {elapsed:.1f} s)")


def test_integrator_projection_property():
    rng = np.random.default_rng(17)
    mask = np.ones((64, 64), dtype=bool)
    worst = 0.0
    for hx, hy in ((1.0, 1.0), (0.5, 0.25)):
        for _ in range(3):
            u = rng.standard_normal((64, 64))
            v = _integrate_edges(np.diff(u, axis=1) / hx, np.diff(u, axis=0) / hy,
                                 mask, hx, hy)
            worst = max(worst, np.abs(v - (u - u.mean())).max())
    verdict("integrator projection property", worst < 1e-8,
            f"max |integrate(grad u) - (u - mean)| {worst:.3e} < 1e-08 "
            f"on six random 64x64 fields")


def test_analytic_jacobian_matches_finite_differences():
    """The normal equations J^T f and J^T J bp-pps hands the LM engine,
    from the coefficient rows of an LM block as fit forms them, against
    those of the central-difference Jacobian of its residuals, over every
    pixel of a specular plane."""
    intr = CameraIntrinsics(focal_length=1.0, h_x=0.02, h_y=0.02,
                            delta_x=7.5, delta_y=7.5)
    grad = GradientField(gx=np.full((16, 16), 0.4), gy=np.full((16, 16), -0.25))
    material = Material(k_d=0.5, k_s=0.5, shininess=30.0)
    lights = rig(1.2, 1.2)
    images = list(shade_pixels(grad, ..., lights, material, intr))
    X, Y = np.broadcast_arrays(*pixel_axes(16, 16, intr))
    block = _ShadingModel(X.ravel(), Y.ravel(),
                          np.stack([img.ravel() for img in images]),
                          lights, material, intr.focal_length).block(slice(None))

    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        r, c = rng.integers(0, 16, size=2)
        idx = np.array([r * 16 + c])
        state = rng.uniform(-1.0, 1.0, size=2)
        _, grad, (h00, h01, h11) = block.normal_equations(state[:, None], idx)
        res = block.residuals(state[:, None], idx)[:, 0]
        fd = finite_difference_jacobian(lambda v: block.residuals(v[:, None], idx)[:, 0], state)
        for analytic, reference in ((grad[:, 0], fd.T @ res),
                                    (np.array([[h00, h01], [h01, h11]])[..., 0], fd.T @ fd)):
            worst = max(worst, np.abs(analytic - reference).max()
                        / max(np.abs(reference).max(), 1e-12))
    verdict("analytic Jacobian", worst < 1e-4,
            f"max relative gap to central differences {worst:.3e} < 1e-04 "
            f"at 100 random states")


def test_conditioning_flags_degenerate_rigs():
    intr = CameraIntrinsics(focal_length=1.0, h_x=0.01, h_y=0.01,
                            delta_x=15.5, delta_y=11.5)
    in_plane = [LightSource(np.array(d)) for d in
                ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (1.0, 1.0, 0.0))]
    flat = sensitivity_indicator(in_plane, 32, 24, intr)
    # a generic rig: non-coplanar with no incidental component cancellations
    generic = [LightSource(np.array(d)) for d in
               ((1.0, 1.0, 1.0), (-1.0, 1.0, 1.0), (0.0, -1.0, 1.0))]
    good = sensitivity_indicator(generic, 32, 24, intr)
    flat_ok = bool(flat.flags[3:].all())
    good_ok = bool(~good.flags[:3].any()) and good.non_coplanar
    verdict("light-rig conditioning", flat_ok and good_ok,
            f"axis-plane rig flags expressions 4-11 at all "
            f"{flat.flags.shape[1] * flat.flags.shape[2]} px: {flat_ok}; "
            f"non-coplanar rig leaves expressions 1-3 unflagged: {good_ok}")


def test_specular_peaks_sit_on_mirror_directions():
    material = Material(k_d=0.0, k_s=0.5, shininess=150.0)
    images, _, _ = specular_sphere(material)
    depth = make_sphere_depth(128, 128, SPHERE_INTR, (0.0, 0.0, 4.0), 1.0)
    f = SPHERE_INTR.focal_length

    # Continuous oracle: on a dense sub-pixel grid, compute the analytic
    # sphere depth (q z^2 - 8 z + 15 = 0 along the ray through (x, y, f)),
    # differentiate implicitly for the surface normal, reflect each light
    # about it, and locate where the reflection best aligns with the view.
    cols = np.linspace(20.0, 107.0, 2200)
    rows = np.linspace(20.0, 107.0, 2200)
    X, Y = np.meshgrid((cols - SPHERE_INTR.delta_x) * SPHERE_INTR.h_x,
                       (rows - SPHERE_INTR.delta_y) * SPHERE_INTR.h_y)
    q = (X**2 + Y**2 + f * f) / (f * f)
    disc = 64.0 - 60.0 * q
    inside = disc > 0.0
    z = np.where(inside, (8.0 - np.sqrt(np.where(inside, disc, 0.0))) / (2.0 * q), np.nan)
    den = 2.0 * q * z - 8.0
    nux = -z * (2.0 * X / (f * f)) / den
    nuy = -z * (2.0 * Y / (f * f)) / den
    w = X * nux + Y * nuy + 1.0
    N = np.stack([f * nux, f * nuy, w], axis=-1)
    N /= np.linalg.norm(N, axis=-1, keepdims=True)
    V = np.stack([X, Y, np.full_like(X, f)], axis=-1)
    V /= np.linalg.norm(V, axis=-1, keepdims=True)

    distances = []
    for img, light in zip(images, rig(1.2, 1.2)):
        L = light.unit
        mirror = 2.0 * np.sum(N * L, axis=-1, keepdims=True) * N - L
        align = np.where(inside, np.sum(mirror * V, axis=-1), -np.inf)
        i, j = np.unravel_index(np.argmax(align), align.shape)
        lit = np.where(depth.mask, img.data, -1.0)
        ri, ci = np.unravel_index(np.argmax(lit), lit.shape)
        distances.append(float(np.hypot(ri - rows[i], ci - cols[j])))
    worst = max(distances)
    verdict("specular peak placement", worst <= 1.0,
            f"render argmax vs mirror-reflection point: "
            f"{', '.join(f'{d:.2f}' for d in distances)} px, all <= 1 px")


def test_principal_point_offset_degrades_reconstruction(sphere_loop):
    centered, _ = sphere_loop["ppn"]
    offset, _ = sphere_loop["ppn_offset"]
    verdict("principal-point sensitivity", offset > centered,
            f"mse_normalized {offset:.3e} with a 16 px offset vs "
            f"{centered:.3e} centered (must strictly increase)")
