"""Seeded random exact scenes: the solver's wrong-minimum tail.

Each scene is a 64x64 depth map, a tilted plane plus one to four Gaussian
bumps, seen by a random camera under a random non-coplanar three-light rig
and a random material, and rendered in float by render_scene.  The truth
fits every pixel with residual exactly 0, so an accepted pixel whose
gradient is off the truth is a fit in a wrong minimum that passed the
residual test.  The same scenes re-rendered at k_s = 0 check the three
Lambertian paths against the truth and against each other, and three of
the scenes go through the CLI to check that its artifacts are
deterministic.
"""

from dataclasses import replace

import numpy as np
import pytest

from psbp import render as render_module
from psbp.cli import main
from psbp.core import CameraIntrinsics, DepthMap, LightSource, Material, input_mask
from psbp.fileio import load_image, load_mask, read_pfm, save_image, write_json, write_pfm
from psbp.geometry import normals_to_perspective_gradient, pixel_axes
from psbp.render import SceneSpec, render_scene
from psbp.solve import (
    blinn_phong_ortho_solve,
    blinn_phong_pps_solve,
    lambertian_pps_closed_form,
    woodham_normals,
)

SEEDS = range(8)
SIZE = 64


def random_rig(rng):
    """Three frontal lights whose unit directions have |det| > 0.05."""
    while True:
        directions = rng.uniform(-1.0, 1.0, (3, 3))
        directions[:, 2] = rng.uniform(0.3, 1.5, 3)
        unit = directions / np.linalg.norm(directions, axis=1, keepdims=True)
        if abs(np.linalg.det(unit)) > 0.05:
            return [LightSource(d, rng.uniform(0.8, 1.4), rng.uniform(0.8, 1.4))
                    for d in directions]


def random_scene(seed):
    """A seeded exact scene, rendered: see render."""
    rng = np.random.default_rng(seed)
    pitch = rng.uniform(0.004, 0.012)
    intr = CameraIntrinsics(focal_length=1.0, h_x=pitch, h_y=pitch * rng.uniform(0.8, 1.25),
                            delta_x=rng.uniform(24.0, 40.0), delta_y=rng.uniform(24.0, 40.0))
    X, Y = pixel_axes(SIZE, SIZE, intr)
    z = rng.uniform(3.0, 5.0) + rng.uniform(-0.5, 0.5) * X + rng.uniform(-0.5, 0.5) * Y
    span = SIZE * pitch
    for _ in range(rng.integers(1, 5)):
        cx, cy = rng.uniform(-0.4, 0.4, 2) * span
        width = rng.uniform(0.08, 0.3) * span
        z -= rng.uniform(-0.5, 0.5) * width * np.exp(-((X - cx) ** 2 + (Y - cy) ** 2)
                                                     / (2.0 * width * width))
    k_d = rng.uniform(0.2, 0.8)
    material = Material(k_d=k_d, k_s=rng.uniform(0.1, 1.0 - k_d),
                        shininess=rng.uniform(5.0, 200.0))
    scene = SceneSpec(depth=DepthMap(z=z, mask=np.ones_like(z, dtype=bool)),
                      material=material, lights=random_rig(rng), intrinsics=intr)
    return render(scene)


def render(scene):
    """(scene, its images, their gradient field, the mask of their usable
    pixels)."""
    images, grad, mask = render_scene(scene)
    return scene, images, grad, mask & input_mask(images)


def diffuse_scene(seed):
    """random_scene(seed) re-rendered at k_s = 0."""
    scene = random_scene(seed)[0]
    return render(replace(scene, material=replace(scene.material, k_s=0.0)))


# bp-pps's accepted pixels with gradient error > 1e-6 over the eight scenes,
# measured before the shading kernel took its linear-coefficient form.  It is
# a measured defect, not a tolerance: the residual test cannot tell these
# wrong minima from the truth, and the count may only fall.
WRONG_ACCEPTED_BOUND = 30


def test_bp_pps_wrong_accepted_pixels_do_not_grow():
    wrong = 0
    accepted = 0
    candidates = 0
    for seed in SEEDS:
        scene, images, grad, mask = random_scene(seed)
        est = blinn_phong_pps_solve(images, scene.lights, scene.material, scene.intrinsics,
                                    mask=mask)
        error = np.hypot(est.gx - grad.gx, est.gy - grad.gy)
        assert np.isfinite(error).all()
        wrong += int((est.mask & (error > 1e-6)).sum())
        accepted += int(est.mask.sum())
        candidates += int(mask.sum())
    print(f"{wrong} wrong of {accepted} accepted, {candidates} candidates")
    assert accepted > 0.95 * candidates
    assert wrong <= WRONG_ACCEPTED_BOUND


def test_lambertian_solvers_are_exact_on_diffuse_scenes():
    # The perspective closed form recovers the truth, and Woodham's
    # orthographic normals, converted at each pixel, give its gradients:
    # the Lambertian shading of a pixel depends on its normal alone.
    worst_truth = worst_pair = 0.0
    for seed in SEEDS:
        scene, images, grad, mask = diffuse_scene(seed)
        closed, _ = lambertian_pps_closed_form(images, scene.lights, scene.intrinsics, mask=mask)
        normals, _ = woodham_normals(images, scene.lights, mask=mask)
        converted = normals_to_perspective_gradient(normals, scene.intrinsics)
        assert closed.mask.all() and converted.mask.all()
        worst_truth = max(worst_truth, np.abs(closed.gx - grad.gx).max(),
                          np.abs(closed.gy - grad.gy).max())
        worst_pair = max(worst_pair, np.abs(converted.gx - closed.gx).max(),
                         np.abs(converted.gy - closed.gy).max())
    print(f"closed form vs truth {worst_truth:.2e}, converted Woodham vs closed form "
          f"{worst_pair:.2e}")
    assert worst_truth <= 1e-12
    assert worst_pair <= 1e-12


def test_bp_ortho_solve_is_finite_on_specular_scenes():
    # the suite turns any warning of the fit into a failure
    for seed in SEEDS:
        scene, images, _, mask = random_scene(seed)
        normals = blinn_phong_ortho_solve(images, scene.lights, scene.material, mask=mask)
        assert np.isfinite(normals.n).all() and normals.mask.any()


def run_cli_loop(scene, depth_path, root):
    """The CLI on a scene's depth map, in root: render it (16-bit images),
    requantize the images to 8 bits, and from each bit depth reconstruct
    with lambert-pps, lambert-ppn, bp-pps and bp-ppn and evaluate, the
    Lambertian methods under the Lambertian model with their albedo and the
    Blinn-Phong ones under Blinn-Phong.  Every config holds paths relative to root."""
    intr, material = scene.intrinsics, scene.material
    common = {
        "intrinsics": {"focal_length": intr.focal_length, "pixel_pitch": [intr.h_x, intr.h_y],
                       "principal_point": [intr.delta_x, intr.delta_y]},
        "lights": [{"direction": light.direction.tolist(),
                    "diffuse_intensity": light.diffuse_intensity,
                    "specular_intensity": light.specular_intensity} for light in scene.lights],
        "material": {"diffuse": material.k_d, "specular": material.k_s,
                     "shininess": material.shininess},
    }
    runs = [dict(common, mode="render", out="render",
                 scene={"type": "depth-map", "path": str(depth_path)})]
    for bits in (8, 16):
        images = [f"{'render8' if bits == 8 else 'render'}/image_{i}.pgm" for i in (1, 2, 3)]
        for method, model in (("lambert-pps", "lambertian"), ("lambert-ppn", "lambertian"),
                              ("bp-pps", "blinn-phong"), ("bp-ppn", "blinn-phong")):
            recon = f"recon{bits}_{method}"
            runs += [dict(common, mode="reconstruct", out=recon, method=method, images=images),
                     dict(common, mode="evaluate", out=f"eval{bits}_{method}", images=images,
                          estimate_dir=recon, ground_truth="render/depth_gt.pfm",
                          reprojection_model=model)]
    root.mkdir()
    for i, payload in enumerate(runs):
        config = root / f"config_{i}.json"
        write_json(config, payload)
        assert main([payload["mode"], "--config", str(config)]) == 0
        if payload["mode"] == "render":
            (root / "render8").mkdir()
            for name in ("image_1.pgm", "image_2.pgm", "image_3.pgm"):
                save_image(root / "render8" / name, load_image(root / "render" / name),
                           maxval=255)


@pytest.mark.parametrize("seed", range(3))
def test_cli_artifacts_are_deterministic(seed, tmp_path, monkeypatch):
    # A rerun writes every artifact byte for byte, and so does a run whose
    # pixel blocks are 37 pixels, which divide neither the 64-pixel rows nor
    # any mask count here; only timings.json may differ.  lambert-ppn and
    # lambert-pps solve the same per-pixel Lambertian system, so they keep
    # the same pixels and write the same gradients and depth.
    scene = random_scene(seed)[0]
    write_pfm(tmp_path / "depth.pfm", scene.depth.z)
    run_cli_loop(scene, tmp_path / "depth.pfm", tmp_path / "first")
    run_cli_loop(scene, tmp_path / "depth.pfm", tmp_path / "rerun")
    monkeypatch.setattr(render_module, "PIXEL_BLOCK", 37)
    run_cli_loop(scene, tmp_path / "depth.pfm", tmp_path / "blocks_of_37")
    first = artifacts(tmp_path / "first")
    # 17 configs, 6 render files, 3 8-bit images, and per bit depth 6
    # lambert-pps files, 7 lambert-ppn files, 5 bp-pps files, 6 bp-ppn
    # files and 4 evaluation.json
    assert len(first) == 82
    assert artifacts(tmp_path / "rerun") == first
    assert artifacts(tmp_path / "blocks_of_37") == first
    for bits in (8, 16):
        ppn, pps = (tmp_path / "first" / f"recon{bits}_lambert-{m}" for m in ("ppn", "pps"))
        mask = load_mask(pps / "mask.pgm")
        assert mask.sum() > 0.9 * mask.size
        assert np.array_equal(load_mask(ppn / "mask.pgm"), mask)
        for name in ("grad_x.pfm", "grad_y.pfm", "depth.pfm"):
            a, b = read_pfm(ppn / name)[mask], read_pfm(pps / name)[mask]
            assert np.abs(a - b).max() <= 1e-6 * np.abs(b).max(), (bits, name)


def artifacts(root):
    """Every file under root but timings.json, by relative path, with its
    bytes."""
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*")
            if p.is_file() and p.name != "timings.json"}
