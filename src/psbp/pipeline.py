"""End-to-end pipeline stages behind the command-line interface.

Artifact layout (all inside the configured output directory):

    render:       image_1.pgm image_2.pgm image_3.pgm depth_gt.pfm mask.pgm
                  report.json timings.json
    reconstruct:  grad_x.pfm grad_y.pfm depth.pfm mask.pgm
                  [normals.pfm for PPN] [albedo.pfm for Lambertian]
                  report.json timings.json
    evaluate:     evaluation.json timings.json
    conditioning: indicator_01.pgm .. indicator_11.pgm conditioning.json

evaluate scores only the joint pixels: depth on the pixels valid in both
the estimate's and the reference's masks, and reprojection on the
estimate's pixels that are usable in every input image.

Timings live in their own file so that report/evaluation artifacts are
byte-identical across reruns of the same config on the same inputs.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from .config import (
    METHOD_BP_PPN,
    METHOD_BP_PPS,
    METHOD_LAMBERT_PPN,
    METHOD_LAMBERT_PPS,
    MODE_CONDITIONING,
    MODE_EVALUATE,
    MODE_RECONSTRUCT,
    MODE_RENDER,
    PipelineConfig,
    SCENE_SPHERE,
)
from .core import (
    ConfigError,
    DepthMap,
    GradientField,
    Material,
    NumericalError,
    input_mask,
)
from .fileio import (
    load_image,
    load_mask,
    read_json,
    read_pfm,
    save_image,
    save_mask,
    write_json,
    write_pfm,
)
from .geometry import normals_to_perspective_gradient
from .integrate import align_depth, exp_depth, poisson_integrate
from .render import (
    MODEL_BLINN_PHONG,
    MODEL_LAMBERTIAN,
    SceneSpec,
    make_sphere_depth,
    render_scene,
    shade_pixels,
)
from . import render
from .solve import (
    INDICATOR_THRESHOLD,
    blinn_phong_ortho_solve,
    blinn_phong_pps_solve,
    lambertian_pps_closed_form,
    sensitivity_indicator,
    woodham_normals,
)

# The pipeline shades through render_scene and shade_pixels alone.  The two
# one-light renderers stay bound here only because perfbench/tracing.py
# looks them up on this module by name, until its tracer drops them
# (ROADMAP item 1).
render_blinn_phong_perspective = render.render_blinn_phong_perspective
render_lambertian_perspective = render.render_lambertian_perspective

IMAGE_NAMES = ("image_1.pgm", "image_2.pgm", "image_3.pgm")
SATURATION_THRESHOLD = 0.999


class _StageTimer:
    def __init__(self):
        self.seconds = {}

    @contextmanager
    def stage(self, name):
        start = time.perf_counter()
        yield
        self.seconds[name] = time.perf_counter() - start


def _read(field, path, reader, shape=None):
    """reader(path) for a file that config field `field` names: the one
    place a bad input file is reported.  Every such file but report.json is
    one single-channel grid, and with shape it must have those dimensions.
    A file that cannot be read, parsed or used raises ConfigError naming
    the field and the file.  Callers pass this module's readers, looked up
    when they call, so that a tracer may rebind them."""
    try:
        data = reader(path)
    except (OSError, ValueError) as exc:
        # fileio's and the system's messages name the file; json's do not
        reason = str(exc) if str(path) in str(exc) else f"{path}: {exc}"
        raise ConfigError(f"config field {field!r}: {reason}") from exc
    if isinstance(data, np.ndarray) and data.ndim != 2:
        raise ConfigError(f"config field {field!r}: {path} has dimensions {data.shape}, "
                          "not one channel")
    if shape is not None and data.shape != shape:
        raise ConfigError(f"config field {field!r}: {path} has dimensions {data.shape}, "
                          f"not {shape}")
    return data


def _read_depth(field, path, shape=None, mask=None):
    """The DepthMap of the PFM at path, which config field `field` names,
    with shape when given.  Its mask is read from the file that `mask`, a
    (field, path) pair, names; by default from the PFM's sibling mask.pgm
    when there is one, and otherwise it is z > 0.  Both files are read
    through _read."""
    z = _read(field, path, read_pfm, shape)
    if mask is None:
        sibling = path.parent / "mask.pgm"
        if not sibling.exists():
            return DepthMap(z=z, mask=z > 0)
        mask = (field, sibling)
    return DepthMap(z=z, mask=_read(*mask, load_mask, z.shape))


def _load_scene_depth(cfg: PipelineConfig) -> DepthMap:
    scene = cfg.scene
    if scene.type == SCENE_SPHERE:
        return make_sphere_depth(
            scene.size[0], scene.size[1], cfg.intrinsics, scene.center, scene.radius,
            projection=scene.projection,
        )
    return _read_depth("scene.path", scene.path)


def run_render(cfg: PipelineConfig):
    """Render the three photometric-stereo inputs plus ground truth."""
    timer = _StageTimer()
    cfg.out.mkdir(parents=True, exist_ok=True)
    with timer.stage("scene"):
        depth = _load_scene_depth(cfg)
    scene = SceneSpec(
        depth=depth, material=cfg.material, lights=cfg.lights,
        intrinsics=cfg.intrinsics, projection=cfg.scene.projection,
        model=cfg.scene.model,
    )
    with timer.stage("shade"):
        images, _, mask = render_scene(scene)
    with timer.stage("write"):
        for name, img in zip(IMAGE_NAMES, images):
            save_image(cfg.out / name, img.data)
        write_pfm(cfg.out / "depth_gt.pfm", np.where(mask, depth.z, 0.0))
        save_mask(cfg.out / "mask.pgm", mask)
        payload = {
            "mode": MODE_RENDER,
            "scene": cfg.scene.type,
            "model": cfg.scene.model,
            "projection": cfg.scene.projection,
            "size": list(depth.mask.shape[::-1]),
            "pixels_in_mask": int(mask.sum()),
            "images": list(IMAGE_NAMES),
        }
        write_json(cfg.out / "report.json", payload)
    write_json(cfg.out / "timings.json", {"stage_seconds": timer.seconds})
    return payload


def _load_input_images(paths, shape=None):
    """The input images, each of the given shape, or else of the first's."""
    first = _read("images", paths[0], load_image, shape)
    return [first] + [_read("images", p, load_image, first.shape) for p in paths[1:]]


def run_reconstruct(cfg: PipelineConfig):
    """Reconstruct a depth map from three input images."""
    timer = _StageTimer()
    cfg.out.mkdir(parents=True, exist_ok=True)
    with timer.stage("load"):
        grids = _load_input_images(cfg.images)
        mask = input_mask(grids, high=SATURATION_THRESHOLD)

    normals = None
    albedo = None
    with timer.stage("solve"):
        if cfg.method == METHOD_LAMBERT_PPS:
            grad, albedo = lambertian_pps_closed_form(
                grids, cfg.lights, cfg.intrinsics, mask=mask
            )
        elif cfg.method == METHOD_BP_PPS:
            grad = blinn_phong_pps_solve(
                grids, cfg.lights, cfg.material, cfg.intrinsics, mask=mask
            )
        elif cfg.method == METHOD_LAMBERT_PPN:
            normals, albedo = woodham_normals(grids, cfg.lights, mask=mask)
            grad = normals_to_perspective_gradient(normals, cfg.intrinsics)
        elif cfg.method == METHOD_BP_PPN:
            normals = blinn_phong_ortho_solve(grids, cfg.lights, cfg.material, mask=mask)
            grad = normals_to_perspective_gradient(normals, cfg.intrinsics)
        else:
            raise ConfigError(f"config field 'method': unknown method {cfg.method!r}")

    with timer.stage("integrate"):
        potential = poisson_integrate(grad, cfg.intrinsics.h_x, cfg.intrinsics.h_y)
        depth = exp_depth(potential, grad.mask)

    with timer.stage("write"):
        write_pfm(cfg.out / "grad_x.pfm", grad.gx)
        write_pfm(cfg.out / "grad_y.pfm", grad.gy)
        write_pfm(cfg.out / "depth.pfm", depth.z)
        save_mask(cfg.out / "mask.pgm", grad.mask)
        if normals is not None:
            write_pfm(cfg.out / "normals.pfm", normals.n)
        if albedo is not None:
            write_pfm(cfg.out / "albedo.pfm", albedo.values)
        payload = {
            "mode": MODE_RECONSTRUCT,
            "method": cfg.method,
            "size": list(grad.mask.shape[::-1]),
            "input_pixels": int(mask.sum()),
            "solved_pixels": int(grad.mask.sum()),
        }
        write_json(cfg.out / "report.json", payload)
    write_json(cfg.out / "timings.json", {"stage_seconds": timer.seconds})
    return payload


def reprojection_error(grad: GradientField, images, lights, material, intr,
                       model=MODEL_LAMBERTIAN, albedo=None, mask=None):
    """Per-image MSE between inputs and re-rendered images from a gradient.

    The gradient is shaded back through the chosen reflectance model, as the
    renderer shades it, at the joint mask's pixels only and with all lights
    in one pass; the Lambertian model accepts a per-pixel albedo grid in
    place of the material's constant diffuse coefficient.  Each MSE is the
    mean of the squared differences in mask order.
    """
    grids = [np.asarray(getattr(img, "data", img), dtype=np.float64) for img in images]
    joint = grad.mask if mask is None else (grad.mask & mask)
    for grid in grids:
        if grid.shape != joint.shape:
            raise ValueError(f"grid shapes {grid.shape} and {joint.shape} do not match")
    if not joint.any():
        raise ValueError("mse mask is empty")
    pix = ... if joint.all() else joint
    scale = None
    if model != MODEL_BLINN_PHONG:
        if albedo is not None:
            material, scale = Material(k_d=1.0, k_s=0.0, shininess=1.0), albedo[pix]
        else:
            material = replace(material, k_s=0.0)
    errors = []
    for grid, pred in zip(grids, shade_pixels(grad, pix, lights, material, intr)):
        if scale is not None:
            pred *= scale
        pred -= grid[pix]
        errors.append(float(np.mean(pred * pred)))
    return errors


def run_evaluate(cfg: PipelineConfig):
    """Score a reconstruction against ground truth."""
    timer = _StageTimer()
    cfg.out.mkdir(parents=True, exist_ok=True)
    with timer.stage("load"):
        est = cfg.estimate_dir
        # the PFMs stay float32 until DepthMap and GradientField widen them
        # into their frames; the albedo is cast as it multiplies
        estimate = _read_depth("estimate_dir", est / "depth.pfm",
                               mask=("estimate_dir", est / "mask.pgm"))
        shape = estimate.mask.shape
        gx, gy = (_read("estimate_dir", est / name, read_pfm, shape)
                  for name in ("grad_x.pfm", "grad_y.pfm"))
        report = est / "report.json"
        recon = _read("estimate_dir", report, read_json) if report.exists() else {}
        if not isinstance(recon, dict):
            raise ConfigError(f"config field 'estimate_dir': {report} holds no JSON object")
        method = cfg.method or recon.get("method", "unknown")

        reference = _read_depth("ground_truth", cfg.ground_truth, shape,
                                mask=(("ground_truth_mask", cfg.ground_truth_mask)
                                      if cfg.ground_truth_mask else None))

    with timer.stage("align"):
        _, mse_raw, mse_normalized = align_depth(estimate, reference)
        est_mask, gt_mask = estimate.mask, reference.mask
        del estimate, reference

    with timer.stage("reproject"):
        # read once the depth maps are let go, so the two are never held together
        grids = _load_input_images(cfg.images, shape)
        grad = GradientField(gx=gx, gy=gy, mask=est_mask)
        # grad holds its own copy of the estimate's mask
        del gx, gy, est_mask
        albedo = None
        if cfg.reprojection_model == MODEL_LAMBERTIAN and (est / "albedo.pfm").exists():
            albedo = _read("estimate_dir", est / "albedo.pfm", read_pfm, shape)
        needs_material = cfg.reprojection_model == MODEL_BLINN_PHONG or albedo is None
        if needs_material and cfg.material is None:
            raise ConfigError(
                "config field 'material': required for reprojection when the "
                "reconstruction provides no albedo map"
            )
        photometric = input_mask(grids, high=SATURATION_THRESHOLD)
        reprojection = reprojection_error(
            grad, grids, cfg.lights, cfg.material, cfg.intrinsics,
            model=cfg.reprojection_model, albedo=albedo, mask=photometric,
        )

    metrics = [("mse_raw", mse_raw), ("mse_normalized", mse_normalized),
               *((f"mse_reprojection[{i}]", e) for i, e in enumerate(reprojection))]
    for name, value in metrics:
        if not math.isfinite(value):
            raise NumericalError(f"evaluation metric {name} is {value}")

    payload = {
        "method": method,
        "mse_raw": mse_raw,
        "mse_normalized": mse_normalized,
        "mse_reprojection": reprojection,
        "pixels": {
            "estimate": int(grad.mask.sum()),
            "reference": int(gt_mask.sum()),
            "joint": int((grad.mask & gt_mask).sum()),
        },
    }
    write_json(cfg.out / "evaluation.json", payload)
    write_json(cfg.out / "timings.json", {"stage_seconds": timer.seconds})
    return payload


def run_conditioning(cfg: PipelineConfig):
    """Write per-expression degeneracy maps for the configured light rig."""
    timer = _StageTimer()
    cfg.out.mkdir(parents=True, exist_ok=True)
    width, height = cfg.conditioning_size
    with timer.stage("indicator"):
        report = sensitivity_indicator(cfg.lights, width, height, cfg.intrinsics)
    with timer.stage("write"):
        for i, flags in enumerate(report.flags, start=1):
            save_mask(cfg.out / f"indicator_{i:02d}.pgm", flags)
        payload = {
            "mode": MODE_CONDITIONING,
            "size": [width, height],
            "flagged_counts": report.flagged_counts(),
            "non_coplanar": report.non_coplanar,
            "det_proxy_min": float(report.det_proxy.min()),
            "threshold": INDICATOR_THRESHOLD,
        }
        write_json(cfg.out / "conditioning.json", payload)
    write_json(cfg.out / "timings.json", {"stage_seconds": timer.seconds})
    return payload


def run_pipeline(cfg: PipelineConfig):
    """Dispatch one validated configuration; returns the report payload."""
    if cfg.mode == MODE_RENDER:
        return run_render(cfg)
    if cfg.mode == MODE_RECONSTRUCT:
        return run_reconstruct(cfg)
    if cfg.mode == MODE_EVALUATE:
        return run_evaluate(cfg)
    if cfg.mode == MODE_CONDITIONING:
        return run_conditioning(cfg)
    raise ConfigError(f"config field 'mode': unknown mode {cfg.mode!r}")
