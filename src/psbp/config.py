"""JSON pipeline configuration: schema, defaults, validation.

A configuration is a single JSON object.  Common blocks:

    "mode":        "render" | "reconstruct" | "evaluate" | "conditioning"
    "out":         output directory (created if missing)
    "intrinsics":  {"focal_length", "pixel_pitch" (scalar or [hx, hy]),
                    "principal_point" [dx, dy]}; pixel (col, row) maps to
                   x = hx*(col - dx), y = hy*(row - dy).  A raw-pixel camera
                   is pixel_pitch 1, principal_point [0, 0] and the focal
                   length in pixels.
    "lights":      exactly 3 of {"direction" [a, b, c],
                    "diffuse_intensity", "specular_intensity"}
    "material":    {"diffuse", "specular", "shininess"}

Mode-specific blocks:

    render:        "scene" — {"type": "sphere", "size" [W, H], "center",
                   "radius", "projection", "model"} or {"type": "depth-map",
                   "path", "projection", "model"}; a depth-map's mask is
                   the sibling mask.pgm when present, else its z != 0
    reconstruct:   "method" ("lambert-pps" | "bp-pps" | "lambert-ppn" |
                   "bp-ppn") and "images" (exactly 3 PGM paths)
    evaluate:      "images", "estimate_dir" (a reconstruct output
                   directory), "ground_truth" (PFM; its mask is
                   "ground_truth_mask" when given, else the sibling
                   mask.pgm when present, else its z != 0), optional
                   "reprojection_model"
    conditioning:  "conditioning": {"size" [W, H]}

Every number must be finite.  Relative paths are resolved against the
config file's directory (a relative --out flag against the working
directory).  Every validation failure raises ConfigError
naming the offending field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import CameraIntrinsics, ConfigError, LightSource, Material
from .fileio import read_json
from .render import (
    MODEL_BLINN_PHONG,
    MODEL_LAMBERTIAN,
    PROJECTION_ORTHOGRAPHIC,
    PROJECTION_PERSPECTIVE,
)

MODE_RENDER = "render"
MODE_RECONSTRUCT = "reconstruct"
MODE_EVALUATE = "evaluate"
MODE_CONDITIONING = "conditioning"
MODES = (MODE_RENDER, MODE_RECONSTRUCT, MODE_EVALUATE, MODE_CONDITIONING)

METHOD_LAMBERT_PPN = "lambert-ppn"
METHOD_LAMBERT_PPS = "lambert-pps"
METHOD_BP_PPN = "bp-ppn"
METHOD_BP_PPS = "bp-pps"
METHODS = (METHOD_LAMBERT_PPN, METHOD_LAMBERT_PPS, METHOD_BP_PPN, METHOD_BP_PPS)

SCENE_SPHERE = "sphere"
SCENE_DEPTH_MAP = "depth-map"

_TOP_LEVEL_KEYS = {
    "mode", "method", "out", "intrinsics", "lights", "material",
    "scene", "images", "ground_truth", "ground_truth_mask", "estimate_dir",
    "conditioning", "reprojection_model",
}


@dataclass
class SceneConfig:
    """Synthetic-scene description for render mode."""

    type: str
    size: tuple = (128, 128)
    center: tuple = (0.0, 0.0, 4.0)
    radius: float = 1.0
    path: Path | None = None
    projection: str = PROJECTION_PERSPECTIVE
    model: str = MODEL_BLINN_PHONG


@dataclass
class PipelineConfig:
    """Validated pipeline invocation."""

    mode: str
    out: Path
    intrinsics: CameraIntrinsics
    method: str | None = None
    lights: list = field(default_factory=list)
    material: Material | None = None
    scene: SceneConfig | None = None
    images: list = field(default_factory=list)
    ground_truth: Path | None = None
    ground_truth_mask: Path | None = None
    estimate_dir: Path | None = None
    conditioning_size: tuple | None = None
    reprojection_model: str = MODEL_LAMBERTIAN


def _fail(name, message):
    raise ConfigError(f"config field {name!r}: {message}")


def _get(payload, name, required, default=None):
    if name not in payload:
        if required:
            _fail(name, "missing required field")
        return default
    return payload[name]


def _finite(value):
    """value as a float if it is a finite JSON number, else None."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        value = float(value)
    except OverflowError:
        return None
    return value if math.isfinite(value) else None


def _number(payload, name, required=False, default=None):
    value = _get(payload, name, required, default)
    if value is None:
        return None
    number = _finite(value)
    if number is None:
        _fail(name, f"expected a finite number, got {value!r}")
    return number


def _vector(payload, name, length, required=False, default=None):
    value = _get(payload, name, required, default)
    if value is None:
        return None
    numbers = [_finite(v) for v in value] if isinstance(value, (list, tuple)) else []
    if len(numbers) != length or None in numbers:
        _fail(name, f"expected a list of {length} finite numbers, got {value!r}")
    return tuple(numbers)


def _size(block, name, required=False, default=None):
    """The block's "size", a [W, H] of positive integers, as a tuple of ints;
    name is the field a bad size is reported under."""
    size = _vector(block, "size", 2, required, default)
    if size[0] < 1 or size[1] < 1 or size != (int(size[0]), int(size[1])):
        _fail(name, f"expected positive integers, got {list(size)}")
    return int(size[0]), int(size[1])


def _string(payload, name, required=False, default=None, choices=None):
    value = _get(payload, name, required, default)
    if value is None:
        return None
    if not isinstance(value, str):
        _fail(name, f"expected a string, got {value!r}")
    if choices is not None and value not in choices:
        _fail(name, f"expected one of {sorted(choices)}, got {value!r}")
    return value


def _path(base_dir, value):
    p = Path(value)
    return p if p.is_absolute() else (base_dir / p)


def _parse_intrinsics(payload):
    block = _get(payload, "intrinsics", True)
    if not isinstance(block, dict):
        _fail("intrinsics", "expected an object")
    f = _number(block, "focal_length", required=True)
    if isinstance(block.get("pixel_pitch"), list):
        hx, hy = _vector(block, "pixel_pitch", 2)
    else:
        hx = hy = _number(block, "pixel_pitch", default=1.0)
    delta = _vector(block, "principal_point", 2, default=(0.0, 0.0))
    try:
        return CameraIntrinsics(focal_length=f, h_x=hx, h_y=hy,
                                delta_x=delta[0], delta_y=delta[1])
    except ValueError as exc:
        _fail("intrinsics", str(exc))


def _parse_lights(payload):
    block = _get(payload, "lights", True)
    if not isinstance(block, list) or len(block) != 3:
        _fail("lights", "expected a list of exactly 3 light objects")
    lights = []
    for i, entry in enumerate(block):
        if not isinstance(entry, dict):
            _fail(f"lights[{i}]", "expected an object")
        direction = _vector(entry, "direction", 3, required=True)
        try:
            lights.append(
                LightSource(
                    direction=np.array(direction),
                    diffuse_intensity=_number(entry, "diffuse_intensity", default=1.0),
                    specular_intensity=_number(entry, "specular_intensity", default=1.0),
                )
            )
        except ValueError as exc:
            _fail(f"lights[{i}]", str(exc))
    return lights


def _parse_material(payload, required):
    block = _get(payload, "material", required)
    if block is None:
        return None
    if not isinstance(block, dict):
        _fail("material", "expected an object")
    try:
        return Material(
            k_d=_number(block, "diffuse", default=1.0),
            k_s=_number(block, "specular", default=0.0),
            shininess=_number(block, "shininess", default=1.0),
        )
    except ValueError as exc:
        _fail("material", str(exc))


def _parse_scene(payload, base_dir):
    block = _get(payload, "scene", True)
    if not isinstance(block, dict):
        _fail("scene", "expected an object")
    kind = _string(block, "type", required=True, choices={SCENE_SPHERE, SCENE_DEPTH_MAP})
    projection = _string(block, "projection", default=PROJECTION_PERSPECTIVE,
                         choices={PROJECTION_PERSPECTIVE, PROJECTION_ORTHOGRAPHIC})
    model = _string(block, "model", default=MODEL_BLINN_PHONG,
                    choices={MODEL_LAMBERTIAN, MODEL_BLINN_PHONG})
    scene = SceneConfig(type=kind, projection=projection, model=model)
    if kind == SCENE_SPHERE:
        scene.size = _size(block, "scene.size", default=(128.0, 128.0))
        scene.center = _vector(block, "center", 3, default=(0.0, 0.0, 4.0))
        radius = _number(block, "radius", default=1.0)
        if radius <= 0:
            _fail("scene.radius", "must be positive")
        scene.radius = radius
    else:
        path = _string(block, "path", required=True)
        scene.path = _path(base_dir, path)
    return scene


def _parse_images(payload, base_dir):
    block = _get(payload, "images", True)
    if not isinstance(block, list) or len(block) != 3 or not all(
        isinstance(p, str) for p in block
    ):
        _fail("images", "expected a list of exactly 3 image paths")
    return [_path(base_dir, p) for p in block]


def parse_config(payload, base_dir=".") -> PipelineConfig:
    """Validate a raw JSON payload into a PipelineConfig."""
    if not isinstance(payload, dict):
        raise ConfigError("config root must be a JSON object")
    base_dir = Path(base_dir)
    for key in payload:
        if key not in _TOP_LEVEL_KEYS:
            _fail(key, "unknown field")

    mode = _string(payload, "mode", required=True, choices=set(MODES))
    out = _path(base_dir, _string(payload, "out", required=True))

    cfg = PipelineConfig(mode=mode, out=out, intrinsics=_parse_intrinsics(payload))
    cfg.lights = _parse_lights(payload)
    cfg.reprojection_model = _string(
        payload, "reprojection_model", default=MODEL_LAMBERTIAN,
        choices={MODEL_LAMBERTIAN, MODEL_BLINN_PHONG},
    )

    if mode == MODE_RENDER:
        cfg.scene = _parse_scene(payload, base_dir)
        cfg.material = _parse_material(payload, required=True)
    elif mode == MODE_RECONSTRUCT:
        cfg.method = _string(payload, "method", required=True, choices=set(METHODS))
        # every solver divides by the diffuse intensities; render accepts 0
        for i, light in enumerate(cfg.lights):
            if light.diffuse_intensity <= 0:
                _fail(f"lights[{i}].diffuse_intensity", "must be positive to reconstruct")
        cfg.images = _parse_images(payload, base_dir)
        needs_material = cfg.method in (METHOD_BP_PPN, METHOD_BP_PPS)
        cfg.material = _parse_material(payload, required=needs_material)
    elif mode == MODE_EVALUATE:
        cfg.images = _parse_images(payload, base_dir)
        cfg.estimate_dir = _path(base_dir, _string(payload, "estimate_dir", required=True))
        cfg.ground_truth = _path(base_dir, _string(payload, "ground_truth", required=True))
        gt_mask = _string(payload, "ground_truth_mask")
        cfg.ground_truth_mask = _path(base_dir, gt_mask) if gt_mask else None
        cfg.material = _parse_material(payload, required=False)
        cfg.method = _string(payload, "method", choices=set(METHODS))
    else:
        block = _get(payload, "conditioning", True)
        if not isinstance(block, dict):
            _fail("conditioning", "expected an object")
        cfg.conditioning_size = _size(block, "conditioning.size", required=True)
    return cfg


def load_config(path, overrides=None) -> PipelineConfig:
    """Read a JSON config file and apply CLI overrides before validation.

    Paths in the file resolve against the file's directory; a relative
    "out" override is a command-line path and resolves against the working
    directory.
    """
    path = Path(path)
    try:
        payload = read_json(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError("config root must be a JSON object")
    overrides = {k: v for k, v in (overrides or {}).items() if v is not None}
    cfg = parse_config(dict(payload, **overrides), base_dir=path.parent)
    if "out" in overrides:
        cfg.out = Path(overrides["out"])
    return cfg
