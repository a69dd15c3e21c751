"""Seeded input generator shared by every benchmark workload.

A workload is a set of three CLI configs (render, reconstruct, evaluate)
plus, for the relief, a depth map written as PFM.  The seed sets the sphere
jitter, the relief bump placement and the sensor noise; the program only
ever sees the generated files.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

RIG_DIRECTIONS = ((0.0, 0.0, 1.0), (1.0, 0.0, 2.0), (0.0, 1.0, 2.0))
# Pixel pitch of the acceptance suite's 128-pixel sphere; larger renders
# keep its field of view.
SPHERE_PITCH_128 = 0.0046875
# The acceptance relief spans 150 px at 0.004 per pixel.
RELIEF_WIDTH_METRIC = 150 * 0.004
NOISE_SIGMA = 1e-3
IMAGE_NAMES = ("image_1.pgm", "image_2.pgm", "image_3.pgm")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    method: str
    mse_gate: float
    noise: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sphere-specular-pps",
            "paper's own case at 512^2: heavy use of both batched LM and masked CG",
            method="bp-pps", mse_gate=1e-2,
        ),
        Workload(
            "relief-diffuse-lpps",
            "1024x768 Lambertian relief: closed form + DCT, no LM or CG; render and I/O control",
            method="lambert-pps", mse_gate=1e-2,
        ),
        Workload(
            "sphere-noisy-pps",
            "256^2 sphere with sigma=1e-3 noise: LM retries and rejects, CG on a fragmented mask",
            # Seeds 0-9 and 100-109 give 4.2e-3 to 7.0e-3; the acceptance
            # suite's 1e-2 leaves too little margin for unseen seeds.
            method="bp-pps", mse_gate=1.5e-2, noise=True,
        ),
    )
}


def _rig():
    return [{"direction": list(d), "diffuse_intensity": 1.2, "specular_intensity": 1.2}
            for d in RIG_DIRECTIONS]


def _intrinsics(width, height, pitch):
    return {"focal_length": 1.0, "pixel_pitch": pitch,
            "principal_point": [(width - 1) / 2.0, (height - 1) / 2.0]}


def relief_depth(width, height, pitch, rng):
    """The acceptance suite's relief formula with seeded bump centres."""
    cols, rows = np.meshgrid(np.arange(width, dtype=float), np.arange(height, dtype=float))
    x = (cols - (width - 1) / 2.0) * pitch
    y = (rows - (height - 1) / 2.0) * pitch
    (ax, ay), (bx, by) = rng.uniform(-0.02, 0.02, size=(2, 2))
    return (3.5
            - 0.35 * np.exp(-((x - 0.08 - ax) ** 2 + (y + 0.05 - ay) ** 2) / 0.030)
            - 0.25 * np.exp(-((x + 0.15 - bx) ** 2 + (y - 0.10 - by) ** 2) / 0.018)
            - 0.18 * np.exp(-(x**2 + y**2) / 0.12)
            + 0.10 * np.sin(6.0 * x) * np.cos(5.0 * y) * np.exp(-(x**2 + y**2) / 0.25))


def generate(workload: Workload, seed: int, inputs_dir, scale=1.0):
    """Write the workload's inputs into inputs_dir and return the three
    mode configs (dicts with paths relative to a loop directory that sits
    next to inputs_dir).  scale shrinks the image size for smoke runs."""
    from psbp.fileio import write_pfm

    rng = np.random.default_rng(seed)
    inputs_dir.mkdir(parents=True, exist_ok=True)
    if workload.name == "relief-diffuse-lpps":
        width, height = int(1024 * scale), int(768 * scale)
        pitch = RELIEF_WIDTH_METRIC / width
        write_pfm(inputs_dir / "relief.pfm",
                  relief_depth(width, height, pitch, rng).astype(np.float32))
        scene = {"type": "depth-map", "path": f"../{inputs_dir.name}/relief.pfm",
                 "model": "lambertian"}
        material = {"diffuse": 0.7, "specular": 0.0, "shininess": 1.0}
    else:
        size = int((512 if workload.name == "sphere-specular-pps" else 256) * scale)
        width = height = size
        pitch = SPHERE_PITCH_128 * 128 / size
        cx, cy = rng.uniform(-0.01, 0.01, size=2)
        scene = {"type": "sphere", "size": [size, size],
                 "center": [float(cx), float(cy), 4.0], "radius": 1.0}
        material = {"diffuse": 0.5, "specular": 0.5, "shininess": 150.0}

    common = {"intrinsics": _intrinsics(width, height, pitch), "lights": _rig(),
              "material": material}
    images = [f"render/{n}" for n in IMAGE_NAMES]
    configs = {
        "render": dict(common, mode="render", out="render", scene=scene),
        "reconstruct": dict(common, mode="reconstruct", out="recon",
                            method=workload.method, images=images),
        "evaluate": dict(common, mode="evaluate", out="eval", images=images,
                         estimate_dir="recon", ground_truth="render/depth_gt.pfm",
                         reprojection_model="blinn-phong"),
    }
    return configs


def add_sensor_noise(render_dir, seed):
    """Add N(0, NOISE_SIGMA) to every pixel of the three renders, then clip
    and re-quantize to 16 bits through the package's own PGM writer.  The
    same seed gives the same noisy files on every loop."""
    from psbp.fileio import load_image, save_image

    rng = np.random.default_rng([seed, 1])
    for name in IMAGE_NAMES:
        path = render_dir / name
        img = load_image(path)
        save_image(path, img + rng.normal(0.0, NOISE_SIGMA, size=img.shape))
