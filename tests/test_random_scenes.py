"""Seeded random exact scenes: the solver's wrong-minimum tail.

Each scene is a 64x64 depth map, a tilted plane plus one to four Gaussian
bumps, seen by a random camera under a random non-coplanar three-light rig
and a random material, and rendered in float by render_scene.  The truth
fits every pixel with residual exactly 0, so an accepted pixel whose
gradient is off the truth is a fit in a wrong minimum that passed the
residual test.
"""

import numpy as np

from psbp.core import CameraIntrinsics, DepthMap, LightSource, Material, input_mask
from psbp.geometry import pixel_grid
from psbp.render import SceneSpec, render_scene
from psbp.solve import blinn_phong_pps_solve

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
    """A seeded exact scene: (SceneSpec, its images, their gradient field)."""
    rng = np.random.default_rng(seed)
    pitch = rng.uniform(0.004, 0.012)
    intr = CameraIntrinsics(focal_length=1.0, h_x=pitch, h_y=pitch * rng.uniform(0.8, 1.25),
                            delta_x=rng.uniform(24.0, 40.0), delta_y=rng.uniform(24.0, 40.0))
    X, Y = pixel_grid(SIZE, SIZE, intr)
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
    images, grad, mask = render_scene(scene)
    return scene, images, grad, mask & input_mask(images)


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
