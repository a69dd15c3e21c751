"""Forward rendering under Lambertian and Blinn-Phong reflectance.

The Blinn-Phong model is computed in one function, perspective_shading, for
a sequence of lights at log-depth gradients with normal direction
m = (f*gx, f*gy, x*gx + y*gy + 1), sharing the per-pixel geometry across the
lights, and with its derivatives on request.  It serves the perspective
renderer (one light per call), both Blinn-Phong solvers (bp-pps and bp-ppn,
all three lights per call) and the reprojection check, and the orthographic
renderer too: at the principal point x = y = 0 with f = 1 the perspective
shading of the slope (n1/n3, n2/n3) is the orthographic shading of the
normal n, so the orthographic renderer requires n3 > 0.  Lambertian
rendering is Blinn-Phong rendering with k_s = 0.  Renders clamp all dot
products at zero; intensities are
k_d * l_d * <diffuse> + k_s * l_s * <specular>^n and may legitimately exceed
1 for light intensities above 1.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import (
    CameraIntrinsics,
    DepthMap,
    GradientField,
    Image,
    LightSource,
    Material,
    NormalField,
)
from .geometry import halfway_vector_grid, pixel_grid

MODEL_LAMBERTIAN = "lambertian"
MODEL_BLINN_PHONG = "blinn-phong"

PROJECTION_PERSPECTIVE = "perspective"
PROJECTION_ORTHOGRAPHIC = "orthographic"


def render_blinn_phong_orthographic(
    normals: NormalField, light: LightSource, material: Material
) -> Image:
    """Orthographic Blinn-Phong: perspective_shading of the slope
    (n1/n3, n2/n3) at the principal point x = y = 0 with f = 1, whose view
    is (0, 0, 1).  Every n3 must be positive, or the slope would flip n."""
    light.require_frontal()
    n = normals.n
    if np.any(n[..., 2] <= 0.0):
        raise ValueError("orthographic rendering requires n3 > 0 at every normal")
    [shading] = perspective_shading(n[..., 0] / n[..., 2], n[..., 1] / n[..., 2], 0.0, 0.0,
                                    [light], material, 1.0)
    return Image(shading)


def perspective_shading(gx, gy, x, y, lights, material: Material, focal_length,
                        halfway=None, clamp=True, derivatives=False):
    """Blinn-Phong shading of a sequence of lights at log-depth gradients:
    the only place the reflectance model is computed.

    gx, gy, x, y are broadcastable arrays (or scalars) of log-depth gradients
    and metric image coordinates.  The normal direction is
    m = (f*gx, f*gy, x*gx + y*gy + 1), and the shading of light L is
    k_d*l_d*m.L/(|m| |L|) + k_s*l_s*max(m.h/|m|, 0)^n about the per-pixel
    halfway vector h of the light and the view ray (x, y, f) (skipped when
    k_s == 0; halfway may pass precomputed ones, an iterable of one (..., 3)
    array per light).  The per-pixel geometry, w = x*gx + y*gy + 1, |m| and
    d|m|/dgx, d|m|/dgy, is computed once per call and shared by every light.
    clamp clamps the diffuse cosine at 0 as a renderer must; left unclamped
    the shading is smooth in the gradient, as a least-squares residual needs.

    Yields one entry per light, in order: with derivatives,
    (shading, d/dgx, d/dgy) computed in the same pass; otherwise the shading
    alone.  Each light is shaded when its entry is asked for, so a caller
    that is done with one light's arrays before it asks for the next holds
    one light's arrays at a time.
    """
    f = focal_length
    specular = material.k_s != 0.0
    # Halfway vectors first, while few full-size arrays are alive: this keeps
    # a render's peak memory, and with it its page faults, down.
    if not specular:
        halfway = [None] * len(lights)
    elif halfway is None:
        halfway = [halfway_vector_grid(x, y, f, li) for li in lights]
    w = x * gx + y * gy + 1.0
    norm = np.sqrt((f * gx) ** 2 + (f * gy) ** 2 + w * w)
    # dm/dgx = (f, 0, x) and dm/dgy = (0, f, y)
    if derivatives:
        d_norms = [(f * f * g + w * coord) / norm for coord, g in ((x, gx), (y, gy))]

    def shade(light, half):
        direction = light.direction
        # Both dot products are formed before either is normalized in place:
        # with one more full-size array alive per light, the allocator gave
        # memory back to the system and faulted it in again on every LM step.
        cosine = f * direction[0] * gx + f * direction[1] * gy + direction[2] * w
        if specular:
            u = half[..., 0] * f * gx + half[..., 1] * f * gy + half[..., 2] * w
        cosine /= norm * light.norm
        kd = material.k_d * light.diffuse_intensity
        shading = kd * (np.maximum(cosine, 0.0) if clamp else cosine)
        if specular:
            u /= norm
            up = np.maximum(u, 0.0)
            ks = material.k_s * light.specular_intensity
            shading = shading + ks * up ** material.shininess
            if derivatives:
                lobe = ks * np.where(u > 0.0,
                                     material.shininess * up ** (material.shininess - 1.0), 0.0)
        if not derivatives:
            return shading
        out = [shading]
        # the diffuse term's slope, then the lobe's added to it, formed in
        # place so that few full-size arrays are alive at once
        for c, (coord, d_norm) in enumerate(zip((x, y), d_norms)):
            d = (f * direction[c] + direction[2] * coord) / light.norm - cosine * d_norm
            d /= norm
            if clamp:
                d = np.where(cosine > 0.0, d, 0.0)
            d *= kd
            if specular:
                slope = half[..., c] * f + half[..., 2] * coord - u * d_norm
                slope *= lobe
                slope /= norm
                slope += d
                d = slope
            out.append(d)
        return tuple(out)

    for light, half in zip(lights, halfway):
        yield shade(light, half)


def render_lambertian_perspective(
    grad: GradientField, light: LightSource, material: Material, intr: CameraIntrinsics,
) -> Image:
    """Shade log-depth gradients under the perspective Lambertian model."""
    return render_blinn_phong_perspective(grad, light, replace(material, k_s=0.0), intr)


def render_blinn_phong_perspective(
    grad: GradientField, light: LightSource, material: Material, intr: CameraIntrinsics,
) -> Image:
    """Perspective Blinn-Phong: per-pixel view vector (x, y, f)/||.||, halfway
    vector against the light, specular lobe raised to the shininess."""
    light.require_frontal()
    X, Y = pixel_grid(grad.width, grad.height, intr)
    [shading] = perspective_shading(grad.gx, grad.gy, X, Y, [light], material,
                                    intr.focal_length)
    return Image(shading)


def make_sphere_depth(
    width, height, intr: CameraIntrinsics, center, radius,
    projection=PROJECTION_PERSPECTIVE,
) -> DepthMap:
    """Depth map of a sphere; rays that miss the sphere are masked out.

    Perspective pixels trace t*(x, y, f); orthographic pixels trace a
    vertical ray through (x, y).  Depth is the nearest intersection's
    coordinate along the optical axis.
    """
    center = np.asarray(center, dtype=np.float64).reshape(3)
    if radius <= 0:
        raise ValueError("sphere radius must be positive")
    X, Y = pixel_grid(width, height, intr)
    f = intr.focal_length
    if projection == PROJECTION_PERSPECTIVE:
        dd = X * X + Y * Y + f * f
        dc = X * center[0] + Y * center[1] + f * center[2]
        disc = dc * dc - dd * (center @ center - radius * radius)
        hit = disc >= 0.0
        t = np.where(hit, (dc - np.sqrt(np.maximum(disc, 0.0))) / dd, 0.0)
        z = t * f
    elif projection == PROJECTION_ORTHOGRAPHIC:
        rad = radius * radius - (X - center[0]) ** 2 - (Y - center[1]) ** 2
        hit = rad >= 0.0
        z = np.where(hit, center[2] - np.sqrt(np.maximum(rad, 0.0)), 0.0)
    else:
        raise ValueError(f"unknown projection {projection!r}")
    mask = hit & (z > 0.0)
    return DepthMap(z=np.where(mask, z, 0.0), mask=mask)


def _masked_difference(values, mask, step, axis):
    """Central difference where both neighbors are valid, one-sided at
    mask boundaries, invalid where no valid neighbor exists."""
    v = np.moveaxis(values, axis, 0)
    m = np.moveaxis(mask, axis, 0)
    n = v.shape[0]
    vp = np.roll(v, -1, axis=0)
    vm = np.roll(v, 1, axis=0)
    mp = np.roll(m, -1, axis=0)
    mm = np.roll(m, 1, axis=0)
    mp[-1] = False
    mm[0] = False

    out = np.zeros_like(v)
    central = m & mp & mm
    fwd = m & mp & ~mm
    bwd = m & ~mp & mm
    out[central] = (vp[central] - vm[central]) / (2.0 * step)
    out[fwd] = (vp[fwd] - v[fwd]) / step
    out[bwd] = (v[bwd] - vm[bwd]) / step
    ok = central | fwd | bwd
    return np.moveaxis(out, 0, axis), np.moveaxis(ok, 0, axis)


def log_depth_gradients(depth: DepthMap, intr: CameraIntrinsics) -> GradientField:
    """Log-depth gradient field of a depth map by masked central differences."""
    if np.any(depth.z[depth.mask] <= 0):
        raise ValueError("log-depth gradients require strictly positive depth")
    nu = np.where(depth.mask, np.log(np.where(depth.mask, depth.z, 1.0)), 0.0)
    gx, okx = _masked_difference(nu, depth.mask, intr.h_x, axis=1)
    gy, oky = _masked_difference(nu, depth.mask, intr.h_y, axis=0)
    mask = depth.mask & okx & oky
    return GradientField(gx=gx, gy=gy, mask=mask)


def depth_to_normals_orthographic(depth: DepthMap, intr: CameraIntrinsics) -> NormalField:
    """Normals of a depth map under orthographic viewing, frontal convention:
    unnormalized direction (z_x, z_y, 1)."""
    zx, okx = _masked_difference(depth.z, depth.mask, intr.h_x, axis=1)
    zy, oky = _masked_difference(depth.z, depth.mask, intr.h_y, axis=0)
    mask = depth.mask & okx & oky
    n = np.stack([zx, zy, np.ones_like(zx)], axis=-1)
    n /= np.linalg.norm(n, axis=-1, keepdims=True)
    n[~mask] = (0.0, 0.0, 1.0)
    return NormalField(n=n, mask=mask)


@dataclass
class SceneSpec:
    """A renderable synthetic scene: geometry plus material, lights, camera."""

    depth: DepthMap
    material: Material
    lights: list
    intrinsics: CameraIntrinsics
    projection: str = PROJECTION_PERSPECTIVE
    model: str = MODEL_BLINN_PHONG

    def __post_init__(self):
        if len(self.lights) != 3:
            raise ValueError("a scene requires exactly 3 lights")
        if self.projection not in (PROJECTION_PERSPECTIVE, PROJECTION_ORTHOGRAPHIC):
            raise ValueError(f"unknown projection {self.projection!r}")
        if self.model not in (MODEL_LAMBERTIAN, MODEL_BLINN_PHONG):
            raise ValueError(f"unknown reflectance model {self.model!r}")


def render_scene(scene: SceneSpec):
    """Render the three photometric-stereo images of a scene.

    Returns (images, geometry, mask) where geometry is the gradient field
    (perspective) or normal field (orthographic) the images were shaded
    from; pixels outside the scene mask render as 0.
    """
    material = scene.material
    if scene.model == MODEL_LAMBERTIAN:
        material = replace(material, k_s=0.0)
    if scene.projection == PROJECTION_PERSPECTIVE:
        geom = log_depth_gradients(scene.depth, scene.intrinsics)
        shade = lambda li: render_blinn_phong_perspective(geom, li, material, scene.intrinsics)
    else:
        geom = depth_to_normals_orthographic(scene.depth, scene.intrinsics)
        shade = lambda li: render_blinn_phong_orthographic(geom, li, material)
    images = []
    for li in scene.lights:
        img = shade(li)
        images.append(Image(np.where(geom.mask, img.data, 0.0)))
    return images, geom, geom.mask.copy()
