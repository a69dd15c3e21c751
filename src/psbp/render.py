"""Forward rendering under Lambertian and Blinn-Phong reflectance.

The Blinn-Phong model is written once, in _blinn_phong, from the dot
products of a normal direction m with the light and halfway vectors and its
length |m|.  Each projection forms those in one shading function shared with
the solvers: orthographic_shading at unit normals, perspective_shading at
log-depth gradients with m = (f*gx, f*gy, x*gx + y*gy + 1).  Both return the
shading and, on request, its derivatives.  Lambertian rendering is
Blinn-Phong rendering with k_s = 0.  Renders clamp all dot products at zero;
intensities are k_d * l_d * <diffuse> + k_s * l_s * <specular>^n and may
legitimately exceed 1 for light intensities above 1.
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


def _blinn_phong(light: LightSource, material: Material, m_l, m_h, norm, halfway,
                 partials=None, clamp=True):
    """Blinn-Phong shading of one light at a normal direction m, given as its
    dot products m_l = m.L with the light direction L and m_h = m.h with the
    unit halfway vectors (None when k_s == 0), and its length norm = |m|:
    diffuse k_d*l_d*cos, cos = m_l/(|m| |L|), clamped at 0 when clamp, plus
    specular k_s*l_s*max(u, 0)^n, u = m_h/|m|.  partials, if given, yields
    for each of two parameters p a triple (s, t, d|m|/dp) with
    dm/dp = s*e_p + t*e_3, and the result is (shading, d/dp1, d/dp2);
    otherwise the shading alone.
    """
    # m_l and m_h are the callers' temporaries, normalized in place: with one
    # more full-size array alive per light, the allocator gave memory back to
    # the system and faulted it in again on every LM step.
    cosine = m_l
    cosine /= norm * light.norm
    kd = material.k_d * light.diffuse_intensity
    shade = kd * (np.maximum(cosine, 0.0) if clamp else cosine)
    if m_h is not None:
        u = m_h
        u /= norm
        up = np.maximum(u, 0.0)
        ks = material.k_s * light.specular_intensity
        shade = shade + ks * up ** material.shininess
        if partials is not None:
            lobe = ks * np.where(u > 0.0, material.shininess * up ** (material.shininess - 1.0),
                                 0.0)
    if partials is None:
        return shade

    direction = light.direction
    out = [shade]
    for c, (s, t, d_norm) in enumerate(partials):
        dcos = ((s * direction[c] + direction[2] * t) / light.norm - cosine * d_norm) / norm
        if clamp:
            dcos = np.where(cosine > 0.0, dcos, 0.0)
        d = kd * dcos
        if m_h is not None:
            d = d + lobe * (halfway[..., c] * s + halfway[..., 2] * t - u * d_norm) / norm
        out.append(d)
    return tuple(out)


def orthographic_shading(n, light: LightSource, material: Material, derivatives=False):
    """Orthographic Blinn-Phong shading of one light at unit normals.

    n has shape (..., 3).  The halfway vector is the fixed one of the light
    and the (0, 0, 1) view direction, the perspective view ray at the
    principal point (skipped when k_s == 0).  With derivatives, returns
    (shading, d/dn1, d/dn2), n3 = sqrt(1 - n1^2 - n2^2) being the dependent
    component; otherwise the shading alone.
    """
    h = halfway_vector_grid(0.0, 0.0, 1.0, light) if material.k_s != 0.0 else None
    # dn/dn1 = (1, 0, -n1/n3), dn/dn2 = (0, 1, -n2/n3), and |n| stays 1
    partials = ((1.0, -n[..., c] / n[..., 2], 0.0) for c in (0, 1))
    return _blinn_phong(light, material, n @ light.direction, None if h is None else n @ h,
                        1.0, h, partials if derivatives else None)


def render_blinn_phong_orthographic(
    normals: NormalField, light: LightSource, material: Material
) -> Image:
    """Orthographic Blinn-Phong: adds a specular lobe around the fixed
    halfway vector of the light and the (0, 0, 1) view direction."""
    light.require_frontal()
    return Image(orthographic_shading(normals.n, light, material))


def perspective_shading(gx, gy, x, y, light: LightSource, material: Material, focal_length,
                        halfway=None, clamp=True, derivatives=False):
    """Perspective Blinn-Phong shading of one light at log-depth gradients.

    gx, gy, x, y are broadcastable arrays (or scalars) of log-depth gradients
    and metric image coordinates.  The normal direction is
    (f*gx, f*gy, x*gx + y*gy + 1), and the specular lobe is taken about the
    per-pixel halfway vector of the light and the view ray (x, y, f)
    (skipped when k_s == 0).  halfway may pass precomputed halfway vectors,
    shape (..., 3).  clamp clamps the diffuse cosine at 0 as a renderer
    must; left unclamped the shading is smooth in the gradient, as a
    least-squares residual needs.  With derivatives, returns
    (shading, d/dgx, d/dgy) computed in the same pass; otherwise the shading
    alone.
    """
    f = focal_length
    specular = material.k_s != 0.0
    # Halfway vectors first, while few full-size arrays are alive: this keeps
    # a render's peak memory, and with it its page faults, down.
    if specular and halfway is None:
        halfway = halfway_vector_grid(x, y, f, light)
    alpha, beta, gamma = light.direction
    w = x * gx + y * gy + 1.0
    norm = np.sqrt((f * gx) ** 2 + (f * gy) ** 2 + w * w)
    # dm/dgx = (f, 0, x), dm/dgy = (0, f, y); d|m| is built only when used
    partials = ((f, coord, (f * f * g + w * coord) / norm) for coord, g in ((x, gx), (y, gy)))
    return _blinn_phong(light, material, f * alpha * gx + f * beta * gy + gamma * w,
                        halfway[..., 0] * f * gx + halfway[..., 1] * f * gy
                        + halfway[..., 2] * w if specular else None,
                        norm, halfway, partials if derivatives else None, clamp)


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
    return Image(perspective_shading(grad.gx, grad.gy, X, Y, light, material,
                                     intr.focal_length))


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
