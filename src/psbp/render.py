"""Forward rendering under Lambertian and Blinn-Phong reflectance.

The Blinn-Phong model is computed in one kernel, perspective_shading, for a
sequence of lights at log-depth gradients with normal direction
m = (f*gx, f*gy, x*gx + y*gy + 1), with its derivatives on request.  The
kernel is written in linear-coefficient form: every dot product m.v is
a_v*gx + b_v*gy + v_2, with coefficients a_v = f*v_0 + x*v_2 and
b_v = f*v_1 + y*v_2 that are also its derivatives.  It runs in two steps.
The coefficient step, shading_coefficients, forms each light's
coefficients: constants for the light direction, and rows for its
per-pixel halfway vector.  The shading step, shade_from_coefficients,
shades over them, sharing the per-pixel geometry across the lights, with
one pow per light for the lobe and its slope.  The renderers run both steps
per call; the Blinn-Phong solvers (bp-pps and bp-ppn) form the coefficient
rows once per LM block and run the shading step on every LM step.  Each
caller shades one pixel set with all its lights in one call: the solvers
their masked pixels, and render_scene and the reprojection check, through
shade_pixels, only the pixels of their mask, which they scatter into zero
frames or score.  A mask that covers the whole frame is indexed with ...,
which gathers nothing.  The one-light perspective renderers shade the whole
frame.  The orthographic renderer is served too: at the principal point
x = y = 0 with f = 1 the perspective shading of the slope (n1/n3, n2/n3) is
the orthographic shading of the normal n, so the orthographic renderer
requires n3 > 0.  Lambertian rendering is Blinn-Phong rendering with
k_s = 0.  Renders clamp all dot products at zero; intensities are
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
from .geometry import halfway_vectors, pixel_axes, pixel_grid

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


def perspective_shading(gx, gy, x, y, lights, material: Material, focal_length, clamp=True,
                        derivatives=False):
    """Blinn-Phong shading of a sequence of lights at log-depth gradients:
    the coefficient step (shading_coefficients) and the shading step
    (shade_from_coefficients) of the one kernel, the only place the
    reflectance model is computed.

    gx, gy, x, y are broadcastable arrays (or scalars) of log-depth gradients
    and metric image coordinates.  The normal direction is
    m = (f*gx, f*gy, x*gx + y*gy + 1), and the shading of light L is
    k_d*l_d*m.L/(|m| |L|) + k_s*l_s*max(m.h/|m|, 0)^n about the per-pixel
    halfway vector h of the light and the view ray (x, y, f) (skipped when
    k_s == 0).  clamp clamps the diffuse term at 0 as a renderer must; left
    unclamped the shading is smooth in the gradient, as a least-squares
    residual needs.

    Yields one entry per light, in order: with derivatives,
    (shading, d/dgx, d/dgy) computed in the same pass; otherwise the shading
    alone.  Each light's coefficients are formed, and the light shaded, when
    its entry is asked for, so a caller that is done with one light's arrays
    before it asks for the next holds one light's arrays at a time.
    """
    return shade_from_coefficients(
        gx, gy, x, y, shading_coefficients(x, y, lights, material, focal_length),
        material.shininess, focal_length, clamp=clamp, derivatives=derivatives)


def shading_coefficients(x, y, lights, material: Material, focal_length):
    """The coefficient step of perspective_shading at the image points x, y.

    Every dot product of m = (f*gx, f*gy, x*gx + y*gy + 1) with a vector v
    is linear in the gradient, m.v = a_v*gx + b_v*gy + v_2 with
    a_v = f*v_0 + x*v_2 and b_v = f*v_1 + y*v_2, which are also its
    derivatives.  Yields one pair per light, formed when it is asked for:

    * diffuse, (f*d_0, f*d_1, d_2) of the light direction scaled as
      d = k_d*l_d*L/|L|.  These are constants: the diffuse term's
      A = f*d_0 + x*d_2 and B = f*d_1 + y*d_2 are never held as rows, since
      m.d = f*d_0*gx + f*d_1*gy + d_2*w takes the w = x*gx + y*gy + 1 that
      every light shares.
    * halfway, (a_h, b_h, h_2, k_s*l_s) of the light's unit halfway vector
      (geometry.halfway_vectors), rows that broadcast like x and y, one
      (3, ...) array; None when k_s == 0.
    """
    f = focal_length
    halfway = halfway_vectors(x, y, f, lights) if material.k_s != 0.0 else None
    for light in lights:
        d = light.direction * (material.k_d * light.diffuse_intensity / light.norm)
        diffuse = (f * d[0], f * d[1], d[2])
        if halfway is None:
            yield diffuse, None
            continue
        # a_h and b_h are written over h_0 and h_1
        h = next(halfway)
        h[:2] *= f
        h[0] += x * h[2]
        h[1] += y * h[2]
        yield diffuse, (h[0], h[1], h[2], material.k_s * light.specular_intensity)
        # let go before the next light's rows are formed
        del h


def shade_from_coefficients(gx, gy, x, y, coefficients, shininess, focal_length, clamp=True,
                            derivatives=False):
    """The shading step of perspective_shading: each light's shading, and on
    request its derivatives, from its shading_coefficients at the same
    points x, y.

    The per-pixel geometry, w = x*gx + y*gy + 1, 1/|m| and d|m|/dgx,
    d|m|/dgy, is computed once per call and shared by every light.  The
    diffuse term is R_d = (A*gx + B*gy + C)/|m|, taken as
    (f*d_0*gx + f*d_1*gy + d_2*w)/|m|.  With u = (a_h*gx + b_h*gy + h_2)/|m|
    the lobe takes one pow, t = max(u, 0)^(n - 1), as t*max(u, 0), and its
    slope factor is g = k_s*l_s*n*t, which is 0 where u <= 0 (also at n = 1,
    where t = 1).  Then dR/dgx = (A + g*a_h - (R_d + g*u)*d|m|/dgx)/|m|,
    and dR/dgy alike with B and b_h.  The clamped diffuse term, and its part
    of the slope, are 0 where R_d <= 0.
    """
    f = focal_length
    w = x * gx + y * gy + 1.0
    inv = 1.0 / np.sqrt((f * gx) ** 2 + (f * gy) ** 2 + w * w)
    # dm/dgx = (f, 0, x) and dm/dgy = (0, f, y)
    d_norm = ([(f * f * g + c * w) * inv for g, c in ((gx, x), (gy, y))] if derivatives
              else None)
    for diffuse, specular in coefficients:
        yield _shade_light(gx, gy, x, y, w, inv, d_norm, diffuse, specular, shininess, clamp)
        # a light's rows are let go before the next light's are formed
        del specular


def _shade_light(gx, gy, x, y, w, inv, d_norm, diffuse, specular, shininess, clamp):
    """One light of shade_from_coefficients: its shading, or with d_norm
    (shading, dR/dgx, dR/dgy).  Its arrays are formed in place where they
    can be and are let go on return, so that few full-size ones are alive
    at once."""
    a_d, b_d, c_d = diffuse
    diffuse = a_d * gx
    diffuse += b_d * gy
    diffuse += c_d * w
    diffuse *= inv
    if clamp:
        lit = diffuse > 0.0
        diffuse = np.maximum(diffuse, 0.0)
    if specular is None:
        shading = diffuse
    else:
        a_h, b_h, h_2, scale = specular
        u = a_h * gx
        u += b_h * gy
        u += h_2
        u *= inv
        shading = np.maximum(u, 0.0)
        t = shading ** (shininess - 1.0)
        shading *= t
        shading *= scale
        shading += diffuse
    if d_norm is None:
        return shading
    if specular is None:
        s = diffuse
    else:
        t *= scale * shininess
        if shininess == 1.0:
            t = np.where(u > 0.0, t, 0.0)
        # s = R_d + g*u, in u's buffer
        s = u
        s *= t
        s += diffuse
        del u
    del diffuse
    slopes = []
    for c, (coefficient, coord) in enumerate(((a_d, x), (b_d, y))):
        # the diffuse term's A or B, then the lobe's g*a_h or g*b_h; one
        # slope is formed at a time
        slope = coefficient + c_d * coord
        if clamp:
            slope = np.where(lit, slope, 0.0)
        if specular is not None:
            slope = slope + t * specular[c]
        slope -= s * d_norm[c]
        slope *= inv
        slopes.append(slope)
    return (shading, *slopes)


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
    [shading] = shade_pixels(grad, ..., [light], material, intr)
    return Image(shading)


def shade_pixels(grad: GradientField, pix, lights, material: Material, intr: CameraIntrinsics):
    """Clamped perspective_shading of the lights at the pixels pix of a
    gradient field, all lights in one call: the path of the perspective
    renderers and of the reprojection check.  pix is a boolean mask, or ...
    for the whole frame, which gathers nothing.  Yields each light's shading
    at those pixels, in the mask's row-major order."""
    for light in lights:
        light.require_frontal()
    # x follows the column and y the row: the whole frame takes them as one
    # row and one column, and a mask gathers them without forming the grids
    x, y = pixel_axes(grad.width, grad.height, intr)
    if pix is not ...:
        x, y = (np.broadcast_to(c, pix.shape)[pix] for c in (x, y))
    return perspective_shading(grad.gx[pix], grad.gy[pix], x, y, lights, material,
                               intr.focal_length)


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
    mask boundaries, invalid where no valid neighbor exists.  Each case is
    formed over the whole frame, so values off the mask must be finite."""
    v = np.moveaxis(values, axis, 0)
    m = np.moveaxis(mask, axis, 0)
    # pair[i]: pixels i and i + 1 along the axis are both valid
    pair = m[1:] & m[:-1]
    nxt = np.zeros_like(m)
    nxt[:-1] = pair
    prv = np.zeros_like(m)
    prv[1:] = pair
    # one_sided[i] is the forward difference at i and the backward one at
    # i + 1; central differences overwrite both where a pixel has both
    one_sided = (v[1:] - v[:-1]) / step
    out = np.zeros_like(v)
    np.copyto(out[:-1], one_sided, where=pair)
    np.copyto(out[1:], one_sided, where=pair & ~nxt[1:])
    np.copyto(out[1:-1], (v[2:] - v[:-2]) / (2.0 * step), where=pair[1:] & pair[:-1])
    return np.moveaxis(out, 0, axis), np.moveaxis(nxt | prv, 0, axis)


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
    z = np.where(depth.mask, depth.z, 0.0)
    zx, okx = _masked_difference(z, depth.mask, intr.h_x, axis=1)
    zy, oky = _masked_difference(z, depth.mask, intr.h_y, axis=0)
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
    if scene.projection == PROJECTION_ORTHOGRAPHIC:
        geom = depth_to_normals_orthographic(scene.depth, scene.intrinsics)
        images = []
        for li in scene.lights:
            img = render_blinn_phong_orthographic(geom, li, material)
            images.append(Image(np.where(geom.mask, img.data, 0.0)))
        return images, geom, geom.mask.copy()
    geom = log_depth_gradients(scene.depth, scene.intrinsics)
    pix = ... if geom.mask.all() else geom.mask
    images = []
    for shading in shade_pixels(geom, pix, scene.lights, material, scene.intrinsics):
        if pix is not ...:
            frame = np.zeros(geom.mask.shape)
            frame[pix] = shading
            shading = frame
        images.append(Image(shading))
    return images, geom, geom.mask.copy()
