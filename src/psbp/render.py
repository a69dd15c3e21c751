"""Forward rendering under Lambertian and Blinn-Phong reflectance.

The Blinn-Phong model is computed in one kernel, perspective_shading, for a
sequence of lights at log-depth gradients with normal direction
m = (f*gx, f*gy, x*gx + y*gy + 1).  The kernel is written in
linear-coefficient form: every dot product m.v is a_v*gx + b_v*gy + v_2,
with coefficients a_v = f*v_0 + x*v_2 and b_v = f*v_1 + y*v_2 that are also
its derivatives.  It runs in two steps.  The coefficient step,
shading_coefficients, forms the coefficients of all the lights at once, as
arrays: constants for the light directions, and rows for their per-pixel
halfway vectors.  The shading step, shade_from_coefficients, shades over
them light by light, sharing the per-pixel geometry across the lights, with
one pow per light for the lobe and its slope, and gives the derivatives on
request.  The renderers run both steps per call; the Blinn-Phong solvers
(bp-pps and bp-ppn) form the coefficient rows once per LM block and run the
shading step, with its derivatives, on every LM step.  Each caller shades
one pixel set with all its lights in one call: the solvers their masked
pixels, and render_scene and the reprojection check, through their one
pixel walk shade_pixels, only the pixels of their mask, in pixel_blocks
(rows of a full frame, which ... indexes without a gather, or runs of the
mask's pixels) that keep a block's temporaries in cache and move no bit.
render_scene shades both projections so: the perspective one at the
log-depth gradients and the pixels' image points, the orthographic one at
the slope (n1/n3, n2/n3) of each normal at the principal point x = y = 0
with f = 1, where the view is (0, 0, 1) and the perspective shading is the
orthographic shading of n.  Lambertian rendering is Blinn-Phong rendering
with k_s = 0.  Renders clamp all dot products at zero; intensities are
k_d * l_d * <diffuse> + k_s * l_s * <specular>^n and may legitimately
exceed 1 for light intensities above 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    CameraIntrinsics,
    DepthMap,
    GradientField,
    Image,
    Material,
    NormalField,
)
from .geometry import halfway_vectors, pixel_axes

MODEL_LAMBERTIAN = "lambertian"
MODEL_BLINN_PHONG = "blinn-phong"

PROJECTION_PERSPECTIVE = "perspective"
PROJECTION_ORTHOGRAPHIC = "orthographic"

# The whole-frame per-pixel stages (the renderer, the reprojection check and
# the perspective closed form) run in pixel_blocks of at most this many
# pixels, so that a block's temporaries, 128 KiB each in float64, stay in a
# core's 2 MiB L2 cache instead of streaming whole frames through memory.
# Against whole frames, the 1024x768 relief's closed form with its albedo
# saved 17.7 / 25.6 / 30.5 / 23.7 / 17.7 / 0.6 ms per call at blocks of
# 2^12 / 2^13 / 2^14 / 2^15 / 2^16 / 2^18 pixels (medians of 11 pairs); a
# second sweep, on a shared 2-core Xeon where a call took about 120 ms,
# read 40 / 56 / 53 / 52 / 48 / 26 ms.
PIXEL_BLOCK = 2**14


def pixel_blocks(*arrays):
    """Each block's views of the arrays: the first array, a frame or a
    gathered vector, in runs of whole leading-axis entries (frame rows, or
    pixels) of at most PIXEL_BLOCK pixels but at least one entry, every
    array whose leading axis spans the first's alike, and the rest, such as
    pixel_axes' row of columns or a scalar, whole.  Callers write their
    outputs into their views.  Each pixel is computed alone in these
    stages, so the blocks move no bit."""
    shape = np.shape(arrays[0])
    step = max(1, PIXEL_BLOCK // math.prod(shape[1:]))
    for start in range(0, shape[0], step):
        rows = slice(start, start + step)
        yield [a[rows] if np.shape(a)[:1] == shape[:1] else a for a in arrays]


def perspective_shading(gx, gy, x, y, lights, material: Material, focal_length, clamp=True):
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

    Yields each light's shading, in order.
    """
    return shade_from_coefficients(
        gx, gy, x, y, shading_coefficients(x, y, lights, material, focal_length),
        material.shininess, focal_length, clamp=clamp)


def shading_coefficients(x, y, lights, material: Material, focal_length):
    """The coefficient step of perspective_shading at the image points x, y.

    Every dot product of m = (f*gx, f*gy, x*gx + y*gy + 1) with a vector v
    is linear in the gradient, m.v = a_v*gx + b_v*gy + v_2 with
    a_v = f*v_0 + x*v_2 and b_v = f*v_1 + y*v_2, which are also its
    derivatives.  Returns (diffuse, halfway, scale), formed for all the
    lights at once:

    * diffuse (lights, 3), (f*d_0, f*d_1, d_2) of each light direction
      scaled as d = k_d*l_d*L/|L|.  These are constants: the diffuse term's
      A = f*d_0 + x*d_2 and B = f*d_1 + y*d_2 are never held as rows, since
      m.d = f*d_0*gx + f*d_1*gy + d_2*w takes the w = x*gx + y*gy + 1 that
      every light shares.
    * halfway (lights, 3, ...), (a_h, b_h, h_2) of each light's unit
      halfway vector (geometry.halfway_vectors), rows that broadcast like x
      and y and have no pixel axis at scalar points; None when k_s == 0.
    * scale (lights,), each light's k_s*l_s.
    """
    f = focal_length
    diffuse = np.stack([light.direction * (material.k_d * light.diffuse_intensity / light.norm)
                        for light in lights])
    diffuse[:, :2] *= f
    scale = np.array([material.k_s * light.specular_intensity for light in lights])
    if material.k_s == 0.0:
        return diffuse, None, scale
    # a_h and b_h are written over h_0 and h_1
    h = halfway_vectors(x, y, f, lights)
    h[:, :2] *= f
    h[:, 0] += x * h[:, 2]
    h[:, 1] += y * h[:, 2]
    return diffuse, h, scale


def shade_from_coefficients(gx, gy, x, y, coefficients, shininess, focal_length, clamp=True,
                            derivatives=False):
    """The shading step of perspective_shading: each light's shading, and on
    request its derivatives, in order, from the lights' shading_coefficients
    at the same points x, y; light k's are row k of each of their arrays.

    The per-pixel geometry, w = x*gx + y*gy + 1, 1/|m| and d|m|/dgx,
    d|m|/dgy, is computed once per call and shared by every light.  The
    diffuse term is R_d = (A*gx + B*gy + C)/|m|, taken as
    (f*d_0*gx + f*d_1*gy + d_2*w)/|m|.  With u = (a_h*gx + b_h*gy + h_2)/|m|
    the lobe takes one pow, t = max(u, 0)^(n - 1), as t*max(u, 0), and its
    slope factor is g = k_s*l_s*n*t, which is 0 where u <= 0 (also at n = 1,
    where t = 1).  Then dR/dgx = (A + g*a_h - (R_d + g*u)*d|m|/dgx)/|m|,
    and dR/dgy alike with B and b_h.  The clamped diffuse term is 0 where
    R_d <= 0.  Derivatives are taken of the unclamped shading only: asking
    for them with clamp raises ValueError.
    """
    if clamp and derivatives:
        raise ValueError("clamped shading has no derivatives; pass clamp=False")
    f = focal_length
    w = x * gx + y * gy + 1.0
    inv = 1.0 / np.sqrt((f * gx) ** 2 + (f * gy) ** 2 + w * w)
    # dm/dgx = (f, 0, x) and dm/dgy = (0, f, y)
    d_norm = ([(f * f * g + c * w) * inv for g, c in ((gx, x), (gy, y))] if derivatives
              else None)
    diffuse, halfway, scale = coefficients
    for k in range(len(diffuse)):
        specular = None if halfway is None else (*halfway[k], scale[k])
        yield _shade_light(gx, gy, x, y, w, inv, d_norm, diffuse[k], specular, shininess, clamp)


def _shade_light(gx, gy, x, y, w, inv, d_norm, diffuse, specular, shininess, clamp):
    """One light of shade_from_coefficients: its shading, or with d_norm
    (shading, dR/dgx, dR/dgy) of the unclamped shading.  Its arrays are
    formed in place where they can be and are let go on return, so that few
    full-size ones are alive at once."""
    a_d, b_d, c_d = diffuse
    diffuse = a_d * gx
    diffuse += b_d * gy
    diffuse += c_d * w
    diffuse *= inv
    if clamp:
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
        if specular is not None:
            slope = slope + t * specular[c]
        slope -= s * d_norm[c]
        slope *= inv
        slopes.append(slope)
    return (shading, *slopes)


def shade_pixels(gx, gy, x, y, pix, lights, material: Material, focal_length):
    """Clamped perspective_shading of all the lights at the pixels pix (a
    boolean mask, or ... for the whole frame) of log-depth gradient frames
    gx, gy at image points x, y (scalars, or pixel_axes' row and column):
    the pixel walk of render_scene and the reprojection check.  Each of
    its pixel_blocks is written into its view of one array per light.
    Returns the arrays, (len(lights),) + the shape of the pixels, in the
    mask's row-major order."""
    for light in lights:
        light.require_frontal()
    # x follows the column and y the row: a mask gathers them without
    # forming the grids
    if pix is not ...:
        x, y = (np.broadcast_to(c, pix.shape)[pix] if np.ndim(c) else c for c in (x, y))
        gx, gy = gx[pix], gy[pix]
    shadings = np.empty((len(lights),) + gx.shape)
    for block in pixel_blocks(gx, gy, x, y, *shadings):
        # the block's gx, gy, x and y, then its view of each light's array
        for view, shading in zip(block[4:], perspective_shading(*block[:4], lights, material,
                                                                focal_length)):
            view[...] = shading
    return shadings


def make_sphere_depth(
    width, height, intr: CameraIntrinsics, center, radius,
    projection=PROJECTION_PERSPECTIVE,
) -> DepthMap:
    """Depth map of a sphere; rays that miss the sphere are masked out.

    Perspective pixels trace t*(x, y, f); orthographic pixels trace a
    vertical ray through (x, y).  Depth is the nearest intersection's
    coordinate along the optical axis; DepthMap sets it to 0 off the mask.
    """
    center = np.asarray(center, dtype=np.float64).reshape(3)
    if radius <= 0:
        raise ValueError("sphere radius must be positive")
    X, Y = pixel_axes(width, height, intr)
    f = intr.focal_length
    if projection == PROJECTION_PERSPECTIVE:
        dd = X * X + Y * Y + f * f
        dc = X * center[0] + Y * center[1] + f * center[2]
        disc = dc * dc - dd * (center @ center - radius * radius)
        hit = disc >= 0.0
        z = (dc - np.sqrt(np.maximum(disc, 0.0))) / dd * f
    elif projection == PROJECTION_ORTHOGRAPHIC:
        rad = radius * radius - (X - center[0]) ** 2 - (Y - center[1]) ** 2
        hit = rad >= 0.0
        z = center[2] - np.sqrt(np.maximum(rad, 0.0))
    else:
        raise ValueError(f"unknown projection {projection!r}")
    return DepthMap(z=z, mask=hit & (z > 0.0))


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
    # ln 1 = 0 off the mask
    nu = np.log(np.where(depth.mask, depth.z, 1.0))
    gx, okx = _masked_difference(nu, depth.mask, intr.h_x, axis=1)
    gy, oky = _masked_difference(nu, depth.mask, intr.h_y, axis=0)
    mask = depth.mask & okx & oky
    return GradientField(gx=gx, gy=gy, mask=mask)


def depth_to_normals_orthographic(depth: DepthMap, intr: CameraIntrinsics) -> NormalField:
    """Normals of a depth map under orthographic viewing, frontal convention:
    unnormalized direction (z_x, z_y, 1)."""
    zx, okx = _masked_difference(depth.z, depth.mask, intr.h_x, axis=1)
    zy, oky = _masked_difference(depth.z, depth.mask, intr.h_y, axis=0)
    n = np.stack([zx, zy, np.ones_like(zx)], axis=-1)
    n /= np.linalg.norm(n, axis=-1, keepdims=True)
    return NormalField(n=n, mask=depth.mask & okx & oky)


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
    from.  Both projections are shaded in one call at the mask's pixels,
    which are scattered into zero frames; the orthographic one at the slope
    (n1/n3, n2/n3) of each normal at the principal point with f = 1, which
    never flips n, since depth_to_normals_orthographic's n3 are positive.
    """
    material = scene.material
    if scene.model == MODEL_LAMBERTIAN:
        material = replace(material, k_s=0.0)
    intr = scene.intrinsics
    if scene.projection == PROJECTION_ORTHOGRAPHIC:
        geom = depth_to_normals_orthographic(scene.depth, intr)
        n = geom.n
        gx, gy, x, y, f = n[..., 0] / n[..., 2], n[..., 1] / n[..., 2], 0.0, 0.0, 1.0
    else:
        geom = log_depth_gradients(scene.depth, intr)
        gx, gy, f = geom.gx, geom.gy, intr.focal_length
        h, w = geom.mask.shape
        x, y = pixel_axes(w, h, intr)
    pix = ... if geom.mask.all() else geom.mask
    shadings = shade_pixels(gx, gy, x, y, pix, scene.lights, material, f)
    if pix is not ...:
        frames = np.zeros((len(shadings),) + geom.mask.shape)
        frames[:, pix] = shadings
        shadings = frames
    return [Image(shading) for shading in shadings], geom, geom.mask.copy()
