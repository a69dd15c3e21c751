"""Inverse shading: recover normals or log-depth gradients from image triplets.

Four per-pixel solvers are provided:

* woodham_normals          -- linear orthographic Lambertian solve
* lambertian_pps_closed_form -- algebraic perspective Lambertian solve for
                                log-depth gradients and diffuse albedo
* blinn_phong_ortho_solve  -- damped least squares over the slope (a, b) of
                              the normal (a, b, 1) under the orthographic
                              Blinn-Phong model
* blinn_phong_pps_solve    -- damped least squares over the log-depth
                              gradient on the absolute shading residuals of
                              the perspective Blinn-Phong model

plus conditioning diagnostics for three-light rigs.  The perspective
closed form, which is lambert-pps and bp-pps's start, solves its frames in
render.pixel_blocks of rows, and lambert-pps shades its albedo inside the
same block, so that a block's temporaries stay in cache; each pixel is
solved alone, so the blocks move no bit.  Both Blinn-Phong
solvers fit one residual model, _ShadingModel: the absolute residuals
I_k - R_k of the three images, shaded by render's one kernel as the
renderers shade them, handed to the LM engine as their squared norm and
normal equations.  The kernel's coefficient step (per light, the linear
coefficients of the dot products of the normal direction m with the light
and its halfway vector) runs once per LM block; each LM step gathers those
rows for its unfinished pixels and runs the shading step over them, with one
pow per light.  bp-ppn builds the model at the principal point x = y = 0
with f = 1, where the perspective shading of the slope (a, b) is the
orthographic shading of the normal (a, b, 1)/||(a, b, 1)||, and where every
coefficient is a constant, so its steps gather only the intensities.  Both
take one path per pixel set: gather the mask's pixels by the boolean mask,
fit them from the Lambertian start with a zero-start retry
(_ShadingModel.fit_with_retry), each attempt in the fewest equal blocks of
at most LM_BLOCK pixels so that its memory follows the block, not the
image, and scatter the fitted states back into grids by the mask.  bp-pps
keeps the pixels whose fit converged with a residual norm <= ACCEPT_TOL;
bp-ppn keeps every converged pixel.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import (
    AlbedoMap,
    CameraIntrinsics,
    GradientField,
    Image,
    Material,
    NormalField,
    input_mask,
)
from .geometry import pixel_axes
from .optim import levenberg_marquardt_batch
from .render import (
    perspective_shading,
    pixel_blocks,
    shade_from_coefficients,
    shading_coefficients,
)

SINGULAR_DET_THRESHOLD = 1e-12
# Largest absolute shading-residual norm at which bp-pps accepts a pixel;
# both Blinn-Phong solvers retry a pixel above it from a zero start.
ACCEPT_TOL = 1e-3
INDICATOR_THRESHOLD = 1e-12
# Both Blinn-Phong solvers fit their pixels in the fewest equal blocks of at
# most this many, so a fit's memory follows the block, not the image.  The
# 512^2 specular sphere's 144.6k pixels run as three blocks of 48.2k, which
# peaked at 138 MB resident against 147 MB for blocks of 2^16, 2^16 and
# 13.6k; blocks of 2^15 split the 256^2 noisy sphere's 55k pixels in two, and
# each half's slow LM tail made its solve 8% slower.
LM_BLOCK = 2**16


@dataclass
class ConditioningReport:
    """Light-rig conditioning diagnostics over a pixel grid.

    flags[i] marks pixels where indicator expression i (0-based) is below
    INDICATOR_THRESHOLD in magnitude; expressions 0-2 depend only on the rig
    and are broadcast.
    det_proxy is |det M| of the closed-form system evaluated at the
    intensities I_k = l_d,k (scaled intensities r_k = ||L_k||).
    """

    flags: np.ndarray
    expressions: np.ndarray
    non_coplanar: bool
    det_proxy: np.ndarray

    def flagged_counts(self):
        return [int(f.sum()) for f in self.flags]


def _inputs(images, lights, mask):
    """The solvers' common preamble: the three image grids, checked to share
    one shape, after checking every light is frontal with a positive diffuse
    intensity (every solver divides by it), and the mask (input_mask of the
    grids when None, else checked to have their shape)."""
    grids = [img.data if isinstance(img, Image) else np.asarray(img, float) for img in images]
    if len(grids) != 3:
        raise ValueError("exactly 3 input images are required")
    if any(g.shape != grids[0].shape for g in grids):
        raise ValueError("input images must share one shape")
    for li in lights:
        li.require_frontal()
        if li.diffuse_intensity <= 0:
            raise ValueError("diffuse light intensities must be positive")
    if mask is None:
        return grids, input_mask(grids)
    if np.shape(mask) != grids[0].shape:
        raise ValueError(f"mask shape {np.shape(mask)} differs from the images' shape "
                         f"{grids[0].shape}")
    return grids, np.asarray(mask, dtype=bool)


def _light_arrays(lights):
    if len(lights) != 3:
        raise ValueError("exactly 3 lights are required")
    dirs = np.stack([li.direction for li in lights])
    norms = np.array([li.norm for li in lights])
    ld = np.array([li.diffuse_intensity for li in lights])
    return dirs, norms, ld


def woodham_normals(images, lights, mask=None):
    """Classic three-light orthographic Lambertian solve.

    Solves L_hat @ (k_d * n_hat) = I / l_d per pixel; the solution's norm is
    the diffuse albedo and its direction the normal.  Near-zero solutions
    (shadowed or empty pixels) and normals with n3 = 0 are masked out.
    """
    grids, mask = _inputs(images, lights, mask)
    dirs, norms, ld = _light_arrays(lights)
    lmat = dirs / norms[:, None]
    det = np.linalg.det(lmat)
    if abs(det) < SINGULAR_DET_THRESHOLD:
        raise ValueError("light directions are coplanar: singular light matrix")
    rhs = np.stack([g / l for g, l in zip(grids, ld)], axis=-1)
    b = rhs @ np.linalg.inv(lmat).T
    albedo = np.linalg.norm(b, axis=-1)
    ok = mask & (albedo > 1e-12)
    n = b / np.where(ok, albedo, 1.0)[..., None]
    ok &= n[..., 2] != 0.0
    return NormalField(n=n, mask=ok), AlbedoMap(values=albedo, mask=ok)


def _scaled_intensities(grids, norms, ld):
    return [grids[k] * norms[k] / ld[k] for k in range(3)]


def _closed_form_system(r, dirs, X, Y, focal_length):
    """Coefficients (m1, m2, m3, m4, h1, h2) of the per-pixel 2x2 system
    m1*gx + m2*gy = h1, m3*gx + m4*gy = h2 of the perspective Lambertian
    solve, from the scaled intensities r_k = I_k * ||L_k|| / l_d,k and the
    light directions."""
    f = focal_length
    alpha, beta, gamma = dirs[:, 0], dirs[:, 1], dirs[:, 2]
    # Per-light linear coefficients of the shading numerator.
    a = [f * alpha[k] + X * gamma[k] for k in range(3)]
    b = [f * beta[k] + Y * gamma[k] for k in range(3)]
    return (
        r[1] * a[0] - r[0] * a[1],
        r[1] * b[0] - r[0] * b[1],
        r[2] * a[0] - r[0] * a[2],
        r[2] * b[0] - r[0] * b[2],
        -r[1] * gamma[0] + r[0] * gamma[1],
        -r[2] * gamma[0] + r[0] * gamma[2],
    )


def _closed_form_gradient(grids, lights, X, Y, focal_length, mask, albedo=False):
    """The closed form at checked grids with pixel coordinates X, Y
    (geometry.pixel_axes' row and column): its log-depth gradients gx, gy,
    zero off the mask ok of the pixels it solved, and ok.  With albedo, also
    lambertian_pps_closed_form's diffuse albedo on its mask, and that mask.
    The frames are solved in pixel_blocks of rows, each written into its
    rows of the preallocated outputs, so that a block's arrays stay in
    cache; the albedo is shaded inside the same block."""
    f = focal_length
    gx, gy = np.zeros((2,) + mask.shape)
    ok = np.zeros(mask.shape, dtype=bool)
    if albedo:
        values = np.empty(mask.shape)
        ok_alb = np.zeros(mask.shape, dtype=bool)
    for rows in pixel_blocks(mask.shape):
        y = Y[rows]
        gx[rows], gy[rows], ok[rows] = _closed_form_rows([g[rows] for g in grids], lights, X, y,
                                                         f, mask[rows])
        if albedo:
            # Material() is k_d = 1, k_s = 0, so the first image over this
            # shading is the albedo
            [shading] = perspective_shading(gx[rows], gy[rows], X, y, lights[:1], Material(), f,
                                            clamp=False)
            lit = ok[rows] & (np.abs(shading) > 1e-12)
            values[rows] = grids[0][rows] / np.where(lit, shading, 1.0)
            ok_alb[rows] = lit
    return (gx, gy, ok, values, ok_alb) if albedo else (gx, gy, ok)


def _closed_form_rows(grids, lights, X, Y, focal_length, mask):
    """One block of _closed_form_gradient: its gx, gy and ok at the rows
    of the grids given, with their mask and coordinates X, Y; its
    temporaries are let go on return."""
    dirs, norms, ld = _light_arrays(lights)
    m1, m2, m3, m4, h1, h2 = _closed_form_system(_scaled_intensities(grids, norms, ld), dirs,
                                                 X, Y, focal_length)

    det = m1 * m4 - m2 * m3
    ok = mask & (np.abs(det) >= SINGULAR_DET_THRESHOLD)
    safe = np.where(ok, det, 1.0)
    gx = np.where(ok, (h1 * m4 - m2 * h2) / safe, 0.0)
    gy = np.where(ok, (m1 * h2 - h1 * m3) / safe, 0.0)
    return gx, gy, ok


def lambertian_pps_closed_form(images, lights, intr: CameraIntrinsics, mask=None):
    """Algebraic perspective Lambertian solve.

    Cross-multiplying the shading equations of image pairs (1,2) and (1,3)
    eliminates albedo and the normal's length, leaving a 2x2 linear system
    per pixel for the log-depth gradient.  Pixels whose system determinant
    falls below 1e-12 are masked out, not clamped.  Returns the gradient
    field and the diffuse albedo recovered by back-substitution.
    """
    grids, mask = _inputs(images, lights, mask)
    h, w = grids[0].shape
    X, Y = pixel_axes(w, h, intr)
    gx, gy, ok, albedo, ok_alb = _closed_form_gradient(grids, lights, X, Y, intr.focal_length,
                                                       mask, albedo=True)
    # the albedo's frame is let go before the gradients' frames are copied
    albedo = AlbedoMap(values=albedo, mask=ok_alb)
    return GradientField(gx=gx, gy=gy, mask=ok), albedo


def sensitivity_indicator(lights, width, height, intr: CameraIntrinsics) -> ConditioningReport:
    """Evaluate the 11 degeneracy expressions of the closed-form solve.

    Each expression is a product combination of light components (and, for
    expressions 4-11, the pixel coordinates) whose vanishing can make the
    per-pixel system singular; |expression| < INDICATOR_THRESHOLD raises a
    flag.  Expression 7 (1-based) is the negative of expression 4, and
    expression 10 of expression 5, up to rounding, so their flags coincide
    for every rig.  The report also carries a global non-coplanarity check
    of the rig and the per-pixel |det| of the system evaluated at the
    intensities I_k = l_d,k.
    """
    dirs, norms, _ = _light_arrays(lights)
    X, Y = pixel_axes(width, height, intr)
    (a1, b1, g1), (a2, b2, g2), (a3, b3, g3) = dirs

    ones = np.ones((height, width))
    exprs = np.stack(
        [
            (b1 * a3 - a1 * b3) * ones,
            (b2 * a1 - a2 * b1) * ones,
            (a2 * b3 - b2 * a3) * ones,
            Y * a1 * g1 - X * b1 * g1,
            X * b2 * g1 - Y * a2 * g1,
            Y * a2 * g3 - X * b2 * g3,
            X * g1 * b1 - Y * g1 * a1,
            Y * g1 * a3 - X * g1 * b3,
            Y * g2 * a1 - X * g2 * b1,
            Y * a2 * g1 - X * b2 * g1,
            X * g2 * b3 - Y * g2 * a3,
        ]
    )
    flags = np.abs(exprs) < INDICATOR_THRESHOLD

    unit = dirs / norms[:, None]
    non_coplanar = bool(abs(np.linalg.det(unit)) >= SINGULAR_DET_THRESHOLD)

    # I_k = l_d,k makes the scaled intensities r_k = ||L_k||.
    m1, m2, m3, m4, _, _ = _closed_form_system(norms, dirs, X, Y, intr.focal_length)
    det_proxy = np.abs(m1 * m4 - m2 * m3)

    return ConditioningReport(
        flags=flags,
        expressions=exprs,
        non_coplanar=non_coplanar,
        det_proxy=det_proxy,
    )


def _squared_norms(f):
    """|f|^2 of the residuals f (3, k), in the order einsum adds a row of three."""
    return (f[0] * f[0] + f[2] * f[2]) + f[1] * f[1]


class _ShadingModel:
    """Batched absolute shading residuals f_k = I_k - R_k of the three lights
    over a set of pixels, and the LM engine's callbacks: the cost |f|^2 for
    its start, and for each step the cost with J^T f and J^T J, J = -dR,
    from one shading pass.  The states are log-depth gradients at image
    points (x, y): bp-pps's at the pixels' points, bp-ppn's at the principal
    point with f = 1, where x = y = 0 are scalars and so is every
    coefficient.  Like the engine, the callbacks work component-major: at
    states x (2, k) of the pixels idx they return one row per light or
    component, the pixels along the last axis.

    The pixels' render.shading_coefficients are formed when a callback
    first needs them, and kept.  fit runs the engine on the model of each
    block (block), so the rows are formed once per block, and the model of
    the whole pixel set forms none.  A callback gathers a light's rows by
    idx when it shades that light, or uses them as they are when idx is
    every pixel in order, and render.shade_from_coefficients shades the
    three lights as the renderers shade them, but with the diffuse term
    left unclamped so the residual stays smooth.  No Jacobian is held: the
    sums are added light by light, in the order numpy's einsum adds them
    over row-major (k, 3) residuals and (k, 3, 2) Jacobians, so they keep
    its bits."""

    def __init__(self, x, y, intensities, lights, material: Material, focal_length):
        self.x = x
        self.y = y
        # intensities (3, n): a gather reads three contiguous rows
        self.I = intensities
        self.lights = lights
        self.material = material
        self.f = float(focal_length)

    @functools.cached_property
    def coefficients(self):
        """The pixels' render.shading_coefficients, per light."""
        return list(shading_coefficients(self.x, self.y, self.lights, self.material, self.f))

    def block(self, part):
        """The model of the pixels part (a slice or an index array) of these."""
        def take(a):
            return a if np.ndim(a) == 0 else a[..., part]
        return _ShadingModel(take(self.x), take(self.y), take(self.I), self.lights,
                             self.material, self.f)

    def _gather(self, idx):
        """A function that takes the pixels idx of a row: the row itself when
        idx is every pixel in order, and a scalar as it is."""
        n = self.I.shape[1]
        if len(idx) == n and np.array_equal(idx, np.arange(n)):
            return lambda a: a
        return lambda a: a if np.ndim(a) == 0 else np.take(a, idx, axis=-1)

    def shading(self, nu, idx, derivatives):
        """The shading of the three lights at the states nu (2, k) of the
        pixels idx: per light R_k, or (R_k, dR_k/dx0, dR_k/dx1).  A light's
        coefficient rows are gathered when it is shaded."""
        take = self._gather(idx)
        coefficients = ((diffuse,
                         None if halfway is None else (*map(take, halfway[:3]), halfway[3]))
                        for diffuse, halfway in self.coefficients)
        return shade_from_coefficients(nu[0], nu[1], take(self.x), take(self.y), coefficients,
                                       self.material.shininess, self.f, clamp=False,
                                       derivatives=derivatives)

    def residuals(self, x, idx):
        take = self._gather(idx)
        f = np.empty((3, len(idx)))
        for row, intensity, shade in zip(f, self.I, self.shading(x, idx, False)):
            np.subtract(take(intensity), shade, out=row)
        return f

    def cost(self, x, idx):
        return _squared_norms(self.residuals(x, idx))

    def normal_equations(self, x, idx):
        """(cost (k,), J^T f (2, k), J^T J packed as (H00, H01, H11) (3, k))."""
        take = self._gather(idx)
        grad = np.empty((2, len(idx)))
        hess = np.empty((3, len(idx)))
        f = []
        for k, (intensity, (shade, j0, j1)) in enumerate(zip(self.I,
                                                             self.shading(x, idx, True))):
            # -f_k = -(I_k - R_k), in the shade's buffer: (-dR) f = dR (-f)
            # bit for bit, the sign of a zero included, so J = -dR is never
            # formed, and |f|^2 is the same from -f.  A light's rows are
            # summed before the next light is shaded, which keeps the step's
            # peak heap down: a larger peak is given back to the system and
            # faulted in again on every step.
            np.subtract(take(intensity), shade, out=shade)
            np.negative(shade, out=shade)
            f.append(shade)
            # each sum starts from its first product: starting from zero
            # would flip the sign of an exact zero
            for out, a, b in ((grad[0], j0, shade), (grad[1], j1, shade),
                              (hess[0], j0, j0), (hess[1], j0, j1), (hess[2], j1, j1)):
                if k == 0:
                    np.multiply(a, b, out=out)
                else:
                    out += a * b
            del shade, j0, j1
        return _squared_norms(f), grad, hess

    def fit(self, x0):
        """LM from x0 over the pixels, in the fewest equal blocks of at most
        LM_BLOCK problems, one engine call on each block's own model, so the
        engine's memory and the coefficient rows follow the block, not the
        image.  A pixel's fit does not depend on the other problems of its
        call, so the blocks change no bit.  Returns (x, residual norm, ok)
        with ok marking convergence."""
        n = len(x0)
        blocks = max(1, -(-n // LM_BLOCK))
        x = np.empty((n, 2))
        a = np.empty(n)
        ok = np.empty(n, dtype=bool)
        bounds = [n * i // blocks for i in range(blocks + 1)]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            block = self.block(slice(lo, hi))
            x[lo:hi], a[lo:hi], conv, fail = levenberg_marquardt_batch(
                block.cost, block.normal_equations, x0[lo:hi])
            ok[lo:hi] = conv & ~fail
        return x, a, ok

    def fit_with_retry(self, x0):
        """fit from x0, then again from zero at the pixels with a nonzero
        start that did not converge or keep a residual norm above
        ACCEPT_TOL: a zero start rescues pixels the first start sends to a
        wrong minimum.  The better attempt is kept.  Returns
        (x, residual norm, ok) as fit does."""
        x, a, ok = self.fit(x0)
        retry = (~ok | (a > ACCEPT_TOL)) & (np.abs(x0) > 0).any(axis=1)
        if retry.any():
            sub = np.nonzero(retry)[0]
            x2, a2, ok2 = self.block(sub).fit(np.zeros((sub.size, 2)))
            better = (ok2 & ~ok[sub]) | (ok2 & (a2 < a[sub]))
            x[sub[better]] = x2[better]
            a[sub[better]] = a2[better]
            ok[sub[better]] = True
        return x, a, ok


def _intensities(grids, mask):
    """The intensities of the mask's pixels in row-major order, one row per
    image, (3, n)."""
    return np.stack([g[mask] for g in grids])


def blinn_phong_pps_solve(
    images, lights, material: Material, intr: CameraIntrinsics, mask=None,
) -> GradientField:
    """Per-pixel perspective Blinn-Phong solve for the log-depth gradient.

    Damped least squares on the absolute shading residuals I_k - R_k(gx, gy)
    of the three images, started from the Lambertian closed-form estimate
    (exact wherever the specular lobe is negligible; zero at pixels the
    closed form masks).  A pixel that does not converge, or keeps a residual
    norm above ACCEPT_TOL, gets a second attempt from a zero start, which
    rescues pixels the first start sends to a wrong minimum; the better
    attempt is kept.  Pixels whose best fit still fails that test are masked
    out.
    """
    grids, mask = _inputs(images, lights, mask)
    h, w = grids[0].shape
    X, Y = pixel_axes(w, h, intr)
    # the start is zero at the pixels the closed form masks
    gx, gy, _ = _closed_form_gradient(grids, lights, X, Y, intr.focal_length, mask)
    x, y = (np.broadcast_to(c, mask.shape)[mask] for c in (X, Y))
    model = _ShadingModel(x, y, _intensities(grids, mask), lights, material, intr.focal_length)
    nu, a, ok = model.fit_with_retry(np.stack([gx[mask], gy[mask]], axis=1))

    gx[mask], gy[mask] = nu.T
    valid = np.zeros((h, w), dtype=bool)
    valid[mask] = ok & (a <= ACCEPT_TOL)
    return GradientField(gx=gx, gy=gy, mask=valid)


def blinn_phong_ortho_solve(
    images, lights, material: Material, mask=None
) -> NormalField:
    """Per-pixel orthographic Blinn-Phong fit of the surface normal.

    The normal is (a, b, 1)/||(a, b, 1)||, fitted over its slope (a, b) with
    the perspective residual model at the principal point x = y = 0, f = 1,
    whose shading of (a, b) is the orthographic shading of that normal; as
    in bp-pps, the diffuse cosine is left unclamped.  The start is the slope
    (n1, n2)/|n3| of the linear Lambertian solve, with the zero-start retry
    of bp-pps.  Pixels whose fit does not converge are masked out.
    """
    grids, mask = _inputs(images, lights, mask)
    init_normals, _ = woodham_normals(grids, lights, mask=mask)
    n0 = init_normals.n[mask]
    model = _ShadingModel(0.0, 0.0, _intensities(grids, mask), lights, material, 1.0)
    x, _, good = model.fit_with_retry(n0[:, :2] / np.abs(n0[:, 2:]))

    m = np.column_stack([x, np.ones(len(x))])
    n = np.zeros(grids[0].shape + (3,))
    n[mask] = m / np.linalg.norm(m, axis=1, keepdims=True)
    ok = np.zeros(grids[0].shape, dtype=bool)
    ok[mask] = good
    return NormalField(n=n, mask=ok)
