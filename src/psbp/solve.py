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

plus conditioning diagnostics for three-light rigs.  Both Blinn-Phong
solvers fit one residual model, _ShadingModel: the absolute residuals
I_k - R_k of the three images, shaded by render.perspective_shading as the
renderers shade them, handed to the LM engine as their squared norm and
normal equations.  bp-ppn builds it at the principal point x = y = 0
with f = 1, where the perspective shading of the slope (a, b) is the
orthographic shading of the normal (a, b, 1)/||(a, b, 1)||.  Both take one
path per pixel set: gather the mask's pixels (_pixels), fit them from the
Lambertian start with a zero-start retry (_ShadingModel.fit_with_retry),
each attempt in the fewest equal blocks of at most LM_BLOCK pixels so that
its memory follows the block, not the image, and scatter the fitted states
back into grids.  bp-pps keeps the pixels whose fit converged with a
residual norm <= ACCEPT_TOL; bp-ppn keeps every converged pixel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    CameraIntrinsics,
    GradientField,
    Image,
    Material,
    NormalField,
    input_mask,
)
from .geometry import halfway_vector_grid, pixel_grid
from .optim import levenberg_marquardt_batch
from .render import perspective_shading

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
class AlbedoMap:
    """Per-pixel diffuse albedo estimate."""

    values: np.ndarray
    mask: np.ndarray


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
    return grids, mask


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
    (shadowed or empty pixels) and normals with n3 = 0 are masked out, with
    normal (0, 0, 1).
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
    n = np.where(ok[..., None], b / np.where(ok, albedo, 1.0)[..., None], 0.0)
    ok &= n[..., 2] != 0.0
    n[~ok] = (0.0, 0.0, 1.0)
    normals = NormalField(n=n, mask=ok)
    return normals, AlbedoMap(values=np.where(ok, albedo, 0.0), mask=ok.copy())


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


def lambertian_pps_closed_form(images, lights, intr: CameraIntrinsics, mask=None):
    """Algebraic perspective Lambertian solve.

    Cross-multiplying the shading equations of image pairs (1,2) and (1,3)
    eliminates albedo and the normal's length, leaving a 2x2 linear system
    per pixel for the log-depth gradient.  Pixels whose system determinant
    falls below 1e-12 are masked out, not clamped.  Returns the gradient
    field and the diffuse albedo recovered by back-substitution.
    """
    grids, mask = _inputs(images, lights, mask)
    dirs, norms, ld = _light_arrays(lights)
    h, w = grids[0].shape
    X, Y = pixel_grid(w, h, intr)
    f = intr.focal_length
    m1, m2, m3, m4, h1, h2 = _closed_form_system(_scaled_intensities(grids, norms, ld), dirs,
                                                 X, Y, f)

    det = m1 * m4 - m2 * m3
    ok = mask & (np.abs(det) >= SINGULAR_DET_THRESHOLD)
    safe = np.where(ok, det, 1.0)
    gx = np.where(ok, (h1 * m4 - m2 * h2) / safe, 0.0)
    gy = np.where(ok, (m1 * h2 - h1 * m3) / safe, 0.0)
    grad = GradientField(gx=gx, gy=gy, mask=ok)

    # Material() is k_d = 1, k_s = 0, so the first image over this shading is the albedo
    [shading] = perspective_shading(gx, gy, X, Y, lights[:1], Material(), f, clamp=False)
    ok_alb = ok & (np.abs(shading) > 1e-12)
    albedo = np.where(ok_alb, grids[0] / np.where(ok_alb, shading, 1.0), 0.0)
    return grad, AlbedoMap(values=albedo, mask=ok_alb)


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
    X, Y = pixel_grid(width, height, intr)
    (a1, b1, g1), (a2, b2, g2), (a3, b3, g3) = dirs

    ones = np.ones_like(X)
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
    point with f = 1.  Like the engine, the callbacks work component-major:
    at states x (2, k) of the pixels idx they return one row per light or
    component, the pixels along the last axis.  One render.perspective_shading
    call shades all three lights, sharing the pixels' geometry, as the
    renderers shade them but with the diffuse cosine left unclamped so the
    residual stays smooth.  No Jacobian is held: the sums are added light by
    light, in the order numpy's einsum adds them over row-major (k, 3)
    residuals and (k, 3, 2) Jacobians, so they keep its bits."""

    def __init__(self, x, y, intensities, lights, material: Material, focal_length):
        self.x = x
        self.y = y
        # intensities (3, n) and halfway vectors components first, (3, n): a
        # gather reads three contiguous rows and the shading reads contiguous
        # components
        self.I = intensities
        self.lights = lights
        self.material = material
        self.f = float(focal_length)
        self.halfway = (None if material.k_s == 0.0 else
                        [np.ascontiguousarray(halfway_vector_grid(x, y, self.f, li).T)
                         for li in lights])

    def shading(self, nu, idx, derivatives):
        """perspective_shading of the three lights at the states nu (2, k)
        of the pixels idx: per light R_k, or (R_k, dR_k/dx0, dR_k/dx1).  A
        light's halfway vectors are gathered when it is shaded."""
        halfway = (None if self.halfway is None else
                   (np.take(h, idx, axis=1).T for h in self.halfway))
        return perspective_shading(nu[0], nu[1], self.x[idx], self.y[idx], self.lights,
                                   self.material, self.f, halfway=halfway, clamp=False,
                                   derivatives=derivatives)

    def residuals(self, x, idx):
        f = np.take(self.I, idx, axis=1)
        for row, shade in zip(f, self.shading(x, idx, False)):
            row -= shade
        return f

    def cost(self, x, idx):
        return _squared_norms(self.residuals(x, idx))

    def normal_equations(self, x, idx):
        """(cost (k,), J^T f (2, k), J^T J packed as (H00, H01, H11) (3, k))."""
        f = np.take(self.I, idx, axis=1)
        grad = np.empty((2,) + f.shape[1:])
        hess = np.empty((3,) + f.shape[1:])
        per_light = self.shading(x, idx, True)
        for k in range(len(f)):
            # a light's rows are freed before the next light is shaded, which
            # keeps the step's peak heap down: a larger peak is given back to
            # the system and faulted in again on every step
            shade, j0, j1 = next(per_light)
            f[k] -= shade
            # J = -dR is negated before the products, and each sum starts
            # from its first product: negating a finished sum, or starting
            # from zero, would flip the sign of an exact zero
            np.negative(j0, out=j0)
            np.negative(j1, out=j1)
            for out, a, b in ((grad[0], j0, f[k]), (grad[1], j1, f[k]),
                              (hess[0], j0, j0), (hess[1], j0, j1), (hess[2], j1, j1)):
                if k == 0:
                    np.multiply(a, b, out=out)
                else:
                    out += a * b
            del shade, j0, j1
        return _squared_norms(f), grad, hess

    def fit(self, x0, sub=None):
        """LM from x0 over the pixels sub (all when None), in the fewest
        equal blocks of at most LM_BLOCK problems, one engine call each, so
        the engine's memory follows the block, not the image.  A pixel's fit
        does not depend on the other problems of its call, so the blocks
        change no bit.  Returns (x, residual norm, ok) with ok marking
        convergence."""
        n = len(x0)
        blocks = -(-n // LM_BLOCK)
        if blocks <= 1:
            return self._fit_block(x0, sub)
        x = np.empty((n, 2))
        a = np.empty(n)
        ok = np.empty(n, dtype=bool)
        bounds = [n * i // blocks for i in range(blocks + 1)]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            part = np.arange(lo, hi) if sub is None else sub[lo:hi]
            x[lo:hi], a[lo:hi], ok[lo:hi] = self._fit_block(x0[lo:hi], part)
        return x, a, ok

    def _fit_block(self, x0, sub):
        """One engine call from x0 over the pixels sub (all when None)."""
        cost, normal_equations = self.cost, self.normal_equations
        if sub is not None:
            cost = lambda x, idx: self.cost(x, sub[idx])
            normal_equations = lambda x, idx: self.normal_equations(x, sub[idx])
        x, a, conv, fail = levenberg_marquardt_batch(cost, normal_equations, x0)
        return x, a, conv & ~fail

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
            x2, a2, ok2 = self.fit(np.zeros((sub.size, 2)), sub=sub)
            better = (ok2 & ~ok[sub]) | (ok2 & (a2 < a[sub]))
            x[sub[better]] = x2[better]
            a[sub[better]] = a2[better]
            ok[sub[better]] = True
        return x, a, ok


def _pixels(grids, mask):
    """The mask's pixel index tuple and the pixels' intensities, one row per
    image, (3, n)."""
    pix = np.nonzero(mask)
    return pix, np.stack([g[pix] for g in grids])


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
    init_grad, _ = lambertian_pps_closed_form(grids, lights, intr, mask=mask)

    h, w = grids[0].shape
    X, Y = pixel_grid(w, h, intr)
    pix, intensities = _pixels(grids, mask)
    model = _ShadingModel(X[pix], Y[pix], intensities, lights, material, intr.focal_length)
    x, a, ok = model.fit_with_retry(np.stack([init_grad.gx[pix], init_grad.gy[pix]], axis=1))

    # GradientField zeroes the gradients of the rejected pixels
    gx, gy = np.zeros((2, h, w))
    gx[pix], gy[pix] = x.T
    valid = np.zeros((h, w), dtype=bool)
    valid[pix] = ok & (a <= ACCEPT_TOL)
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
    of bp-pps.  Pixels whose fit does not converge are masked out, with
    normal (0, 0, 1).
    """
    grids, mask = _inputs(images, lights, mask)
    init_normals, _ = woodham_normals(grids, lights, mask=mask)
    pix, intensities = _pixels(grids, mask)
    n0 = init_normals.n[pix]
    at_principal_point = np.zeros(len(n0))
    model = _ShadingModel(at_principal_point, at_principal_point, intensities, lights,
                          material, 1.0)
    x, _, good = model.fit_with_retry(n0[:, :2] / np.abs(n0[:, 2:]))

    # slope 0 is the normal (0, 0, 1)
    x[~good] = 0.0
    m = np.column_stack([x, np.ones(len(x))])
    n = np.zeros(grids[0].shape + (3,))
    n[..., 2] = 1.0
    n[pix] = m / np.linalg.norm(m, axis=1, keepdims=True)
    ok = np.zeros(grids[0].shape, dtype=bool)
    ok[pix] = good
    return NormalField(n=n, mask=ok)
