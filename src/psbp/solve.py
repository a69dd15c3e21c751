"""Inverse shading: recover normals or log-depth gradients from image triplets.

Four per-pixel solvers are provided:

* woodham_normals          -- linear orthographic Lambertian solve
* lambertian_pps_closed_form -- algebraic perspective Lambertian solve for
                                log-depth gradients and diffuse albedo
* blinn_phong_ortho_solve  -- damped least squares over (n1, n2) under the
                              orthographic Blinn-Phong model
* blinn_phong_pps_solve    -- damped least squares over the log-depth
                              gradient on the absolute shading residuals of
                              the perspective Blinn-Phong model

plus conditioning diagnostics for three-light rigs.  The Blinn-Phong shading
and its derivatives come from render.orthographic_shading and
render.perspective_shading, the functions the renderers use.
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
from .render import orthographic_shading, perspective_shading

SINGULAR_DET_THRESHOLD = 1e-12
# Largest absolute shading-residual norm at which bp-pps accepts a pixel.
ACCEPT_TOL = 1e-3
INDICATOR_THRESHOLD = 1e-12


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


def _image_stack(images):
    grids = [img.data if isinstance(img, Image) else np.asarray(img, float) for img in images]
    if len(grids) != 3:
        raise ValueError("exactly 3 input images are required")
    shape = grids[0].shape
    for g in grids:
        if g.shape != shape:
            raise ValueError("input images must share one shape")
    return grids


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
    (shadowed or empty pixels) are masked out.
    """
    grids = _image_stack(images)
    dirs, norms, ld = _light_arrays(lights)
    for li in lights:
        li.require_frontal()
    lmat = dirs / norms[:, None]
    det = np.linalg.det(lmat)
    if abs(det) < SINGULAR_DET_THRESHOLD:
        raise ValueError("light directions are coplanar: singular light matrix")
    if np.any(ld <= 0):
        raise ValueError("diffuse light intensities must be positive")
    if mask is None:
        mask = input_mask(grids)
    rhs = np.stack([g / l for g, l in zip(grids, ld)], axis=-1)
    b = rhs @ np.linalg.inv(lmat).T
    albedo = np.linalg.norm(b, axis=-1)
    ok = mask & (albedo > 1e-12)
    n = np.where(ok[..., None], b / np.where(ok, albedo, 1.0)[..., None], 0.0)
    n[~ok] = (0.0, 0.0, 1.0)
    ok &= n[..., 2] != 0.0
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
    grids = _image_stack(images)
    dirs, norms, ld = _light_arrays(lights)
    for li in lights:
        li.require_frontal()
    h, w = grids[0].shape
    if mask is None:
        mask = input_mask(grids)
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

    wterm = X * gx + Y * gy + 1.0
    nn = np.sqrt((f * gx) ** 2 + (f * gy) ** 2 + wterm * wterm)
    alpha, beta, gamma = dirs[0]
    denom = ld[0] * ((f * alpha + X * gamma) * gx + (f * beta + Y * gamma) * gy + gamma)
    ok_alb = ok & (np.abs(denom) > 1e-12)
    albedo = np.where(ok_alb, grids[0] * norms[0] * nn / np.where(ok_alb, denom, 1.0), 0.0)
    return grad, AlbedoMap(values=albedo, mask=ok_alb)


def sensitivity_indicator(lights, width, height, intr: CameraIntrinsics) -> ConditioningReport:
    """Evaluate the 11 degeneracy expressions of the closed-form solve.

    Each expression is a product combination of light components (and, for
    expressions 4-11, the pixel coordinates) whose vanishing can make the
    per-pixel system singular; |expression| < INDICATOR_THRESHOLD raises a
    flag.  The report also carries a global non-coplanarity check of the rig
    and the per-pixel |det| of the system evaluated at the intensities
    I_k = l_d,k.
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


def _residuals_and_jacobian(intensities, per_light):
    """Residuals I_k - R_k (k, 3) and their Jacobian (k, 3, 2) from one
    derivative shading pass per light, (R, dR/dx0, dR/dx1)."""
    f = np.empty(intensities.shape)
    jac = np.empty(intensities.shape + (2,))
    for k, (shade, *slopes) in enumerate(per_light):
        np.subtract(intensities[:, k], shade, out=f[:, k])
        for c, slope in enumerate(slopes):
            np.negative(slope, out=jac[:, k, c])
    return f, jac


class _PerspectiveModel:
    """Batched absolute shading residuals I_k - R_k of the perspective
    Blinn-Phong model over a set of pixels: residuals alone for the LM
    engine's start, and residuals with their Jacobian from one shading pass
    for each step (the engine's fused callback).  The diffuse cosine is left
    unclamped so the residual stays smooth."""

    def __init__(self, x, y, intensities, lights, material: Material, focal_length):
        self.x = x
        self.y = y
        self.I = intensities
        self.lights = lights
        self.material = material
        self.f = float(focal_length)
        # halfway vectors components first, (3, n): a gather reads three
        # contiguous rows and the shading reads contiguous components
        self.halfway = [
            np.ascontiguousarray(halfway_vector_grid(x, y, self.f, li).T)
            if material.k_s != 0.0 else None
            for li in lights
        ]

    def _shading(self, nu, idx, derivatives):
        x = self.x[idx]
        y = self.y[idx]
        return [
            perspective_shading(nu[:, 0], nu[:, 1], x, y, li, self.material, self.f,
                                halfway=None if h is None else np.take(h, idx, axis=1).T,
                                clamp=False,
                                derivatives=derivatives)
            for li, h in zip(self.lights, self.halfway)
        ]

    def residuals(self, nu, idx):
        return self.I[idx] - np.stack(self._shading(nu, idx, False), axis=1)

    def residuals_and_jacobian(self, nu, idx):
        return _residuals_and_jacobian(np.take(self.I, idx, axis=0),
                                       self._shading(nu, idx, True))


def _subset_calls(fn, sub):
    if sub is None:
        return fn
    return lambda nu, idx: fn(nu, sub[idx])


def _attempt(model, x0, sub=None):
    """LM on the absolute residuals from x0, over the pixels sub (all when
    None).  Returns (x, residual norm, ok) with ok marking convergence."""
    res = _subset_calls(model.residuals, sub)
    fused = _subset_calls(model.residuals_and_jacobian, sub)
    x, a, conv, fail = levenberg_marquardt_batch(res, fused, x0)
    return x, a, conv & ~fail


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
    grids = _image_stack(images)
    for li in lights:
        li.require_frontal()
    h, w = grids[0].shape
    if mask is None:
        mask = input_mask(grids)
    if not mask.any():
        return GradientField(
            gx=np.zeros((h, w)), gy=np.zeros((h, w)), mask=np.zeros((h, w), dtype=bool),
        )

    init_grad, _ = lambertian_pps_closed_form(grids, lights, intr, mask=mask)

    X, Y = pixel_grid(w, h, intr)
    rows, cols = np.nonzero(mask)
    intensities = np.stack([g[rows, cols] for g in grids], axis=1)
    model = _PerspectiveModel(
        X[rows, cols], Y[rows, cols], intensities, lights, material, intr.focal_length
    )

    x0 = np.stack([init_grad.gx[rows, cols], init_grad.gy[rows, cols]], axis=1)
    x, a, ok = _attempt(model, x0)

    retry = (~ok | (a > ACCEPT_TOL)) & (np.abs(x0) > 0).any(axis=1)
    if retry.any():
        sub = np.nonzero(retry)[0]
        x2, a2, ok2 = _attempt(model, np.zeros((sub.size, 2)), sub=sub)
        better = (ok2 & ~ok[sub]) | (ok2 & (a2 < a[sub]))
        x[sub[better]] = x2[better]
        a[sub[better]] = a2[better]
        ok[sub[better]] = True

    good = ok & (a <= ACCEPT_TOL)
    gx = np.zeros((h, w))
    gy = np.zeros((h, w))
    valid = np.zeros((h, w), dtype=bool)
    gx[rows, cols] = np.where(good, x[:, 0], 0.0)
    gy[rows, cols] = np.where(good, x[:, 1], 0.0)
    valid[rows, cols] = good
    return GradientField(gx=gx, gy=gy, mask=valid)


class _OrthoModel:
    """Batched residuals of the orthographic Blinn-Phong fit over the first
    two normal components: alone for the LM engine's start, and with their
    Jacobian from one shading pass for each step."""

    def __init__(self, intensities, lights, material: Material):
        self.I = np.asarray(intensities, dtype=np.float64)
        self.lights = lights
        self.material = material

    @staticmethod
    def _n3(n12):
        return np.sqrt(np.maximum(1.0 - n12[:, 0] ** 2 - n12[:, 1] ** 2, 1e-12))

    def _shading(self, n12, derivatives):
        n = np.stack([n12[:, 0], n12[:, 1], self._n3(n12)], axis=1)
        return [orthographic_shading(n, li, self.material, derivatives=derivatives)
                for li in self.lights]

    def residuals(self, n12, idx):
        return self.I[idx] - np.stack(self._shading(n12, False), axis=1)

    def residuals_and_jacobian(self, n12, idx):
        return _residuals_and_jacobian(np.take(self.I, idx, axis=0),
                                       self._shading(n12, True))

    @staticmethod
    def project(n12):
        r = np.linalg.norm(n12, axis=1)
        limit = 1.0 - 1e-6
        scale = np.where(r > limit, limit / np.maximum(r, 1e-300), 1.0)
        return n12 * scale[:, None]


def blinn_phong_ortho_solve(
    images, lights, material: Material, mask=None
) -> NormalField:
    """Per-pixel orthographic Blinn-Phong fit of the surface normal.

    The normal is parameterized by (n1, n2) with n3 = +sqrt(1 - n1^2 - n2^2);
    trial steps leaving the unit disk are projected back to radius 1 - 1e-6.
    Initialization comes from the linear Lambertian solve.
    """
    grids = _image_stack(images)
    for li in lights:
        li.require_frontal()
    h, w = grids[0].shape
    if mask is None:
        mask = input_mask(grids)
    empty = NormalField(
        n=np.broadcast_to(np.array([0.0, 0.0, 1.0]), (h, w, 3)).copy(),
        mask=np.zeros((h, w), dtype=bool),
    )
    if not mask.any():
        return empty

    init_normals, _ = woodham_normals(grids, lights, mask=mask)
    rows, cols = np.nonzero(mask)
    intensities = np.stack([g[rows, cols] for g in grids], axis=1)
    model = _OrthoModel(intensities, lights, material)
    x0 = model.project(
        np.stack([init_normals.n[rows, cols, 0], init_normals.n[rows, cols, 1]], axis=1)
    )
    xr, rnorm, conv, fail = levenberg_marquardt_batch(
        model.residuals, model.residuals_and_jacobian, x0, project=model.project
    )
    good = conv & ~fail

    n = np.zeros((h, w, 3))
    n[..., 2] = 1.0
    n3 = model._n3(xr)
    n[rows, cols, 0] = np.where(good, xr[:, 0], 0.0)
    n[rows, cols, 1] = np.where(good, xr[:, 1], 0.0)
    n[rows, cols, 2] = np.where(good, n3, 1.0)
    ok = np.zeros((h, w), dtype=bool)
    ok[rows, cols] = good
    return NormalField(n=n, mask=ok)
