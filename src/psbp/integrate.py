"""Gradient-field integration and depth-map alignment.

poisson_integrate recovers the potential u minimizing the discrete
least-squares misfit sum ||grad u - g||^2 with free (homogeneous Neumann)
boundaries, i.e. it solves the five-point Laplacian with the divergence of g
on the right-hand side.  The input gradients are per-pixel, as the solvers
return them; each edge between two neighbouring pixels of the mask takes the
mean of its two pixels' gradients.  On the full rectangle a cosine transform
diagonalizes the operator.  Masked domains use conjugate gradients on the
sparse normal equations, preconditioned by that full-rectangle cosine-transform
solve (Simchony, Chellappa & Shao, PAMI 1990); the result has zero mean on
each 4-connected component of the mask, and an isolated pixel is 0.  The
preconditioner runs in single precision on a normalized residual and
normalized eigenvalues; CG's recurrences and stopping test stay in double,
as an inexact preconditioner only changes the iteration count (Golub & Ye,
SIAM J. Sci. Comput. 1999).
"""

from __future__ import annotations

import numpy as np
import scipy.fft
import scipy.ndimage
import scipy.sparse
import scipy.sparse.linalg

from .core import DepthMap, GradientField, NumericalError, mse, normalize_unit_range

# conjugate gradients stop at this residual norm relative to the right-hand
# side, or fail after CG_MAX_ITER iterations; preconditioned solves that
# converge take a few hundred at most
CG_RTOL = 1e-10
CG_MAX_ITER = 2000


def _divergence(ex, ey, hx, hy):
    """Right-hand side sum of backward differences of the edge samples."""
    h, w = ex.shape[0], ey.shape[1]
    b = np.zeros((h, w))
    b[:, :-1] -= ex / hx
    b[:, 1:] += ex / hx
    b[:-1, :] -= ey / hy
    b[1:, :] += ey / hy
    return -b


def _neumann_eigenvalues(h, w, hx, hy):
    """Eigenvalues of +grad^T grad on the full h x w rectangle with free
    boundaries, in the cosine basis; the zero mode's entry reads 1."""
    lam_x = (2.0 - 2.0 * np.cos(np.pi * np.arange(w) / w)) / (hx * hx)
    lam_y = (2.0 - 2.0 * np.cos(np.pi * np.arange(h) / h)) / (hy * hy)
    lam = lam_x[None, :] + lam_y[:, None]
    lam[0, 0] = 1.0
    return lam


def _neumann_solve(b, lam):
    """Zero-mean solution u of +grad^T grad u = b on the full rectangle,
    given the operator's eigenvalues lam; the cosine transform diagonalizes
    the operator.  Both transforms run in place, so b is overwritten."""
    bh = scipy.fft.dctn(b, type=2, norm="ortho", overwrite_x=True)
    bh /= lam
    bh[0, 0] = 0.0
    return scipy.fft.idctn(bh, type=2, norm="ortho", overwrite_x=True)


def _poisson_dct(ex, ey, hx, hy):
    h, w = ex.shape[0], ey.shape[1]
    # The cosine eigenvalues belong to +grad^T grad, whose matching
    # right-hand side is the negated divergence.
    b = -_divergence(ex, ey, hx, hy)
    return _neumann_solve(b, _neumann_eigenvalues(h, w, hx, hy))


def _poisson_cg(ex, ey, mask, hx, hy):
    h, w = mask.shape
    idx = -np.ones((h, w), dtype=np.int64)
    ii, jj = np.nonzero(mask)
    n = ii.size
    idx[ii, jj] = np.arange(n)

    # The labels and frame buffers below are allocated before the matrix:
    # allocated after it, they left the top of the heap free once the solve
    # returned, and the next 512^2 render paid ~2.5k page faults to map it
    # again.

    # +grad^T grad is singular once per 4-connected component; the solution
    # is kept in its range by removing each component's mean
    labels, _ = scipy.ndimage.label(mask)
    comp = labels[mask] - 1
    size = np.bincount(comp)

    def center(v):
        return v - (np.bincount(comp, weights=v) / size)[comp]

    # preconditioner: the full-rectangle solve of the residual, zero off the
    # mask, in one single-precision frame buffer reused across iterations
    lam = _neumann_eigenvalues(h, w, hx, hy)
    top = lam.flat[1:].max()
    lam = (lam / top).astype(np.float32)
    lam[0, 0] = 1.0
    grid = np.empty((h, w), dtype=np.float32)

    def precondition(r):
        # float32 spans only ~1e-38 to 3e38, which a residual or 1/spacing^2
        # can leave; both enter normalized to a largest magnitude of 1, and
        # the scale comes back in double
        scale = np.abs(r).max()
        grid.fill(0.0)
        grid[mask] = r / scale
        return center(np.multiply(_neumann_solve(grid, lam)[mask], scale / top,
                                  dtype=np.float64))

    rows, cols, vals = [], [], []
    rhs = np.zeros(n)

    def add_edges(ok, g, p_idx, q_idx, step):
        wgt = 1.0 / (step * step)
        p = p_idx[ok]
        q = q_idx[ok]
        ge = g[ok] / step
        rows.extend([p, q, p, q])
        cols.extend([p, q, q, p])
        vals.extend([np.full(p.size, wgt), np.full(p.size, wgt),
                     np.full(p.size, -wgt), np.full(p.size, -wgt)])
        np.add.at(rhs, p, -ge)
        np.add.at(rhs, q, ge)

    # an edge exists where both of its pixels lie in the mask
    add_edges(mask[:, :-1] & mask[:, 1:], ex, idx[:, :-1], idx[:, 1:], hx)
    add_edges(mask[:-1, :] & mask[1:, :], ey, idx[:-1, :], idx[1:, :], hy)
    if not rows:
        return np.zeros((h, w))
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    a = scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))

    if np.linalg.norm(rhs) == 0.0:
        sol = np.zeros(n)
    else:
        m = scipy.sparse.linalg.LinearOperator((n, n), matvec=precondition, dtype=np.float64)
        sol, info = scipy.sparse.linalg.cg(
            a, rhs, rtol=CG_RTOL, atol=0.0, maxiter=CG_MAX_ITER, M=m
        )
        if info > 0:
            raise NumericalError(
                f"conjugate-gradient integration did not converge in {CG_MAX_ITER} iterations"
            )
        if info < 0:
            raise NumericalError("conjugate-gradient integration failed")
    out = np.zeros((h, w))
    out[mask] = center(sol)
    return out


def _integrate_edges(ex, ey, mask, hx, hy):
    """Potential of edge gradients ex (h, w-1) and ey (h-1, w) on the mask;
    edges that leave the mask are dropped and masked-out pixels are zero."""
    if mask.all():
        u = _poisson_dct(ex, ey, hx, hy)
        u -= np.mean(u[mask])
        return u
    return _poisson_cg(ex, ey, mask, hx, hy)


def poisson_integrate(grad: GradientField, hx=1.0, hy=1.0):
    """Integrate a per-pixel gradient field to a potential; masked-out pixels
    are zero.  The potential has zero mean on each 4-connected component of
    the mask (an isolated pixel is 0)."""
    if not grad.mask.any():
        raise NumericalError("cannot integrate a fully masked gradient field")
    ex = 0.5 * (grad.gx[:, :-1] + grad.gx[:, 1:])
    ey = 0.5 * (grad.gy[:-1, :] + grad.gy[1:, :])
    return _integrate_edges(ex, ey, grad.mask, hx, hy)


def exp_depth(potential, mask=None) -> DepthMap:
    """Exponentiate an integrated log-depth potential into a depth map."""
    u = np.asarray(potential, dtype=np.float64)
    if mask is None:
        mask = np.ones(u.shape, dtype=bool)
    big = mask & (np.abs(u) > 700.0)
    if np.any(big):
        r, c = np.argwhere(big)[0]
        raise NumericalError(
            f"log-depth overflow at pixel (col={c}, row={r}): |value| > 700"
        )
    z = np.where(mask, np.exp(np.where(mask, u, 0.0)), 0.0)
    return DepthMap(z=z, mask=mask.copy())


def align_depth(estimate: DepthMap, reference: DepthMap):
    """Fit the free global scale of an estimated depth map to a reference.

    Solves for the offset c minimizing sum (ln z_est + c - ln z_ref)^2 over
    the joint mask and returns (aligned estimate, mse_raw, mse_normalized);
    mse_normalized compares the two maps after independent unit-range
    normalization, making it insensitive to global scale and offset.
    """
    if estimate.z.shape != reference.z.shape:
        raise ValueError("depth map shapes do not match")
    joint = estimate.mask & reference.mask
    if not joint.any():
        raise ValueError("aligned depth maps share no valid pixels")
    ze = estimate.z[joint]
    zr = reference.z[joint]
    if np.any(ze <= 0) or np.any(zr <= 0):
        raise ValueError("depth alignment requires strictly positive depths")
    c = float(np.mean(np.log(zr) - np.log(ze)))
    scale = np.exp(c)
    aligned = DepthMap(z=np.where(joint, estimate.z * scale, 0.0), mask=joint)
    raw = mse(aligned.z, reference.z, joint)
    na = normalize_unit_range(aligned)
    nr = normalize_unit_range(DepthMap(z=np.where(joint, reference.z, 0.0), mask=joint))
    normalized = mse(na.z, nr.z, joint)
    return aligned, raw, normalized
