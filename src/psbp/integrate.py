"""Gradient-field integration and depth-map alignment.

poisson_integrate recovers the potential u minimizing the discrete
least-squares misfit sum ||grad u - g||^2 with free (homogeneous Neumann)
boundaries, i.e. it solves the five-point Laplacian with the divergence of g
on the right-hand side.  The input gradients are per-pixel, as the solvers
return them; each edge between two neighbouring pixels of the mask takes the
mean of its two pixels' gradients.  On the full rectangle a cosine transform
diagonalizes the operator.  A partial mask is assembled once into the sparse
normal equations, singular once per 4-connected component, and one block of
them is factorized by sparse LU (SuperLU), with one node pinned in each
component that lies wholly inside the block.  The pinned block is symmetric
positive definite, and its solution differs from the singular system's only
by a constant per component.  The number of unknowns chooses which pixels
form the block:

- At most DIRECT_MAX_UNKNOWNS: the whole mask, and its solve is the answer.
  A mask full of holes, as a noisy or specular image leaves after bp-pps
  rejects pixels, has small separators, so its factor stays small; it is
  also where the full-frame preconditioner below is weakest and CG needs
  hundreds of iterations.
- Above it: the band of masked pixels within BAND_WIDTH of an off-mask
  pixel (the limb, every hole and every small island), solved exactly
  around the full-frame preconditioner of conjugate gradients in a
  symmetric two-level Schwarz form (Toselli & Widlund, Domain Decomposition
  Methods, 2005); a band of more than DIRECT_MAX_UNKNOWNS pixels is not
  factorized.  The full-frame preconditioner is the full-rectangle solve
  restricted to the mask (Simchony, Chellappa & Shao, PAMI 1990) with no
  projection per iteration: it is symmetric positive definite on a partial
  mask and the right-hand side sums to zero on every component, so CG
  converges on the singular system (Kaasschieter, J. Comput. Appl. Math.
  1988).  It runs in single precision on a normalized residual and
  normalized eigenvalues; CG's recurrences and stopping test stay in
  double, as an inexact preconditioner only changes the iteration count
  (Golub & Ye, SIAM J. Sci. Comput. 1999).  On a large compact mask the
  LU factor of the whole mask fills in faster than CG's iterations grow.

Median seconds per solve on the benchmark's spheres, range over two sets of
seven solves (2-core Xeon, numpy 2.4.6, scipy 1.17.1), "noisy" with
sigma = 1e-3 sensor noise, "clean" without.  "direct s" factorizes the
whole mask; CG is shown with the full-frame preconditioner alone -> with
the band solved around it.  The noisy masks lie wholly in their band, and
the 384^2 one is over the limit:

    mask        unknowns components    band  CG iterations CG s                    direct s
    noisy 256^2   24,111        465  24,111  205 -> 1      0.148-0.150 -> 0.025    0.020-0.021
    noisy 384^2   54,703        887  54,703  222           0.354-0.360             0.050-0.052
    clean 128^2    8,931          7   2,843  36 -> 10      0.0085-0.0086 -> 0.0083 0.0102-0.0103
    clean 256^2   35,604         23   6,427  51 -> 13      0.043-0.044 -> 0.027    0.057-0.058
    clean 512^2  142,520         67  14,531  75 -> 17      0.268 -> 0.118-0.121    0.33-0.35

Fragmentation, not size alone, sets the crossover.  The limit factorizes
every fragmented mask up to 2^15 pixels whole, at the cost of ~2 ms on a
compact mask of ~9k pixels (clean 128^2), where CG with its band would be
faster, and keeps CG where the whole mask's factor would fill in.  Each
component's mean is removed once, from the solution; an isolated pixel is 0.
"""

from __future__ import annotations

import numpy as np
import scipy.fft
import scipy.ndimage
import scipy.sparse
import scipy.sparse.linalg

from .core import DepthMap, GradientField, NumericalError

# conjugate gradients, which integrate masks of more than DIRECT_MAX_UNKNOWNS
# pixels, stop at this residual norm relative to the right-hand side, or fail
# after CG_MAX_ITER iterations; preconditioned solves that converge take a few
# hundred at most (222 on a 55k-pixel mask in 887 pieces, whose band is over
# the limit; 17 on the 142.5k-pixel 512^2 disc with its holes)
CG_RTOL = 1e-10
CG_MAX_ITER = 2000
# the block factorized for a partial mask is the whole mask if it has at most
# this many pixels, and otherwise the band, if that has at most this many;
# see the module docstring for the measured crossover
DIRECT_MAX_UNKNOWNS = 2**15
# CG's preconditioner solves exactly for the masked pixels that lie within
# this many pixels of an off-mask pixel, in rows and in columns
BAND_WIDTH = 4


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


def _dct_preconditioner(mask, hx, hy):
    """Matvec of the full-rectangle solve restricted to the mask, in one
    single-precision frame buffer reused across iterations."""
    h, w = mask.shape
    flat = np.flatnonzero(mask)
    lam = _neumann_eigenvalues(h, w, hx, hy)
    top = lam.flat[1:].max()
    lam = (lam / top).astype(np.float32)
    lam[0, 0] = 1.0
    grid = np.empty((h, w), dtype=np.float32)
    frame = grid.reshape(-1)

    def precondition(r):
        # float32 spans only ~1e-38 to 3e38, which a residual or 1/spacing^2
        # can leave; both enter normalized to a largest magnitude of 1, and
        # the scale comes back in double.  No mean is removed here: S v is
        # zero off a partial mask, never a non-zero constant, so S^T L^+ S is
        # symmetric positive definite; CG's null-space drift goes at the end.
        scale = np.abs(r).max()
        if scale == 0.0:
            return np.zeros(flat.size)
        grid.fill(0.0)
        frame[flat] = r / scale
        return np.multiply(np.take(_neumann_solve(grid, lam), flat), scale / top,
                           dtype=np.float64)

    return precondition


def _components(mask):
    """Index of the 4-connected component of each masked pixel, in mask
    order.  +grad^T grad is singular once per component; each component's
    mean is removed once, from the solution."""
    labels, _ = scipy.ndimage.label(mask)
    return labels[mask] - 1


def _masked_system(ex, ey, mask, hx, hy):
    """The sparse normal equations +grad^T grad u = rhs on the masked pixels,
    as (symmetric CSR matrix, rhs), singular once per component.  The matrix
    is written in CSR order in one pass, with no duplicates to sum: a row
    holds its pixel's edges to the pixels above and to the left, its
    diagonal, and its edges to the right and below, where they exist.  An
    isolated pixel has an empty row."""
    h, w = mask.shape
    n = np.count_nonzero(mask)
    itype = np.int32 if 5 * n <= np.iinfo(np.int32).max else np.int64
    idx = np.zeros((h, w), dtype=itype)
    idx[mask] = np.arange(n, dtype=itype)

    # an edge exists where both of its pixels lie in the mask; each adds +-g
    # to its two ends, so the right-hand side sums to zero on every component
    okx = mask[:, :-1] & mask[:, 1:]
    oky = mask[:-1, :] & mask[1:, :]
    rhs = -_divergence(np.where(okx, ex, 0.0), np.where(oky, ey, 0.0), hx, hy)[mask]

    # each edge's two ends, listed in mask order (a pixel's right neighbour is
    # the next masked pixel), and per pixel whether it is such an end
    left = idx[:, :-1][okx]
    right = left + 1
    top = idx[:-1, :][oky]
    bottom = idx[1:, :][oky]

    def flags(ends):
        out = np.zeros(n, dtype=bool)
        out[ends] = True
        return out

    is_left, is_right, is_top, is_bottom = (flags(e) for e in (left, right, top, bottom))
    wx, wy = 1.0 / (hx * hx), 1.0 / (hy * hy)
    # the diagonal adds its pixel's edge weights in turn, as the duplicates
    # of one entry are summed
    diag = np.zeros(n)
    for flag, wgt in ((is_left, wx), (is_right, wx), (is_top, wy), (is_bottom, wy)):
        np.add(diag, wgt, out=diag, where=flag)
    on_diag = is_left | is_right | is_top | is_bottom
    # per row in column order: (which rows hold the entry, its columns and
    # values in row order)
    entries = ((is_bottom, top, -wy), (is_right, left, -wx),
               (on_diag, np.flatnonzero(on_diag), diag[on_diag]),
               (is_left, right, -wx), (is_top, bottom, -wy))

    indptr = np.zeros(n + 1, dtype=itype)
    np.cumsum(sum(flag.astype(itype) for flag, _, _ in entries), out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=itype)
    data = np.empty(indptr[-1])
    at = indptr[:-1].copy()
    for flag, cols, vals in entries:
        put = at[flag]
        indices[put] = cols
        data[put] = vals
        at += flag
    return scipy.sparse.csr_matrix((data, indices, indptr), shape=(n, n)), rhs


def _centered(sol, mask, comp):
    """The masked solution with each component's mean removed, in a frame
    that is zero off the mask."""
    out = np.zeros(mask.shape)
    out[mask] = sol - (np.bincount(comp, weights=sol) / np.bincount(comp))[comp]
    return out


def _poisson_masked(ex, ey, mask, hx, hy):
    """Integrate a partial mask through its one factorized block (see the
    module docstring).  On the whole mask the pinned block's solve is the
    answer: the right-hand side sums to zero on each component, so a pinned
    node solves to 0 and the rest differ from the singular system's
    solution by that component's constant, which centering removes.  On
    the band, CG runs with the exact band solve B = R^T K^-1 R around the
    full-frame preconditioner P in the symmetric two-level form

        z = B r;  z += P (r - A z);  z += B (r - A z),

    where R restricts to the band and K is the band's pinned block.  The
    whole is R^T K^-1 (K + D) K^-1 R + (I - B A) P (I - A B), D the pins:
    both terms are symmetric positive semi-definite and only zero makes both
    vanish, so it is symmetric positive definite.  Without a factorized
    band, CG runs with P alone."""
    comp = _components(mask)
    n = comp.size
    whole = n <= DIRECT_MAX_UNKNOWNS
    # on the CG route the full-frame preconditioner's buffers come first:
    # allocated after the band's factorization, they left the process with
    # ~2% more resident memory on the 512^2 specular sphere
    precondition = full_frame = None if whole else _dct_preconditioner(mask, hx, hy)
    a, rhs = _masked_system(ex, ey, mask, hx, hy)
    near = (np.ones(n, dtype=bool) if whole else scipy.ndimage.maximum_filter(
        ~mask, size=2 * BAND_WIDTH + 1, mode="constant")[mask])
    band = np.flatnonzero(near)
    factorized = 0 < band.size <= DIRECT_MAX_UNKNOWNS
    if factorized:
        rows = None if whole else a[band]
        # one node of each component that lies wholly in the block is
        # pinned; without it the block would be singular
        inside = np.bincount(comp, weights=~near) == 0
        labels, first = np.unique(comp[band], return_index=True)
        pins = first[inside[labels]]
        block = (a if whole else rows[:, band]) + scipy.sparse.csr_matrix(
            (np.full(pins.size, 1.0 / (hx * hy)), (pins, pins)), shape=(band.size, band.size))
        if whole:
            # the singular matrix is not used again; the factorization's
            # peak holds one matrix
            del a
        # SuperLU takes CSC, which for a symmetric matrix is its transpose's
        # CSR, so block.T is the block without a copy.  No pivoting, minimum
        # degree on A + A^T, and small panels and supernodes: SuperLU's
        # default workspace raised glibc's mmap threshold once freed, and the
        # process kept ~9% more resident memory.
        lu = scipy.sparse.linalg.splu(block.T, permc_spec="MMD_AT_PLUS_A",
                                      diag_pivot_thresh=0.0, options={"SymmetricMode": True},
                                      panel_size=4, relax=1)
        if whole:
            return _centered(lu.solve(rhs), mask, comp)
        cols = rows.T

        def precondition(r):
            y = lu.solve(r[band])
            z = full_frame(r - cols @ y)
            z[band] += y
            z[band] += lu.solve(r[band] - rows @ z)
            return z

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
    return _centered(sol, mask, comp)


def _integrate_edges(ex, ey, mask, hx, hy):
    """Potential of edge gradients ex (h, w-1) and ey (h-1, w) on the mask;
    edges that leave the mask are dropped and masked-out pixels are zero."""
    if mask.all():
        u = _poisson_dct(ex, ey, hx, hy)
        u -= np.mean(u[mask])
        return u
    return _poisson_masked(ex, ey, mask, hx, hy)


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
    """Exponentiate an integrated log-depth potential into a depth map.  The
    depth is written as float32, so a masked log-depth must lie between the
    logarithms of float32's smallest normal and largest values."""
    u = np.asarray(potential, dtype=np.float64)
    if mask is None:
        mask = np.ones(u.shape, dtype=bool)
    lo, hi = np.log([np.finfo(np.float32).tiny, np.finfo(np.float32).max], dtype=np.float64)
    for bad, what in ((~np.isfinite(u), "non-finite log-depth"),
                      ((u < lo) | (u > hi),
                       f"log-depth outside float32's range [{lo:.2f}, {hi:.2f}]")):
        bad &= mask
        if np.any(bad):
            r, c = np.argwhere(bad)[0]
            raise NumericalError(f"{what} at pixel (col={c}, row={r}): {u[r, c]:g}")
    return DepthMap(z=np.exp(np.where(mask, u, 0.0)), mask=mask)


def align_depth(estimate: DepthMap, reference: DepthMap):
    """Score an estimated depth map against a reference, up to the
    estimate's free global scale.

    Every score is taken over the joint mask's pixels alone, so values off
    it do not count.  The offset c minimizing sum (ln z_est + c - ln z_ref)^2
    is the mean log ratio, and mse_raw is the mean squared difference of
    z_est * exp(c) and z_ref.  mse_normalized compares the two after each is
    min-max normalized over the joint pixels, making it insensitive to
    global scale and offset.  Returns (mse_raw, mse_normalized).
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
    # the gathers are scaled, differenced and normalized in place, so no
    # vector but d is formed after them
    d = np.log(zr)
    d -= np.log(ze)
    ze *= np.exp(float(np.mean(d)))
    np.subtract(ze, zr, out=d)
    d *= d
    raw = float(np.mean(d))
    # each vector onto its own unit range
    for v in (ze, zr):
        lo, hi = float(np.min(v)), float(np.max(v))
        if hi - lo == 0.0:
            raise ValueError("cannot normalize a depth map with zero range")
        v -= lo
        v /= hi - lo
    np.subtract(ze, zr, out=d)
    d *= d
    return raw, float(np.mean(d))
