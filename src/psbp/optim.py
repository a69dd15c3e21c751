"""Damped least-squares (Levenberg-Marquardt) minimization of two unknowns.

levenberg_marquardt_batch runs many small independent least-squares
problems of two unknowns (one per pixel) in lockstep with vectorized numpy
arithmetic.  Steps solve (J^T J + lam*I) d = -J^T f by Cramer's rule
(Madsen, Nielsen & Tingleff, "Methods for Non-Linear Least Squares
Problems", 2004) on one fixed schedule: lam starts at LAMBDA0, is divided by
LAMBDA_FACTOR after an accepted step and multiplied by it after a rejected
one.  The engine never sees f or J: the model returns each problem's cost
|f|^2, J^T f and the packed symmetric J^T J, and it owns the order in which
those sums are added, which is what keeps their bits.  The model is
evaluated once per step: one callback returns the cost and the normal
equations at the trial state, an accepted step keeps them, and a rejected
one keeps the current ones, exact because the state did not move.  A problem
converges when its step is at most STEP_TOL, its residual norm at most
RESIDUAL_TOL, or an accepted step lowers its cost by at most COST_TOL times
the cost before it (the relative-reduction test of Moré, "The
Levenberg-Marquardt algorithm: implementation and theory", 1978, which ends
the linear tail to a nonzero-residual optimum); else it stops after MAX_ITER
steps.  The unfinished problems' state is held in compact component-major
arrays, one contiguous row per component with the problems along the last
axis, updated in place and shrunk as problems finish.  The problems are
unconstrained: every trial state is evaluated as it stands.  The models'
analytic derivatives are tested against finite_difference_jacobian.
"""

from __future__ import annotations

import numpy as np

LAMBDA0 = 1e-3
LAMBDA_FACTOR = 10.0
MAX_ITER = 100
STEP_TOL = 1e-10
COST_TOL = 3e-7
RESIDUAL_TOL = 1e-12
FD_STEP = 1e-6

_LAMBDA_CEILING = 1e12


def finite_difference_jacobian(residual, x):
    """Central-difference Jacobian of residual at x; step FD_STEP*max(1, |x_i|)."""
    x = np.asarray(x, dtype=np.float64)
    f0 = np.atleast_1d(np.asarray(residual(x), dtype=np.float64))
    jac = np.empty((f0.size, x.size), dtype=np.float64)
    for i in range(x.size):
        h = FD_STEP * max(1.0, abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        fp = np.atleast_1d(np.asarray(residual(xp), dtype=np.float64))
        fm = np.atleast_1d(np.asarray(residual(xm), dtype=np.float64))
        jac[:, i] = (fp - fm) / (2.0 * h)
    return jac


def _damped_step(hess, grad, lam):
    """The LM step (2, k) of each problem, solving (H + lam*I) d = -g by
    Cramer's rule with H packed as (H00, H01, H11) (3, k) and g (2, k), and a
    mask of the problems whose damped system is singular, where the step is
    0."""
    a = hess[0] + lam
    b = hess[1]
    dd = hess[2] + lam
    det = a * dd - b * b
    det[np.abs(det) < 1e-300] = np.nan
    d = np.stack([-(dd * grad[0] - b * grad[1]) / det, -(a * grad[1] - b * grad[0]) / det])
    bad = ~np.isfinite(d).all(axis=0)
    d[:, bad] = 0.0
    return d, bad


def levenberg_marquardt_batch(cost, normal_equations, x0):
    """Run independent two-unknown LM problems in parallel.

    x0 holds one start per row, (n, 2).  The callbacks see the problems
    component-major and evaluate the subset of problems listed in idx (k of
    them) at states x (2, k): cost(x, idx) -> the squared residual norms
    (k,), and normal_equations(x, idx) -> (cost (k,), J^T f (2, k), J^T J
    packed as (H00, H01, H11) (3, k)); both must return the same cost at the
    same state.  cost runs once, on every problem at x0.  normal_equations
    runs once on the problems that are still unfinished after that, then
    once per step at the trial states: an accepted step keeps the trial's
    normal equations, a rejected one keeps the current ones, which are exact
    because the state did not move.  Returns (x, residual_norm, converged,
    failed) arrays, x (n, 2).  converged marks a step <= STEP_TOL, a
    residual norm <= RESIDUAL_TOL or an accepted step lowering the cost by
    <= COST_TOL * cost; the rest stop at MAX_ITER, or as failed: a start
    that is not finite or damping escalated past 1e12.
    """
    x = np.array(x0, dtype=np.float64, copy=True)
    n = x.shape[0]

    c = np.array(cost(np.ascontiguousarray(x.T), np.arange(n)), dtype=np.float64)
    c[~np.isfinite(c)] = np.inf
    converged = np.sqrt(c) <= RESIDUAL_TOL
    failed = np.isinf(c)

    # The unfinished problems, compacted along the last axis: ids into the
    # batch, their states (2, k), J^T f (2, k), packed J^T J (3, k), costs
    # and damping.  Steps update them in place; finished problems are
    # written back and dropped.
    ids = np.flatnonzero(~converged & ~failed)
    if ids.size == 0:
        return x, np.sqrt(c), converged, failed
    xa = np.ascontiguousarray(x[ids].T)
    # own copies, as steps write into them
    ga, ha = (np.array(a, dtype=np.float64) for a in normal_equations(xa, ids)[1:])
    ca = c[ids]
    lam = np.full(ids.size, LAMBDA0)

    for _ in range(MAX_ITER):
        d, bad_step = _damped_step(ha, ga, lam)
        small = np.sqrt(d[0] * d[0] + d[1] * d[1]) <= STEP_TOL
        xt = xa + d
        cost_t, gt, ht = normal_equations(xt, ids)

        accept = (cost_t < ca) & ~bad_step
        flat = accept & (ca - cost_t <= COST_TOL * ca)
        np.copyto(xa, xt, where=accept)
        np.copyto(ga, gt, where=accept)
        np.copyto(ha, ht, where=accept)
        np.copyto(ca, cost_t, where=accept)
        lam = np.where(accept, np.maximum(lam / LAMBDA_FACTOR, 1e-15), lam * LAMBDA_FACTOR)

        done = (small & ~bad_step) | flat | (np.sqrt(ca) <= RESIDUAL_TOL)
        fail = (lam > _LAMBDA_CEILING) & ~done
        finished = done | fail
        if finished.any():
            out = ids[finished]
            x[out] = xa[:, finished].T
            c[out] = ca[finished]
            converged[out] = done[finished]
            failed[out] = fail[finished]
            keep = np.flatnonzero(~finished)
            ids, xa, ga, ha, ca, lam = (np.take(a, keep, axis=-1)
                                        for a in (ids, xa, ga, ha, ca, lam))
            if keep.size == 0:
                break

    x[ids] = xa.T
    c[ids] = ca
    return x, np.sqrt(c), converged, failed
