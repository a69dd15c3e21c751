"""Damped least-squares (Levenberg-Marquardt) minimization.

levenberg_marquardt_batch runs many small independent residual systems (one
per pixel) in lockstep with vectorized numpy arithmetic.  Steps solve
(J^T J + lam*I) d = -J^T F (Madsen, Nielsen & Tingleff, "Methods for
Non-Linear Least Squares Problems", 2004) on one fixed schedule: lam starts
at LAMBDA0, is divided by LAMBDA_FACTOR after an accepted step and
multiplied by it after a rejected one.  The model is evaluated once per
step: one fused callback returns F and J at the trial state, an accepted
step keeps both, and a rejected one keeps the current ones, exact because
the state did not move.  A problem converges when its step is at most
STEP_TOL, its residual norm at most RESIDUAL_TOL, or an accepted step lowers
its cost by at most COST_TOL times the cost before it (the relative-reduction
test of Moré, "The Levenberg-Marquardt algorithm: implementation and
theory", 1978, which ends the linear tail to a nonzero-residual optimum);
else it stops after MAX_ITER steps.  The unfinished problems' state is held
in compact arrays, updated in place and shrunk as problems finish.  J^T F
and the symmetric J^T J are built one Jacobian column pair at a time, the
bits of a batched einsum in a fraction of its time.  The problems are
unconstrained: every trial state is evaluated as it stands.  The analytic
Jacobians are tested against finite_difference_jacobian.
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


def _normal_equations(jac, f):
    """J^T f and the symmetric J^T J of stacks jac (k, m, p) and f (k, m),
    one Jacobian column pair at a time: the sums of a batched einsum in the
    same order, several times faster for small m and p."""
    k, _, p = jac.shape
    grad = np.empty((k, p))
    hess = np.empty((k, p, p))
    for a in range(p):
        grad[:, a] = np.einsum("nm,nm->n", jac[:, :, a], f)
        for b in range(a + 1):
            hess[:, a, b] = hess[:, b, a] = np.einsum("nm,nm->n", jac[:, :, a], jac[:, :, b])
    return grad, hess


def _solve_damped(hess, grad, lam):
    """Batched solve of (H + lam*I) d = -g for stacks of small systems."""
    n, p, _ = hess.shape
    damped = hess + lam[:, None, None] * np.eye(p)[None]
    if p == 2:
        a = damped[:, 0, 0]
        b = damped[:, 0, 1]
        c = damped[:, 1, 0]
        dd = damped[:, 1, 1]
        det = a * dd - b * c
        det = np.where(np.abs(det) < 1e-300, np.nan, det)
        g0, g1 = grad[:, 0], grad[:, 1]
        return np.stack([-(dd * g0 - b * g1) / det, -(a * g1 - c * g0) / det], axis=1)
    return -np.linalg.solve(damped, grad[..., None])[..., 0]


def _cost(f):
    """Squared norms of the residual rows f (k, m); inf where not finite."""
    cost = np.einsum("nm,nm->n", f, f)
    return np.where(np.isfinite(cost), cost, np.inf)


def _damped_step(jac, f, lam):
    """The LM step of each problem, 0 where it is not finite, and a mask of
    those rows.  J^T J and J^T f are dropped before the caller evaluates the
    trial, so they do not add to its peak memory."""
    grad, hess = _normal_equations(jac, f)
    d = _solve_damped(hess, grad, lam)
    bad = ~np.all(np.isfinite(d), axis=1)
    return np.where(bad[:, None], 0.0, d), bad


def levenberg_marquardt_batch(residual, residual_and_jacobian, x0):
    """Run independent LM problems in parallel.

    residual(x, idx) -> f (k, m) and residual_and_jacobian(x, idx) -> (f, J)
    with J (k, m, p) evaluate the subset of problems listed in idx at states
    x (k, p); both must return the same f at the same state.  residual runs
    once, on every problem at x0.  residual_and_jacobian runs once on the
    problems that are still unfinished after that, then once per step at the
    trial states: an accepted step keeps the trial's f and J, a rejected one
    keeps the current ones, which are exact because the state did not move.
    Returns (x, residual_norm, converged, failed) arrays.
    converged marks a step <= STEP_TOL, a residual norm <= RESIDUAL_TOL or an
    accepted step lowering the cost by <= COST_TOL * cost; the rest stop at
    MAX_ITER, or as failed: a start that is not finite or damping escalated
    past 1e12.
    """
    x = np.array(x0, dtype=np.float64, copy=True)
    n = x.shape[0]

    cost = _cost(residual(x, np.arange(n)))
    converged = np.sqrt(np.maximum(cost, 0.0)) <= RESIDUAL_TOL
    failed = np.isinf(cost)

    # The unfinished problems, compacted: ids into the batch, their states,
    # residuals, Jacobians, costs and damping.  Steps update them in place;
    # finished problems are written back and dropped.
    ids = np.flatnonzero(~converged & ~failed)
    if ids.size == 0:
        return x, np.sqrt(np.maximum(cost, 0.0)), converged, failed
    xa = x[ids]
    fa, ja = residual_and_jacobian(xa, ids)
    # own copies, as steps write into them
    fa = np.array(fa, dtype=np.float64)
    ja = np.array(ja, dtype=np.float64)
    ca = cost[ids]
    lam = np.full(ids.size, LAMBDA0)

    for _ in range(MAX_ITER):
        d, bad_step = _damped_step(ja, fa, lam)

        small = np.linalg.norm(d, axis=1) <= STEP_TOL
        xt = xa + d
        ft, jt = residual_and_jacobian(xt, ids)
        cost_t = _cost(ft)

        accept = (cost_t < ca) & ~bad_step
        flat = accept & (ca - cost_t <= COST_TOL * ca)
        np.copyto(xa, xt, where=accept[:, None])
        np.copyto(fa, ft, where=accept[:, None])
        np.copyto(ja, jt, where=accept[:, None, None])
        np.copyto(ca, cost_t, where=accept)
        lam = np.where(accept, np.maximum(lam / LAMBDA_FACTOR, 1e-15), lam * LAMBDA_FACTOR)

        done = (small & ~bad_step) | flat | (np.sqrt(np.maximum(ca, 0.0)) <= RESIDUAL_TOL)
        fail = (lam > _LAMBDA_CEILING) & ~done
        finished = done | fail
        if finished.any():
            out = ids[finished]
            x[out] = xa[finished]
            cost[out] = ca[finished]
            converged[out] = done[finished]
            failed[out] = fail[finished]
            keep = np.flatnonzero(~finished)
            if keep.size == 0:
                return x, np.sqrt(np.maximum(cost, 0.0)), converged, failed
            ids, xa, fa, ja, ca, lam = (np.take(a, keep, axis=0)
                                        for a in (ids, xa, fa, ja, ca, lam))

    x[ids] = xa
    cost[ids] = ca
    return x, np.sqrt(np.maximum(cost, 0.0)), converged, failed
