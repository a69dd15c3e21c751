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
in compact component-major arrays, one contiguous row per component with
the problems along the last axis (states (p, k), residuals (m, k),
Jacobians (p, m, k)), updated in place and shrunk as problems finish.  J^T F,
the symmetric J^T J and the costs are sums of products of those rows, added
in the order numpy's einsum adds them over row-major stacks, so they keep
its bits; two-parameter steps are solved by Cramer's rule.  The problems are
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


def _dot(a, b, lanes):
    """Sum over i of the rows a[i] * b[i] of two (m, k) stacks, in the order
    numpy's einsum sums the same reduction over row-major (k, m) arrays, so
    the bits match it.  lanes=1 adds the products in order, as einsum does
    along a strided axis; lanes=2 adds the even and the odd terms apart and
    then the two partial sums, as its two-lane SIMD loop does along a
    contiguous axis of fewer than 8 terms."""
    partial = [a[i] * b[i] for i in range(min(lanes, len(a)))]
    for i in range(len(partial), len(a)):
        partial[i % lanes] += a[i] * b[i]
    return partial[0] + partial[1] if len(partial) == 2 else partial[0]


def _normal_equations(jac, f):
    """J^T f (p, k) and the symmetric J^T J (p, p, k) of the component-major
    Jacobian jac (p, m, k) and residuals f (m, k), with the bits of
    np.einsum("nmp,nm->np") and np.einsum("nmp,nmq->npq") over the row-major
    (k, m, p) and (k, m) arrays: there a Jacobian column is contiguous only
    when p = 1."""
    p, _, k = jac.shape
    lanes = 2 if p == 1 else 1
    grad = np.empty((p, k))
    hess = np.empty((p, p, k))
    for a in range(p):
        grad[a] = _dot(jac[a], f, lanes)
        for b in range(a + 1):
            hess[a, b] = hess[b, a] = _dot(jac[a], jac[b], lanes)
    return grad, hess


def _solve_damped(hess, grad, lam):
    """Solve (H + lam*I) d = -g for each problem of the stacks hess (p, p, k)
    and grad (p, k); d is NaN where the damped system is singular."""
    p, k = grad.shape
    if p == 2:
        a = hess[0, 0] + lam
        b = hess[0, 1]
        c = hess[1, 0]
        dd = hess[1, 1] + lam
        det = a * dd - b * c
        det[np.abs(det) < 1e-300] = np.nan
        g0, g1 = grad
        d = np.empty((2, k))
        d[0] = -(dd * g0 - b * g1) / det
        d[1] = -(a * g1 - c * g0) / det
        return d
    damped = np.moveaxis(hess + lam * np.eye(p)[:, :, None], -1, 0)
    rhs = grad.T
    try:
        return -np.linalg.solve(damped, rhs[..., None])[..., 0].T
    except np.linalg.LinAlgError:
        # one singular system fails the whole stacked solve: solve the
        # problems one at a time and leave the singular ones NaN
        d = np.full((k, p), np.nan)
        for i in range(k):
            try:
                d[i] = np.linalg.solve(damped[i], rhs[i])
            except np.linalg.LinAlgError:
                pass
        return -d.T


def _cost(f):
    """Squared norms of the residual stack f (m, k), with the bits of
    np.einsum("nm,nm->n") over the row-major (k, m) array; inf where not
    finite."""
    cost = _dot(f, f, 2)
    cost[~np.isfinite(cost)] = np.inf
    return cost


def _damped_step(jac, f, lam):
    """The LM step (p, k) of each problem, 0 where it is not finite, and a
    mask of those problems.  J^T J and J^T f are dropped before the caller
    evaluates the trial, so they do not add to its peak memory."""
    grad, hess = _normal_equations(jac, f)
    d = _solve_damped(hess, grad, lam)
    bad = ~np.isfinite(d).all(axis=0)
    d[:, bad] = 0.0
    return d, bad


def levenberg_marquardt_batch(residual, residual_and_jacobian, x0):
    """Run independent LM problems in parallel.

    x0 holds one start per row, (n, p).  The callbacks see the problems
    component-major, one contiguous row per component: residual(x, idx)
    -> f (m, k) and residual_and_jacobian(x, idx) -> (f, J) with J (p, m, k)
    evaluate the subset of problems listed in idx (k of them) at states
    x (p, k); both must return the same f at the same state.  residual runs
    once, on every problem at x0.  residual_and_jacobian runs once on the
    problems that are still unfinished after that, then once per step at the
    trial states: an accepted step keeps the trial's f and J, a rejected one
    keeps the current ones, which are exact because the state did not move.
    Returns (x, residual_norm, converged, failed) arrays, x (n, p).
    converged marks a step <= STEP_TOL, a residual norm <= RESIDUAL_TOL or an
    accepted step lowering the cost by <= COST_TOL * cost; the rest stop at
    MAX_ITER, or as failed: a start that is not finite or damping escalated
    past 1e12.
    """
    x = np.array(x0, dtype=np.float64, copy=True)
    n = x.shape[0]

    cost = _cost(residual(np.ascontiguousarray(x.T), np.arange(n)))
    converged = np.sqrt(np.maximum(cost, 0.0)) <= RESIDUAL_TOL
    failed = np.isinf(cost)

    # The unfinished problems, compacted along the last axis: ids into the
    # batch, their states (p, k), residuals (m, k), Jacobians (p, m, k),
    # costs and damping.  Steps update them in place; finished problems are
    # written back and dropped.
    ids = np.flatnonzero(~converged & ~failed)
    if ids.size == 0:
        return x, np.sqrt(np.maximum(cost, 0.0)), converged, failed
    xa = np.ascontiguousarray(x[ids].T)
    fa, ja = residual_and_jacobian(xa, ids)
    # own copies, as steps write into them
    fa = np.array(fa, dtype=np.float64)
    ja = np.array(ja, dtype=np.float64)
    ca = cost[ids]
    lam = np.full(ids.size, LAMBDA0)

    for _ in range(MAX_ITER):
        d, bad_step = _damped_step(ja, fa, lam)

        # |d| with the bits of np.linalg.norm over row-major steps
        small = np.sqrt(_dot(d, d, 1)) <= STEP_TOL
        xt = xa + d
        ft, jt = residual_and_jacobian(xt, ids)
        cost_t = _cost(ft)

        accept = (cost_t < ca) & ~bad_step
        flat = accept & (ca - cost_t <= COST_TOL * ca)
        np.copyto(xa, xt, where=accept)
        np.copyto(fa, ft, where=accept)
        np.copyto(ja, jt, where=accept)
        np.copyto(ca, cost_t, where=accept)
        lam = np.where(accept, np.maximum(lam / LAMBDA_FACTOR, 1e-15), lam * LAMBDA_FACTOR)

        done = (small & ~bad_step) | flat | (np.sqrt(np.maximum(ca, 0.0)) <= RESIDUAL_TOL)
        fail = (lam > _LAMBDA_CEILING) & ~done
        finished = done | fail
        if finished.any():
            out = ids[finished]
            x[out] = xa[:, finished].T
            cost[out] = ca[finished]
            converged[out] = done[finished]
            failed[out] = fail[finished]
            keep = np.flatnonzero(~finished)
            if keep.size == 0:
                return x, np.sqrt(np.maximum(cost, 0.0)), converged, failed
            ids, xa, fa, ja, ca, lam = (np.take(a, keep, axis=-1)
                                        for a in (ids, xa, fa, ja, ca, lam))

    x[ids] = xa.T
    cost[ids] = ca
    return x, np.sqrt(np.maximum(cost, 0.0)), converged, failed
