"""Damped least-squares (Levenberg-Marquardt) minimization.

levenberg_marquardt_batch runs many small independent residual systems (one
per pixel) in lockstep with vectorized numpy arithmetic.  Steps solve
(J^T J + lam*I) d = -J^T F (Madsen, Nielsen & Tingleff, "Methods for
Non-Linear Least Squares Problems", 2004) on one fixed schedule: lam starts
at LAMBDA0, is divided by LAMBDA_FACTOR after an accepted step and
multiplied by it after a rejected one.  finite_difference_jacobian is the
reference the analytic Jacobians are tested against.
"""

from __future__ import annotations

import numpy as np

LAMBDA0 = 1e-3
LAMBDA_FACTOR = 10.0
MAX_ITER = 100
STEP_TOL = 1e-10
RESIDUAL_TOL = 1e-12

_LAMBDA_CEILING = 1e12


def finite_difference_jacobian(residual, x, step_scale=1e-6):
    """Central-difference Jacobian of residual at x; step 1e-6*max(1, |x_i|)."""
    x = np.asarray(x, dtype=np.float64)
    f0 = np.atleast_1d(np.asarray(residual(x), dtype=np.float64))
    jac = np.empty((f0.size, x.size), dtype=np.float64)
    for i in range(x.size):
        h = step_scale * max(1.0, abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        fp = np.atleast_1d(np.asarray(residual(xp), dtype=np.float64))
        fm = np.atleast_1d(np.asarray(residual(xm), dtype=np.float64))
        jac[:, i] = (fp - fm) / (2.0 * h)
    return jac


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


def levenberg_marquardt_batch(residual, jacobian, x0, project=None):
    """Run independent LM problems in parallel.

    residual(x, idx) -> (k, m) and jacobian(x, idx) -> (k, m, p) evaluate the
    subset of problems listed in idx at states x (k, p).  project, if given,
    maps trial states back into the feasible set before evaluation.  Returns
    (x, residual_norm, converged, failed) arrays; failed marks problems whose
    damping escalated past 1e12.
    """
    x = np.array(x0, dtype=np.float64, copy=True)
    n = x.shape[0]
    all_idx = np.arange(n)

    f = residual(x, all_idx)
    cost = np.einsum("nm,nm->n", f, f)
    bad0 = ~np.isfinite(cost)
    if np.any(bad0):
        cost = np.where(bad0, np.inf, cost)
    lam = np.full(n, LAMBDA0)
    converged = np.sqrt(np.maximum(cost, 0.0)) <= RESIDUAL_TOL
    failed = bad0.copy()

    for _ in range(MAX_ITER):
        active = ~converged & ~failed
        if not active.any():
            break
        idx = all_idx[active]
        xa = x[idx]
        ja = jacobian(xa, idx)
        fa = f[idx]
        grad = np.einsum("nmp,nm->np", ja, fa)
        hess = np.einsum("nmp,nmq->npq", ja, ja)
        d = _solve_damped(hess, grad, lam[idx])
        bad_step = ~np.all(np.isfinite(d), axis=1)
        d = np.where(bad_step[:, None], 0.0, d)

        small = np.linalg.norm(d, axis=1) <= STEP_TOL
        xt = xa + d
        if project is not None:
            xt = project(xt)
        ft = residual(xt, idx)
        cost_t = np.einsum("nm,nm->n", ft, ft)
        cost_t = np.where(np.all(np.isfinite(ft), axis=1), cost_t, np.inf)

        accept = (cost_t < cost[idx]) & ~bad_step
        acc = idx[accept]
        x[acc] = xt[accept]
        f[acc] = ft[accept]
        cost[acc] = cost_t[accept]
        lam[acc] = np.maximum(lam[acc] / LAMBDA_FACTOR, 1e-15)
        rej = idx[~accept]
        lam[rej] *= LAMBDA_FACTOR

        done = np.zeros(len(idx), dtype=bool)
        done |= small & ~bad_step
        done |= np.sqrt(np.maximum(cost[idx], 0.0)) <= RESIDUAL_TOL
        converged[idx[done]] = True
        failed[idx] |= (lam[idx] > _LAMBDA_CEILING) & ~done

    return x, np.sqrt(np.maximum(cost, 0.0)), converged, failed
