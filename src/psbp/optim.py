"""Damped least-squares (Levenberg-Marquardt) minimization.

The scalar solver handles one residual system F: R^p -> R^m; the batch
solver runs many small independent systems (one per pixel) in lockstep with
vectorized numpy arithmetic.  Steps solve (J^T J + lam*I) d = -J^T F; lam is
divided by 10 after an accepted step and multiplied by 10 after a rejected
one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import NumericalError

REASON_STEP = "step-tol"
REASON_RESIDUAL = "residual-tol"
REASON_MAX_ITER = "max-iter"

_LAMBDA_CEILING = 1e12


@dataclass
class LMConfig:
    lambda0: float = 1e-3
    lambda_up: float = 10.0
    lambda_down: float = 10.0
    max_iter: int = 100
    step_tol: float = 1e-10
    residual_tol: float = 1e-12


@dataclass
class LMResult:
    x: np.ndarray
    residual_norm: float
    iterations: int
    converged: bool
    reason: str


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


def levenberg_marquardt(residual, x0, jacobian=None, config: LMConfig | None = None) -> LMResult:
    """Minimize ||residual(x)||^2 from x0; analytic jacobian optional."""
    cfg = config or LMConfig()
    x = np.atleast_1d(np.asarray(x0, dtype=np.float64)).copy()
    if jacobian is None:
        jacobian = lambda xx: finite_difference_jacobian(residual, xx)

    f = np.atleast_1d(np.asarray(residual(x), dtype=np.float64))
    if not np.all(np.isfinite(f)):
        raise NumericalError("residual is not finite at the initial point")
    cost = float(f @ f)
    if np.sqrt(cost) <= cfg.residual_tol:
        return LMResult(x, np.sqrt(cost), 0, True, REASON_RESIDUAL)

    lam = cfg.lambda0
    eye = np.eye(x.size)
    for it in range(1, cfg.max_iter + 1):
        jac = np.atleast_2d(np.asarray(jacobian(x), dtype=np.float64))
        grad = jac.T @ f
        hess = jac.T @ jac
        while True:
            try:
                d = np.linalg.solve(hess + lam * eye, -grad)
            except np.linalg.LinAlgError:
                d = None
            if d is not None and np.all(np.isfinite(d)):
                if float(np.linalg.norm(d)) <= cfg.step_tol:
                    return LMResult(x, float(np.linalg.norm(f)), it, True, REASON_STEP)
                ft = np.atleast_1d(np.asarray(residual(x + d), dtype=np.float64))
                cost_t = float(ft @ ft) if np.all(np.isfinite(ft)) else np.inf
                if cost_t < cost:
                    x = x + d
                    f, cost = ft, cost_t
                    lam = max(lam / cfg.lambda_down, 1e-15)
                    if np.sqrt(cost) <= cfg.residual_tol:
                        return LMResult(x, np.sqrt(cost), it, True, REASON_RESIDUAL)
                    break
            lam *= cfg.lambda_up
            if lam > _LAMBDA_CEILING:
                raise NumericalError(
                    "damping escalation exceeded 1e12 without an acceptable step"
                )
    return LMResult(x, float(np.linalg.norm(f)), cfg.max_iter, False, REASON_MAX_ITER)


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


def levenberg_marquardt_batch(
    residual, jacobian, x0, config: LMConfig | None = None, project=None
):
    """Run independent LM problems in parallel.

    residual(x, idx) -> (k, m) and jacobian(x, idx) -> (k, m, p) evaluate the
    subset of problems listed in idx at states x (k, p).  project, if given,
    maps trial states back into the feasible set before evaluation.  Returns
    (x, residual_norm, converged, failed) arrays; failed marks problems whose
    damping escalated past 1e12.
    """
    cfg = config or LMConfig()
    x = np.array(x0, dtype=np.float64, copy=True)
    n = x.shape[0]
    all_idx = np.arange(n)

    f = residual(x, all_idx)
    cost = np.einsum("nm,nm->n", f, f)
    bad0 = ~np.isfinite(cost)
    if np.any(bad0):
        cost = np.where(bad0, np.inf, cost)
    lam = np.full(n, cfg.lambda0)
    converged = np.sqrt(np.maximum(cost, 0.0)) <= cfg.residual_tol
    failed = bad0.copy()

    for _ in range(cfg.max_iter):
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

        small = np.linalg.norm(d, axis=1) <= cfg.step_tol
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
        lam[acc] = np.maximum(lam[acc] / cfg.lambda_down, 1e-15)
        rej = idx[~accept]
        lam[rej] *= cfg.lambda_up

        done = np.zeros(len(idx), dtype=bool)
        done |= small & ~bad_step
        done |= np.sqrt(np.maximum(cost[idx], 0.0)) <= cfg.residual_tol
        converged[idx[done]] = True
        failed[idx] |= (lam[idx] > _LAMBDA_CEILING) & ~done

    return x, np.sqrt(np.maximum(cost, 0.0)), converged, failed
