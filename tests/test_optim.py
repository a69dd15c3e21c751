"""Damped least-squares solver: the batched LM engine and the
finite-difference reference Jacobian."""

import numpy as np
import pytest

from psbp.optim import MAX_ITER, finite_difference_jacobian, levenberg_marquardt_batch


def solve_one(residual, jacobian, x0):
    """Run one problem through the batch engine.

    residual(v) -> (m,) and jacobian(v) -> (m, p) act on a single state.
    Returns (x, residual norm, converged, failed, Jacobian calls).
    """
    calls = [0]

    def res(x, idx):
        return np.stack([np.atleast_1d(residual(v)) for v in x])

    def jac(x, idx):
        calls[0] += 1
        return np.stack([np.atleast_2d(jacobian(v)) for v in x])

    x0 = np.atleast_2d(np.asarray(x0, dtype=np.float64))
    x, rnorm, converged, failed = levenberg_marquardt_batch(res, jac, x0)
    return x[0], rnorm[0], converged[0], failed[0], calls[0]


def test_linear_residual_converges():
    x, rnorm, converged, failed, _ = solve_one(lambda v: v - 3.0, lambda v: [[1.0]], [10.0])
    assert converged and not failed
    assert x[0] == pytest.approx(3.0, abs=1e-10)


def test_scalar_quadratic_root():
    x, _, converged, _, _ = solve_one(lambda v: v * v - 4.0, lambda v: [[2.0 * v[0]]], [1.0])
    assert converged
    assert x[0] == pytest.approx(2.0, abs=1e-8)


def test_rosenbrock_valley():
    def residual(v):
        return np.array([1.0 - v[0], 10.0 * (v[1] - v[0] ** 2)])

    def jacobian(v):
        return np.array([[-1.0, 0.0], [-20.0 * v[0], 10.0]])

    x, rnorm, converged, failed, _ = solve_one(residual, jacobian, [-1.2, 1.0])
    assert converged and not failed
    assert np.allclose(x, [1.0, 1.0], atol=1e-6)
    assert rnorm < 1e-8


def test_finite_difference_jacobian_drives_lm_like_analytic():
    def residual(v):
        return np.array([np.sin(v[0]) + v[1] ** 2, v[0] * v[1]])

    fd = solve_one(residual, lambda v: finite_difference_jacobian(residual, v), [0.5, 0.5])
    exact = solve_one(residual, lambda v: np.array([[np.cos(v[0]), 2 * v[1]], [v[1], v[0]]]),
                      [0.5, 0.5])
    assert fd[2] and exact[2]
    assert np.allclose(fd[0], exact[0], atol=1e-6)


def test_zero_residual_at_start_returns_immediately():
    x, rnorm, converged, failed, calls = solve_one(lambda v: v - 5.0, lambda v: [[1.0]], [5.0])
    assert converged and not failed
    assert calls == 0
    assert x[0] == 5.0 and rnorm == 0.0


def test_stationary_point_stops_on_step_tolerance():
    # constant residual: gradient is zero, the damped step is zero
    x, rnorm, converged, failed, _ = solve_one(lambda v: [1.0], lambda v: [[0.0]], [2.0])
    assert converged and not failed
    assert x[0] == 2.0
    assert rnorm == 1.0


def test_nonfinite_start_is_marked_failed():
    x, rnorm, converged, failed, calls = solve_one(lambda v: [np.inf], lambda v: [[1.0]], [0.0])
    assert failed and not converged
    assert calls == 0
    assert x[0] == 0.0


def test_wrong_signed_jacobian_stalls_safely():
    # a wrong-signed Jacobian pushes uphill; damping shrinks the step until
    # the step tolerance stops the solver where it stands
    x, _, converged, failed, _ = solve_one(lambda v: v, lambda v: [[-1.0]], [1.0])
    assert converged and not failed
    assert x[0] == 1.0


def test_damping_escalation_raises():
    # a huge inconsistent Jacobian keeps proposing large non-improving steps,
    # so the damping factor escalates past its ceiling and the problem's
    # failed flag is raised; the rejected steps leave x where it started
    x, rnorm, converged, failed, calls = solve_one(
        lambda v: np.array([1e30]), lambda v: np.array([[1e15]]), [1.0])
    assert failed and not converged
    assert 0 < calls < MAX_ITER
    assert x[0] == 1.0
    assert rnorm == 1e30


def test_max_iter_reported():
    # atan(x) approaches pi/2 only as x grows without bound: every step is
    # accepted, none is small, so the iteration budget runs out
    x, rnorm, converged, failed, calls = solve_one(
        lambda v: np.arctan(v) - np.pi / 2, lambda v: [[1.0 / (1.0 + v[0] ** 2)]], [0.0])
    assert calls == MAX_ITER
    assert not converged and not failed
    assert x[0] > 1.0 and rnorm < np.pi / 2


def test_finite_difference_jacobian_accuracy():
    def residual(v):
        return np.array([v[0] ** 3, np.exp(v[1]), v[0] * v[1]])

    x = np.array([1.5, -0.5])
    jac = finite_difference_jacobian(residual, x)
    exact = np.array([
        [3 * x[0] ** 2, 0.0],
        [0.0, np.exp(x[1])],
        [x[1], x[0]],
    ])
    assert np.allclose(jac, exact, atol=1e-7)


def test_batch_matches_single_problem_runs():
    rng = np.random.default_rng(42)
    targets = rng.uniform(-3.0, 3.0, size=(50, 2))

    def residual(x, idx):
        return x - targets[idx]

    def jacobian(x, idx):
        return np.broadcast_to(np.eye(2), (len(idx), 2, 2)).copy()

    x0 = rng.standard_normal((50, 2))
    x, rnorm, converged, failed = levenberg_marquardt_batch(residual, jacobian, x0)
    assert converged.all()
    assert not failed.any()
    assert np.allclose(x, targets, atol=1e-10)
    for i in [0, 17, 49]:
        alone = solve_one(lambda v, i=i: v - targets[i], lambda v: np.eye(2), x0[i])
        assert np.allclose(x[i], alone[0], atol=1e-12)


def test_batch_nonlinear_problems():
    rng = np.random.default_rng(5)
    roots = rng.uniform(0.5, 2.0, size=20)

    def residual(x, idx):
        return x**2 - roots[idx][:, None] ** 2

    def jacobian(x, idx):
        return (2.0 * x)[:, :, None]

    x0 = np.full((20, 1), 1.0)
    x, rnorm, converged, failed = levenberg_marquardt_batch(residual, jacobian, x0)
    assert converged.all() and not failed.any()
    assert np.allclose(x[:, 0], roots, atol=1e-8)


def test_batch_flags_failures_without_poisoning_others():
    # problem 0 pairs a constant huge residual with a huge Jacobian, so its
    # damping escalates past the ceiling; problem 1 is a plain linear solve
    def residual(x, idx):
        r = x - 4.0
        r[idx == 0] = 1e30
        return r

    def jacobian(x, idx):
        j = np.ones((len(idx), 1, 1))
        j[idx == 0] = 1e15
        return j

    x0 = np.array([[1.0], [1.0]])
    x, rnorm, converged, failed = levenberg_marquardt_batch(residual, jacobian, x0)
    assert failed[0] and not converged[0]
    assert converged[1] and not failed[1]
    assert x[1, 0] == pytest.approx(4.0, abs=1e-10)


def test_batch_project_keeps_iterates_feasible():
    seen = []

    def residual(x, idx):
        seen.append(x.copy())
        return x - 5.0

    def jacobian(x, idx):
        return np.ones((len(idx), 1, 1))

    def project(x):
        return np.clip(x, -1.0, 1.0)

    x, rnorm, converged, failed = levenberg_marquardt_batch(
        residual, jacobian, np.array([[0.0]]), project=project)
    assert all(np.all(np.abs(s) <= 1.0) for s in seen)
    assert x[0, 0] == pytest.approx(1.0)
