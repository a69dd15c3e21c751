"""Damped least-squares solver: the batched LM engine and the
finite-difference reference Jacobian."""

import numpy as np
import pytest

from psbp import optim
from psbp.optim import (
    MAX_ITER,
    _normal_equations,
    finite_difference_jacobian,
    levenberg_marquardt_batch,
)


def fused(residual, jacobian):
    """The engine's residual + Jacobian callback from two batch callbacks."""
    return lambda x, idx: (residual(x, idx), jacobian(x, idx))


def solve_one(residual, jacobian, x0):
    """Run one problem through the batch engine.

    residual(v) -> (m,) and jacobian(v) -> (m, p) act on a single state.
    Returns (x, residual norm, converged, failed, residual + Jacobian calls).
    """
    calls = [0]

    def res(x, idx):
        return np.stack([np.atleast_1d(residual(v)) for v in x])

    def jac(x, idx):
        calls[0] += 1
        return np.stack([np.atleast_2d(jacobian(v)) for v in x])

    x0 = np.atleast_2d(np.asarray(x0, dtype=np.float64))
    x, rnorm, converged, failed = levenberg_marquardt_batch(res, fused(res, jac), x0)
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
    # accepted, none is small, so the iteration budget runs out.  The fused
    # callback runs once at the start and once per step.
    x, rnorm, converged, failed, calls = solve_one(
        lambda v: np.arctan(v) - np.pi / 2, lambda v: [[1.0 / (1.0 + v[0] ** 2)]], [0.0])
    assert calls == MAX_ITER + 1
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
    x, rnorm, converged, failed = levenberg_marquardt_batch(
        residual, fused(residual, jacobian), x0)
    assert converged.all()
    assert not failed.any()
    assert np.allclose(x, targets, atol=1e-10)
    for i in [0, 17, 49]:
        alone = solve_one(lambda v, i=i: v - targets[i], lambda v: np.eye(2), x0[i])
        assert np.array_equal(x[i], alone[0])


def test_batch_nonlinear_problems():
    rng = np.random.default_rng(5)
    roots = rng.uniform(0.5, 2.0, size=20)

    def residual(x, idx):
        return x**2 - roots[idx][:, None] ** 2

    def jacobian(x, idx):
        return (2.0 * x)[:, :, None]

    x0 = np.full((20, 1), 1.0)
    x, rnorm, converged, failed = levenberg_marquardt_batch(
        residual, fused(residual, jacobian), x0)
    assert converged.all() and not failed.any()
    assert np.allclose(x[:, 0], roots, atol=1e-8)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_normal_equations_match_batched_einsum_exactly(p):
    # the column-pair build sums the same products in the same order as the
    # batched einsum it replaced, so the bits must agree
    rng = np.random.default_rng(p)
    jac = rng.standard_normal((1000, 3, p)) * np.exp(rng.uniform(-20.0, 20.0, (1000, 3, p)))
    f = rng.standard_normal((1000, 3))
    grad, hess = _normal_equations(jac, f)
    assert np.array_equal(grad, np.einsum("nmp,nm->np", jac, f))
    assert np.array_equal(hess, np.einsum("nmp,nmq->npq", jac, jac))


def test_batch_three_parameter_least_squares_matches_lstsq():
    # p = 3 takes the general damped solve and the off-diagonal column pairs
    # (0, 2) and (1, 2) of J^T J that two-parameter problems never build, on
    # an over-determined linear fit.  A step is accepted only if the cost
    # falls, which resolves x to about sqrt(eps) * |residual| / sigma_min, so
    # the optimal residuals are kept near 1e-4 (accepted bp-pps pixels have
    # at most 1e-3); unit residuals would stop about 1e-8 from the optimum.
    rng = np.random.default_rng(11)
    a = rng.standard_normal((30, 4, 3))
    b = np.einsum("nmp,np->nm", a, rng.standard_normal((30, 3)))
    b += 1e-4 * rng.standard_normal((30, 4))

    def residual(x, idx):
        return np.einsum("nmp,np->nm", a[idx], x) - b[idx]

    def jacobian(x, idx):
        return a[idx]

    x, rnorm, converged, failed = levenberg_marquardt_batch(
        residual, fused(residual, jacobian), np.zeros((30, 3)))
    assert converged.all() and not failed.any()
    for i in range(30):
        expected = np.linalg.lstsq(a[i], b[i], rcond=None)[0]
        assert np.abs(x[i] - expected).max() < 1e-10
        assert rnorm[i] == pytest.approx(np.linalg.norm(a[i] @ expected - b[i]), rel=1e-10)


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
    x, rnorm, converged, failed = levenberg_marquardt_batch(
        residual, fused(residual, jacobian), x0)
    assert failed[0] and not converged[0]
    assert converged[1] and not failed[1]
    assert x[1, 0] == pytest.approx(4.0, abs=1e-10)


def rosenbrock_batch():
    """40 seeded Rosenbrock-type valleys a - x0, b * (x1 - x0^2) with their own
    shapes and starts: (a, x0, residual, jacobian); the root of each is
    (a, a^2)."""
    rng = np.random.default_rng(42)
    a = rng.uniform(0.5, 2.0, size=40)
    b = rng.uniform(2.0, 20.0, size=40)
    x0 = rng.uniform(-2.0, 2.0, size=(40, 2))

    def residual(x, idx):
        return np.stack([a[idx] - x[:, 0], b[idx] * (x[:, 1] - x[:, 0] ** 2)], axis=1)

    def jacobian(x, idx):
        jac = np.zeros((len(idx), 2, 2))
        jac[:, 0, 0] = -1.0
        jac[:, 1, 0] = -2.0 * b[idx] * x[:, 0]
        jac[:, 1, 1] = b[idx]
        return jac

    return a, x0, residual, jacobian


def test_batch_of_rosenbrock_problems_matches_single_runs_without_repeat_evaluations():
    # The problems finish at different steps and take rejected steps on the
    # way.  Each one must follow its single-problem run bit for bit while the
    # batch shrinks around it, and a rejected step must reuse the current
    # residuals and Jacobian rather than evaluate the unmoved state again.
    _, x0, residual, jacobian = rosenbrock_batch()
    visits = {}

    def residual_and_jacobian(x, idx):
        for i, v in zip(idx, x):
            visits.setdefault(int(i), []).append(v.copy())
        return residual(x, idx), jacobian(x, idx)

    x, rnorm, converged, failed = levenberg_marquardt_batch(residual, residual_and_jacobian, x0)
    assert converged.all() and not failed.any()

    rejected = 0
    for i, states in visits.items():
        assert len({v.tobytes() for v in states}) == len(states)
        # the engine's rule: a trial is kept only if its cost is lower
        costs = [float(np.sum(residual(v[None], np.array([i])) ** 2)) for v in states]
        best = costs[0]
        for c in costs[1:]:
            rejected += c >= best
            best = min(best, c)
    assert rejected > 0
    assert len({len(states) for states in visits.values()}) > 1

    for i in range(40):
        alone = solve_one(lambda v, i=i: residual(v[None], np.array([i]))[0],
                          lambda v, i=i: jacobian(v[None], np.array([i]))[0], x0[i])
        assert np.array_equal(x[i], alone[0])
        assert rnorm[i] == alone[1]


def counted_rows(residual_and_jacobian):
    """The fused callback and a one-element list counting the rows it ran on."""
    rows = [0]

    def counted(x, idx):
        rows[0] += len(idx)
        return residual_and_jacobian(x, idx)

    return counted, rows


def test_cost_stop_ends_the_linear_tail_of_nonzero_residual_fits(monkeypatch):
    # Exponential fits a*exp(b*t) to six samples with noise 1e-3, about the
    # shading noise bp-pps accepts: the optimum keeps a nonzero residual, so
    # LM converges only linearly near it.  The relative cost-decrease stop
    # ends that tail with fewer model evaluations and leaves x within 1e-8 of
    # the run that goes on until the step is under STEP_TOL.  The gap grows
    # about as the noise squared: up to 6e-6 at noise 5e-2.
    rng = np.random.default_rng(3)
    t = np.linspace(0.0, 1.0, 6)
    a = rng.uniform(0.5, 2.0, size=(50, 1))
    b = rng.uniform(-1.5, 1.5, size=(50, 1))
    y = a * np.exp(b * t) + 1e-3 * rng.standard_normal((50, 6))

    def residual(x, idx):
        return x[:, :1] * np.exp(x[:, 1:] * t) - y[idx]

    def residual_and_jacobian(x, idx):
        e = np.exp(x[:, 1:] * t)
        return x[:, :1] * e - y[idx], np.stack([e, x[:, :1] * t * e], axis=2)

    x0 = np.tile([1.0, 0.0], (50, 1))
    counted, rows = counted_rows(residual_and_jacobian)
    x, rnorm, converged, failed = levenberg_marquardt_batch(residual, counted, x0)
    monkeypatch.setattr(optim, "COST_TOL", 0.0)
    counted_full, rows_full = counted_rows(residual_and_jacobian)
    x_full, _, converged_full, _ = levenberg_marquardt_batch(residual, counted_full, x0)

    assert converged.all() and converged_full.all() and not failed.any()
    assert rnorm.min() > 1e-4
    assert rows[0] < rows_full[0]
    assert np.abs(x - x_full).max() < 1e-8


def test_cost_stop_keeps_zero_residual_problems_converging_fully(monkeypatch):
    # On exact data the cost falls quadratically to RESIDUAL_TOL, so the
    # stop never fires early: the Rosenbrock batch ends at its roots, bit for
    # bit as without the stop.
    a, x0, residual, jacobian = rosenbrock_batch()
    x, rnorm, converged, failed = levenberg_marquardt_batch(
        residual, fused(residual, jacobian), x0)
    assert converged.all() and not failed.any()
    assert rnorm.max() < 1e-8
    assert np.allclose(x, np.stack([a, a**2], axis=1), atol=1e-6)
    monkeypatch.setattr(optim, "COST_TOL", 0.0)
    assert np.array_equal(x, levenberg_marquardt_batch(
        residual, fused(residual, jacobian), x0)[0])
