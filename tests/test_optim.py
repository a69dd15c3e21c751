"""Damped least-squares solver: the batched two-unknown LM engine and the
finite-difference reference Jacobian.

The engine's callbacks are component-major: at states x (2, k) they return
costs (k,), J^T f (2, k) and the packed J^T J (3, k), while starts and
results are (n, 2).  The tests state their problems as residuals f (m, k)
and Jacobians J (2, m, k) and form those sums by einsum; psbp's shading
model, which forms them light by light, is checked against the same
einsums."""

import numpy as np
import pytest

from psbp import optim
from psbp.core import LightSource, Material
from psbp.optim import (
    MAX_ITER,
    finite_difference_jacobian,
    levenberg_marquardt_batch,
)
from psbp.render import shade_from_coefficients, shading_coefficients
from psbp.solve import _ShadingModel


def cost_of(residual):
    """The engine's cost callback from a batch residual callback."""
    def cost(x, idx):
        f = residual(x, idx)
        return np.einsum("mk,mk->k", f, f)
    return cost


def normal_equations_of(residual, jacobian):
    """The engine's normal_equations callback from batch callbacks
    residual(x, idx) -> f (m, k) and jacobian(x, idx) -> J (2, m, k), for any
    m: (|f|^2, J^T f, (H00, H01, H11) of J^T J)."""
    def normal_equations(x, idx):
        f = residual(x, idx)
        jac = jacobian(x, idx)
        hess = np.einsum("amk,bmk->abk", jac, jac)
        return (np.einsum("mk,mk->k", f, f), np.einsum("amk,mk->ak", jac, f),
                np.stack([hess[0, 0], hess[0, 1], hess[1, 1]]))
    return normal_equations


def run(residual, jacobian, x0):
    """The engine on batch residual and Jacobian callbacks."""
    return levenberg_marquardt_batch(cost_of(residual), normal_equations_of(residual, jacobian),
                                     x0)


def solve_one(residual, jacobian, x0):
    """Run one problem through the batch engine.

    residual(v) -> (m,) and jacobian(v) -> (m, 2) act on a single state.
    Returns (x, residual norm, converged, failed, normal_equations calls).
    """
    calls = [0]

    def res(x, idx):
        return np.stack([np.atleast_1d(residual(v)) for v in x.T], axis=-1)

    def jac(x, idx):
        calls[0] += 1
        return np.stack([np.atleast_2d(jacobian(v)).T for v in x.T], axis=-1)

    x0 = np.atleast_2d(np.asarray(x0, dtype=np.float64))
    x, rnorm, converged, failed = run(res, jac, x0)
    return x[0], rnorm[0], converged[0], failed[0], calls[0]


def test_linear_residual_converges():
    x, rnorm, converged, failed, _ = solve_one(lambda v: v - [3.0, -1.0], lambda v: np.eye(2),
                                               [10.0, 4.0])
    assert converged and not failed
    assert np.allclose(x, [3.0, -1.0], atol=1e-10)


def test_scalar_quadratic_root():
    x, _, converged, _, _ = solve_one(lambda v: v * v - [4.0, 9.0], lambda v: np.diag(2.0 * v),
                                      [1.0, 1.0])
    assert converged
    assert np.allclose(x, [2.0, 3.0], atol=1e-8)


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
    x, rnorm, converged, failed, calls = solve_one(lambda v: v - [5.0, -2.0],
                                                   lambda v: np.eye(2), [5.0, -2.0])
    assert converged and not failed
    assert calls == 0
    assert np.array_equal(x, [5.0, -2.0]) and rnorm == 0.0


def test_stationary_point_stops_on_step_tolerance():
    # constant residual: gradient is zero, the damped step is zero
    x, rnorm, converged, failed, _ = solve_one(lambda v: [1.0], lambda v: [[0.0, 0.0]],
                                               [2.0, -3.0])
    assert converged and not failed
    assert np.array_equal(x, [2.0, -3.0])
    assert rnorm == 1.0


def test_nonfinite_start_is_marked_failed():
    x, rnorm, converged, failed, calls = solve_one(lambda v: [np.inf], lambda v: [[1.0, 0.0]],
                                                   [0.0, 0.0])
    assert failed and not converged
    assert calls == 0
    assert np.array_equal(x, [0.0, 0.0])


def test_wrong_signed_jacobian_stalls_safely():
    # a wrong-signed Jacobian pushes uphill; damping shrinks the step until
    # the step tolerance stops the solver where it stands
    x, _, converged, failed, _ = solve_one(lambda v: v, lambda v: -np.eye(2), [1.0, -2.0])
    assert converged and not failed
    assert np.array_equal(x, [1.0, -2.0])


def test_damping_escalation_raises():
    # a huge inconsistent Jacobian keeps proposing large non-improving steps,
    # so the damping factor escalates past its ceiling and the problem's
    # failed flag is raised; the rejected steps leave x where it started
    x, rnorm, converged, failed, calls = solve_one(
        lambda v: np.array([1e30]), lambda v: np.array([[1e15, 0.0]]), [1.0, 1.0])
    assert failed and not converged
    assert 0 < calls < MAX_ITER
    assert np.array_equal(x, [1.0, 1.0])
    assert rnorm == 1e30


def test_max_iter_reported():
    # atan(x) approaches pi/2 only as x grows without bound: every step is
    # accepted, none is small, so the iteration budget runs out.  The
    # normal equations are formed once at the start and once per step.
    x, rnorm, converged, failed, calls = solve_one(
        lambda v: np.arctan(v) - np.pi / 2, lambda v: np.diag(1.0 / (1.0 + v**2)), [0.0, 1.0])
    assert calls == MAX_ITER + 1
    assert not converged and not failed
    assert (x > 1.0).all() and rnorm < np.pi / 2


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
        return x - targets[idx].T

    def jacobian(x, idx):
        return np.broadcast_to(np.eye(2)[:, :, None], (2, 2, len(idx)))

    x0 = rng.standard_normal((50, 2))
    x, rnorm, converged, failed = run(residual, jacobian, x0)
    assert converged.all()
    assert not failed.any()
    assert np.allclose(x, targets, atol=1e-10)
    for i in [0, 17, 49]:
        alone = solve_one(lambda v, i=i: v - targets[i], lambda v: np.eye(2), x0[i])
        assert np.array_equal(x[i], alone[0])


def test_batch_nonlinear_problems():
    rng = np.random.default_rng(5)
    roots = rng.uniform(0.5, 2.0, size=(2, 20))

    def residual(x, idx):
        return x**2 - roots[:, idx] ** 2

    def jacobian(x, idx):
        jac = np.zeros((2, 2, len(idx)))
        jac[0, 0], jac[1, 1] = 2.0 * x
        return jac

    x, rnorm, converged, failed = run(residual, jacobian, np.ones((20, 2)))
    assert converged.all() and not failed.any()
    assert np.allclose(x, roots.T, atol=1e-8)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_normal_equations_match_batched_einsum_exactly(seed):
    # The engine holds no f or J: psbp's shading model hands it J^T f and
    # J^T J, J = -dR, added light by light, and they must keep the bits of
    # the batched einsum over the row-major residuals (k, 3) and Jacobians
    # (k, 3, 2), here at random pixels, lights and states, with intensities
    # (and so residuals) spread over e^-20 to e^20
    rng = np.random.default_rng(seed)
    x, y = rng.uniform(-0.5, 0.5, (2, 1000))
    lights = [LightSource(rng.uniform(-1.0, 1.0, 3) + [0.0, 0.0, 2.0]) for _ in range(3)]
    mat = Material(k_d=0.5, k_s=0.5, shininess=30.0)
    intensities = rng.standard_normal((3, 1000)) * np.exp(rng.uniform(-20.0, 20.0, (3, 1000)))
    idx = rng.permutation(1000)
    states = rng.uniform(-3.0, 3.0, (2, 1000))

    xi, yi = x[idx], y[idx]
    shaded = list(shade_from_coefficients(states[0], states[1], xi, yi,
                                          shading_coefficients(xi, yi, lights, mat, 1.0),
                                          mat.shininess, 1.0, clamp=False, derivatives=True))
    f = intensities[:, idx].T - np.stack([s[0] for s in shaded], axis=1)
    jac = -np.stack([np.stack(s[1:], axis=1) for s in shaded], axis=1)
    hess = np.einsum("nmp,nmq->npq", jac, jac)

    _, grad, packed = _ShadingModel(x, y, intensities, lights, mat, 1.0).normal_equations(
        states, idx)
    assert np.array_equal(grad, np.einsum("nmp,nm->np", jac, f).T)
    assert np.array_equal(packed, np.stack([hess[:, 0, 0], hess[:, 0, 1], hess[:, 1, 1]]))


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_cost_matches_einsum_exactly(m):
    # The engine keeps no residuals: the norms it returns are the square
    # roots of the costs its callbacks gave at the returned states, bit for
    # bit, here numpy's einsum over m residuals; inf where not finite
    rng = np.random.default_rng(m)
    a = rng.standard_normal((1000, m, 2))
    b = rng.standard_normal((1000, m)) * np.exp(rng.uniform(-20.0, 20.0, (1000, m)))
    b[:5] = np.inf

    def residual(x, idx):
        return (np.einsum("nmp,pn->nm", a[idx], x) - b[idx]).T

    def jacobian(x, idx):
        return a[idx].transpose(2, 1, 0)

    x, rnorm, converged, failed = run(residual, jacobian, np.zeros((1000, 2)))
    assert failed[:5].all() and (converged | failed).sum() > 900
    expected = cost_of(residual)(np.ascontiguousarray(x.T), np.arange(1000))
    assert np.array_equal(rnorm, np.sqrt(np.where(np.isfinite(expected), expected, np.inf)))


def test_batch_least_squares_matches_lstsq():
    # An over-determined linear fit of two unknowns to four residuals.  A
    # step is accepted only if the cost falls, which resolves x to about
    # sqrt(eps) * |residual| / sigma_min, so the optimal residuals are kept
    # near 1e-4 (accepted bp-pps pixels have at most 1e-3); unit residuals
    # would stop about 1e-8 from the optimum.
    rng = np.random.default_rng(11)
    a = rng.standard_normal((30, 4, 2))
    b = np.einsum("nmp,np->nm", a, rng.standard_normal((30, 2)))
    b += 1e-4 * rng.standard_normal((30, 4))

    def residual(x, idx):
        return (np.einsum("nmp,pn->nm", a[idx], x) - b[idx]).T

    def jacobian(x, idx):
        return a[idx].transpose(2, 1, 0)

    x, rnorm, converged, failed = run(residual, jacobian, np.zeros((30, 2)))
    assert converged.all() and not failed.any()
    for i in range(30):
        expected, optimum = np.linalg.lstsq(a[i], b[i], rcond=None)[:2]
        assert 1e-5 < np.sqrt(optimum[0]) < 1e-3
        assert np.abs(x[i] - expected).max() < 1e-10
        assert rnorm[i] == pytest.approx(np.linalg.norm(a[i] @ expected - b[i]), rel=1e-10)


def test_batch_flags_failures_without_poisoning_others():
    # problem 0 pairs a constant huge residual with a huge Jacobian, so its
    # damping escalates past the ceiling; problem 1 is a plain linear solve
    def residual(x, idx):
        r = x - 4.0
        r[:, idx == 0] = 1e30
        return r

    def jacobian(x, idx):
        j = np.broadcast_to(np.eye(2)[:, :, None], (2, 2, len(idx))).copy()
        j[..., idx == 0] *= 1e15
        return j

    x0 = np.array([[1.0, 1.0], [1.0, 1.0]])
    x, rnorm, converged, failed = run(residual, jacobian, x0)
    assert failed[0] and not converged[0]
    assert converged[1] and not failed[1]
    assert np.allclose(x[1], 4.0, atol=1e-10)


def rosenbrock_batch():
    """40 seeded Rosenbrock-type valleys a - x0, b * (x1 - x0^2) with their own
    shapes and starts: (a, x0, residual, jacobian); the root of each is
    (a, a^2)."""
    rng = np.random.default_rng(42)
    a = rng.uniform(0.5, 2.0, size=40)
    b = rng.uniform(2.0, 20.0, size=40)
    x0 = rng.uniform(-2.0, 2.0, size=(40, 2))

    def residual(x, idx):
        return np.stack([a[idx] - x[0], b[idx] * (x[1] - x[0] ** 2)])

    def jacobian(x, idx):
        jac = np.zeros((2, 2, len(idx)))
        jac[0, 0] = -1.0
        jac[0, 1] = -2.0 * b[idx] * x[0]
        jac[1, 1] = b[idx]
        return jac

    return a, x0, residual, jacobian


def test_batch_of_rosenbrock_problems_matches_single_runs_without_repeat_evaluations():
    # The problems finish at different steps and take rejected steps on the
    # way.  Each one must follow its single-problem run bit for bit while the
    # batch shrinks around it, and a rejected step must reuse the current
    # normal equations rather than evaluate the unmoved state again.
    _, x0, residual, jacobian = rosenbrock_batch()
    normal_equations = normal_equations_of(residual, jacobian)
    visits = {}

    def visited(x, idx):
        for i, v in zip(idx, x.T):
            visits.setdefault(int(i), []).append(v.copy())
        return normal_equations(x, idx)

    x, rnorm, converged, failed = levenberg_marquardt_batch(cost_of(residual), visited, x0)
    assert converged.all() and not failed.any()

    rejected = 0
    for i, states in visits.items():
        assert len({v.tobytes() for v in states}) == len(states)
        # the engine's rule: a trial is kept only if its cost is lower
        costs = [float(np.sum(residual(v[:, None], np.array([i])) ** 2)) for v in states]
        best = costs[0]
        for c in costs[1:]:
            rejected += c >= best
            best = min(best, c)
    assert rejected > 0
    assert len({len(states) for states in visits.values()}) > 1

    for i in range(40):
        alone = solve_one(lambda v, i=i: residual(v[:, None], np.array([i]))[:, 0],
                          lambda v, i=i: jacobian(v[:, None], np.array([i]))[..., 0].T, x0[i])
        assert np.array_equal(x[i], alone[0])
        assert rnorm[i] == alone[1]


def counted_rows(normal_equations):
    """The normal_equations callback and a one-element list counting the
    rows it ran on."""
    rows = [0]

    def counted(x, idx):
        rows[0] += len(idx)
        return normal_equations(x, idx)

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
        return x[0] * np.exp(x[1] * t[:, None]) - y[idx].T

    def jacobian(x, idx):
        e = np.exp(x[1] * t[:, None])
        return np.stack([e, x[0] * t[:, None] * e])

    x0 = np.tile([1.0, 0.0], (50, 1))
    cost = cost_of(residual)
    counted, rows = counted_rows(normal_equations_of(residual, jacobian))
    x, rnorm, converged, failed = levenberg_marquardt_batch(cost, counted, x0)
    monkeypatch.setattr(optim, "COST_TOL", 0.0)
    counted_full, rows_full = counted_rows(normal_equations_of(residual, jacobian))
    x_full, _, converged_full, _ = levenberg_marquardt_batch(cost, counted_full, x0)

    assert converged.all() and converged_full.all() and not failed.any()
    assert rnorm.min() > 1e-4
    assert rows[0] < rows_full[0]
    assert np.abs(x - x_full).max() < 1e-8


def test_cost_stop_keeps_zero_residual_problems_converging_fully(monkeypatch):
    # On exact data the cost falls quadratically to RESIDUAL_TOL, so the
    # stop never fires early: the Rosenbrock batch ends at its roots, bit for
    # bit as without the stop.
    a, x0, residual, jacobian = rosenbrock_batch()
    x, rnorm, converged, failed = run(residual, jacobian, x0)
    assert converged.all() and not failed.any()
    assert rnorm.max() < 1e-8
    assert np.allclose(x, np.stack([a, a**2], axis=1), atol=1e-6)
    monkeypatch.setattr(optim, "COST_TOL", 0.0)
    assert np.array_equal(x, run(residual, jacobian, x0)[0])


def test_singular_damped_system_is_a_rejected_step_not_an_error():
    # Two rank-one problems, the second scaled by 1e8: its J^T J has entries
    # of about 1.3e16, where adding lam <= 1 rounds away, so (a + lam)^2 - a^2
    # rounds to 0 and its damped system is singular in float64 until lam has
    # grown.  That problem's step is marked bad and left in place while lam
    # grows, nothing raises, and the first problem runs as it does alone.
    rows = np.array([[1.0, 1.0], [0.5, 0.5], [0.25, 0.25]])
    scale = np.array([1.0, 1e8])
    visits = {0: [], 1: []}

    def residual(x, idx):
        return scale[idx] * (rows @ x)

    def jacobian(x, idx):
        for i, v in zip(idx, x.T):
            visits[int(i)].append(v.copy())
        return scale[idx] * rows.T[:, :, None]

    x0 = np.array([[3.0, 0.0], [3.0, 0.0]])
    x, rnorm, converged, failed = run(residual, jacobian, x0)
    assert converged[0] and not failed[0]
    alone = solve_one(lambda v: rows @ v, lambda v: rows, x0[0])
    assert np.array_equal(x[0], alone[0]) and rnorm[0] == alone[1]
    # the start, then trials at the unmoved start while the system is singular
    assert np.array_equal(visits[1][1], x0[1])
    assert any(not np.array_equal(v, x0[1]) for v in visits[1])
    assert np.isfinite(x[1]).all()
    assert rnorm[1] < np.linalg.norm(1e8 * rows @ x0[1])
