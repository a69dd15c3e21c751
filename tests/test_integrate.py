"""Poisson integration of gradient fields and depth alignment."""

import numpy as np
import pytest
import scipy.ndimage
import scipy.sparse.linalg

import psbp.integrate
from psbp.core import DepthMap, GradientField, NumericalError
from psbp.integrate import (
    _dct_preconditioner,
    _integrate_edges,
    _poisson_cg,
    _poisson_direct,
    _poisson_dct,
    align_depth,
    exp_depth,
    poisson_integrate,
)


def edge_gradient(u, hx=1.0, hy=1.0):
    """Forward differences of u on the horizontal and vertical edges."""
    return np.diff(u, axis=1) / hx, np.diff(u, axis=0) / hy


def disc_mask(n=128, centre=60.0, radius=50.0):
    rows, cols = np.mgrid[0:n, 0:n]
    return (rows - centre) ** 2 + (cols - centre) ** 2 < radius**2


def holed_disc(rng, n, radius, removed):
    """A centred disc with a seeded share of its pixels removed at random."""
    return disc_mask(n, (n - 1) / 2.0, radius) & (rng.random((n, n)) >= removed)


def count_cg_iterations(monkeypatch):
    """Route scipy's CG through a counter; returns one entry per call, the
    number of iterations it ran."""
    cg = scipy.sparse.linalg.cg
    iterations = []

    def counting_cg(a, b, *args, **kwargs):
        iterations.append(0)

        def count(xk):
            iterations[-1] += 1

        return cg(a, b, *args, callback=count, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "cg", counting_cg)
    return iterations


def test_zero_gradient_integrates_to_zero():
    grad = GradientField(gx=np.zeros((8, 8)), gy=np.zeros((8, 8)))
    u = poisson_integrate(grad)
    assert np.allclose(u, 0.0, atol=1e-12)


def test_constant_gradient_gives_linear_ramp():
    # gx = a everywhere: u(x) = a * hx * (col - mean(col))
    a = 0.7
    grad = GradientField(gx=np.full((16, 16), a), gy=np.zeros((16, 16)))
    u = poisson_integrate(grad, hx=0.5, hy=0.5)
    cols = np.arange(16, dtype=np.float64)
    expected = a * 0.5 * (cols - cols.mean())
    assert np.allclose(u, expected[None, :], atol=1e-9)


def test_projection_property_on_random_fields():
    """Integrating the matched forward-difference gradient of any field
    returns exactly that field minus its mean."""
    rng = np.random.default_rng(7)
    for _ in range(5):
        u = rng.standard_normal((64, 64))
        ex, ey = edge_gradient(u, hx=0.5, hy=0.25)
        v = _integrate_edges(ex, ey, np.ones((64, 64), dtype=bool), 0.5, 0.25)
        assert np.abs(v - (u - u.mean())).max() < 1e-8


def test_projection_property_masked_domain():
    rng = np.random.default_rng(8)
    u = rng.standard_normal((48, 40))
    mask = np.zeros((48, 40), dtype=bool)
    mask[6:44, 4:32] = True
    mask[20:25, 10:18] = False  # carve a hole
    ex, ey = edge_gradient(u, hx=0.5, hy=0.25)
    v = _integrate_edges(ex, ey, mask, 0.5, 0.25)
    assert np.abs(v[mask] - (u[mask] - u[mask].mean())).max() < 1e-8
    assert np.all(v[~mask] == 0.0)


def test_dct_and_cg_agree_on_full_rectangle():
    rng = np.random.default_rng(9)
    u = rng.standard_normal((32, 48))
    ex, ey = edge_gradient(u)
    v1 = _poisson_dct(ex, ey, 1.0, 1.0)
    v2 = _poisson_cg(ex, ey, np.ones((32, 48), dtype=bool), 1.0, 1.0)
    assert np.abs(v1 - v2).max() < 1e-9


@pytest.mark.parametrize("u_scale, spacing_scale", [
    (1.0, 1.0), (1e-30, 1.0), (1e30, 1.0), (1.0, 1e-20), (1.0, 1e20), (1e-150, 1e-150),
])
def test_masked_solve_is_exact_per_component_in_few_iterations(monkeypatch, u_scale,
                                                                spacing_scale):
    """On a mask with several 4-connected components both masked solvers
    recover the field minus its mean on each component and leave an isolated
    pixel at 0, at field magnitudes and pixel spacings far outside the
    single-precision preconditioner's range; the preconditioned CG converges
    in a few dozen iterations."""
    n = 128
    mask = disc_mask(n)
    mask[50:62, 40:75] = False  # rectangular hole
    mask[118:122, 118:122] = True  # separate 4x4 component
    mask[124, 4] = True  # isolated pixel
    u = u_scale * np.random.default_rng(8).standard_normal((n, n))
    hx, hy = 0.5 * spacing_scale, 0.25 * spacing_scale
    ex, ey = edge_gradient(u, hx=hx, hy=hy)

    labels, count = scipy.ndimage.label(mask)
    assert count == 3
    iterations = count_cg_iterations(monkeypatch)
    for solve in (_poisson_direct, _poisson_cg):
        v = solve(ex, ey, mask, hx, hy)
        for k in range(1, count + 1):
            comp = labels == k
            assert np.abs(v[comp] - (u[comp] - u[comp].mean())).max() < 1e-8 * u_scale
        assert v[124, 4] == 0.0
        assert np.all(v[~mask] == 0.0)
    assert len(iterations) == 1 and iterations[0] <= 50


def test_fragmented_mask_with_isolated_pixels_is_exact_per_component(monkeypatch):
    """A disc with 35% of its pixels removed at random splits into 196
    4-connected components, 121 of them isolated pixels: the mask on which
    a preconditioner without per-iteration mean removal puts the most weight
    in the null space.  Both masked solvers recover the field minus its mean
    on every component, CG in one call.  The gates come from a preconditioner
    that removed the component means in every iteration: 246 iterations,
    worst gap 1.0e-7."""
    n = 128
    rng = np.random.default_rng(21)
    mask = holed_disc(rng, n, 60.0, 0.35)
    u = rng.standard_normal((n, n))
    ex, ey = edge_gradient(u, hx=0.5, hy=0.25)

    labels, count = scipy.ndimage.label(mask)
    comp = labels[mask] - 1
    size = np.bincount(comp)
    assert count == 196 and np.count_nonzero(size == 1) == 121
    mean = np.bincount(comp, weights=u[mask]) / size
    iterations = count_cg_iterations(monkeypatch)
    for solve in (_poisson_direct, _poisson_cg):
        v = solve(ex, ey, mask, 0.5, 0.25)
        assert np.abs(v[mask] - (u[mask] - mean[comp])).max() < 1.5e-7
        assert np.all(v[mask][size[comp] == 1] == 0.0)
        assert np.all(v[~mask] == 0.0)
    assert len(iterations) == 1 and iterations[0] <= 260


def test_direct_and_cg_agree_on_a_holed_disc():
    """On a smooth potential, as a surface's log-depth is; on white noise
    CG's stopping tolerance alone leaves gaps of ~1e-8, which the
    per-component tests above gate against the true field."""
    rng = np.random.default_rng(23)
    mask = holed_disc(rng, 64, 30.0, 0.2)
    cols, rows = np.meshgrid(np.arange(64.0), np.arange(64.0))
    u = np.sin((cols - 31.5) * 0.05) * np.cos((rows - 31.5) * 0.05)
    ex, ey = edge_gradient(u, hx=0.5, hy=0.25)
    v1 = _poisson_direct(ex, ey, mask, 0.5, 0.25)
    v2 = _poisson_cg(ex, ey, mask, 0.5, 0.25)
    assert np.abs(v1 - v2).max() < 1e-9


def test_mask_of_isolated_pixels_integrates_to_zeros():
    """No edge joins two pixels of a checkerboard mask: every pixel is a
    component of its own, at 0, whichever masked solver runs."""
    rng = np.random.default_rng(24)
    rows, cols = np.mgrid[0:32, 0:32]
    mask = (rows + cols) % 2 == 0
    ex, ey = rng.standard_normal((32, 31)), rng.standard_normal((31, 32))
    for solve in (_integrate_edges, _poisson_cg):
        assert np.all(solve(ex, ey, mask, 0.5, 0.25) == 0.0)


@pytest.mark.parametrize("removed, cg_calls", [(64, 0), (1, 1)],
                         ids=["at-the-limit", "above-the-limit"])
def test_masks_up_to_the_direct_limit_skip_cg(monkeypatch, removed, cg_calls):
    """A partial mask of at most DIRECT_MAX_UNKNOWNS pixels is factorized
    once and makes no CG call; a larger one makes exactly one.  A 192 x 192
    frame less a 64 x 64 corner holds 2^15 pixels, less one pixel 36,863."""
    mask = np.ones((192, 192), dtype=bool)
    mask[:removed, :removed] = False
    assert (np.count_nonzero(mask) <= psbp.integrate.DIRECT_MAX_UNKNOWNS) == (cg_calls == 0)
    u = np.random.default_rng(25).standard_normal(mask.shape)
    ex, ey = edge_gradient(u)

    iterations = count_cg_iterations(monkeypatch)
    v = _integrate_edges(ex, ey, mask, 1.0, 1.0)
    assert len(iterations) == cg_calls
    assert np.abs(v[mask] - (u[mask] - u[mask].mean())).max() < 1e-8


def test_preconditioner_is_symmetric_positive_definite_on_a_partial_mask():
    """The preconditioner is the full-frame cosine-transform solve restricted
    to the mask, S^T L^+ S.  S v is zero off a partial mask, so it is never
    a non-zero constant, the one null vector of L^+: the restricted solve is
    symmetric positive definite on the masked unknowns, and CG needs no mean
    removal inside it."""
    rng = np.random.default_rng(22)
    mask = holed_disc(rng, 16, 7.5, 0.2)
    mask[0, 0] = True  # an isolated corner pixel
    n = np.count_nonzero(mask)
    assert n <= 200 and scipy.ndimage.label(mask)[1] >= 3
    precondition = _dct_preconditioner(mask, 0.5, 0.25)
    p = np.stack([precondition(e) for e in np.eye(n)], axis=1)

    top = np.abs(p).max()
    assert np.abs(p - p.T).max() < 8 * np.finfo(np.float32).eps * top
    assert np.linalg.eigvalsh(0.5 * (p + p.T)).min() > 1e-3 * top


def test_smooth_analytic_gradients_default_sampling():
    # pixel-centered analytic gradients of sin(x)cos(y) on a metric grid
    cols, rows = np.meshgrid(np.arange(64.0), np.arange(64.0))
    x = (cols - 31.5) * 0.05
    y = (rows - 31.5) * 0.05
    u = np.sin(x) * np.cos(y)
    grad = GradientField(gx=np.cos(x) * np.cos(y), gy=-np.sin(x) * np.sin(y))
    v = poisson_integrate(grad, hx=0.05, hy=0.05)
    rmse = np.sqrt(np.mean((v - (u - u.mean())) ** 2))
    assert rmse < 1e-3


def test_integration_is_linear():
    rng = np.random.default_rng(10)
    g1x, g1y = rng.standard_normal((2, 24, 24))
    g2x, g2y = rng.standard_normal((2, 24, 24))
    va = poisson_integrate(GradientField(gx=g1x, gy=g1y))
    vb = poisson_integrate(GradientField(gx=g2x, gy=g2y))
    vc = poisson_integrate(GradientField(gx=2 * g1x - 3 * g2x, gy=2 * g1y - 3 * g2y))
    assert np.abs(vc - (2 * va - 3 * vb)).max() < 1e-8


def test_fully_masked_field_raises():
    grad = GradientField(gx=np.zeros((4, 4)), gy=np.zeros((4, 4)),
                         mask=np.zeros((4, 4), dtype=bool))
    with pytest.raises(NumericalError):
        poisson_integrate(grad)


def test_masked_solve_that_cannot_converge_raises_at_the_iteration_cap(monkeypatch):
    """A CG solve that never meets its tolerance stops after CG_MAX_ITER
    iterations and raises, whatever the size of the mask."""
    mask = disc_mask()
    u = np.random.default_rng(13).standard_normal(mask.shape)
    ex, ey = edge_gradient(u)

    cg = scipy.sparse.linalg.cg
    iterations = [0]

    def count(xk):
        iterations[0] += 1
        if iterations[0] > 2001:
            raise AssertionError("CG ran past 2001 iterations")

    def counting_cg(a, b, *args, **kwargs):
        return cg(a, b, *args, callback=count, **kwargs)

    monkeypatch.setattr(psbp.integrate, "CG_RTOL", 0.0)
    monkeypatch.setattr(scipy.sparse.linalg, "cg", counting_cg)
    with pytest.raises(NumericalError, match="did not converge"):
        _poisson_cg(ex, ey, mask, 1.0, 1.0)
    assert iterations[0] == psbp.integrate.CG_MAX_ITER


def test_exp_depth_basic_and_overflow():
    u = np.array([[0.0, np.log(2.0)], [np.log(3.0), 1.0]])
    d = exp_depth(u)
    assert np.allclose(d.z, np.exp(u))
    mask = np.array([[True, False], [True, True]])
    d2 = exp_depth(u, mask=mask)
    assert d2.z[0, 1] == 0.0
    with pytest.raises(NumericalError) as exc:
        exp_depth(np.array([[0.0, 800.0]]))
    assert "col=1" in str(exc.value) and "row=0" in str(exc.value)
    # masked overflow is ignored
    exp_depth(np.array([[0.0, 800.0]]), mask=np.array([[True, False]]))


def test_align_depth_recovers_global_scale():
    rng = np.random.default_rng(11)
    z = np.exp(rng.uniform(0.5, 1.5, size=(16, 16)))
    ref = DepthMap(z)
    est = DepthMap(3.7 * z)
    aligned, raw, normalized = align_depth(est, ref)
    assert np.allclose(aligned.z, z, atol=1e-12)
    assert raw < 1e-20
    assert normalized < 1e-20


def test_align_depth_normalized_error_is_scale_invariant():
    rng = np.random.default_rng(12)
    z = np.exp(rng.uniform(0.5, 1.5, size=(16, 16)))
    noisy = z * np.exp(rng.normal(0, 0.01, size=z.shape))
    _, _, n1 = align_depth(DepthMap(noisy), DepthMap(z))
    _, _, n2 = align_depth(DepthMap(10.0 * noisy), DepthMap(z))
    assert n1 == pytest.approx(n2, rel=1e-9)


def test_align_depth_respects_joint_mask():
    z = 2.0 + np.arange(16.0).reshape(4, 4) / 8.0
    est_mask = np.zeros((4, 4), dtype=bool)
    est_mask[:2] = True
    ref_mask = np.zeros((4, 4), dtype=bool)
    ref_mask[1:] = True
    aligned, _, _ = align_depth(DepthMap(z, mask=est_mask), DepthMap(z, mask=ref_mask))
    assert aligned.mask.sum() == 4  # only the overlapping row
    assert np.all(aligned.z[~aligned.mask] == 0.0)
    assert np.allclose(aligned.z[1], z[1], atol=1e-12)


def test_align_depth_errors():
    z = np.full((4, 4), 2.0)
    with pytest.raises(ValueError):
        align_depth(DepthMap(z), DepthMap(np.full((5, 5), 2.0)))
    with pytest.raises(ValueError):
        align_depth(DepthMap(z, mask=np.zeros((4, 4), dtype=bool)), DepthMap(z))
    with pytest.raises(ValueError):
        align_depth(DepthMap(np.zeros((4, 4))), DepthMap(z))
