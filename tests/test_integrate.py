"""Poisson integration of gradient fields and depth alignment."""

import tracemalloc

import numpy as np
import pytest
import scipy.ndimage
import scipy.sparse
import scipy.sparse.linalg

import psbp.integrate
from psbp.core import DepthMap, GradientField, NumericalError
from psbp.fileio import read_pfm, write_pfm
from psbp.integrate import (
    _centered,
    _components,
    _divergence,
    _integrate_edges,
    _masked_system,
    _poisson_dct,
    _poisson_masked,
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


def count_factorizations(monkeypatch):
    """Route scipy's sparse LU through a recorder; returns one entry per
    factorization, (its number of unknowns, its fill L.nnz + U.nnz)."""
    splu = scipy.sparse.linalg.splu
    factors = []

    def counting_splu(a, *args, **kwargs):
        lu = splu(a, *args, **kwargs)
        factors.append((a.shape[0], lu.L.nnz + lu.U.nnz))
        return lu

    monkeypatch.setattr(scipy.sparse.linalg, "splu", counting_splu)
    return factors


def unknowns(factors):
    return [n for n, _ in factors]


def capture_preconditioner(monkeypatch):
    """Route scipy's CG through a recorder; returns the list that gets the
    preconditioner of each call."""
    cg = scipy.sparse.linalg.cg
    preconditioners = []

    def capturing_cg(a, b, *args, **kwargs):
        preconditioners.append(kwargs["M"])
        return cg(a, b, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "cg", capturing_cg)
    return preconditioners


def band(mask):
    """The masked pixels within BAND_WIDTH pixels of an off-mask pixel, in
    rows and in columns, as a frame."""
    width = 2 * psbp.integrate.BAND_WIDTH + 1
    return scipy.ndimage.maximum_filter(~mask, size=width, mode="constant") & mask


def ragged_holed_disc():
    """A disc of more than 2^15 pixels with the holes and the ragged limb
    that bp-pps leaves on a specular sphere: 200 square holes of 2 to 8
    pixels, and 30% of the pixels of its outer 6-pixel ring removed, which
    cuts off small islands."""
    rng = np.random.default_rng(26)
    rows, cols = np.mgrid[0:256, 0:256]
    radius = np.hypot(rows - 127.5, cols - 127.5)
    mask = radius < 120.0
    for (r, c), k in zip(rng.integers(16, 240, size=(200, 2)), rng.integers(2, 9, size=200)):
        mask[r:r + k, c:c + k] = False
    return mask & ~((radius > 114.0) & (rng.random((256, 256)) < 0.3))


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


def test_dct_and_cg_agree_on_full_rectangle(monkeypatch):
    """A full mask has no band, so with the limit lowered to the band's size
    CG runs with the full-frame preconditioner alone and factorizes
    nothing."""
    rng = np.random.default_rng(9)
    u = rng.standard_normal((32, 48))
    ex, ey = edge_gradient(u)
    monkeypatch.setattr(psbp.integrate, "DIRECT_MAX_UNKNOWNS", 0)
    factorizations = count_factorizations(monkeypatch)
    v1 = _poisson_dct(ex, ey, 1.0, 1.0)
    v2 = _poisson_masked(ex, ey, np.ones((32, 48), dtype=bool), 1.0, 1.0)
    assert np.abs(v1 - v2).max() < 1e-9
    assert factorizations == []


@pytest.mark.parametrize("u_scale, spacing_scale", [
    (1.0, 1.0), (1e-30, 1.0), (1e30, 1.0), (1.0, 1e-20), (1.0, 1e20), (1e-150, 1e-150),
])
def test_masked_solve_is_exact_per_component_in_few_iterations(monkeypatch, u_scale,
                                                                spacing_scale):
    """On a mask with several 4-connected components both routes, the whole
    mask factorized and, with the limit lowered to the band's size, CG with
    the band solved exactly, recover the field minus its mean on each
    component and leave an isolated pixel at 0, at field magnitudes and
    pixel spacings far outside the single-precision preconditioner's range;
    the preconditioned CG converges in a few dozen iterations."""
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
    for limit in (psbp.integrate.DIRECT_MAX_UNKNOWNS, np.count_nonzero(band(mask))):
        monkeypatch.setattr(psbp.integrate, "DIRECT_MAX_UNKNOWNS", limit)
        v = _poisson_masked(ex, ey, mask, hx, hy)
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
    in the null space.  The whole mask's factorization (fill bounded at 1.25x
    the 50,548 LU entries measured) and, with the limit below the mask's
    size, CG with that preconditioner alone both recover the field minus its
    mean on every component, CG in one call.  The gates come from a
    preconditioner that removed the component means in every iteration: 246
    iterations, worst gap 1.0e-7."""
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
    factorizations = count_factorizations(monkeypatch)
    for limit in (comp.size, comp.size - 1):
        monkeypatch.setattr(psbp.integrate, "DIRECT_MAX_UNKNOWNS", limit)
        v = _poisson_masked(ex, ey, mask, 0.5, 0.25)
        assert np.abs(v[mask] - (u[mask] - mean[comp])).max() < 1.5e-7
        assert np.all(v[mask][size[comp] == 1] == 0.0)
        assert np.all(v[~mask] == 0.0)
    assert len(factorizations) == 1 and factorizations[0][0] == comp.size == 7358
    assert factorizations[0][1] <= 1.25 * 50548
    assert len(iterations) == 1 and iterations[0] <= 260


def test_direct_and_cg_agree_on_a_holed_disc(monkeypatch):
    """The whole mask's factorization and, with the limit below the mask's
    size, CG agree on a smooth potential, as a surface's log-depth is; on
    white noise CG's stopping tolerance alone leaves gaps of ~1e-8, which
    the per-component tests above gate against the true field."""
    rng = np.random.default_rng(23)
    mask = holed_disc(rng, 64, 30.0, 0.2)
    cols, rows = np.meshgrid(np.arange(64.0), np.arange(64.0))
    u = np.sin((cols - 31.5) * 0.05) * np.cos((rows - 31.5) * 0.05)
    ex, ey = edge_gradient(u, hx=0.5, hy=0.25)
    iterations = count_cg_iterations(monkeypatch)
    v1 = _poisson_masked(ex, ey, mask, 0.5, 0.25)
    monkeypatch.setattr(psbp.integrate, "DIRECT_MAX_UNKNOWNS", np.count_nonzero(mask) - 1)
    v2 = _poisson_masked(ex, ey, mask, 0.5, 0.25)
    assert len(iterations) == 1
    assert np.abs(v1 - v2).max() < 1e-9


def test_mask_of_isolated_pixels_integrates_to_zeros(monkeypatch):
    """No edge joins two pixels of a checkerboard mask: every pixel is a
    component of its own, at 0, whether the whole mask is factorized or,
    with the limit below the mask's size, CG runs."""
    rng = np.random.default_rng(24)
    rows, cols = np.mgrid[0:32, 0:32]
    mask = (rows + cols) % 2 == 0
    ex, ey = rng.standard_normal((32, 31)), rng.standard_normal((31, 32))
    for limit in (512, 511):
        monkeypatch.setattr(psbp.integrate, "DIRECT_MAX_UNKNOWNS", limit)
        assert np.all(_integrate_edges(ex, ey, mask, 0.5, 0.25) == 0.0)


@pytest.mark.parametrize("removed, cg_calls, factorized", [(64, 0, [2**15]), (1, 1, [24])],
                         ids=["at-the-limit", "above-the-limit"])
def test_masks_up_to_the_direct_limit_skip_cg(monkeypatch, removed, cg_calls, factorized):
    """A partial mask of at most DIRECT_MAX_UNKNOWNS pixels is factorized
    once and makes no CG call; a larger one makes exactly one, and
    factorizes only its band.  A 192 x 192 frame less a 64 x 64 corner holds
    2^15 pixels; less one corner pixel it holds 36,863, and its band is the
    24 pixels within 4 of that pixel."""
    mask = np.ones((192, 192), dtype=bool)
    mask[:removed, :removed] = False
    assert (np.count_nonzero(mask) <= psbp.integrate.DIRECT_MAX_UNKNOWNS) == (cg_calls == 0)
    u = np.random.default_rng(25).standard_normal(mask.shape)
    ex, ey = edge_gradient(u)

    iterations = count_cg_iterations(monkeypatch)
    factorizations = count_factorizations(monkeypatch)
    v = _integrate_edges(ex, ey, mask, 1.0, 1.0)
    assert len(iterations) == cg_calls
    assert unknowns(factorizations) == factorized
    assert np.abs(v[mask] - (u[mask] - u[mask].mean())).max() < 1e-8


def test_holed_disc_above_the_direct_limit_converges_in_few_iterations(monkeypatch):
    """CG with the band solved exactly inside its preconditioner integrates a
    ragged, holed disc of more than 2^15 pixels in at most 25 iterations,
    where the full-frame preconditioner alone (BAND_WIDTH 0) needs more than
    four times as many, and agrees with a direct solve of the reference
    assembly, pinned, of the whole mask.  The band is the only factorization
    CG makes, within the direct limit, and its fill is bounded at 1.25x the
    270,484 LU entries measured."""
    mask = ragged_holed_disc()
    n = np.count_nonzero(mask)
    assert n > psbp.integrate.DIRECT_MAX_UNKNOWNS and scipy.ndimage.label(mask)[1] > 50
    cols, rows = np.meshgrid(np.arange(256.0), np.arange(256.0))
    u = np.sin((cols - 127.5) * 0.03) * np.cos((rows - 127.5) * 0.02)
    ex, ey = edge_gradient(u, hx=0.5, hy=0.25)

    iterations = count_cg_iterations(monkeypatch)
    factorizations = count_factorizations(monkeypatch)
    v = _integrate_edges(ex, ey, mask, 0.5, 0.25)
    assert unknowns(factorizations) == [np.count_nonzero(band(mask))] == [20445]
    assert factorizations[0][0] <= psbp.integrate.DIRECT_MAX_UNKNOWNS
    assert factorizations[0][1] <= 1.25 * 270484
    assert len(iterations) == 1 and iterations[0] <= 25
    comp = _components(mask)
    a, rhs = quadruple_system(ex, ey, mask, 0.5, 0.25, comp, pin=True)
    ref = _centered(scipy.sparse.linalg.spsolve(a, rhs), mask, comp)
    assert np.abs(v - ref).max() < 1e-9

    monkeypatch.setattr(psbp.integrate, "BAND_WIDTH", 0)
    _integrate_edges(ex, ey, mask, 0.5, 0.25)
    assert len(iterations) == 2 and iterations[1] > 4 * iterations[0]


def test_islands_inside_the_band_are_pinned_and_exact_per_component(monkeypatch):
    """Components that lie wholly in the band (a 4 x 4 and a 3 x 3 island, a
    2 x 10 strip and an isolated pixel) would make the band's block singular;
    with one node of each pinned, CG, with the limit lowered to the band's
    size, recovers the field minus its mean on every component, beside a
    disc that reaches out of the band."""
    n = 128
    mask = disc_mask(n)
    mask[50:62, 40:75] = False
    mask[118:122, 118:122] = True
    mask[110:113, 2:5] = True
    mask[2:4, 100:110] = True
    mask[124, 4] = True
    labels, count = scipy.ndimage.label(mask)
    assert count == 5
    near = band(mask)
    inside = [k for k in range(1, count + 1) if np.all(near[labels == k])]
    assert len(inside) == 4
    u = np.random.default_rng(27).standard_normal((n, n))
    ex, ey = edge_gradient(u, hx=0.5, hy=0.25)

    monkeypatch.setattr(psbp.integrate, "DIRECT_MAX_UNKNOWNS", np.count_nonzero(near))
    iterations = count_cg_iterations(monkeypatch)
    factorizations = count_factorizations(monkeypatch)
    v = _poisson_masked(ex, ey, mask, 0.5, 0.25)
    assert unknowns(factorizations) == [np.count_nonzero(near)]
    assert len(iterations) == 1
    for k in range(1, count + 1):
        comp = labels == k
        assert np.abs(v[comp] - (u[comp] - u[comp].mean())).max() < 1e-8
    assert v[124, 4] == 0.0
    assert np.all(v[~mask] == 0.0)


def test_band_over_the_limit_is_not_factorized(monkeypatch):
    """With the limit lowered to 100 unknowns, the band of a small holed disc
    exceeds it: CG factorizes nothing, runs with the full-frame
    preconditioner itself, and still converges to the field."""
    monkeypatch.setattr(psbp.integrate, "DIRECT_MAX_UNKNOWNS", 100)
    rng = np.random.default_rng(28)
    mask = disc_mask(64, 31.5, 28.0)
    mask[20:24, 30:36] = False
    assert np.count_nonzero(band(mask)) > 100
    u = rng.standard_normal(mask.shape)
    ex, ey = edge_gradient(u, hx=0.5, hy=0.25)

    iterations = count_cg_iterations(monkeypatch)
    factorizations = count_factorizations(monkeypatch)
    v = _integrate_edges(ex, ey, mask, 0.5, 0.25)
    assert factorizations == [] and len(iterations) == 1
    assert np.abs(v[mask] - (u[mask] - u[mask].mean())).max() < 1e-8


def quadruple_system(ex, ey, mask, hx, hy, comp, pin):
    """The reference assembly of _masked_system, and with pin of the whole
    mask's pinned block: four COO entries per edge, (p, p), (q, q), (p, q)
    and (q, p), and one per pin, the first node of each component, summed
    as duplicates into CSR."""
    h, w = mask.shape
    n = comp.size
    idx = -np.ones((h, w), dtype=np.int64)
    idx[mask] = np.arange(n)
    okx = mask[:, :-1] & mask[:, 1:]
    oky = mask[:-1, :] & mask[1:, :]
    rhs = -_divergence(np.where(okx, ex, 0.0), np.where(oky, ey, 0.0), hx, hy)[mask]
    rows, cols, vals = [], [], []
    for ok, p_idx, q_idx, step in ((okx, idx[:, :-1], idx[:, 1:], hx),
                                   (oky, idx[:-1, :], idx[1:, :], hy)):
        wgt = 1.0 / (step * step)
        p = p_idx[ok]
        q = q_idx[ok]
        rows.extend([p, q, p, q])
        cols.extend([p, q, q, p])
        vals.extend([np.full(p.size, wgt), np.full(p.size, wgt),
                     np.full(p.size, -wgt), np.full(p.size, -wgt)])
    if pin:
        pins = np.unique(comp, return_index=True)[1]
        rows.append(pins)
        cols.append(pins)
        vals.append(np.full(pins.size, 1.0 / (hx * hy)))
    a = scipy.sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n))
    return a, rhs


@pytest.mark.parametrize("pin", [False, True])
@pytest.mark.parametrize("hx, hy, ulps", [(0.5, 0.5, 0), (0.0046875, 0.0046875, 0),
                                          (0.3, 0.7, 1), (1e-3, 3e-3, 1)])
def test_masked_system_matches_the_quadruple_assembly(monkeypatch, pin, hx, hy, ulps):
    """The one-pass assembly, and with pin the block factorized when the
    whole mask is within the limit, have the reference's structure with no
    stored zero, though the ragged disc has isolated pixels; the assembly
    has the reference's right-hand side.  Entries keep their bits at equal
    spacings; at unequal ones the diagonal's summation order may differ, by
    at most one ulp."""
    mask = ragged_holed_disc()
    comp = _components(mask)
    assert np.any(np.bincount(comp) == 1)
    rng = np.random.default_rng(27)
    ex = rng.standard_normal((256, 255))
    ey = rng.standard_normal((255, 256))
    a, rhs = _masked_system(ex, ey, mask, hx, hy)
    if pin:
        # splu takes the block's transpose, a CSC view of its CSR arrays
        splu = scipy.sparse.linalg.splu
        blocks = []

        def capturing_splu(m, *args, **kwargs):
            blocks.append(m.T)
            return splu(m, *args, **kwargs)

        monkeypatch.setattr(psbp.integrate, "DIRECT_MAX_UNKNOWNS", comp.size)
        monkeypatch.setattr(scipy.sparse.linalg, "splu", capturing_splu)
        _poisson_masked(ex, ey, mask, hx, hy)
        assert len(blocks) == 1
        a = blocks[0]
    ref, ref_rhs = quadruple_system(ex, ey, mask, hx, hy, comp, pin)
    assert np.array_equal(a.indptr, ref.indptr)
    assert np.array_equal(a.indices, ref.indices)
    assert np.all(a.data != 0.0)
    assert np.all(np.abs(a.data - ref.data) <= ulps * np.spacing(np.abs(ref.data)))
    assert np.array_equal(rhs, ref_rhs)


def test_masked_system_peaks_below_the_quadruple_assembly():
    """Assembled in one pass with no duplicates, the matrix of the ragged
    disc peaks at most 0.75x of the reference assembly's traced heap (0.29x
    measured); numpy reports its buffers to tracemalloc, so both are exact."""
    mask = ragged_holed_disc()
    comp = _components(mask)
    ex, ey = np.zeros((256, 255)), np.zeros((255, 256))
    peaks = []
    for assemble in (_masked_system,
                     lambda *args: quadruple_system(*args, comp=comp, pin=False)):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assemble(ex, ey, mask, 0.5, 0.5)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 0.75 * peaks[1]


def test_preconditioner_is_symmetric_positive_definite_on_a_partial_mask(monkeypatch):
    """The full-frame preconditioner is the cosine-transform solve restricted
    to the mask, S^T L^+ S.  S v is zero off a partial mask, so it is never
    a non-zero constant, the one null vector of L^+: the restricted solve is
    symmetric positive definite on the masked unknowns, and CG needs no mean
    removal inside it.  CG runs with it alone when the limit is below the
    band's size, whether the band is the whole mask (16 x 16) or leaves an
    interior (28 x 28, with an island in the band).  So is the two-level one
    built around it, with the band solved exactly, when the limit is the
    band's size and below the mask's.  Either maps a zero residual to
    zero."""
    rng = np.random.default_rng(22)
    small = holed_disc(rng, 16, 7.5, 0.2)
    small[0, 0] = True  # an isolated corner pixel
    large = disc_mask(28, 13.5, 13.0) & (rng.random((28, 28)) >= 0.02)
    large[12:15, 8:11] = False  # a hole
    large[26, 1:3] = True  # an island in the band
    large[0, 0] = True
    assert band(small)[small].all()
    assert band(large)[large].any() and not band(large)[large].all()
    preconditioners = capture_preconditioner(monkeypatch)
    factorizations = count_factorizations(monkeypatch)
    for mask, two_level in ((small, False), (large, False), (large, True)):
        n = np.count_nonzero(mask)
        assert n <= 600 and scipy.ndimage.label(mask)[1] >= 3
        h, w = mask.shape
        size = np.count_nonzero(band(mask))
        monkeypatch.setattr(psbp.integrate, "DIRECT_MAX_UNKNOWNS", size - 1 + two_level)
        _poisson_masked(np.zeros((h, w - 1)), np.zeros((h - 1, w)), mask, 0.5, 0.25)
        assert unknowns(factorizations) == ([size] if two_level else [])
        factorizations.clear()
        precondition = preconditioners.pop().matvec
        p = np.stack([precondition(e) for e in np.eye(n)], axis=1)
        top = np.abs(p).max()
        assert np.abs(p - p.T).max() < 8 * np.finfo(np.float32).eps * top
        assert np.linalg.eigvalsh(0.5 * (p + p.T)).min() > 1e-3 * top
        zeros = precondition(np.zeros(n))
        assert zeros.shape == (n,) and np.all(zeros == 0.0)


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
    monkeypatch.setattr(psbp.integrate, "DIRECT_MAX_UNKNOWNS", np.count_nonzero(band(mask)))
    monkeypatch.setattr(scipy.sparse.linalg, "cg", counting_cg)
    with pytest.raises(NumericalError, match="did not converge"):
        _poisson_masked(ex, ey, mask, 1.0, 1.0)
    assert iterations[0] == psbp.integrate.CG_MAX_ITER


def test_exp_depth_basic_and_overflow():
    u = np.array([[0.0, np.log(2.0)], [np.log(3.0), 1.0]])
    d = exp_depth(u)
    assert np.allclose(d.z, np.exp(u))
    mask = np.array([[True, False], [True, True]])
    d2 = exp_depth(u, mask=mask)
    assert d2.z[0, 1] == 0.0
    # depth.pfm is float32: a log-depth of 100 would overflow to inf there,
    # and one of -110 would flush a masked depth to zero
    for value in (800.0, 100.0, -110.0):
        with pytest.raises(NumericalError, match=r"outside float32's range .* \(col=1, row=0\)"):
            exp_depth(np.array([[0.0, value]]))
        # masked overflow is ignored
        exp_depth(np.array([[0.0, value]]), mask=np.array([[True, False]]))
    # the bounds, ln of float32's smallest normal and largest values, keep a
    # finite, non-zero float32 depth
    f32 = np.finfo(np.float32)
    z = exp_depth(np.log([[float(f32.tiny), float(f32.max)]])).z.astype(np.float32)
    assert np.all(np.isfinite(z)) and np.all(z > 0.0)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_exp_depth_rejects_a_non_finite_potential(value):
    """A non-finite potential is a numerical failure named by its first
    pixel, not a depth map that DepthMap would reject as invalid input; off
    the mask it is ignored."""
    u = np.zeros((3, 2))
    u[1, 0] = u[2, 1] = value
    with pytest.raises(NumericalError, match=r"non-finite log-depth at pixel \(col=0, row=1\)"):
        exp_depth(u)
    mask = np.ones((3, 2), dtype=bool)
    mask[1, 0] = mask[2, 1] = False
    assert np.all(exp_depth(u, mask=mask).z[mask] == 1.0)


def test_align_depth_recovers_global_scale():
    rng = np.random.default_rng(11)
    z = np.exp(rng.uniform(0.5, 1.5, size=(16, 16)))
    ref = DepthMap(z)
    est = DepthMap(3.7 * z)
    raw, normalized = align_depth(est, ref)
    # unscaled, the estimate would score a mean square of 2.7^2 * mean(z^2)
    assert np.mean((2.7 * z) ** 2) > 1.0
    assert raw < 1e-20
    assert normalized < 1e-20


def test_align_depth_normalized_error_is_scale_invariant():
    rng = np.random.default_rng(12)
    z = np.exp(rng.uniform(0.5, 1.5, size=(16, 16)))
    noisy = z * np.exp(rng.normal(0, 0.01, size=z.shape))
    _, n1 = align_depth(DepthMap(noisy), DepthMap(z))
    _, n2 = align_depth(DepthMap(10.0 * noisy), DepthMap(z))
    assert n1 == pytest.approx(n2, rel=1e-9)


def test_align_depth_respects_joint_mask():
    # the masks overlap on row 1 alone: the scores are those of that row's
    # pixels as maps of their own, bit for bit, whatever lies off it
    rng = np.random.default_rng(13)
    est, ref = np.exp(rng.uniform(0.5, 1.5, size=(2, 4, 4)))
    est_mask = np.zeros((4, 4), dtype=bool)
    est_mask[:2] = True
    ref_mask = np.zeros((4, 4), dtype=bool)
    ref_mask[1:] = True
    alone = align_depth(DepthMap(est[1:2]), DepthMap(ref[1:2]))
    assert min(alone) > 0.0
    scores = align_depth(DepthMap(est, mask=est_mask), DepthMap(ref, mask=ref_mask))
    assert np.array_equal(np.array(scores).view(np.int64), np.array(alone).view(np.int64))
    est[0], ref[2:] = 1e6, 1e-6
    moved = align_depth(DepthMap(est, mask=est_mask), DepthMap(ref, mask=ref_mask))
    assert np.array_equal(np.array(moved).view(np.int64), np.array(alone).view(np.int64))


def test_align_depth_errors():
    z = np.full((4, 4), 2.0)
    ramp = 2.0 + np.arange(16.0).reshape(4, 4)
    with pytest.raises(ValueError, match="depth map shapes do not match"):
        align_depth(DepthMap(z), DepthMap(np.full((5, 5), 2.0)))
    with pytest.raises(ValueError, match="aligned depth maps share no valid pixels"):
        align_depth(DepthMap(z, mask=np.zeros((4, 4), dtype=bool)), DepthMap(z))
    with pytest.raises(ValueError, match="depth alignment requires strictly positive depths"):
        align_depth(DepthMap(np.zeros((4, 4))), DepthMap(z))
    with pytest.raises(ValueError, match="depth alignment requires strictly positive depths"):
        align_depth(DepthMap(z), DepthMap(np.zeros((4, 4))))
    for est, ref in ((z, ramp), (ramp, z)):
        with pytest.raises(ValueError, match="cannot normalize a depth map with zero range"):
            align_depth(DepthMap(est), DepthMap(ref))
    # the range is the joint pixels': a pixel of the estimate off the
    # reference's mask does not widen it
    ref_mask = np.ones((4, 4), dtype=bool)
    ref_mask[0, 0] = False
    with pytest.raises(ValueError, match="zero range"):
        align_depth(DepthMap(np.where(ref_mask, 2.0, 9.0)), DepthMap(ramp, mask=ref_mask))


def test_align_depth_scores_by_hand():
    # ln 2 - ln 4 and ln 4 - ln 2 cancel, so the offset is 0 and the scale 1;
    # the third column lies off the estimate's mask and changes nothing
    est = np.array([[4.0, 2.0, 100.0], [6.0, 8.0, 0.0]])
    ref = np.array([[2.0, 4.0, 1.0], [6.0, 8.0, 50.0]])
    est_mask = np.array([[True, True, False], [True, True, False]])
    raw, normalized = align_depth(DepthMap(est, mask=est_mask), DepthMap(ref))
    # differences (2, -2, 0, 0), then (1/3, -1/3, 0, 0) on the unit ranges
    assert raw == pytest.approx(8.0 / 4.0, rel=1e-15)
    assert normalized == pytest.approx((2.0 / 9.0) / 4.0, rel=1e-15)


def frame_scores(estimate, reference):
    """align_depth's scores by the whole-frame formula: the aligned
    estimate and both unit-range maps formed as frames that are zero off
    the joint mask, each squared difference taken at the joint pixels."""
    joint = estimate.mask & reference.mask
    c = float(np.mean(np.log(reference.z[joint]) - np.log(estimate.z[joint])))
    aligned = np.where(joint, estimate.z * np.exp(c), 0.0)

    def unit_range(z):
        lo, hi = float(np.min(z[joint])), float(np.max(z[joint]))
        return np.where(joint, (z - lo) / (hi - lo), 0.0)

    def mean_square(a, b):
        d = a[joint] - b[joint]
        return float(np.mean(d * d))

    reference_z = np.where(joint, reference.z, 0.0)
    return (mean_square(aligned, reference_z),
            mean_square(unit_range(aligned), unit_range(reference_z)))


@pytest.mark.parametrize("case", ["partial-joint", "float32-pfm", "constant-offset"])
def test_align_depth_scores_keep_the_frame_formula_bits(tmp_path, case):
    rng = np.random.default_rng(21)
    shape = (48, 40)
    ref_z = np.exp(rng.uniform(0.8, 1.6, size=shape))
    est_z = ref_z * np.exp(rng.normal(0.3, 0.02, size=shape))
    est_mask = ref_mask = np.ones(shape, dtype=bool)
    if case == "partial-joint":
        est_mask = rng.random(shape) < 0.8
        ref_mask = rng.random(shape) < 0.7
        est_z = np.where(est_mask, est_z, 0.0)
    elif case == "float32-pfm":
        # as evaluate reads them: float32 files that DepthMap widens
        for name, z in (("est", est_z), ("ref", ref_z)):
            write_pfm(tmp_path / f"{name}.pfm", z)
        est_z, ref_z = (read_pfm(tmp_path / f"{name}.pfm") for name in ("est", "ref"))
    else:
        est_z = 3.7 * ref_z
    estimate = DepthMap(est_z, mask=est_mask)
    reference = DepthMap(ref_z, mask=ref_mask)
    raw, normalized = align_depth(estimate, reference)
    want = frame_scores(estimate, reference)
    joint = est_mask & ref_mask
    assert joint.any() and joint.all() == (case != "partial-joint")
    assert np.array_equal(np.array([raw, normalized]).view(np.int64),
                          np.array(want).view(np.int64))
