import math

import numpy as np
import pytest

from grflab import (
    Grid,
    ScalarField,
    flat_metric,
    scalar_curvature,
    weighted_inner,
)
from grflab.errors import PositivityError
from grflab.geometry import (
    MetricField,
    christoffel_values,
    codifferential_values,
    deturck_vector_values,
    exterior_derivative_values,
    form_norm_sq_values,
    gradient_vector_values,
    h_squared_values,
    hodge_laplacian_values,
    interior_product_values,
    laplacian_values,
    lie_derivative_metric_values,
    ricci_values,
)
from grflab.lattice import diff_values, gradient_values, symmetric_pairs

from oracles import (ConformalOracle, diagonal_metric, form_field,
                     full_symmetric, one_form_inner, packed, reference_scalar,
                     stencil_wavenumber)

# Absolute mismatch budgets against the analytic conformal oracle at 16^3,
# amplitudes a1=0.1, a2=0.05. The scheme is 4th order; the acceptance suite
# checks the decay ratio between resolutions, these bounds just pin the level.
TOL_CHRISTOFFEL = 2e-4
TOL_RICCI = 2e-3
TOL_SCALAR = 5e-3
TOL_LAPLACE = 0.1   # the k=2 mode of the reference scalar dominates at 16^3


@pytest.fixture(scope="module")
def oracle():
    return ConformalOracle(16)


def random_form(grid, seed, rank):
    """Random packed k-form array on a 3D grid (a grid array for k = 0)."""
    rng = np.random.default_rng(seed)
    lead = (math.comb(3, rank),) if rank else ()
    return rng.standard_normal(lead + grid.shape)


def inner(g, a, b, k):
    """<a, b> of two packed k-forms: the oracle pairing for k = 1."""
    if k == 1:
        return one_form_inner(g, a, b)
    return weighted_inner(form_field(g.grid, a, k), form_field(g.grid, b, k), g)


def bumpy_metric(grid, seed=11, amp=0.1):
    rng = np.random.default_rng(seed)
    x, y, z = grid.coordinate_arrays()
    base = np.zeros(grid.shape + (3, 3))
    for i in range(3):
        base[..., i, i] = 1.0
    c = rng.uniform(-1.0, 1.0, size=(3, 3))
    c = 0.5 * (c + c.T)
    wave = np.sin(x) * np.cos(y) + np.cos(z)
    base += amp * c * wave[..., None, None]
    return MetricField(grid, packed(base, 3, 2, symmetric=True))


def test_metric_rejects_indefinite():
    grid = Grid((8, 8, 8))
    vals = np.zeros((6,) + grid.shape)
    vals[0] = -1.0  # the pairs (0, 0), (1, 1) and (2, 2)
    vals[3] = 1.0
    vals[5] = 1.0
    with pytest.raises(PositivityError):
        MetricField(grid, vals)


def test_flat_metric_curvature_is_exactly_zero():
    grid = Grid((8, 8, 8))
    g = diagonal_metric(grid, (2.0, 1.0, 0.5))
    assert np.all(christoffel_values(g) == 0.0)
    assert np.all(ricci_values(g) == 0.0)
    assert np.all(scalar_curvature(g).values == 0.0)


def test_christoffel_conformal(oracle):
    # the kernel stores Gamma^k_ij on the pairs i <= j, component major
    i, j, _ = symmetric_pairs(3)
    ref = np.moveaxis(oracle.christoffel()[..., i, j], (-2, -1), (0, 1))
    err = np.max(np.abs(christoffel_values(oracle.metric) - ref))
    assert err < TOL_CHRISTOFFEL


def test_ricci_conformal(oracle):
    num = full_symmetric(ricci_values(oracle.metric))
    err = np.max(np.abs(num - oracle.ricci()))
    assert err < TOL_RICCI


def test_scalar_curvature_conformal(oracle):
    num = scalar_curvature(oracle.metric).values
    err = np.max(np.abs(num - oracle.scalar_curvature()))
    assert err < TOL_SCALAR


def test_laplace_beltrami_conformal(oracle):
    f, df, lap = reference_scalar(oracle.grid)
    num = laplacian_values(oracle.metric, f)
    err = np.max(np.abs(num - oracle.laplacian_of(f, df, lap)))
    assert err < TOL_LAPLACE


def test_laplace_beltrami_self_adjoint():
    grid = Grid((12, 12, 12))
    g = bumpy_metric(grid)
    rng = np.random.default_rng(7)
    u = rng.standard_normal(grid.shape)
    v = rng.standard_normal(grid.shape)
    lhs = weighted_inner(ScalarField(grid, laplacian_values(g, u)),
                         ScalarField(grid, v), g)
    rhs = weighted_inner(ScalarField(grid, u),
                         ScalarField(grid, laplacian_values(g, v)), g)
    assert abs(lhs - rhs) < 1e-9 * max(abs(lhs), 1.0)


def test_hessian_flat_is_stencil_second_derivative():
    grid = Grid((16, 16, 16))
    g = flat_metric(grid)
    x, _, _ = grid.coordinate_arrays()
    # Hess f = -L_X g / 2 at X = -grad f
    h = -0.5 * lie_derivative_metric_values(
        g, -gradient_vector_values(g, np.sin(x) + np.zeros(grid.shape)))
    k1 = stencil_wavenumber(1, 16)
    expected = -k1 * k1 * np.sin(x)
    # the pairs (0, 0), (1, 1) and (0, 1)
    assert np.max(np.abs(h[0] - expected)) < 1e-12
    assert np.max(np.abs(h[3])) < 1e-13
    assert np.max(np.abs(h[1])) < 1e-13


def test_gradient_vector_raises_index():
    grid = Grid((8, 8, 8))
    g = diagonal_metric(grid, (4.0, 1.0, 1.0))
    x, _, _ = grid.coordinate_arrays()
    gv = gradient_vector_values(g, np.sin(x) + np.zeros(grid.shape))
    k1 = stencil_wavenumber(1, 8)
    assert np.max(np.abs(gv[0] - 0.25 * k1 * np.cos(x))) < 1e-13


def test_exterior_derivative_squares_to_zero():
    grid = Grid((10, 10, 10))
    rng = np.random.default_rng(9)
    f = rng.standard_normal(grid.shape)
    ddf = exterior_derivative_values(
        grid, exterior_derivative_values(grid, f, 0), 1)
    assert np.max(np.abs(ddf)) < 1e-12
    a = random_form(grid, 10, 1)
    dda = exterior_derivative_values(
        grid, exterior_derivative_values(grid, a, 1), 2)
    assert np.max(np.abs(dda)) < 1e-11


def test_codifferential_adjointness_factor():
    # <d a, b> = (k+1) <a, d* b> under the full-contraction pairing
    grid = Grid((10, 10, 10))
    g = bumpy_metric(grid, seed=13)
    for k, seeds in enumerate([(14, 15), (16, 17), (18, 19)]):
        a, b = random_form(grid, seeds[0], k), random_form(grid, seeds[1], k + 1)
        lhs = inner(g, exterior_derivative_values(grid, a, k), b, k + 1)
        rhs = (k + 1) * inner(g, a, codifferential_values(g, b, k + 1), k)
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_codifferential_squares_to_zero():
    grid = Grid((10, 10, 10))
    g = bumpy_metric(grid, seed=21)
    H = random_form(grid, 22, 3)
    dd = codifferential_values(g, codifferential_values(g, H, 3), 2)
    scale = np.max(np.abs(H))
    assert np.max(np.abs(dd)) < 1e-10 * scale


def test_hodge_laplacian_flat_acts_componentwise():
    grid = Grid((16, 16, 16))
    g = flat_metric(grid)
    x, _, _ = grid.coordinate_arrays()
    vals = np.zeros((3,) + grid.shape)
    vals[2] = np.sin(x)  # the pair (1, 2)
    lap = hodge_laplacian_values(g, vals, 2)
    k1 = stencil_wavenumber(1, 16)
    assert np.max(np.abs(lap[2] + k1 * k1 * np.sin(x))) < 1e-12
    assert np.max(np.abs(lap[0])) < 1e-12


def test_hodge_laplacian_self_adjoint_nonpositive():
    grid = Grid((10, 10, 10))
    g = bumpy_metric(grid, seed=23)
    for rank in (1, 2):
        a = random_form(grid, 24 + rank, rank)
        b = random_form(grid, 34 + rank, rank)
        lap_a = hodge_laplacian_values(g, a, rank)
        lap_b = hodge_laplacian_values(g, b, rank)
        lhs = inner(g, lap_a, b, rank)
        rhs = inner(g, a, lap_b, rank)
        assert abs(lhs - rhs) < 1e-8 * max(abs(lhs), 1.0)
        quad = inner(g, lap_a, a, rank)
        assert quad <= 1e-10


def test_interior_product_convention():
    grid = Grid((8, 8, 8))
    xv = np.zeros((3,) + grid.shape)
    xv[0] = 2.0
    bv = np.zeros((3,) + grid.shape)
    bv[0] = 3.0  # b_01 = -b_10 = 3
    out = interior_product_values(xv, bv, 2)
    assert out[1] == pytest.approx(6.0)
    assert np.max(np.abs(out[0])) == 0.0


def test_h_squared_constant_three_form():
    # H = c eps: (H^2)_ij = 2 c^2 delta_ij and |H|^2 = 6 c^2 on flat g
    grid = Grid((8, 8, 8))
    g = flat_metric(grid)
    c = 1.3
    H = np.full((1,) + grid.shape, c)
    h2 = h_squared_values(g, H)
    for p in (0, 3, 5):  # the diagonal pairs
        assert h2[p] == pytest.approx(2.0 * c * c)
    assert np.max(np.abs(h2[1])) < 1e-14
    nrm = form_norm_sq_values(g, H)
    assert nrm == pytest.approx(6.0 * c * c)


def test_trace_of_h_squared_equals_norm():
    grid = Grid((10, 10, 10))
    g = bumpy_metric(grid, seed=41)
    H = random_form(grid, 42, 3)
    tr = np.einsum("...ij,...ij->...", full_symmetric(g.inv_components),
                   full_symmetric(h_squared_values(g, H)))
    nrm = form_norm_sq_values(g, H)
    assert np.max(np.abs(tr - nrm)) < 1e-10 * max(1.0, np.max(np.abs(nrm)))


def test_lie_derivative_flat_symmetrized_gradient():
    grid = Grid((16, 16, 16))
    g = flat_metric(grid)
    x, y, _ = grid.coordinate_arrays()
    xv = np.zeros((3,) + grid.shape)
    xv[0] = np.sin(y) + np.zeros(grid.shape)
    xv[1] = np.cos(x) + np.zeros(grid.shape)
    lie = lie_derivative_metric_values(g, xv)
    dxl = gradient_values(grid, xv)  # [i, j] = D_i X_j
    expected = np.moveaxis(dxl + np.swapaxes(dxl, 0, 1), (0, 1), (-2, -1))
    assert np.max(np.abs(full_symmetric(lie) - expected)) < 1e-12


def test_deturck_vector_vanishes_on_matching_reference():
    grid = Grid((12, 12, 12))
    g = bumpy_metric(grid, seed=61)
    out = deturck_vector_values(g, g)
    assert np.max(np.abs(out)) == 0.0


def test_deturck_vector_linearization():
    # X^k = div(h)_k - grad(tr h)_k / 2 + O(h^2) around the flat metric
    grid = Grid((16, 16, 16))
    gf = flat_metric(grid)
    rng = np.random.default_rng(62)
    x, y, z = grid.coordinate_arrays()
    vals = np.zeros(grid.shape + (3, 3))
    c = rng.uniform(-1.0, 1.0, size=(3, 3))
    c = 0.5 * (c + c.T)
    wave = np.sin(x + y) + np.cos(z)
    vals += c * wave[..., None, None]
    eps = 1e-5
    g = MetricField(grid, gf.values + eps * packed(vals, 3, 2, symmetric=True))
    X = np.moveaxis(deturck_vector_values(g, gf), 0, -1)
    dh = np.stack([diff_values(vals, a, grid.spacings[a]) for a in range(3)],
                  axis=3)
    div_h = np.einsum("...aaj->...j", dh)
    tr_h = np.einsum("...aa->...", vals)
    d_tr = np.moveaxis(gradient_values(grid, tr_h), 0, -1)
    expected = eps * (div_h - 0.5 * d_tr)
    assert np.max(np.abs(X - expected)) < 20.0 * eps * eps
