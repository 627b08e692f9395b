import dataclasses

import numpy as np
import pytest

from grflab import (
    Grid,
    ScalarField,
    TensorField,
    flat_metric,
    integrate,
    partial_derivative,
    shift,
    weighted_inner,
)
from grflab.errors import FieldError
from grflab.lattice import diff_values, gradient_values

from oracles import stencil_wavenumber


def test_grid_validation():
    with pytest.raises(FieldError):
        Grid((7, 8, 8))          # odd
    with pytest.raises(FieldError):
        Grid((8, 8, 6))          # below the minimum
    with pytest.raises(FieldError):
        Grid((8,))               # too few axes
    with pytest.raises(FieldError):
        Grid((8, 8), periods=(2.0,))
    with pytest.raises(FieldError):
        Grid((8, 8), periods=(2.0, -1.0))


def test_grid_geometry_accessors():
    grid = Grid((8, 16), periods=(2.0, 4.0))
    assert grid.spacings == (0.25, 0.25)
    assert grid.cell_volume == pytest.approx(0.0625)
    assert grid.point_count == 128
    x0 = grid.axis_coordinates(0)
    assert x0[0] == 0.0 and x0[-1] == pytest.approx(2.0 - 0.25)


def test_stencil_matches_exact_symbol():
    # the stencil is a fixed linear filter, so on a single Fourier mode its
    # action is exactly multiplication by the modified wavenumber
    grid = Grid((16, 16, 16))
    x, _, _ = grid.coordinate_arrays()
    for k in (1, 2, 3):
        u = np.sin(k * x) + np.zeros(grid.shape)
        du = diff_values(u, 0, grid.spacings[0])
        expected = stencil_wavenumber(k, 16) * (np.cos(k * x) + np.zeros(grid.shape))
        assert np.max(np.abs(du - expected)) < 1e-13


def test_stencil_fourth_order_convergence():
    errs = []
    for n in (16, 32):
        grid = Grid((n, n, n))
        x, _, _ = grid.coordinate_arrays()
        u = np.sin(x) + np.zeros(grid.shape)
        du = diff_values(u, 0, grid.spacings[0])
        errs.append(np.max(np.abs(du - (np.cos(x) + np.zeros(grid.shape)))))
    ratio = errs[0] / errs[1]
    assert 13.0 < ratio < 19.0


def test_stencil_skew_adjoint():
    grid = Grid((12, 12, 12))
    rng = np.random.default_rng(3)
    u = rng.standard_normal(grid.shape)
    v = rng.standard_normal(grid.shape)
    du = diff_values(u, 1, grid.spacings[1])
    dv = diff_values(v, 1, grid.spacings[1])
    lhs = np.sum(du * v)
    rhs = -np.sum(u * dv)
    assert abs(lhs - rhs) < 1e-10 * max(abs(lhs), 1.0)


def test_integral_of_derivative_vanishes():
    grid = Grid((12, 12, 12))
    rng = np.random.default_rng(4)
    u = ScalarField(grid, rng.standard_normal(grid.shape))
    for a in range(3):
        assert abs(integrate(partial_derivative(u, a))) < 1e-12


def test_integrate_trig_exactly():
    grid = Grid((8, 8, 8))
    x, y, _ = grid.coordinate_arrays()
    u = ScalarField(grid, 2.0 + np.sin(x) * np.cos(2 * y) + np.zeros(grid.shape))
    vol = (2.0 * np.pi) ** 3
    assert integrate(u) == pytest.approx(2.0 * vol, rel=1e-14)


def test_shift_commutes_with_derivative():
    grid = Grid((12, 12, 12))
    rng = np.random.default_rng(5)
    u = ScalarField(grid, rng.standard_normal(grid.shape))
    a = partial_derivative(shift(u, 0, 3), 0)
    b = shift(partial_derivative(u, 0), 0, 3)
    assert np.array_equal(a.values, b.values)


def test_tensor_field_validation():
    grid = Grid((8, 8, 8))
    bad = np.zeros(grid.shape + (3, 3))
    bad[..., 0, 1] = 1.0   # not symmetric
    with pytest.raises(FieldError):
        TensorField(grid, bad, "symmetric2")
    with pytest.raises(FieldError):
        TensorField(grid, bad, "antisymmetric")  # missing the -1 on (1,0)
    with pytest.raises(FieldError):
        TensorField(grid, np.zeros(grid.shape + (3,)), "symmetric2")
    with pytest.raises(FieldError):
        TensorField(grid, np.full(grid.shape + (3,), np.nan), "vector")
    ok = bad - np.swapaxes(bad, -1, -2)
    TensorField(grid, ok, "antisymmetric")


def test_partial_derivative_keeps_symmetry():
    grid = Grid((8, 8, 8))
    x, _, _ = grid.coordinate_arrays()
    vals = np.zeros(grid.shape + (3, 3))
    vals[..., 0, 1] = np.sin(x)
    vals[..., 1, 0] = np.sin(x)
    fld = TensorField(grid, vals, "symmetric2")
    out = partial_derivative(fld, 0)
    assert out.symmetry == "symmetric2"


def test_weighted_inner_full_contraction_two_form():
    # constant 2-form b_{01} = -b_{10} = c: full contraction counts both
    # orderings, so <b,b> integrates to 2 c^2 vol
    grid = Grid((8, 8, 8))
    g = flat_metric(grid)
    c = 0.7
    vals = np.zeros(grid.shape + (3, 3))
    vals[..., 0, 1] = c
    vals[..., 1, 0] = -c
    b = TensorField(grid, vals, "antisymmetric")
    vol = (2.0 * np.pi) ** 3
    assert weighted_inner(b, b, g) == pytest.approx(2.0 * c * c * vol, rel=1e-13)


def test_weighted_inner_three_form_counts_six():
    grid = Grid((8, 8, 8))
    g = flat_metric(grid)
    eps = np.zeros((3, 3, 3))
    for perm, sign in (((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                       ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1)):
        eps[perm] = sign
    H = TensorField(grid, np.broadcast_to(eps, grid.shape + (3, 3, 3)).copy(),
                    "antisymmetric")
    vol = (2.0 * np.pi) ** 3
    assert weighted_inner(H, H, g) == pytest.approx(6.0 * vol, rel=1e-13)


def test_weighted_inner_vector_uses_metric():
    grid = Grid((8, 8, 8))
    g = flat_metric(grid, diagonal=(4.0, 1.0, 1.0))
    vals = np.zeros(grid.shape + (3,))
    vals[..., 0] = 1.0
    x = TensorField(grid, vals, "vector")
    vol = (2.0 * np.pi) ** 3
    # <x,x>_g = g_00 = 4, density sqrt(det) = 2
    assert weighted_inner(x, x, g) == pytest.approx(8.0 * vol, rel=1e-13)


def test_weighted_inner_rejects_mixed_variance():
    grid = Grid((8, 8, 8))
    g = flat_metric(grid)
    vals = np.zeros(grid.shape + (3,))
    vals[..., 0] = 1.0
    x = TensorField(grid, vals, "vector")
    a = TensorField(grid, vals, "covector")
    with pytest.raises(FieldError):
        weighted_inner(x, a, g)


def test_gradient_values_layout():
    grid = Grid((8, 8, 8))
    x, y, _ = grid.coordinate_arrays()
    u = np.sin(x) + np.cos(y) + np.zeros(grid.shape)
    du = gradient_values(grid, u)
    assert du.shape == grid.shape + (3,)
    k1 = stencil_wavenumber(1, 8)
    assert np.max(np.abs(du[..., 0] - k1 * (np.cos(x) + np.zeros(grid.shape)))) < 1e-13
    assert np.max(np.abs(du[..., 2])) < 1e-13


def test_grid_spacings_are_computed_once_and_not_a_field():
    grid = Grid((8, 10), periods=(1.5, 2.0))
    assert grid.spacings == (1.5 / 8, 2.0 / 10)
    assert grid.spacings is grid.spacings
    assert [f.name for f in dataclasses.fields(Grid)] == ["resolutions", "periods"]
    twin = Grid((8, 10), periods=(1.5, 2.0))
    assert twin == grid and hash(twin) == hash(grid)
    assert Grid((8, 10)) != grid
