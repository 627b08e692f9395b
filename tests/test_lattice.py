import dataclasses

import numpy as np
import pytest

from grflab import (
    Grid,
    ScalarField,
    TensorField,
    flat_metric,
    weighted_inner,
)
from grflab.errors import FieldError
from grflab.lattice import diff_values, gradient_values

from oracles import diagonal_metric, full_symmetric, stencil_wavenumber


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
    for bad in (12.5, 12.0, float("nan")):
        with pytest.raises(FieldError, match="integers"):
            Grid((bad, 12, 12))  # not an integer, not truncated
    assert Grid((np.int64(12), 12, 12)).resolutions == (12, 12, 12)


def test_grid_geometry_accessors():
    grid = Grid((8, 16), periods=(2.0, 4.0))
    assert grid.spacings == (0.25, 0.25)
    assert grid.cell_volume == pytest.approx(0.0625)
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
    u = rng.standard_normal(grid.shape)
    for a in range(3):
        du = diff_values(u, a, grid.spacings[a])
        assert abs(float(np.sum(du)) * grid.cell_volume) < 1e-12


def test_integrate_trig_exactly():
    grid = Grid((8, 8, 8))
    x, y, _ = grid.coordinate_arrays()
    u = 2.0 + np.sin(x) * np.cos(2 * y) + np.zeros(grid.shape)
    vol = (2.0 * np.pi) ** 3
    total = float(np.sum(u)) * grid.cell_volume
    assert total == pytest.approx(2.0 * vol, rel=1e-14)


def test_shift_commutes_with_derivative():
    grid = Grid((12, 12, 12))
    rng = np.random.default_rng(5)
    u = rng.standard_normal(grid.shape)
    a = diff_values(np.roll(u, 3, 0), 0, grid.spacings[0])
    b = np.roll(diff_values(u, 0, grid.spacings[0]), 3, 0)
    assert np.array_equal(a, b)


def test_tensor_field_validation():
    grid = Grid((8, 8, 8))
    with pytest.raises(FieldError):
        TensorField(grid, np.zeros(grid.shape + (3, 3)), "symmetric2")  # full
    with pytest.raises(FieldError):
        TensorField(grid, np.zeros((3,) + grid.shape), "symmetric2")
    with pytest.raises(FieldError):
        TensorField(grid, np.full((3,) + grid.shape, np.nan), "vector")
    with pytest.raises(FieldError):
        TensorField(grid, np.zeros((3,) + grid.shape), "general")
    TensorField(grid, np.zeros((6,) + grid.shape), "symmetric2")


@pytest.mark.parametrize("dims, count, symmetry", [
    (2, 2, "antisymmetric"), (3, 2, "antisymmetric"), (3, 6, "antisymmetric"),
    (4, 3, "antisymmetric"), (4, 5, "antisymmetric"), (3, 4, "vector"),
    (2, 2, "symmetric2")])
def test_tensor_field_refuses_a_count_of_no_degree(dims, count, symmetry):
    grid = Grid((8,) * dims)
    with pytest.raises(FieldError, match="components"):
        TensorField(grid, np.zeros((count,) + grid.shape), symmetry)


@pytest.mark.parametrize("dims, degrees", [(2, {2: 1, 3: 0}),
                                           (3, {2: 3, 3: 1, 4: 0}),
                                           (4, {2: 6, 3: 4, 4: 1, 5: 0})])
def test_form_degree_is_read_off_the_component_count(dims, degrees):
    grid = Grid((8,) * dims)
    for k, count in degrees.items():
        form = TensorField(grid, np.zeros((count,) + grid.shape),
                           "antisymmetric")
        assert form.values.shape == (count,) + grid.shape and form.rank == k


def test_partial_derivative_keeps_symmetry():
    # a stencil derivative along a grid axis acts on each packed component,
    # so the derivative of the full tensor is the full tensor of it
    grid = Grid((8, 8, 8))
    x, _, _ = grid.coordinate_arrays()
    vals = np.zeros((6,) + grid.shape)
    vals[1] = np.sin(x)  # the pair (0, 1)
    out = diff_values(vals, 1, grid.spacings[0])
    assert np.array_equal(full_symmetric(out),
                          diff_values(full_symmetric(vals), 0, grid.spacings[0]))
    TensorField(grid, out, "symmetric2")


def test_weighted_inner_full_contraction_two_form():
    # constant 2-form b_{01} = -b_{10} = c: full contraction counts both
    # orderings, so <b,b> integrates to 2 c^2 vol
    grid = Grid((8, 8, 8))
    g = flat_metric(grid)
    c = 0.7
    vals = np.zeros((3,) + grid.shape)
    vals[0] = c
    b = TensorField(grid, vals, "antisymmetric")
    vol = (2.0 * np.pi) ** 3
    assert weighted_inner(b, b, g) == pytest.approx(2.0 * c * c * vol, rel=1e-13)


def test_weighted_inner_three_form_counts_six():
    grid = Grid((8, 8, 8))
    g = flat_metric(grid)
    H = TensorField(grid, np.ones((1,) + grid.shape), "antisymmetric")
    vol = (2.0 * np.pi) ** 3
    assert weighted_inner(H, H, g) == pytest.approx(6.0 * vol, rel=1e-13)


def test_weighted_inner_vector_uses_metric():
    grid = Grid((8, 8, 8))
    g = diagonal_metric(grid, (4.0, 1.0, 1.0))
    vals = np.zeros((3,) + grid.shape)
    vals[0] = 1.0
    x = TensorField(grid, vals, "vector")
    vol = (2.0 * np.pi) ** 3
    # <x,x>_g = g_00 = 4, density sqrt(det) = 2
    assert weighted_inner(x, x, g) == pytest.approx(8.0 * vol, rel=1e-13)


def test_weighted_inner_rejects_mixed_variance():
    # in 3D a vector and a 2-form both hold three components
    grid = Grid((8, 8, 8))
    g = flat_metric(grid)
    vals = np.zeros((3,) + grid.shape)
    vals[0] = 1.0
    x = TensorField(grid, vals, "vector")
    a = TensorField(grid, vals, "antisymmetric")
    for first, second, match in (
            (x, a, "^b must be a vector field, not a 2-form"),
            (a, x, "^b must be a 2-form, not a vector field")):
        with pytest.raises(FieldError, match=match):
            weighted_inner(first, second, g)


def test_weighted_inner_rejects_fields_on_different_grids():
    # the same shape on other periods: cell volume and density disagree
    grid, other = Grid((8, 8, 8)), Grid((8, 8, 8), periods=(1.0,) * 3)
    vals = np.zeros((3,) + grid.shape)
    vals[0] = 0.3
    b = TensorField(grid, vals, "antisymmetric")
    g = flat_metric(grid)
    ones = np.ones(grid.shape)
    cases = [(TensorField(other, vals, "antisymmetric"), g, None),
             (b, flat_metric(other), None),
             (b, g, ScalarField(other, ones))]
    for second, metric, weight in cases:
        with pytest.raises(FieldError, match="fields live on different grids"):
            weighted_inner(b, second, metric, weight)
    # an equal grid that is another object pairs as the same one
    same = Grid((8, 8, 8))
    expected = weighted_inner(b, b, g, ScalarField(grid, ones))
    assert weighted_inner(b, TensorField(same, vals, "antisymmetric"),
                          flat_metric(same), ScalarField(same, ones)) == expected


def test_gradient_values_layout():
    grid = Grid((8, 8, 8))
    x, y, _ = grid.coordinate_arrays()
    u = np.sin(x) + np.cos(y) + np.zeros(grid.shape)
    du = gradient_values(grid, u)
    assert du.shape == (3,) + grid.shape
    k1 = stencil_wavenumber(1, 8)
    assert np.max(np.abs(du[0] - k1 * (np.cos(x) + np.zeros(grid.shape)))) < 1e-13
    assert np.max(np.abs(du[2])) < 1e-13
    # leading component axes stay in front of the derivative's grid axes
    stack = np.stack([u, 2.0 * u])
    assert np.array_equal(gradient_values(grid, stack)[:, 1], 2.0 * du)


def test_grid_spacings_are_computed_once_and_not_a_field():
    grid = Grid((8, 10), periods=(1.5, 2.0))
    assert grid.spacings == (1.5 / 8, 2.0 / 10)
    assert grid.spacings is grid.spacings
    assert [f.name for f in dataclasses.fields(Grid)] == ["resolutions", "periods"]
    twin = Grid((8, 10), periods=(1.5, 2.0))
    assert twin == grid and hash(twin) == hash(grid)
    assert Grid((8, 10)) != grid
