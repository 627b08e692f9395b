"""The hot-path kernels against the reference formulas they replace."""

import numpy as np
import pytest

from grflab import Grid, MetricField, flat_metric
from grflab.geometry import ricci_values
from grflab.lattice import diff_values

from oracles import ricci_full_stack, roll_derivative


def _spd_field(grid, rng, diagonal, amplitude):
    n = grid.n_dims
    noise = rng.uniform(-amplitude, amplitude, grid.shape + (n, n))
    return np.diag(diagonal) + 0.5 * (noise + np.swapaxes(noise, -1, -2))


@pytest.mark.parametrize("dims", [2, 3, 4])
@pytest.mark.parametrize("rank", [0, 2, 3])
def test_diff_values_is_the_roll_formula_bit_for_bit(dims, rank):
    grid = Grid((8,) * (dims - 1) + (10,), periods=(1.5,) * dims)
    rng = np.random.default_rng(10 * dims + rank)
    values = rng.standard_normal(grid.shape + (dims,) * rank)
    # a transposed view and a strided slice exercise non-contiguous input
    views = [values, np.swapaxes(values, 0, 1)]
    if rank:
        views.append(values[..., 0, :])
    for arr in views:
        for axis in range(dims):
            out = diff_values(arr, axis, grid.spacings[axis])
            assert np.array_equal(out, roll_derivative(arr, axis,
                                                       grid.spacings[axis]))
            assert out.flags.c_contiguous


@pytest.mark.parametrize("dims", [2, 3, 4])
def test_metric_inverse_and_determinant_match_lapack(dims):
    grid = Grid((8,) * dims)
    rng = np.random.default_rng(dims)
    diagonal = np.linspace(0.6, 2.5, dims)
    g = MetricField(grid, _spd_field(grid, rng, diagonal, 0.1))
    inv = np.linalg.inv(g.values)
    sqrt_det = np.sqrt(np.linalg.det(g.values))
    assert np.max(np.abs(g.inv_values - inv)) <= 1e-13 * np.max(np.abs(inv))
    assert np.max(np.abs(g.sqrt_det_values / sqrt_det - 1.0)) <= 1e-13


@pytest.mark.parametrize("dims", [2, 3, 4])
def test_metric_inverse_is_exact_on_diagonal_metrics(dims):
    grid = Grid((8,) * dims)
    diagonal = np.array([0.7, 3.0, 1.3, 0.9][:dims])
    g = flat_metric(grid, diagonal)
    expected = np.zeros((dims, dims))
    expected[range(dims), range(dims)] = 1.0 / diagonal
    assert np.array_equal(g.inv_values, np.broadcast_to(expected,
                                                        g.values.shape))
    assert np.all(g.sqrt_det_values == np.sqrt(np.prod(diagonal)))


def test_trace_only_ricci_matches_the_full_stack():
    grid = Grid((12, 12, 12))
    rng = np.random.default_rng(7)
    x, y, z = grid.coordinate_arrays()
    values = np.zeros(grid.shape + (3, 3))
    values[...] = np.diag([1.0, 1.4, 0.8])
    smooth = [np.sin(x) * np.cos(y), np.cos(2 * z) + 0 * x, np.sin(y + z) + 0 * x]
    for (i, j), coeff in zip([(0, 0), (0, 1), (1, 2), (2, 2)],
                             rng.uniform(-0.1, 0.1, 4)):
        for part in smooth:
            values[..., i, j] += coeff * part
            values[..., j, i] = values[..., i, j]
    g = MetricField(grid, values)
    ref = ricci_full_stack(g.values, g.inv_values, grid.spacings)
    assert np.max(np.abs(ref)) > 1e-2
    assert np.max(np.abs(ricci_values(g) - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("dims", [2, 3, 4])
def test_trace_only_ricci_is_exactly_zero_on_flat_metrics(dims):
    g = flat_metric(Grid((8,) * dims), np.linspace(0.5, 2.0, dims))
    assert np.all(ricci_values(g) == 0.0)
