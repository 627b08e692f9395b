import math
import warnings

import numpy as np
import pytest

from grflab import Grid, MetricField, ScalarField, TensorField, flat_metric, pullback
from grflab.diffeo import (_interpolate, _prefilter_matrix, diffeo_flow,
                           displacement_jacobian)
from grflab.errors import FieldError, JacobianError
from grflab.experiments import gauge_consistency_run
from grflab.spectrum import _real_fourier_basis
from oracles import (displacement_jacobian_full, full_form, full_symmetric,
                     interpolate_grid_wrap, packed, pullback_full)

# unequal resolutions and periods on every axis
GRIDS = {
    "2d": Grid((10, 14), (2.0 * np.pi, 3.0)),
    "3d": Grid((8, 12, 10), (2.0 * np.pi, 5.0, 4.0)),
    "4d": Grid((8, 10, 8, 8), (2.0 * np.pi, 3.0, 7.0, 4.5)),
}


@pytest.fixture
def grid():
    return Grid((12, 12, 12))


def constant_vector(grid, c):
    vals = np.asarray(c, dtype=float).reshape((3, 1, 1, 1))
    return TensorField(grid, vals + np.zeros((3,) + grid.shape), "vector")


def trig_scalar(grid, offset=(0.0, 0.0, 0.0)):
    x, y, z = grid.coordinate_arrays()
    return np.sin(x - offset[0]) * np.cos(y - offset[1]) + np.cos(z - offset[2])


def test_empty_series_gives_identity(grid):
    disp = diffeo_flow([], grid)
    assert disp.symmetry == "vector"
    assert np.all(disp.values == 0.0)


def test_identity_pullback_is_exact(grid):
    disp = constant_vector(grid, (0.0, 0.0, 0.0))
    f = ScalarField(grid, trig_scalar(grid))
    out = pullback(disp, f)
    assert np.max(np.abs(out.values - f.values)) < 1e-12
    g = flat_metric(grid)
    g_out = pullback(disp, g)
    assert isinstance(g_out, MetricField)
    assert np.max(np.abs(g_out.values - g.values)) < 1e-12


def test_constant_field_integrates_to_translation(grid):
    c = np.array([0.3, -0.1, 0.2])
    x = constant_vector(grid, c)
    series = [(0.1 * k, 0.1, [x, x, x, x]) for k in range(3)]
    disp = diffeo_flow(series, grid)
    # d(psi)/dt = -c integrates exactly under Runge-Kutta
    expected = -0.3 * c
    assert np.max(np.abs(np.moveaxis(disp.values, 0, -1) - expected)) < 1e-14

    f = ScalarField(grid, trig_scalar(grid))
    moved = pullback(disp, f)
    exact = trig_scalar(grid, offset=0.3 * c)
    # cubic spline interpolation error at this resolution
    assert np.max(np.abs(moved.values - exact)) < 1e-3


def test_time_dependent_series_keeps_integrator_order(grid):
    # X(t) = cos(t) e_x is constant in space, so the map equation reduces to
    # du/dt = -cos(t) and the exact endpoint is u = -sin(t)
    dt, n_steps = 0.1, 5

    def x_at(t):
        return constant_vector(grid, (np.cos(t), 0.0, 0.0))

    series = []
    for k in range(n_steps):
        t = k * dt
        stages = [x_at(t), x_at(t + 0.5 * dt), x_at(t + 0.5 * dt), x_at(t + dt)]
        series.append((t, dt, stages))
    disp = diffeo_flow(series, grid)
    expected = -np.sin(n_steps * dt)
    assert np.max(np.abs(disp.values[0] - expected)) < 1e-6
    assert np.max(np.abs(disp.values[1:])) < 1e-15


def test_jacobian_guard_trips_on_folding(grid):
    x1 = grid.coordinate_arrays()[0]
    u = np.zeros((3,) + grid.shape)
    u[0] = -0.95 * np.sin(x1) * np.ones(grid.shape)
    disp = TensorField(grid, u, "vector")
    f = ScalarField(grid, trig_scalar(grid))
    with pytest.raises(JacobianError):
        pullback(disp, f)
    # the same shape at moderate amplitude passes
    mild = TensorField(grid, 0.5 * u, "vector")
    pullback(mild, f)


def test_jacobian_of_translation_is_identity(grid):
    u = constant_vector(grid, (0.4, 0.1, -0.2)).values
    jac = np.moveaxis(displacement_jacobian(grid, u), (0, 1), (-2, -1))
    assert np.max(np.abs(jac - np.eye(3))) < 1e-15


def test_pullback_rejects_contravariant_and_untged_input(grid):
    f = ScalarField(grid, trig_scalar(grid))
    vec = constant_vector(grid, (0.1, 0.0, 0.0))
    with pytest.raises(FieldError):
        pullback(vec, vec)   # vectors push forward, not back
    # a 2-form holds three components in 3D, as a vector does; a metric, a
    # scalar and a bare array are no displacement either
    two_form = TensorField(grid, np.zeros((3,) + grid.shape), "antisymmetric")
    for disp in (two_form, flat_metric(grid), f, np.zeros((3,) + grid.shape)):
        with pytest.raises(FieldError, match="vector field"):
            pullback(disp, f)


def test_diffeo_flow_rejects_stages_that_are_not_vectors_on_its_grid(grid):
    other = Grid((12, 12, 12), periods=(1.0, 1.0, 1.0))
    x = constant_vector(grid, (0.1, 0.0, 0.0))
    # the same shape on other periods, and a 2-form, whose three components
    # in 3D have a vector's shape
    elsewhere = constant_vector(other, (0.1, 0.0, 0.0))
    two_form = TensorField(grid, x.values, "antisymmetric")
    for stage, match in ((elsewhere, "different grids"),
                         (two_form, "^gauge stage must be a vector field")):
        series = [(0.0, 0.1, [x, x, stage, x])]
        with pytest.raises(FieldError, match=match):
            diffeo_flow(series, grid)


def test_diffeo_flow_stops_at_a_non_finite_step_without_a_warning(grid):
    x = TensorField(grid, wobbly_displacement(grid), "vector")
    series = [(0.0, 0.1, [x] * 4), (0.1, float("nan"), [x] * 4)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(JacobianError, match="not finite"):
            diffeo_flow(series, grid)


def test_pullback_rejects_a_field_on_another_grid(grid):
    # the same shape on other periods
    other = Grid((12, 12, 12), periods=(1.0, 1.0, 1.0))
    disp = constant_vector(grid, (0.1, 0.0, 0.0))
    for fld in (ScalarField(other, trig_scalar(other)), flat_metric(other),
                TensorField(other, np.zeros((3,) + other.shape),
                            "antisymmetric")):
        with pytest.raises(FieldError, match="different grids"):
            pullback(disp, fld)


def test_two_form_pullback_matches_chain_rule(grid):
    # along a translation the Jacobian is the identity, so covariant
    # components just get resampled at the shifted points
    c = np.array([0.25, 0.0, 0.0])
    disp = constant_vector(grid, -c)
    x, y, z = grid.coordinate_arrays()
    b = np.zeros((3,) + grid.shape)
    b[0] = np.cos(x) * np.ones(grid.shape)  # the pair (0, 1)
    out = pullback(disp, TensorField(grid, b, "antisymmetric"))
    expected = np.cos(x - c[0]) * np.ones(grid.shape)
    assert np.max(np.abs(out.values[0] - expected)) < 1e-3
    assert np.max(np.abs(out.values[1:])) < 1e-12


def wobbly_displacement(grid, cells=2.3):
    """A translation by more than one cell, backwards on odd axes so that
    points leave the grid on both sides, plus a smooth shear."""
    n = grid.n_dims
    x = grid.coordinate_arrays()
    u = np.zeros((n,) + grid.shape)
    for a in range(n):
        b = (a + 1) % n
        wave = np.sin(2.0 * np.pi * x[b] / grid.periods[b] + a)
        u[a] = ((-1) ** a * cells * grid.spacings[a]
                + 0.05 * grid.periods[a] * wave)
    return u


@pytest.mark.parametrize("dims", sorted(GRIDS))
def test_interpolation_matches_the_grid_wrap_oracle(dims):
    grid = GRIDS[dims]
    n = grid.n_dims
    rng = np.random.default_rng(11)
    stack = rng.standard_normal((3,) + grid.shape)
    sizes = np.array(grid.resolutions, dtype=float)[:, None]
    # points up to two and a half grids out on either side
    coords = rng.uniform(-2.5, 2.5, (n, 300)) * sizes
    coords[:, 1] = sizes[:, 0]          # the far edge, one period out
    coords[:, 2] = -3.0                 # a node three cells back
    coords[:, 0] = -1e-17               # np.mod rounds this up to N exactly
    assert np.all(np.mod(coords[:, 0], sizes[:, 0]) == sizes[:, 0])
    out = _interpolate(stack, coords)
    for c in range(len(stack)):
        expected = interpolate_grid_wrap(stack[c], coords)
        peak = np.max(np.abs(stack[c]))
        assert np.max(np.abs(out[c] - expected)) <= 1e-13 * peak


@pytest.mark.parametrize("m", [8, 10, 12, 14])
def test_prefilter_inverts_the_circulant_diagonally_in_the_fourier_basis(m):
    inverse = _prefilter_matrix(m)
    assert not inverse.flags.writeable
    circulant = (4.0 * np.eye(m) + np.roll(np.eye(m), 1, axis=0)
                 + np.roll(np.eye(m), -1, axis=0)) / 6.0
    assert np.max(np.abs(circulant @ inverse - np.eye(m))) <= 1e-15
    rows, k = _real_fourier_basis(m)
    eigenvalues = 6.0 / (4.0 + 2.0 * np.cos(2.0 * np.pi * k / m))
    assert np.max(np.abs(rows @ inverse @ rows.T - np.diag(eigenvalues))) <= 1e-14


@pytest.mark.parametrize("dims", sorted(GRIDS))
def test_interpolation_at_the_nodes_returns_the_data(dims):
    grid = GRIDS[dims]
    n = grid.n_dims
    stack = np.random.default_rng(13).standard_normal((3,) + grid.shape)
    nodes = np.stack(np.meshgrid(*[np.arange(m, dtype=float)
                                   for m in grid.resolutions], indexing="ij"))
    # the nodes themselves, and the nodes one period back on every axis
    period = np.array(grid.resolutions, dtype=float).reshape((n,) + (1,) * n)
    peak = np.max(np.abs(stack))
    for coords in (nodes, nodes - period):
        assert np.max(np.abs(_interpolate(stack, coords) - stack)) <= 4e-15 * peak


def test_interpolation_of_a_band_limited_field_converges_at_order_four():
    periods = (2.0 * np.pi, 3.0)
    kx, ky = (2.0 * np.pi / p for p in periods)

    def field(x, y):
        return np.sin(kx * x + 0.3) * np.cos(ky * y) + 0.5 * np.cos(2.0 * kx * x - ky * y)

    points = (np.random.default_rng(3).uniform(0.0, 1.0, (2, 200))
              * np.array(periods)[:, None])
    errors = []
    for m in (16, 32, 64):
        grid = Grid((m, m), periods)
        coords = points / np.array(grid.spacings)[:, None]
        values = field(*grid.coordinate_arrays())[None]
        errors.append(np.max(np.abs(_interpolate(values, coords)[0]
                                    - field(*points))))
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all((3.5 <= orders) & (orders <= 4.5)), orders


@pytest.mark.parametrize("dims", sorted(GRIDS))
def test_jacobian_is_the_per_component_stencil_bit_for_bit(dims):
    grid = GRIDS[dims]
    u = wobbly_displacement(grid)
    assert np.array_equal(
        np.moveaxis(displacement_jacobian(grid, u), (0, 1), (-2, -1)),
        displacement_jacobian_full(np.moveaxis(u, 0, -1), grid.spacings))


def _covariant_fields(grid, rng, max_degree):
    """(field, degree) pairs of every covariant kind pullback accepts,
    k-forms of degree 2 .. max_degree; a scalar's degree is 0 and a
    symmetric 2-tensor's None."""
    n = grid.n_dims
    raw = rng.standard_normal(grid.shape + (n, n))
    sym = packed(raw + np.swapaxes(raw, -1, -2), n, 2, symmetric=True)
    fields = [
        (ScalarField(grid, raw[..., 0, 0]), 0),
        (TensorField(grid, sym, "symmetric2"), None),
        (MetricField(grid, np.eye(n)[np.triu_indices(n)].reshape(
            (-1,) + (1,) * n) + 0.02 * sym), None),
    ]
    for k in range(2, max_degree + 1):
        comps = rng.standard_normal((math.comb(n, k),) + grid.shape)
        fields.append((TensorField(grid, comps, "antisymmetric"), k))
    return fields


def _full(fld, degree, n):
    """Full component-last storage of a field's values."""
    if degree == 0:
        return fld.values
    return (full_symmetric(fld.values) if degree is None
            else full_form(fld.values, n, degree))


@pytest.mark.parametrize("dims", sorted(GRIDS))
def test_pullback_matches_the_full_component_oracle(dims):
    grid = GRIDS[dims]
    n = grid.n_dims
    u = wobbly_displacement(grid)
    disp = TensorField(grid, u, "vector")
    # the oracle interpolates all n^k components: in 4D, 3- and 4-forms
    # would take seconds, and 2D and 3D cover the top degree
    max_degree = 2 if n == 4 else n
    fields = _covariant_fields(grid, np.random.default_rng(5), max_degree)
    for fld, degree in fields:
        expected = pullback_full(np.moveaxis(u, 0, -1), _full(fld, degree, n),
                                 grid.spacings, degree is None)
        if degree != 0:
            expected = packed(expected, n, degree, symmetric=degree is None)
        out = pullback(disp, fld)
        assert type(out) is type(fld)
        assert out.values.shape == expected.shape
        peak = np.max(np.abs(expected))
        assert np.max(np.abs(out.values - expected)) <= 1e-13 * peak


@pytest.mark.parametrize("dims", ["3d", "4d"])
def test_pulled_back_fields_are_exactly_symmetric(dims):
    # packed storage keeps one array per independent component, so a pulled
    # back tensor keeps its symmetry tag and its component count
    grid = GRIDS[dims]
    n = grid.n_dims
    disp = TensorField(grid, wobbly_displacement(grid), "vector")
    for fld, degree in _covariant_fields(grid, np.random.default_rng(9), n):
        if degree == 0:
            continue
        out = pullback(disp, fld)
        assert out.values.shape == fld.values.shape
        assert getattr(out, "symmetry", "symmetric2") == getattr(
            fld, "symmetry", "symmetric2")


def test_gauge_consistency_run_keeps_its_recorded_gaps():
    # recorded with per-component prefiltered interpolation and the
    # full-component pullback of tests/oracles.py, at cfl 0.1, which the
    # call passes so that the pins keep guarding those kernels
    recorded = {
        "displacement_sup": 0.005987561857832729,
        "metric_gap_sup": 0.00014070257170761824,
        "field_strength_gap_sup": 4.28221874235659e-05,
        "gap_sup": 0.00014070257170761824,
    }
    report = gauge_consistency_run(cfl=0.1)
    assert report["t_end"] == 0.1
    for key, value in recorded.items():
        assert report[key] == pytest.approx(value, rel=1e-10, abs=0.0), key


def test_form_of_degree_above_the_dimension_pulls_back_to_zero(grid):
    disp = TensorField(grid, wobbly_displacement(grid), "vector")
    zero = TensorField(grid, np.zeros((0,) + grid.shape), "antisymmetric")
    out = pullback(disp, zero)
    assert out.values.shape == zero.values.shape
    assert not np.any(out.values)
