"""The hot-path kernels against the reference formulas they replace."""

import itertools

import numpy as np
import pytest

from grflab import (
    Grid,
    MetricField,
    ScalarField,
    TensorField,
    codifferential,
    exterior_derivative,
    flat_metric,
    form_norm_sq,
    h_squared,
    interior_product,
    weighted_inner,
)
from grflab.errors import FieldError
from grflab.geometry import laplacian_values, ricci_values
from grflab.spectrum import SchrodingerOperator
from grflab.lattice import (
    diff_values,
    expand_form,
    form_components,
    increasing_tuples,
    pointwise_minors,
)

from oracles import (
    codifferential_full,
    complex_fft_preconditioner,
    fft_nyquist_projection,
    laplacian_einsum,
    exterior_derivative_full,
    form_inner_full,
    h_squared_full,
    interior_product_full,
    ricci_full_stack,
    roll_derivative,
)


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


# ---------------------------------------------------------------------------
# Form kernels on independent components against full-storage formulas
# ---------------------------------------------------------------------------

FORM_REL = 1e-13


def _form_grid(dims):
    return Grid((8,) * (dims - 1) + (10,))


def _bumpy_metric(grid, seed):
    """Smooth SPD metric whose every component varies over the grid."""
    n = grid.n_dims
    rng = np.random.default_rng(seed)
    coords = grid.coordinate_arrays()
    values = np.zeros(grid.shape + (n, n))
    values[...] = np.diag(np.linspace(0.7, 1.6, n))
    for i, j in itertools.combinations_with_replacement(range(n), 2):
        c = rng.uniform(-0.08, 0.08, n)
        phase = rng.uniform(0.0, 2.0 * np.pi, n)
        wave = sum(c[a] * np.cos(coords[a] + phase[a]) for a in range(n))
        values[..., i, j] += wave
        if i != j:
            values[..., j, i] += wave
    return MetricField(grid, values)


def _random_form(grid, seed, k):
    """Random k-form, antisymmetrized by an explicit sum over permutations."""
    n = grid.n_dims
    raw = np.random.default_rng(seed).standard_normal(grid.shape + (n,) * k)
    if k == 0:
        return ScalarField(grid, raw)
    if k == 1:
        return TensorField(grid, raw, "covector")
    axes = list(range(n, n + k))
    out = np.zeros_like(raw)
    for perm in itertools.permutations(range(k)):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        out += (-1) ** inversions * np.moveaxis(raw, axes,
                                                [axes[p] for p in perm])
    return TensorField(grid, out, "antisymmetric")


def _random_vector(grid, seed):
    n = grid.n_dims
    raw = np.random.default_rng(seed).standard_normal(grid.shape + (n,))
    return TensorField(grid, raw, "vector")


def _assert_close(out, ref):
    assert out.shape == ref.shape
    scale = np.max(np.abs(ref))
    assert scale > 0.0
    assert np.max(np.abs(out - ref)) <= FORM_REL * scale


def _assert_exactly_antisymmetric(values, n_grid):
    # adjacent transpositions generate every permutation of the slots
    for i in range(values.ndim - n_grid - 1):
        swapped = np.swapaxes(values, n_grid + i, n_grid + i + 1)
        assert np.array_equal(values, -swapped)


def _ranks(low, high_offset):
    return [(dims, k) for dims in (2, 3, 4)
            for k in range(low, dims + high_offset)]


@pytest.mark.parametrize("dims,k", _ranks(0, 0))
def test_exterior_derivative_matches_the_full_formula(dims, k):
    grid = _form_grid(dims)
    w = _random_form(grid, 100 + 10 * dims + k, k)
    out = exterior_derivative(w).values
    _assert_close(out, exterior_derivative_full(w.values, grid.spacings, k))
    _assert_exactly_antisymmetric(out, dims)


@pytest.mark.parametrize("dims,k", _ranks(1, 1))
def test_codifferential_matches_the_full_formula(dims, k):
    grid = _form_grid(dims)
    g = _bumpy_metric(grid, 200 + dims)
    w = _random_form(grid, 210 + 10 * dims + k, k)
    out = codifferential(g, w).values
    ref = codifferential_full(w.values, g.values, g.inv_values,
                              g.sqrt_det_values, grid.spacings, k)
    _assert_close(out, ref)
    _assert_exactly_antisymmetric(out, dims)


@pytest.mark.parametrize("dims", [3, 4])
def test_h_squared_matches_the_full_formula(dims):
    grid = _form_grid(dims)
    g = _bumpy_metric(grid, 300 + dims)
    H = _random_form(grid, 310 + dims, 3)
    out = h_squared(g, H).values
    _assert_close(out, h_squared_full(H.values, g.inv_values))
    assert np.array_equal(out, np.swapaxes(out, -1, -2))


@pytest.mark.parametrize("dims,k", _ranks(2, 1))
def test_form_inner_products_match_the_full_formula(dims, k):
    grid = _form_grid(dims)
    g = _bumpy_metric(grid, 400 + dims)
    a = _random_form(grid, 410 + 10 * dims + k, k)
    b = _random_form(grid, 420 + 10 * dims + k, k)
    _assert_close(form_norm_sq(g, a).values,
                  form_inner_full(a.values, a.values, g.inv_values, k))
    density = form_inner_full(a.values, b.values, g.inv_values, k)
    ref = float(np.sum(density * g.sqrt_det_values)) * grid.cell_volume
    assert weighted_inner(a, b, g) == pytest.approx(ref, rel=1e-12)


def test_form_paired_with_a_general_tensor_uses_every_component():
    grid = _form_grid(3)
    g = _bumpy_metric(grid, 500)
    a = _random_form(grid, 501, 2)
    raw = np.random.default_rng(502).standard_normal(grid.shape + (3, 3))
    b = TensorField(grid, raw, "general")
    density = form_inner_full(a.values, raw, g.inv_values, 2)
    ref = float(np.sum(density * g.sqrt_det_values)) * grid.cell_volume
    assert weighted_inner(a, b, g) == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("dims,k", _ranks(1, 1))
def test_interior_product_matches_the_full_formula(dims, k):
    grid = _form_grid(dims)
    x = _random_vector(grid, 600 + dims)
    w = _random_form(grid, 610 + 10 * dims + k, k)
    out = interior_product(x, w).values
    _assert_close(out, interior_product_full(x.values, w.values, k))
    _assert_exactly_antisymmetric(out, dims)


@pytest.mark.parametrize("dims,k", _ranks(1, 1))
def test_expand_form_inverts_form_components(dims, k):
    grid = _form_grid(dims)
    rng = np.random.default_rng(700 + 10 * dims + k)
    comps = [rng.standard_normal(grid.shape)
             for _ in increasing_tuples(dims, k)]
    full = expand_form(comps, dims, k)
    _assert_exactly_antisymmetric(full, dims)
    for got, want in zip(form_components(full, dims, k), comps):
        assert np.array_equal(got, want)
    w = _random_form(grid, 710 + 10 * dims + k, k).values
    _assert_close(expand_form(form_components(w, dims, k), dims, k), w)


@pytest.mark.parametrize("dims,k", _ranks(1, 1))
def test_pointwise_minors_are_determinants(dims, k):
    grid = _form_grid(dims)
    g = _bumpy_metric(grid, 800 + dims)
    idx = increasing_tuples(dims, k)
    table = pointwise_minors(g.inv_values, k)
    for p, rows in enumerate(idx):
        for q, cols in enumerate(idx):
            ref = np.linalg.det(g.inv_values[..., rows, :][..., cols])
            assert np.max(np.abs(table[p][q] - ref)) <= 1e-13


def test_form_kernels_keep_their_error_cases():
    grid = _form_grid(3)
    g = _bumpy_metric(grid, 900)
    f = _random_form(grid, 901, 0)
    H = _random_form(grid, 902, 3)
    b = _random_form(grid, 903, 2)
    x = _random_vector(grid, 904)
    sym = TensorField(grid, g.values, "symmetric2")
    with pytest.raises(FieldError, match="top-degree"):
        exterior_derivative(H)
    with pytest.raises(FieldError, match="scalar is zero"):
        codifferential(g, f)
    with pytest.raises(FieldError, match="contravariant"):
        interior_product(TensorField(grid, x.values, "covector"), b)
    with pytest.raises(FieldError, match="scalar is zero"):
        interior_product(x, f)
    with pytest.raises(FieldError, match="expects a 3-form"):
        h_squared(g, b)
    with pytest.raises(FieldError, match="antisymmetric"):
        exterior_derivative(sym)
    with pytest.raises(FieldError, match="forms are covariant"):
        codifferential(g, x)


ANISOTROPIC_GRIDS = [((8, 12), (1.5, 2.0)),
                     ((8, 10, 12), (1.5, 2.0, 2.5)),
                     ((8, 8, 10, 12), (1.5, 2.0, 2.5, 3.0))]


def _schrodinger_setup(resolutions, periods, seed):
    grid = Grid(resolutions, periods=periods)
    n = grid.n_dims
    rng = np.random.default_rng(seed)
    g = MetricField(grid, _spd_field(grid, rng, np.linspace(1.0, 1.6, n), 0.1))
    return SchrodingerOperator(g), rng.standard_normal(grid.shape)


def _rel_gap(out, ref):
    return float(np.max(np.abs(out - ref)) / np.max(np.abs(ref)))


@pytest.mark.parametrize("resolutions, periods", ANISOTROPIC_GRIDS)
def test_nyquist_projection_matches_the_fft_projection(resolutions, periods):
    op, u = _schrodinger_setup(resolutions, periods, 31)
    out = op._project_invisible(u)
    assert _rel_gap(out, fft_nyquist_projection(u)) < 1e-13
    # an orthogonal projector: idempotent and symmetric
    assert _rel_gap(op._project_invisible(out), out) < 1e-13
    v = np.random.default_rng(32).standard_normal(u.shape)
    assert np.sum(out * v) == pytest.approx(
        np.sum(u * op._project_invisible(v)), rel=1e-13)


@pytest.mark.parametrize("resolutions, periods", ANISOTROPIC_GRIDS)
def test_real_fft_preconditioner_matches_the_complex_one(resolutions, periods):
    op, r = _schrodinger_setup(resolutions, periods, 33)
    mean_potential = float(np.mean(op.potential))
    # sigma below the mean potential and far above it (c0 clipped to 0.1)
    for sigma in (mean_potential - 2.0, mean_potential + 50.0):
        out = op._preconditioner(sigma)(r)
        assert out.shape == r.shape
        assert _rel_gap(out, complex_fft_preconditioner(op, sigma, r)) < 1e-13


@pytest.mark.parametrize("resolutions, periods", ANISOTROPIC_GRIDS)
def test_laplacian_matches_the_einsum_flux(resolutions, periods):
    op, u = _schrodinger_setup(resolutions, periods, 35)
    g = op.g
    ref = laplacian_einsum(u, g.inv_values, g.sqrt_det_values,
                           g.grid.spacings)
    assert _rel_gap(laplacian_values(g, u), ref) < 1e-13
