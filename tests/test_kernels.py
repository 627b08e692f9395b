"""The hot-path kernels against the reference formulas they replace."""

import itertools

import numpy as np
import pytest

from grflab import (
    FlowState,
    Grid,
    MetricField,
    ScalarField,
    TensorField,
    flat_metric,
    weighted_inner,
)
from grflab.errors import FieldError, PositivityError
from grflab.experiments import perturbed_state
from grflab.flow import GAUGES, deturck_rhs, grf_rhs, mu_gradient_flow_rhs
from grflab import geometry
from grflab.geometry import laplacian_values, ricci_values
from grflab.spectrum import (
    SchrodingerOperator,
    _real_fourier_basis,
    field_strength_values,
)
from grflab.lattice import (
    diff_values,
    expand_form,
    expand_symmetric,
    form_components,
    increasing_tuples,
    pointwise_inner_values,
    pointwise_minors,
    stencil_symbol,
    symmetric_pairs,
)

from oracles import (
    christoffel_full,
    codifferential_full,
    complex_fft_preconditioner,
    deturck_vector_full,
    diagonal_metric,
    fft_nyquist_projection,
    form_field,
    hessian_full,
    laplacian_einsum,
    exterior_derivative_full,
    form_inner_full,
    h_squared_full,
    inverse_and_det_full,
    interior_product_full,
    lie_derivative_full,
    real_fft_preconditioner,
    ricci_full,
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


@pytest.mark.parametrize("resolution", [12, 16])
def test_diff_values_on_component_first_planes_is_the_roll_formula(resolution):
    # six component planes ahead of the grid axes, as the Christoffel kernel
    # differentiates them; the last grid axis takes the flat-run path
    grid = Grid((resolution,) * 3)
    rng = np.random.default_rng(resolution)
    values = rng.standard_normal((6,) + grid.shape)
    values[1] = 0.0  # constant rows: signed zeros must come out as np.roll's
    values[2] = -values[2, ..., :1]
    for axis in range(1, 4):
        out = diff_values(values, axis, grid.spacings[axis - 1])
        ref = roll_derivative(values, axis, grid.spacings[axis - 1])
        assert np.array_equal(out, ref)
        assert np.array_equal(np.signbit(out), np.signbit(ref))
        assert out.flags.c_contiguous


@pytest.mark.parametrize("dims", [2, 3, 4])
def test_metric_stores_its_algebra_component_major(dims):
    grid = Grid((8,) * dims)
    rng = np.random.default_rng(50 + dims)
    g = MetricField(grid, _spd_field(grid, rng, np.linspace(0.6, 2.5, dims),
                                     0.3))
    shape = (dims, dims) + grid.shape
    assert g.components.shape == g.inv_components.shape == shape
    assert np.array_equal(g.components, np.moveaxis(g.values, (-2, -1), (0, 1)))
    # inv_values is a view of the component-major inverse, not a copy
    assert np.shares_memory(g.inv_values, g.inv_components)
    assert np.array_equal(g.inv_values,
                          np.moveaxis(g.inv_components, (0, 1), (-2, -1)))
    for arr in (g.components, g.inv_components, g.inv_values):
        assert arr.flags.c_contiguous or arr is g.inv_values
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = 1.0
    for a, b in itertools.product(range(dims), repeat=2):
        assert g.inv_values[..., a, b].flags.c_contiguous
    gam = geometry.christoffel_values(g)
    assert gam.shape == (dims, dims * (dims + 1) // 2) + grid.shape
    assert gam.flags.c_contiguous


@pytest.mark.parametrize("dims", [2, 3, 4])
def test_laplacian_flux_coefficients_are_exactly_symmetric(dims):
    grid = Grid((8,) * dims)
    rng = np.random.default_rng(60 + dims)
    g = MetricField(grid, _spd_field(grid, rng, np.linspace(0.6, 2.5, dims),
                                     0.3))
    # the cofactor inverse reads one minor at (a, b) and (b, a) ...
    for a, b in itertools.combinations(range(dims), 2):
        assert np.array_equal(g.inv_components[a, b], g.inv_components[b, a])
    laplacian_values(g, rng.standard_normal(grid.shape))
    coeff = g._cache["flux_coefficients"]
    # ... so the fluxes' coefficients sqrt g g^ab are exactly symmetric too
    for a, b in itertools.product(range(dims), repeat=2):
        assert np.array_equal(coeff[a, b], coeff[b, a])
        assert np.array_equal(coeff[a, b],
                              g.sqrt_det_values * g.inv_components[a, b])


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
def test_metric_inverse_and_determinant_are_the_full_cofactors(dims):
    grid = Grid((8,) * dims)
    rng = np.random.default_rng(20 + dims)
    values = _spd_field(grid, rng, np.linspace(0.6, 2.5, dims), 0.3)
    ref_inv, ref_det = inverse_and_det_full(values)
    inv, det = geometry._inverse_and_det(
        np.ascontiguousarray(np.moveaxis(values, (-2, -1), (0, 1))))
    assert np.array_equal(np.moveaxis(inv, (0, 1), (-2, -1)), ref_inv)
    assert np.array_equal(det, ref_det)
    g = MetricField(grid, values)
    assert np.array_equal(g.inv_values, ref_inv)
    assert np.array_equal(g.sqrt_det_values, np.sqrt(ref_det))


def _field_with_spectrum(rng, eigenvalues):
    """Symmetric matrices with the given pointwise eigenvalues (last axis) in
    random orthonormal frames."""
    dims = eigenvalues.shape[-1]
    q, _ = np.linalg.qr(rng.standard_normal(eigenvalues.shape + (dims,)))
    m = np.einsum("...ik,...k,...jk->...ij", q, eigenvalues, q)
    return 0.5 * (m + np.swapaxes(m, -1, -2))


def _cholesky_accepts(values):
    try:
        np.linalg.cholesky(values - geometry.EPS_SPD * np.eye(values.shape[-1]))
    except np.linalg.LinAlgError:
        return False
    return True


@pytest.mark.parametrize("dims", [2, 3, 4])
def test_ldl_positivity_verdict_is_choleskys(dims):
    rng = np.random.default_rng(40 + dims)
    points = 64
    eps = geometry.EPS_SPD
    spd = rng.uniform(0.1, 3.0, (points, dims))
    indefinite = spd.copy()
    indefinite[points // 2, -1] = -0.2
    above, below = spd.copy(), spd.copy()
    above[:, 0] = eps * (1.0 + 1e-3)
    below[:, 0] = eps * (1.0 + 1e-3)
    below[points // 3, 0] = eps * (1.0 - 1e-3)
    cases = [(spd, True), (indefinite, False), (above, True), (below, False)]
    for eigenvalues, expected in cases:
        values = _field_with_spectrum(rng, eigenvalues)
        comps = [[values[..., i, j] for j in range(dims)] for i in range(dims)]
        verdict = geometry._pivots_positive(comps, eps)
        assert verdict is expected is _cholesky_accepts(values)
        for p in range(points):
            point = [[c[p:p + 1] for c in row] for row in comps]
            assert (geometry._pivots_positive(point, eps)
                    is _cholesky_accepts(values[p:p + 1]))
    grid = Grid((8,) * dims)
    values = _field_with_spectrum(
        rng, np.broadcast_to(np.linspace(-0.1, 1.0, dims), grid.shape + (dims,)))
    with pytest.raises(PositivityError,
                       match="metric has a pointwise eigenvalue below 1e-08"):
        MetricField(grid, values)


@pytest.mark.parametrize("dims", [2, 3, 4])
def test_symmetric_pairing_matches_the_einsum(dims):
    grid = Grid((8,) * dims)
    rng = np.random.default_rng(30 + dims)
    g = MetricField(grid, _spd_field(grid, rng, np.linspace(0.6, 2.5, dims),
                                     0.3))
    a = _spd_field(grid, rng, np.zeros(dims), 1.0)
    b = _spd_field(grid, rng, np.zeros(dims), 1.0)
    general = rng.standard_normal(grid.shape + (dims, dims))
    for second in (a, b, general):
        got = pointwise_inner_values(a, second, 2, "symmetric2", g.inv_values,
                                     g.values)
        ref = form_inner_full(a, second, g.inv_values, 2)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
    field = TensorField(grid, a, "symmetric2")
    ref = float(np.sum(form_inner_full(a, a, g.inv_values, 2)
                       * g.sqrt_det_values)) * grid.cell_volume
    assert weighted_inner(field, field, g) == pytest.approx(ref, rel=1e-13)


@pytest.mark.parametrize("dims", [2, 3, 4])
def test_metric_inverse_is_exact_on_diagonal_metrics(dims):
    grid = Grid((8,) * dims)
    off = ~np.eye(dims, dtype=bool)
    flat = flat_metric(grid)
    assert np.array_equal(flat.inv_values,
                          np.broadcast_to(np.eye(dims), flat.values.shape))
    assert np.all(flat.sqrt_det_values == 1.0)
    diagonal = np.array([0.7, 3.0, 1.3, 0.9][:dims])
    g = diagonal_metric(grid, diagonal)
    for metric in (flat, g):
        # zero minors make +0.0 entries at odd and even positions alike
        assert np.all(metric.inv_values[..., off] == 0.0)
        assert not np.any(np.signbit(metric.inv_values[..., off]))
    assert np.all(g.sqrt_det_values == np.sqrt(np.prod(diagonal)))
    # a cofactor quotient M_ii / det, not a reciprocal: within one ulp
    got = np.einsum("...ii->...i", g.inv_values)
    assert np.all(np.abs(got - 1.0 / diagonal) <= np.spacing(1.0 / diagonal))


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
    g = diagonal_metric(Grid((8,) * dims), np.linspace(0.5, 2.0, dims))
    assert np.all(ricci_values(g) == 0.0)


# ---------------------------------------------------------------------------
# Form kernels on independent components against full-storage formulas
# ---------------------------------------------------------------------------

FORM_REL = 1e-13
ANISOTROPIC_GRIDS = [((8, 12), (1.5, 2.0)),
                     ((8, 10, 12), (1.5, 2.0, 2.5)),
                     ((8, 8, 10, 12), (1.5, 2.0, 2.5, 3.0))]


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
    out = geometry.exterior_derivative_values(grid, w.values)
    _assert_close(out, exterior_derivative_full(w.values, grid.spacings, k))
    _assert_exactly_antisymmetric(out, dims)


@pytest.mark.parametrize("dims", [2, 3, 4])
def test_forms_above_the_dimension_are_exact_zeros(dims):
    # d of an n-form and X . w of an (n + 1)-form vanish identically; in 2D
    # the field strength H = db is such a 3-form
    grid = _form_grid(dims)
    w = _random_form(grid, 800 + dims, dims)
    dw = geometry.exterior_derivative_values(grid, w.values)
    assert dw.shape == grid.shape + (dims,) * (dims + 1)
    assert not np.any(dw)
    x = _random_vector(grid, 810 + dims)
    xdw = geometry.interior_product_values(x.values, dw)
    assert xdw.shape == w.values.shape
    assert not np.any(xdw)


@pytest.mark.parametrize("dims,k", _ranks(1, 1))
def test_codifferential_matches_the_full_formula(dims, k):
    grid = _form_grid(dims)
    g = _bumpy_metric(grid, 200 + dims)
    w = _random_form(grid, 210 + 10 * dims + k, k)
    out = geometry.codifferential_values(g, w.values)
    ref = codifferential_full(w.values, g.values, g.inv_values,
                              g.sqrt_det_values, grid.spacings, k)
    _assert_close(out, ref)
    _assert_exactly_antisymmetric(out, dims)


@pytest.mark.parametrize("dims", [3, 4])
def test_h_squared_matches_the_full_formula(dims):
    grid = _form_grid(dims)
    g = _bumpy_metric(grid, 300 + dims)
    H = _random_form(grid, 310 + dims, 3)
    out = geometry.h_squared_values(g, H.values)
    _assert_close(out, h_squared_full(H.values, g.inv_values))
    assert np.array_equal(out, np.swapaxes(out, -1, -2))


@pytest.mark.parametrize("dims,k", _ranks(2, 1))
def test_form_inner_products_match_the_full_formula(dims, k):
    grid = _form_grid(dims)
    g = _bumpy_metric(grid, 400 + dims)
    a = _random_form(grid, 410 + 10 * dims + k, k)
    b = _random_form(grid, 420 + 10 * dims + k, k)
    _assert_close(geometry.form_norm_sq_values(g, a.values, a.symmetry),
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
    out = geometry.interior_product_values(x.values, w.values)
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


# ---------------------------------------------------------------------------
# Connection and curvature on independent pairs against full storage
# ---------------------------------------------------------------------------


def _assert_exactly_symmetric(values):
    assert np.array_equal(values, np.swapaxes(values, -1, -2))


@pytest.mark.parametrize("dims", [2, 3, 4])
def test_symmetric_pairs_index_the_upper_triangle(dims):
    rows, cols, table = symmetric_pairs(dims)
    pairs = list(zip(rows, cols))
    assert pairs == list(itertools.combinations_with_replacement(range(dims), 2))
    for p, (i, j) in enumerate(pairs):
        assert table[i, j] == table[j, i] == p
    comps = np.random.default_rng(dims).standard_normal((len(pairs), 3, 5))
    full = expand_symmetric(comps, dims)
    assert full.shape == (3, 5, dims, dims)
    _assert_exactly_symmetric(full)
    for p, (i, j) in enumerate(pairs):
        assert np.array_equal(full[..., i, j], comps[p])


@pytest.mark.parametrize("resolutions,periods", ANISOTROPIC_GRIDS)
def test_connection_kernels_match_the_full_layout(resolutions, periods):
    grid = Grid(resolutions, periods)
    dims = grid.n_dims
    g = _bumpy_metric(grid, 1300 + dims)
    g_ref = _bumpy_metric(grid, 1310 + dims)
    f = _random_form(grid, 1320 + dims, 0)
    x = _random_vector(grid, 1330 + dims)
    gam = christoffel_full(g.values, g.inv_values, grid.spacings)
    gam_ref = christoffel_full(g_ref.values, g_ref.inv_values, grid.spacings)
    # the kernel stores Gamma^k_ij on the pairs i <= j, component major
    i, j, _ = symmetric_pairs(dims)
    _assert_close(geometry.christoffel_values(g),
                  np.moveaxis(gam[..., i, j], (-2, -1), (0, 1)))
    _assert_close(ricci_values(g), ricci_full(gam, grid.spacings))
    _assert_close(geometry.deturck_vector_values(g, g_ref),
                  deturck_vector_full(gam, gam_ref, g.inv_values))
    _assert_close(geometry.lie_derivative_metric_values(g, x.values),
                  lie_derivative_full(gam, g.values, x.values, grid.spacings))
    _assert_close(geometry.hessian_values(g, f.values),
                  hessian_full(gam, f.values, grid.spacings))


@pytest.mark.parametrize("dims", [2, 3, 4])
def test_symmetric_kernel_outputs_are_exact_mirrors(dims):
    grid = _form_grid(dims)
    g = _bumpy_metric(grid, 1400 + dims)
    f = _random_form(grid, 1401 + dims, 0)
    x = _random_vector(grid, 1402 + dims)
    _assert_exactly_symmetric(ricci_values(g))
    _assert_exactly_symmetric(geometry.lie_derivative_metric_values(g, x.values))
    _assert_exactly_symmetric(geometry.hessian_values(g, f.values))


@pytest.mark.parametrize("gauge", GAUGES)
def test_metric_right_hand_sides_are_exact_mirrors(gauge):
    state = perturbed_state(resolution=12, hhat_c=0.3)
    grid = state.g.grid
    # the per-point matmuls of the full layout left a 6.9e-18 defect here
    _assert_exactly_symmetric(ricci_values(state.g))
    if gauge == "grf":
        dg, db = grf_rhs(state)
    elif gauge == "deturck":
        dg, db, _ = deturck_rhs(state, flat_metric(grid))
    else:
        dg, db, _ = mu_gradient_flow_rhs(state)
    _assert_exactly_symmetric(dg.values)
    _assert_exactly_antisymmetric(db.values, grid.n_dims)


@pytest.mark.parametrize("dims", [2, 3, 4])
def test_connection_is_exactly_zero_on_flat_metrics(dims):
    grid = _form_grid(dims)
    g = diagonal_metric(grid, np.linspace(0.5, 2.0, dims))
    x = _random_vector(grid, 1500 + dims)
    assert np.all(geometry.christoffel_values(g) == 0.0)
    assert np.all(geometry.deturck_vector_values(g, flat_metric(grid)) == 0.0)
    # with Gamma = 0 the Lie derivative is the symmetrized stencil gradient
    xl = np.einsum("...ja,...a->...j", g.values, x.values)
    dxl = np.stack([diff_values(xl, a, grid.spacings[a]) for a in range(dims)],
                   axis=dims)
    assert np.array_equal(geometry.lie_derivative_metric_values(g, x.values),
                          dxl + np.swapaxes(dxl, -1, -2))


# ---------------------------------------------------------------------------
# Raw-array kernels against the fields they stand for
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dims", [2, 3, 4])
def test_values_kernels_equal_their_public_wrappers(dims):
    # every kernel output passes, unchanged, the validation of the field it
    # stands for; scalar_curvature and FlowState.field_strength wrap their
    # kernels
    grid = _form_grid(dims)
    g = _bumpy_metric(grid, 1000 + dims)
    f = _random_form(grid, 1001 + dims, 0)
    x = _random_vector(grid, 1002 + dims)
    forms = [_random_form(grid, 1010 + 10 * dims + k, k)
             for k in range(dims + 1)]
    g_ref = _bumpy_metric(grid, 1005 + dims)
    tagged = [
        (geometry.ricci_values(g), "symmetric2"),
        (geometry.hessian_values(g, f.values), "symmetric2"),
        (geometry.lie_derivative_metric_values(g, x.values), "symmetric2"),
        (geometry.deturck_vector_values(g, g_ref), "vector"),
        (geometry.gradient_vector_values(g, f.values), "vector"),
    ]
    pairs = [(raw, TensorField(grid, raw, sym)) for raw, sym in tagged]
    pairs.append((geometry.scalar_curvature_values(g),
                  geometry.scalar_curvature(g)))
    for k, w in enumerate(forms):
        sym = "scalar" if k == 0 else w.symmetry
        norm = geometry.form_norm_sq_values(g, w.values, sym)
        pairs.append((norm, ScalarField(grid, norm)))
        outputs = [geometry.hodge_laplacian_values(g, w.values)]
        # the Hodge Laplacian composes the raw kernels
        expected = 0.0
        if k < dims:
            dw = geometry.exterior_derivative_values(grid, w.values)
            outputs.append(dw)
            expected = expected + geometry.codifferential_values(g, dw)
        if k > 0:
            dstar_w = geometry.codifferential_values(g, w.values)
            outputs += [dstar_w,
                        geometry.interior_product_values(x.values, w.values)]
            expected = expected + geometry.exterior_derivative_values(grid,
                                                                      dstar_w)
        assert np.array_equal(outputs[0], -expected)
        pairs.extend((raw, form_field(grid, raw)) for raw in outputs)
    if dims >= 3:
        h2 = geometry.h_squared_values(g, forms[3].values)
        pairs.append((h2, TensorField(grid, h2, "symmetric2")))
        b = forms[2]
        hhat = forms[3] if dims == 3 else None
        pairs.append((field_strength_values(grid, b.values, hhat),
                      FlowState(g, b, hhat).field_strength()))
    for raw, field in pairs:
        assert np.array_equal(raw, field.values)


@pytest.mark.parametrize("dims", [2, 3, 4])
def test_max_inverse_eigenvalue_is_the_full_eigvalsh_max(dims):
    grid = _form_grid(dims)

    def full(g):
        return float(np.max(np.linalg.eigvalsh(g.inv_values)))

    # a flat metric: every point ties for the maximum
    flat = diagonal_metric(grid, np.linspace(0.5, 1.5, dims)[::-1])
    assert flat.max_inverse_eigenvalue() == full(flat)
    bumpy = _bumpy_metric(grid, 1100 + dims)
    assert bumpy.max_inverse_eigenvalue() == full(bumpy)
    noisy = MetricField(grid, _spd_field(grid, np.random.default_rng(dims),
                                         np.linspace(0.8, 1.2, dims), 0.2))
    assert noisy.max_inverse_eigenvalue() == full(noisy)
    # one spiked point carries the maximum
    values = np.array(bumpy.values)
    values[(1,) * dims] *= 0.25
    spiked = MetricField(grid, values)
    assert spiked.max_inverse_eigenvalue() == full(spiked)
    assert spiked.max_inverse_eigenvalue() > 2.0 * bumpy.max_inverse_eigenvalue()


def test_asymmetric_symmetric2_input_still_raises():
    grid = _form_grid(3)
    g = _bumpy_metric(grid, 1200)
    asym = np.array(g.values)
    asym[..., 0, 1] += 1e-6
    with pytest.raises(FieldError, match="symmetric2"):
        MetricField(grid, asym)
    with pytest.raises(FieldError, match="symmetric2"):
        TensorField(grid, asym, "symmetric2")


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


@pytest.mark.parametrize("m", [8, 10, 12, 16, 24, 32])
def test_real_fourier_basis_is_orthonormal_and_diagonalizes_the_stencil(m):
    rows, k = _real_fourier_basis(m)
    assert np.max(np.abs(rows @ rows.T - np.eye(m))) < 1e-14
    # row j is an eigenvector of D o D with eigenvalue -symbol(k_j)^2
    h = 2.0 * np.pi / m
    second = diff_values(diff_values(rows, 1, h), 1, h)
    sym_sq = stencil_symbol(m, h)[k] ** 2
    assert np.max(np.abs(second + sym_sq[:, None] * rows)) < 1e-13 * np.max(sym_sq)
    assert k[0] == 0 and k[-1] == m // 2
    assert np.array_equal(rows[-1] * np.sqrt(m), (-1.0) ** np.arange(m))


@pytest.mark.parametrize("resolutions, periods", ANISOTROPIC_GRIDS)
def test_preconditioner_matches_the_real_fft_one(resolutions, periods):
    op, r = _schrodinger_setup(resolutions, periods, 36)
    mean_potential = float(np.mean(op.potential))
    for sigma in (mean_potential - 2.0, mean_potential + 50.0):
        out = op._preconditioner(sigma)(r)
        assert _rel_gap(out, real_fft_preconditioner(op, sigma, r)) < 1e-13


def _at_byte_offset(values, offset):
    """A copy of values whose data starts offset bytes past a 64-byte boundary."""
    buf = np.empty(values.nbytes + 128, dtype=np.uint8)
    start = -buf.ctypes.data % 64 + offset
    out = buf[start:start + values.nbytes].view(values.dtype).reshape(values.shape)
    out[...] = values
    return out


@pytest.mark.parametrize("resolutions, periods",
                         ANISOTROPIC_GRIDS + [((12, 12, 12), (2.0 * np.pi,) * 3)])
def test_preconditioner_bits_do_not_depend_on_alignment(resolutions, periods):
    op, r = _schrodinger_setup(resolutions, periods, 37)
    precondition = op._preconditioner(float(np.mean(op.potential)) - 1.0)
    ref = precondition(_at_byte_offset(r, 0))
    for offset in range(8, 64, 8):
        shifted = _at_byte_offset(r, offset)
        assert shifted.ctypes.data % 64 == offset
        assert np.array_equal(precondition(shifted), ref)


@pytest.mark.parametrize("resolutions, periods", ANISOTROPIC_GRIDS)
def test_schrodinger_apply_is_its_out_of_place_composition_bit_for_bit(
        resolutions, periods):
    op, u = _schrodinger_setup(resolutions, periods, 36)
    g, h = op.g, op.grid.spacings
    du = [diff_values(u, b, h[b]) for b in range(len(h))]

    def coeff(a, b):  # sqrt g g^ab from the upper triangle of g^-1
        return g.sqrt_det_values * g.inv_values[..., min(a, b), max(a, b)]

    div = 0.0
    for a in range(len(h)):
        flux = coeff(a, 0) * du[0]
        for b in range(1, len(h)):
            flux = flux + coeff(a, b) * du[b]
        div = div + diff_values(flux, a, h[a])
    laplacian = div / g.sqrt_det_values
    assert np.array_equal(laplacian_values(g, u), laplacian)
    rest = u
    for a, s in enumerate(op._signs):
        rest = rest - s * np.mean(s * rest, axis=a, keepdims=True)
    ref = (-4.0 * laplacian + op.potential * u) + op._penalty_weight * (u - rest)
    assert np.array_equal(op.apply_values(u), ref)
    # the per-grid constants are built once and shared read-only
    twin = SchrodingerOperator(g)
    assert twin._sym_sq is op._sym_sq and twin._signs is op._signs
    for arr in op._signs + op._bases + (op._sym_sq, op._nyquist):
        assert not arr.flags.writeable


@pytest.mark.parametrize("resolutions, periods", ANISOTROPIC_GRIDS)
def test_laplacian_matches_the_einsum_flux(resolutions, periods):
    op, u = _schrodinger_setup(resolutions, periods, 35)
    g = op.g
    ref = laplacian_einsum(u, g.inv_values, g.sqrt_det_values,
                           g.grid.spacings)
    assert _rel_gap(laplacian_values(g, u), ref) < 1e-13
