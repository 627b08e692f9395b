"""The hot-path kernels against the reference formulas they replace."""

import itertools
import math

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
    full_form,
    full_symmetric,
    hessian_full,
    laplacian_einsum,
    exterior_derivative_full,
    form_inner_full,
    h_squared_full,
    inverse_and_det_full,
    interior_product_full,
    lie_derivative_full,
    one_form_inner,
    packed,
    real_fft_preconditioner,
    ricci_full,
    ricci_full_stack,
    roll_derivative,
)


def _spd_field(grid, rng, diagonal, amplitude):
    """Packed symmetric field diag(diagonal) plus symmetrized uniform noise."""
    n = grid.n_dims
    noise = rng.uniform(-amplitude, amplitude, grid.shape + (n, n))
    full = np.diag(diagonal) + 0.5 * (noise + np.swapaxes(noise, -1, -2))
    return packed(full, n, 2, symmetric=True)


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
    pairs = dims * (dims + 1) // 2
    assert g.values.shape == g.inv_components.shape == (pairs,) + grid.shape
    # the full inverse is gathered once from the packed one
    table = symmetric_pairs(dims)[2]
    assert g._inv_full.shape == (dims, dims) + grid.shape
    assert np.array_equal(g._inv_full, g.inv_components[table])
    for arr in (g.values, g.inv_components, g._inv_full, g.sqrt_det_values):
        assert arr.flags.c_contiguous
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = 1.0
    gam = geometry.christoffel_values(g)
    assert gam.shape == (dims, pairs) + grid.shape
    assert gam.flags.c_contiguous


@pytest.mark.parametrize("dims", [2, 3, 4])
def test_laplacian_flux_coefficients_are_exactly_symmetric(dims):
    grid = Grid((8,) * dims)
    rng = np.random.default_rng(60 + dims)
    g = MetricField(grid, _spd_field(grid, rng, np.linspace(0.6, 2.5, dims),
                                     0.3))
    laplacian_values(g, rng.standard_normal(grid.shape))
    coeff = g._cache["flux_coefficients"]
    # the packed inverse holds one array per pair, so the fluxes'
    # coefficients sqrt g g^ab are exactly symmetric
    for a, b in itertools.product(range(dims), repeat=2):
        assert np.array_equal(coeff[a, b], coeff[b, a])
        assert np.array_equal(coeff[a, b],
                              g.sqrt_det_values * g._inv_full[a, b])


@pytest.mark.parametrize("dims", [2, 3, 4])
def test_metric_inverse_and_determinant_match_lapack(dims):
    grid = Grid((8,) * dims)
    rng = np.random.default_rng(dims)
    diagonal = np.linspace(0.6, 2.5, dims)
    g = MetricField(grid, _spd_field(grid, rng, diagonal, 0.1))
    inv = np.linalg.inv(full_symmetric(g.values))
    sqrt_det = np.sqrt(np.linalg.det(full_symmetric(g.values)))
    assert (np.max(np.abs(full_symmetric(g.inv_components) - inv))
            <= 1e-13 * np.max(np.abs(inv)))
    assert np.max(np.abs(g.sqrt_det_values / sqrt_det - 1.0)) <= 1e-13


@pytest.mark.parametrize("dims", [2, 3, 4])
def test_metric_inverse_and_determinant_are_the_full_cofactors(dims):
    grid = Grid((8,) * dims)
    rng = np.random.default_rng(20 + dims)
    values = _spd_field(grid, rng, np.linspace(0.6, 2.5, dims), 0.3)
    ref_inv, ref_det = inverse_and_det_full(full_symmetric(values))
    inv, det = geometry._inverse_and_det(values, dims)
    assert np.array_equal(full_symmetric(inv), ref_inv)
    assert np.array_equal(det, ref_det)
    g = MetricField(grid, values)
    assert np.array_equal(full_symmetric(g.inv_components), ref_inv)
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
    table = symmetric_pairs(dims)[2]
    for eigenvalues, expected in cases:
        values = _field_with_spectrum(rng, eigenvalues)
        comps = packed(values, dims, 2, symmetric=True)
        verdict = geometry._pivots_positive(comps, table, eps)
        assert verdict is expected is _cholesky_accepts(values)
        for p in range(points):
            assert (geometry._pivots_positive(comps[:, p:p + 1], table, eps)
                    is _cholesky_accepts(values[p:p + 1]))
    grid = Grid((8,) * dims)
    values = _field_with_spectrum(
        rng, np.broadcast_to(np.linspace(-0.1, 1.0, dims), grid.shape + (dims,)))
    with pytest.raises(PositivityError,
                       match="metric has a pointwise eigenvalue below 1e-08"):
        MetricField(grid, packed(values, dims, 2, symmetric=True))


@pytest.mark.parametrize("dims", [2, 3, 4])
def test_symmetric_pairing_matches_the_einsum(dims):
    grid = Grid((8,) * dims)
    rng = np.random.default_rng(30 + dims)
    g = MetricField(grid, _spd_field(grid, rng, np.linspace(0.6, 2.5, dims),
                                     0.3))
    a = _spd_field(grid, rng, np.zeros(dims), 1.0)
    b = _spd_field(grid, rng, np.zeros(dims), 1.0)
    inv = full_symmetric(g.inv_components)
    for second in (a, b):
        got = pointwise_inner_values(a, second, "symmetric2", g)
        ref = form_inner_full(full_symmetric(a), full_symmetric(second), inv, 2)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
    field = TensorField(grid, a, "symmetric2")
    ref = float(np.sum(form_inner_full(full_symmetric(a), full_symmetric(a),
                                       inv, 2)
                       * g.sqrt_det_values)) * grid.cell_volume
    assert weighted_inner(field, field, g) == pytest.approx(ref, rel=1e-13)


@pytest.mark.parametrize("dims", [2, 3, 4])
def test_metric_inverse_is_exact_on_diagonal_metrics(dims):
    grid = Grid((8,) * dims)
    off = ~np.eye(dims, dtype=bool)
    flat = flat_metric(grid)
    assert np.array_equal(flat.inv_components, flat.values)
    assert np.all(flat.sqrt_det_values == 1.0)
    diagonal = np.array([0.7, 3.0, 1.3, 0.9][:dims])
    g = diagonal_metric(grid, diagonal)
    for metric in (flat, g):
        # zero minors make +0.0 entries at odd and even positions alike
        inv = full_symmetric(metric.inv_components)
        assert np.all(inv[..., off] == 0.0)
        assert not np.any(np.signbit(inv[..., off]))
    assert np.all(g.sqrt_det_values == np.sqrt(np.prod(diagonal)))
    # a cofactor quotient M_ii / det, not a reciprocal: within one ulp
    got = np.einsum("...ii->...i", full_symmetric(g.inv_components))
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
    g = MetricField(grid, packed(values, 3, 2, symmetric=True))
    ref = ricci_full_stack(values, full_symmetric(g.inv_components),
                           grid.spacings)
    assert np.max(np.abs(ref)) > 1e-2
    assert (np.max(np.abs(full_symmetric(ricci_values(g)) - ref))
            <= 1e-12 * np.max(np.abs(ref)))


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
    return MetricField(grid, packed(values, n, 2, symmetric=True))


def _random_form(grid, seed, k):
    """Random packed k-form array (a grid array for k = 0)."""
    lead = (math.comb(grid.n_dims, k),) if k else ()
    return np.random.default_rng(seed).standard_normal(lead + grid.shape)


def _full(w, n, k):
    """Full component-last storage of a packed k-form (a grid array for 0)."""
    return full_form(w, n, k) if k else w


def _random_vector(grid, seed):
    n = grid.n_dims
    raw = np.random.default_rng(seed).standard_normal((n,) + grid.shape)
    return TensorField(grid, raw, "vector")


def _assert_close(out, ref):
    assert out.shape == ref.shape
    scale = np.max(np.abs(ref))
    assert scale > 0.0
    assert np.max(np.abs(out - ref)) <= FORM_REL * scale


def _ranks(low, high_offset):
    return [(dims, k) for dims in (2, 3, 4)
            for k in range(low, dims + high_offset)]


@pytest.mark.parametrize("dims,k", _ranks(0, 0))
def test_exterior_derivative_matches_the_full_formula(dims, k):
    grid = _form_grid(dims)
    w = _random_form(grid, 100 + 10 * dims + k, k)
    out = geometry.exterior_derivative_values(grid, w, k)
    assert out.shape == (math.comb(dims, k + 1),) + grid.shape
    _assert_close(full_form(out, dims, k + 1),
                  exterior_derivative_full(_full(w, dims, k), grid.spacings, k))


@pytest.mark.parametrize("dims", [2, 3, 4])
def test_forms_above_the_dimension_are_exact_zeros(dims):
    # d of an n-form and X . w of an (n + 1)-form vanish identically: the
    # (n + 1)-form has no component; in 2D the field strength H = db is such
    # a 3-form
    grid = _form_grid(dims)
    w = _random_form(grid, 800 + dims, dims)
    dw = geometry.exterior_derivative_values(grid, w, dims)
    assert dw.shape == (0,) + grid.shape
    x = _random_vector(grid, 810 + dims)
    xdw = geometry.interior_product_values(x.values, dw, dims + 1)
    assert xdw.shape == w.shape
    assert not np.any(xdw)


@pytest.mark.parametrize("dims,k", _ranks(1, 1))
def test_codifferential_matches_the_full_formula(dims, k):
    grid = _form_grid(dims)
    g = _bumpy_metric(grid, 200 + dims)
    w = _random_form(grid, 210 + 10 * dims + k, k)
    out = geometry.codifferential_values(g, w, k)
    ref = codifferential_full(full_form(w, dims, k), full_symmetric(g.values),
                              full_symmetric(g.inv_components),
                              g.sqrt_det_values, grid.spacings, k)
    _assert_close(_full(out, dims, k - 1), ref)


@pytest.mark.parametrize("dims", [3, 4])
def test_h_squared_matches_the_full_formula(dims):
    grid = _form_grid(dims)
    g = _bumpy_metric(grid, 300 + dims)
    H = _random_form(grid, 310 + dims, 3)
    out = geometry.h_squared_values(g, H)
    _assert_close(full_symmetric(out),
                  h_squared_full(full_form(H, dims, 3),
                                 full_symmetric(g.inv_components)))


@pytest.mark.parametrize("dims,k", _ranks(2, 1) + [(2, 3), (3, 4)])
def test_form_inner_products_match_the_full_formula(dims, k):
    # k = 3 is |H|^2 over all index triples; an (n + 1)-form has no
    # component and pairs to 0
    grid = _form_grid(dims)
    g = _bumpy_metric(grid, 400 + dims)
    a = _random_form(grid, 410 + 10 * dims + k, k)
    b = _random_form(grid, 420 + 10 * dims + k, k)
    inv = full_symmetric(g.inv_components)
    full_a, full_b = full_form(a, dims, k), full_form(b, dims, k)
    norm = np.broadcast_to(geometry.form_norm_sq_values(g, a), grid.shape)
    density = form_inner_full(full_a, full_b, inv, k)
    ref = float(np.sum(density * g.sqrt_det_values)) * grid.cell_volume
    got = weighted_inner(form_field(grid, a, k), form_field(grid, b, k), g)
    if k > dims:
        assert not np.any(norm) and got == ref == 0.0
        return
    _assert_close(norm, form_inner_full(full_a, full_a, inv, k))
    assert got == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("dims", [2, 3, 4])
def test_vector_pairing_matches_the_full_formula(dims):
    grid = _form_grid(dims)
    g = _bumpy_metric(grid, 450 + dims)
    x, y = _random_vector(grid, 451 + dims), _random_vector(grid, 452 + dims)
    g_full = full_symmetric(g.values)
    density = np.einsum("...ab,a...,b...->...", g_full, x.values, y.values)
    ref = float(np.sum(density * g.sqrt_det_values)) * grid.cell_volume
    assert weighted_inner(x, y, g) == pytest.approx(ref, rel=1e-12)
    # lowered to a 1-form, x pairs with the inverse metric to the same value
    lowered = np.einsum("...ab,b...->a...", g_full, x.values)
    assert one_form_inner(g, lowered, lowered) == pytest.approx(
        weighted_inner(x, x, g), rel=1e-12)


@pytest.mark.parametrize("dims,k", _ranks(1, 1))
def test_interior_product_matches_the_full_formula(dims, k):
    grid = _form_grid(dims)
    x = _random_vector(grid, 600 + dims)
    w = _random_form(grid, 610 + 10 * dims + k, k)
    out = geometry.interior_product_values(x.values, w, k)
    _assert_close(_full(out, dims, k - 1),
                  interior_product_full(np.moveaxis(x.values, 0, -1),
                                        full_form(w, dims, k), k))


@pytest.mark.parametrize("dims,k", _ranks(1, 1))
def test_expand_form_inverts_form_components(dims, k):
    grid = _form_grid(dims)
    comps = _random_form(grid, 700 + 10 * dims + k, k)
    full = expand_form(comps, dims, k)
    assert full.shape == (dims,) * k + grid.shape
    # every permuted slot holds the component or its exact negation
    for perm in itertools.permutations(range(k)):
        sign = (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))
        axes = perm + tuple(range(k, k + dims))
        assert np.array_equal(np.transpose(full, axes), sign * full)
    assert np.array_equal(
        packed(np.moveaxis(full, range(k), range(-k, 0)), dims, k), comps)


@pytest.mark.parametrize("dims,k", _ranks(1, 1))
def test_pointwise_minors_are_determinants(dims, k):
    grid = _form_grid(dims)
    g = _bumpy_metric(grid, 800 + dims)
    idx = increasing_tuples(dims, k)
    table = pointwise_minors(g.inv_components, k)
    inv = full_symmetric(g.inv_components)
    for p, rows in enumerate(idx):
        for q, cols in enumerate(idx):
            ref = np.linalg.det(inv[..., rows, :][..., cols])
            assert np.max(np.abs(table[p][q] - ref)) <= 1e-13


# ---------------------------------------------------------------------------
# Connection and curvature on independent pairs against full storage
# ---------------------------------------------------------------------------


def _assert_exactly_symmetric(values, dims):
    # packed, component major: the full matrix is gathered from one array
    # per pair, so it is exactly symmetric by construction
    assert values.shape[0] == dims * (dims + 1) // 2
    assert values.flags.c_contiguous
    full = full_symmetric(values)
    assert np.array_equal(full, np.swapaxes(full, -1, -2))


@pytest.mark.parametrize("dims", [2, 3, 4])
def test_symmetric_pairs_index_the_upper_triangle(dims):
    rows, cols, table = symmetric_pairs(dims)
    pairs = list(zip(rows, cols))
    assert pairs == list(itertools.combinations_with_replacement(range(dims), 2))
    for p, (i, j) in enumerate(pairs):
        assert table[i, j] == table[j, i] == p
    comps = np.random.default_rng(dims).standard_normal((len(pairs), 3, 5))
    full = comps[table]
    assert full.shape == (dims, dims, 3, 5)
    for p, (i, j) in enumerate(pairs):
        assert np.array_equal(full[i, j], comps[p])
        assert np.array_equal(full[j, i], comps[p])


@pytest.mark.parametrize("resolutions,periods", ANISOTROPIC_GRIDS)
def test_connection_kernels_match_the_full_layout(resolutions, periods):
    grid = Grid(resolutions, periods)
    dims = grid.n_dims
    g = _bumpy_metric(grid, 1300 + dims)
    g_ref = _bumpy_metric(grid, 1310 + dims)
    f = _random_form(grid, 1320 + dims, 0)
    x = _random_vector(grid, 1330 + dims)
    g_full, inv = full_symmetric(g.values), full_symmetric(g.inv_components)
    gam = christoffel_full(g_full, inv, grid.spacings)
    gam_ref = christoffel_full(full_symmetric(g_ref.values),
                               full_symmetric(g_ref.inv_components),
                               grid.spacings)
    # the kernel stores Gamma^k_ij on the pairs i <= j, component major
    i, j, _ = symmetric_pairs(dims)
    _assert_close(geometry.christoffel_values(g),
                  np.moveaxis(gam[..., i, j], (-2, -1), (0, 1)))
    _assert_close(full_symmetric(ricci_values(g)),
                  ricci_full(gam, grid.spacings))
    _assert_close(np.moveaxis(geometry.deturck_vector_values(g, g_ref), 0, -1),
                  deturck_vector_full(gam, gam_ref, inv))
    _assert_close(
        full_symmetric(geometry.lie_derivative_metric_values(g, x.values)),
        lie_derivative_full(gam, g_full, np.moveaxis(x.values, 0, -1),
                            grid.spacings))
    # Hess f = -L_X g / 2 at X = -grad f, the term of the mu gradient
    hess = -0.5 * geometry.lie_derivative_metric_values(
        g, -geometry.gradient_vector_values(g, f))
    _assert_close(full_symmetric(hess), hessian_full(gam, f, grid.spacings))


@pytest.mark.parametrize("dims", [2, 3, 4])
def test_symmetric_kernel_outputs_are_exact_mirrors(dims):
    grid = _form_grid(dims)
    g = _bumpy_metric(grid, 1400 + dims)
    x = _random_vector(grid, 1402 + dims)
    _assert_exactly_symmetric(ricci_values(g), dims)
    _assert_exactly_symmetric(
        geometry.lie_derivative_metric_values(g, x.values), dims)


@pytest.mark.parametrize("gauge", GAUGES)
def test_metric_right_hand_sides_are_exact_mirrors(gauge):
    state = perturbed_state(resolution=12, hhat_c=0.3)
    grid = state.g.grid
    _assert_exactly_symmetric(ricci_values(state.g), 3)
    if gauge == "grf":
        dg, db = grf_rhs(state)
    elif gauge == "deturck":
        dg, db, _ = deturck_rhs(state, flat_metric(grid))
    else:
        dg, db, _ = mu_gradient_flow_rhs(state)
    _assert_exactly_symmetric(dg.values, 3)
    assert db.values.shape == (3,) + grid.shape and db.rank == 2


@pytest.mark.parametrize("dims", [2, 3, 4])
def test_connection_is_exactly_zero_on_flat_metrics(dims):
    grid = _form_grid(dims)
    g = diagonal_metric(grid, np.linspace(0.5, 2.0, dims))
    x = _random_vector(grid, 1500 + dims)
    assert np.all(geometry.christoffel_values(g) == 0.0)
    assert np.all(geometry.deturck_vector_values(g, flat_metric(grid)) == 0.0)
    # with Gamma = 0 the Lie derivative is the symmetrized stencil gradient
    xl = np.einsum("...ja,...a->...j", full_symmetric(g.values),
                   np.moveaxis(x.values, 0, -1))
    dxl = np.stack([diff_values(xl, a, grid.spacings[a]) for a in range(dims)],
                   axis=dims)
    assert np.array_equal(
        full_symmetric(geometry.lie_derivative_metric_values(g, x.values)),
        dxl + np.swapaxes(dxl, -1, -2))


# ---------------------------------------------------------------------------
# Raw-array kernels against the fields they stand for
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dims", [2, 3, 4])
def test_values_kernels_equal_their_public_wrappers(dims):
    # every kernel output passes, unchanged, the validation of the field it
    # stands for (1-forms have no field tag); scalar_curvature and
    # FlowState.field_strength wrap their kernels
    grid = _form_grid(dims)
    g = _bumpy_metric(grid, 1000 + dims)
    f = _random_form(grid, 1001 + dims, 0)
    x = _random_vector(grid, 1002 + dims)
    forms = [_random_form(grid, 1010 + 10 * dims + k, k)
             for k in range(dims + 1)]
    g_ref = _bumpy_metric(grid, 1005 + dims)
    tagged = [
        (geometry.ricci_values(g), "symmetric2"),
        (geometry.lie_derivative_metric_values(g, x.values), "symmetric2"),
        (geometry.deturck_vector_values(g, g_ref), "vector"),
        (geometry.gradient_vector_values(g, f), "vector"),
    ]
    pairs = [(raw, TensorField(grid, raw, sym)) for raw, sym in tagged]
    pairs.append((geometry.scalar_curvature_values(g),
                  geometry.scalar_curvature(g)))
    for k, w in enumerate(forms):
        if k >= 2:
            norm = geometry.form_norm_sq_values(g, w)
            pairs.append((norm, ScalarField(grid, norm)))
        outputs = [(geometry.hodge_laplacian_values(g, w, k), k)]
        # the Hodge Laplacian composes the raw kernels
        expected = 0.0
        if k < dims:
            dw = geometry.exterior_derivative_values(grid, w, k)
            outputs.append((dw, k + 1))
            expected = expected + geometry.codifferential_values(g, dw, k + 1)
        if k > 0:
            dstar_w = geometry.codifferential_values(g, w, k)
            outputs += [(dstar_w, k - 1),
                        (geometry.interior_product_values(x.values, w, k),
                         k - 1)]
            expected = expected + geometry.exterior_derivative_values(
                grid, dstar_w, k - 1)
        assert np.array_equal(outputs[0][0], -expected)
        pairs.extend((raw, form_field(grid, raw, j)) for raw, j in outputs
                     if j != 1)
    if dims >= 3:
        h2 = geometry.h_squared_values(g, forms[3])
        pairs.append((h2, TensorField(grid, h2, "symmetric2")))
        b = TensorField(grid, forms[2], "antisymmetric")
        hhat = (TensorField(grid, forms[3], "antisymmetric") if dims == 3
                else None)
        pairs.append((field_strength_values(grid, b.values, hhat),
                      FlowState(g, b, hhat).field_strength()))
    for raw, field in pairs:
        assert np.array_equal(raw, field.values)


@pytest.mark.parametrize("dims", [2, 3, 4])
def test_max_inverse_eigenvalue_is_the_full_eigvalsh_max(dims):
    grid = _form_grid(dims)

    def full(g):
        return float(np.max(np.linalg.eigvalsh(
            full_symmetric(g.inv_components))))

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
    values[(slice(None),) + (1,) * dims] *= 0.25
    spiked = MetricField(grid, values)
    assert spiked.max_inverse_eigenvalue() == full(spiked)
    assert spiked.max_inverse_eigenvalue() > 2.0 * bumpy.max_inverse_eigenvalue()


def test_asymmetric_symmetric2_input_still_raises():
    # an asymmetric matrix has no packed storage; its full (n, n) array is
    # refused as a symmetric2 field and as a metric
    grid = _form_grid(3)
    g = _bumpy_metric(grid, 1200)
    asym = np.array(full_symmetric(g.values))
    asym[..., 0, 1] += 1e-6
    with pytest.raises(FieldError, match="tensor field shape"):
        MetricField(grid, asym)
    with pytest.raises(FieldError, match="tensor field shape"):
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

    def coeff(a, b):  # sqrt g g^ab from the packed g^-1
        return g.sqrt_det_values * g.inv_components[
            symmetric_pairs(len(h))[2][a, b]]

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
    ref = laplacian_einsum(u, full_symmetric(g.inv_components),
                           g.sqrt_det_values, g.grid.spacings)
    assert _rel_gap(laplacian_values(g, u), ref) < 1e-13
