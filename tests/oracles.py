"""Closed-form reference data shared across test modules.

The conformal family g = e^{2 phi} delta on the 3-torus is the workhorse: its
Christoffel symbols, Ricci tensor, scalar curvature and Laplacian have short
analytic expressions, and phi below is a low-frequency trigonometric
polynomial whose derivatives are written out by hand. Nothing here calls the
package's stencils, so agreement is evidence rather than tautology.

The middle sections keep kernels as they were first written, on full
component storage with per-point matmuls, einsums and FFTs; the package's
kernels on packed components must agree with them to rounding. Full storage
here is component last, grid shape + (n,)*k; full_symmetric, full_form and
packed turn the package's packed, component-major arrays into it and back.
The Lojasiewicz estimate's feasibility cap is kept the same way, as the
per-sample loop it was before it became two masked reductions, and so are
the 3D reduction's H^2 and |H|^2, as the full einsum contractions they were
before their closed forms.

Only the last section calls the package: it composes the three flow
right-hand sides kernel by kernel from the validated field strength, one
`*_values` kernel per term. The flows assemble the same formulas, sharing
intermediates, and the tests require the two to agree bit for bit.
form_field wraps a raw packed form array as the validated field of its
degree, for the tests that pair kernel outputs with weighted_inner.
"""

import itertools

import numpy as np
from scipy.ndimage import map_coordinates

from grflab import Grid, MetricField, ScalarField, TensorField, lowest_eigenpair
from grflab.lattice import expand_form, increasing_tuples, symmetric_pairs
from grflab.geometry import (
    codifferential_values, deturck_vector_values, gradient_vector_values,
    h_squared_values, interior_product_values, lie_derivative_metric_values,
    ricci_values)
from grflab.perturbations import _positive_modes


def full_symmetric(components):
    """Full component-last storage of a packed symmetric 2-tensor."""
    n = (int(np.sqrt(8 * len(components) + 1)) - 1) // 2
    return np.moveaxis(components[symmetric_pairs(n)[2]], (0, 1), (-2, -1))


def full_form(components, n, k):
    """Full component-last storage of a packed k-form (k >= 1)."""
    if k == 1:
        return np.moveaxis(components, 0, -1)
    return np.moveaxis(expand_form(components, n, k), range(k),
                       range(-k, 0))


def packed(full, n, k, symmetric=False):
    """The packed, component-major array of a full component-last symmetric
    2-tensor (symmetric=True) or k-form (k >= 1)."""
    if symmetric:
        i, j, _ = symmetric_pairs(n)
        return np.moveaxis(full[..., i, j], -1, 0)
    idx = increasing_tuples(n, k)
    return np.stack([full[(...,) + t] for t in idx]) if idx else (
        np.zeros((0,) + full.shape[:full.ndim - k]))


def form_field(grid, values, k):
    """A raw packed k-form array as the validated field of its degree: a
    scalar for k = 0, else an antisymmetric tensor (k >= 2)."""
    if k == 0:
        return ScalarField(grid, values)
    return TensorField(grid, values, "antisymmetric")


def one_form_inner(g, a_values, b_values):
    """int g^ab a_a b_b dV_g of two packed 1-forms, by einsum on the full
    inverse: the pairing of 1-forms, which no field tag carries."""
    inv = full_symmetric(g.inv_components)
    density = np.einsum("...ab,...a,...b->...", inv, np.moveaxis(a_values, 0, -1),
                        np.moveaxis(b_values, 0, -1))
    return float(np.sum(density * g.sqrt_det_values)) * g.grid.cell_volume


def diagonal_metric(grid, diagonal):
    """The constant metric with the given diagonal entries."""
    full = np.zeros(grid.shape + (grid.n_dims, grid.n_dims))
    full[...] = np.diag(np.asarray(diagonal, dtype=float))
    return MetricField(grid, packed(full, grid.n_dims, 2, symmetric=True))


def normalize_profile(g, f):
    """Shift f by a constant so that int e^{-f} dV_g = 1."""
    mass = float(np.sum(np.exp(-f.values) * g.sqrt_det_values)) * g.grid.cell_volume
    return ScalarField(g.grid, f.values + np.log(mass))


class ConformalOracle:
    """g = e^{2 phi} delta with phi = a1 sin(x)cos(y) + a2 cos(z)."""

    def __init__(self, n, a1=0.1, a2=0.05):
        self.grid = Grid((n, n, n))
        x, y, z = self.grid.coordinate_arrays()
        self.a1, self.a2 = a1, a2
        self.phi = a1 * np.sin(x) * np.cos(y) + a2 * np.cos(z) + 0.0 * z
        e2 = np.exp(2.0 * self.phi)
        vals = np.zeros(self.grid.shape + (3, 3))
        for i in range(3):
            vals[..., i, i] = e2
        self.metric = MetricField(self.grid, packed(vals, 3, 2, symmetric=True))

        shape = self.grid.shape
        dphi = np.zeros(shape + (3,))
        dphi[..., 0] = a1 * np.cos(x) * np.cos(y)
        dphi[..., 1] = -a1 * np.sin(x) * np.sin(y)
        dphi[..., 2] = -a2 * np.sin(z)
        self.dphi = dphi

        hess = np.zeros(shape + (3, 3))
        hess[..., 0, 0] = -a1 * np.sin(x) * np.cos(y)
        hess[..., 0, 1] = -a1 * np.cos(x) * np.sin(y)
        hess[..., 1, 0] = hess[..., 0, 1]
        hess[..., 1, 1] = -a1 * np.sin(x) * np.cos(y)
        hess[..., 2, 2] = -a2 * np.cos(z)
        self.hess_phi = hess

        self.lap_phi = hess[..., 0, 0] + hess[..., 1, 1] + hess[..., 2, 2]
        self.dphi_sq = np.einsum("...a,...a->...", dphi, dphi)

    def christoffel(self):
        """Gamma^k_ij = d^k_i phi_j + d^k_j phi_i - delta_ij phi^k."""
        n = 3
        out = np.zeros(self.grid.shape + (n, n, n))
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    term = 0.0
                    if k == i:
                        term = term + self.dphi[..., j]
                    if k == j:
                        term = term + self.dphi[..., i]
                    if i == j:
                        term = term - self.dphi[..., k]
                    out[..., k, i, j] = term
        return out

    def ricci(self):
        """Ric = -(Hess phi - dphi x dphi) - (lap phi + |dphi|^2) delta."""
        out = -(self.hess_phi
                - np.einsum("...a,...b->...ab", self.dphi, self.dphi))
        trace_part = self.lap_phi + self.dphi_sq
        for i in range(3):
            out[..., i, i] -= trace_part
        return out

    def scalar_curvature(self):
        return np.exp(-2.0 * self.phi) * (-4.0 * self.lap_phi
                                          - 2.0 * self.dphi_sq)

    def laplacian_of(self, f_values, df_values, lap_f_values):
        """Conformal Laplace-Beltrami from flat analytic pieces of f."""
        cross = np.einsum("...a,...a->...", self.dphi, df_values)
        return np.exp(-2.0 * self.phi) * (lap_f_values + cross)


def reference_scalar(grid):
    """A fixed scalar with hand-written flat derivatives, for operator tests."""
    x, y, z = grid.coordinate_arrays()
    f = np.cos(x) * np.sin(y) + 0.5 * np.sin(2.0 * z) + 0.0 * (x + y + z)
    df = np.zeros(grid.shape + (3,))
    df[..., 0] = -np.sin(x) * np.sin(y)
    df[..., 1] = np.cos(x) * np.cos(y)
    df[..., 2] = np.cos(2.0 * z) + 0.0 * (x + y)
    lap = -2.0 * np.cos(x) * np.sin(y) - 2.0 * np.sin(2.0 * z)
    return f, df, lap


def stencil_wavenumber(k, n, period=2.0 * np.pi):
    """Exact symbol of the 4th-order stencil at integer frequency k."""
    h = period / n
    theta = 2.0 * np.pi * k / n
    return (8.0 * np.sin(theta) - np.sin(2.0 * theta)) / (6.0 * h)


def roll_derivative(values, axis, spacing):
    """The 4th-order stencil written with four np.roll copies."""
    up1 = np.roll(values, -1, axis)
    um1 = np.roll(values, 1, axis)
    up2 = np.roll(values, -2, axis)
    um2 = np.roll(values, 2, axis)
    return (8.0 * (up1 - um1) - (up2 - um2)) / (12.0 * spacing)


def ricci_full_stack(g_values, inv_values, spacings):
    """Ricci tensor of a lattice metric from the full stack of Christoffel
    derivatives D_c Gamma^k_ij, contracted afterwards; the reference for the
    kernel that differentiates only the traced components."""
    n = len(spacings)

    def gradient(values):
        return np.stack([roll_derivative(values, a, spacings[a])
                         for a in range(n)], axis=n)

    dg = gradient(g_values)  # [..., c, i, j] = D_c g_ij
    combo = (np.einsum("...ijl->...lij", dg) + np.einsum("...jil->...lij", dg)
             - dg)
    gam = 0.5 * np.einsum("...kl,...lij->...kij", inv_values, combo)
    term1 = np.einsum("...ccij->...ij", gradient(gam))
    phi = np.einsum("...kkj->...j", gam)
    dphi = gradient(phi)
    term2 = 0.5 * (dphi + np.swapaxes(dphi, -1, -2))
    term3 = np.einsum("...l,...lij->...ij", phi, gam)
    term4 = np.einsum("...kil,...lkj->...ij", gam, gam)
    return term1 - term2 + term3 - term4


def _roll_gradient(values, spacings):
    """All stencil derivatives, the derivative axis first among components."""
    n = len(spacings)
    return np.stack([roll_derivative(values, a, spacings[a]) for a in range(n)],
                    axis=n)


# ---------------------------------------------------------------------------
# Connection and curvature on full component storage
# ---------------------------------------------------------------------------
#
# These are the kernels as first written: every one of the n^3 Christoffel
# symbols from all n^3 metric derivatives, index sums as per-point batched
# matmuls and einsums. The package computes the same quantities on the
# n(n+1)/2 independent pairs i <= j of each symmetric index pair.


def christoffel_full(g_values, inv_values, spacings):
    """Gamma[..., k, i, j] = g^kl (D_i g_jl + D_j g_il - D_l g_ij) / 2."""
    n = len(spacings)
    dg = _roll_gradient(g_values, spacings)  # [..., c, i, j] = D_c g_ij
    combo = (np.einsum("...ijl->...lij", dg) + np.einsum("...jil->...lij", dg)
             - dg)
    shape = g_values.shape[:n]
    flat = combo.reshape(shape + (n, n * n))
    return (inv_values @ flat).reshape(combo.shape) * 0.5


def ricci_full(gam, spacings):
    """Ricci tensor from full-storage Christoffel symbols, differentiating
    only the traced D_c Gamma^c_ij and symmetrizing D_i phi_j."""
    n = len(spacings)
    shape = gam.shape[:n]
    term1 = sum(roll_derivative(gam[..., c, :, :], c, spacings[c])
                for c in range(n))
    phi = np.einsum("...kkj->...j", gam)
    dphi = _roll_gradient(phi, spacings)
    term2 = 0.5 * (dphi + np.swapaxes(dphi, -1, -2))
    term3 = (phi[..., None, :] @ gam.reshape(shape + (n, n * n))
             ).reshape(shape + (n, n))
    gam_t = np.ascontiguousarray(np.swapaxes(gam, -3, -2))
    term4 = (gam_t.reshape(shape + (n, n * n))
             @ gam_t.reshape(shape + (n * n, n)))
    return term1 - term2 + term3 - term4


def hessian_full(gam, f_values, spacings):
    """D_i D_j f - Gamma^k_ij D_k f over all n^2 index pairs."""
    df = _roll_gradient(f_values, spacings)
    ddf = _roll_gradient(df, spacings)
    return ddf - np.einsum("...kij,...k->...ij", gam, df)


def lie_derivative_full(gam, g_values, x_values, spacings):
    """D_i X_j + D_j X_i - 2 Gamma^k_ij X_k of the lowered field."""
    xl = np.einsum("...ja,...a->...j", g_values, x_values)
    dxl = _roll_gradient(xl, spacings)  # [..., i, j] = D_i X_j
    gam_term = np.einsum("...kij,...k->...ij", gam, xl)
    return dxl + np.swapaxes(dxl, -1, -2) - 2.0 * gam_term


def deturck_vector_full(gam, gam_ref, inv_values):
    """X^k = g^ij (Gamma^k_ij - Gamma_ref^k_ij) over all n^2 index pairs."""
    n = inv_values.shape[-1]
    shape = inv_values.shape[:-2]
    diff = (gam - gam_ref).reshape(shape + (n, n * n))
    return (diff @ inv_values.reshape(shape + (n * n, 1)))[..., 0]


def _map_all_slots(values, pairing, rank):
    """Contract every component slot of a rank-k array with a pointwise matrix."""
    src, dst = "abcd"[:rank], "efgh"[:rank]
    pair_terms = ",".join(f"...{d}{s}" for d, s in zip(dst, src))
    return np.einsum(f"{pair_terms},...{src}->...{dst}", *([pairing] * rank),
                     values, optimize=True)


def exterior_derivative_full(values, spacings, k):
    """d of a k-form on full component storage: every one of the n^k
    components differentiated, permuted copies of the gradient summed."""
    n = len(spacings)
    grad = _roll_gradient(values, spacings)
    out = grad.copy()
    for m in range(1, k + 1):
        term = np.moveaxis(grad, n, n + m)
        out = out - term if m % 2 else out + term
    return out


def codifferential_full(values, g_values, inv_values, sqrt_det, spacings, k):
    """d* of a k-form on full component storage: raise every slot with g^-1,
    take the weighted stencil divergence, lower every slot with g."""
    n = len(spacings)
    raised = _map_all_slots(values, inv_values, k)
    weighted = sqrt_det[(...,) + (None,) * k] * raised
    tail = (slice(None),) * (k - 1)
    acc = np.zeros(values.shape[:n] + (n,) * (k - 1))
    for c in range(n):
        acc = acc - roll_derivative(weighted[(Ellipsis, c) + tail], c,
                                    spacings[c])
    acc = acc / sqrt_det[(...,) + (None,) * (k - 1)]
    return acc if k == 1 else _map_all_slots(acc, g_values, k - 1)


def h_squared_full(h_values, inv_values):
    """(H^2)_ij = H_iab H_jcd g^ac g^bd over all index pairs."""
    return np.einsum("...iab,...ac,...bd,...jcd->...ij", h_values, inv_values,
                     inv_values, h_values, optimize=True)


def leibniz_det(values):
    """Pointwise determinant of a k x k matrix field on full storage: the
    Leibniz sum over the permutations in itertools order, each product taken
    row by row and each signed term added to a running sum from 0.0."""
    k = values.shape[-1]
    total = 0.0
    for perm in itertools.permutations(range(k)):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        term = values[..., 0, perm[0]]
        for r in range(1, k):
            term = term * values[..., r, perm[r]]
        total = total + (-1.0) ** inversions * term
    return total


def inverse_and_det_full(values):
    """Pointwise inverse and determinant of a symmetric matrix field by
    cofactors on full storage: the minor M_ij for i >= j is the Leibniz
    determinant of values with row i and column j deleted, M_ji = M_ij,
    det = sum_j (-1)^j g_0j M_0j from 0, and g^ij = (-1)^(i+j) M_ij / det."""
    n = values.shape[-1]
    minor = {}
    for i in range(n):
        for j in range(i + 1):
            sub = np.delete(np.delete(values, i, axis=-2), j, axis=-1)
            minor[i, j] = minor[j, i] = leibniz_det(sub)
    det = 0.0
    for j in range(n):
        det = det + values[..., 0, j] * ((-1.0) ** j * minor[0, j])
    inv = np.empty(values.shape)
    for i, j in itertools.product(range(n), repeat=2):
        inv[..., i, j] = (-1.0) ** (i + j) * minor[i, j] / det
    return inv, det


def form_inner_full(a_values, b_values, inv_values, k):
    """<a, b>_g with every one of the n^k index tuples of both operands, by
    one einsum: the pairing of forms, and for k = 2 of any 2-tensors, as it
    was first written."""
    idx_a, idx_b = "abcd"[:k], "efgh"[:k]
    pair_terms = ",".join(f"...{i}{j}" for i, j in zip(idx_a, idx_b))
    return np.einsum(f"...{idx_a},{pair_terms},...{idx_b}->...", a_values,
                     *([inv_values] * k), b_values, optimize=True)


def interior_product_full(x_values, w_values, k):
    """X^a w_{a...} summed over every component of w."""
    rest = "bcd"[:k - 1]
    return np.einsum(f"...a,...a{rest}->...{rest}", x_values, w_values)


def laplacian_einsum(values, inv_values, sqrt_det, spacings):
    """(1/sqrt g) D_a(sqrt g g^ab D_b u) with the flux contracted by einsum
    over the full g^ab, as the scalar Laplacian was first written."""
    n = len(spacings)
    flux = sqrt_det[..., None] * np.einsum(
        "...ab,...b->...a", inv_values, _roll_gradient(values, spacings))
    div = sum(roll_derivative(flux[..., a], a, spacings[a]) for a in range(n))
    return div / sqrt_det


def _nyquist_mask(shape):
    """The Fourier modes with k_a = N_a/2 on some axis, in fftn layout."""
    mask = np.zeros(shape, dtype=bool)
    for a, n in enumerate(shape):
        mask[(slice(None),) * a + (n // 2,)] = True
    return mask


def fft_nyquist_projection(u):
    """Projection onto the Nyquist band by a complex FFT round trip."""
    coeff = np.fft.fftn(u)
    return np.real(np.fft.ifftn(np.where(_nyquist_mask(u.shape), coeff, 0.0)))


def complex_fft_preconditioner(op, sigma, r):
    """The Schrodinger CG preconditioner on the full complex spectrum: the
    exact inverse of mean(sqrt g) (4 |k|^2 + c0) plus the Nyquist penalty,
    with c0 = max(mean(potential) - sigma, 0.1)."""
    grid = op.grid
    n = grid.n_dims
    sym_sq = np.zeros(grid.shape)
    for a, m in enumerate(grid.resolutions):
        k = stencil_wavenumber(np.fft.fftfreq(m) * m, m, grid.periods[a])
        sym_sq = sym_sq + (k ** 2).reshape((m,) + (1,) * (n - 1 - a))
    c0 = max(float(np.mean(op.potential)) - sigma, 0.1)
    symbol = (float(np.mean(op.g.sqrt_det_values)) * (4.0 * sym_sq + c0)
              + op.penalty * _nyquist_mask(grid.shape))
    return np.real(np.fft.ifftn(np.fft.fftn(r) / symbol))


def real_fft_preconditioner(op, sigma, r):
    """The same preconditioner on the real-FFT half spectrum, rfftn, a divide
    by the symbol and irfftn, as the eigensolver first applied it."""
    grid = op.grid
    shape, n = grid.shape, grid.n_dims
    half = shape[:-1] + (shape[-1] // 2 + 1,)
    sym_sq = np.zeros(half)
    for a, m in enumerate(shape):
        k = stencil_wavenumber(np.fft.fftfreq(m) * m, m, grid.periods[a])[:half[a]]
        sym_sq = sym_sq + (k ** 2).reshape((half[a],) + (1,) * (n - 1 - a))
    c0 = max(float(np.mean(op.potential)) - sigma, 0.1)
    symbol = (float(np.mean(op.g.sqrt_det_values)) * (4.0 * sym_sq + c0)
              + op.penalty * _nyquist_mask(shape)[..., :half[-1]])
    axes = tuple(range(n))
    return np.fft.irfftn(np.fft.rfftn(r, axes=axes) / symbol, s=shape, axes=axes)


def interpolate_grid_wrap(values, coords_index):
    """Periodic cubic spline of one component at grid-index coordinates, one
    prefiltering map_coordinates call in grid-wrap mode, as the diffeomorphism
    layer first interpolated every component."""
    return map_coordinates(values, coords_index, order=3, mode="grid-wrap",
                           prefilter=True)


def displacement_jacobian_full(u_values, spacings):
    """J[..., a, i] = d(x^a + u^a)/dx^i, one stencil call per component."""
    n = len(spacings)
    jac = np.zeros(u_values.shape[:-1] + (n, n))
    for a in range(n):
        for i in range(n):
            jac[..., a, i] = roll_derivative(u_values[..., a], i, spacings[i])
        jac[..., a, a] += 1.0
    return jac


def pullback_full(u_values, values, spacings, symmetric=False):
    """psi* T for psi = id + u on full component storage: each of the n^k
    components interpolated, each slot contracted with the Jacobian in turn,
    a symmetric 2-tensor symmetrized afterwards."""
    n = len(spacings)
    axes = [np.arange(m) * h for m, h in zip(u_values.shape[:n], spacings)]
    base = np.meshgrid(*axes, indexing="ij")
    coords_index = np.stack([(base[a] + u_values[..., a]) / spacings[a]
                             for a in range(n)], axis=0)
    out = np.empty_like(values)
    for comp in np.ndindex(*values.shape[n:]):
        out[(...,) + comp] = interpolate_grid_wrap(values[(...,) + comp],
                                                   coords_index)
    jac = displacement_jacobian_full(u_values, spacings)
    for slot in range(values.ndim - n):
        out = np.moveaxis(out, n + slot, -1)
        extra = out.ndim - n - 1
        jac_view = jac.reshape(jac.shape[:n] + (1,) * extra + (n, n))
        out = np.einsum("...a,...ai->...i", out, jac_view)
        out = np.moveaxis(out, -1, n + slot)
    if symmetric:
        out = 0.5 * (out + np.swapaxes(out, -1, -2))
    return out


def trig_polynomial_full(grid, rng, component_shape=(), cutoff=1):
    """trig_polynomial as first written: every mode's phase, cosine and sine
    on the full grid, summed out of place. Same draws, same terms, same
    order; no Nyquist check. Component major, as the package stores
    fields."""
    modes = _positive_modes(grid.n_dims, cutoff)
    coeffs = rng.uniform(-1.0, 1.0, size=(len(modes),) + tuple(component_shape) + (2,))
    angular = [2.0 * np.pi * x / p
               for x, p in zip(grid.coordinate_arrays(), grid.periods)]
    out = np.zeros(tuple(component_shape) + grid.shape)
    for m, k in enumerate(modes):
        phase = np.zeros(grid.shape)
        for a, k_a in enumerate(k):
            if k_a != 0:
                phase = phase + k_a * angular[a]
        cos, sin = np.cos(phase), np.sin(phase)
        a_k = coeffs[m, ..., 0]
        b_k = coeffs[m, ..., 1]
        out = out + np.multiply.outer(a_k, cos) + np.multiply.outer(b_k, sin)
    return out


# ---------------------------------------------------------------------------
# Lojasiewicz feasibility cap, sample by sample
# ---------------------------------------------------------------------------


def feasible_cap_loop(log_lam, log_grad):
    """Largest theta <= 1/2 with log grad >= (1 - theta) log |mu| pointwise,
    as first written: one pass over the samples with three flags.

    Samples with |mu| < 1 bound theta from above, samples with |mu| > 1 from
    below; |mu| = 1 samples just require grad >= 1. Returns (cap, feasible).
    """
    upper = 0.5
    lower = 0.0
    feasible = True
    for x, y in zip(log_lam, log_grad):
        ratio = 1.0 - y / x if x != 0.0 else None
        if x < 0.0:
            upper = min(upper, ratio)
        elif x > 0.0:
            lower = max(lower, ratio)
        elif y < 0.0:
            feasible = False
    if upper <= lower or upper <= 0.0:
        feasible = False
    return upper, feasible


# ---------------------------------------------------------------------------
# The invariant 3-form on a 3D group, contracted in full
# ---------------------------------------------------------------------------


def _levi_civita():
    eps = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[i, j, k], eps[i, k, j] = 1.0, -1.0
    return eps


def invariant_h_squared_einsum(g, h3):
    """(H^2)_{ij} = H_{iab} H_{jcd} g^{ac} g^{bd} of H = h3 e^123, as first
    written: the 27 components H_{ijk} = h3 epsilon_{ijk} and one einsum."""
    h, inv = h3 * _levi_civita(), np.linalg.inv(g)
    return np.einsum("iab,jcd,ac,bd->ij", h, h, inv, inv)


def invariant_norm_sq_einsum(g, h3):
    """|H|^2 = H_{ijk} H^{ijk} of H = h3 e^123, the full contraction."""
    h, inv = h3 * _levi_civita(), np.linalg.inv(g)
    return float(np.einsum("ijk,abc,ia,jb,kc->", h, h, inv, inv, inv))


# ---------------------------------------------------------------------------
# Flow right-hand sides composed kernel by kernel
# ---------------------------------------------------------------------------


def grf_rhs_reference(state):
    """(dg, db) of the plain coupled flow from the validated field strength."""
    g, H = state.g, state.field_strength().values
    dg = -2.0 * ricci_values(g) + 0.5 * h_squared_values(g, H)
    return dg, -codifferential_values(g, H, 3)


def deturck_rhs_reference(state, g_ref):
    """(dg, db, X) of the DeTurck-gauged flow, one kernel per term."""
    g, H = state.g, state.field_strength().values
    x = deturck_vector_values(g, g_ref)
    dg = (-2.0 * ricci_values(g) + 0.5 * h_squared_values(g, H)
          + lie_derivative_metric_values(g, x))
    db = -codifferential_values(g, H, 3) + interior_product_values(x, H, 3)
    return dg, db, x


def mu_rhs_reference(state):
    """(dg, db, solution) of the mu-gradient flow, one kernel per term: half
    the gauged pair (-2 Ric + H^2/2 + L_X g, -d* H + X . H) at X = -grad f."""
    g, H = state.g, state.field_strength().values
    sol = lowest_eigenpair(g, state.field_strength())
    x = -gradient_vector_values(g, sol.f.values)
    dg = (-2.0 * ricci_values(g) + 0.5 * h_squared_values(g, H)
          + lie_derivative_metric_values(g, x))
    db = -codifferential_values(g, H, 3) + interior_product_values(x, H, 3)
    return 0.5 * dg, 0.5 * db, sol
