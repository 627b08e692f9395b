"""Closed-form reference data shared across test modules.

The conformal family g = e^{2 phi} delta on the 3-torus is the workhorse: its
Christoffel symbols, Ricci tensor, scalar curvature and Laplacian have short
analytic expressions, and phi below is a low-frequency trigonometric
polynomial whose derivatives are written out by hand. Nothing here calls the
package's stencils, so agreement is evidence rather than tautology.
"""

import numpy as np

from grflab import Grid, MetricField


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
        self.metric = MetricField(self.grid, vals)

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


def form_inner_full(a_values, b_values, inv_values, k):
    """<a, b>_g with every one of the n^k index tuples of both forms."""
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
