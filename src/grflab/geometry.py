"""Riemannian operators and exterior calculus over the lattice layer.

Index conventions: metrics, 2-forms and 3-forms are covariant; "vector"
fields are contravariant. Form norms use full index contraction
(|H|^2 = H_ijk H^ijk with all index triples counted), which is the
normalization under which tr_g(H^2) = |H|^2 pointwise.

Every field and kernel array is packed and component major (see lattice):
a k-form holds its C(n,k) increasing-index components, a symmetric 2-tensor
its n(n+1)/2 pairs i <= j, a vector its n components, each plane one
contiguous block before the grid axes. The exterior-calculus kernels take
the degree k of their form argument and move its indices with k x k minors
of g or g^-1; the connection, Ricci and Lie-derivative kernels compute on
the pairs i <= j. The Christoffel symbols are cached on those pairs
(christoffel_values).

MetricField keeps g and g^-1 packed, read-only, and once per metric the full
(n, n) + grid matrix of g^-1, which the index sums contract. Each pointwise
index sum is one np.einsum over such planes with the grid axes last. No
einsum in the package passes `optimize`, so none is planned into pairwise or
BLAS products: the terms are added in index order, plane by plane. The
minors-based kernels keep their Leibniz multiply-adds on the packed planes.

Fields are validated where they enter or leave the system (MetricField,
ScalarField, TensorField), not in between. A metric is certified where it
enters, by MetricField: positivity by the pivots of an LDL^T, then its
inverse and determinant by cofactors of the (n-1) x (n-1) minors that the
form kernels expand too, the inverse checked by max |g g^-1 - I|.

The codifferential is the exact adjoint of the discrete exterior derivative
for the inner product that counts each increasing index tuple once (the
classical normalization), so it reduces to minus the contracted covariant
divergence, discrete d(d(.)) and d*(d*(.)) vanish identically, and the Hodge
Laplacian -(dd* + d*d) is exactly self-adjoint and nonpositive. Against the
full-contraction pairing of weighted_inner the same adjointness reads
<d a, b> = (k+1) <a, d* b> on (k+1)-forms.

gauged_grf_values assembles every right-hand side of the package: the
generalized Ricci flow pair moved along a gauge vector (see flow).
"""

from __future__ import annotations

import numpy as np

from .errors import PositivityError
from .lattice import (
    ScalarField,
    TensorField,
    apply_minors,
    diff_values,
    gradient_values,
    increasing_tuples,
    pointwise_inner_values,
    pointwise_minors,
    slot_pairs,
    symmetric_pairs,
)

EPS_SPD = 1e-8
_INVERSE_TOL = 1e-12


class MetricField:
    """Symmetric positive definite 2-tensor with cached inverse and volume density.

    Positivity means every pointwise eigenvalue exceeds EPS_SPD: Cholesky's
    test, each pivot of the unpivoted LDL^T of g - EPS_SPD I positive. Data
    violating it, or with max |g g^-1 - I| above 1e-12, is rejected outright
    rather than regularized, so a flow that drifts out of the metric cone
    fails loudly at the offending step. Curvature quantities are computed
    lazily and cached per instance.

    values and inv_components hold g and g^-1 packed, shape
    (n(n+1)/2,) + grid shape in symmetric_pairs order, read-only. _inv_full
    is g^-1 gathered once into its full (n, n) + grid matrix, read-only,
    whose planes the kernels' index sums contract. g^-1 and sqrt_det_values
    come from the cofactors of g (_inverse_and_det). Its kind is a
    symmetric 2-tensor's, so it passes require_field wherever one is asked,
    and it alone passes where a ("metric", 2) is asked.
    """

    symmetry, rank, is_metric = "symmetric2", 2, True

    def __init__(self, grid, values):
        self.grid = grid
        self.values = TensorField(grid, values, "symmetric2").values
        n = grid.n_dims
        table = symmetric_pairs(n)[2]
        if not _pivots_positive(self.values, table, EPS_SPD):
            raise PositivityError(
                f"metric has a pointwise eigenvalue below {EPS_SPD:g}")
        inv, det = _inverse_and_det(self.values, n)
        inv_full = inv[table]
        res = np.einsum("ik...,kj...->ij...", self.values[table], inv_full)
        res[range(n), range(n)] -= 1.0
        gap = float(np.max(np.abs(res, out=res)))
        if gap > _INVERSE_TOL:
            raise PositivityError(f"metric inverse residual {gap:.3e} exceeds 1e-12")
        sq = np.sqrt(det)
        for arr in (inv, inv_full, sq):
            arr.setflags(write=False)
        self.inv_components = inv
        self._inv_full = inv_full
        self.sqrt_det_values = sq
        self._cache = {}

    def max_inverse_eigenvalue(self):
        """Largest pointwise eigenvalue of g^-1, bit for bit that of eigvalsh
        at every point. A point's eigenvalue lies between its largest diagonal
        entry and its largest absolute row sum (Gershgorin), so eigvalsh runs
        only where that sum reaches the global diagonal maximum (less 1e-12
        relative, for rounding)."""
        n = self.grid.n_dims
        floor = np.max(self._inv_full[range(n), range(n)])
        rows = np.max(np.sum(np.abs(self._inv_full), axis=1), axis=0)
        candidates = np.moveaxis(self._inv_full, (0, 1), (-2, -1))[
            rows >= (1.0 - 1e-12) * floor]
        return float(np.max(np.linalg.eigvalsh(candidates)))

    def _cached(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]


def _pivots_positive(comps, table, shift):
    """Whether the packed symmetric field comps - shift I is positive
    definite everywhere: Cholesky's test, every pivot of its unpivoted LDL^T
    positive (Sylvester). Stops at the first failing pivot."""
    s = [[comps[table[i, j]] for j in range(i + 1)] for i in range(len(table))]
    for k in range(len(s)):
        pivot = s[k][k] - shift  # the shift enters the diagonal only
        if not pivot.min() > 0.0:
            return False
        for i in range(k + 1, len(s)):
            factor = s[i][k] / pivot
            for j in range(k + 1, i + 1):
                s[i][j] = s[i][j] - factor * s[j][k]
    return True


def _inverse_and_det(comps, n):
    """Pointwise inverse, packed, and determinant of a packed symmetric
    matrix field by cofactors of the (n-1) x (n-1) minors M_ij of
    pointwise_minors: det by the first-row Laplace expansion, then
    g^ij = (-1)^(i+j) M_ij / det.

    An odd cofactor is 0.0 - M_ij, which is -M_ij except that a zero minor
    gives +0.0: a diagonal matrix's inverse has +0.0 off its diagonal. det
    is positive only for a matrix already certified positive definite.
    """
    minors = pointwise_minors(comps, n - 1)

    def cofactor(i, j):
        m = minors[n - 1 - i][n - 1 - j]  # tuple n - 1 - i omits index i
        return m if (i + j) % 2 == 0 else 0.0 - m

    # the first n pairs are (0, j)
    det = sum(comps[j] * cofactor(0, j) for j in range(n))
    inv = np.empty(comps.shape)
    for p, (i, j) in enumerate(zip(*symmetric_pairs(n)[:2])):
        np.divide(cofactor(i, j), det, out=inv[p])
    return inv, det


def identity_values(grid):
    """Packed components of the identity metric on grid."""
    i, j, _ = symmetric_pairs(grid.n_dims)
    values = np.zeros((len(i),) + grid.shape)
    values[i == j] = 1.0
    return values


def flat_metric(grid):
    """The identity metric."""
    return MetricField(grid, identity_values(grid))


def christoffel_values(g):
    """Cached Christoffel symbols on the independent lower pairs, component
    major: Gamma[k, p] = Gamma^k_ij for the p-th pair i <= j of
    symmetric_pairs, shape (n, n(n+1)/2) + grid shape.

    Only the derivatives D_c g_ij with i <= j are taken; the first-kind
    symbols (D_i g_jl + D_j g_il - D_l g_ij) / 2 are built from them in place
    and raised with g^kl by one einsum.
    """
    def build():
        grid = g.grid
        n = grid.n_dims
        i, j, table = symmetric_pairs(n)
        dg = gradient_values(grid, g.values)  # [c, p] = D_c g_p
        first = np.empty((n,) + g.values.shape)  # [l, p] = Gamma_l,ij
        for l in range(n):
            for p in range(len(i)):
                plane = first[l, p]
                np.add(dg[i[p]][table[j[p], l]], dg[j[p]][table[i[p], l]],
                       out=plane)
                plane -= dg[l][p]
        first *= 0.5
        return np.einsum("km...,mp...->kp...", g._inv_full, first)
    return g._cached("christoffel", build)


def ricci_values(g):
    """Ricci tensor from the curvature of the Levi-Civita connection, its
    four terms computed on the pairs i <= j."""
    def build():
        grid = g.grid
        n = grid.n_dims
        i, j, table = symmetric_pairs(n)
        k = np.arange(n)
        gam = christoffel_values(g)
        # only the traced derivatives sum_c D_c Gamma^c_ij enter Ric
        term1 = sum(diff_values(gam[c], 1 + c, grid.spacings[c])
                    for c in range(n))
        # Gamma^k_kj contracted once; its coordinate gradient is symmetrized
        # explicitly because the discrete product rule leaves an O(h^4)
        # antisymmetric remainder that would otherwise leak into Ric.
        phi = np.sum(gam[k[:, None], table[k[:, None], k]], axis=0)
        dphi = gradient_values(grid, phi)  # [i, j] = D_i phi_j
        term2 = 0.5 * (dphi[i, j] + dphi[j, i])
        term3 = np.einsum("m...,mp...->p...", phi, gam)
        # sum_ab Gamma^a_ib Gamma^b_ja over the row blocks [a, b] = Gamma^a_mb
        rows = [gam[:, table[m]] for m in range(n)]
        term4 = np.empty_like(term3)
        for p in range(len(i)):
            np.einsum("ab...,ba...->...", rows[i[p]], rows[j[p]], out=term4[p])
        return term1 - term2 + term3 - term4
    return g._cached("ricci", build)


def scalar_curvature_values(g):
    def build():
        # summed over the full matrices, in the order i, j
        ric = ricci_values(g)[symmetric_pairs(g.grid.n_dims)[2]]
        return np.einsum("ij...,ij...->...", g._inv_full, ric)
    return g._cached("scalar_curvature", build)


def scalar_curvature(g):
    """Scalar curvature R = g^ij Ric_ij."""
    return ScalarField(g.grid, scalar_curvature_values(g))


def gradient_vector_values(g, f_values):
    """Metric gradient g^ab D_b f of a scalar array, a contravariant array."""
    return np.einsum("ab...,b...->a...", g._inv_full,
                     gradient_values(g.grid, f_values))


def laplacian_values(g, values):
    """Scalar Laplacian (1/sqrt g) D_a(sqrt g g^ab D_b u) of a grid array, with
    the sign convention Delta = -(d*d), nonpositive.

    It is self-adjoint against the volume-weighted quadrature exactly, by the
    skew-adjointness of the stencil, not merely to truncation order. That
    needs exactly symmetric flux coefficients sqrt g g^ab, which they are
    because g^-1 is; they are cached on the metric as a full matrix, and the
    fluxes are one einsum over them.
    """
    grid = g.grid
    n, h = grid.n_dims, grid.spacings
    coeff = g._cached("flux_coefficients",
                      lambda: g.sqrt_det_values * g._inv_full)
    flux = np.einsum("ab...,b...->a...", coeff, gradient_values(grid, values))
    div = np.zeros(values.shape)
    for a in range(n):
        div += diff_values(flux[a], a, h[a])
    return np.divide(div, g.sqrt_det_values, out=div)


def lie_derivative_metric_values(g, x_values):
    """Lie derivative L_X g of the metric along a vector array: the
    symmetrized covariant derivative D_i X_j + D_j X_i - 2 Gamma^k_ij X_k of
    the lowered field, computed on the pairs i <= j."""
    i, j, table = symmetric_pairs(g.grid.n_dims)
    xl = np.einsum("ab...,b...->a...", g.values[table], x_values)
    dxl = gradient_values(g.grid, xl)  # [i, j] = D_i X_j
    gam_term = np.einsum("kp...,k...->p...", christoffel_values(g), xl)
    return dxl[i, j] + dxl[j, i] - 2.0 * gam_term


# ---------------------------------------------------------------------------
# Exterior calculus
# ---------------------------------------------------------------------------


def exterior_derivative_values(grid, values, k):
    """Discrete exterior derivative of a packed k-form array (a grid array
    for k = 0), a packed (k + 1)-form.

    (d w)_{a0..ak} = sum_m (-1)^m D_{a_m} w_{a0..^a_m..ak}, computed on the
    increasing index tuples; d(d w) = 0 holds because coordinate stencils
    commute. A (k + 1)-form with k + 1 > n has no component.
    """
    comps = values if k else [values]
    out = np.zeros((len(increasing_tuples(grid.n_dims, k + 1)),) + grid.shape)
    for a, j, sign, p in slot_pairs(grid.n_dims, k + 1):
        out[p] += sign * diff_values(comps[j], a, grid.spacings[a])
    return out


def codifferential_values(g, values, k):
    """Codifferential d* of a packed k-form array, k >= 1: the exact discrete
    adjoint of exterior_derivative_values, a (k-1)-form (a grid array for
    k = 1).

    Computed as the musical conjugation of the negative stencil divergence:
    d* w = lower((-1/sqrt g) D_c (sqrt g raise(w)^{c...})), raising with the
    k x k minors of g^-1 and lowering with the (k-1) x (k-1) minors of g. On
    a flat metric this is (d* w)_J = -D_c w_{cJ}, the classical
    codifferential; composed twice it vanishes identically. Against
    weighted_inner's full-contraction pairing, <d a, b> = k <a, d* b>.
    """
    n = g.grid.n_dims
    sq = g.sqrt_det_values
    raised = apply_minors(pointwise_minors(g.inv_components, k), values)
    weighted = [sq * w for w in raised]
    acc = np.zeros((len(increasing_tuples(n, k - 1)),) + g.grid.shape)
    for c, j, sign, p in slot_pairs(n, k):
        acc[j] -= sign * diff_values(weighted[p], c, g.grid.spacings[c])
    acc /= sq
    if k == 1:
        return acc[0]
    return np.stack(apply_minors(pointwise_minors(g.values, k - 1), acc))


def hodge_laplacian_values(g, values, k):
    """Hodge Laplacian -(d d* + d* d) of a packed k-form array (a grid array
    for k = 0): exactly self-adjoint and nonpositive. On a flat metric it
    acts componentwise as the flat scalar Laplacian."""
    grid = g.grid
    total = 0
    if k > 0:
        total = exterior_derivative_values(
            grid, codifferential_values(g, values, k), k - 1)
    if k < grid.n_dims:
        total = total + codifferential_values(
            g, exterior_derivative_values(grid, values, k), k + 1)
    return -total


def interior_product_values(x_values, values, k):
    """Contraction X . w of a vector array into the first slot of a packed
    k-form array, a (k-1)-form (a grid array for k = 1); it has only zero
    components when k > n, where w vanishes."""
    n = len(x_values)
    out = np.zeros((len(increasing_tuples(n, k - 1)),) + x_values.shape[1:])
    for a, j, sign, p in slot_pairs(n, k):
        out[j] += sign * x_values[a] * values[p]
    return out[0] if k == 1 else out


def h_squared_values(g, h_values):
    """Pointwise square of a packed 3-form array as a packed symmetric
    2-tensor.

    (H^2)_ij = H_iab H_jcd g^ac g^bd = 2 sum_{a<b} H_iab H_j^{ab}, with the
    raised pair from the 2 x 2 minors of g^-1; with the full-contraction norm
    this satisfies tr_g H^2 = |H|^2 identically.
    """
    n = g.grid.n_dims
    slots = [[None] * len(increasing_tuples(n, 2)) for _ in range(n)]
    for i, j, sign, p in slot_pairs(n, 3):
        slots[i][j] = sign * h_values[p]  # the 2-form H_i.. on increasing pairs
    minors = pointwise_minors(g.inv_components, 2)
    out = np.empty(g.values.shape)
    table = symmetric_pairs(n)[2]
    for j in range(n):
        up = apply_minors(minors, slots[j])
        for i in range(j + 1):
            out[table[i, j]] = 2.0 * sum(
                h * u for h, u in zip(slots[i], up) if h is not None)
    return out


def form_norm_sq_values(g, values):
    """Pointwise squared norm of a packed k-form, k >= 2, with full index
    contraction."""
    return pointwise_inner_values(values, values, "antisymmetric", g)


def deturck_vector_values(g, g_ref):
    """Gauge vector X^k = g^ij (Gamma(g)^k_ij - Gamma(g_ref)^k_ij), summed over
    the pairs i <= j with the off-diagonal ones counted twice.

    Measures the failure of the identity map (M, g) -> (M, g_ref) to be
    harmonic; vanishes identically when both metrics are constant.
    """
    i, j, _ = symmetric_pairs(g.grid.n_dims)
    weight = g.inv_components.copy()
    weight[i != j] *= 2.0
    diff = christoffel_values(g) - christoffel_values(g_ref)
    return np.einsum("kp...,p...->k...", diff, weight)


def gauged_grf_values(g, h_values, x_values):
    """The generalized Ricci flow pair of g and the 3-form array h_values
    moved along the vector array x_values, (-2 Ric + H^2/2 + L_X g,
    -d* H + X . H); None adds no gauge term. d(X . H) is L_X H on closed H."""
    dg = -2.0 * ricci_values(g) + 0.5 * h_squared_values(g, h_values)
    db = -codifferential_values(g, h_values, 3)
    if x_values is not None:
        dg += lie_derivative_metric_values(g, x_values)
        db += interior_product_values(x_values, h_values, 3)
    return dg, db
