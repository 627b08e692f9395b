"""Riemannian operators and exterior calculus over the lattice layer.

Index conventions: metrics, 2-forms and 3-forms are covariant with full
component storage; "vector" fields are contravariant. Form norms use full
index contraction (|H|^2 = H_ijk H^ijk with all index triples counted), which
is the normalization under which tr_g(H^2) = |H|^2 pointwise.

Forms are stored in full, but the exterior-calculus kernels compute on the
C(n,k) increasing-index components of a k-form only: metric index moves use
k x k minors of g or g^-1, and each result is expanded to full storage once,
which makes it exactly antisymmetric.

The codifferential is the exact adjoint of the discrete exterior derivative
for the inner product that counts each increasing index tuple once (the
classical normalization), so it reduces to minus the contracted covariant
divergence, discrete d(d(.)) and d*(d*(.)) vanish identically, and the Hodge
Laplacian -(dd* + d*d) is exactly self-adjoint and nonpositive. Against the
full-contraction pairing of weighted_inner the same adjointness reads
<d a, b> = (k+1) <a, d* b> on (k+1)-forms.
"""

from __future__ import annotations

import numpy as np

from .errors import FieldError, PositivityError
from .lattice import (
    ScalarField,
    TensorField,
    apply_minors,
    contract,
    diff_values,
    expand_form,
    form_components,
    gradient_values,
    increasing_tuples,
    pointwise_inner_values,
    pointwise_minors,
    slot_pairs,
)

EPS_SPD = 1e-8
_INVERSE_TOL = 1e-12


class MetricField:
    """Symmetric positive definite 2-tensor with cached inverse and volume density.

    Positivity means every pointwise eigenvalue is at least EPS_SPD; data
    violating the floor is rejected outright rather than regularized, so a
    flow that drifts out of the metric cone fails loudly at the offending
    step. Curvature quantities are computed lazily and cached per instance.
    """

    def __init__(self, grid, values):
        self.grid = grid
        field = TensorField(grid, values, "symmetric2")
        self.values = field.values
        n = grid.n_dims
        eye = np.eye(n)
        try:
            np.linalg.cholesky(self.values - EPS_SPD * eye)
        except np.linalg.LinAlgError as exc:
            raise PositivityError(
                f"metric has a pointwise eigenvalue below {EPS_SPD:g}"
            ) from exc
        inv, det = _inverse_and_det(self.values)
        gap = float(np.max(np.abs(self.values @ inv - eye)))
        if gap > _INVERSE_TOL:
            raise PositivityError(f"metric inverse residual {gap:.3e} exceeds 1e-12")
        inv.setflags(write=False)
        self.inv_values = inv
        sq = np.sqrt(det)
        sq.setflags(write=False)
        self.sqrt_det_values = sq
        self._cache = {}

    @property
    def field(self):
        return TensorField(self.grid, self.values, "symmetric2")

    @property
    def n_dims(self):
        return self.grid.n_dims

    def min_eigenvalue(self):
        return float(np.min(np.linalg.eigvalsh(self.values)))

    def max_inverse_eigenvalue(self):
        return float(np.max(np.linalg.eigvalsh(self.inv_values)))

    def _cached(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]


def _inverse_and_det(values):
    """Pointwise inverse and determinant by Gauss-Jordan elimination over the
    component axes, vectorized over the grid.

    No pivoting: that is safe only for matrices already certified positive
    definite, whose pivots are all positive. Zero off-diagonal entries
    eliminate nothing, so a diagonal matrix gets its exact reciprocal inverse.
    """
    n = values.shape[-1]
    a = np.moveaxis(values, (-2, -1), (0, 1)).copy()
    inv = np.zeros_like(a)
    inv[range(n), range(n)] = 1.0
    det = 1.0
    for k in range(n):
        pivot = a[k, k].copy()
        det = det * pivot
        a[k] /= pivot
        inv[k] /= pivot
        for i in range(n):
            if i != k:
                factor = a[i, k].copy()
                a[i] -= factor * a[k]
                inv[i] -= factor * inv[k]
    return np.ascontiguousarray(np.moveaxis(inv, (0, 1), (-2, -1))), det


def flat_metric(grid, diagonal=None):
    """Constant metric, identity by default or with a given diagonal."""
    n = grid.n_dims
    diag = np.ones(n) if diagonal is None else np.asarray(diagonal, dtype=float)
    values = np.zeros(grid.shape + (n, n))
    values[...] = np.diag(diag)
    return MetricField(grid, values)


def christoffel_values(g):
    """Raw Christoffel symbols, layout Gamma[..., k, i, j] with upper index first."""
    def build():
        dg = gradient_values(g.grid, g.values)  # [..., c, i, j] = D_c g_ij
        di_gjl = np.einsum("...ijl->...lij", dg)
        dj_gil = np.einsum("...jil->...lij", dg)
        dl_gij = dg
        combo = di_gjl + dj_gil - dl_gij
        n = g.grid.n_dims
        flat = combo.reshape(g.grid.shape + (n, n * n))
        return (g.inv_values @ flat).reshape(combo.shape) * 0.5
    return g._cached("christoffel", build)


def christoffel(g):
    """Levi-Civita connection coefficients Gamma^k_ij of the metric.

    Exactly symmetric in the lower index pair by construction.
    """
    return TensorField(g.grid, christoffel_values(g), "general")


def ricci_values(g):
    def build():
        grid = g.grid
        gam = christoffel_values(g)
        n = grid.n_dims
        # only the traced derivatives sum_c D_c Gamma^c_ij enter Ric
        term1 = sum(diff_values(gam[..., c, :, :], c, grid.spacings[c])
                    for c in range(n))
        # Gamma^k_kj contracted once; its coordinate gradient is symmetrized
        # explicitly because the discrete product rule leaves an O(h^4)
        # antisymmetric remainder that would otherwise leak into Ric.
        phi = np.einsum("...kkj->...j", gam)
        dphi = gradient_values(grid, phi)  # [..., i, j] = D_i phi_j
        term2 = 0.5 * (dphi + np.swapaxes(dphi, -1, -2))
        term3 = (phi[..., None, :] @ gam.reshape(grid.shape + (n, n * n))
                 ).reshape(grid.shape + (n, n))
        # gam_t[i, k, l] = Gamma^k_il, so term4_ij = sum_kl gam_t[i,k,l] gam_t[k,l,j]
        gam_t = np.ascontiguousarray(np.swapaxes(gam, -3, -2))
        term4 = (gam_t.reshape(grid.shape + (n, n * n))
                 @ gam_t.reshape(grid.shape + (n * n, n)))
        return term1 - term2 + term3 - term4
    return g._cached("ricci", build)


def ricci(g):
    """Ricci tensor from the curvature of the Levi-Civita connection."""
    return TensorField(g.grid, ricci_values(g), "symmetric2")


def scalar_curvature(g):
    """Scalar curvature R = g^ij Ric_ij."""
    def build():
        return contract("...ij,...ij->...", g.inv_values, ricci_values(g))
    return ScalarField(g.grid, g._cached("scalar_curvature", build))


def riemann_values(g):
    """Curvature tensor R^m_jkl of the connection, R(e_k,e_l)e_j = R^m_jkl e_m."""
    def build():
        grid = g.grid
        gam = christoffel_values(g)
        dgam = gradient_values(grid, gam)  # [..., c, m, i, j] = D_c Gamma^m_ij
        dk_glj = np.einsum("...kmlj->...mjkl", dgam)
        dl_gkj = np.einsum("...lmkj->...mjkl", dgam)
        gamgam1 = contract("...mka,...alj->...mjkl", gam, gam)
        gamgam2 = contract("...mla,...akj->...mjkl", gam, gam)
        return dk_glj - dl_gkj + gamgam1 - gamgam2
    return g._cached("riemann", build)


def hessian(g, f):
    """Covariant Hessian of a scalar, Hess f = D_i D_j f - Gamma^k_ij D_k f."""
    grid = g.grid
    df = gradient_values(grid, f.values)
    ddf = gradient_values(grid, df)
    gam_term = contract("...kij,...k->...ij", christoffel_values(g), df)
    return TensorField(grid, ddf - gam_term, "symmetric2")


def gradient_vector(g, f):
    """Metric gradient of a scalar as a contravariant field."""
    df = gradient_values(g.grid, f.values)
    up = np.einsum("...ab,...b->...a", g.inv_values, df)
    return TensorField(g.grid, up, "vector")


def laplacian_values(g, values):
    """Raw scalar Laplacian (1/sqrt g) D_a(sqrt g g^ab D_b u) of a grid array.

    The n(n+1)/2 distinct flux coefficients sqrt g g^ab are cached on the
    metric; each flux component is a contiguous sum of products.
    """
    grid = g.grid
    n, h = grid.n_dims, grid.spacings

    def build():
        coeff = {}
        for a in range(n):
            for b in range(a, n):
                coeff[a, b] = coeff[b, a] = g.sqrt_det_values * g.inv_values[..., a, b]
        return coeff

    coeff = g._cached("flux_coefficients", build)
    du = [diff_values(values, b, h[b]) for b in range(n)]
    div = 0.0
    for a in range(n):
        flux = coeff[a, 0] * du[0]
        for b in range(1, n):
            flux += coeff[a, b] * du[b]
        div = div + diff_values(flux, a, h[a])
    return div / g.sqrt_det_values


def laplace_beltrami(g, f):
    """Scalar Laplacian with the sign convention Delta = -(d*d), nonpositive.

    Equals (1/sqrt g) D_a(sqrt g g^ab D_b f) exactly, so it is self-adjoint
    against the volume-weighted quadrature by the skew-adjointness of the
    stencil, not merely to truncation order.
    """
    return ScalarField(g.grid, laplacian_values(g, f.values))


def divergence(g, h):
    """Covariant divergence of a symmetric 2-tensor, (div h)_j = g^ik D_i h_kj."""
    grid = g.grid
    dh = gradient_values(grid, h.values)  # [..., c, k, j]
    gam = christoffel_values(g)
    inv = g.inv_values
    t1 = contract("...ik,...ikj->...j", inv, dh)
    t2 = contract("...ik,...lik,...lj->...j", inv, gam, h.values)
    t3 = contract("...ik,...lij,...kl->...j", inv, gam, h.values)
    return TensorField(grid, t1 - t2 - t3, "covector")


def lie_derivative_metric(g, x):
    """Lie derivative of the metric along a vector field, symmetrized covariant
    derivative of the lowered field."""
    if x.symmetry != "vector":
        raise FieldError("lie_derivative_metric expects a contravariant field")
    grid = g.grid
    xl = np.einsum("...ja,...a->...j", g.values, x.values)
    dxl = gradient_values(grid, xl)  # [..., i, j] = D_i X_j
    gam_term = contract("...kij,...k->...ij", christoffel_values(g), xl)
    sym = dxl + np.swapaxes(dxl, -1, -2) - 2.0 * gam_term
    return TensorField(grid, sym, "symmetric2")


# ---------------------------------------------------------------------------
# Exterior calculus
# ---------------------------------------------------------------------------


def _form_rank(fld):
    if isinstance(fld, ScalarField):
        return 0
    if fld.rank == 1:
        if fld.symmetry == "vector":
            raise FieldError("forms are covariant; got a vector field")
        return 1
    if fld.symmetry != "antisymmetric":
        raise FieldError(f"expected an antisymmetric field, got {fld.symmetry!r}")
    return fld.rank


def exterior_derivative(fld):
    """Discrete exterior derivative of a form.

    (d w)_{a0..ak} = sum_m (-1)^m D_{a_m} w_{a0..^a_m..ak}, computed on the
    increasing index tuples only and expanded, so the output is exactly
    antisymmetric; d(d w) = 0 holds because coordinate stencils commute.
    """
    grid = fld.grid
    n = grid.n_dims
    k = _form_rank(fld)
    if k >= n:
        # top-degree forms are closed; the would-be (k+1)-form has no slots
        raise FieldError("exterior derivative of a top-degree form is zero")
    comps = form_components(fld.values, n, k)
    out = [0.0] * len(increasing_tuples(n, k + 1))
    for a, j, sign, p in slot_pairs(n, k + 1):
        out[p] = out[p] + sign * diff_values(comps[j], a, grid.spacings[a])
    symmetry = "covector" if k == 0 else "antisymmetric"
    return TensorField(grid, expand_form(out, n, k + 1), symmetry)


def codifferential(g, fld):
    """Exact discrete adjoint of the exterior derivative (k-forms to (k-1)-forms).

    Computed as the musical conjugation of the negative stencil divergence:
    d* w = lower((-1/sqrt g) D_c (sqrt g raise(w)^{c...})), raising with the
    k x k minors of g^-1 and lowering with the (k-1) x (k-1) minors of g. On
    a flat metric this is (d* w)_J = -D_c w_{cJ}, the classical
    codifferential; composed twice it vanishes identically.
    """
    grid = g.grid
    n = grid.n_dims
    k = _form_rank(fld)
    if k == 0:
        raise FieldError("codifferential of a scalar is zero by degree")
    sq = g.sqrt_det_values
    raised = apply_minors(pointwise_minors(g.inv_values, k),
                          form_components(fld.values, n, k))
    weighted = [sq * w for w in raised]
    acc = [0.0] * len(increasing_tuples(n, k - 1))
    for c, j, sign, p in slot_pairs(n, k):
        acc[j] = acc[j] - sign * diff_values(weighted[p], c, grid.spacings[c])
    acc = [a / sq for a in acc]
    if k == 1:
        return ScalarField(grid, acc[0])
    lowered = apply_minors(pointwise_minors(g.values, k - 1), acc)
    symmetry = "covector" if k == 2 else "antisymmetric"
    return TensorField(grid, expand_form(lowered, n, k - 1), symmetry)


def hodge_laplacian(g, fld):
    """Hodge Laplacian Delta = -(d d* + d* d), exactly self-adjoint, <= 0.

    On a flat metric it acts componentwise as the flat scalar Laplacian.
    """
    grid = g.grid
    k = _form_rank(fld)
    pieces = []
    if k > 0:
        pieces.append(exterior_derivative(codifferential(g, fld)))
    if k < grid.n_dims:
        pieces.append(codifferential(g, exterior_derivative(fld)))
    total = sum(p.values for p in pieces)
    if k == 0:
        return ScalarField(grid, -total)
    symmetry = "covector" if k == 1 else "antisymmetric"
    return TensorField(grid, -total, symmetry)


def interior_product(x, fld):
    """Contraction of a vector field into the first slot of a form."""
    if x.symmetry != "vector":
        raise FieldError("interior product expects a contravariant field")
    k = _form_rank(fld)
    if k == 0:
        raise FieldError("interior product with a scalar is zero by degree")
    n = fld.grid.n_dims
    comps = form_components(fld.values, n, k)
    out = [0.0] * len(increasing_tuples(n, k - 1))
    for a, j, sign, p in slot_pairs(n, k):
        out[j] = out[j] + sign * x.values[..., a] * comps[p]
    if k == 1:
        return ScalarField(fld.grid, out[0])
    symmetry = "covector" if k == 2 else "antisymmetric"
    return TensorField(fld.grid, expand_form(out, n, k - 1), symmetry)


def h_squared(g, H):
    """Pointwise square of a 3-form as a symmetric 2-tensor.

    (H^2)_ij = H_iab H_jcd g^ac g^bd = 2 sum_{a<b} H_iab H_j^{ab}, with the
    raised pair from the 2 x 2 minors of g^-1; with the full-contraction norm
    this satisfies tr_g H^2 = |H|^2 identically.
    """
    if _form_rank(H) != 3:
        raise FieldError("h_squared expects a 3-form")
    n = g.grid.n_dims
    comps = form_components(H.values, n, 3)
    slots = [[None] * len(increasing_tuples(n, 2)) for _ in range(n)]
    for i, j, sign, p in slot_pairs(n, 3):
        slots[i][j] = sign * comps[p]  # the 2-form H_i.. on increasing pairs
    minors = pointwise_minors(g.inv_values, 2)
    out = np.empty(g.grid.shape + (n, n))
    for j in range(n):
        up = apply_minors(minors, slots[j])
        for i in range(j + 1):
            out[..., i, j] = out[..., j, i] = 2.0 * sum(
                h * u for h, u in zip(slots[i], up) if h is not None)
    return TensorField(g.grid, out, "symmetric2")


def form_norm_sq(g, fld):
    """Pointwise squared norm with full index contraction."""
    rank = 0 if isinstance(fld, ScalarField) else fld.rank
    sym = "scalar" if rank == 0 else fld.symmetry
    vals = pointwise_inner_values(fld.values, fld.values, rank, sym,
                                  g.inv_values, g.values)
    return ScalarField(g.grid, vals)


def lichnerowicz(g, h):
    """Lichnerowicz Laplacian on symmetric 2-tensors.

    Delta^L h = Delta_c h + 2 Riem(h) - Ric.h - h.Ric with the rough Laplacian
    Delta_c = g^ab D_a D_b (negative spectrum: on a flat metric the whole
    operator is the componentwise flat Laplacian). The curvature term is
    assembled from the Riemann tensor and symmetrized, which costs nothing at
    the discretization order and keeps the symmetric-2 tag exact. For h = g
    the curvature terms cancel against each other and Delta_c g = 0.
    """
    if h.symmetry != "symmetric2":
        raise FieldError("lichnerowicz expects a symmetric 2-tensor")
    grid = g.grid
    gam = christoffel_values(g)
    inv = g.inv_values

    dh = gradient_values(grid, h.values)
    cov1 = dh \
        - contract("...lbi,...lj->...bij", gam, h.values) \
        - contract("...lbj,...il->...bij", gam, h.values)
    dcov1 = gradient_values(grid, cov1)
    cov2 = dcov1 \
        - contract("...lab,...lij->...abij", gam, cov1) \
        - contract("...lai,...blj->...abij", gam, cov1) \
        - contract("...laj,...bil->...abij", gam, cov1)
    rough = contract("...ab,...abij->...ij", inv, cov2)

    riem = riemann_values(g)
    h_up = contract("...ia,...jb,...ab->...ij", inv, inv, h.values)
    curv = contract("...im,...mjkl,...ik->...jl", g.values, riem, h_up)
    curv = 0.5 * (curv + np.swapaxes(curv, -1, -2))

    ric = ricci_values(g)
    mixed = contract("...ik,...kl,...lj->...ij", ric, inv, h.values)
    ric_h = mixed + np.swapaxes(mixed, -1, -2)

    return TensorField(grid, rough + 2.0 * curv - ric_h, "symmetric2")


def deturck_vector(g, g_ref):
    """Gauge vector X^k = g^ij (Gamma(g)^k_ij - Gamma(g_ref)^k_ij).

    Measures the failure of the identity map (M, g) -> (M, g_ref) to be
    harmonic; vanishes identically when both metrics are constant.
    """
    diff = christoffel_values(g) - christoffel_values(g_ref)
    n = g.grid.n_dims
    out = (diff.reshape(g.grid.shape + (n, n * n))
           @ g.inv_values.reshape(g.grid.shape + (n * n, 1)))[..., 0]
    return TensorField(g.grid, out, "vector")
