"""Lowest eigenvalue of the weighted Schrodinger operator and its gradient.

The operator Phi_{g,H} u = -4 Delta_g u + (R_g - |H|^2_g / 12) u is
self-adjoint in L2(dV_g) because Delta_g is built from the exact-adjoint
codifferential. Its lowest eigenvalue lambda(g, H) equals the infimum of the
energy

    F(g, H, f) = int (R - |H|^2/12 + |df|^2) e^{-f} dV

over f with int e^{-f} dV = 1, the substitution being w = e^{-f/2}. The
gradient of mu(g, b) = lambda(g, Hhat + db) in the e^{-f} dV_g pairing is

    ( -Ric - Hess f + H^2/4 ,  -(d* H + grad f . H) / 2 ),

half the flow pair of geometry.gauged_grf_values at X = -grad f, since
-Hess f = L_X g / 2; assemble_mu_gradient returns it at (g, H), from a
solved eigenpair, as two fields. The package's main correctness oracle pairs
it against mu_directional_derivative, a central difference of lambda whose
two sides solve at the shifted metric and the field strength of the shifted
potential.
H enters every (g, H) entry point as a 3-form TensorField on g's grid, or
None for zero, which _form_values turns into the zero 3-form's array once,
so that every entry point sees an array; a bare array is refused. g must be
a MetricField: a symmetric 2-tensor lacks the inverse and volume density.

lambda comes from shifted inverse iteration with preconditioned CG. The
Nyquist-band penalty is an exact projector built from one rank-one projector
per axis, the preconditioner is one small matmul per axis in a real Fourier
basis, and every CG exit is counted (see SpectralSolution). CG carries Phi w
along, so only the pair that passes EIG_TOL costs an apply of its own. Each
inner solve is only as accurate as the outer step needs: its tolerance is a
fixed fraction, CG_RESIDUAL_FRACTION, of the current eigen-residual. A looser
inner solve can cost outer steps but never the answer, because acceptance,
the true apply at EIG_TOL and the positivity certificate do not depend on it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ConvergenceError, FieldError, NonFiniteError
from .lattice import (
    ScalarField, TensorField, gradient_values, require_field, stencil_symbol)
from .geometry import (
    MetricField, exterior_derivative_values, form_norm_sq_values,
    gauged_grf_values, gradient_vector_values, h_squared_values,
    hodge_laplacian_values, laplacian_values, ricci_values,
    scalar_curvature_values)

# the eigensolver's acceptance residual and its outer and CG budgets
EIG_TOL = 1e-9
MAX_OUTER = 80
CG_MAX_ITER = 2000
SHIFT_MARGIN = 0.5
# Each inner CG solve is asked for this fraction of the current eigen-residual
# (relative to its right-hand side). Inexact inverse iteration keeps its outer
# rate while the inner error shrinks in proportion to the residual (Golub & Ye,
# BIT 40, 2000; Berns-Mueller, Graham & Spence, Linear Algebra Appl. 416,
# 2006), so a tighter fraction costs CG iterations and saves almost no outer
# step. A true apply at EIG_TOL certifies the answer whatever CG did.
CG_RESIDUAL_FRACTION = 0.05


@functools.lru_cache(maxsize=None)
def _real_fourier_basis(m):
    """Orthonormal real Fourier basis of an even periodic axis of m points, one
    mode per row (the constant; cos, sin for k = 1 .. m/2 - 1; the Nyquist
    sawtooth), and each row's wavenumber index k."""
    j = np.arange(m)
    k = (j + 1) // 2
    angle = np.outer(k, 2.0 * np.pi * j / m)
    rows = np.where(j[:, None] % 2, np.cos(angle), np.sin(angle)) * np.sqrt(2.0 / m)
    rows[0], rows[-1] = 1.0 / np.sqrt(m), (-1.0) ** j / np.sqrt(m)
    for arr in (rows, k):
        arr.setflags(write=False)
    return rows, k


@functools.lru_cache(maxsize=None)
def _grid_constants(grid):
    """A grid's read-only Nyquist signs, surrogate |k|^2, Nyquist band and bases."""
    shape, n = grid.shape, grid.n_dims
    signs, sym_sq = [], np.zeros(shape)
    nyquist = np.zeros(shape, dtype=bool)
    for a, m in enumerate(shape):
        bcast = (1,) * (n - 1 - a)
        signs.append(((-1.0) ** np.arange(m)).reshape((m,) + bcast))
        k = stencil_symbol(m, grid.spacings[a])[_real_fourier_basis(m)[1]]
        sym_sq = sym_sq + (k ** 2).reshape((m,) + bcast)
        nyquist[(slice(None),) * a + (m - 1,)] = True
    for arr in signs + [sym_sq, nyquist]:
        arr.setflags(write=False)
    bases = tuple(_real_fourier_basis(m)[0] for m in shape)
    return tuple(signs), sym_sq, nyquist, bases


class SchrodingerOperator:
    """Applies Phi_{g,H} and solves shifted systems with it.

    The shifted solve uses conjugate gradients on the volume-symmetrized form
    sqrt(det g) (Phi - sigma), preconditioned by the exact inverse of the
    constant-coefficient surrogate built from the stencil symbol. The symbol
    is real and even, so the orthonormal real Fourier basis of each axis
    diagonalizes it. The preconditioner is the hot path's one BLAS matrix
    product: its bits repeat on one machine, but OpenBLAS may pick another
    kernel on another CPU (the golden tests' 1e-12 tolerance absorbs that). The
    preconditioner only accelerates; CG carries Phi x from its one apply per
    search direction, and every accepted answer is certified by one true
    apply. Each solve counts its CG iterations in cg_iterations and its exit
    reason ("converged", "max_iter" or "indefinite") in cg_exits.
    """

    def __init__(self, g, H=None):
        # the potential is validated here; an overflow in |H|^2 is reported
        # by that check, not by numpy
        with np.errstate(over="ignore", invalid="ignore"):
            h_sq = form_norm_sq_values(g, _form_values(g, H))
            self.potential = ScalarField(g.grid, _potential(g, h_sq)).values
        self.g = g
        self.grid = g.grid
        # The first-derivative stencil annihilates the Nyquist mode on every
        # (even) axis, so without correction the kinetic term is blind to a
        # whole band of sawtooth modes and a varying potential fills the low
        # spectrum with spurious near-ground states. Penalizing that band by
        # the continuum kinetic energy of the sharpest resolved mode restores
        # the expected O(1) spectral gap; smooth eigenfunctions are unaffected.
        # Divided by sqrt(det g), the penalty stays self-adjoint in the volume
        # inner product (its symmetrized form is a plain projection).
        self.penalty = 4.0 * max(np.pi / h for h in self.grid.spacings) ** 2
        self._penalty_weight = self.penalty / g.sqrt_det_values
        self._signs, self._sym_sq, self._nyquist, self._bases = _grid_constants(g.grid)
        # the preconditioner's constant-coefficient surrogate, one per operator
        self._mean_potential = float(np.mean(self.potential))
        self._mean_sq = float(np.mean(g.sqrt_det_values))
        self.cg_iterations = 0
        self.cg_exits = {"converged": 0, "max_iter": 0, "indefinite": 0}

    def _project_invisible(self, u):
        """Orthogonal projection onto the modes with some k_a = N_a/2,
        I - prod_a (I - Q_a) with Q_a u = s_a mean_a(s_a u), s_a = (-1)^{x_a}."""
        rest = u
        for a, s in enumerate(self._signs):
            rest = rest - s * (np.add.reduce(s * rest, a, keepdims=True) / u.shape[a])
        return u - rest

    def apply_values(self, u):
        out = laplacian_values(self.g, u)
        out *= -4.0
        out += self.potential * u
        out += self._penalty_weight * self._project_invisible(u)
        return out

    def volume_dot(self, u, v):
        return float(np.sum(u * v * self.g.sqrt_det_values)) * self.grid.cell_volume

    def volume_norm(self, u):
        return math.sqrt(max(self.volume_dot(u, u), 0.0))

    def _preconditioner(self, sigma):
        """r -> the surrogate's exact inverse applied to r: one m x m matmul
        per axis into the real Fourier basis, a divide by the symbol, and one
        per axis back."""
        c0 = max(self._mean_potential - sigma, 0.1)
        symbol = (self._mean_sq * (4.0 * self._sym_sq + c0)
                  + self.penalty * self._nyquist)
        shape = self.grid.shape

        def along_axes(u, mats):
            # the last axis is one (outer, m) @ (m, m) product, each other
            # axis a batch of (m, m) @ (m, inner) products
            u = u.reshape(-1, shape[-1]) @ mats[-1].T
            for a, mat in enumerate(mats[:-1]):
                u = mat @ u.reshape(math.prod(shape[:a]), shape[a], -1)
            return u.reshape(shape)

        def precondition(r):
            coeffs = along_axes(r, self._bases) / symbol
            return along_axes(coeffs, [basis.T for basis in self._bases])
        return precondition

    def solve_shifted(self, rhs, sigma, x0, rtol, phi_x0, phi_out):
        """CG solve of (Phi - sigma) x = rhs from x0 to the relative residual
        rtol, volume-symmetrized, preconditioned, in at most CG_MAX_ITER
        iterations.

        phi_x0 is Phi applied to x0; it saves the apply of the initial
        residual. phi_out (may be phi_x0) receives Phi x, carried as
        phi_out += alpha Phi p at no apply of its own: a true apply to rounding.
        """
        sq = self.g.sqrt_det_values
        b = sq * rhs
        precondition = self._preconditioner(sigma)
        x = x0.copy()
        r = b - sq * (phi_x0 - sigma * x)
        phi_out[...] = phi_x0
        b_norm = float(np.linalg.norm(b))
        iterations, reason = 0, "converged"
        while b_norm > 0.0 and not float(np.linalg.norm(r)) <= rtol * b_norm:
            if iterations == CG_MAX_ITER:
                reason = "max_iter"
                break
            z = precondition(r)
            rz_new = float(np.sum(r * z))
            p = z if iterations == 0 else z + (rz_new / rz) * p
            rz = rz_new
            phi_p = self.apply_values(p)
            q = sq * (phi_p - sigma * p)
            pq = float(np.sum(p * q))
            if pq <= 0.0:
                # shifted operator lost definiteness along p; the partial
                # solve is still a useful inverse-iteration step
                reason = "indefinite"
                break
            alpha = rz / pq
            x += alpha * p
            r -= alpha * q
            phi_out += alpha * phi_p
            iterations += 1
        self.cg_iterations += iterations
        self.cg_exits[reason] += 1
        return x


@dataclass(frozen=True)
class SpectralSolution:
    """Converged lowest eigenpair of Phi_{g,H} and the induced potential f.

    w is the positive eigenfunction normalized by int w^2 dV_g = 1, and
    f = -2 log w, so int e^{-f} dV_g = 1 holds by construction;
    f_equation_residual checks the f-form of the eigenvalue equation.
    cg_iterations totals the CG iterations of the solve, and cg_short_exits
    counts its CG solves that ran out of iterations or met an indefinite
    direction.
    """

    lam: float
    w: ScalarField
    f: ScalarField
    eigen_residual: float
    iterations: int
    cg_iterations: int = 0
    cg_short_exits: int = 0


def _form_values(g, H):
    """The packed array of a 3-form field H on g's grid, the zero 3-form's
    when H is None; FieldError for anything else, a bare array too, and for
    a g that is no MetricField."""
    require_field("g", g, None, "metric", 2)
    if H is None:
        return np.zeros((math.comb(g.grid.n_dims, 3),) + g.grid.shape)
    require_field("H", H, g.grid, "antisymmetric", 3)
    return H.values


def _potential(g, h_sq):
    """The raw Schrodinger potential R - |H|^2/12 from the pointwise |H|^2_g
    already built."""
    return scalar_curvature_values(g) - h_sq / 12.0


def _df_sq(g, f):
    """|df|^2_g of a scalar field."""
    df = gradient_values(g.grid, f.values)
    return np.einsum("ab...,a...,b...->...", g._inv_full, df, df)


def schrodinger_apply(g, H, u):
    """One application of the Schrodinger operator to a ScalarField u on g's
    grid; FieldError for anything else."""
    op = SchrodingerOperator(g, H)
    require_field("u", u, g.grid, "scalar", 0)
    return ScalarField(g.grid, op.apply_values(u.values))


def lowest_eigenpair(g, H=None, w0=None):
    """Ground state of Phi_{g,H} by shifted inverse power iteration.

    Parameters
    ----------
    g : MetricField
        Anything else, a symmetric 2-tensor too, raises FieldError.
    H : TensorField or None
        Closed 3-form field on g's grid entering the potential; None means
        zero. Anything else, a bare array too, raises FieldError.
    w0 : ScalarField or ndarray, optional
        Start vector of the grid's shape, None for the constant. run_flow
        passes the line in t through the eigenfunctions of the last two
        times it solved, plus at a stage solve that line's error at the same
        stage of the previous step; any nonzero vector works, and one closer
        to the ground state takes fewer steps.

    The pair is accepted once ||Phi w - lambda w||_{L2(dV_g)} <= EIG_TOL;
    more than MAX_OUTER steps raise ConvergenceError. The shift tracks the
    Rayleigh quotient minus a fixed margin of 0.5, which keeps the shifted
    operator positive definite through convergence. Each step's CG solve
    stops at CG_RESIDUAL_FRACTION times the current residual, relative to its
    right-hand side and clipped to [1e-13, 1e-2]; that keeps the outer rate
    of exact inverse iteration, and how well CG solves decides only how many
    steps are taken, not which pair is accepted. lambda and the residual come
    from the Phi w that CG carries (phi_out); once that residual passes
    EIG_TOL, one true apply certifies the pair, or iteration goes on from the
    true Phi w. A solve costs its CG iterations plus two applies (one when w0
    passes at once). The returned eigenfunction is certified positive; a sign
    change anywhere is a hard error since f = -2 log w must exist. A residual
    that is not finite (the potential overflows the apply) raises
    NonFiniteError at once.
    """
    op = SchrodingerOperator(g, H)
    if w0 is None:
        w = np.ones(g.grid.shape)
    else:
        w = np.array(getattr(w0, "values", w0), dtype=float)
        if w.shape != g.grid.shape:
            raise FieldError(f"initial vector for the eigensolver has shape "
                             f"{w.shape}, the grid {g.grid.shape}")
    norm = op.volume_norm(w)
    if norm == 0.0:
        raise FieldError("initial vector for the eigensolver vanishes")
    w = w / norm

    phi_w, certified, iterations = op.apply_values(w), True, 0
    while True:
        lam = op.volume_dot(w, phi_w)
        res = op.volume_norm(phi_w - lam * w)
        if res <= EIG_TOL:
            if certified:
                break
            phi_w, certified = op.apply_values(w), True
            continue
        if not math.isfinite(res):
            raise NonFiniteError(f"eigensolver residual is non-finite ({res}) "
                                 f"after {iterations} steps")
        if iterations >= MAX_OUTER:
            raise ConvergenceError(
                f"eigensolver stalled at residual {res:.3e} after {MAX_OUTER} steps"
            )
        sigma = lam - SHIFT_MARGIN
        cg_rtol = max(1e-13, min(1e-2, CG_RESIDUAL_FRACTION * res))
        phi_z = phi_w / SHIFT_MARGIN
        z = op.solve_shifted(w, sigma, x0=w / SHIFT_MARGIN, rtol=cg_rtol,
                             phi_x0=phi_z, phi_out=phi_z)
        z_norm = op.volume_norm(z)
        if z_norm == 0.0:
            raise ConvergenceError("inverse iteration produced the zero vector")
        w, phi_w = z / z_norm, phi_z / z_norm
        if float(np.sum(w * op.g.sqrt_det_values)) < 0.0:
            w, phi_w = -w, -phi_w
        certified = False
        iterations += 1

    w_min = float(np.min(w))
    if w_min <= 0.0:
        raise ConvergenceError(
            f"ground state failed the positivity certificate (min w = {w_min:.3e})"
        )
    return SpectralSolution(
        lam=lam,
        w=ScalarField(g.grid, w),
        f=ScalarField(g.grid, -2.0 * np.log(w)),
        eigen_residual=res,
        iterations=iterations,
        cg_iterations=op.cg_iterations,
        cg_short_exits=op.cg_exits["max_iter"] + op.cg_exits["indefinite"],
    )


def f_equation_residual(g, H, sol):
    """sup |2 Delta f - |df|^2 + R - |H|^2/12 - lambda| of a solved eigenpair.

    This is the f-form of the eigenvalue equation as evaluated by the discrete
    operators; it inherits the discretization error of the chain rule and is
    only solver-small when f is constant.
    """
    f_eq = (2.0 * laplacian_values(g, sol.f.values) - _df_sq(g, sol.f)
            + _potential(g, form_norm_sq_values(g, _form_values(g, H)))
            - sol.lam)
    return float(np.max(np.abs(f_eq)))


def _energy(g, potential, f):
    """F(g, H, f) = int (R - |H|^2/12 + |df|^2_g) e^{-f} dV_g of the profile f
    from the potential R - |H|^2/12 already built.

    Admissible f satisfy int e^{-f} dV_g = 1; adding log int e^{-f} dV_g to
    an arbitrary f moves it into the constraint set. F(g, H, .) is bounded
    below by lambda(g, H) with equality at f = -2 log w.
    """
    density = ((potential + _df_sq(g, f)) * np.exp(-f.values)
               * g.sqrt_det_values)
    return float(np.sum(density)) * g.grid.cell_volume


def _identity_gap(g, h_sq, sol):
    """|(1/6) int |H|^2 e^{-f} dV - lambda| of a solved eigenpair from the
    pointwise |H|^2_g already built; it vanishes at critical points of mu."""
    density = h_sq * g.sqrt_det_values * np.exp(-sol.f.values)
    return abs(float(np.sum(density)) * g.grid.cell_volume / 6.0 - sol.lam)


def field_strength_values(grid, b_values, hhat=None):
    """Raw H = Hhat + db from a packed 2-form potential array."""
    h = exterior_derivative_values(grid, b_values, 2)
    return h if hhat is None else h + hhat.values


def assemble_mu_gradient(g, H, sol):
    """The gradient of mu at the 3-form field H (None for zero) and metric
    g, in the L2(e^{-f} dV_g) pairing, from its solved eigenpair sol.

    Returns the fields (g_part, b_part): g_part = -Ric - Hess f + H^2/4
    (symmetric 2-tensor), b_part = -(d* H + grad f . H)/2 (2-form): half
    the flow pair of gauged_grf_values at X = -grad f. Pairing a direction
    (h, beta) against these with weight e^{-f} reproduces
    d/dt mu(g + t h, b + t beta).
    """
    x = -gradient_vector_values(g, sol.f.values)
    dg, db = gauged_grf_values(g, _form_values(g, H), x)
    return (TensorField(g.grid, 0.5 * dg, "symmetric2"),
            TensorField(g.grid, 0.5 * db, "antisymmetric"))


def mu_directional_derivative(g, b, h, beta, w0, eps=1e-4):
    """Central finite difference of mu along (h, beta); the gradient oracle.

    Each side solves lambda at the metric g +- eps h and the validated field
    strength d(b +- eps beta), with no background. w0, the eigenfunction
    solved at (g, b), starts both side solves. h must be a symmetric
    2-tensor (a MetricField is one) and b and beta 2-forms, all on g's grid
    (FieldError), and eps must be positive and finite.
    """
    for name, fld, sym in (("h", h, "symmetric2"), ("b", b, "antisymmetric"),
                           ("beta", beta, "antisymmetric")):
        require_field(name, fld, g.grid, sym, 2)
    if not 0.0 < eps < math.inf:
        raise ConfigError(f"eps must be positive and finite, got {eps!r}")
    values = []
    for sgn in (+1.0, -1.0):
        g_side = MetricField(g.grid, g.values + sgn * eps * h.values)
        H_side = TensorField(g.grid, field_strength_values(
            g.grid, b.values + sgn * eps * beta.values), "antisymmetric")
        values.append(lowest_eigenpair(g_side, H_side, w0=w0).lam)
    return (values[0] - values[1]) / (2.0 * eps)


def critical_point_diagnostics(g, H, sol):
    """Every stationarity residual at (g, H) from its solved eigenpair sol,
    as a dict of sup norms over components; H is a 3-form field or None.
    |H|^2_g is built once. The keys, in order:

    mu_grad_g / mu_grad_b: the two parts of the gradient of mu, as
        assemble_mu_gradient builds them (the b part carries the 1/2).
    ricci_vs_h2: ||Ric - H^2/4||, the metric part of flow stationarity.
    hodge_h: ||Delta_g H||, the form part of flow stationarity.
    scalar_gap: sup |R - |H|^2/12|; a nonzero value at a stationary point
        with H != 0 witnesses that stationary points of the flow need not be
        generalized scalar-flat.
    identity_gap: |(1/6) int |H|^2 e^{-f} dV - mu|, which vanishes at
        critical points of mu and forces H = 0 there when mu <= 0.
    """
    h = _form_values(g, H)
    h_sq = form_norm_sq_values(g, h)
    g_part, b_part = assemble_mu_gradient(g, H, sol)
    return {
        "mu_grad_g": float(np.max(np.abs(g_part.values))),
        "mu_grad_b": float(np.max(np.abs(b_part.values))),
        "ricci_vs_h2": float(np.max(np.abs(
            ricci_values(g) - 0.25 * h_squared_values(g, h)))),
        # an H of degree above n has no component: its sup is 0
        "hodge_h": float(np.max(np.abs(hodge_laplacian_values(g, h, 3)),
                                initial=0.0)),
        "scalar_gap": float(np.max(np.abs(_potential(g, h_sq)))),
        "identity_gap": _identity_gap(g, h_sq, sol),
    }
