"""Lowest eigenvalue of the weighted Schrodinger operator and its gradient.

The operator Phi_{g,H} u = -4 Delta_g u + (R_g - |H|^2_g / 12) u is
self-adjoint in L2(dV_g) because Delta_g is built from the exact-adjoint
codifferential. Its lowest eigenvalue lambda(g, H) equals the infimum of the
energy

    F(g, H, f) = int (R - |H|^2/12 + |df|^2) e^{-f} dV

over f with int e^{-f} dV = 1, the substitution being w = e^{-f/2}. The
gradient of mu(g, b) = lambda(g, Hhat + db) in the e^{-f} dV_g pairing is

    ( -Ric - Hess f + H^2/4 ,  -(d* H + grad f . H) / 2 )

which is what mu_gradient assembles; finite differences of mu against this
pairing are the package's main correctness oracle.

lambda comes from shifted inverse iteration with preconditioned CG. The
Nyquist-band penalty is an exact projector built from one rank-one projector
per axis (no FFT per apply), the preconditioner runs on the real-FFT half
spectrum, and every CG exit is counted (see SpectralSolution).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, FieldError
from .lattice import (
    ScalarField,
    TensorField,
    gradient_values,
    stencil_symbol,
    weighted_inner,
)
from .geometry import (
    MetricField,
    codifferential,
    divergence,
    exterior_derivative,
    form_norm_sq,
    gradient_vector,
    h_squared,
    hessian,
    hodge_laplacian,
    interior_product,
    laplace_beltrami,
    laplacian_values,
    lichnerowicz,
    ricci_values,
    scalar_curvature,
)

DEFAULT_EIG_TOL = 1e-9
SHIFT_MARGIN = 0.5


class SchrodingerOperator:
    """Applies Phi_{g,H} and solves shifted systems with it.

    The shifted solve uses conjugate gradients on the volume-symmetrized form
    sqrt(det g) (Phi - sigma), preconditioned by the exact inverse of the
    constant-coefficient surrogate built from the stencil symbol, applied on
    the real-FFT half spectrum (the symbol is real and even). The
    preconditioner only accelerates; every accepted answer is certified by the
    true residual. Each solve counts its CG iterations in cg_iterations and
    its exit reason ("converged", "max_iter" or "indefinite") in cg_exits.
    """

    def __init__(self, g, H=None):
        self.g = g
        self.grid = g.grid
        r = scalar_curvature(g).values
        if H is not None:
            r = r - form_norm_sq(g, H).values / 12.0
        self.potential = r
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
        # per axis: the sign vector (-1)^{x_a} of the Nyquist mode, and the
        # surrogate's |k|^2 and Nyquist band on the real-FFT half spectrum
        shape, n = self.grid.shape, self.grid.n_dims
        half = shape[:-1] + (shape[-1] // 2 + 1,)
        self._signs, self._sym_sq = [], np.zeros(half)
        self._nyquist = np.zeros(half, dtype=bool)
        for a, m in enumerate(shape):
            bcast = (1,) * (n - 1 - a)
            self._signs.append(((-1.0) ** np.arange(m)).reshape((m,) + bcast))
            k = stencil_symbol(m, self.grid.spacings[a])[:half[a]]
            self._sym_sq = self._sym_sq + (k ** 2).reshape((half[a],) + bcast)
            self._nyquist[(slice(None),) * a + (m // 2,)] = True
        self.cg_iterations = 0
        self.cg_exits = {"converged": 0, "max_iter": 0, "indefinite": 0}

    def _project_invisible(self, u):
        """Orthogonal projection onto the modes with some k_a = N_a/2,
        I - prod_a (I - Q_a) with Q_a u = s_a mean_a(s_a u), s_a = (-1)^{x_a}."""
        rest = u
        for a, s in enumerate(self._signs):
            rest = rest - s * np.mean(s * rest, axis=a, keepdims=True)
        return u - rest

    def apply_values(self, u):
        out = -4.0 * laplacian_values(self.g, u) + self.potential * u
        return out + self._penalty_weight * self._project_invisible(u)

    def volume_dot(self, u, v):
        return float(np.sum(u * v * self.g.sqrt_det_values)) * self.grid.cell_volume

    def volume_norm(self, u):
        return np.sqrt(max(self.volume_dot(u, u), 0.0))

    def rayleigh(self, u):
        return self.volume_dot(u, self.apply_values(u)) / self.volume_dot(u, u)

    def _preconditioner(self, sigma):
        """r -> the surrogate's exact inverse applied to r, via rfftn/irfftn."""
        c0 = max(float(np.mean(self.potential)) - sigma, 0.1)
        mean_sq = float(np.mean(self.g.sqrt_det_values))
        symbol = mean_sq * (4.0 * self._sym_sq + c0) + self.penalty * self._nyquist
        shape = self.grid.shape
        axes = tuple(range(len(shape)))

        def precondition(r):
            return np.fft.irfftn(np.fft.rfftn(r, axes=axes) / symbol, s=shape, axes=axes)
        return precondition

    def solve_shifted(self, rhs, sigma, x0=None, rtol=1e-10, max_iter=2000,
                      phi_x0=None):
        """CG solve of (Phi - sigma) x = rhs, volume-symmetrized, preconditioned.

        phi_x0, when given, is Phi applied to x0; it saves the apply of the
        initial residual.
        """
        sq = self.g.sqrt_det_values
        b = sq * rhs
        precondition = self._preconditioner(sigma)

        def apply_b(x):
            return sq * (self.apply_values(x) - sigma * x)

        x = np.zeros_like(b) if x0 is None else x0.copy()
        phi = self.apply_values(x) if phi_x0 is None else phi_x0
        r = b - sq * (phi - sigma * x)
        b_norm = float(np.linalg.norm(b))
        iterations, reason = 0, "converged"
        if b_norm > 0.0:
            z = precondition(r)
            p = z
            rz = float(np.sum(r * z))
            while not float(np.linalg.norm(r)) <= rtol * b_norm:
                if iterations == max_iter:
                    reason = "max_iter"
                    break
                q = apply_b(p)
                pq = float(np.sum(p * q))
                if pq <= 0.0:
                    # shifted operator lost definiteness along p; the partial
                    # solve is still a useful inverse-iteration step
                    reason = "indefinite"
                    break
                alpha = rz / pq
                x = x + alpha * p
                r = r - alpha * q
                z = precondition(r)
                rz_new = float(np.sum(r * z))
                p = z + (rz_new / rz) * p
                rz = rz_new
                iterations += 1
        self.cg_iterations += iterations
        self.cg_exits[reason] += 1
        return x


@dataclass(frozen=True)
class SpectralSolution:
    """Converged lowest eigenpair of Phi_{g,H} and the induced potential f.

    w is the positive eigenfunction normalized by int w^2 dV_g = 1, and
    f = -2 log w, so int e^{-f} dV_g = 1 holds by construction. The residual
    of the f-form of the eigenvalue equation, 2 Delta f - |df|^2 + R -
    |H|^2/12 = lambda, is reported as evaluated by the discrete operators; it
    inherits the discretization error of the chain rule and is only solver-
    small when f is constant. cg_iterations totals the CG iterations of the
    solve, and cg_short_exits counts its CG solves that ran out of iterations
    or met an indefinite direction.
    """

    lam: float
    w: ScalarField
    f: ScalarField
    eigen_residual: float
    f_eq_residual: float
    iterations: int
    cg_iterations: int = 0
    cg_short_exits: int = 0


def schrodinger_apply(g, H, u):
    """One application of the Schrodinger operator to a scalar field."""
    op = SchrodingerOperator(g, H)
    return ScalarField(g.grid, op.apply_values(u.values))


def lowest_eigenpair(g, H=None, tol=DEFAULT_EIG_TOL, w0=None, max_outer=80):
    """Ground state of Phi_{g,H} by shifted inverse power iteration.

    Parameters
    ----------
    g : MetricField
    H : TensorField or None
        Closed 3-form entering the potential; None means zero.
    tol : float
        Absolute bound on ||Phi w - lambda w||_{L2(dV_g)} at exit.
    w0 : ScalarField or ndarray, optional
        Warm start, e.g. the eigenfunction of a nearby state along a flow.

    The shift tracks the Rayleigh quotient minus a fixed margin of 0.5, which
    keeps the shifted operator positive definite through convergence. The
    returned eigenfunction is certified positive; a sign change anywhere is a
    hard error since f = -2 log w must exist.
    """
    op = SchrodingerOperator(g, H)
    if w0 is None:
        w = np.ones(g.grid.shape)
    else:
        w = np.array(w0.values if isinstance(w0, ScalarField) else w0, dtype=float)
    norm = op.volume_norm(w)
    if norm == 0.0:
        raise FieldError("initial vector for the eigensolver vanishes")
    w = w / norm

    phi_w = op.apply_values(w)
    lam = op.volume_dot(w, phi_w)
    res = op.volume_norm(phi_w - lam * w)
    iterations = 0
    while res > tol:
        if iterations >= max_outer:
            raise ConvergenceError(
                f"eigensolver stalled at residual {res:.3e} after {max_outer} steps"
            )
        sigma = lam - SHIFT_MARGIN
        cg_rtol = max(1e-13, min(1e-2, 0.005 * res))
        z = op.solve_shifted(w, sigma, x0=w / SHIFT_MARGIN, rtol=cg_rtol,
                             phi_x0=phi_w / SHIFT_MARGIN)
        z_norm = op.volume_norm(z)
        if z_norm == 0.0:
            raise ConvergenceError("inverse iteration produced the zero vector")
        w = z / z_norm
        if float(np.sum(w * op.g.sqrt_det_values)) < 0.0:
            w = -w
        phi_w = op.apply_values(w)
        lam = op.volume_dot(w, phi_w)
        res = op.volume_norm(phi_w - lam * w)
        iterations += 1

    w_min = float(np.min(w))
    if w_min <= 0.0:
        raise ConvergenceError(
            f"ground state failed the positivity certificate (min w = {w_min:.3e})"
        )
    f_vals = -2.0 * np.log(w)
    f = ScalarField(g.grid, f_vals)
    w_field = ScalarField(g.grid, w)

    lap_f = laplace_beltrami(g, f).values
    df = gradient_values(g.grid, f_vals)
    df_sq = np.einsum("...ab,...a,...b->...", g.inv_values, df, df)
    f_eq = 2.0 * lap_f - df_sq + op.potential - lam
    f_eq_residual = float(np.max(np.abs(f_eq)))

    return SpectralSolution(
        lam=lam,
        w=w_field,
        f=f,
        eigen_residual=res,
        f_eq_residual=f_eq_residual,
        iterations=iterations,
        cg_iterations=op.cg_iterations,
        cg_short_exits=op.cg_exits["max_iter"] + op.cg_exits["indefinite"],
    )


def energy_functional(g, H, f):
    """F(g, H, f) = int (R - |H|^2/12 + |df|^2_g) e^{-f} dV_g.

    Admissible f satisfy int e^{-f} dV_g = 1; use normalize_profile to shift
    an arbitrary f into the constraint set. F(g, H, .) is bounded below by
    lambda(g, H) with equality at f = -2 log w.
    """
    r = scalar_curvature(g).values
    if H is not None:
        r = r - form_norm_sq(g, H).values / 12.0
    df = gradient_values(g.grid, f.values)
    df_sq = np.einsum("...ab,...a,...b->...", g.inv_values, df, df)
    density = (r + df_sq) * np.exp(-f.values) * g.sqrt_det_values
    return float(np.sum(density)) * g.grid.cell_volume


def normalize_profile(g, f):
    """Shift f by a constant so that int e^{-f} dV_g = 1."""
    mass = float(np.sum(np.exp(-f.values) * g.sqrt_det_values)) * g.grid.cell_volume
    return ScalarField(g.grid, f.values + np.log(mass))


def total_field_strength(grid, b, hhat=None):
    """H = Hhat + db for a 2-form potential b and optional closed background."""
    H = exterior_derivative(b)
    if hhat is not None:
        H = TensorField(grid, H.values + hhat.values, "antisymmetric")
    return H


def mu_value(g, b, hhat=None, tol=DEFAULT_EIG_TOL, w0=None):
    """mu(g, b) = lambda(g, Hhat + db)."""
    H = total_field_strength(g.grid, b, hhat)
    return lowest_eigenpair(g, H, tol=tol, w0=w0).lam


@dataclass(frozen=True)
class MuGradient:
    """Gradient of mu in the L2(e^{-f} dV_g) pairing.

    g_part = -Ric - Hess f + H^2/4 (symmetric 2-tensor),
    b_part = -(d* H + grad f . H)/2 (2-form). Pairing a direction (h, beta)
    against these with weight e^{-f} reproduces d/dt mu(g + t h, b + t beta).
    """

    g_part: TensorField
    b_part: TensorField
    solution: SpectralSolution

    def pair(self, g, h, beta):
        """Directional pairing <grad mu, (h, beta)> in L2(e^{-f} dV_g)."""
        weight = ScalarField(g.grid, np.exp(-self.solution.f.values))
        total = weighted_inner(self.g_part, h, g, weight)
        total += weighted_inner(self.b_part, beta, g, weight)
        return total

    def norm(self, g):
        """L2(e^{-f} dV_g) norm of the pair."""
        weight = ScalarField(g.grid, np.exp(-self.solution.f.values))
        sq = weighted_inner(self.g_part, self.g_part, g, weight)
        sq += weighted_inner(self.b_part, self.b_part, g, weight)
        return np.sqrt(max(sq, 0.0))


def mu_gradient(g, b, hhat=None, tol=DEFAULT_EIG_TOL, w0=None):
    """Assemble the gradient of mu at (g, b) from the solved eigenprofile."""
    H = total_field_strength(g.grid, b, hhat)
    sol = lowest_eigenpair(g, H, tol=tol, w0=w0)
    grad_f = gradient_vector(g, sol.f)
    g_part_vals = (
        -ricci_values(g)
        - hessian(g, sol.f).values
        + 0.25 * h_squared(g, H).values
    )
    b_part_vals = -0.5 * (
        codifferential(g, H).values + interior_product(grad_f, H).values
    )
    return MuGradient(
        g_part=TensorField(g.grid, g_part_vals, "symmetric2"),
        b_part=TensorField(g.grid, b_part_vals, "antisymmetric"),
        solution=sol,
    )


def mu_directional_derivative(g, b, h, beta, hhat=None, eps=1e-4,
                              tol=DEFAULT_EIG_TOL, w0=None):
    """Central finite difference of mu along (h, beta); the gradient oracle."""
    if w0 is None:
        H = total_field_strength(g.grid, b, hhat)
        w0 = lowest_eigenpair(g, H, tol=tol).w
    values = []
    for sgn in (+1.0, -1.0):
        g_side = MetricField(g.grid, g.values + sgn * eps * h.values)
        b_side = TensorField(g.grid, b.values + sgn * eps * beta.values,
                             "antisymmetric")
        values.append(mu_value(g_side, b_side, hhat, tol=tol, w0=w0))
    return (values[0] - values[1]) / (2.0 * eps)


def linearized_gradient_flat(g_flat, h, beta, div_tol=1e-8):
    """Derivative of the mu-gradient at a flat background along (h, beta).

    Requires Ric(g_flat) to vanish to tolerance and h to be divergence-free;
    directions failing the gauge condition are rejected, not projected. The
    operator returned is block diagonal,

        ( Delta^L h / 2 ,  -(d* d beta) / 2 ),

    written with the negative-spectrum Lichnerowicz operator of `lichnerowicz`
    (equivalently, minus one half times the positive-spectrum Lichnerowicz),
    so both blocks are negative semidefinite and perturbations decay.
    """
    ric_sup = float(np.max(np.abs(ricci_values(g_flat))))
    if ric_sup > div_tol:
        raise FieldError(f"background is not flat: sup |Ric| = {ric_sup:.3e}")
    div_sup = float(np.max(np.abs(divergence(g_flat, h).values)))
    if div_sup > div_tol:
        raise FieldError(
            f"direction is not divergence-free: sup |div h| = {div_sup:.3e}"
        )
    g_lin = 0.5 * lichnerowicz(g_flat, h).values
    b_lin = -0.5 * codifferential(g_flat, exterior_derivative(beta)).values
    return (
        TensorField(g_flat.grid, g_lin, "symmetric2"),
        TensorField(g_flat.grid, b_lin, "antisymmetric"),
    )


@dataclass(frozen=True)
class CriticalPointReport:
    """Stationarity residuals of a state, all sup-norms over components.

    mu_grad_g / mu_grad_b: residuals of the gradient of mu.
    ricci_vs_h2: ||Ric - H^2/4||, the metric part of flow stationarity.
    hodge_h: ||Delta_g H||, the form part of flow stationarity.
    scalar_gap: sup |R - |H|^2/12|; a nonzero value at a stationary point
        with H != 0 witnesses that stationary points of the flow need not be
        generalized scalar-flat.
    identity_gap: |(1/6) int |H|^2 e^{-f} dV - mu|, which vanishes at
        critical points of mu and forces H = 0 there when mu <= 0.
    """

    mu: float
    mu_grad_g: float
    mu_grad_b: float
    ricci_vs_h2: float
    hodge_h: float
    scalar_gap: float
    identity_gap: float

    def as_dict(self):
        return {
            "mu": self.mu,
            "mu_grad_g": self.mu_grad_g,
            "mu_grad_b": self.mu_grad_b,
            "ricci_vs_h2": self.ricci_vs_h2,
            "hodge_h": self.hodge_h,
            "scalar_gap": self.scalar_gap,
            "identity_gap": self.identity_gap,
        }


def critical_point_diagnostics(g, H, sol=None, tol=DEFAULT_EIG_TOL):
    """Evaluate every stationarity residual of interest at (g, H)."""
    if sol is None:
        sol = lowest_eigenpair(g, H, tol=tol)
    grad_f = gradient_vector(g, sol.f)
    h2 = h_squared(g, H).values if H is not None else 0.0
    h_norm_sq = form_norm_sq(g, H).values if H is not None else np.zeros(g.grid.shape)

    grad_g = ricci_values(g) + hessian(g, sol.f).values - 0.25 * h2
    if H is not None:
        grad_b = codifferential(g, H).values + interior_product(grad_f, H).values
        hodge_h = float(np.max(np.abs(hodge_laplacian(g, H).values)))
    else:
        grad_b = np.zeros(g.grid.shape)
        hodge_h = 0.0

    r = scalar_curvature(g).values
    weight = np.exp(-sol.f.values) * g.sqrt_det_values
    identity = np.sum(h_norm_sq * weight) * g.grid.cell_volume / 6.0

    return CriticalPointReport(
        mu=sol.lam,
        mu_grad_g=float(np.max(np.abs(grad_g))),
        mu_grad_b=float(np.max(np.abs(grad_b))),
        ricci_vs_h2=float(np.max(np.abs(ricci_values(g) - 0.25 * h2))),
        hodge_h=hodge_h,
        scalar_gap=float(np.max(np.abs(r - h_norm_sq / 12.0))),
        identity_gap=float(abs(identity - sol.lam)),
    )
