"""Exact reduction of the coupled flow to left-invariant data on 3D groups.

A left-invariant metric on a 3-dimensional Lie group is a single SPD matrix
in a fixed frame, and every invariant 3-form is a multiple h3 of e1^e2^e3,
closed for dimension reasons. Curvature comes from the structure constants
through the Koszul formula, with no discretization error, so this module
supplies exact stationary points (Ric = H^2/4 with nonzero H) that flat
torus grids cannot host, plus an independent right-hand side the lattice
code must reproduce on constant data.

The groups are the unimodular ones, with their algebras in Milnor's form
(Milnor, Adv. Math. 21, 1976): in a suitable frame [e_i, e_j] =
lambda_k e_k for each cyclic (i, j, k), so an algebra is its triple lambda,
and ALGEBRAS names the ones the pipelines use. The structure constants
c^k_{ij} = lambda_k epsilon_{ijk} are derived from the triple. On every
triple the Jacobi identity holds and every bracket ad_{e_i} is traceless,
so the invariant 3-form is harmonic (d*H = 0), f is constant, and the
reduction is exact with h3 constant along the flow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ConvergenceError, FieldError, PositivityError
from .flow import _rk4_with_retries
from .lattice import symmetric_pairs

# find_stationary's sup residual goal and its Newton step budget
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 100
_EPSILON = np.zeros((3, 3, 3))
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    _EPSILON[_i, _j, _k] = 1.0
    _EPSILON[_i, _k, _j] = -1.0
_EPSILON.setflags(write=False)


# Milnor's triple lambda of each named algebra
ALGEBRAS = {"su2": (1, 1, 1), "heisenberg": (0, 0, 1), "abelian": (0, 0, 0)}


@dataclass(frozen=True)
class LieData:
    """Left-invariant state: Milnor's triple, metric matrix, 3-form size.

    Validated on construction: lambda must be a finite triple and h3 finite,
    else FieldError, and g a finite symmetric 3 x 3 matrix (FieldError) that is
    positive definite (PositivityError). The read-only structure constants
    c[k, i, j] = c^k_{ij} = lambda_k epsilon_{ijk}, with [e_i, e_j] =
    c^k_{ij} e_k, are built once from lambda.
    """

    lam: np.ndarray
    g: np.ndarray
    h3: float
    c: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        lam = np.array(self.lam, dtype=float)
        g = np.array(self.g, dtype=float)
        h3 = float(self.h3)
        if lam.shape != (3,) or g.shape != (3, 3):
            raise FieldError("expected lam of shape (3,) and g of shape (3,3)")
        if not np.all(np.isfinite([*lam, *g.flat, h3])):
            raise FieldError("non-finite entries in Lie data")
        if np.max(np.abs(g - g.T)) > 1e-12:
            raise FieldError("metric matrix not symmetric")
        try:
            np.linalg.cholesky(g)
        except np.linalg.LinAlgError:
            raise PositivityError("metric matrix is not positive definite")
        c = lam[:, None, None] * _EPSILON
        for arr in (lam, g, c):
            arr.setflags(write=False)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "h3", h3)

    @property
    def inv(self):
        return np.linalg.inv(self.g)

    def full_form(self):
        """Component array H_{ijk} = h3 * epsilon_{ijk}."""
        return self.h3 * _EPSILON


def _koszul(data):
    """Connection coefficients: nabla_{e_i} e_j = gamma^l_{ij} e_l."""
    c, g = data.c, data.g
    a = np.einsum("aij,ak->kij", c, g)
    b = np.einsum("ajk,ai->kij", c, g)
    d = np.einsum("aki,aj->kij", c, g)
    return 0.5 * np.einsum("lk,kij->lij", data.inv, a - b + d)


def invariant_ricci(data):
    """Ricci matrix of the left-invariant metric.

    Ric_{jk} = gamma^m_{jk} gamma^i_{im} - gamma^m_{ik} gamma^i_{jm}
               - c^a_{ij} gamma^i_{ak},
    the frame trace of the curvature operator written through the Koszul
    coefficients.
    """
    gamma = _koszul(data)
    trace = np.einsum("iim->m", gamma)
    ric = (
        np.einsum("mjk,m->jk", gamma, trace)
        - np.einsum("mik,ijm->jk", gamma, gamma)
        - np.einsum("aij,iak->jk", data.c, gamma)
    )
    return 0.5 * (ric + ric.T)


def invariant_scalar_curvature(data):
    """Scalar curvature, the g-trace of the Ricci matrix."""
    return float(np.einsum("jk,jk->", data.inv, invariant_ricci(data)))


def invariant_h_squared(data):
    """(H^2)_{ij} = H_{iab} H_{jcd} g^{ac} g^{bd}; equals
    2 h3^2 det(g^{-1}) g in closed form."""
    h = data.full_form()
    inv = data.inv
    return np.einsum("iab,jcd,ac,bd->ij", h, h, inv, inv)


def invariant_norm_sq(data):
    """|H|^2 = H_{ijk} H^{ijk}, full contraction (6 h3^2 / det g)."""
    h = data.full_form()
    inv = data.inv
    return float(np.einsum("ijk,abc,ia,jb,kc->", h, h, inv, inv, inv))


def invariant_grf_rhs(data):
    """Matrix ODE right-hand side: (dg, dh3) = (-2 Ric + H^2/2, 0).

    dh3 = 0 because the invariant 3-form is harmonic on a unimodular
    algebra, the only kind a LieData holds.
    """
    return -2.0 * _stationary_defect(data), 0.0


def _stationary_defect(data):
    """Ric - H^2/4, which vanishes exactly at a stationary point."""
    return invariant_ricci(data) - 0.25 * invariant_h_squared(data)


def stationarity_residual(data):
    """sup |Ric - H^2/4|, the stationary system's metric block."""
    return float(np.max(np.abs(_stationary_defect(data))))


def _pack(g, h3):
    return np.concatenate([g[symmetric_pairs(3)[:2]], [h3]])


def _unpack(x):
    return x[symmetric_pairs(3)[2]], float(x[6])


def find_stationary(data0):
    """Newton iteration onto the stationary set Ric = H^2/4, to a sup
    residual below NEWTON_TOL in at most NEWTON_MAX_ITER steps.

    The system has 6 equations in the 7 unknowns (g, h3); the least-squares
    Newton step handles the underdetermined Jacobian and lands on the nearby
    point of the stationary family. Steps start at damping 0.5 and backtrack
    on the residual norm; metric trial steps that leave the SPD cone are
    rejected by the same backtracking.
    """

    def residual(x):
        defect = _stationary_defect(LieData(data0.lam, *_unpack(x)))
        return defect[symmetric_pairs(3)[:2]]

    def norm_or_inf(x):
        try:
            return float(np.linalg.norm(residual(x)))
        except PositivityError:
            return float("inf")

    x = _pack(np.array(data0.g), data0.h3)
    res = residual(x)
    for _ in range(NEWTON_MAX_ITER):
        if float(np.max(np.abs(res))) < NEWTON_TOL:
            g, h3 = _unpack(x)
            return LieData(data0.lam, g, h3)
        jac = np.zeros((6, 7))
        for col in range(7):
            h = 1e-7 * max(abs(x[col]), 1.0)
            bumped = x.copy()
            bumped[col] += h
            jac[:, col] = (residual(bumped) - res) / h
        delta = np.linalg.lstsq(jac, -res, rcond=None)[0]
        base_norm = float(np.linalg.norm(res))
        step = 0.5
        for _ in range(40):
            if norm_or_inf(x + step * delta) < base_norm:
                break
            step *= 0.5
        else:
            raise ConvergenceError(
                "stationary-point search stalled: no descent step found")
        x = x + step * delta
        res = residual(x)
    raise ConvergenceError(
        f"stationary-point search did not reach {NEWTON_TOL:.1e}; "
        f"residual {float(np.max(np.abs(res))):.3e}")


def invariant_flow(data0, t_max, dt=0.002):
    """Fixed-step RK4 integration of the matrix ODE up to t_max.

    Uses the lattice flows' Runge-Kutta step, halved while the metric leaves
    the SPD cone (StepSizeError when that never ends). t_max and dt must be
    positive and finite, else ConfigError. Returns (records, final LieData),
    one record per step and one at the end. Each record holds t, the six
    upper metric entries, h3, the stationarity residual, and dt.
    """
    if not (0 < t_max < math.inf and 0 < dt < math.inf):
        raise ConfigError("t_max and dt must be positive and finite")

    def slope(data):
        return (invariant_grf_rhs(data)[0],), None

    def advance(data, h, k):
        return LieData(data.lam, data.g + h * k[0][0], data.h3)

    def make_row(t, data, res, h):
        row = {"t": t, "h3": data.h3, "stat_residual": res, "dt": h}
        for i, j in zip(*symmetric_pairs(3)[:2]):
            row[f"g{i + 1}{j + 1}"] = float(data.g[i, j])
        return row

    records = []
    data = data0
    t = 0.0
    while t < t_max - 1e-15:
        records.append(make_row(t, data, stationarity_residual(data), dt))
        data, _, h = _rk4_with_retries(data, min(dt, t_max - t), slope,
                                       advance, t)
        t += h
    records.append(make_row(t, data, stationarity_residual(data), dt))
    return records, data
