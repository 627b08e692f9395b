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
reduction is exact with h3 constant: the flow is the matrix ODE
dg/dt = -2 Ric(g) + h3^2 g / det g in g alone, and h3 is an unknown only of
the stationary-point search.
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
# epsilon_{ijk}, the k-th component of e_i x e_j
_EPSILON = np.cross(np.eye(3)[:, None], np.eye(3)[None, :])
_EPSILON.setflags(write=False)


# Milnor's triple lambda of each named algebra
ALGEBRAS = {"su2": (1, 1, 1), "heisenberg": (0, 0, 1), "abelian": (0, 0, 0)}


@dataclass(frozen=True)
class LieData:
    """Left-invariant state: Milnor's triple, metric matrix, 3-form size.

    Validated on construction: lambda must be a finite triple and h3 finite,
    else FieldError, and g a finite 3 x 3 matrix symmetric to 1e-12
    (FieldError), kept as its exactly symmetric part, that is positive
    definite (PositivityError). H = h3 e^123. The read-only structure
    constants c[k, i, j] = c^k_{ij} = lambda_k epsilon_{ijk}, with [e_i, e_j]
    = c^k_{ij} e_k, are built once from lambda.
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
        g = 0.5 * (g + g.T)
        _require_positive(g)
        for name, arr in (("lam", lam), ("g", g),
                          ("c", lam[:, None, None] * _EPSILON)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "h3", h3)

    @property
    def inv(self):
        return np.linalg.inv(self.g)

    def _with_metric(self, g):
        """This data at the metric g, unvalidated: a Runge-Kutta stage of
        invariant_flow, whose g is exactly symmetric by construction and has
        passed _require_positive; the other checks hold for self."""
        stage = object.__new__(LieData)
        stage.__dict__.update(self.__dict__, g=g)
        return stage


def _require_positive(g):
    """FieldError unless the symmetric matrix g is finite, PositivityError
    unless it is positive definite (a Cholesky factorization passes NaN)."""
    if not np.all(np.isfinite(g)):
        raise FieldError("non-finite entries in Lie data")
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        raise PositivityError("metric matrix is not positive definite")


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
    """(H^2)_{ij} = H_{iab} H_{jcd} g^{ac} g^{bd} of H = h3 e^123, in closed
    form 2 h3^2 g / det g."""
    return (2.0 * data.h3 ** 2 / np.linalg.det(data.g)) * data.g


def invariant_norm_sq(data):
    """|H|^2 = H_{ijk} H^{ijk} of H = h3 e^123, in closed form
    6 h3^2 / det g."""
    return float(6.0 * data.h3 ** 2 / np.linalg.det(data.g))


def invariant_grf_rhs(data):
    """The velocity dg/dt = -2 (Ric - H^2/4) of the matrix ODE, a symmetric
    3 x 3 array. h3 has none: the invariant 3-form is harmonic on a
    unimodular algebra, the only kind a LieData holds, so it stays fixed."""
    return -2.0 * _stationary_defect(data)


def _stationary_defect(data):
    """Ric - H^2/4, which vanishes exactly at a stationary point."""
    return invariant_ricci(data) - 0.25 * invariant_h_squared(data)


def stationarity_residual(data):
    """sup |Ric - H^2/4|, the stationary system's metric block."""
    return float(np.max(np.abs(_stationary_defect(data))))


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

    x = np.append(data0.g[symmetric_pairs(3)[:2]], data0.h3)
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
    """Fixed-step RK4 integration of the matrix ODE in g, at data0's fixed
    h3, from t = 0 to exactly t_max.

    Uses the lattice flows' Runge-Kutta step, halved while the metric leaves
    the SPD cone (StepSizeError when that never ends). A stage is tested
    for positivity alone, and each accepted step is validated as a LieData.
    t_max and dt must be positive and finite, else ConfigError. The clock is
    dt times the exact count of (halved) steps, and a rest to t_max no longer
    than dt plus four ulps of t_max is the last step, so no sliver step
    follows it. Returns (records, final LieData), one record per step and one
    at t_max, each holding t, the six upper metric entries, the stationarity
    residual and dt, the step taken from the record (after any halving; 0.0
    at t_max).
    """
    if not (0 < t_max < math.inf and 0 < dt < math.inf):
        raise ConfigError("t_max and dt must be positive and finite")

    def slope(data):
        return (invariant_grf_rhs(data),), None

    def advance(data, h, k):
        # the velocity is exactly symmetric, so the stage metric is too
        g = data.g + h * k[0][0]
        _require_positive(g)
        return data._with_metric(g)

    def make_row(t, data, residual, h):
        entries = {f"g{i + 1}{j + 1}": float(data.g[i, j])
                   for i, j in zip(*symmetric_pairs(3)[:2])}
        return {"t": t, **entries, "stat_residual": residual, "dt": h}

    records, data, t, steps = [], data0, 0.0, 0.0
    while t < t_max:
        rest = t_max - t
        last = rest <= dt + 4.0 * math.ulp(t_max)
        k1 = slope(data)
        stage, _, h = _rk4_with_retries(data, rest if last else dt, slope,
                                        advance, t, k1)
        # k1 is -2 times the stationary defect, so this is exactly
        # stationarity_residual(data)
        records.append(make_row(t, data, 0.5 * float(np.max(np.abs(
            k1[0][0]))), h))
        data = LieData(data.lam, stage.g, data.h3)
        # a step of dt halved m times adds 2^-m to steps, exactly
        steps += h / dt
        t = t_max if last and h == rest else steps * dt
    records.append(make_row(t, data, stationarity_residual(data), 0.0))
    return records, data
