"""Diffeomorphism recovery for the gauge-fixed flow.

The gauge-fixed and plain flows differ by the flow of the gauge vector field:
integrating d(psi)/dt = -X o psi from the identity and pulling the gauged
solution back along psi reproduces the ungauged one. Maps are stored as
periodic displacements u with psi(x) = x + u(x), a vector field stored
component major like every field, and the Jacobian of psi is the lattice
derivative of the displacement.

Off-grid values come from periodic cubic B-splines in numpy. A field's
components are prefiltered together, once per grid axis, by the inverse of
the periodic (1, 4, 1)/6 circulant. Each axis's floor indices and four cubic
weights are then built once per call and shared by every component; the
4^(n-1) taps of the trailing axes expand to flat offsets and weight products
per point, and each of the four first-axis taps gathers every component at
once. A pullback interpolates only the packed components of its field,
n(n+1)/2 for a symmetric 2-tensor and C(n, k) for a k-form. Its Jacobian
contraction is the one place full storage appears: each packed output
component sums over every full index tuple of the interpolated field.

Maps step through flow's RK4, a step's recorded stages its slopes in order.
The package needs numpy alone; scipy.ndimage's map_coordinates is the tests'
independent oracle for these splines.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import FieldError, JacobianError
from .lattice import (
    ScalarField,
    TensorField,
    expand_form,
    gradient_values,
    increasing_tuples,
    require_field,
    symmetric_pairs,
)
from .geometry import MetricField
from .flow import _rk4

_MIN_JACOBIAN = 0.1


def _index_coordinates(grid, u_values):
    """Grid-index coordinates of psi(x) = x + u(x), the axis first."""
    base = grid.coordinate_arrays()
    return np.stack([(base[a] + u_values[a]) / grid.spacings[a]
                     for a in range(grid.n_dims)], axis=0)


@functools.lru_cache(maxsize=None)
def _prefilter_matrix(m):
    """Read-only inverse of the periodic (1, 4, 1)/6 circulant on m points,
    which turns node values along one axis into spline coefficients.

    The real Fourier basis of spectrum diagonalizes it, with eigenvalues
    6 / (4 + 2 cos k); its entries are built in closed form instead, the
    pole z = sqrt(3) - 2 raised to the periodic distance, which keeps them to
    an ulp where a synthesis from that basis loses tens.
    """
    z = np.sqrt(3.0) - 2.0
    d = np.arange(m)
    column = (6.0 * z / (z * z - 1.0)) * (z ** d + z ** (m - d)) / (1.0 - z ** m)
    inverse = column[np.subtract.outer(d, d) % m]
    inverse.setflags(write=False)
    return inverse


def _taps(coords, m):
    """The four node indices floor - 1 .. floor + 2, wrapped onto an axis of
    m points, and their cubic B-spline weights at grid-index coordinates,
    each of shape (4,) + coords.shape. A non-finite coordinate gets an
    arbitrary index and non-finite weights."""
    x = np.mod(coords, m)
    floor = np.floor(x)
    t = x - floor
    with np.errstate(invalid="ignore"):  # NaN casts to an arbitrary integer
        i = floor.astype(np.intp)
    s, t2 = 1.0 - t, t * t
    weights = np.stack([s * s * s, (3.0 * t - 6.0) * t2 + 4.0,
                        ((3.0 - 3.0 * t) * t + 3.0) * t + 1.0, t2 * t]) / 6.0
    # np.mod may round a tiny negative coordinate up to m exactly, whose
    # taps wrap like those of 0
    return np.add.outer(np.arange(-1, 3), i) % m, weights


def _interpolate(stack, coords_index):
    """Periodic cubic spline of each field of stack (components first, then
    the grid axes) at grid-index coordinates (the axis first)."""
    shape = stack.shape[1:]
    coeffs = stack
    for a, m in enumerate(shape, 1):
        coeffs = np.moveaxis(
            _prefilter_matrix(m) @ np.moveaxis(coeffs, a, -2), -2, a)
    flat = coeffs.reshape(len(stack), -1)
    strides = np.cumprod((1,) + shape[:0:-1])[::-1]
    (first, w_first), *rest = [_taps(c, m) for c, m in zip(coords_index, shape)]
    points = first.shape[1:]
    # the trailing axes' taps of each point: flat offsets and weight products
    offset = np.zeros((1,) + points, dtype=np.intp)
    weight = np.ones((1,) + points)
    for (idx, w), stride in zip(rest, strides[1:]):
        offset = (offset[:, None] + stride * idx).reshape((-1,) + points)
        weight = (weight[:, None] * w).reshape((-1,) + points)
    out = 0.0
    for idx, w in zip(first * strides[0], w_first):
        taps = np.take(flat, idx + offset, axis=1)
        out = out + np.einsum("ct...,t...->c...", taps, w * weight)
    return out


def displacement_jacobian(grid, u_values):
    """J[a, i] = d(psi^a)/dx^i for psi = id + u, by the lattice stencil,
    shape (n, n) + grid."""
    n = grid.n_dims
    eye = np.eye(n).reshape((n, n) + (1,) * n)
    return np.swapaxes(gradient_values(grid, u_values), 0, 1) + eye


def _check_jacobian(jac):
    if not np.all(np.isfinite(jac)):
        raise JacobianError("map is not finite")
    det_min = float(np.min(np.linalg.det(np.moveaxis(jac, (0, 1), (-2, -1)))))
    if not det_min > _MIN_JACOBIAN:
        raise JacobianError(
            f"map degenerates: min det J = {det_min:.3e} <= {_MIN_JACOBIAN}")


def diffeo_flow(x_series, grid):
    """Integrate d(psi)/dt = -X o psi through a recorded gauge-field series.

    x_series is the gauge_series of a Trajectory: one (t, dt, stages) entry
    per accepted step, stages holding the gauge vector at the four
    Runge-Kutta stage states, which flow's RK4 step takes as its slopes in
    order: the map integration keeps the integrator's order instead of
    degrading through time interpolation.

    Returns the displacement of the final map, the identity's (zero) for an
    empty series. Raises FieldError if a stage is not a vector field on grid,
    and JacobianError if any accepted map is not finite or leaves the
    diffeomorphism guard det J > 0.1.
    """
    u = np.zeros((grid.n_dims,) + grid.shape)
    for _, dt, stages in x_series:
        for x in stages:
            require_field("gauge stage", x, grid, "vector", 1)
        pending = iter(stages)

        def slope(u_now):
            x = next(pending).values
            return (-_interpolate(x, _index_coordinates(grid, u_now)),), None

        u = _rk4(u, dt, slope, lambda y, h, k: y + h * k[0][0], slope(u))[0]
        _check_jacobian(displacement_jacobian(grid, u))
    return TensorField(grid, u, "vector")


def pullback(displacement, fld):
    """Pull a covariant field back along psi = id + displacement.

    (psi* T)_{i...}(x) = J^a_i(x) ... T_{a...}(psi(x)) with J the lattice
    Jacobian of psi and field values at psi(x) interpolated by periodic cubic
    splines. Only the packed components are interpolated and computed (the
    pairs i <= j of a symmetric 2-tensor, the increasing index tuples of a
    k-form). Accepts scalar fields, covariant TensorFields, and MetricFields
    (returned as a MetricField) on the displacement's grid; contravariant
    fields are rejected since they push forward, not back.
    """
    grid = fld.grid
    require_field("displacement", displacement, grid, "vector", 1)
    if fld.symmetry == "vector":
        raise FieldError("cannot pull back a contravariant field")
    u = displacement.values
    jac = displacement_jacobian(grid, u)
    _check_jacobian(jac)
    coords_index = _index_coordinates(grid, u)

    if fld.symmetry == "scalar":
        return ScalarField(grid, _interpolate(fld.values[None], coords_index)[0])
    if not len(fld.values):  # a form of degree above n is 0
        return fld

    n, rank = grid.n_dims, fld.rank
    moved = _interpolate(fld.values, coords_index)
    # the index tuples of the packed components, and the full storage
    if fld.symmetry == "symmetric2":
        i, j, table = symmetric_pairs(n)
        tuples, full = tuple(zip(i, j)), moved[table]
    else:
        tuples, full = increasing_tuples(n, rank), expand_form(moved, n, rank)
    # each packed component i... sums T_{a...}(psi(x)) J^a_i ... over every
    # full index tuple a..., by multiply-adds in one fixed order
    comps = [0.0] * len(tuples)
    for p, idx in enumerate(tuples):
        for src in np.ndindex(*(n,) * rank):
            term = full[src]
            for a, i in zip(src, idx):
                term = term * jac[a, i]
            comps[p] = comps[p] + term
    out = np.stack(comps)
    if isinstance(fld, MetricField):
        return MetricField(grid, out)
    return TensorField(grid, out, fld.symmetry)
