"""Diffeomorphism recovery for the gauge-fixed flow.

The gauge-fixed and plain flows differ by the flow of the gauge vector field:
integrating d(psi)/dt = -X o psi from the identity and pulling the gauged
solution back along psi reproduces the ungauged one. Maps are stored as
periodic displacements u with psi(x) = x + u(x), a vector field stored
component major like every field, and the Jacobian of psi is the lattice
derivative of the displacement.

Off-grid values come from periodic cubic B-splines. A field's components are
filtered together, once per grid axis, and the spline coefficients are padded
periodically by the cubic taps (one cell before, two after); each component
is then one unfiltered evaluation at the coordinates wrapped into the grid.
A pullback interpolates only the packed components of its field, n(n+1)/2
for a symmetric 2-tensor and C(n, k) for a k-form. Its Jacobian contraction
is the one place full storage appears: each packed output component sums
over every full index tuple of the interpolated field.

The splines are scipy.ndimage's, imported by _interpolate when it first runs:
no other module uses scipy, so `import grflab` and every pipeline without a
gauge recovery load numpy alone, and a fresh interpreter skips the quarter
second and the ~28 MB that importing scipy.ndimage costs.
"""

from __future__ import annotations

import numpy as np

from .errors import FieldError, JacobianError
from .lattice import (
    ScalarField,
    TensorField,
    expand_form,
    gradient_values,
    increasing_tuples,
    require_same_grid,
    symmetric_pairs,
)
from .geometry import MetricField

_MIN_JACOBIAN = 0.1


def _index_coordinates(grid, u_values):
    """Grid-index coordinates of psi(x) = x + u(x), the axis first."""
    base = grid.coordinate_arrays()
    return np.stack([(base[a] + u_values[a]) / grid.spacings[a]
                     for a in range(grid.n_dims)], axis=0)


def _interpolate(stack, coords_index):
    """Periodic cubic spline of each field of stack (components first, then
    the grid axes) at grid-index coordinates (the axis first)."""
    from scipy.ndimage import map_coordinates, spline_filter1d

    n = len(coords_index)
    coeffs = stack
    for a in range(1, n + 1):
        coeffs = spline_filter1d(coeffs, 3, axis=a, mode="grid-wrap")
    coeffs = np.pad(coeffs, [(0, 0)] + [(1, 2)] * n, mode="wrap")
    # np.mod may round a tiny negative coordinate up to N exactly; its last
    # tap then lies one past the padding with weight 0, and "nearest" clamps
    wrapped = np.stack([np.mod(c, m) + 1.0
                        for c, m in zip(coords_index, stack.shape[1:])])
    return np.stack([map_coordinates(c, wrapped, order=3, mode="nearest",
                                     prefilter=False) for c in coeffs])


def displacement_jacobian(grid, u_values):
    """J[a, i] = d(psi^a)/dx^i for psi = id + u, by the lattice stencil,
    shape (n, n) + grid."""
    n = grid.n_dims
    eye = np.eye(n).reshape((n, n) + (1,) * n)
    return np.swapaxes(gradient_values(grid, u_values), 0, 1) + eye


def _check_jacobian(jac):
    det_min = float(np.min(np.linalg.det(np.moveaxis(jac, (0, 1), (-2, -1)))))
    if det_min <= _MIN_JACOBIAN:
        raise JacobianError(
            f"map degenerates: min det J = {det_min:.3e} <= {_MIN_JACOBIAN}")


def diffeo_flow(x_series, grid):
    """Integrate d(psi)/dt = -X o psi through a recorded gauge-field series.

    x_series is the gauge_series of a Trajectory: one (t, dt, stages) entry
    per accepted step, stages holding the gauge vector at the four
    Runge-Kutta stage states. Reusing the stages keeps the map integration at
    the integrator's order instead of degrading through time interpolation.

    Returns the displacement of the final map, the identity's (zero) for an
    empty series. Raises JacobianError if any accepted map leaves the
    diffeomorphism guard det J > 0.1.
    """
    u = np.zeros((grid.n_dims,) + grid.shape)

    def stage_velocity(x_field, u_now):
        return -_interpolate(x_field.values, _index_coordinates(grid, u_now))

    for _, dt, stages in x_series:
        x1, x2, x3, x4 = stages
        l1 = stage_velocity(x1, u)
        l2 = stage_velocity(x2, u + 0.5 * dt * l1)
        l3 = stage_velocity(x3, u + 0.5 * dt * l2)
        l4 = stage_velocity(x4, u + dt * l3)
        u = u + (dt / 6.0) * (l1 + 2.0 * l2 + 2.0 * l3 + l4)
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
    grid = displacement.grid
    if displacement.symmetry != "vector":
        raise FieldError("displacement must be a vector field")
    require_same_grid(grid, fld)
    u = displacement.values
    jac = displacement_jacobian(grid, u)
    _check_jacobian(jac)
    coords_index = _index_coordinates(grid, u)

    if isinstance(fld, ScalarField):
        return ScalarField(grid, _interpolate(fld.values[None], coords_index)[0])
    is_metric = isinstance(fld, MetricField)
    symmetry = "symmetric2" if is_metric else fld.symmetry
    if symmetry == "vector":
        raise FieldError("cannot pull back a contravariant field")
    if not len(fld.values):  # a form of degree above n is 0
        return fld

    n, rank = grid.n_dims, 2 if is_metric else fld.rank
    moved = _interpolate(fld.values, coords_index)
    # the index tuples of the packed components, and the full storage
    if symmetry == "symmetric2":
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
    if is_metric:
        return MetricField(grid, out)
    return TensorField(grid, out, symmetry)
