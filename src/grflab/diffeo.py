"""Diffeomorphism recovery for the gauge-fixed flow.

The gauge-fixed and plain flows differ by the flow of the gauge vector field:
integrating d(psi)/dt = -X o psi from the identity and pulling the gauged
solution back along psi reproduces the ungauged one. Maps are stored as
periodic displacements u with psi(x) = x + u(x), and the Jacobian of psi is
the lattice derivative of the displacement.

Off-grid values come from periodic cubic B-splines. A field's components are
filtered together, once per grid axis, and the spline coefficients are padded
periodically by the cubic taps (one cell before, two after); each component
is then one unfiltered evaluation at the coordinates wrapped into the grid.
A pullback interpolates and contracts only the independent components of its
field, n(n+1)/2 for a symmetric 2-tensor and C(n, k) for a k-form, and
mirrors them into full storage, so the result has its symmetry exactly.

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
    expand_symmetric,
    gradient_values,
    increasing_tuples,
    symmetric_pairs,
)
from .geometry import MetricField

_MIN_JACOBIAN = 0.1


def _index_coordinates(grid, u_values):
    """Grid-index coordinates of psi(x) = x + u(x), the axis first."""
    base = grid.coordinate_arrays()
    return np.stack([(base[a] + u_values[..., a]) / grid.spacings[a]
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
    """J[..., a, i] = d(psi^a)/dx^i for psi = id + u, by the lattice stencil."""
    return np.swapaxes(gradient_values(grid, u_values), -1, -2) + np.eye(grid.n_dims)


def _check_jacobian(jac):
    det_min = float(np.min(np.linalg.det(jac)))
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
    n = grid.n_dims
    u = np.zeros(grid.shape + (n,))

    def stage_velocity(x_field, u_now):
        moved = _interpolate(np.moveaxis(x_field.values, -1, 0),
                             _index_coordinates(grid, u_now))
        return -np.moveaxis(moved, 0, -1)

    for _, dt, stages in x_series:
        x1, x2, x3, x4 = stages
        l1 = stage_velocity(x1, u)
        l2 = stage_velocity(x2, u + 0.5 * dt * l1)
        l3 = stage_velocity(x3, u + 0.5 * dt * l2)
        l4 = stage_velocity(x4, u + dt * l3)
        u = u + (dt / 6.0) * (l1 + 2.0 * l2 + 2.0 * l3 + l4)
        _check_jacobian(displacement_jacobian(grid, u))
    return TensorField(grid, u, "vector")


def _independent_components(n, rank, symmetry):
    """Index tuples of a covariant field's independent components, and the
    map from their values, stacked first, to full storage. A form of degree
    above n is zero, with no increasing index tuple, and keeps all of them."""
    if symmetry == "symmetric2":
        i, j, _ = symmetric_pairs(n)
        return tuple(zip(i, j)), lambda c: expand_symmetric(c, n)
    if symmetry == "antisymmetric" and rank <= n:
        return increasing_tuples(n, rank), lambda c: expand_form(list(c), n, rank)
    return (tuple(np.ndindex(*(n,) * rank)),
            lambda c: np.moveaxis(c, 0, -1).reshape(c.shape[1:] + (n,) * rank))


def pullback(displacement, fld):
    """Pull a covariant field back along psi = id + displacement.

    (psi* T)_{i...}(x) = J^a_i(x) ... T_{a...}(psi(x)) with J the lattice
    Jacobian of psi and field values at psi(x) interpolated by periodic cubic
    splines. Only the independent components are interpolated and contracted
    (the pairs i <= j of a symmetric 2-tensor, the increasing index tuples of
    a k-form) and then mirrored, so a pulled-back metric is exactly symmetric
    and a pulled-back form exactly antisymmetric. Accepts scalar fields,
    covariant TensorFields, and MetricFields (returned as a MetricField);
    contravariant fields are rejected since they push forward, not back.
    """
    grid = displacement.grid
    if displacement.symmetry != "vector" or displacement.rank != 1:
        raise FieldError("displacement must be a vector field")
    u = displacement.values
    jac = displacement_jacobian(grid, u)
    _check_jacobian(jac)
    coords_index = _index_coordinates(grid, u)

    is_metric = isinstance(fld, MetricField)
    source = fld.field if is_metric else fld
    if isinstance(source, ScalarField):
        return ScalarField(grid, _interpolate(source.values[None], coords_index)[0])
    if source.symmetry == "vector":
        raise FieldError("cannot pull back a contravariant field")

    rank = source.rank
    tuples, expand = _independent_components(grid.n_dims, rank, source.symmetry)
    slots = tuple(np.array(s) for s in zip(*tuples))
    moved = _interpolate(np.moveaxis(source.values[(...,) + slots], -1, 0),
                         coords_index)
    # each independent component i... sums T_{a...}(psi(x)) J^a_i ... over
    # every full index tuple a..., by multiply-adds in one fixed order
    full = expand(moved)
    comps = [0.0] * len(tuples)
    for p, idx in enumerate(tuples):
        for src in np.ndindex(*(grid.n_dims,) * rank):
            term = full[(...,) + src]
            for a, i in zip(src, idx):
                term = term * jac[..., a, i]
            comps[p] = comps[p] + term
    out = expand(np.stack(comps))
    if is_metric:
        return MetricField(grid, out)
    return TensorField(grid, out, source.symmetry)
