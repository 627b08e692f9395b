"""Reproducible band-limited perturbations of lattice fields.

All randomness flows through numpy's default PCG64 generator seeded
explicitly, and modes are enumerated in a fixed lexicographic order, so a
seed pins the perturbation across runs and platforms. Fields are trigonometric
polynomials: only wavevectors with 0 < max |k_a| <= cutoff appear, one
representative per {k, -k} pair, each carrying independent cosine and sine
coefficients per component.
"""

from __future__ import annotations

import itertools
import numbers

import numpy as np

from .errors import FieldError
from .lattice import TensorField, increasing_tuples, symmetric_pairs


def _positive_modes(n_dims, cutoff):
    """Lexicographically positive integer wavevectors within the band."""
    modes = []
    for k in itertools.product(range(-cutoff, cutoff + 1), repeat=n_dims):
        nonzero = next((c for c in k if c != 0), 0)
        if nonzero > 0:
            modes.append(k)
    return modes


def trig_polynomial(grid, rng, component_shape=(), cutoff=1):
    """Random real trigonometric polynomial with the given component shape,
component major: shape component_shape + grid shape.

    Coefficients are uniform on [-1, 1]; the draw order is (mode, component,
    cos/sin) in C order, which makes the field a pure function of the
    generator state. A mode's phase, cosine and sine span only the grid axes
    it varies along and broadcast into the sum, which adds the terms in the
    same order as on full grids, so the bits are those of a full-grid
    evaluation. The cutoff must stay below N/2 on every axis: the
    derivative stencil cannot see a k = N/2 (Nyquist) checkerboard, and a
    metric that varies only in checkerboards is a fixed point of every flow.
    A cutoff that is not a positive integer raises FieldError before any draw.
    """
    if not isinstance(cutoff, numbers.Integral) or cutoff < 1:
        raise FieldError(
            f"frequency cutoff must be a positive integer, got {cutoff!r}")
    if 2 * cutoff >= min(grid.resolutions):
        raise FieldError(
            f"frequency cutoff {cutoff} reaches the Nyquist band of a "
            f"{min(grid.resolutions)}-point axis")
    modes = _positive_modes(grid.n_dims, cutoff)
    coeffs = rng.uniform(-1.0, 1.0, size=(len(modes),) + tuple(component_shape) + (2,))
    angular = [2.0 * np.pi * x / p
               for x, p in zip(grid.coordinate_arrays(), grid.periods)]
    out = np.zeros(tuple(component_shape) + grid.shape)
    for m, k in enumerate(modes):
        # 0.0 + x is the sum a zero-filled grid would make, signed zeros too
        phase = 0.0
        for a, k_a in enumerate(k):
            if k_a != 0:
                phase = phase + k_a * angular[a]
        cos, sin = np.cos(phase), np.sin(phase)
        out += np.multiply.outer(coeffs[m, ..., 0], cos)
        out += np.multiply.outer(coeffs[m, ..., 1], sin)
    return out


def _draw(grid, seed, cutoff):
    """A seeded random n x n trigonometric polynomial, component major."""
    n = grid.n_dims
    return trig_polynomial(grid, np.random.default_rng(seed),
                           component_shape=(n, n), cutoff=cutoff)


def _scaled(grid, values, amplitude, symmetry):
    """The packed field values scaled to sup |components| = amplitude."""
    peak = float(np.max(np.abs(values)))
    if peak == 0.0:
        raise FieldError("degenerate draw: perturbation vanished")
    return TensorField(grid, values * (amplitude / peak), symmetry)


def random_metric_perturbation(grid, amplitude, seed, cutoff=1):
    """Symmetric 2-tensor perturbation with sup |components| = amplitude:
    the symmetric part of a random matrix, on its pairs i <= j."""
    raw = _draw(grid, seed, cutoff)
    i, j, _ = symmetric_pairs(grid.n_dims)
    return _scaled(grid, 0.5 * (raw[i, j] + raw[j, i]), amplitude,
                   "symmetric2")


def random_form_perturbation(grid, amplitude, seed, cutoff=1):
    """2-form potential perturbation with sup |components| = amplitude:
    the antisymmetric part of a random matrix, on its pairs i < j."""
    raw = _draw(grid, seed, cutoff)
    i, j = zip(*increasing_tuples(grid.n_dims, 2))
    return _scaled(grid, 0.5 * (raw[i, j] - raw[j, i]), amplitude,
                   "antisymmetric")
