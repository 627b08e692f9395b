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

import numpy as np

from .errors import FieldError
from .lattice import TensorField, stencil_symbol


def _positive_modes(n_dims, cutoff):
    """Lexicographically positive integer wavevectors within the band."""
    modes = []
    for k in itertools.product(range(-cutoff, cutoff + 1), repeat=n_dims):
        nonzero = next((c for c in k if c != 0), 0)
        if nonzero > 0:
            modes.append(k)
    return modes


def trig_polynomial(grid, rng, component_shape=(), cutoff=1):
    """Random real trigonometric polynomial with the given component shape.

    Coefficients are uniform on [-1, 1]; the draw order is (mode, component,
    cos/sin) in C order, which makes the field a pure function of the
    generator state.
    """
    modes = _positive_modes(grid.n_dims, cutoff)
    if not modes:
        raise FieldError("frequency cutoff leaves no modes")
    coeffs = rng.uniform(-1.0, 1.0, size=(len(modes),) + tuple(component_shape) + (2,))
    axes = [grid.axis_coordinates(a) for a in range(grid.n_dims)]
    angular = [2.0 * np.pi * x / p for x, p in zip(axes, grid.periods)]
    out = np.zeros(tuple(component_shape) + grid.shape)
    for m, k in enumerate(modes):
        phase = np.zeros(grid.shape)
        for a, k_a in enumerate(k):
            if k_a == 0:
                continue
            shape = [1] * grid.n_dims
            shape[a] = grid.resolutions[a]
            phase = phase + k_a * angular[a].reshape(shape)
        cos, sin = np.cos(phase), np.sin(phase)
        a_k = coeffs[m, ..., 0]
        b_k = coeffs[m, ..., 1]
        out = out + np.multiply.outer(a_k, cos) + np.multiply.outer(b_k, sin)
    # move component axes behind the grid axes
    n_comp = len(component_shape)
    if n_comp:
        out = np.moveaxis(out, range(n_comp), range(-n_comp, 0))
    return out


def random_metric_perturbation(grid, amplitude, seed, cutoff=1):
    """Symmetric 2-tensor perturbation with sup |components| = amplitude."""
    rng = np.random.default_rng(seed)
    n = grid.n_dims
    raw = trig_polynomial(grid, rng, component_shape=(n, n), cutoff=cutoff)
    sym = 0.5 * (raw + np.swapaxes(raw, -1, -2))
    peak = float(np.max(np.abs(sym)))
    if peak == 0.0:
        raise FieldError("degenerate draw: perturbation vanished")
    return TensorField(grid, sym * (amplitude / peak), "symmetric2")


def random_form_perturbation(grid, amplitude, seed, cutoff=1):
    """2-form potential perturbation with sup |components| = amplitude."""
    rng = np.random.default_rng(seed)
    n = grid.n_dims
    raw = trig_polynomial(grid, rng, component_shape=(n, n), cutoff=cutoff)
    anti = 0.5 * (raw - np.swapaxes(raw, -1, -2))
    peak = float(np.max(np.abs(anti)))
    if peak == 0.0:
        raise FieldError("degenerate draw: perturbation vanished")
    return TensorField(grid, anti * (amplitude / peak), "antisymmetric")


def divergence_free_projection(h):
    """Project a symmetric 2-tensor onto the kernel of the stencil divergence.

    The projection acts mode by mode in Fourier space with the modified
    wavenumbers of the derivative stencil, so the divergence computed by the
    same stencil vanishes to rounding, not merely to truncation order. Modes
    annihilated by the stencil (constant and Nyquist) pass through unchanged;
    they are discretely divergence-free already.
    """
    grid = h.grid
    n = grid.n_dims
    k_tilde = []
    for a in range(n):
        k = stencil_symbol(grid.resolutions[a], grid.spacings[a])
        shape = [1] * n
        shape[a] = grid.resolutions[a]
        k_tilde.append(k.reshape(shape))
    k_sq = sum(k * k for k in k_tilde)
    safe = np.where(k_sq == 0.0, 1.0, k_sq)

    h_hat = np.fft.fftn(h.values, axes=tuple(range(n)))
    # P_ab = delta_ab - k_a k_b / |k|^2, applied on both slots
    pk = np.stack([k_tilde[a] * np.ones(grid.shape) for a in range(n)], axis=-1)
    proj = np.eye(n) - np.einsum("...a,...b->...ab", pk, pk) / safe[..., None, None]
    projected = np.einsum("...ia,...ab,...jb->...ij", proj, h_hat, proj)
    out = np.real(np.fft.ifftn(projected, axes=tuple(range(n))))
    out = 0.5 * (out + np.swapaxes(out, -1, -2))
    return TensorField(grid, out, "symmetric2")
