"""Uniform periodic grids on flat tori, tensor fields, and the discrete calculus
everything else is built on.

Two exact properties of this layer carry the whole package: the centered
4th-order difference is skew-adjoint under the uniform quadrature (so the
discrete Hodge Laplacian downstream is exactly self-adjoint), and the integral
of any stencil derivative vanishes identically (telescoping around the wrap).
Reductions use numpy's pairwise summation in a fixed order, so repeated runs
are bit-reproducible.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import FieldError, NonFiniteError

TWO_PI = 2.0 * np.pi

# Recognized symmetry tags for TensorField. "vector" marks the single
# contravariant case; all other tags are covariant in every slot.
SYMMETRIES = ("general", "vector", "covector", "symmetric2", "antisymmetric")

_SYMMETRY_CHECK_TOL = 1e-12


@dataclass(frozen=True)
class Grid:
    """Uniform grid on a flat torus with per-axis resolutions and periods.

    Parameters
    ----------
    resolutions : tuple of int
        Points per axis. Each must be even and at least 8; between 2 and 4
        axes are supported.
    periods : tuple of float
        Circumference per axis, default 2*pi on every axis.
    """

    resolutions: tuple
    periods: tuple = None

    def __post_init__(self):
        res = tuple(int(r) for r in self.resolutions)
        if not 2 <= len(res) <= 4:
            raise FieldError(f"grid must have 2..4 axes, got {len(res)}")
        for r in res:
            if r < 8 or r % 2 != 0:
                raise FieldError(f"resolutions must be even and >= 8, got {r}")
        object.__setattr__(self, "resolutions", res)
        if self.periods is None:
            per = (TWO_PI,) * len(res)
        else:
            per = tuple(float(p) for p in self.periods)
        if len(per) != len(res):
            raise FieldError("periods and resolutions must have equal length")
        for p in per:
            if not np.isfinite(p) or p <= 0:
                raise FieldError(f"periods must be positive, got {p}")
        object.__setattr__(self, "periods", per)
        # per-axis cell widths, computed once; not a field, so equality and
        # hashing still see only resolutions and periods
        object.__setattr__(self, "spacings",
                           tuple(p / r for p, r in zip(per, res)))

    @property
    def n_dims(self):
        return len(self.resolutions)

    @property
    def shape(self):
        return self.resolutions

    @property
    def min_spacing(self):
        return min(self.spacings)

    @property
    def point_count(self):
        return int(np.prod(self.resolutions))

    @property
    def cell_volume(self):
        """Quadrature weight of one grid cell, prod_a h_a."""
        return float(np.prod(self.spacings))

    def axis_coordinates(self, axis):
        """1D coordinate array along one axis."""
        r = self.resolutions[axis]
        return np.arange(r) * (self.periods[axis] / r)

    def coordinate_arrays(self):
        """Broadcastable coordinate arrays, one per axis (sparse meshgrid)."""
        axes = [self.axis_coordinates(a) for a in range(self.n_dims)]
        return np.meshgrid(*axes, indexing="ij", sparse=True)


def _lock(values):
    arr = np.array(values, dtype=np.float64)
    arr.setflags(write=False)
    return arr


def _peak(values, what):
    """max |values| in two passes; NaN or inf shows in max or min and raises."""
    hi, lo = values.max(), values.min()
    if not (math.isfinite(hi) and math.isfinite(lo)):
        raise NonFiniteError(f"{what} contains non-finite entries")
    return max(hi, -lo)


@dataclass(frozen=True)
class ScalarField:
    """Real scalar field sampled on a Grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        arr = _lock(self.values)
        if arr.shape != self.grid.shape:
            raise FieldError(
                f"scalar field shape {arr.shape} does not match grid {self.grid.shape}"
            )
        _peak(arr, "scalar field")
        object.__setattr__(self, "values", arr)

    @classmethod
    def constant(cls, grid, value):
        return cls(grid, np.full(grid.shape, float(value)))


def _symmetry_defect(values, n_grid, symmetry):
    """Max violation of the declared index symmetry, 0 for rank<2 tags."""
    rank = values.ndim - n_grid
    axes = tuple(range(n_grid, values.ndim))
    if symmetry == "symmetric2":
        # each unordered pair of off-diagonal slots once
        upper, lower = np.triu_indices(values.shape[-1], 1)
        gap = values[..., upper, lower] - values[..., lower, upper]
        return _peak(gap, "symmetry defect")
    if symmetry == "antisymmetric" and rank >= 2:
        worst = 0.0
        # adjacent transpositions generate the symmetric group
        for i in range(rank - 1):
            swapped = np.swapaxes(values, axes[i], axes[i + 1])
            worst = max(worst, _peak(values + swapped, "symmetry defect"))
        return worst
    return 0.0


@dataclass(frozen=True)
class TensorField:
    """Tensor field with a declared index symmetry.

    values has shape grid.shape + (n,)*rank. The symmetry tag is validated on
    construction and never silently repaired: operations are written so the
    tag is preserved structurally, and a violation beyond 1e-12 is a bug in
    the caller, not something to clean up.
    """

    grid: Grid
    values: np.ndarray
    symmetry: str = "general"

    def __post_init__(self):
        if self.symmetry not in SYMMETRIES:
            raise FieldError(f"unknown symmetry tag {self.symmetry!r}")
        arr = _lock(self.values)
        n = self.grid.n_dims
        rank = arr.ndim - n
        if arr.shape[:n] != self.grid.shape or rank < 1 or arr.shape[n:] != (n,) * rank:
            raise FieldError(
                f"tensor field shape {arr.shape} does not match grid "
                f"{self.grid.shape} with square component axes"
            )
        if self.symmetry in ("vector", "covector") and rank != 1:
            raise FieldError(f"{self.symmetry} fields must have rank 1, got {rank}")
        if self.symmetry == "symmetric2" and rank != 2:
            raise FieldError(f"symmetric2 fields must have rank 2, got {rank}")
        scale = max(1.0, _peak(arr, "tensor field"))
        defect = _symmetry_defect(arr, n, self.symmetry)
        if defect > _SYMMETRY_CHECK_TOL * scale:
            raise FieldError(
                f"declared symmetry {self.symmetry!r} violated by {defect:.3e}"
            )
        object.__setattr__(self, "values", arr)

    @property
    def rank(self):
        return self.values.ndim - self.grid.n_dims

    @property
    def component_count(self):
        return self.grid.n_dims ** self.rank

    @classmethod
    def zeros(cls, grid, rank, symmetry="general"):
        shape = grid.shape + (grid.n_dims,) * rank
        return cls(grid, np.zeros(shape), symmetry)


def _wrap(grid, values, symmetry_or_scalar):
    if symmetry_or_scalar == "scalar":
        return ScalarField(grid, values)
    return TensorField(grid, values, symmetry_or_scalar)


def stencil_symbol(n_points, spacing):
    """Fourier symbol of diff_values along one axis, one modified wavenumber
    per FFT mode: the stencil acts on exp(i k x) as multiplication by i times
    this value."""
    theta = 2.0 * np.pi * np.fft.fftfreq(n_points)
    return (8.0 * np.sin(theta) - np.sin(2.0 * theta)) / (6.0 * spacing)


def diff_values(values, axis, spacing):
    """4th-order centered periodic derivative of a raw array along one grid axis.

    The stencil (-u(+2h) + 8u(+h) - 8u(-h) + u(-2h)) / (12h) is exactly
    antisymmetric under reversal, which makes it skew-adjoint for the uniform
    periodic quadrature without any boundary correction. The shifted operands
    are slices of one C-ordered copy wrapped by two cells on each side; the
    arithmetic is that of np.roll copies, so the result is bit-identical.
    """
    m = values.shape[axis]
    padded = np.take(values, np.arange(-2, m + 2), axis=axis, mode="wrap")
    lead = (slice(None),) * (axis % values.ndim)

    def shifted(k):
        return padded[lead + (slice(2 + k, 2 + k + m),)]

    out = shifted(1) - shifted(-1)
    out *= 8.0
    out -= shifted(2) - shifted(-2)
    out /= 12.0 * spacing
    return out


def partial_derivative(fld, axis):
    """Componentwise coordinate derivative along a grid axis.

    Rank and symmetry tags pass through unchanged: the derivative acts on each
    component independently, so a symmetric or antisymmetric field stays
    exactly so.
    """
    grid = fld.grid
    if not 0 <= axis < grid.n_dims:
        raise FieldError(f"axis {axis} out of range for {grid.n_dims}D grid")
    out = diff_values(fld.values, axis, grid.spacings[axis])
    if isinstance(fld, ScalarField):
        return ScalarField(grid, out)
    return TensorField(grid, out, fld.symmetry)


def gradient_values(grid, values):
    """All coordinate derivatives, the derivative axis first among components."""
    n = grid.n_dims
    out = np.empty(values.shape[:n] + (n,) + values.shape[n:])
    for a in range(n):
        out[(slice(None),) * n + (a,)] = diff_values(values, a, grid.spacings[a])
    return out


def integrate(fld):
    """Torus integral with the uniform quadrature sum(u) * prod(h).

    This quadrature is exact for trigonometric polynomials below the Nyquist
    frequency, and together with the periodic stencil guarantees
    integrate(partial_derivative(u)) == 0 identically.
    """
    return float(np.sum(fld.values)) * fld.grid.cell_volume


def shift(fld, axis, steps):
    """Lattice translation by an integer number of cells (exact symmetry)."""
    out = np.roll(fld.values, steps, axis)
    if isinstance(fld, ScalarField):
        return ScalarField(fld.grid, out)
    return TensorField(fld.grid, out, fld.symmetry)


# Component index letters for generated einsum expressions.
INDEX_LETTERS = "abcdefgh"


@functools.lru_cache(maxsize=128)
def _contraction_path(subscripts, shapes):
    operands = [np.broadcast_to(0.0, shape) for shape in shapes]
    return np.einsum_path(subscripts, *operands, optimize="greedy")[0]


def contract(subscripts, *operands):
    """np.einsum along the greedy contraction path, planned once per
    expression and operand shapes instead of on every call."""
    path = _contraction_path(subscripts, tuple(op.shape for op in operands))
    return np.einsum(subscripts, *operands, optimize=path)


@functools.lru_cache(maxsize=None)
def increasing_tuples(n, k):
    """Index tuples i_1 < ... < i_k naming the independent k-form components."""
    return tuple(itertools.combinations(range(n), k))


@functools.lru_cache(maxsize=None)
def _signed_permutations(k):
    """(permutation of range(k), sign) pairs."""
    return tuple((p, (-1) ** sum(a > b for a, b in itertools.combinations(p, 2)))
                 for p in itertools.permutations(range(k)))


@functools.lru_cache(maxsize=None)
def slot_pairs(n, k):
    """(a, j, sign, p) for every nonzero component w_{aJ} of a k-form with
    the first slot fixed to a: J is the j-th increasing (k-1)-tuple, a is not
    in J, and w_{aJ} = sign * (p-th increasing-index component)."""
    return tuple((a, j, (-1) ** sum(r < a for r in rest),
                  increasing_tuples(n, k).index(tuple(sorted((a,) + rest))))
                 for a in range(n)
                 for j, rest in enumerate(increasing_tuples(n, k - 1))
                 if a not in rest)


def form_components(values, n, k):
    """Views of a k-form's increasing-index components, in increasing_tuples order."""
    return [values[(...,) + idx] for idx in increasing_tuples(n, k)]


def expand_form(components, n, k):
    """Full storage of a k-form from its increasing-index components: each
    permuted slot holds the component or its exact negation, slots with a
    repeated index hold 0, so the result is exactly antisymmetric."""
    out = np.zeros(components[0].shape + (n,) * k)
    for idx, comp in zip(increasing_tuples(n, k), components):
        for perm, sign in _signed_permutations(k):
            out[(...,) + tuple(idx[p] for p in perm)] = comp if sign > 0 else -comp
    return out


def pointwise_minors(mat, k):
    """Table of the k x k minors det(mat[..., I, J]) of a pointwise symmetric
    matrix over increasing tuples I, J, by Leibniz expansion (k <= 4). Only
    I <= J are expanded; the table holds the same array at (J, I)."""
    idx = increasing_tuples(mat.shape[-1], k)
    table = [[None] * len(idx) for _ in idx]
    for p, q in itertools.combinations_with_replacement(range(len(idx)), 2):
        total = 0.0
        for perm, sign in _signed_permutations(k):
            term = mat[..., idx[p][0], idx[q][perm[0]]]
            for r in range(1, k):
                term = term * mat[..., idx[p][r], idx[q][perm[r]]]
            total = total + term if sign > 0 else total - term
        table[p][q] = table[q][p] = total
    return table


def apply_minors(minors, components):
    """sum_J minors[I][J] c_J for every I: a k-form with each index moved by
    the matrix whose minors are given. None marks a component known to be 0."""
    return [sum(m * c for m, c in zip(row, components) if c is not None)
            for row in minors]


def pointwise_inner_values(a_values, b_values, rank, symmetry_a, inv_values, g_values):
    """Raw pointwise metric contraction <a, b>_g over all component indices.

    Every index pair is contracted with the inverse metric, except rank-1
    "vector" fields whose single index is contravariant and pairs with the
    metric itself. Full contraction, no 1/k! normalization: for a 2-form this
    counts each unordered index pair twice. Antisymmetric operands of rank
    k >= 2 are summed over independent components only, as
    k! sum_{I,J} a_I det(g^-1[I, J]) b_J.
    """
    if rank == 0:
        return a_values * b_values
    if rank > 4:
        raise FieldError("contractions implemented for rank <= 4")
    if symmetry_a == "antisymmetric" and rank >= 2:
        n = a_values.shape[-1]
        up = apply_minors(pointwise_minors(inv_values, rank),
                          form_components(b_values, n, rank))
        return math.factorial(rank) * sum(
            a * u for a, u in zip(form_components(a_values, n, rank), up))
    pairing = g_values if symmetry_a == "vector" else inv_values
    idx_a = INDEX_LETTERS[:rank]
    idx_b = INDEX_LETTERS[rank:2 * rank]
    pair_terms = ",".join(f"...{i}{j}" for i, j in zip(idx_a, idx_b))
    expr = f"...{idx_a},{pair_terms},...{idx_b}->..."
    return contract(expr, a_values, *([pairing] * rank), b_values)


def weighted_inner(a, b, g, weight=None):
    """L2 inner product integral <a,b> = int <a,b>_g * weight * sqrt(det g) dx.

    Parameters
    ----------
    a, b : ScalarField or TensorField
        Same grid, same rank; tensor indices are contracted pairwise with the
        inverse metric (full contraction), vectors with the metric.
    g : MetricField
        Supplies the pointwise pairing and the volume density.
    weight : ScalarField, optional
        Extra pointwise weight, default 1.

    The reduction is a single numpy pairwise sum in grid storage order, so
    results are reproducible bit-for-bit between runs.
    """
    if a.grid is not b.grid and a.grid != b.grid:
        raise FieldError("fields live on different grids")
    rank_a = 0 if isinstance(a, ScalarField) else a.rank
    rank_b = 0 if isinstance(b, ScalarField) else b.rank
    if rank_a != rank_b:
        raise FieldError(f"rank mismatch in inner product: {rank_a} vs {rank_b}")
    sym = "scalar" if rank_a == 0 else a.symmetry
    sym_b = "scalar" if rank_b == 0 else b.symmetry
    if (sym == "vector") != (sym_b == "vector"):
        raise FieldError("cannot pair a contravariant field with a covariant one")
    if sym == "antisymmetric" and sym_b != "antisymmetric":
        sym = "general"  # the independent-component path needs two forms
    density = pointwise_inner_values(
        a.values, b.values, rank_a, sym, g.inv_values, g.values
    )
    density = density * g.sqrt_det_values
    if weight is not None:
        density = density * weight.values
    return float(np.sum(density)) * a.grid.cell_volume
