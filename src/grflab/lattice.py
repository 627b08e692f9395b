"""Uniform periodic grids on flat tori, tensor fields, and the discrete calculus
everything else is built on.

Two exact properties of this layer carry the whole package: the centered
4th-order difference is skew-adjoint under the uniform quadrature (so the
discrete Hodge Laplacian downstream is exactly self-adjoint), and the integral
of any stencil derivative vanishes identically (telescoping around the wrap).
Reductions use numpy's pairwise summation in a fixed order, so repeated runs
are bit-reproducible.

Fields hold only their independent components, component major: a symmetric
2-tensor its n(n+1)/2 pairs i <= j in symmetric_pairs order, a k-form its
C(n, k) increasing index tuples in increasing_tuples order, a vector its n
components, each stacked along a leading axis before the grid axes, so every
component plane is one contiguous block. Symmetry holds by construction and
is never checked; a form's degree is read off its component count, which is
unique for degrees 2 .. n + 1. Kernels compose raw arrays in the same layout;
ScalarField and TensorField validate data where it enters or leaves the
system, not every intermediate array.
Every field carries its kind (symmetry, rank): ("scalar", 0), ("vector", 1),
("symmetric2", 2), a MetricField's too, or ("antisymmetric", k). require_field,
the one guard of an argument, raises FieldError naming it when its kind or
grid is wrong, a bare array included. An argument that needs g^-1 or the
volume density asks for the kind ("metric", 2), which only a MetricField has.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import FieldError, NonFiniteError

TWO_PI = 2.0 * np.pi

# Recognized symmetry tags for TensorField: the contravariant "vector", and
# the covariant "symmetric2" and "antisymmetric" (forms of degree 2 .. n + 1).
SYMMETRIES = ("vector", "symmetric2", "antisymmetric")


@dataclass(frozen=True)
class Grid:
    """Uniform grid on a flat torus with per-axis resolutions and periods.

    Parameters
    ----------
    resolutions : tuple of int
        Points per axis. Each must be an even integer of at least 8; between
        2 and 4 axes are supported.
    periods : tuple of float
        Circumference per axis, default 2*pi on every axis.
    """

    resolutions: tuple
    periods: tuple = None

    def __post_init__(self):
        for r in self.resolutions:
            if not isinstance(r, numbers.Integral):
                raise FieldError(f"resolutions must be integers, got {r!r}")
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
    def cell_volume(self):
        """Quadrature weight of one grid cell, prod_a h_a. The torus integral
        sum(u) * cell_volume is exact for trigonometric polynomials below the
        Nyquist frequency, and vanishes on every stencil derivative."""
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


def _require_finite(values, what):
    """NonFiniteError unless every entry is finite: NaN or inf shows in the
    max or the min of a non-empty array."""
    if values.size and not (math.isfinite(values.max())
                            and math.isfinite(values.min())):
        raise NonFiniteError(f"{what} contains non-finite entries")


@dataclass(frozen=True)
class ScalarField:
    """Real scalar field sampled on a Grid."""

    grid: Grid
    values: np.ndarray
    symmetry, rank = "scalar", 0

    def __post_init__(self):
        arr = _lock(self.values)
        if arr.shape != self.grid.shape:
            raise FieldError(
                f"scalar field shape {arr.shape} does not match grid {self.grid.shape}"
            )
        _require_finite(arr, "scalar field")
        object.__setattr__(self, "values", arr)


def _kind_name(symmetry, rank):
    return {"scalar": "scalar field", "vector": "vector field",
            "symmetric2": "symmetric 2-tensor",
            "metric": "MetricField"}.get(symmetry, f"{rank}-form")


def require_field(name, fld, grid, symmetry, rank):
    """FieldError naming the argument unless fld is a field of the kind
    (symmetry, rank) on grid, or on any grid when grid is None; anything
    without a kind, a bare array too, is refused. The kind ("metric", 2) asks
    for a MetricField, whose cached inverse and volume density a symmetric
    2-tensor lacks; a MetricField also passes as ("symmetric2", 2)."""
    kind = (getattr(fld, "symmetry", None), getattr(fld, "rank", None))
    if symmetry == "metric" and getattr(fld, "is_metric", False):
        kind = ("metric", 2)
    if kind != (symmetry, rank):
        got = f"a {_kind_name(*kind)}" if kind[0] else type(fld).__name__
        raise FieldError(f"{name} must be a {_kind_name(symmetry, rank)}, "
                         f"not {got}")
    if grid is not None and fld.grid is not grid and fld.grid != grid:
        raise FieldError(f"{name} and the other fields live on different "
                         f"grids")


def form_degree(n, count):
    """The degree k in 2 .. n + 1 of a k-form with count independent
    components on n axes; FieldError when there is none."""
    for k in range(2, n + 2):
        if math.comb(n, k) == count:
            return k
    raise FieldError(f"{count} components are no form of degree 2..{n + 1} "
                     f"on {n} axes")


@dataclass(frozen=True)
class TensorField:
    """Tensor field with a declared index symmetry, on packed storage.

    values has shape (components,) + grid.shape: n components for a
    "vector", n(n+1)/2 for a "symmetric2" tensor and C(n, k) for an
    "antisymmetric" k-form, whose degree (rank) is read off that count. Shape
    and finiteness are validated on construction; symmetry holds by
    construction. Fields mark where data enters or leaves the system
    (inputs, flow states, right-hand-side outputs); kernels compose raw
    arrays.
    """

    grid: Grid
    values: np.ndarray
    symmetry: str

    def __post_init__(self):
        if self.symmetry not in SYMMETRIES:
            raise FieldError(f"unknown symmetry tag {self.symmetry!r}")
        arr = _lock(self.values)
        n = self.grid.n_dims
        if arr.ndim != n + 1 or arr.shape[1:] != self.grid.shape:
            raise FieldError(
                f"tensor field shape {arr.shape} is not (components,) + grid "
                f"{self.grid.shape}")
        if self.symmetry == "antisymmetric":
            rank = form_degree(n, len(arr))
        else:
            rank = 1 if self.symmetry == "vector" else 2
            if len(arr) != (n if rank == 1 else n * (n + 1) // 2):
                raise FieldError(f"{len(arr)} components do not make a "
                                 f"{self.symmetry} field on {n} axes")
        _require_finite(arr, "tensor field")
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "rank", rank)


def stencil_symbol(n_points, spacing):
    """Fourier symbol of diff_values along one axis, one modified wavenumber
    per FFT mode: the stencil acts on exp(i k x) as multiplication by i times
    this value."""
    theta = 2.0 * np.pi * np.fft.fftfreq(n_points)
    return (8.0 * np.sin(theta) - np.sin(2.0 * theta)) / (6.0 * spacing)


@functools.lru_cache(maxsize=None)
def _wrap_index(m):
    """Read-only indices -2 .. m+1 wrapped onto an axis of m points."""
    idx = np.arange(-2, m + 2) % m
    idx.setflags(write=False)
    return idx


def diff_values(values, axis, spacing):
    """4th-order centered periodic derivative of a raw array along one grid axis.

    The stencil (-u(+2h) + 8u(+h) - 8u(-h) + u(-2h)) / (12h) is exactly
    antisymmetric under reversal, which makes it skew-adjoint for the uniform
    periodic quadrature without any boundary correction. The shifted operands
    are slices of one C-ordered copy wrapped by two cells on each side; the
    arithmetic is that of np.roll copies, so the result is bit-identical.
    Along the last axis those slices would be strided rows, so the copy is
    differenced flat, in contiguous runs, and the m valid columns of each
    row are copied out once.
    """
    m = values.shape[axis]
    padded = values.take(_wrap_index(m), axis=axis, mode="clip")
    if axis % values.ndim == values.ndim - 1:
        # row r's column x sits at flat[r * (m + 4) + x]; the last four
        # entries of run belong to a discarded column and stay unset
        flat = padded.reshape(-1)
        run = np.empty(flat.shape)
        out = run[:-4]
        np.subtract(flat[3:-1], flat[1:-3], out=out)
        out *= 8.0
        out -= np.subtract(flat[4:], flat[:-4])
        out /= 12.0 * spacing
        return run.reshape(padded.shape)[..., :m].copy()
    lead = (slice(None),) * (axis % values.ndim)
    up1, um1, up2, um2 = (padded[lead + (slice(2 + k, 2 + k + m),)]
                          for k in (1, -1, 2, -2))
    out = np.subtract(up1, um1)
    out *= 8.0
    out -= np.subtract(up2, um2)
    out /= 12.0 * spacing
    return out


def gradient_values(grid, values):
    """All coordinate derivatives of an array whose grid axes come last, the
    derivative axis first: [c, ...] = D_c values, each one contiguous block."""
    lead = values.ndim - grid.n_dims
    return np.stack([diff_values(values, lead + a, grid.spacings[a])
                     for a in range(grid.n_dims)])


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


def expand_form(components, n, k):
    """Full storage (n,)*k + grid of a packed k-form: each permuted slot
    holds the component or its exact negation, slots with a repeated index
    hold 0, so the result is exactly antisymmetric."""
    out = np.zeros((n,) * k + components.shape[1:])
    for idx, comp in zip(increasing_tuples(n, k), components):
        for perm, sign in _signed_permutations(k):
            out[tuple(idx[p] for p in perm)] = comp if sign > 0 else -comp
    return out


@functools.lru_cache(maxsize=None)
def symmetric_pairs(n):
    """Index arrays (i, j) of the pairs i <= j naming the independent
    components of a symmetric 2-tensor, in lexicographic order, and the n x n
    table of each pair's position in that order; indexing packed components
    with the table gathers the full matrix."""
    i, j = np.triu_indices(n)
    table = np.empty((n, n), dtype=np.intp)
    table[i, j] = table[j, i] = np.arange(len(i))
    for arr in (i, j, table):
        arr.setflags(write=False)
    return i, j, table


def pointwise_minors(components, k):
    """Table of the k x k minors det(mat[I, J]) of a pointwise symmetric
    matrix, given by its packed components, over increasing tuples I, J, by
    Leibniz expansion (k <= 4). Only I <= J are expanded; the table holds the
    same array at (J, I)."""
    n = (math.isqrt(8 * len(components) + 1) - 1) // 2
    table = symmetric_pairs(n)[2]
    idx = increasing_tuples(n, k)
    minors = [[None] * len(idx) for _ in idx]
    for p, q in itertools.combinations_with_replacement(range(len(idx)), 2):
        total = 0.0
        for perm, sign in _signed_permutations(k):
            term = components[table[idx[p][0], idx[q][perm[0]]]]
            for r in range(1, k):
                term = term * components[table[idx[p][r], idx[q][perm[r]]]]
            total = total + term if sign > 0 else total - term
        minors[p][q] = minors[q][p] = total
    return minors


def apply_minors(minors, components):
    """sum_J minors[I][J] c_J for every I: a k-form with each index moved by
    the matrix whose minors are given. None marks a component known to be 0."""
    return [sum(m * c for m, c in zip(row, components) if c is not None)
            for row in minors]


def pointwise_inner_values(a_values, b_values, symmetry, g):
    """Raw pointwise metric contraction <a, b>_g of two packed arrays with the
    same symmetry tag ("scalar" for plain grid arrays) under the metric g.

    Every covariant index pair is contracted with the inverse metric, the
    contravariant index of a "vector" with the metric itself. Full
    contraction, no 1/k! normalization, on packed components: an
    off-diagonal pair counts twice and an increasing k-tuple k! times. Forms
    are summed as k! sum_{I,J} a_I det(g^-1[I, J]) b_J; symmetric 2-tensors
    are paired as tr(g^-1 a g^-1 b^T) by einsums over their full matrices,
    gathered through the symmetric_pairs table, so that the products come
    out component major and the trace sums them plane by plane, in the order
    i, j.
    """
    if symmetry == "scalar":
        return a_values * b_values
    table = symmetric_pairs(g.grid.n_dims)[2]
    if symmetry == "vector":
        return np.einsum("ab...,a...,b...->...", g.values[table], a_values,
                         b_values)
    if symmetry == "symmetric2":
        # tr(M P) with M = g^-1 a and P = g^-1 b, which is M when b is a
        m = np.einsum("ik...,kj...->ij...", g._inv_full, a_values[table])
        p = m if b_values is a_values else np.einsum(
            "ik...,kj...->ij...", g._inv_full, b_values[table])
        return np.einsum("ij...,ji...->...", m, p)
    rank = form_degree(g.grid.n_dims, len(a_values))
    up = apply_minors(pointwise_minors(g.inv_components, rank), b_values)
    return math.factorial(rank) * sum(a * u for a, u in zip(a_values, up))


def weighted_inner(a, b, g, weight=None):
    """L2 inner product integral <a,b> = int <a,b>_g * weight * sqrt(det g) dx.

    Parameters
    ----------
    a, b : fields
        b of a's kind and grid; paired by pointwise_inner_values (full
        contraction).
    g : MetricField
        Supplies the pointwise pairing and the volume density; on a's grid.
    weight : ScalarField, optional
        Extra pointwise weight on a's grid, default 1.

    The reduction is a single numpy pairwise sum in grid storage order, so
    results are reproducible bit-for-bit between runs.
    """
    require_field("b", b, a.grid, a.symmetry, a.rank)
    require_field("g", g, a.grid, "metric", 2)
    if weight is not None:
        require_field("weight", weight, a.grid, "scalar", 0)
    density = pointwise_inner_values(a.values, b.values, a.symmetry, g)
    density = density * g.sqrt_det_values
    if weight is not None:
        density = density * weight.values
    return float(np.sum(density)) * a.grid.cell_volume
