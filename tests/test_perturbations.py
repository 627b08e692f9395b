import numpy as np
import pytest

from grflab import (
    Grid,
    random_form_perturbation,
    random_metric_perturbation,
    trig_polynomial,
)
from grflab.errors import FieldError
from grflab.experiments import perturbed_state
from grflab.perturbations import _positive_modes

from oracles import trig_polynomial_full


@pytest.fixture
def grid():
    return Grid((12, 12, 12))


def test_positive_modes_pick_one_per_pair():
    modes = _positive_modes(3, 1)
    assert len(modes) == 13   # (3^3 - 1) / 2
    as_set = set(modes)
    for k in modes:
        assert tuple(-c for c in k) not in as_set


def test_same_seed_reproduces_field(grid):
    a = random_metric_perturbation(grid, 0.05, seed=3)
    b = random_metric_perturbation(grid, 0.05, seed=3)
    assert np.array_equal(a.values, b.values)
    c = random_metric_perturbation(grid, 0.05, seed=4)
    assert not np.array_equal(a.values, c.values)


def test_sup_normalization(grid):
    h = random_metric_perturbation(grid, 0.05, seed=0)
    assert np.max(np.abs(h.values)) == pytest.approx(0.05, rel=1e-12)
    b = random_form_perturbation(grid, 0.3, seed=1)
    assert np.max(np.abs(b.values)) == pytest.approx(0.3, rel=1e-12)


def test_symmetry_tags(grid):
    # packed: the pairs i <= j of the metric, i < j of the 2-form
    h = random_metric_perturbation(grid, 0.1, seed=2)
    assert h.symmetry == "symmetric2"
    assert h.values.shape == (6,) + grid.shape
    b = random_form_perturbation(grid, 0.1, seed=2)
    assert b.symmetry == "antisymmetric" and b.rank == 2
    assert b.values.shape == (3,) + grid.shape


def test_band_limit(grid):
    h = random_metric_perturbation(grid, 1.0, seed=7, cutoff=2)
    coeff = np.fft.fftn(h.values, axes=(1, 2, 3))
    n = grid.resolutions[0]
    freq = np.fft.fftfreq(n, d=1.0 / n).astype(int)
    outside = np.abs(freq) > 2
    assert np.max(np.abs(coeff[:, outside])) < 1e-10
    assert np.max(np.abs(coeff[:, :, outside])) < 1e-10
    assert np.max(np.abs(coeff[:, :, :, outside])) < 1e-10
    # and the band is actually populated
    inside = (np.abs(freq) <= 2) & (freq != 0)
    assert np.max(np.abs(coeff[:, inside])) > 1e-6


def test_trig_polynomial_component_shape(grid):
    rng = np.random.default_rng(0)
    vals = trig_polynomial(grid, rng, component_shape=(3, 3))
    assert vals.shape == (3, 3) + grid.shape
    scalar = trig_polynomial(grid, np.random.default_rng(0))
    assert scalar.shape == grid.shape
    assert abs(float(np.mean(scalar))) < 1e-13   # no constant mode


def test_cutoff_zero_rejected(grid):
    with pytest.raises(FieldError):
        trig_polynomial(grid, np.random.default_rng(0), cutoff=0)


@pytest.mark.parametrize("cutoff", [2.0, 1.5, -1, "2"])
def test_a_cutoff_that_is_not_a_positive_integer_is_refused(grid, cutoff):
    # a float cutoff used to die in _positive_modes' range() with a TypeError
    with pytest.raises(FieldError, match="positive integer"):
        trig_polynomial(grid, np.random.default_rng(0), cutoff=cutoff)


def test_cutoff_reaching_the_nyquist_band_rejected():
    # the stencil cannot see a k = N/2 checkerboard, and a metric varying
    # only in checkerboards is a fixed point of every flow: a stability run
    # would "converge" with them still in g
    rng = np.random.default_rng(0)
    with pytest.raises(FieldError, match="Nyquist"):
        trig_polynomial(Grid((12, 12, 12)), rng, cutoff=6)
    with pytest.raises(FieldError, match="Nyquist"):
        trig_polynomial(Grid((12, 8, 12)), rng, cutoff=4)
    with pytest.raises(FieldError, match="Nyquist"):
        perturbed_state(resolution=8, cutoff=4)
    assert trig_polynomial(Grid((12, 8, 12)), rng, cutoff=3).shape == (12, 8, 12)


@pytest.mark.parametrize("grid", [Grid((8, 10)), Grid((12, 12, 12)),
                                  Grid((12, 8, 12)), Grid((8, 8, 10, 8))],
                         ids=["2d", "3d", "3d-anisotropic", "4d"])
@pytest.mark.parametrize("cutoff", [1, 2, 3])
@pytest.mark.parametrize("components", ["scalar", "tensor"])
def test_trig_polynomial_equals_the_full_grid_sum_bit_for_bit(grid, cutoff,
                                                              components):
    # a mode's phase spans only the axes it varies along; the sum must still
    # be the full-grid one, signed zeros included
    shape = () if components == "scalar" else (grid.n_dims,) * 2
    fast = trig_polynomial(grid, np.random.default_rng(cutoff), shape, cutoff)
    full = trig_polynomial_full(grid, np.random.default_rng(cutoff), shape,
                                cutoff)
    assert fast.shape == full.shape == shape + grid.shape
    assert np.array_equal(fast, full)
    assert np.array_equal(np.signbit(fast), np.signbit(full))
