import csv
import itertools

import numpy as np
import pytest

from grflab import (
    ALGEBRAS,
    FlowState,
    Grid,
    LieData,
    MetricField,
    TensorField,
    find_stationary,
    invariant_flow,
    invariant_grf_rhs,
    invariant_ricci,
    invariant_scalar_curvature,
    step,
)
from grflab.errors import (ConfigError, ConvergenceError, FieldError,
                           PositivityError)
from grflab import homogeneous
from grflab.experiments import background_three_form
from grflab.flow import grf_rhs, write_records_csv
from grflab.geometry import h_squared_values
from grflab.homogeneous import (
    invariant_h_squared,
    invariant_norm_sq,
    stationarity_residual,
)
from grflab.lattice import symmetric_pairs

from oracles import (full_symmetric, invariant_h_squared_einsum,
                     invariant_norm_sq_einsum)


def _structure_constants(brackets):
    # c[k, i, j] = c^k_ij from the nonzero brackets {(i, j, k): c^k_ij}
    c = np.zeros((3, 3, 3))
    for (i, j, k), val in brackets.items():
        c[k, i, j], c[k, j, i] = val, -val
    return c


# each named algebra's structure constants, written out bracket by bracket:
# su(2) is [e1, e2] = e3 and its cyclic shifts, Heisenberg [e1, e2] = e3
# alone, and every abelian bracket vanishes
EPSILON = _structure_constants({(0, 1, 2): 1.0, (1, 2, 0): 1.0,
                                (2, 0, 1): 1.0})
STRUCTURE_CONSTANTS = {
    "su2": EPSILON,
    "heisenberg": _structure_constants({(0, 1, 2): 1.0}),
    "abelian": np.zeros((3, 3, 3)),
}
# the columns of invariant_flow records
INVARIANT_CSV_COLUMNS = ("t", "g11", "g12", "g13", "g22", "g23", "g33",
                         "stat_residual", "dt")


def su2_round(c=1.0, h3=None):
    return LieData(ALGEBRAS["su2"], c * np.eye(3), c if h3 is None else h3)


def test_su2_ricci_is_half_identity():
    for c in (1.0, 2.0, 0.25):
        ric = invariant_ricci(LieData(ALGEBRAS["su2"], c * np.eye(3), 0.0))
        assert np.max(np.abs(ric - 0.5 * np.eye(3))) < 1e-14


def test_heisenberg_ricci_signature():
    ric = invariant_ricci(LieData(ALGEBRAS["heisenberg"], np.eye(3), 0.0))
    assert np.max(np.abs(ric - np.diag([-0.5, -0.5, 0.5]))) < 1e-14


def test_abelian_is_flat():
    g = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.1], [0.0, 0.1, 1.5]])
    data = LieData(ALGEBRAS["abelian"], g, 0.7)
    assert np.max(np.abs(invariant_ricci(data))) < 1e-15
    assert invariant_scalar_curvature(data) == pytest.approx(0.0, abs=1e-15)


def test_h_squared_closed_form():
    # 2 h3^2 g / det g and 6 h3^2 / det g against the full contractions of
    # H_ijk = h3 epsilon_ijk; the largest relative gaps are 3.9e-15 and
    # 2.3e-14, on the worst-conditioned of these g
    rng = np.random.default_rng(2)
    for _ in range(2000):
        a = rng.standard_normal((3, 3))
        g, h3 = a @ a.T + 0.1 * np.eye(3), rng.uniform(-2.0, 2.0)
        data = LieData(ALGEBRAS["su2"], g, h3)
        ref = invariant_h_squared_einsum(g, h3)
        assert (np.max(np.abs(invariant_h_squared(data) - ref))
                <= 1e-13 * np.max(np.abs(ref)))
        assert invariant_norm_sq(data) == pytest.approx(
            invariant_norm_sq_einsum(g, h3), rel=1e-13)


def test_h_squared_matches_lattice_on_constant_data():
    # the abelian reduction is the torus, so the lattice contraction on
    # constant fields must agree with the closed-form matrix version
    grid = Grid((8, 8, 8))
    m = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.1], [0.0, 0.1, 1.5]])
    data = LieData(ALGEBRAS["abelian"], m, 0.6)
    i, j = np.triu_indices(3)
    g = MetricField(grid, m[i, j].reshape(6, 1, 1, 1) + np.zeros((6,) + grid.shape))
    H = TensorField(grid, np.full((1,) + grid.shape, data.h3), "antisymmetric")
    lattice = full_symmetric(h_squared_values(g, H.values))[0, 0, 0]
    assert np.max(np.abs(lattice - invariant_h_squared(data))) < 1e-13


def test_the_lattice_flow_on_constant_data_is_the_abelian_reduction():
    # constant g = A with b = 0 and the background c e^123 is left-invariant
    # data on the abelian group: the lattice velocity is the reduction's at
    # every point (gap 5.6e-17), the form's is exactly 0, and one RK4 step
    # of each agrees (gap 2.1e-22)
    grid = Grid((8, 8, 8))
    m = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.1], [0.0, 0.1, 1.5]])
    i, j, _ = symmetric_pairs(3)
    data = LieData(ALGEBRAS["abelian"], m, 0.6)
    state = FlowState(
        g=MetricField(grid, m[i, j].reshape(6, 1, 1, 1) + np.zeros((6,) + grid.shape)),
        b=TensorField(grid, np.zeros((3,) + grid.shape), "antisymmetric"),
        hhat=background_three_form(grid, 0.6))
    dg, db = grf_rhs(state)[:2]
    v = invariant_grf_rhs(data)
    assert (np.max(np.abs(dg.values - v[i, j].reshape(6, 1, 1, 1)))
            <= 1e-14 * np.max(np.abs(v)))
    assert not np.any(db.values)
    moved = step(state, "grf", 0.002).g.values
    _, final = invariant_flow(data, t_max=0.002, dt=0.002)
    assert (np.max(np.abs(moved - final.g[i, j].reshape(6, 1, 1, 1)))
            <= 1e-14 * np.max(np.abs(final.g)))


def test_su2_round_family_is_stationary():
    for c in (0.5, 1.0, 3.0):
        data = su2_round(c)
        assert stationarity_residual(data) < 1e-14
        ric = invariant_ricci(data)
        assert np.max(np.abs(ric - 0.25 * invariant_h_squared(data))) < 1e-14
        r = invariant_scalar_curvature(data)
        assert r == pytest.approx(0.25 * invariant_norm_sq(data), rel=1e-13)
        # stationary but not generalized scalar-flat
        assert r - invariant_norm_sq(data) / 12.0 > 0.1


def test_find_stationary_lands_on_round_family():
    g0 = 1.2 * np.eye(3)
    g0[0, 1] = g0[1, 0] = 0.02
    start = LieData(ALGEBRAS["su2"], g0, 0.9)
    out = find_stationary(start)
    assert stationarity_residual(out) < 1e-12
    c = out.g[0, 0]
    assert np.max(np.abs(out.g - c * np.eye(3))) < 1e-8
    assert abs(abs(out.h3) - c) < 1e-8


def test_find_stationary_abelian_turns_off_h():
    start = LieData(ALGEBRAS["abelian"], np.eye(3), 0.5)
    out = find_stationary(start)
    assert stationarity_residual(out) < 1e-12
    # the residual is quadratic in h3, so the tolerance pins |h3| to its root
    assert abs(out.h3) < 1e-5


def test_heisenberg_has_no_stationary_point():
    start = LieData(ALGEBRAS["heisenberg"], np.eye(3), 0.5)
    with pytest.raises(ConvergenceError):
        find_stationary(start)


def _jacobi_residual(c):
    cyc = (np.einsum("aij,bak->bijk", c, c)
           + np.einsum("ajk,bai->bijk", c, c)
           + np.einsum("aki,baj->bijk", c, c))
    return float(np.max(np.abs(cyc)))


def _codifferential(c, g, h3):
    # d*H as an invariant 2-form: the adjoint of the Chevalley-Eilenberg
    # differential, <s, beta>_2 = <H, d beta>_3 over the invariant 2-forms
    inv, h = np.linalg.inv(g), h3 * EPSILON
    basis = []
    for i, j in ((0, 1), (0, 2), (1, 2)):
        beta = np.zeros((3, 3))
        beta[i, j], beta[j, i] = 1.0, -1.0
        basis.append(beta)

    def d(beta):
        return (-np.einsum("aij,ak->ijk", c, beta)
                + np.einsum("aik,aj->ijk", c, beta)
                - np.einsum("ajk,ai->ijk", c, beta))

    gram = np.array([[0.5 * np.einsum("ij,kl,ik,jl->", a, b, inv, inv)
                      for b in basis] for a in basis])
    rhs = np.array([np.einsum("ijk,abc,ia,jb,kc->", h, d(b), inv, inv, inv)
                    / 6.0 for b in basis])
    return sum(co * b for co, b in zip(np.linalg.solve(gram, rhs), basis))


def test_every_milnor_triple_is_a_unimodular_lie_algebra():
    # LieData derives c from the triple alone; the Jacobi identity, traceless
    # brackets and a harmonic 3-form must follow for every triple lambda
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 3))
    g = a @ a.T + 0.5 * np.eye(3)
    for lam in itertools.product((-1.0, 0.0, 1.0), repeat=3):
        data = LieData(lam, g, 0.7)
        assert [data.c[0, 1, 2], data.c[1, 2, 0], data.c[2, 0, 1]] == list(lam)
        assert _jacobi_residual(data.c) == 0.0
        assert np.max(np.abs(np.einsum("kik->i", data.c))) == 0.0
        assert np.max(np.abs(_codifferential(data.c, g, data.h3))) < 1e-14
        v = invariant_grf_rhs(data)
        assert v.shape == (3, 3) and np.array_equal(v, v.T)


def test_lie_data_refuses_a_non_unimodular_algebra():
    c = np.zeros((3, 3, 3))   # [e1, e2] = e2: solvable, not unimodular
    c[1, 0, 1] = 1.0
    c[1, 1, 0] = -1.0
    # a Lie algebra, but ad_{e_1} is not traceless, so d*H != 0
    assert _jacobi_residual(c) == 0.0
    assert np.max(np.abs(np.einsum("kik->i", c))) > 1e-12
    assert np.max(np.abs(_codifferential(c, np.eye(3), 1.0))) > 0.1
    # no triple expresses it, and LieData takes no structure-constant array
    with pytest.raises(FieldError, match="shape"):
        LieData(c, np.eye(3), 1.0)


@pytest.mark.parametrize("algebra", sorted(ALGEBRAS))
def test_each_algebra_row_gives_its_old_structure_constants(algebra):
    data = LieData(ALGEBRAS[algebra], np.eye(3), 0.0)
    assert np.array_equal(data.c, STRUCTURE_CONSTANTS[algebra])
    assert not data.c.flags.writeable and not data.lam.flags.writeable


def test_grf_rhs_fixed_point_and_sign():
    dg = invariant_grf_rhs(su2_round(1.0))
    assert np.max(np.abs(dg)) < 1e-14
    # without the form the round metric shrinks
    dg0 = invariant_grf_rhs(LieData(ALGEBRAS["su2"], np.eye(3), 0.0))
    assert np.max(np.abs(dg0 + np.eye(3))) < 1e-14


def test_invariant_flow_preserves_stationary_point():
    records, final = invariant_flow(su2_round(1.0), t_max=0.05, dt=0.01)
    assert np.max(np.abs(final.g - np.eye(3))) < 1e-14
    assert final.h3 == 1.0
    assert all(r["stat_residual"] < 1e-13 for r in records)


def test_heisenberg_flow_pancakes():
    start = LieData(ALGEBRAS["heisenberg"], np.eye(3), 0.0)
    records, final = invariant_flow(start, t_max=0.5, dt=0.005)
    assert final.g[0, 0] > 1.0
    assert final.g[1, 1] > 1.0
    assert final.g[2, 2] < 1.0
    assert final.h3 == 0.0
    assert records[-1]["t"] == 0.5


@pytest.mark.parametrize("t_max, steps", [
    (5e-16, 1), (0.05, 25), (0.5, 250), (3.0, 1500), (7.3, 3650)])
def test_invariant_flow_ends_exactly_at_its_horizon(t_max, steps):
    # an accumulated clock took 0, 25, 250, 1501 and 3651 steps here, the
    # last two runs ending with a step of about 1e-13
    records, _ = invariant_flow(su2_round(1.1, 0.8), t_max)
    assert len(records) == steps + 1
    assert records[-1]["t"] == t_max
    # the last step is a whole one, no sliver
    assert records[-1]["t"] - records[-2]["t"] == pytest.approx(
        min(t_max, 0.002), rel=1e-9)


def test_a_halved_last_step_still_ends_exactly_at_the_horizon(monkeypatch):
    real, taken = homogeneous._rk4_with_retries, []

    def refuse_the_last_step_once(data, h, slope, advance, t, k1):
        refuse = [len(taken) == 24]   # the last of t_max / dt = 25 steps

        def advance_or_refuse(d, h_stage, k):
            if refuse[0]:
                refuse[0] = False
                raise PositivityError("forced halving")
            return advance(d, h_stage, k)

        out = real(data, h, slope, advance_or_refuse, t, k1)
        taken.append((h, out[2]))
        return out

    monkeypatch.setattr(homogeneous, "_rk4_with_retries",
                        refuse_the_last_step_once)
    records, _ = invariant_flow(su2_round(1.1, 0.8), t_max=0.05)
    assert taken[24][1] == 0.5 * taken[24][0]
    assert len(taken) == 26 and len(records) == 27
    assert records[-1]["t"] == 0.05


def test_each_record_holds_the_step_taken_from_it(monkeypatch):
    # the fourth step is refused once and taken at half size; the last step
    # is the short rest to t_max; the row at t_max took no step
    real, calls = homogeneous._rk4_with_retries, []

    def refuse_the_fourth_step_once(data, h, slope, advance, t, k1):
        refuse = [len(calls) == 3]

        def advance_or_refuse(d, h_stage, k):
            if refuse[0]:
                refuse[0] = False
                raise PositivityError("forced halving")
            return advance(d, h_stage, k)

        calls.append(h)
        return real(data, h, slope, advance_or_refuse, t, k1)

    monkeypatch.setattr(homogeneous, "_rk4_with_retries",
                        refuse_the_fourth_step_once)
    records, _ = invariant_flow(su2_round(1.1, 0.8), t_max=0.0101)
    dts = [r["dt"] for r in records]
    assert dts[:5] == [0.002, 0.002, 0.002, 0.001, 0.002]
    assert dts[5] == 0.0101 - records[5]["t"] and dts[5] < 0.002
    assert dts[-1] == 0.0 and records[-1]["t"] == 0.0101
    for row, after in zip(records, records[1:]):
        assert after["t"] - row["t"] == pytest.approx(row["dt"], rel=1e-9)


def test_a_stage_that_leaves_the_cone_halves_the_step():
    # the thin su2 metric collapses within one step of dt = 0.05, so the
    # first step is taken at 0.05 / 8
    start = LieData(ALGEBRAS["su2"], np.diag([1.0, 0.2, 0.05]), 0.0)
    records, final = invariant_flow(start, t_max=0.15, dt=0.05)
    assert records[0]["dt"] == 0.00625
    assert records[-1]["t"] == 0.15 and np.all(np.linalg.eigvalsh(final.g) > 0)


def test_a_non_finite_stage_is_refused_before_its_velocity(monkeypatch):
    # the second velocity of the first step turns the third stage NaN, which
    # the stage test refuses before the next velocity can warn on it
    real, calls = homogeneous.invariant_grf_rhs, []

    def nan_once(data):
        calls.append(1)
        return real(data) * (np.nan if len(calls) == 2 else 1.0)

    monkeypatch.setattr(homogeneous, "invariant_grf_rhs", nan_once)
    with pytest.raises(FieldError, match="non-finite"):
        invariant_flow(su2_round(1.1, 0.8), t_max=0.01)
    assert len(calls) == 2


def test_invariant_flow_validates_each_accepted_step_once(monkeypatch):
    # a stage is only tested for finiteness and positivity; every accepted
    # state is validated as a LieData, and nothing else is
    start, real, built = su2_round(1.1, 0.8), LieData.__post_init__, []

    def counting(self):
        built.append(1)
        real(self)

    monkeypatch.setattr(LieData, "__post_init__", counting)
    invariant_flow(start, t_max=0.05)
    assert len(built) == 25


def test_invariant_flow_evaluates_four_defects_per_step_and_one_at_the_end(
        monkeypatch):
    # a row's residual is read off the step's first stage; only the row at
    # t_max evaluates the defect once more
    real, calls = homogeneous._stationary_defect, []

    def counting(data):
        calls.append(1)
        return real(data)

    monkeypatch.setattr(homogeneous, "_stationary_defect", counting)
    records, _ = invariant_flow(su2_round(1.1, 0.8), t_max=0.05)
    assert len(calls) == 4 * 25 + 1
    # and it is the residual of the row's own metric, bit for bit
    for row in records:
        data = LieData(ALGEBRAS["su2"], full_symmetric(np.array(
            [row[c] for c in INVARIANT_CSV_COLUMNS[1:7]])), 0.8)
        assert row["stat_residual"] == stationarity_residual(data)


@pytest.mark.parametrize("t_max, dt", [
    (float("nan"), 0.002), (float("inf"), 0.002), (0.1, float("nan")),
    (0.1, float("inf")), (-0.1, 0.002)])
def test_invariant_flow_rejects_a_horizon_or_step_that_is_not_finite(
        monkeypatch, t_max, dt):
    # an infinite horizon would step forever, so a step fails the test
    def no_step(*args):
        raise AssertionError("invariant_flow took a step")

    monkeypatch.setattr(homogeneous, "_rk4_with_retries", no_step)
    with pytest.raises(ConfigError, match="positive and finite"):
        invariant_flow(su2_round(1.0), t_max=t_max, dt=dt)


def test_lie_data_validation():
    # a (3, 3, 3) structure-constant array, a matrix, non-finite triples
    for lam in (EPSILON, np.eye(3), (1.0, float("nan"), 0.0),
                (0.0, 0.0, float("inf"))):
        with pytest.raises(FieldError):
            LieData(lam, np.eye(3), 0.0)
    with pytest.raises(PositivityError):
        LieData(ALGEBRAS["su2"], -np.eye(3), 0.0)
    with pytest.raises(FieldError):
        LieData(ALGEBRAS["su2"], np.array([[1.0, 0.5, 0.0],
                                           [0.0, 1.0, 0.0],
                                           [0.0, 0.0, 1.0]]), 0.0)


@pytest.mark.parametrize("h3", [float("nan"), float("inf"), -float("inf")])
def test_lie_data_refuses_a_non_finite_form(h3):
    with pytest.raises(FieldError, match="non-finite"):
        LieData(ALGEBRAS["su2"], np.eye(3), h3)


def test_grf_rhs_is_minus_twice_the_stationary_defect_bit_for_bit():
    # -2 (Ric - H^2/4) rounds as -2 Ric + H^2/2: scaling by powers of two
    # commutes with rounding; and the velocity is exactly symmetric
    rng = np.random.default_rng(1)
    a = rng.standard_normal((3, 3))
    g = a @ a.T + 0.5 * np.eye(3)
    for lam in itertools.product((-1.0, 0.0, 1.0), repeat=3):
        for h3 in (0.0, 0.7):
            data = LieData(lam, g, h3)
            old = (-2.0 * invariant_ricci(data)
                   + 0.5 * invariant_h_squared(data))
            v = invariant_grf_rhs(data)
            assert np.array_equal(v, old)
            assert v.shape == (3, 3) and np.array_equal(v, v.T)


def test_invariant_csv_round_trip(tmp_path):
    start = LieData(ALGEBRAS["heisenberg"], np.eye(3), 0.0)
    records, _ = invariant_flow(start, t_max=0.02, dt=0.005)
    path = tmp_path / "invariant.csv"
    write_records_csv(records, INVARIANT_CSV_COLUMNS, path)
    with open(path, newline="") as fh:
        back = list(csv.DictReader(fh))
    assert len(back) == len(records)
    for row, orig in zip(back, records):
        for key in INVARIANT_CSV_COLUMNS:
            assert float(row[key]) == orig[key]
    # identical call, identical bytes
    path2 = tmp_path / "again.csv"
    write_records_csv(records, INVARIANT_CSV_COLUMNS, path2)
    assert path.read_bytes() == path2.read_bytes()


@pytest.mark.parametrize("algebra", sorted(ALGEBRAS))
def test_lambda_inv_never_decreases_along_the_invariant_flow(algebra):
    # on a unimodular group f is constant, so lambda = R - |H|^2/12, and the
    # invariant flow at fixed h3 is twice its gradient flow
    g0 = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.1], [0.0, 0.1, 1.5]])
    records, _ = invariant_flow(LieData(ALGEBRAS[algebra], g0, 0.8), 0.5)
    assert len(records) == 251
    lams = []
    for r in records:
        g = np.array([[r["g11"], r["g12"], r["g13"]],
                      [r["g12"], r["g22"], r["g23"]],
                      [r["g13"], r["g23"], r["g33"]]])
        data = LieData(ALGEBRAS[algebra], g, 0.8)
        lams.append(invariant_scalar_curvature(data)
                    - invariant_norm_sq(data) / 12.0)
    # smallest increment 8.5e-5 (abelian), per step of dt = 0.002
    assert np.min(np.diff(lams)) > 0.0
