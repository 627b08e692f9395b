from dataclasses import replace
import warnings

import numpy as np
import pytest

from grflab import (
    FlowConfig,
    FlowState,
    Grid,
    MetricField,
    TensorField,
    deturck_rhs,
    deturck_vector,
    flat_metric,
    grf_rhs,
    interior_product,
    lie_derivative_metric,
    mu_gradient_flow_rhs,
    random_form_perturbation,
    random_metric_perturbation,
    read_trajectory_csv,
    run_flow,
    step,
    write_trajectory_csv,
)
from grflab.errors import (ConfigError, ConvergenceError, NonFiniteError,
                           StepSizeError)
from grflab.experiments import perturbed_state as canned_state
from grflab.flow import CSV_COLUMNS, GAUGES


def flat_state(n=12):
    grid = Grid((n, n, n))
    g = flat_metric(grid)
    b = TensorField(grid, np.zeros(grid.shape + (3, 3)), "antisymmetric")
    return FlowState(g=g, b=b)


def perturbed_state(n, amplitude, seed, cutoff=1):
    grid = Grid((n, n, n))
    h = random_metric_perturbation(grid, amplitude, seed, cutoff=cutoff)
    b = random_form_perturbation(grid, amplitude, seed + 1000, cutoff=cutoff)
    g = MetricField(grid, flat_metric(grid).values + h.values)
    return FlowState(g=g, b=b)


def test_config_validation():
    with pytest.raises(ConfigError):
        FlowConfig(gauge="ricci")
    with pytest.raises(ConfigError):
        FlowConfig(t_max=0.0)
    with pytest.raises(ConfigError):
        FlowConfig(stop_tol=-1.0)
    with pytest.raises(ConfigError):
        FlowConfig(record_every=0)


@pytest.mark.parametrize("gauge", ["grf", "deturck", "mu_gradient"])
def test_flat_state_is_a_fixed_point(gauge):
    state = flat_state()
    config = FlowConfig(gauge=gauge, t_max=1.0, stop_tol=1e-12)
    traj = run_flow(state, config, g_ref=state.g)
    assert traj.verdict == "CONVERGED"
    assert traj.final.time == 0.0
    assert len(traj.records) == 1
    row = traj.records[0]
    assert row["rhs_l2"] == 0.0
    assert row["ricci_linf"] == 0.0
    assert row["H_l2"] == 0.0
    assert abs(row["lambda"]) < 1e-13


def test_stop_rule_is_strictly_less_than():
    # at the flat fixed point the residual is exactly zero, so stop_tol=0
    # never fires and the step budget runs out without the state moving
    state = flat_state(8)
    config = FlowConfig(gauge="grf", t_max=1.0, stop_tol=0.0, max_steps=3)
    traj = run_flow(state, config)
    assert traj.verdict == "DIVERGED"
    assert "budget" in traj.reason
    assert np.array_equal(traj.final.g.values, state.g.values)


def test_time_horizon_verdict():
    state = perturbed_state(8, 0.05, seed=0)
    config = FlowConfig(gauge="grf", t_max=0.02, stop_tol=1e-14)
    traj = run_flow(state, config)
    assert traj.verdict == "DIVERGED"
    assert "horizon" in traj.reason
    assert traj.final.time == pytest.approx(0.02, abs=1e-12)
    assert traj.records[-1]["t"] == pytest.approx(traj.final.time)


def test_integrator_is_fourth_order():
    state = perturbed_state(8, 0.1, seed=1)

    def integrate(dt, n_steps):
        s = state
        for _ in range(n_steps):
            s = step(s, "grf", dt)
        return s

    ref = integrate(0.00125, 16)
    errs = []
    for dt, n_steps in ((0.01, 2), (0.005, 4)):
        s = integrate(dt, n_steps)
        errs.append(np.max(np.abs(s.g.values - ref.g.values)))
    ratio = errs[0] / errs[1]
    assert 11.0 < ratio < 22.0


def test_deturck_is_grf_plus_gauge_terms():
    state = perturbed_state(8, 0.1, seed=2)
    g = state.g
    H = state.field_strength()
    dg0, db0 = grf_rhs(state)
    dg1, db1, x = deturck_rhs(state, flat_metric(g.grid))
    x_direct = deturck_vector(g, flat_metric(g.grid))
    assert np.max(np.abs(x.values - x_direct.values)) < 1e-14
    lie = lie_derivative_metric(g, x).values
    assert np.max(np.abs(dg1.values - dg0.values - lie)) < 1e-13
    contraction = interior_product(x, H).values
    assert np.max(np.abs(db1.values - db0.values - contraction)) < 1e-13


def test_modified_gradient_is_doubled():
    state = perturbed_state(8, 0.05, seed=3)
    dg, db, _ = mu_gradient_flow_rhs(state)
    dg2, db2, _ = mu_gradient_flow_rhs(state, modified=True)
    assert np.max(np.abs(dg2.values - 2.0 * dg.values)) < 1e-14
    assert np.max(np.abs(db2.values - 2.0 * db.values)) < 1e-14


def test_mu_flow_monotone_over_short_run():
    state = perturbed_state(12, 0.05, seed=0)
    config = FlowConfig(gauge="mu_gradient", t_max=0.05, stop_tol=1e-14)
    traj = run_flow(state, config)
    lams = traj.column("lambda")
    assert len(lams) >= 4
    assert np.all(lams < 0.0)
    assert np.all(np.diff(lams) > -1e-10)
    gaps = traj.column("identity_gap")
    assert np.all(np.isfinite(gaps))


def test_closedness_of_field_strength_is_exact():
    state = perturbed_state(8, 0.1, seed=4)
    config = FlowConfig(gauge="grf", t_max=0.05, stop_tol=1e-14)
    traj = run_flow(state, config)
    assert np.all(traj.column("dH_linf") == 0.0)


def test_keep_states_and_record_every():
    state = perturbed_state(8, 0.05, seed=5)
    config = FlowConfig(gauge="grf", t_max=0.05, stop_tol=1e-14,
                        keep_states=True, record_every=3)
    traj = run_flow(state, config)
    times = [s.time for s in traj.states]
    assert times == sorted(times)
    assert traj.states[0].time == 0.0
    assert traj.final is traj.states[-1]
    # sparse sampling still pins the endpoint
    assert traj.records[-1]["t"] == pytest.approx(traj.final.time)
    assert len(traj.records) < len(traj.states)


def test_gauge_series_only_for_deturck():
    state = perturbed_state(8, 0.05, seed=6)
    ref = flat_metric(state.g.grid)
    config = FlowConfig(gauge="deturck", t_max=0.02, stop_tol=1e-14,
                        keep_gauge_fields=True)
    traj = run_flow(state, config, g_ref=ref)
    assert traj.gauge_series
    t, dt, stages = traj.gauge_series[0]
    assert t == 0.0
    assert dt > 0.0
    assert len(stages) == 4
    assert all(s.values.shape == state.g.grid.shape + (3,) for s in stages)

    config2 = FlowConfig(gauge="grf", t_max=0.02, stop_tol=1e-14,
                         keep_gauge_fields=True)
    assert run_flow(state, config2).gauge_series is None


def test_deturck_requires_reference_metric():
    state = flat_state(8)
    with pytest.raises(ConfigError):
        run_flow(state, FlowConfig(gauge="deturck", t_max=1.0))
    with pytest.raises(ConfigError):
        step(state, "deturck", 0.01)


def test_step_size_failure_raises():
    state = perturbed_state(8, 0.2, seed=7)
    with pytest.raises(StepSizeError):
        step(state, "grf", 1e8, retries=3)


def test_trajectory_csv_round_trip(tmp_path):
    state = perturbed_state(8, 0.05, seed=8)
    config = FlowConfig(gauge="grf", t_max=0.03, stop_tol=1e-14)
    traj = run_flow(state, config)
    path = tmp_path / "series.csv"
    write_trajectory_csv(traj, path)
    back = read_trajectory_csv(path)
    assert len(back) == len(traj.records)
    for row, orig in zip(back, traj.records):
        assert set(row) == set(CSV_COLUMNS)
        for key in CSV_COLUMNS:
            assert row[key] == orig[key]   # %.17g round-trips float64


def test_read_trajectory_csv_rejects_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,lambda\n0.0\n")
    with pytest.raises(ConfigError):
        read_trajectory_csv(path)
    path.write_text("t,lambda\n0.0,spam\n")
    with pytest.raises(ConfigError):
        read_trajectory_csv(path)
    path.write_text("")
    with pytest.raises(ConfigError):
        read_trajectory_csv(path)


def _scaled_potential(scale):
    start = canned_state(resolution=8, amplitude=0.05, seed=1, cutoff=2)
    b = TensorField(start.g.grid, start.b.values * scale, "antisymmetric")
    return replace(start, b=b), flat_metric(start.g.grid)


@pytest.mark.parametrize("gauge", GAUGES)
def test_non_finite_right_hand_side_ends_in_diverged(gauge):
    # |H|^2 ~ 1e320 overflows while the first right-hand side is assembled
    start, g_ref = _scaled_potential(1e160)
    with np.errstate(all="ignore"):
        traj = run_flow(start, FlowConfig(gauge=gauge, t_max=0.1), g_ref=g_ref)
    assert traj.verdict == "DIVERGED"
    assert traj.reason.startswith("right-hand side failed")
    assert "non-finite" in traj.reason


@pytest.mark.parametrize("gauge", ["grf", "deturck"])
def test_non_finite_runge_kutta_stage_ends_in_diverged(gauge):
    # the first right-hand side is finite; a later stage overflows
    start, g_ref = _scaled_potential(1e100)
    with np.errstate(all="ignore"):
        traj = run_flow(start, FlowConfig(gauge=gauge, t_max=0.1), g_ref=g_ref)
    assert traj.verdict == "DIVERGED"
    assert traj.reason.startswith("Runge-Kutta stage failed")
    assert "non-finite" in traj.reason
    assert len(traj.records) == 1


@pytest.mark.parametrize("gauge", ["deturck", "grf"])
def test_unstable_run_ends_in_diverged_on_positivity(gauge):
    # cfl = 1.5 is past the explicit stability bound; the potential must stay
    # exactly antisymmetric all the way to the positivity failure
    start, g_ref = _scaled_potential(1.0)
    config = FlowConfig(gauge=gauge, cfl=1.5, t_max=200.0, stop_tol=1e-9,
                        max_steps=3000)
    traj = run_flow(start, config, g_ref=g_ref)
    assert traj.verdict == "DIVERGED"
    assert traj.reason.startswith("metric loses positivity")


@pytest.mark.parametrize("gauge", GAUGES)
def test_step_turns_a_failed_stage_into_step_size_error(gauge):
    # grf and deturck overflow in a later stage; mu_gradient's eigensolve
    # fails on the |H|^2 ~ 1e200 potential
    start, g_ref = _scaled_potential(1e100)
    with pytest.raises(StepSizeError, match="Runge-Kutta stage failed") as info:
        step(start, gauge, 1e-3, g_ref=g_ref)
    assert isinstance(info.value.__cause__, (NonFiniteError, ConvergenceError))
    assert str(info.value.__cause__) in str(info.value)


@pytest.mark.parametrize("gauge", GAUGES)
def test_overflowing_run_ends_in_diverged_without_numpy_warnings(gauge):
    start, g_ref = _scaled_potential(1e160)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = run_flow(start, FlowConfig(gauge=gauge, t_max=0.1), g_ref=g_ref)
    assert traj.verdict == "DIVERGED"
    assert traj.reason.startswith("right-hand side failed")
    assert "non-finite" in traj.reason


@pytest.mark.parametrize("gauge", ["grf", "deturck"])
def test_overflowing_stage_ends_in_diverged_without_numpy_warnings(gauge):
    # the first right-hand side is finite but its squared norm overflows
    start, g_ref = _scaled_potential(1e100)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = run_flow(start, FlowConfig(gauge=gauge, t_max=0.1), g_ref=g_ref)
    assert traj.verdict == "DIVERGED"
    assert traj.reason.startswith("Runge-Kutta stage failed")
