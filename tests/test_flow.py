import csv
from dataclasses import replace
import inspect
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
    flat_metric,
    grf_rhs,
    lowest_eigenpair,
    mu_directional_derivative,
    mu_gradient_flow_rhs,
    random_form_perturbation,
    random_metric_perturbation,
    run_flow,
    step,
    write_trajectory_csv,
)
from grflab.errors import (ConfigError, ConvergenceError, FieldError,
                           NonFiniteError, PositivityError, StepSizeError)
from grflab.experiments import (
    gauge_consistency_run, monotonicity_run, perturbed_state as canned_state,
    stability_run)
from grflab import flow, geometry, spectrum
from grflab.flow import (CSV_COLUMNS, GAUGES, _Stream, _diagnostics_row,
                         _predict, _remember)
from grflab.geometry import (deturck_vector_values, interior_product_values,
                             lie_derivative_metric_values)
from grflab.lattice import increasing_tuples, stencil_symbol, symmetric_pairs
from grflab.spectrum import _energy, _potential, critical_point_diagnostics

from oracles import deturck_rhs_reference, grf_rhs_reference, mu_rhs_reference


def flat_state(n=12):
    grid = Grid((n, n, n))
    g = flat_metric(grid)
    b = TensorField(grid, np.zeros((3,) + grid.shape), "antisymmetric")
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


@pytest.mark.parametrize("field,value", [
    ("t_max", float("nan")), ("cfl", float("nan")), ("cfl", float("inf")),
    ("stop_tol", float("nan")), ("record_every", 2.5),
])
def test_config_rejects_values_that_falsify_the_verdict(field, value):
    with pytest.raises(ConfigError, match=field):
        FlowConfig(**{field: value})


def test_record_every_takes_none_or_a_positive_integer():
    assert FlowConfig(record_every=None).record_every is None
    for bad in (0, 2.5, float("nan")):
        with pytest.raises(ConfigError, match="record_every"):
            FlowConfig(record_every=bad)


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


def test_stop_rule_is_strictly_less_than(monkeypatch):
    # at the flat fixed point the residual is exactly zero, so stop_tol=0
    # never fires and the step budget runs out without the state moving
    state = flat_state(8)
    monkeypatch.setattr(flow, "MAX_STEPS", 3)
    config = FlowConfig(gauge="grf", t_max=1.0, stop_tol=0.0)
    traj = run_flow(state, config)
    assert traj.verdict == "DIVERGED"
    assert "budget" in traj.reason
    assert np.array_equal(traj.final.g.values, state.g.values)


def test_step_budget_takes_exactly_max_steps_and_records_the_end(
        monkeypatch):
    state = canned_state(resolution=8, amplitude=0.05, seed=0, cutoff=2)
    monkeypatch.setattr(flow, "MAX_STEPS", 4)
    config = FlowConfig(gauge="grf", t_max=10.0, stop_tol=0.0)
    traj = run_flow(state, config)
    assert traj.verdict == "DIVERGED"
    assert "budget" in traj.reason
    assert len(traj.records) == 5   # the initial state and 4 accepted steps
    assert traj.final.time > 0.0
    assert traj.records[-1]["t"] == traj.final.time


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
    x_direct = deturck_vector_values(g, flat_metric(g.grid))
    assert np.max(np.abs(x.values - x_direct)) < 1e-14
    lie = lie_derivative_metric_values(g, x.values)
    assert np.max(np.abs(dg1.values - dg0.values - lie)) < 1e-13
    contraction = interior_product_values(x.values, H.values, 3)
    assert np.max(np.abs(db1.values - db0.values - contraction)) < 1e-13


@pytest.mark.parametrize("hhat_c", [0.0, 0.3])
def test_right_hand_sides_equal_the_public_kernel_composition(hhat_c,
                                                              monkeypatch):
    state = canned_state(resolution=8, amplitude=0.1, seed=9, cutoff=2,
                         hhat_c=hhat_c)
    g_ref = flat_metric(state.g.grid)
    for out, ref in ((grf_rhs(state), grf_rhs_reference(state)),
                     (deturck_rhs(state, g_ref),
                      deturck_rhs_reference(state, g_ref))):
        for field, values in zip(out, ref):
            assert np.array_equal(field.values, values)
    monkeypatch.setattr(spectrum, "EIG_TOL", 1e-10)
    dg, db, sol = mu_gradient_flow_rhs(state)
    dg_ref, db_ref, sol_ref = mu_rhs_reference(state)
    assert sol.lam == sol_ref.lam
    assert np.array_equal(sol.f.values, sol_ref.f.values)
    assert np.array_equal(dg.values, dg_ref)
    assert np.array_equal(db.values, db_ref)


def test_right_hand_sides_validate_only_their_outputs(monkeypatch):
    state = perturbed_state(8, 0.05, seed=10)
    g_ref = flat_metric(state.g.grid)
    built = []
    validate = TensorField.__post_init__

    def counting(self):
        built.append(self.symmetry)
        validate(self)

    monkeypatch.setattr(TensorField, "__post_init__", counting)
    deturck_rhs(state, g_ref)
    assert built == ["vector", "symmetric2", "antisymmetric"]    # X, dg, db
    built.clear()
    grf_rhs(state)
    assert built == ["symmetric2", "antisymmetric"]


@pytest.mark.parametrize("n", [8, 12])
def test_a_diagonal_metric_on_the_cube_is_the_box_torus(n):
    # x_i = y_i / sqrt(a_i) maps the box of periods 2 pi sqrt(a) onto the
    # cube, so g = sqrt(a) (I + h) sqrt(a) with g_ref = diag(a) there is
    # I + h with g_ref = I on the box: 2-tensors and 2-forms scale by
    # sqrt(a_i a_j), the DeTurck vector by 1 / sqrt(a_i)
    root = np.sqrt([1.7, 0.6, 1.2])
    i, j, _ = symmetric_pairs(3)
    pair = root[i] * root[j]
    form = np.array([root[p] * root[q] for p, q in increasing_tuples(3, 2)])
    expand = (slice(None),) + (None,) * 3
    start = canned_state(resolution=n, seed=0)

    def state(grid, g_scale, b_scale):
        return FlowState(
            g=MetricField(grid, g_scale[expand] * start.g.values),
            b=TensorField(grid, b_scale[expand] * start.b.values,
                          "antisymmetric"))

    box = state(Grid((n,) * 3, periods=tuple(2 * np.pi * root)),
                np.ones(6), np.ones(3))
    cube = state(Grid((n,) * 3), pair, form)
    g_ref = MetricField(cube.g.grid, np.where(i == j, pair, 0.0)[expand]
                        * np.ones((6,) + cube.g.grid.shape))
    outputs = [(grf_rhs(cube), grf_rhs(box), (pair, form)),
               (deturck_rhs(cube, g_ref),
                deturck_rhs(box, flat_metric(box.g.grid)),
                (pair, form, 1.0 / root))]
    for on_cube, on_box, scales in outputs:
        for c, b, scale in zip(on_cube, on_box, scales):
            scaled = scale[expand] * b.values
            error = np.max(np.abs(c.values - scaled))
            assert error <= 1e-13 * np.max(np.abs(c.values))


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
    # the diagnostics row and the critical-point report share one identity
    # gap helper, so on one eigenpair they agree bit for bit
    final = traj.final
    sol = mu_gradient_flow_rhs(final)[2]
    row = _diagnostics_row(final, 0.0, 0.0, sol)
    report = critical_point_diagnostics(final.g, final.field_strength(), sol)
    assert row["identity_gap"] == report["identity_gap"]


def test_diagnostics_row_builds_h_norm_once_and_matches_public_helpers(
        monkeypatch):
    mu_end = run_flow(perturbed_state(8, 0.05, seed=3),
                      FlowConfig(gauge="mu_gradient", t_max=0.02)).final
    start = canned_state(resolution=8, amplitude=0.05, seed=4, cutoff=2,
                         hhat_c=0.3)
    g_ref = flat_metric(start.g.grid)
    deturck_end = run_flow(start, FlowConfig(gauge="deturck", t_max=0.02),
                           g_ref=g_ref).final
    built = []
    kernel = flow.form_norm_sq_values

    def counting(*args):
        built.append(args[1].shape)
        return kernel(*args)

    # the row reaches |H|^2_g through flow and through spectrum's helpers
    for module in (flow, spectrum):
        monkeypatch.setattr(module, "form_norm_sq_values", counting)
    for state in (mu_end, deturck_end):
        H = state.field_strength()
        sol = lowest_eigenpair(state.g, H)
        built.clear()
        row = _diagnostics_row(state, 0.01, 0.0, sol)
        assert built == [(1,) + state.g.grid.shape]  # the one 3-form
        h_sq = kernel(state.g, H.values)
        assert row["F_value"] == _energy(state.g, _potential(state.g, h_sq),
                                         sol.f)
        assert row["identity_gap"] == critical_point_diagnostics(
            state.g, H, sol)["identity_gap"]


def test_predictor_reuses_extrapolates_and_interpolates():
    # the stage times of a step of size 1 from t = 0: k1 at 0, k2 and k3 at
    # 0.5, k4 at 1
    w_k1, w_k2, w_k3 = (np.array([1.0, 2.0]), np.array([2.0, 2.5]),
                        np.array([3.0, 5.0]))
    history = []
    assert _predict(history, 0.0) is None
    _remember(history, 0.0, w_k1)
    assert _predict(history, 0.0) is w_k1
    assert _predict(history, 0.5) is w_k1          # one-entry history
    _remember(history, 0.5, w_k2)
    assert _predict(history, 0.5) is w_k2          # a time already solved
    _remember(history, 0.5, w_k3)                  # replaces k2's entry
    assert [t for t, _ in history] == [0.0, 0.5]
    assert _predict(history, 0.5) is w_k3
    assert _predict(history, 0.0) is w_k1
    # k4 extrapolates along the line through (0, w_k1) and (0.5, w_k3)
    assert np.array_equal(_predict(history, 1.0), [5.0, 8.0])
    # the step retried at half size: its k2 at 0.25 interpolates
    assert np.array_equal(_predict(history, 0.25), [2.0, 3.5])
    _remember(history, 1.0, np.array([5.0, 8.0]))
    assert [t for t, _ in history] == [0.5, 1.0]


def test_failed_side_eigensolve_leaves_the_history_untouched(monkeypatch):
    state = perturbed_state(8, 0.05, seed=3)
    stream = _Stream()

    def side_solve(s):
        # the side solve of run_flow: the eigenpair alone, looked up in flow
        return lambda w0: (flow.lowest_eigenpair(s.g, s.field_strength(),
                                                 w0=w0),)

    sol, = stream(side_solve(state), state.time, stage=False)
    assert [t for t, _ in stream.history] == [0.0]
    assert stream.history[0][1] is sol.w.values
    assert stream.counts == {"eig_outer_iterations": sol.iterations,
                             "eig_cg_iterations": sol.cg_iterations,
                             "eig_cg_short_exits": sol.cg_short_exits}

    def failing(*args, **kwargs):
        raise ConvergenceError("stalled")

    monkeypatch.setattr(flow, "lowest_eigenpair", failing)
    before, counted = list(stream.history), dict(stream.counts)
    later = replace(state, time=0.5)
    with pytest.raises(ConvergenceError):
        stream(side_solve(later), later.time, stage=False)
    assert stream.history == before
    assert stream.counts == counted
    # a run counts such a row as a failed side solve and blanks its columns
    traj = run_flow(state, FlowConfig(gauge="grf", t_max=0.01))
    assert traj.counts["side_eig_failures"] == len(traj.records) > 0
    assert all(np.isnan(r["lambda"]) for r in traj.records)


def _golden_mu_run(monkeypatch, start_from="predicted"):
    """The golden mu_gradient start (N = 12, seed 7, four steps), with the
    solutions of its stage eigensolves. start_from picks each stage solve's
    start: the run's "predicted" one, the "time_line" alone (without the
    stage's error at the previous step), the "previous" stage's
    eigenfunction, or the constant ("cold")."""
    start = canned_state(resolution=12, amplitude=0.05, seed=7, cutoff=2)
    solve = spectrum.lowest_eigenpair  # unpatched when a test runs twice
    solved = []

    def counting(g, h, w0):
        if start_from in ("previous", "cold"):
            w0 = solved[-1].w if solved and start_from == "previous" else None
        sol = solve(g, h, w0=w0)
        solved.append(sol)
        return sol

    monkeypatch.setattr(flow, "lowest_eigenpair", counting)
    if start_from == "time_line":
        # no step hands its stage errors on, so previous stays empty
        monkeypatch.setattr(flow._Stream, "next_step",
                            lambda self: setattr(self, "current", []))
    traj = run_flow(start, FlowConfig(gauge="mu_gradient", t_max=0.05))
    assert len(traj.records) - 1 == 4
    return traj, solved


def test_predicted_stage_solves_take_fewer_outer_iterations(monkeypatch):
    _, predicted = _golden_mu_run(monkeypatch)
    _, previous = _golden_mu_run(monkeypatch, start_from="previous")
    # 17 stage solves each; from the predictor they take 57 outer
    # iterations, from the previous stage's eigenfunction 73
    assert len(predicted) == len(previous) == 17
    assert (sum(s.iterations for s in predicted)
            < sum(s.iterations for s in previous))


def test_stage_errors_of_the_last_step_save_outer_iterations(monkeypatch):
    _, predicted = _golden_mu_run(monkeypatch)
    _, time_line = _golden_mu_run(monkeypatch, start_from="time_line")
    # 57 against 63: the first step has no stage errors to add yet
    assert len(predicted) == len(time_line) == 17
    assert (sum(s.iterations for s in predicted)
            < sum(s.iterations for s in time_line))


def test_run_totals_the_iterations_of_its_eigensolves(monkeypatch):
    traj, solved = _golden_mu_run(monkeypatch)
    counts = traj.counts
    assert counts["eig_outer_iterations"] == sum(
        s.iterations for s in solved) == 57
    assert counts["eig_cg_iterations"] == sum(s.cg_iterations for s in solved)
    # each outer step costs at least one CG iteration (72 in all)
    assert counts["eig_cg_iterations"] > counts["eig_outer_iterations"]


def test_a_stage_solve_applies_phi_once_per_cg_iteration_plus_twice(monkeypatch):
    # one apply starts a solve and one certifies it; the Rayleigh quotient
    # of every other step comes from the Phi w that CG carries
    apply, applies = spectrum.SchrodingerOperator.apply_values, []

    def counting(self, u):
        applies.append(1)
        return apply(self, u)

    monkeypatch.setattr(spectrum.SchrodingerOperator, "apply_values", counting)
    traj, solved = _golden_mu_run(monkeypatch)
    assert all(s.iterations > 0 for s in solved)
    assert len(applies) == traj.counts["eig_cg_iterations"] + 2 * len(solved)


def test_predicted_and_cold_stage_solves_give_the_same_run(monkeypatch):
    warm, _ = _golden_mu_run(monkeypatch)
    cold, solved = _golden_mu_run(monkeypatch, start_from="cold")
    assert sum(s.iterations for s in solved) > 63
    assert len(warm.records) == len(cold.records)
    for key in CSV_COLUMNS:
        np.testing.assert_allclose(warm.column(key), cold.column(key),
                                   rtol=1e-10, atol=0.0, err_msg=key)


def test_closedness_of_field_strength_is_exact():
    state = perturbed_state(8, 0.1, seed=4)
    config = FlowConfig(gauge="grf", t_max=0.05, stop_tol=1e-14)
    traj = run_flow(state, config)
    assert np.all(traj.column("dH_linf") == 0.0)


def test_sparse_records_pin_the_endpoint():
    state = perturbed_state(8, 0.05, seed=5)
    every, sparse = (run_flow(state, FlowConfig(
        gauge="grf", t_max=0.05, stop_tol=1e-14, record_every=r))
        for r in (1, 3))
    # rows at every third step, and always at the endpoint
    assert sparse.final.time == every.final.time == every.records[-1]["t"]
    assert [r["t"] for r in sparse.records] == [
        r["t"] for r in every.records[:-1:3] + every.records[-1:]]
    assert len(sparse.records) < len(every.records)


@pytest.mark.parametrize("gauge", ["grf", "deturck"])
def test_a_run_without_rows_takes_the_same_steps_bit_for_bit(gauge):
    state = perturbed_state(8, 0.05, seed=5)
    keep = gauge == "deturck"
    rowed, bare = (run_flow(state, FlowConfig(
        gauge=gauge, t_max=0.05, stop_tol=1e-14, record_every=r,
        keep_gauge_fields=keep), g_ref=flat_metric(state.g.grid))
        for r in (1, None))
    assert bare.records == [] and len(rowed.records) == rowed.steps + 1
    # no row, so no side eigensolve and nothing counted
    assert all(bare.counts[key] == 0 for key in flow.COUNTS)
    assert rowed.counts["eig_outer_iterations"] > 0
    assert (bare.verdict, bare.reason, bare.steps) == (
        rowed.verdict, rowed.reason, rowed.steps)
    assert bare.final.time == rowed.final.time
    assert np.array_equal(bare.final.g.values, rowed.final.g.values)
    assert np.array_equal(bare.final.b.values, rowed.final.b.values)
    if keep:
        assert len(bare.gauge_series) == len(rowed.gauge_series) == bare.steps
        for (t, dt, xs), (t0, dt0, xs0) in zip(bare.gauge_series,
                                               rowed.gauge_series):
            assert (t, dt) == (t0, dt0)
            assert all(np.array_equal(x.values, x0.values)
                       for x, x0 in zip(xs, xs0))


def test_a_row_records_the_planned_step_before_any_halving(monkeypatch):
    # the first step's first stage advance (half a step) is refused once,
    # so the step is taken at half the dt its row holds
    state = perturbed_state(8, 0.05, seed=5)
    real, refused = flow._advance, []

    def refuse_once(s, dt, k):
        if not refused:
            refused.append(dt)
            raise PositivityError("forced halving")
        return real(s, dt, k)

    monkeypatch.setattr(flow, "_advance", refuse_once)
    traj = run_flow(state, FlowConfig(gauge="grf", t_max=0.05))
    assert traj.counts["dt_halvings"] == 1
    assert traj.records[0]["dt"] == 2.0 * refused[0]
    assert traj.records[1]["t"] == 0.5 * traj.records[0]["dt"]


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
    assert all(s.values.shape == (3,) + state.g.grid.shape for s in stages)

    assert run_flow(state, replace(config, keep_gauge_fields=False),
                    g_ref=ref).gauge_series is None
    for gauge in ("grf", "mu_gradient"):
        with pytest.raises(ConfigError, match="keeps no gauge fields"):
            FlowConfig(gauge=gauge, keep_gauge_fields=True)


def test_deturck_requires_reference_metric():
    state = flat_state(8)
    with pytest.raises(ConfigError, match="reference metric"):
        deturck_rhs(state, None)
    with pytest.raises(ConfigError):
        run_flow(state, FlowConfig(gauge="deturck", t_max=1.0))
    with pytest.raises(ConfigError):
        step(state, "deturck", 0.01)


def test_step_size_failure_raises():
    state = perturbed_state(8, 0.2, seed=7)
    with pytest.raises(StepSizeError):
        step(state, "grf", 1e8)


def test_step_size_error_names_the_smallest_step_tried(monkeypatch):
    advance, sizes = flow._advance, []

    def spy(y, h, k):
        sizes.append(h)
        return advance(y, h, k)

    monkeypatch.setattr(flow, "_advance", spy)
    with pytest.raises(StepSizeError, match=r"even at dt = 9\.766e\+04"):
        step(perturbed_state(8, 0.2, seed=7), "grf", 1e8)
    # eleven attempts, each failing at its k2 advance by half its step; the
    # last one took 1e8 / 2^10
    assert len(sizes) == flow.SPD_RETRIES + 1
    assert min(sizes) == 0.5 * 1e8 / 2 ** flow.SPD_RETRIES


def test_a_step_that_never_regains_positivity_counts_ten_halvings():
    start = canned_state(resolution=8, amplitude=0.2, seed=7)
    traj = run_flow(start, FlowConfig(gauge="grf", cfl=1e8, t_max=1e9))
    assert traj.verdict == "DIVERGED"
    assert "even at dt = 2.359e+04" in traj.reason
    # a halving before each of the ten retries, none after the last failure
    assert traj.counts["dt_halvings"] == flow.SPD_RETRIES == 10


def test_trajectory_csv_round_trip(tmp_path):
    state = perturbed_state(8, 0.05, seed=8)
    config = FlowConfig(gauge="grf", t_max=0.03, stop_tol=1e-14)
    traj = run_flow(state, config)
    path = tmp_path / "series.csv"
    write_trajectory_csv(traj, path)
    with open(path, newline="") as fh:
        back = list(csv.DictReader(fh))
    assert len(back) == len(traj.records)
    for row, orig in zip(back, traj.records):
        assert list(row) == list(CSV_COLUMNS)
        for key in CSV_COLUMNS:
            assert float(row[key]) == orig[key]   # %.17g round-trips float64


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
    # the overflow is caught where a field is validated: an output of the
    # right-hand side, or the potential entering the eigensolver
    assert traj.reason.endswith("field contains non-finite entries")


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
def test_unstable_run_ends_in_diverged_on_positivity(gauge, monkeypatch):
    # cfl = 1.5 is past the explicit stability bound; the potential must stay
    # exactly antisymmetric all the way to the positivity failure
    start, g_ref = _scaled_potential(1.0)
    monkeypatch.setattr(flow, "MAX_STEPS", 3000)
    config = FlowConfig(gauge=gauge, cfl=1.5, t_max=200.0, stop_tol=1e-9)
    traj = run_flow(start, config, g_ref=g_ref)
    assert traj.verdict == "DIVERGED"
    assert traj.reason.startswith("metric loses positivity")


def _rk4_growth(z):
    """RK4's one-step factor on y' = (z / dt) y."""
    return 1.0 + z + z ** 2 / 2 + z ** 3 / 6 + z ** 4 / 24


# the real stability boundary of RK4: |R(z)| = 1 at z < 0 is R(z) = 1, and
# z (1 + z/2 + z^2/6 + z^3/24) = 0 leaves the cubic's one real root
_RK4_Z = min(r.real for r in np.roots([1, 4, 12, 24]) if abs(r.imag) < 1e-12)


def _rk4_limit_cfl(dims, resolution):
    """The largest cfl of dt = cfl h^2 / 2 at the flat point for which RK4
    damps every mode of the DeTurck flow, whose linear part there is
    -|D(k)|^2 = -sum_a D(k_a)^2, with D the stencil symbol."""
    peak = np.max(stencil_symbol(resolution, 1.0) ** 2)
    return 2.0 * -_RK4_Z / (dims * peak)


def test_stability_run_default_step_is_below_the_rk4_limit():
    assert _RK4_Z == pytest.approx(-2.7853, abs=1e-4)
    assert _rk4_growth(_RK4_Z) == pytest.approx(1.0, abs=1e-12)
    # the finest sampling of the symbol gives its supremum over resolutions,
    # 1.883 / h^2 for D o D, so the limit holds at every N
    limits = {dims: _rk4_limit_cfl(dims, 4096) for dims in (2, 3, 4)}
    assert [round(limits[d], 3) for d in (2, 3, 4)] == [1.479, 0.986, 0.74]
    default = inspect.signature(stability_run).parameters["cfl"].default
    assert all(default < limit for limit in limits.values())


def test_gauge_consistency_run_default_step_is_below_the_rk4_limit():
    # its DeTurck flow takes a fifth of the 3D limit, half stability_run's
    default = inspect.signature(gauge_consistency_run).parameters["cfl"].default
    assert all(default < _rk4_limit_cfl(dims, 4096) for dims in (2, 3, 4))


def test_monotonicity_run_default_step_is_below_the_mu_flow_limit():
    # the mu flow's nonzero flat-point rates are -|D(k)|^2 / 2, half the
    # DeTurck flow's, so its limit is twice theirs
    limits = {dims: 2.0 * _rk4_limit_cfl(dims, 4096) for dims in (2, 3, 4)}
    assert [round(limits[d], 2) for d in (2, 3, 4)] == [2.96, 1.97, 1.48]
    default = inspect.signature(monotonicity_run).parameters["cfl"].default
    assert all(default < limit for limit in limits.values())


def _one_mode_amplitudes(gauge, fraction, limit):
    """h_12 = eps cos 2(x + y + z), at N = 8 the mode of the largest symbol,
    stepped 20 times by the gauge at fraction * limit of run_flow's step
    bound: its amplitudes and the dt taken."""
    n, eps = 8, 1e-6
    grid = Grid((n, n, n))
    h = grid.min_spacing
    coords = np.meshgrid(*[np.arange(n) * h] * 3, indexing="ij")
    mode = np.cos(2.0 * sum(coords))
    pair = flat_metric(grid).values.copy()
    pair[1] += eps * mode  # (0, 1) is the second symmetric pair in 3D
    state = FlowState(g=MetricField(grid, pair), b=TensorField(
        grid, np.zeros((3,) + grid.shape), "antisymmetric"))
    dt = fraction * limit * h ** 2 / (2.0 * state.g.max_inverse_eigenvalue())

    def amplitude(s):
        return np.sum(s.g.values[1] * mode) / np.sum(mode * mode)

    amplitudes = [amplitude(state)]
    g_ref = flat_metric(grid)
    for _ in range(20):
        state = step(state, gauge, dt, g_ref=g_ref)
        amplitudes.append(amplitude(state))
    return amplitudes, dt


@pytest.mark.parametrize("fraction, grows", [(0.95, False), (1.05, True)])
def test_one_mode_grows_past_the_rk4_limit_and_decays_below_it(fraction,
                                                               grows):
    # the mode's quadratic terms land on k = 0 and the Nyquist band, so one
    # step multiplies it by R(dt lambda) up to eps^2
    limit = _rk4_limit_cfl(3, 8)
    assert limit == pytest.approx(1.044, abs=1e-3)
    amplitudes, dt = _one_mode_amplitudes("deturck", fraction, limit)
    h = 2.0 * np.pi / 8
    lam = -3.0 * stencil_symbol(8, h)[2] ** 2
    assert amplitudes[1] / amplitudes[0] == pytest.approx(
        _rk4_growth(dt * lam), rel=0.0, abs=1e-9)
    if grows:
        assert amplitudes[-1] > 20.0 * amplitudes[0]
    else:
        assert 0.0 < amplitudes[-1] < 0.05 * amplitudes[0]


@pytest.mark.parametrize("fraction, grows", [(0.95, False), (1.05, True)])
def test_one_mode_of_the_mu_flow_grows_past_its_limit_only(fraction, grows):
    # h_12 mixes the mode of rate -|D(k)|^2 / 2 with directions the mu
    # gradient leaves at rest, so below the limit it settles, not vanishes
    amplitudes, _ = _one_mode_amplitudes("mu_gradient", fraction,
                                         2.0 * _rk4_limit_cfl(3, 8))
    if grows:
        assert amplitudes[-1] > 20.0 * amplitudes[0]
    else:
        assert all(0.0 < b <= a for a, b in zip(amplitudes, amplitudes[1:]))


@pytest.mark.parametrize("gauge", GAUGES)
def test_step_turns_a_failed_stage_into_step_size_error(gauge):
    # grf and deturck overflow in a later stage; mu_gradient's eigensolve
    # fails on the |H|^2 ~ 1e200 potential
    start, g_ref = _scaled_potential(1e100)
    with pytest.raises(StepSizeError, match="Runge-Kutta stage failed") as info:
        step(start, gauge, 1e-3, g_ref=g_ref)
    assert isinstance(info.value.__cause__, (NonFiniteError, ConvergenceError))
    assert str(info.value.__cause__) in str(info.value)


def test_non_finite_eigen_residual_ends_mu_gradient_run_at_once():
    # the potential ~ -1e200 is finite, the eigen-residual overflows
    start, _ = _scaled_potential(1e100)
    traj = run_flow(start, FlowConfig(gauge="mu_gradient", t_max=0.1))
    assert traj.verdict == "DIVERGED"
    assert traj.reason.startswith(
        "right-hand side failed: eigensolver residual is non-finite")


def test_step_chains_a_non_finite_eigen_residual():
    start, _ = _scaled_potential(1e100)
    with pytest.raises(StepSizeError) as info:
        step(start, "mu_gradient", 1e-3)
    assert isinstance(info.value.__cause__, NonFiniteError)
    assert "eigensolver residual is non-finite" in str(info.value)


@pytest.mark.parametrize("gauge", GAUGES)
def test_overflowing_run_ends_in_diverged_without_numpy_warnings(gauge):
    start, g_ref = _scaled_potential(1e160)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = run_flow(start, FlowConfig(gauge=gauge, t_max=0.1), g_ref=g_ref)
    assert traj.verdict == "DIVERGED"
    assert traj.reason.startswith("right-hand side failed")
    assert "non-finite" in traj.reason


@pytest.mark.parametrize("entry", ["grf_rhs", "deturck_rhs",
                                   "mu_gradient_flow_rhs", "lowest_eigenpair",
                                   "mu_directional_derivative"])
def test_overflow_outside_a_run_raises_non_finite_alone(entry):
    # called outside run_flow, an overflow in H^2 or |H|^2 is reported by the
    # output or potential check, with no numpy warning first
    start, g_ref = _scaled_potential(1e160)
    g, b = start.g, start.b
    call = {
        "grf_rhs": lambda: grf_rhs(start),
        "deturck_rhs": lambda: deturck_rhs(start, g_ref),
        "mu_gradient_flow_rhs": lambda: mu_gradient_flow_rhs(start),
        "lowest_eigenpair": lambda: lowest_eigenpair(
            g, start.field_strength()),
        # the side solves along (g, b) itself
        "mu_directional_derivative": lambda: mu_directional_derivative(
            g, b, g, b, None),
    }[entry]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError):
            call()


@pytest.mark.parametrize("gauge", ["grf", "deturck"])
def test_overflowing_stage_ends_in_diverged_without_numpy_warnings(gauge):
    # the first right-hand side is finite but its squared norm overflows
    start, g_ref = _scaled_potential(1e100)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = run_flow(start, FlowConfig(gauge=gauge, t_max=0.1), g_ref=g_ref)
    assert traj.verdict == "DIVERGED"
    assert traj.reason.startswith("Runge-Kutta stage failed")


def test_flow_state_refuses_fields_on_another_grid():
    # the same shape on other periods
    state = flat_state(8)
    other = Grid((8, 8, 8), periods=(1.0, 1.0, 1.0))
    b = TensorField(other, np.zeros((3,) + other.shape), "antisymmetric")
    hhat = TensorField(other, np.ones((1,) + other.shape), "antisymmetric")
    with pytest.raises(FieldError, match="different grids"):
        FlowState(state.g, b)
    with pytest.raises(FieldError, match="different grids"):
        FlowState(state.g, state.b, hhat)


def test_flow_state_refuses_a_background_that_is_no_three_form():
    state = flat_state(8)
    with pytest.raises(FieldError, match="hhat must be a 3-form"):
        FlowState(state.g, state.b, state.b)
    with pytest.raises(FieldError, match="b must be a 2-form"):
        FlowState(state.g,
                  TensorField(state.g.grid, state.g.values, "symmetric2"))


def test_a_two_dimensional_state_runs_with_an_empty_field_strength():
    # in 2D H = db is a 3-form with no independent component
    state = canned_state(resolution=8, dims=2)
    H = state.field_strength()
    assert H.values.shape == (0, 8, 8) and H.rank == 3
    g_ref = flat_metric(state.g.grid)
    for gauge in GAUGES:
        out = step(state, gauge, 0.01, g_ref=g_ref)
        assert out.time == 0.01 and out.b.values.shape == (1, 8, 8)
    dg, db = grf_rhs(state)
    assert dg.values.shape == (3, 8, 8) and not np.any(db.values)
    traj = run_flow(state, FlowConfig(gauge="deturck", t_max=0.02),
                    g_ref=g_ref)
    assert traj.records[-1]["H_l2"] == 0.0


def test_flow_state_refuses_a_metric_or_form_that_is_no_field():
    state = flat_state(8)
    # a symmetric 2-tensor is no metric: it lacks the cached inverse
    tensor = TensorField(state.g.grid, state.g.values, "symmetric2")
    for g, b, hhat, match in (
            (state.g.values, state.b, None, "^g must be a MetricField"),
            (tensor, state.b, None, "^g must be a MetricField"),
            (state.g, None, None, "^b must be a 2-form, not NoneType"),
            (state.g, state.b.values, None, "^b must be a 2-form, not ndarray"),
            (state.g, state.b, np.ones((1, 8, 8, 8)),
             "^hhat must be a 3-form, not ndarray")):
        with pytest.raises(FieldError, match=match):
            FlowState(g, b, hhat)


def test_deturck_rhs_refuses_a_reference_on_another_grid():
    state = canned_state(resolution=8)
    # the same values on other periods, and another resolution
    same_shape = MetricField(Grid((8, 8, 8), periods=(1.0, 1.0, 1.0)),
                             state.g.values)
    finer = flat_metric(Grid((12, 12, 12)))
    for g_ref in (same_shape, finer):
        for call in (lambda: deturck_rhs(state, g_ref),
                     lambda: step(state, "deturck", 1e-3, g_ref=g_ref),
                     lambda: run_flow(state, FlowConfig(gauge="deturck"),
                                      g_ref=g_ref)):
            with pytest.raises(FieldError, match="different grids"):
                call()


@pytest.mark.parametrize("dt", [-1e-3, 0.0, float("nan"), float("inf")])
def test_step_needs_a_positive_finite_dt(monkeypatch, dt):
    state = canned_state(resolution=8)

    def no_rhs(*args):
        raise AssertionError("a stage ran before dt was checked")

    monkeypatch.setitem(GAUGES, "grf", flow.Gauge(no_rhs))
    with pytest.raises(ConfigError, match="dt must be positive and finite"):
        step(state, "grf", dt)


def test_a_mu_gradient_step_validates_each_states_field_strength_once(
        monkeypatch):
    state = canned_state(resolution=8, hhat_c=0.3)
    built, states = [], []
    validate, construct = TensorField.__post_init__, FlowState.__post_init__

    def counting_field(self):
        validate(self)
        if (self.symmetry, self.rank) == ("antisymmetric", 3):
            built.append(self)

    def counting_state(self):
        construct(self)
        states.append(self)

    monkeypatch.setattr(TensorField, "__post_init__", counting_field)
    monkeypatch.setattr(FlowState, "__post_init__", counting_state)
    step(state, "mu_gradient", 1e-3)
    # three stage states and the result, one H each; the eigensolve and the
    # gradient assembly of a stage build none
    assert len(states) == 4
    assert len(built) == 4
    assert all(s.field_strength() is h for s, h in zip(states, built))


@pytest.mark.parametrize("dims, expected", [(3, 0), (4, 1)])
def test_a_recorded_row_takes_d_only_for_the_dh_column(monkeypatch, dims,
                                                       expected):
    # H is built with the state; only a 4D row takes dH, a 4-form
    state = canned_state(resolution=8, dims=dims)
    calls = []
    kernel = flow.exterior_derivative_values

    def counting(*args):
        calls.append(args[2])
        return kernel(*args)

    for module in (flow, spectrum, geometry):
        monkeypatch.setattr(module, "exterior_derivative_values", counting)
    traj = run_flow(state, FlowConfig(gauge="grf", stop_tol=np.inf))
    assert len(traj.records) == 1
    assert calls == [3] * expected
