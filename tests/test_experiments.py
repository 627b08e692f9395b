"""Tier-1 runs of the canned pipelines that reach the shared mu-gradient
assembly, the Runge-Kutta step and the eigensolver (about 2 s in total, about
3 s more for the two stability runs at different steps, and about 5 s for the
two full N = 8 runs of the repeat test, on a 2-vCPU x86-64 host)."""

import math
import warnings

import numpy as np
import pytest

from grflab.experiments import (
    eigen_report,
    flat_equilibrium_report,
    gauge_consistency_run,
    gradient_check,
    homogeneous_report,
    monotonicity_run,
    stability_run,
)
from grflab import experiments, flow, homogeneous, spectrum
from grflab.errors import (ConfigError, ConvergenceError, FieldError,
                           NonFiniteError, PositivityError)


def test_flat_equilibrium_is_exact():
    # every registered gauge meets the exact-zero gate
    report = flat_equilibrium_report(12)
    for key in [f"{name}_rhs_sup" for name in flow.GAUGES] + ["lambda"]:
        assert report[key] == 0.0, key


def test_flat_equilibrium_is_exact_in_two_dimensions():
    report = flat_equilibrium_report(resolution=8, dims=2)
    for key in [f"{name}_rhs_sup" for name in flow.GAUGES] + ["lambda"]:
        assert report[key] == 0.0, key


def test_two_dimensional_stability_run_passes():
    # in 2D there is no 3-form, so H = 0 and the DeTurck flow is
    # DeTurck-Ricci flow
    traj, summary = stability_run(resolution=8, dims=2)
    assert summary["passed"] is True
    assert summary["verdict"] == "CONVERGED"
    assert summary["H_l2_end"] == 0.0
    assert np.all(traj.column("H_l2") == 0.0)


def test_stability_verdict_and_end_time_do_not_depend_on_the_step():
    # the default step against half of it: the same verdict, and an end time
    # within one default step
    common = dict(resolution=8, stop_tol=1e-5, threshold=1e-4)
    (traj, default), (_, halved) = (stability_run(**common),
                                    stability_run(cfl=0.1, **common))
    assert default["passed"] is halved["passed"] is True
    assert default["verdict"] == halved["verdict"] == "CONVERGED"
    assert default["n_records"] < halved["n_records"]
    assert abs(default["t_end"] - halved["t_end"]) <= max(traj.column("dt"))


def _plain_type_paths(value, path="summary"):
    """Paths of every value below value whose type is not exactly a plain
    int, float, str or bool, inside lists and dicts (np.float64 is a float
    subclass, so isinstance would let it through)."""
    if type(value) in (list, dict):
        items = value.items() if type(value) is dict else enumerate(value)
        return [bad for key, item in items
                for bad in _plain_type_paths(item, f"{path}[{key!r}]")]
    return [] if type(value) in (int, float, str, bool) else [
        f"{path}: {type(value).__name__}"]


def test_summaries_hold_only_plain_types():
    summaries = {
        "eigen_report": eigen_report(resolution=8, amplitude=0.05),
        "stability_run": stability_run(resolution=8, t_max=0.1)[1],
        "monotonicity_run": monotonicity_run(resolution=8, t_max=0.1)[1],
        "gauge_consistency_run": gauge_consistency_run(resolution=8, t_max=0.02),
        "flat_equilibrium_report": flat_equilibrium_report(8),
        "gradient_check": gradient_check(resolution=8, seeds=(0,)),
    }
    assert [bad for name, summary in summaries.items()
            for bad in _plain_type_paths(summary, name)] == []


def test_gradient_check_matches_finite_differences():
    assert gradient_check()["max_rel_error"] < 1e-5


def test_gradient_check_solves_three_eigenpairs_per_seed(monkeypatch):
    # one cold solve at the centre, whose eigenfunction then starts both
    # side solves of the finite difference: no seed solves its centre twice
    solve, cold = spectrum.lowest_eigenpair, []

    def counting(*args, **kwargs):
        cold.append(kwargs.get("w0") is None)
        return solve(*args, **kwargs)

    # the centre solve runs through experiments' binding, the side solves
    # through spectrum's
    for module in (experiments, spectrum):
        monkeypatch.setattr(module, "lowest_eigenpair", counting)
    gradient_check(seeds=(0, 1))
    assert cold == [True, False, False] * 2


def test_gradient_check_needs_a_seed(monkeypatch):
    monkeypatch.setattr(experiments, "perturbed_state", None)  # never reached
    with pytest.raises(ConfigError, match="at least one seed"):
        gradient_check(seeds=())


def test_gradient_check_error_falls_with_resolution():
    # the pairing and the difference quotient differentiate the same discrete
    # functional only in the limit: 8.95e-4 at N = 8, 9.69e-5 at N = 12
    coarse, fine = (gradient_check(resolution=n, amplitude=0.05, cutoff=2,
                                   seeds=(0,))["max_rel_error"]
                    for n in (8, 12))
    assert fine < 0.5 * coarse < 1e-3


def test_gradient_check_in_two_dimensions_follows_eps():
    # on two axes H = 0; the difference quotient's error grows with its
    # half-width: 2.0e-6 at eps = 1e-4, 9.3e-6 at 1e-3
    small, wide = (gradient_check(resolution=8, eps=eps, dims=2, seeds=(0,))
                   for eps in (1e-4, 1e-3))
    assert (small["eps"], wide["eps"]) == (1e-4, 1e-3)
    assert small["max_rel_error"] < wide["max_rel_error"] < 1e-4


def test_eigen_report_with_a_background_and_another_seed():
    report = eigen_report(resolution=8, amplitude=0.05, seed=1, cutoff=1,
                          hhat_c=0.3)
    assert (report["seed"], report["hhat_c"]) == (1, 0.3)
    assert report["eigen_residual"] <= spectrum.EIG_TOL
    # below the flat value -|Hhat|^2/12 = -0.045 of the background alone
    assert report["lambda"] < -0.045


def test_eigen_report_is_exact_on_the_flat_two_torus():
    report = eigen_report(resolution=8, amplitude=0.0, dims=2)
    assert report["lambda"] == report["f_spread"] == 0.0
    assert report["iterations"] == 0


def test_eigen_report_seed_draws_the_data_at_the_defaults():
    # -1.460e-3 at seed 1 and -1.078e-3 at seed 2, 7 iterations each
    one, two = (eigen_report(resolution=8, seed=seed) for seed in (1, 2))
    assert one["lambda"] < 0.0 and two["lambda"] < 0.0
    assert one["lambda"] != two["lambda"]


def test_monotonicity_run_climbs_with_a_background_or_on_two_axes():
    for _, summary in (monotonicity_run(resolution=8, hhat_c=0.3, cfl=0.2,
                                        t_max=0.1),
                       monotonicity_run(resolution=8, dims=2, t_max=0.1)):
        assert summary["t_end"] == 0.1
        assert summary["monotone"] and summary["all_negative"]
        assert summary["lambda_end"] > summary["lambda_start"]


def test_gauge_consistency_on_two_axes_at_a_smaller_step():
    report = gauge_consistency_run(resolution=8, cfl=0.05, dims=2)
    assert report["t_end"] == 0.1
    assert report["field_strength_gap_sup"] == 0.0   # H has no component
    assert 0.0 < report["metric_gap_sup"] < 2e-3     # 8.9e-4 measured


def test_gauge_consistency_gap_is_small():
    report = gauge_consistency_run()
    assert math.isfinite(report["gap_sup"])
    assert report["gap_sup"] < 1e-3


def test_gauge_consistency_gap_falls_under_refinement():
    # both flows and the pulled-back diffeomorphism converge with the grid:
    # 3.37e-4, 1.41e-4 and 6.03e-5 at N = 8, 12 and 16 (1.20e-5 at N = 24,
    # observed order 4.0)
    gaps = [gauge_consistency_run(resolution=n)["gap_sup"]
            for n in (8, 12, 16)]
    assert all(0.0 < fine < 0.5 * coarse
               for coarse, fine in zip(gaps, gaps[1:]))


def test_eigen_report_on_perturbed_data():
    report = eigen_report(12, amplitude=0.05)
    assert report["eigen_residual"] <= spectrum.EIG_TOL
    assert report["f_eq_residual"] < 0.05
    assert report["lambda"] < 0.0
    assert "mu" not in report  # lambda is mu; it is reported once
    for key, value in report.items():
        assert math.isfinite(value), key


@pytest.mark.parametrize("flow_t_max", [float("nan"), float("inf"), -0.05])
def test_homogeneous_report_rejects_a_flow_horizon_that_is_not_positive(
        monkeypatch, flow_t_max):
    # the horizon reaches invariant_flow's check instead of skipping the
    # flow; a step would mean the check was passed
    def no_step(*args):
        raise AssertionError("invariant_flow took a step")

    monkeypatch.setattr(homogeneous, "_rk4_with_retries", no_step)
    with pytest.raises(ConfigError, match="positive and finite"):
        homogeneous_report("su2", flow_t_max=flow_t_max)


@pytest.mark.parametrize("scale", [-1.0, 0.0, float("nan"), float("inf")])
def test_homogeneous_report_rejects_a_scale_that_is_not_positive(scale):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="scale"):
            homogeneous_report("su2", scale=scale)


@pytest.mark.parametrize("h3", [float("nan"), float("inf")])
def test_homogeneous_report_rejects_a_non_finite_form(h3):
    # LieData stops it before the Newton search's least-squares solve
    with pytest.raises(FieldError, match="non-finite"):
        homogeneous_report("su2", h3=h3)


@pytest.mark.parametrize("algebra", ["su2", "heisenberg", "abelian"])
def test_homogeneous_report_flow_and_stationary_search(algebra):
    report = homogeneous_report(algebra, flow_t_max=0.05)
    assert report["flow"]["n_records"] == 26
    assert report["flow"]["t_end"] == 0.05
    assert report["flow"]["final_h3"] == 0.8
    if algebra == "heisenberg":
        assert report["stationary_found"] is False
    else:
        assert report["stationary_found"] is True
        assert report["residual"] < 1e-12
        # residual is sup |Ric - H^2/4|; it is reported once
        assert "ricci_vs_quarter_h2" not in report


def test_homogeneous_report_lands_on_the_round_su2_family_from_any_start():
    # the su2 stationary set holds the round metrics c I with |h3| = c; the
    # search starts from 1.1 scale I at h3 and lands on one of them
    report = homogeneous_report(algebra="su2", scale=2.0, h3=1.7)
    assert (report["scale"], report["h3_start"]) == (2.0, 1.7)
    assert report["stationary_found"] is True
    assert report["residual"] < 1e-12
    assert report["g_offdiag_sup"] < 1e-8
    c = report["g_diag"][0]
    assert max(abs(d - c) for d in report["g_diag"]) < 1e-8
    assert abs(abs(report["h3"]) - c) < 1e-8


ENDPOINT_FIELDS = ("t_end", "lambda_end", "ricci_linf_end", "H_l2_end",
                   "rhs_l2_end", "dH_linf_max", "identity_gap_final_decade")


@pytest.mark.parametrize("pipeline", ["monotonicity"])
def test_run_whose_first_right_hand_side_fails_reports_its_verdict(
        pipeline, monkeypatch):
    # an unreachable eigensolver tolerance fails the very first stage
    monkeypatch.setattr(spectrum, "EIG_TOL", 1e-30)
    traj, summary = monotonicity_run(resolution=8)
    assert summary["passed"] is False
    assert math.isnan(summary["lambda_start"])
    assert traj.records == []
    assert summary["verdict"] == "DIVERGED"
    assert summary["reason"].startswith(
        "right-hand side failed: eigensolver stalled")
    assert summary["n_records"] == 0
    assert summary["side_eig_failures"] == 0
    for key in ENDPOINT_FIELDS:
        assert math.isnan(summary[key]), key


@pytest.mark.parametrize("pipeline", [stability_run, monotonicity_run])
def test_summaries_total_the_eigensolver_iterations(monkeypatch, pipeline):
    solve = flow.lowest_eigenpair
    solved = []

    def counting(*args, **kwargs):
        solved.append(solve(*args, **kwargs))
        return solved[-1]

    # stage solves in the mu gauge, side solves of the rows in deturck
    monkeypatch.setattr(flow, "lowest_eigenpair", counting)
    _, summary = pipeline(resolution=8, t_max=0.1)
    assert len(solved) > 1
    assert summary["eig_outer_iterations"] == sum(s.iterations for s in solved)
    assert summary["eig_cg_iterations"] == sum(s.cg_iterations for s in solved)
    assert summary["eig_cg_short_exits"] == 0


@pytest.mark.parametrize("pipeline", [stability_run, monotonicity_run])
def test_summaries_total_the_short_cg_exits(monkeypatch, pipeline):
    solve = flow.lowest_eigenpair
    solved = []

    def counting(*args, **kwargs):
        solved.append(solve(*args, **kwargs))
        return solved[-1]

    # one CG iteration per inner solve: most stop short and are counted
    # (4 in 3 solves of the stability run, 15 in 13 of the monotonicity run)
    monkeypatch.setattr(spectrum, "CG_MAX_ITER", 1)
    monkeypatch.setattr(flow, "lowest_eigenpair", counting)
    traj, summary = pipeline(resolution=8, t_max=0.1)
    assert summary["side_eig_failures"] == 0
    short = sum(s.cg_short_exits for s in solved)
    assert (summary["eig_cg_short_exits"] == traj.counts["eig_cg_short_exits"]
            == short > 0)


@pytest.mark.parametrize("pipeline", [stability_run, monotonicity_run])
def test_summaries_total_the_step_halvings(monkeypatch, pipeline):
    _, reference = pipeline(resolution=8, t_max=0.2)
    assert reference["dt_halvings"] == 0
    advance, sizes, previous = flow._advance, [], []

    def once_at_k2(y, h, k):
        # the fifth advance is the one to k2 of the second step
        sizes.append(h)
        if len(sizes) == 5:
            raise PositivityError("forced")
        return advance(y, h, k)

    class Logged(flow._Stream):
        def next_step(self):
            super().next_step()
            previous.append(len(self.previous))

    monkeypatch.setattr(flow, "_advance", once_at_k2)
    monkeypatch.setattr(flow, "_Stream", Logged)
    traj, summary = pipeline(resolution=8, t_max=0.2)
    assert summary["dt_halvings"] == traj.counts["dt_halvings"] == 1
    assert sizes[5] == 0.5 * sizes[4]  # k2 again, at half the step
    for key in ("verdict", "reason", "side_eig_failures"):
        assert summary[key] == reference[key], key
    # the halved second step records no stage error, so the third starts
    # from the time line alone; a gauge without stage solves records none
    spectral = pipeline is monotonicity_run
    assert previous[:4] == ([0, 4, 0, 4] if spectral else [0, 0, 0, 0])


@pytest.mark.parametrize("error", [ConvergenceError, NonFiniteError])
def test_failed_side_eigensolves_are_counted(monkeypatch, error):
    _, reference = stability_run(resolution=8, t_max=0.1)
    assert reference["side_eig_failures"] == 0

    def failing(*args, **kwargs):
        raise error("side eigensolve failed")

    # in the deturck gauge every eigensolve of run_flow is a side solve
    monkeypatch.setattr(flow, "lowest_eigenpair", failing)
    traj, summary = stability_run(resolution=8, t_max=0.1)
    assert all(math.isnan(r["lambda"]) for r in traj.records)
    # every recorded row solved its eigenpair on the side, and each failed
    assert summary["side_eig_failures"] == len(traj.records)
    assert len(traj.records) == reference["n_records"] > 1
    assert summary["eig_outer_iterations"] == 0
    assert summary["eig_cg_iterations"] == 0
    for key in ("verdict", "reason", "n_records", "t_end", "passed"):
        assert summary[key] == reference[key], key


def test_monotonicity_run_repeats_its_csv_bytes_in_one_process(tmp_path):
    # the benchmark's repeat gate: the same input twice in one interpreter,
    # with the allocator's state moved in between, writes the same bytes
    first, _ = monotonicity_run(resolution=8)
    flow.write_trajectory_csv(first, tmp_path / "first.csv")
    junk = [np.empty(8 * k + 8) for k in range(1, 200)]
    second, _ = monotonicity_run(resolution=8)
    flow.write_trajectory_csv(second, tmp_path / "second.csv")
    del junk
    assert ((tmp_path / "first.csv").read_bytes()
            == (tmp_path / "second.csv").read_bytes())
