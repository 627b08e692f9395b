"""Canned experiment pipelines with pinned defaults.

Each pipeline builds its own seeded initial data, runs the relevant solver,
and returns a plain dict of floats, ints, and strings (JSON-ready, no arrays)
next to any trajectory object. The tests (tests/test_experiments.py) and the
benchmark (perfbench/) call these functions rather than re-assembling runs,
so a result quoted by one is reproducible by the other from the same seed.

Defaults are calibrated, not decorative: the stability stop tolerance leaves
the endpoint norms an order of magnitude under their pass thresholds, and the
gradient-check amplitude balances the quadratic finite-difference error in
eps against the quadratic remainder in the perturbation size.
"""

from __future__ import annotations

import collections
import math
import numbers

import numpy as np

from .errors import ConfigError, ConvergenceError
from .lattice import Grid, ScalarField, TensorField, weighted_inner
from .geometry import MetricField, flat_metric, identity_values
from .perturbations import random_form_perturbation, random_metric_perturbation
from .spectrum import (
    assemble_mu_gradient,
    critical_point_diagnostics,
    f_equation_residual,
    lowest_eigenpair,
    mu_directional_derivative,
)
from .flow import COUNTS, GAUGES, FlowConfig, FlowState, run_flow
from .diffeo import diffeo_flow, pullback
from .lojasiewicz import lojasiewicz_estimate
from .homogeneous import (
    ALGEBRAS,
    LieData,
    find_stationary,
    invariant_flow,
    invariant_norm_sq,
    invariant_scalar_curvature,
    stationarity_residual,
)

# monotonicity_run's certificate: the largest drop of lambda, its end gap
LAMBDA_STEP_TOL = 1e-8
LAMBDA_END_TOL = 1e-7


def background_three_form(grid, c):
    """The constant 3-form c e^1 ^ e^2 ^ e^3 as a validated TensorField."""
    if grid.n_dims != 3:
        raise ConfigError("the constant 3-form background needs three axes")
    return TensorField(grid, np.full((1,) + grid.shape, float(c)),
                       "antisymmetric")


def perturbed_state(resolution=16, amplitude=0.05, seed=0, cutoff=2,
                    hhat_c=0.0, dims=3):
    """Seeded random initial data near the flat torus of period 2 pi.

    The metric perturbation uses the given seed and the potential seed + 1000,
    both band-limited trigonometric polynomials normalized to the requested
    sup amplitude. hhat_c adds the constant background 3-form c e^123. dims
    must be an integer, else ConfigError before anything is drawn.
    """
    if not isinstance(dims, numbers.Integral):
        raise ConfigError(f"dims must be an integer, got {dims!r}")
    grid = Grid((resolution,) * dims)
    if amplitude != 0.0:
        h = random_metric_perturbation(grid, amplitude, seed, cutoff=cutoff)
        g = MetricField(grid, identity_values(grid) + h.values)
        b = random_form_perturbation(grid, amplitude, seed + 1000,
                                     cutoff=cutoff)
    else:
        g = flat_metric(grid)
        b = TensorField(grid, np.zeros((math.comb(dims, 2),) + grid.shape),
                        "antisymmetric")
    hhat = background_three_form(grid, hhat_c) if hhat_c != 0.0 else None
    return FlowState(g=g, b=b, hhat=hhat)


def flat_equilibrium_report(resolution=16, dims=3):
    """Residuals of the exact flat fixed point under the flow of every gauge.

    Every right-hand side, the lowest eigenvalue, and the spread of the
    eigenprofile (of the eigenpair a spectral gauge solved) must vanish to
    rounding; this is the discrete exactness anchor the perturbative
    experiments lean on.
    """
    state = perturbed_state(resolution=resolution, amplitude=0.0, dims=dims)

    def sup(fld):
        return float(np.max(np.abs(fld.values)))

    g_ref, report = flat_metric(state.g.grid), {"resolution": resolution}
    for name, gauge in GAUGES.items():
        dg, db, extra = gauge.rhs(state, g_ref, None)
        report[f"{name}_rhs_sup"] = max(sup(dg), sup(db))
        if gauge.spectral:
            sol = extra
    report.update({
        "lambda": sol.lam,
        "f_spread": float(np.ptp(sol.f.values)),
        "eigen_iterations": sol.iterations,
    })
    return report


def eigen_report(resolution=16, amplitude=0.05, seed=0, cutoff=2, hhat_c=0.0,
                 dims=3):
    """Solve the ground state on seeded data and collect every residual."""
    state = perturbed_state(resolution=resolution, amplitude=amplitude,
                            seed=seed, cutoff=cutoff, hhat_c=hhat_c,
                            dims=dims)
    H = state.field_strength()
    sol = lowest_eigenpair(state.g, H)
    return {
        "resolution": resolution,
        "amplitude": amplitude,
        "seed": seed,
        "hhat_c": hhat_c,
        "lambda": sol.lam,
        "eigen_residual": sol.eigen_residual,
        "f_eq_residual": f_equation_residual(state.g, H, sol),
        "f_spread": float(np.ptp(sol.f.values)),
        "iterations": sol.iterations,
        **critical_point_diagnostics(state.g, H, sol),
    }


def gradient_check(resolution=12, amplitude=0.005, cutoff=1, eps=1e-4,
                   seeds=(0, 1, 2, 3, 4), dims=3):
    """Directional derivatives of mu against the assembled gradient.

    For each seed: a perturbed state, one seeded direction pair (metric
    direction from seed + 77, form direction from seed + 177, both at unit
    amplitude), the central difference of mu at half-width eps, and the
    gradient pairing. Both side solves of the difference start from the
    eigenfunction the gradient solved, so a seed costs three eigensolves.
    The relative errors are the package's primary correctness certificate
    for the variational structure. seeds must not be empty.
    """
    seeds = tuple(seeds)
    if not seeds:
        raise ConfigError("gradient_check needs at least one seed")
    rows = []
    for seed in seeds:
        state = perturbed_state(resolution=resolution, amplitude=amplitude,
                                seed=seed, cutoff=cutoff, dims=dims)
        grid = state.g.grid
        h_dir = random_metric_perturbation(grid, 1.0, seed + 77, cutoff=cutoff)
        b_dir = random_form_perturbation(grid, 1.0, seed + 177, cutoff=cutoff)
        H = state.field_strength()
        sol = lowest_eigenpair(state.g, H)
        g_part, b_part = assemble_mu_gradient(state.g, H, sol)
        weight = ScalarField(grid, np.exp(-sol.f.values))
        paired = weighted_inner(g_part, h_dir, state.g, weight)
        paired += weighted_inner(b_part, b_dir, state.g, weight)
        fd = mu_directional_derivative(state.g, state.b, h_dir, b_dir,
                                       sol.w, eps=eps)
        denom = max(abs(fd), 1e-30)
        rows.append({
            "seed": seed,
            "pairing": paired,
            "finite_difference": fd,
            "rel_error": abs(fd - paired) / denom,
        })
    return {
        "resolution": resolution,
        "amplitude": amplitude,
        "cutoff": cutoff,
        "eps": eps,
        "rows": rows,
        "max_rel_error": max(r["rel_error"] for r in rows),
    }


def _endpoint_summary(traj):
    """Verdict, reason, endpoint fields and counts (in flow.COUNTS order) of
    a run; the fields are NaN when its first right-hand side failed, so that
    it has no record."""
    records = traj.records or [collections.defaultdict(lambda: math.nan)]
    last = records[-1]
    return {
        "verdict": traj.verdict,
        "reason": traj.reason,
        "t_end": last["t"],
        "n_records": len(traj.records),
        "lambda_end": last["lambda"],
        "ricci_linf_end": last["ricci_linf"],
        "H_l2_end": last["H_l2"],
        "rhs_l2_end": last["rhs_l2"],
        "dH_linf_max": float(np.max([r["dH_linf"] for r in records])),
        # the final tenth of the time span (all of a run without records,
        # whose time is NaN); np.max propagates a NaN gap from a failed side
        # eigensolve, so a blanked gap can never masquerade as a small one
        "identity_gap_final_decade": float(np.max([
            r["identity_gap"] for r in records
            if not r["t"] < last["t"] * (1.0 - 0.1)])),
        **{key: traj.counts[key] for key in COUNTS},
    }


def stability_run(seed=0, resolution=16, amplitude=0.05, cutoff=2,
                  hhat_c=0.0, stop_tol=1e-7, t_max=20.0, cfl=0.4,
                  record_every=1, threshold=1e-6, dims=3):
    """One gauge-fixed run from seeded data back toward the flat point.

    The stop tolerance sits well below the endpoint threshold because the
    H norm trails the full right-hand-side norm by only a small factor near
    the end; stopping at 1e-7 leaves the endpoint norms an order of magnitude
    of slack under the default 1e-6 pass line.

    The step is cfl = 0.4, four times FlowConfig's: 41% of RK4's limit in
    3D, 54% in 4D and 27% in 2D (see flow). The default N = 16 run takes 455
    steps and no positivity halving.
    """
    state = perturbed_state(resolution=resolution, amplitude=amplitude,
                            seed=seed, cutoff=cutoff, hhat_c=hhat_c,
                            dims=dims)
    g_ref = flat_metric(state.g.grid)
    config = FlowConfig(gauge="deturck", t_max=t_max, cfl=cfl,
                        stop_tol=stop_tol, record_every=record_every)
    traj = run_flow(state, config, g_ref=g_ref)
    summary = {"seed": seed, "resolution": resolution,
               "amplitude": amplitude, "threshold": threshold}
    summary.update(_endpoint_summary(traj))
    summary["passed"] = bool(
        traj.verdict == "CONVERGED"
        and summary["ricci_linf_end"] < threshold
        and summary["H_l2_end"] < threshold)
    return traj, summary


def monotonicity_run(seed=0, resolution=16, amplitude=0.05, cutoff=2,
                     hhat_c=0.0, stop_tol=1e-4, t_max=15.0, cfl=0.15,
                     record_every=1, dims=3):
    """One gradient-gauge run; the eigenvalue must climb to zero.

    The per-sample monotonicity certificate allows lambda to drop by at most
    LAMBDA_STEP_TOL between records, and the endpoint must sit within
    LAMBDA_END_TOL of the critical value zero, from below.

    The step is cfl = 0.15, 7.6% of the mu flow's RK4 limit of 1.97 in 3D
    (see flow); the default N = 16 run takes 636 steps. It is the largest
    step at which every input of the benchmark's mu_gradient_climb
    operations, which stop at a loose tolerance, keeps at least 10 rows for
    the Lojasiewicz fit over all its records; at 0.2 some keep 9 and the fit
    refuses them. A larger default waits for those operations to be resized.
    """
    state = perturbed_state(resolution=resolution, amplitude=amplitude,
                            seed=seed, cutoff=cutoff, hhat_c=hhat_c,
                            dims=dims)
    config = FlowConfig(gauge="mu_gradient", t_max=t_max, cfl=cfl,
                        stop_tol=stop_tol, record_every=record_every)
    traj = run_flow(state, config)
    lams = traj.column("lambda")
    drops = np.diff(lams)
    worst_drop = float(np.min(drops)) if len(drops) else 0.0
    summary = {"seed": seed, "resolution": resolution,
               "amplitude": amplitude}
    summary.update(_endpoint_summary(traj))
    monotone = bool(worst_drop >= -LAMBDA_STEP_TOL)
    all_negative = bool(len(lams) and np.all(lams < 0.0))
    summary.update({
        "lambda_start": float(lams[0]) if len(lams) else float("nan"),
        "worst_lambda_drop": worst_drop,
        "monotone": monotone,
        "all_negative": all_negative,
        "passed": (traj.verdict == "CONVERGED" and monotone and all_negative
                   and bool(abs(lams[-1]) < LAMBDA_END_TOL)),
    })
    return traj, summary


def lojasiewicz_report(trajectory, window_fraction=0.5, min_samples=10):
    """Exponent fit on the records of a spectral-gauge run, whose rhs_l2 is
    the gradient norm, plus the certificate the estimate is graded on."""
    if not GAUGES[trajectory.gauge].spectral:
        raise ConfigError("exponent fit needs a trajectory of a spectral "
                          f"gauge, got {trajectory.gauge!r}")
    out = lojasiewicz_estimate(trajectory.records,
                               window_fraction=window_fraction,
                               min_samples=min_samples)
    # the inequality only holds at a finite exponent in (0, 1/2]
    out["passed"] = out["holds_everywhere"]
    return out


def gauge_consistency_run(resolution=12, amplitude=0.05, seed=0, cutoff=2,
                          t_max=0.1, cfl=0.2, dims=3):
    """Pull the gauge-fixed endpoint back and compare with the plain flow.

    Both flows start from the same seeded data and stop exactly at t_max; the
    recorded gauge stage fields integrate the compensating diffeomorphism,
    whose pullback of the gauge-fixed endpoint must match the plain endpoint
    to the combined discretization error of both runs. plain_steps and
    gauged_steps count the accepted steps of the two flows.

    The step is cfl = 0.2, twice FlowConfig's: a fifth of RK4's limit in 3D
    (see flow). It moves gap_sup and metric_gap_sup from cfl 0.1's by at
    most 2e-4 relative at N = 8 and 12; at N = 12 gap_sup is 1.41e-4.
    Neither flow records a diagnostics row, so the run solves no eigenpair.
    """
    state = perturbed_state(resolution=resolution, amplitude=amplitude,
                            seed=seed, cutoff=cutoff, dims=dims)
    g_ref = flat_metric(state.g.grid)
    base = dict(t_max=t_max, cfl=cfl, stop_tol=0.0, record_every=None)
    plain = run_flow(state, FlowConfig(gauge="grf", **base))
    gauged = run_flow(state, FlowConfig(gauge="deturck",
                                        keep_gauge_fields=True, **base),
                      g_ref=g_ref)
    if plain.final.time != gauged.final.time:
        raise ConvergenceError(
            "flows ended at different times "
            f"({plain.final.time} vs {gauged.final.time})")

    disp = diffeo_flow(gauged.gauge_series, state.g.grid)
    pulled_g = pullback(disp, gauged.final.g)
    pulled_h = pullback(disp, gauged.final.field_strength())
    gap_g = float(np.max(np.abs(pulled_g.values - plain.final.g.values)))
    gap_h = float(np.max(np.abs(pulled_h.values
                                - plain.final.field_strength().values),
                         initial=0.0))  # H has no component in 2D
    return {
        "resolution": resolution,
        "amplitude": amplitude,
        "seed": seed,
        "t_end": plain.final.time,
        "plain_steps": plain.steps,
        "gauged_steps": gauged.steps,
        "displacement_sup": float(np.max(np.abs(disp.values))),
        "metric_gap_sup": gap_g,
        "field_strength_gap_sup": gap_h,
        "gap_sup": max(gap_g, gap_h),
    }


def homogeneous_report(algebra="su2", scale=1.0, h3=0.8, flow_t_max=0.0):
    """Stationary-point search and identity checks on a 3D group.

    algebra names a row of homogeneous.ALGEBRAS and scale must be positive
    and finite, else ConfigError. Starts slightly off the expected
    stationary set (metric scale bumped by ten percent) so the Newton search
    does real work, then evaluates the stationarity identities at the
    landing point. A nonzero flow_t_max appends an invariant-flow
    integration of g from the starting data, at dt = 0.002 and the fixed h3;
    it must be positive and finite, else ConfigError. "flow" then holds
    t_end (exactly flow_t_max), n_records and final_residual.
    """
    if algebra not in ALGEBRAS:
        raise ConfigError(
            f"unknown algebra {algebra!r}; expected one of {sorted(ALGEBRAS)}")
    if not 0 < scale < math.inf:
        raise ConfigError(f"scale must be positive and finite, got {scale!r}")
    data0 = LieData(ALGEBRAS[algebra], 1.1 * scale * np.eye(3), h3)
    out = {
        "algebra": algebra,
        "scale": scale,
        "h3_start": h3,
        "start_residual": stationarity_residual(data0),
    }
    try:
        stat = find_stationary(data0)
    except ConvergenceError as exc:
        out.update({"stationary_found": False, "failure": str(exc)})
        stat = None
    if stat is not None:
        r = invariant_scalar_curvature(stat)
        norm_sq = invariant_norm_sq(stat)
        out.update({
            "stationary_found": True,
            "residual": stationarity_residual(stat),
            "g_diag": [float(stat.g[i, i]) for i in range(3)],
            "g_offdiag_sup": float(np.max(np.abs(
                stat.g - np.diag(np.diag(stat.g))))),
            "h3": stat.h3,
            "scalar_vs_quarter_norm": abs(r - 0.25 * norm_sq),
            "scalar_gap": abs(r - norm_sq / 12.0),
        })
    if flow_t_max != 0.0:
        records, _ = invariant_flow(data0, t_max=flow_t_max, dt=0.002)
        out["flow"] = {"t_end": records[-1]["t"], "n_records": len(records),
                       "final_residual": records[-1]["stat_residual"]}
        out["flow_records"] = records
    return out
