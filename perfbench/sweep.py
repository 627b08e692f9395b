"""Layer sweep: each public entry point timed alone at several grid sizes.

Every entry point runs on fresh inputs built outside the timed region, so no
per-metric cache carries over between repeats, and reports the median of its
repeats in milliseconds as ``sweep.N<n>.<entry>_ms``. It runs untraced.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace

import numpy as np

import workloads  # noqa: F401  (imports grflab from the checkout)
from grflab import experiments, flow, geometry, lattice, spectrum

SIZES = (12, 16, 24, 32)
ENTRIES = ("diff_values", "MetricField", "ricci_values", "grf_rhs",
           "deturck_rhs", "mu_gradient_flow_rhs", "schrodinger_apply",
           "lowest_eigenpair_cold", "lowest_eigenpair_warm", "step", "diag_row")


def metric_names(sizes=SIZES):
    return [f"sweep.N{n}.{entry}_ms" for n in sizes for entry in ENTRIES]


def repeats(n):
    """Repeats per entry point; the largest grids cost seconds per call."""
    return 5 if n <= 16 else 2


def _median_ms(k, prepare, call):
    times = []
    for _ in range(k):
        args = prepare()
        t0 = time.perf_counter()
        call(*args)
        times.append(time.perf_counter() - t0)
    return float(np.median(times)) * 1e3


def _diag_row_ms(k, fresh_state):
    """One diagnostics row: a mu_gradient run_flow that stops at its first
    row, minus the right-hand side it evaluates first.

    Every run_flow records its first row, so two runs that differ by one row
    differ by whole steps too, whose noise buries the row at large N. The
    mu_gradient row reuses the stage eigenpair, so this is the row's own
    work; the side eigensolve of the other gauges is lowest_eigenpair_warm.
    """
    config = flow.FlowConfig(gauge="mu_gradient", stop_tol=math.inf)
    run = _median_ms(k, lambda: (fresh_state(),),
                     lambda s: flow.run_flow(s, config))
    rhs = _median_ms(k, lambda: (fresh_state(),), flow.mu_gradient_flow_rhs)
    return run - rhs


def _rk4_stages(state, w, dt):
    """The four stage states of one mu_gradient RK4 step from state, each
    with the warm start its eigensolve gets in run_flow: the eigenfunction
    of the stage before, for the first stage w.

    Returns the (stage state, warm start) pairs, the last stage's
    eigenfunction and the state at the end of the step.
    """
    grid = state.g.grid

    def advance(h, dg, db):
        return replace(
            state, g=geometry.MetricField(grid, state.g.values + h * dg),
            b=lattice.TensorField(grid, state.b.values + h * db,
                                  "antisymmetric"))

    pairs, dg_sum, db_sum = [], 0.0, 0.0
    stage = state
    for h, weight in ((0.5 * dt, 1.0), (0.5 * dt, 2.0), (dt, 2.0), (None, 1.0)):
        pairs.append((stage, w))
        dg, db, sol = flow.mu_gradient_flow_rhs(stage, w0=w)
        w = sol.w
        dg_sum = dg_sum + weight * dg.values
        db_sum = db_sum + weight * db.values
        if h is not None:
            stage = advance(h, dg.values, db.values)
    return pairs, w, advance(dt, dg_sum / 6.0, db_sum / 6.0)


def sweep(seed, sizes=SIZES):
    """Time every entry point at every size; returns {metric name: ms}."""
    out = {}
    for n in sizes:
        k = repeats(n)
        state = experiments.perturbed_state(resolution=n, amplitude=0.05,
                                            seed=seed, cutoff=2)
        grid = state.g.grid
        g_ref = geometry.flat_metric(grid)
        H = state.field_strength()
        sol = spectrum.lowest_eigenpair(state.g, H)
        # the flow's dt; the warm entries time the four stages of a second
        # mu_gradient step, warm-started as in run_flow, per stage
        dt = flow.FlowConfig().cfl * grid.min_spacing ** 2 / (
            2.0 * state.g.max_inverse_eigenvalue())
        _, w_last, second = _rk4_stages(state, sol.w, dt)
        stages, _, _ = _rk4_stages(second, w_last, dt)
        # each repeat of a warm entry already times four solves
        k_stages = max(1, k // 2)

        def fresh_metric():
            return geometry.MetricField(grid, state.g.values)

        def fresh_state(base=state):
            return replace(base, g=geometry.MetricField(grid, base.g.values))

        def curved_metric(base=state):
            g = geometry.MetricField(grid, base.g.values)
            geometry.scalar_curvature(g)
            return g

        none = tuple
        timings = {
            "diff_values": _median_ms(
                k, none, lambda: lattice.diff_values(state.g.values, 0,
                                                     grid.spacings[0])),
            "MetricField": _median_ms(
                k, none, lambda: geometry.MetricField(grid, state.g.values)),
            "ricci_values": _median_ms(
                k, lambda: (fresh_metric(),), geometry.ricci_values),
            "grf_rhs": _median_ms(k, lambda: (fresh_state(),), flow.grf_rhs),
            "deturck_rhs": _median_ms(
                k, lambda: (fresh_state(),),
                lambda s: flow.deturck_rhs(s, g_ref)),
            "mu_gradient_flow_rhs": _median_ms(
                k_stages, lambda: ([(fresh_state(s), w0) for s, w0 in stages],),
                lambda pairs: [flow.mu_gradient_flow_rhs(s, w0=w0)
                               for s, w0 in pairs]) / len(stages),
            # curvature already cached, so this is the operator and one apply
            "schrodinger_apply": _median_ms(
                k, lambda: (curved_metric(),),
                lambda g: spectrum.schrodinger_apply(g, H, sol.w)),
            "lowest_eigenpair_cold": _median_ms(
                k, lambda: (curved_metric(),),
                lambda g: spectrum.lowest_eigenpair(g, H)),
            "lowest_eigenpair_warm": _median_ms(
                k_stages,
                lambda: ([(curved_metric(s), s.field_strength(), w0)
                          for s, w0 in stages],),
                lambda triples: [spectrum.lowest_eigenpair(g, h, w0=w0)
                                 for g, h, w0 in triples]) / len(stages),
            "step": _median_ms(
                k, lambda: (fresh_state(),),
                lambda s: flow.step(s, "deturck", dt, g_ref=g_ref)),
            "diag_row": _diag_row_ms(k, fresh_state),
        }
        for entry in ENTRIES:
            out[f"sweep.N{n}.{entry}_ms"] = timings[entry]
    return out
