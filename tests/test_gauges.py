"""The GAUGES table is the one place a gauge is decided.

A copy of a record registered under a new name must give the original's
answers bit for bit through every entry point that takes a gauge name. Runs
and steps must call the right-hand sides through the flow module's
attributes, which is where the benchmark's tracer and the test doubles patch
them.
"""

import collections
import dataclasses

import numpy as np
import pytest

from grflab import (FlowConfig, flat_metric, lojasiewicz_report, run_flow,
                    step, write_trajectory_csv)
from grflab import flow
from grflab.errors import ConfigError
from grflab.experiments import flat_equilibrium_report, perturbed_state

# copy name -> the record it copies
COPIES = {"mu_copy": "mu_gradient", "deturck_copy": "deturck"}
KERNELS = {"grf": "grf_rhs", "deturck": "deturck_rhs",
           "mu_gradient": "mu_gradient_flow_rhs"}


def _start():
    start = perturbed_state(resolution=8, amplitude=0.05, seed=3, cutoff=2)
    return start, flat_metric(start.g.grid)


def _csv_bytes(traj, path):
    write_trajectory_csv(traj, path)
    return path.read_bytes()


@pytest.fixture
def copies(monkeypatch):
    for name, original in COPIES.items():
        monkeypatch.setitem(flow.GAUGES, name,
                            dataclasses.replace(flow.GAUGES[original]))


@pytest.mark.parametrize("copy", sorted(COPIES))
def test_a_registered_copy_gives_the_original_answers(copies, copy, tmp_path):
    original = COPIES[copy]
    keeps = flow.GAUGES[original].keeps_fields
    start, g_ref = _start()
    a, b = (run_flow(start, FlowConfig(gauge=name, t_max=0.1, stop_tol=0.0,
                                       keep_gauge_fields=keeps), g_ref=g_ref)
            for name in (original, copy))
    assert (a.gauge, b.gauge) == (original, copy)
    assert len(a.records) > 3
    assert (b.verdict, b.reason) == (a.verdict, a.reason)
    assert repr(b.records) == repr(a.records)
    assert (_csv_bytes(b, tmp_path / "b.csv")
            == _csv_bytes(a, tmp_path / "a.csv"))
    assert ((b.side_eig_failures, b.eig_outer_iterations, b.eig_cg_iterations)
            == (a.side_eig_failures, a.eig_outer_iterations,
                a.eig_cg_iterations))
    assert np.array_equal(b.final.g.values, a.final.g.values)
    assert np.array_equal(b.final.b.values, a.final.b.values)
    if keeps:
        assert len(b.gauge_series) == len(a.gauge_series) > 0
        for (tb, dtb, xb), (ta, dta, xa) in zip(b.gauge_series,
                                                 a.gauge_series):
            assert (tb, dtb) == (ta, dta)
            assert all(np.array_equal(u.values, v.values)
                       for u, v in zip(xb, xa))
    else:
        assert a.gauge_series is None and b.gauge_series is None

    sa, sb = (step(start, name, 1e-3, g_ref=g_ref)
              for name in (original, copy))
    assert np.array_equal(sb.g.values, sa.g.values)
    assert np.array_equal(sb.b.values, sa.b.values)

    report = flat_equilibrium_report(8)
    assert report[f"{copy}_rhs_sup"] == report[f"{original}_rhs_sup"] == 0.0

    if flow.GAUGES[original].spectral:
        fits = [lojasiewicz_report(t, window_fraction=1.0, min_samples=3)
                for t in (a, b)]
        assert repr(fits[1]) == repr(fits[0])
    else:
        with pytest.raises(ConfigError, match=repr(copy)):
            lojasiewicz_report(b, min_samples=1)


@pytest.mark.parametrize("gauge", ["grf", "deturck"])
def test_lojasiewicz_fit_rejects_a_gauge_that_is_not_spectral(gauge):
    start, g_ref = _start()
    traj = run_flow(start, FlowConfig(gauge=gauge, t_max=0.02), g_ref=g_ref)
    with pytest.raises(ConfigError, match="spectral"):
        lojasiewicz_report(traj, min_samples=1)


def test_a_misspelled_gauge_is_rejected_by_config_and_step():
    start, g_ref = _start()
    with pytest.raises(ConfigError, match="unknown gauge 'deturk'"):
        FlowConfig(gauge="deturk")
    with pytest.raises(ConfigError, match="unknown gauge 'deturk'"):
        step(start, "deturk", 1e-3, g_ref=g_ref)


@pytest.fixture
def patched(monkeypatch):
    """Counting wrappers over the right-hand sides, lowest_eigenpair and the
    start-vector predictor, set as flow's attributes; each eigensolve records
    whether it ran inside the mu right-hand side."""
    calls, active, inside_mu = collections.Counter(), collections.Counter(), []
    for attr in KERNELS.values():
        def wrapper(*args, _fn=getattr(flow, attr), _attr=attr, **kwargs):
            calls[_attr] += 1
            active[_attr] += 1
            try:
                return _fn(*args, **kwargs)
            finally:
                active[_attr] -= 1
        monkeypatch.setattr(flow, attr, wrapper)
    solve = flow.lowest_eigenpair

    def counting_solve(*args, **kwargs):
        inside_mu.append(active["mu_gradient_flow_rhs"] > 0)
        return solve(*args, **kwargs)

    monkeypatch.setattr(flow, "lowest_eigenpair", counting_solve)
    predict = flow._predict

    def counting_predict(*args):
        calls["_predict"] += 1
        return predict(*args)

    monkeypatch.setattr(flow, "_predict", counting_predict)
    return calls, inside_mu


@pytest.mark.parametrize("gauge", sorted(KERNELS))
def test_runs_and_steps_call_the_patched_right_hand_side(patched, gauge):
    calls, inside_mu = patched
    start, g_ref = _start()
    traj = run_flow(start, FlowConfig(gauge=gauge, t_max=0.1), g_ref=g_ref)
    steps = len(traj.records) - 1
    assert steps > 1
    # k1 at every state reached, k2..k4 at every step
    assert calls[KERNELS[gauge]] == 4 * steps + 1
    if flow.GAUGES[gauge].spectral:
        # every stage solve runs inside the mu right-hand side
        assert len(inside_mu) == 4 * steps + 1 and all(inside_mu)
    else:
        # one side solve per diagnostics row, called by the run itself, and
        # no start vector predicted for the stages, which solve nothing
        assert len(inside_mu) == len(traj.records) and not any(inside_mu)
    assert calls == {KERNELS[gauge]: 4 * steps + 1,
                     "_predict": len(inside_mu)}

    calls.clear()
    step(start, gauge, 1e-3, g_ref=g_ref)
    # Counter equality counts a missing key as zero
    assert calls == collections.Counter(
        {KERNELS[gauge]: 4, "_predict": 4 * flow.GAUGES[gauge].spectral})
