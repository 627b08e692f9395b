"""Smoke test of the benchmark harness on tiny grids.

Checks that every metric named in BENCHMARK.json is emitted, that the
tracing wrappers are gone after a traced run, that the tracer's own checks
record no spans, and that a failed certificate or a raising pipeline counts
as a failed operation.
"""

import dataclasses
import json
import math
import os
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import run  # noqa: E402
import sweep  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from grflab import experiments, spectrum  # noqa: E402

TINY_SWEEP = (8,)


def fake_setup():
    """A set-up sample without the fresh interpreters."""
    return {"setup_s": 0.5, "ref_s": [0.1, 0.1], "scaled_s": 0.5}

# smallest grids on which every certificate still holds; the mu_gradient
# stop is tighter so that the fit still gets ten rows
TINY = {
    "deturck_relax": dict(resolution=8),
    "mu_gradient_climb": dict(resolution=8, stop_tol=0.025),
    "gauge_recovery": dict(resolution=8),
}


def tiny(name, **changes):
    wl = workloads.WORKLOADS[name]
    return dataclasses.replace(
        wl, params={**wl.params, **TINY[name]}, n_inputs=1, **changes)


def load_benchmark():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_names_what_the_harness_emits():
    spec = load_benchmark()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert ([(m["name"], m["unit"]) for m in spec["end_to_end"]]
            == run.units(False, sweep.SIZES))
    assert ([(m["name"], m["unit"]) for m in spec["per_layer"]]
            == run.units(True, sweep.SIZES))


@pytest.mark.parametrize("name", list(TINY))
def test_untraced_run_emits_every_end_to_end_metric(name, tmp_path):
    result, report = run.measure(tiny(name), 0, 0.0, False, fake_setup,
                                 out_dir=str(tmp_path))
    assert result["correct"], report["ops"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert report["ref_timings_s"]
    assert set(result["metrics"]) == {n for n, _ in run.END_TO_END}
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"]) and metric["value"] > 0


@pytest.mark.parametrize("name", list(TINY))
def test_traced_run_emits_every_layer_metric_and_unwraps(name, tmp_path):
    result, report = run.measure(tiny(name), 0, 0.0, True, fake_setup,
                                 sweep_sizes=TINY_SWEEP,
                                 out_dir=str(tmp_path))
    assert result["correct"], (report["problems"], report["ops"])
    metrics = result["metrics"]
    assert list(metrics) == [n for n, _ in run.units(True, TINY_SWEEP)]
    assert tracing.Tracer.leftovers() == []
    assert not hasattr(experiments.run_flow, "_perfbench_span")
    assert metrics["trace.coverage"]["value"] > 0.5
    diffeo_s = metrics["diffeo.flow_s"]["value"]
    assert (diffeo_s > 0) == (name == "gauge_recovery")


def test_short_exit_check_records_no_spans():
    names = []
    for check in (True, False):
        # a fresh state each time, so that no cached curvature carries over
        state = experiments.perturbed_state(resolution=8, amplitude=0.05,
                                            seed=3, cutoff=2)
        tracer = tracing.Tracer()
        if not check:
            tracer._short_exit = lambda args, kwargs, x: 0
        tracer.install()
        try:
            spectrum.lowest_eigenpair(state.g, state.field_strength())
        finally:
            tracer.remove()
        names.append([s[tracing.NAME] for s in tracer.spans])
    with_check, without = names
    assert with_check == without
    assert with_check.count("lattice.diff_values") > 0
    assert with_check.count("spectrum.SchrodingerOperator.solve_shifted") > 0


def test_paused_work_is_not_charged_to_open_spans():
    tracer = tracing.Tracer()
    with tracer.span("outer"):
        tracer._paused_call(time.sleep, 0.05)
    outer = tracer.spans[0]
    assert len(tracer.spans) == 1
    assert outer[tracing.END] - outer[tracing.START] < 0.01


def test_failed_certificate_counts_as_failed_operation(tmp_path):
    wl = tiny("gauge_recovery", certify=lambda wl, phys: "forced failure")
    result, report = run.measure(wl, 0, 0.0, False, fake_setup,
                                 out_dir=str(tmp_path))
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert all(op["reason"] == "forced failure" for op in report["ops"])


def test_raising_pipeline_counts_as_failed_operation(tmp_path):
    def broken(wl, inp, out_dir):
        raise FloatingPointError("injected")

    result, report = run.measure(tiny("deturck_relax", op=broken), 0, 0.0,
                                 False, fake_setup, out_dir=str(tmp_path))
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_sparse_records_give_the_exact_step_count():
    every, sparse = (
        experiments.stability_run(resolution=8, stop_tol=0.5,
                                  record_every=r)[0]
        for r in (1, 3))
    assert (workloads.accepted_steps(sparse.records, 3)
            == len(every.records) - 1 > 3)
