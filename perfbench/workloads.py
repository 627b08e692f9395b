"""The benchmark's workloads: seeded inputs, one timed operation, its certificate.

Importing this module imports grflab from the checkout's ``src/`` directory and
nowhere else, so the benchmark always measures the tree it sits in.

Each workload calls the canned pipelines of ``grflab.experiments`` as a user
would, with stop tolerances loosened so that one operation takes seconds
instead of minutes. The harness seed only chooses the inputs; grflab receives
the generated state. An operation returns its physics answers (verdict,
endpoint norms, lambda, ...) and its step count; its certificate is checked
apart from the timing.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import random
import sys
from dataclasses import dataclass
from typing import Callable

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

if not os.path.isfile(os.path.join(SRC, "grflab", "__init__.py")):
    raise ImportError(f"grflab sources not found under {SRC}")
sys.path.insert(0, SRC)

import grflab  # noqa: E402
from grflab import experiments, flow, geometry  # noqa: E402

if not os.path.abspath(grflab.__file__).startswith(SRC + os.sep):
    raise ImportError(f"grflab was imported from {grflab.__file__}, not {SRC}")

# keyword arguments of perturbed_state that every workload's params hold
STATE_KEYS = ("resolution", "amplitude", "cutoff")
# the loosened mu_gradient stop leaves about 20 rows, so the fit uses all
MU_FIT = {"window_fraction": 1.0}


@dataclass(frozen=True)
class Workload:
    """One workload: which pipeline, at which size, certified how.

    ``params`` are the pipeline's keyword arguments besides the seed; an
    input is one pipeline seed, and a cycle runs ``n_inputs`` of them.
    """

    name: str
    params: dict
    n_inputs: int
    op: Callable
    certify: Callable

    def inputs(self, seed):
        """The cycle's pipeline seeds, a pure function of the harness seed."""
        rng = random.Random(seed)
        return [rng.randrange(1, 10 ** 6) for _ in range(self.n_inputs)]

    def setup(self, inp):
        """The seeded initial state and the reference metric of one input."""
        kwargs = {k: self.params[k] for k in STATE_KEYS}
        state = experiments.perturbed_state(seed=inp, **kwargs)
        return state, geometry.flat_metric(state.g.grid)


@contextlib.contextmanager
def capture_results(owner, name, sink):
    """Hand every value ``owner.name`` returns to ``sink``.

    It reads no clock, so untraced timings are unaffected. The attribute is
    restored on exit.
    """
    original = getattr(owner, name)

    def capturing(*args, **kwargs):
        result = original(*args, **kwargs)
        sink(result)
        return result

    setattr(owner, name, capturing)
    try:
        yield
    finally:
        setattr(owner, name, original)


def accepted_steps(records, record_every):
    """Accepted flow steps of a run that recorded every record_every-th step.

    Rows sit at steps 0, R, 2R, ... plus the stopping step. The steps after
    the last regular row are its time gap over its dt; dt drifts by far less
    than half a step over R steps, so rounding makes the count exact.
    """
    if len(records) < 2:
        return 0
    prev, last = records[-2], records[-1]
    tail = round((last["t"] - prev["t"]) / prev["dt"])
    return (len(records) - 2) * record_every + tail


# --------------------------------------------------------------------------
# deturck_relax
# --------------------------------------------------------------------------

def _deturck_op(wl, inp, out_dir):
    p = wl.params
    traj, summary = experiments.stability_run(
        seed=inp, threshold=10.0 * p["stop_tol"], **p)
    return {
        "verdict": summary["verdict"],
        "reason": summary["reason"],
        "steps": accepted_steps(traj.records, p["record_every"]),
        "t_end": summary["t_end"],
        "ricci_linf_end": summary["ricci_linf_end"],
        "H_l2_end": summary["H_l2_end"],
        "lambda_end": summary["lambda_end"],
    }


def _deturck_certify(wl, phys):
    bound = 10.0 * wl.params["stop_tol"]
    if phys["verdict"] != "CONVERGED":
        return f"verdict {phys['verdict']}: {phys['reason']}"
    if not phys["ricci_linf_end"] < bound:
        return f"ricci_linf_end {phys['ricci_linf_end']:.3e} >= {bound:g}"
    if not phys["H_l2_end"] < bound:
        return f"H_l2_end {phys['H_l2_end']:.3e} >= {bound:g}"
    return ""


# --------------------------------------------------------------------------
# mu_gradient_climb
# --------------------------------------------------------------------------

def _mu_op(wl, inp, out_dir):
    traj, summary = experiments.monotonicity_run(seed=inp, **wl.params)
    fit = experiments.lojasiewicz_report(traj, **MU_FIT)
    path = os.path.join(out_dir, f"{wl.name}-{inp}.csv")
    flow.write_trajectory_csv(traj, path)
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    return {
        "verdict": summary["verdict"],
        "reason": summary["reason"],
        "steps": len(traj.records) - 1,
        "t_end": summary["t_end"],
        "lambda_start": summary["lambda_start"],
        "lambda_end": summary["lambda_end"],
        "worst_lambda_drop": summary["worst_lambda_drop"],
        "monotone": summary["monotone"],
        "all_negative": summary["all_negative"],
        "ricci_linf_end": summary["ricci_linf_end"],
        "H_l2_end": summary["H_l2_end"],
        "theta_hat": fit["theta_hat"],
        "fit_passed": fit["passed"],
        "csv_sha256": digest,
    }


def _mu_certify(wl, phys):
    if phys["verdict"] != "CONVERGED":
        return f"verdict {phys['verdict']}: {phys['reason']}"
    if not phys["monotone"]:
        return f"lambda dropped by {-phys['worst_lambda_drop']:.3e}"
    if not phys["all_negative"]:
        return "lambda reached zero or above"
    if not phys["fit_passed"]:
        return f"Lojasiewicz fit failed (theta_hat {phys['theta_hat']})"
    return ""


# --------------------------------------------------------------------------
# gauge_recovery
# --------------------------------------------------------------------------

def _gauge_op(wl, inp, out_dir):
    kept = []

    def count_kept(traj):
        if traj.gauge_series is not None:
            kept.append(len(traj.gauge_series))

    with capture_results(experiments, "run_flow", count_kept):
        report = experiments.gauge_consistency_run(seed=inp, **wl.params)
    return {
        "steps": sum(kept),
        "t_end": report["t_end"],
        "gap_sup": report["gap_sup"],
        "metric_gap_sup": report["metric_gap_sup"],
        "field_strength_gap_sup": report["field_strength_gap_sup"],
        "displacement_sup": report["displacement_sup"],
    }


def _gauge_certify(wl, phys):
    # the pipeline itself raises when the two flows end at different times
    if phys["t_end"] != wl.params["t_max"]:
        return f"flows ended at t = {phys['t_end']!r}, not t_max"
    if not math.isfinite(phys["gap_sup"]):
        return "gauge gap is not finite"
    if phys["steps"] < 1:
        return "no kept gauge steps were observed"
    return ""


WORKLOADS = {
    wl.name: wl for wl in (
        Workload(
            name="deturck_relax",
            params=dict(resolution=16, amplitude=0.05, cutoff=2,
                        stop_tol=1.5, record_every=5),
            n_inputs=6, op=_deturck_op, certify=_deturck_certify),
        Workload(
            name="mu_gradient_climb",
            params=dict(resolution=12, amplitude=0.05, cutoff=2,
                        stop_tol=0.04, record_every=1),
            n_inputs=6, op=_mu_op, certify=_mu_certify),
        Workload(
            name="gauge_recovery",
            params=dict(resolution=12, amplitude=0.05, cutoff=2, t_max=0.1),
            n_inputs=1, op=_gauge_op, certify=_gauge_certify),
    )
}
