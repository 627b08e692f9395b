"""Short flows pinned to answers recorded before the hot-path kernels were
rewritten (np.roll stencil, LAPACK metric inverse, full Christoffel stack).

A kernel change that alters rounding may move these floats in the last few
digits, never beyond 1e-12 relative; a change of verdict or step count is a
change of answer.
"""

import pytest

from grflab import FlowConfig, flat_metric, perturbed_state, run_flow

REL = 1e-12


@pytest.fixture(scope="module")
def start():
    return perturbed_state(resolution=12, amplitude=0.05, seed=7, cutoff=2)


def test_deturck_short_run_matches_pinned_answers(start):
    config = FlowConfig(gauge="deturck", stop_tol=1.0)
    traj = run_flow(start, config, g_ref=flat_metric(start.g.grid))
    end = traj.records[-1]
    assert traj.verdict == "CONVERGED"
    assert len(traj.records) - 1 == 16
    assert end["ricci_linf"] == pytest.approx(0.04544097275966437, rel=REL)
    assert end["H_l2"] == pytest.approx(0.330529475471343, rel=REL)


def test_mu_gradient_short_run_matches_pinned_lambda(start):
    traj = run_flow(start, FlowConfig(gauge="mu_gradient", t_max=0.05))
    assert traj.verdict == "DIVERGED"
    assert traj.reason == "time horizon reached before residual tolerance"
    assert len(traj.records) - 1 == 4
    assert traj.records[-1]["lambda"] == pytest.approx(
        -0.0009982372269374256, rel=REL)
