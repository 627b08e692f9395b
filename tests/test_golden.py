"""Short flows pinned to answers recorded with earlier kernels: the N=12
deturck and mu_gradient runs before the hot-path kernels were rewritten
(np.roll stencil, LAPACK metric inverse, full Christoffel stack), the N=12 grf
and 4D deturck runs before the form kernels moved from all n^k components to
the increasing-index ones.

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


def test_grf_short_run_matches_pinned_answers(start):
    traj = run_flow(start, FlowConfig(gauge="grf", t_max=0.05))
    end = traj.records[-1]
    assert traj.verdict == "DIVERGED"
    assert traj.reason == "time horizon reached before residual tolerance"
    assert len(traj.records) - 1 == 4
    assert end["ricci_linf"] == pytest.approx(0.13192671088821145, rel=REL)
    assert end["H_l2"] == pytest.approx(0.8159124693430505, rel=REL)
    assert end["lambda"] == pytest.approx(-0.0007131467787676623, rel=REL)
    assert end["rhs_l2"] == pytest.approx(2.675298311789341, rel=REL)


def test_four_dimensional_deturck_run_matches_pinned_answers():
    # H = db has C(4,3) = 4 independent components and dH is a 4-form
    start4 = perturbed_state(resolution=8, amplitude=0.05, seed=3, cutoff=1,
                             dims=4)
    traj = run_flow(start4, FlowConfig(gauge="deturck", t_max=0.1),
                    g_ref=flat_metric(start4.g.grid))
    end = traj.records[-1]
    assert traj.verdict == "DIVERGED"
    assert traj.reason == "time horizon reached before residual tolerance"
    assert len(traj.records) - 1 == 4
    assert end["ricci_linf"] == pytest.approx(0.06488247831527363, rel=REL)
    assert end["H_l2"] == pytest.approx(2.9068978483492685, rel=REL)
    assert end["lambda"] == pytest.approx(-0.000875859290527934, rel=REL)
    assert end["F_value"] == pytest.approx(-0.0008758595855181291, rel=REL)
    assert end["rhs_l2"] == pytest.approx(4.494706060103257, rel=REL)
    # d(dB) is zero up to rounding (2.3e-17 when recorded); rounding-level
    # values have no stable relative digits, so this one is pinned absolutely
    assert end["dH_linf"] <= 1e-15
