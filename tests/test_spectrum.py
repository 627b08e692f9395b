import numpy as np
import pytest

from grflab import (
    FlowState,
    Grid,
    MetricField,
    ScalarField,
    TensorField,
    SchrodingerOperator,
    critical_point_diagnostics,
    divergence_free_projection,
    energy_functional,
    flat_metric,
    lowest_eigenpair,
    mu_gradient,
    mu_gradient_flow_rhs,
    mu_value,
    normalize_profile,
    random_form_perturbation,
    random_metric_perturbation,
    step,
    total_field_strength,
)
from grflab.errors import ConvergenceError, FieldError
from grflab.spectrum import (
    linearized_gradient_flat,
    mu_directional_derivative,
    schrodinger_apply,
)

from oracles import ConformalOracle


def constant_three_form(grid, c=1.0):
    eps = np.zeros((3, 3, 3))
    for perm, sign in (((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                       ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1)):
        eps[perm] = sign
    return TensorField(grid, c * np.broadcast_to(eps, grid.shape + (3, 3, 3)),
                       "antisymmetric")


def dense_lowest_eigenvalue(g, H=None):
    """Assemble Phi as a dense matrix through the public apply and solve the
    generalized symmetric problem with numpy's eigensolver."""
    grid = g.grid
    op = SchrodingerOperator(g, H)
    npts = grid.point_count
    A = np.zeros((npts, npts))
    e = np.zeros(grid.shape)
    for idx in range(npts):
        e.flat[idx] = 1.0
        A[:, idx] = op.apply_values(e).ravel()
        e.flat[idx] = 0.0
    s = np.sqrt(g.sqrt_det_values.ravel() * grid.cell_volume)
    sym = (s[:, None] * A) / s[None, :]
    sym = 0.5 * (sym + sym.T)
    return float(np.linalg.eigvalsh(sym)[0])


def test_flat_ground_state_is_exact():
    grid = Grid((16, 16, 16))
    sol = lowest_eigenpair(flat_metric(grid))
    assert sol.lam == 0.0
    assert sol.eigen_residual == 0.0
    assert np.ptp(sol.f.values) == 0.0
    assert sol.iterations == 0
    # normalization int e^{-f} dV = 1
    assert np.exp(-sol.f.values[0, 0, 0]) * (2 * np.pi) ** 3 == pytest.approx(1.0)


def test_constant_three_form_shifts_lambda():
    # potential is the constant -6 c^2 / 12, so lambda = -c^2/2 with a
    # constant eigenfunction
    grid = Grid((12, 12, 12))
    g = flat_metric(grid)
    for c in (1.0, 0.5):
        sol = lowest_eigenpair(g, constant_three_form(grid, c))
        assert sol.lam == pytest.approx(-0.5 * c * c, abs=1e-12)
        assert np.ptp(sol.f.values) < 1e-12


def test_operator_self_adjoint_in_volume_inner_product():
    o = ConformalOracle(12, a1=0.15)
    op = SchrodingerOperator(o.metric)
    rng = np.random.default_rng(8)
    u = rng.standard_normal(o.grid.shape)
    v = rng.standard_normal(o.grid.shape)
    lhs = op.volume_dot(op.apply_values(u), v)
    rhs = op.volume_dot(u, op.apply_values(v))
    assert abs(lhs - rhs) < 1e-9 * max(abs(lhs), 1.0)


def test_matches_dense_oracle_on_conformal_metric():
    o = ConformalOracle(8, a1=0.2, a2=0.1)
    lam_dense = dense_lowest_eigenvalue(o.metric)
    sol = lowest_eigenpair(o.metric, tol=1e-10)
    assert abs(sol.lam - lam_dense) < 1e-9


def test_eigensolver_warm_start_converges_faster():
    o = ConformalOracle(12, a1=0.2)
    cold = lowest_eigenpair(o.metric)
    warm = lowest_eigenpair(o.metric, w0=cold.w)
    assert warm.iterations <= 1
    assert warm.lam == pytest.approx(cold.lam, abs=1e-10)


def test_ground_state_positive_and_f_equation():
    o = ConformalOracle(12, a1=0.2)
    sol = lowest_eigenpair(o.metric)
    assert np.min(sol.w.values) > 0.0
    # the f-form residual carries discretization error of the chain rule,
    # so it is small but far above solver tolerance
    assert sol.f_eq_residual < 0.05
    # normalization of the weight
    total = np.sum(np.exp(-sol.f.values) * o.metric.sqrt_det_values)
    assert total * o.grid.cell_volume == pytest.approx(1.0, rel=1e-12)


def test_energy_functional_minimized_by_eigenprofile():
    o = ConformalOracle(12, a1=0.15)
    sol = lowest_eigenpair(o.metric)
    base = energy_functional(o.metric, None, sol.f)
    # the identity F(f_eig) = lambda holds up to the discrete chain-rule
    # mismatch between |d log w|^2 and the flux-form energy, O(h^4)
    assert base == pytest.approx(sol.lam, abs=1e-5)
    rng = np.random.default_rng(3)
    for _ in range(3):
        bump = 0.05 * rng.standard_normal(o.grid.shape)
        f_try = normalize_profile(o.metric,
                                  ScalarField(o.grid, sol.f.values + bump))
        assert energy_functional(o.metric, None, f_try) > base - 1e-12


def test_total_field_strength_combines_background_and_potential():
    grid = Grid((12, 12, 12))
    b = random_form_perturbation(grid, 0.3, seed=4)
    hhat = constant_three_form(grid, 0.7)
    H = total_field_strength(grid, b, hhat)
    from grflab import exterior_derivative
    expected = hhat.values + exterior_derivative(b).values
    assert np.max(np.abs(H.values - expected)) < 1e-14


def test_mu_gradient_vanishes_at_flat():
    grid = Grid((12, 12, 12))
    g = flat_metric(grid)
    b = TensorField(grid, np.zeros(grid.shape + (3, 3)), "antisymmetric")
    grad = mu_gradient(g, b)
    assert np.max(np.abs(grad.g_part.values)) < 1e-12
    assert np.max(np.abs(grad.b_part.values)) < 1e-12


def test_gradient_pairing_matches_finite_difference():
    grid = Grid((12, 12, 12))
    h = random_metric_perturbation(grid, 0.005, 0)
    b = random_form_perturbation(grid, 0.005, 1000)
    g = MetricField(grid, flat_metric(grid).values + h.values)
    h_dir = random_metric_perturbation(grid, 1.0, 77)
    b_dir = random_form_perturbation(grid, 1.0, 177)
    pair = mu_gradient(g, b).pair(g, h_dir, b_dir)
    fd = mu_directional_derivative(g, b, h_dir, b_dir, eps=1e-4)
    assert abs(fd - pair) < 1e-5 * abs(fd)


def test_mu_value_equals_lambda_of_total_field():
    grid = Grid((12, 12, 12))
    h = random_metric_perturbation(grid, 0.02, 5)
    b = random_form_perturbation(grid, 0.02, 6)
    g = MetricField(grid, flat_metric(grid).values + h.values)
    hhat = constant_three_form(grid, 0.3)
    H = total_field_strength(grid, b, hhat)
    lam = lowest_eigenpair(g, H).lam
    assert mu_value(g, b, hhat) == pytest.approx(lam, abs=1e-10)


def test_linearized_gradient_flat_sign_and_order():
    grid = Grid((12, 12, 12))
    gflat = flat_metric(grid)
    h = divergence_free_projection(random_metric_perturbation(grid, 1.0, 5))
    beta = random_form_perturbation(grid, 1.0, 6)
    lin_g, lin_b = linearized_gradient_flat(gflat, h, beta)

    def fd(eps):
        gp = MetricField(grid, gflat.values + eps * h.values)
        gm = MetricField(grid, gflat.values - eps * h.values)
        bp = TensorField(grid, eps * beta.values, "antisymmetric")
        bm = TensorField(grid, -eps * beta.values, "antisymmetric")
        gr_p, gr_m = mu_gradient(gp, bp), mu_gradient(gm, bm)
        dg = (gr_p.g_part.values - gr_m.g_part.values) / (2 * eps)
        db = (gr_p.b_part.values - gr_m.b_part.values) / (2 * eps)
        return dg, db

    gaps = []
    for eps in (1e-2, 5e-3):
        dg, db = fd(eps)
        gaps.append(max(np.max(np.abs(dg - lin_g.values)),
                        np.max(np.abs(db - lin_b.values))))
    assert gaps[0] < 1e-4
    assert 3.3 < gaps[0] / gaps[1] < 4.7   # quadratic in eps


def test_linearized_gradient_rejects_bad_input():
    grid = Grid((12, 12, 12))
    h = random_metric_perturbation(grid, 1.0, 5)   # not divergence-free
    beta = random_form_perturbation(grid, 1.0, 6)
    with pytest.raises(FieldError):
        linearized_gradient_flat(flat_metric(grid), h, beta)
    o = ConformalOracle(12)
    with pytest.raises(FieldError):
        linearized_gradient_flat(o.metric, divergence_free_projection(h), beta)


def test_schrodinger_apply_flat_constant_potential():
    grid = Grid((12, 12, 12))
    g = flat_metric(grid)
    H = constant_three_form(grid, 1.0)
    u = ScalarField(grid, np.ones(grid.shape))
    out = schrodinger_apply(g, H, u)
    assert np.max(np.abs(out.values + 0.5)) < 1e-12


def test_critical_point_diagnostics_flat():
    grid = Grid((12, 12, 12))
    g = flat_metric(grid)
    b = TensorField(grid, np.zeros(grid.shape + (3, 3)), "antisymmetric")
    report = critical_point_diagnostics(g, total_field_strength(grid, b))
    d = report.as_dict()
    assert abs(d["mu"]) < 1e-12
    assert d["mu_grad_g"] < 1e-12
    assert d["mu_grad_b"] < 1e-12
    assert d["identity_gap"] < 1e-12


def test_eigensolver_reports_stall():
    # max_outer=0 forces the failure path on any state needing iteration
    o = ConformalOracle(12, a1=0.2)
    with pytest.raises(ConvergenceError):
        lowest_eigenpair(o.metric, max_outer=0)


def _shifted_system(dims):
    grid = Grid((8,) * (dims - 1) + (10,))
    rng = np.random.default_rng(40 + dims)
    noise = rng.uniform(-0.05, 0.05, grid.shape + (dims, dims))
    g = MetricField(grid, np.eye(dims) + 0.5 * (noise + np.swapaxes(noise, -1, -2)))
    op = SchrodingerOperator(g)
    w = 1.0 + 0.1 * rng.standard_normal(grid.shape)
    w = w / op.volume_norm(w)
    # below the potential's minimum the shifted operator is positive definite
    return op, w, float(np.min(op.potential)) - 1.0


@pytest.mark.parametrize("dims", [2, 3, 4])
def test_solve_with_phi_x0_is_bit_identical(dims):
    op, w, sigma = _shifted_system(dims)
    phi_w = op.apply_values(w)
    plain = op.solve_shifted(w, sigma, x0=w / 0.5, rtol=1e-8)
    reused = op.solve_shifted(w, sigma, x0=w / 0.5, rtol=1e-8,
                              phi_x0=phi_w / 0.5)
    assert np.array_equal(plain, reused)


def test_cg_counts_an_exit_on_max_iter():
    op, w, sigma = _shifted_system(3)
    op.solve_shifted(w, sigma, rtol=1e-15, max_iter=1)
    assert op.cg_exits == {"converged": 0, "max_iter": 1, "indefinite": 0}
    assert op.cg_iterations == 1


def test_cg_counts_an_exit_on_an_indefinite_direction():
    # sigma above the whole spectrum makes every direction negative
    op, w, sigma = _shifted_system(3)
    op.solve_shifted(w, sigma + 1e5)
    assert op.cg_exits == {"converged": 0, "max_iter": 0, "indefinite": 1}
    assert op.cg_iterations == 0


def test_warm_flow_eigensolve_reports_no_short_exit():
    grid = Grid((12, 12, 12))
    h = random_metric_perturbation(grid, 0.05, 3, cutoff=2)
    g = MetricField(grid, flat_metric(grid).values + h.values)
    b = random_form_perturbation(grid, 0.05, 1003, cutoff=2)
    state = FlowState(g=g, b=b)
    cold = lowest_eigenpair(g, state.field_strength())
    assert cold.cg_iterations >= cold.iterations > 0
    moved = step(state, "mu_gradient", 2e-3)
    _, _, sol = mu_gradient_flow_rhs(moved, w0=cold.w)
    assert sol.iterations > 0
    assert sol.cg_iterations >= sol.iterations
    assert sol.cg_short_exits == 0
