"""Time integration of the coupled metric / 3-form flows on the lattice.

Three right-hand sides share one Runge-Kutta integrator, selected by gauge:

  grf          dg = -2 Ric + H^2/2,            db = -d* H
  deturck      the same plus Lie_X g and X . H for the reference-metric
               gauge vector X, which makes the metric equation parabolic
  mu_gradient  the gradient of mu: dg = -Ric - Hess f + H^2/4,
               db = -(d* H + grad f . H)/2, so mu is nondecreasing

H = Hhat + db stays exactly closed because only the potential b is evolved
and the discrete d d = 0 identity is exact. Steps are classical fourth-order
Runge-Kutta with a parabolic step bound dt = cfl min(h)^2 / (2 max eig g^-1);
a step that breaks metric positivity is retried at half size, ten times.

Every accepted step can record a diagnostics row with the columns t, lambda,
H_l2, ricci_linf, dH_linf, F_value, rhs_l2, dt (plus a sup-norm proxy rhs_c0
used by the interpolation diagnostic); write_trajectory_csv exports exactly
the eight named columns at 17 significant digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import (ConfigError, ConvergenceError, NonFiniteError,
                     PositivityError, StepSizeError)
from .lattice import ScalarField, TensorField, diff_values, weighted_inner
from .geometry import (
    MetricField,
    codifferential,
    deturck_vector,
    exterior_derivative,
    gradient_vector,
    h_squared,
    hessian,
    interior_product,
    lie_derivative_metric,
    ricci_values,
)
from .spectrum import (
    DEFAULT_EIG_TOL,
    energy_functional,
    lowest_eigenpair,
    total_field_strength,
)

GAUGES = ("grf", "deturck", "mu_gradient")

CSV_COLUMNS = ("t", "lambda", "H_l2", "ricci_linf", "dH_linf", "F_value",
               "rhs_l2", "dt")


@dataclass(frozen=True)
class FlowState:
    """One point on a flow line.

    b is the evolving 2-form potential and hhat an optional fixed closed
    background, so the physical field strength is H = hhat + db. gauge names
    the right-hand side this state is evolved by.
    """

    g: MetricField
    b: TensorField
    hhat: Optional[TensorField] = None
    time: float = 0.0
    gauge: str = "grf"

    def field_strength(self):
        return total_field_strength(self.g.grid, self.b, self.hhat)


@dataclass(frozen=True)
class FlowConfig:
    """Integration policy.

    stop_tol bounds the L2 norm of the right-hand-side pair (weighted by
    e^{-f} in the mu_gradient gauge, where that norm is the gradient norm);
    reaching it gives the CONVERGED verdict. modified switches the
    mu_gradient gauge to the twice-the-gradient variant whose metric equation
    matches the gauge-fixed coupled flow with X = -grad f.
    """

    gauge: str = "grf"
    t_max: float = 10.0
    cfl: float = 0.1
    stop_tol: float = 1e-8
    eigen_tol: float = DEFAULT_EIG_TOL
    max_steps: int = 200000
    record_every: int = 1
    keep_states: bool = False
    keep_gauge_fields: bool = False
    modified: bool = False
    spd_retries: int = 10

    def __post_init__(self):
        if self.gauge not in GAUGES:
            raise ConfigError(
                f"unknown gauge {self.gauge!r}; expected one of {GAUGES}")
        if self.t_max <= 0 or self.cfl <= 0:
            raise ConfigError("t_max and cfl must be positive")
        if self.stop_tol < 0:
            raise ConfigError("stop_tol must be nonnegative")
        if self.record_every < 1:
            raise ConfigError("record_every must be at least 1")


@dataclass
class Trajectory:
    """Outcome of a flow run: endpoint states, sampled diagnostics, verdict.

    gauge_series, present when the run kept gauge fields, lists one entry per
    accepted step: (t, dt, [X at the four Runge-Kutta stages]); diffeo_flow
    consumes it to integrate the compensating diffeomorphisms at matching
    order.
    """

    states: list
    records: list
    verdict: str
    reason: str = ""
    gauge_series: Optional[list] = None

    @property
    def final(self):
        return self.states[-1]

    def column(self, key):
        return np.array([r[key] for r in self.records])


def grf_rhs(state):
    """Right-hand side of the coupled flow, before any gauge fixing."""
    g = state.g
    H = state.field_strength()
    dg = -2.0 * ricci_values(g) + 0.5 * h_squared(g, H).values
    db = -codifferential(g, H).values
    return (
        TensorField(g.grid, dg, "symmetric2"),
        TensorField(g.grid, db, "antisymmetric"),
    )


def deturck_rhs(state, g_ref):
    """Gauge-fixed right-hand side; also returns the gauge vector field.

    The metric equation gains Lie_X g and the potential equation the
    contraction X . H, whose exterior derivative reproduces Lie_X H on
    closed H.
    """
    g = state.g
    H = state.field_strength()
    x = deturck_vector(g, g_ref)
    dg = (
        -2.0 * ricci_values(g)
        + 0.5 * h_squared(g, H).values
        + lie_derivative_metric(g, x).values
    )
    db = -codifferential(g, H).values + interior_product(x, H).values
    return (
        TensorField(g.grid, dg, "symmetric2"),
        TensorField(g.grid, db, "antisymmetric"),
        x,
    )


def mu_gradient_flow_rhs(state, tol=DEFAULT_EIG_TOL, w0=None, modified=False):
    """Gradient of mu at the state, plus the spectral solution used.

    With modified=True both parts are doubled; the metric equation then reads
    dg = -2 (Ric + Hess f) + H^2 / 2, the coupled flow pushed by the vector
    field -grad f. Either way the flow increases mu.
    """
    g = state.g
    H = state.field_strength()
    sol = lowest_eigenpair(g, H, tol=tol, w0=w0)
    grad_f = gradient_vector(g, sol.f)
    dg = (
        -ricci_values(g)
        - hessian(g, sol.f).values
        + 0.25 * h_squared(g, H).values
    )
    db = -0.5 * (codifferential(g, H).values
                 + interior_product(grad_f, H).values)
    if modified:
        dg = 2.0 * dg
        db = 2.0 * db
    return (
        TensorField(g.grid, dg, "symmetric2"),
        TensorField(g.grid, db, "antisymmetric"),
        sol,
    )


def _make_rhs(gauge, g_ref, eigen_tol, warm, modified):
    """Closure state -> (dg, db, extra); extra is the gauge vector or the
    spectral solution, threaded out for diagnostics and diffeo recovery."""
    if gauge == "grf":
        def rhs(state):
            dg, db = grf_rhs(state)
            return dg, db, None
    elif gauge == "deturck":
        if g_ref is None:
            raise ConfigError("the deturck gauge needs a reference metric")
        def rhs(state):
            return deturck_rhs(state, g_ref)
    else:
        def rhs(state):
            dg, db, sol = mu_gradient_flow_rhs(
                state, tol=eigen_tol, w0=warm.get("w"), modified=modified)
            warm["w"] = sol.w
            return dg, db, sol
    return rhs


def _advance(state, dt, dg, db):
    """State + dt * rhs; the MetricField constructor enforces positivity."""
    g_new = MetricField(state.g.grid, state.g.values + dt * dg.values)
    b_new = TensorField(state.g.grid, state.b.values + dt * db.values,
                        "antisymmetric")
    return replace(state, g=g_new, b=b_new, time=state.time + dt)


def _rk4(state, dt, rhs, k1=None):
    """One classical Runge-Kutta step. Returns the new state and the four
    stage extras. Positivity failures propagate for the caller to retry."""
    if k1 is None:
        k1 = rhs(state)
    k2 = rhs(_advance(state, 0.5 * dt, k1[0], k1[1]))
    k3 = rhs(_advance(state, 0.5 * dt, k2[0], k2[1]))
    k4 = rhs(_advance(state, dt, k3[0], k3[1]))
    dg = (k1[0].values + 2 * k2[0].values + 2 * k3[0].values + k4[0].values) / 6.0
    db = (k1[1].values + 2 * k2[1].values + 2 * k3[1].values + k4[1].values) / 6.0
    incr = (
        TensorField(state.g.grid, dg, "symmetric2"),
        TensorField(state.g.grid, db, "antisymmetric"),
    )
    return _advance(state, dt, *incr), [k1[2], k2[2], k3[2], k4[2]]


def _rk4_with_retries(state, dt, rhs, retries, k1=None):
    """One Runge-Kutta step, halved up to `retries` times while the metric
    leaves the positive cone. Returns (new state, stage extras, dt taken).

    Raises StepSizeError when positivity is never regained, or chained from a
    non-finite or failed-eigensolve stage.
    """
    try:
        if k1 is None:
            k1 = rhs(state)
        for _ in range(retries + 1):
            try:
                return _rk4(state, dt, rhs, k1=k1) + (dt,)
            except PositivityError:
                dt *= 0.5
    except (ConvergenceError, NonFiniteError) as exc:
        raise StepSizeError(f"Runge-Kutta stage failed "
                            f"(t = {state.time:.6f}): {exc}") from exc
    raise StepSizeError(f"metric loses positivity even at dt = {dt:.3e} "
                        f"(t = {state.time:.6f})")


@np.errstate(over="ignore", invalid="ignore")
def step(state, rhs_kind, dt, g_ref=None, eigen_tol=DEFAULT_EIG_TOL,
         modified=False, retries=10):
    """One integrator step of the named right-hand side.

    Halves dt when the metric leaves the positive cone, up to the retry
    budget, then raises StepSizeError; a failed stage raises it too.
    Overflow is reported by the field checks, not by numpy warnings.
    """
    rhs = _make_rhs(rhs_kind, g_ref, eigen_tol, {}, modified)
    return _rk4_with_retries(state, dt, rhs, retries)[0]


def _pair_l2(g, dg, db, weight=None):
    sq = weighted_inner(dg, dg, g, weight) + weighted_inner(db, db, g, weight)
    return math.sqrt(max(sq, 0.0))


def _c0_proxy(grid, dg, db):
    """Sup norm of the pair and of its first lattice derivatives."""
    peak = 0.0
    for fld in (dg, db):
        peak = max(peak, float(np.max(np.abs(fld.values))))
        for a in range(grid.n_dims):
            d = diff_values(fld.values, a, grid.spacings[a])
            peak = max(peak, float(np.max(np.abs(d))))
    return peak


def _diagnostics_row(state, dg, db, dt, rhs_l2, sol, eigen_tol, warm):
    """One trajectory record. For non-gradient gauges the eigenpair is solved
    on the side (warm-started); its failure, or a non-finite potential, only
    blanks the spectral columns."""
    g = state.g
    H = state.field_strength()
    if sol is None:
        try:
            sol = lowest_eigenpair(g, H, tol=eigen_tol, w0=warm.get("diag_w"))
            warm["diag_w"] = sol.w
        except (ConvergenceError, NonFiniteError):
            sol = None

    if H.rank < g.grid.n_dims:
        dh_linf = float(np.max(np.abs(exterior_derivative(H).values)))
    else:
        dh_linf = 0.0

    if sol is not None:
        weight = ScalarField(g.grid, np.exp(-sol.f.values))
        identity_gap = abs(weighted_inner(H, H, g, weight) / 6.0 - sol.lam)
    else:
        identity_gap = float("nan")

    return {
        "t": state.time,
        "lambda": sol.lam if sol is not None else float("nan"),
        "H_l2": math.sqrt(max(weighted_inner(H, H, g), 0.0)),
        "ricci_linf": float(np.max(np.abs(ricci_values(g)))),
        "dH_linf": dh_linf,
        "F_value": (energy_functional(g, H, sol.f)
                    if sol is not None else float("nan")),
        "rhs_l2": rhs_l2,
        "rhs_c0": _c0_proxy(g.grid, dg, db),
        "identity_gap": identity_gap,
        "dt": dt,
    }


@np.errstate(over="ignore", invalid="ignore")
def run_flow(initial, config, g_ref=None):
    """Integrate a flow to tolerance, horizon, or failure.

    Numerical breakdown never raises; the verdict ("CONVERGED" when the
    right-hand side dropped below stop_tol, otherwise "DIVERGED") and the
    reason string report it; overflow is reported so by the field checks
    (NonFiniteError), not by numpy warnings. Diagnostics are recorded every
    record_every accepted steps and always at the endpoint.
    """
    if config.gauge == "deturck" and g_ref is None:
        raise ConfigError("the deturck gauge needs a reference metric")

    warm = {}
    rhs = _make_rhs(config.gauge, g_ref, config.eigen_tol, warm,
                    config.modified)

    state = replace(initial, gauge=config.gauge)
    states = [state]
    records = []
    gauge_series = [] if (config.keep_gauge_fields
                          and config.gauge == "deturck") else None
    verdict, reason = "DIVERGED", "step budget exhausted"
    steps = 0
    while steps <= config.max_steps:
        try:
            k1 = rhs(state)
        except (ConvergenceError, PositivityError, NonFiniteError) as exc:
            verdict, reason = "DIVERGED", f"right-hand side failed: {exc}"
            break

        speed = 2.0 * state.g.max_inverse_eigenvalue()
        dt = config.cfl * state.g.grid.min_spacing ** 2 / speed
        dt = min(dt, config.t_max - state.time)

        if config.gauge == "mu_gradient":
            sol = k1[2]
            weight = ScalarField(state.g.grid, np.exp(-sol.f.values))
        else:
            sol = None
            weight = None
        rhs_l2 = _pair_l2(state.g, k1[0], k1[1], weight)

        recorded = False
        if steps % config.record_every == 0:
            records.append(_diagnostics_row(
                state, k1[0], k1[1], dt, rhs_l2, sol, config.eigen_tol,
                warm))
            recorded = True

        stopping = rhs_l2 < config.stop_tol
        at_horizon = state.time >= config.t_max
        if stopping or at_horizon:
            if not recorded:
                records.append(_diagnostics_row(
                    state, k1[0], k1[1], dt, rhs_l2, sol, config.eigen_tol,
                    warm))
            if stopping:
                verdict, reason = "CONVERGED", ""
            else:
                verdict = "DIVERGED"
                reason = "time horizon reached before residual tolerance"
            break

        try:
            new_state, extras, dt = _rk4_with_retries(
                state, dt, rhs, config.spd_retries, k1=k1)
        except StepSizeError as exc:
            verdict, reason = "DIVERGED", str(exc)
            break
        if gauge_series is not None:
            gauge_series.append((state.time, dt, extras))
        state = new_state
        steps += 1
        if config.keep_states:
            states.append(state)

    if states[-1] is not state:
        states.append(state)
    return Trajectory(states=states, records=records, verdict=verdict,
                      reason=reason, gauge_series=gauge_series)


def read_trajectory_csv(path):
    """Load a diagnostics table back as a list of record dicts.

    Columns come from the header line; all values parse as floats. The result
    feeds lojasiewicz_estimate directly.
    """
    with open(path) as fh:
        lines = [line.strip() for line in fh if line.strip()]
    if not lines:
        raise ConfigError(f"empty trajectory table: {path}")
    header = lines[0].split(",")
    records = []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != len(header):
            raise ConfigError(
                f"malformed trajectory row in {path}: {line[:60]!r}")
        try:
            records.append(
                {key: float(val) for key, val in zip(header, parts)})
        except ValueError:
            raise ConfigError(
                f"non-numeric value in trajectory row: {line[:60]!r}")
    return records


def write_trajectory_csv(trajectory, path):
    """Export the sampled diagnostics, one row per sample.

    Exactly the eight standard columns, comma-separated with a header line,
    17 significant digits. No timestamps or environment data, so identical
    runs produce identical bytes.
    """
    lines = [",".join(CSV_COLUMNS)]
    for row in trajectory.records:
        lines.append(",".join("%.17g" % row[c] for c in CSV_COLUMNS))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
