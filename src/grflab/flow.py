"""Time integration of the coupled metric / 3-form flows on the lattice.

Three right-hand sides share one assembly, geometry.gauged_grf_values, and
one Runge-Kutta integrator. Each is s (-2 Ric + H^2/2 + L_X g, -d* H + X . H)
at a gauge vector X and scale s. GAUGES, the one place a gauge is decided,
maps each name to its Gauge record:

  grf          X = 0, s = 1
  deturck      X the DeTurck vector of a reference metric, s = 1, which
               makes the metric equation parabolic
  mu_gradient  X = -grad f, s = 1/2: the gradient of mu, so mu is
               nondecreasing

H = Hhat + db stays exactly closed because only the potential b is evolved
and the discrete d d = 0 identity is exact. Steps are classical fourth-order
Runge-Kutta with a parabolic step bound dt = cfl min(h)^2 / (2 max eig g^-1),
whose eigensolve runs only at points a Gershgorin bound cannot rule out; a
step that breaks metric positivity is retried at half size, SPD_RETRIES (ten)
times. The same loop integrates the matrix ODE of homogeneous.invariant_flow.

The bound's stability limit: at the flat point the DeTurck flow's linear
part is -|D(k)|^2 = -sum_a D(k_a)^2, D the stencil symbol
(lattice.stencil_symbol), whose square peaks at 1.883 / h^2 per axis. RK4
damps y' = z y / dt while z >= -2.785, its real stability interval, so on n
axes cfl* = 2 * 2.785 / (1.883 n): 1.48 in 2D, 0.986 in 3D, 0.74 in 4D.
The mu flow's nonzero flat-point rates are -|D(k)|^2 / 2, so its limit is
twice that: 1.97 in 3D. FlowConfig's default 0.1 is a tenth of the 3D
DeTurck limit; experiments.gauge_consistency_run takes 0.2 and
experiments.stability_run 0.4, 41% of it and 54% of the 4D limit.

A run takes at most MAX_STEPS steps. Every accepted step can record a
diagnostics row with the columns t, lambda, H_l2, ricci_linf, dH_linf,
F_value, rhs_l2, dt (plus the identity gap of the eigenpair), whose side
eigensolve is the run's only one outside a spectral gauge; a run with
record_every None records none. write_trajectory_csv exports exactly the
eight named columns at 17 significant digits, through write_records_csv, the
one CSV writer of the package.

The right-hand sides compose raw packed arrays (see lattice) and read the
H = Hhat + db a FlowState validates once; only their outputs (dg, db, the
gauge vector) are fields. A state holds g, b and Hhat packed, so an RK4 axpy
touches n(n+1)/2 + C(n, 2) planes, 6 + 3 in 3D. A run's eigensolves
form one warm-started stream, _Stream, which also keeps the run's counts.
"""

from __future__ import annotations

import collections
import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .errors import (ConfigError, ConvergenceError, NonFiniteError,
                     PositivityError, StepSizeError)
from .lattice import ScalarField, TensorField, require_field, weighted_inner
from .geometry import (
    MetricField, deturck_vector_values, exterior_derivative_values,
    form_norm_sq_values, gauged_grf_values, ricci_values)
from .spectrum import (
    _energy, _identity_gap, _potential, assemble_mu_gradient,
    field_strength_values, lowest_eigenpair)

SPD_RETRIES = 10
MAX_STEPS = 200000

# the keys of Trajectory.counts, in the order the run summaries report them
COUNTS = ("side_eig_failures", "eig_outer_iterations", "eig_cg_iterations",
          "eig_cg_short_exits", "dt_halvings")

_HORIZON = "time horizon reached before residual tolerance"

CSV_COLUMNS = ("t", "lambda", "H_l2", "ricci_linf", "dH_linf", "F_value",
               "rhs_l2", "dt")


@dataclass(frozen=True)
class FlowState:
    """One point on a flow line.

    g is a MetricField, b the evolving 2-form potential and hhat an optional
    fixed closed background 3-form, both on g's grid. The field strength
    H = hhat + db is built and validated once, with the state. The gauge a
    state is evolved in is not part of it; the Trajectory names it.
    """

    g: MetricField
    b: TensorField
    hhat: Optional[TensorField] = None
    time: float = 0.0

    def __post_init__(self):
        require_field("g", self.g, None, "metric", 2)
        require_field("b", self.b, self.g.grid, "antisymmetric", 2)
        if self.hhat is not None:
            require_field("hhat", self.hhat, self.g.grid, "antisymmetric", 3)
        object.__setattr__(self, "_h", TensorField(
            self.g.grid, field_strength_values(self.g.grid, self.b.values,
                                               self.hhat), "antisymmetric"))

    def field_strength(self):
        """H = hhat + db, the validated field built with the state."""
        return self._h


@dataclass(frozen=True)
class FlowConfig:
    """Integration policy.

    gauge is a key of GAUGES. stop_tol bounds the L2 norm of the right-hand
    side pair (weighted by e^{-f} in a spectral gauge: the gradient norm);
    reaching it gives the CONVERGED verdict. A diagnostics row is recorded
    every record_every accepted steps, an integer of at least 1, and at the
    last state; its dt is the step planned from that state, before any
    positivity halving. record_every None records no row, so a run that
    is not in a spectral gauge makes no eigensolve; the steps and the final
    state do not depend on it. A run with record_every None and stop_tol 0,
    which no norm can pass, ends at the horizon without evaluating the
    right-hand side of its horizon state. No float field may be NaN, and
    cfl must be finite. keep_gauge_fields asks for the run's gauge_series
    and needs a gauge that keeps fields.

    cfl scales dt = cfl min(h)^2 / (2 max eig g^-1). RK4 on the flat-point
    symbol -|D(k)|^2 is stable up to cfl* = 2 * 2.785 / (1.883 n): 1.48,
    0.986 and 0.74 on 2, 3 and 4 axes (see the module docstring); the mu
    flow's rates are half as large, so its limit is 2 cfl*: 2.96, 1.97 and
    1.48. Nothing checks cfl against it: a run past it ends DIVERGED on
    positivity or at the horizon.
    """

    gauge: str = "grf"
    t_max: float = 10.0
    cfl: float = 0.1
    stop_tol: float = 1e-8
    record_every: Optional[int] = 1
    keep_gauge_fields: bool = False

    def __post_init__(self):
        gauge = _gauge(self.gauge)
        if self.keep_gauge_fields and not gauge.keeps_fields:
            raise ConfigError(
                f"the {self.gauge!r} gauge keeps no gauge fields")
        if not self.t_max > 0:
            raise ConfigError("t_max must be positive")
        if not 0 < self.cfl < math.inf:
            raise ConfigError("cfl must be positive and finite")
        if not self.stop_tol >= 0:
            raise ConfigError("stop_tol must be nonnegative")
        if self.record_every is not None and (
                not isinstance(self.record_every, numbers.Integral)
                or self.record_every < 1):
            raise ConfigError(
                "record_every must be None or an integer of at least 1")


@dataclass
class Trajectory:
    """Outcome of a flow run: final state, sampled diagnostics, verdict.

    final is the state the run ended at, after steps accepted steps; gauge
    is the run's GAUGES key. gauge_series, present when the run kept gauge
    fields, lists (t, dt, [X at the four Runge-Kutta stages]) per accepted
    step; diffeo_flow consumes it to integrate the compensating
    diffeomorphisms at matching order. counts maps each key of COUNTS to a total of the run (a key the
    run never counted reads 0): side_eig_failures the rows whose side
    eigensolve failed (spectral columns NaN); eig_outer_iterations and
    eig_cg_iterations the iterations of every returned eigensolve, and
    eig_cg_short_exits its inner CG solves that stopped at CG_MAX_ITER or on
    an indefinite direction; dt_halvings the times a step was halved because
    the metric left the positive cone.
    """

    final: FlowState
    records: list
    verdict: str
    gauge: str
    reason: str = ""
    gauge_series: Optional[list] = None
    counts: collections.Counter = field(default_factory=collections.Counter)
    steps: int = 0

    def column(self, key):
        return np.array([r[key] for r in self.records])


@np.errstate(over="ignore", invalid="ignore")
def grf_rhs(state):
    """Right-hand side of the coupled flow, before any gauge fixing."""
    g = state.g
    dg, db = gauged_grf_values(g, state.field_strength().values, None)
    return (
        TensorField(g.grid, dg, "symmetric2"),
        TensorField(g.grid, db, "antisymmetric"),
    )


@np.errstate(over="ignore", invalid="ignore")
def deturck_rhs(state, g_ref):
    """Gauge-fixed right-hand side; also returns the gauge vector field.

    The flow pair moved along the DeTurck vector X of g_ref, which makes the
    metric equation parabolic. g_ref must be a MetricField on the state's
    grid.
    """
    if g_ref is None:
        raise ConfigError("the deturck gauge needs a reference metric")
    g = state.g
    require_field("g_ref", g_ref, g.grid, "metric", 2)
    x = TensorField(g.grid, deturck_vector_values(g, g_ref), "vector")
    dg, db = gauged_grf_values(g, state.field_strength().values, x.values)
    return (
        TensorField(g.grid, dg, "symmetric2"),
        TensorField(g.grid, db, "antisymmetric"),
        x,
    )


def mu_gradient_flow_rhs(state, w0=None):
    """Gradient of mu at the state, plus the spectral solution used."""
    g, H = state.g, state.field_strength()
    sol = lowest_eigenpair(g, H, w0=w0)
    return assemble_mu_gradient(g, H, sol) + (sol,)


@dataclass(frozen=True)
class Gauge:
    """What a gauge means to a run. rhs(state, g_ref, w0) returns
    (dg, db, extra). spectral: extra is the eigenpair rhs solved from start
    vector w0, so the stop norm is the e^{-f}-weighted gradient norm, the
    diagnostics rows reuse the eigenpair and the Lojasiewicz fit accepts the
    run. keeps_fields: extra is the gauge vector diffeo_flow replays."""

    rhs: Callable
    spectral: bool = False
    keeps_fields: bool = False


# each rhs looks its kernel up per call, so patching flow's attribute works
GAUGES = {
    "grf": Gauge(lambda s, g_ref, w0: grf_rhs(s) + (None,)),
    "deturck": Gauge(lambda s, g_ref, w0: deturck_rhs(s, g_ref),
                     keeps_fields=True),
    "mu_gradient": Gauge(lambda s, g_ref, w0: mu_gradient_flow_rhs(s, w0),
                         spectral=True),
}


def _gauge(name):
    """The GAUGES record of a gauge name; ConfigError when there is none."""
    if name not in GAUGES:
        raise ConfigError(
            f"unknown gauge {name!r}; expected one of {tuple(GAUGES)}")
    return GAUGES[name]


def _predict(history, t):
    """Start vector of an eigensolve at time t from a stream's history, the
    (time, eigenfunction) pairs of its last two distinct times: the
    eigenfunction of t itself when t was solved, the only one of a one-entry
    history, else the value at t of the line through both. None when the
    stream has solved nothing yet."""
    for t_i, w_i in history:
        if t_i == t:
            return w_i
    if len(history) < 2:
        return history[0][1] if history else None
    (t0, w0), (t1, w1) = history
    return w1 + ((t - t1) / (t1 - t0)) * (w1 - w0)


def _remember(history, t, w):
    """Append the eigenfunction w solved at time t, keeping the last two
    distinct times; a time solved again replaces its earlier entry."""
    history[:] = [e for e in history if e[0] != t][-1:] + [(t, w)]


class _Stream:
    """A run's one stream of eigensolves, and the run's counts.

    The stream is the stage solves of a spectral gauge or else the side
    solves of the diagnostics rows. history holds the eigenfunctions of its
    last two distinct times, and each solve starts from the line in t
    through them (_predict): a time already solved (k3 after k2, the next k1
    after k4) reuses its own, k2 and k4 extrapolate, and the stages of a
    step retried at half size interpolate. That time line misses in much the
    same way from one step to the next, most at k2 and k3, so each stage
    solve (k1 to k4) adds the error its time-line start made at the same
    stage of the previous accepted step: previous holds those, current this
    step's so far. The time line alone starts the first step, a halved step
    from its halving on and the whole step after it, the side solves and
    step(). A failed solve leaves the stream untouched.

    counts (see Trajectory) totals the iterations and short CG exits of
    every returned solve and the halvings; run_flow adds the failed side
    solves. A call, not a public method, solves: perfbench's tracer wraps
    public methods, and would then charge the side solves to the stream
    instead of run_flow.
    """

    def __init__(self):
        self.history, self.previous, self.current = [], [], []
        self.counts = collections.Counter()

    def next_step(self):
        self.previous, self.current = self.current or [], []

    def halve(self):
        """Count a positivity halving; the step adds and records no stage
        error from here on."""
        self.counts["dt_halvings"] += 1
        self.current = None

    def __call__(self, solve, t, stage):
        """solve(w0), an eigensolve at time t returning its eigenpair last,
        from the start the class docstring gives; stage marks a stage
        solve."""
        line = _predict(self.history, t)
        errors = self.current if stage else None
        shift = (self.previous[len(errors)] if errors is not None
                 and len(errors) < len(self.previous) else None)
        out = solve(line if shift is None else line + shift)
        sol = out[-1]
        _remember(self.history, t, sol.w.values)
        if errors is not None:
            errors.append(None if line is None else sol.w.values - line)
        self.counts.update(eig_outer_iterations=sol.iterations,
                           eig_cg_iterations=sol.cg_iterations,
                           eig_cg_short_exits=sol.cg_short_exits)
        return out


def _rhs(gauge, state, g_ref, stream):
    """(dg, db, extra) of the gauge; only a spectral one joins the stream."""
    if not gauge.spectral:
        return gauge.rhs(state, g_ref, None)
    return stream(lambda w0: gauge.rhs(state, g_ref, w0), state.time,
                  stage=True)


def _slope(k):
    """A right-hand side (dg, db, extra) as the integrator's slope."""
    return (k[0].values, k[1].values), k[2]


def _advance(state, dt, k):
    """State + dt * slope; the MetricField constructor enforces positivity."""
    dg, db = k[0]
    g_new = MetricField(state.g.grid, state.g.values + dt * dg)
    b_new = TensorField(state.g.grid, state.b.values + dt * db,
                        "antisymmetric")
    return replace(state, g=g_new, b=b_new, time=state.time + dt)


def _rk4(y, h, slope, advance, k1):
    """One classical Runge-Kutta step of y' = slope(y).

    A slope is a tuple of arrays plus an opaque extra, and advance(y, h, k)
    returns y + h times k's arrays. Returns the new state and the four stage
    extras; failures of slope or advance propagate.
    """
    k2 = slope(advance(y, 0.5 * h, k1))
    k3 = slope(advance(y, 0.5 * h, k2))
    k4 = slope(advance(y, h, k3))
    mean = tuple((a + 2 * b + 2 * c + d) / 6.0
                 for a, b, c, d in zip(k1[0], k2[0], k3[0], k4[0]))
    return advance(y, h, (mean, None)), [k[1] for k in (k1, k2, k3, k4)]


def _rk4_with_retries(y, h, slope, advance, t, k1=None,
                      on_halve=lambda: None):
    """One Runge-Kutta step from time t, halved up to SPD_RETRIES times while
    the step leaves the positive cone; on_halve() runs before each retry.
    Returns (new state, stage extras, h taken).

    Raises StepSizeError, naming the smallest step tried, when positivity is
    never regained, or chained from a non-finite or failed-eigensolve stage.
    """
    try:
        if k1 is None:
            k1 = slope(y)
        for attempt in range(SPD_RETRIES + 1):
            if attempt:  # a retry at half the step
                on_halve()
                h *= 0.5
            try:
                return _rk4(y, h, slope, advance, k1) + (h,)
            except PositivityError:
                pass
    except (ConvergenceError, NonFiniteError) as exc:
        raise StepSizeError(f"Runge-Kutta stage failed "
                            f"(t = {t:.6f}): {exc}") from exc
    raise StepSizeError(f"metric loses positivity even at dt = {h:.3e} "
                        f"(t = {t:.6f})")


@np.errstate(over="ignore", invalid="ignore")
def step(state, rhs_kind, dt, g_ref=None):
    """One integrator step of the named right-hand side.

    dt must be positive and finite (ConfigError). Halves dt when the metric
    leaves the positive cone, up to SPD_RETRIES times, then raises
    StepSizeError; a failed stage raises it too. Overflow is reported by the
    field checks, not by numpy warnings.
    """
    if not 0.0 < dt < math.inf:
        raise ConfigError(f"dt must be positive and finite, got {dt!r}")
    gauge, stream = _gauge(rhs_kind), _Stream()
    return _rk4_with_retries(
        state, dt, lambda s: _slope(_rhs(gauge, s, g_ref, stream)),
        _advance, state.time)[0]


def _pair_l2(g, dg, db, weight=None):
    sq = weighted_inner(dg, dg, g, weight) + weighted_inner(db, db, g, weight)
    return math.sqrt(max(sq, 0.0))


def _diagnostics_row(state, dt, rhs_l2, sol):
    """One trajectory record of the state. sol is its eigenpair, or None
    when that failed, which blanks the spectral columns. |H|^2_g is built
    once for H_l2, F's potential and the identity gap."""
    g, h = state.g, state.field_strength().values
    if g.grid.n_dims > 3:  # dH is a 4-form
        dh_linf = float(np.max(np.abs(exterior_derivative_values(g.grid, h, 3))))
    else:
        dh_linf = 0.0

    h_sq = form_norm_sq_values(g, h)
    h_l2_sq = float(np.sum(h_sq * g.sqrt_det_values)) * g.grid.cell_volume
    nan = float("nan")
    return {
        "t": state.time,
        "lambda": sol.lam if sol is not None else nan,
        "H_l2": math.sqrt(max(h_l2_sq, 0.0)),
        "ricci_linf": float(np.max(np.abs(ricci_values(g)))),
        "dH_linf": dh_linf,
        "F_value": (_energy(g, _potential(g, h_sq), sol.f)
                    if sol is not None else nan),
        "rhs_l2": rhs_l2,
        "identity_gap": (_identity_gap(g, h_sq, sol)
                         if sol is not None else nan),
        "dt": dt,
    }


@np.errstate(over="ignore", invalid="ignore")
def run_flow(initial, config, g_ref=None):
    """Integrate a flow to tolerance, horizon, or failure.

    Numerical breakdown never raises; the verdict ("CONVERGED" when the
    right-hand side dropped below stop_tol, otherwise "DIVERGED") and the
    reason string report it; overflow is reported so by the field checks
    (NonFiniteError), not by numpy warnings. A run that takes MAX_STEPS steps
    ends DIVERGED with "step budget exhausted". Diagnostics are recorded
    every record_every accepted steps and always at the endpoint, unless
    record_every is None.
    """
    gauge, stream = _gauge(config.gauge), _Stream()
    state = initial
    records = []
    gauge_series = [] if config.keep_gauge_fields else None
    verdict, reason = "DIVERGED", "step budget exhausted"
    steps = 0
    while True:
        at_horizon = state.time >= config.t_max
        if (at_horizon and config.record_every is None
                and config.stop_tol == 0.0):
            # nothing would read the horizon state's right-hand side
            reason = _HORIZON
            break
        stream.next_step()
        try:
            k1 = _rhs(gauge, state, g_ref, stream)
        except (ConvergenceError, PositivityError, NonFiniteError) as exc:
            verdict, reason = "DIVERGED", f"right-hand side failed: {exc}"
            break

        speed = 2.0 * state.g.max_inverse_eigenvalue()
        dt = config.cfl * state.g.grid.min_spacing ** 2 / speed
        dt = min(dt, config.t_max - state.time)

        sol = k1[2] if gauge.spectral else None
        weight = (ScalarField(state.g.grid, np.exp(-sol.f.values))
                  if gauge.spectral else None)
        rhs_l2 = _pair_l2(state.g, k1[0], k1[1], weight)

        stopping = rhs_l2 < config.stop_tol
        out_of_steps = steps >= MAX_STEPS
        if config.record_every is not None and (
                steps % config.record_every == 0 or stopping or at_horizon
                or out_of_steps):
            if sol is None:
                try:
                    sol, = stream(lambda w0: (lowest_eigenpair(
                        state.g, state.field_strength(), w0=w0),),
                        state.time, stage=False)
                except (ConvergenceError, NonFiniteError):
                    stream.counts["side_eig_failures"] += 1
            records.append(_diagnostics_row(state, dt, rhs_l2, sol))
        if stopping:
            verdict, reason = "CONVERGED", ""
            break
        if at_horizon:
            reason = _HORIZON
            break
        if out_of_steps:
            break

        try:
            new_state, extras, dt = _rk4_with_retries(
                state, dt, lambda s: _slope(_rhs(gauge, s, g_ref, stream)),
                _advance, state.time, _slope(k1), stream.halve)
        except StepSizeError as exc:
            verdict, reason = "DIVERGED", str(exc)
            break
        if gauge_series is not None:
            gauge_series.append((state.time, dt, extras))
        state = new_state
        steps += 1

    return Trajectory(final=state, records=records, verdict=verdict,
                      gauge=config.gauge, reason=reason,
                      gauge_series=gauge_series, counts=stream.counts,
                      steps=steps)


def write_records_csv(records, columns, path):
    """Export record dicts, one row per record.

    Exactly the given columns, comma-separated with a header line, 17
    significant digits. No timestamps or environment data, so identical
    records produce identical bytes.
    """
    lines = [",".join(columns)]
    for row in records:
        lines.append(",".join("%.17g" % row[c] for c in columns))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_trajectory_csv(trajectory, path):
    """Export the sampled diagnostics in the eight CSV_COLUMNS."""
    write_records_csv(trajectory.records, CSV_COLUMNS, path)
