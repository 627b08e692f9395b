"""Gradient-inequality exponent estimation from flow records.

Near a critical point the gradient norm controls the value gap through
|grad mu| >= |mu|^{1 - theta} for some theta in (0, 1/2]. The records of a
spectral-gauge run sample both sides directly (rhs_l2 is the gradient norm in
that gauge), so theta is estimated by a least-squares fit of log |grad mu|
against log |mu|, then reconciled with the largest exponent not exceeding one
half for which the inequality holds at every sample of the fit window. That
cap comes from two masked reductions over the window: a minimum over the
samples with |mu| < 1, which bound theta from above, and a maximum over those
with |mu| > 1, which bound it from below; a sample with |mu| = 1 needs
|grad mu| >= 1. The fit takes the record dicts alone and returns a dict; the
fit residual and exclusion counts are always reported, and nothing is
asserted a priori.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import ConfigError

_ROUNDING_SLACK = 1e-12


def lojasiewicz_estimate(records, window_fraction=0.5, min_samples=10):
    """Fit the gradient-inequality exponent on the tail of a run's records.

    records are dicts with keys t, lambda and rhs_l2, the last the gradient
    norm (as in the rows of a spectral-gauge run). Samples with lambda >= 0,
    a non-finite lambda or a vanishing gradient norm are excluded and
    counted. The fit window is the trailing window_fraction, in (0, 1], of
    the remaining samples; fewer than min_samples usable rows is an error,
    and min_samples must be an integer of at least 2, since a slope needs two
    rows.

    Returns a dict with, in order:
    theta_hat: the exponent, 1 - slope capped at one half and at the
        pointwise feasibility of the inequality on the window; NaN when no
        positive exponent works, or when |lambda| takes one value on the
        whole window, so that no slope exists.
    theta_slope: the raw least-squares estimate 1 - slope; NaN without a
        slope.
    fit_residual: the root-mean-square residual of the log-log fit; NaN
        without a slope.
    window: [first, last] time of the fitted samples.
    n_samples / n_excluded: rows fitted / rows excluded.
    holds_everywhere: whether the inequality at theta_hat holds at every
        fitted sample, up to a rounding-level slack.
    """
    if not 0.0 < window_fraction <= 1.0:
        raise ConfigError(
            f"window_fraction must lie in (0, 1], got {window_fraction!r}")
    if not isinstance(min_samples, numbers.Integral) or min_samples < 2:
        raise ConfigError(
            f"min_samples must be an integer >= 2, got {min_samples!r}")
    rows = [
        r for r in records
        if math.isfinite(r["lambda"]) and r["lambda"] < 0.0
        and r["rhs_l2"] > 0.0
    ]
    n_excluded = len(records) - len(rows)
    rows = rows[int(math.floor(len(rows) * (1.0 - window_fraction))):]
    if len(rows) < min_samples:
        raise ConfigError(
            f"fit window holds {len(rows)} usable samples; "
            f"need at least {min_samples}")

    log_lam = np.log(np.abs(np.array([r["lambda"] for r in rows])))
    log_grad = np.log(np.array([r["rhs_l2"] for r in rows]))
    if np.ptp(log_lam) == 0.0:
        # one |lambda| on the whole window: np.polyfit would only warn
        theta_slope = fit_residual = float("nan")
    else:
        slope, intercept = np.polyfit(log_lam, log_grad, 1)
        theta_slope = 1.0 - float(slope)
        fitted = slope * log_lam + intercept
        fit_residual = float(np.sqrt(np.mean((log_grad - fitted) ** 2)))

    # the cap (see the module docstring); the ratio at |mu| = 1 is unused
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = 1.0 - log_grad / log_lam
    cap = np.min(ratio[log_lam < 0.0], initial=0.5)
    lower = np.max(ratio[log_lam > 0.0], initial=0.0)
    feasible = cap > lower and not np.any((log_lam == 0.0) & (log_grad < 0.0))
    theta_hat = min(theta_slope, cap)
    if not feasible or not theta_hat > 0.0:
        theta_hat = float("nan")
        holds = False
    else:
        # recheck the inequality at the reported exponent, with only a
        # rounding-level slack
        bound = (1.0 - theta_hat) * log_lam
        holds = bool(np.all(log_grad >= bound - _ROUNDING_SLACK))

    t_values = [r["t"] for r in rows]
    return {
        "theta_hat": float(theta_hat),
        "theta_slope": theta_slope,
        "fit_residual": fit_residual,
        "window": [float(min(t_values)), float(max(t_values))],
        "n_samples": len(rows),
        "n_excluded": n_excluded,
        "holds_everywhere": holds,
    }
