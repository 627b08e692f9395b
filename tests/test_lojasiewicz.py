import collections
import math
import types
import warnings

import numpy as np
import pytest

from grflab import lojasiewicz_estimate, lojasiewicz_report
from grflab.errors import ConfigError

from oracles import feasible_cap_loop


def power_law_records(theta, prefactor=1.0, n=60, lam0=1e-3, lam1=1e-9):
    """Rows following |grad| = prefactor * |lambda|^(1 - theta) exactly."""
    lams = -np.geomspace(lam0, lam1, n)
    rows = []
    for k, lam in enumerate(lams):
        grad = prefactor * abs(lam) ** (1.0 - theta)
        rows.append({"t": float(k), "lambda": float(lam), "rhs_l2": float(grad)})
    return rows


def test_recovers_planted_exponent_half():
    fit = lojasiewicz_estimate(power_law_records(0.5, prefactor=2.0))
    assert fit["theta_slope"] == pytest.approx(0.5, abs=1e-9)
    assert fit["theta_hat"] == pytest.approx(0.5, abs=1e-9)
    assert fit["fit_residual"] < 1e-9
    assert fit["holds_everywhere"]
    assert fit["n_excluded"] == 0


def test_recovers_planted_exponent_quarter():
    fit = lojasiewicz_estimate(power_law_records(0.25, prefactor=3.0))
    assert fit["theta_slope"] == pytest.approx(0.25, abs=1e-9)
    assert fit["theta_hat"] == pytest.approx(0.25, abs=1e-9)
    assert fit["holds_everywhere"]


def test_cap_applies_when_slope_exceeds_half():
    # a steeper-than-sqrt decay fits theta > 1/2; the estimate caps at 1/2
    # provided the inequality still holds there
    fit = lojasiewicz_estimate(power_law_records(0.7, prefactor=5.0))
    assert fit["theta_slope"] == pytest.approx(0.7, abs=1e-9)
    assert fit["theta_hat"] == pytest.approx(0.5, abs=1e-12)
    assert fit["holds_everywhere"]


def test_small_prefactor_tightens_the_cap():
    # with prefactor < 1 the inequality at theta = 1/2 fails at the largest
    # |lambda| in the window, so the cap lands strictly below the slope
    rows = power_law_records(0.5, prefactor=0.1)
    fit = lojasiewicz_estimate(rows)
    assert fit["theta_hat"] < 0.5
    assert fit["holds_everywhere"]
    first, last = fit["window"]
    in_window = [r for r in rows if first <= r["t"] <= last]
    cap = min(
        1.0 - math.log(r["rhs_l2"]) / math.log(abs(r["lambda"]))
        for r in in_window
    )
    assert fit["theta_hat"] == pytest.approx(cap, abs=1e-12)


def test_infeasible_data_returns_nan():
    # gradient decaying much faster than the value gap: no exponent works
    rows = power_law_records(-0.5, prefactor=1e-6)
    fit = lojasiewicz_estimate(rows)
    assert math.isnan(fit["theta_hat"])
    assert not fit["holds_everywhere"]


def test_excludes_nonnegative_and_zero_gradient_rows():
    rows = power_law_records(0.5)
    rows.insert(0, {"t": -3.0, "lambda": 1e-4, "rhs_l2": 1e-2})
    rows.insert(0, {"t": -2.0, "lambda": float("nan"), "rhs_l2": 1e-2})
    rows.insert(0, {"t": -1.0, "lambda": -1e-4, "rhs_l2": 0.0})
    fit = lojasiewicz_estimate(rows)
    assert fit["n_excluded"] == 3
    assert fit["theta_hat"] == pytest.approx(0.5, abs=1e-9)


def test_excludes_and_counts_a_non_finite_gradient_norm():
    # an infinite norm passed the old rhs_l2 > 0 filter and made the slope
    # NaN for the whole window while n_excluded stayed 0
    rows = power_law_records(0.25, prefactor=3.0, n=12)
    dirty = (rows[:6] + [{"t": 5.5, "lambda": -1e-5, "rhs_l2": math.inf}]
             + rows[6:] + [{"t": 12.0, "lambda": -1e-10,
                            "rhs_l2": float("nan")}])
    fit = lojasiewicz_estimate(dirty, window_fraction=1.0)
    assert fit["n_excluded"] == 2
    assert fit["n_samples"] == 12
    assert math.isfinite(fit["theta_hat"])
    assert fit["theta_hat"] == pytest.approx(0.25, abs=1e-9)
    assert fit == {**lojasiewicz_estimate(rows, window_fraction=1.0),
                   "n_excluded": 2}


def test_window_fraction_and_explicit_window():
    # the fit reports the explicit time window its fraction selected
    rows = power_law_records(0.5, n=40)
    fit = lojasiewicz_estimate(rows, window_fraction=0.25)
    assert fit["n_samples"] == 10
    assert fit["window"] == [30.0, 39.0]
    fit2 = lojasiewicz_estimate(rows, window_fraction=1.0)
    assert fit2["n_samples"] == 40
    assert fit2["window"] == [0.0, 39.0]


@pytest.mark.parametrize("fraction", [0.0, -0.5, 1.5, 3.0, float("nan")])
def test_window_fraction_outside_unit_interval_rejected(fraction):
    with pytest.raises(ConfigError, match="window_fraction"):
        lojasiewicz_estimate(power_law_records(0.5, n=20),
                             window_fraction=fraction)


def test_min_samples_enforced():
    rows = power_law_records(0.5, n=8)
    with pytest.raises(ConfigError):
        lojasiewicz_estimate(rows)
    fit = lojasiewicz_estimate(rows, min_samples=4)
    assert fit["n_samples"] == 4


@pytest.mark.parametrize("min_samples", [-1, 0, 1, 2.0, 10.5, "10", None])
def test_min_samples_must_be_an_integer_of_at_least_two(min_samples):
    # a one-row window used to fit a rank-deficient line and certify it; no
    # usable row at all used to raise a bare TypeError
    for rows in (power_law_records(0.5, n=20), []):
        with pytest.raises(ConfigError, match="min_samples must be an integer"):
            lojasiewicz_estimate(rows, min_samples=min_samples)
    assert lojasiewicz_estimate(power_law_records(0.5, n=4),
                                min_samples=2)["n_samples"] == 2


@pytest.mark.parametrize("n", [2, 12])
def test_a_window_of_one_lambda_has_no_exponent(n):
    # log |lambda| has zero spread: no slope exists, so nothing is certified
    rows = [{"t": float(k), "lambda": -1e-4, "rhs_l2": 1e-2 * (k + 1)}
            for k in range(n)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = lojasiewicz_estimate(rows, window_fraction=1.0, min_samples=2)
    assert fit["n_samples"] == n
    assert math.isnan(fit["theta_hat"])
    assert math.isnan(fit["theta_slope"]) and math.isnan(fit["fit_residual"])
    assert fit["holds_everywhere"] is False
    assert [type(v) for v in fit.values()] == [float, float, float, list,
                                              int, int, bool]


def test_fit_is_a_dict_of_plain_values_in_a_fixed_key_order():
    # experiments.lojasiewicz_report extends this dict and the pipelines
    # return it as it is, so its keys and their order are the interface
    fit = lojasiewicz_estimate(power_law_records(0.5))
    assert list(fit) == ["theta_hat", "theta_slope", "fit_residual", "window",
                         "n_samples", "n_excluded", "holds_everywhere"]
    assert [type(v) for v in fit.values()] == [float, float, float, list,
                                              int, int, bool]


def _random_record_sets(n_sets, seed=0):
    """Seeded record sets around a planted exponent. Per set, a share of the
    samples has |lambda| = 1, a share |lambda| > 1 and a share a gradient
    below the power law, each share possibly zero; the last makes many sets
    infeasible."""
    rng = np.random.default_rng(seed)
    for _ in range(n_sets):
        n = int(rng.integers(10, 25))
        unit, above, below = rng.choice([0.0, 0.2], size=3)
        kind = rng.choice(3, size=n, p=[1.0 - unit - above, unit, above])
        log_lam = np.where(kind == 0, rng.uniform(-20.0, -0.1, n),
                           np.where(kind == 1, 0.0, rng.uniform(0.1, 3.0, n)))
        sign = np.where(rng.random(n) < below, -1.0, 1.0)
        offset = sign * rng.exponential(0.5, n)
        log_grad = (1.0 - rng.uniform(0.0, 0.8)) * log_lam + offset
        yield [{"t": float(k), "lambda": -math.exp(x), "rhs_l2": math.exp(y)}
               for k, (x, y) in enumerate(zip(log_lam, log_grad))]
    # mirrored samples tie the bounds from above and below at exactly 1/4;
    # the cap must lie strictly above the lower bound, so the set counts as
    # infeasible
    yield [{"t": float(k), "lambda": -16.0 ** e, "rhs_l2": 8.0 ** e}
           for k, e in enumerate([-1.0, 1.0] * 5)]


def test_the_masked_cap_matches_the_per_sample_loop():
    # the estimate's theta_hat (NaN-aware), holds_everywhere and the report's
    # passed against the loop the two masked reductions replaced
    outcomes = collections.Counter()
    for rows in _random_record_sets(1200):
        fit = lojasiewicz_estimate(rows, window_fraction=1.0)
        assert fit["n_samples"] == len(rows)
        log_lam = np.log(np.abs([r["lambda"] for r in rows]))
        log_grad = np.log([r["rhs_l2"] for r in rows])
        cap, feasible = feasible_cap_loop(log_lam, log_grad)
        theta_hat = min(fit["theta_slope"], cap)
        if not feasible or not theta_hat > 0.0:
            theta_hat, holds = math.nan, False
        else:
            holds = bool(np.all(
                log_grad >= (1.0 - theta_hat) * log_lam - 1e-12))
        assert np.array_equal(fit["theta_hat"], theta_hat, equal_nan=True)
        assert fit["holds_everywhere"] is holds
        traj = types.SimpleNamespace(gauge="mu_gradient", records=rows)
        report = lojasiewicz_report(traj, window_fraction=1.0)
        assert report["passed"] is holds
        outcomes[feasible, holds] += 1
        outcomes["unit", bool(np.any(log_lam == 0.0))] += 1
        outcomes["above", bool(np.any(log_lam > 0.0))] += 1
    # both verdicts, and sets with and without |lambda| = 1 and > 1
    assert min(outcomes[key] for key in [
        (True, True), (False, False), ("unit", True), ("unit", False),
        ("above", True), ("above", False)]) > 100, outcomes


@pytest.mark.parametrize("rows", [
    power_law_records(0.5, prefactor=2.0),
    power_law_records(0.25, prefactor=3.0),
    power_law_records(0.7, prefactor=5.0),
    power_law_records(0.5, prefactor=0.1),
    power_law_records(-0.5, prefactor=1e-6),
    power_law_records(0.5, n=40),
    [{"t": float(k), "lambda": -1e-4, "rhs_l2": 1e-2 * (k + 1)}
     for k in range(12)],
], ids=["half", "quarter", "capped", "tight", "infeasible", "n40", "one"])
def test_holding_everywhere_implies_an_exponent_in_the_half_interval(rows):
    # lojasiewicz_report's passed is holds_everywhere alone on this promise
    for fraction in (0.25, 0.5, 1.0):
        fit = lojasiewicz_estimate(rows, window_fraction=fraction,
                                   min_samples=2)
        if fit["holds_everywhere"]:
            assert math.isfinite(fit["theta_hat"])
            assert 0.0 < fit["theta_hat"] <= 0.5
