"""Analytic forecasts: uniform agreement, bias response, latency math."""

import math

import pytest

from repro.autotune import CandidateConfig, delay_units, forecast, \
    predict_stall_rate
from repro.autotune.predictor import exact_delay_units
from repro.families import get_family


def _resolved(family, width, window):
    return get_family(family).resolve_params(width, window=window)


@pytest.mark.parametrize("window", [4, 8, 12, 16])
def test_aca_uniform_prediction_is_exact(window):
    """At p = 0.5 the biased run-length DP IS the exact flag rate."""
    fam = get_family("aca")
    params = _resolved("aca", 64, window)
    exact = float(fam.error_model(64, **params).flag_rate)
    predicted = predict_stall_rate("aca", 64, params, 0.5)
    assert predicted == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("family,window,rel", [
    ("blockspec", 8, 1e-9), ("cesa", 16, 1e-4)])
def test_block_families_uniform_prediction_close(family, window, rel):
    """Independence combination vs the exact boundary DP at p = 0.5."""
    fam = get_family(family)
    params = _resolved(family, 64, window)
    exact = float(fam.error_model(64, **params).flag_rate)
    predicted = predict_stall_rate(family, 64, params, 0.5)
    assert predicted == pytest.approx(exact, rel=rel)


def test_uniform_forecast_is_exact_for_every_policy_candidate():
    """At p = 0.5 every family's forecast IS its exact uniform flag
    rate, for every candidate the width-64 policy engine weighs."""
    from repro.autotune import SLA, PolicyEngine

    for cand in PolicyEngine(64, SLA()).candidates:
        exact = get_family(cand.family).error_model(
            64, **cand.params).flag_rate
        predicted = predict_stall_rate(cand.family, 64, cand.params, 0.5)
        assert predicted == pytest.approx(exact, rel=1e-12, abs=0.0), \
            cand.key()


def test_aca_window_at_width_degenerates_to_all_propagate():
    params = _resolved("aca", 64, 64)
    for p in (0.25, 0.5, 0.875):
        assert predict_stall_rate("aca", 64, params, p) == \
            pytest.approx(p ** 64)


def test_stall_rate_monotone_in_propagate_bias():
    params = _resolved("aca", 64, 8)
    rates = [predict_stall_rate("aca", 64, params, p)
             for p in (0.125, 0.25, 0.5, 0.75, 0.875)]
    assert rates == sorted(rates)
    assert rates[0] < rates[-1]


def test_stall_rate_monotone_in_window():
    rates = [predict_stall_rate("aca", 64, _resolved("aca", 64, w), 0.5)
             for w in (4, 8, 16, 32, 64)]
    assert rates == sorted(rates, reverse=True)


def test_delay_units_grow_with_window_and_cap_at_exact():
    small = delay_units("aca", 64, _resolved("aca", 64, 4))
    big = delay_units("aca", 64, _resolved("aca", 64, 32))
    assert small < big <= exact_delay_units(64)
    assert exact_delay_units(64) == 2.0 * math.ceil(math.log2(64)) + 4.0


def test_forecast_latency_and_objective_accounting():
    cand = CandidateConfig(family="aca", width=64,
                           params=_resolved("aca", 64, 8), batch_ops=256)
    fc = forecast(cand, 0.5, recovery_cycles=3)
    stall = predict_stall_rate("aca", 64, cand.params, 0.5)
    assert fc.stall_rate == pytest.approx(stall)
    assert fc.mean_latency_cycles == pytest.approx(1.0 + 3 * stall)
    # Batch queueing dominates the p99 figure.
    assert fc.p99_latency_cycles == pytest.approx(
        1.0 + 3 + 255 * fc.mean_latency_cycles)
    assert fc.avg_time_units == pytest.approx(
        fc.delay_units * fc.mean_latency_cycles + 64.0 / 256)
    assert fc.uniform_stall_rate == pytest.approx(stall, rel=1e-12)


def test_forecast_bigger_batches_lower_overhead_raise_p99():
    params = _resolved("aca", 64, 8)
    small = forecast(CandidateConfig("aca", 64, params, batch_ops=64), 0.5)
    big = forecast(CandidateConfig("aca", 64, params, batch_ops=4096), 0.5)
    assert big.avg_time_units < small.avg_time_units
    assert big.p99_latency_cycles > small.p99_latency_cycles


def test_unregistered_family_raises():
    from repro.families.base import FamilyError
    with pytest.raises(FamilyError):
        predict_stall_rate("not-a-family", 64, {}, 0.5)
