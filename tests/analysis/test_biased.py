"""Biased-operand error model vs brute force and the uniform model."""

import numpy as np
import pytest

from repro.analysis import (
    aca_error_probability,
    aca_error_probability_biased,
    pg_probabilities,
    prob_max_run_at_least,
    run_at_least_probability_biased,
    speculation_mass,
)
from repro.autotune import predict_stall_rate
from repro.families import family_names, get_family
from repro.families.base import object_lanes


def test_pg_probabilities_basics():
    p, g, k = pg_probabilities(0.5, 0.5)
    assert (p, g, k) == (0.5, 0.25, 0.25)
    p, g, k = pg_probabilities(1.0, 1.0)
    assert (p, g, k) == (0.0, 1.0, 0.0)
    p, g, k = pg_probabilities(0.0, 0.0)
    assert (p, g, k) == (0.0, 0.0, 1.0)
    assert sum(pg_probabilities(0.3, 0.8)) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        pg_probabilities(1.2, 0.5)


def test_uniform_case_matches_unbiased_model():
    for n, w in [(16, 4), (32, 6), (64, 10)]:
        biased = aca_error_probability_biased(n, w, (0.5, 0.25, 0.25))
        assert biased == pytest.approx(aca_error_probability(n, w),
                                       abs=1e-12)


ALPHA_BETA = [(0.5, 0.5), (0.8, 0.3), (0.9, 0.9)]


def _brute_biased(family, n, params, alpha, beta, cin=0):
    """Weighted brute force over all operand pairs of one family
    configuration: ``(P(wrong), P(flag))``."""
    model = get_family(family).functional(n, **params)
    a, b = np.divmod(np.arange(1 << (2 * n)), 1 << n)
    ones = np.array([bin(x).count("1") for x in range(1 << n)])
    weight = (alpha ** ones[a] * (1 - alpha) ** (n - ones[a])
              * beta ** ones[b] * (1 - beta) ** (n - ones[b]))
    wrong = ~np.asarray(model.is_correct(object_lanes(a), object_lanes(b),
                                         cin), dtype=bool)
    flags = model.run_arrays(a, b).flags
    return float(weight[wrong].sum()), float(weight[flags].sum())


@pytest.mark.parametrize("alpha,beta", ALPHA_BETA)
def test_biased_dp_matches_weighted_brute_force(alpha, beta):
    n, w = 6, 2
    probs = pg_probabilities(alpha, beta)
    expected, _ = _brute_biased("aca", n, {"window": w}, alpha, beta)
    assert aca_error_probability_biased(n, w, probs) == pytest.approx(
        expected, abs=1e-10)


def test_biased_dp_with_cin_matches_brute_force():
    n, w = 6, 2
    probs = pg_probabilities(0.7, 0.4)
    expected, _ = _brute_biased("aca", n, {"window": w}, 0.7, 0.4, cin=1)
    got = aca_error_probability_biased(n, w, probs, cin_weight=1.0)
    assert got == pytest.approx(expected, abs=1e-10)


@pytest.mark.parametrize("alpha,beta", ALPHA_BETA)
@pytest.mark.parametrize("family", family_names())
def test_family_biased_rates_match_weighted_brute_force(family, alpha,
                                                        beta):
    """Every family's biased error and flag probability, from its cuts,
    equals the weighted brute force for every knob at n <= 6."""
    fam = get_family(family)
    p, g, k = pg_probabilities(alpha, beta)
    for n in range(1, 7):
        for knob in range(1, n + 1):
            params = fam.resolve_params(n, window=knob)
            want_err, want_flag = _brute_biased(family, n, params,
                                                alpha, beta)
            cuts = fam.speculation_cuts(n, **params)
            err = speculation_mass(n, cuts, "error", (k, g, p),
                                   cin=(1.0, 0.0))
            flag = fam.flag_probability(n, p, g, **params)
            assert err == pytest.approx(want_err, rel=1e-9, abs=1e-15)
            assert flag == pytest.approx(want_flag, rel=1e-9, abs=1e-15)
            # The autotuner forecasts through the same method.
            assert predict_stall_rate(family, n, params, p, g) == \
                pytest.approx(want_flag, rel=1e-9, abs=1e-15)


def test_per_bit_triples():
    n, w = 8, 3
    per_bit = [pg_probabilities(0.5, 0.5)] * n
    uniform = aca_error_probability_biased(n, w, per_bit)
    assert uniform == pytest.approx(aca_error_probability(n, w), abs=1e-12)
    with pytest.raises(ValueError):
        aca_error_probability_biased(n, w, per_bit[:-1])


def test_high_propagate_bias_raises_error_rate():
    """Operands that XOR to long runs (e.g. x and ~x patterns) stall
    far more often than uniform traffic — the subtractor's x - x case."""
    n, w = 32, 8
    sleepy = aca_error_probability_biased(n, w, (0.9, 0.05, 0.05))
    uniform = aca_error_probability_biased(n, w, (0.5, 0.25, 0.25))
    assert sleepy > 10 * uniform


def test_biased_run_probability_matches_exact_at_half():
    for n in (16, 64):
        for r in (3, 5, 8):
            biased = run_at_least_probability_biased(n, r, 0.5)
            exact = prob_max_run_at_least(n, r)
            assert biased == pytest.approx(exact, abs=1e-12)


def test_biased_run_probability_edges():
    assert run_at_least_probability_biased(8, 0, 0.5) == 1.0
    assert run_at_least_probability_biased(8, 9, 0.5) == 0.0
    assert run_at_least_probability_biased(8, 3, 1.0) == pytest.approx(1.0)
    assert run_at_least_probability_biased(8, 3, 0.0) == 0.0
    with pytest.raises(ValueError):
        run_at_least_probability_biased(8, 3, 1.5)


def test_distribution_validation():
    with pytest.raises(ValueError):
        aca_error_probability_biased(8, 3, (0.5, 0.5, 0.5))
    with pytest.raises(ValueError):
        aca_error_probability_biased(8, 3, cin_weight=2.0)
