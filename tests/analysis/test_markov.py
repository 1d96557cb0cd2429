"""Theorem 1: three independent computations must agree."""

import numpy as np
import pytest

from repro.analysis import (
    expected_flips_closed_form,
    expected_flips_linear_solve,
    expected_flips_monte_carlo,
    expected_flips_recurrence,
)


@pytest.mark.parametrize("k", range(0, 16))
def test_closed_form_equals_recurrence(k):
    assert expected_flips_closed_form(k) == expected_flips_recurrence(k)


@pytest.mark.parametrize("k", range(0, 12))
def test_closed_form_equals_linear_solve(k):
    assert expected_flips_linear_solve(k) == pytest.approx(
        expected_flips_closed_form(k), rel=1e-9)


def test_linear_solve_is_exact_at_k24():
    assert expected_flips_linear_solve(24) == expected_flips_closed_form(24)


def test_known_values():
    assert expected_flips_closed_form(1) == 2
    assert expected_flips_closed_form(2) == 6
    assert expected_flips_closed_form(3) == 14
    assert expected_flips_closed_form(10) == 2046


@pytest.mark.parametrize("k", [1, 2, 4, 6])
def test_monte_carlo_agrees(k):
    rng = np.random.default_rng(42)
    estimate = expected_flips_monte_carlo(k, trials=4000, rng=rng)
    exact = expected_flips_closed_form(k)
    assert estimate == pytest.approx(exact, rel=0.1)


def test_k_zero_needs_no_flips():
    assert expected_flips_closed_form(0) == 0
    assert expected_flips_linear_solve(0) == 0.0
    assert expected_flips_monte_carlo(0, trials=5) == 0.0


def test_negative_k_rejected():
    for fn in (expected_flips_closed_form, expected_flips_recurrence,
               expected_flips_linear_solve):
        with pytest.raises(ValueError):
            fn(-1)
    with pytest.raises(ValueError):
        expected_flips_monte_carlo(-1)


def test_exponential_growth():
    """The paper's point: reaching a k-run costs exponential time, so
    long propagate chains are exponentially rare."""
    values = [expected_flips_closed_form(k) for k in range(1, 12)]
    ratios = [b / a for a, b in zip(values, values[1:])]
    assert all(1.9 < r <= 3.0 for r in ratios)
    assert ratios[-1] == pytest.approx(2.0, abs=0.01)  # -> 2 asymptotically
