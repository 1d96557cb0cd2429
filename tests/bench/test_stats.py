"""The regression-detection stats engine against synthetic
distributions.

The contract under test: injected 2x and 1.2x slowdowns must be
flagged ``regressed``, +-3% scheduler-style jitter must stay
``unchanged``, and ``classify(a, a)`` is ``unchanged`` for *any*
sample set (property-tested).  Everything is seeded and deterministic.
"""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bench.stats import (VERDICT_IMPROVED, VERDICT_REGRESSED,
                               VERDICT_UNCHANGED, bootstrap_ci, classify,
                               mann_whitney_u, median)

SEED = 0xBE7C


def synthetic_samples(n=8, mean=1.0, rel_noise=0.01, seed=SEED):
    """Seeded timing-like samples: positive, small gaussian spread."""
    rng = random.Random(seed)
    return [max(1e-9, mean * (1.0 + rng.gauss(0.0, rel_noise)))
            for _ in range(n)]


# ---------------------------------------------------------------- classify

@pytest.mark.parametrize("factor", [2.0, 1.2])
def test_injected_slowdown_is_flagged_regressed(factor):
    base = synthetic_samples()
    slow = [x * factor for x in synthetic_samples(seed=SEED + 1)]
    comp = classify(base, slow)
    assert comp.verdict == VERDICT_REGRESSED
    assert comp.effect == pytest.approx(factor - 1.0, rel=0.15)
    assert comp.p_value < comp.alpha


@pytest.mark.parametrize("jitter", [0.03, -0.03, 0.0])
def test_small_jitter_is_not_flagged(jitter):
    base = synthetic_samples()
    wiggled = [x * (1.0 + jitter) for x in
               synthetic_samples(seed=SEED + 2)]
    assert classify(base, wiggled).verdict == VERDICT_UNCHANGED


def test_injected_speedup_is_flagged_improved():
    base = synthetic_samples()
    fast = [x / 2.0 for x in synthetic_samples(seed=SEED + 3)]
    assert classify(base, fast).verdict == VERDICT_IMPROVED


def test_one_outlier_does_not_hide_a_halved_median():
    # An oversleep outlier among 12 samples stretches a bootstrap CI of
    # the mean across the baseline's; the median's CI stays put.
    base = synthetic_samples(n=12)
    fast = [x / 2.0 for x in synthetic_samples(n=12, seed=SEED + 5)]
    fast[3] = 3.0 * median(base)
    comp = classify(base, fast)
    assert comp.verdict == VERDICT_IMPROVED
    assert comp.effect == pytest.approx(-0.5, abs=0.05)
    assert comp.current_ci[1] < comp.baseline_ci[0]


def test_one_fast_sample_does_not_hide_a_small_sample_slowdown():
    # At five samples a bootstrap CI of the median spans the whole
    # sample range, so one current sample below the slowest baseline
    # one would make the medians' CIs overlap; the U test still rejects
    # (one inverted pair) and the tighter CIs of the means stay apart.
    base = synthetic_samples(n=5)
    slow = [x * 1.2 for x in synthetic_samples(n=5, seed=SEED + 6)]
    ranked = sorted(base)
    slow[0] = (ranked[-2] + ranked[-1]) / 2.0
    comp = classify(base, slow)
    assert comp.verdict == VERDICT_REGRESSED
    assert comp.p_value < comp.alpha
    assert comp.current_ci[0] > comp.baseline_ci[1]


def test_threshold_is_configurable():
    base = synthetic_samples(rel_noise=0.001)
    slow = [x * 1.2 for x in synthetic_samples(rel_noise=0.001,
                                               seed=SEED + 4)]
    # 1.2x is a regression at the 10% threshold but not at 30%.
    assert classify(base, slow, threshold=0.10).verdict == VERDICT_REGRESSED
    assert classify(base, slow, threshold=0.30).verdict == VERDICT_UNCHANGED


def test_big_shift_without_significance_stays_unchanged():
    # Two samples a side: the exact Mann-Whitney p-value can never
    # reach alpha, so even a 2x shift must not be flagged — the gate
    # refuses to conclude from statistically hopeless sample counts.
    comp = classify([1.0, 1.01], [2.0, 2.02])
    assert comp.verdict == VERDICT_UNCHANGED
    assert comp.p_value >= comp.alpha


@given(st.lists(st.floats(min_value=1e-9, max_value=1e3,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=24))
def test_compare_identical_samples_is_always_unchanged(samples):
    comp = classify(samples, list(samples))
    assert comp.verdict == VERDICT_UNCHANGED
    assert comp.effect == 0.0


@given(st.lists(st.floats(min_value=1e-6, max_value=1e3,
                          allow_nan=False, allow_infinity=False),
                min_size=2, max_size=16),
       st.floats(min_value=2.0, max_value=10.0))
def test_scaling_any_distribution_by_2x_never_reports_improved(xs, k):
    """A uniform slowdown can classify regressed or unchanged (when
    the samples are too noisy/few to be sure) but never improved."""
    comp = classify(xs, [x * k for x in xs])
    assert comp.verdict in (VERDICT_REGRESSED, VERDICT_UNCHANGED)
    assert comp.effect >= 0.0


# ------------------------------------------------------------ mann-whitney

def test_mwu_exact_p_for_fully_separated_samples():
    # n = m = 5 fully separated: one-sided tail 1/C(10,5), two-sided
    # doubles it -> 2/252.
    u, p = mann_whitney_u([6, 7, 8, 9, 10], [1, 2, 3, 4, 5])
    assert u == 25.0
    assert p == pytest.approx(2.0 / 252.0)


def test_mwu_symmetry_and_identical_samples():
    a, b = [1.0, 2.0, 3.0], [1.5, 2.5, 3.5]
    u_ab, p_ab = mann_whitney_u(a, b)
    u_ba, p_ba = mann_whitney_u(b, a)
    assert u_ab + u_ba == pytest.approx(len(a) * len(b))
    assert p_ab == pytest.approx(p_ba)
    _, p_same = mann_whitney_u(a, a)
    assert p_same == 1.0


def test_mwu_all_constant_samples_has_no_evidence():
    _, p = mann_whitney_u([1.0] * 6, [1.0] * 6)
    assert p == 1.0


def test_mwu_normal_approx_agrees_with_exact_on_moderate_n():
    rng = random.Random(SEED)
    a = [rng.gauss(0.0, 1.0) for _ in range(12)]
    b = [rng.gauss(1.2, 1.0) for _ in range(12)]
    _, p_exact = mann_whitney_u(a, b, exact_limit=1000)
    _, p_approx = mann_whitney_u(a, b, exact_limit=0)
    # Deep in the tail the normal approximation is only
    # order-of-magnitude accurate; both must agree on the verdict and
    # stay within a small constant factor.
    assert p_exact < 0.01 and p_approx < 0.01
    assert 1 / 3 < p_exact / p_approx < 3


# --------------------------------------------------------------- bootstrap

def test_bootstrap_ci_brackets_the_mean_and_is_deterministic():
    xs = synthetic_samples(n=16, mean=3.0, rel_noise=0.05)
    lo, hi = bootstrap_ci(xs, seed=7)
    assert lo <= sum(xs) / len(xs) <= hi
    assert (lo, hi) == bootstrap_ci(xs, seed=7)
    assert (lo, hi) != bootstrap_ci(xs, seed=8)


def test_bootstrap_ci_single_sample_is_degenerate():
    assert bootstrap_ci([2.5]) == (2.5, 2.5)


def test_bootstrap_ci_width_shrinks_with_less_noise():
    tight = bootstrap_ci(synthetic_samples(n=12, rel_noise=0.001))
    loose = bootstrap_ci(synthetic_samples(n=12, rel_noise=0.2))
    assert tight[1] - tight[0] < loose[1] - loose[0]


def test_median_odd_even():
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 2, 3]) == 2.5
    with pytest.raises(ValueError):
        median([])
