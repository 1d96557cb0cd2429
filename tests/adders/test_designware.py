"""DesignWare-proxy baseline selection."""

import pytest

from repro.adders import (
    FAST_CANDIDATES,
    build_best_traditional,
    evaluate_candidates,
    reference_fn,
)
from repro.circuit import UMC180, UNIT, assert_equivalent_random


def test_results_sorted_by_delay():
    results = evaluate_candidates(32, UMC180)
    delays = [r.delay for r in results]
    assert delays == sorted(delays)
    assert len(results) == len(FAST_CANDIDATES)


def test_best_is_first():
    results = evaluate_candidates(32, UMC180)
    best = build_best_traditional(32, UMC180)
    assert best.name == results[0].name
    assert best.delay == results[0].delay


def test_best_traditional_is_functionally_correct():
    best = build_best_traditional(24, UMC180)
    assert_equivalent_random(best.circuit, reference_fn(24, False),
                             num_vectors=128)


def test_memoisation_returns_same_objects():
    r1 = evaluate_candidates(16, UMC180)
    r2 = evaluate_candidates(16, UMC180)
    assert r1 is r2


def test_subset_evaluation_not_cached():
    subset = evaluate_candidates(16, UMC180, names=["ripple"]
                                 if "ripple" in FAST_CANDIDATES
                                 else ["sklansky"])
    assert len(subset) == 1


def test_unit_library_prefers_minimum_depth():
    """With unit delays the winner must be a minimum-depth architecture."""
    best = build_best_traditional(64, UNIT)
    from repro.circuit import analyze_timing
    depth = analyze_timing(best.circuit, UNIT).critical_delay
    # log2(64) = 6 combine levels + pg + sum = 8 unit delays.
    assert depth <= 8


def test_best_beats_ripple():
    from repro.adders import build_ripple_adder
    from repro.circuit import analyze_timing

    best = build_best_traditional(64, UMC180)
    ripple = analyze_timing(build_ripple_adder(64), UMC180).critical_delay
    assert best.delay < ripple / 3


def test_baseline_classic_facts_at_256_bits():
    """Section 2's state of the art: ripple is the smallest and, of the
    non-skip architectures, the slowest (a skip adder's bypass is a
    false path plain STA cannot credit); prefix adders are the fastest."""
    from repro.adders import ADDER_BUILDERS, build_adder
    from repro.circuit import analyze_area, analyze_timing

    rows = {}
    for name in ADDER_BUILDERS:
        c = build_adder(name, 256)
        rows[name] = (analyze_timing(c, UMC180).critical_delay,
                      analyze_area(c, UMC180).total, c.logic_depth())
    non_skip = [r for name, r in rows.items() if "skip" not in name]
    assert rows["ripple"][0] == max(r[0] for r in non_skip)
    assert rows["ripple"][1] == min(r[1] for r in rows.values())
    assert rows["kogge_stone"][2] <= rows["brent_kung"][2]
    assert min(r[0] for r in rows.values()) < rows["ripple"][0] / 10
