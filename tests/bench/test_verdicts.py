"""Deterministic gate verdicts on fixed sample sets.

``tests/bench/test_gate.py`` drives the whole ``bench gate`` verb with
real 2 ms sleeps, so its outcome depends on the host's scheduling.
These tests feed ``compare_payloads`` (and through it
``stats.classify``) and ``render_markdown`` hand-made sample sets of
the same shape, six samples of a ~2 ms probe, so every verdict here is
a fixed function of its inputs.
"""

import pytest

from repro.bench.compare import compare_payloads, render_markdown
from repro.bench.stats import (VERDICT_IMPROVED, VERDICT_REGRESSED,
                               VERDICT_UNCHANGED)

#: Six samples of a 2 ms probe with 0.5% steps between them.
BASE = [0.002 * (1 + 0.005 * i) for i in range(6)]
#: One scheduling delay of the probe's own length.
DELAY = 0.0025


def _payload(**samples):
    return {"suite": "toy", "preset": "small", "host": {},
            "benchmarks": [{"name": name, "samples_s_per_call": list(s)}
                           for name, s in samples.items()]}


def _verdicts(base, current):
    comp = compare_payloads(_payload(**base), _payload(**current))
    return comp, {row.name: row.verdict for row in comp.rows}


def test_2x_shift_regresses_only_that_bench():
    comp, verdicts = _verdicts({"probe_a": BASE, "probe_b": BASE},
                               {"probe_a": BASE,
                                "probe_b": [2 * x for x in BASE]})
    assert verdicts == {"probe_a": VERDICT_UNCHANGED,
                        "probe_b": VERDICT_REGRESSED}
    assert not comp.ok and comp.regressed == ["probe_b"]
    summary = render_markdown([comp])
    assert "**FAIL**" in summary
    assert "| `probe_b` | 🔴 regressed |" in summary
    assert "| `probe_a` | 🔴" not in summary


def test_no_shift_is_unchanged_and_green():
    comp, verdicts = _verdicts({"probe_a": BASE, "probe_b": BASE},
                               {"probe_a": list(reversed(BASE)),
                                "probe_b": BASE})
    assert set(verdicts.values()) == {VERDICT_UNCHANGED}
    assert comp.ok
    assert "**PASS**" in render_markdown([comp])


def test_improvement_is_flagged_but_does_not_fail_the_gate():
    comp, verdicts = _verdicts({"probe": BASE},
                               {"probe": [x / 2 for x in BASE]})
    assert verdicts == {"probe": VERDICT_IMPROVED}
    assert comp.ok and comp.regressed == []
    assert "🟢 improved" in render_markdown([comp])


@pytest.mark.parametrize("k", range(6))
def test_one_delayed_sample_without_a_shift_stays_unchanged(k):
    current = list(BASE)
    current[k] += DELAY
    _, verdicts = _verdicts({"probe": BASE}, {"probe": current})
    assert verdicts == {"probe": VERDICT_UNCHANGED}


@pytest.mark.parametrize("k", range(6))
def test_one_delayed_sample_in_a_2x_run_still_regresses(k):
    current = [2 * x for x in BASE]
    current[k] += DELAY
    _, verdicts = _verdicts({"probe": BASE}, {"probe": current})
    assert verdicts == {"probe": VERDICT_REGRESSED}


def test_one_delayed_baseline_sample_masks_a_2x_shift_at_six_samples():
    # Why the sleep-based gate tests flake: with 6 + 6 samples, one
    # baseline sample delayed past the whole 2x run leaves Mann-Whitney
    # at p = 0.0649 > 0.05, so the shift reads as unchanged.  Twelve
    # samples each, with the same single delay, are decisive.
    base = list(BASE)
    base[0] += DELAY
    comp, verdicts = _verdicts({"probe": base},
                               {"probe": [2 * x for x in BASE]})
    assert verdicts == {"probe": VERDICT_UNCHANGED}
    assert comp.rows[0].comparison.p_value == pytest.approx(0.0649, abs=1e-4)

    base12 = [0.002 * (1 + 0.0025 * i) for i in range(12)]
    delayed12 = [base12[0] + DELAY] + base12[1:]
    _, verdicts = _verdicts({"probe": delayed12},
                            {"probe": [2 * x for x in base12]})
    assert verdicts == {"probe": VERDICT_REGRESSED}
