"""Cycle-accurate VLSA machine: latency accounting and correctness."""

import hashlib

import numpy as np
import pytest

from repro.arch import VlsaMachine
from repro.mc import detector_flag


def _random_pairs(rng, width, count):
    return [(rng.getrandbits(width), rng.getrandbits(width))
            for _ in range(count)]


def test_every_result_is_correct(rng):
    machine = VlsaMachine(16, window=3)  # small window: frequent stalls
    pairs = _random_pairs(rng, 16, 500)
    trace = machine.run(pairs)
    mask = 0xFFFF
    for r in trace.results:
        total = r.a + r.b
        assert r.sum_out == total & mask
        assert r.cout == total >> 16
    assert trace.stall_count > 0


def test_latency_is_one_unless_flagged(rng):
    width, window = 16, 4
    machine = VlsaMachine(width, window=window)
    pairs = _random_pairs(rng, width, 400)
    trace = machine.run(pairs)
    for r in trace.results:
        expected_flag = detector_flag(r.a, r.b, width, window)
        assert r.stalled == expected_flag
        assert r.latency_cycles == (2 if expected_flag else 1)
        if not r.stalled:
            assert r.speculative_correct


def test_total_cycles_equals_sum_of_latencies(rng):
    machine = VlsaMachine(16, window=3, recovery_cycles=2)
    trace = machine.run(_random_pairs(rng, 16, 200))
    assert trace.total_cycles == sum(r.latency_cycles
                                     for r in trace.results)
    assert trace.operations == 200


def test_average_latency_near_one_at_9999_window(rng):
    machine = VlsaMachine(64)  # default 99.99% window
    trace = machine.run(_random_pairs(rng, 64, 20000))
    assert 1.0 <= trace.average_latency_cycles < 1.002


def test_forced_stall_scenario():
    """A full-width carry chain must stall; a trivial add must not."""
    width = 32
    machine = VlsaMachine(width, window=6)
    mask = (1 << width) - 1
    chain_a = mask >> 1  # 0111..1
    chain_b = 1
    trace = machine.run([(1, 2), (chain_a, chain_b), (3, 4)])
    assert [r.stalled for r in trace.results] == [False, True, False]
    assert trace.results[1].sum_out == (chain_a + chain_b) & mask
    assert trace.results[1].latency_cycles == 2


def test_speedup_over_traditional():
    machine = VlsaMachine(16, window=16, clock_period=0.5)
    trace = machine.run([(1, 1)] * 10)
    assert trace.speedup_over(1.0) == pytest.approx(2.0)
    assert trace.average_latency_time == pytest.approx(0.5)


def test_trace_renders_diagram_and_vcd(rng):
    machine = VlsaMachine(16, window=3)
    trace = machine.run(_random_pairs(rng, 16, 10))
    diagram = trace.timing_diagram()
    assert "CLK" in diagram and "STALL" in diagram
    vcd = trace.to_vcd()
    assert "$var wire 16" in vcd and "valid" in vcd


def test_empty_trace():
    machine = VlsaMachine(8, window=2)
    trace = machine.run([])
    assert trace.operations == 0
    assert trace.average_latency_cycles == 0.0
    assert trace.timing_diagram() == "(empty trace)"
    with pytest.raises(ValueError):
        trace.speedup_over(1.0)


def test_window_defaults_and_validation():
    from repro.analysis import choose_window

    machine = VlsaMachine(64)
    assert machine.window == choose_window(64)
    with pytest.raises(ValueError):
        VlsaMachine(16, window=4, recovery_cycles=0)


def _fields(trace):
    return [tuple(vars(r).values()) for r in trace.results]


def test_uint64_array_stream_matches_int_pairs(rng):
    """The ``(n, 2)`` uint64 form the executor and edge pass runs the
    same trace as the equivalent int pairs, operands past bit 63 and
    all-propagate words included."""
    pairs = _random_pairs(rng, 64, 300) + [((1 << 64) - 2, 1),
                                           ((1 << 63) - 1, 1)]
    by_ints = VlsaMachine(64, window=6).run(pairs)
    by_array = VlsaMachine(64, window=6).run(
        np.array(pairs, dtype=np.uint64))
    assert by_ints.stall_count > 0
    assert _fields(by_array) == _fields(by_ints)
    assert by_array.total_cycles == by_ints.total_cycles
    assert by_array.to_vcd() == by_ints.to_vcd()


def test_scan_accounts_cycles_across_blocks(rng):
    """Accept cycles keep running over the model's fixed-size blocks."""
    recovery = 3
    pairs = _random_pairs(rng, 12, 2 * 4096 + 7)
    machine = VlsaMachine(12, window=3, recovery_cycles=recovery)
    trace = machine.run(iter(pairs))
    cycle = 0
    for i, r in enumerate(trace.results):
        assert (r.index, r.accept_cycle) == (i, cycle)
        assert r.latency_cycles == 1 + recovery * r.stalled
        cycle += r.latency_cycles
    assert trace.operations == len(pairs)
    assert machine.clock.cycle == trace.total_cycles == cycle


def test_golden_vcd_and_timing_diagram():
    """Byte-for-byte outputs of a stream with a stall that is not an
    error (``0xFE + 1`` carries nothing into its propagate run) and an
    operand wider than the word."""
    machine = VlsaMachine(8, window=3, recovery_cycles=2)
    trace = machine.run([(1, 2), (0xFE, 1), (4, 2), (0xFE, 1), (2, 1),
                         (0x1FF, 3)])
    assert trace.total_cycles == 12
    assert hashlib.sha256(trace.to_vcd().encode()).hexdigest() == (
        "6031b2d9318b6c112b2258cbfdd4a67e7bf6c047f3e9b7bfa041e453511392a7")
    assert hashlib.sha256(trace.timing_diagram().encode()).hexdigest() == (
        "5849044859ef6fb4a6de39a5337a76567c663c5a3b870629a668a08e0447854c")


_SILENT_DETECTOR = """
import sys
from repro.arch import VlsaMachine
from repro.core import multiplier
from repro.families.aca import AcaModel

print("optimize", sys.flags.optimize)
rule = AcaModel.rule


def silent(self, *args):
    out = rule(self, *args)
    return out._replace(flags=out.flags & False)


AcaModel.rule = silent
try:
    VlsaMachine(16, window=4).run([(0x7FFF, 1)])
except AssertionError as exc:
    print("machine:", exc)
multiplier.simulate_bus_ints = lambda circuit, vectors: {"product": -1,
                                                         "err": 0}
try:
    multiplier.multiplier_error_rate(4, 2, samples=1)
except AssertionError as exc:
    print("multiplier:", exc)
"""


def test_never_miss_checks_survive_python_O():
    """A silent detector raises under ``python -O`` too, instead of the
    machine returning a wrong "corrected" sum (asserts are stripped)."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-O", "-c", _SILENT_DETECTOR],
                         env=env, capture_output=True, text=True,
                         timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "optimize 1",
        "machine: detector must never miss an error",
        "multiplier: detector must never miss",
    ]
