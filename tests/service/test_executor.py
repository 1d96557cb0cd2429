"""Batch executor: the family rule on lanes vs the functional model's
three-pass reference vs VlsaMachine."""

import numpy as np
import pytest

from repro.arch import VlsaMachine
from repro.engine.functional import functional_model
from repro.families.base import family_names
from repro.mc.fastsim import detector_flag
from repro.service import VlsaBatchExecutor


def _pairs(rng, width, count):
    return [(rng.getrandbits(width), rng.getrandbits(width))
            for _ in range(count)]


def _propagate_pairs(rng, width, count):
    """``b = ~a`` (all-propagate) and ``b = ~a ^ 1`` (a carry generated
    or killed at bit 0, then propagated across the word) pairs."""
    mask = (1 << width) - 1
    pairs = []
    for _ in range(count):
        a = rng.getrandbits(width)
        pairs += [(a, ~a & mask), (a, (~a ^ 1) & mask)]
    return pairs


def _assert_matches_reference(family, width, window, pairs,
                              recovery_cycles=1):
    """The executor's outcome for *pairs* equals the one the functional
    model's three-pass ``run_arrays`` implies; returns the outcome."""
    out = VlsaBatchExecutor(width, window=window,
                            recovery_cycles=recovery_cycles,
                            family=family).execute(pairs)
    ref = functional_model(family, width=width, window=window).run_arrays(
        [a for a, _ in pairs], [b for _, b in pairs])
    latencies = np.where(ref.flags, 1 + recovery_cycles, 1)
    assert out.sums == ref.exact_sums.tolist(), family
    assert out.couts == ref.exact_couts.tolist(), family
    assert out.stalled == ref.flags.tolist(), family
    assert out.spec_errors == (ref.flags & ref.spec_errors).tolist(), family
    assert out.latencies == latencies.tolist(), family
    assert out.cycles == int(latencies.sum()), family
    return out


@pytest.mark.parametrize("width,window", [(8, 2), (16, 4), (32, 8),
                                          (63, 10), (64, 12), (16, 16),
                                          (65, 12), (96, 14), (128, 16)])
def test_numpy_matches_bigint(rng, width, window):
    """The executor (the verifier's ``service:numpy`` row: one pass of
    the rule, uint64 lanes up to 64 bits, Python ints above) against the
    functional model's ``run_arrays`` (``add``/``flags_error``/``exact``
    in three passes), for every family, all-propagate pairs included."""
    pairs = _pairs(rng, width, 400) + _propagate_pairs(rng, width, 50)
    for family in family_names():
        _assert_matches_reference(family, width, window, pairs)


def test_sums_always_exact(rng):
    width = 64
    executor = VlsaBatchExecutor(width, window=6)  # frequent stalls
    pairs = _pairs(rng, width, 300)
    out = executor.execute(pairs)
    mask = (1 << width) - 1
    for (a, b), s, c in zip(pairs, out.sums, out.couts):
        assert s == (a + b) & mask
        assert c == (a + b) >> width
    assert out.stall_count > 0


def test_matches_vlsa_machine_semantics(rng):
    """Per-op latency/stall accounting must equal the Fig. 6 machine."""
    width, window, recovery = 16, 3, 2
    pairs = _pairs(rng, width, 250)
    machine = VlsaMachine(width, window=window, recovery_cycles=recovery)
    trace = machine.run(pairs)
    out = VlsaBatchExecutor(width, window=window,
                            recovery_cycles=recovery).execute(pairs)
    assert out.stalled == [r.stalled for r in trace.results]
    assert out.latencies == [r.latency_cycles for r in trace.results]
    assert out.sums == [r.sum_out for r in trace.results]
    assert out.couts == [r.cout for r in trace.results]
    assert out.cycles == trace.total_cycles


def test_stall_iff_detector_fires(rng):
    width, window = 32, 5
    pairs = _pairs(rng, width, 200)
    out = VlsaBatchExecutor(width, window=window).execute(pairs)
    for (a, b), stalled in zip(pairs, out.stalled):
        assert stalled == detector_flag(a, b, width, window)


def test_spec_errors_subset_of_stalls(rng):
    out = VlsaBatchExecutor(16, window=3).execute(_pairs(rng, 16, 500))
    for err, stall in zip(out.spec_errors, out.stalled):
        assert not err or stall  # detector never misses a real error
    assert out.spec_error_count <= out.stall_count


def test_wide_bigint_fallback(rng):
    """Widths beyond a machine word run on Python-int (object) lanes."""
    executor = VlsaBatchExecutor(128, window=8)
    pairs = _pairs(rng, 128, 50)
    out = executor.execute(pairs)
    assert out.column("sums").dtype == object
    mask = (1 << 128) - 1
    for (a, b), s in zip(pairs, out.sums):
        assert s == (a + b) & mask


def test_empty_batch():
    out = VlsaBatchExecutor(64).execute([])
    assert out.size == 0
    assert out.cycles == 0


def test_configuration_validation():
    with pytest.raises(ValueError):
        VlsaBatchExecutor(0)
    with pytest.raises(ValueError):
        VlsaBatchExecutor(64, recovery_cycles=0)


def test_window_equal_width_matches_reference_detector(rng):
    """window == width: speculation is exact, but the ACA detector
    still fires on an all-propagate word — the executor must agree with
    the reference."""
    width = 8
    pairs = (_pairs(rng, width, 200) + _propagate_pairs(rng, width, 20)
             + [(0, 255), (0x0F, 0xF0), (255, 255)])
    for family in family_names():
        out = _assert_matches_reference(family, width, width, pairs)
        # The bit-0-anchored window covers every bit, so speculation is
        # never actually wrong at window == width.
        assert out.spec_error_count == 0, family
        if family == "aca":
            # (0, 255) and (0x0F, 0xF0) propagate across the whole word.
            assert out.stalled[-3:] == [True, True, False]


def test_out_of_range_operands_masked_consistently():
    """Negative / >= 2^64 operands must not raise out of a batch; uint64
    and Python-int lanes both mask to the operand width."""
    pairs = [(1 << 200, -1), ((1 << 64) + 3, 4), (5, 7)]
    for width in (16, 96):
        mask = (1 << width) - 1
        out = VlsaBatchExecutor(width, window=4).execute(pairs)
        assert out.sums == [((a & mask) + (b & mask)) & mask
                            for a, b in pairs]
        masked = [(a & mask, b & mask) for a, b in pairs]
        ref = VlsaBatchExecutor(width, window=4).execute(masked)
        assert out == ref


def test_executor_counters_flow_into_context():
    from repro.engine import RunContext

    ctx = RunContext(seed=0)
    executor = VlsaBatchExecutor(16, window=3, ctx=ctx)
    executor.execute([(0x7FFF, 1), (1, 2)])
    assert ctx.counters["service_ops"] == 2
    assert ctx.counters["service_stalls"] == 1
    assert ctx.counters["service_batches"] == 1
    assert "service_execute" in ctx.phases
