"""Metrics registry: counters, gauges, histograms, exports."""

import random
import statistics

import pytest

from repro.service import Counter, Gauge, Histogram, MetricsRegistry


def test_counter_monotonic():
    c = Counter("ops_total")
    c.inc()
    c.inc(41)
    assert c.value == 42
    with pytest.raises(ValueError):
        c.inc(-1)


def test_gauge_tracks_peak():
    g = Gauge("depth")
    g.set(3)
    g.set(7)
    g.set(2)
    assert g.value == 2
    assert g.peak == 7
    g.inc(10)
    assert g.value == 12
    assert g.peak == 12
    g.dec(5)
    assert g.value == 7
    assert g.peak == 12  # dec never lowers the peak


def test_histogram_exact_aggregates():
    h = Histogram("lat")
    for v in (1.0, 2.0, 3.0, 4.0):
        h.record(v)
    assert h.count == 4
    assert h.sum == pytest.approx(10.0)
    assert h.mean == pytest.approx(2.5)
    assert h.min == 1.0
    assert h.max == 4.0


def test_histogram_bulk_record_and_quantiles():
    h = Histogram("cycles")
    h.record(1, count=9900)
    h.record(2, count=100)
    assert h.count == 10000
    assert h.mean == pytest.approx(1.01)
    assert h.quantile(0.5) == 1.0
    assert h.quantile(0.99) in (1.0, 2.0)
    assert h.quantile(1.0) == 2.0


def test_histogram_reservoir_bounded_and_deterministic():
    h1 = Histogram("x", reservoir_size=64, seed=7)
    h2 = Histogram("x", reservoir_size=64, seed=7)
    for i in range(10000):
        h1.record(i % 97)
        h2.record(i % 97)
    assert len(h1._reservoir) == 64
    # Same seed, same stream -> identical quantiles (reproducibility).
    for q in (0.5, 0.95, 0.99):
        assert h1.quantile(q) == h2.quantile(q)


def test_histogram_bulk_record_is_bounded_by_reservoir():
    """Bulk recording must not do O(count) work: ten million samples
    per call would hang a per-sample loop.  Memory stays bounded by
    the reservoir whatever the count."""
    h = Histogram("lat", reservoir_size=128, seed=3)
    h.record(1.0, count=10_000_000)
    h.record(2.0, count=10_000_000)
    assert h.count == 20_000_000
    assert h.sum == pytest.approx(30_000_000.0)
    assert h.mean == pytest.approx(1.5)
    assert len(h._reservoir) == 128
    # The second block replaces each slot with marginal probability
    # 1/2, so both values are represented in the reservoir.
    assert set(h._reservoir) == {1.0, 2.0}
    assert h.quantile(0.05) == 1.0
    assert h.quantile(0.95) == 2.0


class _CountingRandom(random.Random):
    """A seeded RNG that counts its ``random()`` draws."""

    def __init__(self, seed):
        super().__init__(seed)
        self.draws = 0

    def random(self):
        self.draws += 1
        return super().random()


def test_histogram_bulk_record_costs_slots_replaced_not_reservoir():
    # After a million samples a 64-sample block overwrites each of the
    # 8192 slots with p ~ 6.4e-5: ~0.5 slots, ~1.5 draws expected.  A
    # per-slot test would make 8192 draws.
    h = Histogram("lat", seed=0)
    h._rng = _CountingRandom(0)
    h.record(1, count=10**6)
    h._rng.draws = 0
    h.record(2, count=64)
    assert h._rng.draws <= 20
    assert h.count == 10**6 + 64
    assert len(h._reservoir) == 8192


@pytest.mark.parametrize("before, block, mean, var", [
    # p = 0.5, above the skip threshold: every slot is tested.
    (1000, 1000, (495, 505), (150, 350)),
    # p = 0.1: the gaps between overwritten slots are drawn.
    (9000, 1000, (97, 103), (50, 130)),
])
def test_histogram_bulk_record_keeps_binomial_sampling_law(
        before, block, mean, var):
    # A full 1000-slot reservoir that has seen *before* samples takes a
    # block of *block* equal ones: each slot is overwritten with
    # p = block / (before + block), so the number overwritten is
    # Binomial(1000, p) (mean 1000p, variance 1000p(1 - p); the bounds
    # are ~4 standard errors over 200 trials), and overwrites are
    # spread evenly over the slots.
    overwritten = []
    first_half = 0
    for trial in range(200):
        h = Histogram("lat", reservoir_size=1000, seed=trial)
        h.record(1, count=before)
        h.record(2, count=block)
        overwritten.append(h._reservoir.count(2.0))
        first_half += h._reservoir[:500].count(2.0)
    assert mean[0] <= statistics.mean(overwritten) <= mean[1]
    assert var[0] <= statistics.variance(overwritten) <= var[1]
    assert abs(first_half / sum(overwritten) - 0.5) < 0.02


def test_histogram_bulk_record_is_deterministic_per_seed():
    stream = [(1, 5000), (2, 64), (3, 9000), (1, 1), (4, 128), (5, 2)]
    h1 = Histogram("x", reservoir_size=512, seed=11)
    h2 = Histogram("x", reservoir_size=512, seed=11)
    for value, count in stream * 20:
        h1.record(value, count=count)
        h2.record(value, count=count)
    assert h1._reservoir == h2._reservoir
    assert h1.to_json() == h2.to_json()


def test_histogram_validation():
    h = Histogram("x")
    with pytest.raises(ValueError):
        h.record(1.0, count=0)
    with pytest.raises(ValueError):
        h.quantile(1.5)
    with pytest.raises(ValueError):
        Histogram("x", reservoir_size=0)


def test_registry_idempotent_and_kind_checked():
    reg = MetricsRegistry()
    c1 = reg.counter("ops_total")
    c2 = reg.counter("ops_total")
    assert c1 is c2
    with pytest.raises(TypeError):
        reg.gauge("ops_total")
    assert reg.get("missing") is None
    assert reg.names() == ["ops_total"]


def test_json_export_shapes():
    reg = MetricsRegistry()
    reg.counter("a").inc(3)
    reg.gauge("b").set(1.5)
    reg.histogram("c").record(2.0)
    out = reg.to_json()
    assert out["a"] == {"type": "counter", "value": 3}
    assert out["b"] == {"type": "gauge", "value": 1.5, "peak": 1.5}
    assert out["c"]["count"] == 1
    assert set(out["c"]) >= {"p50", "p95", "p99", "mean", "sum"}


def test_prometheus_export_format():
    reg = MetricsRegistry(namespace="vlsa")
    reg.counter("ops_total", help="ops served").inc(5)
    reg.gauge("queue_depth").set(2)
    reg.histogram("latency_seconds").record(0.25)
    text = reg.to_prometheus()
    assert "# HELP vlsa_ops_total ops served" in text
    assert "# TYPE vlsa_ops_total counter" in text
    assert "vlsa_ops_total 5" in text
    assert "vlsa_queue_depth 2" in text
    assert "vlsa_queue_depth_peak 2" in text
    assert "# TYPE vlsa_latency_seconds summary" in text
    assert 'vlsa_latency_seconds{quantile="0.5"} 0.25' in text
    assert "vlsa_latency_seconds_count 1" in text


# ----------------------------------------------------------------------
# Cross-process merging (the cluster's aggregation primitive)
# ----------------------------------------------------------------------
def test_counter_merge_adds_values():
    a = Counter("ops_total")
    b = Counter("ops_total")
    a.inc(10)
    b.inc(32)
    a.merge(b)
    assert a.value == 42
    with pytest.raises(ValueError):
        a.merge_state({"value": -1})


def test_gauge_merge_adds_values_and_takes_peak():
    a = Gauge("depth")
    b = Gauge("depth")
    a.set(3)        # a: value 3, peak 3
    b.set(9)
    b.set(2)        # b: value 2, peak 9
    a.merge(b)
    assert a.value == 5
    assert a.peak == 9


def test_histogram_merge_exact_aggregates():
    a = Histogram("lat")
    b = Histogram("lat")
    for v in (1.0, 2.0):
        a.record(v)
    for v in (10.0, 20.0, 30.0):
        b.record(v)
    a.merge(b)
    assert a.count == 5
    assert a.sum == pytest.approx(63.0)
    assert a.min == 1.0
    assert a.max == 30.0


def test_histogram_merge_reservoir_stays_bounded_and_representative():
    a = Histogram("lat", reservoir_size=128, seed=1)
    b = Histogram("lat", reservoir_size=128, seed=2)
    for _ in range(5000):
        a.record(1.0)
    for _ in range(5000):
        b.record(100.0)
    a.merge(b)
    assert len(a._reservoir) <= 128
    # Both sides contributed equally; the subsample must reflect that
    # (weighted reservoir merge, not concatenate-and-truncate).
    ones = sum(1 for v in a._reservoir if v == 1.0)
    assert 0 < ones < len(a._reservoir)
    assert a.quantile(0.5) in (1.0, 100.0)


def test_registry_merge_snapshot_roundtrip():
    src = MetricsRegistry()
    src.counter("ops_total", "ops").inc(7)
    src.gauge("depth", "queue").set(3)
    src.histogram("lat", "latency").record(2.0, count=4)
    dst = MetricsRegistry()
    dst.counter("ops_total", "ops").inc(5)
    dst.merge_snapshot(src.state())
    assert dst.counter("ops_total").value == 12
    assert dst.gauge("depth").value == 3
    assert dst.histogram("lat").count == 4
    # Merging is additive and repeatable.
    dst.merge_snapshot(src.state())
    assert dst.counter("ops_total").value == 19


def test_registry_merge_rejects_kind_mismatch():
    src = MetricsRegistry()
    src.counter("x", "a counter").inc()
    dst = MetricsRegistry()
    dst.gauge("x", "a gauge").set(1)
    with pytest.raises(TypeError):
        dst.merge_snapshot(src.state())


def test_registry_merge_registries_directly():
    a = MetricsRegistry()
    b = MetricsRegistry()
    a.counter("ops_total").inc(1)
    b.counter("ops_total").inc(2)
    b.counter("only_b_total").inc(9)
    a.merge(b)
    assert a.counter("ops_total").value == 3
    assert a.counter("only_b_total").value == 9


def test_registry_merge_snapshot_empty_is_noop():
    reg = MetricsRegistry()
    reg.counter("ops_total").inc(4)
    reg.merge_snapshot({})
    assert reg.counter("ops_total").value == 4
    assert reg.names() == ["ops_total"]


def test_registry_merge_snapshot_partial_subset():
    src = MetricsRegistry()
    src.counter("ops_total").inc(3)
    src.gauge("depth").set(7)
    dst = MetricsRegistry()
    dst.counter("ops_total").inc(1)
    snap = src.state()
    del snap["depth"]  # a worker that never registered the gauge
    dst.merge_snapshot(snap)
    assert dst.counter("ops_total").value == 4
    assert dst.get("depth") is None


def test_registry_merge_snapshot_unknown_kind_rejected():
    reg = MetricsRegistry()
    with pytest.raises(KeyError):
        reg.merge_snapshot({"weird": {"kind": "summary", "help": "",
                                      "state": {"value": 1}}})


def test_registry_merge_snapshot_malformed_entry_rejected():
    reg = MetricsRegistry()
    with pytest.raises(KeyError):
        reg.merge_snapshot({"ops_total": {"help": "no kind field"}})


def test_registry_merge_snapshot_negative_counter_rejected():
    reg = MetricsRegistry()
    reg.counter("ops_total").inc(2)
    with pytest.raises(ValueError):
        reg.merge_snapshot({"ops_total": {"kind": "counter", "help": "",
                                          "state": {"value": -5}}})
    # The failed merge must not have corrupted the counter.
    assert reg.counter("ops_total").value == 2
