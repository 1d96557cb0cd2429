"""Metrics registry for the serving layer: counters, gauges, histograms.

The service layer needs the observability primitives every production
serving stack grows: monotonically increasing **counters** (operations,
stalls, rejections), point-in-time **gauges** with high-water marks
(queue depth, in-flight batch size) and **histograms** with quantile
estimates (request latency, batch size).  Everything is plain Python —
no external client library — and exports in two formats:

* :meth:`MetricsRegistry.to_json` — a nested dict for manifests and
  ``results/`` artifacts;
* :meth:`MetricsRegistry.to_prometheus` — Prometheus text exposition
  format, so a scraper pointed at the TCP front-end's ``metrics``
  command sees standard ``# TYPE``/``# HELP`` output.

Histograms keep exact count/sum/min/max plus a bounded reservoir
(Vitter's algorithm R with a *seeded* RNG, so quantiles are reproducible
run-to-run) from which p50/p95/p99 are computed.  Recording one sample
is O(1); bulk recording (``record(value, count=N)``) costs about one
RNG draw per reservoir slot it overwrites, independent of N and, once
the reservoir has filled, of its size.  After a histogram has seen
many samples a small batch overwrites well under one slot, so
recording a latency on every batch stays cheap on the serving hot
path, and memory stays bounded however many samples a load test
pushes.

Every instrument additionally supports **merging**, the primitive the
multi-process cluster is built on: a worker ships
:meth:`MetricsRegistry.state` (a picklable dict, including histogram
reservoirs) over its pipe, and the router folds any number of such
snapshots into one cluster-wide registry with
:meth:`MetricsRegistry.merge_snapshot`.  Counters add; gauges add their
current values and keep the max of the per-source peaks; histograms
combine exactly for count/sum/min/max and merge their reservoirs by
weighted subsampling (each element stands for ``count / len(reservoir)``
of its source population), so merged quantiles stay unbiased.
"""

from __future__ import annotations

import math
import random
import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

#: Largest per-slot overwrite probability for which a bulk record draws
#: the gaps between overwritten slots.  One gap draw (two logarithms)
#: costs about six per-slot ``random() < p`` tests on CPython, so a
#: bulk record expected to replace more than a sixth of the reservoir
#: (the first large batches after it fills) tests every slot instead.
_SKIP_MAX_P = 0.17


def _fmt(value: float) -> str:
    """Prometheus-friendly number formatting (ints stay ints)."""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class Counter:
    """A monotonically increasing counter.

    Args:
        name: Metric name (``snake_case``, no unit suffix enforcement).
        help: One-line description for the Prometheus exposition.
    """

    kind = "counter"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add *amount* (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def to_json(self) -> Dict[str, Any]:
        return {"type": self.kind, "value": self.value}

    def sample_lines(self) -> List[str]:
        return [f"{self.name} {_fmt(self.value)}"]

    def state(self) -> Dict[str, Any]:
        """Full picklable state for :meth:`merge_state` on another side."""
        return {"value": self.value}

    def merge(self, other: "Counter") -> None:
        """Fold *other* into this counter (disjoint sources add)."""
        self.merge_state(other.state())

    def merge_state(self, state: Dict[str, Any]) -> None:
        value = state["value"]
        if value < 0:
            raise ValueError("counters only go up")
        self.value += value


class Gauge:
    """A point-in-time value that also tracks its high-water mark."""

    kind = "gauge"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value: float = 0
        self.peak: float = 0

    def set(self, value: float) -> None:
        """Set the gauge (the peak is updated automatically)."""
        self.value = value
        if value > self.peak:
            self.peak = value

    def inc(self, amount: float = 1) -> None:
        self.set(self.value + amount)

    def dec(self, amount: float = 1) -> None:
        self.value -= amount

    def to_json(self) -> Dict[str, Any]:
        return {"type": self.kind, "value": self.value, "peak": self.peak}

    def sample_lines(self) -> List[str]:
        return [f"{self.name} {_fmt(self.value)}",
                f"{self.name}_peak {_fmt(self.peak)}"]

    def state(self) -> Dict[str, Any]:
        return {"value": self.value, "peak": self.peak}

    def merge(self, other: "Gauge") -> None:
        """Fold *other* in: values add (disjoint sources), peaks max.

        A cluster-wide simultaneous peak cannot be reconstructed from
        per-source snapshots, so the merged peak is the largest
        per-source high-water mark (a lower bound on the true combined
        peak, still useful for "did any worker ever see N").
        """
        self.merge_state(other.state())

    def merge_state(self, state: Dict[str, Any]) -> None:
        self.value += state["value"]
        self.peak = max(self.peak, state["peak"], self.value)


class Histogram:
    """Streaming histogram with bounded memory and seeded quantiles.

    Keeps exact ``count``/``sum``/``min``/``max`` and a reservoir of at
    most *reservoir_size* samples maintained by Vitter's algorithm R.
    The reservoir RNG is seeded per histogram, so two runs that record
    the same sample stream report identical quantiles.

    :meth:`record` accepts a ``count`` so integer-valued distributions
    (e.g. latency in cycles, which is almost always exactly 1) can be
    recorded in bulk without a million calls.
    """

    kind = "histogram"

    #: Default quantiles reported by :meth:`to_json`/:meth:`sample_lines`.
    QUANTILES: Tuple[float, ...] = (0.5, 0.95, 0.99)

    def __init__(self, name: str, help: str = "",
                 reservoir_size: int = 8192, seed: int = 0):
        if reservoir_size <= 0:
            raise ValueError("reservoir_size must be positive")
        self.name = name
        self.help = help
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._reservoir: List[float] = []
        self._capacity = reservoir_size
        self._rng = random.Random(seed)

    def record(self, value: float, count: int = 1) -> None:
        """Record *value* occurring *count* times.

        The bulk path costs about one RNG draw per slot it overwrites,
        not O(count) or O(reservoir size): all *count* samples are
        equal, so only which slots end up overwritten matters.  Under
        algorithm R the ``r`` samples of the block that find no empty
        slot, arriving after ``n`` others, leave a given slot untouched
        with probability ``n / (n + r)``; we overwrite each slot
        independently with ``p = r / (n + r)``.  The gaps between
        overwritten slots are then geometric, so we draw each gap
        (Vitter's skip) instead of testing every slot: about
        ``1 + p * reservoir_size`` draws in expectation.  When a large
        share of the slots changes (``p > _SKIP_MAX_P``, e.g. the first
        large batch after the reservoir fills) a test per slot is the
        cheaper way to draw the same law, and that is what it does.
        """
        if count <= 0:
            raise ValueError("count must be positive")
        value = float(value)
        self.sum += value * count
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if count == 1:
            self.count += 1
            if len(self._reservoir) < self._capacity:
                self._reservoir.append(value)
            else:
                slot = self._rng.randrange(self.count)
                if slot < self._capacity:
                    self._reservoir[slot] = value
            return
        fill = min(count, self._capacity - len(self._reservoir))
        if fill:
            self._reservoir.extend([value] * fill)
        self.count += count
        remaining = count - fill
        if remaining <= 0 or not self._reservoir:
            return
        p_replace = remaining / self.count
        reservoir = self._reservoir
        draw = self._rng.random
        if p_replace > _SKIP_MAX_P:
            for slot in range(len(reservoir)):
                if draw() < p_replace:
                    reservoir[slot] = value
            return
        # Geometric gap: floor(log(U) / log(1 - p)) untouched slots
        # before the next overwrite, U in (0, 1] so the log is finite.
        log_keep = math.log1p(-p_replace)
        slot = -1
        while True:
            slot += 1 + int(math.log(1.0 - draw()) / log_keep)
            if slot >= len(reservoir):
                return
            reservoir[slot] = value

    def record_many(self, values: Sequence[float]) -> None:
        """Record every element of *values*."""
        for v in values:
            self.record(v)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated *q*-quantile (nearest-rank over the reservoir)."""
        if not (0.0 <= q <= 1.0):
            raise ValueError("quantile must be in [0, 1]")
        if not self._reservoir:
            return 0.0
        ordered = sorted(self._reservoir)
        rank = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[rank]

    def to_json(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "type": self.kind,
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
        }
        for q in self.QUANTILES:
            out[f"p{int(q * 100)}"] = self.quantile(q)
        return out

    def sample_lines(self) -> List[str]:
        lines = [f"{self.name}_count {_fmt(self.count)}",
                 f"{self.name}_sum {_fmt(self.sum)}"]
        for q in self.QUANTILES:
            lines.append(
                f'{self.name}{{quantile="{q}"}} {_fmt(self.quantile(q))}')
        return lines

    def state(self) -> Dict[str, Any]:
        """Picklable state, reservoir included, for cross-process merge."""
        return {"count": self.count, "sum": self.sum, "min": self.min,
                "max": self.max, "reservoir": list(self._reservoir)}

    def merge(self, other: "Histogram") -> None:
        """Fold *other*'s samples into this histogram.

        count/sum/min/max combine exactly.  The merged reservoir is a
        weighted subsample of the union: each retained element of a
        source reservoir represents ``count / len(reservoir)`` samples
        of that source's population, so elements are kept with
        probability proportional to that weight (Efraimidis–Spirakis
        keys drawn from this histogram's seeded RNG — merging the same
        snapshots in the same order is deterministic).
        """
        self.merge_state(other.state())

    def merge_state(self, state: Dict[str, Any]) -> None:
        o_count = state["count"]
        if o_count == 0:
            return
        o_res = list(state["reservoir"])
        items: List[Tuple[float, float]] = []  # (weight, value)
        if self.count and self._reservoir:
            w_self = self.count / len(self._reservoir)
            items.extend((w_self, v) for v in self._reservoir)
        if o_res:
            w_other = o_count / len(o_res)
            items.extend((w_other, v) for v in o_res)
        self.count += o_count
        self.sum += state["sum"]
        for bound, pick in (("min", min), ("max", max)):
            theirs = state[bound]
            ours = getattr(self, bound)
            if theirs is not None:
                setattr(self, bound,
                        theirs if ours is None else pick(ours, theirs))
        if len(items) > self._capacity:
            # Weighted reservoir subsample: key = u^(1/w), keep top-k.
            keyed = sorted(
                ((self._rng.random() ** (1.0 / w), v) for w, v in items),
                reverse=True)[:self._capacity]
            self._reservoir = [v for _, v in keyed]
        else:
            self._reservoir = [v for _, v in items]


class MetricsRegistry:
    """A named collection of metrics with idempotent registration.

    ``counter``/``gauge``/``histogram`` return the existing instrument
    when one with that name is already registered (mismatched kinds
    raise), so independent components can share the registry without
    coordination.  Thread-safe registration; instrument updates are
    single-threaded by design (the service owns one event loop).
    """

    def __init__(self, namespace: str = "vlsa"):
        self.namespace = namespace
        self._metrics: "Dict[str, Any]" = {}
        self._lock = threading.Lock()

    def _get_or_make(self, cls, name: str, **kwargs):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise TypeError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, not {cls.kind}")
                return existing
            metric = cls(name, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        """Get or create the counter *name*."""
        return self._get_or_make(Counter, name, help=help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Get or create the gauge *name*."""
        return self._get_or_make(Gauge, name, help=help)

    def histogram(self, name: str, help: str = "",
                  reservoir_size: int = 8192, seed: int = 0) -> Histogram:
        """Get or create the histogram *name*."""
        return self._get_or_make(Histogram, name, help=help,
                                 reservoir_size=reservoir_size, seed=seed)

    def get(self, name: str):
        """The registered metric, or ``None``."""
        return self._metrics.get(name)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    # -- cross-process merge --------------------------------------------
    _KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}

    def state(self) -> Dict[str, Any]:
        """Full picklable snapshot of every instrument (for the wire).

        Unlike :meth:`to_json` this includes histogram reservoirs, so a
        registry on the other side of a pipe can merge it losslessly
        with :meth:`merge_snapshot`.
        """
        with self._lock:
            metrics = list(self._metrics.values())
        return {m.name: {"kind": m.kind, "help": m.help,
                         "state": m.state()} for m in metrics}

    def merge_snapshot(self, snapshot: Dict[str, Any]) -> None:
        """Fold one :meth:`state` snapshot into this registry.

        Instruments missing here are created (same kind and help);
        existing ones must match kinds or a :class:`TypeError` is
        raised.  Merging N disjoint worker snapshots yields cluster
        totals: counters add, gauges add values, histograms combine
        exactly in count/sum/min/max and statistically in quantiles.
        """
        for name in sorted(snapshot):
            entry = snapshot[name]
            cls = self._KINDS[entry["kind"]]
            if cls is Histogram:
                metric = self.histogram(name, help=entry["help"])
            elif cls is Gauge:
                metric = self.gauge(name, help=entry["help"])
            else:
                metric = self.counter(name, help=entry["help"])
            metric.merge_state(entry["state"])

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold every instrument of *other* into this registry."""
        self.merge_snapshot(other.state())

    # -- export ---------------------------------------------------------
    def to_json(self) -> Dict[str, Any]:
        """``{metric_name: snapshot}`` for manifests and results files."""
        return {name: self._metrics[name].to_json()
                for name in sorted(self._metrics)}

    def to_prometheus(self) -> str:
        """Prometheus text exposition of every registered metric."""
        lines: List[str] = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            full = f"{self.namespace}_{name}"
            if metric.help:
                lines.append(f"# HELP {full} {metric.help}")
            kind = "summary" if metric.kind == "histogram" else metric.kind
            lines.append(f"# TYPE {full} {kind}")
            for sample in metric.sample_lines():
                lines.append(f"{self.namespace}_{sample}")
        return "\n".join(lines) + "\n"
