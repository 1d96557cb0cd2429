"""Declarative benchmark specs and the suite registry.

A :class:`Benchmark` describes one timed quantity: an untimed ``setup``
producing shared state, a timed ``payload`` called with that state, the
number of logical operations one payload call performs (so results can
be reported as ops/s), free-form workload ``params`` recorded in the
result JSON, and optional *paper-level metric* extraction with
tolerance bands (e.g. mean VLSA latency vs the analytic prediction).

Suites are named groups of benchmarks registered against a
:class:`BenchmarkRegistry`.  The default registry is module-global so
the CLI and the tests see the same suites; tests may also build
private registries.

Each suite is registered as a *factory* ``(preset) -> [Benchmark]`` so
workload sizes can differ between the quick CI preset and the full
nightly preset without duplicating specs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

__all__ = [
    "Benchmark",
    "BenchmarkRegistry",
    "MetricBand",
    "PRESETS",
    "registry",
    "load_builtin_suites",
]

#: Workload-size presets every suite factory must accept.
PRESETS = ("small", "full")


@dataclass(frozen=True)
class MetricBand:
    """Tolerance band tying a measured metric to an expected one.

    After the payload runs, ``metrics[metric]`` must match
    ``metrics[expected]`` within ``rel_tol`` (relative) — e.g. measured
    mean latency-in-cycles vs the analytic ``A_n(x)``-derived
    prediction.  Violations are recorded in the result JSON and fail
    the run when the runner is strict.
    """

    metric: str
    expected: str
    rel_tol: float

    def check(self, metrics: Mapping[str, Any]) -> Optional[str]:
        """Return a violation description, or None when in-band."""
        got = metrics.get(self.metric)
        want = metrics.get(self.expected)
        if got is None or want is None:
            return (f"band {self.metric} vs {self.expected}: "
                    f"metric missing (got={got!r}, expected={want!r})")
        scale = max(abs(float(want)), 1e-300)
        err = abs(float(got) - float(want)) / scale
        if err > self.rel_tol:
            return (f"band {self.metric}={got:.6g} vs "
                    f"{self.expected}={want:.6g}: relative error "
                    f"{err:.4g} > {self.rel_tol:.4g}")
        return None


@dataclass(frozen=True)
class Benchmark:
    """One registered, runnable benchmark.

    Args:
        name: Unique within the suite (``<suite>/<name>`` globally).
        suite: Owning suite name.
        payload: The timed callable; invoked as ``payload(state)`` where
            *state* is whatever ``setup`` returned (None without setup).
            Its return value is passed to ``derive`` for metric
            extraction.
        setup: Untimed; runs once before calibration, its result is
            reused for every timed call.
        ops_per_call: Logical operations one payload call performs
            (vectors simulated, additions served, ...); ops/s in the
            result JSON is derived from it.
        tags: Free-form labels (``"gate-level"``, ``"paper-metric"``).
        params: Workload parameters recorded verbatim in the result.
        derive: Optional ``(state, last_payload_result) -> dict`` of
            paper-level metrics stored in the result JSON.
        bands: Tolerance bands evaluated over the derived metrics.
        samples: Override the runner's sample count (e.g. expensive
            cluster benchmarks take fewer measurements).
        calibrate: When False the payload is timed exactly once per
            sample (already-long workloads like a full loadgen run).
    """

    name: str
    suite: str
    payload: Callable[[Any], Any]
    setup: Optional[Callable[[], Any]] = None
    ops_per_call: int = 1
    tags: Tuple[str, ...] = ()
    params: Mapping[str, Any] = field(default_factory=dict)
    derive: Optional[Callable[[Any, Any], Dict[str, Any]]] = None
    bands: Tuple[MetricBand, ...] = ()
    samples: Optional[int] = None
    calibrate: bool = True

    @property
    def full_name(self) -> str:
        return f"{self.suite}/{self.name}"


SuiteFactory = Callable[[str], List[Benchmark]]


class BenchmarkRegistry:
    """Named suites of benchmarks, built lazily from factories."""

    def __init__(self) -> None:
        self._factories: Dict[str, SuiteFactory] = {}

    def add_suite(self, name: str, factory: SuiteFactory) -> None:
        if name in self._factories:
            raise ValueError(f"suite {name!r} already registered")
        self._factories[name] = factory

    def suite(self, name: str):
        """Decorator form of :meth:`add_suite`."""
        def register(factory: SuiteFactory) -> SuiteFactory:
            self.add_suite(name, factory)
            return factory
        return register

    def remove_suite(self, name: str) -> None:
        self._factories.pop(name, None)

    def suites(self) -> Tuple[str, ...]:
        return tuple(sorted(self._factories))

    def build(self, name: str, preset: str = "small") -> List[Benchmark]:
        """Instantiate a suite's benchmarks for *preset*.

        Validates the factory's output: unique names, correct suite
        attribution, positive op counts.
        """
        if preset not in PRESETS:
            raise ValueError(f"unknown preset {preset!r}; "
                             f"expected one of {PRESETS}")
        try:
            factory = self._factories[name]
        except KeyError:
            raise KeyError(f"unknown suite {name!r}; registered: "
                           f"{', '.join(self.suites()) or '(none)'}")
        benches = list(factory(preset))
        if not benches:
            raise ValueError(f"suite {name!r} produced no benchmarks")
        seen = set()
        for b in benches:
            if b.suite != name:
                raise ValueError(f"benchmark {b.name!r} claims suite "
                                 f"{b.suite!r} inside suite {name!r}")
            if b.name in seen:
                raise ValueError(f"duplicate benchmark {b.name!r} "
                                 f"in suite {name!r}")
            if b.ops_per_call <= 0:
                raise ValueError(f"benchmark {b.name!r}: ops_per_call "
                                 f"must be positive")
            seen.add(b.name)
        return benches

    def describe(self, preset: str = "small"
                 ) -> Dict[str, List[Dict[str, Any]]]:
        """Instantiate every suite and summarize it (the ``list`` verb)."""
        out: Dict[str, List[Dict[str, Any]]] = {}
        for name in self.suites():
            out[name] = [{
                "name": b.name,
                "ops_per_call": b.ops_per_call,
                "tags": list(b.tags),
                "params": dict(b.params),
                "bands": [f"{band.metric}~{band.expected}"
                          f"@{band.rel_tol:g}" for band in b.bands],
            } for b in self.build(name, preset)]
        return out


#: The process-wide default registry.
registry = BenchmarkRegistry()

_BUILTIN_SUITES = ("engine", "families", "service", "verify", "cluster",
                   "autotune")
_loaded_builtins = False


def load_builtin_suites() -> Tuple[str, ...]:
    """Import the built-in suite modules (idempotent).

    Importing :mod:`repro.bench.suites` registers the engine, families,
    service, verify and cluster suites against the default registry.
    """
    global _loaded_builtins
    if not _loaded_builtins:
        from . import suites  # noqa: F401  (import registers suites)
        _loaded_builtins = True
    return _BUILTIN_SUITES
