"""Cluster suite: multi-process pool scaling versus the in-process
service, over both router<->worker transports.

The same uniform workload through the single-process service baseline
and through 1- and 2-worker pools (the ``full`` preset adds 4), once
per transport: ``cluster_w{n}`` rides the socket-pair frame wire,
``cluster_shm_w{n}`` the zero-copy shared-memory rings.  A benchmarked
pool run must be *healthy*: restarts, degraded, failed, rejected and
timed-out requests are summed into a ``failures_total`` metric banded
against zero, so a cluster that only stays fast by dropping work
cannot pass the gate.

Every pool bench derives ``us_per_message`` — wall microseconds per
router<->worker round trip — which is where serialization cost lives
once the adders themselves are vectorised.  The ``transport_overhead``
bench drives both transports back to back at a deliberately small
batch size (per-message cost dominant) and bands the boolean
``shm_overhead_below_pipe``: the ring transport must beat the socket
pair on per-message overhead outright, on every host, or the suite
fails.  The comparison takes the best run per transport across all
samples, so scheduler noise on a loaded host cannot flip the verdict.

The ``scaling`` bench runs the in-process baseline and the widest pipe
pool back to back and bands the boolean ``scaling_meets_bar``.  Real
worker processes only scale on real cores, so the bar depends on the
usable CPUs: with at least 4 the pool must reach 2x the baseline;
below that only a wire-efficiency floor of 0.005x holds.
"""

from __future__ import annotations

import math
import os
import time
from typing import List, Optional

from ..spec import Benchmark, MetricBand, registry

__all__ = ["cluster_suite"]

_PRESET_OPS = {"small": 1 << 14, "full": 1 << 18}
_PRESET_POOLS = {"small": (1, 2), "full": (1, 2, 4)}

#: Ops per request in the pool benches — big batches, amortised wire.
_POOL_CHUNK = 2048
#: Ops per request in the transport-overhead bench — small batches, so
#: the per-message wire cost is what the clock sees.
_OVERHEAD_CHUNK = 64
_OVERHEAD_OPS = 1 << 13

_HEALTH_KEYS = ("worker_restarts", "worker_failures",
                "degraded_requests", "failed_requests")

_HEALTH_BAND = MetricBand("failures_total", "expected_failures_total",
                          rel_tol=0.0)

_OVERHEAD_BAND = MetricBand("shm_overhead_below_pipe",
                            "expected_shm_below_pipe", rel_tol=0.0)

_SCALING_BAND = MetricBand("scaling_meets_bar",
                           "expected_scaling_meets_bar", rel_tol=0.0)

MULTICORE_SPEEDUP = 2.0    # needs >= 4 real cores
#: On a 1-core host at the small preset the pool pays worker spawn +
#: IPC against a tiny op volume, so only a loose sanity floor holds.
SINGLE_CORE_FLOOR = 0.005


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _us_per_message(report, chunk: int) -> float:
    messages = max(1, math.ceil(report.ops / chunk))
    return report.wall_seconds * 1e6 / messages


def _failures(report) -> int:
    return (report.rejected + report.timeouts
            + sum(report.params.get(k, 0) for k in _HEALTH_KEYS))


def _derive(_state, report, chunk: int = _POOL_CHUNK):
    out = {
        "adds_per_second": round(report.adds_per_second, 1),
        "mean_latency_cycles": report.mean_latency_cycles,
        "stall_rate": report.stall_rate,
        "us_per_message": round(_us_per_message(report, chunk), 3),
        "failures_total": _failures(report),
        "expected_failures_total": 0,
    }
    for key in _HEALTH_KEYS:
        out[key] = report.params.get(key, 0)
    for key in ("transport_tx_bytes", "transport_rx_bytes",
                "transport_pipe_fallbacks", "transport_ring_full_stalls"):
        if key in report.params:
            out[key] = report.params[key]
    return out


def _pool_run(ops: int, workers: Optional[int], transport: str = "pipe"):
    """The pool-bench workload: in-process without *workers*, else a pool."""
    from ...service import run_loadgen

    kwargs = dict(ops=ops, width=64, chunk=_POOL_CHUNK,
                  concurrency=4, max_batch_ops=1 << 14)
    if workers is not None:
        kwargs.update(target="cluster", workers=workers,
                      transport=transport)
    return run_loadgen("uniform", **kwargs)


def _pool_bench(name: str, target: str, ops: int, workers: Optional[int],
                transport: str = "pipe") -> Benchmark:
    def run(_state, ops=ops, workers=workers, transport=transport):
        return _pool_run(ops, workers, transport)

    # 5 samples: the minimum at which the exact Mann-Whitney p-value
    # can clear alpha = 0.05, so cluster regressions are detectable.
    return Benchmark(
        name=name, suite="cluster", payload=run, ops_per_call=ops,
        tags=("serving", "scaling"), calibrate=False, samples=5,
        derive=_derive, bands=(_HEALTH_BAND,),
        params={"target": target, "ops": ops,
                "workers": workers or 0, "width": 64,
                "transport": transport if workers is not None else "n/a"})


def _overhead_bench() -> Benchmark:
    """Pipe vs shm per-message overhead, measured in one payload.

    Each payload call runs both transports back to back over the same
    small-batch workload and stashes the per-message wall cost; derive
    compares the *best* run per transport so the banded boolean is a
    property of the transports, not of one noisy sample.
    """

    def setup():
        return {"pipe": [], "shm": []}

    def run(state):
        from ...service import run_loadgen

        reports = {}
        for transport in ("pipe", "shm"):
            report = run_loadgen(
                "uniform", target="cluster", workers=1,
                transport=transport, ops=_OVERHEAD_OPS,
                chunk=_OVERHEAD_CHUNK, concurrency=4,
                max_batch_ops=1 << 14, width=64)
            state[transport].append(
                _us_per_message(report, _OVERHEAD_CHUNK))
            reports[transport] = report
        return reports

    def derive(state, reports):
        pipe_us = min(state["pipe"])
        shm_us = min(state["shm"])
        out = {
            "us_per_message_pipe": round(pipe_us, 3),
            "us_per_message_shm": round(shm_us, 3),
            "shm_overhead_ratio": round(shm_us / pipe_us, 4),
            "shm_overhead_below_pipe": int(shm_us < pipe_us),
            "expected_shm_below_pipe": 1,
        }
        for transport, report in reports.items():
            out[f"failures_{transport}"] = _failures(report)
        return out

    return Benchmark(
        name="transport_overhead", suite="cluster",
        payload=run, setup=setup, ops_per_call=2 * _OVERHEAD_OPS,
        tags=("serving", "transport"), calibrate=False, samples=3,
        derive=derive, bands=(_OVERHEAD_BAND,),
        params={"target": "cluster", "ops": _OVERHEAD_OPS,
                "chunk": _OVERHEAD_CHUNK, "workers": 1, "width": 64,
                "transports": "pipe,shm"})


def _scaling_bench(ops: int, workers: int) -> Benchmark:
    """The widest pipe pool against the in-process baseline.

    Each payload call runs the ``service_baseline`` workload and then
    the ``cluster_w{workers}`` one, timing each whole run; derive
    compares the best rate per side, as ``ops_per_second`` would.
    """

    def setup():
        return {"service": [], "cluster": []}

    def run(state):
        reports = {}
        for target, pool in (("service", None), ("cluster", workers)):
            t0 = time.perf_counter()
            reports[target] = _pool_run(ops, pool)
            state[target].append(ops / (time.perf_counter() - t0))
        return reports

    def derive(state, reports):
        cpus = _usable_cpus()
        bar = MULTICORE_SPEEDUP if cpus >= 4 else SINGLE_CORE_FLOOR
        speedup = max(state["cluster"]) / max(state["service"])
        return {
            "usable_cpus": cpus,
            "service_adds_per_second": round(max(state["service"]), 1),
            "pool_adds_per_second": round(max(state["cluster"]), 1),
            "pool_speedup": round(speedup, 4),
            "speedup_bar": bar,
            "scaling_meets_bar": int(speedup >= bar),
            "expected_scaling_meets_bar": 1,
            "failures_total": sum(_failures(r) for r in reports.values()),
            "expected_failures_total": 0,
        }

    return Benchmark(
        name="scaling", suite="cluster", payload=run, setup=setup,
        ops_per_call=2 * ops, tags=("serving", "scaling"),
        calibrate=False, samples=3, derive=derive,
        bands=(_SCALING_BAND, _HEALTH_BAND),
        params={"target": "service,cluster", "ops": ops,
                "workers": workers, "width": 64, "transport": "pipe"})


@registry.suite("cluster")
def cluster_suite(preset: str) -> List[Benchmark]:
    ops = _PRESET_OPS[preset]
    pools = _PRESET_POOLS[preset]
    benches: List[Benchmark] = [
        _pool_bench("service_baseline", "service", ops, None)]
    benches.extend(
        _pool_bench(f"cluster_w{workers}", "cluster", ops, workers)
        for workers in pools)
    benches.extend(
        _pool_bench(f"cluster_shm_w{workers}", "cluster", ops, workers,
                    transport="shm")
        for workers in pools)
    benches.append(_overhead_bench())
    benches.append(_scaling_bench(ops, max(pools)))
    return benches
