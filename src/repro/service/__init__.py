"""VLSA-as-a-service: async batched serving over the speculative adder.

The serving layer treats the variable-latency adder the way the paper's
analysis suggests it should be used — as a shared accelerator whose
*average* service time wins even though its worst case loses:

* :class:`VlsaFrontEnd` — the request contract (admission with retry,
  timeout and cancellation, the shared metrics, batch resolution) that
  :class:`VlsaService` and :class:`~repro.cluster.ClusterRouter` both
  subclass.
* :class:`VlsaService` — bounded admission queue (backpressure by
  rejection, never unbounded buffering), a dynamic micro-batcher that
  coalesces pending requests into single executor batches, per-request
  variable-latency accounting on a virtual cycle clock (1 cycle per
  addition, plus recovery cycles when the detector fires — exactly
  :class:`~repro.arch.VlsaMachine` semantics), and timeout / retry /
  cancellation handling.
* :class:`VlsaBatchExecutor` — the batch datapath: the family's
  speculate/detect rule run once per batch on uint64 lanes at widths up
  to 64 and Python-int object lanes above, cross-checked against the
  functional model's three-pass reference.
* :class:`MetricsRegistry` — counters, gauges with peaks, histograms
  with p50/p95/p99; JSON and Prometheus-text export.
* :class:`Tracer` — structured trace events, mirrored into the run's
  :class:`~repro.engine.RunContext` so manifests carry the trace head.
* :func:`run_loadgen` — workload generator (uniform / biased /
  adversarial / ARX-attack replay / mixed) and load driver; the CLI
  verbs ``serve`` and ``loadgen`` build on it.
* :class:`VlsaServer` / :func:`serve_tcp` — a stdlib-only TCP JSON-lines
  front-end.

Quick tour::

    import asyncio
    from repro.service import VlsaService

    async def demo():
        async with VlsaService(width=64) as svc:
            resp = await svc.submit(123, 456)
            return resp.sum_out, resp.latency_cycles

    asyncio.run(demo())   # -> (579, 1)
"""

from .._lazy import lazy_exports

# Each name loads its submodule on first use: a cluster worker needs the
# executor and metrics, not the TCP edge or the load generator.
_LAZY, __getattr__, __dir__ = lazy_exports(__name__, {
    ".executor": ("BatchOutcome", "VlsaBatchExecutor"),
    ".loadgen": ("WORKLOADS", "LoadgenReport", "make_workload",
                 "run_loadgen"),
    ".metrics": ("Counter", "Gauge", "Histogram", "MetricsRegistry"),
    ".server": ("VlsaServer", "serve_tcp"),
    ".service": ("AddResponse", "BatchResponse", "RequestTimeoutError",
                 "ServiceClosedError", "ServiceError",
                 "ServiceOverloadedError", "VlsaFrontEnd",
                 "VlsaService"),
    ".tracing": ("TraceEvent", "Tracer"),
})

__all__ = [
    "AddResponse",
    "BatchOutcome",
    "BatchResponse",
    "Counter",
    "Gauge",
    "Histogram",
    "LoadgenReport",
    "MetricsRegistry",
    "RequestTimeoutError",
    "ServiceClosedError",
    "ServiceError",
    "ServiceOverloadedError",
    "TraceEvent",
    "Tracer",
    "VlsaBatchExecutor",
    "VlsaFrontEnd",
    "VlsaServer",
    "VlsaService",
    "WORKLOADS",
    "make_workload",
    "run_loadgen",
    "serve_tcp",
]
