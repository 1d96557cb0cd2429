"""Service suite: the async micro-batched VLSA serving path.

Each benchmark drives a full load-generation run (admission queue,
micro-batcher, executor, metrics) and reports additions/second.  The
paper-level quantities ride along as first-class metrics with
tolerance bands:

* ``mean_latency_cycles`` must match the analytic
  ``1 + P(stall) * recovery`` (the ``A_n(x)``-derived model) within
  5 % — the paper's 1.0001–1.0002 cycles claim, continuously gated.
* the window-8 run makes the detector ``stall_rate`` statistically
  resolvable (P(stall) ~ 0.1), banded against the analytic rate.
* the adversarial stream must pin mean latency at exactly
  ``1 + recovery`` cycles.
* every run must serve every request: rejected and timed-out requests
  are summed into ``failures_total``, banded against zero.

A loadgen run is long on its own, so these benchmarks skip inner-loop
calibration (``calibrate=False``) and take fewer samples.

One more benchmark per family, ``executor_w128_<family>``, times the
batch executor alone at width 128 (Python-int lanes): one
:meth:`~repro.service.executor.VlsaBatchExecutor.execute` of a
4096-pair operand array, as the service hands it over.  Its ns/op is
``1e9 / ops_per_second``.
"""

from __future__ import annotations

from typing import List

from ..spec import Benchmark, MetricBand, registry

__all__ = ["service_suite"]

_PRESET_OPS = {"small": 1 << 15, "full": 1 << 20}
#: 5 samples is the floor at which the exact Mann-Whitney two-sided
#: p-value (2/C(10,5) = 0.0079) can clear the default alpha = 0.05 —
#: fewer samples would make a regression verdict mathematically
#: impossible for this suite.
_SAMPLES = {"small": 5, "full": 5}

#: Width and batch size of the wide executor benchmarks.
_WIDE_WIDTH = 128
_WIDE_PAIRS = 4096

_HEALTH_BAND = MetricBand("failures_total", "expected_failures_total",
                          rel_tol=0.0)


def _derive(state, report):
    """Paper-level metrics out of a LoadgenReport."""
    return {
        "adds_per_second": round(report.adds_per_second, 1),
        "mean_latency_cycles": report.mean_latency_cycles,
        "analytic_latency_cycles": report.analytic_latency_cycles,
        "stall_rate": report.stall_rate,
        "analytic_stall_rate": report.analytic_stall_rate,
        "spec_error_rate": report.spec_error_rate,
        "p50_wall_ms": round(report.p50_wall_ms, 4),
        "p99_wall_ms": round(report.p99_wall_ms, 4),
        "rejected": report.rejected,
        "timeouts": report.timeouts,
        "failures_total": report.rejected + report.timeouts,
        "expected_failures_total": 0,
    }


def _loadgen_bench(name: str, workload: str, ops: int, samples: int,
                   bands, window=None, width: int = 64,
                   chunk: int = 2048, seed: int = 1) -> Benchmark:
    def run(_state, workload=workload, ops=ops, window=window,
            width=width, chunk=chunk):
        from ...service import run_loadgen

        return run_loadgen(workload, ops=ops, width=width, window=window,
                           chunk=chunk, concurrency=4,
                           max_batch_ops=1 << 14)

    return Benchmark(
        name=name, suite="service", payload=run, ops_per_call=ops,
        tags=("serving", "paper-metric"), calibrate=False,
        samples=samples, derive=_derive,
        bands=tuple(bands) + (_HEALTH_BAND,),
        params={"workload": workload, "ops": ops, "width": width,
                "window": window, "chunk": chunk})


def _executor_bench(family: str) -> Benchmark:
    """One batch through the executor at width 128, per family."""
    def setup(family=family):
        import numpy as np

        from ...service.executor import VlsaBatchExecutor, pairs_array

        rng = np.random.default_rng(_WIDE_WIDTH)
        words = [int.from_bytes(rng.bytes(_WIDE_WIDTH // 8), "little")
                 for _ in range(2 * _WIDE_PAIRS)]
        pairs = pairs_array(list(zip(words[::2], words[1::2])),
                            _WIDE_WIDTH)
        return VlsaBatchExecutor(_WIDE_WIDTH, family=family), pairs

    def run(state):
        executor, pairs = state
        return executor.execute(pairs)

    return Benchmark(
        name=f"executor_w{_WIDE_WIDTH}_{family}", suite="service",
        setup=setup, payload=run, ops_per_call=_WIDE_PAIRS,
        tags=("executor",),
        params={"family": family, "width": _WIDE_WIDTH,
                "pairs": _WIDE_PAIRS})


@registry.suite("service")
def service_suite(preset: str) -> List[Benchmark]:
    from ...families.base import family_names

    ops = _PRESET_OPS[preset]
    side_ops = max(1 << 12, ops // 8)
    samples = _SAMPLES[preset]

    latency_band = MetricBand("mean_latency_cycles",
                              "analytic_latency_cycles", rel_tol=0.05)
    return [
        # The headline: uniform traffic at the paper's 99.99% window.
        _loadgen_bench("loadgen_uniform_w64", "uniform", ops, samples,
                       bands=[latency_band]),
        # Window 8 makes stalls frequent enough (P ~ 0.1) that the
        # detector rate itself is measurable within a 15% band.
        _loadgen_bench("loadgen_uniform_w64_win8", "uniform", side_ops,
                       samples, window=8,
                       bands=[latency_band,
                              MetricBand("stall_rate",
                                         "analytic_stall_rate",
                                         rel_tol=0.15)]),
        # All-propagate operands: every add stalls, latency is exactly
        # 1 + recovery cycles — zero-tolerance band.
        _loadgen_bench("loadgen_adversarial_w64", "adversarial",
                       side_ops, samples,
                       bands=[MetricBand("mean_latency_cycles",
                                         "analytic_latency_cycles",
                                         rel_tol=1e-9)]),
        # Biased traffic exercises the workload-dependence column.
        _loadgen_bench("loadgen_biased_w64_win12", "biased", side_ops,
                       samples, window=12, bands=[latency_band]),
    ] + [_executor_bench(family) for family in family_names()]
