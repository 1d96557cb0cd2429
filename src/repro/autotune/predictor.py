"""Analytic stall/latency forecasts for candidate adder configurations.

This is the bridge between the family error models of
:mod:`repro.families` and the online policy engine: given an observed
operand profile ``(p_propagate, p_generate)`` it predicts, *before any
reconfiguration is committed*, the stall (flag) rate and latency of a
candidate ``(family, primary knob, batch size)``.

The stall rate is the family's own
:meth:`~repro.families.AdderFamily.flag_probability`: the carry-state
engine of :mod:`repro.analysis.error_model` over the family's
speculation cuts, with every bit independently propagate/generate/kill
at the profiled fractions.  Under that i.i.d.-bit model the forecast is
exact for every family, and at ``p_propagate = 0.5`` it equals the
family's exact uniform flag rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..families import get_family

__all__ = [
    "CandidateConfig",
    "Forecast",
    "predict_stall_rate",
    "delay_units",
    "forecast",
]

# Detector/recovery mux overhead of the analytic delay proxy, in the
# same log2 gate-depth units as the prefix tree (see delay_units).
_EXTRA_DEPTH = 4.0
# Fixed per-batch dispatch overhead (queue pop, slicing, future wakeup)
# amortized over the batch in the throughput objective, expressed in
# delay units so it trades directly against per-op latency.
DEFAULT_BATCH_OVERHEAD_UNITS = 64.0


def predict_stall_rate(family: str, width: int, params: Dict[str, int],
                       p_propagate: float,
                       p_generate: Optional[float] = None) -> float:
    """Forecast the flag (stall) probability of one configuration.

    ``params`` are resolved family knobs (``resolve_params`` output).
    ``p_generate`` defaults to a symmetric split of the non-propagate
    mass, which is exact for independent uniform-ish operands.
    """
    p = min(max(p_propagate, 0.0), 1.0)
    g = None if p_generate is None else min(max(p_generate, 0.0), 1.0 - p)
    return get_family(family).flag_probability(width, p, g, **params)


def delay_units(family: str, width: int, params: Dict[str, int]) -> float:
    """Analytic combinational-depth proxy for the speculative core.

    The paper's argument is that an almost-correct adder needs only a
    prefix tree over its ``w``-bit window: depth ``ceil(log2 w)`` plus a
    constant for pg-setup, detector, and the recovery mux.  The proxy
    ranks candidates by that depth; absolute units cancel in the policy
    comparison.
    """
    fam = get_family(family)
    primary = fam.primary_value(width, params)
    span = min(max(int(primary), 2), max(width, 2))
    return 2.0 * math.ceil(math.log2(span)) + _EXTRA_DEPTH


def exact_delay_units(width: int) -> float:
    """Same proxy for the exact reference adder (full-width prefix)."""
    return 2.0 * math.ceil(math.log2(max(width, 2))) + _EXTRA_DEPTH


@dataclass(frozen=True)
class CandidateConfig:
    """One point of the policy search space."""

    family: str
    width: int
    params: Dict[str, int] = field(hash=False)
    batch_ops: int = 4096

    @property
    def primary(self) -> int:
        fam = get_family(self.family)
        return int(fam.primary_value(self.width, self.params))

    def key(self) -> tuple:
        return (self.family, self.width,
                tuple(sorted(self.params.items())), self.batch_ops)

    def as_dict(self) -> Dict[str, Any]:
        return {"family": self.family, "width": self.width,
                "params": dict(self.params), "primary": self.primary,
                "batch_ops": self.batch_ops}


@dataclass(frozen=True)
class Forecast:
    """Analytic prediction for one candidate under one profile."""

    candidate: CandidateConfig
    p_propagate: float
    p_generate: float
    stall_rate: float
    uniform_stall_rate: float
    mean_latency_cycles: float
    p99_latency_cycles: float
    delay_units: float
    avg_time_units: float

    def as_dict(self) -> Dict[str, Any]:
        d = self.candidate.as_dict()
        d.update({
            "p_propagate": self.p_propagate,
            "p_generate": self.p_generate,
            "stall_rate": self.stall_rate,
            "uniform_stall_rate": self.uniform_stall_rate,
            "mean_latency_cycles": self.mean_latency_cycles,
            "p99_latency_cycles": self.p99_latency_cycles,
            "delay_units": self.delay_units,
            "avg_time_units": self.avg_time_units,
        })
        return d


def forecast(candidate: CandidateConfig, p_propagate: float,
             p_generate: Optional[float] = None,
             recovery_cycles: int = 1,
             overhead_units: float = DEFAULT_BATCH_OVERHEAD_UNITS,
             ) -> Forecast:
    """Full analytic forecast for one candidate configuration.

    The latency model is the paper's variable-latency accounting: a
    non-flagged add completes in 1 cycle, a flagged one in
    ``1 + recovery_cycles``.  The p99 figure additionally charges batch
    queueing — the last request admitted to a micro-batch waits for the
    whole batch — so the ``p99`` SLA knob constrains ``batch_ops``
    while the stall SLA constrains the window:

        p99 ~= (1 + rc) + (batch_ops - 1) * mean_op_latency

    ``avg_time_units`` is the throughput objective the policy minimizes:
    per-op wall time proportional to core depth times mean cycles, plus
    the fixed batch overhead amortized over the batch.
    """
    p = min(max(p_propagate, 0.0), 1.0)
    g = (1.0 - p) / 2.0 if p_generate is None else p_generate
    fam = get_family(candidate.family)
    stall = predict_stall_rate(candidate.family, candidate.width,
                               candidate.params, p, g)
    uniform = float(fam.error_model(candidate.width,
                                    **candidate.params).flag_rate)
    mean_cycles = 1.0 + stall * recovery_cycles
    # Worst-case queueing for the last op of a full batch, with recovery
    # charged whenever stalls are non-negligible at batch scale.
    tail_recovery = recovery_cycles if stall * candidate.batch_ops >= 0.01 \
        else 0.0
    p99 = 1.0 + tail_recovery + (candidate.batch_ops - 1) * mean_cycles
    depth = delay_units(candidate.family, candidate.width, candidate.params)
    avg = depth * mean_cycles + overhead_units / max(candidate.batch_ops, 1)
    return Forecast(candidate=candidate, p_propagate=p, p_generate=g,
                    stall_rate=stall, uniform_stall_rate=uniform,
                    mean_latency_cycles=mean_cycles, p99_latency_cycles=p99,
                    delay_units=depth, avg_time_units=avg)


def forecast_many(candidates: Sequence[CandidateConfig], p_propagate: float,
                  p_generate: Optional[float] = None,
                  recovery_cycles: int = 1,
                  overhead_units: float = DEFAULT_BATCH_OVERHEAD_UNITS,
                  ) -> List[Forecast]:
    return [forecast(c, p_propagate, p_generate, recovery_cycles,
                     overhead_units) for c in candidates]
