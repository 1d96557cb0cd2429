"""Soft-DSP workload: FIR filtering with speculative arithmetic.

The paper cites Hegde & Shanbhag's "soft digital signal processing"
(reference [5]) as the other family of error-tolerant applications.  This
module provides a small fixed-point FIR filter whose multiply-accumulate
arithmetic runs through a pluggable adder, plus signal-quality metrics.

It also demonstrates an important *workload-dependence* result this
reproduction surfaced: on signed small-magnitude data, two's-complement
sign extension creates long propagate chains (adding a positive and a
negative word whose sum is small must carry through every high bit), so
the uniform-operand stall model badly underestimates the flag rate —
we measure ~15 % stalls at the "99.99 %" window instead of 1e-4, exactly
as the biased weights of :mod:`repro.analysis.error_model` predict for
high-propagate bit positions.  Raw ACA errors are also *large* (a carry
dropped near the sign bits), so soft-DSP use needs the VLSA semantics:
:func:`vlsa_fir_filter` detects and recovers, paying extra cycles only on
flagged accumulations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from ..families.aca import aca_add, detector_flag
from .blockcipher import AdderFn, exact_adder

__all__ = ["fir_filter", "vlsa_fir_filter", "VlsaFirStats",
           "moving_average_taps", "snr_db", "synth_signal", "quantize"]

_MASK32 = 0xFFFFFFFF


def moving_average_taps(length: int) -> List[float]:
    """Box-car (moving average) filter taps."""
    if length <= 0:
        raise ValueError("length must be positive")
    return [1.0 / length] * length


def quantize(values: Sequence[float], fractional_bits: int = 12
             ) -> List[int]:
    """Fixed-point quantisation to signed Q(31-f).f words."""
    scale = 1 << fractional_bits
    out = []
    for v in values:
        q = int(round(v * scale))
        out.append(q & _MASK32)
    return out


def _to_signed32(value: int) -> int:
    value &= _MASK32
    return value - (1 << 32) if value & (1 << 31) else value


def fir_filter(signal: Sequence[int], taps: Sequence[int],
               add: AdderFn = exact_adder) -> List[int]:
    """Fixed-point FIR: every accumulation goes through *add*.

    Args:
        signal: Input samples as 32-bit fixed-point words.
        taps: Filter coefficients as 32-bit fixed-point words.
        add: 32-bit adder used for the accumulations (products are exact;
            the paper's speculation applies to carry-propagate adds).

    Returns:
        Output samples (32-bit words), same length as *signal*.
    """
    out: List[int] = []
    for n in range(len(signal)):
        acc = 0
        for k, tap in enumerate(taps):
            if n - k < 0:
                break
            prod = (_to_signed32(signal[n - k]) * _to_signed32(tap)) >> 12
            acc = add(acc, prod & _MASK32)
        out.append(acc)
    return out


@dataclass
class VlsaFirStats:
    """Cost accounting of a VLSA-based FIR run."""

    adds: int
    stalls: int
    recovery_cycles: int = 1

    @property
    def stall_rate(self) -> float:
        return self.stalls / self.adds if self.adds else 0.0

    @property
    def cycles(self) -> int:
        """Total adder cycles: 1 per add plus recovery on stalls."""
        return self.adds + self.stalls * self.recovery_cycles

    def average_latency(self) -> float:
        return self.cycles / self.adds if self.adds else 0.0


def vlsa_fir_filter(signal: Sequence[int], taps: Sequence[int],
                    window: int = 18
                    ) -> Tuple[List[int], VlsaFirStats]:
    """FIR with VLSA accumulation: always-correct output + cycle stats.

    Every accumulation runs speculatively; flagged additions (the
    detector sees a >= *window* propagate chain) are recovered exactly at
    the cost of an extra cycle.  On signed audio-like data the stall rate
    is workload-dependent and far above the uniform-operand model — the
    honest price of speculation on sign-extended arithmetic.
    """
    stats = VlsaFirStats(adds=0, stalls=0)

    def add(a: int, b: int) -> int:
        stats.adds += 1
        if detector_flag(a, b, 32, window):
            stats.stalls += 1
            return (a + b) & _MASK32  # recovered exactly
        result, _ = aca_add(a, b, 32, window)
        return result

    out = fir_filter(signal, taps, add=add)
    return out, stats


def synth_signal(samples: int, freq: float = 0.02,
                 noise: float = 0.05, seed: int = 0) -> List[float]:
    """A noisy sine test signal in [-1, 1]."""
    import random

    rng = random.Random(seed)
    return [math.sin(2 * math.pi * freq * i) +
            rng.gauss(0.0, noise) for i in range(samples)]


def snr_db(reference: Sequence[int], measured: Sequence[int]) -> float:
    """Signal-to-noise ratio of *measured* against *reference* (dB)."""
    if len(reference) != len(measured):
        raise ValueError("length mismatch")
    sig = 0.0
    err = 0.0
    for r, m in zip(reference, measured):
        rs, ms = _to_signed32(r), _to_signed32(m)
        sig += float(rs) * rs
        err += float(rs - ms) * (rs - ms)
    if err == 0.0:
        return float("inf")
    if sig == 0.0:
        return float("-inf")
    return 10.0 * math.log10(sig / err)
