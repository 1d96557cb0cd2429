"""Cycle-accurate VLSA machine (paper Fig. 6) and its timing trace (Fig. 7).

The machine wraps the functional ACA model in the synchronous handshake
the paper describes: operands are accepted when ``STALL`` is low; one cycle
later the speculative sum and the error flag appear; if the flag is clear
the result is ``VALID`` and new operands are accepted, otherwise the
pipeline stalls for the recovery cycles and then presents the corrected
sum.  Average latency over a stream therefore comes out to
``1 + P(error) * recovery_cycles`` cycles — the quantity the paper reports
as ~1.0002 for the 99.99 % window.

Functional results come from :class:`repro.families.aca.AcaModel`, which the
test suite proves bit-equivalent to the gate-level circuits; this keeps
million-operation streams cheap while staying faithful.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

from ..engine.context import RunContext
from ..engine.functional import functional_model
from ..families.base import get_family
from .clocking import ClockDomain
from .vcd import VcdWriter

__all__ = ["VlsaOpResult", "VlsaTrace", "VlsaMachine"]


@dataclass
class VlsaOpResult:
    """Outcome of one addition through the VLSA pipeline.

    Attributes:
        index: Position of the operation in the input stream.
        a, b: Operands.
        sum_out: Final (always correct) sum presented on the output.
        cout: Final carry out.
        speculative_correct: Whether the 1-cycle speculative result was
            already correct.
        stalled: Whether the detector requested recovery.
        latency_cycles: Cycles from operand acceptance to VALID.
        accept_cycle: Cycle at which the operands were accepted.
    """

    index: int
    a: int
    b: int
    sum_out: int
    cout: int
    speculative_correct: bool
    stalled: bool
    latency_cycles: int
    accept_cycle: int


@dataclass
class VlsaTrace:
    """Full trace of a stream run through the VLSA machine."""

    width: int
    window: int
    clock_period: float
    recovery_cycles: int
    family: str = "aca"
    results: List[VlsaOpResult] = field(default_factory=list)
    total_cycles: int = 0

    @property
    def operations(self) -> int:
        return len(self.results)

    @property
    def stall_count(self) -> int:
        return sum(1 for r in self.results if r.stalled)

    @property
    def average_latency_cycles(self) -> float:
        """Mean cycles per addition (the paper's ~1.0002 figure)."""
        if not self.results:
            return 0.0
        return sum(r.latency_cycles for r in self.results) / len(self.results)

    @property
    def average_latency_time(self) -> float:
        return self.average_latency_cycles * self.clock_period

    def speedup_over(self, traditional_delay: float) -> float:
        """Average-time speedup versus a single-cycle traditional adder."""
        if not self.results:
            raise ValueError("empty trace")
        return traditional_delay / self.average_latency_time

    # ------------------------------------------------------------------
    def timing_diagram(self, first: int = 8) -> str:
        """ASCII rendition of the paper's Fig. 7 timing diagram."""
        shown = self.results[:first]
        if not shown:
            return "(empty trace)"
        horizon = shown[-1].accept_cycle + shown[-1].latency_cycles + 1
        rows = {
            "CLK   ": "",
            "ACCEPT": "",
            "VALID ": "",
            "STALL ": "",
            "OP    ": "",
        }
        accept = {r.accept_cycle: r.index for r in shown}
        valid = {r.accept_cycle + r.latency_cycles - 1: r for r in shown}
        stall = set()
        for r in shown:
            if r.stalled:
                for c in range(r.accept_cycle + 1,
                               r.accept_cycle + r.latency_cycles):
                    stall.add(c)
        for c in range(horizon):
            rows["CLK   "] += "|‾|_"
            rows["ACCEPT"] += " A  " if c in accept else " .  "
            rows["VALID "] += " V  " if c in valid else " .  "
            rows["STALL "] += " S  " if c in stall else " .  "
            rows["OP    "] += (f"{accept[c]:^4d}" if c in accept else "    ")
        return "\n".join(f"{k} {v}" for k, v in rows.items())

    def to_vcd(self) -> str:
        """Render the trace as a VCD waveform (1 timestamp per cycle)."""
        vcd = VcdWriter(module="vlsa")
        s_valid = vcd.add_signal("valid", 1)
        s_stall = vcd.add_signal("stall", 1)
        s_a = vcd.add_signal("a", self.width)
        s_b = vcd.add_signal("b", self.width)
        s_sum = vcd.add_signal("sum", self.width)
        vcd.change(s_valid, 0, 0)
        vcd.change(s_stall, 0, 0)
        for r in self.results:
            t_in = r.accept_cycle
            t_out = r.accept_cycle + r.latency_cycles
            vcd.change(s_a, t_in, r.a)
            vcd.change(s_b, t_in, r.b)
            if r.stalled:
                vcd.change(s_stall, t_in + 1, 1)
                vcd.change(s_stall, t_out, 0)
            vcd.change(s_sum, t_out, r.sum_out)
            vcd.change(s_valid, t_out, 1)
        return vcd.render()


class VlsaMachine:
    """Synchronous VALID/STALL wrapper around the speculative adder.

    Args:
        width: Operand bitwidth.
        window: The family's primary parameter — for ACA, the
            speculation window (default: the family's own choice; for
            ACA the 99.99 % window, as in the paper's experiments).
        recovery_cycles: Extra cycles needed to apply the correction
            (paper: "an additional cycle or two"; default 1).
        clock_period: Clock period in ns — by Fig. 6 this should be just
            above the error-detection path delay; default 1.0 (abstract
            cycles).
        ctx: Optional :class:`repro.engine.RunContext`; streams update
            its ``vlsa_ops``/``vlsa_stalls`` counters and the
            ``vlsa_run`` phase timer.
        family: Registered adder family whose functional model drives
            the pipeline (default the paper's ``"aca"``).
    """

    def __init__(self, width: int, window: Optional[int] = None,
                 recovery_cycles: int = 1, clock_period: float = 1.0,
                 ctx: Optional[RunContext] = None, family: str = "aca"):
        fam = get_family(family)
        params = fam.resolve_params(width, window=window)
        if recovery_cycles < 1:
            raise ValueError("recovery needs at least one extra cycle")
        self.ctx = ctx
        self.family = family
        self.window = fam.primary_value(width, params)
        # The functional fast path, resolved through the engine registry
        # (bit-equivalence with the gate-level circuits is proven in
        # the verify suite).
        self.model = functional_model(family, width=width,
                                      window=self.window)
        self.width = width
        self.recovery_cycles = recovery_cycles
        self.clock = ClockDomain(clock_period)
        # Architectural state (Fig. 6): operand register, busy counter.
        self._op_a = self.clock.register(0, "op_a")
        self._op_b = self.clock.register(0, "op_b")
        self._busy = self.clock.register(0, "busy")

    def run(self, pairs: Iterable[Tuple[int, int]]) -> VlsaTrace:
        """Stream operand *pairs* through the pipeline, one per free cycle.

        Returns:
            A :class:`VlsaTrace` with per-operation outcomes and the cycle
            count actually consumed.
        """
        trace = VlsaTrace(self.width, self.window, self.clock.period,
                          self.recovery_cycles, family=self.family)
        self.clock.reset()
        timer = (self.ctx.phase("vlsa_run") if self.ctx is not None
                 else contextlib.nullcontext())
        with timer:
            self._run_stream(pairs, trace)
        if self.ctx is not None:
            self.ctx.add("vlsa_ops", trace.operations)
            self.ctx.add("vlsa_stalls", trace.stall_count)
        return trace

    def _run_stream(self, pairs: Iterable[Tuple[int, int]],
                    trace: VlsaTrace) -> None:
        for index, (a, b) in enumerate(pairs):
            accept_cycle = self.clock.cycle
            self._op_a.set_next(a)
            self._op_b.set_next(b)
            self._busy.set_next(1)
            self.clock.tick()  # operands latched; ACA + detector evaluate

            a_r, b_r = self._op_a.q, self._op_b.q
            spec_sum, spec_cout = self.model.add(a_r, b_r)
            flagged = self.model.flags_error(a_r, b_r)
            exact_sum, exact_cout = self.model.exact(a_r, b_r)

            if flagged:
                # STALL: recovery result replaces the speculative one.
                for _ in range(self.recovery_cycles):
                    self._busy.set_next(1)
                    self.clock.tick()
                sum_out, cout = exact_sum, exact_cout
                latency = 1 + self.recovery_cycles
            else:
                sum_out, cout = spec_sum, spec_cout
                latency = 1

            spec_ok = (spec_sum, spec_cout) == (exact_sum, exact_cout)
            assert flagged or spec_ok, "detector must never miss an error"
            trace.results.append(VlsaOpResult(
                index=index, a=a, b=b, sum_out=sum_out, cout=cout,
                speculative_correct=spec_ok, stalled=flagged,
                latency_cycles=latency, accept_cycle=accept_cycle))
            self._busy.set_next(0)
        trace.total_cycles = self.clock.cycle
