"""Cycle-accurate VLSA machine (paper Fig. 6) and its timing trace (Fig. 7).

The machine wraps the speculative adder in the synchronous handshake
the paper describes: operands are accepted when ``STALL`` is low; one cycle
later the speculative sum and the error flag appear; if the flag is clear
the result is ``VALID`` and new operands are accepted, otherwise the
pipeline stalls for the recovery cycles and then presents the corrected
sum.  Average latency over a stream therefore comes out to
``1 + P(error) * recovery_cycles`` cycles — the quantity the paper reports
as ~1.0002 for the 99.99 % window.

That handshake is the service executor's contract, so the machine runs
on it: each block of operands is one
:meth:`~repro.service.executor.VlsaBatchExecutor.execute_arrays` call
(the family rule in one pass on uint64 lanes at widths up to 64), which
gives every corrected sum, detector flag and per-op latency.  The
machine adds only what the executor does not keep: the accept cycles
(the running total of the latencies before each op), the check that the
detector never misses an error, and the trace/VCD views.

Functional results come from the family's functional model, which the
test suite proves bit-equivalent to the gate-level circuits; this keeps
million-operation streams cheap while staying faithful.
"""

from __future__ import annotations

import contextlib
import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from ..engine.context import RunContext
from ..families.words import lanes
from ..service.executor import VlsaBatchExecutor
from .clocking import ClockDomain
from .vcd import VcdWriter

__all__ = ["VlsaOpResult", "VlsaTrace", "VlsaMachine"]

#: Operand pairs per executor call; a stream is scanned block by block
#: so its lanes never hold more than this many pairs at once.
_BLOCK = 4096

Pairs = Union[Iterable[Tuple[int, int]], np.ndarray]


def _empty(dtype: type) -> np.ndarray:
    return np.zeros(0, dtype=dtype)


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
    """Full trace of a stream run through the VLSA machine.

    The trace is stored as columns, one array element per operation:
    operands (masked to the width) and output words as the model's lanes
    (``uint64`` at widths up to 64, ``dtype=object`` arrays of Python
    ints above), ``stalled``/``speculative_correct`` as bool arrays and
    the cycle columns as int64.  :attr:`results` builds the per-op
    :class:`VlsaOpResult` list from them on first read.
    """

    width: int
    window: int
    clock_period: float
    recovery_cycles: int
    family: str = "aca"
    a: np.ndarray = field(default_factory=lambda: _empty(object))
    b: np.ndarray = field(default_factory=lambda: _empty(object))
    sums: np.ndarray = field(default_factory=lambda: _empty(object))
    couts: np.ndarray = field(default_factory=lambda: _empty(object))
    stalled: np.ndarray = field(default_factory=lambda: _empty(bool))
    speculative_correct: np.ndarray = field(
        default_factory=lambda: _empty(bool))
    latency_cycles: np.ndarray = field(
        default_factory=lambda: _empty(np.int64))
    accept_cycles: np.ndarray = field(
        default_factory=lambda: _empty(np.int64))
    total_cycles: int = 0

    @property
    def operations(self) -> int:
        return len(self.stalled)

    @property
    def stall_count(self) -> int:
        return int(np.count_nonzero(self.stalled))

    @cached_property
    def results(self) -> List[VlsaOpResult]:
        """Per-operation outcomes (built from the columns when read)."""
        return self._ops(self.operations)

    def _ops(self, count: int) -> List[VlsaOpResult]:
        """The first *count* operations as :class:`VlsaOpResult`."""
        cols = (self.a, self.b, self.sums, self.couts,
                self.speculative_correct, self.stalled,
                self.latency_cycles, self.accept_cycles)
        return [VlsaOpResult(i, *row) for i, row in
                enumerate(zip(*(c[:count].tolist() for c in cols)))]

    @property
    def average_latency_cycles(self) -> float:
        """Mean cycles per addition (the paper's ~1.0002 figure)."""
        if not self.operations:
            return 0.0
        return int(self.latency_cycles.sum()) / self.operations

    @property
    def average_latency_time(self) -> float:
        return self.average_latency_cycles * self.clock_period

    def speedup_over(self, traditional_delay: float) -> float:
        """Average-time speedup versus a single-cycle traditional adder."""
        if not self.operations:
            raise ValueError("empty trace")
        return traditional_delay / self.average_latency_time

    # ------------------------------------------------------------------
    def timing_diagram(self, first: int = 8) -> str:
        """ASCII rendition of the paper's Fig. 7 timing diagram."""
        shown = self._ops(first)
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

    A run is a scan, not a clock loop: each block of operand pairs goes
    through the service executor in one batch call, and the accept
    cycles follow from the latencies by a cumulative sum.  ``clock``
    ends each run at the total cycle count.

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
        self.executor = VlsaBatchExecutor(width, window=window,
                                          recovery_cycles=recovery_cycles,
                                          family=family)
        self.ctx = ctx
        self.family = family
        self.window = self.executor.window
        self.width = width
        self.recovery_cycles = recovery_cycles
        self.clock = ClockDomain(clock_period)

    def run(self, pairs: Pairs) -> VlsaTrace:
        """Stream operand *pairs* through the pipeline, one per free cycle.

        Args:
            pairs: ``(a, b)`` int pairs, or an ``(n, 2)`` integer array
                (``uint64`` included).

        Returns:
            A :class:`VlsaTrace` with per-operation outcomes and the cycle
            count actually consumed.
        """
        self.clock.reset()
        timer = (self.ctx.phase("vlsa_run") if self.ctx is not None
                 else contextlib.nullcontext())
        with timer:
            trace = self._scan(pairs)
        self.clock.cycle = trace.total_cycles
        if self.ctx is not None:
            self.ctx.add("vlsa_ops", trace.operations)
            self.ctx.add("vlsa_stalls", trace.stall_count)
        return trace

    def _scan(self, pairs: Pairs) -> VlsaTrace:
        cols: List[Tuple[np.ndarray, ...]] = []
        for ops in _blocks(pairs, self.width):
            batch = self.executor.execute_arrays(ops)
            spec_ok = ~batch.spec_errors
            if not np.all(batch.stalled | spec_ok):
                raise AssertionError("detector must never miss an error")
            cols.append((ops[:, 0], ops[:, 1], batch.sums, batch.couts,
                         batch.stalled, spec_ok, batch.latencies()))
        trace = VlsaTrace(self.width, self.window, self.clock.period,
                          self.recovery_cycles, family=self.family)
        if cols:
            (trace.a, trace.b, trace.sums, trace.couts, trace.stalled,
             trace.speculative_correct, latency) = (
                 np.concatenate(c) for c in zip(*cols))
            trace.latency_cycles = latency
            trace.accept_cycles = np.cumsum(latency) - latency
            trace.total_cycles = int(latency.sum())
        return trace


def _blocks(pairs: Pairs, width: int) -> Iterator[np.ndarray]:
    """``(n, 2)`` :func:`~repro.families.words.lanes` of *pairs* (uint64
    at widths up to 64, masked to *width*), :data:`_BLOCK` pairs at a
    time."""
    if isinstance(pairs, np.ndarray):
        pairs = pairs.reshape(-1, 2)
        blocks: Iterable = (pairs[lo:lo + _BLOCK]
                            for lo in range(0, len(pairs), _BLOCK))
    else:
        it = iter(pairs)
        blocks = iter(lambda: list(itertools.islice(it, _BLOCK)), [])
    for block in blocks:
        yield lanes(block, width).reshape(-1, 2)
