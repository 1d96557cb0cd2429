"""A tiny accumulator processor with a variable-latency ALU adder.

Paper Section 4.2: "this adder could be used inside a processor: ACA
additions and error/no-error signals are quickly produced in a single
cycle ... in the rare event of an error, the processor must wait an
additional cycle or two."  This module makes that concrete: a minimal
accumulator ISA whose ADD/SUB go through either a fixed-latency exact
adder or the VLSA, so whole programs can be compared cycle for cycle.

The fixed adder is given the latency corresponding to its longer critical
path (2 VLSA clock periods by the Fig. 8 measurement that a traditional
adder takes ~1.5-1.7x the VLSA clock, rounded up to whole cycles); the
VLSA takes 1 cycle plus a recovery cycle on stalls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..analysis.error_model import choose_window
from ..families.aca import AcaModel

__all__ = ["Instruction", "Program", "CpuResult", "TinyCpu", "assemble"]

_OPS = ("LOADI", "ADD", "ADDI", "SUB", "STORE", "LOAD", "JNZ", "HALT")


@dataclass(frozen=True)
class Instruction:
    """One instruction: ``op`` plus an immediate/address operand."""

    op: str
    arg: int = 0

    def __post_init__(self):
        if self.op not in _OPS:
            raise ValueError(f"unknown opcode {self.op!r}")


Program = Sequence[Instruction]


def assemble(source: str) -> List[Instruction]:
    """Assemble newline-separated ``OP [arg]`` text into instructions."""
    program: List[Instruction] = []
    for raw in source.strip().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        op = parts[0].upper()
        arg = int(parts[1], 0) if len(parts) > 1 else 0
        program.append(Instruction(op, arg))
    return program


@dataclass
class CpuResult:
    """Execution outcome: final state plus cycle accounting."""

    accumulator: int
    memory: Dict[int, int]
    instructions_executed: int
    cycles: int
    add_stalls: int

    def cpi(self) -> float:
        if self.instructions_executed == 0:
            return 0.0
        return self.cycles / self.instructions_executed


class TinyCpu:
    """Accumulator machine with a pluggable-latency adder.

    Args:
        width: Datapath width.
        adder: ``"vlsa"`` (1 cycle, +recovery on stall) or ``"exact"``
            (fixed multi-cycle traditional adder).
        window: VLSA speculation window (default: 99.99 % window).
        exact_add_cycles: Latency of the traditional adder in cycles of
            the (shorter) VLSA clock; 2 reflects the Fig. 8 ratio.
    """

    def __init__(self, width: int = 32, adder: str = "vlsa",
                 window: Optional[int] = None, exact_add_cycles: int = 2):
        if adder not in ("vlsa", "exact"):
            raise ValueError("adder must be 'vlsa' or 'exact'")
        self.width = width
        self.mask = (1 << width) - 1
        self.adder = adder
        self.exact_add_cycles = exact_add_cycles
        self.model = AcaModel(width, window or choose_window(width))

    def _add(self, a: int, b: int) -> Tuple[int, int, bool]:
        """Returns (sum, cycles, stalled)."""
        exact_sum, _ = self.model.exact(a, b)
        if self.adder == "exact":
            return exact_sum, self.exact_add_cycles, False
        if self.model.flags_error(a, b):
            return exact_sum, 2, True  # speculative cycle + recovery
        spec_sum, _ = self.model.add(a, b)
        return spec_sum, 1, False

    def run(self, program: Program, max_instructions: int = 1_000_000
            ) -> CpuResult:
        """Execute *program* until HALT (or the instruction cap)."""
        acc = 0
        memory: Dict[int, int] = {}
        pc = 0
        cycles = 0
        executed = 0
        stalls = 0

        while 0 <= pc < len(program):
            if executed >= max_instructions:
                raise RuntimeError("instruction limit exceeded (no HALT?)")
            inst = program[pc]
            executed += 1
            pc += 1
            if inst.op == "HALT":
                cycles += 1
                break
            if inst.op == "LOADI":
                acc = inst.arg & self.mask
                cycles += 1
            elif inst.op == "LOAD":
                acc = memory.get(inst.arg, 0)
                cycles += 1
            elif inst.op == "STORE":
                memory[inst.arg] = acc
                cycles += 1
            elif inst.op in ("ADD", "ADDI"):
                operand = (memory.get(inst.arg, 0) if inst.op == "ADD"
                           else inst.arg & self.mask)
                acc, c, stalled = self._add(acc, operand)
                cycles += c
                stalls += stalled
            elif inst.op == "SUB":
                operand = memory.get(inst.arg, 0)
                # a - b = a + ~b + 1; fold the +1 as a second speculative
                # add of the complement plus one (still one ALU pass).
                acc, c, stalled = self._add(acc,
                                            ((~operand) + 1) & self.mask)
                cycles += c
                stalls += stalled
            elif inst.op == "JNZ":
                cycles += 1
                if acc != 0:
                    pc = inst.arg
        return CpuResult(acc, memory, executed, cycles, stalls)
