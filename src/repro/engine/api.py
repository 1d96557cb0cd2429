"""High-level engine API: compile once, execute anywhere.

``execute`` is the drop-in replacement for the interpreted simulator:
it memoises the compiled plan per circuit (recompiling automatically if
the circuit has grown since) and replays its op tape over packed
Python-int bitslice words: bit ``j`` of every word carries vector
``j``, so one tape pass evaluates arbitrarily many vectors, and per-net
*forcing* (fault injection, on an unfused plan) costs one dictionary
lookup per step.  ``execute_ints`` adds the per-vector integer
convenience layer (fast packing included) that the validate/ATPG/
testbench paths share.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Mapping, Optional, Sequence

from ..circuit.netlist import Circuit, CircuitError
from .context import RunContext, get_default_context
from .pack import pack_vectors, unpack_vectors
from .plan import (
    OP_AND, OP_AO21, OP_COPY, OP_MUX2, OP_OA21, OP_OR, OP_XOR,
    CompiledPlan, compile_circuit,
)

__all__ = ["compiled_plan", "execute", "execute_ints"]

Stimulus = Mapping[str, Sequence[int]]

# circuit -> {fuse flag: (net count at compile time, plan)}
_PLAN_CACHE: "weakref.WeakKeyDictionary[Circuit, Dict[bool, tuple]]" = (
    weakref.WeakKeyDictionary())


def compiled_plan(circuit: Circuit, fuse: bool = True) -> CompiledPlan:
    """The memoised :class:`CompiledPlan` for *circuit*.

    The cache is keyed on circuit identity and invalidated when the net
    count changes (circuits are append-only, so that check is exact).
    """
    per_circuit = _PLAN_CACHE.setdefault(circuit, {})
    hit = per_circuit.get(fuse)
    if hit is not None and hit[0] == len(circuit.nets):
        return hit[1]
    plan = compile_circuit(circuit, fuse=fuse)
    per_circuit[fuse] = (len(circuit.nets), plan)
    return plan


def _validate_stimulus(circuit: Circuit, stimulus: Stimulus) -> None:
    for name, bus in circuit.inputs.items():
        if name not in stimulus:
            raise CircuitError(f"missing stimulus for input {name!r}")
        if len(stimulus[name]) != len(bus):
            raise CircuitError(
                f"input {name!r} expects {len(bus)} bit-words, "
                f"got {len(stimulus[name])}")


def _run_tape(plan: CompiledPlan, vals: List[int], mask: int,
              force: Optional[Mapping[int, int]] = None) -> None:
    """Execute the flat op tape over Python-int bitslice words."""
    forced: Dict[int, int] = {}
    if force:
        forced = {slot: (mask if bit else 0) for slot, bit in force.items()}
        for slot, word in forced.items():
            # Source slots (inputs/constants) are overridden up front;
            # gate slots are re-forced right after their step below.
            vals[slot] = word
    for opcode, out, ins, inv in plan.steps:
        if opcode == OP_AND:
            r = vals[ins[0]] & vals[ins[1]]
        elif opcode == OP_OR:
            r = vals[ins[0]] | vals[ins[1]]
        elif opcode == OP_XOR:
            r = vals[ins[0]] ^ vals[ins[1]]
        elif opcode == OP_COPY:
            r = vals[ins[0]]
        elif opcode == OP_AO21:
            r = (vals[ins[0]] & vals[ins[1]]) | vals[ins[2]]
        elif opcode == OP_OA21:
            r = (vals[ins[0]] | vals[ins[1]]) & vals[ins[2]]
        elif opcode == OP_MUX2:
            s = vals[ins[0]]
            r = (vals[ins[1]] & s) | (vals[ins[2]] & (s ^ mask))
        else:  # OP_MAJ3
            a, b, c = vals[ins[0]], vals[ins[1]], vals[ins[2]]
            r = (a & b) | (a & c) | (b & c)
        if inv:
            r ^= mask
        if forced:
            f = forced.get(out)
            if f is not None:
                r = f
        vals[out] = r


def execute(circuit: Circuit, stimulus: Stimulus,
            num_vectors: Optional[int] = None,
            ctx: Optional[RunContext] = None,
            force: Optional[Mapping[int, int]] = None
            ) -> Dict[str, List[int]]:
    """Compile (cached) and evaluate *circuit* on packed stimulus.

    Args:
        circuit: Combinational circuit.
        stimulus: Input bus name -> per-bit packed words (Python ints).
        num_vectors: Vectors per packed word (required).
        ctx: Instrumentation context (defaults to the process context).
        force: Net id -> 0/1 overrides (fault injection).  Forces an
            unfused plan.

    Returns:
        Output bus name -> per-bit packed words.
    """
    _validate_stimulus(circuit, stimulus)
    if num_vectors is None:
        raise CircuitError("num_vectors is required for Python-int stimulus")
    if num_vectors <= 0:
        raise CircuitError("num_vectors must be positive")

    plan = compiled_plan(circuit, fuse=force is None)
    slot_force = (None if force is None else
                  {plan.slot_of(nid): bit for nid, bit in force.items()})
    mask = (1 << num_vectors) - 1
    vals: List[int] = [0] * plan.num_slots
    for slot, bit in plan.const_slots:
        vals[slot] = mask if bit else 0
    for name, slots in plan.input_slots.items():
        for slot, word in zip(slots, stimulus[name]):
            vals[slot] = int(word) & mask
    _run_tape(plan, vals, mask, slot_force)

    ctx = ctx or get_default_context()
    ctx.add("gate_evals", plan.num_gates)
    ctx.add("vectors", num_vectors)
    ctx.add("engine_runs", 1)
    return {name: [vals[s] for s in slots]
            for name, slots in plan.output_slots.items()}


def execute_ints(circuit: Circuit, vectors: Mapping[str, Sequence[int]],
                 ctx: Optional[RunContext] = None,
                 force: Optional[Mapping[int, int]] = None
                 ) -> Dict[str, List[int]]:
    """Evaluate *circuit* on per-vector integers (packing handled here).

    Args:
        circuit: Combinational circuit.
        vectors: Input bus name -> one integer per test vector.
        ctx, force: As for :func:`execute`.

    Returns:
        Output bus name -> one integer per test vector.
    """
    names = list(circuit.inputs)
    if not names:
        raise CircuitError("circuit has no inputs")
    count = len(vectors[names[0]])
    if count == 0:
        raise CircuitError("need at least one vector")
    stim = {
        name: pack_vectors(vectors[name], len(circuit.inputs[name]))
        for name in names}
    out_words = execute(circuit, stim, num_vectors=count, ctx=ctx,
                        force=force)
    return {name: unpack_vectors(words, count)
            for name, words in out_words.items()}
