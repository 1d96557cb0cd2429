"""Circuit compilation: netlist -> executable plan.

:func:`compile_circuit` turns a levelized :class:`Circuit` into a
:class:`CompiledPlan`, paying the per-gate analysis cost **once** so the
engine can replay the circuit with no Python-level dispatch on gate
specs:

* every live net is assigned a dense *slot*;
* gates are lowered to a small fixed opcode set — inverting gates
  (NAND/NOR/XNOR) become their base op plus an output-invert flag, and
  variadic gates are decomposed into binary chains through scratch
  slots;
* **NOT fusion**: a NOT whose operand is a single-consumer gate flips
  that gate's invert flag instead of emitting a step; BUFs and remaining
  NOTs of sources alias/complement without a gate evaluation where
  possible;
* **constant handling**: CONST0/CONST1 become preset slots, never
  evaluated;
* dead logic (nets not reachable from any registered output) is skipped
  outright.

Plans hold only plain Python containers and ints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..circuit.gates import gate_spec
from ..circuit.netlist import Circuit, CircuitError

__all__ = [
    "OP_AND", "OP_OR", "OP_XOR", "OP_COPY", "OP_AO21", "OP_OA21",
    "OP_MUX2", "OP_MAJ3", "OPCODE_NAMES",
    "Step", "CompiledPlan", "compile_circuit",
]

# Opcode tape alphabet.  COPY with invert=True is a NOT.
OP_AND = 0
OP_OR = 1
OP_XOR = 2
OP_COPY = 3
OP_AO21 = 4
OP_OA21 = 5
OP_MUX2 = 6
OP_MAJ3 = 7

OPCODE_NAMES = ("AND", "OR", "XOR", "COPY", "AO21", "OA21", "MUX2", "MAJ3")

#: Gate op -> (opcode, output inverted).  Variadic ops use their binary
#: opcode and are chained by the compiler.
_LOWER: Dict[str, Tuple[int, bool]] = {
    "AND": (OP_AND, False), "NAND": (OP_AND, True),
    "OR": (OP_OR, False), "NOR": (OP_OR, True),
    "XOR": (OP_XOR, False), "XNOR": (OP_XOR, True),
    "BUF": (OP_COPY, False), "NOT": (OP_COPY, True),
    "AO21": (OP_AO21, False), "OA21": (OP_OA21, False),
    "MUX2": (OP_MUX2, False), "MAJ3": (OP_MAJ3, False),
}

#: A step is ``(opcode, out_slot, in_slots, invert_output)``.
Step = Tuple[int, int, Tuple[int, ...], bool]


@dataclass
class CompiledPlan:
    """Executable form of one circuit.

    Attributes:
        name: Source circuit name.
        num_slots: Dense value-slot count (live nets + scratch).
        input_slots: Input bus name -> slot per bit (LSB first).
        output_slots: Output bus name -> slot per bit (LSB first).
        const_slots: ``(slot, value)`` pairs preset before execution.
        steps: Flat op tape in topological order.
        nid_to_slot: Net id -> slot (-1 for dead nets).  With ``fuse``
            enabled several nets may share a slot; fault forcing
            therefore requires an unfused plan.
        fused: Whether NOT/BUF fusion and slot aliasing were applied.
        num_gates: Logic gates represented (for gate-eval accounting,
            scratch steps of decomposed variadic gates included).
    """

    name: str
    num_slots: int
    input_slots: Dict[str, List[int]]
    output_slots: Dict[str, List[int]]
    const_slots: List[Tuple[int, int]]
    steps: List[Step]
    nid_to_slot: List[int]
    fused: bool
    num_gates: int = 0
    #: Net-id complement markers: output/forced reads of an aliased slot
    #: that must be inverted (produced by NOT fusion onto sources).
    inverted_nids: Dict[int, int] = field(default_factory=dict)

    def slot_of(self, nid: int) -> int:
        """Slot carrying net *nid*'s value, raising for dead nets."""
        slot = self.nid_to_slot[nid]
        if slot < 0:
            raise CircuitError(f"net {nid} is dead in the compiled plan")
        return slot


def _live_mask(circuit: Circuit) -> List[bool]:
    if not circuit.outputs:
        return [True] * len(circuit.nets)
    live = circuit.reachable_from_outputs()
    # Primary inputs are always bound (stimulus validation contract).
    for bus in circuit.inputs.values():
        for nid in bus:
            live[nid] = True
    return live


def compile_circuit(circuit: Circuit, fuse: bool = True) -> CompiledPlan:
    """Compile *circuit* into a :class:`CompiledPlan`.

    Args:
        circuit: Combinational circuit (DFFs are rejected — drive state
            with :mod:`repro.circuit.sequential`).
        fuse: Apply NOT/BUF fusion and slot aliasing.  Disable when
            per-net observability is required (fault forcing).

    Raises:
        RuntimeError: For sequential circuits (matching the per-gate
            DFF evaluation error of the interpreted path).
        CircuitError: For unknown gate ops.
    """
    if circuit.is_sequential():
        raise RuntimeError(
            "DFF outputs are state: use repro.circuit.sequential to simulate")

    live = _live_mask(circuit)
    nets = circuit.nets
    n = len(nets)

    # Fanout among live gates + output references, for fusion safety.
    consumers = [0] * n
    if fuse:
        for net in nets:
            if not live[net.nid]:
                continue
            for f in net.fanins:
                consumers[f] += 1
        for bus in circuit.outputs.values():
            for nid in bus:
                consumers[nid] += 1

    nid_to_slot = [-1] * n
    inverted: Dict[int, int] = {}
    const_slots: List[Tuple[int, int]] = []
    steps: List[Step] = []
    #: slot of the step producing it, for invert-flag back-patching
    producer: Dict[int, int] = {}
    num_slots = 0

    def new_slot() -> int:
        nonlocal num_slots
        num_slots += 1
        return num_slots - 1

    def emit(opcode: int, ins: Tuple[int, ...], invert: bool) -> int:
        out = new_slot()
        steps.append((opcode, out, ins, invert))
        producer[out] = len(steps) - 1
        return out

    for net in nets:
        nid = net.nid
        if not live[nid]:
            continue
        op = net.op
        if op == "INPUT":
            nid_to_slot[nid] = new_slot()
            continue
        if op in ("CONST0", "CONST1"):
            slot = new_slot()
            const_slots.append((slot, 1 if op == "CONST1" else 0))
            nid_to_slot[nid] = slot
            continue
        if op not in _LOWER:
            raise CircuitError(f"cannot compile gate op {op!r}")
        opcode, invert = _LOWER[op]
        fanin_slots = tuple(nid_to_slot[f] for f in net.fanins)

        if fuse and op == "BUF":
            nid_to_slot[nid] = fanin_slots[0]
            continue
        if fuse and op == "NOT":
            src = net.fanins[0]
            src_slot = fanin_slots[0]
            if src_slot in producer and consumers[src] == 1:
                # Single-consumer gate: absorb the NOT into its output.
                idx = producer[src_slot]
                s_op, s_out, s_ins, s_inv = steps[idx]
                steps[idx] = (s_op, s_out, s_ins, not s_inv)
                nid_to_slot[nid] = src_slot
                # The producing net's value is now complemented; but with
                # a single consumer (this NOT) nothing else reads it.
                nid_to_slot[src] = src_slot
                inverted[src] = 1
                continue
            # Fall through: explicit complement step.

        if gate_spec(op).arity < 0 and len(fanin_slots) > 2:
            acc = emit(opcode, fanin_slots[:2], False)
            for extra in fanin_slots[2:-1]:
                acc = emit(opcode, (acc, extra), False)
            nid_to_slot[nid] = emit(opcode, (acc, fanin_slots[-1]), invert)
        else:
            nid_to_slot[nid] = emit(opcode, fanin_slots, invert)

    input_slots = {name: [nid_to_slot[nid] for nid in bus]
                   for name, bus in circuit.inputs.items()}
    output_slots = {name: [nid_to_slot[nid] for nid in bus]
                    for name, bus in circuit.outputs.items()}
    plan = CompiledPlan(
        name=circuit.name,
        num_slots=num_slots,
        input_slots=input_slots,
        output_slots=output_slots,
        const_slots=const_slots,
        steps=steps,
        nid_to_slot=nid_to_slot,
        fused=fuse,
        num_gates=len(steps),
        inverted_nids=inverted,
    )
    _check_no_inverted_outputs(plan, circuit)
    return plan


def _check_no_inverted_outputs(plan: CompiledPlan, circuit: Circuit) -> None:
    """NOT fusion must never complement a slot an output reads directly."""
    if not plan.inverted_nids:
        return
    for bus in circuit.outputs.values():
        for nid in bus:
            if nid in plan.inverted_nids:  # pragma: no cover - invariant
                raise CircuitError(
                    f"internal: fused complement visible on output net {nid}")

