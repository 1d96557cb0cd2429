"""Gate (cell) semantics for the netlist framework.

Every net in a :class:`~repro.circuit.netlist.Circuit` is driven by one of
the operations defined here.  An operation is described by a
:class:`GateSpec` that records its arity, whether its inputs commute (used
for structural hashing), and a bitwise evaluation function.

Evaluation functions operate on *bit-parallel* words: each operand is either
a Python ``int`` whose bit ``j`` holds the value of test vector ``j``, or a
``numpy`` unsigned-integer array.  Bitwise operators behave identically for
both, except for negation, which needs an explicit ``mask`` for Python ints
(Python integers are infinite-precision two's complement).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

__all__ = ["GateSpec", "GATE_SPECS", "INPUT_OPS", "is_input_op", "gate_spec"]


@dataclass(frozen=True)
class GateSpec:
    """Static description of one gate (cell) type.

    Attributes:
        name: Canonical operation name, e.g. ``"AND"``.
        arity: Number of fanins; ``-1`` means variadic (>= 2).
        commutative: Whether fanin order is irrelevant (enables CSE
            canonicalisation by sorting fanins).
        evaluate: Bitwise evaluation ``f(mask, *operands) -> word``.
    """

    name: str
    arity: int
    commutative: bool
    evaluate: Callable[..., int]


# NOTE: evaluators must never use in-place operators (&=, |=, ^=): numpy
# array operands are shared with the caller's stimulus and other nets, and
# in-place updates would silently corrupt them.

def _eval_and(mask, x, *xs):
    for y in xs:
        x = x & y
    return x


def _eval_or(mask, x, *xs):
    for y in xs:
        x = x | y
    return x


def _eval_xor(mask, x, *xs):
    for y in xs:
        x = x ^ y
    return x


def _eval_nand(mask, *xs):
    return _eval_and(mask, *xs) ^ mask


def _eval_nor(mask, *xs):
    return _eval_or(mask, *xs) ^ mask


def _eval_xnor(mask, *xs):
    return _eval_xor(mask, *xs) ^ mask


def _eval_not(mask, x):
    return x ^ mask


def _eval_buf(mask, x):
    return x


def _eval_ao21(mask, a, b, c):
    """AND-OR cell: ``(a & b) | c`` — the carry-operator gate ``g + p*g'``."""
    return (a & b) | c


def _eval_oa21(mask, a, b, c):
    """OR-AND cell: ``(a | b) & c``."""
    return (a | b) & c


def _eval_mux2(mask, s, a, b):
    """2:1 multiplexer: ``a`` when ``s`` is 1 else ``b``."""
    return (a & s) | (b & (s ^ mask))


def _eval_maj3(mask, a, b, c):
    """Majority-of-three — the full-adder carry cell."""
    return (a & b) | (a & c) | (b & c)


def _eval_const0(mask):
    return 0


def _eval_const1(mask):
    return mask


def _eval_input(mask):  # pragma: no cover - inputs are never evaluated
    raise RuntimeError("primary inputs have no evaluation function")


def _eval_dff(mask, d):  # pragma: no cover - state handled by sequential sim
    raise RuntimeError(
        "DFF outputs are state: use repro.circuit.sequential to simulate")


#: Registry of all supported gate types.
GATE_SPECS: Dict[str, GateSpec] = {
    spec.name: spec
    for spec in (
        GateSpec("INPUT", 0, False, _eval_input),
        GateSpec("CONST0", 0, False, _eval_const0),
        GateSpec("CONST1", 0, False, _eval_const1),
        GateSpec("BUF", 1, False, _eval_buf),
        GateSpec("NOT", 1, False, _eval_not),
        GateSpec("AND", -1, True, _eval_and),
        GateSpec("OR", -1, True, _eval_or),
        GateSpec("XOR", -1, True, _eval_xor),
        GateSpec("NAND", -1, True, _eval_nand),
        GateSpec("NOR", -1, True, _eval_nor),
        GateSpec("XNOR", -1, True, _eval_xnor),
        GateSpec("AO21", 3, False, _eval_ao21),
        GateSpec("OA21", 3, False, _eval_oa21),
        GateSpec("MUX2", 3, False, _eval_mux2),
        GateSpec("MAJ3", 3, True, _eval_maj3),
        GateSpec("DFF", 1, False, _eval_dff),
    )
}

#: Operations that have no fanins and represent circuit entry points.
INPUT_OPS: Tuple[str, ...] = ("INPUT", "CONST0", "CONST1")


def is_input_op(op: str) -> bool:
    """Return True if *op* is a source (input or constant) operation."""
    return op in INPUT_OPS


def is_state_op(op: str) -> bool:
    """Return True if *op* is a sequential state element."""
    return op == "DFF"


def gate_spec(op: str) -> GateSpec:
    """Look up the :class:`GateSpec` for *op*, raising ``KeyError`` if unknown."""
    try:
        return GATE_SPECS[op]
    except KeyError:
        raise KeyError(f"unknown gate operation {op!r}") from None
