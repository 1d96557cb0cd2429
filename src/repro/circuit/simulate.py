"""Bit-parallel simulation of combinational circuits.

Two evaluation modes share the same front-end API:

* **Scalar words** — each input value is a Python ``int`` whose bit ``j``
  carries the stimulus of test vector ``j``.  With 64 vectors per word this
  already gives a 64x speedup over naive per-vector evaluation, and Python's
  big integers allow arbitrarily many vectors per call.
* **NumPy vectors** — inputs are ``numpy.ndarray`` of an integer dtype;
  every bit of every element is an independent vector, so the gate
  evaluations act element-wise.

The heavy lifting happens in :mod:`repro.engine`: :func:`simulate`
compiles the circuit once (memoised) into a flat op tape and replays
it over packed Python-int words (array stimulus is packed into one such
word per bit first).  The original per-gate interpreter survives as
:func:`simulate_interpreted` — it is the reference implementation the
engine is differentially tested against, and the ``legacy`` baseline of
the ``engine`` bench suite.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from .gates import GATE_SPECS, is_input_op  # noqa: F401  (re-export compat)
from .netlist import Circuit, CircuitError

__all__ = [
    "simulate",
    "simulate_interpreted",
    "simulate_words",
    "simulate_bus_ints",
    "bus_to_int",
    "int_to_bus",
    "random_stimulus",
]

Word = Union[int, np.ndarray]

_ZERO = ord("0")


def int_to_bus(value: int, width: int) -> List[int]:
    """Split *value* into *width* single-bit words, LSB first.

    Bits above *width* are truncated; negative values contribute their
    two's-complement bit pattern (as arbitrary-precision ints do under
    ``>>``/``&``).  One string render instead of *width* big-int shifts
    keeps this O(width) even for multi-thousand-bit buses.
    """
    if width <= 0:
        return []
    bits = format(value & ((1 << width) - 1), f"0{width}b").encode()
    return [b - _ZERO for b in bits[::-1]]


def bus_to_int(bits: Sequence[int]) -> int:
    """Assemble single-bit words (LSB first) into one integer.

    Only bit 0 of each word is read, matching the historical semantics
    (words may be packed multi-vector values; the caller selects the
    vector by shifting first).
    """
    if not bits:
        return 0
    return int("".join("1" if (b & 1) else "0" for b in reversed(bits)), 2)


def simulate(circuit: Circuit, stimulus: Mapping[str, Sequence[Word]],
             num_vectors: Optional[int] = None) -> Dict[str, List[Word]]:
    """Simulate *circuit* on bit-parallel stimulus (compiled engine).

    Args:
        circuit: Circuit to evaluate.
        stimulus: Mapping from input bus name to a list of per-bit words
            (LSB first).  Each word packs one bit of every test vector.
        num_vectors: Number of packed test vectors.  Required for Python-int
            words (it defines the negation mask); ignored for NumPy
            words, which all share one dtype and shape and carry
            ``size * itemsize * 8`` vectors each.

    Returns:
        Mapping from output bus name to per-bit words, LSB first, of
        the stimulus' type (arrays keep its dtype and shape).
    """
    from ..engine import api as _api

    sample = _first_word(circuit, stimulus)
    if isinstance(sample, np.ndarray):
        return _simulate_arrays(circuit, stimulus, sample)
    return _api.execute(circuit, stimulus, num_vectors=num_vectors)


def _first_word(circuit: Circuit,
                stimulus: Mapping[str, Sequence[Word]]) -> Optional[Word]:
    for name, bus in circuit.inputs.items():
        if name not in stimulus:
            raise CircuitError(f"missing stimulus for input {name!r}")
        if len(stimulus[name]) != len(bus):
            raise CircuitError(
                f"input {name!r} expects {len(bus)} bit-words, "
                f"got {len(stimulus[name])}")
        for word in stimulus[name]:
            return word
    return None


def _simulate_arrays(circuit: Circuit,
                     stimulus: Mapping[str, Sequence[Word]],
                     sample: np.ndarray) -> Dict[str, List[np.ndarray]]:
    """Element-wise array mode.  Bitwise gate semantics are position
    independent, so each array's bytes become one packed word of
    ``nbytes * 8`` vectors, the engine runs those, and every output
    word is read back into the caller's dtype and shape."""
    from ..engine import api as _api

    dtype = sample.dtype
    shape = sample.shape
    nbytes = sample.nbytes

    def to_word(arr: np.ndarray) -> int:
        if arr.dtype != dtype or arr.shape != shape:
            raise CircuitError("mixed stimulus dtypes/shapes")
        return int.from_bytes(arr.tobytes(), "little")

    words = {name: [to_word(np.asarray(w)) for w in stimulus[name]]
             for name in circuit.inputs}
    out = _api.execute(circuit, words, num_vectors=nbytes * 8)
    return {name: [np.frombuffer(w.to_bytes(nbytes, "little"), dtype=dtype)
                   .reshape(shape).copy() for w in bits]
            for name, bits in out.items()}


def simulate_interpreted(circuit: Circuit,
                         stimulus: Mapping[str, Sequence[Word]],
                         num_vectors: Optional[int] = None
                         ) -> Dict[str, List[Word]]:
    """Reference per-gate interpreter (the pre-engine ``simulate``).

    Walks the net list with Python-level dispatch on every gate.  Kept
    as the differential-testing oracle for the compiled engine and as
    the benchmark baseline; new code should call :func:`simulate`.
    """
    values: List[Optional[Word]] = [None] * len(circuit.nets)
    mask: Optional[Word] = None

    for name, bus in circuit.inputs.items():
        if name not in stimulus:
            raise CircuitError(f"missing stimulus for input {name!r}")
        words = stimulus[name]
        if len(words) != len(bus):
            raise CircuitError(
                f"input {name!r} expects {len(bus)} bit-words, got {len(words)}")
        for nid, word in zip(bus, words):
            values[nid] = word
            if mask is None:
                mask = _mask_for(word, num_vectors)
    if mask is None:
        mask = _mask_for(0, num_vectors)

    for net in circuit.topological_nets():
        op = net.op
        if op == "INPUT":
            if values[net.nid] is None:
                raise CircuitError(
                    f"input net {net.name!r} received no stimulus")
            continue
        if op == "CONST0":
            values[net.nid] = _zeros_like(mask)
            continue
        if op == "CONST1":
            values[net.nid] = _copy(mask)
            continue
        spec = GATE_SPECS[op]
        operands = [values[f] for f in net.fanins]
        values[net.nid] = spec.evaluate(mask, *operands)

    return {
        name: [values[nid] for nid in bus]
        for name, bus in circuit.outputs.items()
    }


def _mask_for(sample: Word, num_vectors: Optional[int]) -> Word:
    if isinstance(sample, np.ndarray):
        info = np.iinfo(sample.dtype)
        return np.full(sample.shape, info.max, dtype=sample.dtype)
    if num_vectors is None:
        raise CircuitError("num_vectors is required for Python-int stimulus")
    if num_vectors <= 0:
        raise CircuitError("num_vectors must be positive")
    return (1 << num_vectors) - 1


def _zeros_like(mask: Word) -> Word:
    if isinstance(mask, np.ndarray):
        return np.zeros_like(mask)
    return 0


def _copy(mask: Word) -> Word:
    if isinstance(mask, np.ndarray):
        return mask.copy()
    return mask


def simulate_words(circuit: Circuit, stimulus: Mapping[str, Sequence[int]],
                   num_vectors: int) -> Dict[str, List[int]]:
    """Alias of :func:`simulate` for Python-int words (explicit vector count)."""
    return simulate(circuit, stimulus, num_vectors=num_vectors)


def simulate_bus_ints(circuit: Circuit,
                      values: Mapping[str, int]) -> Dict[str, int]:
    """Single-vector convenience wrapper: integers in, integers out.

    Args:
        circuit: Circuit to evaluate.
        values: Mapping from input bus name to its integer value (bit ``i``
            of the integer drives bus bit ``i``).

    Returns:
        Mapping from output bus name to its integer value.
    """
    stimulus = {
        name: int_to_bus(values[name], len(bus))
        for name, bus in circuit.inputs.items()
    }
    out = simulate(circuit, stimulus, num_vectors=1)
    return {name: bus_to_int(bits) for name, bits in out.items()}


def random_stimulus(circuit: Circuit, num_vectors: int,
                    rng: Optional[np.random.Generator] = None
                    ) -> Dict[str, List[int]]:
    """Uniform random bit-parallel stimulus for every input bus.

    Args:
        circuit: Circuit whose inputs are to be driven.
        num_vectors: Number of packed random test vectors.
        rng: NumPy generator.  When omitted, draws from the process run
            context's seeded generator (see
            :func:`repro.engine.resolve_rng`) — never from an unseeded
            source, so whole-process runs stay bit-reproducible.

    Returns:
        Stimulus mapping suitable for :func:`simulate_words`.
    """
    from ..engine.context import resolve_rng
    from ..engine.pack import random_word

    rng = resolve_rng(rng)
    return {
        name: [random_word(rng, num_vectors) for _ in bus]
        for name, bus in circuit.inputs.items()
    }
