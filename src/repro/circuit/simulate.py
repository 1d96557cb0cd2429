"""Bit-parallel simulation of combinational circuits.

Two evaluation modes share the same front-end API:

* **Scalar words** — each input value is a Python ``int`` whose bit ``j``
  carries the stimulus of test vector ``j``.  With 64 vectors per word this
  already gives a 64x speedup over naive per-vector evaluation, and Python's
  big integers allow arbitrarily many vectors per call.
* **NumPy vectors** — inputs are ``numpy.ndarray`` of an unsigned dtype; all
  gate evaluations become element-wise array ops.

Since PR 1 the heavy lifting happens in :mod:`repro.engine`:
:func:`simulate` compiles the circuit once (memoised) into a flat op
tape with pre-resolved kernels and dispatches to the configured engine
backend (``bigint``/``numpy``/``sharded``).  The original per-gate
interpreter survives as :func:`simulate_interpreted` — it is the
reference implementation the engine is differentially tested against,
and the ``legacy`` baseline of the ``engine`` bench suite.
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
             num_vectors: Optional[int] = None,
             backend: Optional[str] = None) -> Dict[str, List[Word]]:
    """Simulate *circuit* on bit-parallel stimulus (compiled engine).

    Args:
        circuit: Circuit to evaluate.
        stimulus: Mapping from input bus name to a list of per-bit words
            (LSB first).  Each word packs one bit of every test vector.
        num_vectors: Number of packed test vectors.  Required for Python-int
            words (it defines the negation mask); inferred from the dtype
            for NumPy words.
        backend: Engine backend override (default: ``numpy`` for array
            stimulus, otherwise the run context's backend).

    Returns:
        Mapping from output bus name to per-bit words, LSB first.
    """
    from ..engine import api as _api

    sample = _first_word(circuit, stimulus)
    if isinstance(sample, np.ndarray):
        return _simulate_arrays(circuit, stimulus, sample)
    return _api.execute(circuit, stimulus, num_vectors=num_vectors,
                        backend=backend)


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
    """Element-wise array mode: every array element is an independent
    word of ``dtype``-many vectors.  Bitwise gate semantics are position
    independent, so the engine evaluates the byte-identical uint64 view
    and the results are cast back to the caller's dtype and shape."""
    from ..engine import api as _api
    from ..engine.backends import NumpyBackend, get_backend

    dtype = sample.dtype
    shape = sample.shape
    nbytes_elem = dtype.itemsize
    total_bytes = sample.size * nbytes_elem
    nwords = (total_bytes + 7) // 8

    def to_u64(arr: np.ndarray) -> np.ndarray:
        if arr.dtype != dtype or arr.shape != shape:
            raise CircuitError("mixed stimulus dtypes/shapes")
        raw = np.ascontiguousarray(arr).tobytes()
        raw += b"\x00" * (nwords * 8 - len(raw))
        return np.frombuffer(raw, dtype="<u8").copy()

    rows = {name: [to_u64(np.asarray(w)) for w in stimulus[name]]
            for name in circuit.inputs}
    backend = get_backend("numpy")
    if not isinstance(backend, NumpyBackend):  # pragma: no cover - custom
        backend = NumpyBackend()
    plan = _api.compiled_plan(circuit)
    out = backend.run_u64(plan, rows, nwords)

    def from_u64(arr: np.ndarray) -> np.ndarray:
        raw = arr.tobytes()[:total_bytes]
        return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()

    return {name: [from_u64(a) for a in words]
            for name, words in out.items()}


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
                   num_vectors: int,
                   backend: Optional[str] = None) -> Dict[str, List[int]]:
    """Alias of :func:`simulate` for Python-int words (explicit vector count)."""
    return simulate(circuit, stimulus, num_vectors=num_vectors,
                    backend=backend)


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
