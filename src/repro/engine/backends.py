"""Pluggable execution backends for compiled circuit plans.

Three backends share one interface (:class:`Backend.run`):

* ``bigint`` — packed Python-int bitslice words; arbitrarily many
  vectors per word, zero dependencies, and the only backend supporting
  per-net *forcing* (fault injection needs an unfused plan).
* ``numpy`` — vectors packed 64-per-``uint64`` word, evaluated with
  per-level batch kernels over a cache-blocked value plane.  Measured
  at 0.48-0.70x the legacy interpreter on a 2-vCPU host, so it is not
  a fast path.
* ``sharded`` — splits the vector set into blocks, fans the blocks out
  over worker processes (bigint kernel per shard), and merges with a
  commutative OR so the result is independent of completion order.
  Shard seeds, when a shard needs its own randomness, come from
  :func:`repro.engine.context.spawn_seeds` — deterministic in the shard
  *index*, never in scheduling.

Backends consume stimulus as ``{bus name: [per-bit words]}`` (the layout
of :func:`repro.circuit.simulate.simulate`) and produce outputs in the
same layout, so the legacy API can delegate wholesale.
"""

from __future__ import annotations

import os
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..circuit.netlist import CircuitError
from .context import RunContext, get_default_context
from .pack import u64_to_word, word_to_u64
from .plan import (
    OP_AND, OP_AO21, OP_COPY, OP_MAJ3, OP_MUX2, OP_OA21, OP_OR, OP_XOR,
    CompiledPlan,
)

__all__ = [
    "Backend", "BigintBackend", "NumpyBackend", "ShardedBackend",
    "get_backend", "available_backends", "register_backend",
    "merge_shard_words",
]

Word = Union[int, np.ndarray]
Stimulus = Mapping[str, Sequence[Word]]

_U64_FULL = np.uint64(0xFFFFFFFFFFFFFFFF)


class Backend:
    """Interface every execution backend implements."""

    #: Registry key; subclasses override.
    name = "abstract"
    #: Whether ``force`` (per-slot constant overrides) is supported.
    supports_force = False

    def run(self, plan: CompiledPlan, stimulus: Stimulus, num_vectors: int,
            ctx: Optional[RunContext] = None,
            force: Optional[Mapping[int, int]] = None
            ) -> Dict[str, List[Word]]:
        """Evaluate *plan* on *stimulus*; returns per-output bit words.

        Args:
            plan: Compiled circuit.
            stimulus: Input bus name -> per-bit packed words.
            num_vectors: Vectors packed per word.
            ctx: Instrumentation sink (gate-eval counters, phase times).
            force: Slot -> 0/1 constant overrides (fault injection);
                only honoured by backends with ``supports_force``.
        """
        raise NotImplementedError

    def _account(self, ctx: Optional[RunContext], plan: CompiledPlan,
                 num_vectors: int) -> None:
        ctx = ctx or get_default_context()
        ctx.add("gate_evals", plan.num_gates)
        ctx.add("vectors", num_vectors)
        ctx.add(f"runs_{self.name}", 1)


# ----------------------------------------------------------------------
# bigint
# ----------------------------------------------------------------------
def _run_tape_bigint(plan: CompiledPlan, vals: List[int], mask: int,
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


class BigintBackend(Backend):
    """Packed Python-int execution of the compiled tape."""

    name = "bigint"
    supports_force = True

    def run(self, plan, stimulus, num_vectors, ctx=None, force=None):
        if num_vectors <= 0:
            raise CircuitError("num_vectors must be positive")
        mask = (1 << num_vectors) - 1
        vals: List[int] = [0] * plan.num_slots
        for slot, bit in plan.const_slots:
            vals[slot] = mask if bit else 0
        for name, slots in plan.input_slots.items():
            words = stimulus[name]
            for slot, word in zip(slots, words):
                vals[slot] = int(word) & mask
        _run_tape_bigint(plan, vals, mask, force)
        self._account(ctx, plan, num_vectors)
        return {name: [vals[s] for s in slots]
                for name, slots in plan.output_slots.items()}


# ----------------------------------------------------------------------
# numpy
# ----------------------------------------------------------------------
def _run_batches_numpy(plan: CompiledPlan, v: np.ndarray) -> None:
    """Evaluate all batch groups over one value-plane block ``v``."""
    for g in plan.batches:
        i = g.ins
        if g.opcode == OP_AND:
            r = v[i[0]] & v[i[1]]
        elif g.opcode == OP_OR:
            r = v[i[0]] | v[i[1]]
        elif g.opcode == OP_XOR:
            r = v[i[0]] ^ v[i[1]]
        elif g.opcode == OP_COPY:
            r = v[i[0]].copy()
        elif g.opcode == OP_AO21:
            r = (v[i[0]] & v[i[1]]) | v[i[2]]
        elif g.opcode == OP_OA21:
            r = (v[i[0]] | v[i[1]]) & v[i[2]]
        elif g.opcode == OP_MUX2:
            s = v[i[0]]
            r = (v[i[1]] & s) | (v[i[2]] & ~s)
        else:  # OP_MAJ3
            a, b, c = v[i[0]], v[i[1]], v[i[2]]
            r = (a & b) | (a & c) | (b & c)
        if g.invert:
            np.bitwise_xor(r, _U64_FULL, out=r)
        v[g.outs] = r


class NumpyBackend(Backend):
    """Cache-blocked uint64 batch-kernel execution.

    Args:
        block_words: uint64 words per cache block (64 vectors each).
            The default keeps the working plane of typical datapaths
            inside L2, which is worth ~3x over unblocked evaluation.
    """

    name = "numpy"

    def __init__(self, block_words: int = 1024):
        if block_words <= 0:
            raise ValueError("block_words must be positive")
        self.block_words = block_words

    def run_u64(self, plan: CompiledPlan,
                rows: Mapping[str, Sequence[np.ndarray]], nwords: int,
                ctx: Optional[RunContext] = None
                ) -> Dict[str, List[np.ndarray]]:
        """Array-native core: uint64 chunk rows in, uint64 rows out.

        Args:
            plan: Compiled circuit.
            rows: Input bus name -> one uint64 array of ``nwords`` chunks
                per bit (LSB first).
            nwords: uint64 chunks per bit row.
        """
        in_rows: List[Tuple[int, np.ndarray]] = []
        for name, slots in plan.input_slots.items():
            for slot, arr in zip(slots, rows[name]):
                if arr.shape[0] != nwords:
                    raise CircuitError(
                        f"input {name!r}: expected {nwords} uint64 words, "
                        f"got {arr.shape[0]}")
                in_rows.append((slot, arr))

        bw = self.block_words
        plane = np.zeros((plan.num_slots, min(bw, nwords)), dtype=np.uint64)
        out_items = [(name, bit, slot)
                     for name, slots in plan.output_slots.items()
                     for bit, slot in enumerate(slots)]
        out_arrays = {(name, bit): np.empty(nwords, dtype=np.uint64)
                      for name, bit, _ in out_items}

        for start in range(0, nwords, bw):
            stop = min(nwords, start + bw)
            v = plane[:, :stop - start]
            for slot, bit in plan.const_slots:
                v[slot] = _U64_FULL if bit else 0
            for slot, arr in in_rows:
                v[slot] = arr[start:stop]
            _run_batches_numpy(plan, v)
            for name, bit, slot in out_items:
                out_arrays[(name, bit)][start:stop] = v[slot]

        self._account(ctx, plan, nwords * 64)
        return {name: [out_arrays[(name, bit)]
                       for bit in range(len(slots))]
                for name, slots in plan.output_slots.items()}

    def run(self, plan, stimulus, num_vectors, ctx=None, force=None):
        if force:
            raise CircuitError(
                "forcing requires the bigint backend (unfused tape)")
        if num_vectors <= 0:
            raise CircuitError("num_vectors must be positive")
        nwords = (num_vectors + 63) // 64
        rows = {
            name: [word_to_u64(int(w), num_vectors) for w in stimulus[name]]
            for name in plan.input_slots}
        out = self.run_u64(plan, rows, nwords, ctx)
        return {name: [u64_to_word(arr, num_vectors) for arr in words]
                for name, words in out.items()}


# ----------------------------------------------------------------------
# sharded
# ----------------------------------------------------------------------
def merge_shard_words(shards: Sequence[Tuple[int, Dict[str, List[int]]]]
                      ) -> Dict[str, List[int]]:
    """OR-merge per-shard output words back into full packed words.

    Args:
        shards: ``(vector_offset, outputs)`` pairs in **any** order —
            the merge is a commutative OR of disjoint bit ranges, so the
            result is independent of shard completion order (regression
            tested).
    """
    merged: Dict[str, List[int]] = {}
    for offset, outputs in shards:
        for name, words in outputs.items():
            if name not in merged:
                merged[name] = [0] * len(words)
            acc = merged[name]
            for bit, word in enumerate(words):
                acc[bit] |= word << offset
    return merged


def _run_shard(plan: CompiledPlan, stimulus: Dict[str, List[int]],
               num_vectors: int) -> Dict[str, List[int]]:
    """Worker entry point: evaluate one vector block (no context)."""
    return BigintBackend().run(plan, stimulus, num_vectors)


class ShardedBackend(Backend):
    """Chunked multi-process fan-out over vector blocks.

    Args:
        shard_vectors: Vectors per shard (the fan-out granularity).
        max_workers: Process count; ``None`` picks from
            ``REPRO_SHARD_WORKERS`` or the CPU count (capped at 4), and
            ``1`` (or an unavailable pool) degrades to in-process
            execution with identical results.
    """

    name = "sharded"

    def __init__(self, shard_vectors: int = 1 << 16,
                 max_workers: Optional[int] = None):
        if shard_vectors <= 0:
            raise ValueError("shard_vectors must be positive")
        self.shard_vectors = shard_vectors
        if max_workers is None:
            env = os.environ.get("REPRO_SHARD_WORKERS")
            max_workers = (int(env) if env
                           else min(4, os.cpu_count() or 1))
        self.max_workers = max(1, max_workers)

    def split(self, stimulus: Stimulus,
              num_vectors: int) -> List[Tuple[int, int]]:
        """``(offset, count)`` of every shard, in deterministic order."""
        return [(s, min(self.shard_vectors, num_vectors - s))
                for s in range(0, num_vectors, self.shard_vectors)]

    def run(self, plan, stimulus, num_vectors, ctx=None, force=None):
        if force:
            raise CircuitError(
                "forcing requires the bigint backend (unfused tape)")
        if num_vectors <= 0:
            raise CircuitError("num_vectors must be positive")
        shards = self.split(stimulus, num_vectors)
        jobs = []
        for offset, count in shards:
            chunk_mask = (1 << count) - 1
            shard_stim = {
                name: [(int(w) >> offset) & chunk_mask for w in words]
                for name, words in stimulus.items()}
            jobs.append((offset, shard_stim, count))

        results: List[Tuple[int, Dict[str, List[int]]]] = []
        pool_ok = self.max_workers > 1 and len(jobs) > 1
        if pool_ok:
            try:
                from concurrent.futures import ProcessPoolExecutor
                with ProcessPoolExecutor(
                        max_workers=min(self.max_workers, len(jobs))) as ex:
                    futures = [(offset,
                                ex.submit(_run_shard, plan, stim, count))
                               for offset, stim, count in jobs]
                    results = [(offset, fut.result())
                               for offset, fut in futures]
            except (OSError, PermissionError, RuntimeError):
                results = []  # pool unavailable: fall back to in-process
        if not results:
            results = [(offset, _run_shard(plan, stim, count))
                       for offset, stim, count in jobs]

        ctx = ctx or get_default_context()
        ctx.add("shards", len(jobs))
        self._account(ctx, plan, num_vectors)
        return merge_shard_words(results)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, Backend] = {}


def register_backend(backend: Backend) -> Backend:
    """Add *backend* to the registry under ``backend.name``."""
    _REGISTRY[backend.name] = backend
    return backend


register_backend(BigintBackend())
register_backend(NumpyBackend())
register_backend(ShardedBackend())


def available_backends() -> List[str]:
    """Registered backend names (stable order)."""
    return sorted(_REGISTRY)


def get_backend(name: Union[str, Backend]) -> Backend:
    """Look up a backend by name (instances pass through)."""
    if isinstance(name, Backend):
        return name
    try:
        return _REGISTRY[name]
    except KeyError:
        raise CircuitError(
            f"unknown backend {name!r}; available: "
            f"{', '.join(available_backends())}") from None
