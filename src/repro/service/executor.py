"""Batched VLSA evaluation backing the service's micro-batcher.

One coalesced batch of operand pairs is evaluated in a single call,
mirroring the engine's backend split:

* ``numpy`` — the family's own ``numpy_kernel`` for widths up to 64
  bits (the throughput path: exact sums, detector flags and
  speculative-error flags for a whole batch in a handful of array ops;
  the same kernel the cluster workers and the verifier run);
* ``bigint`` — per-pair loop over the family's functional model (for
  the ACA, :class:`~repro.families.aca.AcaModel`), the fallback for
  arbitrary widths and the reference the numpy kernel is cross-checked
  against in the tests.

Latency semantics are exactly those of
:class:`~repro.arch.vlsa_machine.VlsaMachine`: the VLSA always returns
the **correct** sum; what varies is the cycle count — 1 cycle when the
detector stays silent (the speculative result is then provably right),
``1 + recovery_cycles`` when it fires.  The service's virtual cycle
clock therefore advances by ``n + recovery_cycles * stalls`` per batch,
and per-request accounting never needs the (slow) speculative sum at
all — only the detector word.  The tests cross-check this equivalence
against a real ``VlsaMachine`` run, operand for operand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..engine.context import RunContext
from ..engine.functional import functional_model
from ..families.base import get_family

__all__ = ["BatchOutcome", "BatchArrays", "VlsaBatchExecutor",
           "EXECUTOR_BACKENDS"]

#: Executor backend names (mirrors the engine backend vocabulary).
EXECUTOR_BACKENDS = ("numpy", "bigint")


@dataclass
class BatchOutcome:
    """Result of one coalesced batch through the speculative datapath.

    Attributes:
        sums: Final (always correct) sums, one per pair.
        couts: Final carry-outs, one per pair.
        stalled: Per-pair detector decision (True = recovery taken).
        spec_errors: Per-pair "speculative sum was actually wrong"
            (a subset of ``stalled``; the detector is conservative).
        latencies: Per-pair latency in cycles (1 or 1 + recovery).
        cycles: Total cycles the batch occupied the accelerator.
    """

    sums: List[int]
    couts: List[int]
    stalled: List[bool]
    spec_errors: List[bool]
    latencies: List[int]
    cycles: int

    @property
    def size(self) -> int:
        return len(self.sums)

    @property
    def stall_count(self) -> int:
        return sum(self.stalled)

    @property
    def spec_error_count(self) -> int:
        return sum(self.spec_errors)


@dataclass
class BatchArrays:
    """Array-native batch result (the cluster's wire format).

    Same values as :class:`BatchOutcome`, kept as numpy arrays so a
    worker process can ship them over a pipe as buffer copies instead
    of a million pickled Python ints.  ``to_outcome`` materialises the
    list form (bit-identical to :meth:`VlsaBatchExecutor.execute`).
    """

    sums: np.ndarray       # uint64
    couts: np.ndarray      # uint64 (0/1)
    stalled: np.ndarray    # bool
    spec_errors: np.ndarray  # bool
    cycles: int
    recovery_cycles: int

    @property
    def size(self) -> int:
        return int(self.sums.shape[0])

    @property
    def stall_count(self) -> int:
        return int(self.stalled.sum())

    def latencies(self) -> np.ndarray:
        return np.where(self.stalled, 1 + self.recovery_cycles, 1)

    def to_outcome(self) -> BatchOutcome:
        return BatchOutcome(
            sums=self.sums.tolist(),
            couts=self.couts.tolist(),
            stalled=self.stalled.tolist(),
            spec_errors=self.spec_errors.tolist(),
            latencies=self.latencies().tolist(),
            cycles=self.cycles,
        )


class VlsaBatchExecutor:
    """Evaluates coalesced operand batches with VLSA latency semantics.

    Args:
        width: Operand bitwidth.
        window: The family's primary parameter (for ACA, the
            speculation window; default: the family's own choice).
        recovery_cycles: Cycles added when the detector fires.
        backend: ``"numpy"``, ``"bigint"``, or ``None`` for automatic
            (numpy when the width fits a machine word).
        ctx: Optional run context; batches bump its ``service_ops`` /
            ``service_stalls`` counters and the ``service_execute``
            phase timer.
        family: Registered adder family (default the paper's
            ``"aca"``); the numpy backend runs its ``numpy_kernel``.
    """

    def __init__(self, width: int, window: Optional[int] = None,
                 recovery_cycles: int = 1, backend: Optional[str] = None,
                 ctx: Optional[RunContext] = None, family: str = "aca"):
        if width <= 0:
            raise ValueError("width must be positive")
        if recovery_cycles < 1:
            raise ValueError("recovery needs at least one extra cycle")
        fam = get_family(family)
        params = fam.resolve_params(width, window=window)
        window = fam.primary_value(width, params)
        if backend is None:
            backend = "numpy" if width <= 64 else "bigint"
        if backend not in EXECUTOR_BACKENDS:
            raise ValueError(f"unknown executor backend {backend!r}; "
                             f"expected one of {EXECUTOR_BACKENDS}")
        if backend == "numpy" and width > 64:
            raise ValueError("numpy executor supports widths up to 64 bits"
                             " — use the bigint fallback")
        self.width = width
        self.window = window
        self.family = family
        self.recovery_cycles = recovery_cycles
        self.backend = backend
        self.ctx = ctx
        # Functional reference model (shared with VlsaMachine).
        self.model = functional_model(family, width=width, window=window)
        self._kernel = None
        if backend == "numpy":
            self._kernel = fam.numpy_kernel(width, **params)
            if self._kernel is None:
                raise ValueError(
                    f"family {family!r} has no numpy kernel at width "
                    f"{width} — use the bigint backend")

    # ------------------------------------------------------------------
    def execute(self, pairs: Sequence[Tuple[int, int]]) -> BatchOutcome:
        """Evaluate every ``(a, b)`` pair in *pairs* as one batch."""
        if self.ctx is not None:
            with self.ctx.phase("service_execute"):
                outcome = self._dispatch(pairs)
            self.ctx.add("service_ops", outcome.size)
            self.ctx.add("service_stalls", outcome.stall_count)
            self.ctx.add("service_batches")
            return outcome
        return self._dispatch(pairs)

    def _dispatch(self, pairs: Sequence[Tuple[int, int]]) -> BatchOutcome:
        if not pairs:
            return BatchOutcome([], [], [], [], [], 0)
        if self.backend == "numpy":
            return self._execute_numpy(pairs)
        return self._execute_bigint(pairs)

    # -- numpy fast path ------------------------------------------------
    def coerce_pairs_array(self, pairs: Sequence[Tuple[int, int]]
                           ) -> np.ndarray:
        """``(n, 2)`` uint64 operand array, masking malformed operands."""
        if isinstance(pairs, np.ndarray) and pairs.dtype == np.uint64:
            return pairs
        int_mask = (1 << self.width) - 1
        try:
            return np.asarray(pairs, dtype=np.uint64)
        except (OverflowError, ValueError, TypeError):
            # Out-of-range operands (negative, or >= 2^64) cannot be
            # converted directly; mask them in Python first so one
            # malformed pair never raises out of the batch.
            return np.array([[pa & int_mask, pb & int_mask]
                             for pa, pb in pairs], dtype=np.uint64)

    def execute_arrays(self, arr: np.ndarray) -> BatchArrays:
        """Array-in/array-out numpy kernel (cluster worker hot path).

        *arr* is the ``(n, 2)`` uint64 array from
        :meth:`coerce_pairs_array`.  Only valid on the numpy backend.
        """
        if self.backend != "numpy":
            raise ValueError("execute_arrays requires the numpy backend")
        batch = self._kernel(arr[:, 0], arr[:, 1])
        stall_count = int(np.count_nonzero(batch.flags))
        return BatchArrays(
            sums=batch.exact_sums, couts=batch.exact_couts,
            stalled=batch.flags, spec_errors=batch.spec_errors,
            cycles=arr.shape[0] + self.recovery_cycles * stall_count,
            recovery_cycles=self.recovery_cycles)

    def _execute_numpy(self, pairs: Sequence[Tuple[int, int]]
                       ) -> BatchOutcome:
        return self.execute_arrays(self.coerce_pairs_array(pairs)
                                   ).to_outcome()

    # -- bigint fallback ------------------------------------------------
    def _execute_bigint(self, pairs: Sequence[Tuple[int, int]]
                        ) -> BatchOutcome:
        model = self.model
        sums: List[int] = []
        couts: List[int] = []
        stalled: List[bool] = []
        spec_errors: List[bool] = []
        latencies: List[int] = []
        cycles = 0
        for a, b in pairs:
            flagged = model.flags_error(a, b)
            exact_sum, exact_cout = model.exact(a, b)
            spec_wrong = flagged and not model.is_correct(a, b)
            latency = 1 + (self.recovery_cycles if flagged else 0)
            sums.append(exact_sum)
            couts.append(exact_cout)
            stalled.append(flagged)
            spec_errors.append(spec_wrong)
            latencies.append(latency)
            cycles += latency
        return BatchOutcome(sums, couts, stalled, spec_errors,
                            latencies, cycles)
