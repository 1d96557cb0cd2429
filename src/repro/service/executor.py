"""Batched VLSA evaluation backing the service's micro-batcher.

One coalesced batch of operand pairs is evaluated in a single call on
one path at every width: the pairs become
:func:`~repro.families.words.lanes` (``uint64`` at widths up to 64,
``dtype=object`` Python ints above) and the family's functional model
runs its rule on them once
(:meth:`~repro.families.base.SpeculativeModel.evaluate`): exact sums,
detector flags and speculative-error flags for the whole batch in a
handful of word operations.  The cluster workers and the cycle-accurate
:class:`~repro.arch.vlsa_machine.VlsaMachine` run the same path; the
verifier cross-checks it against the model's three-pass ``run_arrays``.

Latency semantics are those of the paper's Fig. 6 machine: the VLSA
always returns the **correct** sum; what varies is the cycle count — 1
cycle when the detector stays silent (the speculative result is then
provably right), ``1 + recovery_cycles`` when it fires.  The service's
virtual cycle clock therefore advances by ``n + recovery_cycles *
stalls`` per batch, and per-request accounting never needs the (slow)
speculative sum at all — only the detector word.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from ..engine.context import RunContext
from ..engine.functional import functional_model
from ..families.base import get_family
from ..families.words import lanes

__all__ = ["BatchOutcome", "BatchArrays", "Pairs", "ResultColumn",
           "ResultColumns", "VlsaBatchExecutor", "count_true",
           "pairs_array"]

#: Operand pairs as callers hand them in: an ``(n, 2)`` array or a
#: sequence of ``(a, b)`` integer pairs.
Pairs = Union[np.ndarray, Sequence[Tuple[int, int]]]


_SHAPE_ERROR = "expected (n, 2) operand pairs"


def pairs_array(pairs: Pairs, width: int) -> np.ndarray:
    """*pairs* as an ``(n, 2)`` array of lanes: uint64 at widths up to
    64, Python ints above.

    A uint64 array at widths up to 64 passes through as is (the rule
    masks it).  Anything else becomes :func:`~repro.families.words.
    lanes`, masked to *width* bits, so one malformed pair (negative, or
    ``>= 2**64``) never raises out of a batch.

    Raises:
        ValueError: *pairs* is not ``(n, 2)``-shaped.
    """
    if not (width <= 64 and isinstance(pairs, np.ndarray)
            and pairs.dtype == np.uint64):
        try:
            pairs = lanes(pairs, width)
        except (OverflowError, TypeError, ValueError):
            raise ValueError(_SHAPE_ERROR) from None
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError(_SHAPE_ERROR)
    return pairs


def count_true(column) -> int:
    """Number of true flags in *column*, a numpy array or a list."""
    if isinstance(column, np.ndarray):
        return int(np.count_nonzero(column))
    return sum(column)


class ResultColumn:
    """A per-addition result column, stored as given and read as a list.

    The owning object keeps the column under ``_<name>``: a numpy array
    (an executor's outcome, a slice of one) or a list.  Reading ``<name>``
    returns a list; an array is converted once, on first read, and the
    list then shadows this descriptor in the instance dict.  So the
    array path builds Python objects only for callers that read the
    attribute.
    """

    def __set_name__(self, owner, name: str) -> None:
        self.name = name
        self.stored = "_" + name

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        value = getattr(obj, self.stored)
        if isinstance(value, np.ndarray):
            value = value.tolist()
        obj.__dict__[self.name] = value
        return value


class ResultColumns:
    """Parallel per-addition result columns plus scalar accounting.

    Subclasses declare their columns as :class:`ResultColumn` attributes
    and list them in ``_COLUMNS``; their scalars go in ``_SCALARS``.
    Equality and ``repr`` compare and show the list form.
    """

    _COLUMNS: Tuple[str, ...] = ()
    _SCALARS: Tuple[str, ...] = ()

    def column(self, name: str):
        """Column *name* as stored: a numpy array or a list."""
        return getattr(self, "_" + name)

    @property
    def size(self) -> int:
        return len(self.column(self._COLUMNS[0]))

    def _fields(self) -> list:
        return [getattr(self, f) for f in self._COLUMNS + self._SCALARS]

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None  # mutable

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={getattr(self, f)!r}"
                         for f in self._COLUMNS + self._SCALARS)
        return f"{type(self).__name__}({body})"


class BatchOutcome(ResultColumns):
    """Result of one coalesced batch through the speculative datapath.

    Columns (numpy arrays as the executor returns them, lists for an
    empty batch; attribute reads give lists, see :class:`ResultColumn`):

    * ``sums``: final (always correct) sums, one per pair;
    * ``couts``: final carry-outs, one per pair;
    * ``stalled``: per-pair detector decision (True = recovery taken);
    * ``spec_errors``: per-pair "speculative sum was actually wrong"
      (a subset of ``stalled``; the detector is conservative);
    * ``latencies``: per-pair latency in cycles (1 or 1 + recovery).

    ``cycles`` is the total the batch occupied the accelerator.
    """

    sums = ResultColumn()
    couts = ResultColumn()
    stalled = ResultColumn()
    spec_errors = ResultColumn()
    latencies = ResultColumn()
    _COLUMNS = ("sums", "couts", "stalled", "spec_errors", "latencies")
    _SCALARS = ("cycles",)

    def __init__(self, sums, couts, stalled, spec_errors, latencies,
                 cycles: int):
        self._sums = sums
        self._couts = couts
        self._stalled = stalled
        self._spec_errors = spec_errors
        self._latencies = latencies
        self.cycles = cycles

    @property
    def stall_count(self) -> int:
        return count_true(self._stalled)

    @property
    def spec_error_count(self) -> int:
        return count_true(self._spec_errors)


@dataclass
class BatchArrays:
    """Array-native batch result (the cluster's wire format).

    Same values as :class:`BatchOutcome`, kept as numpy arrays so a
    worker process can ship them over a pipe as buffer copies instead
    of a million pickled Python ints.  ``to_outcome`` wraps the same
    arrays (no copy, no lists).
    """

    sums: np.ndarray       # lanes: uint64, or object above 64 bits
    couts: np.ndarray      # lanes (0/1)
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
            sums=self.sums,
            couts=self.couts,
            stalled=self.stalled,
            spec_errors=self.spec_errors,
            latencies=self.latencies(),
            cycles=self.cycles,
        )


class VlsaBatchExecutor:
    """Evaluates coalesced operand batches with VLSA latency semantics.

    Args:
        width: Operand bitwidth.
        window: The family's primary parameter (for ACA, the
            speculation window; default: the family's own choice).
        recovery_cycles: Cycles added when the detector fires.
        ctx: Optional run context; batches bump its ``service_ops`` /
            ``service_stalls`` counters and the ``service_execute``
            phase timer.
        family: Registered adder family (default the paper's
            ``"aca"``); batches run its functional model's rule.
    """

    def __init__(self, width: int, window: Optional[int] = None,
                 recovery_cycles: int = 1,
                 ctx: Optional[RunContext] = None, family: str = "aca"):
        if width <= 0:
            raise ValueError("width must be positive")
        if recovery_cycles < 1:
            raise ValueError("recovery needs at least one extra cycle")
        fam = get_family(family)
        params = fam.resolve_params(width, window=window)
        window = fam.primary_value(width, params)
        self.width = width
        self.window = window
        self.family = family
        self.recovery_cycles = recovery_cycles
        self.ctx = ctx
        # The family's functional model; its rule runs once per batch.
        self.model = functional_model(family, width=width, window=window)

    # ------------------------------------------------------------------
    def execute(self, pairs: Pairs) -> BatchOutcome:
        """Evaluate every ``(a, b)`` pair in *pairs* as one batch.

        An ``(n, 2)`` uint64 array runs with no Python object built at
        widths up to 64; the outcome's columns stay arrays.
        """
        if self.ctx is not None:
            with self.ctx.phase("service_execute"):
                outcome = self._execute(pairs)
            self.ctx.add("service_ops", outcome.size)
            self.ctx.add("service_stalls", outcome.stall_count)
            self.ctx.add("service_batches")
            return outcome
        return self._execute(pairs)

    def _execute(self, pairs: Pairs) -> BatchOutcome:
        if len(pairs) == 0:
            return BatchOutcome([], [], [], [], [], 0)
        return self.execute_arrays(self.coerce_pairs_array(pairs)
                                   ).to_outcome()

    def coerce_pairs_array(self, pairs: Pairs) -> np.ndarray:
        """``(n, 2)`` operand lanes; see :func:`pairs_array`."""
        return pairs_array(pairs, self.width)

    def execute_arrays(self, arr: np.ndarray) -> BatchArrays:
        """Array-in/array-out batch (the cluster worker's hot path).

        *arr* is the ``(n, 2)`` lane array from
        :meth:`coerce_pairs_array`.
        """
        batch = self.model.evaluate(arr[:, 0], arr[:, 1])
        stall_count = int(np.count_nonzero(batch.flags))
        return BatchArrays(
            sums=batch.exact_sums, couts=batch.exact_couts,
            stalled=batch.flags, spec_errors=batch.spec_errors,
            cycles=arr.shape[0] + self.recovery_cycles * stall_count,
            recovery_cycles=self.recovery_cycles)
