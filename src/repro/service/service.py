"""`VlsaService` — the VLSA as a shared, asynchronously served accelerator.

The paper's variable-latency datapath has exactly the shape of a
latency-SLO serving problem: almost every request completes in one fast
cycle, a rare detector fire costs recovery cycles, and the *average*
service time is what wins.  This module turns the reproduction into that
service:

* **Bounded admission queue.**  ``queue_capacity`` requests may wait at
  once; a full queue **rejects** immediately (`ServiceOverloadedError`),
  so memory stays bounded under any offered load and the caller — not
  the service — decides whether to retry.  Rejections, timeouts and
  cancellations are all counted in the metrics registry; nothing is
  dropped silently.
* **Dynamic micro-batcher.**  A single consumer task drains whatever is
  queued (up to ``max_batch_ops`` additions) and evaluates it as one
  coalesced batch on the :class:`~repro.service.executor.VlsaBatchExecutor`
  (the family's rule on uint64 lanes, or Python-int lanes above 64 bits).
  Under light load batches are small and latency is minimal; under heavy
  load batches grow toward the cap and throughput dominates — no tuning
  knob needs turning.
* **Variable-latency accounting.**  A virtual cycle clock models the
  accelerator serially, reusing the
  :class:`~repro.arch.vlsa_machine.VlsaMachine` semantics: each addition
  is accepted at the current cycle and costs 1 cycle, plus
  ``recovery_cycles`` when the error detector fires.  Per-request
  responses carry ``accept_cycle`` and ``latency_cycles``; the mean over
  a uniform stream reproduces the paper's ~1.0002.
* **Timeout / retry / cancellation.**  `submit(..., timeout=)` resolves
  to `RequestTimeoutError` if the response is not ready in time;
  `submit(..., retries=N)` retries admission after overload with
  exponential backoff; cancelling the awaiting task abandons the
  request, and the batcher skips abandoned work without double-answering
  anything (property-tested under random cancellation).
"""

from __future__ import annotations

import asyncio
import itertools
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..analysis.error_model import expected_latency_cycles
from ..engine.context import RunContext
from ..families import get_family
from .executor import (
    Pairs,
    ResultColumn,
    ResultColumns,
    VlsaBatchExecutor,
    count_true,
    pairs_array,
)
from .metrics import MetricsRegistry
from .tracing import Tracer

__all__ = [
    "ServiceError",
    "ServiceClosedError",
    "ServiceOverloadedError",
    "RequestTimeoutError",
    "AddResponse",
    "BatchResponse",
    "VlsaService",
]


class ServiceError(Exception):
    """Base class for serving-layer failures."""


class ServiceClosedError(ServiceError):
    """The service is not running (never started, or already stopped)."""


class ServiceOverloadedError(ServiceError):
    """Admission queue full — request rejected for backpressure."""


class RequestTimeoutError(ServiceError):
    """The caller's deadline expired before the response was ready."""


@dataclass
class AddResponse:
    """Outcome of one addition served by the VLSA.

    Mirrors :class:`~repro.arch.vlsa_machine.VlsaOpResult`: the sum is
    always correct; the *latency* is what varies.
    """

    a: int
    b: int
    sum_out: int
    cout: int
    stalled: bool
    latency_cycles: int
    accept_cycle: int


class BatchResponse(ResultColumns):
    """Outcome of a client-side batch submitted as one request.

    Per-addition results are parallel columns (a million-op load test
    should not allocate a million dataclasses): numpy arrays, slices of
    the batch's result arrays (lists for an empty batch).  ``sums``,
    ``couts``, ``stalled`` and ``latencies`` read as lists, built on
    first read (see :class:`~repro.service.executor.ResultColumn`);
    :meth:`column` gives a column as stored, which is what the TCP edge
    renders its reply from.  Aggregate accounting is precomputed.
    """

    sums = ResultColumn()
    couts = ResultColumn()
    stalled = ResultColumn()
    latencies = ResultColumn()
    _COLUMNS = ("sums", "couts", "stalled", "latencies")
    _SCALARS = ("accept_cycle", "cycles", "stall_count")

    def __init__(self, sums, couts, stalled, latencies, accept_cycle: int,
                 cycles: int = 0, stall_count: int = 0):
        self._sums = sums
        self._couts = couts
        self._stalled = stalled
        self._latencies = latencies
        self.accept_cycle = accept_cycle
        self.cycles = cycles
        self.stall_count = stall_count


@dataclass
class _Pending:
    """One admitted queue entry (a scalar add or a client batch)."""

    pairs: Pairs  # an (n, 2) lane array (batches) or int pairs (scalars)
    future: "asyncio.Future"
    scalar: bool
    enqueued_at: float = 0.0
    id: int = 0

    @property
    def ops(self) -> int:
        return len(self.pairs)


_SHUTDOWN = object()


class VlsaService:
    """Async batched serving front-end over the speculative adder.

    Args:
        width: Operand bitwidth.
        window: The family's primary parameter (for ACA, the
            speculation window; default: the family's own choice).
        family: Registered adder family to serve (default ``"aca"``).
        recovery_cycles: Extra cycles when the detector fires.
        queue_capacity: Max requests waiting for the batcher (Q); further
            submissions are rejected with :class:`ServiceOverloadedError`.
        max_batch_ops: Max additions coalesced into one executor batch.
        ctx: Optional run context (counters, phase timers, trace events).
        registry: Metrics registry to record into (default: a fresh one).

    Use as an async context manager, or call :meth:`start`/:meth:`stop`::

        async with VlsaService(width=64) as svc:
            resp = await svc.submit(123, 456)
    """

    def __init__(self, width: int = 64, window: Optional[int] = None,
                 recovery_cycles: int = 1, queue_capacity: int = 1024,
                 max_batch_ops: int = 4096,
                 ctx: Optional[RunContext] = None,
                 registry: Optional[MetricsRegistry] = None,
                 family: str = "aca"):
        if queue_capacity < 1:
            raise ValueError("queue_capacity must be at least 1")
        if max_batch_ops < 1:
            raise ValueError("max_batch_ops must be at least 1")
        self.executor = VlsaBatchExecutor(width, window=window,
                                          recovery_cycles=recovery_cycles,
                                          ctx=ctx, family=family)
        self.width = self.executor.width
        self.window = self.executor.window
        self.family = family
        self.recovery_cycles = recovery_cycles
        self.queue_capacity = queue_capacity
        self.max_batch_ops = max_batch_ops
        self._operand_mask = (1 << self.width) - 1
        self.ctx = ctx
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = Tracer(ctx=ctx)
        self._queue: "Optional[asyncio.Queue]" = None
        self._batcher: "Optional[asyncio.Task]" = None
        self._cycle = 0
        self._ids = itertools.count()
        self._batch_observers: List = []
        self._make_metrics()

    def _make_metrics(self) -> None:
        reg = self.registry
        self.m_ops = reg.counter(
            "ops_total", "additions served to completion")
        self.m_requests = reg.counter(
            "requests_total", "requests admitted to the queue")
        self.m_stalls = reg.counter(
            "stalls_total", "additions that took the recovery path")
        self.m_spec_errors = reg.counter(
            "speculative_errors_total",
            "additions whose speculative sum was actually wrong")
        self.m_batches = reg.counter(
            "batches_total", "coalesced executor batches run")
        self.m_rejected = reg.counter(
            "rejected_total", "submissions refused because the queue was full")
        self.m_timeouts = reg.counter(
            "timeouts_total", "requests abandoned by caller deadline")
        self.m_cancelled = reg.counter(
            "cancelled_total", "requests abandoned by caller cancellation")
        self.m_retries = reg.counter(
            "retries_total", "admission retries after overload")
        self.m_batch_failures = reg.counter(
            "batch_failures_total",
            "executor batches that raised (their requests see the error)")
        self.m_reconfigs = reg.counter(
            "reconfigurations_total",
            "live configuration swaps applied between micro-batches")
        self.m_observer_errors = reg.counter(
            "batch_observer_errors_total",
            "batch observers that raised (contained, batch unaffected)")
        self.m_queue_depth = reg.gauge(
            "queue_depth", "requests waiting for the batcher")
        self.m_inflight = reg.gauge(
            "inflight_requests", "requests admitted but not yet resolved")
        self.m_cycles = reg.gauge(
            "accelerator_cycles", "virtual cycles consumed by the datapath")
        self.h_batch = reg.histogram(
            "batch_size_ops", "additions per coalesced batch")
        self.h_latency = reg.histogram(
            "latency_cycles", "per-addition latency in cycles")
        self.h_wall = reg.histogram(
            "request_wall_seconds", "request wall time, admission to response")

    # -- analytic model -------------------------------------------------
    @property
    def analytic_stall_probability(self) -> float:
        """P(detector fires) for uniform operands at this configuration.

        Routed through the family's exact error model so non-ACA
        families report their own flag rate (the memoized Fraction DP),
        not the ACA run-length formula.
        """
        fam = get_family(self.family)
        params = fam.resolve_params(self.width, window=self.window)
        return float(fam.error_model(self.width, **params).flag_rate)

    @property
    def analytic_latency_cycles(self) -> float:
        """Expected per-addition latency: ``1 + P(stall) * recovery``."""
        return expected_latency_cycles(self.analytic_stall_probability,
                                       self.recovery_cycles)

    @property
    def cycle(self) -> int:
        """Current virtual accelerator cycle."""
        return self._cycle

    @property
    def running(self) -> bool:
        return self._batcher is not None and not self._batcher.done()

    @property
    def queue_depth(self) -> int:
        """Requests currently waiting for the batcher."""
        return self._queue.qsize() if self._queue is not None else 0

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> "VlsaService":
        """Start the micro-batcher task (idempotent)."""
        if self.running:
            return self
        self._queue = asyncio.Queue(maxsize=self.queue_capacity)
        self._batcher = asyncio.get_running_loop().create_task(
            self._batch_loop(), name="vlsa-service-batcher")
        self.tracer.emit("service_start", width=self.width,
                         window=self.window,
                         backend=self.backend_name,
                         queue_capacity=self.queue_capacity,
                         max_batch_ops=self.max_batch_ops)
        return self

    async def stop(self) -> None:
        """Drain already-admitted work, then stop the batcher."""
        if self._queue is None or self._batcher is None:
            return
        queue, batcher = self._queue, self._batcher
        # put_nowait + retry rather than an unconditional blocking put:
        # if the batcher ever died (e.g. cancelled externally) a full
        # queue would leave `await queue.put(...)` waiting forever.
        while not batcher.done():
            try:
                queue.put_nowait(_SHUTDOWN)
                break
            except asyncio.QueueFull:
                await asyncio.sleep(0)  # let the batcher drain a batch
        await asyncio.wait({batcher})
        self._batcher = None
        self._queue = None
        # Anything admitted after shutdown was signalled is failed
        # explicitly — its submitter sees ServiceClosedError, not a hang.
        while True:
            try:
                leftover = queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if leftover is _SHUTDOWN or leftover.future.done():
                continue
            leftover.future.set_exception(
                ServiceClosedError("service stopped"))
        self.tracer.emit("service_stop", cycles=self._cycle,
                         ops=self.m_ops.value)

    async def __aenter__(self) -> "VlsaService":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -- submission -----------------------------------------------------
    def _admit(self, pairs: Pairs, scalar: bool) -> _Pending:
        if self._queue is None:
            raise ServiceClosedError("service is not running; use "
                                     "'async with VlsaService(...)'")
        loop = asyncio.get_running_loop()
        pending = _Pending(pairs=pairs, future=loop.create_future(),
                           scalar=scalar, enqueued_at=loop.time(),
                           id=next(self._ids))
        try:
            self._queue.put_nowait(pending)
        except asyncio.QueueFull:
            self.m_rejected.inc()
            self.tracer.emit("request_rejected", id=pending.id,
                             ops=pending.ops, depth=self._queue.qsize())
            raise ServiceOverloadedError(
                f"admission queue full ({self.queue_capacity} waiting)"
            ) from None
        self.m_requests.inc()
        self.m_queue_depth.set(self._queue.qsize())
        self.m_inflight.inc()
        return pending

    async def _await_response(self, pending: _Pending,
                              timeout: Optional[float]):
        try:
            if timeout is None:
                return await pending.future
            return await asyncio.wait_for(
                asyncio.shield(pending.future), timeout)
        except asyncio.TimeoutError:
            self.m_timeouts.inc()
            self.tracer.emit("request_timeout", id=pending.id)
            pending.future.cancel()
            raise RequestTimeoutError(
                f"no response within {timeout}s") from None
        except asyncio.CancelledError:
            # Awaiting directly (no timeout) cancels the future itself;
            # the shielded path leaves it pending — handle both.
            if pending.future.cancelled() or not pending.future.done():
                pending.future.cancel()
                self.m_cancelled.inc()
                self.tracer.emit("request_cancelled", id=pending.id)
            raise
        finally:
            self.m_inflight.dec()

    async def submit(self, a: int, b: int, timeout: Optional[float] = None,
                     retries: int = 0,
                     retry_backoff: float = 0.005) -> AddResponse:
        """Serve one addition.

        Args:
            a, b: Operands (masked to the service width).
            timeout: Optional response deadline in seconds.
            retries: Admission retries after overload rejection.
            retry_backoff: Base backoff; doubles per retry.

        Raises:
            ServiceOverloadedError: Queue full and retries exhausted.
            RequestTimeoutError: Deadline expired.
            ServiceClosedError: Service not running.
        """
        a &= self._operand_mask
        b &= self._operand_mask
        for attempt in range(retries + 1):
            try:
                pending = self._admit(((a, b),), scalar=True)
                break
            except ServiceOverloadedError:
                if attempt == retries:
                    raise
                self.m_retries.inc()
                await asyncio.sleep(retry_backoff * (1 << attempt))
        return await self._await_response(pending, timeout)

    async def submit_batch(self, pairs: Pairs,
                           timeout: Optional[float] = None,
                           retries: int = 0,
                           retry_backoff: float = 0.005) -> BatchResponse:
        """Serve a client-side batch of additions as one queued request.

        Args / raises: as :meth:`submit`.  The whole batch is admitted,
        evaluated and resolved as a unit (it may still be coalesced with
        other pending requests into a larger executor batch).  *pairs*
        is an iterable of ``(a, b)`` pairs or an ``(n, 2)`` array.  It
        is admitted as one operand array
        (:func:`~repro.service.executor.pairs_array`: an ``(n, 2)``
        uint64 array as is at widths up to 64, anything else masked to
        the width, Python ints above 64 bits).  The response's columns
        are arrays.

        Raises:
            ValueError: *pairs* is not ``(n, 2)``-shaped (rejected here,
                so it cannot fail the requests coalesced with it).
        """
        if not isinstance(pairs, np.ndarray):
            pairs = list(pairs)
        if len(pairs) == 0:
            return BatchResponse([], [], [], [], accept_cycle=self._cycle)
        pairs = self.executor.coerce_pairs_array(pairs)
        for attempt in range(retries + 1):
            try:
                pending = self._admit(pairs, scalar=False)
                break
            except ServiceOverloadedError:
                if attempt == retries:
                    raise
                self.m_retries.inc()
                await asyncio.sleep(retry_backoff * (1 << attempt))
        return await self._await_response(pending, timeout)

    # -- the micro-batcher ----------------------------------------------
    async def _batch_loop(self) -> None:
        queue = self._queue
        assert queue is not None
        while True:
            item = await queue.get()
            if item is _SHUTDOWN:
                return
            batch: List[_Pending] = [item]
            ops = item.ops
            shutdown = False
            # Dynamic coalescing: drain whatever else is already queued,
            # up to the op cap — small batches under light load, large
            # ones under pressure, no timer needed.
            while ops < self.max_batch_ops:
                try:
                    nxt = queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if nxt is _SHUTDOWN:
                    shutdown = True
                    break
                batch.append(nxt)
                ops += nxt.ops
            self.m_queue_depth.set(queue.qsize())
            try:
                self._execute_batch(batch)
            except Exception as exc:
                # A poisoned batch must not kill the batcher: fail that
                # batch's futures with the error and keep serving.
                self.m_batch_failures.inc()
                self.tracer.emit("batch_failed", requests=len(batch),
                                 error=repr(exc))
                for pending in batch:
                    if not pending.future.done():
                        pending.future.set_exception(exc)
            if shutdown:
                return

    def _execute_batch(self, batch: List[_Pending]) -> None:
        loop = asyncio.get_running_loop()
        live = [p for p in batch if not p.future.done()]
        if not live:
            return
        # Batches admitted as arrays are joined as arrays (scalars among
        # them converted); scalars alone stay int pairs.
        if len(live) == 1:
            pairs = live[0].pairs
        elif any(isinstance(p.pairs, np.ndarray) for p in live):
            pairs = np.concatenate([pairs_array(p.pairs, self.width)
                                    for p in live])
        else:
            pairs = [pair for p in live for pair in p.pairs]
        outcome = self.executor.execute(pairs)

        # Serial accelerator accounting (VlsaMachine semantics): ops are
        # accepted back-to-back; each costs 1 cycle plus recovery when
        # its detector fired.
        start_cycle = self._cycle
        self._cycle += outcome.cycles
        self.m_cycles.set(self._cycle)
        self.m_ops.inc(outcome.size)
        self.m_stalls.inc(outcome.stall_count)
        self.m_spec_errors.inc(outcome.spec_error_count)
        self.m_batches.inc()
        self.h_batch.record(outcome.size)
        ones = outcome.size - outcome.stall_count
        if ones:
            self.h_latency.record(1, count=ones)
        if outcome.stall_count:
            self.h_latency.record(1 + self.recovery_cycles,
                                  count=outcome.stall_count)
        self.tracer.emit("batch_executed", requests=len(live),
                         ops=outcome.size, stalls=outcome.stall_count,
                         cycles=outcome.cycles, start_cycle=start_cycle)

        # Responses take slices of the result arrays.
        sums, couts, stalled, latencies = (
            outcome.column(name)
            for name in ("sums", "couts", "stalled", "latencies"))
        now = loop.time()
        hi = 0
        cycle = start_cycle
        for pending in live:
            lo, hi = hi, hi + pending.ops
            if pending.scalar:
                cycles = int(latencies[lo])
            else:
                stall_count = count_true(stalled[lo:hi])
                cycles = hi - lo + self.recovery_cycles * stall_count
            accept = cycle
            cycle += cycles
            if pending.future.done():  # cancelled while executing
                continue
            self.h_wall.record(now - pending.enqueued_at)
            if pending.scalar:
                a, b = pending.pairs[0]
                response: object = AddResponse(
                    a=a, b=b, sum_out=int(sums[lo]), cout=int(couts[lo]),
                    stalled=bool(stalled[lo]), latency_cycles=cycles,
                    accept_cycle=accept)
            else:
                response = BatchResponse(
                    sums=sums[lo:hi], couts=couts[lo:hi],
                    stalled=stalled[lo:hi], latencies=latencies[lo:hi],
                    accept_cycle=accept, cycles=cycles,
                    stall_count=stall_count)
            pending.future.set_result(response)

        # Observers (e.g. the autotune controller) see every executed
        # batch; they run after futures resolve and may reconfigure the
        # service — the swap lands before the next batch by construction
        # (single batcher task, serial loop).  Observer failures are
        # contained: the batch already succeeded.
        for observer in self._batch_observers:
            try:
                observer(pairs, outcome)
            except Exception as exc:
                self.m_observer_errors.inc()
                self.tracer.emit("batch_observer_failed", error=repr(exc))

    # -- live reconfiguration -------------------------------------------
    def add_batch_observer(self, observer) -> None:
        """Register ``observer(pairs, outcome)`` called after each batch.

        Called synchronously on the batcher task, so an observer may
        call :meth:`reconfigure` and the new configuration is in place
        for the next micro-batch (atomic with respect to batching).
        """
        self._batch_observers.append(observer)

    def remove_batch_observer(self, observer) -> None:
        self._batch_observers.remove(observer)

    def reconfigure(self, window: Optional[int] = None,
                    family: Optional[str] = None,
                    max_batch_ops: Optional[int] = None) -> dict:
        """Swap the executor configuration between micro-batches.

        Bit-exactness is preserved by construction: recovery is exact at
        every window of every registered family, so sums/couts are
        bit-identical across any reconfiguration schedule — only flags
        and latency change (re-checked by the ``service:autotuned``
        verify implementation).

        ``window`` follows the constructor convention (the family's
        primary knob; ``None`` = the target family's default).  Returns
        the applied configuration.
        """
        family = family if family is not None else self.family
        old = {"window": self.window, "family": self.family,
               "max_batch_ops": self.max_batch_ops}
        self.executor = VlsaBatchExecutor(
            self.width, window=window,
            recovery_cycles=self.recovery_cycles,
            ctx=self.ctx, family=family)
        self.window = self.executor.window
        self.family = family
        if max_batch_ops is not None:
            if max_batch_ops < 1:
                raise ValueError("max_batch_ops must be at least 1")
            self.max_batch_ops = max_batch_ops
        applied = {"window": self.window, "family": self.family,
                   "max_batch_ops": self.max_batch_ops}
        self.m_reconfigs.inc()
        self.tracer.emit("service_reconfigured", old=old, new=applied)
        return applied

    # -- reporting ------------------------------------------------------
    def metrics_json(self) -> dict:
        """Snapshot of the metrics registry as a nested dict."""
        return self.registry.to_json()

    def metrics_prometheus(self) -> str:
        """Prometheus text exposition of the registry."""
        return self.registry.to_prometheus()

    @property
    def mean_latency_cycles(self) -> float:
        """Observed mean per-addition latency so far."""
        return self.h_latency.mean if self.h_latency.count else 0.0

    @property
    def backend_name(self) -> str:
        """Where batches execute: ``local`` (clusters report
        ``cluster:{N}``)."""
        return "local"

    def describe(self) -> dict:
        """The ``info`` payload the TCP server hands to clients."""
        return {"width": self.width, "window": self.window,
                "family": self.family,
                "recovery_cycles": self.recovery_cycles,
                "backend": self.backend_name,
                "queue_capacity": self.queue_capacity,
                "max_batch_ops": self.max_batch_ops,
                "analytic_latency_cycles": self.analytic_latency_cycles}
