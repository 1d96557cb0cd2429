"""`ClusterRouter` — the asyncio front door of the worker pool.

The router is to the cluster what :class:`~repro.service.VlsaService` is
to one process: the same submission API (``submit`` / ``submit_batch``
with timeout, retry and cancellation), the same backpressure-by-
rejection contract, the same response dataclasses — so every existing
client, the TCP server and the load generator drive it unchanged.  What
differs is what happens behind admission:

* **Sharding.**  A pluggable policy picks the worker: ``round_robin``
  (scan from a rotating cursor), ``least_loaded`` (fewest additions
  owed), or ``hash`` (operand-hash affinity — the same operand pair
  always lands on the same live worker).  Policies are registered in
  :data:`SHARD_POLICIES`; tests register mutants the same way.
* **Bounded per-worker queues.**  Each worker may owe at most
  ``worker_queue_ops`` additions (backlog + on the wire).  When the
  policy finds no worker with headroom the submission is rejected with
  :class:`~repro.service.ServiceOverloadedError` — memory stays bounded
  under any offered load, exactly the PR 2 semantics.
* **Wire coalescing.**  Per worker, queued requests are packed into
  batches of up to ``max_batch_ops`` additions with a bounded number in
  flight (``wire_inflight``), so the worker computes batch *k* while
  the router packs *k+1* — the micro-batcher pattern, stretched over a
  pipe.
* **Failover and degraded mode.**  When the supervisor declares a
  worker dead its un-answered requests are redirected to survivors
  (at most ``redirect_limit`` times each); with zero live workers the
  router either serves exact (carry-complete, non-speculative)
  additions in-process — counted in ``degraded_requests_total`` — or
  fails fast, per ``degraded_mode``.  Results are resolved exactly
  once: a late reply from a worker already failed over is dropped, and
  a redirected request only answers through its new owner.
* **Cluster-wide observability.**  The router's own registry holds the
  authoritative request/op accounting; workers ship their registries in
  heartbeats and result piggybacks, and :meth:`metrics_json` /
  :meth:`metrics_prometheus` export the merged view plus per-worker
  breakdowns (dead workers' final states are retired, not lost).
"""

from __future__ import annotations

import asyncio
import itertools
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.error_model import expected_latency_cycles
from ..families import get_family
from ..engine.context import RunContext
from ..families.words import lanes, word_ops
from ..service.executor import pairs_array
from ..service.metrics import MetricsRegistry
from ..service.service import (
    AddResponse,
    BatchResponse,
    RequestTimeoutError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
)
from ..service.tracing import Tracer
from . import protocol
from .config import ClusterConfig
from .supervisor import WorkerHandle, WorkerSupervisor

__all__ = ["ClusterRouter", "ClusterUnhealthyError", "SHARD_POLICIES",
           "register_shard_policy"]

Pair = Tuple[int, int]


class ClusterUnhealthyError(ServiceError):
    """No live worker and the degraded fallback is disabled."""


@dataclass
class _Pending:
    """One admitted request (scalar add or client batch)."""

    payload: Any            # (n, 2) operand array (object above 64 bits)
    future: "asyncio.Future"
    scalar: bool
    ops: int
    id: int = 0
    enqueued_at: float = 0.0
    attempts: int = 0
    scalar_pair: Optional[Pair] = None
    wid: Optional[int] = None       # worker it is queued on or sent to
    wire_id: Optional[int] = None   # wire batch that carries it


@dataclass
class _WireBatch:
    """One message on a worker's pipe awaiting its result."""

    pendings: List[_Pending]
    offsets: List[int]      # op offset of each pending in the payload
    ops: int
    sent_at: float = field(default_factory=time.monotonic)


# ----------------------------------------------------------------------
# Shard policies
# ----------------------------------------------------------------------
def _has_room(router: "ClusterRouter", handle: WorkerHandle) -> bool:
    # Strictly below the bound: a worker with an empty ledger can take
    # any batch, so oversized batches still make progress.
    return handle.load_ops < router.cfg.worker_queue_ops


def _policy_round_robin(router: "ClusterRouter", live, ops: int,
                        key: Optional[Pair]):
    start = next(router._rr) % len(live)
    for i in range(len(live)):
        handle = live[(start + i) % len(live)]
        if _has_room(router, handle):
            return handle
    return None


def _policy_least_loaded(router: "ClusterRouter", live, ops: int,
                         key: Optional[Pair]):
    handle = min(live, key=lambda h: h.load_ops)
    return handle if _has_room(router, handle) else None


def _policy_hash(router: "ClusterRouter", live, ops: int,
                 key: Optional[Pair]):
    a, b = key if key is not None else (0, 0)
    mixed = (a * 0x9E3779B97F4A7C15 + b * 0xBF58476D1CE4E5B9) & (2**64 - 1)
    handle = live[(mixed >> 32) % len(live)]
    # Affinity is strict: a full affine worker rejects rather than
    # spilling (spilling would silently break same-operand locality).
    return handle if _has_room(router, handle) else None


SHARD_POLICIES: Dict[str, Callable] = {
    "round_robin": _policy_round_robin,
    "least_loaded": _policy_least_loaded,
    "hash": _policy_hash,
}


def register_shard_policy(name: str, policy: Callable) -> None:
    """Register a custom ``(router, live, ops, key) -> handle`` policy."""
    SHARD_POLICIES[name] = policy


# ----------------------------------------------------------------------
# The router
# ----------------------------------------------------------------------
class ClusterRouter:
    """Multi-process sharded serving front end (see module docstring).

    Args:
        cfg: Cluster configuration (pool size, policy, bounds, timers).
        ctx: Optional run context (trace events, counters).
        registry: Router-side metrics registry (default: fresh).
    """

    def __init__(self, cfg: Optional[ClusterConfig] = None,
                 ctx: Optional[RunContext] = None,
                 registry: Optional[MetricsRegistry] = None,
                 **cfg_kwargs):
        if cfg is None:
            cfg = ClusterConfig(**cfg_kwargs)
        elif cfg_kwargs:
            raise ValueError("pass either cfg or keyword knobs, not both")
        self.cfg = cfg
        self.width = cfg.width
        self.window = cfg.window
        self.family = cfg.family
        self.recovery_cycles = cfg.recovery_cycles
        self.max_batch_ops = cfg.max_batch_ops
        self._operand_mask = (1 << self.width) - 1
        self.ctx = ctx
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = Tracer(ctx=ctx)
        self._policy = SHARD_POLICIES[cfg.shard_policy]
        self._rr = itertools.count()
        self._ids = itertools.count()
        self._msg_ids = itertools.count()
        self._cycle = 0
        self._running = False
        self._retired = MetricsRegistry()  # dead workers' final states
        self.supervisor = WorkerSupervisor(
            cfg, self.registry, self.tracer,
            on_message=self._on_message, on_failover=self._on_failover)
        self._make_metrics()

    def _make_metrics(self) -> None:
        reg = self.registry
        self.m_ops = reg.counter(
            "ops_total", "additions served to completion")
        self.m_requests = reg.counter(
            "requests_total", "requests admitted by the router")
        self.m_stalls = reg.counter(
            "stalls_total", "additions that took the recovery path")
        self.m_spec_errors = reg.counter(
            "speculative_errors_total",
            "additions whose speculative sum was actually wrong")
        self.m_batches = reg.counter(
            "batches_total", "wire batches completed")
        self.m_rejected = reg.counter(
            "rejected_total", "submissions refused for backpressure")
        self.m_timeouts = reg.counter(
            "timeouts_total", "requests abandoned by caller deadline")
        self.m_cancelled = reg.counter(
            "cancelled_total", "requests abandoned by caller cancellation")
        self.m_retries = reg.counter(
            "retries_total", "admission retries after overload")
        self.m_redirected = reg.counter(
            "redirected_requests_total",
            "requests re-routed away from a dead worker")
        self.m_degraded = reg.counter(
            "degraded_requests_total",
            "requests served by the in-process exact fallback")
        self.m_degraded_ops = reg.counter(
            "degraded_ops_total", "additions served by the exact fallback")
        self.m_failed = reg.counter(
            "failed_requests_total",
            "requests that exhausted redirects or died with the cluster")
        self.m_reconfigs = reg.counter(
            "reconfigurations_total",
            "live configuration swaps broadcast to the pool")
        self.m_queue_depth = reg.gauge(
            "queue_depth", "additions backlogged across all workers")
        self.m_inflight = reg.gauge(
            "inflight_requests", "requests admitted but not yet resolved")
        self.m_cycles = reg.gauge(
            "accelerator_cycles", "virtual cycles summed over all workers")
        self.h_batch = reg.histogram(
            "batch_size_ops", "additions per completed wire batch")
        self.h_latency = reg.histogram(
            "latency_cycles", "per-addition latency in cycles")
        self.h_wall = reg.histogram(
            "request_wall_seconds", "request wall time, admission to response")
        # Transport-layer accounting: the channels bump these on the
        # loop as messages cross (see transport.WireCounters).
        wire = self.supervisor.wire_counters
        self.m_tx_bytes, self.m_rx_bytes = wire.tx_bytes, wire.rx_bytes
        self.m_tx_msgs, self.m_rx_msgs = wire.tx_msgs, wire.rx_msgs
        self.m_pipe_fallback = wire.pipe_fallbacks
        self.m_ring_stalls = wire.ring_full_stalls

    # -- analytic model / descriptors -----------------------------------
    @property
    def analytic_stall_probability(self) -> float:
        fam = get_family(self.family)
        params = fam.resolve_params(self.width, window=self.window)
        return float(fam.error_model(self.width, **params).flag_rate)

    @property
    def analytic_latency_cycles(self) -> float:
        return expected_latency_cycles(self.analytic_stall_probability,
                                       self.recovery_cycles)

    @property
    def backend_name(self) -> str:
        return f"cluster:{self.cfg.workers}x{self.cfg.transport}"

    @property
    def cycle(self) -> int:
        """Virtual cycles summed over all workers (plus degraded adds)."""
        return self._cycle

    @property
    def running(self) -> bool:
        return self._running

    @property
    def queue_depth(self) -> int:
        return sum(h.backlog_ops for h in self.supervisor.live)

    @property
    def mean_latency_cycles(self) -> float:
        return self.h_latency.mean if self.h_latency.count else 0.0

    def reconfigure(self, window: Optional[int] = None,
                    family: Optional[str] = None,
                    max_batch_ops: Optional[int] = None) -> Dict[str, Any]:
        """Reconfigure the whole pool live (the autotune path).

        The shared :class:`~repro.cluster.config.ClusterConfig` is
        mutated first — workers (re)spawned later inherit the new
        knobs — then a ``CONFIG`` message is broadcast to every live
        worker, which swaps its executor between wire batches.  Batches
        already on the wire complete under the old configuration;
        either way every result is bit-exact, so no fence is needed.
        Returns the applied configuration.
        """
        wd = self.cfg.reconfigure(window=window, family=family,
                                  max_batch_ops=max_batch_ops)
        old = {"window": self.window, "family": self.family,
               "max_batch_ops": self.max_batch_ops}
        self.window = self.cfg.window
        self.family = self.cfg.family
        self.max_batch_ops = self.cfg.max_batch_ops
        patch = {"window": wd["window"], "family": wd["family"]}
        for handle in self.supervisor.live:
            handle.send(protocol.config_msg(patch))
        applied = {"window": self.window, "family": self.family,
                   "max_batch_ops": self.max_batch_ops}
        self.m_reconfigs.inc()
        self.tracer.emit("cluster_reconfigured", old=old, new=applied,
                         live_workers=len(self.supervisor.live))
        return applied

    def describe(self) -> Dict[str, Any]:
        return {"width": self.width, "window": self.window,
                "family": self.family,
                "recovery_cycles": self.recovery_cycles,
                "backend": self.backend_name,
                "workers": self.cfg.workers,
                "transport": self.cfg.transport,
                "shard_policy": self.cfg.shard_policy,
                "worker_queue_ops": self.cfg.worker_queue_ops,
                "max_batch_ops": self.max_batch_ops,
                "degraded_mode": self.cfg.degraded_mode,
                "analytic_latency_cycles": self.analytic_latency_cycles}

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> "ClusterRouter":
        if self._running:
            return self
        self._running = True
        await self.supervisor.start()
        self.tracer.emit("cluster_start", workers=self.cfg.workers,
                         width=self.width, window=self.window,
                         transport=self.cfg.transport,
                         policy=self.cfg.shard_policy,
                         start_method=self.cfg.resolve_start_method())
        return self

    async def wait_ready(self, timeout: float = 30.0) -> None:
        """Block until every slot has heartbeated once (spawn done)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            live = self.supervisor.live
            if (len(live) == self.cfg.workers
                    and all(h.metrics_state for h in live)):
                return
            await asyncio.sleep(0.01)
        raise TimeoutError(f"cluster not ready within {timeout}s")

    async def stop(self, drain_timeout: float = 10.0) -> None:
        """Drain answered work, retire workers, fail what remains."""
        if not self._running:
            return
        self._running = False
        deadline = time.monotonic() + drain_timeout
        while time.monotonic() < deadline and any(
                h.backlog or h.wire for h in self.supervisor.live):
            await asyncio.sleep(0.005)
        # Retire final metric states before the processes go away.
        for handle in self.supervisor.live:
            handle.shutdown()
        grace = time.monotonic() + max(0.5,
                                       4 * self.cfg.heartbeat_interval)
        while time.monotonic() < grace and any(
                not h.metrics_state for h in self.supervisor.live):
            await asyncio.sleep(0.005)
        await self.supervisor.stop()
        leftovers = 0
        for handle in self.supervisor.slots:
            if handle is None:
                continue
            self._retire_worker(handle)
            for pending in self._strip_pendings(handle):
                leftovers += 1
                pending.future.set_exception(
                    ServiceClosedError("cluster stopped"))
        self.tracer.emit("cluster_stop", cycles=self._cycle,
                         ops=self.m_ops.value, leftover_requests=leftovers)

    async def __aenter__(self) -> "ClusterRouter":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -- submission -----------------------------------------------------
    def _coerce_payload(self, pairs: Sequence[Pair]) -> Tuple[Any, int]:
        if len(pairs) == 0:
            return np.empty((0, 2), dtype=np.uint64), 0
        arr = pairs_array(pairs, self.width)
        return arr, int(arr.shape[0])

    def _first_pair(self, payload: Any) -> Pair:
        if isinstance(payload, np.ndarray):
            return int(payload[0, 0]), int(payload[0, 1])
        return payload[0]

    def _admit(self, payload: Any, ops: int, scalar: bool,
               scalar_pair: Optional[Pair] = None) -> _Pending:
        if not self._running:
            raise ServiceClosedError("cluster is not running; use "
                                     "'async with ClusterRouter(...)'")
        loop = asyncio.get_running_loop()
        pending = _Pending(payload=payload, future=loop.create_future(),
                           scalar=scalar, ops=ops, id=next(self._ids),
                           enqueued_at=loop.time(),
                           scalar_pair=scalar_pair)
        live = self.supervisor.live
        if not live:
            self._resolve_degraded(pending)
            self.m_requests.inc()
            self.m_inflight.inc()
            return pending
        handle = self._policy(self, live, ops, self._first_pair(payload))
        if handle is None:
            self.m_rejected.inc()
            self.tracer.emit("request_rejected", id=pending.id, ops=ops)
            raise ServiceOverloadedError(
                f"every worker is over its {self.cfg.worker_queue_ops}-op "
                f"queue bound")
        self.m_requests.inc()
        self.m_inflight.inc()
        self._enqueue(handle, pending)
        return pending

    def _enqueue(self, handle: WorkerHandle, pending: _Pending) -> None:
        pending.wid, pending.wire_id = handle.wid, None
        handle.backlog.append(pending)
        handle.backlog_ops += pending.ops
        self.m_queue_depth.set(self.queue_depth)
        self._kick(handle)

    async def _await_response(self, pending: _Pending,
                              timeout: Optional[float]):
        try:
            if timeout is None:
                return await pending.future
            return await asyncio.wait_for(
                asyncio.shield(pending.future), timeout)
        except asyncio.TimeoutError:
            self.m_timeouts.inc()
            self.tracer.emit("request_timeout", id=pending.id,
                             wire_id=pending.wire_id, wid=pending.wid)
            pending.future.cancel()
            raise RequestTimeoutError(
                self._timeout_report(pending, timeout)) from None
        except asyncio.CancelledError:
            if pending.future.cancelled() or not pending.future.done():
                pending.future.cancel()
                self.m_cancelled.inc()
                self.tracer.emit("request_cancelled", id=pending.id)
            raise
        finally:
            self.m_inflight.dec()

    def _timeout_report(self, pending: _Pending, timeout: float) -> str:
        """Name what a timed-out request was waiting on."""
        now = time.monotonic()
        handle = next((h for h in self.supervisor.slots
                       if h is not None and h.wid == pending.wid), None)
        where = ("still queued" if pending.wire_id is None
                 else f"wire batch {pending.wire_id}")
        heard = ("worker gone" if handle is None
                 else f"worker last heard {now - handle.last_msg:.3f}s ago")
        age = asyncio.get_running_loop().time() - pending.enqueued_at
        return (f"request {pending.id}: no response within {timeout}s "
                f"({where} on worker wid {pending.wid}, "
                f"transport {self.cfg.transport}, {age:.3f}s since "
                f"enqueue, {heard})")

    async def submit(self, a: int, b: int, timeout: Optional[float] = None,
                     retries: int = 0,
                     retry_backoff: float = 0.005) -> AddResponse:
        """Serve one addition (same contract as ``VlsaService.submit``)."""
        a &= self._operand_mask
        b &= self._operand_mask
        payload, ops = self._coerce_payload([(a, b)])
        for attempt in range(retries + 1):
            try:
                pending = self._admit(payload, ops, scalar=True,
                                      scalar_pair=(a, b))
                break
            except ServiceOverloadedError:
                if attempt == retries:
                    raise
                self.m_retries.inc()
                await asyncio.sleep(retry_backoff * (1 << attempt))
        return await self._await_response(pending, timeout)

    async def submit_batch(self, pairs: Sequence[Pair],
                           timeout: Optional[float] = None,
                           retries: int = 0,
                           retry_backoff: float = 0.005) -> BatchResponse:
        """Serve a client batch as one routed request (one shard)."""
        payload, ops = self._coerce_payload(pairs)
        if not ops:
            return BatchResponse([], [], [], [], accept_cycle=self._cycle)
        for attempt in range(retries + 1):
            try:
                pending = self._admit(payload, ops, scalar=False)
                break
            except ServiceOverloadedError:
                if attempt == retries:
                    raise
                self.m_retries.inc()
                await asyncio.sleep(retry_backoff * (1 << attempt))
        return await self._await_response(pending, timeout)

    # -- wire packing ---------------------------------------------------
    def _kick(self, handle: WorkerHandle) -> None:
        """Pack backlog into wire batches up to the pipelining depth."""
        while (handle.alive and handle.backlog
               and len(handle.wire) < self.cfg.wire_inflight):
            group: List[_Pending] = []
            offsets: List[int] = []
            ops = 0
            while handle.backlog and ops < self.max_batch_ops:
                pending = handle.backlog.popleft()
                handle.backlog_ops -= pending.ops
                if pending.future.done():
                    continue  # timed out / cancelled while queued
                offsets.append(ops)
                group.append(pending)
                ops += pending.ops
            if not group:
                continue
            if len(group) == 1:
                payload = group[0].payload
            else:
                payload = np.concatenate([p.payload for p in group])
            msg_id = next(self._msg_ids)
            for pending in group:
                pending.wire_id = msg_id
            handle.wire[msg_id] = _WireBatch(pendings=group,
                                             offsets=offsets, ops=ops)
            handle.wire_ops += ops
            handle.send(protocol.batch_msg(msg_id, payload))
        self.m_queue_depth.set(self.queue_depth)

    # -- result / failover handling (loop thread) -----------------------
    def _on_message(self, handle: WorkerHandle, msg) -> None:
        if msg[0] != protocol.RESULT:
            return  # heartbeats/byes are consumed by the supervisor
        _, msg_id, result = msg
        wb = handle.wire.pop(msg_id, None)
        if wb is None:
            return  # already failed over; the redirect will answer
        handle.wire_ops -= wb.ops
        handle.counters = result.get("counters", handle.counters)
        self._resolve_wire_batch(wb, result)
        self._kick(handle)

    def _resolve_wire_batch(self, wb: _WireBatch,
                            result: Dict[str, Any]) -> None:
        sums, couts = result["sums"], result["couts"]
        stalled, spec = result["stalled"], result["spec_errors"]
        cycles, start_cycle = result["cycles"], result["start_cycle"]
        # Ring results are views into their slot, which is reused once
        # this returns; the responses keep copies.
        sums, couts, stalled = sums.copy(), couts.copy(), stalled.copy()
        n = wb.ops
        stall_count = int(np.count_nonzero(stalled))
        rc = self.recovery_cycles
        self._cycle += cycles
        self.m_ops.inc(n)
        self.m_stalls.inc(stall_count)
        self.m_spec_errors.inc(int(np.count_nonzero(spec)))
        self.m_batches.inc()
        self.m_cycles.set(self._cycle)
        self.h_batch.record(n)
        if n - stall_count:
            self.h_latency.record(1, count=n - stall_count)
        if stall_count:
            self.h_latency.record(1 + rc, count=stall_count)
        now = time.monotonic()
        accept = start_cycle
        for pending, lo in zip(wb.pendings, wb.offsets):
            hi = lo + pending.ops
            seg_stalls = int(np.count_nonzero(stalled[lo:hi]))
            seg_cycles = pending.ops + rc * seg_stalls
            if not pending.future.done():
                self.h_wall.record(now - pending.enqueued_at)
                pending.future.set_result(self._build_response(
                    pending, sums[lo:hi], couts[lo:hi], stalled[lo:hi],
                    accept, seg_cycles, seg_stalls))
            accept += seg_cycles

    def _build_response(self, pending: _Pending, sums, couts, stalled,
                        accept: int, seg_cycles: int, seg_stalls: int):
        rc = self.recovery_cycles
        if pending.scalar:
            a, b = pending.scalar_pair
            flag = bool(stalled[0])
            return AddResponse(
                a=a, b=b, sum_out=int(sums[0]), cout=int(couts[0]),
                stalled=flag, latency_cycles=1 + (rc if flag else 0),
                accept_cycle=accept)
        return BatchResponse(
            sums=sums, couts=couts, stalled=stalled,
            latencies=np.where(stalled, 1 + rc, 1),
            accept_cycle=accept, cycles=seg_cycles,
            stall_count=seg_stalls)

    def _strip_pendings(self, handle: WorkerHandle) -> List[_Pending]:
        """Take every un-answered request off *handle* (ledger reset)."""
        stripped: List[_Pending] = []
        for msg_id in sorted(handle.wire):
            stripped.extend(handle.wire[msg_id].pendings)
        handle.wire.clear()
        stripped.extend(handle.backlog)
        handle.backlog.clear()
        handle.backlog_ops = handle.wire_ops = 0
        return [p for p in stripped if not p.future.done()]

    def _on_failover(self, handle: WorkerHandle) -> None:
        """Supervisor declared *handle* dead: retire and redirect."""
        self._retire_worker(handle)
        pendings = self._strip_pendings(handle)
        if not pendings:
            return
        self.tracer.emit("failover", wid=handle.wid, slot=handle.slot,
                         requests=len(pendings))
        for pending in pendings:
            pending.attempts += 1
            if pending.attempts > self.cfg.redirect_limit:
                self.m_failed.inc()
                pending.future.set_exception(ServiceError(
                    f"request redirected {pending.attempts - 1} times "
                    f"without an answer"))
                continue
            live = self.supervisor.live
            if not live:
                self._resolve_degraded(pending)
                continue
            # Redirected work bypasses the admission bound (it was
            # already admitted once); least-loaded keeps it fair.
            self.m_redirected.inc()
            self._enqueue(min(live, key=lambda h: h.load_ops), pending)

    # -- degraded path --------------------------------------------------
    def _resolve_degraded(self, pending: _Pending) -> None:
        """Exact in-process addition while the pool is unhealthy."""
        if self.cfg.degraded_mode != "exact":
            self.m_failed.inc()
            pending.future.set_exception(ClusterUnhealthyError(
                "no live worker and degraded mode is disabled"))
            return
        n = pending.ops
        sums, couts = _exact_add_arrays(pending.payload, self.width)
        stalled, latencies = np.zeros(n, bool), np.ones(n, np.int64)
        self.m_degraded.inc()
        self.m_degraded_ops.inc(n)
        self.m_ops.inc(n)
        self._cycle += n  # exact adder: always one (longer) cycle
        self.m_cycles.set(self._cycle)
        self.h_latency.record(1, count=n)
        self.h_wall.record(0.0)
        self.tracer.emit("degraded_request", id=pending.id, ops=n)
        accept = self._cycle - n
        if pending.scalar:
            a, b = pending.scalar_pair
            pending.future.set_result(AddResponse(
                a=a, b=b, sum_out=int(sums[0]), cout=int(couts[0]),
                stalled=False, latency_cycles=1, accept_cycle=accept))
        else:
            pending.future.set_result(BatchResponse(
                sums=sums, couts=couts, stalled=stalled,
                latencies=latencies, accept_cycle=accept, cycles=n,
                stall_count=0))

    # -- cluster-wide metrics aggregation -------------------------------
    def _patched_worker_state(self, handle: WorkerHandle) -> Dict[str, Any]:
        """Last full snapshot, bumped by fresher result piggybacks."""
        state = {name: {"kind": e["kind"], "help": e["help"],
                        "state": dict(e["state"])}
                 for name, e in handle.metrics_state.items()}
        light = handle.counters
        if light:
            for key, name, kind in (
                    ("ops", "worker_ops_total", "counter"),
                    ("stalls", "worker_stalls_total", "counter"),
                    ("batches", "worker_batches_total", "counter"),
                    ("cycles", "worker_cycles", "gauge")):
                entry = state.setdefault(
                    name, {"kind": kind, "help": "",
                           "state": ({"value": 0} if kind == "counter"
                                     else {"value": 0, "peak": 0})})
                entry["state"]["value"] = max(entry["state"]["value"],
                                              light[key])
                if kind == "gauge":
                    entry["state"]["peak"] = max(entry["state"]["peak"],
                                                 light[key])
        return state

    def _retire_worker(self, handle: WorkerHandle) -> None:
        """Fold a finished worker's final state into the retired bank."""
        state = self._patched_worker_state(handle)
        if state:
            self._retired.merge_snapshot(state)

    def merged_registry(self) -> MetricsRegistry:
        """Router + retired + live worker registries, merged fresh."""
        self.supervisor.sample_occupancy()
        merged = MetricsRegistry(namespace=self.registry.namespace)
        merged.merge_snapshot(self.registry.state())
        merged.merge_snapshot(self._retired.state())
        for handle in self.supervisor.live:
            merged.merge_snapshot(self._patched_worker_state(handle))
        return merged

    def per_worker_metrics(self) -> Dict[str, Dict[str, Any]]:
        """Per-live-worker metric snapshots, keyed ``slotN/widM``."""
        out: Dict[str, Dict[str, Any]] = {}
        for handle in self.supervisor.live:
            view = MetricsRegistry()
            view.merge_snapshot(self._patched_worker_state(handle))
            out[f"slot{handle.slot}/wid{handle.wid}"] = view.to_json()
        return out

    def metrics_json(self) -> Dict[str, Any]:
        """Merged cluster snapshot plus per-worker breakdowns."""
        out = self.merged_registry().to_json()
        out["per_worker"] = self.per_worker_metrics()
        return out

    def metrics_prometheus(self) -> str:
        """Prometheus text exposition of the merged cluster registry."""
        return self.merged_registry().to_prometheus()


def _exact_add_arrays(arr: np.ndarray, width: int):
    """Exact sums and carry outs of the ``(n, 2)`` operand array *arr*
    masked to *width* bits, in its lane type (``uint64`` or object)."""
    ops = lanes(arr, width)
    a, b = ops[:, 0], ops[:, 1]
    words = word_ops(width, a)
    return words.add(a, b, words.zero, width)
