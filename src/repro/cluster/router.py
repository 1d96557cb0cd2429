"""`ClusterRouter` — the asyncio front door of the worker pool.

The router is to the cluster what :class:`~repro.service.VlsaService` is
to one process: both subclass :class:`~repro.service.service.VlsaFrontEnd`,
so they share the submission API (``submit`` / ``submit_batch`` with
timeout, retry and cancellation), the backpressure-by-rejection
contract, the metrics and the response types — every existing client,
the TCP server and the load generator drive it unchanged.  What differs
is what happens behind admission:

* **Placement.**  Admission scans the live workers round robin from a
  rotating cursor and takes the first with room.
* **Bounded per-worker queues.**  Each worker may owe at most
  ``worker_queue_ops`` additions (backlog + on the wire).  When no
  worker has headroom the submission is rejected with
  :class:`~repro.service.ServiceOverloadedError` — memory stays bounded
  under any offered load.
* **Wire coalescing.**  Per worker, queued requests are packed into
  batches of up to ``max_batch_ops`` additions with a bounded number in
  flight (``wire_inflight``), so the worker computes batch *k* while
  the router packs *k+1* — the micro-batcher pattern, stretched over a
  pipe.
* **Failover and degraded serving.**  When the supervisor declares a
  worker dead its un-answered requests are redirected to the least
  loaded survivor (at most ``redirect_limit`` times each); with zero
  live workers the router serves exact (carry-complete,
  non-speculative) additions in-process, counted in
  ``degraded_requests_total``.  Results are resolved exactly once: a
  late reply from a worker already failed over is dropped, and a
  redirected request only answers through its new owner.
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
from typing import Any, Dict, List, Optional

import numpy as np

from ..engine.context import RunContext
from ..families.words import lanes, word_ops
from ..service.metrics import MetricsRegistry
from ..service.service import (
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
    VlsaFrontEnd,
    _Pending,
)
from . import protocol
from .config import ClusterConfig
from .supervisor import WorkerHandle, WorkerSupervisor

__all__ = ["ClusterRouter"]


@dataclass
class _WireBatch:
    """One message on a worker's pipe awaiting its result."""

    pendings: List[_Pending]
    ops: int
    sent_at: float = field(default_factory=time.monotonic)


class ClusterRouter(VlsaFrontEnd):
    """Multi-process sharded serving front end (see module docstring).

    Args:
        cfg: Cluster configuration (pool size, bounds, timers).
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
        super().__init__(cfg.width, cfg.window, cfg.family,
                         cfg.recovery_cycles, cfg.max_batch_ops, ctx=ctx,
                         registry=registry)
        self.cfg = cfg
        self._rr = itertools.count()
        self._msg_ids = itertools.count()
        self._retired = MetricsRegistry()  # dead workers' final states
        self.supervisor = WorkerSupervisor(
            cfg, self.registry, self.tracer,
            on_message=self._on_message, on_failover=self._on_failover)
        reg = self.registry
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
        # Transport-layer accounting: the channels bump these on the
        # loop as messages cross (see transport.WireCounters).
        wire = self.supervisor.wire_counters
        self.m_tx_bytes, self.m_rx_bytes = wire.tx_bytes, wire.rx_bytes
        self.m_tx_msgs, self.m_rx_msgs = wire.tx_msgs, wire.rx_msgs

    @property
    def backend_name(self) -> str:
        return f"cluster:{self.cfg.workers}"

    @property
    def queue_depth(self) -> int:
        return sum(h.backlog_ops for h in self.supervisor.live)

    def _bounds(self) -> Dict[str, int]:
        return {"workers": self.cfg.workers,
                "worker_queue_ops": self.cfg.worker_queue_ops}

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

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> "ClusterRouter":
        if self._running:
            return self
        self._running = True
        await self.supervisor.start()
        self.tracer.emit("cluster_start", workers=self.cfg.workers,
                         width=self.width, window=self.window,
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

    # -- admission ------------------------------------------------------
    def _place(self, pending: _Pending) -> None:
        live = self.supervisor.live
        if not live:
            self._resolve_degraded(pending)
            return
        start = next(self._rr) % len(live)
        for i in range(len(live)):
            handle = live[(start + i) % len(live)]
            # Strictly below the bound: a worker with an empty ledger
            # can take any batch, so oversized batches still make
            # progress.
            if handle.load_ops < self.cfg.worker_queue_ops:
                self._enqueue(handle, pending)
                return
        raise ServiceOverloadedError(
            f"every worker is over its {self.cfg.worker_queue_ops}-op "
            f"queue bound")

    def _enqueue(self, handle: WorkerHandle, pending: _Pending) -> None:
        pending.wid, pending.wire_id = handle.wid, None
        handle.backlog.append(pending)
        handle.backlog_ops += pending.ops
        self.m_queue_depth.set(self.queue_depth)
        self._kick(handle)

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
                f"({where} on worker wid {pending.wid}, {age:.3f}s since "
                f"enqueue, {heard})")

    # -- wire packing ---------------------------------------------------
    def _kick(self, handle: WorkerHandle) -> None:
        """Pack backlog into wire batches up to the pipelining depth."""
        while (handle.alive and handle.backlog
               and len(handle.wire) < self.cfg.wire_inflight):
            group: List[_Pending] = []
            ops = 0
            while handle.backlog and ops < self.max_batch_ops:
                pending = handle.backlog.popleft()
                handle.backlog_ops -= pending.ops
                if pending.future.done():
                    continue  # timed out / cancelled while queued
                group.append(pending)
                ops += pending.ops
            if not group:
                continue
            payload = (group[0].pairs if len(group) == 1
                       else np.concatenate([p.pairs for p in group]))
            msg_id = next(self._msg_ids)
            for pending in group:
                pending.wire_id = msg_id
            handle.wire[msg_id] = _WireBatch(pendings=group, ops=ops)
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
        # Binary results are read-only views into the received chunk;
        # the responses keep writable copies that do not pin it.
        self._resolve(wb.pendings, result["sums"].copy(),
                      result["couts"].copy(), result["stalled"].copy(),
                      int(np.count_nonzero(result["spec_errors"])),
                      result["start_cycle"])
        self._kick(handle)

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
        """Exact in-process addition while no worker is live."""
        n = pending.ops
        sums, couts = _exact_add_arrays(pending.pairs, self.width)
        self.m_degraded.inc()
        self.m_degraded_ops.inc(n)
        # Exact adder: never stalls, always one (longer) cycle.
        self._resolve([pending], sums, couts, np.zeros(n, bool), 0,
                      self._cycle, batched=False)
        self.tracer.emit("degraded_request", id=pending.id, ops=n)

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
