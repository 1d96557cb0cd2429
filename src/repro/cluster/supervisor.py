"""Worker-pool supervision: spawn, watch, kill, restart, fail over.

The :class:`WorkerSupervisor` owns every OS-level concern of the pool so
the router can stay a pure asyncio front end:

* **Spawn.**  Each slot gets a fresh process (``spawn`` start method by
  default) and a channel (:mod:`repro.cluster.transport`: binary
  frames over a socket pair) that reads and writes on the router's
  event loop: a full wire buffers rather than blocking the loop, and
  each arriving message is handled in place, with no thread hand-off.
* **Liveness.**  Three independent detectors: the channel sees socket
  EOF the instant a crashed worker's last buffered replies drain (so
  no delivered result is ever thrown away), the monitor tick checks
  ``Process.is_alive()`` (catches SIGKILL even when inherited
  descriptors keep the socket open), and a silence-with-work-in-flight
  timer declares a live-but-wedged process hung and kills it.
* **Restart.**  Dead slots respawn after exponential backoff
  (``base * 2^(consecutive failures - 1)``, capped); a successful
  heartbeat resets the streak.  Every death first hands the slot's
  un-answered requests to the router's failover callback, which
  redirects them to surviving workers (or the degraded path) — crash
  recovery is the cluster's "rare slow path", exactly the paper's
  variable-latency shape one level up.
"""

from __future__ import annotations

import asyncio
import collections
import time
from typing import Any, Callable, Dict, List, Optional

from ..service.metrics import MetricsRegistry
from ..service.tracing import Tracer
from . import protocol
from .config import ClusterConfig
from .transport import PipeRouterChannel, RouterChannel, WireCounters

__all__ = ["WorkerHandle", "WorkerSupervisor"]


class WorkerHandle:
    """One worker slot's process, transport channel and router state."""

    def __init__(self, wid: int, slot: int):
        self.wid = wid          # unique across restarts
        self.slot = slot        # stable pool position
        self.proc = None
        self.channel: Optional[RouterChannel] = None
        self.alive = False
        self.eof = False
        self.shutdown_sent = False
        self.bye = False  # worker acknowledged SHUTDOWN (clean exit)
        self.started_at = 0.0
        self.last_msg = 0.0
        #: Router bookkeeping: requests queued for this worker, wire
        #: batches outstanding, and the total ops they represent.
        self.backlog: "collections.deque" = collections.deque()
        self.wire: Dict[int, Any] = {}
        self.backlog_ops = 0
        self.wire_ops = 0
        #: Last-known worker-side metrics (light per result, full per
        #: heartbeat) — survive the process for post-mortem accounting.
        self.counters: Dict[str, int] = {}
        self.metrics_state: Dict[str, Any] = {}

    @property
    def load_ops(self) -> int:
        """Additions this worker still owes answers for."""
        return self.backlog_ops + self.wire_ops

    def send(self, msg) -> None:
        """Ship *msg* on the channel (never blocks the loop)."""
        self.channel.send(msg)

    def shutdown(self) -> None:
        """Send SHUTDOWN, once: a second one can reach a socket the
        worker has closed, and the failed write drops its unread BYE."""
        if not self.shutdown_sent:
            self.shutdown_sent = True
            self.send((protocol.SHUTDOWN,))

    # -- lifecycle (called by the supervisor only) ----------------------
    async def start(self, ctx, cfg: ClusterConfig, loop,
                    counters: WireCounters,
                    on_message: Callable, on_eof: Callable) -> None:
        self.channel = PipeRouterChannel(counters)
        self.proc = ctx.Process(
            target=_spawn_target, name=f"vlsa-worker-{self.slot}",
            args=(self.wid, self.channel.spawn_spec(), cfg.worker_dict()),
            daemon=True)
        self.proc.start()
        self.channel.after_spawn()  # drop the child's socket end
        self.alive = True
        self.started_at = self.last_msg = time.monotonic()
        await self.channel.start_io(loop, lambda msg: on_message(self, msg),
                                    lambda: on_eof(self))

    def close(self, kill: bool = False, join_timeout: float = 0.5) -> None:
        """Stop the process and the channel (``kill=True`` skips SIGTERM)."""
        self.alive = False
        if self.proc is not None and self.proc.is_alive():
            if kill:
                self.proc.kill()
            else:
                self.proc.terminate()
            self.proc.join(join_timeout)
            if self.proc.is_alive():
                self.proc.kill()
                self.proc.join(join_timeout)
        if self.channel is not None:
            self.channel.close()


def _spawn_target(wid: int, sock, cfg: Dict[str, Any]) -> None:
    # Imported lazily in the child so a ``spawn`` start pays the repro
    # import exactly once, inside the worker.
    from .transport import WorkerChannel
    from .worker import worker_main

    worker_main(wid, WorkerChannel(sock), cfg)


class WorkerSupervisor:
    """Owns the pool: slots, monitoring, restarts, graceful stop.

    Args:
        cfg: Shared cluster configuration.
        registry: Router-side metrics registry (restart/liveness
            instruments land here).
        tracer: Trace-event sink (spawn/death/restart events).
        on_message: ``(handle, message)`` callback, loop thread.
        on_failover: ``(handle)`` callback invoked after a death, with
            the handle's backlog/wire still intact for redistribution.
    """

    def __init__(self, cfg: ClusterConfig, registry: MetricsRegistry,
                 tracer: Tracer, on_message: Callable,
                 on_failover: Callable):
        self.cfg = cfg
        self.tracer = tracer
        self._on_message = on_message
        self._on_failover = on_failover
        self.wire_counters = WireCounters(registry)
        self._slots: List[Optional[WorkerHandle]] = [None] * cfg.workers
        self._failures = [0] * cfg.workers
        self._next_wid = 0
        self._mp_ctx = None
        self._loop = None
        self._monitor_task: "Optional[asyncio.Task]" = None
        self._restart_tasks: Dict[int, asyncio.Task] = {}
        self._stopping = False
        self.m_restarts = registry.counter(
            "worker_restarts_total", "worker processes respawned")
        self.m_failures = registry.counter(
            "worker_failures_total", "worker crash/hang events")
        self.m_heartbeats = registry.counter(
            "heartbeats_total", "worker heartbeats received")
        self.g_live = registry.gauge(
            "workers_live", "worker processes currently serving")

    # ------------------------------------------------------------------
    @property
    def slots(self) -> List[Optional[WorkerHandle]]:
        return list(self._slots)

    @property
    def live(self) -> List[WorkerHandle]:
        return [h for h in self._slots if h is not None and h.alive]

    async def start(self) -> None:
        import multiprocessing

        self._loop = asyncio.get_running_loop()
        self._mp_ctx = multiprocessing.get_context(
            self.cfg.resolve_start_method())
        for slot in range(self.cfg.workers):
            await self._spawn(slot)
        self._monitor_task = self._loop.create_task(
            self._monitor(), name="vlsa-cluster-monitor")

    async def stop(self) -> None:
        self._stopping = True
        if self._monitor_task is not None:
            self._monitor_task.cancel()
            try:
                await self._monitor_task
            except asyncio.CancelledError:
                pass
            self._monitor_task = None
        for task in list(self._restart_tasks.values()):
            task.cancel()
        self._restart_tasks.clear()
        for handle in self.live:
            handle.shutdown()
        deadline = time.monotonic() + max(1.0,
                                          4 * self.cfg.heartbeat_interval)
        while time.monotonic() < deadline and any(
                h.proc.is_alive() for h in self.live if h.proc):
            await asyncio.sleep(0.01)
        for handle in self._slots:
            if handle is not None:
                handle.close()
        self.g_live.set(0)

    # ------------------------------------------------------------------
    async def _spawn(self, slot: int) -> None:
        handle = WorkerHandle(self._next_wid, slot)
        self._next_wid += 1
        try:
            await handle.start(self._mp_ctx, self.cfg, self._loop,
                               self.wire_counters,
                               self._handle_message, self._handle_eof)
        except BaseException:  # e.g. stop() cancelled a restart
            handle.close(kill=True)
            raise
        self._slots[slot] = handle
        self.g_live.set(len(self.live))
        self.tracer.emit("worker_spawn", slot=slot, wid=handle.wid,
                         pid=handle.proc.pid)

    def _handle_message(self, handle: WorkerHandle, msg) -> None:
        handle.last_msg = time.monotonic()
        kind = msg[0]
        if kind == protocol.HEARTBEAT:
            self.m_heartbeats.inc()
            handle.metrics_state = msg[2]
            uptime = time.monotonic() - handle.started_at
            if uptime >= self.cfg.healthy_after:
                self._failures[handle.slot] = 0  # healthy again
        elif kind == protocol.BYE:
            handle.metrics_state = msg[2]
            handle.bye = True
        self._on_message(handle, msg)

    def _handle_eof(self, handle: WorkerHandle) -> None:
        """The channel hit EOF: every buffered reply is already in."""
        handle.eof = True
        if not handle.alive:
            return
        if handle.bye and not handle.load_ops:
            # Clean exit after SHUTDOWN: not a failure, no restart.
            handle.alive = False
            self.g_live.set(len(self.live))
            handle.close()
            return
        self._declare_down(handle, "pipe_eof")

    def _declare_down(self, handle: WorkerHandle, reason: str,
                      kill: bool = False) -> None:
        if not handle.alive:
            return
        handle.alive = False
        self.m_failures.inc()
        self._failures[handle.slot] += 1
        self.g_live.set(len(self.live))
        exitcode = handle.proc.exitcode if handle.proc is not None else None
        self.tracer.emit("worker_dead", slot=handle.slot, wid=handle.wid,
                         reason=reason, exitcode=exitcode,
                         inflight_ops=handle.load_ops)
        handle.close(kill=kill)
        self._on_failover(handle)
        if not self._stopping:
            self._schedule_restart(handle.slot)

    def _schedule_restart(self, slot: int) -> None:
        if slot in self._restart_tasks:
            return
        streak = max(1, self._failures[slot])
        backoff = min(
            self.cfg.restart_backoff_base * (2 ** (streak - 1)),
            self.cfg.restart_backoff_max)
        self.tracer.emit("worker_restart_scheduled", slot=slot,
                         backoff=round(backoff, 4), streak=streak)

        async def _restart() -> None:
            try:
                await asyncio.sleep(backoff)
                if self._stopping:
                    return
                await self._spawn(slot)
                self.m_restarts.inc()
            finally:
                self._restart_tasks.pop(slot, None)

        self._restart_tasks[slot] = self._loop.create_task(
            _restart(), name=f"vlsa-restart-{slot}")

    async def _monitor(self) -> None:
        interval = self.cfg.heartbeat_interval
        while True:
            await asyncio.sleep(interval)
            now = time.monotonic()
            for handle in self.live:
                if handle.bye and not handle.load_ops:
                    continue  # graceful exit in flight; EOF retires it
                if handle.proc is not None and not handle.proc.is_alive():
                    self._declare_down(handle, "process_exit")
                elif (handle.wire
                      and now - handle.last_msg > self.cfg.hang_timeout):
                    # Alive but silent with work outstanding: hung.
                    self.tracer.emit("worker_hung", slot=handle.slot,
                                     wid=handle.wid,
                                     silent_s=round(now - handle.last_msg,
                                                    3))
                    self._declare_down(handle, "hang", kill=True)
