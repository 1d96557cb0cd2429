"""The cluster worker process: one executor, one channel, one loop.

``worker_main`` is the spawn target.  It owns a
:class:`~repro.service.executor.VlsaBatchExecutor` (the same kernels the
single-process service runs), a private
:class:`~repro.service.metrics.MetricsRegistry`, and a worker-local
virtual cycle clock; it reads wire batches off its socket channel
(see :mod:`repro.cluster.transport`), executes them, and replies with
array-native results (``uint64`` sums and carries at widths up to 64,
``dtype=object`` lanes above).

The worker is deliberately synchronous and single-threaded: the paper's
datapath is a serial accelerator, and a worker models exactly one of
them.  Parallelism is the *pool's* job.  The first heartbeat goes out
as soon as the executor is built (it is the readiness signal the
router's ``wait_ready`` waits for); later ones ride the gaps —
``channel.recv(interval)`` doubles as the idle timer — and every
heartbeat ships the full metrics state so the router's cluster-wide
aggregation is never staler than one interval.

When the router vanishes the worker does **not** exit silently: it
prints one structured ``VLSA_WORKER_TRACE`` JSON line to stderr first,
so supervisor restarts stay attributable in tests and post-mortems.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Any, Dict

from ..service.executor import VlsaBatchExecutor
from ..service.metrics import MetricsRegistry
from . import protocol
from .transport import ChannelClosed, WorkerChannel

__all__ = ["worker_main", "DEATH_TRACE_MARKER"]

#: stderr marker prefixing the structured death-trace JSON line.
DEATH_TRACE_MARKER = "VLSA_WORKER_TRACE"


def _death_trace(reason: str, worker_id: int,
                 registry: MetricsRegistry) -> None:
    """Emit a structured death event before exiting.

    The channel to the router is gone by definition here, so stderr is
    the only remaining lane; the supervisor's restart shows up in the
    router trace, this line explains *why* from the worker's side.
    """
    state = registry.state()

    def _val(name: str) -> int:
        return state.get(name, {}).get("state", {}).get("value", 0)

    record = {
        "event": "worker_channel_closed",
        "reason": reason,
        "worker_id": worker_id,
        "pid": os.getpid(),
        "ops_total": _val("worker_ops_total"),
        "batches_total": _val("worker_batches_total"),
    }
    print(f"{DEATH_TRACE_MARKER} {json.dumps(record, sort_keys=True)}",
          file=sys.stderr, flush=True)


def worker_main(worker_id: int, channel: WorkerChannel,
                cfg: Dict[str, Any]) -> None:
    """Entry point of one worker process (see module docstring).

    Args:
        worker_id: Slot index, echoed in heartbeats.
        channel: The worker's end of its socket pair.
        cfg: :meth:`~repro.cluster.config.ClusterConfig.worker_dict`.
    """
    executor = VlsaBatchExecutor(cfg["width"], window=cfg["window"],
                                 recovery_cycles=cfg["recovery_cycles"],
                                 family=cfg.get("family", "aca"))
    registry = MetricsRegistry()
    m_ops = registry.counter(
        "worker_ops_total", "additions executed by this worker")
    m_stalls = registry.counter(
        "worker_stalls_total", "additions that took the recovery path")
    m_batches = registry.counter(
        "worker_batches_total", "wire batches executed")
    m_reconfigs = registry.counter(
        "worker_reconfigs_total", "live configuration swaps applied")
    m_cycles = registry.gauge(
        "worker_cycles", "virtual cycles on this worker's accelerator")
    h_batch = registry.histogram(
        "worker_batch_size_ops", "additions per wire batch",
        reservoir_size=2048)
    registry.gauge("worker_pid", "OS pid of the worker process").set(
        os.getpid())

    interval = cfg["heartbeat_interval"]
    cycle = 0
    last_beat = 0.0

    def beat(reason: str) -> bool:
        """Send a heartbeat; if the router is gone, trace *reason*,
        close the channel and return False."""
        nonlocal last_beat
        try:
            channel.send(protocol.heartbeat_msg(worker_id, registry.state()))
        except ChannelClosed:
            _death_trace(reason, worker_id, registry)
            channel.close()
            return False
        last_beat = time.monotonic()
        return True

    # Readiness: the router sends nothing until every worker has
    # heartbeated, so announce now rather than after an idle interval.
    if not beat("ready_send"):
        return

    while True:
        try:
            msg = channel.recv(interval)
        except ChannelClosed:
            _death_trace("recv", worker_id, registry)
            channel.close()
            return  # router went away; nothing left to serve
        if msg is None:
            if not beat("heartbeat_send"):
                return
            continue
        kind = msg[0]
        if kind == protocol.SHUTDOWN:
            try:
                channel.send(protocol.bye_msg(worker_id, registry.state()))
            except ChannelClosed:
                _death_trace("bye_send", worker_id, registry)
            channel.close()
            return
        if kind == protocol.CONFIG:
            # Live reconfiguration (autotune): rebuild the executor
            # from the merged config.  The loop is serial, so this
            # always lands between batches; recovery is exact at every
            # configuration, so results stay bit-identical.
            cfg = {**cfg, **msg[1]}
            executor = VlsaBatchExecutor(
                cfg["width"], window=cfg["window"],
                recovery_cycles=cfg["recovery_cycles"],
                family=cfg.get("family", "aca"))
            m_reconfigs.inc()
            continue
        if kind == protocol.HANG:  # chaos hook: go silent
            time.sleep(msg[1])
            continue
        if kind == protocol.CRASH:  # chaos hook: die without cleanup
            os._exit(msg[1])
        if kind != protocol.BATCH:
            continue  # unknown kinds are ignored, not fatal
        _, msg_id, payload = msg

        arrays = executor.execute_arrays(
            executor.coerce_pairs_array(payload))
        n, stalls = arrays.size, arrays.stall_count
        result = {"sums": arrays.sums, "couts": arrays.couts,
                  "stalled": arrays.stalled,
                  "spec_errors": arrays.spec_errors,
                  "cycles": arrays.cycles, "start_cycle": cycle}
        cycle += result["cycles"]
        m_ops.inc(n)
        m_stalls.inc(stalls)
        m_batches.inc()
        m_cycles.set(cycle)
        h_batch.record(n)
        result["counters"] = protocol.light_counters(
            m_ops.value, m_stalls.value, m_batches.value, cycle)
        try:
            channel.send(protocol.result_msg(msg_id, result))
        except ChannelClosed:
            # The silent-exit bug this replaces: dying here without a
            # trace made supervisor restarts unattributable.
            _death_trace("result_send", worker_id, registry)
            channel.close()
            return
        if (time.monotonic() - last_beat >= interval
                and not beat("heartbeat_send")):
            return
