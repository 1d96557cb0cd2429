"""Wire protocol between the cluster router and its worker processes.

Messages are plain tuples ``(kind, *payload)``.  Each travels as one
binary frame (:func:`repro.cluster.transport.encode_frame`): a
``uint64`` BATCH or RESULT as raw array bytes, every other message
pickled into the frame.  Keeping the vocabulary in one
module — with constructors and a tiny validator — means the router,
supervisor, worker and the tests all speak from the same sheet.

Router -> worker:

* ``(BATCH, msg_id, payload)`` — one coalesced wire batch.  *payload*
  is an ``(n, 2)`` lane array: ``uint64`` at widths up to 64,
  ``dtype=object`` Python ints above.
* ``(SHUTDOWN,)`` — finish in-hand work, ship a final snapshot, exit 0.
* ``(CONFIG, cfg)`` — live reconfiguration (autotune): *cfg* is a
  partial :meth:`~repro.cluster.config.ClusterConfig.worker_dict`; the
  worker rebuilds its executor with the merged configuration before the
  next batch.  The worker loop is serial, so the swap is atomic with
  respect to batches — exactly the service's between-micro-batch
  guarantee.
* ``(HANG, seconds)`` / ``(CRASH, exit_code)`` — chaos hooks for the
  supervision tests (a real deployment never sends them).

Worker -> router:

* ``(RESULT, msg_id, result)`` — *result* is a dict: ``sums`` /
  ``couts`` / ``stalled`` / ``spec_errors`` (numpy arrays; sums and
  carries are ``uint64`` at widths up to 64, ``dtype=object`` above),
  ``cycles``, ``start_cycle`` (worker-local clock) and ``counters``
  (lightweight running totals, see :func:`light_counters`).
* ``(HEARTBEAT, worker_id, state)`` — liveness beacon carrying the full
  :meth:`~repro.service.metrics.MetricsRegistry.state` snapshot.
* ``(BYE, worker_id, state)`` — graceful-shutdown acknowledgement with
  the final snapshot.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

__all__ = [
    "BATCH", "SHUTDOWN", "CONFIG", "HANG", "CRASH",
    "RESULT", "HEARTBEAT", "BYE",
    "batch_msg", "config_msg", "result_msg", "heartbeat_msg", "bye_msg",
    "light_counters",
]

# Router -> worker kinds.
BATCH = "batch"
SHUTDOWN = "shutdown"
CONFIG = "config"
HANG = "hang"
CRASH = "crash"

# Worker -> router kinds.
RESULT = "result"
HEARTBEAT = "hb"
BYE = "bye"

Message = Tuple[Any, ...]


def batch_msg(msg_id: int, payload: Any) -> Message:
    return (BATCH, msg_id, payload)


def config_msg(cfg: Dict[str, Any]) -> Message:
    return (CONFIG, cfg)


def result_msg(msg_id: int, result: Dict[str, Any]) -> Message:
    return (RESULT, msg_id, result)


def heartbeat_msg(worker_id: int, state: Dict[str, Any]) -> Message:
    return (HEARTBEAT, worker_id, state)


def bye_msg(worker_id: int, state: Dict[str, Any]) -> Message:
    return (BYE, worker_id, state)


def light_counters(ops: int, stalls: int, batches: int,
                   cycles: int) -> Dict[str, int]:
    """Cheap per-result running totals (full state rides heartbeats).

    Attached to every RESULT so the router's last-known view of a
    worker is never staler than its last delivered batch — the metrics
    conservation identity (worker-reported ops >= router-delivered
    ops) holds even when a crash eats the final heartbeat.
    """
    return {"ops": ops, "stalls": stalls, "batches": batches,
            "cycles": cycles}
