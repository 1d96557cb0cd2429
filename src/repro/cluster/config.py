"""Cluster configuration: one picklable dataclass shared by every layer.

The router, supervisor and worker processes all read the same
:class:`ClusterConfig`; the worker side receives :meth:`worker_dict`
(a plain dict) so the spawn start method only has to pickle primitives.
Defaults are production-ish (second-scale supervision timers); tests
shrink the timers to tens of milliseconds to exercise failover fast.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass
from typing import Any, Dict, Optional

from ..families.base import get_family

__all__ = ["ClusterConfig"]


@dataclass
class ClusterConfig:
    """Knobs for the multi-process serving cluster.

    Args:
        width: Operand bitwidth.
        window: The family's primary parameter (for ACA, the
            speculation window; default: the family's own choice).
        family: Registered adder family every worker serves.
        recovery_cycles: Extra cycles when the detector fires.
        workers: Worker processes in the pool.
        max_batch_ops: Max additions coalesced into one wire batch.
        worker_queue_ops: Bound on additions backlogged per worker
            (queued + on the wire); beyond it submissions are rejected
            — backpressure by rejection.
        wire_inflight: Wire batches a worker may have outstanding
            (pipelining depth: the worker computes batch k while the
            router packs batch k+1).
        heartbeat_interval: Worker heartbeat / supervision tick, sec.
        hang_timeout: Silence (with work in flight) after which a live
            process is declared hung and killed.
        restart_backoff_base: First restart delay; doubles per
            consecutive failure of the same slot.
        restart_backoff_max: Backoff ceiling, seconds.
        healthy_after: Uptime after which a heartbeat clears the slot's
            failure streak — a crash-looping worker that boots, beats
            once and dies keeps escalating its backoff.
        redirect_limit: Times one request may be redirected to another
            worker after failures before it errors out.
        start_method: multiprocessing start method (default: the
            ``REPRO_MP_START`` env var, else ``spawn`` — fork is faster
            to boot but copies the router's event loop and every open
            socket into each worker).
    """

    width: int = 64
    window: Optional[int] = None
    family: str = "aca"
    recovery_cycles: int = 1
    workers: int = 2
    max_batch_ops: int = 8192
    worker_queue_ops: int = 65536
    wire_inflight: int = 2
    heartbeat_interval: float = 0.25
    hang_timeout: float = 5.0
    restart_backoff_base: float = 0.1
    restart_backoff_max: float = 5.0
    healthy_after: float = 1.0
    redirect_limit: int = 3
    start_method: Optional[str] = None

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ValueError("width must be positive")
        fam = get_family(self.family)
        params = fam.resolve_params(self.width, window=self.window)
        self.window = fam.primary_value(self.width, params)
        if self.workers < 1:
            raise ValueError("a cluster needs at least one worker")
        if self.max_batch_ops < 1 or self.worker_queue_ops < 1:
            raise ValueError("batch/queue bounds must be positive")
        if self.wire_inflight < 1:
            raise ValueError("wire_inflight must be at least 1")

    def reconfigure(self, window: Optional[int] = None,
                    family: Optional[str] = None,
                    max_batch_ops: Optional[int] = None) -> Dict[str, Any]:
        """Re-resolve the serving knobs in place (the autotune path).

        Mutates this config so future worker (re)spawns inherit the new
        configuration; returns :meth:`worker_dict` for broadcasting to
        already-live workers.  ``window`` follows the constructor
        convention (the family's primary knob; ``None`` with a family
        change = the new family's default).
        """
        if family is not None:
            get_family(family)  # fail fast before mutating
            self.family = family
        if window is not None or family is not None:
            fam = get_family(self.family)
            params = fam.resolve_params(self.width, window=window)
            self.window = fam.primary_value(self.width, params)
        if max_batch_ops is not None:
            if max_batch_ops < 1:
                raise ValueError("max_batch_ops must be positive")
            self.max_batch_ops = max_batch_ops
        return self.worker_dict()

    def resolve_start_method(self) -> str:
        method = (self.start_method
                  or os.environ.get("REPRO_MP_START", "spawn"))
        if method not in multiprocessing.get_all_start_methods():
            raise ValueError(f"start method {method!r} unavailable here")
        return method

    def worker_dict(self) -> Dict[str, Any]:
        """The subset a worker process needs, as picklable primitives."""
        return {
            "width": self.width,
            "window": self.window,
            "family": self.family,
            "recovery_cycles": self.recovery_cycles,
            "heartbeat_interval": self.heartbeat_interval,
        }
