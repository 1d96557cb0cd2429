"""Synchronous facade over :class:`~repro.cluster.router.ClusterRouter`.

The differential verifier (and any other plain-function caller) wants
``run(pairs) -> results`` with no event loop in sight.  ``SyncCluster``
runs a private asyncio loop on a daemon thread, starts a router on it,
and exposes blocking ``add`` / ``add_batch`` calls bridged with
``asyncio.run_coroutine_threadsafe``.

Because a cluster spawns OS processes (~half a second each with the
``spawn`` start method), :func:`shared_cluster` keeps one running pool
cached: repeated requests for the same configuration reuse it, and
whatever is live at interpreter exit is torn down by an ``atexit``
hook.  The verifier's five built-in implementations stay in-process
and cheap; only the cluster adapter pays the boot cost, and only once
per configuration.
"""

from __future__ import annotations

import asyncio
import atexit
import threading
from typing import Optional, Sequence, Tuple

from .config import ClusterConfig
from .router import ClusterRouter

__all__ = ["SyncCluster", "shared_cluster", "close_shared_cluster"]

Pair = Tuple[int, int]


class SyncCluster:
    """Blocking wrapper: one router, one loop thread, simple calls."""

    def __init__(self, cfg: Optional[ClusterConfig] = None, *,
                 ready_timeout: float = 60.0, **cfg_kwargs):
        self.cfg = cfg if cfg is not None else ClusterConfig(**cfg_kwargs)
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="vlsa-sync-cluster",
            daemon=True)
        self._thread.start()
        self.router = ClusterRouter(self.cfg)
        self._call(self.router.start(), timeout=ready_timeout)
        self._call(self.router.wait_ready(timeout=ready_timeout),
                   timeout=ready_timeout + 5.0)
        self._closed = False

    def _call(self, coro, timeout: Optional[float] = None):
        return asyncio.run_coroutine_threadsafe(
            coro, self._loop).result(timeout)

    # -- blocking API ----------------------------------------------------
    def add(self, a: int, b: int, timeout: Optional[float] = None):
        """One addition; returns :class:`~repro.service.AddResponse`."""
        return self._call(self.router.submit(a, b), timeout)

    def add_batch(self, pairs: Sequence[Pair],
                  timeout: Optional[float] = None):
        """One batch; returns :class:`~repro.service.BatchResponse`."""
        return self._call(self.router.submit_batch(pairs), timeout)

    def metrics_json(self):
        return self.router.metrics_json()

    @property
    def backend_name(self) -> str:
        return self.router.backend_name

    def close(self, timeout: float = 15.0) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._call(self.router.stop(), timeout=timeout)
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=5.0)
            self._loop.close()

    def __enter__(self) -> "SyncCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ----------------------------------------------------------------------
# Shared pool cache (process-wide, for the verifier)
# ----------------------------------------------------------------------
_shared_lock = threading.Lock()
#: The one cached pool, with its configuration key.  A request for
#: another configuration tears it down first, so no idle pool hoards
#: worker processes.
_shared: Optional[Tuple[Tuple, SyncCluster]] = None


def _key(cfg: ClusterConfig) -> Tuple:
    return (cfg.width, cfg.window, cfg.recovery_cycles, cfg.workers,
            cfg.family)


def shared_cluster(cfg: Optional[ClusterConfig] = None,
                   **cfg_kwargs) -> SyncCluster:
    """A process-wide cached :class:`SyncCluster` for *cfg*.

    The pool stays warm across calls with the same configuration; a
    call with another one closes it and boots a new pool.
    """
    global _shared
    cfg = cfg if cfg is not None else ClusterConfig(**cfg_kwargs)
    key = _key(cfg)
    with _shared_lock:
        if _shared is not None:
            if _shared[0] == key:
                return _shared[1]
            _, stale = _shared
            _shared = None
            stale.close()
        cluster = SyncCluster(cfg)
        _shared = (key, cluster)
        return cluster


def close_shared_cluster() -> None:
    """Tear down the cached cluster (idempotent; also runs at exit)."""
    global _shared
    with _shared_lock:
        if _shared is not None:
            _, cluster = _shared
            _shared = None
            cluster.close()


atexit.register(close_shared_cluster)
