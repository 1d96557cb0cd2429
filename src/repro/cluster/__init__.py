"""Multi-process VLSA serving cluster (layer 8).

A sharded pool of worker processes behind an asyncio router that keeps
the single-process service's submission contract — plus supervision
(heartbeats, crash/hang detection, backoff restarts), failover with a
degraded exact-addition fallback, and cluster-wide metrics aggregation.
See :mod:`repro.cluster.router` for the data path,
:mod:`repro.cluster.supervisor` for the control path, and
:mod:`repro.cluster.transport` for the wire (pickle-over-pipe or
zero-copy shared-memory rings).
"""

from .._lazy import lazy_exports

# Each name loads its submodule on first use, so a spawned worker, which
# imports only ``supervisor`` and ``worker``, never loads the router.
_LAZY, __getattr__, __dir__ = lazy_exports(__name__, {
    ".config": ("SHARD_POLICY_NAMES", "TRANSPORT_NAMES", "ClusterConfig"),
    ".router": ("SHARD_POLICIES", "ClusterRouter", "ClusterUnhealthyError",
                "register_shard_policy"),
    ".supervisor": ("WorkerHandle", "WorkerSupervisor"),
    ".sync": ("SyncCluster", "close_shared_cluster", "shared_cluster"),
    ".transport": ("PipeTransport", "Ring", "ShmRingTransport", "Transport",
                   "make_transport"),
})

__all__ = [
    "ClusterConfig",
    "ClusterRouter",
    "ClusterUnhealthyError",
    "PipeTransport",
    "Ring",
    "SHARD_POLICIES",
    "SHARD_POLICY_NAMES",
    "ShmRingTransport",
    "SyncCluster",
    "Transport",
    "TRANSPORT_NAMES",
    "make_transport",
    "WorkerHandle",
    "WorkerSupervisor",
    "close_shared_cluster",
    "register_shard_policy",
    "shared_cluster",
]
