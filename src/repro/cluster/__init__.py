"""Multi-process VLSA serving cluster (layer 8).

A sharded pool of worker processes behind an asyncio router that keeps
the single-process service's submission contract — plus supervision
(heartbeats, crash/hang detection, backoff restarts), failover with a
degraded exact-addition fallback, and cluster-wide metrics aggregation.
See :mod:`repro.cluster.router` for the data path,
:mod:`repro.cluster.supervisor` for the control path, and
:mod:`repro.cluster.transport` for the wire (binary frames on a socket
pair per worker).
"""

from .._lazy import lazy_exports

# Each name loads its submodule on first use, so a spawned worker, which
# imports only ``supervisor`` and ``worker``, never loads the router.
_LAZY, __getattr__, __dir__ = lazy_exports(__name__, {
    ".config": ("SHARD_POLICY_NAMES", "ClusterConfig"),
    ".router": ("SHARD_POLICIES", "ClusterRouter", "ClusterUnhealthyError",
                "register_shard_policy"),
    ".supervisor": ("WorkerHandle", "WorkerSupervisor"),
    ".sync": ("SyncCluster", "close_shared_cluster", "shared_cluster"),
})

__all__ = [
    "ClusterConfig",
    "ClusterRouter",
    "ClusterUnhealthyError",
    "SHARD_POLICIES",
    "SHARD_POLICY_NAMES",
    "SyncCluster",
    "WorkerHandle",
    "WorkerSupervisor",
    "close_shared_cluster",
    "register_shard_policy",
    "shared_cluster",
]
