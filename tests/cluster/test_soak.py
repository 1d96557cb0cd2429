"""Pipe soak: the small-batch workload that once left a request past its
timeout, repeated on one live pool.

One worker, 64-op uniform requests from four concurrent clients, 8,192
ops per repeat at width 64: per-message wire cost dominates, which is
where a lost or stuck frame would show.  Every repeat must end with no
timeout, no failed or degraded request and no pending future.
"""

import asyncio

import numpy as np
import pytest

from repro.cluster import ClusterConfig, ClusterRouter
from repro.service.loadgen import make_workload

REPEATS = 200
OPS, CHUNK, CONCURRENCY, WIDTH = 8192, 64, 4, 64
TIMEOUT_S = 5.0


async def _repeat(router: ClusterRouter, seed: int) -> None:
    chunks = make_workload("uniform", WIDTH, router.window, OPS,
                           chunk=CHUNK,
                           rng=np.random.default_rng(seed)).chunks

    async def client() -> None:
        for chunk in chunks:  # shared: each chunk goes to one client
            await router.submit_batch(chunk, timeout=TIMEOUT_S)

    await asyncio.gather(*(client() for _ in range(CONCURRENCY)))


@pytest.mark.slow
def test_small_batch_soak_never_times_out():
    async def main():
        cfg = ClusterConfig(width=WIDTH, workers=1, max_batch_ops=1 << 14)
        async with ClusterRouter(cfg) as router:
            await router.wait_ready()
            for seed in range(REPEATS):
                await _repeat(router, seed)
                where = f"repeat {seed}"
                assert router.m_timeouts.value == 0, where
                assert router.m_failed.value == 0, where
                assert router.m_degraded.value == 0, where
                assert router.m_inflight.value == 0, where
                for handle in router.supervisor.live:
                    assert not handle.wire and not handle.backlog, where
            assert router.m_ops.value == REPEATS * OPS
            assert router.supervisor.m_failures.value == 0

    asyncio.run(main())
