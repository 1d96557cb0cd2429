"""Live cluster reconfiguration through the CONFIG wire message."""

import asyncio
import random

import pytest

from repro.cluster import ClusterConfig, ClusterRouter
from repro.service.executor import VlsaBatchExecutor

WIDTH = 16
MASK = (1 << WIDTH) - 1
# Propagate run of length 6 from bit 0: flags at window 4, not at 16.
RUN6_PAIR = (0b111111, 1)


def fast_cfg(**kw):
    kw.setdefault("width", WIDTH)
    kw.setdefault("window", 4)
    kw.setdefault("workers", 2)
    kw.setdefault("heartbeat_interval", 0.05)
    return ClusterConfig(**kw)


def run(coro):
    return asyncio.run(coro)


def test_config_reconfigure_validation():
    cfg = fast_cfg()
    from repro.families.base import FamilyError
    with pytest.raises(FamilyError):
        cfg.reconfigure(family="nope")
    with pytest.raises(ValueError):
        cfg.reconfigure(max_batch_ops=0)
    wd = cfg.reconfigure(window=8)
    assert wd["window"] == 8 and cfg.window == 8


def test_router_reconfigure_propagates_to_live_workers():
    async def main():
        async with ClusterRouter(fast_cfg()) as router:
            await router.wait_ready()
            before = await router.submit(*RUN6_PAIR)
            assert before.stalled  # window 4 misses the 6-run
            applied = router.reconfigure(window=WIDTH)
            assert applied["window"] == WIDTH
            assert router.window == WIDTH
            assert router.describe()["family"] == "aca"
            # CONFIG is applied between batches; serve until the swap
            # has landed on every worker (both serve round-robin).
            for _ in range(8):
                after = await router.submit(*RUN6_PAIR)
            assert not after.stalled  # full-width window never flags
            assert router.m_reconfigs.value == 1
            # Worker counters arrive with heartbeats; wait for both.
            reconfigs = 0
            for _ in range(40):
                mj = router.metrics_json()
                reconfigs = sum(
                    w.get("worker_reconfigs_total", {}).get("value", 0)
                    for w in mj["per_worker"].values())
                if reconfigs >= 2:
                    break
                await asyncio.sleep(0.05)
            assert reconfigs == 2  # every live worker applied it
    run(main())


def test_reconfigured_cluster_stays_bit_exact():
    rng = random.Random(11)
    pairs = [(rng.getrandbits(WIDTH), rng.getrandbits(WIDTH))
             for _ in range(800)]
    want = VlsaBatchExecutor(WIDTH, window=WIDTH).execute(pairs)

    async def main():
        async with ClusterRouter(fast_cfg()) as router:
            await router.wait_ready()
            first = await router.submit_batch(pairs[:400])
            router.reconfigure(window=12, family="aca")
            second = await router.submit_batch(pairs[400:])
            assert first.sums + second.sums == want.sums
            assert first.couts + second.couts == want.couts
    run(main())
