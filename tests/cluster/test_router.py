"""ClusterRouter: sharding, bit-identical results, backpressure,
degraded mode, and cluster-wide metrics aggregation."""

import asyncio
import collections
import random
from types import SimpleNamespace

import pytest

from repro.cluster import (
    SHARD_POLICIES,
    ClusterConfig,
    ClusterRouter,
    ClusterUnhealthyError,
)
from repro.cluster import protocol
from repro.cluster.supervisor import WorkerHandle
from repro.service import ServiceOverloadedError
from repro.service.executor import VlsaBatchExecutor

WIDTH, WINDOW = 32, 8
MASK = (1 << WIDTH) - 1


def fast_cfg(**kw):
    kw.setdefault("width", WIDTH)
    kw.setdefault("window", WINDOW)
    kw.setdefault("workers", 2)
    kw.setdefault("heartbeat_interval", 0.05)
    return ClusterConfig(**kw)


def run(coro):
    return asyncio.run(coro)


def rand_pairs(n, seed=0):
    rng = random.Random(seed)
    return [(rng.getrandbits(WIDTH), rng.getrandbits(WIDTH))
            for _ in range(n)]


@pytest.mark.parametrize("policy", ["round_robin", "least_loaded", "hash"])
def test_batches_bit_identical_to_executor(policy):
    pairs = rand_pairs(3000, seed=hash(policy) & 0xFFFF)
    want = VlsaBatchExecutor(WIDTH, window=WINDOW).execute(pairs)

    async def main():
        async with ClusterRouter(fast_cfg(shard_policy=policy)) as router:
            await router.wait_ready()
            got = await router.submit_batch(pairs)
            assert got.sums == want.sums
            assert got.couts == want.couts
            assert got.stalled == want.stalled
            assert got.latencies == want.latencies
            # Scalar path through the same pool.
            resp = await router.submit(MASK, 1)
            assert resp.sum_out == 0 and resp.cout == 1
            assert router.m_ops.value == len(pairs) + 1

    run(main())


def test_concurrent_scalars_spread_over_workers():
    pairs = rand_pairs(300, seed=5)

    async def main():
        async with ClusterRouter(fast_cfg()) as router:
            await router.wait_ready()
            outs = await asyncio.gather(
                *(router.submit(a, b) for a, b in pairs))
            for (a, b), out in zip(pairs, outs):
                assert out.sum_out == (a + b) & MASK
                assert out.cout == (a + b) >> WIDTH
            mj = router.metrics_json()
            per_worker = mj["per_worker"]
            assert len(per_worker) == 2
            served = [w["worker_ops_total"]["value"]
                      for w in per_worker.values()]
            # Round robin over concurrent scalars: both workers serve.
            assert all(s > 0 for s in served)
            assert sum(served) == len(pairs)

    run(main())


def test_empty_batch_and_operand_masking():
    async def main():
        async with ClusterRouter(fast_cfg(workers=1)) as router:
            await router.wait_ready()
            out = await router.submit_batch([])
            assert out.sums == []
            resp = await router.submit((1 << WIDTH) + 3, -1)
            assert resp.sum_out == (3 + MASK) & MASK

    run(main())


def test_backpressure_rejects_when_all_queues_full():
    cfg = fast_cfg(workers=1, worker_queue_ops=64, max_batch_ops=64,
                   wire_inflight=1, hang_timeout=30.0)

    async def main():
        async with ClusterRouter(cfg) as router:
            await router.wait_ready()
            # Wedge the worker so nothing drains while we overfill.
            router.supervisor.live[0].send((protocol.HANG, 0.6))
            await asyncio.sleep(0.1)
            first = asyncio.ensure_future(
                router.submit_batch(rand_pairs(64)))
            await asyncio.sleep(0)  # let it occupy the queue
            with pytest.raises(ServiceOverloadedError):
                await router.submit_batch(rand_pairs(8, seed=1))
            assert router.m_rejected.value == 1
            # Retry path recovers once the worker wakes up.
            out = await router.submit_batch(
                rand_pairs(8, seed=1), retries=8, retry_backoff=0.2)
            assert len(out.sums) == 8
            assert router.m_retries.value >= 1
            await first

    run(main())


def test_metrics_aggregation_and_conservation():
    pairs = rand_pairs(4000, seed=9)

    async def main():
        async with ClusterRouter(fast_cfg()) as router:
            await router.wait_ready()
            for lo in range(0, len(pairs), 500):
                await router.submit_batch(pairs[lo:lo + 500])
            mj = router.metrics_json()
            merged = {k: v for k, v in mj.items() if k != "per_worker"}
            # Merged view: router-side totals plus worker-side totals,
            # no name collisions (worker metrics are worker_* named).
            assert merged["ops_total"]["value"] == len(pairs)
            assert merged["worker_ops_total"]["value"] == len(pairs)
            assert merged["worker_stalls_total"]["value"] == (
                merged["stalls_total"]["value"])
            assert merged["workers_live"]["value"] == 2
            prom = router.metrics_prometheus()
            assert "vlsa_ops_total" in prom
            assert "vlsa_worker_ops_total" in prom
            # Per-worker breakdown sums to the cluster total.
            per = mj["per_worker"]
            assert sum(w["worker_ops_total"]["value"]
                       for w in per.values()) == len(pairs)
        # After stop the workers are retired, not forgotten.
        final = router.metrics_json()
        assert final["worker_ops_total"]["value"] == len(pairs)

    run(main())


def test_stop_sends_each_worker_one_shutdown(monkeypatch):
    """A second SHUTDOWN can reach a worker that has already sent BYE and
    closed its socket; the failed write drops the unread BYE, and the
    clean exit is counted as a worker failure."""
    sent = collections.Counter()
    send = WorkerHandle.send

    def spy(self, msg):
        if msg[0] == protocol.SHUTDOWN:
            sent[self.wid] += 1
        return send(self, msg)

    monkeypatch.setattr(WorkerHandle, "send", spy)

    async def main():
        async with ClusterRouter(fast_cfg()) as router:
            await router.wait_ready()
            await router.submit_batch(rand_pairs(100))
        return router

    router = run(main())
    assert sent == {0: 1, 1: 1}
    assert router.supervisor.m_failures.value == 0


def test_degraded_mode_serves_exact_sums():
    cfg = fast_cfg(workers=1, restart_backoff_base=60.0,
                   restart_backoff_max=60.0)
    pairs = rand_pairs(200, seed=3)

    async def main():
        async with ClusterRouter(cfg) as router:
            await router.wait_ready()
            handle = router.supervisor.live[0]
            handle.send((protocol.CRASH, 17))
            while router.supervisor.live:
                await asyncio.sleep(0.01)
            out = await router.submit_batch(pairs)
            for (a, b), s, c, f in zip(pairs, out.sums, out.couts,
                                       out.stalled):
                assert s == (a + b) & MASK
                assert c == (a + b) >> WIDTH
                assert f is False  # exact adder never stalls
            resp = await router.submit(MASK, 2)
            assert resp.sum_out == 1 and resp.cout == 1
            assert router.m_degraded.value == 2
            assert router.m_degraded_ops.value == len(pairs) + 1
            assert router.supervisor.m_failures.value == 1

    run(main())


def test_degraded_mode_error_fails_fast():
    cfg = fast_cfg(workers=1, degraded_mode="error",
                   restart_backoff_base=60.0, restart_backoff_max=60.0)

    async def main():
        async with ClusterRouter(cfg) as router:
            await router.wait_ready()
            router.supervisor.live[0].send((protocol.CRASH, 1))
            while router.supervisor.live:
                await asyncio.sleep(0.01)
            with pytest.raises(ClusterUnhealthyError):
                await router.submit(1, 2)
            assert router.m_failed.value == 1

    run(main())


def test_hash_policy_is_deterministic_affinity():
    cfg = ClusterConfig(width=WIDTH, window=WINDOW, workers=4,
                        worker_queue_ops=100)
    router = SimpleNamespace(cfg=cfg)
    live = [SimpleNamespace(load_ops=0) for _ in range(4)]
    policy = SHARD_POLICIES["hash"]
    picks = {id(policy(router, live, 1, (a, a + 1))) for a in range(50)}
    assert len(picks) > 1  # spreads over the pool
    for a in range(50):
        first = policy(router, live, 1, (a, a + 1))
        assert policy(router, live, 1, (a, a + 1)) is first
    # Affinity is strict: a full affine worker means rejection.
    target = policy(router, live, 1, (7, 8))
    target.load_ops = 100
    assert policy(router, live, 1, (7, 8)) is None


def test_large_batch_round_trip_and_wire_accounting():
    """A 4,000-op batch crosses as one frame each way, bit-identically,
    and the wire counters see its copy bytes."""
    pairs = rand_pairs(4000, seed=33)
    want = VlsaBatchExecutor(WIDTH, window=WINDOW).execute(pairs)

    async def main():
        async with ClusterRouter(fast_cfg(workers=1)) as router:
            await router.wait_ready()
            got = await router.submit_batch(pairs)
            assert got.sums == want.sums
            assert got.couts == want.couts
            assert got.stalled == want.stalled
            mj = router.metrics_json()
            # Copy-bytes accounting: 16 B/op out, 18 B/op + trailer in.
            assert mj["transport_tx_bytes_total"]["value"] == 16 * 4000
            assert mj["transport_rx_bytes_total"]["value"] == 18 * 4000 + 48
            assert mj["transport_tx_msgs_total"]["value"] >= 1
            assert router.describe()["backend"] == "cluster:1"

    run(main())


def test_config_validation():
    with pytest.raises(ValueError):
        ClusterConfig(workers=0)
    with pytest.raises(ValueError):
        ClusterConfig(shard_policy="random")
    with pytest.raises(ValueError):
        ClusterConfig(degraded_mode="panic")
    cfg = ClusterConfig(width=128)
    assert cfg.window <= 128


def test_submit_before_start_is_closed_error():
    from repro.service import ServiceClosedError

    async def main():
        router = ClusterRouter(fast_cfg())
        with pytest.raises(ServiceClosedError):
            await router.submit(1, 2)

    run(main())
