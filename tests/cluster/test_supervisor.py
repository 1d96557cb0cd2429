"""Supervision: crash/hang detection, backoff restarts, failover, and
the chaos drill — SIGKILL a random worker mid-load, lose nothing."""

import asyncio
import os
import random
import re
import signal

import pytest

from repro.cluster import ClusterConfig, ClusterRouter
from repro.cluster import protocol
from repro.service import RequestTimeoutError

WIDTH, WINDOW = 32, 8
MASK = (1 << WIDTH) - 1


def fast_cfg(**kw):
    kw.setdefault("width", WIDTH)
    kw.setdefault("window", WINDOW)
    kw.setdefault("workers", 2)
    kw.setdefault("heartbeat_interval", 0.05)
    kw.setdefault("restart_backoff_base", 0.05)
    kw.setdefault("restart_backoff_max", 0.2)
    return ClusterConfig(**kw)


def rand_pairs(n, seed=0):
    rng = random.Random(seed)
    return [(rng.getrandbits(WIDTH), rng.getrandbits(WIDTH))
            for _ in range(n)]


async def _wait_for(predicate, timeout=30.0, what="condition"):
    deadline = asyncio.get_running_loop().time() + timeout
    while asyncio.get_running_loop().time() < deadline:
        if predicate():
            return
        await asyncio.sleep(0.01)
    raise TimeoutError(f"timed out waiting for {what}")


async def _wait_live(router, n, timeout=30.0):
    await _wait_for(lambda: len(router.supervisor.live) >= n, timeout,
                    f"{n} live workers")


@pytest.mark.parametrize("transport", ["pipe", "shm"])
def test_crash_is_detected_and_slot_restarts(transport):
    async def main():
        async with ClusterRouter(fast_cfg(transport=transport)) as router:
            await router.wait_ready()
            victim = router.supervisor.live[0]
            victim.send((protocol.CRASH, 23))
            sup = router.supervisor
            await _wait_for(lambda: sup.m_failures.value >= 1,
                            what="crash detection")
            await _wait_live(router, 2)
            assert sup.m_failures.value == 1
            assert sup.m_restarts.value == 1
            # The slot respawned with a fresh worker id.
            wids = [h.wid for h in sup.live]
            assert victim.wid not in wids
            kinds = [e.kind for e in router.tracer.events]
            assert "worker_dead" in kinds
            assert "worker_restart_scheduled" in kinds
            # The reborn pool still serves.
            out = await router.submit_batch(rand_pairs(100))
            assert len(out.sums) == 100
            if transport == "shm":
                # Dead worker's segment pair destroyed, new pair
                # created: exactly two per live worker, no leaks.
                assert len(_shm_segments()) == 2 * len(
                    router.supervisor.live)

    asyncio.run(main())
    if transport == "shm":
        assert _shm_segments() == []


def test_restart_backoff_doubles_per_consecutive_failure():
    async def main():
        async with ClusterRouter(fast_cfg(workers=1)) as router:
            await router.wait_ready()
            sup = router.supervisor
            for k in range(1, 4):
                sup.live[0].send((protocol.CRASH, 5))
                await _wait_for(lambda k=k: sup.m_failures.value >= k,
                                what=f"failure {k}")
                await _wait_live(router, 1)
            scheduled = router.tracer.of_kind("worker_restart_scheduled")
            backoffs = [e.fields["backoff"] for e in scheduled]
            assert backoffs[0] < backoffs[1] < backoffs[2]
            assert backoffs[1] == backoffs[0] * 2

    asyncio.run(main())


def test_hang_detection_kills_and_fails_over():
    cfg = fast_cfg(workers=1, hang_timeout=0.3,
                   restart_backoff_base=60.0, restart_backoff_max=60.0)
    pairs = rand_pairs(50, seed=2)

    async def main():
        async with ClusterRouter(cfg) as router:
            await router.wait_ready()
            router.supervisor.live[0].send((protocol.HANG, 30.0))
            await asyncio.sleep(0.05)
            # This batch lands on the wedged worker; the monitor must
            # declare it hung, kill it, and fail the batch over to the
            # degraded exact path (no other worker, restart far away).
            out = await asyncio.wait_for(router.submit_batch(pairs), 30.0)
            for (a, b), s in zip(pairs, out.sums):
                assert s == (a + b) & MASK
            assert router.tracer.of_kind("worker_hung")
            assert router.supervisor.m_failures.value == 1
            assert router.m_degraded.value == 1

    asyncio.run(main())


@pytest.mark.parametrize("transport", ["pipe", "shm"])
def test_timeout_names_its_wire_batch_worker_and_silence(transport):
    """A request stuck on a hung worker times out with a message that
    says where it waited, and leaves no pending future behind."""
    cfg = fast_cfg(workers=1, transport=transport, hang_timeout=1.0,
                   restart_backoff_base=60.0, restart_backoff_max=60.0)

    async def main():
        router = ClusterRouter(cfg)
        await router.start()
        await router.wait_ready()
        handle = router.supervisor.live[0]
        handle.send((protocol.HANG, 5.0))
        await asyncio.sleep(0.1)
        with pytest.raises(RequestTimeoutError) as err:
            await router.submit_batch(rand_pairs(10), timeout=0.3)
        (wire_id, batch), = handle.wire.items()
        text = str(err.value)
        assert f"request {batch.pendings[0].id}:" in text
        assert f"wire batch {wire_id} on worker wid {handle.wid}" in text
        assert f"transport {transport}" in text
        age = float(re.search(r"([0-9.]+)s since enqueue", text)[1])
        assert 0.3 <= age < 5.0
        heard = float(re.search(r"last heard ([0-9.]+)s ago", text)[1])
        assert 0.1 < heard < 5.0  # silent since it took the HANG
        assert all(p.future.done() for p in batch.pendings)
        assert router.m_inflight.value == 0
        assert router.m_timeouts.value == 1
        await router.stop(drain_timeout=0.1)

    asyncio.run(main())


def _shm_segments():
    try:
        return [n for n in os.listdir("/dev/shm")
                if n.startswith("vlsa_ring")]
    except FileNotFoundError:
        from repro.cluster.transport import segment_tracker
        return segment_tracker.live_names()


@pytest.mark.slow
@pytest.mark.parametrize("transport", ["pipe", "shm"])
def test_chaos_sigkill_mid_load_zero_lost_zero_duplicated(
        transport, capfd):
    """The issue's chaos drill: SIGKILL a random worker under load.

    Every submitted request must resolve exactly once with exact sums,
    ``worker_restarts_total`` must record the recovery, and the metrics
    conservation identity must hold:
    worker-delivered ops + degraded ops >= router-delivered ops.

    Over shm the kill lands while batches are in flight through the
    rings — publish-after-write means a mid-slot-write death is simply
    an unpublished slot — and teardown must leave zero ``/dev/shm``
    segments and zero resource_tracker warnings behind.
    """
    cfg = fast_cfg(redirect_limit=5, max_batch_ops=512,
                   transport=transport)
    rng = random.Random(0xC0FFEE)
    batches = [rand_pairs(200, seed=i) for i in range(60)]

    async def main():
        async with ClusterRouter(cfg) as router:
            await router.wait_ready()
            tasks = [asyncio.ensure_future(router.submit_batch(b))
                     for b in batches[:40]]
            # Kill a worker that provably has requests in flight; fall
            # back to a random one if the pool already drained.
            victim = None
            for _ in range(100):
                await asyncio.sleep(0)
                busy = [h for h in router.supervisor.live if h.wire]
                if busy:
                    victim = rng.choice(busy)
                    break
            if victim is None:
                victim = rng.choice(router.supervisor.live)
            os.kill(victim.proc.pid, signal.SIGKILL)
            # Keep traffic flowing through detection and recovery.
            tasks += [asyncio.ensure_future(router.submit_batch(b))
                      for b in batches[40:]]
            results = await asyncio.wait_for(asyncio.gather(*tasks), 60.0)

            # Zero lost, zero duplicated: every batch answered once,
            # in order, with exact sums.
            assert len(results) == len(batches)
            for pairs, out in zip(batches, results):
                assert len(out.sums) == len(pairs)
                for (a, b), s, c in zip(pairs, out.sums, out.couts):
                    assert s == (a + b) & MASK
                    assert c == (a + b) >> WIDTH

            total_ops = sum(len(b) for b in batches)
            assert router.m_ops.value == total_ops
            sup = router.supervisor
            await _wait_for(lambda: sup.m_failures.value >= 1,
                            what="SIGKILL detection")
            await _wait_live(router, 2)
            assert sup.m_restarts.value >= 1

            # Conservation: everything the router delivered was either
            # computed by a worker or served by the degraded path.
            mj = router.metrics_json()
            worker_ops = mj["worker_ops_total"]["value"]
            degraded_ops = mj["degraded_ops_total"]["value"]
            assert worker_ops + degraded_ops >= total_ops
            if transport == "shm":
                # A SIGKILLed worker's segments were destroyed on
                # retirement; only the live pool's remain.
                assert len(_shm_segments()) == 2 * len(
                    router.supervisor.live)

    asyncio.run(main())
    if transport == "shm":
        # Deterministic cleanup: router stop destroyed every segment,
        # and the untracked worker attach kept resource_tracker quiet.
        assert _shm_segments() == []
        err = capfd.readouterr().err
        assert "resource_tracker" not in err
        assert "leaked shared_memory" not in err


def test_graceful_stop_is_not_a_failure():
    async def main():
        router = ClusterRouter(fast_cfg())
        await router.start()
        await router.wait_ready()
        await router.submit_batch(rand_pairs(100))
        await router.stop()
        assert router.supervisor.m_failures.value == 0
        assert router.supervisor.m_restarts.value == 0
        assert router.supervisor.g_live.value == 0
        # Final worker metrics were retired before the processes died.
        assert router.metrics_json()["worker_ops_total"]["value"] == 100

    asyncio.run(main())
