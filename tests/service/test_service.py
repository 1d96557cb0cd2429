"""VlsaService: serving, backpressure, timeouts, cancellation, accounting."""

import asyncio

import numpy as np
import pytest

from repro.arch import VlsaMachine
from repro.service import (
    RequestTimeoutError,
    ServiceClosedError,
    ServiceOverloadedError,
    VlsaService,
)


def run(coro):
    return asyncio.run(coro)


def test_submit_returns_correct_sum():
    async def main():
        async with VlsaService(width=64) as svc:
            resp = await svc.submit(123, 456)
            assert resp.sum_out == 579
            assert resp.cout == 0
            assert resp.latency_cycles == 1
            assert not resp.stalled
            return svc
    svc = run(main())
    assert svc.m_ops.value == 1
    assert svc.m_requests.value == 1


def test_adversarial_pair_stalls_and_costs_recovery():
    async def main():
        async with VlsaService(width=32, window=6,
                               recovery_cycles=2) as svc:
            resp = await svc.submit((1 << 31) - 1, 1)  # full carry chain
            assert resp.stalled
            assert resp.latency_cycles == 3
            assert resp.sum_out == 1 << 31
            assert svc.cycle == 3
    run(main())


def test_submit_batch_parallel_lists():
    async def main():
        async with VlsaService(width=16) as svc:
            reply = await svc.submit_batch([(1, 2), (0xFFFF, 1), (7, 8)])
            assert reply.sums == [3, 0, 15]
            assert reply.couts == [0, 1, 0]
            assert reply.size == 3
            assert reply.cycles == sum(reply.latencies)
            empty = await svc.submit_batch([])
            assert empty.size == 0
    run(main())


def test_service_matches_vlsa_machine_accounting(rng):
    """Cycle accounting through the service == the Fig. 6 machine."""
    width, window, recovery = 16, 3, 2
    pairs = [(rng.getrandbits(width), rng.getrandbits(width))
             for _ in range(300)]
    trace = VlsaMachine(width, window=window,
                        recovery_cycles=recovery).run(pairs)

    async def main():
        async with VlsaService(width=width, window=window,
                               recovery_cycles=recovery) as svc:
            reply = await svc.submit_batch(pairs)
            assert reply.latencies == [r.latency_cycles
                                       for r in trace.results]
            assert reply.sums == [r.sum_out for r in trace.results]
            assert svc.cycle == trace.total_cycles
            assert svc.mean_latency_cycles == pytest.approx(
                trace.average_latency_cycles)
    run(main())


def test_backpressure_bounded_queue_and_counted_rejections():
    """With capacity Q: depth never exceeds Q; overflow is rejected and
    counted in the registry — never silently dropped."""
    q = 4
    n = 10

    async def main():
        svc = VlsaService(width=64, queue_capacity=q)
        await svc.start()
        # Tasks admit in creation order before the batcher gets a turn,
        # so the queue deterministically overflows.
        tasks = [asyncio.get_running_loop().create_task(svc.submit(i, i))
                 for i in range(n)]
        await asyncio.sleep(0)
        assert svc.queue_depth <= q
        results = await asyncio.gather(*tasks, return_exceptions=True)
        await svc.stop()
        return svc, results

    svc, results = run(main())
    ok = [r for r in results if not isinstance(r, Exception)]
    rejected = [r for r in results if isinstance(r, ServiceOverloadedError)]
    assert len(ok) == q
    assert len(rejected) == n - q
    assert svc.m_rejected.value == n - q
    assert svc.m_ops.value == q
    assert svc.m_queue_depth.peak <= q
    # Accounting is complete: admitted + rejected == offered.
    assert svc.m_requests.value + svc.m_rejected.value == n


def test_retry_after_overload_eventually_succeeds():
    async def main():
        svc = VlsaService(width=64, queue_capacity=1)
        await svc.start()
        loop = asyncio.get_running_loop()
        blocker = loop.create_task(svc.submit(1, 1))
        overflow = loop.create_task(svc.submit(2, 2))
        await asyncio.sleep(0)
        # Queue is full; a retried submit succeeds once it drains.
        resp = await svc.submit(3, 4, retries=10, retry_backoff=0.001)
        assert resp.sum_out == 7
        results = await asyncio.gather(blocker, overflow,
                                       return_exceptions=True)
        assert results[0].sum_out == 2
        assert isinstance(results[1], ServiceOverloadedError)
        await svc.stop()
        return svc
    svc = run(main())
    assert svc.m_retries.value >= 1


def test_timeout_counted_and_not_double_answered():
    async def main():
        svc = VlsaService(width=64)
        await svc.start()
        # Swallow execution so responses never arrive.
        real_execute = svc._execute_batch
        svc._execute_batch = lambda batch: None
        with pytest.raises(RequestTimeoutError):
            await svc.submit(1, 2, timeout=0.02)
        svc._execute_batch = real_execute
        # Service still healthy afterwards.
        resp = await svc.submit(2, 3)
        assert resp.sum_out == 5
        await svc.stop()
        return svc
    svc = run(main())
    assert svc.m_timeouts.value == 1
    assert svc.m_ops.value == 1  # the timed-out op was never executed


def test_cancellation_counted_and_skipped():
    async def main():
        svc = VlsaService(width=64)
        await svc.start()
        real_execute = svc._execute_batch
        svc._execute_batch = lambda batch: None
        task = asyncio.get_running_loop().create_task(svc.submit(9, 9))
        await asyncio.sleep(0)
        task.cancel()
        with pytest.raises(asyncio.CancelledError):
            await task
        svc._execute_batch = real_execute
        resp = await svc.submit(4, 5)
        assert resp.sum_out == 9
        await svc.stop()
        return svc
    svc = run(main())
    assert svc.m_cancelled.value == 1
    assert svc.m_ops.value == 1


def test_malformed_operands_do_not_kill_the_batcher():
    """Regression: a huge or negative operand used to raise
    OverflowError inside the numpy batch and permanently wedge the
    micro-batcher.  Operands are masked; the service keeps serving."""
    async def main():
        async with VlsaService(width=64) as svc:
            mask = (1 << 64) - 1
            resp = await svc.submit(1 << 300, -1, timeout=1.0)
            assert resp.sum_out == ((1 << 300) + (-1 & mask)) & mask
            # The batcher survived: a normal request still completes.
            resp = await svc.submit(2, 3, timeout=1.0)
            assert resp.sum_out == 5
            return svc
    svc = run(main())
    assert svc.m_ops.value == 2
    assert svc.m_batch_failures.value == 0


MISSHAPEN = {
    "flat-list": [1, 2, 3],
    "ragged": [(1, 2), (3,)],
    "1-D-array": np.arange(3, dtype=np.uint64),
    "n-by-3-array": np.ones((2, 3), dtype=np.uint64),
}


# The ids name the lane type the width puts the batch in: uint64 numpy
# lanes, or Python big-int lanes.
@pytest.mark.parametrize("width", [64, 128], ids=["numpy", "bigint"])
@pytest.mark.parametrize("bad", MISSHAPEN.values(), ids=list(MISSHAPEN))
def test_misshapen_batch_rejected_at_admission(width, bad):
    """Regression: a misshapen batch used to be admitted, then raise
    inside the coalesced micro-batch and fail every request from other
    callers batched with it."""
    async def main():
        async with VlsaService(width=width) as svc:
            good = [(1, 2), (3, 4)]
            results = await asyncio.gather(
                svc.submit_batch(good, timeout=1.0),
                svc.submit_batch(bad, timeout=1.0),
                svc.submit_batch(good, timeout=1.0),
                return_exceptions=True)
            return svc, results
    svc, (first, rejected, last) = run(main())
    assert isinstance(rejected, ValueError)
    assert str(rejected) == "expected (n, 2) operand pairs"
    assert first.sums == last.sums == [3, 7]
    assert svc.m_batch_failures.value == 0
    assert svc.m_requests.value == 2


def test_batch_columns_stay_arrays_until_read():
    """An (n, 2) uint64 array is admitted as is and the response's
    columns are arrays; the list attributes read back the same values."""
    pairs = np.array([[1, 2], [(1 << 64) - 1, 1], [5, (1 << 64) - 6]],
                     dtype=np.uint64)

    async def main():
        async with VlsaService(width=64, window=4,
                               recovery_cycles=2) as svc:
            return await svc.submit_batch(pairs, timeout=1.0)
    fast = run(main())
    assert isinstance(fast.column("sums"), np.ndarray)
    assert fast.sums == [3, 0, (1 << 64) - 1]
    assert fast.couts == [0, 1, 0]
    assert fast.stalled == [False, True, True]
    assert fast.latencies == [1, 3, 3]
    assert (fast.cycles, fast.stall_count) == (7, 2)


def test_scalars_and_array_batches_share_a_micro_batch():
    """Scalars coalesced with array batches get the right answers and
    accounting, including operands at or above 2**63 (which numpy would
    turn into floats if joined as plain ints)."""
    top = (1 << 64) - 1
    array = np.array([[top, 1], [1 << 63, 1 << 63], [5, top ^ 5]],
                     dtype=np.uint64)

    async def main():
        async with VlsaService(width=64, window=4,
                               recovery_cycles=2) as svc:
            results = await asyncio.gather(
                svc.submit(top, top), svc.submit_batch(array),
                svc.submit(1 << 63, 1), svc.submit_batch(array),
                svc.submit(2, 3))
            return svc, results
    fast_svc, fast = run(main())
    assert fast_svc.m_batches.value == 1
    first, batch, mid, _, last = fast
    assert (first.sum_out, first.cout) == (top - 1, 1)
    assert type(first.sum_out) is int and type(first.stalled) is bool
    assert batch.sums == [0, 0, top]
    assert (mid.sum_out, last.sum_out) == ((1 << 63) + 1, 5)
    accepts = [r.accept_cycle for r in fast]
    assert accepts == sorted(accepts)
    assert fast_svc._cycle == sum(r.cycles if hasattr(r, "cycles")
                                  else r.latency_cycles for r in fast)


def test_executor_exception_fails_batch_but_not_service():
    """An executor crash fails that batch's futures with the error and
    the batch loop keeps running — later requests still succeed."""
    async def main():
        svc = VlsaService(width=64)
        await svc.start()
        real_execute = svc.executor.execute
        svc.executor.execute = lambda pairs: (_ for _ in ()).throw(
            RuntimeError("boom"))
        with pytest.raises(RuntimeError, match="boom"):
            await svc.submit(1, 2, timeout=1.0)
        svc.executor.execute = real_execute
        resp = await svc.submit(2, 3, timeout=1.0)
        assert resp.sum_out == 5
        await svc.stop()
        return svc
    svc = run(main())
    assert svc.m_batch_failures.value == 1
    assert svc.m_ops.value == 1


def test_stop_does_not_hang_when_batcher_already_dead():
    """stop() must not block on a full queue whose consumer is gone."""
    async def main():
        svc = VlsaService(width=64, queue_capacity=2)
        await svc.start()
        svc._batcher.cancel()
        await asyncio.sleep(0)
        # Fill the queue so the old `await queue.put(_SHUTDOWN)` would
        # have blocked forever with no consumer.
        loop = asyncio.get_running_loop()
        tasks = [loop.create_task(svc.submit(i, i)) for i in range(2)]
        await asyncio.sleep(0)
        await asyncio.wait_for(svc.stop(), timeout=1.0)
        results = await asyncio.gather(*tasks, return_exceptions=True)
        assert all(isinstance(r, ServiceClosedError) for r in results)
    run(main())


def test_submit_without_start_raises():
    async def main():
        svc = VlsaService(width=64)
        with pytest.raises(ServiceClosedError):
            await svc.submit(1, 2)
    run(main())


def test_stop_is_idempotent_and_drains():
    async def main():
        svc = VlsaService(width=64)
        await svc.start()
        task = asyncio.get_running_loop().create_task(svc.submit(1, 2))
        await asyncio.sleep(0)
        await svc.stop()
        await svc.stop()  # second stop is a no-op
        resp = await task  # admitted before stop -> still answered
        assert resp.sum_out == 3
    run(main())


def test_micro_batcher_coalesces_pending_requests():
    async def main():
        svc = VlsaService(width=64, queue_capacity=64)
        await svc.start()
        loop = asyncio.get_running_loop()
        tasks = [loop.create_task(svc.submit(i, 1)) for i in range(16)]
        results = await asyncio.gather(*tasks)
        await svc.stop()
        assert [r.sum_out for r in results] == [i + 1 for i in range(16)]
        return svc
    svc = run(main())
    # All 16 admitted before the batcher ran -> one coalesced batch.
    assert svc.m_batches.value == 1
    assert svc.h_batch.max == 16


def test_max_batch_ops_caps_coalescing():
    async def main():
        svc = VlsaService(width=64, queue_capacity=64, max_batch_ops=4)
        await svc.start()
        loop = asyncio.get_running_loop()
        tasks = [loop.create_task(svc.submit(i, 1)) for i in range(10)]
        await asyncio.gather(*tasks)
        await svc.stop()
        return svc
    svc = run(main())
    assert svc.h_batch.max <= 4
    assert svc.m_ops.value == 10


def test_accept_cycles_monotone_in_admission_order():
    async def main():
        async with VlsaService(width=64) as svc:
            loop = asyncio.get_running_loop()
            tasks = [loop.create_task(svc.submit(i, i)) for i in range(8)]
            results = await asyncio.gather(*tasks)
            cycles = [r.accept_cycle for r in results]
            assert cycles == sorted(cycles)
            assert len(set(cycles)) == len(cycles)
    run(main())


def test_metrics_and_trace_flow_through_run_context():
    from repro.engine import RunContext

    ctx = RunContext(seed=0, label="svc-test")

    async def main():
        async with VlsaService(width=64, ctx=ctx) as svc:
            await svc.submit(1, 2)
    run(main())
    assert ctx.counters["service_ops"] == 1
    kinds = [e["kind"] for e in ctx.events]
    assert "service_start" in kinds
    assert "batch_executed" in kinds
    assert "service_stop" in kinds
    manifest = ctx.as_manifest()
    assert manifest["events"] == ctx.events


def test_analytic_model_properties():
    svc = VlsaService(width=64)
    p = svc.analytic_stall_probability
    assert 0 < p < 1e-3
    assert svc.analytic_latency_cycles == pytest.approx(1 + p)


def test_prometheus_snapshot_after_traffic():
    async def main():
        async with VlsaService(width=64) as svc:
            await svc.submit_batch([(i, i) for i in range(32)])
            return svc.metrics_prometheus()
    text = run(main())
    assert "vlsa_ops_total 32" in text
    assert "vlsa_batches_total 1" in text
