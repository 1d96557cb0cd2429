"""TCP front-end: JSON-lines protocol, errors, metrics commands."""

import asyncio
import json

from repro.service import ServiceError, VlsaServer, VlsaService


async def _roundtrip(server, messages):
    host, port = server.address
    reader, writer = await asyncio.open_connection(host, port)
    replies = []
    try:
        for msg in messages:
            raw = (msg if isinstance(msg, (bytes, bytearray))
                   else json.dumps(msg).encode())
            writer.write(raw + b"\n")
            await writer.drain()
            replies.append(json.loads(await reader.readline()))
    finally:
        writer.close()
        await writer.wait_closed()
    return replies


def test_add_roundtrip_and_id_echo():
    async def main():
        async with VlsaServer(VlsaService(width=64), port=0) as server:
            return await _roundtrip(server, [
                {"id": 7, "a": 123, "b": 456},
                {"id": 8, "a": (1 << 64) - 1, "b": 1},
            ])
    first, second = asyncio.run(main())
    assert first == {"id": 7, "sum": 579, "cout": 0, "stalled": False,
                     "latency_cycles": 1, "accept_cycle": 0}
    assert second["sum"] == 0
    assert second["cout"] == 1


def test_info_metrics_and_prometheus_commands():
    async def main():
        async with VlsaServer(VlsaService(width=32, window=8),
                              port=0) as server:
            return await _roundtrip(server, [
                {"a": 1, "b": 2},
                {"cmd": "info"},
                {"cmd": "metrics"},
                {"cmd": "prometheus"},
            ])
    _, info, metrics, prom = asyncio.run(main())
    assert info["width"] == 32
    assert info["window"] == 8
    assert info["backend"] == "local"
    assert metrics["metrics"]["ops_total"]["value"] == 1
    assert metrics["metrics"]["connections_total"]["value"] == 1
    assert "vlsa_ops_total 1" in prom["prometheus"]


def test_bad_requests_get_error_codes():
    async def main():
        async with VlsaServer(VlsaService(width=64), port=0) as server:
            return await _roundtrip(server, [
                b"this is not json",
                {"cmd": "frobnicate"},
                {"a": 1},
                {"a": "x", "b": 2},
                # json.loads accepts these; int() of an infinity raises
                # OverflowError, which used to drop the connection.
                b'{"id": 1, "a": Infinity, "b": 1}',
                b'{"id": 2, "pairs": [[Infinity, 1]]}',
                b'{"id": 3, "pairs": [[1, -Infinity]]}',
                b'{"id": 4, "a": NaN, "b": 1}',
                b'{"id": 5, "pairs": [[NaN, 1]]}',
            ])
    replies = asyncio.run(main())
    assert [r["code"] for r in replies] == ["bad_request"] * 9
    assert all("error" in r for r in replies)


def test_out_of_range_operands_answered_and_service_survives():
    """Regression: one request with a >= 2^64 or negative operand used
    to kill the micro-batcher, hanging every later request."""
    async def main():
        async with VlsaServer(VlsaService(width=64), port=0) as server:
            return await _roundtrip(server, [
                {"id": 1, "a": 1 << 300, "b": -1},
                {"id": 2, "a": 2, "b": 3},
            ])
    first, second = asyncio.run(main())
    mask = (1 << 64) - 1
    assert first["sum"] == mask  # (0 + 0xFFFF...F) mod 2^64
    assert second["sum"] == 5
    assert second["accept_cycle"] == (first["accept_cycle"]
                                      + first["latency_cycles"])


def test_overload_surfaces_as_error_code():
    async def main():
        service = VlsaService(width=64, queue_capacity=1)
        async with VlsaServer(service, port=0) as server:
            host, port = server.address
            # Gate the batcher's next queue.get so the queue stays full
            # deterministically after the first round trip completes.
            gate = asyncio.Event()
            real_get = service._queue.get

            async def gated_get():
                await gate.wait()
                return await real_get()

            service._queue.get = gated_get
            first = (await _roundtrip(server, [{"a": 1, "b": 1}]))[0]
            assert first["sum"] == 2  # batcher is now parked on the gate
            # Second request occupies the single queue slot...
            r2_reader, r2_writer = await asyncio.open_connection(host, port)
            r2_writer.write(b'{"a": 2, "b": 2}\n')
            await r2_writer.drain()
            await asyncio.sleep(0.05)
            # ...so a third is rejected over the wire.
            reply = (await _roundtrip(server, [{"a": 3, "b": 3}]))[0]
            gate.set()  # release the batcher; request 2 completes
            second = json.loads(await r2_reader.readline())
            r2_writer.close()
            await r2_writer.wait_closed()
            return reply, second, service
    reply, second, service = asyncio.run(main())
    assert reply["code"] == "overloaded"
    assert second["sum"] == 4
    assert service.m_rejected.value == 1


def test_multiple_connections_share_the_service():
    async def main():
        async with VlsaServer(VlsaService(width=64), port=0) as server:
            a = _roundtrip(server, [{"a": 1, "b": 2}])
            b = _roundtrip(server, [{"a": 3, "b": 4}])
            replies = await asyncio.gather(a, b)
            metrics = (await _roundtrip(
                server, [{"cmd": "metrics"}]))[0]["metrics"]
            return replies, metrics
    (ra, rb), metrics = asyncio.run(main())
    assert ra[0]["sum"] == 3
    assert rb[0]["sum"] == 7
    assert metrics["ops_total"]["value"] == 2
    assert metrics["connections_total"]["value"] == 3


class _UnavailableService(VlsaService):
    """Every submission fails the way a request that exhausted its
    cluster redirects does: with a plain :class:`ServiceError`."""

    async def submit(self, a, b, **kwargs):
        raise ServiceError("request redirected 3 times without an answer")

    async def submit_batch(self, pairs, **kwargs):
        raise ServiceError("request redirected 3 times without an answer")


def test_plain_service_error_is_unavailable_and_connection_stays():
    async def main():
        async with VlsaServer(_UnavailableService(width=64),
                              port=0) as server:
            return await _roundtrip(server, [
                {"id": 1, "a": 1, "b": 2},
                {"id": 2, "pairs": [[1, 2]]},
                b'{"id": 3, "pairs": [[1, 2]], "x": 0}',
                {"cmd": "info"},
            ])
    replies = asyncio.run(main())
    assert [r.get("code") for r in replies[:3]] == ["unavailable"] * 3
    assert [r["id"] for r in replies[:3]] == [1, 2, 3]
    assert "redirected" in replies[0]["error"]
    assert replies[3]["width"] == 64


def test_raising_executor_is_internal_and_connection_stays():
    async def main():
        service = VlsaService(width=64)

        def broken(pairs):
            raise RuntimeError("kernel fault")

        service.executor.execute = broken
        async with VlsaServer(service, port=0) as server:
            replies = await _roundtrip(server, [
                {"id": 1, "a": 1, "b": 2},
                {"id": 2, "pairs": [[1, 2], [3, 4]]},
                {"cmd": "info"},
            ])
        return replies, service
    replies, service = asyncio.run(main())
    assert [r.get("code") for r in replies[:2]] == ["internal"] * 2
    assert "kernel fault" in replies[0]["error"]
    assert replies[2]["backend"] == "local"
    assert service.m_batch_failures.value == 2
