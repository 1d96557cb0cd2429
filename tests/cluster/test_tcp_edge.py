"""The TCP edge: the JSON-lines batch verb, the self-hosted loadgen
``tcp`` target over both transports, and the external-connect mode."""

import asyncio
import json

import numpy as np
import pytest

from repro.cluster import ClusterConfig, ClusterRouter
from repro.engine import RunContext
from repro.service import VlsaServer, VlsaService, run_loadgen
from repro.service.executor import VlsaBatchExecutor
from repro.service.server import LINE_LIMIT, install_uvloop, parse_pairs_line

WIDTH, WINDOW = 32, 8
MASK = (1 << WIDTH) - 1


async def _rpc(reader, writer, obj):
    writer.write(json.dumps(obj).encode() + b"\n")
    await writer.drain()
    return json.loads(await reader.readline())


def test_batch_verb_bit_identical_to_executor():
    pairs = [(i * 2654435761 & MASK, (i * 40503) & MASK)
             for i in range(500)]
    want = VlsaBatchExecutor(WIDTH, window=WINDOW).execute(pairs)

    async def main():
        service = VlsaService(width=WIDTH, window=WINDOW)
        async with VlsaServer(service, port=0) as server:
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            reply = await _rpc(reader, writer,
                               {"id": 9, "pairs": [list(p) for p in pairs]})
            assert reply["id"] == 9
            assert reply["sums"] == want.sums
            assert reply["couts"] == want.couts
            assert reply["stalled"] == want.stalled
            assert reply["latencies"] == want.latencies
            # Scalar verb still answers on the same connection.
            scalar = await _rpc(reader, writer, {"a": MASK, "b": 1})
            assert scalar["sum"] == 0 and scalar["cout"] == 1
            writer.close()

    asyncio.run(main())


def test_batch_verb_rejects_malformed_pairs():
    async def main():
        service = VlsaService(width=WIDTH, window=WINDOW)
        async with VlsaServer(service, port=0) as server:
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            for bad in ([["x", 1]], [[1]], "nope", [[1, 2, 3]]):
                reply = await _rpc(reader, writer, {"pairs": bad})
                assert reply["code"] == "bad_request"
            writer.close()

    asyncio.run(main())


def test_oversized_line_gets_typed_reply_and_server_keeps_serving():
    """A request line over the edge's ``LINE_LIMIT`` is answered with
    ``too_large`` and counted; its connection closes, the server does
    not, and the next connection is answered."""
    big = (1 << 64) - 1
    line = json.dumps({"pairs": [[big, big - i] for i in range(1500)]})
    assert len(line) > LINE_LIMIT

    async def main():
        service = VlsaService(width=WIDTH, window=WINDOW)
        async with VlsaServer(service, port=0) as server:
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(line.encode() + b"\n")
            await writer.drain()
            reply = json.loads(await reader.readline())
            assert reply["code"] == "too_large"
            assert await reader.read() == b""  # server hung up
            writer.close()

            reader, writer = await asyncio.open_connection(host, port)
            fresh = await _rpc(reader, writer, {"id": 3, "a": 5, "b": 7})
            assert fresh["id"] == 3 and fresh["sum"] == 12
            writer.close()
            counter = service.registry.get("oversized_lines_total")
            assert counter is not None and counter.value == 1

    asyncio.run(main())


def test_largest_bulk_request_fits_and_takes_the_hot_path():
    """A 1024-pair request of uniform 64-bit operands (~46 KB) is under
    ``LINE_LIMIT``, parses on the hot path, and is answered exactly."""
    ops = np.random.default_rng(5).integers(
        0, (1 << 64) - 1, size=(1024, 2), dtype=np.uint64)
    line = json.dumps({"id": 4, "pairs": ops.tolist()}).encode() + b"\n"
    assert 40_000 < len(line) < LINE_LIMIT
    req_id, parsed = parse_pairs_line(line)
    assert req_id == 4 and np.array_equal(parsed, ops)
    want = VlsaBatchExecutor(64).execute(ops.tolist())

    async def main():
        async with VlsaServer(VlsaService(width=64), port=0) as server:
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(line)
            await writer.drain()
            reply = json.loads(await reader.readline())
            writer.close()
            return reply

    reply = asyncio.run(main())
    assert reply["id"] == 4
    assert reply["sums"] == want.sums
    assert reply["couts"] == want.couts
    assert reply["stalled"] == want.stalled
    assert reply["latencies"] == want.latencies


def test_batch_verb_over_cluster_front():
    """The server accepts a ClusterRouter as its service: the batch
    verb drives the full wire path, shm transport underneath."""
    pairs = [(i, MASK - i) for i in range(300)]
    want = VlsaBatchExecutor(WIDTH, window=WINDOW).execute(pairs)

    async def main():
        router = ClusterRouter(ClusterConfig(
            width=WIDTH, window=WINDOW, workers=1, transport="shm",
            heartbeat_interval=0.1))
        async with VlsaServer(router, port=0) as server:
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            reply = await _rpc(reader, writer,
                               {"pairs": [list(p) for p in pairs]})
            assert reply["sums"] == want.sums
            assert reply["couts"] == want.couts
            info = await _rpc(reader, writer, {"cmd": "info"})
            assert info["transport"] == "shm"
            assert info["backend"].startswith("cluster:1x")
            writer.close()

    asyncio.run(main())


@pytest.mark.parametrize("transport", ["pipe", "shm"])
def test_loadgen_tcp_target_self_hosted(transport):
    report = run_loadgen(
        "uniform", ops=3000, target="tcp", workers=2,
        transport=transport, width=WIDTH, window=WINDOW,
        chunk=256, concurrency=4, ctx=RunContext(seed=11))
    assert report.ops == 3000
    assert report.params["target"] == "tcp"
    assert report.params["edge"] == "self-hosted"
    assert report.params["transport"] == transport
    assert report.backend.startswith("cluster:2x")
    assert report.rejected == 0 and report.timeouts == 0
    assert report.params["worker_failures"] == 0
    assert report.params["transport_tx_bytes"] > 0
    assert report.params["transport_rx_bytes"] > 0
    if transport == "shm":
        assert report.params["transport_pipe_fallbacks"] == 0


def test_loadgen_external_connect_mode():
    """Client-only loadgen against an already-listening server."""

    async def main():
        router = ClusterRouter(ClusterConfig(
            width=WIDTH, window=WINDOW, workers=1, transport="shm",
            heartbeat_interval=0.1))
        async with VlsaServer(router, port=0) as server:
            host, port = server.address
            report = await asyncio.to_thread(
                run_loadgen, "uniform", ops=2000, target="tcp",
                connect=(host, port), width=WIDTH, window=WINDOW,
                chunk=256, concurrency=2, ctx=RunContext(seed=7))
            assert report.ops == 2000
            assert report.params["edge"] == "external"
            assert report.params["connect"] == f"{host}:{port}"
            assert report.params["server_info"]["transport"] == "shm"
            assert report.backend.startswith("cluster:1x")
            assert report.rejected == 0 and report.timeouts == 0

    asyncio.run(main())


def test_loadgen_external_connect_forecasts_the_served_family():
    """The analytic stall rate follows the family the server reports in
    its ``info`` reply, not the ACA's."""
    from repro.analysis import pg_probabilities
    from repro.families import get_family

    fam = get_family("blockspec")
    params = fam.resolve_params(WIDTH, window=4)

    async def main():
        service = VlsaService(width=WIDTH, window=4, family="blockspec")
        async with VlsaServer(service, port=0) as server:
            host, port = server.address
            uniform = await asyncio.to_thread(
                run_loadgen, "uniform", ops=8192, target="tcp",
                connect=(host, port), chunk=512, concurrency=2,
                ctx=RunContext(seed=3))
            biased = await asyncio.to_thread(
                run_loadgen, "biased", ops=2048, target="tcp",
                connect=(host, port), alpha=0.75, chunk=512,
                concurrency=2, ctx=RunContext(seed=4))
        return uniform, biased

    uniform, biased = asyncio.run(main())
    assert uniform.params["server_info"]["family"] == "blockspec"
    exact = fam.error_model(WIDTH, **params).flag_rate
    assert uniform.analytic_stall_rate == pytest.approx(exact, rel=1e-12)
    assert uniform.stall_rate == pytest.approx(exact, abs=0.02)
    p, g, _ = pg_probabilities(biased.params["alpha"],
                               biased.params["alpha"])
    assert biased.analytic_stall_rate == pytest.approx(
        fam.flag_probability(WIDTH, p, g, **params), rel=1e-12)
    assert biased.analytic_latency_cycles == pytest.approx(
        1.0 + biased.analytic_stall_rate)


def test_connect_requires_tcp_target():
    with pytest.raises(ValueError):
        run_loadgen("uniform", ops=10, target="cluster",
                    connect=("127.0.0.1", 1))


def test_install_uvloop_is_safe_without_uvloop():
    # True only when uvloop is importable; either way it must not raise.
    assert install_uvloop() in (True, False)
    asyncio.set_event_loop_policy(None)  # restore the default policy
