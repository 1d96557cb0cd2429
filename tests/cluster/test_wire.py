"""The loop-native wire: frame parsing, EOF ordering, the worker's
frame I/O, and a router that runs no transport thread.

Frames are a ``FRAME_HEADER`` plus the payload it sizes.  The parser
tests feed :class:`FrameProtocol` by hand; the channel tests drive a
real router channel on a real event loop with the worker's end played
by the test.
"""

import asyncio
import socket
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig, ClusterRouter, protocol
from repro.cluster.transport import (
    FRAME_HEADER,
    ChannelClosed,
    FrameProtocol,
    PipeRouterChannel,
    WireCounters,
    WorkerChannel,
    decode_frame,
    encode_frame,
)
from repro.service.metrics import MetricsRegistry

U64 = st.integers(0, (1 << 64) - 1)


def _batch(pairs, msg_id=1):
    arr = np.asarray(pairs, dtype=np.uint64).reshape(len(pairs), 2)
    return protocol.batch_msg(msg_id, arr)


def _result(n, msg_id=2):
    sums = np.arange(n, dtype=np.uint64) * np.uint64(3)
    return protocol.result_msg(msg_id, {
        "sums": sums, "couts": sums & np.uint64(1),
        "stalled": sums % np.uint64(2) == 0,
        "spec_errors": np.zeros(n, bool), "cycles": n + 1,
        "start_cycle": 5,
        "counters": protocol.light_counters(n, 1, 1, n + 1)})


def _same(got, want):
    """Messages equal field by field (arrays compared by value)."""
    assert got[0] == want[0] and len(got) == len(want)
    for g, w in zip(got[1:], want[1:]):
        if isinstance(w, dict):
            assert g.keys() == w.keys()
            for key in w:
                _same((key, g[key]), (key, w[key]))
        elif isinstance(w, np.ndarray):
            assert g.dtype == w.dtype and np.array_equal(g, w)
        else:
            assert g == w


_MESSAGES = st.one_of(
    st.lists(st.tuples(U64, U64), max_size=20).map(_batch),
    st.integers(0, 20).map(_result),
    st.integers(0, 3).map(lambda n: protocol.heartbeat_msg(
        n, {"blob": "x" * (97 * n)})),
    st.just(protocol.config_msg({"window": 9})),
    st.lists(st.integers(0, 1 << 96), min_size=1, max_size=4).map(
        lambda xs: protocol.batch_msg(3, np.array(
            [(x, x + 1) for x in xs], dtype=object))),
)


@given(msgs=st.lists(_MESSAGES, max_size=12), data=st.data())
@settings(max_examples=80, deadline=None)
def test_any_split_of_a_frame_stream_decodes_the_same(msgs, data):
    """BATCH, RESULT and pickled frames, cut anywhere (frames split
    across chunks, several in one chunk), decode to the same messages
    in the same order."""
    stream = b"".join(bytes(encode_frame(m)) for m in msgs)
    cuts = sorted(data.draw(st.lists(st.integers(0, len(stream)),
                                     max_size=8)))
    got = []

    def on_frame(frame):
        got.append(decode_frame(frame))

    parser = FrameProtocol(None, on_frame, lambda: got.append("eof"))
    for lo, hi in zip([0] + cuts, cuts + [len(stream)]):
        parser.data_received(stream[lo:hi])
    parser.connection_lost(None)
    assert got[-1] == "eof"
    assert len(got[:-1]) == len(msgs)
    for g, m in zip(got, msgs):
        _same(g, m)


def test_frame_handler_error_goes_to_the_loop_not_the_connection():
    reports = []

    class Loop:
        def call_exception_handler(self, context):
            reports.append(context["exception"])

    got = []

    def on_frame(frame):
        if not got:
            got.append("boom")
            raise ValueError("handler bug")
        got.append(decode_frame(frame)[0])

    parser = FrameProtocol(Loop(), on_frame, lambda: None)
    parser.data_received(bytes(encode_frame(_batch([(1, 2)])))
                         + bytes(encode_frame(_result(1))))
    assert got == ["boom", protocol.RESULT]
    assert [type(e) for e in reports] == [ValueError]


def _counters():
    return WireCounters(MetricsRegistry())


async def _until(predicate, timeout=5.0):
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        assert asyncio.get_running_loop().time() < deadline
        await asyncio.sleep(0.005)


def test_pipe_eof_after_buffered_frames_delivers_them_first():
    sent = [_batch([(1, 2)]), _result(3), protocol.heartbeat_msg(0, {}),
            protocol.bye_msg(0, {"x": 1})]

    async def main():
        channel = PipeRouterChannel(_counters())
        # The worker writes everything and dies before the loop reads.
        for msg in sent:
            channel._child.sendall(encode_frame(msg))
        channel.after_spawn()
        events = []
        await channel.start_io(asyncio.get_running_loop(), events.append,
                               lambda: events.append("eof"))
        await _until(lambda: "eof" in events)
        channel.close()
        return events, channel._counters

    events, counters = asyncio.run(main())
    assert events[-1] == "eof" and len(events) == len(sent) + 1
    for got, want in zip(events, sent):
        _same(got, want)
    assert counters.rx_msgs.value == len(sent)
    assert counters.rx_bytes.value == 16 + 3 * 18 + 48


def test_pipe_worker_channel_speaks_frames():
    router, worker_sock = socket.socketpair()
    worker = WorkerChannel(worker_sock)
    assert worker.recv(0.01) is None
    router.sendall(encode_frame(_batch([(5, 6), (7, 8)])))
    _same(worker.recv(1.0), _batch([(5, 6), (7, 8)]))
    worker.send(_result(2))
    head = router.recv(FRAME_HEADER, socket.MSG_WAITALL)
    body = router.recv(2 * 18 + 48, socket.MSG_WAITALL)
    _same(decode_frame(memoryview(head + body)), _result(2))
    router.close()
    with pytest.raises(ChannelClosed):
        worker.recv(1.0)
    with pytest.raises(ChannelClosed):
        worker.send(_result(1))
    worker.close()


def test_live_pool_runs_no_transport_thread():
    before = set(threading.enumerate())

    async def main():
        cfg = ClusterConfig(width=32, window=8, workers=2,
                            heartbeat_interval=0.05)
        async with ClusterRouter(cfg) as router:
            await router.wait_ready()
            out = await router.submit_batch([(1, 2)] * 100)
            assert out.sums == [3] * 100
            return [t.name for t in threading.enumerate()
                    if t not in before]

    assert asyncio.run(main()) == []
