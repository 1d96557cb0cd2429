"""The loop-native wire: frame parsing, EOF ordering, tx-ring parking,
and a router that runs no transport thread.

Frames are the ring slot codec's bytes (``SLOT_HEADER`` plus payload)
on both transports.  The parser tests feed :class:`FrameProtocol` by
hand; the channel tests drive real router channels on a real event
loop with the worker's end played by the test.
"""

import asyncio
import multiprocessing
import socket
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig, ClusterRouter, protocol
from repro.cluster.transport import (
    DOORBELL,
    SLOT_HEADER,
    ChannelClosed,
    FrameProtocol,
    WireCounters,
    _PipeRouterChannel,
    _PipeWorkerChannel,
    _ShmRouterChannel,
    decode_from,
    encode_frame,
    open_worker_channel,
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
    st.just(None),  # a doorbell
)


@given(msgs=st.lists(_MESSAGES, max_size=12), data=st.data())
@settings(max_examples=80, deadline=None)
def test_any_split_of_a_frame_stream_decodes_the_same(msgs, data):
    """BATCH, RESULT, pickled and doorbell frames, cut anywhere (frames
    split across chunks, several in one chunk), decode to the same
    messages in the same order."""
    stream = b"".join(DOORBELL if m is None else bytes(encode_frame(m))
                      for m in msgs)
    cuts = sorted(data.draw(st.lists(st.integers(0, len(stream)),
                                     max_size=8)))
    got = []

    def on_frame(frame):
        got.append(None if len(frame) == SLOT_HEADER
                   and bytes(frame) == DOORBELL else decode_from(frame))

    parser = FrameProtocol(None, on_frame, lambda: got.append("eof"))
    for lo, hi in zip([0] + cuts, cuts + [len(stream)]):
        parser.data_received(stream[lo:hi])
    parser.connection_lost(None)
    assert got[-1] == "eof"
    assert len(got[:-1]) == len(msgs)
    for g, m in zip(got, msgs):
        if m is None:
            assert g is None
        else:
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
        got.append(decode_from(frame)[0])

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
        channel = _PipeRouterChannel(_counters())
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


def _shm_channel(slots=4):
    return _ShmRouterChannel(multiprocessing.get_context("spawn"),
                             _counters(), 0, slots, 4096)


def test_shm_eof_drains_published_slots_by_the_counters():
    """A worker that published slots but died before ringing the
    doorbell: EOF still delivers every published slot, then EOF."""
    sent = [_result(2, msg_id=i) for i in range(3)]

    async def main():
        channel = _shm_channel()
        for msg in sent:
            assert channel._ring_rx.try_push(msg)
        channel.after_spawn()
        events = []

        def on_message(msg):  # the views die with the slot: copy
            events.append((msg[0], msg[1], msg[2]["sums"].copy()))

        await channel.start_io(asyncio.get_running_loop(), on_message,
                               lambda: events.append("eof"))
        await _until(lambda: "eof" in events)
        occupancy = channel.occupancy()
        channel.close()
        return events, occupancy

    events, occupancy = asyncio.run(main())
    assert [e[1] for e in events[:-1]] == [0, 1, 2] and events[-1] == "eof"
    assert all(np.array_equal(e[2], sent[0][2]["sums"])
               for e in events[:-1])
    assert occupancy == (0, 0)  # every delivered slot was retired


def test_shm_doorbell_and_fallback_keep_order():
    """Slots published before an oversized fallback frame are delivered
    before it; each doorbell drains what is published."""

    async def main():
        channel = _shm_channel()
        worker = channel._child
        events = []
        await channel.start_io(asyncio.get_running_loop(),
                               lambda m: events.append(m[1]),
                               lambda: events.append("eof"))
        channel._ring_rx.try_push(_result(1, msg_id=10))
        worker.sendall(DOORBELL)
        await _until(lambda: events == [10])
        channel._ring_rx.try_push(_result(1, msg_id=11))
        big = protocol.result_msg(12, dict(_result(400)[2]))  # > a slot
        worker.sendall(encode_frame(big))
        worker.sendall(DOORBELL)  # stale by now: drains nothing
        await _until(lambda: len(events) >= 2)
        await asyncio.sleep(0.02)
        worker.close()
        await _until(lambda: "eof" in events)
        fallbacks = channel._counters.pipe_fallbacks.value
        channel.close()
        return events, fallbacks

    events, fallbacks = asyncio.run(main())
    assert events == [10, 11, 12, "eof"]
    assert fallbacks == 1


def test_shm_full_tx_ring_parks_and_retries_in_order():
    async def main():
        channel = _shm_channel(slots=2)
        await channel.start_io(asyncio.get_running_loop(),
                               lambda m: None, lambda: None)
        for i in range(5):
            channel.send(_batch([(i, i)], msg_id=i))
        ring = channel._ring_tx
        assert ring.occupancy == 2 and len(channel._parked) == 3
        stalls = channel._counters.ring_full_stalls.value
        assert stalls >= 1
        got = []
        deadline = asyncio.get_running_loop().time() + 5.0
        while len(got) < 5:  # play the worker: consume, free the slot
            assert asyncio.get_running_loop().time() < deadline
            popped = ring.pop()
            if popped is None:
                await asyncio.sleep(0.001)
                continue
            seq, msg = popped
            got.append(msg[1])
            ring.retire(seq)
            channel._tx_space.release()
        assert not channel._parked
        assert channel._counters.ring_full_stalls.value > stalls
        assert channel._counters.tx_msgs.value == 5
        channel.close()
        return got

    assert asyncio.run(main()) == [0, 1, 2, 3, 4]


def test_shm_worker_round_trip_doorbell_and_heartbeat_shedding():
    """Worker and router ends of one shm channel in one process: a
    batch crosses the tx ring, each result published on the rx ring
    rings the doorbell, and a heartbeat is shed, not blocked on, while
    the rx ring is full."""

    async def main():
        channel = _shm_channel(slots=2)
        worker = open_worker_channel(channel.spawn_spec())
        got = []
        await channel.start_io(asyncio.get_running_loop(),
                               lambda m: got.append(m[1]), lambda: None)
        channel.send(_batch([(1, 2)], msg_id=7))
        _same(worker.recv(1.0), _batch([(1, 2)], msg_id=7))
        # The loop is not running here, so nothing drains the rx ring.
        assert worker.send(_result(1, msg_id=7))
        assert worker.send(_result(1, msg_id=8))
        assert not worker.send(protocol.heartbeat_msg(0, {}),
                               shed_if_full=True)
        await _until(lambda: got == [7, 8])
        assert channel.occupancy() == (0, 0)
        assert worker.send(protocol.heartbeat_msg(0, {}),
                           shed_if_full=True)
        await _until(lambda: len(got) == 3)
        worker.close()
        channel.close()
        return got

    assert asyncio.run(main()) == [7, 8, 0]


def test_shm_worker_wakes_for_an_oversized_frame():
    """A batch too large for a slot wakes the worker at once, as a ring
    slot does, and each frame uses up exactly one ``tx_items`` token."""

    async def main():
        channel = _shm_channel()
        worker = open_worker_channel(channel.spawn_spec())
        await channel.start_io(asyncio.get_running_loop(),
                               lambda m: None, lambda: None)
        big = _batch([(i, i + 1) for i in range(1000)], msg_id=1)
        small = _batch([(1, 2)], msg_id=2)
        channel.send(big)
        t0 = time.monotonic()
        _same(worker.recv(1.0), big)
        woke = time.monotonic() - t0
        # The slot sent after the frame may be read first; either way
        # both arrive and no token or frame is left over.
        channel.send(big)
        channel.send(small)
        got = sorted(worker.recv(1.0)[1] for _ in range(2))
        leftover = worker.recv(0.1)
        fallbacks = channel._counters.pipe_fallbacks.value
        worker.close()
        channel.close()
        return woke, got, leftover, fallbacks

    woke, got, leftover, fallbacks = asyncio.run(main())
    assert woke < 0.02
    assert got == [1, 2]
    assert leftover is None
    assert fallbacks == 2


def test_pipe_worker_channel_speaks_frames():
    router, worker_sock = socket.socketpair()
    worker = _PipeWorkerChannel(worker_sock)
    assert worker.recv(0.01) is None
    router.sendall(encode_frame(_batch([(5, 6), (7, 8)])))
    _same(worker.recv(1.0), _batch([(5, 6), (7, 8)]))
    worker.send(_result(2))
    head = router.recv(SLOT_HEADER, socket.MSG_WAITALL)
    body = router.recv(2 * 18 + 48, socket.MSG_WAITALL)
    _same(decode_from(memoryview(head + body)), _result(2))
    router.close()
    with pytest.raises(ChannelClosed):
        worker.recv(1.0)
    with pytest.raises(ChannelClosed):
        worker.send(_result(1))
    worker.close()


@pytest.mark.parametrize("transport", ["pipe", "shm"])
def test_live_pool_runs_no_transport_thread(transport):
    before = set(threading.enumerate())

    async def main():
        cfg = ClusterConfig(width=32, window=8, workers=2,
                            transport=transport, heartbeat_interval=0.05)
        async with ClusterRouter(cfg) as router:
            await router.wait_ready()
            out = await router.submit_batch([(1, 2)] * 100)
            assert out.sums == [3] * 100
            return [t.name for t in threading.enumerate()
                    if t not in before]

    assert asyncio.run(main()) == []
