"""Frame codec round trips, the worker death trace and the worker's
readiness heartbeat.

Everything here but the last readiness test runs in-process against
plain buffers — no worker processes — so the codec's invariants are
checked at full speed and the failure messages point at the exact
primitive that broke.
"""

import asyncio
import json
import time

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig, ClusterRouter, protocol
from repro.cluster.transport import (
    FRAME_HEADER,
    RESULT_TRAILER,
    decode_frame,
    encode_frame,
    payload_nbytes,
)
from repro.cluster.worker import DEATH_TRACE_MARKER, worker_main

U64 = st.integers(0, (1 << 64) - 1)


def batch_msg(pairs):
    arr = np.asarray(pairs, dtype=np.uint64).reshape(len(pairs), 2)
    return (protocol.BATCH, 7, arr)


# ----------------------------------------------------------------------
# Codec round trips
# ----------------------------------------------------------------------
@given(pairs=st.lists(st.tuples(U64, U64), min_size=0, max_size=64),
       msg_id=U64)
@settings(max_examples=60, deadline=None)
def test_batch_roundtrip_bit_identical(pairs, msg_id):
    arr = np.asarray(pairs, dtype=np.uint64).reshape(len(pairs), 2)
    frame = encode_frame((protocol.BATCH, msg_id, arr))
    assert len(frame) == FRAME_HEADER + arr.nbytes
    kind, got_id, got = decode_frame(memoryview(frame))
    assert kind == protocol.BATCH and got_id == msg_id
    assert got.dtype == np.uint64 and got.shape == (len(pairs), 2)
    assert np.array_equal(got, arr)


@given(n=st.integers(0, 48), msg_id=U64,
       cycles=st.integers(0, 1 << 40), data=st.data())
@settings(max_examples=60, deadline=None)
def test_result_roundtrip_bit_identical(n, msg_id, cycles, data):
    rng = np.random.default_rng(
        data.draw(st.integers(0, 2**32 - 1), label="seed"))
    result = {
        "sums": rng.integers(0, 1 << 63, n, dtype=np.uint64),
        "couts": rng.integers(0, 2, n, dtype=np.uint64),
        "stalled": rng.integers(0, 2, n).astype(bool),
        "spec_errors": rng.integers(0, 2, n).astype(bool),
        "cycles": cycles, "start_cycle": 3,
        "counters": protocol.light_counters(n, 1, 2, cycles),
    }
    msg = (protocol.RESULT, msg_id, result)
    frame = encode_frame(msg)
    assert len(frame) == FRAME_HEADER + payload_nbytes(msg)
    kind, got_id, got = decode_frame(memoryview(frame))
    assert kind == protocol.RESULT and got_id == msg_id
    assert np.array_equal(got["sums"], result["sums"])
    assert np.array_equal(got["couts"], result["couts"])
    assert np.array_equal(got["stalled"], result["stalled"])
    assert np.array_equal(got["spec_errors"], result["spec_errors"])
    assert got["cycles"] == cycles and got["start_cycle"] == 3
    assert got["counters"] == result["counters"]


def test_decoded_arrays_are_views_not_copies():
    """Decode aliases the frame: the router copies only what it keeps."""
    frame = encode_frame(batch_msg([(1, 2), (3, 4)]))
    _, _, arr = decode_frame(memoryview(frame))
    # Mutating the frame buffer shows through the decoded array.
    frame[FRAME_HEADER] = 0xFF
    assert arr[0, 0] != 1
    assert arr.base is not None  # frombuffer view, not a materialised copy


def test_payload_nbytes_accounting():
    assert payload_nbytes(batch_msg([(1, 2)] * 10)) == 160
    pairs_as_list = (protocol.BATCH, 1, [(1, 2)] * 10)
    assert payload_nbytes(pairs_as_list) == 160
    result = {"sums": np.zeros(10, np.uint64)}
    assert (payload_nbytes((protocol.RESULT, 1, result))
            == 10 * 18 + RESULT_TRAILER)
    assert payload_nbytes((protocol.SHUTDOWN,)) == 0


# ----------------------------------------------------------------------
# Worker death trace (the silent-exit fix)
# ----------------------------------------------------------------------
_ONE_BATCH = (protocol.BATCH, 1,
              np.asarray([(1, 2), (3, 4)], dtype=np.uint64))


class _DyingChannel:
    """Replays *inbox*, then the router 'vanishes'.

    ``recv`` returns the *inbox* messages in order (``None`` is an idle
    timeout) and raises once they run out.  The first *sends* sends go
    through (the default 1 is the worker's readiness heartbeat); every
    later send raises.
    """

    def __init__(self, sends=1, inbox=(_ONE_BATCH,)):
        from repro.cluster.transport import ChannelClosed

        self._closed_exc = ChannelClosed
        self.inbox = list(inbox)
        self._sends = sends
        self.sent = []
        self.closed = False

    def recv(self, timeout):
        if self.inbox:
            return self.inbox.pop(0)
        raise self._closed_exc("router gone")

    def send(self, msg):
        if self._sends > 0:
            self._sends -= 1
            self.sent.append(msg)
            return
        raise self._closed_exc("router gone")

    def close(self):
        self.closed = True


def test_worker_emits_structured_death_trace(capsys):
    cfg = {"width": 32, "window": 8, "recovery_cycles": 1,
           "family": "aca", "heartbeat_interval": 10.0}
    channel = _DyingChannel()
    worker_main(5, channel, cfg)  # returns instead of raising
    assert channel.closed
    err = capsys.readouterr().err
    lines = [ln for ln in err.splitlines()
             if ln.startswith(DEATH_TRACE_MARKER)]
    assert lines, f"no {DEATH_TRACE_MARKER} line on stderr"
    record = json.loads(lines[0][len(DEATH_TRACE_MARKER):])
    assert record["event"] == "worker_channel_closed"
    assert record["reason"] == "result_send"
    assert record["worker_id"] == 5
    assert record["ops_total"] == 2  # the batch that was executed
    assert record["batches_total"] == 1


def _death_record(err):
    lines = [ln for ln in err.splitlines()
             if ln.startswith(DEATH_TRACE_MARKER)]
    assert len(lines) == 1, err
    return json.loads(lines[0][len(DEATH_TRACE_MARKER):])


def test_worker_heartbeats_before_its_first_recv(capsys):
    # Readiness must not wait for an idle heartbeat interval (10 s here):
    # the heartbeat is sent before the worker first reads its channel.
    cfg = {"width": 32, "window": 8, "recovery_cycles": 1,
           "family": "aca", "heartbeat_interval": 10.0}
    channel = _DyingChannel()
    worker_main(2, channel, cfg)
    assert [msg[0] for msg in channel.sent] == [protocol.HEARTBEAT]
    assert _death_record(capsys.readouterr().err)["reason"] == "result_send"


def test_worker_death_trace_when_readiness_send_fails(capsys):
    cfg = {"width": 32, "window": 8, "recovery_cycles": 1,
           "family": "aca", "heartbeat_interval": 10.0}
    channel = _DyingChannel(sends=0)
    worker_main(3, channel, cfg)  # returns instead of raising
    assert channel.closed
    record = _death_record(capsys.readouterr().err)
    assert record["event"] == "worker_channel_closed"
    assert record["reason"] == "ready_send"
    assert record["worker_id"] == 3
    assert record["ops_total"] == 0
    assert record["batches_total"] == 0
    assert channel.inbox  # never reached the first recv


def test_worker_death_trace_when_heartbeat_after_result_fails(capsys):
    # The router takes the result, then vanishes before the heartbeat
    # that follows it (interval 0: every result is followed by one).
    cfg = {"width": 32, "window": 8, "recovery_cycles": 1,
           "family": "aca", "heartbeat_interval": 0.0}
    channel = _DyingChannel(sends=2)
    worker_main(4, channel, cfg)  # returns instead of raising
    assert channel.closed
    assert [msg[0] for msg in channel.sent] == [protocol.HEARTBEAT,
                                                protocol.RESULT]
    record = _death_record(capsys.readouterr().err)
    assert record["reason"] == "heartbeat_send"
    assert record["ops_total"] == 2
    assert record["batches_total"] == 1


def test_worker_death_trace_when_idle_heartbeat_fails(capsys):
    # An idle recv timeout triggers a heartbeat; its failure is a send
    # failure, not a recv one.
    cfg = {"width": 32, "window": 8, "recovery_cycles": 1,
           "family": "aca", "heartbeat_interval": 0.0}
    channel = _DyingChannel(sends=1, inbox=(None,))
    worker_main(6, channel, cfg)  # returns instead of raising
    assert channel.closed
    assert not channel.inbox
    record = _death_record(capsys.readouterr().err)
    assert record["reason"] == "heartbeat_send"
    assert record["ops_total"] == 0


def test_cluster_ready_well_within_one_heartbeat_interval():
    # A real one-worker pool with a 5 s heartbeat interval: readiness
    # arrives as soon as the worker has started, not one interval later.
    async def scenario():
        cfg = ClusterConfig(width=32, window=8, workers=1,
                            heartbeat_interval=5.0)
        async with ClusterRouter(cfg) as router:
            t0 = time.monotonic()
            await router.wait_ready(timeout=2.0)
            return time.monotonic() - t0

    assert asyncio.run(scenario()) < 2.0
