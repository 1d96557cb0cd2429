"""Transport torture tests: the ring codec, back-pressure, slot
lifecycle, segment hygiene, the worker death trace and the worker's
readiness heartbeat.

Everything here but the last readiness test runs in-process against
plain buffers or real ``/dev/shm`` segments — no worker processes — so
the SPSC ring invariants (publish-after-write, in-order retirement,
occupancy reconciliation) are checked at full speed and the failure
messages point at the exact primitive that broke.
"""

import asyncio
import io
import json
import pickle
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig, ClusterRouter, protocol
from repro.cluster.transport import (
    RESULT_TRAILER,
    RING_HEADER,
    SEGMENT_PREFIX,
    SLOT_HEADER,
    Ring,
    SlotOverflow,
    TransportError,
    batch_capacity_ops,
    decode_from,
    default_slot_bytes,
    encode_into,
    open_worker_channel,
    payload_nbytes,
    result_capacity_ops,
    segment_tracker,
)
from repro.cluster.worker import DEATH_TRACE_MARKER, worker_main

U64 = st.integers(0, (1 << 64) - 1)


def make_slot(slot_bytes=4096):
    return memoryview(bytearray(slot_bytes))


def make_ring(slots=4, slot_bytes=1024):
    buf = bytearray(Ring.size_for(slots, slot_bytes))
    return Ring(buf, slots, slot_bytes, create=True)


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
    mv = make_slot()
    used = encode_into((protocol.BATCH, msg_id, arr), mv)
    assert used == SLOT_HEADER + arr.nbytes
    kind, got_id, got = decode_from(mv)
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
    mv = make_slot()
    encode_into((protocol.RESULT, msg_id, result), mv)
    kind, got_id, got = decode_from(mv)
    assert kind == protocol.RESULT and got_id == msg_id
    assert np.array_equal(got["sums"], result["sums"])
    assert np.array_equal(got["couts"], result["couts"])
    assert np.array_equal(got["stalled"], result["stalled"])
    assert np.array_equal(got["spec_errors"], result["spec_errors"])
    assert got["cycles"] == cycles and got["start_cycle"] == 3
    assert got["counters"] == result["counters"]


def test_decoded_arrays_are_views_not_copies():
    """Zero-copy is the whole point: decode must alias the slot."""
    mv = make_slot()
    encode_into(batch_msg([(1, 2), (3, 4)]), mv)
    _, _, arr = decode_from(mv)
    # Mutating the slot buffer shows through the decoded array.
    mv[SLOT_HEADER] = 0xFF
    assert arr[0, 0] != 1
    assert arr.base is not None  # frombuffer view, not a materialised copy


def test_max_slot_boundary_exact_fit_and_overflow():
    slot_bytes = 1024
    cap = batch_capacity_ops(slot_bytes)
    mv = make_slot(slot_bytes)
    fits = batch_msg([(i, i) for i in range(cap)])
    assert encode_into(fits, mv) == SLOT_HEADER + cap * 16
    with pytest.raises(SlotOverflow):
        encode_into(batch_msg([(i, i) for i in range(cap + 1)]), mv)

    rcap = result_capacity_ops(slot_bytes)
    n = rcap + 1
    too_big = {"sums": np.zeros(n, np.uint64),
               "couts": np.zeros(n, np.uint64),
               "stalled": np.zeros(n, bool),
               "spec_errors": np.zeros(n, bool),
               "cycles": 1, "start_cycle": 0, "counters": None}
    with pytest.raises(SlotOverflow):
        encode_into((protocol.RESULT, 1, too_big), mv)


def test_pickled_fallback_roundtrip_and_overflow():
    mv = make_slot(512)
    beat = protocol.heartbeat_msg(3, {"worker_ops_total": {
        "kind": "counter", "help": "", "state": {"value": 9}}})
    encode_into(beat, mv)
    assert decode_from(mv) == beat
    huge = protocol.heartbeat_msg(3, {"blob": "x" * 4096})
    with pytest.raises(SlotOverflow):
        encode_into(huge, mv)


def test_payload_nbytes_accounting():
    assert payload_nbytes(batch_msg([(1, 2)] * 10)) == 160
    pairs_as_list = (protocol.BATCH, 1, [(1, 2)] * 10)
    assert payload_nbytes(pairs_as_list) == 160
    result = {"sums": np.zeros(10, np.uint64)}
    assert (payload_nbytes((protocol.RESULT, 1, result))
            == 10 * 18 + RESULT_TRAILER)
    assert payload_nbytes((protocol.SHUTDOWN,)) == 0


def test_default_slot_bytes_floor_and_capacity():
    assert default_slot_bytes(1) == 32768  # control-traffic floor
    for ops in (256, 2048, 8192, 1 << 14):
        size = default_slot_bytes(ops)
        assert size % 4096 == 0
        assert batch_capacity_ops(size) >= ops
        assert result_capacity_ops(size) >= ops


# ----------------------------------------------------------------------
# Ring invariants
# ----------------------------------------------------------------------
def test_ring_fifo_and_in_order_retire():
    ring = make_ring(slots=4)
    for i in range(3):
        assert ring.try_push(batch_msg([(i, i)]))
    assert ring.occupancy == 3
    seqs = []
    for i in range(3):
        seq, (_, _, arr) = ring.pop()
        assert arr[0, 0] == i  # FIFO
        seqs.append(seq)
    assert seqs == [0, 1, 2]
    with pytest.raises(TransportError):
        ring.retire(2)  # strictly in order
    for seq in seqs:
        ring.retire(seq)
    assert ring.occupancy == 0


def test_ring_full_blocks_without_corrupting_inflight_slots():
    """The slow-consumer drill: a full ring refuses new work and the
    refused pushes leave every in-flight slot bit-identical."""
    ring = make_ring(slots=2)
    assert ring.try_push(batch_msg([(11, 12)]))
    assert ring.try_push(batch_msg([(21, 22)]))
    snapshot = bytes(ring._mv)
    # Non-blocking, timed-blocking and repeated refusals: all False.
    assert not ring.try_push(batch_msg([(31, 32)]))
    assert not ring.push(batch_msg([(31, 32)]), timeout=0.05)
    assert ring.full_stalls == 1
    assert bytes(ring._mv) == snapshot  # nothing in flight was touched
    # Retire one slot; the producer proceeds and FIFO order holds.
    seq, (_, _, first) = ring.pop()
    assert first[0, 0] == 11
    ring.retire(seq)
    assert ring.push(batch_msg([(31, 32)]), timeout=0.05)
    _, (_, _, second) = ring.pop()
    assert second[0, 0] == 21


def test_ring_shed_policy_drops_and_counts():
    ring = make_ring(slots=2)
    ring.try_push(batch_msg([(1, 1)]))
    ring.try_push(batch_msg([(2, 2)]))
    assert not ring.push(protocol.heartbeat_msg(0, {}), policy="shed")
    assert ring.shed == 1 and ring.full_stalls == 0
    assert ring.occupancy == 2  # shed message never occupied a slot


@given(ops=st.lists(st.booleans(), min_size=1, max_size=200))
@settings(max_examples=40, deadline=None)
def test_ring_occupancy_reconciles_under_any_interleaving(ops):
    """occupancy == submitted - retired, under arbitrary push/retire
    interleavings (True = try push, False = try pop+retire)."""
    ring = make_ring(slots=3, slot_bytes=256)
    pushed = retired = 0
    for do_push in ops:
        if do_push:
            if ring.try_push(batch_msg([(pushed, pushed)])):
                pushed += 1
        else:
            popped = ring.pop()
            if popped is not None:
                ring.retire(popped[0])
                retired += 1
    assert ring.occupancy == pushed - retired
    assert ring.produced == pushed and ring.consumed == retired
    assert 0 <= ring.occupancy <= ring.slots


def test_torn_write_is_never_published():
    """A producer killed mid-slot-write must be invisible: the payload
    bytes land but ``produced`` never bumps, so the consumer sees
    nothing and the slot is reused cleanly by the next push."""
    ring = make_ring(slots=2)
    # Simulate the torn write: encode directly into the slot buffer
    # without the publish step (this is exactly where SIGKILL lands).
    encode_into(batch_msg([(666, 666)]), ring._slot(0))
    assert ring.pop() is None
    assert ring.occupancy == 0
    # A real (published) push then overwrites the torn bytes.
    assert ring.try_push(batch_msg([(1, 2)]))
    seq, (_, _, arr) = ring.pop()
    assert arr[0, 0] == 1


# ----------------------------------------------------------------------
# Segment lifecycle
# ----------------------------------------------------------------------
def shm_entries():
    import os

    try:
        return [n for n in os.listdir("/dev/shm")
                if n.startswith(SEGMENT_PREFIX)]
    except FileNotFoundError:  # non-Linux: fall back to tracker view
        return segment_tracker.live_names()


def test_segment_tracker_create_destroy_sweep():
    before = set(shm_entries())
    name = f"{SEGMENT_PREFIX}_test_{id(object()):x}"
    segment_tracker.create(name, 4096)
    assert name in segment_tracker.live_names()
    assert set(shm_entries()) - before == {name}
    segment_tracker.destroy(name)
    segment_tracker.destroy(name)  # idempotent
    assert set(shm_entries()) == before
    # sweep() catches what a crashed test would leave behind.
    segment_tracker.create(name + "_b", 4096)
    assert segment_tracker.sweep() >= 1
    assert set(shm_entries()) == before


def test_worker_channel_spec_rejects_unknown_kind():
    with pytest.raises(ValueError):
        open_worker_channel(("carrier-pigeon", {}))


# ----------------------------------------------------------------------
# Worker death trace (the silent-exit fix)
# ----------------------------------------------------------------------
class _DyingChannel:
    """Delivers one batch, then the router 'vanishes' on send.

    The first *heartbeats* sends (the worker's readiness heartbeat)
    go through; every later send raises.
    """

    transport_name = "stub"

    def __init__(self, heartbeats=1):
        from repro.cluster.transport import ChannelClosed

        self._closed_exc = ChannelClosed
        self._batch = (protocol.BATCH, 1,
                       np.asarray([(1, 2), (3, 4)], dtype=np.uint64))
        self._heartbeats = heartbeats
        self.sent = []
        self.closed = False

    def recv(self, timeout):
        if self._batch is not None:
            msg, self._batch = self._batch, None
            return msg
        raise self._closed_exc("router gone")

    def send(self, msg, shed_if_full=False):
        if msg[0] == protocol.HEARTBEAT and self._heartbeats > 0:
            self._heartbeats -= 1
            self.sent.append(msg)
            return True
        raise self._closed_exc("router gone")

    def close(self):
        self.closed = True


def test_worker_emits_structured_death_trace(capsys):
    cfg = {"width": 32, "window": 8, "recovery_cycles": 1,
           "backend": "numpy", "family": "aca",
           "heartbeat_interval": 10.0}
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
    assert record["transport"] == "stub"
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
           "backend": "numpy", "family": "aca",
           "heartbeat_interval": 10.0}
    channel = _DyingChannel()
    worker_main(2, channel, cfg)
    assert [msg[0] for msg in channel.sent] == [protocol.HEARTBEAT]
    assert _death_record(capsys.readouterr().err)["reason"] == "result_send"


def test_worker_death_trace_when_readiness_send_fails(capsys):
    cfg = {"width": 32, "window": 8, "recovery_cycles": 1,
           "backend": "numpy", "family": "aca",
           "heartbeat_interval": 10.0}
    channel = _DyingChannel(heartbeats=0)
    worker_main(3, channel, cfg)  # returns instead of raising
    assert channel.closed
    record = _death_record(capsys.readouterr().err)
    assert record["event"] == "worker_channel_closed"
    assert record["reason"] == "ready_send"
    assert record["worker_id"] == 3
    assert record["ops_total"] == 0
    assert record["batches_total"] == 0
    assert channel._batch is not None  # never reached the first recv


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
