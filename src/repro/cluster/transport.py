"""Cluster transports: one binary frame codec, two ways to move it,
every router-side byte handled on the router's event loop.

The router and its workers exchange :mod:`repro.cluster.protocol`
messages.  Every message travels as one **frame**, the bytes one ring
slot holds: a 32-byte :data:`SLOT_HEADER` plus the payload it sizes
(:func:`encode_into` / :func:`decode_from`).  A ``uint64`` BATCH or
RESULT is raw array bytes; everything else (heartbeats, CONFIG, chaos
hooks, object-lane payloads above 64 bits) is pickled into the frame.
*How* frames travel is this module's concern, behind one interface:

* :class:`PipeTransport` — one stream socket pair per worker, frames
  written back to back.  The portable transport, and the differential
  reference the shm path is verified against.
* :class:`ShmRingTransport` — two fixed-slot single-producer /
  single-consumer ring buffers per worker (one per direction) living in
  ``multiprocessing.shared_memory`` segments: one ``memcpy`` in, numpy
  *views* out.  A control socket carries a one-header *doorbell* frame
  after each slot the worker publishes, frames too large for a slot,
  and peer death (EOF).

On the router side neither transport starts a thread.  A channel wraps
its socket in an asyncio :class:`~asyncio.Protocol`: ``send`` encodes
and writes from the loop through the non-blocking transport (a full
socket buffers, it never blocks the loop), and ``data_received`` cuts
frames out of the stream and hands each to the router in place.

Ring protocol (per direction)
-----------------------------

The segment holds a 64-byte ring header followed by ``slots`` fixed
``slot_bytes`` slots::

    header:  [produced u64][consumed u64][slots u64][slot_bytes u64]
    slot:    [kind u32][flags u32][msg_id u64][nbytes u64][aux u64]
             [payload ...]

``produced`` and ``consumed`` are free-running sequence counters; slot
``seq`` lives at index ``seq % slots``.  The producer may write when
``produced - consumed < slots`` and **publishes by bumping
``produced`` only after the payload write completes**, so a consumer
can never observe a torn slot — a worker SIGKILLed mid-slot-write
simply never publishes, and the message is redelivered by the router's
failover path.  The consumer reads at its private cursor and retires
slots strictly in order by bumping ``consumed``, which is what gives
the producer back-pressure.  Waits are real blocking waits, never
busy-polling: the worker blocks on semaphores (``tx_items`` for work,
one token per ring slot or oversized frame, ``rx_space`` for room to
reply); the router's loop wakes on the worker's doorbell, and a full
router→worker ring parks the message and retries it after each
received message and on a short timer.

Segment lifecycle
-----------------

Segments are created by the **router** side only and tracked by a
process-wide :class:`ShmSegmentTracker`: spawn creates the pair,
worker death/restart and router shutdown destroy it (close + unlink),
and an ``atexit`` sweep catches anything a crashed test left behind —
``/dev/shm`` must be clean after every run.  Workers attach by name
*without* registering with ``resource_tracker`` (they never own the
segment), which avoids the well-known spurious leaked-segment warnings
on Python < 3.13.
"""

from __future__ import annotations

import asyncio
import atexit
import collections
import contextlib
import os
import pickle
import select
import socket
import struct
import threading
import time
from multiprocessing import shared_memory
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from . import protocol

__all__ = [
    "TRANSPORT_NAMES",
    "TransportError",
    "ChannelClosed",
    "SlotOverflow",
    "Ring",
    "RING_HEADER",
    "SLOT_HEADER",
    "RESULT_TRAILER",
    "encode_into",
    "decode_from",
    "encode_frame",
    "DOORBELL",
    "FrameProtocol",
    "WireCounters",
    "batch_capacity_ops",
    "result_capacity_ops",
    "default_slot_bytes",
    "ShmSegmentTracker",
    "segment_tracker",
    "Transport",
    "PipeTransport",
    "ShmRingTransport",
    "make_transport",
    "open_worker_channel",
    "payload_nbytes",
]

#: Registered transport vocabulary (``ClusterConfig.transport``).
TRANSPORT_NAMES = ("pipe", "shm")

#: ``/dev/shm`` name prefix for every segment this module creates —
#: the leak assertions in tests and the nightly soak grep for it.
SEGMENT_PREFIX = "vlsa_ring"


class TransportError(RuntimeError):
    """Base class for transport-layer failures."""


class ChannelClosed(TransportError):
    """The peer is gone (EOF/broken pipe/unlinked segment)."""


class SlotOverflow(TransportError):
    """A message does not fit one ring slot (takes the pipe fallback)."""


# ----------------------------------------------------------------------
# Binary slot codec
# ----------------------------------------------------------------------
RING_HEADER = 64
SLOT_HEADER = 32
#: RESULT trailer: cycles, start_cycle, counters(ops, stalls, batches,
#: cycles) — six uint64s after the four per-op sections.
RESULT_TRAILER = 48

_HDR = struct.Struct("<IIQQQ")        # kind, flags, msg_id, nbytes, aux
_NBYTES_AT = 16                       # offset of nbytes in the header
_TRAILER = struct.Struct("<QQQQQQ")
_CTR = struct.Struct("<Q")

_FLAG_PICKLED = 1

_KIND_CODES = {
    protocol.BATCH: 1,
    protocol.SHUTDOWN: 2,
    protocol.CONFIG: 3,
    protocol.HANG: 4,
    protocol.CRASH: 5,
    protocol.RESULT: 6,
    protocol.HEARTBEAT: 7,
    protocol.BYE: 8,
}
_CODE_KINDS = {v: k for k, v in _KIND_CODES.items()}

#: The empty frame (a header with no payload): on the shm control
#: socket it means "a slot was published, drain the ring".
DOORBELL = bytes(SLOT_HEADER)

#: Per-op bytes of a binary RESULT: sums u64 + couts u64 + stalled u8
#: + spec_errors u8.
_RESULT_OP_BYTES = 18
#: Per-op bytes of a binary BATCH: one (a, b) uint64 pair.
_BATCH_OP_BYTES = 16


def batch_capacity_ops(slot_bytes: int) -> int:
    """Largest numpy BATCH (in additions) one slot can carry."""
    return max(0, (slot_bytes - SLOT_HEADER) // _BATCH_OP_BYTES)


def result_capacity_ops(slot_bytes: int) -> int:
    """Largest numpy RESULT (in additions) one slot can carry."""
    return max(0, (slot_bytes - SLOT_HEADER - RESULT_TRAILER)
               // _RESULT_OP_BYTES)


def default_slot_bytes(max_batch_ops: int) -> int:
    """Slot size that fits *max_batch_ops* in both directions.

    The RESULT layout is the wider one (18 B/op plus trailer); round
    up to a 4 KiB page multiple with headroom for pickled control
    blobs (heartbeats carry a full metrics snapshot).
    """
    need = SLOT_HEADER + RESULT_TRAILER + _RESULT_OP_BYTES * max_batch_ops
    # Floor covers pickled control traffic: a heartbeat's full metrics
    # snapshot (2048-sample histogram reservoir) is ~20 KiB.
    need = max(need, 32768)
    return (need + 4095) // 4096 * 4096


def payload_nbytes(msg: protocol.Message) -> int:
    """Wire payload size of *msg* (the copy-bytes accounting unit)."""
    kind = msg[0]
    if kind == protocol.BATCH:
        payload = msg[2]
        if isinstance(payload, np.ndarray):
            return int(payload.nbytes)
        return len(payload) * _BATCH_OP_BYTES
    if kind == protocol.RESULT:
        result = msg[2]
        return (len(result["sums"]) * _RESULT_OP_BYTES
                + RESULT_TRAILER)
    return 0


def _is_binary_batch(msg: protocol.Message) -> bool:
    return (msg[0] == protocol.BATCH
            and isinstance(msg[2], np.ndarray)
            and msg[2].dtype == np.uint64)


def _is_binary_result(msg: protocol.Message) -> bool:
    sums = msg[2].get("sums") if msg[0] == protocol.RESULT else None
    return isinstance(sums, np.ndarray) and sums.dtype == np.uint64


def encode_into(msg: protocol.Message, mv: memoryview) -> int:
    """Write *msg* into slot buffer *mv*; return total bytes used.

    numpy BATCH/RESULT messages use the raw binary layout (one memcpy);
    everything else pickles into the slot.  Raises :class:`SlotOverflow`
    when the encoding does not fit ``len(mv)``.
    """
    cap = len(mv)
    if _is_binary_batch(msg):
        _, msg_id, arr = msg
        n = int(arr.shape[0])
        nbytes = n * _BATCH_OP_BYTES
        if SLOT_HEADER + nbytes > cap:
            raise SlotOverflow(f"batch of {n} ops needs "
                               f"{SLOT_HEADER + nbytes} B > slot {cap} B")
        _HDR.pack_into(mv, 0, _KIND_CODES[protocol.BATCH], 0,
                       msg_id, nbytes, n)
        if n:
            dst = np.frombuffer(mv, np.uint64, 2 * n, offset=SLOT_HEADER)
            dst.reshape(n, 2)[:] = arr
        return SLOT_HEADER + nbytes
    if _is_binary_result(msg):
        _, msg_id, result = msg
        sums = result["sums"]
        n = int(sums.shape[0])
        nbytes = n * _RESULT_OP_BYTES + RESULT_TRAILER
        if SLOT_HEADER + nbytes > cap:
            raise SlotOverflow(f"result of {n} ops needs "
                               f"{SLOT_HEADER + nbytes} B > slot {cap} B")
        _HDR.pack_into(mv, 0, _KIND_CODES[protocol.RESULT], 0,
                       msg_id, nbytes, n)
        off = SLOT_HEADER
        if n:
            np.frombuffer(mv, np.uint64, n, offset=off)[:] = result["couts"]
            np.frombuffer(mv, np.uint64, n,
                          offset=off + 8 * n)[:] = sums
            np.frombuffer(mv, np.uint8, n, offset=off + 16 * n)[:] = (
                np.asarray(result["stalled"], dtype=bool).view(np.uint8))
            np.frombuffer(mv, np.uint8, n, offset=off + 17 * n)[:] = (
                np.asarray(result["spec_errors"],
                           dtype=bool).view(np.uint8))
        ctr = result.get("counters") or {}
        _TRAILER.pack_into(
            mv, off + _RESULT_OP_BYTES * n,
            int(result["cycles"]), int(result["start_cycle"]),
            int(ctr.get("ops", 0)), int(ctr.get("stalls", 0)),
            int(ctr.get("batches", 0)), int(ctr.get("cycles", 0)))
        return SLOT_HEADER + nbytes
    frame = _pickled_frame(msg)
    if len(frame) > cap:
        raise SlotOverflow(f"pickled {msg[0]!r} message of "
                           f"{len(frame) - SLOT_HEADER} B exceeds slot "
                           f"{cap} B")
    mv[:len(frame)] = frame
    return len(frame)


def _pickled_frame(msg: protocol.Message) -> bytes:
    blob = pickle.dumps(msg, protocol=pickle.HIGHEST_PROTOCOL)
    return _HDR.pack(_KIND_CODES.get(msg[0], 0), _FLAG_PICKLED, 0,
                     len(blob), 0) + blob


def encode_frame(msg: protocol.Message):
    """*msg* as one frame: exactly the bytes :func:`encode_into` writes
    into a slot, with no size limit."""
    if _is_binary_batch(msg) or _is_binary_result(msg):
        frame = bytearray(SLOT_HEADER + payload_nbytes(msg))
        encode_into(msg, memoryview(frame))
        return frame
    return _pickled_frame(msg)


def decode_from(mv: memoryview) -> protocol.Message:
    """Decode one message from slot buffer *mv*.

    Binary BATCH/RESULT payloads come back as numpy **views into the
    slot** — valid until the slot is retired; callers must finish with
    (or copy) them before releasing the slot lease.
    """
    code, flags, msg_id, nbytes, aux = _HDR.unpack_from(mv, 0)
    if flags & _FLAG_PICKLED:
        return pickle.loads(bytes(mv[SLOT_HEADER:SLOT_HEADER + nbytes]))
    kind = _CODE_KINDS.get(code)
    if kind == protocol.BATCH:
        n = aux
        arr = (np.frombuffer(mv, np.uint64, 2 * n,
                             offset=SLOT_HEADER).reshape(n, 2)
               if n else np.empty((0, 2), dtype=np.uint64))
        return (protocol.BATCH, msg_id, arr)
    if kind == protocol.RESULT:
        n = aux
        off = SLOT_HEADER
        if n:
            couts = np.frombuffer(mv, np.uint64, n, offset=off)
            sums = np.frombuffer(mv, np.uint64, n, offset=off + 8 * n)
            stalled = np.frombuffer(mv, np.uint8, n,
                                    offset=off + 16 * n).view(np.bool_)
            spec = np.frombuffer(mv, np.uint8, n,
                                 offset=off + 17 * n).view(np.bool_)
        else:
            sums = couts = np.empty(0, dtype=np.uint64)
            stalled = spec = np.empty(0, dtype=bool)
        (cycles, start_cycle, c_ops, c_stalls, c_batches,
         c_cycles) = _TRAILER.unpack_from(mv, off + _RESULT_OP_BYTES * n)
        result = {"sums": sums, "couts": couts, "stalled": stalled,
                  "spec_errors": spec, "cycles": cycles,
                  "start_cycle": start_cycle,
                  "counters": {"ops": c_ops, "stalls": c_stalls,
                               "batches": c_batches, "cycles": c_cycles}}
        return (protocol.RESULT, msg_id, result)
    raise TransportError(f"undecodable slot: code={code} flags={flags}")


# ----------------------------------------------------------------------
# The ring
# ----------------------------------------------------------------------
class Ring:
    """Fixed-slot SPSC ring over a shared buffer (see module docstring).

    The ring itself is synchronization-free (single writer per
    counter) and never blocks; waiting for items or space is the
    channel layer's job.
    """

    def __init__(self, buf, slots: int, slot_bytes: int,
                 create: bool = False):
        self._mv = memoryview(buf)
        self.slots = slots
        self.slot_bytes = slot_bytes
        if create:
            self._mv[:RING_HEADER] = bytes(RING_HEADER)
            struct.pack_into("<QQ", self._mv, 16, slots, slot_bytes)
        self._read = self.consumed  # consumer's private peek cursor

    @staticmethod
    def size_for(slots: int, slot_bytes: int) -> int:
        return RING_HEADER + slots * slot_bytes

    # -- counters -------------------------------------------------------
    @property
    def produced(self) -> int:
        return _CTR.unpack_from(self._mv, 0)[0]

    @property
    def consumed(self) -> int:
        return _CTR.unpack_from(self._mv, 8)[0]

    @property
    def occupancy(self) -> int:
        """Published-but-unretired slots (submitted minus retired)."""
        return self.produced - self.consumed

    def _slot(self, seq: int) -> memoryview:
        off = RING_HEADER + (seq % self.slots) * self.slot_bytes
        return self._mv[off:off + self.slot_bytes]

    # -- producer -------------------------------------------------------
    def try_push(self, msg: protocol.Message) -> bool:
        """Write and publish *msg*; False when the ring is full.

        The publish (``produced`` bump) happens strictly after the
        payload write, so a crash between the two leaves the ring
        consistent — the slot is simply never visible.
        """
        seq = self.produced
        if seq - self.consumed >= self.slots:
            return False
        encode_into(msg, self._slot(seq))
        _CTR.pack_into(self._mv, 0, seq + 1)
        return True

    # -- consumer -------------------------------------------------------
    def pop(self) -> Optional[Tuple[int, protocol.Message]]:
        """Read the next published slot (without retiring it).

        Returns ``(seq, msg)`` — *msg* may hold views into slot *seq*;
        call :meth:`retire` with that sequence once done.  ``None``
        when nothing is published.
        """
        seq = self._read
        if seq >= self.produced:
            return None
        msg = decode_from(self._slot(seq))
        self._read = seq + 1
        return seq, msg

    def retire(self, seq: int) -> None:
        """Retire slot *seq*; slots must retire strictly in order."""
        consumed = self.consumed
        if seq != consumed:
            raise TransportError(
                f"out-of-order retire: seq {seq} != consumed {consumed}")
        _CTR.pack_into(self._mv, 8, consumed + 1)

    def close(self) -> None:
        with contextlib.suppress(BufferError, ValueError):
            self._mv.release()


# ----------------------------------------------------------------------
# Segment lifecycle
# ----------------------------------------------------------------------
def _quiet_close(seg: shared_memory.SharedMemory) -> None:
    """Close *seg*'s mapping without ever raising or warning.

    ``close`` raises :class:`BufferError` while numpy views into the
    mapping are still alive (e.g. a worker exits with its last batch in
    scope).  The mapping is reclaimed when those views die — or by the
    OS at process exit — so on failure the finalizer is disarmed
    instead, which also silences the "Exception ignored in __del__"
    noise at interpreter shutdown.
    """
    try:
        seg.close()
    except BufferError:
        seg._buf = None    # the views' own refs keep the mmap alive
        seg._mmap = None


class ShmSegmentTracker:
    """Owns every shared-memory segment this process created.

    One deterministic place for the whole lifecycle: ``create`` on
    worker spawn, ``destroy`` on worker death/restart/shutdown, and a
    final ``sweep`` at interpreter exit so no test failure can leak a
    ``/dev/shm`` entry.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._segments: Dict[str, shared_memory.SharedMemory] = {}

    def create(self, name: str, size: int) -> shared_memory.SharedMemory:
        seg = shared_memory.SharedMemory(name=name, create=True, size=size)
        with self._lock:
            self._segments[seg.name] = seg
        return seg

    def destroy(self, name: str) -> None:
        """Close + unlink *name* (idempotent, exception-proof).

        ``close`` can fail with :class:`BufferError` while numpy views
        into the mapping are still alive; the *unlink* still removes
        the ``/dev/shm`` entry, and the mapping itself is freed when
        the last view dies — nothing leaks either way.
        """
        with self._lock:
            seg = self._segments.pop(name, None)
        if seg is None:
            return
        _quiet_close(seg)
        with contextlib.suppress(FileNotFoundError):
            seg.unlink()

    def live_names(self) -> List[str]:
        with self._lock:
            return sorted(self._segments)

    def sweep(self) -> int:
        """Destroy every tracked segment; returns how many it found."""
        names = self.live_names()
        for name in names:
            self.destroy(name)
        return len(names)


#: Process-wide tracker (router side); swept at interpreter exit.
segment_tracker = ShmSegmentTracker()
atexit.register(segment_tracker.sweep)


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without resource_tracker tracking.

    On Python < 3.13 a plain attach registers the segment with the
    *attaching* process's resource tracker, which later warns about —
    and may even unlink — a segment the attacher never owned.  The
    worker only ever borrows router-owned segments, so registration is
    suppressed for the duration of the attach.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # track= is 3.13+
        pass
    from multiprocessing import resource_tracker

    original = resource_tracker.register
    resource_tracker.register = lambda *_a, **_k: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


# ----------------------------------------------------------------------
# Frames on a stream socket
# ----------------------------------------------------------------------
class FrameProtocol(asyncio.Protocol):
    """Cuts a byte stream into frames on the event loop.

    Each complete frame goes to *on_frame* in place, as a memoryview
    over bytes nothing reuses (decoded arrays may keep viewing it); a
    frame split across chunks waits in a buffer for its tail.  When the
    peer is gone every complete frame has been delivered, and
    *on_close* runs once.  A handler exception goes to the loop's
    exception handler instead of killing the connection.
    """

    def __init__(self, loop, on_frame: Callable, on_close: Callable):
        self._loop = loop
        self._on_frame = on_frame
        self._on_close = on_close
        self._buf = bytearray()
        self._need = SLOT_HEADER

    def data_received(self, data: bytes) -> None:
        if self._buf:
            self._buf += data
            if len(self._buf) < self._need:
                return
            data = bytes(self._buf)
            self._buf.clear()
        view, off, end = memoryview(data), 0, len(data)
        need = SLOT_HEADER
        while end - off >= SLOT_HEADER:
            need = SLOT_HEADER + _CTR.unpack_from(data, off + _NBYTES_AT)[0]
            if off + need > end:
                break
            self._deliver(view[off:off + need])
            off += need
            need = SLOT_HEADER
        if off < end:
            self._buf += view[off:]
            self._need = need

    def _deliver(self, frame: memoryview) -> None:
        try:
            self._on_frame(frame)
        except Exception as exc:
            self._loop.call_exception_handler({
                "message": "cluster frame handler failed",
                "exception": exc, "protocol": self})

    def connection_lost(self, exc) -> None:
        self._buf.clear()  # a torn tail: the peer died mid-write
        self._on_close()


# ----------------------------------------------------------------------
# Channel state shared by both implementations
# ----------------------------------------------------------------------
class WireCounters:
    """The router registry's ``transport_*`` counters, bumped by the
    channels on the event loop as messages cross."""

    _COUNTERS = (
        ("tx_bytes", "transport_tx_bytes_total",
         "payload bytes shipped router -> workers"),
        ("rx_bytes", "transport_rx_bytes_total",
         "payload bytes shipped workers -> router"),
        ("tx_msgs", "transport_tx_msgs_total",
         "messages shipped router -> workers"),
        ("rx_msgs", "transport_rx_msgs_total",
         "messages shipped workers -> router"),
        ("pipe_fallbacks", "transport_pipe_fallback_total",
         "messages too large for a ring slot, sent via the control socket"),
        ("ring_full_stalls", "transport_ring_full_stalls_total",
         "producer waits on a full ring (back-pressure events)"))

    def __init__(self, registry) -> None:
        for attr, name, help_text in self._COUNTERS:
            setattr(self, attr, registry.counter(name, help_text))

    def sent(self, msg: protocol.Message) -> None:
        self.tx_msgs.inc()
        self.tx_bytes.inc(payload_nbytes(msg))

    def received(self, msg: protocol.Message) -> None:
        self.rx_msgs.inc()
        self.rx_bytes.inc(payload_nbytes(msg))


class RouterChannel:
    """Router-side endpoint of one worker's transport (abstract).

    Lifecycle: construct (allocates OS resources) → ``spawn_spec()``
    (picklable descriptor handed to the child) → ``after_spawn()``
    (drop child-side handles) → ``await start_io(loop, on_message,
    on_eof)`` → ``send`` at will → ``close()``.  Everything after
    construction runs on the event loop.
    """

    transport_name = "?"

    def __init__(self, counters: WireCounters) -> None:
        self._counters = counters
        self._sock, self._child = socket.socketpair()
        self._wire: Optional[asyncio.Transport] = None
        self._closed = False

    def spawn_spec(self):
        raise NotImplementedError

    def after_spawn(self) -> None:
        self._child.close()  # parent must drop the child end to see EOF

    async def start_io(self, loop, on_message: Callable,
                       on_eof: Callable) -> None:
        raise NotImplementedError

    async def _connect(self, loop, on_frame: Callable,
                       on_close: Callable) -> None:
        self._wire, _ = await loop.connect_accepted_socket(
            lambda: FrameProtocol(loop, on_frame, on_close), self._sock)

    def send(self, msg: protocol.Message) -> None:
        """Ship *msg* from the loop (never blocks it)."""
        raise NotImplementedError

    def occupancy(self) -> Tuple[int, int]:
        """Ring slots published but not retired: ``(tx, rx)``."""
        return 0, 0

    def close(self) -> None:
        self._closed = True
        self._child.close()  # already closed unless the spawn failed
        if self._wire is not None:
            self._wire.abort()
        else:
            self._sock.close()


class WorkerChannel:
    """Worker-side endpoint (abstract): serial ``recv``/``send``."""

    transport_name = "?"

    def recv(self, timeout: float) -> Optional[protocol.Message]:
        """Next message, or None after *timeout* of silence.

        Raises :class:`ChannelClosed` when the router is gone.
        """
        raise NotImplementedError

    def send(self, msg: protocol.Message,
             shed_if_full: bool = False) -> bool:
        """Ship *msg* to the router; returns False only when shed.

        Raises :class:`ChannelClosed` when the router is gone — the
        worker loop turns that into a structured death trace rather
        than a silent exit.
        """
        raise NotImplementedError

    def close(self) -> None:
        pass


# Worker side: blocking frame I/O on the router socket.
def _readable(poller, timeout: float) -> bool:
    return bool(poller.poll(max(0.0, timeout) * 1000))


def _send_frame(sock: socket.socket, frame) -> None:
    try:
        sock.sendall(frame)
    except OSError:
        raise ChannelClosed("router socket closed") from None


def _recv_exactly(sock: socket.socket, n: int) -> bytearray:
    buf = bytearray(n)
    view = memoryview(buf)
    while view:
        try:
            got = sock.recv_into(view)
        except OSError:
            got = 0
        if not got:
            raise ChannelClosed("router socket closed")
        view = view[got:]
    return buf


def _recv_message(sock: socket.socket) -> protocol.Message:
    head = _recv_exactly(sock, SLOT_HEADER)
    body = _recv_exactly(sock, _CTR.unpack_from(head, _NBYTES_AT)[0])
    return decode_from(memoryview(head + body))


# ----------------------------------------------------------------------
# Pipe transport: frames on a socket pair
# ----------------------------------------------------------------------
class _PipeRouterChannel(RouterChannel):
    transport_name = "pipe"

    def spawn_spec(self):
        return ("pipe", {"sock": self._child})

    async def start_io(self, loop, on_message, on_eof) -> None:
        counters = self._counters

        def on_frame(frame):
            msg = decode_from(frame)
            counters.received(msg)
            on_message(msg)

        await self._connect(loop, on_frame, on_eof)

    def send(self, msg) -> None:
        self._wire.write(encode_frame(msg))
        self._counters.sent(msg)


class _PipeWorkerChannel(WorkerChannel):
    transport_name = "pipe"

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._poller = select.poll()
        self._poller.register(sock, select.POLLIN)

    def recv(self, timeout: float) -> Optional[protocol.Message]:
        if not _readable(self._poller, timeout):
            return None
        return _recv_message(self._sock)

    def send(self, msg, shed_if_full: bool = False) -> bool:
        _send_frame(self._sock, encode_frame(msg))
        return True

    def close(self) -> None:
        self._sock.close()


# ----------------------------------------------------------------------
# Shared-memory ring transport
# ----------------------------------------------------------------------
#: Seconds between retries of a message parked on a full tx ring.
_PARK_RETRY_S = 0.002


class _ShmRouterChannel(RouterChannel):
    """Router endpoint: two segments, three semaphores, a control socket.

    ``tx`` is router→worker, ``rx`` worker→router.  The control socket
    carries a doorbell per published rx slot, the oversized-message
    fallback both ways, and EOF: the instant the worker dies the loop
    sees it, drains every *published* rx slot (no delivered result is
    thrown away), and only then reports EOF.  Slots are read and
    retired in order on the loop, so no lease bookkeeping is needed.
    """

    transport_name = "shm"

    def __init__(self, mp_ctx, counters: WireCounters, wid: int,
                 slots: int, slot_bytes: int):
        super().__init__(counters)
        self.slots = slots
        self.slot_bytes = slot_bytes
        token = os.urandom(3).hex()
        base = f"{SEGMENT_PREFIX}_{os.getpid()}_{wid}_{token}"
        size = Ring.size_for(slots, slot_bytes)
        self._seg_tx = segment_tracker.create(f"{base}_tx", size)
        self._seg_rx = segment_tracker.create(f"{base}_rx", size)
        self._ring_tx = Ring(self._seg_tx.buf, slots, slot_bytes,
                             create=True)
        self._ring_rx = Ring(self._seg_rx.buf, slots, slot_bytes,
                             create=True)
        self._tx_items = mp_ctx.Semaphore(0)
        self._tx_space = mp_ctx.Semaphore(slots)
        self._rx_space = mp_ctx.Semaphore(slots)
        self._parked: "collections.deque" = collections.deque()
        self._retry: Optional[asyncio.TimerHandle] = None
        self._loop = None

    def spawn_spec(self):
        return ("shm", {
            "control": self._child,
            "tx_name": self._seg_tx.name, "rx_name": self._seg_rx.name,
            "slots": self.slots, "slot_bytes": self.slot_bytes,
            "tx_items": self._tx_items, "tx_space": self._tx_space,
            "rx_space": self._rx_space,
        })

    async def start_io(self, loop, on_message, on_eof) -> None:
        self._loop = loop
        counters, ring = self._counters, self._ring_rx

        def drain():
            # Deliver every published slot, retiring each in order
            # once the router is done with its views.
            while not self._closed:
                popped = ring.pop()
                if popped is None:
                    return
                seq, msg = popped
                counters.received(msg)
                try:
                    on_message(msg)
                finally:
                    ring.retire(seq)
                    self._rx_space.release()
                self._flush()

        def on_frame(frame):
            drain()  # a doorbell, or slots published before a fallback
            if len(frame) > SLOT_HEADER:
                msg = decode_from(frame)
                counters.received(msg)
                counters.pipe_fallbacks.inc()
                on_message(msg)
                self._flush()

        def on_close():
            drain()  # by the counters: buffered replies beat the EOF
            on_eof()

        await self._connect(loop, on_frame, on_close)

    # -- tx: push from the loop, park when full --------------------------
    def send(self, msg) -> None:
        if self._parked or not self._push(msg):
            self._parked.append(msg)
            self._arm_retry()

    def _push(self, msg) -> bool:
        """Publish *msg* (ring slot or fallback frame); False when full."""
        if SLOT_HEADER + payload_nbytes(msg) <= self.slot_bytes:
            if not self._tx_space.acquire(block=False):
                self._counters.ring_full_stalls.inc()
                return False
            try:
                self._ring_tx.try_push(msg)
            except SlotOverflow:  # a pickled blob outgrew the slot
                self._tx_space.release()
            else:
                self._tx_items.release()
                self._counters.sent(msg)
                return True
        # Oversized for one slot: the control socket is the
        # always-correct slow lane.  Its ``tx_items`` token goes first
        # (see _ShmWorkerChannel).
        self._tx_items.release()
        self._wire.write(encode_frame(msg))
        self._counters.pipe_fallbacks.inc()
        self._counters.sent(msg)
        return True

    def _flush(self) -> None:
        parked = self._parked
        while parked and not self._closed and self._push(parked[0]):
            parked.popleft()
        if parked:
            self._arm_retry()

    def _arm_retry(self) -> None:
        if self._retry is None and not self._closed:
            self._retry = self._loop.call_later(_PARK_RETRY_S,
                                                self._on_retry)

    def _on_retry(self) -> None:
        self._retry = None
        self._flush()

    def occupancy(self) -> Tuple[int, int]:
        if self._closed:
            return 0, 0
        return self._ring_tx.occupancy, self._ring_rx.occupancy

    def close(self) -> None:
        super().close()
        if self._retry is not None:
            self._retry.cancel()
        self._parked.clear()
        # Drop our ring views so the segment can actually unmap; a
        # message the router still holds keeps its own view alive
        # (and thereby the mapping) until it is released.
        self._ring_tx.close()
        self._ring_rx.close()
        segment_tracker.destroy(self._seg_tx.name)
        segment_tracker.destroy(self._seg_rx.name)


class _ShmWorkerChannel(WorkerChannel):
    """Worker endpoint: strictly serial, so leases are implicit.

    The previous in-slot batch view is retired lazily — on the *next*
    ``recv``/``send`` — because by then the executor has consumed the
    operands.  That costs one slot of effective capacity and buys a
    worker loop that never touches lease bookkeeping.

    Every ``tx_items`` token stands for one message: a ring slot, or an
    oversized frame on the control socket, whose token the router
    releases before writing it.  So a token that finds the ring empty
    reads the next frame, and a frame never waits without a token.
    """

    transport_name = "shm"

    def __init__(self, spec: Dict[str, Any]):
        self._control = spec["control"]
        self._seg_tx = _attach_untracked(spec["tx_name"])
        self._seg_rx = _attach_untracked(spec["rx_name"])
        slots, slot_bytes = spec["slots"], spec["slot_bytes"]
        self._ring_in = Ring(self._seg_tx.buf, slots, slot_bytes)
        self._ring_out = Ring(self._seg_rx.buf, slots, slot_bytes)
        self._in_items = spec["tx_items"]
        self._in_space = spec["tx_space"]
        self._out_space = spec["rx_space"]
        self._pending_retire: Optional[int] = None

    def _retire_pending(self) -> None:
        if self._pending_retire is not None:
            self._ring_in.retire(self._pending_retire)
            self._in_space.release()
            self._pending_retire = None

    def recv(self, timeout: float) -> Optional[protocol.Message]:
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if self._in_items.acquire(
                    timeout=max(0.0, min(0.05, remaining))):
                self._retire_pending()
                popped = self._ring_in.pop()
                if popped is None:  # the token of an oversized frame
                    return _recv_message(self._control)
                seq, msg = popped
                self._pending_retire = seq
                return msg
            if self._router_gone():
                raise ChannelClosed("router socket closed")
            if remaining <= 0:
                self._retire_pending()
                return None

    def send(self, msg, shed_if_full: bool = False) -> bool:
        self._retire_pending()
        if SLOT_HEADER + payload_nbytes(msg) <= self._ring_out.slot_bytes:
            while not self._out_space.acquire(
                    timeout=0 if shed_if_full else 0.1):
                if shed_if_full:
                    return False
                if self._router_gone():
                    raise ChannelClosed("router gone while ring full")
            try:
                self._ring_out.try_push(msg)
            except SlotOverflow:
                self._out_space.release()
            else:
                _send_frame(self._control, DOORBELL)
                return True
        _send_frame(self._control, encode_frame(msg))
        return True

    def _router_gone(self) -> bool:
        """EOF on the control socket (peeked: a pending frame stays)."""
        try:
            return not self._control.recv(
                1, socket.MSG_PEEK | socket.MSG_DONTWAIT)
        except BlockingIOError:
            return False
        except OSError:
            return True

    def close(self) -> None:
        self._retire_pending()
        self._ring_in.close()
        self._ring_out.close()
        for seg in (self._seg_tx, self._seg_rx):
            _quiet_close(seg)
        self._control.close()


# ----------------------------------------------------------------------
# Transport factories
# ----------------------------------------------------------------------
class Transport:
    """Factory for per-worker channels (one Transport per supervisor)."""

    name = "?"

    def open_router_channel(self, mp_ctx, cfg, wid: int,
                            counters: WireCounters) -> RouterChannel:
        raise NotImplementedError

    def close(self) -> None:
        """Release transport-wide resources (supervisor shutdown)."""


class PipeTransport(Transport):
    name = "pipe"

    def open_router_channel(self, mp_ctx, cfg, wid: int,
                            counters: WireCounters) -> RouterChannel:
        return _PipeRouterChannel(counters)


class ShmRingTransport(Transport):
    name = "shm"

    def open_router_channel(self, mp_ctx, cfg, wid: int,
                            counters: WireCounters) -> RouterChannel:
        return _ShmRouterChannel(mp_ctx, counters, wid, cfg.shm_slots,
                                 cfg.resolved_slot_bytes())


_TRANSPORTS = {"pipe": PipeTransport, "shm": ShmRingTransport}


def make_transport(name: str) -> Transport:
    try:
        return _TRANSPORTS[name]()
    except KeyError:
        raise ValueError(f"unknown transport {name!r}; expected one of "
                         f"{TRANSPORT_NAMES}") from None


def open_worker_channel(spec) -> WorkerChannel:
    """Build the worker-side channel from a ``spawn_spec`` descriptor."""
    kind, args = spec
    if kind == "pipe":
        return _PipeWorkerChannel(args["sock"])
    if kind == "shm":
        return _ShmWorkerChannel(args)
    raise ValueError(f"unknown worker channel spec {kind!r}")
