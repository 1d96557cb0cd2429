"""Pluggable cluster transports: the pipe/pickle path and a
zero-copy shared-memory ring-buffer path.

The router and its workers exchange :mod:`repro.cluster.protocol`
messages.  *How* those messages travel is this module's concern, behind
one small interface:

* :class:`PipeTransport` — the original wire: one duplex
  ``multiprocessing`` pipe per worker, pickle framing for free.  Kept
  both as the portable fallback and as the differential reference the
  shm path is verified against.
* :class:`ShmRingTransport` — two fixed-slot single-producer /
  single-consumer ring buffers per worker (one per direction) living in
  ``multiprocessing.shared_memory`` segments.  Operand blocks and
  result arrays cross the process boundary as **raw bytes plus a tiny
  binary header** — one ``memcpy`` in, numpy *views* out, no pickle on
  the hot path.  Control traffic (heartbeats, CONFIG, chaos hooks)
  still pickles, but into ring slots; a thin control *pipe* carries no
  data and exists only for instant peer-death detection plus a
  fallback lane for messages too large for a slot.

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
the producer back-pressure (block, or shed when the caller says the
message is disposable, e.g. heartbeats).  A pair of semaphores
(``items``/``space``) turns both waits into real blocking waits rather
than busy-polling — important on small hosts.

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

import atexit
import contextlib
import os
import pickle
import queue
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
    blob = pickle.dumps(msg, protocol=pickle.HIGHEST_PROTOCOL)
    if SLOT_HEADER + len(blob) > cap:
        raise SlotOverflow(f"pickled {msg[0]!r} message of "
                           f"{len(blob)} B exceeds slot {cap} B")
    code = _KIND_CODES.get(msg[0], 0)
    _HDR.pack_into(mv, 0, code, _FLAG_PICKLED, 0, len(blob), 0)
    mv[SLOT_HEADER:SLOT_HEADER + len(blob)] = blob
    return SLOT_HEADER + len(blob)


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
    counter); blocking behaviour is provided by the channel layer's
    semaphores.  ``push``/``pop`` here are the non-blocking primitives
    plus an optional spin-free timed wait used directly by tests.
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
        #: producer-side shed/stall accounting (single-threaded access)
        self.pushed = 0
        self.shed = 0
        self.full_stalls = 0

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
        self.pushed += 1
        return True

    def push(self, msg: protocol.Message, timeout: Optional[float] = None,
             policy: str = "block", poll: float = 0.002) -> bool:
        """Push under back-pressure.

        ``policy="block"`` waits (bounded by *timeout*) for a free
        slot; ``policy="shed"`` drops the message immediately when
        full and counts it in :attr:`shed`.  Returns True when the
        message was published.
        """
        if self.try_push(msg):
            return True
        if policy == "shed":
            self.shed += 1
            return False
        self.full_stalls += 1
        deadline = None if timeout is None else time.monotonic() + timeout
        while deadline is None or time.monotonic() < deadline:
            time.sleep(poll)
            if self.try_push(msg):
                return True
        return False

    # -- consumer -------------------------------------------------------
    @property
    def readable(self) -> int:
        """Published slots not yet read by this consumer."""
        return self.produced - self._read

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
# Channel state shared by both implementations
# ----------------------------------------------------------------------
_CLOSE = object()


class _Stats:
    """Plain-int I/O accounting updated by a channel's own threads.

    Each field is only ever written by one thread; the router reads a
    merged snapshot from the event loop via ``RouterChannel.stats()``.
    """

    __slots__ = ("tx_msgs", "tx_bytes", "rx_msgs", "rx_bytes",
                 "pipe_fallbacks", "ring_full_stalls", "shed")

    def __init__(self) -> None:
        self.tx_msgs = 0
        self.tx_bytes = 0
        self.rx_msgs = 0
        self.rx_bytes = 0
        self.pipe_fallbacks = 0
        self.ring_full_stalls = 0
        self.shed = 0


class RouterChannel:
    """Router-side endpoint of one worker's transport (abstract).

    Lifecycle: construct (allocates OS resources) → ``spawn_spec()``
    (picklable descriptor handed to the child) → ``after_spawn()``
    (drop child-side handles) → ``start_io(post, on_message, on_eof)``
    → ``send`` at will → ``close()``.
    """

    transport_name = "?"

    def __init__(self) -> None:
        self._stats = _Stats()
        self._out_q: "queue.SimpleQueue" = queue.SimpleQueue()
        self._threads: List[threading.Thread] = []
        self._stopping = False

    def spawn_spec(self):
        raise NotImplementedError

    def after_spawn(self) -> None:
        pass

    def start_io(self, post: Callable, on_message: Callable,
                 on_eof: Callable) -> None:
        raise NotImplementedError

    def send(self, msg: protocol.Message) -> None:
        """Queue *msg* for the writer thread (never blocks the loop)."""
        self._out_q.put(msg)

    def stats(self) -> Dict[str, int]:
        s = self._stats
        return {"tx_msgs": s.tx_msgs, "tx_bytes": s.tx_bytes,
                "rx_msgs": s.rx_msgs, "rx_bytes": s.rx_bytes,
                "pipe_fallbacks": s.pipe_fallbacks,
                "ring_full_stalls": s.ring_full_stalls,
                "shed": s.shed, "ring_tx_occupancy": 0,
                "ring_rx_occupancy": 0}

    def close(self) -> None:
        raise NotImplementedError

    def _spawn_thread(self, target: Callable, name: str) -> None:
        t = threading.Thread(target=target, name=name, daemon=True)
        t.start()
        self._threads.append(t)

    def _join_threads(self, timeout: float = 1.0) -> None:
        for t in self._threads:
            if t is not threading.current_thread():
                t.join(timeout)


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

    def stats(self) -> Dict[str, int]:
        return {}

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# Pipe transport (the original path, now behind the interface)
# ----------------------------------------------------------------------
class _PipeRouterChannel(RouterChannel):
    transport_name = "pipe"

    def __init__(self, mp_ctx):
        super().__init__()
        self._parent, self._child = mp_ctx.Pipe(duplex=True)

    def spawn_spec(self):
        return ("pipe", {"conn": self._child})

    def after_spawn(self) -> None:
        self._child.close()  # parent must drop the child end to see EOF

    def start_io(self, post, on_message, on_eof) -> None:
        conn, stats = self._parent, self._stats

        def _reader():
            while True:
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    break
                stats.rx_msgs += 1
                stats.rx_bytes += payload_nbytes(msg)
                post(on_message, msg)
            post(on_eof)

        def _writer():
            while True:
                item = self._out_q.get()
                if item is _CLOSE:
                    break
                try:
                    conn.send(item)
                except (BrokenPipeError, OSError):
                    break  # reader will surface the EOF
                stats.tx_msgs += 1
                stats.tx_bytes += payload_nbytes(item)

        self._spawn_thread(_reader, "vlsa-pipe-r")
        self._spawn_thread(_writer, "vlsa-pipe-w")

    def close(self) -> None:
        self._stopping = True
        self._out_q.put(_CLOSE)
        with contextlib.suppress(OSError):
            self._parent.close()
        self._join_threads()


class _PipeWorkerChannel(WorkerChannel):
    transport_name = "pipe"

    def __init__(self, conn):
        self._conn = conn

    def recv(self, timeout: float) -> Optional[protocol.Message]:
        try:
            if not self._conn.poll(timeout):
                return None
            return self._conn.recv()
        except (EOFError, OSError):
            raise ChannelClosed("router pipe closed") from None

    def send(self, msg, shed_if_full: bool = False) -> bool:
        try:
            self._conn.send(msg)
            return True
        except (BrokenPipeError, OSError):
            raise ChannelClosed("router pipe closed") from None

    def close(self) -> None:
        with contextlib.suppress(OSError):
            self._conn.close()


# ----------------------------------------------------------------------
# Shared-memory ring transport
# ----------------------------------------------------------------------
class _ShmRouterChannel(RouterChannel):
    """Router endpoint: two segments, four semaphores, a control pipe.

    ``tx`` is router→worker, ``rx`` worker→router.  Data never touches
    the control pipe except for the oversized-message fallback; its
    real job is EOF: the instant the worker dies the reader thread
    sees it, drains every *published* rx slot (no delivered result is
    thrown away), and only then reports EOF.
    """

    transport_name = "shm"

    def __init__(self, mp_ctx, wid: int, slots: int, slot_bytes: int):
        super().__init__()
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
        self._rx_items = mp_ctx.Semaphore(0)
        self._rx_space = mp_ctx.Semaphore(slots)
        self._parent, self._child = mp_ctx.Pipe(duplex=True)
        # In-order lease retirement: the loop thread releases result
        # leases, the reader thread releases control-message leases;
        # the lock keeps `consumed` advancing strictly sequentially.
        self._lease_lock = threading.Lock()
        self._lease_done: Dict[int, bool] = {}

    def spawn_spec(self):
        return ("shm", {
            "control": self._child,
            "tx_name": self._seg_tx.name, "rx_name": self._seg_rx.name,
            "slots": self.slots, "slot_bytes": self.slot_bytes,
            "tx_items": self._tx_items, "tx_space": self._tx_space,
            "rx_items": self._rx_items, "rx_space": self._rx_space,
        })

    def after_spawn(self) -> None:
        self._child.close()

    # -- lease management (rx ring) -------------------------------------
    def _release(self, seq: int) -> None:
        with self._lease_lock:
            self._lease_done[seq] = True
            while self._lease_done.get(self._ring_rx.consumed):
                done_seq = self._ring_rx.consumed
                del self._lease_done[done_seq]
                self._ring_rx.retire(done_seq)
                self._rx_space.release()

    def start_io(self, post, on_message, on_eof) -> None:
        stats = self._stats

        def _deliver(msg, seq):
            # Runs on the event loop: hand the (possibly view-backed)
            # message to the router, then retire the slot so the
            # worker regains the space.
            try:
                on_message(msg)
            finally:
                if seq is not None:
                    self._release(seq)

        def _pop_and_post() -> bool:
            popped = self._ring_rx.pop()
            if popped is None:
                return False
            seq, msg = popped
            stats.rx_msgs += 1
            stats.rx_bytes += payload_nbytes(msg)
            post(_deliver, msg, seq)
            return True

        def _reader():
            control = self._parent
            while not self._stopping:
                if self._rx_items.acquire(timeout=0.05):
                    _pop_and_post()
                    # opportunistically drain what else is published
                    while self._rx_items.acquire(block=False):
                        if not _pop_and_post():
                            break
                try:
                    has_control = control.poll(0)
                except OSError:
                    break  # control pipe closed under us (teardown)
                if has_control:
                    try:
                        msg = control.recv()
                    except (EOFError, OSError):
                        break
                    stats.rx_msgs += 1
                    stats.rx_bytes += payload_nbytes(msg)
                    stats.pipe_fallbacks += 1
                    post(_deliver, msg, None)
            # Worker gone (or closing): drain every published slot by
            # the counters — buffered replies beat the death report.
            while _pop_and_post():
                pass
            post(on_eof)

        def _writer():
            ring = self._ring_tx
            while True:
                item = self._out_q.get()
                if item is _CLOSE:
                    break
                size = payload_nbytes(item)
                if SLOT_HEADER + max(size, 0) > self.slot_bytes:
                    # Oversized for one slot: the control pipe is the
                    # always-correct slow lane.
                    try:
                        self._parent.send(item)
                        stats.pipe_fallbacks += 1
                        stats.tx_msgs += 1
                        stats.tx_bytes += size
                    except (BrokenPipeError, OSError):
                        break
                    continue
                # Block for slot space; bail out when closing or the
                # worker stops consuming entirely (EOF path cleans up).
                acquired = False
                while not self._stopping:
                    if self._tx_space.acquire(timeout=0.1):
                        acquired = True
                        break
                    stats.ring_full_stalls += 1
                if not acquired:
                    break
                try:
                    ring.try_push(item)
                except SlotOverflow:  # pickled blob grew past the slot
                    self._tx_space.release()
                    try:
                        self._parent.send(item)
                        stats.pipe_fallbacks += 1
                    except (BrokenPipeError, OSError):
                        break
                    continue
                stats.tx_msgs += 1
                stats.tx_bytes += size
                self._tx_items.release()

        self._spawn_thread(_reader, "vlsa-shm-r")
        self._spawn_thread(_writer, "vlsa-shm-w")

    def stats(self) -> Dict[str, int]:
        out = super().stats()
        with contextlib.suppress(ValueError):  # released after close()
            out["ring_tx_occupancy"] = self._ring_tx.occupancy
            out["ring_rx_occupancy"] = self._ring_rx.occupancy
        return out

    def close(self) -> None:
        self._stopping = True
        self._out_q.put(_CLOSE)
        with contextlib.suppress(OSError):
            self._parent.close()
        self._join_threads()
        # Drop our ring views so the segment can actually unmap; any
        # message still queued on the loop keeps its own view alive
        # (and thereby the mapping) until it is processed.
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
        self._out_items = spec["rx_items"]
        self._out_space = spec["rx_space"]
        self._pending_retire: Optional[int] = None
        self.sheds = 0
        self.sent_ring = 0
        self.sent_fallback = 0

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
                if popped is None:  # counter/sem skew after chaos
                    continue
                seq, msg = popped
                self._pending_retire = seq
                return msg
            try:
                has_control = self._control.poll(0)
            except OSError:
                raise ChannelClosed("router control pipe closed") \
                    from None
            if has_control:
                try:
                    msg = self._control.recv()  # oversized fallback
                except (EOFError, OSError):
                    raise ChannelClosed("router control pipe closed") \
                        from None
                self._retire_pending()
                return msg
            if remaining <= 0:
                self._retire_pending()
                return None

    def send(self, msg, shed_if_full: bool = False) -> bool:
        self._retire_pending()
        size = payload_nbytes(msg)
        if SLOT_HEADER + size > self._ring_out.slot_bytes:
            try:
                self._control.send(msg)
            except (BrokenPipeError, OSError):
                raise ChannelClosed("router control pipe closed") \
                    from None
            self.sent_fallback += 1
            return True
        while True:
            if self._out_space.acquire(timeout=0 if shed_if_full
                                       else 0.1):
                break
            if shed_if_full:
                self.sheds += 1
                return False
            try:
                has_control = self._control.poll(0)
            except OSError:
                raise ChannelClosed("router gone while ring full") \
                    from None
            if has_control and self._control_eof():
                raise ChannelClosed("router gone while ring full")
        try:
            self._ring_out.try_push(msg)
        except SlotOverflow:
            self._out_space.release()
            try:
                self._control.send(msg)
            except (BrokenPipeError, OSError):
                raise ChannelClosed("router control pipe closed") \
                    from None
            self.sent_fallback += 1
            return True
        self.sent_ring += 1
        self._out_items.release()
        return True

    def _control_eof(self) -> bool:
        try:
            self._control.recv()
            return False  # a late fallback message; worker drops it
        except (EOFError, OSError):
            return True

    def stats(self) -> Dict[str, int]:
        return {"sheds": self.sheds, "sent_ring": self.sent_ring,
                "sent_fallback": self.sent_fallback}

    def close(self) -> None:
        self._retire_pending()
        self._ring_in.close()
        self._ring_out.close()
        for seg in (self._seg_tx, self._seg_rx):
            _quiet_close(seg)
        with contextlib.suppress(OSError):
            self._control.close()


# ----------------------------------------------------------------------
# Transport factories
# ----------------------------------------------------------------------
class Transport:
    """Factory for per-worker channels (one Transport per supervisor)."""

    name = "?"

    def open_router_channel(self, mp_ctx, cfg, wid: int) -> RouterChannel:
        raise NotImplementedError

    def close(self) -> None:
        """Release transport-wide resources (supervisor shutdown)."""


class PipeTransport(Transport):
    name = "pipe"

    def open_router_channel(self, mp_ctx, cfg, wid: int) -> RouterChannel:
        return _PipeRouterChannel(mp_ctx)


class ShmRingTransport(Transport):
    name = "shm"

    def open_router_channel(self, mp_ctx, cfg, wid: int) -> RouterChannel:
        return _ShmRouterChannel(mp_ctx, wid, cfg.shm_slots,
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
        return _PipeWorkerChannel(args["conn"])
    if kind == "shm":
        return _ShmWorkerChannel(args)
    raise ValueError(f"unknown worker channel spec {kind!r}")
