"""The cluster wire: one binary frame codec on one socket pair per
worker, every router-side byte handled on the router's event loop.

The router and its workers exchange :mod:`repro.cluster.protocol`
messages.  Every message travels as one **frame**: a 32-byte
:data:`FRAME_HEADER` plus the payload it sizes (:func:`encode_frame` /
:func:`decode_frame`).  A ``uint64`` BATCH or RESULT is raw array bytes;
everything else (heartbeats, CONFIG, chaos hooks, object-lane payloads
above 64 bits) is pickled into the frame.  Frames are written back to
back on a ``socket.socketpair`` created per worker; peer death shows up
as EOF.

On the router side no thread runs.  :class:`PipeRouterChannel` wraps
its socket in an asyncio :class:`~asyncio.Protocol`: ``send`` encodes
and writes from the loop through the non-blocking transport (a full
socket buffers, it never blocks the loop), and ``data_received`` cuts
frames out of the stream and hands each to the router in place.  The
worker side (:class:`WorkerChannel`) is plain blocking I/O: the worker
loop is serial.

Frame header::

    [kind u32][flags u32][msg_id u64][nbytes u64][aux u64] [payload ...]

``nbytes`` sizes the payload; ``aux`` is the op count of a binary
BATCH or RESULT.
"""

from __future__ import annotations

import asyncio
import pickle
import select
import socket
import struct
from typing import Callable, Optional

import numpy as np

from . import protocol

__all__ = [
    "TransportError",
    "ChannelClosed",
    "FRAME_HEADER",
    "RESULT_TRAILER",
    "encode_frame",
    "decode_frame",
    "FrameProtocol",
    "WireCounters",
    "RouterChannel",
    "PipeRouterChannel",
    "WorkerChannel",
    "payload_nbytes",
]


class TransportError(RuntimeError):
    """Base class for transport-layer failures."""


class ChannelClosed(TransportError):
    """The peer is gone (EOF or broken pipe)."""


# ----------------------------------------------------------------------
# Binary frame codec
# ----------------------------------------------------------------------
FRAME_HEADER = 32
#: RESULT trailer: cycles, start_cycle, counters(ops, stalls, batches,
#: cycles) — six uint64s after the four per-op sections.
RESULT_TRAILER = 48

_HDR = struct.Struct("<IIQQQ")        # kind, flags, msg_id, nbytes, aux
_NBYTES = struct.Struct("<Q")
_NBYTES_AT = 16                       # offset of nbytes in the header
_TRAILER = struct.Struct("<QQQQQQ")

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


def encode_frame(msg: protocol.Message):
    """*msg* as one frame (header plus payload, no size limit).

    numpy BATCH/RESULT messages use the raw binary layout (one copy of
    each array); everything else is pickled into the frame.
    """
    if _is_binary_batch(msg):
        _, msg_id, arr = msg
        n = int(arr.shape[0])
        nbytes = n * _BATCH_OP_BYTES
        frame = bytearray(FRAME_HEADER + nbytes)
        _HDR.pack_into(frame, 0, _KIND_CODES[protocol.BATCH], 0,
                       msg_id, nbytes, n)
        if n:
            dst = np.frombuffer(frame, np.uint64, 2 * n, offset=FRAME_HEADER)
            dst.reshape(n, 2)[:] = arr
        return frame
    if _is_binary_result(msg):
        _, msg_id, result = msg
        sums = result["sums"]
        n = int(sums.shape[0])
        nbytes = n * _RESULT_OP_BYTES + RESULT_TRAILER
        frame = bytearray(FRAME_HEADER + nbytes)
        _HDR.pack_into(frame, 0, _KIND_CODES[protocol.RESULT], 0,
                       msg_id, nbytes, n)
        off = FRAME_HEADER
        if n:
            np.frombuffer(frame, np.uint64, n, offset=off)[:] = (
                result["couts"])
            np.frombuffer(frame, np.uint64, n, offset=off + 8 * n)[:] = sums
            np.frombuffer(frame, np.uint8, n, offset=off + 16 * n)[:] = (
                np.asarray(result["stalled"], dtype=bool).view(np.uint8))
            np.frombuffer(frame, np.uint8, n, offset=off + 17 * n)[:] = (
                np.asarray(result["spec_errors"],
                           dtype=bool).view(np.uint8))
        ctr = result.get("counters") or {}
        _TRAILER.pack_into(
            frame, off + _RESULT_OP_BYTES * n,
            int(result["cycles"]), int(result["start_cycle"]),
            int(ctr.get("ops", 0)), int(ctr.get("stalls", 0)),
            int(ctr.get("batches", 0)), int(ctr.get("cycles", 0)))
        return frame
    blob = pickle.dumps(msg, protocol=pickle.HIGHEST_PROTOCOL)
    return _HDR.pack(_KIND_CODES.get(msg[0], 0), _FLAG_PICKLED, 0,
                     len(blob), 0) + blob


def decode_frame(mv: memoryview) -> protocol.Message:
    """Decode one message from the frame *mv*.

    Binary BATCH/RESULT payloads come back as numpy **views into the
    frame**, valid for as long as its bytes are.
    """
    code, flags, msg_id, nbytes, aux = _HDR.unpack_from(mv, 0)
    if flags & _FLAG_PICKLED:
        return pickle.loads(bytes(mv[FRAME_HEADER:FRAME_HEADER + nbytes]))
    kind = _CODE_KINDS.get(code)
    if kind == protocol.BATCH:
        n = aux
        arr = (np.frombuffer(mv, np.uint64, 2 * n,
                             offset=FRAME_HEADER).reshape(n, 2)
               if n else np.empty((0, 2), dtype=np.uint64))
        return (protocol.BATCH, msg_id, arr)
    if kind == protocol.RESULT:
        n = aux
        off = FRAME_HEADER
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
    raise TransportError(f"undecodable frame: code={code} flags={flags}")


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
        self._need = FRAME_HEADER

    def data_received(self, data: bytes) -> None:
        if self._buf:
            self._buf += data
            if len(self._buf) < self._need:
                return
            data = bytes(self._buf)
            self._buf.clear()
        view, off, end = memoryview(data), 0, len(data)
        need = FRAME_HEADER
        while end - off >= FRAME_HEADER:
            need = FRAME_HEADER + _NBYTES.unpack_from(data,
                                                      off + _NBYTES_AT)[0]
            if off + need > end:
                break
            self._deliver(view[off:off + need])
            off += need
            need = FRAME_HEADER
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
# Router side
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
         "messages shipped workers -> router"))

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
    """Router-side endpoint of one worker's socket pair.

    Lifecycle: construct (opens the pair) → ``spawn_spec()`` (the
    worker's end, handed to the child) → ``after_spawn()`` (drop the
    child's end) → ``await start_io(loop, on_message, on_eof)`` →
    ``send`` at will → ``close()``.  Everything after construction runs
    on the event loop.  ``send`` and ``start_io`` are defined by
    :class:`PipeRouterChannel`; perfbench's tracer times them there.
    """

    def __init__(self, counters: WireCounters) -> None:
        self._counters = counters
        self._sock, self._child = socket.socketpair()
        self._wire: Optional[asyncio.Transport] = None

    def spawn_spec(self) -> socket.socket:
        return self._child

    def after_spawn(self) -> None:
        self._child.close()  # parent must drop the child end to see EOF

    async def start_io(self, loop, on_message: Callable,
                       on_eof: Callable) -> None:
        raise NotImplementedError

    def send(self, msg: protocol.Message) -> None:
        """Ship *msg* from the loop (never blocks it)."""
        raise NotImplementedError

    def close(self) -> None:
        self._child.close()  # already closed unless the spawn failed
        if self._wire is not None:
            self._wire.abort()
        else:
            self._sock.close()


class PipeRouterChannel(RouterChannel):
    """Frames both ways on the socket pair, read by a
    :class:`FrameProtocol` on the router's loop."""

    async def start_io(self, loop, on_message, on_eof) -> None:
        counters = self._counters

        def on_frame(frame):
            msg = decode_frame(frame)
            counters.received(msg)
            on_message(msg)

        self._wire, _ = await loop.connect_accepted_socket(
            lambda: FrameProtocol(loop, on_frame, on_eof), self._sock)

    def send(self, msg) -> None:
        self._wire.write(encode_frame(msg))
        self._counters.sent(msg)


# ----------------------------------------------------------------------
# Worker side: blocking frame I/O on the router socket
# ----------------------------------------------------------------------
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


class WorkerChannel:
    """Worker-side endpoint: serial ``recv``/``send`` of frames."""

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._poller = select.poll()
        self._poller.register(sock, select.POLLIN)

    def recv(self, timeout: float) -> Optional[protocol.Message]:
        """Next message, or None after *timeout* of silence.

        Raises :class:`ChannelClosed` when the router is gone.
        """
        if not self._poller.poll(max(0.0, timeout) * 1000):
            return None
        head = _recv_exactly(self._sock, FRAME_HEADER)
        body = _recv_exactly(self._sock,
                             _NBYTES.unpack_from(head, _NBYTES_AT)[0])
        return decode_frame(memoryview(head + body))

    def send(self, msg: protocol.Message) -> None:
        """Ship *msg* to the router.

        Raises :class:`ChannelClosed` when the router is gone — the
        worker loop turns that into a structured death trace rather
        than a silent exit.
        """
        try:
            self._sock.sendall(encode_frame(msg))
        except OSError:
            raise ChannelClosed("router socket closed") from None

    def close(self) -> None:
        self._sock.close()
