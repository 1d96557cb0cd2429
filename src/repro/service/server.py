"""TCP front-end: newline-delimited JSON over asyncio streams.

A thin network face for a :class:`~repro.service.service.VlsaFrontEnd`
(an in-process :class:`~repro.service.VlsaService` or a
:class:`~repro.cluster.ClusterRouter`), stdlib plus numpy.  One JSON
object per line in, one per line out:

* ``{"a": 123, "b": 456}`` (optional ``"id"``, echoed back) →
  ``{"id": ..., "sum": 579, "cout": 0, "stalled": false,
  "latency_cycles": 1, "accept_cycle": 17}``
* ``{"pairs": [[1, 2], [3, 4]]}`` → ``{"id": ..., "sums": [...],
  "couts": [...], "stalled": [...], "latencies": [...],
  "accept_cycle": 17}`` — one admitted batch, one shard, one reply;
  this is the verb external load generators use to drive the cluster's
  coalesced wire path at full depth.
* ``{"cmd": "metrics"}`` → ``{"metrics": {...}}`` (registry snapshot)
* ``{"cmd": "prometheus"}`` → ``{"prometheus": "..."}`` (text format)
* ``{"cmd": "info"}`` → service configuration
* malformed input / overload / timeout → ``{"id": ..., "error": "..."}``
  with a machine-readable ``code``; a line over :data:`LINE_LIMIT`
  (64 KiB) gets ``code: "too_large"`` and its connection is closed.
  A failed submission is answered by the type of its exception
  (``overloaded``, ``timeout``, ``closed``, any other serving-layer
  error ``unavailable``, anything else ``internal``) and the
  connection stays open.

The batch verb has a hot path.  A line written exactly as
``json.dumps({"id": <int>, "pairs": [[a, b], ...]})`` writes it, with
or without the ``id`` — at least one pair, every operand a plain
decimal below ``2**64 - 1`` — is parsed by :func:`parse_pairs_line`
straight into an ``(n, 2)`` uint64 array, and its reply is rendered
by :func:`render_batch_reply` from the
:class:`~repro.service.BatchResponse` result columns, which stay numpy
arrays end to end.  Any other line — other spacing or key order, extra
keys, a non-integer ``id``, floats, strings, negative or ``>= 2**64 - 1``
operands, leading zeros — takes the exact fallback: ``json.loads``,
then the same submission (which builds the same uint64 array) and the
same renderer, so both paths give byte-identical replies.

Requests on one connection are answered in order; the service's
admission control applies per request, so an overloaded server degrades
by rejecting (with ``code: "overloaded"``) rather than by buffering
without bound.

When `uvloop <https://github.com/MagicStack/uvloop>`_ is installed,
:func:`install_uvloop` swaps in its event-loop policy — the CLI calls
it before serving; everything here runs identically on the default
loop.
"""

from __future__ import annotations

import asyncio
import json
import logging
import re
from typing import Any, Optional, Tuple

import numpy as np

from .service import (
    BatchResponse,
    RequestTimeoutError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
    VlsaFrontEnd,
)

__all__ = ["VlsaServer", "serve_tcp", "install_uvloop", "LINE_LIMIT",
           "parse_pairs_line", "render_batch_reply"]

log = logging.getLogger(__name__)

#: Longest request line the edge reads, in bytes (asyncio's stream
#: limit).  A 1024-pair request of 64-bit operands (~46 KB) fits.
LINE_LIMIT = 1 << 16

_HOT_HEAD = re.compile(
    rb'\{(?:"id": (-?(?:0|[1-9][0-9]{0,18})), )?"pairs": \[')
_DIGITS = b"0123456789"
_TO_SPACE = bytes.maketrans(b"[],", b"   ")
_POW10 = np.array([10 ** k for k in range(1, 20)], dtype=np.uint64)
_SATURATED = np.uint64((1 << 64) - 1)
_FLAGS = np.array([b"false, ", b"true, "])  # S7: "true, " ends in NUL
_COMMA_SPACE = np.frombuffer(b", ", dtype=np.uint8)


def parse_pairs_line(line: bytes
                     ) -> Optional[Tuple[Optional[int], np.ndarray]]:
    """``(id, pairs)`` of a hot-shape batch line, else None.

    The hot shape is exactly what ``json.dumps`` writes for
    ``{"id": <int>, "pairs": [[a, b], ...]}`` or ``{"pairs": [...]}``,
    with an ``id`` of at most 19 digits, at least one pair and every
    operand a canonical decimal below ``2**64 - 1``, plus an optional
    trailing newline.  The id comes back as None when the line has
    none; *pairs* comes back as an ``(n, 2)`` uint64 array.  None means
    "not the hot shape": the caller decodes the line with
    ``json.loads`` instead.
    """
    head = _HOT_HEAD.match(line)
    if head is None:
        return None
    end = len(line) - line.endswith(b"\n")
    if line[end - 2:end] != b"]}":
        return None
    body = line[head.end():end - 2]
    # Structure: with the digits deleted, n pairs leave exactly this.
    shape = body.translate(None, _DIGITS)
    n = (len(shape) + 2) // 6
    if n == 0 or shape != b"[, ], " * (n - 1) + b"[, ]":
        return None
    values = np.fromstring(body.translate(_TO_SPACE), dtype=np.uint64,
                           sep=" ")
    # An empty token leaves a value short; fromstring saturates a token
    # at or past 2**64 - 1 to that value instead of raising.
    if values.size != 2 * n or values.max() == _SATURATED:
        return None
    # Leading zeros: canonical decimals hold exactly the digits present.
    canonical = values.size + int(np.searchsorted(
        _POW10, values, side="right").sum())
    if canonical != len(body) - len(shape):
        return None
    req_id = head.group(1)
    return (None if req_id is None else int(req_id)), values.reshape(n, 2)


def _json_ints(values) -> bytes:
    """``json.dumps`` of a column of ints (as a list).

    A numpy column of single digits (carry-outs, and latencies while
    ``1 + recovery_cycles`` is one digit) is written as interleaved
    ``"d, "`` byte cells with no Python object built.
    """
    if not isinstance(values, np.ndarray):
        return json.dumps(values).encode()
    if values.size and values.max() > 9:
        return json.dumps(values.tolist()).encode()
    cells = np.empty((values.size, 3), dtype=np.uint8)
    cells[:, 0] = values
    cells[:, 0] += ord("0")
    cells[:, 1:] = _COMMA_SPACE
    return b"[" + cells.tobytes()[:-2] + b"]"


def _json_flags(flags) -> bytes:
    """``json.dumps`` of a column of booleans."""
    if not isinstance(flags, np.ndarray):
        return json.dumps([bool(f) for f in flags]).encode()
    cells = _FLAGS[np.asarray(flags, dtype=bool).view(np.uint8)]
    return b"[" + cells.tobytes().replace(b"\0", b"")[:-2] + b"]"


def render_batch_reply(req_id: Any, resp: BatchResponse) -> bytes:
    """The batch verb's reply line, byte-identical to ``json.dumps``.

    Rendered from the response's columns as stored, so numpy columns
    never become Python lists except for ``json.dumps`` of multi-digit
    ints (the sums).  An ``int`` id is written with ``str``, which
    agrees with ``json.dumps`` for ints (not for bools).
    """
    req = (str(req_id) if type(req_id) is int else json.dumps(req_id))
    return b"".join((
        b'{"id": ', req.encode(),
        b', "sums": ', _json_ints(resp.column("sums")),
        b', "couts": ', _json_ints(resp.column("couts")),
        b', "stalled": ', _json_flags(resp.column("stalled")),
        b', "latencies": ', _json_ints(resp.column("latencies")),
        b', "accept_cycle": ', str(resp.accept_cycle).encode(),
        b"}\n"))


def _reply(obj: dict) -> bytes:
    return json.dumps(obj).encode() + b"\n"


#: Reply codes of failed submissions, by exception type; the first
#: match wins.
_ERROR_CODES = ((ServiceOverloadedError, "overloaded"),
                (RequestTimeoutError, "timeout"),
                (ServiceClosedError, "closed"),
                (ServiceError, "unavailable"))


def _error_reply(req_id: Any, exc: Exception) -> bytes:
    """The reply to a submission that raised *exc*, coded by its type;
    an unexpected exception is ``internal`` and logged with its
    traceback."""
    code = next((code for cls, code in _ERROR_CODES
                 if isinstance(exc, cls)), "internal")
    if code == "internal":
        log.error("request %r failed", req_id, exc_info=exc)
    return _reply({"id": req_id, "error": str(exc) or repr(exc),
                   "code": code})


def install_uvloop() -> bool:
    """Adopt uvloop's event-loop policy when available.

    Returns True when uvloop is now the policy.  Missing uvloop is not
    an error — the container may simply not ship it — so callers can
    unconditionally invoke this before ``asyncio.run``.
    """
    try:
        import uvloop
    except ImportError:
        return False
    asyncio.set_event_loop_policy(uvloop.EventLoopPolicy())
    return True


class VlsaServer:
    """Serves a :class:`~repro.service.service.VlsaFrontEnd` over TCP as
    JSON lines: a :class:`VlsaService`, or a
    :class:`~repro.cluster.ClusterRouter`, which makes this the
    cluster's network front end too.

    Args:
        service: The (started or not-yet-started) front end to expose.
        host, port: Bind address (``port=0`` picks a free port).
        request_timeout: Per-request deadline passed to ``submit``.
    """

    def __init__(self, service: VlsaFrontEnd, host: str = "127.0.0.1",
                 port: int = 0, request_timeout: Optional[float] = 30.0):
        self.service = service
        self.host = host
        self.port = port
        self.request_timeout = request_timeout
        self._server: "Optional[asyncio.AbstractServer]" = None

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` once started."""
        if self._server is None:
            raise RuntimeError("server not started")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def start(self) -> "VlsaServer":
        """Start the service (if needed) and begin listening."""
        await self.service.start()
        await self.service.wait_ready()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=LINE_LIMIT)
        self.port = self.address[1]
        self.service.tracer.emit("server_listening", host=self.host,
                                 port=self.port)
        return self

    async def stop(self) -> None:
        """Stop listening, then stop the service."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.stop()

    async def __aenter__(self) -> "VlsaServer":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    async def serve_forever(self) -> None:
        """Block until the listening socket is closed."""
        assert self._server is not None
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass

    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self.service.registry.counter(
            "connections_total", "TCP connections accepted").inc()
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:  # over the stream limit: reply, hang up
                    self.service.registry.counter(
                        "oversized_lines_total",
                        "Request lines over the stream limit").inc()
                    writer.write(b'{"error": "request line too large", '
                                 b'"code": "too_large"}\n')
                    await writer.drain()
                    break
                if not line:
                    break
                writer.write(await self._handle_line(line))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _handle_line(self, line: bytes) -> bytes:
        """Answer one request line with one reply line."""
        hot = parse_pairs_line(line)
        if hot is not None:
            return await self._serve_pairs(*hot)
        return await self._handle_json(line)

    async def _handle_json(self, line: bytes) -> bytes:
        """Any request line, decoded by ``json.loads``."""
        try:
            msg = json.loads(line)
            if not isinstance(msg, dict):
                raise ValueError("expected a JSON object")
        except ValueError as exc:
            return _reply({"error": str(exc), "code": "bad_request"})
        req_id = msg.get("id")

        cmd = msg.get("cmd")
        if cmd == "metrics":
            return _reply({"id": req_id,
                           "metrics": self.service.metrics_json()})
        if cmd == "prometheus":
            return _reply({"id": req_id,
                           "prometheus": self.service.metrics_prometheus()})
        if cmd == "info":
            info = dict(self.service.describe())
            info["id"] = req_id
            return _reply(info)
        if cmd is not None:
            return _reply({"id": req_id, "error": f"unknown cmd {cmd!r}",
                           "code": "bad_request"})

        if "pairs" in msg:
            try:
                pairs = [(int(a), int(b)) for a, b in msg["pairs"]]
            except (TypeError, ValueError, OverflowError):
                return _reply({
                    "id": req_id, "code": "bad_request",
                    "error": "pairs must be [[a, b], ...] of integers"})
            return await self._serve_pairs(req_id, pairs)

        if "a" not in msg or "b" not in msg:
            return _reply({"id": req_id, "error": "need operands 'a' and 'b'",
                           "code": "bad_request"})
        try:
            a, b = int(msg["a"]), int(msg["b"])
        except (TypeError, ValueError, OverflowError):
            return _reply({"id": req_id, "error": "operands must be integers",
                           "code": "bad_request"})
        try:
            resp = await self.service.submit(
                a, b, timeout=self.request_timeout)
        except Exception as exc:
            return _error_reply(req_id, exc)
        return _reply({"id": req_id, "sum": resp.sum_out, "cout": resp.cout,
                       "stalled": resp.stalled,
                       "latency_cycles": resp.latency_cycles,
                       "accept_cycle": resp.accept_cycle})

    async def _serve_pairs(self, req_id: Any, pairs) -> bytes:
        """Submit one batch (array or int pairs) and render its reply."""
        try:
            resp = await self.service.submit_batch(
                pairs, timeout=self.request_timeout)
        except Exception as exc:
            return _error_reply(req_id, exc)
        return render_batch_reply(req_id, resp)


async def serve_tcp(service: VlsaFrontEnd, host: str = "127.0.0.1",
                    port: int = 0,
                    duration: Optional[float] = None) -> VlsaServer:
    """Run a :class:`VlsaServer` until *duration* elapses (or forever).

    Returns:
        The stopped server (metrics remain inspectable).
    """
    server = VlsaServer(service, host=host, port=port)
    async with server:
        if duration is None:
            await server.serve_forever()
        else:
            await asyncio.sleep(duration)
    return server
