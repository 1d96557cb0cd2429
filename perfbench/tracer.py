"""Timing wrappers installed around the program's public layer calls.

Spans are kept in memory as ``(name, start, end, key)`` tuples, on the
``time.perf_counter`` clock (system-wide ``CLOCK_MONOTONIC`` on Linux,
so spans from the server process line up with the client's), and are
written out once at the end.  ``key`` joins spans of one request: the
first operand of a client batch, or a wire message id.  Nothing under
``src/`` is edited; the wrappers replace attributes at run time and
:meth:`Spans.uninstall` restores them.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
import types
from typing import Any, Callable, List, Optional, Tuple

_MISSING = object()
clock = time.perf_counter


class Spans:
    """Span store plus the attribute patches that feed it."""

    def __init__(self) -> None:
        self.records: List[Tuple[str, float, float, Any]] = []
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- patching -------------------------------------------------------
    def _patch(self, owner: Any, attr: str, new: Any) -> None:
        old = vars(owner).get(attr, _MISSING)
        self._undo.append((owner, attr, old))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)

    def wrap(self, owner: Any, attr: str, name: str,
             key: Optional[Callable[..., Any]] = None) -> None:
        """Record a span around every call of ``owner.attr``.

        *key* maps the call's arguments to the span key.  Coroutine
        functions get an async wrapper and generator functions a
        wrapper that times each ``next`` separately.
        """
        fn = getattr(owner, attr)
        rec = self.records.append

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def wrapper(*args, **kwargs):
                k = key(*args, **kwargs) if key else None
                t0 = clock()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    rec((name, t0, clock(), k))
        elif inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    t0 = clock()
                    try:
                        item = next(gen)
                    except StopIteration:
                        rec((name, t0, clock(), 0))
                        return
                    rec((name, t0, clock(), len(item)))
                    yield item
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                k = key(*args, **kwargs) if key else None
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    rec((name, t0, clock(), k))
        self._patch(owner, attr, wrapper)

    def mark(self, name: str, key: Any = None) -> None:
        """Record an instant (zero-length span)."""
        t = clock()
        self.records.append((name, t, t, key))

    # -- output ---------------------------------------------------------
    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.records, fh)


def load(path: str) -> List[Tuple[str, float, float, Any]]:
    with open(path) as fh:
        return [tuple(r) for r in json.load(fh)]


# ----------------------------------------------------------------------
# Server-side layers (installed in the server process by traced_serve)
# ----------------------------------------------------------------------
def _first_operand(_self, pairs, *args, **kwargs) -> int:
    return int(pairs[0][0]) if len(pairs) else -1


def _ops(_self, pairs, *args, **kwargs) -> int:
    return len(pairs)


def install_server(spans: Spans) -> None:
    """Wrap the edge, service, executor, router, transport and spawn."""
    from repro.cluster import protocol
    from repro.cluster.router import ClusterRouter
    from repro.cluster.transport import RouterChannel
    from repro.service import server as edge
    from repro.service.executor import BatchArrays, VlsaBatchExecutor
    from repro.service.service import VlsaService

    timed_json = types.ModuleType("json")
    vars(timed_json).update(vars(edge.json))
    spans.wrap(timed_json, "loads", "server.json_decode")
    spans.wrap(timed_json, "dumps", "server.json_encode")
    spans._patch(edge, "json", timed_json)
    spans.wrap(VlsaService, "submit_batch", "service.submit",
               _first_operand)
    spans.wrap(ClusterRouter, "submit_batch", "router.submit",
               _first_operand)
    spans.wrap(ClusterRouter, "start", "supervisor.start")
    spans.wrap(ClusterRouter, "wait_ready", "supervisor.wait_ready")
    spans.wrap(VlsaBatchExecutor, "execute", "executor.execute", _ops)
    spans.wrap(VlsaBatchExecutor, "coerce_pairs_array", "executor.coerce",
               _ops)
    spans.wrap(VlsaBatchExecutor, "execute_arrays", "executor.kernel", _ops)
    spans.wrap(BatchArrays, "to_outcome", "executor.outcome",
               lambda arrays: arrays.size)

    def send_key(_channel, msg):
        # A BATCH carries every first operand of its payload, so each
        # client request can be joined to the wire message that carried
        # it (requests are coalesced, never split, by the router).
        if msg[0] == protocol.BATCH:
            payload = msg[2]
            firsts = (payload[:, 0].tolist() if hasattr(payload, "shape")
                      else [a for a, _ in payload])
            return [msg[1], firsts]
        return [None, msg[0]]

    spans.wrap(RouterChannel, "send", "transport.send", send_key)
    for cls in _subclasses(RouterChannel):
        if "send" in vars(cls):
            spans.wrap(cls, "send", "transport.send", send_key)
        if "start_io" in vars(cls):
            _wrap_start_io(spans, cls, protocol.RESULT)


def _subclasses(cls: type) -> List[type]:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


def _wrap_start_io(spans: Spans, cls: type, result_kind: str) -> None:
    start_io = cls.start_io

    @functools.wraps(start_io)
    def wrapper(channel, post, on_message, on_eof):
        def on_message_timed(msg):
            if msg[0] == result_kind:
                spans.mark("transport.result", msg[1])
            return on_message(msg)
        return start_io(channel, post, on_message_timed, on_eof)

    spans._patch(cls, "start_io", wrapper)


# ----------------------------------------------------------------------
# Verifier layers (installed in-process)
# ----------------------------------------------------------------------
def install_verify(spans: Spans) -> None:
    """Wrap the oracle, the vector streams and plan compilation."""
    from repro.engine import api
    from repro.verify import differential

    spans.wrap(differential, "_reference", "verify.oracle",
               lambda pairs, *a, **k: len(pairs))
    spans.wrap(differential, "pair_stream", "verify.stream")
    spans.wrap(api, "compile_circuit", "engine.compile")
    spans.wrap(differential.DifferentialVerifier, "run", "verify.run")


def wrap_implementations(spans: Spans, verifier) -> None:
    """Time ``Implementation.run`` of each implementation a verifier holds."""
    for impl in verifier.impls:
        spans.wrap(impl, "run", f"verify.impl.{impl.name}",
                   lambda pairs: len(pairs))
