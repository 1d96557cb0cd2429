"""Big-int operand admission: one operand array per batch.

``VlsaService.submit_batch`` and ``ClusterRouter.submit_batch`` admit a
batch as one ``(n, 2)`` operand array, of uint64 lanes at width 64 and
of Python-int lanes above.  The replies must be what the per-pair model
says, whatever the operands arrive as: a list of pairs, a ``uint64`` or
``dtype=object`` array, negative values, values at or above ``2^64``
(and ``2^width``).  They are checked as the lists the response reads as
and as the TCP edge's reply line, which is rendered from the columns as
stored.
"""

import asyncio
import json
import random

import numpy as np
import pytest

from repro.cluster import ClusterConfig, ClusterRouter
from repro.cluster import protocol
from repro.engine.functional import functional_model
from repro.service import VlsaService
from repro.service.server import render_batch_reply

WINDOW, RECOVERY = 8, 2


def _operands(width, n=300, seed=1):
    """Random pairs plus the awkward ones: negative, at or above 2^64
    and 2^width, all-ones, zero."""
    rng = random.Random(seed)
    pairs = [(rng.getrandbits(width), rng.getrandbits(width))
             for _ in range(n)]
    top = (1 << width) - 1
    pairs += [(-1, 1), (-(1 << 70), 5), (1 << 64, (1 << 64) + 7),
              ((1 << width) + 3, top), (top, top), (0, 0), (top, 1),
              ((1 << 130) - 1, -2)]
    return pairs


def _forms(width, pairs):
    """The batch as a list, and as the array a client could send."""
    mask = (1 << width) - 1
    masked = [(a & mask, b & mask) for a, b in pairs]
    dtype = np.uint64 if width <= 64 else object
    return {"list": pairs, "array": np.array(masked, dtype=dtype)}


def _expected(width, pairs):
    """Per-pair replies from the functional model on Python ints."""
    model = functional_model("aca", width=width, window=WINDOW)
    mask = (1 << width) - 1
    sums, couts, stalled, latencies = [], [], [], []
    for a, b in pairs:
        a &= mask
        b &= mask
        flag = bool(model.flags_error(a, b))
        sums.append((a + b) & mask)
        couts.append((a + b) >> width)
        stalled.append(flag)
        latencies.append(1 + (RECOVERY if flag else 0))
    return {"sums": sums, "couts": couts, "stalled": stalled,
            "latencies": latencies}


def _exact(width, pairs):
    """What the router's degraded (exact, never stalling) mode answers."""
    mask = (1 << width) - 1
    masked = [(a & mask, b & mask) for a, b in pairs]
    return {"sums": [(a + b) & mask for a, b in masked],
            "couts": [(a + b) >> width for a, b in masked],
            "stalled": [False] * len(pairs),
            "latencies": [1] * len(pairs)}


def _assert_reply(resp, want):
    got = {name: getattr(resp, name) for name in want}
    assert got == want
    for name in want:
        assert all(type(v) is type(w)
                   for v, w in zip(got[name], want[name])), name
    assert resp.stall_count == sum(want["stalled"])
    assert resp.cycles == sum(want["latencies"])
    line = render_batch_reply(7, resp)
    assert line == json.dumps(
        {"id": 7, **want, "accept_cycle": resp.accept_cycle}
    ).encode() + b"\n"


@pytest.mark.parametrize("width", [64, 128])
def test_bigint_service_replies(width):
    pairs = _operands(width)
    want = _expected(width, pairs)

    async def main():
        svc = VlsaService(width=width, window=WINDOW,
                          recovery_cycles=RECOVERY)
        async with svc:
            for form in _forms(width, pairs).values():
                _assert_reply(await svc.submit_batch(form), want)
            # A batch coalesced with scalars in one micro-batch.
            outs = await asyncio.gather(
                svc.submit_batch(pairs), svc.submit(-1, 1 << 64))
            _assert_reply(outs[0], want)
            solo = _expected(width, [(-1, 1 << 64)])
            assert outs[1].sum_out == solo["sums"][0]
            assert outs[1].cout == solo["couts"][0]

    asyncio.run(main())


def _cfg(width, **kw):
    return ClusterConfig(width=width, window=WINDOW,
                         recovery_cycles=RECOVERY, workers=1,
                         heartbeat_interval=0.05, **kw)


@pytest.mark.parametrize("width", [64, 128])
def test_bigint_router_replies(width):
    pairs = _operands(width)
    want, exact = _expected(width, pairs), _exact(width, pairs)
    cfg = _cfg(width, restart_backoff_base=60.0, restart_backoff_max=60.0)

    async def main():
        async with ClusterRouter(cfg) as router:
            await router.wait_ready()
            forms = _forms(width, pairs)
            for form in forms.values():
                _assert_reply(await router.submit_batch(form), want)
            # Two requests coalesced into one wire batch.
            outs = await asyncio.gather(
                *(router.submit_batch(form) for form in forms.values()))
            for out in outs:
                _assert_reply(out, want)
            # With no live worker the router adds exactly in-process.
            router.supervisor.live[0].send((protocol.CRASH, 3))
            while router.supervisor.live:
                await asyncio.sleep(0.01)
            for form in forms.values():
                _assert_reply(await router.submit_batch(form), exact)
            one = _exact(width, [(-1, 1 << 64)])
            resp = await router.submit(-1, 1 << 64)
            assert (resp.sum_out, resp.cout) == (one["sums"][0],
                                                 one["couts"][0])

    asyncio.run(main())


def test_bigint_pool_ships_array_columns(monkeypatch):
    """Above 64 bits a worker's RESULT columns are arrays (``dtype=object``
    lanes), pickled into their frame, and the replies are the
    service's."""
    width = 96
    pairs = _operands(width)
    columns = []
    on_message = ClusterRouter._on_message

    def spy(self, handle, msg):
        if msg[0] == protocol.RESULT:
            columns.append({name: type(msg[2][name]) for name in
                            ("sums", "couts", "stalled", "spec_errors")})
        return on_message(self, handle, msg)

    monkeypatch.setattr(ClusterRouter, "_on_message", spy)

    async def main():
        svc = VlsaService(width=width, window=WINDOW,
                          recovery_cycles=RECOVERY)
        async with svc:
            want = [await svc.submit_batch(pairs),
                    await svc.submit(-1, 1 << 64)]
        async with ClusterRouter(_cfg(width)) as router:
            await router.wait_ready()
            got = [await router.submit_batch(pairs),
                   await router.submit(-1, 1 << 64)]
        assert got == want

    asyncio.run(main())
    assert len(columns) == 2
    assert all(set(c.values()) == {np.ndarray} for c in columns)


def test_bigint_service_slices_array_columns():
    """At width 96 an array batch's response keeps the micro-batch's
    result arrays (sliced, never turned into lists), and its reply line
    is still exactly ``json.dumps`` of the list form."""
    width = 96
    pairs = _operands(width)
    want = _expected(width, pairs)
    arr = _forms(width, pairs)["array"]

    async def main():
        svc = VlsaService(width=width, window=WINDOW,
                          recovery_cycles=RECOVERY)
        async with svc:
            solo = await svc.submit_batch(arr)
            # Coalesced with a second request: slices of one batch.
            both = await asyncio.gather(svc.submit_batch(arr),
                                        svc.submit_batch(arr[:5]))
        return [solo, *both]

    resps = asyncio.run(main())
    for resp in resps:
        for name in ("sums", "couts", "stalled", "latencies"):
            assert isinstance(resp.column(name), np.ndarray), name
    line = render_batch_reply(7, resps[0])
    assert line == json.dumps(
        {"id": 7, **want, "accept_cycle": resps[0].accept_cycle}
    ).encode() + b"\n"
    _assert_reply(resps[0], want)
    _assert_reply(resps[1], want)
    _assert_reply(resps[2], {k: v[:5] for k, v in want.items()})
