"""Edge workloads: ``repro serve`` in its own process, one asyncio client.

The server is launched through the program's CLI (``python -m repro
serve --no-save``, or ``traced_serve.py`` for the traced run) and driven
over two TCP connections from this single-threaded client.  Operands
and request bytes are built before the window opens; replies are kept
as raw bytes and parsed and checked only after it closes.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import signal
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from common import (OUT, ROOT, HostSpeed, Percentiles, corrected,
                    group_pids, median, program_env, tree_peak_rss_mb)
import layers

clock = time.perf_counter

WIDTH = 64
CONNECTIONS = 2
#: Launches per run; ``setup_s`` is their median, the last one serves.
SETUP_LAUNCHES = 5
#: The window is run as this many back-to-back repetitions, replies
#: checked between them; timing metrics are their median, which keeps
#: a burst of host contention in one repetition out of the result and
#: bounds the reply bytes held at once.  Host speed is sampled between
#: repetitions.
REPEATS = 20
WARMUP_REQUESTS = 4          # per connection, before the window
START_TIMEOUT = 60.0         # server launch until listening
REPLY_GRACE = 10.0           # after the window, for outstanding replies
STOP_GRACE = 5.0             # SIGTERM until SIGKILL of the process group
LINE_LIMIT = 1 << 22         # client read buffer; replies are ~35 KB


@dataclass(frozen=True)
class EdgeWorkload:
    name: str
    workers: int             # 0 = the single in-process service
    pairs: int               # additions per request
    slo_ms: float            # fixed latency limit for slo_met_frac
    rate: float = 0.0        # requests/s; 0 = closed loop
    propagate_share: float = 0.0  # share of all-propagate pairs
    pool: int = 0            # distinct requests cycled (closed loop)
    #: Whether the window's times follow the host speed probe, and so
    #: are corrected by it (see ``common.corrected``).
    follows_speed: bool = True

    @property
    def open_loop(self) -> bool:
        return self.rate > 0


WORKLOADS = {
    # 1024 pairs is the largest request under the edge's 64 KiB line
    # limit (~46 KB), so JSON, the micro-batcher and the kernel dominate.
    "edge_bulk": EdgeWorkload("edge_bulk", workers=0, pairs=1024,
                              slo_ms=50.0, pool=128),
    # Under a fifth of the closed-loop capacity (~563 req/s) of a
    # one-worker pipe cluster: at a third, host slow-downs of up to 1.9x
    # pushed whole repetitions into a backlog (their p50 20-48 ms), and
    # at half the p99 swung 20-158 ms across seeds.  Small requests, so
    # per-message cost (router, wire, worker) dominates.
    "edge_small_cluster": EdgeWorkload(
        "edge_small_cluster", workers=1, pairs=64, slo_ms=25.0,
        rate=100.0, propagate_share=0.10, follows_speed=False),
}


# ----------------------------------------------------------------------
# Inputs and the independent answer key
# ----------------------------------------------------------------------
@dataclass
class Requests:
    lines: List[bytes]       # encoded request lines
    first: np.ndarray        # first operand of each request (span key)
    a: np.ndarray            # (requests, pairs) uint64
    b: np.ndarray


def make_requests(wl: EdgeWorkload, count: int,
                  rng: np.random.Generator) -> Requests:
    a = rng.integers(0, 1 << WIDTH, size=(count, wl.pairs), dtype=np.uint64,
                     endpoint=False)
    b = rng.integers(0, 1 << WIDTH, size=(count, wl.pairs), dtype=np.uint64,
                     endpoint=False)
    if wl.propagate_share:
        # b = ~a makes every bit propagate, so the detector must fire.
        n = a.size
        chosen = rng.permutation(n) < int(round(wl.propagate_share * n))
        chosen = chosen.reshape(a.shape)
        b[chosen] = ~a[chosen]
    lines = []
    for k in range(count):
        pairs = np.stack([a[k], b[k]], axis=1).tolist()
        lines.append(json.dumps({"id": k, "pairs": pairs}).encode() + b"\n")
    return Requests(lines=lines, first=a[:, 0].copy(), a=a, b=b)


def answer_key(a: np.ndarray, b: np.ndarray, window: int):
    """Sums, carry-outs and stall flags from first principles.

    ``sum = a + b mod 2^64`` with the carry-out read off the wrap; the
    detector fires iff ``a ^ b`` holds a run of at least ``window``
    propagate bits (for ``window >= width``: iff it is all ones),
    checked here by a plain linear AND of shifted copies.
    """
    s = a + b                                  # wraps mod 2^64
    cout = s < a
    p = a ^ b
    if window >= WIDTH:
        stalled = p == np.uint64((1 << WIDTH) - 1)
    else:
        run = p.copy()
        for k in range(1, window):
            run &= p >> np.uint64(k)
        stalled = run != 0
    return s, cout, stalled


def check_reply(line: bytes, exp_sum, exp_cout, exp_stall) -> str:
    """``"ok"``, an error reply's ``code``, ``"malformed"`` or ``"wrong"``."""
    try:
        msg = json.loads(line)
    except ValueError:
        return "malformed"
    if not isinstance(msg, dict):
        return "malformed"
    if "error" in msg or "code" in msg:
        return str(msg.get("code") or "error")
    try:
        sums = np.array(msg["sums"], dtype=np.uint64)
        couts = np.array(msg["couts"], dtype=np.int64)
        stalled = np.array(msg["stalled"], dtype=bool)
        lat = np.array(msg["latencies"], dtype=np.int64)
    except (KeyError, TypeError, ValueError, OverflowError):
        return "malformed"
    n = exp_sum.shape[0]
    if not all(x.shape == (n,) for x in (sums, couts, stalled, lat)):
        return "wrong"
    if (np.array_equal(sums, exp_sum) and np.array_equal(couts, exp_cout)
            and np.array_equal(stalled, exp_stall)
            and np.array_equal(lat, 1 + exp_stall.astype(np.int64))):
        return "ok"
    return "wrong"


# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------
class Server:
    """One ``repro serve`` process (its own process group)."""

    def __init__(self, wl: EdgeWorkload, spans_path: Optional[str] = None):
        serve = ["serve", "--no-save", "--port", "0", "--width", str(WIDTH),
                 "--family", "aca", "--workers", str(wl.workers)]
        if spans_path is None:
            self.cmd = [sys.executable, "-m", "repro"] + serve
        else:
            launcher = os.path.join(ROOT, "perfbench", "traced_serve.py")
            self.cmd = [sys.executable, launcher, spans_path] + serve
        self.proc: Optional[asyncio.subprocess.Process] = None
        self.port = 0
        self.stderr: List[str] = []
        self.killed = False
        self._drain: Optional[asyncio.Task] = None

    async def start(self) -> float:
        """Launch and wait until it accepts connections; returns seconds."""
        t0 = clock()
        self.proc = await asyncio.create_subprocess_exec(
            *self.cmd, cwd=ROOT, env=program_env(),
            stdout=asyncio.subprocess.DEVNULL,
            stderr=asyncio.subprocess.PIPE, start_new_session=True)
        deadline = t0 + START_TIMEOUT
        while True:
            try:
                raw = await asyncio.wait_for(self.proc.stderr.readline(),
                                             max(0.1, deadline - clock()))
            except asyncio.TimeoutError:
                raise RuntimeError("server did not start listening "
                                   f"within {START_TIMEOUT:.0f}s") from None
            if not raw:
                raise RuntimeError("server exited before listening:\n"
                                   + "".join(self.stderr[-20:]))
            line = raw.decode(errors="replace")
            self.stderr.append(line)
            if line.startswith("listening on "):
                self.port = int(line.rsplit(":", 1)[1])
                break
        elapsed = clock() - t0
        self._drain = asyncio.create_task(self._drain_stderr())
        return elapsed

    async def _drain_stderr(self) -> None:
        while True:
            raw = await self.proc.stderr.readline()
            if not raw:
                return
            self.stderr.append(raw.decode(errors="replace"))
            del self.stderr[:-50]

    def peak_rss_mb(self) -> float:
        return tree_peak_rss_mb(self.proc.pid)

    async def stop(self) -> None:
        """SIGTERM, then SIGKILL the whole group after a grace period."""
        if self.proc is None:
            return
        pgid = self.proc.pid
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                await asyncio.wait_for(self.proc.wait(), STOP_GRACE)
            except asyncio.TimeoutError:
                self.killed = True
                _killpg(pgid)
                await self.proc.wait()
        deadline = clock() + STOP_GRACE
        while group_pids(pgid) and clock() < deadline:
            _killpg(pgid)          # workers or helpers left behind
            await asyncio.sleep(0.05)
        if self._drain is not None:
            await self._drain


def _killpg(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


# ----------------------------------------------------------------------
# Client
# ----------------------------------------------------------------------
@dataclass
class Sent:
    idx: int                 # request index
    t_send: float
    due: float
    t_recv: Optional[float] = None
    reply: bytes = b""
    reply_bytes: int = 0
    fate: str = "timeout"    # until a reply or a drop says otherwise


async def _connect(port: int):
    return [await asyncio.open_connection("127.0.0.1", port,
                                          limit=LINE_LIMIT)
            for _ in range(CONNECTIONS)]


async def _close(conns) -> None:
    for _, writer in conns:
        writer.close()
    for _, writer in conns:
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def _roundtrip(conn, line: bytes) -> bytes:
    reader, writer = conn
    writer.write(line)
    await writer.drain()
    return await reader.readline()


async def _closed_conn(conn, reqs: Requests, order, deadline: float,
                       log: List[Sent]) -> None:
    reader, writer = conn
    for idx in order:
        if clock() >= deadline:
            return
        t0 = clock()
        rec = Sent(idx=idx, t_send=t0, due=t0)
        log.append(rec)
        try:
            writer.write(reqs.lines[idx])
            await writer.drain()
            reply = await reader.readline()
        except (ConnectionError, OSError, ValueError):
            reply = b""
        if not reply:
            rec.fate = "dropped"
            return
        rec.t_recv, rec.reply, rec.fate = clock(), reply, "replied"


async def _open_sender(conn, reqs: Requests, items: List[Sent]) -> None:
    _, writer = conn
    for rec in items:
        delay = rec.due - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        rec.t_send = clock()
        writer.write(reqs.lines[rec.idx])
        await writer.drain()


async def _open_receiver(conn, items: List[Sent]) -> None:
    reader, _ = conn
    for k, rec in enumerate(items):
        try:
            reply = await reader.readline()
        except (ConnectionError, OSError, ValueError):
            reply = b""
        if not reply:
            for lost in items[k:]:
                lost.fate = "dropped"
            return
        rec.t_recv, rec.reply, rec.fate = clock(), reply, "replied"


async def _bounded(tasks, limit: float) -> None:
    """Wait for *tasks*; cancel what is still running after *limit*."""
    done, pending = await asyncio.wait(tasks, timeout=limit)
    for task in pending:
        task.cancel()
    results = await asyncio.gather(*tasks, return_exceptions=True)
    for res in results:
        if isinstance(res, (ConnectionError, OSError)):
            continue  # counted through the requests' fates
        if isinstance(res, BaseException) and not isinstance(
                res, asyncio.CancelledError):
            raise res


async def drive(wl: EdgeWorkload, conns, reqs: Requests, indices: range,
                seconds: float, rng: np.random.Generator
                ) -> Tuple[List[Sent], float]:
    """Run one window over requests *indices*; returns (log, start)."""
    if wl.open_loop:
        start = clock() + 0.05
        # A Poisson process conditioned on its count: sorted uniforms.
        dues = start + np.sort(rng.uniform(0.0, seconds, size=len(indices)))
        per_conn = [[] for _ in conns]
        for k, (idx, due) in enumerate(zip(indices, dues.tolist())):
            per_conn[k % len(conns)].append(Sent(idx=idx, t_send=0.0,
                                                 due=due))
        tasks = []
        for c, conn in enumerate(conns):
            tasks.append(asyncio.create_task(
                _open_sender(conn, reqs, per_conn[c])))
            tasks.append(asyncio.create_task(
                _open_receiver(conn, per_conn[c])))
        await _bounded(tasks, seconds + 0.05 + REPLY_GRACE)
        return [rec for items in per_conn for rec in items if rec.t_send], start
    log: List[Sent] = []
    start = clock()
    deadline = start + seconds
    pool = len(indices)
    tasks = []
    for c, conn in enumerate(conns):
        # Each connection walks the pool from its own offset.
        order = itertools.cycle(np.roll(np.asarray(indices),
                                        -c * pool // len(conns)).tolist())
        tasks.append(asyncio.create_task(
            _closed_conn(conn, reqs, order, deadline, log)))
    await _bounded(tasks, seconds + REPLY_GRACE)
    return log, start


# ----------------------------------------------------------------------
# Scoring
# ----------------------------------------------------------------------
def score(wl: EdgeWorkload, log: List[Sent], key, start: float,
          seconds: float) -> Dict[str, object]:
    """Check every reply of one repetition against the answer *key*."""
    s, cout, stalled = key
    fates: Counter = Counter()
    ok_ops = ok_in_window = slo_met = 0
    latencies = []
    last = start
    for rec in log:
        if rec.fate == "replied":
            rec.fate = check_reply(rec.reply, s[rec.idx], cout[rec.idx],
                                   stalled[rec.idx])
        rec.reply_bytes, rec.reply = len(rec.reply), b""  # free the bytes
        fates[rec.fate] += 1
        if rec.fate != "ok":
            continue
        wall = rec.t_recv - rec.due
        latencies.append(wall)
        ok_ops += wl.pairs
        slo_met += wall <= wl.slo_ms / 1e3
        if wl.open_loop or rec.t_recv <= start + seconds:
            ok_in_window += wl.pairs
        last = max(last, rec.t_recv)
    # Open loop: throughput is counted from the first due time to the
    # last reply, so a server that falls behind the schedule shows it.
    first_due = min((rec.due for rec in log), default=start)
    window_s = (last - first_due if wl.open_loop and last > first_due
                else seconds)
    return {"attempted": len(log) * wl.pairs, "ok_ops": ok_ops,
            "fates": fates, "slo_met": slo_met,
            "ops_per_s": ok_in_window / window_s,
            "latency": Percentiles(latencies), "latencies": latencies,
            "lateness": [rec.t_send - rec.due for rec in log],
            "window": (start, start + seconds)}


def combine(wl: EdgeWorkload, reps: List[Dict[str, object]]
            ) -> Dict[str, object]:
    """Median timing metrics over repetitions; counts pooled."""
    attempted = sum(r["attempted"] for r in reps)
    fates = sum((r["fates"] for r in reps), Counter())
    return {
        "attempted": attempted,
        "failed": attempted - sum(r["ok_ops"] for r in reps),
        "fates": dict(fates),
        "ops_per_s": median(r["ops_per_s"] for r in reps),
        "latency_p50": median(r["latency"].p50 for r in reps
                              if r["latency"].n),
        "latency_note": (
            "p50 per repetition (ms): "
            + ", ".join(f"{r['latency'].p50 * 1e3:.3f}" for r in reps
                        if r["latency"].n)
            + "\n  all repetitions pooled: "
            + Percentiles(x for r in reps for x in r["latencies"]
                          ).describe(1e3, " ms")),
        "slo_met_frac": (sum(r["slo_met"] for r in reps)
                         / max(1, attempted // wl.pairs)),
        "lateness": Percentiles(x for r in reps for x in r["lateness"]),
        "log": [rec for r in reps for rec in r["log"]],
        "window_s": sum(r["window"][1] - r["window"][0] for r in reps),
        "window": (reps[0]["window"][0], reps[-1]["window"][1]),
    }


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------
async def _serve(wl: EdgeWorkload, server: Server, reqs: Requests,
                 seconds: float, rng, traced: bool,
                 speed: Optional[HostSpeed] = None):
    """Warm up, run the repetitions, check; returns (result, snapshots).

    *speed*, if given, is sampled before the first repetition and after
    each one, while no request is in flight.
    """
    conns = await _connect(server.port)
    reps = []
    snaps = []
    try:
        info = json.loads(await _roundtrip(conns[0], b'{"cmd": "info"}\n'))
        if info.get("width") != WIDTH or info.get("family") != "aca":
            raise RuntimeError(f"unexpected server configuration: {info}")
        key = answer_key(reqs.a, reqs.b, int(info["window"]))
        for k in range(WARMUP_REQUESTS):
            for conn in conns:
                await _roundtrip(conn, reqs.lines[k % len(reqs.lines)])
        if traced:
            snaps.append(await _metrics(conns[0]))
        per_rep = len(reqs.lines) // REPEATS
        if speed is not None:
            speed.sample()
        for k in range(REPEATS):
            indices = (range(k * per_rep, (k + 1) * per_rep) if wl.open_loop
                       else range(len(reqs.lines)))
            cpu0, t0 = time.process_time(), clock()
            log, start = await drive(wl, conns, reqs, indices,
                                     seconds / REPEATS, rng)
            cpu, wall = time.process_time() - cpu0, clock() - t0
            rep = score(wl, log, key, start, seconds / REPEATS)
            rep.update(log=log, cpu=cpu, wall=wall)
            reps.append(rep)
            if speed is not None:
                speed.sample()
        if traced:
            snaps.append(await _metrics(conns[0]))
    finally:
        await _close(conns)
    result = combine(wl, reps)
    result["cpu_frac"] = (sum(r["cpu"] for r in reps)
                          / sum(r["wall"] for r in reps))
    result["rss_mb"] = server.peak_rss_mb()
    return result, snaps


async def _metrics(conn) -> dict:
    return json.loads(await _roundtrip(conn, b'{"cmd": "metrics"}\n'))[
        "metrics"]


def _requests_for(wl: EdgeWorkload, seconds: float,
                  rng: np.random.Generator) -> Requests:
    # Open loop: every repetition sends its own requests.
    count = (int(round(wl.rate * seconds / REPEATS)) * REPEATS
             if wl.open_loop else wl.pool)
    return make_requests(wl, count, rng)


async def run_untraced(wl: EdgeWorkload, seed: int, seconds: float,
                       launches: int = SETUP_LAUNCHES) -> Dict[str, object]:
    rng = np.random.default_rng(seed)
    reqs = _requests_for(wl, seconds, rng)
    setups = []
    speed = HostSpeed()
    server = None
    try:
        for k in range(launches):
            server = Server(wl)
            setups.append(await server.start())
            if k < launches - 1:
                await server.stop()
        result, _ = await _serve(wl, server, reqs, seconds, rng,
                                 traced=False, speed=speed)
    finally:
        if server is not None:
            await server.stop()
    result["setups"] = setups
    result["setup_s"] = median(setups)
    result["server_killed"] = server.killed
    return corrected(result, speed, wl.follows_speed)


async def run_traced(wl: EdgeWorkload, seed: int, seconds: float,
                     out_dir: str) -> Dict[str, object]:
    """Untraced window, then a traced one; per-layer metrics from both."""
    plain = await run_untraced(wl, seed, seconds, launches=1)
    plain.update(plain["raw"])   # compared with the traced window as is
    rng = np.random.default_rng(seed)
    reqs = _requests_for(wl, seconds, rng)
    os.makedirs(out_dir, exist_ok=True)
    spans_path = os.path.join(out_dir, "server_spans.json")
    if os.path.exists(spans_path):
        os.remove(spans_path)
    server = Server(wl, spans_path=spans_path)
    try:
        await server.start()
        traced, snaps = await _serve(wl, server, reqs, seconds, rng,
                                     traced=True)
    finally:
        await server.stop()
    if not os.path.exists(spans_path):
        raise RuntimeError("traced server wrote no spans (killed: "
                           f"{server.killed})")
    return layers.edge_layers(wl, plain, traced, reqs, spans_path, snaps,
                              out_dir)


def run(name: str, seed: int, seconds: float, trace: bool):
    wl = WORKLOADS[name]
    if trace:
        out_dir = os.path.join(OUT, f"{name}-seed{seed}")
        return asyncio.run(run_traced(wl, seed, seconds, out_dir))
    return asyncio.run(run_untraced(wl, seed, seconds))
