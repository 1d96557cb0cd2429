"""Workload generator and load driver for :class:`VlsaService`.

Workloads (operand-pair streams) cover the distributions the related
work cares about:

* ``uniform`` — i.i.d. uniform operands, the paper's own assumption;
  the observed stall rate must match the served family's exact flag
  rate.
* ``biased`` — per-bit one-probability ``alpha`` approximated by
  AND/OR-combining uniform words (supported alphas ``1/2^k`` and
  ``1 - 1/2^k``; the closest is chosen).  The analytic stall rate is the
  served family's biased
  :meth:`~repro.families.AdderFamily.flag_probability` — Kedem-style
  workload-dependent accuracy, now measurable end to end.
* ``adversarial`` — every pair carries a maximal propagate chain with a
  generate feeding it, so the detector fires on *every* addition (the
  worst case an attacker can force; mean latency pins at
  ``1 + recovery``).
* ``attack`` — the additions the Section-1 ciphertext-only attack
  actually performs, captured by running :func:`repro.apps.run_attack`
  with a recording adder and replayed verbatim (32-bit ARX traffic —
  correlated, non-uniform, the cipher workload the paper motivates).
* ``mixed`` — uniform with a configurable adversarial fraction, for
  SLO-under-attack experiments.

:func:`run_loadgen` drives any workload through an in-process service
with a configurable number of concurrent clients submitting chunked
batches, and returns a :class:`LoadgenReport` comparing observed mean
latency against the analytic ``1 + P(stall) * recovery_cycles``.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..analysis.error_model import expected_latency_cycles, pg_probabilities
from ..engine.context import RunContext, resolve_rng
from ..families import get_family
from .metrics import MetricsRegistry
from .service import VlsaService

__all__ = ["WORKLOADS", "LoadgenReport", "make_workload", "run_loadgen",
           "capture_attack_pairs"]

WORKLOADS = ("uniform", "biased", "adversarial", "attack", "mixed",
             "drift")

# Per-bit propagate probability of the drift workload's final phase:
# i.i.d. propagate-heavy bits (OR of 3 uniform words selects the
# propagate mask), statistically adversarial for carry chains while
# staying inside the i.i.d. model the autotuner's forecasts assume —
# unlike the fixed `adversarial` workload, whose deterministic
# full-width chains are maximally correlated by design.
DRIFT_ADVERSARIAL_P = 1.0 - 0.5 ** 3

#: One chunk of operand pairs: an ``(n, 2)`` lane array, ``uint64`` at
#: widths up to 64 and ``dtype=object`` Python ints above.
PairChunk = np.ndarray


def _uniform_words(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.integers(0, np.iinfo(np.uint64).max, size=n,
                        dtype=np.uint64, endpoint=True)


def _chunk_uniform(rng: np.random.Generator, width: int,
                   n: int) -> PairChunk:
    mask = (1 << width) - 1
    if width <= 64:
        word_mask = np.uint64(mask)
        a = _uniform_words(rng, n) & word_mask
        b = _uniform_words(rng, n) & word_mask
        return np.stack([a, b], axis=1)
    words = (width + 63) // 64

    def glue() -> np.ndarray:
        # Little-endian 64-bit limbs, drawn in order, as Python ints.
        value = np.zeros(n, dtype=object)
        for w in range(words):
            value |= _uniform_words(rng, n).astype(object) << (64 * w)
        return value & mask

    a = glue()
    return np.stack([a, glue()], axis=1)


def _bias_combine(rng: np.random.Generator, n: int,
                  alpha: float) -> Tuple[np.ndarray, float]:
    """Words whose bits are one with probability ≈ *alpha*.

    AND-ing k uniform words gives ``2^-k``; OR-ing gives ``1 - 2^-k``.
    Returns the words and the alpha actually achieved.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must be in (0, 1)")
    candidates = [(abs(alpha - 0.5 ** k), "and", k) for k in range(1, 7)]
    candidates += [(abs(alpha - (1 - 0.5 ** k)), "or", k)
                   for k in range(2, 7)]
    _, mode, k = min(candidates)
    out = _uniform_words(rng, n)
    for _ in range(k - 1):
        extra = _uniform_words(rng, n)
        out = (out & extra) if mode == "and" else (out | extra)
    achieved = 0.5 ** k if mode == "and" else 1 - 0.5 ** k
    return out, achieved


@dataclass
class Workload:
    """A named operand-pair stream plus its analytic stall probability."""

    name: str
    width: int
    chunks: Iterator[PairChunk]
    analytic_stall_probability: Optional[float] = None
    params: Dict[str, Any] = field(default_factory=dict)


def make_workload(name: str, width: int, window: int, ops: int,
                  chunk: int = 1024, alpha: float = 0.75,
                  adversarial_fraction: float = 0.1,
                  rng: Optional[np.random.Generator] = None,
                  ctx: Optional[RunContext] = None,
                  family: str = "aca") -> Workload:
    """Build the operand stream for workload *name*.

    Args:
        name: One of :data:`WORKLOADS`.
        width: Operand bitwidth (``attack`` forces 32 — ARX block size).
        window: The served family's primary knob (for the analytic
            stall probability).
        ops: Total additions to generate.
        chunk: Additions per submitted batch.
        alpha: Per-bit one-probability target (``biased`` only).
        adversarial_fraction: Stalling fraction (``mixed`` only).
        rng: Seeded generator (default: from *ctx* / process default).
        ctx: Optional run context for RNG resolution.
        family: The served adder family (for the analytic stall
            probability).
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; "
                         f"expected one of {WORKLOADS}")
    rng = resolve_rng(rng, ctx)
    fam = get_family(family)
    params = fam.resolve_params(width, window=window)

    def stall(p_propagate: float,
              p_generate: Optional[float] = None) -> float:
        return fam.flag_probability(width, p_propagate, p_generate,
                                    **params)

    if name == "uniform":
        def gen() -> Iterator[PairChunk]:
            done = 0
            while done < ops:
                n = min(chunk, ops - done)
                yield _chunk_uniform(rng, width, n)
                done += n
        return Workload(name, width, gen(), stall(0.5))

    if name == "biased":
        def gen_biased() -> Iterator[PairChunk]:
            word_mask = np.uint64((1 << width) - 1)
            done = 0
            while done < ops:
                n = min(chunk, ops - done)
                a_words, _ = _bias_combine(rng, n, alpha)
                b_words, _ = _bias_combine(rng, n, alpha)
                yield np.stack([a_words & word_mask, b_words & word_mask],
                               axis=1)
                done += n
        if width > 64:
            raise ValueError("biased workload supports widths up to 64")
        # Probe once so the achieved alpha is known up front.
        _, achieved = _bias_combine(np.random.default_rng(0), 1, alpha)
        p_prop, p_gen, _ = pg_probabilities(achieved, achieved)
        return Workload(name, width, gen_biased(), stall(p_prop, p_gen),
                        params={"alpha": achieved, "p_propagate": p_prop})

    if name == "adversarial":
        def gen_adv() -> Iterator[PairChunk]:
            mask = (1 << width) - 1
            dtype = np.uint64 if width <= 64 else object
            done = 0
            while done < ops:
                n = min(chunk, ops - done)
                # 0111…1 + 1: a full-width propagate chain fed by a
                # generate at bit 0 — detector fires, recovery runs.
                noise = rng.integers(0, 4, size=n).astype(dtype)
                yield np.stack([(mask >> 1) ^ noise, 1 | noise], axis=1)
                done += n
        return Workload(name, width, gen_adv(), 1.0)

    if name == "mixed":
        frac = adversarial_fraction
        if not (0.0 <= frac <= 1.0):
            raise ValueError("adversarial_fraction must be in [0, 1]")
        analytic = frac * 1.0 + (1 - frac) * stall(0.5)

        def gen_mixed() -> Iterator[PairChunk]:
            mask = (1 << width) - 1
            done = 0
            while done < ops:
                n = min(chunk, ops - done)
                pairs = _chunk_uniform(rng, width, n)
                pairs[rng.random(n) < frac] = (mask >> 1, 1)
                yield pairs
                done += n
        return Workload(name, width, gen_mixed(), analytic,
                        params={"adversarial_fraction": frac})

    if name == "drift":
        # Nonstationary stream for autotune convergence and soak runs:
        # the operand distribution shifts uniform -> biased ->
        # propagate-heavy adversarial in three equal phases, chunks
        # never spanning a shift.  Each phase is i.i.d. per bit, so the
        # analytic stall probability is exact *within* a phase (recorded
        # per phase in params); the stream as a whole has none.
        if width > 64:
            raise ValueError("drift workload supports widths up to 64")
        n1 = ops // 3
        n2 = ops // 3
        n3 = ops - n1 - n2
        phase_uniform = make_workload("uniform", width, window, n1,
                                      chunk=chunk, rng=rng, family=family)
        phase_biased = make_workload("biased", width, window, n2,
                                     chunk=chunk, alpha=alpha, rng=rng,
                                     family=family)
        q = DRIFT_ADVERSARIAL_P

        def gen_propheavy() -> Iterator[PairChunk]:
            word_mask = np.uint64((1 << width) - 1)
            done = 0
            while done < n3:
                n = min(chunk, n3 - done)
                # propagate mask: each bit propagates w.p. q (i.i.d.);
                # a uniform, b = a ^ p_mask realizes exactly that
                # per-bit propagate/generate/kill split.
                p_mask = _uniform_words(rng, n)
                for _ in range(2):
                    p_mask |= _uniform_words(rng, n)
                a_words = _uniform_words(rng, n) & word_mask
                b_words = (a_words ^ p_mask) & word_mask
                yield np.stack([a_words, b_words], axis=1)
                done += n

        def gen_drift() -> Iterator[PairChunk]:
            yield from phase_uniform.chunks
            yield from phase_biased.chunks
            yield from gen_propheavy()

        phases = [
            {"name": "uniform", "ops": n1,
             "p_propagate": 0.5,
             "analytic_stall_rate": phase_uniform.analytic_stall_probability},
            {"name": "biased", "ops": n2,
             "p_propagate": phase_biased.params.get("p_propagate"),
             "alpha": phase_biased.params.get("alpha"),
             "analytic_stall_rate": phase_biased.analytic_stall_probability},
            {"name": "adversarial", "ops": n3,
             "p_propagate": q,
             "analytic_stall_rate": stall(q)},
        ]
        return Workload("drift", width, gen_drift(), None,
                        params={"phases": phases, "alpha": alpha})

    # attack: capture the ARX cipher's actual add stream and replay it.
    pairs = _capture_attack_pairs(ops, rng)

    def gen_attack() -> Iterator[PairChunk]:
        for lo in range(0, len(pairs), chunk):
            yield pairs[lo:lo + chunk]
    return Workload("attack", 32, gen_attack(), None,
                    params={"captured_ops": len(pairs)})


def capture_attack_pairs(ops: int,
                         rng: np.random.Generator) -> PairChunk:
    """Public capture entry point (the verify subsystem replays these)."""
    return _capture_attack_pairs(ops, rng)


def _capture_attack_pairs(ops: int,
                          rng: np.random.Generator) -> PairChunk:
    """The (a, b) streams the ciphertext-only attack really adds.

    Runs :func:`repro.apps.attack.run_attack` on a small corpus with a
    recording adder; repeats (with fresh keys) until *ops* pairs are
    captured.  Returns them as an ``(ops, 2)`` uint64 array.
    """
    from ..apps.attack import run_attack
    from ..apps.blockcipher import ArxCipher, exact_adder

    captured: List[Tuple[int, int]] = []
    while len(captured) < ops:
        key = int(rng.integers(0, 1 << 16))
        cipher = ArxCipher(key, rounds=4)
        plaintext = bytes(int(x) for x in rng.integers(97, 123, size=256))
        ciphertext = cipher.encrypt_bytes(plaintext)

        def recording_adder(a: int, b: int) -> int:
            if len(captured) < ops:
                captured.append((a & 0xFFFFFFFF, b & 0xFFFFFFFF))
            return exact_adder(a, b)

        candidates = [key, (key + 1) & 0xFFFF, (key ^ 0x5A5A) & 0xFFFF,
                      (key + 7) & 0xFFFF]
        run_attack(ciphertext, key, candidates, adder=recording_adder,
                   rounds=4)
    return np.array(captured[:ops], dtype=np.uint64).reshape(-1, 2)


@dataclass
class LoadgenReport:
    """Aggregate outcome of one load-generation run."""

    workload: str
    width: int
    window: int
    backend: str
    ops: int
    wall_seconds: float
    adds_per_second: float
    mean_latency_cycles: float
    analytic_latency_cycles: Optional[float]
    stall_rate: float
    analytic_stall_rate: Optional[float]
    spec_error_rate: float
    total_cycles: int
    rejected: int
    timeouts: int
    retries: int
    queue_depth_peak: float
    p50_wall_ms: float
    p95_wall_ms: float
    p99_wall_ms: float
    metrics: Dict[str, Any] = field(default_factory=dict)
    params: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        out = dict(self.__dict__)
        out["wall_seconds"] = round(self.wall_seconds, 6)
        out["adds_per_second"] = round(self.adds_per_second, 1)
        return out

    def render(self) -> str:
        """Human-readable summary table."""
        ana_lat = ("n/a" if self.analytic_latency_cycles is None
                   else f"{self.analytic_latency_cycles:.6f}")
        ana_stall = ("n/a" if self.analytic_stall_rate is None
                     else f"{self.analytic_stall_rate:.3e}")
        lines = [
            f"loadgen: workload={self.workload} width={self.width} "
            f"window={self.window} backend={self.backend}",
            f"  ops                  {self.ops}",
            f"  wall seconds         {self.wall_seconds:.3f}",
            f"  adds/second          {self.adds_per_second:,.0f}",
            f"  mean latency cycles  {self.mean_latency_cycles:.6f}"
            f"   (analytic {ana_lat})",
            f"  stall rate           {self.stall_rate:.3e}"
            f"   (analytic {ana_stall})",
            f"  spec error rate      {self.spec_error_rate:.3e}",
            f"  total cycles         {self.total_cycles}",
            f"  request wall ms      p50={self.p50_wall_ms:.3f} "
            f"p95={self.p95_wall_ms:.3f} p99={self.p99_wall_ms:.3f}",
            f"  rejected/timeouts    {self.rejected}/{self.timeouts}"
            f"  (retries {self.retries})",
            f"  queue depth peak     {self.queue_depth_peak:.0f}",
        ]
        if self.params:
            lines.append(f"  params               {self.params}")
        return "\n".join(lines)


async def _drive(service, workload: Workload,
                 concurrency: int, timeout: Optional[float],
                 retries: int) -> None:
    chunk_iter = workload.chunks
    lock = asyncio.Lock()

    async def client() -> None:
        while True:
            async with lock:
                try:
                    chunk = next(chunk_iter)
                except StopIteration:
                    return
            await service.submit_batch(chunk, timeout=timeout,
                                       retries=retries)

    await asyncio.gather(*(client() for _ in range(concurrency)))


async def _drive_tcp(host: str, port: int, workload: Workload,
                     concurrency: int, timeout: Optional[float],
                     retries: int, stats: Dict[str, Any]) -> None:
    """Drive the workload through real sockets speaking JSON lines.

    Each client opens its own TCP connection and submits chunks with
    the batch verb (``{"pairs": [...]}``); ``overloaded`` replies are
    retried with exponential backoff up to *retries* times, mirroring
    the in-process clients' ``submit_batch(retries=...)`` contract.
    Client-observed request wall times and reply-derived totals land in
    *stats* — the only vantage point an external target offers.
    """
    chunk_iter = workload.chunks
    lock = asyncio.Lock()

    async def client() -> None:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            while True:
                async with lock:
                    try:
                        chunk = next(chunk_iter)
                    except StopIteration:
                        return
                request = (json.dumps({"pairs": chunk.tolist()}).encode()
                           + b"\n")
                for attempt in range(retries + 1):
                    t0 = time.perf_counter()
                    writer.write(request)
                    await writer.drain()
                    line = await reader.readline()
                    if not line:
                        raise ConnectionError("server closed connection")
                    wall = time.perf_counter() - t0
                    reply = json.loads(line)
                    code = reply.get("code")
                    if code is None:
                        stats["ops"] += len(reply["sums"])
                        stats["stalls"] += sum(
                            1 for f in reply["stalled"] if f)
                        stats["latency_sum"] += sum(reply["latencies"])
                        stats["walls"].append(wall)
                        stats["last_accept_cycle"] = max(
                            stats["last_accept_cycle"],
                            reply["accept_cycle"])
                        break
                    if code == "overloaded" and attempt < retries:
                        stats["retries"] += 1
                        await asyncio.sleep(0.005 * (1 << attempt))
                        continue
                    stats["rejected" if code == "overloaded"
                          else "timeouts"] += 1
                    break
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    await asyncio.gather(*(client() for _ in range(concurrency)))


async def _tcp_info(host: str, port: int) -> Dict[str, Any]:
    """One ``{"cmd": "info"}`` round trip (external-target probe)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(b'{"cmd": "info"}\n')
        await writer.drain()
        line = await reader.readline()
        if not line:
            raise ConnectionError("server closed connection")
        return json.loads(line)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass


def run_loadgen(workload: str = "uniform", ops: int = 100000,
                width: int = 64, window: Optional[int] = None,
                chunk: int = 1024, concurrency: int = 4,
                queue_capacity: int = 64, max_batch_ops: int = 8192,
                recovery_cycles: int = 1,
                alpha: float = 0.75, adversarial_fraction: float = 0.1,
                timeout: Optional[float] = 30.0, retries: int = 8,
                target: str = "service", workers: int = 2,
                connect: Optional[Tuple[str, int]] = None,
                ctx: Optional[RunContext] = None,
                registry: Optional[MetricsRegistry] = None
                ) -> LoadgenReport:
    """Drive *ops* additions through a serving target.

    Args:
        target: ``"service"`` (one in-process :class:`VlsaService`, the
            default), ``"cluster"`` (a
            :class:`~repro.cluster.ClusterRouter` over *workers* real
            worker processes — the full wire path), or ``"tcp"``
            (real-socket JSON-lines clients against a
            :class:`~repro.service.server.VlsaServer`: self-hosted over
            a cluster/service when *connect* is None, else an external
            already-running server at ``connect=(host, port)``).
        workers: Cluster pool size (cluster-backed targets only;
            ``workers=0`` under ``target="tcp"`` self-hosts a plain
            in-process service).
        connect: ``(host, port)`` of an external server
            (``target="tcp"`` only); the report is then built from the
            clients' own vantage point plus an ``info`` probe.

    Returns:
        A :class:`LoadgenReport`; ``report.metrics`` holds the full
        registry snapshot (also what ``results/BENCH_service.json`` is
        built from).  Cluster runs add pool health (restarts, degraded
        and redirected requests) and transport accounting to
        ``report.params``.
    """
    if workload == "attack":
        width = 32
    if connect is not None and target != "tcp":
        raise ValueError("connect=(host, port) requires target='tcp'")
    if target == "tcp" and connect is not None:
        return _run_loadgen_external(
            workload=workload, ops=ops, width=width, window=window,
            chunk=chunk, concurrency=concurrency, alpha=alpha,
            adversarial_fraction=adversarial_fraction, timeout=timeout,
            retries=retries, connect=connect, ctx=ctx)
    serve_tcp = target == "tcp"
    is_cluster = target == "cluster" or (serve_tcp and workers > 0)
    if is_cluster:
        from ..cluster import ClusterConfig, ClusterRouter

        cfg = ClusterConfig(
            width=width, window=window,
            recovery_cycles=recovery_cycles, workers=workers,
            max_batch_ops=max_batch_ops,
            worker_queue_ops=max(queue_capacity, 1) * max(chunk, 1))
        service = ClusterRouter(cfg, ctx=ctx, registry=registry)
    elif target == "service" or serve_tcp:
        service = VlsaService(width=width, window=window,
                              recovery_cycles=recovery_cycles,
                              queue_capacity=queue_capacity,
                              max_batch_ops=max_batch_ops,
                              ctx=ctx, registry=registry)
    else:
        raise ValueError(f"unknown loadgen target {target!r}; "
                         f"expected 'service', 'cluster' or 'tcp'")
    wl = make_workload(workload, service.width, service.window, ops,
                       chunk=chunk, alpha=alpha,
                       adversarial_fraction=adversarial_fraction, ctx=ctx,
                       family=service.family)

    async def main() -> float:
        if serve_tcp:
            from .server import VlsaServer

            server = VlsaServer(service, host="127.0.0.1", port=0,
                                request_timeout=timeout)
            tcp_stats = {"ops": 0, "stalls": 0, "latency_sum": 0,
                         "retries": 0, "rejected": 0, "timeouts": 0,
                         "walls": [], "last_accept_cycle": 0}
            async with server:
                t0 = time.perf_counter()
                await _drive_tcp("127.0.0.1", server.port, wl,
                                 concurrency, timeout, retries,
                                 tcp_stats)
                return time.perf_counter() - t0
        async with service:
            await service.wait_ready()
            t0 = time.perf_counter()
            await _drive(service, wl, concurrency, timeout, retries)
            return time.perf_counter() - t0

    phase = ctx.phase("loadgen") if ctx is not None else None
    if phase is not None:
        with phase:
            wall = asyncio.run(main())
    else:
        wall = asyncio.run(main())

    served = service.m_ops.value
    stalls = service.m_stalls.value
    analytic_stall = wl.analytic_stall_probability
    analytic_latency = (
        None if analytic_stall is None
        else expected_latency_cycles(analytic_stall, recovery_cycles))
    wall_hist = service.h_wall
    report = LoadgenReport(
        workload=workload, width=service.width, window=service.window,
        backend=service.backend_name, ops=served,
        wall_seconds=wall,
        adds_per_second=served / wall if wall > 0 else 0.0,
        mean_latency_cycles=service.mean_latency_cycles,
        analytic_latency_cycles=analytic_latency,
        stall_rate=stalls / served if served else 0.0,
        analytic_stall_rate=analytic_stall,
        spec_error_rate=(service.m_spec_errors.value / served
                         if served else 0.0),
        total_cycles=service.cycle,
        rejected=service.m_rejected.value,
        timeouts=service.m_timeouts.value,
        retries=service.m_retries.value,
        queue_depth_peak=service.m_queue_depth.peak,
        p50_wall_ms=wall_hist.quantile(0.5) * 1e3,
        p95_wall_ms=wall_hist.quantile(0.95) * 1e3,
        p99_wall_ms=wall_hist.quantile(0.99) * 1e3,
        metrics=service.metrics_json(),
        params=dict(wl.params),
    )
    if serve_tcp:
        report.params["target"] = "tcp"
        report.params["edge"] = "self-hosted"
    if is_cluster:
        report.params.update({
            "target": target,
            "workers": workers,
            "worker_restarts": service.supervisor.m_restarts.value,
            "worker_failures": service.supervisor.m_failures.value,
            "degraded_requests": service.m_degraded.value,
            "degraded_ops": service.m_degraded_ops.value,
            "redirected_requests": service.m_redirected.value,
            "failed_requests": service.m_failed.value,
            "transport_tx_bytes": service.m_tx_bytes.value,
            "transport_rx_bytes": service.m_rx_bytes.value,
        })
    if ctx is not None:
        ctx.add("loadgen_ops", served)
        ctx.record_event("loadgen_done", workload=workload, ops=served,
                         adds_per_second=round(report.adds_per_second, 1))
    return report


def _run_loadgen_external(workload: str, ops: int, width: int,
                          window: Optional[int], chunk: int,
                          concurrency: int, alpha: float,
                          adversarial_fraction: float,
                          timeout: Optional[float], retries: int,
                          connect: Tuple[str, int],
                          ctx: Optional[RunContext]) -> LoadgenReport:
    """Drive an already-running TCP server at ``connect=(host, port)``.

    The server's configuration comes from an ``info`` probe (so the
    workload matches what it actually serves); the report is built
    purely from what the clients can observe — reply-derived op/stall
    totals and client-side request wall times.  Server-internal rates
    (spec errors, queue depth) are not visible from here and read 0.
    """
    host, port = connect
    info = asyncio.run(_tcp_info(host, port))
    width = int(info.get("width", width))
    window = int(info.get("window", window or 0)) or None
    recovery_cycles = int(info.get("recovery_cycles", 1))
    if workload == "attack":
        width = 32
    wl = make_workload(workload, width, window or width, ops,
                       chunk=chunk, alpha=alpha,
                       adversarial_fraction=adversarial_fraction, ctx=ctx,
                       family=str(info.get("family", "aca")))
    stats: Dict[str, Any] = {"ops": 0, "stalls": 0, "latency_sum": 0,
                             "retries": 0, "rejected": 0, "timeouts": 0,
                             "walls": [], "last_accept_cycle": 0}

    async def main() -> float:
        t0 = time.perf_counter()
        await _drive_tcp(host, port, wl, concurrency, timeout, retries,
                         stats)
        return time.perf_counter() - t0

    wall = asyncio.run(main())
    served = stats["ops"]
    analytic_stall = wl.analytic_stall_probability
    walls = np.asarray(stats["walls"] or [0.0])
    report = LoadgenReport(
        workload=workload, width=width, window=window or width,
        backend=str(info.get("backend", "tcp")), ops=served,
        wall_seconds=wall,
        adds_per_second=served / wall if wall > 0 else 0.0,
        mean_latency_cycles=(stats["latency_sum"] / served
                             if served else 0.0),
        analytic_latency_cycles=(
            None if analytic_stall is None
            else expected_latency_cycles(analytic_stall,
                                         recovery_cycles)),
        stall_rate=stats["stalls"] / served if served else 0.0,
        analytic_stall_rate=analytic_stall,
        spec_error_rate=0.0,
        total_cycles=stats["last_accept_cycle"],
        rejected=stats["rejected"], timeouts=stats["timeouts"],
        retries=stats["retries"], queue_depth_peak=0.0,
        p50_wall_ms=float(np.percentile(walls, 50)) * 1e3,
        p95_wall_ms=float(np.percentile(walls, 95)) * 1e3,
        p99_wall_ms=float(np.percentile(walls, 99)) * 1e3,
        metrics={},
        params={**wl.params, "target": "tcp", "edge": "external",
                "connect": f"{host}:{port}",
                "server_info": {k: v for k, v in info.items()
                                if k != "id"}},
    )
    if ctx is not None:
        ctx.add("loadgen_ops", served)
        ctx.record_event("loadgen_done", workload=workload, ops=served,
                         adds_per_second=round(report.adds_per_second, 1))
    return report
