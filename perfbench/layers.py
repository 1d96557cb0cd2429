"""Per-layer metrics from the traced run, and their reconciliation.

Every run with ``--trace 1`` reports every name in :data:`PER_LAYER`.
A layer that does not run on a workload's path, or runs only inside a
spawned worker where no wrapper can reach it, reports 0.
"""

from __future__ import annotations

import bisect
import os
from collections import defaultdict
from typing import Dict, List, Optional

from common import Percentiles, median, metric, write_json
import tracer

VERIFY_IMPLS = ("functional", "engine:bigint", "engine:numpy",
                "engine:sharded", "interpreter", "kernel", "recovery",
                "machine", "service:numpy", "service:bigint")


def impl_metric(impl: str) -> str:
    return f"verify.impl.{impl.replace(':', '-')}.s_per_kvec"


PER_LAYER = [
    ("server.json_decode_us_per_req", "us"),
    ("server.json_encode_us_per_req", "us"),
    ("server.self_ms_p50", "ms"),
    ("server.bytes_in_per_op", "B/op"),
    ("server.bytes_out_per_op", "B/op"),
    ("service.submit_ms_p50", "ms"),
    ("service.submit_ms_p99", "ms"),
    ("service.queue_wait_ms_p50", "ms"),
    ("service.batch_ops_mean", "ops"),
    ("service.rejected", "count"),
    ("executor.coerce_ns_per_op", "ns/op"),
    ("executor.kernel_ns_per_op", "ns/op"),
    ("executor.outcome_ns_per_op", "ns/op"),
    ("executor.busy_frac", "frac"),
    ("router.submit_ms_p50", "ms"),
    ("router.submit_ms_p99", "ms"),
    ("router.backlog_wait_ms_p50", "ms"),
    ("router.wire_batch_ops_mean", "ops"),
    ("router.wire_rtt_ms_p50", "ms"),
    ("router.wire_rtt_ms_p99", "ms"),
    ("transport.send_us_per_msg", "us"),
    ("transport.tx_bytes_per_op", "B/op"),
    ("transport.rx_bytes_per_op", "B/op"),
    ("transport.msgs_per_req", "msgs/req"),
    ("transport.ring_full_stalls", "count"),
    ("transport.pipe_fallbacks", "count"),
    ("worker.ops", "count"),
    ("worker.batches", "count"),
    ("supervisor.ready_s", "s"),
    ("verify.oracle_s_per_kvec", "s/kvec"),
] + [(impl_metric(i), "s/kvec") for i in VERIFY_IMPLS] + [
    ("verify.stream_s_per_kvec", "s/kvec"),
    ("verify.self_s_per_kvec", "s/kvec"),
    ("engine.compile_s", "s"),
    ("loadgen.lateness_p99_ms", "ms"),
    ("loadgen.cpu_frac", "frac"),
    ("trace.overhead_frac", "frac"),
]
UNITS = dict(PER_LAYER)


def complete(values: Dict[str, float]) -> Dict[str, Dict[str, object]]:
    """Every per-layer metric, 0 where the layer is off this path."""
    unknown = set(values) - set(UNITS)
    if unknown:
        raise KeyError(f"undeclared per-layer metrics: {sorted(unknown)}")
    return {name: metric(float(values.get(name, 0.0)), unit)
            for name, unit in PER_LAYER}


def _p99(p: Percentiles) -> float:
    # Per-layer tails rest on thousands of spans; 0 marks "too few".
    return p.p99 if p.p99 is not None else 0.0


class _Index:
    """Spans of one name, sorted by start, with key lookup."""

    def __init__(self, spans):
        self.spans = sorted(spans, key=lambda s: s[1])
        self.starts = [s[1] for s in self.spans]
        self.by_key = defaultdict(list)
        for s in self.spans:
            if isinstance(s[3], (int, float)):
                self.by_key[s[3]].append(s)

    def durations(self) -> List[float]:
        return [s[2] - s[1] for s in self.spans]

    def total(self) -> float:
        return sum(self.durations())

    def first_after(self, t: float):
        i = bisect.bisect_left(self.starts, t)
        return self.spans[i] if i < len(self.spans) else None

    def within(self, key, lo: float, hi: float):
        for s in self.by_key.get(key, ()):
            if lo <= s[1] and s[2] <= hi:
                return s
        return None


def _delta(snaps, name: str) -> float:
    before, after = snaps
    return float(after.get(name, {}).get("value", 0)
                 - before.get(name, {}).get("value", 0))


def _hist_mean(snaps, name: str) -> float:
    before, after = snaps
    count = after[name]["count"] - before[name]["count"]
    return (after[name]["sum"] - before[name]["sum"]) / count if count else 0.0


# ----------------------------------------------------------------------
# Edge
# ----------------------------------------------------------------------
def edge_layers(wl, plain, traced, reqs, spans_path: str, snaps,
                out_dir: str) -> Dict[str, object]:
    w0, w1 = traced["window"]
    log = traced["log"]
    last = max([r.t_recv for r in log if r.t_recv] + [w1])
    all_spans = tracer.load(spans_path)
    spans = [s for s in all_spans if w0 <= s[1] <= last]
    named = defaultdict(list)
    for s in spans:
        named[s[0]].append(s)
    idx = {name: _Index(group) for name, group in named.items()}
    empty = _Index([])
    get = lambda name: idx.get(name, empty)  # noqa: E731
    submit = get("router.submit" if wl.workers else "service.submit")

    matched = []        # (request, its submit_batch span)
    walls, selfs = [], []
    for r in log:
        if r.fate != "ok":
            continue
        span = submit.within(int(reqs.first[r.idx]), r.t_send, r.t_recv)
        if span is None:
            continue
        matched.append((r, span))
        walls.append(r.t_recv - r.t_send)
        selfs.append(walls[-1] - (span[2] - span[1]))

    v: Dict[str, float] = {}
    ops = max(1, len(log) * wl.pairs)
    decode, encode = get("server.json_decode"), get("server.json_encode")
    v["server.json_decode_us_per_req"] = (
        decode.total() / max(1, len(decode.spans)) * 1e6)
    v["server.json_encode_us_per_req"] = (
        encode.total() / max(1, len(encode.spans)) * 1e6)
    v["server.self_ms_p50"] = median(selfs) * 1e3
    v["server.bytes_in_per_op"] = (
        sum(len(reqs.lines[r.idx]) for r in log) / ops)
    v["server.bytes_out_per_op"] = sum(r.reply_bytes for r in log) / ops
    v["service.rejected"] = _delta(snaps, "rejected_total")

    # Medians of the stages on the blocking path, to set against the
    # client's median wall.
    stages: Dict[str, float] = {"server.self": median(selfs) * 1e3}
    sub = Percentiles(submit.durations())
    if wl.workers == 0:
        execute = get("executor.execute")
        waits, exec_ms = [], []
        for _, span in matched:
            ex = execute.first_after(span[1])
            if ex is not None and ex[2] <= span[2]:
                waits.append(ex[1] - span[1])
                exec_ms.append(ex[2] - ex[1])
        executed_ops = max(1, sum(s[3] for s in execute.spans))
        v["service.submit_ms_p50"] = sub.p50 * 1e3 if sub.n else 0.0
        v["service.submit_ms_p99"] = _p99(sub) * 1e3
        v["service.queue_wait_ms_p50"] = median(waits) * 1e3
        v["service.batch_ops_mean"] = _hist_mean(snaps, "batch_size_ops")
        for layer, name in (("coerce", "executor.coerce"),
                            ("kernel", "executor.kernel"),
                            ("outcome", "executor.outcome")):
            v[f"executor.{layer}_ns_per_op"] = (
                get(name).total() / executed_ops * 1e9)
        v["executor.busy_frac"] = execute.total() / traced["window_s"]
        stages["service.queue_wait"] = median(waits) * 1e3
        stages["executor"] = median(exec_ms) * 1e3
    else:
        sends = get("transport.send").spans
        results = {s[3]: s[1] for s in get("transport.result").spans}
        wire_of = {}        # first operand -> [(send time, msg id)]
        rtts = []
        for s in sends:
            msg_id, firsts = s[3]
            if msg_id is None or msg_id not in results:
                continue
            rtts.append(results[msg_id] - s[1])
            for a in firsts:
                wire_of.setdefault(a, []).append((s[1], msg_id))
        backlog, req_rtts = [], []
        for r, span in matched:
            for t_sent, msg_id in wire_of.get(int(reqs.first[r.idx]), ()):
                if span[1] <= t_sent <= span[2]:
                    rtt = results[msg_id] - t_sent
                    req_rtts.append(rtt)
                    backlog.append((span[2] - span[1]) - rtt)
                    break
        rtt = Percentiles(rtts)
        requests = _delta(snaps, "requests_total")
        served_ops = _delta(snaps, "ops_total")
        v["router.submit_ms_p50"] = sub.p50 * 1e3 if sub.n else 0.0
        v["router.submit_ms_p99"] = _p99(sub) * 1e3
        v["router.backlog_wait_ms_p50"] = median(backlog) * 1e3
        v["router.wire_batch_ops_mean"] = _hist_mean(snaps, "batch_size_ops")
        v["router.wire_rtt_ms_p50"] = rtt.p50 * 1e3 if rtt.n else 0.0
        v["router.wire_rtt_ms_p99"] = _p99(rtt) * 1e3
        v["transport.send_us_per_msg"] = (
            get("transport.send").total() / max(1, len(sends)) * 1e6)
        v["transport.tx_bytes_per_op"] = (
            _delta(snaps, "transport_tx_bytes_total") / max(1, served_ops))
        v["transport.rx_bytes_per_op"] = (
            _delta(snaps, "transport_rx_bytes_total") / max(1, served_ops))
        v["transport.msgs_per_req"] = (
            _delta(snaps, "transport_tx_msgs_total") / max(1, requests))
        v["transport.ring_full_stalls"] = _delta(
            snaps, "transport_ring_full_stalls_total")
        v["transport.pipe_fallbacks"] = _delta(
            snaps, "transport_pipe_fallback_total")
        v["worker.ops"] = _delta(snaps, "worker_ops_total")
        v["worker.batches"] = _delta(snaps, "worker_batches_total")
        v["supervisor.ready_s"] = sum(
            s[2] - s[1] for s in all_spans
            if s[0] in ("supervisor.start", "supervisor.wait_ready"))
        stages["router.backlog_wait"] = median(backlog) * 1e3
        stages["router.wire_rtt"] = median(req_rtts) * 1e3

    v["loadgen.lateness_p99_ms"] = (
        _p99(plain["lateness"]) * 1e3 if wl.open_loop else 0.0)
    v["loadgen.cpu_frac"] = plain["cpu_frac"]
    if wl.open_loop:
        # Throughput is pinned to the offered rate in an open loop, so
        # the tracing cost shows as added latency instead.
        v["trace.overhead_frac"] = (traced["latency_p50"]
                                    / plain["latency_p50"] - 1.0)
    else:
        v["trace.overhead_frac"] = 1.0 - (traced["ops_per_s"]
                                          / plain["ops_per_s"])

    wall = median(walls) * 1e3
    covered = sum(stages.values())
    reconcile = {"wall_ms_p50": wall, "stages_ms_p50": stages,
                 "covered_ms": covered, "gap_ms": wall - covered,
                 "matched_requests": len(matched)}

    write_json(os.path.join(out_dir, "client_requests.json"), [
        [r.idx, int(reqs.first[r.idx]), r.due, r.t_send, r.t_recv, r.fate]
        for r in log])
    write_json(os.path.join(out_dir, "layers.json"),
               {"metrics": v, "reconcile": reconcile})
    return {"values": v, "reconcile": reconcile,
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"],
            "fates": [plain["fates"], traced["fates"]]}


def reconcile_lines(rec: Dict[str, object]) -> List[str]:
    wall = rec["wall_ms_p50"]
    parts = " + ".join(f"{k} {val:.3f}"
                       for k, val in rec["stages_ms_p50"].items())
    share = rec["covered_ms"] / wall if wall else 0.0
    return [f"reconcile: client p50 wall {wall:.3f} ms over "
            f"{rec['matched_requests']} matched requests",
            f"  blocking-path medians: {parts} = {rec['covered_ms']:.3f} ms "
            f"({share:.1%} covered, gap {rec['gap_ms']:.3f} ms)"]


# ----------------------------------------------------------------------
# Verify
# ----------------------------------------------------------------------
def verify_layers(spans: List, start: float, phases: Dict[str, float],
                  plain_ops_per_s: float, traced_ops_per_s: float,
                  vectors: int, out_dir: str) -> Dict[str, object]:
    """Window spans (from *start*) per 1000 vectors; compiles from set-up."""
    named = defaultdict(float)
    compile_s = 0.0
    for s in spans:
        if s[0] == "engine.compile":
            compile_s += s[2] - s[1]
        elif s[1] >= start:
            named[s[0]] += s[2] - s[1]
    kvec = vectors / 1e3
    v: Dict[str, float] = {}
    v["verify.oracle_s_per_kvec"] = named["verify.oracle"] / kvec
    impl_total = 0.0
    agreement = {}
    for impl in VERIFY_IMPLS:
        t = named[f"verify.impl.{impl}"]
        impl_total += t
        v[impl_metric(impl)] = t / kvec
        agreement[impl] = (t, phases.get(f"verify_{impl}", 0.0))
    v["verify.stream_s_per_kvec"] = named["verify.stream"] / kvec
    v["verify.self_s_per_kvec"] = (
        named["verify.run"] - named["verify.oracle"] - impl_total
        - named["verify.stream"]) / kvec
    v["engine.compile_s"] = compile_s
    v["trace.overhead_frac"] = 1.0 - traced_ops_per_s / plain_ops_per_s
    write_json(os.path.join(out_dir, "spans.json"), spans)
    write_json(os.path.join(out_dir, "layers.json"),
               {"metrics": v, "phase_agreement": agreement})
    return {"values": v, "agreement": agreement}


def agreement_lines(agreement: Dict[str, tuple]) -> List[str]:
    worst: Optional[float] = None
    for span_s, phase_s in agreement.values():
        if phase_s:
            diff = abs(span_s - phase_s) / phase_s
            worst = diff if worst is None else max(worst, diff)
    return [f"Implementation.run spans vs verify_<impl> phases: worst "
            f"relative difference {worst if worst is not None else 0:.2%}"]
