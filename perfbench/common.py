"""Shared helpers: percentiles with sample counts, host speed, process
memory, paths."""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Dict, Iterable, List, Optional

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")

#: A tail percentile is reported only with at least this many samples
#: beyond it; fewer would make it the maximum under another name.
MIN_BEYOND = 10

#: Seconds one speed probe takes on the reference host (2-vCPU Xeon
#: 2.1 GHz) when no other tenant contends; it sets the scale of the
#: host-speed-corrected metrics.
PROBE_REF_S = 0.014
#: Probes timed back to back at each sampling point of a run.
PROBES_PER_SAMPLE = 8


def _probe() -> int:
    """A fixed piece of interpreter work: 64-bit LCG, dict churn, JSON."""
    mask = (1 << 64) - 1
    x, acc = 0x9E3779B97F4A7C15, 0
    table = {}
    for i in range(40000):
        x = (x * 6364136223846793005 + 1442695040888963407) & mask
        acc ^= (x >> 7) ^ (x << 3) & mask
        table[i & 255] = x
    return acc ^ len(json.loads(json.dumps(sorted(table.values()))))


class HostSpeed:
    """How slowly the host runs now, relative to the reference.

    The benchmark shares a few cores of a host whose single-thread
    speed drifts by tens of per cent over seconds to minutes, and every
    measured time follows it.  A run calls :meth:`sample` between its
    measured steps (never inside one); dividing the run's times by the
    mean :attr:`slowdown` of those samples takes most of the drift out
    of them, while a change to the program still moves them in full.
    """

    def __init__(self) -> None:
        self.probes: List[float] = []

    def sample(self) -> None:
        for _ in range(PROBES_PER_SAMPLE):
            t0 = time.perf_counter()
            _probe()
            self.probes.append(time.perf_counter() - t0)

    @property
    def slowdown(self) -> float:
        return float(np.mean(self.probes)) / PROBE_REF_S


def require_source() -> None:
    """Exit non-zero, printing no result, when the program is absent."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def program_env() -> Dict[str, str]:
    """Environment for a program subprocess: ``repro`` importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


class Percentiles:
    """p50 and p99 of a sample, each with the counts it rests on."""

    def __init__(self, samples: Iterable[float]):
        values = np.asarray(list(samples), dtype=float)
        self.n = int(values.size)
        self.p50 = float(np.percentile(values, 50)) if self.n else None
        self.p99: Optional[float] = None
        self.beyond_p99 = 0
        if self.n:
            p99 = float(np.percentile(values, 99))
            self.beyond_p99 = int((values > p99).sum())
            if self.beyond_p99 >= MIN_BEYOND:
                self.p99 = p99

    def describe(self, scale: float = 1.0, unit: str = "") -> str:
        if not self.n:
            return "no samples"
        text = f"p50={self.p50 * scale:.4g}{unit} (n={self.n})"
        if self.p99 is None:
            return text + (f", p99 omitted: {self.beyond_p99} samples "
                           f"beyond it, need {MIN_BEYOND}")
        return text + (f", p99={self.p99 * scale:.4g}{unit} "
                       f"({self.beyond_p99} beyond)")


def median(values: Iterable[float]) -> float:
    values = list(values)
    return float(np.median(values)) if values else 0.0


def group_pids(pgid: int) -> List[str]:
    """Live (non-zombie) processes whose process group is *pgid*."""
    pids = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as fh:
                # Fields after the parenthesised command: state ppid pgrp
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # exited while we looked
        if fields[0] != "Z" and int(fields[2]) == pgid:
            pids.append(name)
    return pids


def tree_peak_rss_mb(pgid: int) -> float:
    """Summed peak RSS (``VmHWM``) of the live processes in group *pgid*."""
    total_kb = 0
    for pid in group_pids(pgid):
        try:
            total_kb += _vm_hwm_kb(pid)
        except OSError:
            continue
    return total_kb / 1024.0


def self_peak_rss_mb() -> float:
    return _vm_hwm_kb("self") / 1024.0


def _vm_hwm_kb(pid: str) -> int:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def write_json(path: str, payload) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh)


def corrected(result: Dict[str, object], speed: HostSpeed,
              follows_speed: bool) -> Dict[str, object]:
    """Divide a window's times by the host slowdown sampled in it.

    Only a workload whose times follow the probe's speed is corrected
    (*follows_speed*): there ``latency_p50`` is divided by the slowdown
    and ``ops_per_s`` multiplied by it.  ``setup_s`` is never corrected:
    process launch and imports did not follow the probe, and neither
    did the small-request latency of the one-worker cluster, so the
    correction only widened their spread.  The measured values are kept
    under ``raw``.
    """
    raw = {k: result[k] for k in ("ops_per_s", "latency_p50")}
    result["raw"] = raw
    if follows_speed:
        result["latency_p50"] = raw["latency_p50"] / speed.slowdown
        result["ops_per_s"] = raw["ops_per_s"] * speed.slowdown
    result["speed_note"] = (
        f"host slowdown during the window: {speed.slowdown:.4g} (mean of "
        f"{len(speed.probes)} probes; 1 = {PROBE_REF_S * 1e3:g} ms each); "
        + ("ops_per_s and latency_p50_ms below are corrected by it"
           if follows_speed else "no metric below is corrected by it"))
    return result


def fmt_metric(name: str, value: float, unit: str) -> str:
    return f"  {name:<40} {value:>14.6g} {unit}"


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}
