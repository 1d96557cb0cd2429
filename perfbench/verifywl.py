"""The ``verify_default`` workload: ``DifferentialVerifier`` in-process.

It runs what ``repro verify`` runs by default (width 64, the family's
default window, every default implementation, the four default
streams, chunk 4096), as back-to-back jobs of one chunk per stream.
Every job does the same mix of work, so one job is one latency
sample.

Usage as a set-up probe (what ``setup_s`` medians over):
``python3 perfbench/verifywl.py --probe-setup SEED`` prints the seconds
that verifier construction plus one warm-up chunk took in a fresh
process.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from typing import Dict, List, Optional

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import (OUT, ROOT, HostSpeed, Percentiles,  # noqa: E402
                    corrected, median, program_env, require_source,
                    self_peak_rss_mb)
import layers  # noqa: E402
import tracer  # noqa: E402

clock = time.perf_counter

WIDTH = 64
CHUNK = 4096
#: Fresh-process set-ups beside the in-process one; setup_s is the median.
SETUP_PROBES = 4
SLO_S = 10.0                 # fixed latency limit per job


def setup(seed: int):
    """Construct the verifier and run one warm-up chunk (timed)."""
    from repro.engine.context import RunContext
    from repro.verify import DifferentialVerifier

    t0 = clock()
    ctx = RunContext(seed=seed, label="verify")
    verifier = DifferentialVerifier(width=WIDTH, ctx=ctx)
    report = verifier.run(vectors=CHUNK, streams=("uniform",),
                          seed=seed + 1, chunk=CHUNK)
    elapsed = clock() - t0
    if not report.ok:
        raise RuntimeError("warm-up chunk failed verification")
    return verifier, ctx, elapsed


def probe_setups(seed: int) -> List[float]:
    out = []
    for k in range(SETUP_PROBES):
        res = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--probe-setup",
             str(seed + k)], cwd=ROOT, env=program_env(),
            capture_output=True, text=True, timeout=120, check=True)
        out.append(float(res.stdout.split()[-1]))
    return out


def window(verifier, seed: int, seconds: float,
           speed: Optional[HostSpeed] = None) -> Dict[str, object]:
    """Back-to-back jobs until *seconds* have passed.

    A job is the default run, one chunk of each default stream, made as
    one ``run`` call per stream with the job's seed, so that *speed* can
    be sampled between the streams; the samples are not timed.
    """
    from repro.verify import DEFAULT_STREAMS

    seeds = np.random.default_rng(seed).integers(0, 2 ** 31, size=100000)
    impls = len(verifier.impls)
    per_job = CHUNK * len(DEFAULT_STREAMS)
    jobs = []
    failed = 0
    busy = 0.0
    start = clock()
    while clock() - start < seconds:
        job_seed = int(seeds[len(jobs)])
        wall, ok = 0.0, True
        for stream in DEFAULT_STREAMS:
            t0 = clock()
            report = verifier.run(vectors=CHUNK, streams=(stream,),
                                  seed=job_seed, chunk=CHUNK)
            wall += clock() - t0
            complete = (len(report.coverage) == impls and all(
                c.vectors == CHUNK for c in report.coverage))
            bad = report.mismatch_count + len(report.stat_failures)
            stream_ok = report.ok and complete
            failed += bad if bad else (0 if stream_ok else CHUNK)
            ok = ok and stream_ok
            if speed is not None:
                speed.sample()
        busy += wall
        jobs.append((wall, ok))
    ok_walls = [w for w, ok in jobs if ok]
    return {
        "attempted": per_job * len(jobs),
        "failed": failed,
        "start": start,
        "ops_per_s": per_job * len(ok_walls) / busy,
        "latency_p50": median(ok_walls),
        "latency_note": Percentiles(ok_walls).describe(1e3, " ms"),
        "slo_met_frac": sum(1 for w, ok in jobs if ok and w <= SLO_S)
        / max(1, len(jobs)),
    }


def run(seed: int, seconds: float, trace: bool) -> Dict[str, object]:
    if trace:
        return _run_traced(seed, seconds)
    verifier, _, first = setup(seed)
    speed = HostSpeed()
    result = window(verifier, seed, seconds, speed)
    result["setups"] = [first] + probe_setups(seed)
    result["setup_s"] = median(result["setups"])
    result["rss_mb"] = self_peak_rss_mb()
    return corrected(result, speed, follows_speed=True)


def _run_traced(seed: int, seconds: float) -> Dict[str, object]:
    spans = tracer.Spans()
    tracer.install_verify(spans)
    try:
        verifier, ctx, _ = setup(seed)
        tracer.wrap_implementations(spans, verifier)
        phases0 = dict(ctx.phases)
        traced = window(verifier, seed, seconds)
        phases = {k: v - phases0.get(k, 0.0) for k, v in ctx.phases.items()}
    finally:
        spans.uninstall()
    verifier, _, _ = setup(seed)
    plain = window(verifier, seed, seconds)
    out_dir = os.path.join(OUT, f"verify_default-seed{seed}")
    res = layers.verify_layers(spans.records, traced["start"], phases,
                               plain["ops_per_s"], traced["ops_per_s"],
                               traced["attempted"], out_dir)
    res["attempted"] = plain["attempted"] + traced["attempted"]
    res["failed"] = plain["failed"] + traced["failed"]
    return res


if __name__ == "__main__":
    if sys.argv[1:2] == ["--probe-setup"]:
        require_source()
        print(setup(int(sys.argv[2]))[2])
