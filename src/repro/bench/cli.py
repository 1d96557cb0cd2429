"""The ``bench`` CLI verbs: run / compare / gate / list / promote.

:mod:`repro.cli` declares their flags (without importing this harness)
and hands the parsed arguments to :func:`run_bench_command`::

    vlsa-repro bench run --suite service --preset small
    vlsa-repro bench compare --suite engine
    vlsa-repro bench gate                      # exit 1 on regression
    vlsa-repro bench list
    vlsa-repro bench promote --suite service   # current -> baseline

``run`` executes suites through the calibrated runner and writes the
shared-schema ``results/BENCH_<suite>.json``.  ``gate`` is ``run`` +
``compare`` + a pass/fail exit code and a markdown summary
(``results/bench_summary.md``) for CI artifacts; ``--trend`` appends a
compact JSON line per suite to a trajectory file the nightly job
accumulates.  A benchmark whose payload raises is recorded with its
exception text and the run goes on; ``run`` and ``gate`` then exit 1
and the gate names it with verdict ``error``.
"""

from __future__ import annotations

import json
import os
import sys
import traceback
from typing import Any, Dict, List, Optional

from ..reporting import results_dir, save_artifact
from .compare import (baseline_path, compare_payloads, promote_baseline,
                      render_markdown)
from .runner import RunnerConfig, run_benchmark
from .schema import (build_payload, load_suite_result, result_path,
                     write_suite_result)
from .spec import BenchmarkRegistry, load_builtin_suites
from .spec import registry as default_registry

__all__ = ["run_bench_command"]

SUMMARY_NAME = "bench_summary.md"


def _suite_names(args, registry: BenchmarkRegistry) -> List[str]:
    if args.suite:
        names = [s for s in args.suite.split(",") if s]
        unknown = [s for s in names if s not in registry.suites()]
        if unknown:
            raise SystemExit(
                f"unknown suite(s): {', '.join(unknown)}; registered: "
                f"{', '.join(registry.suites())}")
        return names
    return list(registry.suites())


def _runner_config(args) -> RunnerConfig:
    kwargs: Dict[str, Any] = {}
    if getattr(args, "samples", None) is not None:
        kwargs["samples"] = args.samples
    if getattr(args, "target_time", None) is not None:
        kwargs["target_time"] = args.target_time
    return RunnerConfig(**kwargs)


def _run_suites(names: List[str], preset: str, config: RunnerConfig,
                registry: BenchmarkRegistry) -> List[str]:
    """Run and write every suite; returns the benchmarks that raised."""
    errored: List[str] = []
    for name in names:
        benches = registry.build(name, preset)
        print(f"[bench] suite {name}: {len(benches)} benchmarks "
              f"({preset} preset)", file=sys.stderr)
        results = []
        errors: Dict[str, str] = {}
        for bench in benches:
            try:
                res = run_benchmark(bench, config)
            except Exception as exc:  # one bench's fault, not the run's
                traceback.print_exc(file=sys.stderr)
                errors[bench.name] = f"{type(exc).__name__}: {exc}"
                errored.append(bench.full_name)
                print(f"[bench]   {bench.full_name:<36} ERROR: "
                      f"{errors[bench.name]}", file=sys.stderr)
                continue
            rate = res.ops_per_second
            print(f"[bench]   {bench.full_name:<36} "
                  f"{rate:>14,.0f} ops/s  "
                  f"(median {res.median_s_per_call * 1e3:.3f} ms/call, "
                  f"{len(res.samples_s_per_call)} samples x "
                  f"{res.inner_repeats} repeats)", file=sys.stderr)
            for violation in res.band_violations:
                print(f"[bench]     BAND VIOLATION: {violation}",
                      file=sys.stderr)
            results.append(res)
        payload = build_payload(name, preset, results, config, errors)
        path = write_suite_result(payload)
        print(f"[bench] wrote {path}", file=sys.stderr)
    return errored


def _append_trend(trend_path: str, names: List[str]) -> None:
    os.makedirs(os.path.dirname(trend_path) or ".", exist_ok=True)
    with open(trend_path, "a", encoding="utf-8") as f:
        for name in names:
            payload = load_suite_result(result_path(name))
            line = {
                "suite": name,
                "preset": payload["preset"],
                "host": payload["host"]["platform"],
                "benchmarks": {
                    b["name"]: {
                        "median_s_per_call": b["median_s_per_call"],
                        "ops_per_second": b["ops_per_second"],
                    } for b in payload["benchmarks"]},
            }
            f.write(json.dumps(line, sort_keys=True) + "\n")


def _compare_suites(names: List[str], args) -> List:
    comparisons = []
    for name in names:
        current = load_suite_result(result_path(name))
        bpath = baseline_path(name, args.baseline_dir)
        try:
            base = load_suite_result(bpath)
        except FileNotFoundError:
            if not getattr(args, "allow_missing_baseline", True):
                raise SystemExit(
                    f"suite {name}: no baseline at {bpath} (run "
                    f"'bench promote --suite {name}' on the reference "
                    f"host)")
            if not current.get("errors"):
                print(f"[bench] suite {name}: no baseline at {bpath}; "
                      f"skipping comparison", file=sys.stderr)
                continue
            # No baseline, but errored benches still fail the gate.
            base = {"suite": name, "benchmarks": []}
        comparisons.append(compare_payloads(
            base, current, threshold=args.threshold, alpha=args.alpha))
    return comparisons


def run_bench_command(args,
                      registry: Optional[BenchmarkRegistry] = None) -> int:
    """Dispatch a parsed ``bench`` invocation; returns the exit code."""
    if registry is None:
        load_builtin_suites()
        registry = default_registry
    names = _suite_names(args, registry)
    verb = args.bench_verb

    if verb == "list":
        described = {name: registry.describe(args.preset)[name]
                     for name in names}
        if args.json:
            print(json.dumps(described, indent=2, sort_keys=True))
        else:
            for suite, benches in described.items():
                print(f"{suite}  ({len(benches)} benchmarks)")
                for b in benches:
                    bands = (f"  bands: {', '.join(b['bands'])}"
                             if b["bands"] else "")
                    print(f"  {b['name']:<32} "
                          f"ops/call={b['ops_per_call']:<8}"
                          f"{bands}")
        return 0

    if verb == "run":
        errored = _run_suites(names, args.preset, _runner_config(args),
                              registry)
        if args.trend:
            _append_trend(args.trend, names)
        return 1 if errored else 0

    if verb == "promote":
        for name in names:
            path = promote_baseline(name)
            print(f"[bench] baseline updated: {path}", file=sys.stderr)
        return 0

    if verb == "compare":
        comparisons = _compare_suites(names, args)
        print(render_markdown(comparisons, threshold=args.threshold))
        return 0

    if verb == "gate":
        if not args.no_run:
            _run_suites(names, args.preset, _runner_config(args),
                        registry)
        comparisons = _compare_suites(names, args)
        text = render_markdown(comparisons, threshold=args.threshold)
        path = save_artifact(SUMMARY_NAME, text)
        print(text)
        print(f"[bench] summary: {path}", file=sys.stderr)
        failed = [c for c in comparisons if not c.ok]
        for comp in failed:
            for name in comp.regressed:
                print(f"[bench] REGRESSED: {comp.suite}/{name}",
                      file=sys.stderr)
            for name in comp.band_failures:
                print(f"[bench] BAND VIOLATION: {comp.suite}/{name}",
                      file=sys.stderr)
            for name in comp.errored:
                print(f"[bench] ERROR: {comp.suite}/{name}",
                      file=sys.stderr)
        return 1 if failed else 0

    raise SystemExit(f"unknown bench verb {verb!r}")
