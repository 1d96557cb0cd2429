"""End-to-end benchmark of the VLSA serving edge and the verifier.

Usage (from the repository root)::

    python3 perfbench/run.py --workload edge_bulk --seed 1 --seconds 10 \\
        --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` runs an untraced and a traced window and reports the
per-layer metrics (see ``perfbench/README.md``).  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import fmt_metric, metric, require_source  # noqa: E402

WORKLOADS = ("edge_bulk", "edge_small_cluster", "verify_default")

END_TO_END = (("ops_per_s", "1/s"), ("latency_p50_ms", "ms"),
              ("slo_met_frac", "frac"), ("setup_s", "s"), ("rss_mb", "MB"))


def _end_to_end(res) -> dict:
    values = {"ops_per_s": res["ops_per_s"],
              "latency_p50_ms": res["latency_p50"] * 1e3,
              "slo_met_frac": res["slo_met_frac"],
              "setup_s": res["setup_s"], "rss_mb": res["rss_mb"]}
    return {name: metric(values[name], unit) for name, unit in END_TO_END}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    require_source()

    import layers
    if args.workload == "verify_default":
        import verifywl
        res = verifywl.run(args.seed, args.seconds, bool(args.trace))
    else:
        import edge
        res = edge.run(args.workload, args.seed, args.seconds,
                       bool(args.trace))

    attempted, failed = int(res["attempted"]), int(res["failed"])
    print(f"{args.workload} seed={args.seed} window={args.seconds}s "
          f"trace={args.trace}")
    print(f"  attempted {attempted}, failed {failed} "
          f"(failed_frac {failed / max(1, attempted):.6g})"
          + (f"; reply fates {res['fates']}" if "fates" in res else ""))
    if args.trace:
        metrics = layers.complete(res["values"])
        for line in (layers.reconcile_lines(res["reconcile"])
                     if "reconcile" in res
                     else layers.agreement_lines(res["agreement"])):
            print(line)
    else:
        metrics = _end_to_end(res)
        print(f"  latency: {res['latency_note']}")
        if res.get("server_killed"):
            print("  server needed SIGKILL to stop")
        print(f"  setup samples (s): {res['setups']}")
        raw = res["raw"]
        print(f"  {res['speed_note']}")
        print(f"  as measured: ops_per_s {raw['ops_per_s']:.6g}, "
              f"latency_p50_ms {raw['latency_p50'] * 1e3:.6g}")
    for name, m in metrics.items():
        print(fmt_metric(name, m["value"], m["unit"]))
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
