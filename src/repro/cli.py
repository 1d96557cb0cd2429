"""Command-line interface: regenerate any paper table or figure, or run
the serving layer.

Usage::

    python -m repro table1
    python -m repro fig8 --widths 64,128,256
    python -m repro fig7 --ops 200000 --seed 1
    python -m repro crosscheck --widths 16,65,128
    python -m repro verify --width 64 --window 8 --vectors 100000
    python -m repro bench run --suite service --preset small
    python -m repro bench gate
    python -m repro loadgen --ops 100000 --workload biased
    python -m repro serve --port 8471
    python -m repro all

Results are printed and also written under ``results/`` (or
``$REPRO_RESULTS_DIR``).  Every experiment command runs inside an
instrumented :class:`repro.engine.RunContext`: ``--seed`` roots all
randomness.  Unless ``--no-save`` is given, every command also writes
``results/<command>_manifest.json`` recording the seed, gate-eval
counters, per-phase wall times and trace events of the run.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List, Optional, Tuple

from . import __version__
from .engine.context import DEFAULT_SEED, RunContext, set_default_context
from .reporting import save_artifact, save_json

__all__ = ["main"]

# Choice lists and defaults the parser shows, spelled out here so that
# building it imports neither the experiments, the load generator, the
# RTL generator, the engine nor the bench harness (each pulls
# in the netlist stack).  tests/test_public_api.py pins every one to
# the list or value it mirrors.
_LOADGEN_WORKLOADS = ("uniform", "biased", "adversarial", "attack", "mixed",
                      "drift")
#: ``generator.DESIGN_KINDS`` before the families add theirs: the fixed
#: designs and every baseline adder.
_FIXED_DESIGN_KINDS = (
    "aca", "booth", "brent_kung", "carry_select", "carry_skip", "cla",
    "conditional_sum", "detector", "han_carlson", "han_carlson4",
    "incrementer", "knowles2", "knowles4", "kogge_stone", "ladner_fischer",
    "multiplier", "recovery", "ripple", "sklansky", "subtractor",
    "variable_skip", "vlsa", "vlsa_rtl")
#: ``repro.bench.stats.DEFAULT_THRESHOLD`` and ``DEFAULT_ALPHA``.
_BENCH_THRESHOLD = 0.10
_BENCH_ALPHA = 0.05


def _parse_widths(spec: Optional[str], default) -> List[int]:
    if not spec:
        return list(default)
    return [int(tok) for tok in spec.split(",") if tok]


def _cmd_table1(ex, args, ctx) -> str:
    return ex.table1(_parse_widths(args.widths,
                                   (16, 32, 64, 128, 256, 512, 1024,
                                    2048, 4096)), ctx=ctx).render()


def _cmd_theorem1(ex, args, ctx) -> str:
    return ex.theorem1(max_k=args.max_k, seed=args.seed, ctx=ctx).render()


def _cmd_schilling(ex, args, ctx) -> str:
    return ex.schilling_table(ctx=ctx).render()


def _cmd_fig8(ex, args, ctx) -> str:
    widths = _parse_widths(args.widths, ex.DEFAULT_BITWIDTHS)
    delay, area, chart_d, chart_a = ex.fig8_tables(bitwidths=widths, ctx=ctx)
    return "\n\n".join([delay.render(), area.render(), chart_d, chart_a])


def _cmd_fig7(ex, args, ctx) -> str:
    table, diagram = ex.fig7_trace(width=args.width, operations=args.ops,
                                   seed=args.seed, ctx=ctx)
    return table.render() + "\n\nTiming diagram (first ops):\n" + diagram


def _cmd_rtl(ex, args, ctx) -> str:
    widths = _parse_widths(args.widths, (32, 64, 128))
    return ex.vlsa_rtl_table(widths, ctx=ctx).render()


def _cmd_errors(ex, args, ctx) -> str:
    widths = _parse_widths(args.widths, (64, 128, 256, 512, 1024))
    return ex.error_rate_table(widths, samples=args.samples,
                               seed=args.seed, ctx=ctx).render()


def _cmd_sharing(ex, args, ctx) -> str:
    widths = _parse_widths(args.widths, (64, 128, 256, 512))
    return ex.sharing_ablation(widths, ctx=ctx).render()


def _cmd_window(ex, args, ctx) -> str:
    return ex.window_sweep(width=args.width, ctx=ctx).render()


def _cmd_delaymodel(ex, args, ctx) -> str:
    return ex.delay_model_ablation(ctx=ctx).render()


def _cmd_attack(ex, args, ctx) -> str:
    return ex.crypto_attack_experiment(
        corpus_bytes=args.corpus, key_bits=args.key_bits, ctx=ctx).render()


def _cmd_futurework(ex, args, ctx) -> str:
    return ex.future_work_table(ctx=ctx).render()


def _cmd_speculative(ex, args, ctx) -> str:
    return ex.speculative_family_table(width=args.width, ctx=ctx).render()


def _cmd_faults(ex, args, ctx) -> str:
    return ex.fault_table(width=min(args.width, 16), ctx=ctx).render()


def _cmd_atpg(ex, args, ctx) -> str:
    return ex.atpg_table(ctx=ctx).render()


def _cmd_cpu(ex, args, ctx) -> str:
    return ex.processor_table(width=args.width, ctx=ctx).render()


def _cmd_dsp(ex, args, ctx) -> str:
    return ex.dsp_table(ctx=ctx).render()


def _cmd_crosscheck(ex, args, ctx) -> str:
    widths = _parse_widths(args.widths, (16, 32, 64))
    return ex.crosscheck_table(widths, vectors=args.samples,
                               ctx=ctx).render()


def _cmd_loadgen(_ex, args, ctx) -> str:
    from .service import run_loadgen

    connect = None
    if args.connect is not None:
        host, _, port = args.connect.rpartition(":")
        if not host or not port.isdigit():
            raise SystemExit(f"--connect wants HOST:PORT, "
                             f"got {args.connect!r}")
        connect = (host, int(port))
    report = run_loadgen(
        workload=args.workload, ops=args.ops, width=args.width,
        window=args.window, chunk=args.chunk,
        concurrency=args.concurrency, queue_capacity=args.queue_capacity,
        max_batch_ops=args.max_batch,
        alpha=args.alpha, adversarial_fraction=args.adversarial_fraction,
        target=args.target, workers=args.workers, connect=connect,
        ctx=ctx)
    if not args.no_save:
        path = save_json("loadgen_metrics.json", report.as_dict())
        print(f"[metrics: {path}]", file=sys.stderr)
    text = report.render()
    if args.strict:
        problems = _strict_problems(report, args)
        if problems:
            print(text)
            for problem in problems:
                print(f"strict: {problem}", file=sys.stderr)
            raise SystemExit(1)
    return text


def _strict_problems(report, args) -> List[str]:
    """CI-smoke invariants: any entry here fails a ``--strict`` run."""
    problems = []
    if report.ops != args.ops:
        problems.append(f"served {report.ops} of {args.ops} requested ops")
    if report.rejected:
        problems.append(f"{report.rejected} rejected submissions")
    for code, count in report.errors.items():
        if count:
            problems.append(f"{count} requests failed with {code!r}")
    for key in ("worker_restarts", "worker_failures", "degraded_requests",
                "redirected_requests", "failed_requests"):
        value = report.params.get(key, 0)
        if value:
            problems.append(f"{key} = {value}")
    return problems


# name -> (handler(experiments, args, ctx), help text, extra per-command
# flags)
_COMMANDS: Dict[str, Tuple[Callable, str, Tuple[str, ...]]] = {
    "table1": (_cmd_table1,
               "Table 1: longest-run-of-ones bounds per bitwidth",
               ("widths",)),
    "theorem1": (_cmd_theorem1,
                 "Theorem 1: E[flips to k heads] three ways "
                 "(closed form / solve / Monte Carlo)",
                 ("max_k",)),
    "schilling": (_cmd_schilling,
                  "Schilling statistics of the longest head run",
                  ()),
    "fig8": (_cmd_fig8,
             "Fig. 8: delay and area versus bitwidth for every adder",
             ("widths",)),
    "fig7": (_cmd_fig7,
             "Fig. 7: VLSA timing diagram and average latency",
             ("width", "ops")),
    "rtl": (_cmd_rtl,
            "Fig. 6 as a registered netlist: min clock period per "
            "bitwidth",
            ("widths",)),
    "errors": (_cmd_errors,
               "ACA error rates: exact model versus Monte Carlo",
               ("widths", "samples")),
    "sharing": (_cmd_sharing,
                "Fig. 4: area saved by sharing ACA strips with the "
                "detector/recovery logic",
                ("widths",)),
    "window": (_cmd_window,
               "Window sweep: error probability and delay versus "
               "speculation window",
               ("width",)),
    "delaymodel": (_cmd_delaymodel,
                   "Fig. 8 at 256 bits under four interconnect delay "
                   "models",
                   ()),
    "attack": (_cmd_attack,
               "Section 1: ciphertext-only attack with exact versus "
               "speculative adders",
               ("corpus", "key_bits")),
    "futurework": (_cmd_futurework,
                   "Section 6: speculative multiplier and friends",
                   ()),
    "speculative": (_cmd_speculative,
                    "Adder, subtractor, incrementer and multipliers side "
                    "by side at the design-point window",
                    ("width",)),
    "faults": (_cmd_faults,
               "Stuck-at fault coverage of the ACA via ATPG",
               ("width",)),
    "atpg": (_cmd_atpg,
             "Complete stuck-at test set for the 8-bit ACA (window 3)",
             ()),
    "cpu": (_cmd_cpu,
            "TinyCpu with a VLSA ALU: CPI versus a fixed-latency adder",
            ("width",)),
    "dsp": (_cmd_dsp,
            "Fixed-point FIR on speculative adders: stall-rate "
            "workload dependence",
            ("width",)),
    "crosscheck": (_cmd_crosscheck,
                   "The gate-level engine versus the functional model",
                   ("widths", "samples")),
    "loadgen": (_cmd_loadgen,
                "Drive a workload through the in-process VLSA service "
                "and report latency/throughput metrics",
                ("width", "ops", "loadgen")),
}

# Reusable per-command flag groups (attached only where relevant).
_FLAG_BUILDERS: Dict[str, Callable[[argparse.ArgumentParser], None]] = {}


def _flag(name: str):
    def register(fn):
        _FLAG_BUILDERS[name] = fn
        return fn
    return register


@_flag("widths")
def _add_widths(p):
    p.add_argument("--widths", metavar="N,N,...",
                   help="comma-separated bitwidths to sweep "
                        "(default: the command's paper sweep)")


@_flag("width")
def _add_width(p):
    p.add_argument("--width", type=int, default=64,
                   help="operand bitwidth (default: %(default)s)")


@_flag("ops")
def _add_ops(p):
    p.add_argument("--ops", type=int, default=100000,
                   help="operations to stream (default: %(default)s)")


@_flag("samples")
def _add_samples(p):
    p.add_argument("--samples", type=int, default=20000,
                   help="Monte Carlo samples (default: %(default)s)")


@_flag("max_k")
def _add_max_k(p):
    p.add_argument("--max-k", dest="max_k", type=int, default=12,
                   help="largest run length k to tabulate "
                        "(default: %(default)s)")


@_flag("corpus")
def _add_corpus(p):
    p.add_argument("--corpus", type=int, default=4096,
                   help="plaintext corpus size in bytes "
                        "(default: %(default)s)")


@_flag("key_bits")
def _add_key_bits(p):
    p.add_argument("--key-bits", dest="key_bits", type=int, default=8,
                   help="candidate key-space size in bits "
                        "(default: %(default)s)")


@_flag("loadgen")
def _add_loadgen(p):
    p.add_argument("--workload", choices=_LOADGEN_WORKLOADS,
                   default="uniform",
                   help="operand distribution (default: %(default)s)")
    p.add_argument("--window", type=int, default=None,
                   help="speculation window (default: 99.99%% window)")
    p.add_argument("--chunk", type=int, default=1024,
                   help="additions per client batch (default: %(default)s)")
    p.add_argument("--concurrency", type=int, default=4,
                   help="concurrent client tasks (default: %(default)s)")
    p.add_argument("--queue-capacity", dest="queue_capacity", type=int,
                   default=64,
                   help="admission queue capacity (default: %(default)s)")
    p.add_argument("--max-batch", dest="max_batch", type=int, default=8192,
                   help="max additions per coalesced service batch "
                        "(default: %(default)s)")
    p.add_argument("--alpha", type=float, default=0.75,
                   help="per-bit one-probability for the biased workload "
                        "(default: %(default)s)")
    p.add_argument("--adversarial-fraction", dest="adversarial_fraction",
                   type=float, default=0.1,
                   help="stalling fraction for the mixed workload "
                        "(default: %(default)s)")
    p.add_argument("--target", choices=("service", "cluster", "tcp"),
                   default="service",
                   help="serving target: one in-process service, a "
                        "multi-process cluster, or real-socket clients "
                        "against a TCP edge (default: %(default)s)")
    p.add_argument("--workers", type=int, default=2,
                   help="cluster worker processes, --target cluster/tcp "
                        "(default: %(default)s; 0 with --target tcp "
                        "self-hosts a plain in-process service)")
    p.add_argument("--connect", metavar="HOST:PORT", default=None,
                   help="drive an external already-running server "
                        "(--target tcp only; default: self-host one)")
    p.add_argument("--strict", action="store_true",
                   help="exit 1 on any rejected/timed-out/degraded/"
                        "redirected request or worker restart (CI smoke)")


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="root RNG seed (default: %(default)s)")
    p.add_argument("--manifest", action="store_true",
                   help="write results/<command>_manifest.json even "
                        "with --no-save (manifests are otherwise "
                        "written by default)")
    p.add_argument("--no-save", action="store_true",
                   help="print only, skip writing results/")


def _run_command(name: str, args) -> str:
    """Run one experiment command inside a fresh instrumented context."""
    from . import experiments

    ctx = RunContext(seed=args.seed, label=name)
    set_default_context(ctx)
    handler = _COMMANDS[name][0]
    with ctx.phase(name):
        text = handler(experiments, args, ctx)
    if args.manifest or not args.no_save:
        path = save_json(f"{name}_manifest.json", ctx.as_manifest())
        print(f"[manifest: {path}]", file=sys.stderr)
    return text


def _add_bench_parser(sub: argparse._SubParsersAction) -> None:
    """Attach the ``bench`` subcommand (run by :mod:`repro.bench.cli`)."""
    bench = sub.add_parser(
        "bench",
        help="unified benchmark harness: run suites, compare against "
             "baselines, gate on statistical regressions",
        description="Declarative benchmark registry with calibrated "
                    "timing and statistical regression detection "
                    "(bootstrap CIs + Mann-Whitney U).")
    verbs = bench.add_subparsers(dest="bench_verb", required=True)

    def common(p, with_compare=False):
        p.add_argument("--suite", default=None, metavar="S,S,...",
                       help="suites to touch (default: all registered)")
        p.add_argument("--preset", choices=("small", "full"),
                       default="small",
                       help="workload size preset (default: %(default)s)")
        if with_compare:
            p.add_argument("--threshold", type=float,
                           default=_BENCH_THRESHOLD,
                           help="relative median shift that counts as a "
                                "change (default: %(default)s)")
            p.add_argument("--alpha", type=float, default=_BENCH_ALPHA,
                           help="Mann-Whitney significance level "
                                "(default: %(default)s)")
            p.add_argument("--baseline-dir", dest="baseline_dir",
                           default=None,
                           help="baseline store (default: "
                                "results/baselines)")

    run_p = verbs.add_parser(
        "run", help="run suites and write results/BENCH_<suite>.json",
        description="Run benchmark suites through the calibrated "
                    "runner; every suite writes one shared-schema "
                    "result file.")
    common(run_p)
    run_p.add_argument("--samples", type=int, default=None,
                       help="measurement samples per benchmark "
                            "(default: runner default)")
    run_p.add_argument("--target-time", dest="target_time", type=float,
                       default=None,
                       help="target seconds per measurement batch")
    run_p.add_argument("--trend", default=None, metavar="PATH",
                       help="append one compact JSON line per suite to "
                            "this trajectory file")

    cmp_p = verbs.add_parser(
        "compare",
        help="compare existing results against the baseline store",
        description="Classify each benchmark in results/BENCH_<suite>"
                    ".json against results/baselines/ as improved / "
                    "unchanged / regressed.  Informational: always "
                    "exits 0; use 'gate' to fail on regressions.")
    common(cmp_p, with_compare=True)

    gate_p = verbs.add_parser(
        "gate",
        help="run + compare + exit 1 on any regression or band "
             "violation",
        description="The CI verb: run the suites, compare against the "
                    "baseline store, write a markdown summary, exit 1 "
                    "when anything regressed or a paper-metric "
                    "tolerance band was violated.")
    common(gate_p, with_compare=True)
    gate_p.add_argument("--samples", type=int, default=None,
                        help="measurement samples per benchmark")
    gate_p.add_argument("--target-time", dest="target_time", type=float,
                        default=None,
                        help="target seconds per measurement batch")
    gate_p.add_argument("--no-run", dest="no_run", action="store_true",
                        help="gate existing result files without "
                             "re-running the suites")
    gate_p.add_argument("--allow-missing-baseline",
                        dest="allow_missing_baseline",
                        action="store_true",
                        help="treat a suite without a committed "
                             "baseline as new instead of failing")

    list_p = verbs.add_parser(
        "list", help="list registered suites and their benchmarks",
        description="Instantiate every registered suite at the chosen "
                    "preset and print its benchmarks.")
    common(list_p)
    list_p.add_argument("--json", action="store_true",
                        help="machine-readable output")

    promote_p = verbs.add_parser(
        "promote",
        help="promote current results to the committed baseline store",
        description="Copy results/BENCH_<suite>.json into "
                    "results/baselines/ (after validating the schema). "
                    "Run this on the reference host after an accepted "
                    "performance change.")
    common(promote_p)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vlsa-repro",
        description="Regenerate tables/figures of the VLSA paper "
                    "(DATE'08), or serve the speculative adder.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (_, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, description=help_text)
        for flag in flags:
            _FLAG_BUILDERS[flag](p)
        _add_common_flags(p)

    all_p = sub.add_parser(
        "all", help="run every experiment with its default arguments",
        description="Run every experiment command in sequence, saving "
                    "each artifact and manifest under results/.")
    _add_common_flags(all_p)

    from .families.base import family_names, get_family

    design_kinds = set(_FIXED_DESIGN_KINDS).union(
        *(get_family(f).design_kinds() for f in family_names()))
    exp = sub.add_parser(
        "export", help="generate RTL for a design (the paper's tool)",
        description="Emit synthesizable VHDL/Verilog for a design.  "
                    "Available design kinds (sorted): "
                    + ", ".join(sorted(design_kinds)) + ".")
    exp.add_argument("kind", help="design kind (see the sorted list "
                                  "above; families contribute "
                                  "<family> and <family>_r entries)")
    exp.add_argument("--width", type=int, default=64,
                     help="operand bitwidth (default: %(default)s)")
    exp.add_argument("--window", type=int, default=None,
                     help="primary speculation parameter (default: the "
                          "design's own choice, e.g. the 99.99%% window)")
    exp.add_argument("--out", default="rtl_out",
                     help="output directory (default: %(default)s)")
    exp.add_argument("--library", default="umc180",
                     help="technology library (default: %(default)s)")

    srv = sub.add_parser(
        "serve", help="serve the VLSA over TCP (newline-delimited JSON)",
        description="Run a VlsaService behind a TCP front-end.  One JSON "
                    'object per line: {"a": 1, "b": 2} -> '
                    '{"sum": 3, ...}; {"cmd": "metrics"} returns the '
                    "metrics registry.")
    srv.add_argument("--host", default="127.0.0.1",
                     help="bind address (default: %(default)s)")
    srv.add_argument("--port", type=int, default=8471,
                     help="TCP port, 0 = ephemeral (default: %(default)s)")
    srv.add_argument("--width", type=int, default=64,
                     help="operand bitwidth (default: %(default)s)")
    srv.add_argument("--window", type=int, default=None,
                     help="speculation window (default: 99.99%% window)")
    srv.add_argument("--family", choices=family_names(), default="aca",
                     help="adder family to serve (default: %(default)s)")
    srv.add_argument("--recovery-cycles", dest="recovery_cycles", type=int,
                     default=1,
                     help="recovery penalty in cycles (default: %(default)s)")
    srv.add_argument("--queue-capacity", dest="queue_capacity", type=int,
                     default=1024,
                     help="admission queue capacity (default: %(default)s)")
    srv.add_argument("--max-batch", dest="max_batch", type=int,
                     default=8192,
                     help="max additions per coalesced batch "
                          "(default: %(default)s)")
    srv.add_argument("--duration", type=float, default=None,
                     help="seconds to serve before exiting "
                          "(default: run until interrupted)")
    srv.add_argument("--workers", type=int, default=0,
                     help="worker processes for a multi-process cluster; "
                          "0 = single in-process service "
                          "(default: %(default)s)")
    srv.add_argument("--listen", default=None, metavar="HOST:PORT",
                     help="bind address as one flag; overrides "
                          "--host/--port")
    srv.add_argument("--seed", type=int, default=DEFAULT_SEED,
                     help="root RNG seed (default: %(default)s)")
    srv.add_argument("--no-save", action="store_true",
                     help="skip writing results/serve_manifest.json")

    ver = sub.add_parser(
        "verify",
        help="differential + formal verification: fuzzing, exhaustive "
             "sweeps, and BDD proofs vs the analytic model",
        description="Drive every registered ACA/VLSA implementation "
                    "(gate-level engine, interpreter, functional model, "
                    "VLSA machine, service executors) from one seeded "
                    "vector stream; report elementwise mismatches with "
                    "minimised reproducers, and check empirical error/"
                    "detector rates against the exact analytic model. "
                    "--method formal instead proves the recovery path "
                    "bit-exact and the error set equal to the analytic "
                    "model by BDD model counting, at full width. "
                    "Exit code 1 when anything disagrees.  "
                    "Registered families (sorted): "
                    + ", ".join(family_names()) + ".")
    ver.add_argument("--method", choices=("statistical", "exhaustive",
                                          "formal"),
                     default="statistical",
                     help="verification method: statistical fuzzing "
                          "(plus optional --exhaustive-widths), "
                          "exhaustive enumeration only, or formal BDD "
                          "proof with certificates "
                          "(default: %(default)s)")
    ver.add_argument("--width", type=int, default=64,
                     help="operand bitwidth (default: %(default)s)")
    ver.add_argument("--window", type=int, default=None,
                     help="the family's primary parameter (for ACA the "
                          "speculation window; default: the family's "
                          "own choice; formal: the tier-1 point matrix)")
    ver.add_argument("--family", choices=list(family_names()) + ["all"],
                     default=None,
                     help="adder family to verify (default: aca; "
                          "--method formal defaults to all families)")
    ver.add_argument("--vectors", type=int, default=10000,
                     help="fuzz vectors per stream (default: %(default)s)")
    ver.add_argument("--streams", default=None, metavar="S,S,...",
                     help="vector streams to drive (default: "
                          "uniform,biased,adversarial,boundary; "
                          "'attack' replays a captured cipher trace)")
    ver.add_argument("--impls", default=None, metavar="I,I,...",
                     help="implementation set (default: every builtin "
                          "applicable at this width)")
    ver.add_argument("--exhaustive-widths", dest="exhaustive_widths",
                     default=None, metavar="N,N,...",
                     help="additionally sweep ALL operand pairs for "
                          "these small widths, every window, with exact "
                          "count-equality checks")
    ver.add_argument("--stride", type=int, default=1,
                     help="exhaustive subsampling stride "
                          "(1 = complete; default: %(default)s)")
    ver.add_argument("--recovery-cycles", dest="recovery_cycles",
                     type=int, default=1,
                     help="recovery penalty in cycles "
                          "(default: %(default)s)")
    ver.add_argument("--chunk", type=int, default=4096,
                     help="vectors per comparison chunk "
                          "(default: %(default)s)")
    ver.add_argument("--z", type=float, default=5.0,
                     help="sigma bound for the binomial rate checks "
                          "(default: %(default)s)")
    ver.add_argument("--no-shrink", dest="no_shrink", action="store_true",
                     help="skip reproducer minimisation on mismatches")
    ver.add_argument("--seed", type=int, default=DEFAULT_SEED,
                     help="root RNG seed (default: %(default)s)")
    ver.add_argument("--no-save", action="store_true",
                     help="print only, skip writing results/")

    par = sub.add_parser(
        "pareto",
        help="cross-family delay/area/error-rate Pareto study",
        description="Characterise a parameter sweep of every registered "
                    "adder family gate-level under one technology "
                    "library, score each point with the VLSA "
                    "average-time model, compare against the fastest "
                    "exact library adder, and mark the per-width Pareto "
                    "front over (avg time, area, error rate).  Writes "
                    "results/pareto_families.{json,md}.  Registered "
                    "families (sorted): " + ", ".join(family_names())
                    + ".")
    par.add_argument("--widths", metavar="N,N,...", default=None,
                     help="bitwidths to study (default: 8,16,32,64)")
    par.add_argument("--families", metavar="F,F,...", default=None,
                     help="families to sweep (default: every registered "
                          "family)")
    par.add_argument("--library", default="umc180",
                     help="technology library (default: %(default)s)")
    par.add_argument("--seed", type=int, default=DEFAULT_SEED,
                     help="root RNG seed (default: %(default)s)")
    par.add_argument("--no-save", action="store_true",
                     help="print only, skip writing results/")

    aut = sub.add_parser(
        "autotune",
        help="SLA-driven window/batch autotuning (what-if or online)",
        description="Search every registered family's analytic error "
                    "model for the best (family, window, batch) "
                    "configuration under SLA knobs.  Offline (default): "
                    "a what-if decision for a synthetic operand profile "
                    "— prints the chosen config with its forecast and "
                    "the ranked alternatives.  --online: drive a "
                    "workload (default: the nonstationary drift stream) "
                    "through a live autotuned VlsaService and grade "
                    "per-phase convergence with the verify subsystem's "
                    "binomial cross-check.")
    aut.add_argument("--width", type=int, default=64,
                     help="operand bitwidth (default: %(default)s)")
    aut.add_argument("--sla-stall-rate", type=float, default=0.02,
                     metavar="Y", dest="sla_stall_rate",
                     help="SLA: stall rate <= Y (default: %(default)s; "
                          "negative disables)")
    aut.add_argument("--sla-p99", type=float, default=None, metavar="X",
                     dest="sla_p99",
                     help="SLA: p99 latency <= X cycles, batch queueing "
                          "included (default: off)")
    aut.add_argument("--families", metavar="F,F,...", default=None,
                     help="families to consider (default: all registered)")
    aut.add_argument("--windows", metavar="W,W,...", default=None,
                     help="primary-knob ladder (default: geometric)")
    aut.add_argument("--batch-sizes", metavar="B,B,...", default=None,
                     dest="batch_sizes",
                     help="max_batch_ops candidates (default: 4096)")
    aut.add_argument("--p-propagate", type=float, default=0.5,
                     dest="p_propagate",
                     help="offline profile: per-bit propagate "
                          "probability (default: %(default)s)")
    aut.add_argument("--recovery-cycles", type=int, default=1,
                     dest="recovery_cycles",
                     help="recovery penalty in cycles (default: "
                          "%(default)s)")
    aut.add_argument("--online", action="store_true",
                     help="run the online controller against --workload")
    aut.add_argument("--workload", default="drift",
                     help="online workload (default: %(default)s)")
    aut.add_argument("--ops", type=int, default=60000,
                     help="online: total additions (default: %(default)s)")
    aut.add_argument("--chunk", type=int, default=512,
                     help="online: additions per batch (default: "
                          "%(default)s)")
    aut.add_argument("--alpha", type=float, default=0.75,
                     help="online: biased-phase bit probability "
                          "(default: %(default)s)")
    aut.add_argument("--decide-every", type=int, default=2048,
                     dest="decide_every",
                     help="online: decision cadence in ops (default: "
                          "%(default)s)")
    aut.add_argument("--z", type=float, default=3.0,
                     help="binomial cross-check z (default: %(default)s)")
    aut.add_argument("--strict", action="store_true",
                     help="exit 1 when no config is predicted safe "
                          "(offline) or convergence/SLA fails (online)")
    aut.add_argument("--seed", type=int, default=DEFAULT_SEED,
                     help="root RNG seed (default: %(default)s)")
    aut.add_argument("--no-save", action="store_true",
                     help="print only, skip writing results/")

    _add_bench_parser(sub)
    return parser


def _run_serve(args) -> int:
    import asyncio
    import signal

    from .service import VlsaServer, VlsaService
    from .service.server import install_uvloop

    if args.listen:
        host, _, port = args.listen.rpartition(":")
        if not host or not port.isdigit():
            raise SystemExit(f"--listen wants HOST:PORT, got "
                             f"{args.listen!r}")
        args.host, args.port = host, int(port)

    ctx = RunContext(seed=args.seed, label="serve")
    if args.workers > 0:
        from .cluster import ClusterConfig, ClusterRouter

        service = ClusterRouter(ClusterConfig(
            width=args.width, window=args.window, family=args.family,
            recovery_cycles=args.recovery_cycles,
            workers=args.workers,
            max_batch_ops=args.max_batch,
            worker_queue_ops=args.queue_capacity * args.max_batch), ctx=ctx)
    else:
        service = VlsaService(width=args.width, window=args.window,
                              recovery_cycles=args.recovery_cycles,
                              queue_capacity=args.queue_capacity,
                              max_batch_ops=args.max_batch,
                              ctx=ctx, family=args.family)
    print(f"serving {args.family} width={service.width} "
          f"window={service.window} "
          f"backend={service.backend_name} on "
          f"{args.host}:{args.port or '(ephemeral)'}", file=sys.stderr)

    async def amain() -> None:
        # A signal flips the event; the `async with` exit then drains
        # admitted work, stops the batcher/cluster, and only after that
        # does the manifest/metrics flush below run — graceful, not
        # KeyboardInterrupt-through-the-event-loop.
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        hooked = []
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
                hooked.append(sig)
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # non-main thread / platform without signal support
        try:
            async with VlsaServer(service, host=args.host,
                                  port=args.port) as server:
                host, port = server.address
                print(f"listening on {host}:{port}", file=sys.stderr,
                      flush=True)
                if args.duration is None:
                    await stop.wait()
                else:
                    try:
                        await asyncio.wait_for(stop.wait(), args.duration)
                    except asyncio.TimeoutError:
                        pass
            if stop.is_set():
                print("signal received; drained and shut down",
                      file=sys.stderr)
        finally:
            for sig in hooked:
                loop.remove_signal_handler(sig)

    if install_uvloop():
        print("event loop: uvloop", file=sys.stderr)
    try:
        asyncio.run(amain())
    except KeyboardInterrupt:
        # Fallback when signal handlers could not be installed.
        print("interrupted; shutting down", file=sys.stderr)
    if not args.no_save:
        path = save_json("serve_manifest.json", ctx.as_manifest())
        print(f"[manifest: {path}]", file=sys.stderr)
    print(service.metrics_prometheus(), end="")
    return 0


def _run_pareto(args) -> int:
    from .families import run_pareto_study, write_pareto_report
    from .reporting import results_dir

    ctx = RunContext(seed=args.seed, label="pareto")
    set_default_context(ctx)
    widths = _parse_widths(args.widths, (8, 16, 32, 64))
    families = (tuple(f for f in args.families.split(",") if f)
                if args.families else None)
    with ctx.phase("pareto"):
        report = run_pareto_study(widths=widths, families=families,
                                  library=args.library)
    front = [p for p in report.points if p.on_front]
    print(f"pareto study: {len(report.points)} points across "
          f"{len(widths)} widths; {len(front)} on the front")
    for p in sorted(front, key=lambda p: (p.width, p.avg_time)):
        print(f"  width {p.width:>3}  {p.label:<28} "
              f"avg_time={p.avg_time:.3f}  area={p.area:.1f}  "
              f"err={p.error_rate:.3g}  "
              f"speedup={p.speedup_vs_baseline:.2f}x")
    if not args.no_save:
        paths = write_pareto_report(report, out_dir=results_dir())
        manifest = save_json("pareto_manifest.json", ctx.as_manifest())
        for path in paths + [manifest]:
            print(f"[saved: {path}]", file=sys.stderr)
    return 0


def _parse_int_list(text):
    return tuple(int(x) for x in text.split(",") if x) if text else None


def _run_autotune(args) -> int:
    from .autotune import SLA, run_online, what_if

    ctx = RunContext(seed=args.seed, label="autotune")
    set_default_context(ctx)
    sla = SLA(stall_rate=(None if args.sla_stall_rate is not None
                          and args.sla_stall_rate < 0
                          else args.sla_stall_rate),
              p99_latency_cycles=args.sla_p99)
    families = (tuple(f for f in args.families.split(",") if f)
                if args.families else None)
    windows = _parse_int_list(args.windows)
    batch_sizes = _parse_int_list(args.batch_sizes)

    if args.online:
        with ctx.phase("autotune-online"):
            report = run_online(
                width=args.width, sla=sla, ops=args.ops,
                workload=args.workload, chunk=args.chunk, alpha=args.alpha,
                families=families, windows=windows, batch_sizes=batch_sizes,
                recovery_cycles=args.recovery_cycles,
                decide_every_ops=args.decide_every, z=args.z,
                seed=args.seed, ctx=ctx)
        print(f"autotune online: {report['workload']} workload, "
              f"{report['ops']} ops, width {report['width']}, "
              f"SLA stall<={sla.stall_rate}")
        for ph in report["phases"]:
            verdict = "converged" if ph["converged"] else "NOT CONVERGED"
            print(f"  phase {ph['name']:<12} -> "
                  f"{ph['final_family']}/w={ph['final_window']}  "
                  f"observed={ph['observed_stall_rate']:.5f}  "
                  f"predicted={ph['predicted_stall_rate']:.5f}  "
                  f"[{verdict}]")
        final = report["final"]
        print(f"final config: {final['family']} window={final['window']} "
              f"batch={final['batch_ops']}; "
              f"{report['reconfigurations']} reconfigurations, "
              f"sla_met={report['sla_met']}")
        if not args.no_save:
            path = save_json("autotune_report.json", report)
            trace = save_json("autotune_decisions.json",
                              report["decisions"])
            manifest = save_json("autotune_manifest.json",
                                 ctx.as_manifest())
            print(f"[report: {path}]\n[decisions: {trace}]"
                  f"\n[manifest: {manifest}]", file=sys.stderr)
        if args.strict and not (report["converged"] and report["sla_met"]):
            return 1
        return 0

    with ctx.phase("autotune-whatif"):
        decision = what_if(args.width, sla, p_propagate=args.p_propagate,
                           families=families, windows=windows,
                           batch_sizes=batch_sizes,
                           recovery_cycles=args.recovery_cycles)
    chosen = decision.chosen
    cand = chosen.candidate
    print(f"autotune what-if: width {args.width}, "
          f"p_propagate={args.p_propagate}, SLA stall<={sla.stall_rate} "
          f"p99<={sla.p99_latency_cycles}")
    print(f"chosen: {cand.family} {cand.params} batch={cand.batch_ops}  "
          f"(considered {decision.considered}, "
          f"feasible={decision.feasible})")
    print(f"  forecast: stall={chosen.stall_rate:.6g}  "
          f"mean={chosen.mean_latency_cycles:.6f} cycles  "
          f"p99={chosen.p99_latency_cycles:.1f} cycles  "
          f"objective={chosen.avg_time_units:.3f}")
    print("alternatives:")
    for alt in decision.alternatives:
        c = alt.candidate
        print(f"  {c.family:<10} w={c.primary:<4} batch={c.batch_ops:<6} "
              f"stall={alt.stall_rate:<12.6g} "
              f"objective={alt.avg_time_units:.3f}")
    if not args.no_save:
        path = save_json("autotune_report.json", decision.as_dict())
        manifest = save_json("autotune_manifest.json", ctx.as_manifest())
        print(f"[report: {path}]\n[manifest: {manifest}]", file=sys.stderr)
    if args.strict and not decision.feasible:
        return 1
    return 0


def _run_verify(args) -> int:
    from .families import family_names
    from .verify import (DEFAULT_STREAMS, DifferentialVerifier, run_exhaustive,
                         run_formal)

    ctx = RunContext(seed=args.seed, label="verify")
    set_default_context(ctx)

    report = None
    if args.method == "formal":
        families = (list(family_names())
                    if args.family in (None, "all") else [args.family])
        report = run_formal(families=families, width=args.width,
                            window=args.window, ctx=ctx, seed=args.seed)
    else:
        if args.family == "all":
            print("--family all is only supported with --method formal",
                  file=sys.stderr)
            return 2
        family = args.family or "aca"
        streams = (tuple(s for s in args.streams.split(",") if s)
                   if args.streams else DEFAULT_STREAMS)
        impls = (tuple(i for i in args.impls.split(",") if i)
                 if args.impls else None)
        with ctx.phase("verify"):
            if args.vectors > 0 and args.method == "statistical":
                verifier = DifferentialVerifier(
                    width=args.width, window=args.window, impls=impls,
                    recovery_cycles=args.recovery_cycles, z=args.z, ctx=ctx,
                    shrink=not args.no_shrink, family=family)
                report = verifier.run(vectors=args.vectors, streams=streams,
                                      seed=args.seed, chunk=args.chunk)
            exhaustive_widths = args.exhaustive_widths
            if args.method == "exhaustive" and not exhaustive_widths:
                exhaustive_widths = str(args.width)
            if exhaustive_widths:
                grid = run_exhaustive(
                    _parse_widths(exhaustive_widths, ()), impls=impls,
                    recovery_cycles=args.recovery_cycles, stride=args.stride,
                    chunk=args.chunk, ctx=ctx, shrink=not args.no_shrink,
                    family=family)
                report = report.merge(grid) if report is not None else grid
    if report is None:
        print("nothing to do: --vectors 0 and no --exhaustive-widths",
              file=sys.stderr)
        return 2

    text = report.render()
    print(text)
    if not args.no_save:
        path = save_artifact("verify.txt", text)
        json_path = save_json("verify_report.json", report.as_dict())
        manifest_path = save_json("verify_manifest.json", ctx.as_manifest())
        print(f"\n[saved to {path}]\n[report: {json_path}]"
              f"\n[manifest: {manifest_path}]", file=sys.stderr)
    return 0 if report.ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command == "export":
        from .generator import export_design

        written = export_design(args.kind, args.width, args.out,
                                window=args.window, library=args.library)
        for path in written:
            print(path)
        return 0

    if args.command == "serve":
        return _run_serve(args)

    if args.command == "verify":
        return _run_verify(args)

    if args.command == "pareto":
        return _run_pareto(args)

    if args.command == "autotune":
        return _run_autotune(args)

    if args.command == "bench":
        from .bench.cli import run_bench_command

        return run_bench_command(args)

    if args.command == "all":
        chunks = []
        for name in _COMMANDS:
            defaults = parser.parse_args(
                [name, "--seed", str(args.seed)]
                + (["--manifest"] if args.manifest else [])
                + (["--no-save"] if args.no_save else []))
            text = _run_command(name, defaults)
            chunks.append(f"==== {name} ====\n{text}")
            if not args.no_save:
                save_artifact(f"{name}.txt", text)
        print("\n\n".join(chunks))
        return 0

    text = _run_command(args.command, args)
    print(text)
    if not args.no_save:
        path = save_artifact(f"{args.command}.txt", text)
        print(f"\n[saved to {path}]", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
