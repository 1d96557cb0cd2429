"""One entry point per paper table/figure (see DESIGN.md experiment index).

Each function regenerates a table or figure of the paper and returns a
:class:`~repro.reporting.Table` (plus chart text where applicable).  The
CLI (``python -m repro <verb>``, or ``all`` for every verb) calls these,
so the numbers reported in EXPERIMENTS.md can always be re-derived with
one command; ``tests/test_experiments.py`` asserts the paper's claims on
the same functions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .adders import (
    build_best_traditional,
    build_ripple_adder,
    evaluate_candidates,
)
from .analysis import (
    aca_error_probability,
    choose_window,
    detector_flag_probability,
    expected_flips_closed_form,
    expected_flips_linear_solve,
    expected_flips_monte_carlo,
    expected_latency_cycles,
    expected_longest_run,
    expected_longest_run_asymptotic,
    quantile_longest_run,
    table1_rows,
    variance_longest_run,
)
from .apps import ArxCipher, aca_adder, exact_adder, run_attack, sample_corpus
from .arch import VlsaMachine
from .circuit import (
    TechLibrary,
    UMC180,
    analyze_area,
    analyze_timing,
    generate_tests,
    sequential_timing,
)
from .core import (
    build_aca,
    build_booth_multiplier,
    build_error_detector,
    build_multiplier,
    build_recovery_adder,
    build_speculative_incrementer,
    build_speculative_subtractor,
    build_vlsa_datapath,
    build_vlsa_rtl,
    characterize_vlsa,
    incrementer_error_probability,
    naive_aca_window_products,
)
from .engine import RunContext, get_default_context
from .mc import sample_error_rate
from .reporting import Table, ascii_chart

__all__ = [
    "DEFAULT_BITWIDTHS",
    "table1",
    "theorem1",
    "schilling_table",
    "fig8_rows",
    "fig8_tables",
    "fig7_trace",
    "vlsa_rtl_table",
    "error_rate_table",
    "sharing_ablation",
    "window_sweep",
    "DELAY_MODELS",
    "delay_model_ablation",
    "crypto_attack_experiment",
    "future_work_table",
    "speculative_family_table",
    "fault_table",
    "atpg_table",
    "processor_table",
    "dsp_table",
    "crosscheck_table",
]

#: Fig. 8's x axis in the paper.
DEFAULT_BITWIDTHS: Tuple[int, ...] = (64, 128, 256, 512, 1024, 2048)


def _rand_bits(rng: np.random.Generator, bits: int) -> int:
    """Uniform *bits*-bit integer from a NumPy generator.

    All experiment randomness flows through seeded NumPy generators (one
    RNG family process-wide, plumbed from the CLI's ``--seed`` via the
    run context) instead of the historical mix of ``random.Random`` and
    ``np.random``.
    """
    if bits <= 0:
        return 0
    return int.from_bytes(rng.bytes((bits + 7) // 8), "little") & (
        (1 << bits) - 1)


def _finish(table: Table, ctx: Optional[RunContext]) -> Table:
    """Attach the run context's provenance snapshot to *table*."""
    table.provenance = (ctx or get_default_context()).snapshot()
    return table


# ----------------------------------------------------------------------
# T1: Table 1 — longest-run bounds per bitwidth
# ----------------------------------------------------------------------
def table1(bitwidths: Sequence[int] = (16, 32, 64, 128, 256, 512, 1024,
                                       2048, 4096),
           probabilities: Sequence[float] = (0.99, 0.9999),
           ctx: Optional[RunContext] = None) -> Table:
    """Reproduce Table 1: run bounds holding with 99 % / 99.99 %."""
    table = Table(
        "Table 1 - longest run of 1s bounds (exact A_n(x) recurrence)",
        ["bitwidth"] + [f"P>={p:.4%}".rstrip("0").rstrip(".")
                        for p in probabilities])
    for n, bounds in table1_rows(bitwidths, probabilities):
        table.add_row(n, *bounds)
    table.note = ("Paper: bounds grow like log2(n); raising the bound by ~7 "
                  "bits turns 99% into 99.99% (Gordon et al. tail).")
    return _finish(table, ctx)


# ----------------------------------------------------------------------
# TH1: Theorem 1 — expected flips for a run of k heads
# ----------------------------------------------------------------------
def theorem1(max_k: int = 12, mc_trials: int = 2000,
             seed: int = 0, ctx: Optional[RunContext] = None) -> Table:
    """Check Theorem 1 three ways: closed form, linear solve, Monte Carlo."""
    table = Table("Theorem 1 - E[flips to k consecutive heads] = 2^(k+1) - 2",
                  ["k", "closed form", "markov solve", "monte carlo"])
    rng = np.random.default_rng(seed)
    for k in range(1, max_k + 1):
        closed = expected_flips_closed_form(k)
        solved = expected_flips_linear_solve(k)
        mc = (expected_flips_monte_carlo(k, trials=mc_trials, rng=rng)
              if k <= 10 else float("nan"))
        table.add_row(k, closed, round(solved, 3), round(mc, 1))
    return _finish(table, ctx)


# ----------------------------------------------------------------------
# Schilling asymptotics (supporting analysis for Section 3.1)
# ----------------------------------------------------------------------
def schilling_table(bitwidths: Sequence[int] = (16, 64, 256, 1024),
                    ctx: Optional[RunContext] = None) -> Table:
    """Exact E/Var of the longest run versus Schilling's asymptotics."""
    table = Table(
        "Longest-run statistics: exact vs Schilling log2(n) - 2/3",
        ["bitwidth", "E exact", "E asymptotic", "variance"])
    for n in bitwidths:
        table.add_row(n, round(expected_longest_run(n), 4),
                      round(expected_longest_run_asymptotic(n), 4),
                      round(variance_longest_run(n), 4))
    table.note = ("Exact variance approaches pi^2/(6 ln^2 2) + 1/12 ~ 3.507 "
                  "(the paper's text quotes 1.873; see EXPERIMENTS.md).")
    return _finish(table, ctx)


# ----------------------------------------------------------------------
# F8: Fig. 8 — delay and area sweep
# ----------------------------------------------------------------------
@dataclass
class Fig8Row:
    """Delay/area of the four Fig. 8 circuits at one bitwidth."""

    width: int
    window: int
    traditional_arch: str
    traditional_delay: float
    aca_delay: float
    detect_delay: float
    recovery_delay: float
    traditional_area: float
    aca_area: float
    detect_area: float
    recovery_area: float
    ripple_area: float

    @property
    def aca_speedup(self) -> float:
        return self.traditional_delay / self.aca_delay

    @property
    def detect_ratio(self) -> float:
        return self.detect_delay / self.traditional_delay

    @property
    def recovery_ratio(self) -> float:
        return self.recovery_delay / self.traditional_delay

    @property
    def vlsa_clock(self) -> float:
        return max(self.aca_delay, self.detect_delay)

    @property
    def vlsa_avg_speedup(self) -> float:
        p_err = aca_error_probability(self.width, self.window)
        avg = self.vlsa_clock * expected_latency_cycles(p_err)
        return self.traditional_delay / avg


def fig8_rows(bitwidths: Sequence[int] = DEFAULT_BITWIDTHS,
              library: TechLibrary = UMC180,
              accuracy: float = 0.9999,
              ctx: Optional[RunContext] = None) -> List[Fig8Row]:
    """Build and characterise the four circuits at every bitwidth."""
    ctx = ctx or get_default_context()
    rows: List[Fig8Row] = []
    for n in bitwidths:
        ctx.add("fig8_widths", 1)
        w = choose_window(n, accuracy)
        best = build_best_traditional(n, library)
        aca = build_aca(n, w)
        detect = build_error_detector(n, w)
        recovery = build_recovery_adder(n, w)
        ripple = build_ripple_adder(n)
        rows.append(Fig8Row(
            width=n,
            window=w,
            traditional_arch=best.name,
            traditional_delay=best.delay,
            aca_delay=analyze_timing(aca, library).critical_delay,
            detect_delay=analyze_timing(detect, library).critical_delay,
            recovery_delay=analyze_timing(recovery, library).critical_delay,
            traditional_area=best.area,
            aca_area=analyze_area(aca, library).total,
            detect_area=analyze_area(detect, library).total,
            recovery_area=analyze_area(recovery, library).total,
            ripple_area=analyze_area(ripple, library).total,
        ))
    return rows


def fig8_tables(rows: Optional[List[Fig8Row]] = None,
                bitwidths: Sequence[int] = DEFAULT_BITWIDTHS,
                library: TechLibrary = UMC180,
                ctx: Optional[RunContext] = None
                ) -> Tuple[Table, Table, str, str]:
    """Fig. 8 as two tables (delay, area) and two ASCII charts."""
    if rows is None:
        rows = fig8_rows(bitwidths, library, ctx=ctx)
    delay = Table(
        f"Fig. 8 (left) - critical-path delay [ns], library={library.name}",
        ["bitwidth", "window", "traditional", "arch", "ACA",
         "error detect", "ACA+recovery", "ACA speedup", "detect/trad",
         "recovery/trad", "VLSA avg speedup"])
    area = Table(
        f"Fig. 8 (right) - area normalised to traditional, "
        f"library={library.name}",
        ["bitwidth", "traditional", "ACA", "error detect", "ACA+recovery",
         "ripple (ref)"])
    for r in rows:
        delay.add_row(r.width, r.window, round(r.traditional_delay, 3),
                      r.traditional_arch, round(r.aca_delay, 3),
                      round(r.detect_delay, 3), round(r.recovery_delay, 3),
                      round(r.aca_speedup, 2), round(r.detect_ratio, 2),
                      round(r.recovery_ratio, 2),
                      round(r.vlsa_avg_speedup, 2))
        area.add_row(r.width, 1.0,
                     round(r.aca_area / r.traditional_area, 3),
                     round(r.detect_area / r.traditional_area, 3),
                     round(r.recovery_area / r.traditional_area, 3),
                     round(r.ripple_area / r.traditional_area, 3))
    delay.note = ("Paper: ACA 1.5-2.5x faster than DesignWare; detector "
                  "~2/3 of traditional delay; recovery ~= traditional.")
    area.note = ("Paper: ACA slightly larger than ripple, smaller than "
                 "traditional; recovery largest (it contains the ACA).")
    labels = [str(r.width) for r in rows]
    delay_chart = ascii_chart(
        "Fig. 8 delay vs bitwidth",
        labels,
        {
            "traditional": [r.traditional_delay for r in rows],
            "ACA": [r.aca_delay for r in rows],
            "error detect": [r.detect_delay for r in rows],
            "ACA+recovery": [r.recovery_delay for r in rows],
        },
        y_label="ns")
    area_chart = ascii_chart(
        "Fig. 8 area (normalised to traditional) vs bitwidth",
        labels,
        {
            "traditional": [1.0] * len(rows),
            "ACA": [r.aca_area / r.traditional_area for r in rows],
            "error detect": [r.detect_area / r.traditional_area for r in rows],
            "ACA+recovery": [r.recovery_area / r.traditional_area
                             for r in rows],
        })
    return _finish(delay, ctx), _finish(area, ctx), delay_chart, area_chart


# ----------------------------------------------------------------------
# F7: Fig. 7 — VLSA timing diagram and average latency
# ----------------------------------------------------------------------
def fig7_trace(width: int = 64, operations: int = 100000,
               seed: int = 0,
               ctx: Optional[RunContext] = None) -> Tuple[Table, str]:
    """Run the VLSA machine on a stream and reproduce Fig. 7.

    The first few operands recreate the paper's scenario (ok, stall, ok)
    before switching to a uniform random stream for the latency average.
    """
    ctx = ctx or get_default_context()
    rng = np.random.default_rng(seed)
    machine = VlsaMachine(width, ctx=ctx)
    w = machine.window
    mask = (1 << width) - 1

    # Fig. 7 scenario: op1 correct, op2 forces a stall (a ^ b all ones and
    # a generate right below a long propagate chain), op3 correct.
    a2 = (0x5 << (width - 4)) | 1  # bit 0 generates into ...
    b2 = (~a2) & mask              # ... an all-propagate chain
    scripted = [(1, 2), (a2 | 1, b2 | 1), (3, 4)]
    stream = scripted + [(_rand_bits(rng, width), _rand_bits(rng, width))
                         for _ in range(operations - len(scripted))]
    trace = machine.run(stream)

    p_err_exact = aca_error_probability(width, w)
    table = Table(f"Fig. 7 - VLSA pipeline, {width}-bit, window {w}",
                  ["metric", "value"])
    table.add_row("operations", trace.operations)
    table.add_row("stalls", trace.stall_count)
    table.add_row("total cycles", trace.total_cycles)
    table.add_row("avg latency [cycles]",
                  f"{trace.average_latency_cycles:.6f}")
    table.add_row("model 1 + P(flag)",
                  f"{1 + detector_flag_probability(width, w):.6f}")
    table.add_row("exact P(error)", f"{p_err_exact:.3e}")
    table.note = ("Paper: average latency ~1.0002 cycles at 99.99% "
                  "accuracy; stalls are detector flags, a superset of "
                  "actual errors.")
    return _finish(table, ctx), trace.timing_diagram()


# ----------------------------------------------------------------------
# F6-RTL: the registered VLSA netlist
# ----------------------------------------------------------------------
def vlsa_rtl_table(bitwidths: Sequence[int] = (32, 64, 128),
                   ctx: Optional[RunContext] = None) -> Table:
    """Min clock period of Fig. 6 built with flip-flops.

    Register-aware STA over the operand registers, the ACA/detector
    paths and the recovery controller, per bitwidth.
    """
    table = Table("Registered VLSA netlist (Fig. 6 with flip-flops)",
                  ["bitwidth", "window", "min clock [ns]", "worst path",
                   "gates", "flip-flops"])
    for width in bitwidths:
        circuit = build_vlsa_rtl(width)
        timing = sequential_timing(circuit, UMC180)
        table.add_row(width, circuit.attrs["window"],
                      timing.min_clock_period, timing.worst_path_kind,
                      circuit.gate_count(), len(circuit.dffs()))
    return _finish(table, ctx)


# ----------------------------------------------------------------------
# ERR: exact vs sampled error rates
# ----------------------------------------------------------------------
def error_rate_table(bitwidths: Sequence[int] = (64, 128, 256, 512, 1024),
                     accuracy: float = 0.9999,
                     samples: int = 20000, seed: int = 0,
                     ctx: Optional[RunContext] = None) -> Table:
    """P(ACA wrong) and P(detector fires): exact DP vs Monte Carlo."""
    ctx = ctx or get_default_context()
    table = Table(
        "ACA error rates at the 99.99% window",
        ["bitwidth", "window", "P(error) exact", "P(flag) exact",
         f"P(error) MC ({samples} samples)", "E[latency] cycles"])
    for n in bitwidths:
        w = choose_window(n, accuracy)
        p_err = aca_error_probability(n, w)
        p_flag = detector_flag_probability(n, w)
        mc = sample_error_rate(n, w, samples=samples, seed=seed, ctx=ctx)
        table.add_row(n, w, f"{p_err:.3e}", f"{p_flag:.3e}", f"{mc:.3e}",
                      f"{expected_latency_cycles(p_flag):.6f}")
    table.note = ("Detector flags (stalls) upper-bound errors; both stay "
                  "below 1e-4 by construction of the window.")
    return _finish(table, ctx)


# ----------------------------------------------------------------------
# F3/F4: sharing ablation
# ----------------------------------------------------------------------
def sharing_ablation(bitwidths: Sequence[int] = (64, 128, 256, 512),
                     library: TechLibrary = UMC180,
                     accuracy: float = 0.9999,
                     ctx: Optional[RunContext] = None) -> Table:
    """Shared-strip ACA vs naive per-window small adders (Fig. 3/4).

    Demonstrates the paper's area argument: naive windows cost O(n*w)
    logic and primary-input fanout O(w), while the shared construction is
    O(n log w) with bounded fanout.
    """
    table = Table(
        "Fig. 3/4 - shared strips vs naive per-bit window adders",
        ["bitwidth", "window", "shared gates", "naive gates", "gate ratio",
         "shared area", "naive area", "shared max fanout",
         "naive max fanout"])
    for n in bitwidths:
        w = choose_window(n, accuracy)
        shared = build_aca(n, w)
        naive = naive_aca_window_products(n, w)
        table.add_row(
            n, w, shared.gate_count(), naive.gate_count(),
            round(naive.gate_count() / shared.gate_count(), 2),
            round(analyze_area(shared, library).total, 0),
            round(analyze_area(naive, library).total, 0),
            shared.max_fanout(), naive.max_fanout())
    table.note = ("Paper: sharing keeps the ACA near-linear "
                  "(O(n log log n)) with every product used <= 3 times.")
    return _finish(table, ctx)


# ----------------------------------------------------------------------
# ABL: window-size ablation
# ----------------------------------------------------------------------
def window_sweep(width: int = 1024,
                 windows: Optional[Sequence[int]] = None,
                 library: TechLibrary = UMC180,
                 ctx: Optional[RunContext] = None) -> Table:
    """Accuracy/delay/area trade-off as the speculation window varies."""
    if windows is None:
        q99 = quantile_longest_run(width, 0.99) + 1
        q9999 = quantile_longest_run(width, 0.9999) + 1
        windows = sorted({4, 8, q99, q9999, q9999 + 8, 2 * q9999})
    best = build_best_traditional(width, library)
    table = Table(
        f"Window ablation at {width} bits "
        f"(traditional = {best.name}, {best.delay:.3f} ns)",
        ["window", "P(error)", "P(flag)", "ACA delay", "speedup",
         "VLSA avg speedup", "ACA area/trad"])
    for w in windows:
        aca = build_aca(width, w)
        d = analyze_timing(aca, library).critical_delay
        a = analyze_area(aca, library).total
        p_err = aca_error_probability(width, w)
        p_flag = detector_flag_probability(width, w)
        detect = build_error_detector(width, w)
        clock = max(d, analyze_timing(detect, library).critical_delay)
        avg_time = clock * expected_latency_cycles(p_flag)
        table.add_row(w, f"{p_err:.2e}", f"{p_flag:.2e}", round(d, 3),
                      round(best.delay / d, 2),
                      round(best.delay / avg_time, 2),
                      round(a / best.area, 3))
    table.note = ("Small windows are fast but stall often; beyond the "
                  "99.99% window extra bits buy little.")
    return _finish(table, ctx)


# ----------------------------------------------------------------------
# ABL-M: delay-model ablation
# ----------------------------------------------------------------------
#: Interconnect regimes of the delay-model ablation: the umc180 model's
#: (fanout-load, wire-span) coefficients.
DELAY_MODELS: Dict[str, Tuple[float, float]] = {
    "gate-only (no load/wire)": (0.0, 0.0),
    "light interconnect": (0.012, 0.0002),
    "default (umc180)": (UMC180.fanout_delay, UMC180.wire_delay_per_bit),
    "heavy interconnect": (0.05, 0.0012),
}


def delay_model_ablation(ctx: Optional[RunContext] = None) -> Table:
    """Fig. 8's comparison at 256 bits under every :data:`DELAY_MODELS`.

    Calibration robustness: the paper's shape claims (the ACA is
    fastest, the detector is cheaper than the traditional adder,
    recovery is the same order) must not hinge on one calibration point.
    """
    width = 256
    window = choose_window(width)
    table = Table(
        f"Delay-model ablation at {width} bits "
        "(fanout-load / wire-span coefficients)",
        ["model", "best traditional", "trad [ns]", "ACA [ns]",
         "detect [ns]", "recovery [ns]", "speedup", "det/trad"])
    for name, (fanout, wire) in DELAY_MODELS.items():
        lib = UMC180.with_wire_model(fanout, wire)
        best = min(evaluate_candidates(width, lib), key=lambda r: r.delay)
        trad = best.delay
        aca = analyze_timing(build_aca(width, window), lib).critical_delay
        det = analyze_timing(build_error_detector(width, window),
                             lib).critical_delay
        rec = analyze_timing(build_recovery_adder(width, window),
                             lib).critical_delay
        table.add_row(name, best.name, round(trad, 3), round(aca, 3),
                      round(det, 3), round(rec, 3),
                      round(trad / aca, 2), round(det / trad, 2))
    return _finish(table, ctx)


# ----------------------------------------------------------------------
# APP: ciphertext-only attack
# ----------------------------------------------------------------------
def crypto_attack_experiment(corpus_bytes: int = 4096,
                             key_bits: int = 8,
                             window: int = 8,
                             seed: int = 7,
                             ctx: Optional[RunContext] = None) -> Table:
    """Frequency-analysis attack with exact vs speculative decryption.

    The candidate key space is the paper's "pruned set of potential keys";
    per-add latencies use the measured 64-bit ACA-vs-traditional delay
    ratio (~2x), so the time column shows the attack-level payoff.
    """
    rng = np.random.default_rng(seed)
    true_key = _rand_bits(rng, key_bits) | 1
    plaintext = sample_corpus(corpus_bytes, seed=seed)
    ciphertext = ArxCipher(true_key).encrypt_bytes(plaintext)
    candidates = list(range(1 << key_bits))

    exact_res = run_attack(ciphertext, true_key, candidates,
                           adder=exact_adder, add_latency=1.0)
    aca_res = run_attack(ciphertext, true_key, candidates,
                         adder=aca_adder(window), add_latency=0.5)

    blocks = len(ciphertext) // 8
    table = Table(
        f"Ciphertext-only attack: {blocks} blocks, {1 << key_bits} keys, "
        f"ACA window {window}",
        ["decryption adder", "true key rank", "wrong blocks",
         "32-bit adds", "model time", "speedup"])
    table.add_row("exact", exact_res.rank_of_true_key(),
                  exact_res.wrong_blocks, exact_res.adds_performed,
                  round(exact_res.arithmetic_time, 0), 1.0)
    table.add_row("ACA (speculative)", aca_res.rank_of_true_key(),
                  aca_res.wrong_blocks, aca_res.adds_performed,
                  round(aca_res.arithmetic_time, 0),
                  round(exact_res.arithmetic_time /
                        aca_res.arithmetic_time, 2))
    table.note = ("Paper Section 1: a few wrongly decrypted blocks cannot "
                  "shift corpus letter frequencies, so the attack still "
                  "recovers the key at ACA speed.")
    return _finish(table, ctx)


# ----------------------------------------------------------------------
# FW: Section 6 future work — speculative multiplier / multi-op adder
# ----------------------------------------------------------------------
def future_work_table(mul_width: int = 32, multiop_width: int = 128,
                      operands: int = 4,
                      library: TechLibrary = UMC180,
                      samples: int = 300,
                      ctx: Optional[RunContext] = None) -> Table:
    """Speculative multiplier and multi-operand adder vs exact versions.

    Reproduces the paper's closing claim that the paradigm extends to
    other arithmetic components: only the final carry-propagate addition
    speculates, so the delay saving and the guarded-error property carry
    over.  The win is bounded by Amdahl's law — the carry-save tree
    dominates the multiplier's critical path and is exact — so overall
    speedups are modest (~1.05x for 32x32, ~1.25x for 4x128-bit
    accumulation) while the final-adder stage itself speeds up like the
    plain ACA.
    """
    from .core import build_multi_operand_adder, multiplier_error_rate

    w_mul = choose_window(2 * mul_width)
    w_mop = choose_window(multiop_width + operands.bit_length())

    table = Table(
        "Section 6 future work: speculative multiplier / multi-op adder",
        ["design", "delay [ns]", "speedup", "area ratio",
         "measured P(error)", "P(flag)"])

    mul_exact = build_multiplier(mul_width, None)
    mul_spec = build_multiplier(mul_width, w_mul)
    d_e = analyze_timing(mul_exact, library).critical_delay
    d_s = analyze_timing(mul_spec, library).critical_delay
    a_e = analyze_area(mul_exact, library).total
    a_s = analyze_area(mul_spec, library).total
    # Measure the guarded-error property on a configuration small enough
    # to show nonzero rates (the design-point rates are ~1e-5).
    p_err, p_flag = multiplier_error_rate(12, 5, samples=samples)
    table.add_row(f"mul {mul_width}x{mul_width} exact", round(d_e, 3),
                  1.0, 1.0, 0.0, 0.0)
    table.add_row(f"mul {mul_width}x{mul_width} ACA w={w_mul}",
                  round(d_s, 3), round(d_e / d_s, 2),
                  round(a_s / a_e, 3), f"{p_err:.1e} (12b,w5)",
                  f"{p_flag:.1e} (12b,w5)")

    mop_exact = build_multi_operand_adder(multiop_width, operands, None)
    mop_spec = build_multi_operand_adder(multiop_width, operands, w_mop)
    d_e = analyze_timing(mop_exact, library).critical_delay
    d_s = analyze_timing(mop_spec, library).critical_delay
    a_e = analyze_area(mop_exact, library).total
    a_s = analyze_area(mop_spec, library).total
    table.add_row(f"{operands}-operand add {multiop_width}b exact",
                  round(d_e, 3), 1.0, 1.0, 0.0, 0.0)
    table.add_row(f"{operands}-operand add {multiop_width}b ACA w={w_mop}",
                  round(d_s, 3), round(d_e / d_s, 2),
                  round(a_s / a_e, 3), "-", "-")
    table.note = ("Only the final carry-propagate addition speculates; "
                  "the CSA tree is exact, so all errors stay guarded by "
                  "the detector.")
    return _finish(table, ctx)


# ----------------------------------------------------------------------
# FAM: the speculative family side by side
# ----------------------------------------------------------------------
def speculative_family_table(width: int = 64,
                             ctx: Optional[RunContext] = None) -> Table:
    """Every speculative component at the 99.99 % window.

    Adder, subtractor and incrementer at *width*, plus 32x32 array and
    Booth multipliers (final adder at the 64-bit window): the "new
    paradigm" of the paper's title and Section 6.
    """
    w = choose_window(width)
    designs = [
        ("ACA adder", build_aca(width, w),
         aca_error_probability(width, w)),
        ("subtractor", build_speculative_subtractor(width, w), None),
        ("incrementer", build_speculative_incrementer(width, w),
         incrementer_error_probability(width, w)),
        ("array multiplier 32x32",
         build_multiplier(32, choose_window(64)), None),
        ("Booth multiplier 32x32",
         build_booth_multiplier(32, choose_window(64)), None),
    ]
    table = Table(
        f"The speculative family at the 99.99% window (width {width})",
        ["design", "delay [ns]", "area", "gates", "P(error)"])
    for name, circuit, p_err in designs:
        delay = analyze_timing(circuit, UMC180).critical_delay
        area = analyze_area(circuit, UMC180).total
        table.add_row(name, round(delay, 3), round(area, 0),
                      circuit.gate_count(),
                      f"{p_err:.1e}" if p_err is not None else "-")
    return _finish(table, ctx)


# ----------------------------------------------------------------------
# FLT: stuck-at fault study of the VLSA
# ----------------------------------------------------------------------
def fault_table(width: int = 12, window: int = 4,
                vectors: int = 256,
                ctx: Optional[RunContext] = None) -> Table:
    """Random-pattern stuck-at coverage of the VLSA datapath.

    Quantifies the caveat that the VLSA's ER flag guards *speculation*
    errors, not silicon defects: observing only ``err`` catches a small
    fraction of stuck-at faults, while the exact-sum outputs expose
    nearly all of them.
    """
    from .circuit import fault_coverage
    from .core import build_vlsa_datapath

    circuit = build_vlsa_datapath(width, window)
    table = Table(
        f"Stuck-at coverage of the {width}-bit VLSA datapath "
        f"({vectors} random vectors)",
        ["observed outputs", "faults", "detected", "coverage"])
    for label, outs in [
            ("all outputs", None),
            ("sum_exact only", ["sum_exact", "cout_exact"]),
            ("speculative sum only", ["sum", "cout"]),
            ("err flag only", ["err"])]:
        rep = fault_coverage(circuit, num_vectors=vectors, outputs=outs,
                             seed=0)
        table.add_row(label, rep.total_faults, rep.detected,
                      round(rep.coverage, 3))
    table.note = ("The error flag is not a fault detector — defects need "
                  "ordinary test patterns (cf. Razor-style approaches "
                  "the paper contrasts with in Section 2).")
    return _finish(table, ctx)


def atpg_table(ctx: Optional[RunContext] = None) -> Table:
    """A complete stuck-at test set for a small ACA (BDD-based ATPG).

    The 8-bit ACA at window 3, seeded with 32 random vectors (seed 0).
    """
    width, window = 8, 3
    result = generate_tests(build_aca(width, window), random_vectors=32,
                            seed=0)
    table = Table(f"ATPG on the {width}-bit ACA (window {window})",
                  ["metric", "value"])
    table.add_row("faults", result.total_faults)
    table.add_row("detected", result.detected)
    table.add_row("proven untestable", len(result.untestable))
    table.add_row("test vectors", len(result.vectors))
    table.add_row("coverage of testable", round(result.coverage, 4))
    return _finish(table, ctx)


# ----------------------------------------------------------------------
# CPU: Section 4.2's processor context
# ----------------------------------------------------------------------
def processor_table(width: int = 32, iterations: int = 200,
                    ctx: Optional[RunContext] = None) -> Table:
    """Cycle counts of a small program on the VLSA-ALU vs exact-ALU CPU."""
    from .arch import Instruction, TinyCpu

    minus_one = -1 & ((1 << width) - 1)  # width-sized two's complement
    program = [
        Instruction("LOADI", 0), Instruction("STORE", 0),
        Instruction("LOADI", iterations), Instruction("STORE", 1),
        Instruction("LOAD", 0), Instruction("ADD", 1),
        Instruction("STORE", 0),
        Instruction("LOAD", 1), Instruction("ADDI", minus_one),
        Instruction("STORE", 1),
        Instruction("JNZ", 4),
        Instruction("LOAD", 0), Instruction("HALT"),
    ]
    table = Table(
        f"Accumulation loop ({iterations} iterations) on the tiny CPU",
        ["ALU adder", "result", "instructions", "cycles", "CPI",
         "ALU stalls"])
    results = {}
    for adder in ("exact", "vlsa"):
        res = TinyCpu(width=width, adder=adder).run(program)
        results[adder] = res
        table.add_row(adder, res.accumulator, res.instructions_executed,
                      res.cycles, round(res.cpi(), 3), res.add_stalls)
    speed = results["exact"].cycles / results["vlsa"].cycles
    table.note = (f"VLSA ALU finishes the program {speed:.2f}x faster in "
                  "cycles of the same (short) clock; stalls are the rare "
                  "detector flags (Section 4.2/4.3).")
    return _finish(table, ctx)


# ----------------------------------------------------------------------
# DSP: soft-DSP workload dependence (extension finding)
# ----------------------------------------------------------------------
def dsp_table(samples: int = 400, windows: Sequence[int] = (12, 18, 24, 30),
              ctx: Optional[RunContext] = None) -> Table:
    """FIR accumulation: measured stall rates vs the uniform model.

    Extension experiment: signed small-magnitude data produces long
    sign-extension propagate chains, so the speculative adder stalls
    orders of magnitude more often than the uniform-operand analysis
    predicts — while the VLSA output stays exact.  Raw-ACA SNR collapses
    because dropped carries hit the high bits.
    """
    from .apps import (
        aca_adder,
        fir_filter,
        moving_average_taps,
        quantize,
        snr_db,
        synth_signal,
        vlsa_fir_filter,
    )

    signal = quantize(synth_signal(samples, seed=1))
    taps = quantize(moving_average_taps(8))
    golden = fir_filter(signal, taps)

    table = Table(
        "FIR accumulation (32-bit signed fixed point): stalls and quality",
        ["window", "uniform P(flag)", "measured stall rate",
         "raw ACA SNR [dB]", "VLSA exact", "VLSA avg latency"])
    for w in windows:
        uniform = detector_flag_probability(32, w) if w <= 32 else 0.0
        out, stats = vlsa_fir_filter(signal, taps, window=w)
        raw = fir_filter(signal, taps, add=aca_adder(w))
        snr = snr_db(golden, raw)
        table.add_row(w, f"{uniform:.1e}", f"{stats.stall_rate:.3f}",
                      "inf" if snr == float("inf") else round(snr, 1),
                      "yes" if out == golden else "NO",
                      round(stats.average_latency(), 3))
    table.note = ("Signed data violates the uniform-operand assumption "
                  "(sign-extension bits are propagate-heavy); see "
                  "repro.analysis.error_model (biased weights) for the "
                  "matching model.")
    return _finish(table, ctx)


# ----------------------------------------------------------------------
# XCK: engine backends vs functional model cross-check
# ----------------------------------------------------------------------
def crosscheck_table(widths: Sequence[int] = (16, 32, 64),
                     vectors: int = 2048,
                     ctx: Optional[RunContext] = None) -> Table:
    """Cross-check every engine backend against the functional ACA model.

    A thin front-end over :mod:`repro.verify`: for each width the
    gate-level ACA (at the 99.99 % window) runs the same seeded uniform
    vectors through every registered engine backend via the differential
    verifier, so mismatches come back with a first failing vector and a
    minimised reproducer instead of a bare boolean.  Also reports
    per-backend throughput, making this the quickest way to sanity-check
    a ``--backend`` choice.  Deeper coverage (all implementation
    families, adversarial/boundary streams, exhaustive small widths,
    statistical rate checks) lives in ``python -m repro verify``.
    """
    from .engine import available_backends
    from .verify import DifferentialVerifier

    ctx = ctx or get_default_context()
    table = Table(
        f"Engine cross-check: gate-level backends vs functional ACA "
        f"({vectors} vectors)",
        ["bitwidth", "window", "backend", "matches functional", "Mvec/s"])
    # The context's backend (the CLI's --backend) is checked first.
    order = [ctx.backend] + [b for b in available_backends()
                             if b != ctx.backend]
    failures = []
    for n in widths:
        w = choose_window(n)
        for backend in order:
            verifier = DifferentialVerifier(
                width=n, window=w, impls=(f"engine:{backend}",), ctx=ctx)
            with ctx.phase(f"crosscheck_{backend}"):
                t0 = time.perf_counter()
                report = verifier.run(vectors=vectors, streams=("uniform",),
                                      seed=ctx.spawn_seed("crosscheck"))
                dt = time.perf_counter() - t0
            cov = next(c for c in report.coverage
                       if c.impl == f"engine:{backend}")
            table.add_row(n, w, backend,
                          "yes" if report.ok else "NO",
                          round(cov.vectors / dt / 1e6, 3))
            failures.extend(d.describe() for d in report.discrepancies)
    if failures:
        raise AssertionError(
            "engine backends disagree with the functional model:\n  "
            + "\n  ".join(failures))
    table.note = ("All backends must agree bit-for-bit with the functional "
                  "model (proven equivalent to the gates in tests); "
                  "throughput is indicative, not a benchmark.")
    return _finish(table, ctx)
