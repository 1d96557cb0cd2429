"""Baseline store and the regression comparator/gate.

Baselines live in ``results/baselines/BENCH_<suite>.json`` — the same
schema as fresh results, committed to the repository so every PR is
judged against a known-good trajectory point.  The comparator walks
the benchmarks both files share and classifies each one with
:func:`repro.bench.stats.classify`; benchmarks present on only one
side are reported as ``new`` / ``missing`` rather than failing, so
adding a benchmark never breaks the gate.  A benchmark whose payload
raised in the current run is reported as ``error`` with its exception
text.

The gate's contract: exit non-zero iff at least one benchmark is
``regressed`` or ``error`` (or a paper-metric tolerance band was
violated in the current run), and always emit a markdown summary table
a human can read in a CI artifact without rerunning anything.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..reporting import results_dir
from .schema import load_suite_result, result_path, write_suite_result
from .stats import (DEFAULT_ALPHA, DEFAULT_THRESHOLD, VERDICT_REGRESSED,
                    Comparison, classify)

__all__ = [
    "SuiteComparison",
    "baseline_path",
    "compare_payloads",
    "compare_suite",
    "promote_baseline",
    "render_markdown",
]

#: Verdicts for benchmarks present on only one side.
VERDICT_NEW = "new"
VERDICT_MISSING = "missing"
#: Verdict for a benchmark whose payload raised in the current run.
VERDICT_ERROR = "error"


def baseline_path(suite: str, base_dir: Optional[str] = None) -> str:
    """Path of a suite's committed baseline file."""
    root = base_dir or os.path.join(results_dir(), "baselines")
    return os.path.join(root, f"BENCH_{suite}.json")


@dataclass
class BenchVerdict:
    """One benchmark's comparison row."""

    name: str
    verdict: str
    comparison: Optional[Comparison] = None
    band_violations: List[str] = field(default_factory=list)
    error: Optional[str] = None

    @property
    def failing(self) -> bool:
        return (self.verdict in (VERDICT_REGRESSED, VERDICT_ERROR)
                or bool(self.band_violations))

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"name": self.name, "verdict": self.verdict}
        if self.comparison is not None:
            out.update(self.comparison.as_dict())
        if self.band_violations:
            out["band_violations"] = list(self.band_violations)
        if self.error is not None:
            out["error"] = self.error
        return out


@dataclass
class SuiteComparison:
    """All verdicts for one suite, plus host context for the report."""

    suite: str
    rows: List[BenchVerdict]
    baseline_host: Dict[str, Any] = field(default_factory=dict)
    current_host: Dict[str, Any] = field(default_factory=dict)
    baseline_preset: str = ""
    current_preset: str = ""

    @property
    def regressed(self) -> List[str]:
        return [r.name for r in self.rows
                if r.verdict == VERDICT_REGRESSED]

    @property
    def band_failures(self) -> List[str]:
        return [r.name for r in self.rows if r.band_violations]

    @property
    def errored(self) -> List[str]:
        return [r.name for r in self.rows if r.verdict == VERDICT_ERROR]

    @property
    def ok(self) -> bool:
        return not any(r.failing for r in self.rows)

    @property
    def cross_host(self) -> bool:
        keys = ("platform", "machine", "cpu_count")
        return any(self.baseline_host.get(k) != self.current_host.get(k)
                   for k in keys)

    @property
    def cross_preset(self) -> bool:
        return self.baseline_preset != self.current_preset

    def as_dict(self) -> Dict[str, Any]:
        return {
            "suite": self.suite,
            "ok": self.ok,
            "regressed": self.regressed,
            "band_failures": self.band_failures,
            "errored": self.errored,
            "cross_host": self.cross_host,
            "cross_preset": self.cross_preset,
            "rows": [r.as_dict() for r in self.rows],
        }


def compare_payloads(baseline: Dict[str, Any], current: Dict[str, Any],
                     threshold: float = DEFAULT_THRESHOLD,
                     alpha: float = DEFAULT_ALPHA,
                     seed: int = 0) -> SuiteComparison:
    """Compare two schema-valid payloads of the same suite."""
    if baseline["suite"] != current["suite"]:
        raise ValueError(f"suite mismatch: baseline {baseline['suite']!r} "
                         f"vs current {current['suite']!r}")
    base_by_name = {b["name"]: b for b in baseline["benchmarks"]}
    cur_by_name = {b["name"]: b for b in current["benchmarks"]}

    rows: List[BenchVerdict] = []
    for name, cur in cur_by_name.items():
        violations = list(cur.get("band_violations", ()))
        base = base_by_name.get(name)
        if base is None:
            rows.append(BenchVerdict(name=name, verdict=VERDICT_NEW,
                                     band_violations=violations))
            continue
        comp = classify(base["samples_s_per_call"],
                        cur["samples_s_per_call"],
                        threshold=threshold, alpha=alpha, seed=seed)
        rows.append(BenchVerdict(name=name, verdict=comp.verdict,
                                 comparison=comp,
                                 band_violations=violations))
    errors = current.get("errors", {})
    for name, text in errors.items():
        rows.append(BenchVerdict(name=name, verdict=VERDICT_ERROR,
                                 error=text))
    for name in base_by_name:
        if name not in cur_by_name and name not in errors:
            rows.append(BenchVerdict(name=name, verdict=VERDICT_MISSING))
    rows.sort(key=lambda r: r.name)
    return SuiteComparison(suite=current["suite"], rows=rows,
                           baseline_host=baseline.get("host", {}),
                           current_host=current.get("host", {}),
                           baseline_preset=baseline.get("preset", ""),
                           current_preset=current.get("preset", ""))


def compare_suite(suite: str, threshold: float = DEFAULT_THRESHOLD,
                  alpha: float = DEFAULT_ALPHA,
                  results_path: Optional[str] = None,
                  baseline: Optional[str] = None,
                  seed: int = 0) -> SuiteComparison:
    """Compare a suite's current result file against its baseline."""
    current = load_suite_result(results_path or result_path(suite))
    base = load_suite_result(baseline or baseline_path(suite))
    return compare_payloads(base, current, threshold=threshold,
                            alpha=alpha, seed=seed)


def promote_baseline(suite: str, results_path: Optional[str] = None,
                     baseline_dir: Optional[str] = None) -> str:
    """Copy a suite's current (validated) result into the baseline store."""
    payload = load_suite_result(results_path or result_path(suite))
    root = baseline_dir or os.path.join(results_dir(), "baselines")
    return write_suite_result(payload, base_dir=root)


def _fmt_time(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f} s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.3f} ms"
    if seconds >= 1e-6:
        return f"{seconds * 1e6:.3f} us"
    return f"{seconds * 1e9:.1f} ns"


def render_markdown(comparisons: List[SuiteComparison],
                    threshold: float = DEFAULT_THRESHOLD) -> str:
    """Markdown gate report: one table per suite plus a verdict line."""
    lines: List[str] = ["# Benchmark gate report", ""]
    any_fail = any(not c.ok for c in comparisons)
    verdict = "**FAIL**" if any_fail else "**PASS**"
    lines.append(f"Gate verdict: {verdict} "
                 f"(threshold {threshold * 100:.0f}% median shift, "
                 f"Mann-Whitney + bootstrap-CI confirmation)")
    lines.append("")
    for comp in comparisons:
        lines.append(f"## Suite `{comp.suite}`")
        lines.append("")
        if comp.cross_host:
            lines.append("> **Warning:** baseline and current run come "
                         "from different hosts — absolute shifts may "
                         "reflect hardware, not code.")
            lines.append("")
        if comp.cross_preset:
            lines.append(f"> **Warning:** preset mismatch (baseline "
                         f"`{comp.baseline_preset}` vs current "
                         f"`{comp.current_preset}`) — workload sizes "
                         f"differ, shifts are not comparable.")
            lines.append("")
        lines.append("| benchmark | verdict | baseline median | "
                     "current median | shift | p-value | bands |")
        lines.append("|---|---|---:|---:|---:|---:|---|")
        for row in comp.rows:
            c = row.comparison
            mark = {"regressed": "🔴", "improved": "🟢"}.get(
                row.verdict, "⚪" if c is not None else "➕")
            if row.verdict == VERDICT_MISSING:
                mark = "❓"
            band = ("; ".join(row.band_violations)
                    if row.band_violations else "ok")
            if row.error is not None:
                # One table cell: no newlines, escaped pipes.
                mark = "💥"
                band = " ".join(row.error.split()).replace("|", "\\|")
            if c is None:
                lines.append(f"| `{row.name}` | {mark} {row.verdict} "
                             f"| — | — | — | — | {band} |")
            else:
                lines.append(
                    f"| `{row.name}` | {mark} {row.verdict} "
                    f"| {_fmt_time(c.baseline_median)} "
                    f"| {_fmt_time(c.current_median)} "
                    f"| {c.effect * 100:+.1f}% "
                    f"| {c.p_value:.4f} | {band} |")
        lines.append("")
        if comp.regressed:
            lines.append(f"Regressed: {', '.join(comp.regressed)}")
            lines.append("")
        if comp.band_failures:
            lines.append("Paper-metric band violations: "
                         f"{', '.join(comp.band_failures)}")
            lines.append("")
        if comp.errored:
            lines.append(f"Errored: {', '.join(comp.errored)}")
            lines.append("")
    return "\n".join(lines)
