"""Machine-readable verification reports.

A :class:`VerifyReport` is the single artefact a verification run
produces: per-pair coverage counts, every discrepancy (with its first
failing vector and a minimised reproducer), the statistical rate checks,
and the exhaustive-grid results.  ``as_dict()`` is what the CLI writes
to ``results/verify_report.json``; ``render()`` is the human view built
from the same data.

Reproducing a reported discrepancy needs only the fields the report
records: the stream tuple ``(name, width, window, seed)`` replays the
identical vector sequence (see :mod:`repro.verify.vectors`), and the
``a``/``b`` (or ``shrunk_a``/``shrunk_b``) operands re-trigger the
failure directly on the named implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..reporting import Table
from .stats import RateCheck

__all__ = ["Discrepancy", "Coverage", "ExhaustiveCell", "ProofCertificate",
           "VerifyReport", "VERIFY_METHODS"]

#: The three escalating verification methods a report can carry:
#: seeded fuzzing with binomial rate bounds, complete small-width
#: enumeration with exact count equality, and BDD-backed symbolic proof
#: over the gate-level netlists (exact at any width).
VERIFY_METHODS = ("statistical", "exhaustive", "formal")


@dataclass
class Discrepancy:
    """One implementation/reference disagreement.

    Attributes:
        kind: What disagreed (``sum``/``cout``/``flag``/``latency``/
            ``spec_error``/``reference``), or ``crash`` when the
            implementation raised on the chunk starting at *index*
            (*got* then holds the traceback).
        impl: Implementation that produced the wrong value.
        stream: Stream name the vector came from.
        width, window: Configuration under test.
        index: Vector position within the stream (with the stream seed,
            this pinpoints the exact failing vector).
        a, b: The first failing operands.
        expected, got: Reference versus implementation value.
        shrunk_a, shrunk_b: Minimised reproducer (same failure), when
            shrinking was enabled and succeeded.
        seed: Stream seed (replays the whole failing sequence).
    """

    kind: str
    impl: str
    stream: str
    width: int
    window: int
    index: int
    a: int
    b: int
    expected: Any
    got: Any
    seed: Optional[int] = None
    shrunk_a: Optional[int] = None
    shrunk_b: Optional[int] = None
    family: str = "aca"

    def as_dict(self) -> Dict[str, Any]:
        return {
            "family": self.family,
            "kind": self.kind,
            "impl": self.impl,
            "stream": self.stream,
            "width": self.width,
            "window": self.window,
            "index": self.index,
            "a": self.a,
            "b": self.b,
            "expected": self.expected,
            "got": self.got,
            "seed": self.seed,
            "shrunk_a": self.shrunk_a,
            "shrunk_b": self.shrunk_b,
        }

    def describe(self) -> str:
        base = (f"{self.impl}: {self.kind} mismatch at "
                f"{self.stream}[{self.index}] (family={self.family}, "
                f"width={self.width}, "
                f"window={self.window}, seed={self.seed}): "
                f"a={self.a:#x} b={self.b:#x} "
                f"expected {self.expected!r} got {self.got!r}")
        if self.shrunk_a is not None:
            base += (f"; minimised: a={self.shrunk_a:#x} "
                     f"b={self.shrunk_b:#x}")
        return base


@dataclass
class Coverage:
    """Vectors driven through one implementation/reference pair."""

    impl: str
    reference: str = "oracle"
    vectors: int = 0
    mismatches: int = 0
    per_stream: Dict[str, int] = field(default_factory=dict)

    def add(self, stream: str, count: int) -> None:
        self.vectors += count
        self.per_stream[stream] = self.per_stream.get(stream, 0) + count

    def as_dict(self) -> Dict[str, Any]:
        return {
            "impl": self.impl,
            "reference": self.reference,
            "vectors": self.vectors,
            "mismatches": self.mismatches,
            "per_stream": dict(self.per_stream),
        }


@dataclass
class ExhaustiveCell:
    """Result of one exhaustive ``(width, window)`` grid cell.

    When the cell covered *all* ``4^width`` operand pairs, the observed
    error/detector counts are compared **exactly** (integer equality)
    against the analytic probabilities — the strongest possible check of
    the ``A_n(x)`` recurrence.
    """

    width: int
    window: int
    pairs: int
    complete: bool
    mismatches: int = 0
    error_count: int = 0
    expected_error_count: Optional[int] = None
    flag_count: int = 0
    expected_flag_count: Optional[int] = None
    family: str = "aca"

    @property
    def ok(self) -> bool:
        if self.mismatches:
            return False
        if self.complete:
            if (self.expected_error_count is not None
                    and self.error_count != self.expected_error_count):
                return False
            if (self.expected_flag_count is not None
                    and self.flag_count != self.expected_flag_count):
                return False
        return True

    def as_dict(self) -> Dict[str, Any]:
        return {
            "family": self.family,
            "width": self.width,
            "window": self.window,
            "pairs": self.pairs,
            "complete": self.complete,
            "mismatches": self.mismatches,
            "error_count": self.error_count,
            "expected_error_count": self.expected_error_count,
            "flag_count": self.flag_count,
            "expected_flag_count": self.expected_flag_count,
            "ok": self.ok,
        }


@dataclass
class ProofCertificate:
    """Machine-readable outcome of one formal proof obligation.

    A certificate records everything needed to audit (and re-run) one
    symbolic check of one family configuration: which obligation was
    discharged, on which netlist, under which engine and variable
    order, and — for the counting obligations — the exact BDD model
    count next to the analytic expectation.  ``status`` is ``"proved"``
    or ``"refuted"``; a refuted obligation carries a concrete
    counterexample operand pair extracted from the BDD.

    Obligations:

    * ``recovery_sum`` / ``recovery_cout`` — the recovery datapath's
      ``sum_exact``/``cout_exact`` equal true addition on **all**
      ``4^width`` operand pairs (pointer equality against a golden
      ripple specification built directly in the manager);
    * ``core_consistent`` — the standalone speculative core netlist is
      equivalent to the datapath's speculative outputs;
    * ``detector_sound`` — ``err = 0`` implies the speculative result
      is exact (the detector never misses an error);
    * ``error_count`` — the BDD model count of the speculative-vs-true
      miter equals ``exact_error_rate * 4^width`` as an integer;
    * ``flag_count`` — the model count of ``err`` equals
      ``exact_flag_rate * 4^width`` as an integer.

    Together ``detector_sound`` + ``error_count`` + ``flag_count``
    characterise the family's error set exactly: when the two counts
    coincide (CESA-R), soundness upgrades to flag *iff* error.
    """

    family: str
    width: int
    params: Dict[str, int]
    obligation: str
    status: str
    circuit: str = ""
    engine: str = "robdd"
    variable_order: str = "interleaved"
    bdd_nodes: int = 0
    expected_count: Optional[int] = None
    counted: Optional[int] = None
    counterexample: Optional[Dict[str, int]] = None
    detail: str = ""
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "proved"

    def as_dict(self) -> Dict[str, Any]:
        return {
            "family": self.family,
            "width": self.width,
            "params": dict(self.params),
            "obligation": self.obligation,
            "status": self.status,
            "ok": self.ok,
            "circuit": self.circuit,
            "engine": self.engine,
            "variable_order": self.variable_order,
            "bdd_nodes": self.bdd_nodes,
            "expected_count": self.expected_count,
            "counted": self.counted,
            "counterexample": (dict(self.counterexample)
                               if self.counterexample else None),
            "detail": self.detail,
            "elapsed_s": self.elapsed_s,
        }

    def describe(self) -> str:
        base = (f"{self.family} width={self.width} "
                f"params={self.params}: {self.obligation} {self.status}")
        if self.counted is not None:
            base += (f" (counted {self.counted}, "
                     f"expected {self.expected_count})")
        if self.counterexample:
            base += (f"; counterexample a={self.counterexample['a']:#x} "
                     f"b={self.counterexample['b']:#x}")
        if self.detail:
            base += f" — {self.detail}"
        return base


@dataclass
class VerifyReport:
    """Complete outcome of a verification run."""

    width: int
    window: int
    seed: int
    family: str = "aca"
    method: str = "statistical"
    streams: List[str] = field(default_factory=list)
    impls: List[str] = field(default_factory=list)
    coverage: List[Coverage] = field(default_factory=list)
    discrepancies: List[Discrepancy] = field(default_factory=list)
    rate_checks: List[RateCheck] = field(default_factory=list)
    exhaustive: List[ExhaustiveCell] = field(default_factory=list)
    proofs: List[ProofCertificate] = field(default_factory=list)

    @property
    def mismatch_count(self) -> int:
        # Exhaustive cells summarise the same coverage entries, so the
        # coverage sum alone is the non-double-counted total.
        return sum(c.mismatches for c in self.coverage)

    @property
    def stat_failures(self) -> List[RateCheck]:
        return [rc for rc in self.rate_checks if not rc.ok]

    @property
    def refuted_proofs(self) -> List[ProofCertificate]:
        return [p for p in self.proofs if not p.ok]

    @property
    def ok(self) -> bool:
        return (self.mismatch_count == 0
                and not self.stat_failures
                and all(cell.ok for cell in self.exhaustive)
                and all(p.ok for p in self.proofs))

    def merge(self, other: "VerifyReport") -> "VerifyReport":
        """Fold *other*'s results into this report (grid aggregation)."""
        self.coverage.extend(other.coverage)
        self.discrepancies.extend(other.discrepancies)
        self.rate_checks.extend(other.rate_checks)
        self.exhaustive.extend(other.exhaustive)
        self.proofs.extend(other.proofs)
        for name in other.impls:
            if name not in self.impls:
                self.impls.append(name)
        for name in other.streams:
            if name not in self.streams:
                self.streams.append(name)
        if other.method != self.method:
            used = set(self.method.split("+")) | set(other.method.split("+"))
            self.method = "+".join(m for m in VERIFY_METHODS if m in used)
        return self

    def as_dict(self) -> Dict[str, Any]:
        return {
            "family": self.family,
            "method": self.method,
            "width": self.width,
            "window": self.window,
            "seed": self.seed,
            "streams": list(self.streams),
            "impls": list(self.impls),
            "ok": self.ok,
            "mismatch_count": self.mismatch_count,
            "coverage": [c.as_dict() for c in self.coverage],
            "discrepancies": [d.as_dict() for d in self.discrepancies],
            "rate_checks": [rc.as_dict() for rc in self.rate_checks],
            "exhaustive": [cell.as_dict() for cell in self.exhaustive],
            "proofs": [p.as_dict() for p in self.proofs],
        }

    def describe(self) -> str:
        """One-line verdict summary (the footer of :meth:`render`)."""
        verdict = "PASS" if self.ok else "FAIL"
        return (f"{verdict}: method={self.method} family={self.family} "
                f"width={self.width} — {self.mismatch_count} mismatches, "
                f"{len(self.stat_failures)} failed rate checks, "
                f"{len(self.refuted_proofs)} refuted proofs")

    # ------------------------------------------------------------------
    def render(self) -> str:
        """Human-readable text rendering (coverage + rates + failures)."""
        chunks: List[str] = []
        if self.coverage or not self.proofs:
            cov = Table(
                f"Differential verification: family={self.family} "
                f"method={self.method} width={self.width} "
                f"window={self.window} seed={self.seed}",
                ["implementation", "reference", "vectors", "mismatches",
                 "streams"])
            for c in self.coverage:
                cov.add_row(c.impl, c.reference, c.vectors, c.mismatches,
                            ",".join(sorted(c.per_stream)))
            chunks.append(cov.render())

        if self.rate_checks:
            rates = Table(
                "Statistical cross-checks (binomial bound vs exact model)",
                ["check", "stream", "observed", "expected", "interval",
                 "ok"])
            for rc in self.rate_checks:
                lo = rc.lo / rc.trials if rc.trials else 0.0
                hi = rc.hi / rc.trials if rc.trials else 0.0
                rates.add_row(rc.name, rc.stream, f"{rc.rate:.6f}",
                              f"{rc.expected:.6f}",
                              f"[{lo:.6f}, {hi:.6f}]",
                              "yes" if rc.ok else "NO")
            chunks.append(rates.render())

        if self.exhaustive:
            grid = Table(
                "Exhaustive grid (exact count equality when complete)",
                ["family", "width", "window", "pairs", "complete",
                 "mismatches", "errors (got/exp)", "flags (got/exp)",
                 "ok"])
            for cell in self.exhaustive:
                exp_err = (cell.expected_error_count
                           if cell.expected_error_count is not None else "-")
                exp_flag = (cell.expected_flag_count
                            if cell.expected_flag_count is not None else "-")
                grid.add_row(
                    cell.family, cell.width, cell.window, cell.pairs,
                    "yes" if cell.complete else "sampled",
                    cell.mismatches,
                    f"{cell.error_count}/{exp_err}",
                    f"{cell.flag_count}/{exp_flag}",
                    "yes" if cell.ok else "NO")
            chunks.append(grid.render())

        if self.proofs:
            proof = Table(
                "Formal proofs (BDD symbolic, exact over all "
                "4^width operand pairs)",
                ["family", "width", "params", "obligation", "status",
                 "counted/expected", "bdd nodes"])
            for p in self.proofs:
                counts = ("-" if p.counted is None
                          else f"{p.counted}/{p.expected_count}")
                proof.add_row(
                    p.family, p.width,
                    " ".join(f"{k}={v}" for k, v in sorted(p.params.items())),
                    p.obligation,
                    p.status if p.ok else p.status.upper(),
                    counts, p.bdd_nodes)
            chunks.append(proof.render())
            for p in self.refuted_proofs:
                chunks.append(f"REFUTED: {p.describe()}")

        if self.discrepancies:
            lines = ["Discrepancies:"]
            lines += [f"  - {d.describe()}" for d in self.discrepancies]
            chunks.append("\n".join(lines))

        verdict = "PASS" if self.ok else "FAIL"
        chunks.append(f"verdict: {verdict} "
                      f"({self.mismatch_count} mismatches, "
                      f"{len(self.stat_failures)} failed rate checks, "
                      f"{len(self.refuted_proofs)} refuted proofs)")
        return "\n\n".join(chunks)
