"""Verify suite: differential-oracle throughput.

How many vectors/second the differential verifier can push through a
representative implementation slice — the number that bounds how large
a nightly fuzz run can be.  The reference oracle is benchmarked on its
own (whole-chunk array arithmetic from the ACA definition, the cost
every run shares), then one word-level serving implementation, the
abstract VLSA machine, and one gate-level engine backend at a reduced
share.

Every run must stay mismatch-free: a ``mismatches`` metric banded
against zero turns a silently-diverging implementation into a gate
failure, not just a slow benchmark.
"""

from __future__ import annotations

from typing import List

from ..spec import Benchmark, MetricBand, registry

__all__ = ["verify_suite"]

_PRESET_VECTORS = {"small": 1 << 12, "full": 20000}

#: Gate-level implementations get a reduced vector share.
_GATE_SHARE = 8

#: (implementation, is_gate_level) slice the suite drives.
_IMPLS = (
    ("machine", False),
    ("service:numpy", False),
    ("engine:numpy", True),
)

_CLEAN_BAND = MetricBand("mismatches", "expected_mismatches", rel_tol=0.0)


def verify_bench(impl: str, width: int, vectors: int) -> Benchmark:
    """One differential-verification throughput benchmark."""
    def setup(impl=impl, width=width):
        from ...analysis import choose_window
        from ...engine import RunContext
        from ...verify import DifferentialVerifier

        window = choose_window(width)
        return DifferentialVerifier(
            width, window=window, impls=(impl,),
            ctx=RunContext(seed=width), shrink=False)

    def run(verifier, vectors=vectors, width=width):
        return verifier.run(vectors=vectors, streams=("uniform",),
                            seed=width)

    def derive(_verifier, report):
        return {
            "mismatches": len(report.discrepancies),
            "expected_mismatches": 0,
            "ok": bool(report.ok),
        }

    return Benchmark(
        name=f"{impl.replace(':', '_')}_w{width}", suite="verify",
        setup=setup, payload=run, ops_per_call=vectors,
        tags=("differential",), derive=derive, bands=(_CLEAN_BAND,),
        calibrate=False,
        params={"impl": impl, "width": width, "vectors": vectors})


@registry.suite("verify")
def verify_suite(preset: str) -> List[Benchmark]:
    base = _PRESET_VECTORS[preset]
    width = 64
    benches: List[Benchmark] = []

    def setup_ref(width=width, base=base):
        from ...analysis import choose_window
        from ...verify.vectors import pair_stream

        window = choose_window(width)
        pairs = [p for chunk in pair_stream("uniform", width, window,
                                            base, seed=width)
                 for p in chunk]
        return pairs, width, window

    def run_ref(state):
        from ...verify.differential import _reference

        pairs, width, window = state
        return _reference(pairs, width, window)

    benches.append(Benchmark(
        name=f"reference_oracle_w{width}", suite="verify",
        setup=setup_ref, payload=run_ref, ops_per_call=base,
        tags=("oracle",), params={"width": width, "vectors": base}))

    for impl, gate_level in _IMPLS:
        n = max(256, base // _GATE_SHARE) if gate_level else base
        benches.append(verify_bench(impl, width, n))
    return benches
