"""Families suite: per-family kernel throughput with banded error rates.

One benchmark per registered adder family runs its functional model's
rule once (:meth:`~repro.families.base.SpeculativeModel.evaluate`) on a
seeded uniform batch of uint64 lanes and reports additions/second.  The
paper-level metrics are the measured speculation-flag rate and the
measured actually-wrong rate, each banded against the family's own
analytic :meth:`~repro.families.base.AdderFamily.error_model` — a
family whose rule drifts from its error model fails the gate, not
just the nightly fuzz run.

Parameters are chosen so every family has a substantial error rate at
width 32 (small windows/blocks); with seeded vectors the measured
rates are deterministic and sit well inside the 15% relative band.
"""

from __future__ import annotations

from typing import List

from ..spec import Benchmark, MetricBand, registry

__all__ = ["families_suite"]

_PRESET_VECTORS = {"small": 1 << 14, "full": 1 << 17}

#: (family, params) slice the suite drives — small windows so the
#: error events are frequent enough to band tightly.
_CASES = (
    ("aca", {"window": 4}),
    ("blockspec", {"block": 8, "lookahead": 4}),
    ("cesa", {"block": 4}),
)

_WIDTH = 32

_BANDS = (
    MetricBand("flag_rate", "analytic_flag_rate", rel_tol=0.15),
    MetricBand("error_rate", "analytic_error_rate", rel_tol=0.15),
)


def family_bench(family: str, params: dict, vectors: int) -> Benchmark:
    """One family-rule throughput benchmark with error-rate bands."""
    def setup(family=family, params=params, vectors=vectors):
        import numpy as np

        from ...families.base import get_family

        fam = get_family(family)
        evaluate = fam.functional(_WIDTH, **params).evaluate
        model = fam.error_model(_WIDTH, **params)
        rng = np.random.default_rng(_WIDTH)
        a = rng.integers(0, 1 << _WIDTH, size=vectors, dtype=np.uint64)
        b = rng.integers(0, 1 << _WIDTH, size=vectors, dtype=np.uint64)
        return evaluate, model, a, b

    def run(state):
        evaluate, _model, a, b = state
        return evaluate(a, b)

    def derive(state, batch):
        import numpy as np

        _evaluate, model, _a, _b = state
        return {
            "flag_rate": float(np.mean(batch.flags)),
            "error_rate": float(np.mean(batch.spec_errors)),
            "analytic_flag_rate": float(model.flag_rate),
            "analytic_error_rate": float(model.error_rate),
        }

    label = "_".join(f"{k[0]}{v}" for k, v in sorted(params.items()))
    return Benchmark(
        name=f"{family}_w{_WIDTH}_{label}", suite="families",
        setup=setup, payload=run, ops_per_call=vectors,
        tags=("kernel", "paper-metric"), derive=derive, bands=_BANDS,
        params={"family": family, "width": _WIDTH, "vectors": vectors,
                **params})


@registry.suite("families")
def families_suite(preset: str) -> List[Benchmark]:
    vectors = _PRESET_VECTORS[preset]
    return [family_bench(family, dict(params), vectors)
            for family, params in _CASES]
