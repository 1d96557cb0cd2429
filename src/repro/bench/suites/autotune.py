"""Autotune suite: forecast fidelity and controller convergence.

Three kinds of benchmark, with the paper-level quantities as banded
metrics the gate enforces on every run:

* ``predict_*`` — forecast throughput per family, banded on the biased
  predictor at ``p = 0.5`` reproducing the family's exact uniform flag
  rate (every family forecasts through the same exact carry-state
  engine, so the band is tight for all of them).
* ``policy_decide`` — full candidate-space decisions per second (the
  controller's steady-state overhead).
* ``controller_drift`` — the online controller over a seeded drift
  stream through :class:`~repro.autotune.controller.SyncAutotunedExecutor`,
  banded on per-phase convergence (all phases converge, SLA met) and on
  observed-vs-predicted stall agreement in the graded tails.

Online runs are loadgen-length, so they skip inner-loop calibration.
"""

from __future__ import annotations

import os
from typing import List

from ..spec import Benchmark, MetricBand, registry

__all__ = ["autotune_suite"]

_PRESET_OPS = {"small": 48000, "full": 192000}
#: 5 samples is the floor at which the exact Mann-Whitney two-sided
#: p-value (2/C(10,5) = 0.0079) can clear the default alpha = 0.05.
_SAMPLES = {"small": 5, "full": 5}

_SLA_STALL = 0.02


def _predict_bench(family: str, window: int, samples: int,
                   tol: float) -> Benchmark:
    def run(_state, family=family, window=window):
        from ...autotune import predict_stall_rate
        from ...families import get_family

        fam = get_family(family)
        params = fam.resolve_params(64, window=window)
        predicted = None
        for p in (0.25, 0.375, 0.5, 0.625, 0.75):
            rate = predict_stall_rate(family, 64, params, p)
            if p == 0.5:
                predicted = rate
        exact = float(fam.error_model(64, **params).flag_rate)
        return {"predicted_uniform_stall_rate": predicted,
                "exact_flag_rate": exact}

    return Benchmark(
        name=f"predict_{family}_w{window}", suite="autotune",
        payload=run, ops_per_call=5,
        tags=("autotune", "paper-metric"),
        samples=samples, derive=lambda s, r: dict(r),
        bands=(MetricBand("predicted_uniform_stall_rate",
                          "exact_flag_rate", rel_tol=tol),),
        params={"family": family, "window": window, "width": 64})


def _decide_bench(samples: int) -> Benchmark:
    def setup():
        from ...autotune import SLA, OperandProfile, PolicyEngine

        policy = PolicyEngine(64, SLA(stall_rate=_SLA_STALL))
        profile = OperandProfile.fixed(64, 0.5)
        return {"policy": policy, "profile": profile}

    def run(state):
        decision = state["policy"].decide(state["profile"])
        return {"considered": decision.considered,
                "feasible": 1.0 if decision.feasible else 0.0,
                "always_feasible": 1.0}

    return Benchmark(
        name="policy_decide_w64", suite="autotune", payload=run,
        setup=setup, ops_per_call=1, tags=("autotune",),
        samples=samples, derive=lambda s, r: dict(r),
        bands=(MetricBand("feasible", "always_feasible", rel_tol=0.0),),
        params={"width": 64, "sla_stall_rate": _SLA_STALL})


def _drift_bench(ops: int, samples: int, seed: int) -> Benchmark:
    def run(_state, ops=ops, seed=seed):
        from ...autotune import SLA, run_online

        report = run_online(width=64, sla=SLA(stall_rate=_SLA_STALL),
                            ops=ops, chunk=512, decide_every_ops=1024,
                            seed=seed)
        worst = 0.0
        for ph in report["phases"]:
            pred = ph["predicted_stall_rate"]
            obs = ph["observed_stall_rate"]
            # Relative disagreement where the predicted rate is large
            # enough to compare relatively; near-zero rates compare on
            # counts, which the binomial z-band inside run_online
            # already graded.
            if pred > 1e-3:
                worst = max(worst, abs(obs - pred) / pred)
        return {
            "converged": 1.0 if report["converged"] else 0.0,
            "sla_met": 1.0 if report["sla_met"] else 0.0,
            # Tail-rate agreement within 50% relative — loose because
            # tails are only a few thousand ops.
            "disagreement_ok": 1.0 if worst <= 0.5 else 0.0,
            "all_good": 1.0,
            "worst_rate_disagreement": worst,
            "reconfigurations": report["reconfigurations"],
            "final_family": report["final"]["family"],
            "final_window": report["final"]["window"],
            "observed_stall_rate": report["observed_stall_rate"],
        }

    return Benchmark(
        name="controller_drift_w64", suite="autotune", payload=run,
        ops_per_call=ops, tags=("autotune", "paper-metric"),
        calibrate=False, samples=samples, derive=lambda s, r: dict(r),
        bands=(MetricBand("converged", "all_good", rel_tol=0.0),
               MetricBand("sla_met", "all_good", rel_tol=0.0),
               MetricBand("disagreement_ok", "all_good", rel_tol=0.0)),
        params={"workload": "drift", "ops": ops, "width": 64,
                "sla_stall_rate": _SLA_STALL, "seed": seed})


@registry.suite("autotune")
def autotune_suite(preset: str) -> List[Benchmark]:
    ops = int(os.environ.get("REPRO_BENCH_AUTOTUNE_OPS",
                             _PRESET_OPS[preset]))
    samples = _SAMPLES[preset]
    return [
        # At p = 0.5 the biased forecast IS the exact uniform rate; the
        # band only absorbs float rounding.
        _predict_bench("aca", 12, samples, tol=1e-6),
        _predict_bench("blockspec", 8, samples, tol=1e-6),
        _predict_bench("cesa", 16, samples, tol=1e-6),
        _decide_bench(samples),
        _drift_bench(ops, samples, seed=1),
    ]
