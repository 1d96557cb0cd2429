"""Online autotune controller: observe traffic, decide, reconfigure.

The controller closes the loop between the operand profile, the policy
engine and a live execution target.  It observes every executed batch
(operand pairs + outcome), keeps the sliding operand profile and an
epoch accumulator of observed stalls, and every ``decide_every_ops``
operations asks the policy for the best predicted-safe configuration.
If the decision differs from the incumbent it calls the target's
``reconfigure(...)`` — which both :class:`~repro.service.service.VlsaService`
and :class:`~repro.cluster.router.ClusterRouter` apply **atomically
between micro-batches**, so bit-exactness is preserved by construction
(recovery is exact at every window of every family).

Observability: per-tenant gauges for the current window/batch size and
predicted-vs-observed stall rate, counters for decisions /
reconfigurations / SLA violations, a trace event per decision, and a
JSON-able :meth:`AutotuneController.decision_trace` for CI artifacts.

:class:`SyncAutotunedExecutor` is the synchronous twin used by the
verify registry and the convergence tests: a plain ``execute(pairs)``
façade over :class:`~repro.service.executor.VlsaBatchExecutor` that
splits work into micro-batches and runs the controller between them —
deterministic, event-loop-free, and bit-identical to the exact adder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..service.executor import BatchOutcome, VlsaBatchExecutor
from ..service.metrics import MetricsRegistry
from ..service.tracing import Tracer
from ..families import get_family
from .policy import Decision, PolicyEngine
from .predictor import CandidateConfig, forecast
from .profile import OperandProfile

__all__ = ["AutotuneController", "DecisionRecord", "SyncAutotunedExecutor"]


@dataclass
class DecisionRecord:
    """One controller decision, for the trace artifact."""

    ops_seen: int
    epoch_ops: int
    epoch_stalls: int
    observed_stall_rate: float
    predicted_stall_rate: float
    p_propagate: float
    p_generate: float
    family: str
    window: int
    batch_ops: int
    switched: bool
    feasible: bool
    sla_violated: bool

    def as_dict(self) -> Dict[str, Any]:
        return dict(self.__dict__)


class AutotuneController:
    """SLA-driven online controller over a reconfigurable target.

    Parameters
    ----------
    policy:
        The configured :class:`~repro.autotune.policy.PolicyEngine`.
    decide_every_ops:
        Decision cadence in observed operations (one epoch).
    sample_pairs:
        At most this many pairs per batch are folded into the operand
        profile (popcount cost control); stall accounting always uses
        the full batch.
    profile_pairs:
        Sliding-window size of the operand profile.
    registry / tenant:
        Metrics registry and tenant label for the gauge/counter names.
    """

    def __init__(self, policy: PolicyEngine,
                 decide_every_ops: int = 8192,
                 sample_pairs: int = 1024,
                 profile_pairs: int = 8192,
                 registry: Optional[MetricsRegistry] = None,
                 tracer: Optional[Tracer] = None,
                 tenant: str = "default") -> None:
        if decide_every_ops < 1:
            raise ValueError("decide_every_ops must be >= 1")
        self.policy = policy
        self.decide_every_ops = decide_every_ops
        self.sample_pairs = sample_pairs
        self.profile = OperandProfile(width=policy.width,
                                      window_pairs=profile_pairs)
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()
        self.tenant = tenant
        self.target: Optional[Any] = None
        self.current: Optional[CandidateConfig] = None
        self.decisions: List[DecisionRecord] = []
        self._ops_seen = 0
        self._epoch_ops = 0
        self._epoch_stalls = 0
        self._make_metrics()

    def _make_metrics(self) -> None:
        reg, t = self.registry, self.tenant
        self.g_window = reg.gauge(
            f"autotune_{t}_window", "current primary knob (tenant gauge)")
        self.g_batch = reg.gauge(
            f"autotune_{t}_batch_ops", "current max batch ops")
        self.g_predicted = reg.gauge(
            f"autotune_{t}_predicted_stall_rate",
            "analytic stall-rate forecast for the current config")
        self.g_observed = reg.gauge(
            f"autotune_{t}_observed_stall_rate",
            "stall rate observed over the last decision epoch")
        self.m_decisions = reg.counter(
            "autotune_decisions_total", "policy evaluations run")
        self.m_reconfigs = reg.counter(
            "autotune_reconfigs_total", "reconfigurations applied")
        self.m_violations = reg.counter(
            "autotune_sla_violations_total",
            "decision epochs whose observed stall rate broke the SLA")
        self.m_infeasible = reg.counter(
            "autotune_infeasible_total",
            "decisions where no candidate was predicted safe")

    # -- wiring ---------------------------------------------------------

    def attach(self, target: Any,
               register_observer: bool = True) -> "AutotuneController":
        """Bind to a target exposing ``reconfigure(...)``.

        When the target also exposes ``add_batch_observer`` (the
        service does), the controller registers itself so every batch
        is observed automatically.
        """
        self.target = target
        fam = get_family(getattr(target, "family", "aca"))
        params = fam.resolve_params(self.policy.width,
                                    window=getattr(target, "window", None))
        self.current = CandidateConfig(
            family=fam.name, width=self.policy.width, params=params,
            batch_ops=getattr(target, "max_batch_ops", 4096))
        self._publish_config(self.current)
        if register_observer and hasattr(target, "add_batch_observer"):
            target.add_batch_observer(self.observe_batch)
        return self

    def _publish_config(self, cand: CandidateConfig) -> None:
        self.g_window.set(cand.primary)
        self.g_batch.set(cand.batch_ops)

    # -- observation ----------------------------------------------------

    def observe_batch(self, pairs: Any, outcome: BatchOutcome) -> None:
        """Fold one executed batch into the profile and epoch stats."""
        n = outcome.size
        if n == 0:
            return
        sample = pairs[:self.sample_pairs] if self.sample_pairs else pairs
        self.profile.observe(sample)
        self._ops_seen += n
        self._epoch_ops += n
        self._epoch_stalls += outcome.stall_count
        if self._epoch_ops >= self.decide_every_ops:
            self.decide()

    # -- decision -------------------------------------------------------

    def decide(self) -> Decision:
        """Run the policy now and apply the result to the target."""
        observed = (self._epoch_stalls / self._epoch_ops
                    if self._epoch_ops else 0.0)
        decision = self.policy.decide(self.profile, current=self.current)
        chosen = decision.chosen.candidate
        predicted_current = forecast(
            self.current, self.profile.p_propagate, self.profile.p_generate,
            self.policy.recovery_cycles).stall_rate \
            if self.current is not None else decision.chosen.stall_rate
        sla = self.policy.sla
        violated = (sla.stall_rate is not None and self._epoch_ops > 0
                    and observed > sla.stall_rate)
        self.m_decisions.inc()
        if violated:
            self.m_violations.inc()
        if not decision.feasible:
            self.m_infeasible.inc()
        if decision.switched and self.target is not None:
            self.target.reconfigure(
                window=chosen.primary, family=chosen.family,
                max_batch_ops=chosen.batch_ops)
            self.m_reconfigs.inc()
        if decision.switched or self.current is None:
            self.current = chosen
        self._publish_config(self.current)
        self.g_predicted.set(decision.chosen.stall_rate)
        self.g_observed.set(observed)
        record = DecisionRecord(
            ops_seen=self._ops_seen, epoch_ops=self._epoch_ops,
            epoch_stalls=self._epoch_stalls,
            observed_stall_rate=observed,
            predicted_stall_rate=predicted_current,
            p_propagate=self.profile.p_propagate,
            p_generate=self.profile.p_generate,
            family=self.current.family, window=self.current.primary,
            batch_ops=self.current.batch_ops,
            switched=decision.switched, feasible=decision.feasible,
            sla_violated=violated)
        self.decisions.append(record)
        self.tracer.emit("autotune_decision", tenant=self.tenant,
                         **record.as_dict())
        self._epoch_ops = 0
        self._epoch_stalls = 0
        return decision

    # -- reporting ------------------------------------------------------

    @property
    def ops_seen(self) -> int:
        return self._ops_seen

    @property
    def reconfigurations(self) -> int:
        return self.m_reconfigs.value

    @property
    def sla_violations(self) -> int:
        return self.m_violations.value

    def decision_trace(self) -> List[Dict[str, Any]]:
        """JSON-able decision history (the CI artifact payload)."""
        return [r.as_dict() for r in self.decisions]


class SyncAutotunedExecutor:
    """Synchronous autotuned execution path.

    Drop-in for :class:`~repro.service.executor.VlsaBatchExecutor` with
    the controller in the loop: ``execute(pairs)`` splits the work into
    micro-batches of the *current* ``batch_ops``, lets the controller
    observe and possibly reconfigure between them, and concatenates the
    outcomes.  Because recovery is exact at every configuration, the
    merged sums/couts are bit-identical to the exact adder regardless
    of the reconfiguration schedule — the property the
    ``service:autotuned`` verify implementation re-checks.
    """

    def __init__(self, width: int, policy: PolicyEngine,
                 window: Optional[int] = None, family: str = "aca",
                 recovery_cycles: int = 1,
                 decide_every_ops: int = 2048,
                 sample_pairs: int = 1024,
                 profile_pairs: int = 8192,
                 registry: Optional[MetricsRegistry] = None,
                 tenant: str = "default") -> None:
        self.width = width
        self.recovery_cycles = recovery_cycles
        self.executor = VlsaBatchExecutor(width, window=window,
                                          recovery_cycles=recovery_cycles,
                                          family=family)
        self.window = self.executor.window
        self.family = family
        self.max_batch_ops = 4096
        self.controller = AutotuneController(
            policy, decide_every_ops=decide_every_ops,
            sample_pairs=sample_pairs, profile_pairs=profile_pairs,
            registry=registry, tenant=tenant).attach(
                self, register_observer=False)

    def reconfigure(self, window: Optional[int] = None,
                    family: Optional[str] = None,
                    max_batch_ops: Optional[int] = None) -> None:
        family = family if family is not None else self.family
        self.executor = VlsaBatchExecutor(
            self.width, window=window, recovery_cycles=self.recovery_cycles,
            family=family)
        self.window = self.executor.window
        self.family = family
        if max_batch_ops is not None:
            self.max_batch_ops = max_batch_ops

    def execute(self, pairs: Sequence[Tuple[int, int]]) -> BatchOutcome:
        pairs = list(pairs)
        sums: List[int] = []
        couts: List[int] = []
        stalled: List[bool] = []
        spec_errors: List[bool] = []
        latencies: List[int] = []
        cycles = 0
        offset = 0
        while offset < len(pairs):
            chunk = pairs[offset:offset + self.max_batch_ops]
            offset += len(chunk)
            outcome = self.executor.execute(chunk)
            sums.extend(outcome.sums)
            couts.extend(outcome.couts)
            stalled.extend(outcome.stalled)
            spec_errors.extend(outcome.spec_errors)
            latencies.extend(outcome.latencies)
            cycles += outcome.cycles
            # Controller between micro-batches — reconfigurations land
            # before the next chunk, never inside one.
            self.controller.observe_batch(chunk, outcome)
        return BatchOutcome(sums=sums, couts=couts, stalled=stalled,
                            spec_errors=spec_errors, latencies=latencies,
                            cycles=cycles)
