"""The differential verification engine.

Every claim of "bit-identical speculative-adder behaviour" in this
repository is enforced here, from one place, against one reference: the
vectorised *oracle* (:mod:`repro.verify.oracle`), which evaluates each
chunk from the family's definition with array arithmetic and shares no
code with the functional models, kernels or serving paths under test.
Implementations register as adapters with a uniform batch interface and
fall into two groups:

* ``speculative`` — produce the raw speculative ``(sum, cout)`` the
  hardware emits (gate-level circuits on the compiled engine, the
  legacy interpreter, the functional model itself, the family's
  vectorised numpy kernel);
* ``exact`` — produce the corrected sum plus the detector/stall flag and
  per-op latency (:class:`~repro.arch.vlsa_machine.VlsaMachine`, the
  service's :class:`~repro.service.executor.VlsaBatchExecutor`, the
  gate-level recovery datapath).

Which adder is being verified is a *family* choice
(:mod:`repro.families`): ``family="aca"`` (the default) drives the
paper's Almost Correct Adder; ``"cesa"`` and ``"blockspec"`` drive the
other zoo members through exactly the same machinery.  The single
``window`` knob maps onto each family's primary parameter via
:func:`repro.families.base.resolve_params`.

One seeded vector stream drives every registered pair; any elementwise
disagreement is recorded with its first failing vector and a minimised
reproducer, and an implementation that raises is recorded as a
``crash``.  On top of the elementwise comparison, observed detector /
error **counts** on the uniform stream are tested against the family's
exact analytic probabilities with a binomial bound — so a
probabilistically wrong detector fails the run even when every sum
matches (the recovery path hides under- or over-firing detectors from
sum comparison).

Exhaustive mode enumerates *all* operand pairs of a small-width grid and
upgrades the statistical check to exact integer equality: over the full
``4^n`` pair space the number of speculative errors must equal
``P_error * 4^n`` computed with ``Fraction`` arithmetic — a zero-slack
cross-check of the analytic model against brute force.
"""

from __future__ import annotations

import inspect
import traceback
from dataclasses import dataclass
from functools import cached_property
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple, Union)

import numpy as np

# The netlist rows build their circuits through the family registry,
# which imports the gate-level builders on first use: importing them
# here keeps that import out of a verifier's construction.
from .. import adders, core  # noqa: F401
from ..arch import VlsaMachine
from ..circuit import simulate_interpreted
from ..engine.api import execute
from ..engine.context import RunContext, get_default_context
from ..engine.functional import functional_model
from ..engine.pack import pack_vectors, unpack_lanes
from ..families.base import get_family
from ..families.words import lanes
from ..service.executor import VlsaBatchExecutor
from ..service.metrics import MetricsRegistry
from .oracle import OracleBatch, evaluate as evaluate_oracle
from .report import Coverage, Discrepancy, ExhaustiveCell, VerifyReport
from .shrink import shrink_pair
from .stats import check_rate
from .vectors import pair_stream

__all__ = [
    "VerificationError",
    "ImplResult",
    "Implementation",
    "Chunk",
    "register_implementation",
    "available_implementations",
    "default_implementations",
    "make_implementation",
    "DifferentialVerifier",
    "run_exhaustive",
    "DEFAULT_STREAMS",
]

Pair = Tuple[int, int]
#: Operand pairs: an ``(n, 2)`` array (a stream chunk) or ``(a, b)`` pairs.
Pairs = Union[np.ndarray, Sequence[Pair]]
#: One per-vector result column: an array or a list.
Column = Union[np.ndarray, Sequence[Any]]

#: Streams a plain fuzz run drives by default ("attack" is opt-in — it
#: replays a captured cipher trace and costs a real attack run).
DEFAULT_STREAMS = ("uniform", "biased", "adversarial", "boundary")


class VerificationError(AssertionError):
    """Raised by ``raise_on_failure`` entry points when a run fails."""

    def __init__(self, report: VerifyReport):
        self.report = report
        super().__init__(
            f"differential verification failed: "
            f"{report.mismatch_count} mismatches, "
            f"{len(report.stat_failures)} failed rate checks")


def _resolved(family: str, width: int, window: Optional[int]
              ) -> Tuple[Any, Dict[str, int], int]:
    """(family object, resolved params, primary value) for one config."""
    fam = get_family(family)
    params = fam.resolve_params(width, window=window)
    return fam, params, fam.primary_value(width, params)


class Chunk:
    """One chunk of operand pairs that every row of a run shares.

    Its :attr:`source` is the ``(n, 2)`` operand array a stream yields,
    or the list of ``(a, b)`` pairs a caller passes (whose values,
    unmasked, are then what ``chunk[i]`` returns for discrepancy
    records); the oracle reads it as it is.  ``len``, indexing and
    iteration behave as on the pairs and give Python ints, as do the
    operand columns :attr:`a`/:attr:`b`.  The rows read the masked
    :meth:`operands` array (``uint64`` at widths up to 64) and the
    bit-sliced stimulus :meth:`packed` made from it; both are computed
    the first time they are read, so the rows share them.
    """

    def __init__(self, pairs: Pairs):
        self.source: Pairs
        if isinstance(pairs, np.ndarray):
            self.source = pairs.reshape(-1, 2)
        else:
            self.source = self.pairs = list(pairs)
        self._operands: Dict[int, np.ndarray] = {}
        self._packed: Dict[int, Dict[str, Tuple[int, ...]]] = {}

    @cached_property
    def pairs(self) -> List[Pair]:
        """The pairs as ``(a, b)`` tuples of Python ints."""
        return list(zip(self.a, self.b))

    def __len__(self) -> int:
        return len(self.source)

    def __iter__(self) -> Iterator[Pair]:
        return iter(self.pairs)

    def __getitem__(self, i: int) -> Pair:
        if isinstance(self.source, list):
            return self.source[i]
        a, b = self.source[i].tolist()
        return a, b

    def _column(self, k: int) -> Tuple[int, ...]:
        if isinstance(self.source, list):
            return tuple([pair[k] for pair in self.source])
        return tuple(self.source[:, k].tolist())

    @cached_property
    def a(self) -> Tuple[int, ...]:
        """First operand of every pair."""
        return self._column(0)

    @cached_property
    def b(self) -> Tuple[int, ...]:
        """Second operand of every pair."""
        return self._column(1)

    def operands(self, width: int) -> np.ndarray:
        """The pairs as one ``(n, 2)`` array of :func:`~repro.families.
        words.lanes` masked to *width* bits: ``uint64`` at widths up to
        64, Python ints above."""
        ops = self._operands.get(width)
        if ops is None:
            ops = self._operands[width] = lanes(self.source,
                                                width).reshape(-1, 2)
        return ops

    def packed(self, width: int) -> Dict[str, Tuple[int, ...]]:
        """``{"a": words, "b": words}``: both operands bit-sliced at
        *width* bits (:func:`~repro.engine.pack.pack_vectors`), the
        stimulus :func:`~repro.engine.execute` takes."""
        packed = self._packed.get(width)
        if packed is None:
            ops = self.operands(width)
            packed = self._packed[width] = {
                "a": tuple(pack_vectors(ops[:, 0], width)),
                "b": tuple(pack_vectors(ops[:, 1], width))}
        return packed


def _chunk(pairs: Pairs) -> Chunk:
    """*pairs* as a :class:`Chunk` (an array or a sequence is wrapped)."""
    return pairs if isinstance(pairs, Chunk) else Chunk(pairs)


# ----------------------------------------------------------------------
# Implementation adapters
# ----------------------------------------------------------------------
@dataclass
class ImplResult:
    """Batch output of one implementation.

    ``sums``/``couts`` are speculative values for the ``speculative``
    family and corrected values for the ``exact`` family.  ``flags`` /
    ``latencies`` / ``spec_errors`` are optional; when ``flags`` is
    absent but the implementation can still report how many vectors took
    the recovery path, ``stall_count`` feeds the statistical check.
    Each column is an array (as the built-in rows return them) or a
    list; the verifier compares either as an array.
    """

    sums: Column
    couts: Optional[Column] = None
    flags: Optional[Column] = None
    latencies: Optional[Column] = None
    spec_errors: Optional[Column] = None
    stall_count: Optional[int] = None

    def stalls(self) -> Optional[int]:
        if self.flags is not None:
            return int(np.count_nonzero(self.flags))
        return self.stall_count


class Implementation:
    """Adapter base: a named, family-tagged batch evaluator."""

    name = "?"
    family = "speculative"  # or "exact"

    def run(self, pairs: Pairs) -> ImplResult:
        raise NotImplementedError


class FunctionalImpl(Implementation):
    """The family's functional model, one batch call per chunk
    (:meth:`~repro.families.base.SpeculativeModel.run_arrays`)."""

    family = "speculative"

    def __init__(self, width: int, window: int, recovery_cycles: int = 1,
                 family: str = "aca"):
        self.name = "functional"
        self.width = width
        self.model = functional_model(family, width=width, window=window)

    def run(self, pairs: Pairs) -> ImplResult:
        ops = _chunk(pairs).operands(self.width)
        batch = self.model.run_arrays(ops[:, 0], ops[:, 1])
        return ImplResult(sums=batch.spec_sums, couts=batch.spec_couts,
                          flags=batch.flags)


def _run_netlist(simulate: Callable[..., Dict[str, List[int]]],
                 circuit: Any, pairs: Pairs,
                 outputs: Sequence[str], **kwargs: Any) -> List[np.ndarray]:
    """Per-vector lanes of *outputs* of *circuit*: *simulate* (the
    engine's ``execute`` or the interpreter) on the chunk's packed
    operands, each output unpacked (:func:`~repro.engine.pack.
    unpack_lanes`)."""
    chunk = _chunk(pairs)
    n = len(chunk)
    words = simulate(circuit, chunk.packed(len(circuit.inputs["a"])),
                     num_vectors=n, **kwargs)
    return [unpack_lanes(words[name], n) for name in outputs]


class EngineImpl(Implementation):
    """Gate-level speculative core on the compiled engine."""

    family = "speculative"

    def __init__(self, width: int, window: int, recovery_cycles: int = 1,
                 family: str = "aca"):
        fam, params, _ = _resolved(family, width, window)
        self.name = "engine:bigint"
        self.width = width
        self.circuit = fam.build_speculative(width, **params)

    def run(self, pairs: Pairs) -> ImplResult:
        sums, couts = _run_netlist(execute, self.circuit, pairs,
                                   ("sum", "cout"))
        return ImplResult(sums=sums, couts=couts)


class InterpreterImpl(Implementation):
    """The legacy per-gate interpreter on the same gate-level core."""

    family = "speculative"

    def __init__(self, width: int, window: int, recovery_cycles: int = 1,
                 family: str = "aca"):
        fam, params, _ = _resolved(family, width, window)
        self.name = "interpreter"
        self.circuit = fam.build_speculative(width, **params)

    def run(self, pairs: Pairs) -> ImplResult:
        sums, couts = _run_netlist(simulate_interpreted, self.circuit, pairs,
                                   ("sum", "cout"))
        return ImplResult(sums=sums, couts=couts)


class KernelImpl(Implementation):
    """The family's vectorised numpy kernel (widths up to 64 bits)."""

    family = "speculative"

    def __init__(self, width: int, window: int, recovery_cycles: int = 1,
                 family: str = "aca"):
        fam, params, _ = _resolved(family, width, window)
        self.name = "kernel"
        self.width = width
        self.kernel = fam.numpy_kernel(width, **params)
        if self.kernel is None:
            raise ValueError(
                f"family {family!r} has no numpy kernel at width {width}")

    def run(self, pairs: Pairs) -> ImplResult:
        ops = _chunk(pairs).operands(self.width)
        batch = self.kernel(ops[:, 0], ops[:, 1])
        return ImplResult(sums=batch.spec_sums, couts=batch.spec_couts,
                          flags=batch.flags, spec_errors=batch.spec_errors)


class RecoveryImpl(Implementation):
    """The gate-level recovery datapath (exact outputs + detector flag).

    Drives the family's full :meth:`~repro.families.base.AdderFamily.
    build_circuit` netlist — speculative core, detector and shared-logic
    recovery path — and holds the *corrected* ``sum_exact``/``cout_exact``
    outputs plus the ``err`` flag to the reference.  This is the adapter
    that makes "the recovery hardware is exact for every family" a
    registry-enforced property rather than a per-family test.
    """

    family = "exact"

    def __init__(self, width: int, window: int, recovery_cycles: int = 1,
                 family: str = "aca"):
        fam, params, _ = _resolved(family, width, window)
        self.name = "recovery"
        self.circuit = fam.build_circuit(width, **params)

    def run(self, pairs: Pairs) -> ImplResult:
        sums, couts, err = _run_netlist(
            execute, self.circuit, pairs, ("sum_exact", "cout_exact", "err"))
        return ImplResult(sums=sums, couts=couts, flags=err.astype(bool))


class MachineImpl(Implementation):
    """The cycle-accurate :class:`VlsaMachine` (corrected sums + stalls)."""

    family = "exact"

    def __init__(self, width: int, window: int, recovery_cycles: int = 1,
                 family: str = "aca"):
        self.name = "machine"
        self.width = width
        self.machine = VlsaMachine(width, window=window,
                                   recovery_cycles=recovery_cycles,
                                   family=family)

    def run(self, pairs: Pairs) -> ImplResult:
        trace = self.machine.run(_chunk(pairs).operands(self.width))
        return ImplResult(
            sums=trace.sums, couts=trace.couts, flags=trace.stalled,
            latencies=trace.latency_cycles,
            spec_errors=trace.stalled & ~trace.speculative_correct)


class ExecutorImpl(Implementation):
    """The service's micro-batch executor."""

    name = "service:numpy"
    family = "exact"

    def __init__(self, width: int, window: int, recovery_cycles: int = 1,
                 family: str = "aca"):
        self.width = width
        self.executor = VlsaBatchExecutor(width, window=window,
                                          recovery_cycles=recovery_cycles,
                                          family=family)

    def run(self, pairs: Pairs) -> ImplResult:
        out = self.executor.execute(_chunk(pairs).operands(self.width))
        return ImplResult(sums=out.column("sums"),
                          couts=out.column("couts"),
                          flags=out.column("stalled"),
                          latencies=out.column("latencies"),
                          spec_errors=out.column("spec_errors"))


class ClusterImpl(Implementation):
    """The multi-process serving cluster, end to end.

    Batches travel the full production path — admission, sharding, the
    socket-pair frame wire, a real worker process, result slicing — and the
    verifier holds the answers to the same bit-identical standard as the
    in-process executor.  Pools are expensive to boot, so instances
    share one process-wide cached cluster per configuration
    (:func:`~repro.cluster.sync.shared_cluster`); it is torn down at
    interpreter exit.  Because it spawns OS processes, ``cluster`` is
    registered but *not* part of :func:`default_implementations` —
    drive it explicitly (``--impls service:numpy,cluster``).
    """

    name = "cluster"
    family = "exact"

    def __init__(self, width: int, window: int, recovery_cycles: int = 1,
                 family: str = "aca", workers: Optional[int] = None):
        import os

        from ..cluster import ClusterConfig
        from ..cluster.sync import shared_cluster

        self.width = width
        if workers is None:
            workers = int(os.environ.get("REPRO_CLUSTER_VERIFY_WORKERS",
                                         "2"))
        self.cluster = shared_cluster(ClusterConfig(
            width=width, window=window, recovery_cycles=recovery_cycles,
            workers=workers, heartbeat_interval=0.1, family=family))

    def run(self, pairs: Pairs) -> ImplResult:
        out = self.cluster.add_batch(_chunk(pairs).operands(self.width))
        return ImplResult(sums=out.column("sums"), couts=out.column("couts"),
                          flags=out.column("stalled"),
                          latencies=out.column("latencies"))


class AutotunedImpl(Implementation):
    """The autotuned service path: config changes mid-stream.

    Wraps :class:`~repro.autotune.controller.SyncAutotunedExecutor` —
    the online controller reconfigures window, family and batch size
    *between micro-batches while the vector stream is being verified*
    (the adversarial/biased streams force real switches).  The paper's
    invariant under test: recovery is exact at every configuration, so
    sums/couts must stay bit-identical to ``service:numpy`` no matter
    the reconfiguration schedule.  Flags and latencies legitimately
    differ per configuration, so this adapter reports none and the
    verifier compares values only.
    """

    family = "exact"

    def __init__(self, width: int, window: int, recovery_cycles: int = 1,
                 family: str = "aca"):
        from ..autotune import SLA, PolicyEngine, SyncAutotunedExecutor

        self.name = "service:autotuned"
        policy = PolicyEngine(width, SLA(stall_rate=0.05),
                              batch_sizes=[1024],
                              recovery_cycles=recovery_cycles)
        self.executor = SyncAutotunedExecutor(
            width, policy, window=window, family=family,
            recovery_cycles=recovery_cycles,
            decide_every_ops=512, profile_pairs=2048)

    def run(self, pairs: Pairs) -> ImplResult:
        out = self.executor.execute(list(pairs))
        return ImplResult(sums=out.sums, couts=out.couts)


#: name -> factory(width, window, recovery_cycles[, family]) ->
#: Implementation.  Factories that do not accept a ``family`` keyword
#: (legacy three-argument ones, e.g. the mutation-test mutants) remain
#: usable for the default ``"aca"`` family.
_FACTORIES: Dict[str, Callable[..., Implementation]] = {}
#: The built-in adapter names (a default run drives exactly these;
#: externally registered implementations must be named explicitly).
_BUILTIN: List[str] = []


def register_implementation(
        name: str,
        factory: Callable[..., Implementation]) -> None:
    """Register *factory* under *name* (used by tests for mutants too)."""
    _FACTORIES[name] = factory


def unregister_implementation(name: str) -> None:
    """Remove a registered implementation (mutation-test cleanup)."""
    if name in _BUILTIN:
        raise ValueError(f"refusing to unregister builtin {name!r}")
    _FACTORIES.pop(name, None)


def _ensure_builtin() -> None:
    if _BUILTIN:
        return
    builtin: Dict[str, Callable[..., Implementation]] = {
        "engine:bigint": EngineImpl,
        "functional": FunctionalImpl,
        "interpreter": InterpreterImpl,
        "kernel": KernelImpl,
        "recovery": RecoveryImpl,
        "machine": MachineImpl,
        "service:numpy": ExecutorImpl,
    }
    _FACTORIES.update(builtin)
    # Only these names: anything registered before the built-ins loaded
    # stays an external implementation.
    _BUILTIN.extend(sorted(builtin))
    # One more implementation: the whole multi-process cluster.  Not
    # in _BUILTIN on purpose — it spawns OS processes, so a plain
    # `repro verify` run does not pay for it; CI and the cluster tests
    # opt in with explicit impl lists.
    register_implementation("cluster", ClusterImpl)
    # Likewise not built in: the autotuned path reconfigures itself
    # mid-stream, so its flags are schedule-dependent — it exists to
    # prove sums/couts stay bit-identical across reconfigurations and
    # is driven explicitly (--impls service:numpy,service:autotuned).
    register_implementation("service:autotuned", AutotunedImpl)


def available_implementations() -> List[str]:
    """Every registered implementation name."""
    _ensure_builtin()
    return sorted(_FACTORIES)


def default_implementations(width: int, family: str = "aca") -> List[str]:
    """The built-in implementations a plain run drives for *width*."""
    _ensure_builtin()
    names = list(_BUILTIN)
    if width > 64:
        # A machine-word kernel by design; the other rows cover wide
        # cores.
        names = [n for n in names if n != "kernel"]
    return names


def _accepts_family(factory: Callable[..., Implementation]) -> bool:
    try:
        sig = inspect.signature(factory)
    except (TypeError, ValueError):  # builtins / C callables
        return False
    return any(p.name == "family" or p.kind is p.VAR_KEYWORD
               for p in sig.parameters.values())


def make_implementation(name: str, width: int, window: int,
                        recovery_cycles: int = 1,
                        family: str = "aca") -> Implementation:
    """Instantiate the registered implementation *name*."""
    _ensure_builtin()
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise KeyError(
            f"no implementation registered as {name!r}; available: "
            f"{', '.join(available_implementations())}") from None
    if _accepts_family(factory):
        impl = factory(width, window, recovery_cycles, family=family)
    elif family == "aca":
        impl = factory(width, window, recovery_cycles)
    else:
        raise ValueError(
            f"implementation {name!r} is registered with a legacy "
            f"factory that does not accept family={family!r}")
    impl.name = name
    return impl


# ----------------------------------------------------------------------
# Reference values (the vectorised oracle, computed once per chunk)
# ----------------------------------------------------------------------
class _Reference:
    """One chunk's oracle columns (the :class:`~repro.verify.oracle.
    OracleBatch` arrays) and the expected ``spec_error`` and latency
    columns derived from them, each computed once per chunk."""

    def __init__(self, batch: OracleBatch, recovery_cycles: int = 1):
        self.spec_sums = batch.spec_sums
        self.spec_couts = batch.spec_couts
        self.exact_sums = batch.exact_sums
        self.exact_couts = batch.exact_couts
        self.flags = batch.flags
        self.correct = batch.correct
        self.spec_errors = batch.flags & ~batch.correct
        self.latencies = np.where(batch.flags, 1 + recovery_cycles, 1)


def _reference(pairs: Pairs, width: int, window: int,
               family: str = "aca", model: Any = None,
               recovery_cycles: int = 1) -> _Reference:
    if model is None:
        model = functional_model(family, width=width, window=window)
    return _Reference(evaluate_oracle(_chunk(pairs).source, model),
                      recovery_cycles)


def _tally(totals: Dict[str, int], ref: _Reference) -> None:
    """Add one chunk's pair, error and flag counts to *totals*."""
    totals["n"] += len(ref.flags)
    totals["errors"] += int(np.count_nonzero(~ref.correct))
    totals["flags"] += int(np.count_nonzero(ref.flags))


def _plain(value: Any) -> Any:
    """A numpy scalar as the Python ``int``/``bool`` it holds."""
    return value.item() if isinstance(value, np.generic) else value


def _as_column(values: Column) -> np.ndarray:
    """A result column as an array that compares exactly.

    Arrays pass as they are.  A list goes through ``np.asarray``; when
    that would not keep every value exactly (ints past ``int64``, say,
    become ``float64``), it is an array of the Python objects instead.
    """
    if isinstance(values, np.ndarray):
        return values
    col = np.asarray(values)
    return col if col.dtype.kind in "biu" else np.array(values, dtype=object)


def _first_mismatch(expected: np.ndarray, got: np.ndarray
                    ) -> Optional[int]:
    """Index of the first vector where *got* differs from *expected*
    (over the vectors both columns have), or ``None``."""
    n = min(len(expected), len(got))
    bad = np.flatnonzero(expected[:n] != got[:n])
    return int(bad[0]) if bad.size else None


# ----------------------------------------------------------------------
# The verifier
# ----------------------------------------------------------------------
class DifferentialVerifier:
    """Drives every registered implementation from one vector stream.

    Args:
        width: Operand bitwidth.
        window: The family's primary parameter (for ACA, the speculation
            window; default: the family's own choice, clamped to
            *width*).
        impls: Implementation names to drive (default:
            :func:`default_implementations`).
        recovery_cycles: Recovery penalty for the exact family.
        z: Sigma multiplier for the binomial rate checks.
        ctx: Run context — vectors/mismatch counters, per-impl phase
            timers, and one trace event per discrepancy land in its
            manifest.
        registry: Metrics registry — ``verify_*`` counters accumulate
            across runs of this verifier.
        shrink: Minimise failing vectors (re-runs the implementation).
        max_discrepancies: Recorded-discrepancy cap (counts keep
            accumulating in coverage beyond it).
        family: Registered adder family to verify (default ``"aca"``).
    """

    def __init__(self, width: int, window: Optional[int] = None,
                 impls: Optional[Sequence[str]] = None,
                 recovery_cycles: int = 1, z: float = 5.0,
                 ctx: Optional[RunContext] = None,
                 registry: Optional[MetricsRegistry] = None,
                 shrink: bool = True, max_discrepancies: int = 16,
                 family: str = "aca"):
        if width <= 0:
            raise ValueError("width must be positive")
        self.width = width
        self.family = family
        fam, params, primary = _resolved(family, width, window)
        self.params = params
        self.window = primary
        if self.window <= 0:
            raise ValueError("window must be positive")
        self._family_obj = fam
        self._model = functional_model(family, width=width,
                                       window=self.window)
        self.recovery_cycles = recovery_cycles
        self.z = z
        self.ctx = ctx if ctx is not None else get_default_context()
        self.registry = (registry if registry is not None
                         else MetricsRegistry())
        self.shrink = shrink
        self.max_discrepancies = max_discrepancies
        names = list(impls) if impls is not None else (
            default_implementations(width, family))
        self.impls = [make_implementation(n, self.width, self.window,
                                          recovery_cycles, family=family)
                      for n in names]
        self.m_vectors = self.registry.counter(
            "verify_vectors_total", "vectors driven per implementation")
        self.m_mismatch = self.registry.counter(
            "verify_mismatches_total", "elementwise disagreements found")
        self.m_stat_fail = self.registry.counter(
            "verify_stat_failures_total", "failed binomial rate checks")

    def _reference(self, pairs: Pairs) -> _Reference:
        return _reference(pairs, self.width, self.window,
                          family=self.family, model=self._model,
                          recovery_cycles=self.recovery_cycles)

    # ------------------------------------------------------------------
    def run(self, vectors: int = 10000,
            streams: Sequence[str] = DEFAULT_STREAMS,
            seed: Optional[int] = None,
            chunk: int = 4096) -> VerifyReport:
        """Fuzz every implementation with *vectors* per stream."""
        seed = self.ctx.seed if seed is None else seed
        report = VerifyReport(width=self.width, window=self.window,
                              seed=seed, family=self.family,
                              streams=list(streams),
                              impls=[i.name for i in self.impls])
        coverage = {i.name: Coverage(impl=i.name) for i in self.impls}
        uniform = {"n": 0, "errors": 0, "flags": 0}
        impl_stalls: Dict[str, int] = {}
        with self.ctx.phase("verify"):
            for stream in streams:
                base = 0
                for pairs in pair_stream(stream, self.width, self.window,
                                         vectors, seed=seed, chunk=chunk):
                    pairs = Chunk(pairs)
                    ref = self._reference(pairs)
                    self._check_reference(ref, pairs, stream, base, seed,
                                          report)
                    if stream == "uniform":
                        _tally(uniform, ref)
                    for impl in self.impls:
                        res = self._drive(impl, pairs, ref, stream, base,
                                          seed, report, coverage[impl.name])
                        if stream == "uniform" and res is not None:
                            stalls = res.stalls()
                            if stalls is not None:
                                impl_stalls[impl.name] = (
                                    impl_stalls.get(impl.name, 0) + stalls)
                    base += len(pairs)
        report.coverage = list(coverage.values())
        self._rate_checks(uniform, impl_stalls, report)
        self.ctx.add("verify_vectors",
                     sum(c.vectors for c in report.coverage))
        self.ctx.add("verify_mismatches", report.mismatch_count)
        return report

    def run_pairs(self, pairs_iter: Iterable[Pairs],
                  stream: str = "explicit",
                  seed: Optional[int] = None) -> VerifyReport:
        """Drive explicit pair chunks (exhaustive mode's entry point)."""
        seed = self.ctx.seed if seed is None else seed
        report = VerifyReport(width=self.width, window=self.window,
                              seed=seed, family=self.family,
                              streams=[stream],
                              impls=[i.name for i in self.impls])
        coverage = {i.name: Coverage(impl=i.name) for i in self.impls}
        totals = {"n": 0, "errors": 0, "flags": 0}
        base = 0
        with self.ctx.phase("verify"):
            for pairs in pairs_iter:
                pairs = Chunk(pairs)
                ref = self._reference(pairs)
                self._check_reference(ref, pairs, stream, base, seed,
                                      report)
                _tally(totals, ref)
                for impl in self.impls:
                    self._drive(impl, pairs, ref, stream, base, seed,
                                report, coverage[impl.name])
                base += len(pairs)
        report.coverage = list(coverage.values())
        report.totals = totals  # type: ignore[attr-defined]
        self.ctx.add("verify_vectors",
                     sum(c.vectors for c in report.coverage))
        self.ctx.add("verify_mismatches", report.mismatch_count)
        return report

    # ------------------------------------------------------------------
    def _check_reference(self, ref: _Reference, pairs: Pairs,
                         stream: str, base: int, seed: int,
                         report: VerifyReport) -> None:
        """Internal invariants of the reference model itself.

        The detector must never miss an actual error, and the
        speculative result must equal the exact one iff the oracle's
        definition of correctness calls the pair correct.
        """
        spec_ok = ((ref.spec_sums == ref.exact_sums)
                   & (ref.spec_couts == ref.exact_couts))
        bad = (spec_ok != ref.correct) | ~(ref.flags | ref.correct)
        for i in np.flatnonzero(bad).tolist():
            a, b = pairs[i]
            self._record(report, Discrepancy(
                kind="reference", impl="oracle", stream=stream,
                width=self.width, window=self.window, index=base + i,
                a=a, b=b, expected={"correct": bool(ref.correct[i]),
                                    "flag": bool(ref.flags[i])},
                got={"spec_matches_exact": bool(spec_ok[i])}, seed=seed,
                family=self.family))

    def _drive(self, impl: Implementation, pairs: Pairs,
               ref: _Reference, stream: str, base: int, seed: int,
               report: VerifyReport, cov: Coverage
               ) -> Optional[ImplResult]:
        """Run *impl* on one chunk and compare it with the reference.

        An implementation that raises is a finding, not an abort: the
        chunk is recorded as one ``crash`` discrepancy (at its first
        vector, with the traceback as the ``got`` value) and the other
        implementations still run.
        """
        res: Optional[ImplResult] = None
        crash: Optional[str] = None
        with self.ctx.phase(f"verify_{impl.name}"):
            try:
                res = impl.run(pairs)
            except Exception:  # a crash is a finding, recorded below
                crash = traceback.format_exc()
        cov.add(stream, len(pairs))
        self.m_vectors.inc(len(pairs))
        if crash is None:
            self._compare(impl, res, ref, pairs, stream, base, seed, report,
                          cov)
        elif pairs:
            a, b = pairs[0]
            self._mismatch(report, cov, Discrepancy(
                kind="crash", impl=impl.name, stream=stream,
                width=self.width, window=self.window, index=base, a=a, b=b,
                expected="no exception", got=crash, seed=seed,
                family=self.family))
        return res

    def _compare(self, impl: Implementation, res: ImplResult,
                 ref: _Reference, pairs: Pairs, stream: str,
                 base: int, seed: int, report: VerifyReport,
                 cov: Coverage) -> None:
        n = len(pairs)
        lengths: Dict[str, int] = {}
        for kind, expected, got in self._checked_columns(impl, res, ref):
            # First failing vector per kind per chunk.
            i = _first_mismatch(expected, got)
            if i is not None:
                self._mismatch(report, cov, self._discrepancy(
                    impl, kind, pairs[i], stream, base + i, seed,
                    _plain(expected[i]), _plain(got[i])))
            if len(got) != n:
                lengths[kind] = len(got)
        if lengths and n:
            # One result per vector, or the comparison above misses the
            # rest.
            i = min(min(lengths.values()), n - 1)
            self._mismatch(report, cov, self._discrepancy(
                impl, "length", pairs[i], stream, base + i, seed,
                {kind: n for kind in lengths}, lengths))

    @staticmethod
    def _checked_columns(impl: Implementation, res: ImplResult,
                         ref: _Reference
                         ) -> List[Tuple[str, np.ndarray, np.ndarray]]:
        """``(kind, expected, got)`` arrays for every column *res*
        reports (a list column is converted by :func:`_as_column`)."""
        spec = impl.family == "speculative"
        cols = [("sum", ref.spec_sums if spec else ref.exact_sums, res.sums),
                ("cout", ref.spec_couts if spec else ref.exact_couts,
                 res.couts),
                ("flag", ref.flags, res.flags),
                ("latency", ref.latencies, res.latencies),
                ("spec_error", ref.spec_errors, res.spec_errors)]
        return [(kind, expected, _as_column(got))
                for kind, expected, got in cols if got is not None]

    def _mismatch(self, report: VerifyReport, cov: Coverage,
                  disc: Discrepancy) -> None:
        cov.mismatches += 1
        self.m_mismatch.inc()
        self._record(report, disc)

    def _discrepancy(self, impl: Implementation, kind: str, pair: Pair,
                     stream: str, index: int, seed: int,
                     expected: object, got: object) -> Discrepancy:
        a, b = pair
        disc = Discrepancy(kind=kind, impl=impl.name, stream=stream,
                           width=self.width, window=self.window,
                           index=index, a=a, b=b, expected=expected,
                           got=got, seed=seed, family=self.family)
        if self.shrink:
            predicate = self._predicate(impl, kind)
            sa, sb = shrink_pair(predicate, a, b, self.width)
            if (sa, sb) != (a, b):
                disc.shrunk_a, disc.shrunk_b = sa, sb
        return disc

    def _predicate(self, impl: Implementation,
                   kind: str) -> Callable[[int, int], bool]:
        """Single-pair "still fails" predicate for the shrinker."""

        def fails(a: int, b: int) -> bool:
            ref = self._reference([(a, b)])
            try:
                res = impl.run([(a, b)])
            except Exception:
                return True  # crashing on the candidate still counts
            cols = self._checked_columns(impl, res, ref)
            if kind == "length":
                return any(len(got) != 1 for _, _, got in cols)
            return any(len(got) != 1 or _first_mismatch(expected, got)
                       is not None for k, expected, got in cols if k == kind)

        return fails

    def _record(self, report: VerifyReport, disc: Discrepancy) -> None:
        if len(report.discrepancies) < self.max_discrepancies:
            report.discrepancies.append(disc)
            fields = {k: v for k, v in disc.as_dict().items()
                      if k not in ("expected", "got", "kind")}
            fields["mismatch_kind"] = disc.kind
            self.ctx.record_event("verify_discrepancy", **fields)

    # ------------------------------------------------------------------
    def _rate_checks(self, uniform: Dict[str, int],
                     impl_stalls: Dict[str, int],
                     report: VerifyReport) -> None:
        n = uniform["n"]
        if n == 0:
            return
        model = self._family_obj.error_model(self.width, **self.params)
        p_err = model.error_rate
        p_flag = model.flag_rate
        report.rate_checks.append(check_rate(
            "error_rate/reference", "uniform", uniform["errors"], n,
            p_err, self.z))
        report.rate_checks.append(check_rate(
            "detector_rate/reference", "uniform", uniform["flags"], n,
            p_flag, self.z))
        for name, stalls in sorted(impl_stalls.items()):
            report.rate_checks.append(check_rate(
                f"detector_rate/{name}", "uniform", stalls, n, p_flag,
                self.z))
        failed = sum(1 for rc in report.rate_checks if not rc.ok)
        if failed:
            self.m_stat_fail.inc(failed)
            self.ctx.record_event("verify_stat_failure", count=failed)
        self.ctx.add("verify_rate_checks", len(report.rate_checks))


# ----------------------------------------------------------------------
# Exhaustive small-width sweeps
# ----------------------------------------------------------------------
def _all_pairs(width: int, stride: int = 1,
               chunk: int = 4096) -> Iterable[List[Pair]]:
    """All ``(a, b)`` pairs (every *stride*-th, in index order)."""
    total = 1 << (2 * width)
    mask = (1 << width) - 1
    out: List[Pair] = []
    for idx in range(0, total, stride):
        out.append((idx >> width, idx & mask))
        if len(out) >= chunk:
            yield out
            out = []
    if out:
        yield out


def _exact_counts(width: int, window: int,
                  family: str = "aca") -> Tuple[int, int]:
    """Exact (error, flag) counts over all ``4^width`` operand pairs.

    The family's analytic model produces both probabilities as exact
    ``Fraction`` values whose denominators divide ``4^n``; multiplied by
    the pair-space size they are integers, checked here.
    """
    fam, params, _ = _resolved(family, width, window)
    model = fam.error_model(width, **params)
    total = 1 << (2 * width)
    err_count = model.exact_error_rate * total
    flag_count = model.exact_flag_rate * total
    if err_count.denominator != 1 or flag_count.denominator != 1:
        raise AssertionError(
            f"exact probabilities for family={family} n={width} "
            f"window={window} are not multiples of 4^-n: "
            f"{model.exact_error_rate}, {model.exact_flag_rate}")
    return int(err_count), int(flag_count)


def run_exhaustive(widths: Sequence[int],
                   windows: Optional[Sequence[int]] = None,
                   impls: Optional[Sequence[str]] = None,
                   recovery_cycles: int = 1, stride: int = 1,
                   chunk: int = 4096,
                   ctx: Optional[RunContext] = None,
                   registry: Optional[MetricsRegistry] = None,
                   shrink: bool = True,
                   family: str = "aca") -> VerifyReport:
    """Exhaustive (or strided) sweep over a small ``(width, window)`` grid.

    Args:
        widths: Bitwidths to enumerate (keep ``<= 10``; ``4^n`` pairs).
        windows: Primary-parameter values per width (default: every
            ``1..width``).
        impls: Implementation names (default: all registered for the
            width).
        recovery_cycles, ctx, registry, shrink: As for
            :class:`DifferentialVerifier`.
        stride: Check every *stride*-th pair (1 = complete; complete
            cells additionally get the exact count-equality check).
        family: Registered adder family to sweep.

    Returns:
        One merged :class:`VerifyReport` with an
        :class:`~repro.verify.report.ExhaustiveCell` per grid cell.
    """
    merged: Optional[VerifyReport] = None
    for width in widths:
        wins = list(windows) if windows is not None else (
            list(range(1, width + 1)))
        for window in wins:
            if window > width:
                continue
            names = (list(impls) if impls is not None
                     else default_implementations(width, family))
            verifier = DifferentialVerifier(
                width, window=window, impls=names,
                recovery_cycles=recovery_cycles, ctx=ctx,
                registry=registry, shrink=shrink, family=family)
            rep = verifier.run_pairs(
                _all_pairs(width, stride=stride, chunk=chunk),
                stream=f"exhaustive[{width},{window}]")
            rep.method = "exhaustive"
            totals = rep.totals  # type: ignore[attr-defined]
            complete = stride == 1
            cell = ExhaustiveCell(
                width=width, window=window, pairs=totals["n"],
                complete=complete,
                mismatches=sum(c.mismatches for c in rep.coverage),
                error_count=totals["errors"],
                flag_count=totals["flags"],
                family=family)
            if complete:
                exp_err, exp_flag = _exact_counts(width, window, family)
                cell.expected_error_count = exp_err
                cell.expected_flag_count = exp_flag
            rep.exhaustive.append(cell)
            # Grid cells fold their elementwise mismatch totals into the
            # cell record; drop per-impl coverage duplication of counts.
            merged = rep if merged is None else merged.merge(rep)
    if merged is None:
        merged = VerifyReport(width=0, window=0, seed=0, family=family,
                              method="exhaustive")
    return merged
