"""Compiled circuit execution engine with pluggable backends.

The engine is the repository's answer to "run as fast as the hardware
allows": it **compiles** a levelized :class:`~repro.circuit.Circuit`
once into a flat op tape plus per-level batch kernels
(:mod:`repro.engine.plan`), then executes the plan through
interchangeable backends (:mod:`repro.engine.backends`):

======== ==============================================================
backend  use it for
======== ==============================================================
bigint   default; any vector count, fault forcing, tiny overhead
numpy    cross-checking the other backends (cache-blocked uint64
         kernels; 0.48-0.70x the legacy interpreter on a 2-vCPU host,
         so not a fast path)
sharded  very large sweeps across worker processes, order-independent
         merge with deterministic per-shard seeding
======== ==============================================================

Every run is instrumented through :class:`~repro.engine.RunContext`
(gate-eval counters, per-phase wall times, RNG seed provenance) which
experiments attach to their tables and the CLI writes as a JSON run
manifest.  Functional fast-path models (e.g. the closed-form ACA in
:mod:`repro.families.aca`) register beside the gate-level path via
:func:`register_functional`, keeping the two cross-checkable by
construction.

Quick tour::

    from repro.core import build_aca
    from repro import engine

    aca = build_aca(64, 18)
    out = engine.execute_ints(aca, {"a": [3, 5], "b": [4, 9]},
                              backend="numpy")
    out["sum"]                       # [7, 14]
    model = engine.functional_model("aca", width=64, window=18)
    model.run_ints({"a": 3, "b": 4})  # same interface, no gates
"""

from .._lazy import lazy_exports
from . import pack

# Each name loads its submodule on first use: the run context and the
# functional registry need no netlist, the compiler and backends do.
_LAZY, __getattr__, __dir__ = lazy_exports(__name__, {
    ".api": ("compiled_plan", "execute", "execute_ints"),
    ".backends": ("Backend", "BigintBackend", "NumpyBackend",
                  "ShardedBackend", "available_backends", "get_backend",
                  "merge_shard_words", "register_backend"),
    ".context": ("RunContext", "get_default_context", "resolve_rng",
                 "set_default_context", "spawn_seeds"),
    ".functional": ("available_functionals", "functional_model",
                    "register_functional"),
    ".plan": ("BatchGroup", "CompiledPlan", "compile_circuit"),
})

__all__ = [
    "compiled_plan", "execute", "execute_ints",
    "Backend", "BigintBackend", "NumpyBackend", "ShardedBackend",
    "available_backends", "get_backend", "register_backend",
    "merge_shard_words",
    "RunContext", "get_default_context", "set_default_context",
    "resolve_rng", "spawn_seeds",
    "available_functionals", "functional_model", "register_functional",
    "BatchGroup", "CompiledPlan", "compile_circuit",
    "pack",
]
