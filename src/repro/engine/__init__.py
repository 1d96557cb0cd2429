"""Compiled circuit execution engine.

The engine is the repository's answer to "run as fast as the hardware
allows": it **compiles** a levelized :class:`~repro.circuit.Circuit`
once into a flat op tape (:mod:`repro.engine.plan`), then replays the
tape over packed Python-int bitslice words (:mod:`repro.engine.api`):
any vector count in one pass, and per-net forcing for fault injection.
The per-gate interpreter :func:`repro.circuit.simulate_interpreted`
stays as the slow differential reference.

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
    out = engine.execute_ints(aca, {"a": [3, 5], "b": [4, 9]})
    out["sum"]                       # [7, 14]
    model = engine.functional_model("aca", width=64, window=18)
    model.run_ints({"a": 3, "b": 4})  # same interface, no gates
"""

from .._lazy import lazy_exports
from . import pack

# Each name loads its submodule on first use: the run context and the
# functional registry need no netlist, the compiler and runner do.
_LAZY, __getattr__, __dir__ = lazy_exports(__name__, {
    ".api": ("compiled_plan", "execute", "execute_ints"),
    ".context": ("RunContext", "get_default_context", "resolve_rng",
                 "set_default_context", "spawn_seeds"),
    ".functional": ("available_functionals", "functional_model",
                    "register_functional"),
    ".plan": ("CompiledPlan", "compile_circuit"),
})

__all__ = [
    "compiled_plan", "execute", "execute_ints",
    "RunContext", "get_default_context", "set_default_context",
    "resolve_rng", "spawn_seeds",
    "available_functionals", "functional_model", "register_functional",
    "CompiledPlan", "compile_circuit",
    "pack",
]
