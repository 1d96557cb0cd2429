"""repro — Variable Latency Speculative Addition (Verma/Brisk/Ienne, DATE'08).

A complete reproduction of the paper as a Python library:

* :mod:`repro.circuit` — gate-level netlists, simulation, STA, area,
  technology libraries, VHDL/Verilog export (the synthesis-flow stand-in).
* :mod:`repro.adders` — classical baselines: ripple, CLA, carry-skip/
  select, conditional-sum, and the parallel-prefix family (Sklansky,
  Kogge-Stone, Brent-Kung, Han-Carlson, Ladner-Fischer, Knowles), plus the
  DesignWare-proxy best-of baseline.
* :mod:`repro.core` — the paper's contribution: the Almost Correct Adder,
  error detection, error recovery and the VLSA datapath.
* :mod:`repro.analysis` — longest-run combinatorics, Theorem 1, the exact
  ACA error model.
* :mod:`repro.mc` — fast functional models and Monte Carlo sampling.
* :mod:`repro.arch` — clocked VLSA machine (Fig. 6/7), VCD waveforms.
* :mod:`repro.apps` — the ciphertext-only attack workload of Section 1.
* :mod:`repro.experiments` — one function per paper table/figure.

Quickstart::

    from repro import build_aca, choose_window
    from repro.circuit import simulate_bus_ints

    aca = build_aca(64, choose_window(64))
    simulate_bus_ints(aca, {"a": 123456789, "b": 987654321})["sum"]
"""

from ._lazy import lazy_exports

# The netlist stack loads on first use of one of these names, so
# ``import repro.cluster.worker`` stays light.
_LAZY, __getattr__, __dir__ = lazy_exports(__name__, {
    ".analysis": ("aca_error_probability", "choose_window",
                  "expected_latency_cycles", "quantile_longest_run"),
    ".core": ("build_aca", "build_error_detector", "build_recovery_adder",
              "build_vlsa_datapath", "characterize_vlsa"),
    ".arch": ("VlsaMachine",),
    ".mc": ("AcaModel",),
})

__version__ = "1.0.0"

__all__ = [
    "build_aca", "build_error_detector", "build_recovery_adder",
    "build_vlsa_datapath", "characterize_vlsa",
    "choose_window", "aca_error_probability", "expected_latency_cycles",
    "quantile_longest_run",
    "VlsaMachine", "AcaModel",
    "__version__",
]
