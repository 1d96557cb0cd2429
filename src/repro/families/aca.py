"""The Almost Correct Adder as the first registered :class:`AdderFamily`.

This wraps the repo's original subject — the paper's ACA speculative
core, its all-propagate-run detector and its shared-logic recovery path
(:mod:`repro.core`) plus the :class:`~repro.mc.fastsim.AcaModel`
functional fast path — behind the family protocol, so every layer that
went through ACA-specific entry points now goes through the registry.

Boundary view (used by the shared statistics): the ACA is the block
family with 1-bit blocks and an ``window``-bit lookahead at every cut.
Its analytic rates keep using :mod:`repro.analysis.error_model`, which
predates the boundary DP and is cross-checked against brute force in
the verify suite.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, Optional

import numpy as np

from ..analysis.error_model import aca_error_probability, choose_window
from ..analysis.runs import count_max_run_at_most
from ..circuit import Circuit
from ..core.aca import build_aca
from ..core.vlsa import build_vlsa_datapath
from ..engine.functional import register_functional
from ..mc.fastsim import AcaModel, window_all_ones, window_generate
from .base import (AdderFamily, FamilyErrorModel, KernelBatch,
                   SpeculativeModel, register_family)

__all__ = ["AcaFamily", "aca_numpy_kernel", "FAMILY"]


def aca_numpy_kernel(width: int, window: int
                     ) -> Callable[[np.ndarray, np.ndarray], KernelBatch]:
    """uint64 batch kernel bit-identical to :class:`AcaModel`."""
    if width > 64:
        raise ValueError("numpy kernels support widths up to 64 bits")
    window = min(max(1, window), width)
    int_mask = (1 << width) - 1
    mask = np.uint64(int_mask if width < 64 else 0xFFFFFFFFFFFFFFFF)

    def kernel(a: np.ndarray, b: np.ndarray) -> KernelBatch:
        a = np.asarray(a, dtype=np.uint64) & mask
        b = np.asarray(b, dtype=np.uint64) & mask
        s = (a + b) & mask  # uint64 wraparound == mod 2^64 at width 64
        if width < 64:
            exact_couts = ((a + b) >> np.uint64(width)).astype(np.uint64)
        else:
            exact_couts = (s < a).astype(np.uint64)
        p = a ^ b
        g = a & b
        spec_carries = window_generate(g, p, window)
        spec = (p ^ (spec_carries << np.uint64(1))) & mask
        spec_couts = (spec_carries >> np.uint64(width - 1)) & np.uint64(1)
        if window >= width:
            # Every window is anchored: the speculative sum is exact,
            # but the reference detector still fires on an all-propagate
            # word (see fastsim.detector_flag).
            flags = p == mask
            spec_err = np.zeros(a.shape, dtype=bool)
        else:
            starts = window_all_ones(p, window)
            flags = starts != 0
            # Wrong iff a non-anchored all-propagate window receives a
            # carry; carry into bit i is bit i of (a + b) ^ a ^ b.
            carries = s ^ p
            spec_err = (starts & carries & ~np.uint64(1)) != 0
        return KernelBatch(spec_sums=spec, spec_couts=spec_couts,
                           exact_sums=s, exact_couts=exact_couts,
                           flags=flags, spec_errors=spec_err)

    return kernel


class AcaFamily(AdderFamily):
    """Almost Correct Adder + VLSA datapath (the paper's design)."""

    name = "aca"
    title = "Almost Correct Adder (VLSA)"
    paper = "Verma, Brisk & Ienne, DATE 2008"
    primary_param = "window"

    def default_params(self, width: int) -> Dict[str, int]:
        return {"window": choose_window(width)}

    def build_speculative(self, width: int, window: int) -> Circuit:
        return build_aca(width, window)

    def build_circuit(self, width: int, window: int) -> Circuit:
        return build_vlsa_datapath(width, window)

    def functional(self, width: int, window: int) -> SpeculativeModel:
        return AcaModel(width=width, window=min(window, width))

    def numpy_kernel(self, width: int, window: int
                     ) -> Optional[Callable[..., KernelBatch]]:
        if width > 64:
            return None
        return aca_numpy_kernel(width, window)

    def _error_model(self, width: int, window: int) -> FamilyErrorModel:
        window = min(max(1, window), width)
        err = aca_error_probability(width, window, exact=True)
        if window > width:  # unreachable after clamping; kept for clarity
            flag = Fraction(0)
        else:
            # Every propagate pattern is shared by exactly 2^width
            # operand pairs, so the flag rate reduces to the longest-run
            # distribution of a fair 2^width-coin word.
            flag = Fraction(
                (1 << width) - count_max_run_at_most(width, window - 1),
                1 << width)
        return FamilyErrorModel(width=width, params={"window": window},
                                exact_error_rate=Fraction(err),
                                exact_flag_rate=flag)


#: The registered singleton.
FAMILY = register_family(AcaFamily())

# The functional fast path stands in for build_aca(width, window) in the
# engine's cross-check registry (moved here from repro.mc.fastsim so the
# registry and the family zoo share one import root).
register_functional("aca", AcaModel)
