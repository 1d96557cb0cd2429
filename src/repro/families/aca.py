"""The Almost Correct Adder: its word-level algorithm and its family entry.

This is the one module that knows the ACA's word-level algorithm.  The
rule the paper's hardware implements: the carry into bit ``i`` is lost
exactly when the ``window`` bits below ``i`` all propagate and are not
anchored at bit 0 (the window at bit 0 sees the real carry-in).  With
``p = a ^ b`` and the true carries ``carries = (a + b + cin) ^ a ^ b``:

* ``window_all_ones(p, window)`` — logarithmic-doubling AND marking every
  bit that starts an all-propagate window (the detector word ``starts``);
* the detector fires iff ``starts != 0``;
* speculation is wrong iff a non-anchored start receives a carry,
  ``starts & carries & ~1 != 0``;
* the speculative sum flips exactly the lost carries,
  ``spec = sum ^ (carries & ((starts & ~1) << window))``, and the
  carry-out is lost iff a non-anchored window starts at the top.

:meth:`AcaModel.rule` writes this once over the lanes of
:mod:`repro.families.words`: Python ints one pair at a time (the
per-pair callers: apps, processor), ``uint64`` lanes at widths up to 64
and ``dtype=object`` lanes above (through
:meth:`~repro.families.base.SpeculativeModel.run_arrays`: the Monte
Carlo sampler and the verifier's functional row; the service executor,
the cluster workers and the cycle-accurate VLSA machine, which runs on
the executor, call
:meth:`~repro.families.base.SpeculativeModel.evaluate` on the same
lanes, one pass of the rule).  The differential
verifier's oracle (:mod:`repro.verify.oracle`) recomputes everything
from the definition without it, and the test
suite cross-checks the rule against the gate-level circuits and the
carry-state engine of :mod:`repro.analysis.error_model`.

Cut view (what the analytic rates are derived from): the ACA predicts
the carry into every bit ``pos >= window``, and its carry out, from the
``window`` bits below; the cut at ``pos == window`` is anchored.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Dict, List, Tuple

from ..analysis.error_model import Boundary, aca_cuts, choose_window
from ..engine.functional import register_functional
from .base import AdderFamily, KernelBatch, SpeculativeModel, register_family
from .words import Word, WordOps, window_all_ones

if TYPE_CHECKING:
    from ..circuit import Circuit

__all__ = [
    "AcaFamily",
    "AcaModel",
    "FAMILY",
    "aca_add",
    "aca_is_correct",
    "detector_flag",
    "window_all_ones",
]


@dataclass
class AcaModel(SpeculativeModel):
    """Functional ACA configured once, reused across many additions.

    Construction validates *window*; every call is ``O(log window)``
    word operations on any lane type.  ``add``, ``flags_error``,
    ``exact``, ``is_correct``, ``run_arrays`` and ``run_ints`` are the
    :class:`SpeculativeModel` wrappers over :meth:`rule`.

    Attributes:
        width: Operand bitwidth.
        window: Speculation window.
    """

    width: int
    window: int

    def __post_init__(self) -> None:
        if self.window <= 0:
            raise ValueError("window must be positive")
        # The highest bit a window can start at (no start at all when
        # the window is wider than the word).
        self._top = max(self.width - self.window, 0)

    def rule(self, ops: WordOps, a: Word, b: Word, cin: Word) -> KernelBatch:
        """The exact sum with every lost carry flipped back: a carry into
        bit ``i`` is lost iff a non-anchored window starts at
        ``i - window``.

        The window starting at bit 0 is anchored — it absorbs the real
        carry-in, so it can never be wrong (which also makes the error
        probability independent of ``cin``).
        """
        p = a ^ b
        exact, cout = ops.add(a, b, cin, self.width)
        carries = exact ^ p  # bit i: the true carry into bit i
        starts = window_all_ones(p, self.window)
        unanchored = starts & ~ops.one
        # ``carries`` stops below bit ``width``, so the carry-out is
        # taken apart: it is lost iff a non-anchored window starts at
        # the top.
        return KernelBatch(exact ^ (carries & (unanchored << self.window)),
                           cout & ~(unanchored >> self._top),
                           exact, cout, starts != 0,
                           (unanchored & carries) != 0)


@lru_cache(maxsize=256)
def _model(width: int, window: int) -> AcaModel:
    """The shared model behind the module-level ACA functions."""
    return AcaModel(width, window)


def aca_add(a: int, b: int, width: int, window: int,
            cin: int = 0) -> Tuple[int, int]:
    """Speculative sum exactly as the ACA hardware computes it.

    The carry into bit ``i`` is the *generate* of the block
    ``[max(0, i-window) .. i-1]`` — i.e. the true carry under the
    assumption that nothing enters the block from below.  Blocks anchored
    at position 0 additionally see the real carry-in, so the low ``window``
    bits are always exact.  See :meth:`AcaModel.add`.

    Args:
        a, b: Operands (masked to *width* bits).
        width: Operand bitwidth.
        window: Speculation window ``w``.
        cin: External carry-in (0 or 1).

    Returns:
        ``(sum, carry_out)`` as the speculative hardware would produce them.
    """
    return _model(width, window).add(a, b, cin)


def aca_is_correct(a: int, b: int, width: int, window: int,
                   cin: int = 0) -> bool:
    """True iff the ACA result (sum and carry out) equals exact addition.

    See :meth:`AcaModel.is_correct`.
    """
    return _model(width, window).is_correct(a, b, cin)


def detector_flag(a: int, b: int, width: int, window: int) -> bool:
    """The error-detection signal: any propagate run of length >= window.

    Conservative superset of the actual-error condition (never misses a
    real error, may fire when the speculative sum happens to be right).
    """
    return _model(width, window).flags_error(a, b)


class AcaFamily(AdderFamily):
    """Almost Correct Adder + VLSA datapath (the paper's design)."""

    name = "aca"
    title = "Almost Correct Adder (VLSA)"
    paper = "Verma, Brisk & Ienne, DATE 2008"
    primary_param = "window"

    def default_params(self, width: int) -> Dict[str, int]:
        return {"window": choose_window(width)}

    def build_speculative(self, width: int, window: int) -> Circuit:
        from ..core.aca import build_aca

        return build_aca(width, window)

    def build_circuit(self, width: int, window: int) -> Circuit:
        from ..core.vlsa import build_vlsa_datapath

        return build_vlsa_datapath(width, window)

    def functional(self, width: int, window: int) -> SpeculativeModel:
        return AcaModel(width=width, window=min(window, width))

    def speculation_cuts(self, width: int, window: int) -> List[Boundary]:
        return aca_cuts(width, min(window, width))


#: The registered singleton.
FAMILY = register_family(AcaFamily())

# The functional fast path stands in for build_aca(width, window) in the
# engine's cross-check registry.
register_functional("aca", AcaModel)
