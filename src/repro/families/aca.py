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
  ``spec = total ^ (carries & ((starts & ~1) << window))``, and the
  carry-out bit of the same word is the speculative carry-out.

:class:`AcaModel` evaluates this on Python ints at any width, one pair
at a time or elementwise on ``dtype=object`` lanes of them (the Monte
Carlo experiments, the service's bigint backend and, through
:meth:`~repro.families.base.SpeculativeModel.run_arrays`, the
cycle-accurate VLSA machine and the verifier's functional row run on
it); :func:`aca_numpy_kernel` evaluates it on uint64
arrays (the serving, cluster and verify hot path).  The differential
verifier's oracle (:mod:`repro.verify.oracle`) recomputes everything
from the definition without either, and the test suite cross-checks
both against the gate-level circuits and the carry-state engine of
:mod:`repro.analysis.error_model`.

Cut view (what the analytic rates are derived from): the ACA predicts
the carry into every bit ``pos >= window``, and its carry out, from the
``window`` bits below; the cut at ``pos == window`` is anchored.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from ..analysis.error_model import Boundary, aca_cuts, choose_window
from ..circuit import Circuit
from ..core.aca import build_aca
from ..core.vlsa import build_vlsa_datapath
from ..engine.functional import register_functional
from .base import (AdderFamily, KernelBatch, SpeculativeModel,
                   register_family)

__all__ = [
    "AcaFamily",
    "AcaModel",
    "FAMILY",
    "aca_add",
    "aca_is_correct",
    "aca_numpy_kernel",
    "detector_flag",
    "window_all_ones",
]


#: A Python int, or a uint64 array evaluated elementwise.
Word = Union[int, np.ndarray]


@lru_cache(maxsize=256)
def _doubling_steps(window: int) -> Tuple[int, ...]:
    """Shift amounts of a log-doubling that certifies *window* bits.

    Each step at most doubles the certified run length, and the last
    one stops exactly at *window*.
    """
    if window <= 0:
        raise ValueError("window must be positive")
    steps = []
    certified = 1  # each bit currently certifies a run of this length
    while certified < window:
        step = min(certified, window - certified)
        steps.append(step)
        certified += step
    return tuple(steps)


def window_all_ones(word: Word, window: int) -> Word:
    """Bit ``i`` of the result is 1 iff bits ``i .. i+window-1`` are all 1.

    Uses shift-doubling: ANDing with a copy shifted by ``s`` certifies
    ``s`` extra ones, so ``O(log window)`` word operations suffice, on a
    Python int or elementwise on a uint64 array.
    """
    out = word
    for step in _doubling_steps(window):
        out = out & (out >> step)  # not in place: *word* may be an array
    return out


@dataclass
class AcaModel(SpeculativeModel):
    """Functional ACA configured once, reused across many additions.

    Construction validates *window* and fixes the operand mask; every
    call is ``O(log window)`` big-int operations.  ``exact`` and
    ``run_ints`` come from :class:`SpeculativeModel`.

    Attributes:
        width: Operand bitwidth.
        window: Speculation window.
    """

    width: int
    window: int

    def __post_init__(self) -> None:
        if self.window <= 0:
            raise ValueError("window must be positive")
        self._word_mask = self._mask()

    def add(self, a: int, b: int, cin: int = 0) -> Tuple[int, int]:
        """Speculative ``(sum, cout)``.

        The exact sum with every lost carry flipped back: a carry into
        bit ``i`` is lost iff a non-anchored window starts at
        ``i - window``.
        """
        mask = self._word_mask
        a = a & mask  # not in place: *a* may be an array
        b = b & mask
        p = a ^ b
        total = a + b + (cin & 1)
        lost = (window_all_ones(p, self.window) & ~1) << self.window
        spec = total ^ ((total ^ p) & lost)
        return spec & mask, spec >> self.width

    def is_correct(self, a: int, b: int, cin: int = 0) -> bool:
        """Whether speculation succeeds on this operand pair.

        Wrong exactly when some all-propagate window of length *window*
        has an incoming carry.  The window starting at bit 0 is excluded
        — it is anchored and absorbs the real carry-in, so it can never
        be wrong (which also makes the error probability independent of
        ``cin``).
        """
        mask = self._word_mask
        a = a & mask
        b = b & mask
        p = a ^ b
        starts = window_all_ones(p, self.window)
        return (starts & ((a + b + (cin & 1)) ^ p) & ~1) == 0

    def flags_error(self, a: int, b: int) -> bool:
        """Whether the detector requests a recovery cycle."""
        return window_all_ones((a ^ b) & self._word_mask, self.window) != 0


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


def aca_numpy_kernel(width: int, window: int
                     ) -> Callable[[np.ndarray, np.ndarray], KernelBatch]:
    """uint64 batch kernel bit-identical to :class:`AcaModel`.

    *window* is clamped to *width*, as :meth:`AcaFamily.functional` does.
    """
    if width > 64:
        raise ValueError("numpy kernels support widths up to 64 bits")
    if window <= 0:
        raise ValueError("window must be positive")
    window = min(window, width)
    mask = np.uint64((1 << width) - 1)
    not_bit0 = ~np.uint64(1)
    shift = np.uint64(window)
    top = np.uint64(width - window)  # the highest possible start

    def kernel(a: np.ndarray, b: np.ndarray) -> KernelBatch:
        a = np.asarray(a, dtype=np.uint64) & mask
        b = np.asarray(b, dtype=np.uint64) & mask
        total = a + b  # uint64 wraparound == mod 2^64 at width 64
        s = total & mask
        if width < 64:
            exact_couts = total >> np.uint64(width)
        else:
            exact_couts = (s < a).astype(np.uint64)
        p = a ^ b
        carries = s ^ p  # bit i: the true carry into bit i
        starts = window_all_ones(p, window)
        unanchored = starts & not_bit0
        # ``carries`` stops below bit ``width``, so the carry-out is
        # taken apart: it is lost iff a non-anchored window starts at
        # the top.
        spec = s ^ (carries & (unanchored << shift))
        spec_couts = exact_couts & ~(unanchored >> top)
        return KernelBatch(spec_sums=spec, spec_couts=spec_couts,
                           exact_sums=s, exact_couts=exact_couts,
                           flags=starts != 0,
                           spec_errors=(unanchored & carries) != 0)

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

    def speculation_cuts(self, width: int, window: int) -> List[Boundary]:
        return aca_cuts(width, min(window, width))


#: The registered singleton.
FAMILY = register_family(AcaFamily())

# The functional fast path stands in for build_aca(width, window) in the
# engine's cross-check registry.
register_functional("aca", AcaModel)
