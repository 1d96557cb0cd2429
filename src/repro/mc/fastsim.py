"""Fast functional model of the Almost Correct Adder.

Bit-parallel integer tricks give O(n / wordsize) evaluation of everything
the gate-level model computes, at any bitwidth:

* ``carry_word`` — the carry into every bit position is
  ``(a + b + cin) ^ a ^ b`` (bit ``i`` is the carry into bit ``i``).
* ``window_all_ones`` — logarithmic-doubling AND of ``w`` consecutive bits
  marks every position starting an all-propagate window.
* An ACA error exists iff some all-propagate window receives an incoming
  carry: ``window_all_ones(p, w) & carry_word != 0``.
* ``window_generate`` — Kogge-Stone doubling of the generate/propagate
  words yields every speculative carry of ``aca_add`` at once.

These functions are the workhorses of the Monte Carlo experiments and of
the cycle-accurate VLSA machine in :mod:`repro.arch`; the test suite
cross-checks them against the gate-level circuits and the exact DP in
:mod:`repro.analysis.error_model`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..analysis.runs import longest_run_of_ones
from ..engine.context import RunContext, resolve_rng

__all__ = [
    "carry_word",
    "window_all_ones",
    "window_generate",
    "propagate_word",
    "generate_word",
    "longest_propagate_run",
    "aca_add",
    "aca_is_correct",
    "detector_flag",
    "AcaModel",
    "sample_error_rate",
    "sample_detector_rate",
]


#: A Python int, or a uint64 array evaluated elementwise.
Word = Union[int, np.ndarray]


def _mask(width: int) -> int:
    return (1 << width) - 1


def propagate_word(a: int, b: int, width: int) -> int:
    """Per-bit propagate signals ``p = a ^ b`` (masked to *width* bits)."""
    return (a ^ b) & _mask(width)


def generate_word(a: int, b: int, width: int) -> int:
    """Per-bit generate signals ``g = a & b`` (masked to *width* bits)."""
    return (a & b) & _mask(width)


def carry_word(a: int, b: int, width: int, cin: int = 0) -> int:
    """Carries into every bit: bit ``i`` is the carry into position ``i``.

    Bit ``width`` is the carry out.  Identity: ``(a+b+cin) ^ a ^ b`` has
    exactly the carry into bit ``i`` at bit ``i`` (and ``cin`` at bit 0).
    """
    a &= _mask(width)
    b &= _mask(width)
    return (a + b + (cin & 1)) ^ a ^ b


def window_all_ones(word: Word, window: int) -> Word:
    """Bit ``i`` of the result is 1 iff bits ``i .. i+window-1`` are all 1.

    Uses shift-doubling: ANDing with a copy shifted by ``s`` certifies
    ``s`` extra ones, so ``O(log window)`` word operations suffice, on a
    Python int or elementwise on a uint64 array.
    """
    if window <= 0:
        raise ValueError("window must be positive")
    certified = 1  # each bit currently certifies a run of this length
    out = word
    while certified < window:
        step = min(certified, window - certified)
        out = out & (out >> step)  # not in place: *word* may be an array
        certified += step
    return out


def window_generate(g: Word, p: Word, window: int) -> Word:
    """Bit ``i`` is the group generate of bits ``[max(0, i-window+1), i]``.

    Kogge-Stone doubling on generate/propagate words, on a Python int or
    elementwise on a uint64 array.  The last step may overlap ranges,
    which the idempotent carry operator absorbs, and the zeros shifted in
    at bit 0 clamp the range there.  Bit ``i`` is therefore the ACA's
    speculative carry *out of* bit ``i`` at ``cin = 0``.
    """
    certified = 1
    while certified < window:
        step = min(certified, window - certified)
        g = g | (p & (g << step))
        p = p & (p << step)
        certified += step
    return g


def longest_propagate_run(a: int, b: int, width: int) -> int:
    """Length of the longest propagate chain in ``a + b``."""
    return longest_run_of_ones(propagate_word(a, b, width))


def aca_add(a: int, b: int, width: int, window: int,
            cin: int = 0) -> Tuple[int, int]:
    """Speculative sum exactly as the ACA hardware computes it.

    The carry into bit ``i`` is the *generate* of the block
    ``[max(0, i-window) .. i-1]`` — i.e. the true carry under the
    assumption that nothing enters the block from below.  Blocks anchored
    at position 0 additionally see the real carry-in, so the low ``window``
    bits are always exact.

    Computed word-at-a-time in ``O(log window)`` big-int operations:
    :func:`window_generate` gives every block carry, and the anchored
    positions ``0 .. window`` take the true carry of :func:`carry_word`.

    Args:
        a, b: Operands (masked to *width* bits).
        width: Operand bitwidth.
        window: Speculation window ``w``.
        cin: External carry-in (0 or 1).

    Returns:
        ``(sum, carry_out)`` as the speculative hardware would produce them.
    """
    if window <= 0:
        raise ValueError("window must be positive")
    mask = _mask(width)
    a &= mask
    b &= mask
    p = a ^ b
    span = min(window, width)
    anchored = _mask(span + 1)
    spec = ((window_generate(a & b, p, span) << 1) & ~anchored) | (
        ((a + b + (cin & 1)) ^ p) & anchored)
    return (p ^ spec) & mask, (spec >> width) & 1


def aca_is_correct(a: int, b: int, width: int, window: int,
                   cin: int = 0) -> bool:
    """True iff the ACA result (sum and carry out) equals exact addition.

    O(log window) big-int ops: wrong exactly when some all-propagate
    window of length *window* has an incoming carry.  The window starting
    at bit 0 is excluded — it is anchored and absorbs the real carry-in,
    so it can never be wrong (which also makes the error probability
    independent of ``cin``).
    """
    p = propagate_word(a, b, width)
    starts = window_all_ones(p, window)
    carries = carry_word(a, b, width, cin)
    return (starts & carries & ~1) == 0


def detector_flag(a: int, b: int, width: int, window: int) -> bool:
    """The error-detection signal: any propagate run of length >= window.

    Conservative superset of the actual-error condition (never misses a
    real error, may fire when the speculative sum happens to be right).
    """
    return window_all_ones(propagate_word(a, b, width), window) != 0


@dataclass
class AcaModel:
    """Functional ACA configured once, reused across many additions.

    Attributes:
        width: Operand bitwidth.
        window: Speculation window.
    """

    width: int
    window: int

    def add(self, a: int, b: int, cin: int = 0) -> Tuple[int, int]:
        """Speculative ``(sum, cout)``."""
        return aca_add(a, b, self.width, self.window, cin)

    def exact(self, a: int, b: int, cin: int = 0) -> Tuple[int, int]:
        """Reference ``(sum, cout)``."""
        total = (a & _mask(self.width)) + (b & _mask(self.width)) + (cin & 1)
        return total & _mask(self.width), total >> self.width

    def is_correct(self, a: int, b: int, cin: int = 0) -> bool:
        """Whether speculation succeeds on this operand pair."""
        return aca_is_correct(a, b, self.width, self.window, cin)

    def flags_error(self, a: int, b: int) -> bool:
        """Whether the detector requests a recovery cycle."""
        return detector_flag(a, b, self.width, self.window)

    def run_ints(self, vectors: Mapping[str, Union[int, Sequence[int]]]
                 ) -> Dict[str, Union[int, List[int]]]:
        """Bus-level interface mirroring the gate-level ACA circuit.

        Same contract as :func:`repro.engine.execute_ints` on
        ``build_aca(width, window)``: inputs ``a``/``b`` (optionally
        ``cin``), outputs ``sum``/``cout``.  Scalars in, scalars out;
        sequences in, parallel lists out — so functional and gate-level
        paths are interchangeable in cross-checks.

        Args:
            vectors: ``{"a": ..., "b": ...[, "cin": ...]}`` with int or
                per-vector sequence values.

        Returns:
            ``{"sum": ..., "cout": ...}`` in the same scalar/sequence
            shape as the input.
        """
        scalar = isinstance(vectors["a"], int)

        def as_list(value: Union[int, Sequence[int]]) -> List[int]:
            return [value] if isinstance(value, int) else list(value)

        a_vals = as_list(vectors["a"])
        b_vals = as_list(vectors["b"])
        cin_vals = as_list(vectors.get("cin", [0] * len(a_vals)))
        sums: List[int] = []
        couts: List[int] = []
        for a, b, cin in zip(a_vals, b_vals, cin_vals):
            s, c = self.add(a, b, cin)
            sums.append(s)
            couts.append(c)
        if scalar:
            return {"sum": sums[0], "cout": couts[0]}
        return {"sum": sums, "cout": couts}


def _random_operands(width: int, samples: int,
                     rng: np.random.Generator) -> "list[tuple[int, int]]":
    """Uniform operand pairs, drawn in one bulk byte request.

    One ``rng.bytes`` call plus byte-slicing replaces the historical
    per-sample 62-bit chunk loop (an order of magnitude faster at
    Monte-Carlo sample counts).
    """
    nbytes = (width + 7) // 8
    mask = _mask(width)
    raw = rng.bytes(2 * samples * nbytes)
    pairs = []
    pos = 0
    for _ in range(samples):
        a = int.from_bytes(raw[pos:pos + nbytes], "little") & mask
        b = int.from_bytes(raw[pos + nbytes:pos + 2 * nbytes],
                           "little") & mask
        pairs.append((a, b))
        pos += 2 * nbytes
    return pairs


def sample_error_rate(width: int, window: int, samples: int = 100000,
                      seed: Optional[int] = 0,
                      ctx: Optional[RunContext] = None) -> float:
    """Monte Carlo estimate of P(ACA wrong) on uniform operands.

    Args:
        width, window: ACA configuration.
        samples: Operand pairs to draw.
        seed: RNG seed; ``None`` defers to the run context's seeded
            generator (never an unseeded source).
        ctx: Optional run context accumulating the ``mc_samples`` counter.
    """
    rng = (np.random.default_rng(seed) if seed is not None
           else resolve_rng(None, ctx))
    if ctx is not None:
        ctx.add("mc_samples", samples)
    errors = 0
    for a, b in _random_operands(width, samples, rng):
        if not aca_is_correct(a, b, width, window):
            errors += 1
    return errors / samples


def sample_detector_rate(width: int, window: int, samples: int = 100000,
                         seed: Optional[int] = 0,
                         ctx: Optional[RunContext] = None) -> float:
    """Monte Carlo estimate of P(detector fires) on uniform operands.

    Args: as :func:`sample_error_rate`.
    """
    rng = (np.random.default_rng(seed) if seed is not None
           else resolve_rng(None, ctx))
    if ctx is not None:
        ctx.add("mc_samples", samples)
    flags = 0
    for a, b in _random_operands(width, samples, rng):
        if detector_flag(a, b, width, window):
            flags += 1
    return flags / samples

