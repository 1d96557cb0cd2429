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

:class:`AcaModel` is configured once per ``(width, window)``: it fixes
the masks and the doubling shift schedule at construction and evaluates
``add``, ``flags_error`` and ``is_correct`` inline from them.  The
module-level ``aca_add``, ``detector_flag`` and ``aca_is_correct``
delegate to a cached model, so each operation has one implementation.

These functions are the workhorses of the Monte Carlo experiments, the
service's bigint backend and the cycle-accurate VLSA machine in
:mod:`repro.arch`.  The differential verifier's oracle
(:mod:`repro.verify.oracle`) recomputes everything from the definition
without them, and the test suite cross-checks them against the
gate-level circuits and the exact DP in :mod:`repro.analysis.error_model`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
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


def window_generate(g: Word, p: Word, window: int) -> Word:
    """Bit ``i`` is the group generate of bits ``[max(0, i-window+1), i]``.

    Kogge-Stone doubling on generate/propagate words, on a Python int or
    elementwise on a uint64 array.  The last step may overlap ranges,
    which the idempotent carry operator absorbs, and the zeros shifted in
    at bit 0 clamp the range there.  Bit ``i`` is therefore the ACA's
    speculative carry *out of* bit ``i`` at ``cin = 0``.
    """
    for step in _doubling_steps(window):
        g = g | (p & (g << step))
        p = p & (p << step)
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


@dataclass
class AcaModel:
    """Functional ACA configured once, reused across many additions.

    Construction fixes the operand mask and the doubling shift schedules
    (one for the speculative carries, one for the detector), so every
    call is ``O(log window)`` big-int operations with no set-up.

    Attributes:
        width: Operand bitwidth.
        window: Speculation window.
    """

    width: int
    window: int

    def __post_init__(self) -> None:
        span = min(self.window, self.width)
        self._word_mask = _mask(self.width)
        # Anchored positions 0 .. span see bit 0 (and the carry-in).
        self._anchored = _mask(span + 1)
        self._unanchored = ~self._anchored
        self._spec_steps = _doubling_steps(span) if span > 0 else ()
        self._run_steps = _doubling_steps(self.window)

    def add(self, a: int, b: int, cin: int = 0) -> Tuple[int, int]:
        """Speculative ``(sum, cout)``.

        The :func:`window_generate` doubling, inlined, gives every block
        carry at once; the anchored positions ``0 .. window`` take the
        true carry ``(a + b + cin) ^ a ^ b``.
        """
        mask = self._word_mask
        a &= mask
        b &= mask
        p = a ^ b
        g = a & b
        run = p
        for step in self._spec_steps:
            g |= run & (g << step)
            run &= run << step
        spec = ((g << 1) & self._unanchored) | (
            ((a + b + (cin & 1)) ^ p) & self._anchored)
        return (p ^ spec) & mask, (spec >> self.width) & 1

    def exact(self, a: int, b: int, cin: int = 0) -> Tuple[int, int]:
        """Reference ``(sum, cout)``."""
        mask = self._word_mask
        total = (a & mask) + (b & mask) + (cin & 1)
        return total & mask, total >> self.width

    def is_correct(self, a: int, b: int, cin: int = 0) -> bool:
        """Whether speculation succeeds on this operand pair.

        Wrong exactly when some all-propagate window of length *window*
        has an incoming carry.  The window starting at bit 0 is excluded
        — it is anchored and absorbs the real carry-in, so it can never
        be wrong (which also makes the error probability independent of
        ``cin``).
        """
        mask = self._word_mask
        a &= mask
        b &= mask
        p = a ^ b
        starts = p
        for step in self._run_steps:
            starts &= starts >> step
        return (starts & ((a + b + (cin & 1)) ^ p) & ~1) == 0

    def flags_error(self, a: int, b: int) -> bool:
        """Whether the detector requests a recovery cycle."""
        starts = (a ^ b) & self._word_mask
        for step in self._run_steps:
            starts &= starts >> step
        return starts != 0

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


@lru_cache(maxsize=256)
def _model(width: int, window: int) -> AcaModel:
    """The shared model behind the module-level ACA functions."""
    return AcaModel(width, window)


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

