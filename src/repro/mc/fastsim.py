"""Monte Carlo sampling of the Almost Correct Adder, plus word helpers.

Bit-parallel integer helpers on the propagate/generate/carry words, at
any bitwidth:

* ``carry_word`` — the carry into every bit position is
  ``(a + b + cin) ^ a ^ b`` (bit ``i`` is the carry into bit ``i``).
* ``propagate_word`` / ``generate_word`` / ``longest_propagate_run`` —
  the per-bit signals and the longest propagate chain.

``sample_error_rate`` and ``sample_detector_rate`` estimate the ACA's
error and detector rates on uniform operands.  The ACA's word-level
algorithm itself (:class:`AcaModel`, ``window_all_ones``, ``aca_add``,
``detector_flag``, ``aca_is_correct``) lives in
:mod:`repro.families.aca`; this module re-exports those names so
``repro.mc`` keeps its public API.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..analysis.runs import longest_run_of_ones
from ..engine.context import RunContext, resolve_rng
from ..families.aca import (AcaModel, aca_add, aca_is_correct,
                            detector_flag, window_all_ones)

__all__ = [
    "carry_word",
    "window_all_ones",
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


def longest_propagate_run(a: int, b: int, width: int) -> int:
    """Length of the longest propagate chain in ``a + b``."""
    return longest_run_of_ones(propagate_word(a, b, width))


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

