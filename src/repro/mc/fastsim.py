"""Monte Carlo sampling of the Almost Correct Adder, plus word helpers.

Bit-parallel integer helpers on the propagate/generate/carry words, at
any bitwidth:

* ``carry_word`` — the carry into every bit position is
  ``(a + b + cin) ^ a ^ b`` (bit ``i`` is the carry into bit ``i``).
* ``propagate_word`` / ``generate_word`` / ``longest_propagate_run`` —
  the per-bit signals and the longest propagate chain.

``sample_error_rate`` and ``sample_detector_rate`` estimate the ACA's
error and detector rates on uniform operands, with one call of the
model on lanes of all the samples.  The ACA's word-level
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
from ..engine.pack import uniform_ints
from ..families.aca import (AcaModel, aca_add, aca_is_correct,
                            detector_flag, window_all_ones)
from ..families.base import KernelBatch

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


def _sample(width: int, window: int, samples: int, seed: Optional[int],
            ctx: Optional[RunContext]) -> KernelBatch:
    """The ACA on *samples* uniform operand pairs, as one lane call.

    One bulk byte draw holds ``a`` then ``b`` of every sample
    (:func:`~repro.engine.pack.uniform_ints`).
    """
    rng = (np.random.default_rng(seed) if seed is not None
           else resolve_rng(None, ctx))
    if ctx is not None:
        ctx.add("mc_samples", samples)
    ops = uniform_ints(rng, width, 2 * samples).reshape(samples, 2)
    return AcaModel(width, window).evaluate(ops[:, 0], ops[:, 1])


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
    batch = _sample(width, window, samples, seed, ctx)
    return int(np.count_nonzero(batch.spec_errors)) / samples


def sample_detector_rate(width: int, window: int, samples: int = 100000,
                         seed: Optional[int] = 0,
                         ctx: Optional[RunContext] = None) -> float:
    """Monte Carlo estimate of P(detector fires) on uniform operands.

    Args: as :func:`sample_error_rate`.
    """
    batch = _sample(width, window, samples, seed, ctx)
    return int(np.count_nonzero(batch.flags)) / samples
