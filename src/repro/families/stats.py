"""Exact error-distance distribution of block-boundary speculation.

The block families cut the operands at a set of boundaries
(:class:`~repro.analysis.error_model.Boundary`) and predict the carry
into each from a bounded lookahead window.  Their error and flag rates
come from the shared carry-state engine
(:func:`repro.analysis.error_model.speculation_mass`); this module adds
the **exact distribution of the error distance** (following Wu et al.,
arXiv:1703.03522), which needs the distance carried in the DP state.

Everything is computed with integer weights over the common denominator
``4^width``, so the results are exact :class:`fractions.Fraction` values
with float projections for free.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Sequence, Tuple

from ..analysis.error_model import Boundary

__all__ = [
    "EdDistribution",
    "ed_distribution",
    "MAX_ED_STATES",
]

#: Bit-type weights out of 4: kill, generate, propagate.
_W_KILL = 1
_W_GEN = 1
_W_PROP = 2

#: Default cap on the ED-distribution DP state count (the support grows
#: like ``3^blocks``; beyond ~10 blocks the exact distribution stops
#: being the right tool and callers should stick to the rate engine).
MAX_ED_STATES = 200_000


@dataclass
class EdDistribution:
    """Exact distribution of the error distance ``E = exact - spec``.

    The error distance is measured on the full ``width + 1``-bit output
    value (sum plus carry-out), matching the repo's bit-identical
    correctness contract.  ``counts[e]`` is the number of operand pairs
    (weighted over ``4^width``) whose speculative result is off by
    exactly ``e``.
    """

    width: int
    counts: Dict[int, int]

    @property
    def denominator(self) -> int:
        return 1 << (2 * self.width)

    def probability(self, value: int, exact: bool = False):
        frac = Fraction(self.counts.get(value, 0), self.denominator)
        return frac if exact else float(frac)

    def error_rate(self, exact: bool = False):
        frac = Fraction(self.denominator - self.counts.get(0, 0),
                        self.denominator)
        return frac if exact else float(frac)

    def mean_abs(self, exact: bool = False):
        total = sum(abs(v) * w for v, w in self.counts.items())
        frac = Fraction(total, self.denominator)
        return frac if exact else float(frac)

    def mean(self, exact: bool = False):
        total = sum(v * w for v, w in self.counts.items())
        frac = Fraction(total, self.denominator)
        return frac if exact else float(frac)

    def second_moment(self, exact: bool = False):
        total = sum(v * v * w for v, w in self.counts.items())
        frac = Fraction(total, self.denominator)
        return frac if exact else float(frac)

    def max_abs(self) -> int:
        return max((abs(v) for v in self.counts), default=0)


def ed_distribution(width: int, boundaries: Sequence[Boundary],
                    max_states: int = MAX_ED_STATES) -> EdDistribution:
    """Exact error-distance distribution (Wu et al. style).

    A wrong prediction at boundary ``b_j`` makes the true result larger
    by ``2^(b_j)`` — unless the block ``[b_j, b_{j+1})`` it feeds is
    itself all-propagate, in which case the missing carry would have
    wrapped the block and rippled out of it: the block's contribution
    flips to ``2^(b_j) - 2^(b_{j+1})``.  (The final block's overflow
    lands in the carry-out, which the error distance includes, so it
    never wraps.)  The DP below tracks the trailing-run state plus the
    pending-wrap flag and the accumulated distance.

    Args:
        width: Operand bitwidth.
        boundaries: Non-anchored cuts inside the word
            (:func:`~repro.families.blocks.block_boundaries`).
        max_states: Abort bound on the DP state count (the support is
            exponential in the number of blocks).

    Raises:
        ValueError: When the state count exceeds *max_states*.
    """
    cuts = sorted(boundaries, key=lambda bd: bd.pos)
    for bd in cuts:
        if bd.pos >= width:
            raise ValueError(f"boundary {bd.pos} outside width {width}")
    positions = [bd.pos for bd in cuts]
    if len(set(positions)) != len(positions):
        raise ValueError("duplicate boundary positions")
    gaps = [b - a for a, b in zip(positions, positions[1:])]
    rcap = max([bd.lookahead for bd in cuts] + gaps + [1])
    by_pos = {bd.pos: (i, bd) for i, bd in enumerate(cuts)}

    # State: (run, carry, pending, distance) -> weight.  ``pending`` is
    # set when the previous boundary mispredicted and the wrap of the
    # block it feeds is still undecided.
    states: Dict[Tuple[int, int, int, int], int] = {(0, 0, 0, 0): 1}

    for pos in range(width):
        entry = by_pos.get(pos)
        if entry is not None:
            idx, bd = entry
            gap = gaps[idx - 1] if idx > 0 else None
            nxt: Dict[Tuple[int, int, int, int], int] = {}
            for (run, carry, pending, dist), w in states.items():
                if pending and gap is not None and run >= gap:
                    # Previous block was all-propagate: its missed
                    # carry wraps the block and escapes into this one.
                    dist -= 1 << pos
                err = run >= bd.lookahead and carry == 1
                if err:
                    dist += 1 << pos
                key = (run, carry, 1 if err else 0, dist)
                nxt[key] = nxt.get(key, 0) + w
            states = nxt
        nxt = {}
        for (run, carry, pending, dist), w in states.items():
            for drun, dcarry, dw in ((0, 0, _W_KILL), (0, 1, _W_GEN),
                                     (min(run + 1, rcap), carry, _W_PROP)):
                key = (drun, dcarry, pending, dist)
                nxt[key] = nxt.get(key, 0) + w * dw
        states = nxt
        if len(states) > max_states:
            raise ValueError(
                f"error-distance support exceeds {max_states} DP states "
                f"at bit {pos}; use the error model's rates for this "
                f"geometry")

    counts: Dict[int, int] = {}
    for (run, carry, pending, dist), w in states.items():
        counts[dist] = counts.get(dist, 0) + w
    return EdDistribution(width=width, counts=counts)
