"""Word operations the families' speculate/detect rules are written in.

Each family writes its rule once (``SpeculativeModel.rule``), and the
same body runs on three lane types: a Python int (one pair, any width),
a ``dtype=object`` array of Python ints (a batch, any width) and a
``uint64`` array (a batch, widths up to 64).  A rule combines lanes
with ``& | ^ ~ << >> +`` and ``!=``/``==``, shifting by Python ints;
its :class:`WordOps` supplies what differs between lane types: typed
constants and an exact ``n``-bit add with carry out, which on ``uint64``
lanes cannot read the carry out of a 64-bit sum as ``total >> 64``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Dict, Sequence, Tuple, Union

import numpy as np

from ..engine.pack import as_uint64

__all__ = ["WordOps", "Uint64Ops", "lanes", "object_lanes", "word_ops",
           "window_all_ones"]

#: A Python int, a ``dtype=object`` array of them, or a ``uint64`` array.
Word = Any


class WordOps:
    """Constants and exact adds on Python-int lanes of *width* bits.

    Serves single Python ints and ``dtype=object`` arrays of them alike.
    """

    def __init__(self, width: int, word: type = int):
        self.width = width
        self.word = word
        self.zero = word(0)
        self.one = word(1)
        self._ones: Dict[int, Word] = {}
        self.mask = self.ones(width)

    def ones(self, n: int) -> Word:
        """The ``n``-bit all-ones constant."""
        ones = self._ones.get(n)
        if ones is None:
            ones = self._ones[n] = self.word((1 << n) - 1)
        return ones

    def add(self, x: Word, y: Word, c: Word, n: int) -> Tuple[Word, Word]:
        """``(x + y + c) mod 2^n`` and its carry out, for ``n``-bit *x*
        and *y* and a carry in *c* of 0 or 1."""
        total = x + y + c
        return total & self.ones(n), total >> n


class Uint64Ops(WordOps):
    """Constants and exact adds on ``uint64`` lanes (widths up to 64).

    A 64-bit sum wraps, so its carry out is the majority of the top
    operand bits and the carry into the top bit, ``s ^ x ^ y`` there:
    ``(x & y) | ((x | y) & ~s)`` at bit 63.
    """

    def __init__(self, width: int):
        super().__init__(width, np.uint64)

    def add(self, x: Word, y: Word, c: Word, n: int) -> Tuple[Word, Word]:
        if n < 64:
            return super().add(x, y, c, n)
        s = x + y + c  # uint64 wraparound == mod 2^64
        return s, ((x & y) | ((x | y) & ~s)) >> 63


@lru_cache(maxsize=256)
def _ops(width: int, uint64: bool) -> WordOps:
    return Uint64Ops(width) if uint64 else WordOps(width)


def word_ops(width: int, lane: Word) -> WordOps:
    """The :class:`WordOps` for operands like *lane*: ``uint64`` ops for
    ``uint64`` lanes, Python-int ops for anything else."""
    return _ops(width, isinstance(lane, (np.ndarray, np.generic))
                and lane.dtype == np.uint64)


def object_lanes(values: Union[Sequence[int], np.ndarray]) -> np.ndarray:
    """A 1-D ``dtype=object`` array of Python ints: one lane per value.

    Integer arrays (``uint64`` included) are converted element by
    element to Python ints, so big-int arithmetic (``~1``, carries past
    bit 63) never meets a fixed-width numpy scalar.
    """
    if isinstance(values, np.ndarray):
        return values.astype(object).reshape(-1)
    return np.array(list(values), dtype=object).reshape(-1)


def lanes(values: Union[Sequence, np.ndarray], width: int) -> np.ndarray:
    """*values* as lanes masked to *width* bits, in the same shape.

    ``uint64`` lanes at widths up to 64 (:func:`~repro.engine.pack.
    as_uint64`, so negative or ``>= 2^64`` values are masked, not
    rejected), ``dtype=object`` lanes of Python ints above.
    """
    mask = (1 << width) - 1
    if width <= 64:
        return as_uint64(values, width) & np.uint64(mask)
    return np.array(values, dtype=object) & mask


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
    ``s`` extra ones, so ``O(log window)`` word operations suffice, on
    any lane type.
    """
    out = word
    for step in _doubling_steps(window):
        out = out & (out >> step)  # not in place: *word* may be an array
    return out
