"""The differential verifier's reference: a vectorised oracle.

Every implementation the verifier drives is held to this module.  It
evaluates a whole chunk of operand pairs with array arithmetic, straight
from each family's *definition* rather than from the word-level tricks
the implementations use:

* exact results — ``(a + b) & mask`` and the carry out
  ``((a >> 1) + (b >> 1) + (a & b & 1)) >> (width - 1)``, which cannot
  overflow a 64-bit word;
* ACA (Verma, Brisk & Ienne) — the speculative carry into bit ``i`` is
  the carry generated in the ``window`` bits below ``i``, built by a
  *linear* ripple ``G = g | (p & (G << 1))`` applied ``window - 1``
  times; anchored bits ``0 .. window`` take the true carry.  The
  detector is the AND of ``window`` shifted copies of ``p``, and a pair
  is correct iff no non-anchored all-propagate window receives a carry;
* block families (CESA-R, Wu et al.'s block-based adder) — the estimate
  at each cut is the carry out of the ``lookahead`` bits under it with
  zero carry-in, and each block adds its slice plus that estimate.  The
  ``window`` detector fires on any non-anchored all-propagate lookahead
  window, the ``exact`` one iff the speculative result is wrong; a pair
  is correct iff every estimate equals the true carry into its cut.

No doubling helper and no family kernel is used, so a fault in the
shared functional models, the kernels or the serving paths shows up as
a mismatch instead of being replicated by the reference.  The geometry
is read from the family's functional model, which is only inspected,
never called.

Operands live in ``uint64`` arrays for widths up to 64 and in
``dtype=object`` arrays of Python ints above; both run the same code.
The chunk arrives as one ``(n, 2)`` operand array (a verifier chunk's
:attr:`~repro.verify.differential.Chunk.source`, as its stream yields
it), which is masked to the width here; a sequence of pairs is turned
into such an array first.  The conversion is the oracle's own too, so
a fault in the rows' shared one (``Chunk.operands``) is a mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence, Tuple, Union

import numpy as np

from ..families.aca import AcaModel
from ..families.blocks import BlockSpecModel

__all__ = ["OracleBatch", "evaluate"]


@dataclass
class OracleBatch:
    """Reference values for one chunk, one array element per pair."""

    spec_sums: np.ndarray
    spec_couts: np.ndarray
    exact_sums: np.ndarray
    exact_couts: np.ndarray
    flags: np.ndarray    # bool: the detector requests a recovery cycle
    correct: np.ndarray  # bool: the speculative result is exact


def _carry_out(x: Any, y: Any, c: Any, n: int, one: Any) -> Any:
    """Carry out of the ``n``-bit sum ``x + y + c`` (``c`` is 0 or 1).

    Halving both operands first keeps every intermediate below ``2^n``,
    so ``n = 64`` does not overflow a ``uint64`` lane.
    """
    return ((x >> one) + (y >> one)
            + (((x & one) + (y & one) + c) >> one)) >> (n - 1)


def _operands(pairs: Union[np.ndarray, Sequence[Tuple[int, int]]],
              width: int) -> Tuple[np.ndarray, np.ndarray, type]:
    """``(a, b, word)`` masked operand columns and their scalar type.

    An ``(n, 2)`` array already in the width's lane type (``uint64`` up
    to 64 bits, ``object`` above) is read as it is.
    """
    word: type = np.uint64 if width <= 64 else int
    dtype = np.uint64 if width <= 64 else object
    mask = (1 << width) - 1
    if not (isinstance(pairs, np.ndarray) and pairs.dtype == dtype):
        try:
            pairs = np.array(pairs, dtype=dtype)
        except OverflowError:  # operands outside uint64: mask them first
            pairs = np.array([(a & mask, b & mask) for a, b in pairs],
                             dtype=dtype)
    ops = pairs.reshape(-1, 2)
    return ops[:, 0] & word(mask), ops[:, 1] & word(mask), word


def evaluate(pairs: Union[np.ndarray, Sequence[Tuple[int, int]]],
             model: Any) -> OracleBatch:
    """Reference values of *pairs* for the adder *model* describes.

    Args:
        pairs: Operand pairs: an ``(n, 2)`` array or a sequence of
            ``(a, b)`` pairs, masked to the model's width.
        model: The family's functional model (an
            :class:`~repro.families.aca.AcaModel` or a
            :class:`~repro.families.blocks.BlockSpecModel`); only its
            geometry is read.

    Raises:
        ValueError: If *model* is of a kind the oracle does not know.
    """
    if isinstance(model, AcaModel):
        spec = _aca
    elif isinstance(model, BlockSpecModel):
        spec = _blocks
    else:
        raise ValueError(
            f"the oracle has no definition for {type(model).__name__}")
    width = model.width
    a, b, word = _operands(pairs, width)
    one = word(1)
    mask = word((1 << width) - 1)
    p = a ^ b
    exact_sums = (a + b) & mask  # uint64 lanes wrap mod 2^64 at width 64
    exact_couts = _carry_out(a, b, 0, width, one)
    carries = exact_sums ^ p     # bit i: the true carry into bit i
    spec_sums, spec_couts, flags, correct = spec(
        model, a, b, p, carries, exact_sums, exact_couts, word)
    return OracleBatch(spec_sums=spec_sums, spec_couts=spec_couts,
                       exact_sums=exact_sums, exact_couts=exact_couts,
                       flags=np.asarray(flags, dtype=bool),
                       correct=np.asarray(correct, dtype=bool))


def _aca(model: AcaModel, a: Any, b: Any, p: Any, carries: Any,
         exact_sums: Any, exact_couts: Any, word: type) -> Tuple[Any, ...]:
    width, window = model.width, model.window
    one = word(1)
    mask = word((1 << width) - 1)
    span = min(window, width)
    # G bit i: carry generated in bits [max(0, i - span + 1), i].
    g = a & b
    gen = g
    for _ in range(span - 1):
        gen = g | (p & (gen << one))
    anchored = word((1 << min(span + 1, width)) - 1)
    spec_carries = ((gen << one) & (mask ^ anchored)) | (carries & anchored)
    spec_sums = p ^ spec_carries
    spec_couts = (exact_couts if span == width
                  else (gen >> word(width - 1)) & one)
    # starts bit i: bits i .. i + window - 1 all propagate.
    if window > width:  # no window of that length fits in the word
        starts = p & word(0)
    else:
        starts = p
        for k in range(1, window):
            starts = starts & (p >> word(k))
    flags = starts != 0
    correct = (starts & carries & (mask ^ one)) == 0
    return spec_sums, spec_couts, flags, correct


def _blocks(model: BlockSpecModel, a: Any, b: Any, p: Any, carries: Any,
            exact_sums: Any, exact_couts: Any, word: type
            ) -> Tuple[Any, ...]:
    one, zero = word(1), word(0)
    t = model.lookahead
    spec_sums = a & zero
    spec_couts = a & zero
    flags = np.zeros(len(a), dtype=bool)
    correct = np.ones(len(a), dtype=bool)
    for lo, hi in model.bounds:
        n = hi - lo + 1
        blk = word((1 << n) - 1)
        true_in = (carries >> word(lo)) & one
        if lo == 0 or t >= lo:
            # Anchored cut: the window reaches bit 0.
            est = true_in
        else:
            win = word((1 << t) - 1)
            est = _carry_out((a >> word(lo - t)) & win,
                             (b >> word(lo - t)) & win, 0, t, one)
            if model.detector == "window":
                flags |= ((p >> word(lo - t)) & win) == win
            correct &= est == true_in
        sa = (a >> word(lo)) & blk
        sb = (b >> word(lo)) & blk
        spec_sums = spec_sums | (((sa + sb + est) & blk) << word(lo))
        spec_couts = _carry_out(sa, sb, est, n, one)
    if model.detector == "exact":
        flags = (spec_sums != exact_sums) | (spec_couts != exact_couts)
    return spec_sums, spec_couts, flags, correct
