"""Online operand-profile estimation for the autotuner.

The analytic forecasts in :mod:`repro.autotune.predictor` are functions
of two per-bit probabilities of the operand stream:

``p_propagate``
    probability that a bit position propagates a carry (``a_i ^ b_i``),
``p_generate``
    probability that a bit position generates a carry (``a_i & b_i``).

Under the i.i.d.-bit model of the paper these two numbers determine the
exact stall rate of every registered adder family (see
:meth:`repro.families.AdderFamily.flag_probability`, the carry-state
engine of :mod:`repro.analysis.error_model` over the family's cuts).
The profile estimates them from a **sliding window** of recently
observed batches so the policy engine reacts to distribution shift
while forgetting stale traffic.

The estimator is deliberately cheap: one XOR, one AND, and two
popcounts per sampled operand pair.  Batches may be subsampled by the
caller; the window is bounded in *pairs*, not batches, so bursts of
tiny batches and single huge batches age out at the same rate.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Iterable, Sequence, Tuple

import numpy as np

__all__ = ["OperandProfile"]


def _popcount_words(words: "np.ndarray") -> int:
    """Total set bits across a uint64 array."""
    if words.size == 0:
        return 0
    return int(np.unpackbits(words.view(np.uint8)).sum())


def _popcount_int(value: int) -> int:
    return bin(value).count("1")


@dataclass
class OperandProfile:
    """Sliding-window estimate of per-bit propagate/generate fractions.

    Parameters
    ----------
    width:
        Operand width in bits; the denominator of every bit fraction.
    window_pairs:
        Maximum number of operand pairs retained.  Older segments are
        evicted whole once the total exceeds the window.
    """

    width: int
    window_pairs: int = 8192
    _segments: Deque[Tuple[int, int, int]] = field(default_factory=deque)
    _pairs: int = 0
    _prop_bits: int = 0
    _gen_bits: int = 0

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError("width must be >= 1")
        if self.window_pairs < 1:
            raise ValueError("window_pairs must be >= 1")

    # -- ingestion ------------------------------------------------------

    def observe_arrays(self, a: "np.ndarray", b: "np.ndarray") -> None:
        """Fold a batch of uint64 operand arrays into the window.

        Operands are assumed already masked to ``width`` (the service
        masks on admission), so bits above ``width`` contribute zero to
        either popcount.
        """
        a = np.ascontiguousarray(a, dtype=np.uint64)
        b = np.ascontiguousarray(b, dtype=np.uint64)
        if a.shape != b.shape:
            raise ValueError("operand arrays must have the same shape")
        self._push(int(a.size), _popcount_words(a ^ b), _popcount_words(a & b))

    def observe_pairs(self, pairs: Sequence[Tuple[int, int]]) -> None:
        """Fold ``(a, b)`` integer pairs (any width, bigint safe)."""
        prop = gen = 0
        n = 0
        for a, b in pairs:
            prop += _popcount_int(a ^ b)
            gen += _popcount_int(a & b)
            n += 1
        self._push(n, prop, gen)

    def observe(self, pairs: Any) -> None:
        """Dispatch on the batch representation used by the executor."""
        if isinstance(pairs, np.ndarray):
            # (n, 2) operand matrix as produced by coerce_pairs_array.
            self.observe_arrays(pairs[:, 0], pairs[:, 1])
        else:
            self.observe_pairs(pairs)

    def _push(self, n: int, prop_bits: int, gen_bits: int) -> None:
        if n <= 0:
            return
        self._segments.append((n, prop_bits, gen_bits))
        self._pairs += n
        self._prop_bits += prop_bits
        self._gen_bits += gen_bits
        while self._pairs > self.window_pairs and len(self._segments) > 1:
            old_n, old_p, old_g = self._segments.popleft()
            self._pairs -= old_n
            self._prop_bits -= old_p
            self._gen_bits -= old_g

    # -- estimates ------------------------------------------------------

    @property
    def pairs(self) -> int:
        """Operand pairs currently inside the window."""
        return self._pairs

    @property
    def bits(self) -> int:
        """Bit positions observed (pairs x width)."""
        return self._pairs * self.width

    @property
    def p_propagate(self) -> float:
        """Estimated per-bit propagate probability (0.5 when empty).

        The uniform prior matches the paper's i.i.d. model, so an
        unwarmed profile reproduces the exact uniform forecasts.
        """
        if self._pairs == 0:
            return 0.5
        return self._prop_bits / self.bits

    @property
    def p_generate(self) -> float:
        """Estimated per-bit generate probability (0.25 when empty)."""
        if self._pairs == 0:
            return 0.25
        return self._gen_bits / self.bits

    @property
    def p_kill(self) -> float:
        return max(0.0, 1.0 - self.p_propagate - self.p_generate)

    def reset(self) -> None:
        self._segments.clear()
        self._pairs = self._prop_bits = self._gen_bits = 0

    def snapshot(self) -> Dict[str, Any]:
        """JSON-able summary for decision traces and reports."""
        return {
            "width": self.width,
            "window_pairs": self.window_pairs,
            "pairs": self._pairs,
            "p_propagate": self.p_propagate,
            "p_generate": self.p_generate,
            "p_kill": self.p_kill,
        }

    @classmethod
    def fixed(cls, width: int, p_propagate: float,
              p_generate: float = None, pairs: int = 1 << 20,
              ) -> "OperandProfile":
        """A synthetic profile pinned at given bit fractions.

        Used by the offline what-if path where no live traffic exists.
        The remaining probability mass is split evenly between generate
        and kill when ``p_generate`` is not given (symmetric operands).
        """
        if not 0.0 <= p_propagate <= 1.0:
            raise ValueError("p_propagate must be in [0, 1]")
        if p_generate is None:
            p_generate = (1.0 - p_propagate) / 2.0
        if p_generate < 0 or p_propagate + p_generate > 1.0 + 1e-12:
            raise ValueError("p_propagate + p_generate must be <= 1")
        prof = cls(width=width, window_pairs=max(pairs, 1))
        bits = pairs * width
        prof._push(pairs, round(p_propagate * bits), round(p_generate * bits))
        return prof


def profile_from_pairs(width: int, pairs: Iterable[Tuple[int, int]],
                       window_pairs: int = 8192) -> OperandProfile:
    """Convenience constructor used in tests and offline analysis."""
    prof = OperandProfile(width=width, window_pairs=window_pairs)
    prof.observe_pairs(list(pairs))
    return prof
