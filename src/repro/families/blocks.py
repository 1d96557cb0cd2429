"""Shared substrate for block-boundary speculative adders.

The CESA-R and the configurable block-based approximate adder (and the
ACA itself, viewed the right way) all cut the operands into blocks and
speculate the carry into each block from a bounded ``lookahead`` window
of the bits directly below the cut, assuming no carry enters that
window.  This module holds everything the two new families share:

* gate-level builders (speculative core and full VLSA-style datapath)
  on top of :class:`repro.core.aca.AcaBuilder`'s prefix strips, so the
  detector and recovery reuse the speculative core's range products the
  same way the paper's ACA does;
* the functional model (:class:`BlockSpecModel`), whose one
  speculate/detect rule runs on Python ints, object lanes and, as the
  batch kernel for widths up to 64, on uint64 lanes;
* the mapping onto the error model's speculation cuts
  (:class:`~repro.analysis.error_model.Boundary`).

Two detector disciplines exist:

* ``"window"`` — conservative (Wu et al. style): fire when a lookahead
  window is all-propagate, whether or not a carry actually arrives;
* ``"exact"`` — the CESA-R rectifier: compare each estimate against the
  true block carry (from the recovery lookahead), so the flag fires iff
  the speculative result is actually wrong.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

import numpy as np

from ..analysis.error_model import Boundary
from .base import KernelBatch, SpeculativeModel, uint64_kernel
from .words import Word, WordOps, window_all_ones

if TYPE_CHECKING:  # the gate-level builders import these when called
    from ..circuit import Circuit
    from ..core.aca import AcaBuilder

__all__ = [
    "DETECTORS",
    "block_bounds",
    "block_boundaries",
    "BlockSpecModel",
    "build_block_speculative",
    "build_block_datapath",
    "block_numpy_kernel",
]

#: Detector disciplines (see module docstring).
DETECTORS = ("window", "exact")

#: OR-tree arity for the error-flag reduction (matches core.error_detect).
_OR_ARITY = 4


def block_bounds(width: int, block: int) -> List[Tuple[int, int]]:
    """``(lo, hi)`` spans of the ``block``-bit blocks, LSB block first
    (the top block may be short)."""
    if block < 1:
        raise ValueError("block must be >= 1")
    bounds: List[Tuple[int, int]] = []
    lo = 0
    while lo < width:
        hi = min(lo + block, width) - 1
        bounds.append((lo, hi))
        lo = hi + 1
    return bounds


def block_boundaries(width: int, block: int,
                     lookahead: int) -> List[Boundary]:
    """The non-anchored speculation cuts of this geometry.

    Cuts with ``lookahead >= lo`` see every lower bit (plus the external
    carry-in): they never err and no block detector watches them, so
    they are excluded — mirroring the gate-level builder and the
    functional model.
    """
    return [Boundary(lo, lookahead)
            for lo, _ in block_bounds(width, block)
            if 0 < lo and lookahead < lo]


# ----------------------------------------------------------------------
# Functional model
# ----------------------------------------------------------------------
class BlockSpecModel(SpeculativeModel):
    """Functional model of a block-boundary speculative adder.

    :meth:`rule` is the one body of the blockspec and CESA-R families,
    on every lane type of :mod:`repro.families.words`.

    Args:
        width: Operand bitwidth.
        block: Block size ``k`` (clamped to *width*).
        lookahead: Carry-estimate window ``t`` (clamped to *width*).
        detector: ``"window"`` or ``"exact"`` (see module docstring).
    """

    def __init__(self, width: int, block: int, lookahead: int,
                 detector: str = "window"):
        if width <= 0:
            raise ValueError("width must be positive")
        if detector not in DETECTORS:
            raise ValueError(f"unknown detector {detector!r}; "
                             f"expected one of {DETECTORS}")
        self.width = width
        self.block = min(max(1, block), width)
        self.lookahead = min(max(1, lookahead), width)
        self.detector = detector
        self.bounds = block_bounds(width, self.block)
        # Bit ``lo - lookahead`` of every non-anchored cut ``lo``: the
        # window detector fires when an all-propagate window starts there.
        self._watched = sum(1 << (cut.pos - cut.lookahead) for cut in
                            block_boundaries(width, self.block,
                                             self.lookahead))

    def rule(self, ops: WordOps, a: Word, b: Word, cin: Word) -> KernelBatch:
        """Each block adds its operand slice to its carry estimate; the
        carry out comes from the top block.  The estimate at a cut is
        ``cin`` at bit 0, the true carry where the window reaches bit 0
        (an anchored cut), and otherwise the carry out of the
        ``lookahead`` bits under the cut with zero carry in."""
        t = self.lookahead
        p = a ^ b
        exact, cout = ops.add(a, b, cin, self.width)
        carries = exact ^ p  # bit i: the true carry into bit i
        window = ops.ones(t)
        spec = ops.zero
        for lo, hi in self.bounds:
            if lo == 0:
                est = cin
            elif t >= lo:
                est = (carries >> lo) & ops.one
            else:
                _, est = ops.add((a >> (lo - t)) & window,
                                 (b >> (lo - t)) & window, ops.zero, t)
            blk = ops.ones(hi - lo + 1)
            total, spec_cout = ops.add((a >> lo) & blk, (b >> lo) & blk,
                                       est, hi - lo + 1)
            spec = spec | (total << lo)
        spec_errors = (spec != exact) | (spec_cout != cout)
        if self.detector == "exact":
            flags = spec_errors
        else:
            flags = (window_all_ones(p, t) & ops.word(self._watched)) != 0
        return KernelBatch(spec, spec_cout, exact, cout, flags, spec_errors)


# ----------------------------------------------------------------------
# Gate-level builders
# ----------------------------------------------------------------------
def _prefix_builder(circuit: Circuit, a: List[int], b: List[int],
                    block: int, lookahead: int,
                    cin: Optional[int]) -> AcaBuilder:
    from ..core.aca import AcaBuilder

    reach = min(max(block, lookahead), len(a))
    return AcaBuilder(circuit, a, b, reach, cin).build_prefix()


def _attach_block_spec(builder: AcaBuilder, block: int, lookahead: int
                       ) -> Tuple[List[int], int, List[int],
                                  List[Tuple[int, int]]]:
    """Speculative sum/cout nets on top of built prefix strips.

    Returns ``(sums, cout, estimates, bounds)`` where ``estimates[j]``
    is the carry net fed into block ``j`` (the nets the exact detector
    compares against the true block carries).
    """
    c = builder.circuit
    n = builder.width
    bounds = block_bounds(n, block)
    zero = c.const(0)

    ests: List[int] = []
    for lo, _hi in bounds:
        if lo == 0:
            ests.append(builder.cin if builder.cin is not None else zero)
        elif lookahead >= lo:
            # Anchored cut: the window reaches bit 0 and absorbs cin,
            # so the "estimate" is the true carry into the block.
            g_low, p_low = builder.range_product(0, lo - 1)
            if builder.cin is not None:
                ests.append(c.add_gate("AO21", p_low, builder.cin, g_low,
                                       pos=float(lo)))
            else:
                ests.append(g_low)
        else:
            g_win, _p_win = builder.range_product(lo - lookahead, lo - 1)
            ests.append(g_win)

    sums: List[int] = []
    for (lo, hi), est in zip(bounds, ests):
        for i in range(lo, hi + 1):
            if i == lo:
                carry = est
            else:
                g_pre, p_pre = builder.range_product(lo, i - 1)
                carry = c.add_gate("AO21", p_pre, est, g_pre, pos=float(i))
            sums.append(c.add_gate("XOR", builder.p[i], carry,
                                   pos=float(i)))

    top_lo, top_hi = bounds[-1]
    g_blk, p_blk = builder.range_product(top_lo, top_hi)
    cout = c.add_gate("AO21", p_blk, ests[-1], g_blk, pos=float(n))
    return sums, cout, ests, bounds


def _stamp_attrs(circuit: Circuit, block: int, lookahead: int,
                 primary: int) -> None:
    circuit.attrs["block"] = block
    circuit.attrs["lookahead"] = lookahead
    # Timing/report layers read the generic knob under "window".
    circuit.attrs["window"] = primary


def build_block_speculative(name: str, width: int, block: int,
                            lookahead: int, cin: bool = False,
                            primary: Optional[int] = None) -> Circuit:
    """The speculative core: buses ``a``/``b`` (and ``cin``), outputs
    ``sum`` and (speculative) ``cout``."""
    from ..adders.base import adder_ports
    from ..circuit import CircuitError

    if block < 1 or lookahead < 1:
        raise CircuitError("block and lookahead must be >= 1")
    block = min(block, width)
    lookahead = min(lookahead, width)
    circuit, a, b, cin_net = adder_ports(name, width, cin)
    builder = _prefix_builder(circuit, a, b, block, lookahead, cin_net)
    sums, cout, _ests, _bounds = _attach_block_spec(builder, block,
                                                    lookahead)
    circuit.set_output("sum", sums)
    circuit.set_output("cout", cout)
    _stamp_attrs(circuit, block, lookahead,
                 primary if primary is not None else lookahead)
    return circuit


def build_block_datapath(name: str, width: int, block: int, lookahead: int,
                         detector: str = "window", cin: bool = False,
                         primary: Optional[int] = None) -> Circuit:
    """The full variable-latency datapath with fully shared logic.

    Outputs follow the repo's VLSA convention: ``sum``/``cout``
    (speculative, 1-cycle path), ``err`` (the detector), ``sum_exact``/
    ``cout_exact`` (the recovery path).  The recovery is a block-level
    carry lookahead over the same block products the speculative core
    already computed; with the ``"exact"`` detector the rectifier
    compares each estimate against the true block carry, so ``err``
    fires iff the speculative result is actually wrong.
    """
    from ..adders.base import adder_ports
    from ..adders.cla import lookahead_carries
    from ..circuit import CircuitError, or_tree

    if detector not in DETECTORS:
        raise CircuitError(f"unknown detector {detector!r}; "
                           f"expected one of {DETECTORS}")
    if block < 1 or lookahead < 1:
        raise CircuitError("block and lookahead must be >= 1")
    block = min(block, width)
    lookahead = min(lookahead, width)
    circuit, a, b, cin_net = adder_ports(name, width, cin)
    builder = _prefix_builder(circuit, a, b, block, lookahead, cin_net)
    sums, cout, ests, bounds = _attach_block_spec(builder, block, lookahead)

    # Recovery: true carry into every block from a classic lookahead
    # over the block (G, P) products, then intra-block prefixes.
    grp = [builder.range_product(lo, hi) for lo, hi in bounds]
    block_carries, exact_cout = lookahead_carries(
        circuit, [g for g, _ in grp], [p for _, p in grp], cin_net,
        pos_step=float(block))
    exact_sums: List[int] = []
    for k, (lo, hi) in enumerate(bounds):
        c_blk = block_carries[k]
        for i in range(lo, hi + 1):
            if i == lo:
                carry = c_blk
            else:
                g_pre, p_pre = builder.range_product(lo, i - 1)
                carry = circuit.add_gate("AO21", p_pre, c_blk, g_pre,
                                         pos=float(i))
            exact_sums.append(circuit.add_gate("XOR", builder.p[i], carry,
                                               pos=float(i)))

    # Detector over the non-anchored cuts.
    terms: List[int] = []
    for j, (lo, _hi) in enumerate(bounds):
        if lo == 0 or lookahead >= lo:
            continue
        if detector == "exact":
            terms.append(circuit.add_gate("XOR", ests[j], block_carries[j],
                                          pos=float(lo)))
        else:
            _g_win, p_win = builder.range_product(lo - lookahead, lo - 1)
            terms.append(p_win)
    err = (or_tree(circuit, terms, max_arity=_OR_ARITY) if terms
           else circuit.const(0))

    circuit.set_output("sum", sums)
    circuit.set_output("cout", cout)
    circuit.set_output("err", err)
    circuit.set_output("sum_exact", exact_sums)
    circuit.set_output("cout_exact", exact_cout)
    _stamp_attrs(circuit, block, lookahead,
                 primary if primary is not None else lookahead)
    return circuit


# ----------------------------------------------------------------------
# Vectorised batch kernel
# ----------------------------------------------------------------------
def block_numpy_kernel(width: int, block: int, lookahead: int,
                       detector: str = "window"
                       ) -> Callable[[np.ndarray, np.ndarray], KernelBatch]:
    """:class:`BlockSpecModel`'s rule on uint64 lanes (widths up to 64)."""
    return uint64_kernel(BlockSpecModel(width, block, lookahead, detector))
