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
* the big-int functional model (:class:`BlockSpecModel`);
* the vectorised uint64 batch kernel for widths up to 64;
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

from typing import Callable, List, Optional, Tuple

import numpy as np

from ..adders.base import adder_ports
from ..adders.cla import lookahead_carries
from ..analysis.error_model import Boundary
from ..circuit import Circuit, CircuitError, or_tree
from ..core.aca import AcaBuilder
from .base import KernelBatch, SpeculativeModel

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
    """Big-int functional model of a block-boundary speculative adder.

    Evaluates one pair of Python ints, or elementwise ``dtype=object``
    lanes of them (:meth:`~repro.families.base.SpeculativeModel.
    run_arrays`).

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

    def _estimate(self, a: int, b: int, cin: int, lo: int) -> int:
        """Carry estimate into the block starting at *lo* (hardware
        semantics: anchored cuts are exact, others see ``lookahead``
        bits with an assumed zero carry below)."""
        if lo == 0:
            return cin & 1
        t = self.lookahead
        if t >= lo:
            low_mask = (1 << lo) - 1
            return ((a & low_mask) + (b & low_mask) + (cin & 1)) >> lo
        w_mask = (1 << t) - 1
        wa = (a >> (lo - t)) & w_mask
        wb = (b >> (lo - t)) & w_mask
        return (wa + wb) >> t

    def add(self, a: int, b: int, cin: int = 0) -> Tuple[int, int]:
        """Speculative ``(sum, cout)`` exactly as the hardware computes
        it: each block adds its operand slice to its carry estimate; the
        carry out comes from the top block."""
        mask = self._mask()
        a = a & mask  # not in place: *a* may be an array
        b = b & mask
        result = 0
        carry_out = 0
        for lo, hi in self.bounds:
            blk_len = hi - lo + 1
            blk_mask = (1 << blk_len) - 1
            est = self._estimate(a, b, cin, lo)
            total = ((a >> lo) & blk_mask) + ((b >> lo) & blk_mask) + est
            result |= (total & blk_mask) << lo
            carry_out = total >> blk_len
        return result, carry_out

    def flags_error(self, a: int, b: int) -> bool:
        """The detector decision (computed at ``cin = 0``, like the
        ACA's; the gate-level datapath agrees whenever it is built
        without a carry-in port, which is how every serving/verify layer
        instantiates it)."""
        if self.detector == "exact":
            spec_sum, spec_cout = self.add(a, b)
            exact_sum, exact_cout = self.exact(a, b)
            return (spec_sum != exact_sum) | (spec_cout != exact_cout)
        p = (a ^ b) & self._mask()
        t = self.lookahead
        w_mask = (1 << t) - 1
        flag = False
        for lo, _ in self.bounds:
            if lo == 0 or t >= lo:
                continue
            flag = flag | ((p >> (lo - t)) & w_mask == w_mask)
        return flag


# ----------------------------------------------------------------------
# Gate-level builders
# ----------------------------------------------------------------------
def _prefix_builder(circuit: Circuit, a: List[int], b: List[int],
                    block: int, lookahead: int,
                    cin: Optional[int]) -> AcaBuilder:
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
    """uint64 batch kernel bit-identical to :class:`BlockSpecModel`.

    Supports widths up to 64 (the per-block slice arithmetic needs one
    spare bit, which the block decomposition always leaves unless the
    whole operand is a single — then exact — block).
    """
    if width > 64:
        raise ValueError("numpy kernels support widths up to 64 bits")
    if detector not in DETECTORS:
        raise ValueError(f"unknown detector {detector!r}")
    block = min(max(1, block), width)
    lookahead = min(max(1, lookahead), width)
    bounds = block_bounds(width, block)
    int_mask = (1 << width) - 1
    mask = np.uint64(int_mask if width < 64 else 0xFFFFFFFFFFFFFFFF)

    def kernel(a: np.ndarray, b: np.ndarray) -> KernelBatch:
        a = np.asarray(a, dtype=np.uint64) & mask
        b = np.asarray(b, dtype=np.uint64) & mask
        s = (a + b) & mask  # uint64 wraparound == mod 2^64 at width 64
        if width < 64:
            exact_couts = ((a + b) >> np.uint64(width)).astype(np.uint64)
        else:
            exact_couts = (s < a).astype(np.uint64)
        p = a ^ b

        if len(bounds) == 1:
            # Single (anchored) block: the adder is exact by geometry.
            zero_flags = np.zeros(a.shape, dtype=bool)
            return KernelBatch(spec_sums=s.copy(), spec_couts=exact_couts,
                               exact_sums=s, exact_couts=exact_couts,
                               flags=zero_flags,
                               spec_errors=zero_flags.copy())

        spec = np.zeros_like(a)
        spec_cout = np.zeros_like(a)
        flags = np.zeros(a.shape, dtype=bool)
        for lo, hi in bounds:
            blk_len = hi - lo + 1
            blk_mask = np.uint64((1 << blk_len) - 1)
            blk_a = (a >> np.uint64(lo)) & blk_mask
            blk_b = (b >> np.uint64(lo)) & blk_mask
            if lo == 0:
                est = np.zeros_like(a)
            elif lookahead >= lo:
                low_mask = np.uint64((1 << lo) - 1)
                est = ((a & low_mask) + (b & low_mask)) >> np.uint64(lo)
            else:
                w_mask = np.uint64((1 << lookahead) - 1)
                wa = (a >> np.uint64(lo - lookahead)) & w_mask
                wb = (b >> np.uint64(lo - lookahead)) & w_mask
                est = (wa + wb) >> np.uint64(lookahead)
                if detector == "window":
                    flags |= ((p >> np.uint64(lo - lookahead)) & w_mask
                              ) == w_mask
            total = blk_a + blk_b + est  # blk_len <= 63 here: no overflow
            spec |= (total & blk_mask) << np.uint64(lo)
            spec_cout = total >> np.uint64(blk_len)
        spec_errors = (spec != s) | (spec_cout != exact_couts)
        if detector == "exact":
            flags = spec_errors.copy()
        return KernelBatch(spec_sums=spec, spec_couts=spec_cout,
                           exact_sums=s, exact_couts=exact_couts,
                           flags=flags, spec_errors=spec_errors)

    return kernel
